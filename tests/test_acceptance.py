"""Acceptance suite: one test per criterion, at the stated tolerances.

The headline numbers of large-scale video benchmarks are out of reach on
synthetic desk-scale data, so the heavy criteria check the qualitative claims
(multi-clip gains, scheme ordering, budget behavior) on seeded experiments
whose configurations are frozen here. Each test prints its own pass line;
run with `pytest -v -s tests/test_acceptance.py` for the full report.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from scipy.stats import kstest

from dpvideo.accountant import (
    AccountantState,
    PrivacyBudget,
    group_privacy,
    rdp_gaussian,
    rdp_subsampled_gaussian,
    to_epsilon,
)
from dpvideo.autodiff import backward
from dpvideo.data import DatasetSpec, VideoSample, generate_dataset, save_dataset
from dpvideo.dp import MultiClipEntry, NoiseConfig, clip_gradient, clip_video_gradients, noisy_aggregate
from dpvideo.models import AdapterSpec, ModelConfig, build_model, insert_adapters, video_logits
from dpvideo.trainer import PretrainConfig, TrainConfig, pretrain, sweep_clips, train
from oracles import finite_difference, grad_close, renyi_divergence_quadrature


def _report(criterion: str, detail: str = "") -> None:
    print(f"\nACCEPTANCE {criterion}: PASS {detail}".rstrip(), flush=True)


# ---------------------------------------------------------------------------
# shared experiment fixtures (datasets, source checkpoint)
# ---------------------------------------------------------------------------

# the default desk-scale dataset, in its 8-clips-per-video variant
DEFAULT_TRAIN = DatasetSpec(num_classes=10, videos_per_class=100, frames_per_video=64,
                            clip_length=8, feature_dim=32, noise_std=0.5, seed=1000)
DEFAULT_EVAL = dataclasses.replace(DEFAULT_TRAIN, videos_per_class=20, seed=1001,
                                   template_seed=1000)

# harder variant for the scheme comparison: same videos, triple the pixel noise,
# so private fine-tuning stays well below its ceiling
HARD_TRAIN = dataclasses.replace(DEFAULT_TRAIN, noise_std=1.5)
HARD_EVAL = dataclasses.replace(DEFAULT_EVAL, noise_std=1.5)

# pre-training source: shared templates, perturbed (domain gap), noise-matched
HARD_SOURCE = dataclasses.replace(HARD_TRAIN, videos_per_class=50, seed=2000,
                                  template_seed=1000, template_jitter=1.5)

MULTI_CLIP_RUN = dict(
    hidden_dims=(64,),
    norm_kind="layer",
    scheme="from_scratch",
    target_epsilon=5.0,
    delta=1e-5,
    clip_norm=1.0,
    sampling_rate=0.1,
    max_epochs=40.0,
    learning_rate=1.0,
    eval_every=100,
)

SCHEME_RUN = dict(
    hidden_dims=(128,),
    norm_kind="layer",
    target_epsilon=1.0,
    delta=1e-5,
    clip_norm=1.0,
    clips_per_video=1,
    sampling_rate=0.05,
    max_epochs=20.0,
    eval_every=200,
)

# per-scheme learning rates, grid-searched offline over [1e-2, 1] and frozen
SCHEME_LRS = {"linear_probe": 0.05, "selective": 0.05, "full": 0.05, "from_scratch": 0.05}


@pytest.fixture(scope="session")
def experiment_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    paths = {}
    for name, spec in (
        ("default_train", DEFAULT_TRAIN),
        ("default_eval", DEFAULT_EVAL),
        ("hard_train", HARD_TRAIN),
        ("hard_eval", HARD_EVAL),
        ("hard_source", HARD_SOURCE),
    ):
        path = str(root / f"{name}.dpvd")
        save_dataset(path, spec, generate_dataset(spec))
        paths[name] = path
    return paths


@pytest.fixture(scope="session")
def source_checkpoint(experiment_data, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("ckpt") / "source.dpvm")
    _, accuracy = pretrain(PretrainConfig(
        data=experiment_data["hard_source"], out=out, hidden_dims=(128,),
        norm_kind="layer", epochs=8, batch_size=64, learning_rate=0.2, seed=0,
    ))
    assert accuracy > 0.5, "source pre-training must learn its own task"
    return out


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_clipping_contract():
    started = time.time()
    gen = np.random.default_rng(1)
    identity_cases = 0
    for _ in range(10_000):
        dim = int(gen.integers(1, 64))
        grad = gen.standard_normal(dim) * float(10.0 ** gen.uniform(-3, 2))
        for bound in (0.5, 1.0, 2.0):
            clipped = clip_gradient(grad, bound)
            assert np.linalg.norm(clipped) <= bound + 1e-9
            if np.linalg.norm(grad) <= bound:
                assert np.array_equal(clipped, grad)
                identity_cases += 1
    assert identity_cases > 1000, "fixture must exercise the identity branch"
    elapsed = time.time() - started
    assert elapsed < 5.0
    _report("1 (clipping contract)", f"[{elapsed:.1f}s]")


@pytest.mark.slow
def test_criterion_02_accountant_vs_integration_oracle():
    started = time.time()
    gen = np.random.default_rng(2)
    for _ in range(100):
        q = float(gen.uniform(0.001, 0.5))
        sigma = float(gen.uniform(0.5, 4.0))
        order = int(gen.integers(2, 33))
        formula = rdp_subsampled_gaussian(q, sigma, order)
        oracle = renyi_divergence_quadrature(q, sigma, order)
        assert formula >= oracle - 1e-9, (q, sigma, order)
        if q <= 0.05:
            assert abs(formula - oracle) <= 0.05 * oracle + 1e-12, (q, sigma, order)
    for sigma in (0.5, 1.0, 2.5, 4.0):
        for order in (2, 7, 32, 256):
            assert rdp_subsampled_gaussian(1.0, sigma, order) == pytest.approx(
                rdp_gaussian(order, sigma), abs=1e-9
            )
    elapsed = time.time() - started
    assert elapsed < 60.0
    _report("2 (accountant vs oracle)", f"[{elapsed:.1f}s]")


@pytest.mark.slow
def test_criterion_03_budget_stop_and_k_independence(experiment_data):
    started = time.time()
    base = TrainConfig(
        train_data=experiment_data["default_train"],
        eval_data=experiment_data["default_eval"],
        seed=0,
        **MULTI_CLIP_RUN,
    )
    run_k1 = train(dataclasses.replace(base, clips_per_video=1))
    run_k8 = train(dataclasses.replace(base, clips_per_video=8))
    assert run_k1.final_epsilon == run_k8.final_epsilon, "spent budget must not depend on K"
    assert run_k1.noise_multiplier == run_k8.noise_multiplier
    assert run_k1.steps == run_k8.steps
    for run in (run_k1, run_k8):
        assert 0.99 * 5.0 < run.final_epsilon <= 5.0
        assert run.delta == 1e-5
    elapsed = time.time() - started
    assert elapsed < 600.0
    _report("3 (budget stop, K-independence)",
            f"[eps={run_k1.final_epsilon:.4f}, {elapsed:.0f}s]")


@pytest.mark.slow
def test_criterion_04_multi_clip_directional_gain(experiment_data):
    started = time.time()
    base = TrainConfig(
        train_data=experiment_data["default_train"],
        eval_data=experiment_data["default_eval"],
        clips_per_video=1,
        seed=0,
        **MULTI_CLIP_RUN,
    )
    reports = sweep_clips(base, k_values=[1, 2, 4, 8], seeds=[0, 1, 2, 3, 4])
    acc = {k: [] for k in (1, 2, 4, 8)}
    for rep in reports:
        acc[rep.clips_per_video].append(rep.final_accuracy)
    means = {k: float(np.mean(v)) for k, v in acc.items()}
    strictly_increasing = means[1] < means[2] < means[4] < means[8]
    relaxed = means[8] > means[4] > means[1]
    assert strictly_increasing or relaxed, f"no monotone multi-clip gain: {means}"
    assert means[8] - means[1] >= 0.03, f"K=8 must beat K=1 by >= 3 points: {means}"
    elapsed = time.time() - started
    assert elapsed < 3600.0
    _report("4 (multi-clip gain)",
            f"[means={ {k: round(v, 3) for k, v in means.items()} }, {elapsed:.0f}s]")


@pytest.mark.slow
def test_criterion_05_scheme_ordering_at_small_epsilon(experiment_data, source_checkpoint):
    started = time.time()
    means = {}
    for scheme in ("linear_probe", "selective", "full", "from_scratch"):
        accs = []
        for seed in range(5):
            config = TrainConfig(
                train_data=experiment_data["hard_train"],
                eval_data=experiment_data["hard_eval"],
                scheme=scheme,
                learning_rate=SCHEME_LRS[scheme],
                seed=seed,
                checkpoint=None if scheme == "from_scratch" else source_checkpoint,
                **SCHEME_RUN,
            )
            accs.append(train(config).final_accuracy)
        means[scheme] = float(np.mean(accs))
    assert means["selective"] > means["full"], means
    assert means["linear_probe"] > means["full"], means
    assert means["from_scratch"] == min(means.values()), means
    elapsed = time.time() - started
    assert elapsed < 3600.0
    _report("5 (scheme ordering)",
            f"[means={ {k: round(v, 3) for k, v in means.items()} }, {elapsed:.0f}s]")


def test_criterion_06_gradient_correctness_per_layer_type():
    started = time.time()
    model = build_model(
        ModelConfig(input_dim=6, frames_per_clip=3, hidden_dims=(8, 8),
                    norm_kind="layer", num_classes=4),
        seed=60,
    )
    insert_adapters(model, AdapterSpec(bottleneck_dim=4), seed=60)
    gen = np.random.default_rng(61)
    for name in model.params.names():
        value = model.params.value(name)
        model.params.set_value(name, value + 0.25 * gen.standard_normal(value.shape))

    groups = {"dense": [], "norm": [], "adapter": []}
    for name in model.params.names():
        if name.startswith("adapter"):
            groups["adapter"].append(name)
        elif ".norm." in name:
            groups["norm"].append(name)
        else:
            groups["dense"].append(name)

    for group, names in groups.items():
        checked = 0
        while checked < 100:
            inputs = {"clip": gen.standard_normal((3, 6))[None], "label": np.array([int(gen.integers(0, 4))])}
            grads = backward(model.tape, inputs, model.params)
            name = str(gen.choice(names))
            value = model.params.value(name)
            index = tuple(int(gen.integers(0, s)) for s in value.shape)
            analytic = float(grads[name][index]) if name in grads else 0.0
            numeric = finite_difference(model.tape, inputs, model.params, name, index)
            assert grad_close(analytic, numeric, rel=1e-4), (group, name, index, analytic, numeric)
            checked += 1
    elapsed = time.time() - started
    assert elapsed < 120.0
    _report("6 (gradient correctness)", f"[{elapsed:.1f}s]")


def test_criterion_07_adapter_identity_init():
    started = time.time()
    model = build_model(
        ModelConfig(input_dim=12, frames_per_clip=4, hidden_dims=(16, 16),
                    norm_kind="layer", num_classes=6),
        seed=70,
    )
    gen = np.random.default_rng(71)
    probes = [VideoSample(id=0, label=0, frames=gen.standard_normal((4, 12))) for _ in range(1000)]
    before = [video_logits(model, p) for p in probes]
    insert_adapters(model, AdapterSpec(bottleneck_dim=8), seed=70)
    worst = max(
        float(np.max(np.abs(video_logits(model, p) - b))) for p, b in zip(probes, before)
    )
    assert worst < 1e-12
    elapsed = time.time() - started
    assert elapsed < 10.0
    _report("7 (adapter identity init)", f"[max dev {worst:.2e}, {elapsed:.1f}s]")


def test_criterion_08_noise_statistics():
    started = time.time()
    cfg = NoiseConfig(clip_norm=1.0, noise_multiplier=1.0, seed=80)
    draws = noisy_aggregate([np.zeros(100_000)], cfg, step_id=0)
    assert abs(draws.mean()) < 4.0 / math.sqrt(100_000)
    assert abs(draws.var() - 1.0) < 0.05
    assert kstest(draws, "norm").pvalue > 0.01
    again = noisy_aggregate([np.zeros(100_000)], cfg, step_id=0)
    assert np.array_equal(draws, again)
    elapsed = time.time() - started
    assert elapsed < 30.0
    _report("8 (noise statistics)",
            f"[mean={draws.mean():.4f}, var={draws.var():.4f}, "
            f"ks p={kstest(draws, 'norm').pvalue:.3f}, {elapsed:.1f}s]")


def test_criterion_09_sensitivity_surrogate():
    started = time.time()
    gen = np.random.default_rng(90)
    model = build_model(
        ModelConfig(input_dim=5, frames_per_clip=2, hidden_dims=(6,),
                    norm_kind="layer", num_classes=3),
        seed=90,
    )
    cfg = NoiseConfig(clip_norm=1.0, noise_multiplier=0.0, seed=0)
    for _ in range(50):
        batch = [
            MultiClipEntry(
                label=int(gen.integers(0, 3)),
                clips=[(j, gen.standard_normal((2, 5))) for j in range(int(gen.integers(1, 5)))],
            )
            for _ in range(int(gen.integers(2, 6)))
        ]
        clipped, _ = clip_video_gradients(model.tape, model.params, batch, cfg)
        full_sum = np.sum(clipped, axis=0)
        for drop in range(len(batch)):
            reduced = [e for i, e in enumerate(batch) if i != drop]
            partial, _ = clip_video_gradients(model.tape, model.params, reduced, cfg)
            change = np.linalg.norm(full_sum - np.sum(partial, axis=0))
            assert change <= cfg.clip_norm + 1e-9
    elapsed = time.time() - started
    assert elapsed < 300.0
    _report("9 (sensitivity surrogate)", f"[{elapsed:.1f}s]")


def test_criterion_10_group_privacy_blowup():
    base = PrivacyBudget(epsilon=0.625, delta=1e-5)
    blown = group_privacy(base, 8)
    assert blown.epsilon == 5.0
    assert blown.delta == pytest.approx(8.0 * math.exp(7.0 * 0.625) * 1e-5, rel=1e-12)
    # the multi-clip route reaches the same 8-clip videos at the base budget,
    # i.e. an 8x smaller epsilon and an 635x smaller delta
    assert blown.delta / base.delta == pytest.approx(8.0 * math.exp(4.375), rel=1e-12)
    _report("10 (group privacy blow-up)",
            f"[eps'={blown.epsilon}, delta'={blown.delta:.3e}]")
