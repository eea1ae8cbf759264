import numpy as np
import pytest

from dpvideo.autodiff import backward
from dpvideo.dp import NoiseConfig, dp_sgd_step
from dpvideo.finetune import Scheme, apply_scheme
from dpvideo.models import AdapterSpec, ModelConfig, build_model, insert_adapters

# two hidden blocks of width 8, layer norm, 5 classes on 6-dim features
FIXTURE = ModelConfig(input_dim=6, frames_per_clip=4, hidden_dims=(8, 8),
                      norm_kind="layer", num_classes=5)

HEAD_COUNT = 8 * 5 + 5
NORM_COUNT = 2 * (8 + 8)
ADAPTER_COUNT = 2 * ((8 * 4 + 4) + (4 * 8 + 8))
FULL_COUNT = (6 * 8 + 8) + (8 * 8 + 8) + NORM_COUNT + HEAD_COUNT


def adapted_model(seed=0):
    model = build_model(FIXTURE, seed=seed)
    insert_adapters(model, AdapterSpec(bottleneck_dim=4), seed=seed)
    return model


def test_linear_probe_trains_only_the_head():
    model = build_model(FIXTURE, seed=1)
    apply_scheme(model.params, Scheme("linear_probe"))
    assert model.params.trainable_names() == ["head.weight", "head.bias"]
    assert model.params.count_trainable() == HEAD_COUNT


def test_selective_adds_norm_scale_and_shift():
    model = build_model(FIXTURE, seed=1)
    apply_scheme(model.params, Scheme("selective"))
    extra = model.params.count_trainable() - HEAD_COUNT
    assert extra == NORM_COUNT
    for name in model.params.trainable_names():
        assert name.startswith("head.") or ".norm." in name


def test_adapter_trains_head_plus_adapters():
    model = adapted_model()
    apply_scheme(model.params, Scheme("adapter"))
    assert model.params.count_trainable() == HEAD_COUNT + ADAPTER_COUNT
    for name in model.params.trainable_names():
        assert name.startswith("head.") or name.startswith("adapter")


def test_full_and_from_scratch_train_everything():
    for kind in ("full", "from_scratch"):
        model = build_model(FIXTURE, seed=1)
        apply_scheme(model.params, Scheme(kind))
        assert model.params.count_trainable() == FULL_COUNT


def test_trainable_count_ordering_matches_scheme_sizes():
    counts = {}
    for kind in ("linear_probe", "selective", "adapter", "full"):
        model = adapted_model() if kind == "adapter" else build_model(FIXTURE, seed=1)
        apply_scheme(model.params, Scheme(kind))
        counts[kind] = model.params.count_trainable()
    assert counts["linear_probe"] < counts["selective"] < counts["adapter"] < counts["full"]


def test_scheme_application_is_idempotent():
    model = adapted_model(seed=3)
    apply_scheme(model.params, Scheme("selective"))
    first = {n: model.params.is_trainable(n) for n in model.params.names()}
    values = model.params.snapshot()
    apply_scheme(model.params, Scheme("selective"))
    assert first == {n: model.params.is_trainable(n) for n in model.params.names()}
    for name, value in values.items():
        assert np.array_equal(model.params.value(name), value)


def test_selective_on_norm_free_model_is_rejected_with_guidance():
    config = ModelConfig(input_dim=6, frames_per_clip=4, hidden_dims=(8,),
                         norm_kind="none", num_classes=5)
    model = build_model(config, seed=1)
    with pytest.raises(ValueError, match="linear_probe"):
        apply_scheme(model.params, Scheme("selective"))


def test_adapter_scheme_requires_inserted_adapters():
    model = build_model(FIXTURE, seed=1)
    with pytest.raises(ValueError, match="insert adapters"):
        apply_scheme(model.params, Scheme("adapter"))


def test_unknown_scheme_kind_rejected():
    with pytest.raises(ValueError, match="unknown scheme"):
        Scheme("fancy")


def test_gradient_vector_length_tracks_the_scheme():
    gen = np.random.default_rng(0)
    clip = gen.standard_normal((4, 6))
    for kind, expected in (
        ("linear_probe", HEAD_COUNT),
        ("selective", HEAD_COUNT + NORM_COUNT),
        ("adapter", HEAD_COUNT + ADAPTER_COUNT),
        ("full", FULL_COUNT + ADAPTER_COUNT),
    ):
        model = adapted_model(seed=6)
        apply_scheme(model.params, Scheme(kind))
        grad = model.params.pack_gradient(
            backward(model.tape, {"clip": clip[None], "label": np.array([2])}, model.params)
        )
        assert grad.size == expected == model.params.count_trainable()


def test_frozen_parameters_survive_training_under_every_scheme():
    gen = np.random.default_rng(1)
    cfg = NoiseConfig(clip_norm=1.0, noise_multiplier=0.5, seed=9)
    for kind in ("linear_probe", "selective", "adapter"):
        model = adapted_model(seed=7)
        apply_scheme(model.params, Scheme(kind))
        frozen = [n for n in model.params.names() if not model.params.is_trainable(n)]
        before = model.params.snapshot(frozen)
        for step in range(4):
            batch = [(gen.standard_normal((4, 6)), int(gen.integers(0, 5))) for _ in range(3)]
            dp_sgd_step(batch, model.tape, model.params, cfg, 0.1, step)
        for name in frozen:
            assert np.array_equal(model.params.value(name), before[name]), (kind, name)
