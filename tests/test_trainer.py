import dataclasses
import math

import numpy as np
import pytest

from dpvideo import dp, rng, trainer
from dpvideo.accountant import AccountantState, to_epsilon
from dpvideo.autodiff import backward
from dpvideo.data import DatasetSpec, class_templates, generate_dataset, save_dataset
from dpvideo.dp import clip_gradient
from dpvideo.models import ModelConfig, build_model, load_checkpoint, predict_video, save_checkpoint
from dpvideo.trainer import (
    PretrainConfig,
    RunReport,
    TrainConfig,
    evaluate,
    pretrain,
    report_to_dict,
    sweep_clips,
    train,
)

TRAIN_SPEC = DatasetSpec(num_classes=3, videos_per_class=6, frames_per_video=8,
                         clip_length=4, feature_dim=8, noise_std=0.4, seed=100)
EVAL_SPEC = dataclasses.replace(TRAIN_SPEC, videos_per_class=4, seed=101, template_seed=100)


@pytest.fixture(scope="module")
def datasets(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    paths = {}
    for name, spec in (("train", TRAIN_SPEC), ("eval", EVAL_SPEC)):
        path = str(root / f"{name}.dpvd")
        save_dataset(path, spec, generate_dataset(spec))
        paths[name] = path
    single_spec = dataclasses.replace(TRAIN_SPEC, frames_per_video=4, seed=102)
    single_eval = dataclasses.replace(single_spec, videos_per_class=2, seed=103, template_seed=102)
    for name, spec in (("single_train", single_spec), ("single_eval", single_eval)):
        path = str(root / f"{name}.dpvd")
        save_dataset(path, spec, generate_dataset(spec))
        paths[name] = path
    return paths


def base_config(datasets, **overrides) -> TrainConfig:
    defaults = dict(
        train_data=datasets["train"],
        eval_data=datasets["eval"],
        hidden_dims=(6,),
        norm_kind="layer",
        scheme="full",
        clips_per_video=1,
        target_epsilon=5.0,
        delta=1e-5,
        clip_norm=1.0,
        sampling_rate=0.5,
        max_epochs=3.0,
        learning_rate=0.2,
        seed=0,
        eval_every=3,
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


def test_config_requires_exactly_one_privacy_knob(datasets):
    with pytest.raises(ValueError, match="exactly one"):
        base_config(datasets, target_epsilon=5.0, noise_multiplier=1.0)
    with pytest.raises(ValueError, match="exactly one"):
        base_config(datasets, target_epsilon=None, noise_multiplier=None)


def test_budget_stop_contract(datasets):
    report = train(base_config(datasets))
    assert 0.99 * 5.0 < report.final_epsilon <= 5.0
    assert report.steps == math.ceil(3.0 / 0.5)
    eps_values = [r.epsilon for r in report.records]
    assert eps_values == sorted(eps_values)
    assert report.records[-1].step == report.steps


@pytest.mark.parametrize("overrides", [
    {},  # eval_every=3 divides the 6 steps
    dict(eval_every=4),  # records at 4 and at the final step 6
    dict(sampling_rate=0.3, max_epochs=1.0, eval_every=2),  # ceil(1/0.3) = 4 steps
    dict(target_epsilon=None, noise_multiplier=1.3, eval_every=5),
])
def test_every_record_reads_one_fixed_schedule(datasets, overrides):
    config = base_config(datasets, **overrides)
    report = train(config)
    q, sigma = config.sampling_rate, report.noise_multiplier
    total = math.ceil(config.max_epochs / q)
    assert report.steps == total
    expected_steps = [s for s in range(1, total + 1) if s % config.eval_every == 0]
    if expected_steps[-1:] != [total]:
        expected_steps.append(total)
    assert [r.step for r in report.records] == expected_steps
    for record in report.records:
        fresh = AccountantState.create(q, sigma, record.step)
        assert record.epsilon == to_epsilon(fresh, config.delta)
    assert report.records[-1].epsilon == report.final_epsilon
    if config.target_epsilon is not None:
        assert report.final_epsilon <= config.target_epsilon
    else:
        assert sigma == config.noise_multiplier


def test_reported_epsilon_matches_fresh_accounting(datasets):
    report = train(base_config(datasets))
    fresh = AccountantState.create(report.sampling_rate, report.noise_multiplier, report.steps)
    assert to_epsilon(fresh, report.delta) == report.final_epsilon


def test_run_is_deterministic(datasets):
    a = train(base_config(datasets, seed=5))
    b = train(base_config(datasets, seed=5))
    assert report_to_dict(a) == report_to_dict(b)
    c = train(base_config(datasets, seed=6))
    assert report_to_dict(a) != report_to_dict(c)


def test_from_scratch_is_full_training_without_a_checkpoint(datasets):
    scratch = report_to_dict(train(base_config(datasets, scheme="from_scratch")))
    full = report_to_dict(train(base_config(datasets, scheme="full")))
    for report in (scratch, full):
        del report["scheme"], report["config"]["scheme"]
    assert scratch == full


def test_final_epsilon_is_independent_of_clips_per_video(datasets):
    a = train(base_config(datasets, clips_per_video=1))
    b = train(base_config(datasets, clips_per_video=2))
    assert a.final_epsilon == b.final_epsilon
    assert a.noise_multiplier == b.noise_multiplier
    assert a.steps == b.steps
    assert a.records[0].epsilon == b.records[0].epsilon


def test_zero_noise_single_clip_full_batch_matches_plain_clipped_sgd(datasets):
    # N_i = 1 and q = 1 remove all sampling, so the private step with sigma=0
    # must reproduce non-private SGD with per-sample clipping, bit for bit
    config = base_config(
        datasets,
        train_data=datasets["single_train"],
        eval_data=datasets["single_eval"],
        target_epsilon=None,
        noise_multiplier=0.0,
        sampling_rate=1.0,
        max_epochs=4.0,
        eval_every=100,
    )
    report = train(config)

    from dpvideo.data import load_dataset

    spec, videos = load_dataset(datasets["single_train"])
    model = build_model(
        ModelConfig(input_dim=spec.feature_dim, frames_per_clip=spec.clip_length,
                    hidden_dims=(6,), norm_kind="layer", num_classes=spec.num_classes),
        seed=config.seed,
    )
    for _ in range(report.steps):
        clipped = []
        for v in videos:
            grad = model.params.pack_gradient(
                backward(model.tape, {"clip": v.frames[None], "label": np.array([v.label])}, model.params)
            )
            clipped.append(clip_gradient(grad, config.clip_norm))
        total = np.zeros_like(clipped[0])
        for g in clipped:
            total += g
        model.params.apply_delta(-config.learning_rate * (total / len(clipped)))

    _, eval_videos = load_dataset(datasets["single_eval"])
    assert report.final_accuracy == evaluate(model, eval_videos)
    rerun = train(config)
    assert report_to_dict(rerun) == report_to_dict(report)


def test_empty_poisson_batches_still_cost_steps(datasets):
    config = base_config(datasets, target_epsilon=None, noise_multiplier=1.0,
                         sampling_rate=0.01, max_epochs=0.1, eval_every=100)
    report = train(config)
    assert report.steps == math.ceil(0.1 / 0.01)  # every step accounted, drawn or not


def test_report_reads_the_training_videos_only_through_the_noisy_update(datasets, tmp_path, monkeypatch):
    # with an update that is pure noise, nothing of the training videos may reach the report
    def noise_only(clipped, cfg, step_id):
        return rng.standard_normal(cfg.seed, rng.NOISE, step_id, clipped[0].size)

    monkeypatch.setattr(dp, "noisy_aggregate", noise_only)
    twin = str(tmp_path / "twin.dpvd")
    twin_spec = dataclasses.replace(TRAIN_SPEC, seed=TRAIN_SPEC.seed + 50, template_seed=TRAIN_SPEC.seed)
    save_dataset(twin, twin_spec, generate_dataset(twin_spec))
    reports = [report_to_dict(train(base_config(datasets, train_data=path, clips_per_video=2)))
               for path in (datasets["train"], twin)]
    for report in reports:
        del report["config"]["train_data"]
    assert reports[0] == reports[1]


def test_requesting_more_clips_than_available_fails(datasets):
    with pytest.raises(ValueError, match="exceeds"):
        train(base_config(datasets, clips_per_video=3))


def test_frozen_parameters_match_the_checkpoint_after_training(datasets, tmp_path):
    donor = build_model(
        ModelConfig(input_dim=8, frames_per_clip=4, hidden_dims=(6,),
                    norm_kind="layer", num_classes=3),
        seed=77,
    )
    ckpt_path = str(tmp_path / "donor.dpvm")
    save_checkpoint(ckpt_path, donor.params)
    config = base_config(datasets, scheme="linear_probe", checkpoint=ckpt_path, seed=3)
    train(config)

    from dpvideo.trainer import setup_model

    spec, _ = __import__("dpvideo.data", fromlist=["load_dataset"]).load_dataset(config.train_data)
    model = setup_model(config, spec)
    ckpt = load_checkpoint(ckpt_path)
    for name, value in ckpt.items():
        if not name.startswith("head."):
            assert np.array_equal(model.params.value(name), value)


def test_incompatible_checkpoint_is_rejected(datasets, tmp_path):
    donor = build_model(
        ModelConfig(input_dim=8, frames_per_clip=4, hidden_dims=(12,),
                    norm_kind="layer", num_classes=3),
        seed=1,
    )
    path = str(tmp_path / "wrong.dpvm")
    save_checkpoint(path, donor.params)
    with pytest.raises(ValueError, match="incompatible checkpoint"):
        train(base_config(datasets, checkpoint=path))


class TestEvaluate:
    def test_constant_predictor_scores_chance_level(self, datasets):
        from dpvideo.data import load_dataset

        spec, videos = load_dataset(datasets["eval"])
        model = build_model(
            ModelConfig(input_dim=8, frames_per_clip=4, hidden_dims=(),
                        norm_kind="none", num_classes=3),
            seed=0,
        )
        model.params.set_value("head.weight", np.zeros((8, 3)))
        model.params.set_value("head.bias", np.zeros(3))
        assert evaluate(model, videos) == pytest.approx(1.0 / 3.0)

    def test_direction_decoder_is_perfect_on_noise_free_data(self):
        spec = DatasetSpec(num_classes=3, videos_per_class=5, frames_per_video=8,
                           clip_length=4, feature_dim=16, noise_std=0.0, seed=9)
        videos = generate_dataset(spec)
        templates = class_templates(spec)
        # one hidden unit per class, tuned to that class's feature direction
        directions = []
        for c in range(3):
            t = int(np.argmax(np.linalg.norm(templates[c], axis=1)))
            row = templates[c][t]
            directions.append(row / np.linalg.norm(row))
        model = build_model(
            ModelConfig(input_dim=16, frames_per_clip=4, hidden_dims=(3,),
                        norm_kind="none", num_classes=3),
            seed=0,
        )
        model.params.set_value("layer0.weight", np.stack(directions, axis=1))
        model.params.set_value("layer0.bias", np.zeros(3))
        model.params.set_value("head.weight", np.eye(3))
        model.params.set_value("head.bias", np.zeros(3))
        assert evaluate(model, videos) == 1.0

    def test_accuracy_equals_confusion_matrix_trace_ratio(self, datasets):
        from dpvideo.data import load_dataset

        spec, videos = load_dataset(datasets["eval"])
        model = build_model(
            ModelConfig(input_dim=8, frames_per_clip=4, hidden_dims=(6,),
                        norm_kind="layer", num_classes=3),
            seed=8,
        )
        confusion = np.zeros((3, 3), dtype=int)
        for v in videos:
            confusion[v.label, predict_video(model, v)] += 1
        assert evaluate(model, videos) == np.trace(confusion) / confusion.sum()

    def test_empty_eval_set_rejected(self):
        model = build_model(
            ModelConfig(input_dim=8, frames_per_clip=4, hidden_dims=(),
                        norm_kind="none", num_classes=3),
            seed=0,
        )
        with pytest.raises(ValueError, match="empty"):
            evaluate(model, [])


class TestSweep:
    def test_sweep_is_exactly_its_runs(self, datasets):
        config = base_config(datasets, seed=2)
        runs = {
            (k, seed): report_to_dict(train(dataclasses.replace(config, clips_per_video=k, seed=seed)))
            for seed in (0, 1, 2) for k in (1, 2)
        }
        for jobs in (1, 2):
            for seeds in ([0, 1], None):  # None sweeps config.seed alone
                reports = sweep_clips(config, [1, 2], seeds=seeds, jobs=jobs)
                expected = [runs[k, seed] for seed in seeds or [2] for k in (1, 2)]
                assert [report_to_dict(r) for r in reports] == expected, (jobs, seeds)
        # a sweep varies nothing the privacy spend is derived from
        for seed in (0, 1, 2):
            one, two = runs[1, seed], runs[2, seed]
            for key in ("noise_multiplier", "steps", "final_epsilon"):
                assert one[key] == two[key], (seed, key)

    def test_a_k_above_the_clip_count_fails_before_any_run(self, datasets, monkeypatch):
        runs, loads = [], []
        monkeypatch.setattr(trainer, "train", runs.append)
        monkeypatch.setattr(trainer, "load_dataset", loads.append)
        with pytest.raises(ValueError, match="clips_per_video 3 exceeds the 2 clips available per video"):
            sweep_clips(base_config(datasets), [1, 3])
        assert runs == [] and loads == []  # the check reads the training set's header alone

    def test_each_run_loads_the_training_set_once(self, datasets, monkeypatch):
        loads, load = [], trainer.load_dataset

        def counted(path):
            loads.append(path)
            return load(path)

        monkeypatch.setattr(trainer, "load_dataset", counted)
        reports = sweep_clips(base_config(datasets, max_epochs=1.0), [1, 2], seeds=[0, 1])
        assert len(reports) == 4
        assert loads.count(datasets["train"]) == 4

    @pytest.mark.parametrize("k_values, seeds, what", [([], None, "clip counts"), ([1], [], "seeds")])
    def test_an_empty_list_is_rejected(self, datasets, k_values, seeds, what):
        with pytest.raises(ValueError, match=f"no {what} to sweep"):
            sweep_clips(base_config(datasets), k_values, seeds=seeds)


def test_pretrain_learns_the_source_task(datasets, tmp_path):
    out = str(tmp_path / "source.dpvm")
    config = PretrainConfig(
        data=datasets["train"],
        out=out,
        hidden_dims=(6,),
        norm_kind="layer",
        epochs=12,
        batch_size=8,
        learning_rate=0.3,
        seed=0,
    )
    model, accuracy = pretrain(config)
    assert accuracy > 0.8  # well above the 1/3 chance level
    ckpt = load_checkpoint(out)
    assert set(ckpt) == set(model.params.names())
    for name, value in ckpt.items():
        assert np.array_equal(value, model.params.value(name))


def test_report_to_dict_carries_every_report_field():
    values = {field.name: index for index, field in enumerate(dataclasses.fields(RunReport))}
    assert report_to_dict(RunReport(**values)) == values
