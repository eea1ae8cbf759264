"""End-to-end private training runs.

A run's privacy schedule is fixed before its first step: sampling rate q,
exactly ceil(max_epochs / q) steps, and a noise multiplier sigma that is given
or calibrated so that those steps spend at most the target epsilon. Each step
is a multi-clip private step on a Poisson subsample of videos (the accounted
mechanism); an empty draw updates nothing but still costs its step. Each
reported epsilon is the schedule's spend up to the step it describes.
Everything is a pure function of the config, including the reported metrics.

A report holds public values only: the config, the schedule (q, sigma, steps
and each epsilon) and the accuracy on the eval set. No statistic of the
training batches, such as their loss, is reported or logged.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import rng
from .accountant import AccountantState, calibrate_sigma, noise_variance, to_epsilon
from .data import DatasetSpec, VideoSample, chunk_video, load_dataset, sample_clips
from .dp import MultiClipEntry, NoiseConfig, multi_clip_step
from .finetune import SCHEME_KINDS, Scheme, apply_scheme
from .models import (
    AdapterSpec,
    Model,
    ModelConfig,
    build_model,
    check_model_settings,
    insert_adapters,
    load_checkpoint,
    load_into,
    predict_video,
    save_checkpoint,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainConfig:
    train_data: str
    eval_data: str
    hidden_dims: tuple[int, ...] = ()
    norm_kind: str = "layer"
    norm_groups: int = 1
    scheme: str = "full"
    bottleneck_dim: int | None = None
    clips_per_video: int = 1
    target_epsilon: float | None = None
    noise_multiplier: float | None = None
    delta: float = 1e-5
    clip_norm: float = 1.0
    sampling_rate: float = 0.05
    max_epochs: float = 10.0
    learning_rate: float = 0.1
    seed: int = 0
    checkpoint: str | None = None
    eval_every: int = 50

    def __post_init__(self):
        if self.scheme not in SCHEME_KINDS:
            raise ValueError(f"unknown scheme {self.scheme!r}; expected one of {SCHEME_KINDS}")
        if (self.target_epsilon is None) == (self.noise_multiplier is None):
            raise ValueError("provide exactly one of target_epsilon and noise_multiplier")
        if self.target_epsilon is not None and not 0 < self.target_epsilon < math.inf:
            raise ValueError("target_epsilon must be positive and finite")
        if self.noise_multiplier is not None and not 0 <= self.noise_multiplier < math.inf:
            raise ValueError("noise_multiplier must be non-negative and finite")
        if self.noise_multiplier:
            noise_variance(self.noise_multiplier)  # rejects a sigma whose square underflows
        if self.clips_per_video < 1:
            raise ValueError("clips_per_video must be at least 1")
        if not 0 < self.clip_norm < math.inf:
            raise ValueError("clip_norm must be positive and finite")
        if not 0 < self.sampling_rate <= 1:
            raise ValueError("sampling_rate must lie in (0, 1]")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if not (0 < self.max_epochs < math.inf and 0 < self.learning_rate < math.inf):
            raise ValueError("max_epochs and learning_rate must be positive and finite")
        if self.eval_every < 1:
            raise ValueError("eval_every must be at least 1")
        rng.check_seed(self.seed)
        if (self.scheme == "adapter") != (self.bottleneck_dim is not None):
            raise ValueError("the adapter scheme needs bottleneck_dim, and no other scheme takes it")
        if self.scheme == "from_scratch" and self.checkpoint is not None:
            raise ValueError("from_scratch trains from the seed's init, so it takes no checkpoint")
        check_model_settings(self.hidden_dims, self.norm_kind, self.norm_groups, self.bottleneck_dim)
        if self.scheme == "selective" and (self.norm_kind == "none" or not self.hidden_dims):
            raise ValueError("selective fine-tuning trains normalization layers, but this model has none")


@dataclass
class EvalRecord:
    step: int
    epsilon: float
    accuracy: float


@dataclass
class RunReport:
    config: dict
    scheme: str
    clips_per_video: int
    seed: int
    trainable_params: int
    records: list[EvalRecord]
    final_epsilon: float
    delta: float
    noise_multiplier: float
    sampling_rate: float
    steps: int
    best_order: int
    final_accuracy: float
    expected_batch_size: float


def _model_config(spec: DatasetSpec, config: TrainConfig | PretrainConfig) -> ModelConfig:
    return ModelConfig(
        input_dim=spec.feature_dim,
        frames_per_clip=spec.clip_length,
        hidden_dims=tuple(config.hidden_dims),
        norm_kind=config.norm_kind,
        norm_groups=config.norm_groups,
        num_classes=spec.num_classes,
    )


def _check_compatible(train_spec: DatasetSpec, eval_spec: DatasetSpec) -> None:
    for attr in ("feature_dim", "clip_length", "num_classes"):
        if getattr(train_spec, attr) != getattr(eval_spec, attr):
            raise ValueError(
                f"train/eval dataset mismatch: {attr} differs "
                f"({getattr(train_spec, attr)} vs {getattr(eval_spec, attr)})"
            )


def setup_model(config: TrainConfig, spec: DatasetSpec) -> Model:
    """Build, optionally warm-start from a checkpoint, and apply the scheme."""
    model = build_model(_model_config(spec, config), config.seed)
    if config.checkpoint is not None:
        load_into(model.params, load_checkpoint(config.checkpoint))
    if config.scheme == "adapter":
        insert_adapters(model, AdapterSpec(config.bottleneck_dim), config.seed)
    apply_scheme(model.params, Scheme(config.scheme))
    return model


def evaluate(model: Model, videos: list[VideoSample]) -> float:
    """Video-level top-1 accuracy; consumes no privacy budget."""
    if not videos:
        raise ValueError("empty evaluation set")
    hits = sum(1 for v in videos if predict_video(model, v) == v.label)
    return hits / len(videos)


def _check_clip_count(clips_per_video: int, spec: DatasetSpec) -> None:
    """A run samples k distinct clips per video, so k may not exceed the clips a video has."""
    if clips_per_video > spec.clips_per_video:
        raise ValueError(
            f"clips_per_video {clips_per_video} exceeds the {spec.clips_per_video} "
            f"clips available per video"
        )


def train(config: TrainConfig) -> RunReport:
    train_spec, train_videos = load_dataset(config.train_data)
    eval_spec, eval_videos = load_dataset(config.eval_data)
    _check_compatible(train_spec, eval_spec)
    _check_clip_count(config.clips_per_video, train_spec)

    model = setup_model(config, train_spec)
    frozen_names = [n for n in model.params.names() if not model.params.is_trainable(n)]
    frozen_before = model.params.snapshot(frozen_names)

    q = config.sampling_rate
    total_steps = math.ceil(config.max_epochs / q)
    if config.noise_multiplier is not None:
        sigma = config.noise_multiplier
    else:
        sigma = calibrate_sigma(config.target_epsilon, config.delta, q, total_steps)
    log.info(
        "training: scheme=%s k=%d sigma=%.4f steps=%d expected_batch=%.1f trainable=%d",
        config.scheme, config.clips_per_video, sigma, total_steps,
        q * len(train_videos), model.params.count_trainable(),
    )

    noise_cfg = NoiseConfig(clip_norm=config.clip_norm, noise_multiplier=sigma, seed=config.seed)
    ledger = AccountantState.create(q, sigma)
    records: list[EvalRecord] = []

    def record_eval(steps_done: int) -> None:
        acc = evaluate(model, eval_videos)
        eps = to_epsilon(ledger.advance(steps_done), config.delta)
        records.append(EvalRecord(step=steps_done, epsilon=eps, accuracy=acc))
        log.info("step %d: eps=%.4f acc=%.4f", steps_done, eps, acc)

    for step in range(total_steps):
        selector = rng.stream(config.seed, rng.POISSON, step)
        mask = selector.random(len(train_videos)) < q
        selected = [v for v, keep in zip(train_videos, mask) if keep]
        if selected:
            clip_gen = rng.stream(config.seed, rng.CLIP_SAMPLE, step)
            batch = [
                MultiClipEntry(
                    label=v.label,
                    clips=sample_clips(v, train_spec.clip_length, config.clips_per_video, clip_gen),
                )
                for v in selected
            ]
            multi_clip_step(batch, model.tape, model.params, noise_cfg, config.learning_rate, step)
        if (step + 1) % config.eval_every == 0 or step + 1 == total_steps:
            record_eval(step + 1)

    final_epsilon, best_order = ledger.advance(total_steps).epsilon_with_order(config.delta)
    if config.target_epsilon is not None and final_epsilon > config.target_epsilon + 1e-6:
        raise AssertionError("spent epsilon exceeds the configured target")

    frozen_after = model.params.snapshot(frozen_names)
    for name in frozen_names:
        if not np.array_equal(frozen_before[name], frozen_after[name]):
            raise AssertionError(f"frozen parameter {name!r} changed during training")

    return RunReport(
        config=asdict(config),
        scheme=config.scheme,
        clips_per_video=config.clips_per_video,
        seed=config.seed,
        trainable_params=model.params.count_trainable(),
        records=records,
        final_epsilon=final_epsilon,
        delta=config.delta,
        noise_multiplier=sigma,
        sampling_rate=q,
        steps=total_steps,
        best_order=best_order,
        final_accuracy=records[-1].accuracy,
        expected_batch_size=q * len(train_videos),
    )


def sweep_clips(
    config: TrainConfig,
    k_values: list[int],
    seeds: list[int] | None = None,
    jobs: int = 1,
) -> list[RunReport]:
    """One run per (k, seed), seed-major; each report is exactly
    train(replace(config, clips_per_video=k, seed=seed)). A run derives sigma,
    steps and every epsilon only from sampling_rate, max_epochs, target_epsilon
    or noise_multiplier, and delta, which a sweep does not vary, so its runs
    share them; each run still calibrates sigma, so n runs pay n calibrations.
    Every k is checked against the training set before the first run starts.
    Runs are independent, so jobs > 1 executes them in separate processes."""
    if not k_values:
        raise ValueError("no clip counts to sweep")
    seeds = [config.seed] if seeds is None else list(seeds)
    if not seeds:
        raise ValueError("no seeds to sweep")
    train_spec = load_dataset(config.train_data)[0]  # the videos are not kept alive through the runs
    for k in k_values:
        _check_clip_count(k, train_spec)
    configs = [
        replace(config, clips_per_video=k, seed=seed) for seed in seeds for k in k_values
    ]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(train, configs))
    return [train(c) for c in configs]


@dataclass(frozen=True)
class PretrainConfig:
    data: str
    out: str
    hidden_dims: tuple[int, ...] = ()
    norm_kind: str = "layer"
    norm_groups: int = 1
    epochs: int = 10
    batch_size: int = 32
    learning_rate: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")
        rng.check_seed(self.seed)
        check_model_settings(self.hidden_dims, self.norm_kind, self.norm_groups, None)


def pretrain(config: PretrainConfig) -> tuple[Model, float]:
    """Non-private SGD over all clips of a source dataset; saves a checkpoint.

    Used to produce the warm start that the parameter-efficient schemes
    fine-tune privately.
    """
    spec, videos = load_dataset(config.data)
    model = build_model(_model_config(spec, config), config.seed)
    clips = []
    labels = []
    for v in videos:
        for clip in chunk_video(v, spec.clip_length):
            clips.append(clip)
            labels.append(v.label)
    labels_arr = np.array(labels, dtype=np.float64)

    from .autodiff import gradient_of_mean_loss  # at call time, so a wrapper installed on it sees these calls

    for epoch in range(config.epochs):
        order = rng.stream(config.seed, rng.SHUFFLE, epoch).permutation(len(clips))
        for start in range(0, len(clips), config.batch_size):
            idx = order[start : start + config.batch_size]
            # gathered from the clip views, so the source set is never copied whole
            batch = {"clip": np.stack([clips[i] for i in idx])[:, None], "label": labels_arr[idx, None]}
            grad = gradient_of_mean_loss(model.tape, batch, model.params)
            model.params.apply_delta(-config.learning_rate * grad)
        log.info("pretrain epoch %d/%d done", epoch + 1, config.epochs)
    accuracy = evaluate(model, videos)
    save_checkpoint(config.out, model.params)
    log.info("pretrain finished: source accuracy %.4f, checkpoint %s", accuracy, config.out)
    return model, accuracy


CSV_HEADER = "step,epsilon,accuracy"


def csv_row(record: EvalRecord) -> str:
    """One eval record in CSV_HEADER's column order; floats keep every bit via repr."""
    return f"{record.step},{record.epsilon!r},{record.accuracy!r}"


def _inf_as_null(pairs: list[tuple[str, object]]) -> dict:
    return {key: None if value == math.inf else value for key, value in pairs}


def report_to_dict(report: RunReport) -> dict:
    """JSON-ready view of a report. JSON has no infinity, so an infinite epsilon
    (a noiseless run) is None, written as null. A report holds no timings, so
    identical configs produce byte-identical report files."""
    return asdict(report, dict_factory=_inf_as_null)


def write_report(report: RunReport, json_path: str, csv_path: str) -> None:
    import json

    with open(json_path, "w") as f:
        json.dump(report_to_dict(report), f, indent=2, allow_nan=False)
        f.write("\n")
    with open(csv_path, "w") as f:
        f.write(CSV_HEADER + "\n")
        for r in report.records:
            f.write(csv_row(r) + "\n")
