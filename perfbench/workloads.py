"""The benchmark's workloads: inputs from a seed, timed rounds, and output checks.

Every call into dpvideo goes through a module attribute (trainer.train,
accountant.calibrate_sigma, ...), the same functions the CLI calls, so that a
traced run can wrap them. A round is a fixed list of operations; a run repeats
whole rounds, so the share of failed operations is the same in every run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

import oracles
from dpvideo import accountant, data, dp, models, trainer
from dpvideo.data import DatasetSpec
from dpvideo.models import ModelConfig, ParameterStore
from dpvideo.trainer import PretrainConfig, TrainConfig

SETUP_REPS = 5
EVAL_REPS = 5
DELTA = 1e-5


def dataset_seed(seed: int, role: int) -> int:
    """Seed of the dataset playing `role` (0 train, 1 eval) for a workload seed."""
    return 10_000 + 10 * seed + role


@dataclass
class Round:
    """What one round did and how long each part took."""

    calibrate_s: float = 0.0
    train_s: float = 0.0  # wall time of the round's private training calls
    train_clips: float = 0.0  # clip gradients charged: sum of steps * q * N * k
    eval_s: list[float] = field(default_factory=list)
    eval_accuracy: float = 0.0
    pretrain_s: float = 0.0
    pretrain_clips: int = 0
    reports: list = field(default_factory=list)
    models: list = field(default_factory=list)  # the model each train() built, in call order
    attempted: int = 0
    failed: int = 0
    notes: dict = field(default_factory=dict)

    def report_digest(self) -> str:
        blob = json.dumps([trainer.report_to_dict(r) for r in self.reports], sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()


@contextlib.contextmanager
def capturing_models():
    """Collect the model that each train() builds, so its final state can be checked."""
    original = trainer.setup_model
    built = []

    def capture(*args, **kwargs):
        model = original(*args, **kwargs)
        built.append(model)
        return model

    trainer.setup_model = capture
    try:
        yield built
    finally:
        trainer.setup_model = original


def timed(fn, *args, **kwargs):
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - started


def charged_clips(report) -> float:
    return report.steps * report.expected_batch_size * report.clips_per_video


class Workload:
    """Base: subclasses fix the datasets, the model, the schedule and the round."""

    name = ""
    model_seed = 0
    RUN: dict = {}  # TrainConfig fields shared by the workload's private runs

    def __init__(self, seed: int):
        """Files go to the current directory, under fixed names."""
        self.seed = seed
        self.paths = {role: f"{role}.dpvd" for role in self.datasets()}
        self.videos: dict[str, list] = {}

    def datasets(self) -> dict[str, DatasetSpec]:
        raise NotImplementedError

    def model_config(self) -> ModelConfig:
        spec = self.datasets()["train"]
        return ModelConfig(input_dim=spec.feature_dim, frames_per_clip=spec.clip_length,
                           hidden_dims=self.RUN["hidden_dims"], norm_kind=self.RUN["norm_kind"],
                           num_classes=spec.num_classes)

    def calibration(self) -> tuple[float, float, float, int]:
        """(epsilon, delta, q, steps) of the workload's private training."""
        r = self.RUN
        return r["target_epsilon"], r["delta"], r["sampling_rate"], math.ceil(r["max_epochs"] / r["sampling_rate"])

    def train_round(self, rnd: Round) -> None:
        raise NotImplementedError

    def setup(self) -> float:
        """Generate, save and load every dataset, then build the model; returns seconds."""
        started = time.perf_counter()
        for role, spec in self.datasets().items():
            data.save_dataset(self.paths[role], spec, data.generate_dataset(spec))
            _, self.videos[role] = data.load_dataset(self.paths[role])
        models.build_model(self.model_config(), self.model_seed)
        return time.perf_counter() - started

    def round(self) -> Round:
        rnd = Round()
        eps, delta, q, steps = self.calibration()
        _, rnd.calibrate_s = timed(accountant.calibrate_sigma, eps, delta, q, steps)
        rnd.attempted += 1
        with capturing_models() as built:
            self.train_round(rnd)
        rnd.models = built
        rnd.train_clips = sum(charged_clips(r) for r in rnd.reports)
        rnd.attempted += len(rnd.reports)
        for _ in range(EVAL_REPS):
            rnd.eval_accuracy, seconds = timed(trainer.evaluate, built[-1], self.videos["eval"])
            rnd.eval_s.append(seconds)
            rnd.attempted += 1
        return rnd

    # --- checks ---------------------------------------------------------------

    def check(self, rnd: Round, ledger: dict) -> list[str]:
        failures = []
        target = self.calibration()[0]
        for rep in rnd.reports:
            key = (rep.sampling_rate, rep.noise_multiplier, rep.steps, rep.delta)
            if key not in ledger:
                ledger[key] = oracles.epsilon(*key)
            expected = ledger[key]
            if not abs(rep.final_epsilon - expected) <= 1e-9 * expected:
                failures.append(f"ledger: reported epsilon {rep.final_epsilon!r} != RDP oracle {expected!r}")
            if not 0.99 * target < rep.final_epsilon <= target:
                failures.append(f"ledger: epsilon {rep.final_epsilon!r} outside (0.99, 1] x target {target}")
        failures += self.check_evaluation(rnd.models[-1], rnd.eval_accuracy)
        return failures

    def check_evaluation(self, model, accuracy: float) -> list[str]:
        """evaluate() and predict_video agree with the numpy forward pass on every eval video."""
        videos = self.videos["eval"]
        cfg = model.config
        groups = cfg.norm_groups if cfg.norm_kind == "group" else 1
        params = model.params.snapshot()
        frames = np.stack([v.frames for v in videos])
        n, total, dim = frames.shape
        clips = frames.reshape(n * (total // cfg.frames_per_clip), cfg.frames_per_clip, dim)
        logits = oracles.clip_logits(params, clips, groups).reshape(n, -1, cfg.num_classes).mean(axis=1)
        failures = []
        hits = 0
        for v, mine in zip(videos, logits):
            theirs = models.video_logits(model, v)
            if not np.allclose(theirs, mine, rtol=1e-9, atol=1e-12):
                failures.append(f"eval: video {v.id} logits differ from the numpy forward pass")
                break
            ranked = np.sort(mine)
            predicted = models.predict_video(model, v)
            if ranked[-1] - ranked[-2] > 1e-9 and predicted != int(np.argmax(mine)):
                failures.append(f"eval: video {v.id} predicted {predicted}, numpy forward says {np.argmax(mine)}")
                break
            hits += int(np.argmax(mine)) == v.label
        if not failures and hits / len(videos) != accuracy:
            failures.append(f"eval: evaluate() gave {accuracy!r}, numpy forward pass gives {hits / len(videos)!r}")
        return failures

    def train_config(self, **overrides) -> TrainConfig:
        return TrainConfig(train_data=self.paths["train"], eval_data=self.paths["eval"], **overrides)


# ---------------------------------------------------------------------------


class VideoK8(Workload):
    """Video-level Multi-Clip DP-SGD from scratch, k=8, on the criterion-3/4 data and model."""

    name = "video_k8"
    RUN = dict(hidden_dims=(64,), norm_kind="layer", scheme="from_scratch", clips_per_video=8,
               target_epsilon=5.0, delta=DELTA, clip_norm=1.0, sampling_rate=0.1,
               max_epochs=4.0, learning_rate=1.0, eval_every=1000)

    def datasets(self):
        train = DatasetSpec(num_classes=10, videos_per_class=100, frames_per_video=64, clip_length=8,
                            feature_dim=32, noise_std=0.5, seed=dataset_seed(self.seed, 0))
        return {"train": train,
                "eval": dataclasses.replace(train, videos_per_class=20, seed=dataset_seed(self.seed, 1),
                                            template_seed=train.seed)}

    def train_round(self, rnd):
        report, rnd.train_s = timed(trainer.train, self.train_config(seed=self.seed, **self.RUN))
        rnd.reports.append(report)

    def check(self, rnd, ledger):
        failures = super().check(rnd, ledger)
        model = rnd.models[-1]
        videos = self.videos["train"]
        gen = np.random.default_rng(self.seed)
        length, k = self.datasets()["train"].clip_length, self.RUN["clips_per_video"]
        entries = [dp.MultiClipEntry(v.label, data.sample_clips(v, length, k, gen)) for v in videos[:6]]

        # per-video gradient against central differences of the k-clip mean loss
        entry = entries[0]
        grad, _ = dp.per_video_gradient(model.tape, model.params, entry)
        params = model.params.snapshot()
        clips = np.stack([c for _, c in entry.clips])
        offset = 0
        for name in model.params.names():
            size = params[name].size
            if model.params.is_trainable(name):
                for flat in gen.choice(size, size=min(4, size), replace=False):
                    index = tuple(int(i) for i in np.unravel_index(int(flat), params[name].shape))
                    analytic = float(grad[offset + flat])
                    numeric = oracles.central_difference(
                        lambda p: oracles.mean_loss(p, clips, entry.label), params, name, index)
                    if not oracles.close(analytic, numeric, rel=1e-4):
                        failures.append(f"gradient: {name}{index} analytic {analytic!r} vs finite difference {numeric!r}")
                offset += size

        # one video moves the zero-noise clipped sum by at most clip_norm
        cfg = dp.NoiseConfig(clip_norm=1.0, noise_multiplier=0.0, seed=0)
        clipped, _ = dp.clip_video_gradients(model.tape, model.params, entries, cfg)
        full = np.sum(clipped, axis=0)
        for drop in range(len(entries)):
            partial, _ = dp.clip_video_gradients(
                model.tape, model.params, entries[:drop] + entries[drop + 1:], cfg)
            moved = float(np.linalg.norm(full - np.sum(partial, axis=0)))
            if moved > cfg.clip_norm + 1e-9:
                failures.append(f"sensitivity: dropping video {drop} moved the clipped sum by {moved!r}")
        return failures


class SweepShort(Workload):
    """sweep_clips over k in {1, 2} and two seeds: many short runs on a small dataset."""

    name = "sweep_short"
    K_VALUES = [1, 2]
    RUN = dict(hidden_dims=(64,), norm_kind="layer", scheme="from_scratch", clips_per_video=1,
               target_epsilon=5.0, delta=DELTA, clip_norm=1.0, sampling_rate=0.1,
               max_epochs=3.0, learning_rate=1.0, eval_every=1000)

    def datasets(self):
        train = DatasetSpec(num_classes=10, videos_per_class=20, frames_per_video=32, clip_length=8,
                            feature_dim=32, noise_std=0.5, seed=dataset_seed(self.seed, 0))
        return {"train": train,
                "eval": dataclasses.replace(train, videos_per_class=10, seed=dataset_seed(self.seed, 1),
                                            template_seed=train.seed)}

    def run_seeds(self) -> list[int]:
        return [2 * self.seed, 2 * self.seed + 1]

    def train_round(self, rnd):
        base = self.train_config(seed=self.seed, **self.RUN)
        rnd.reports, rnd.train_s = timed(trainer.sweep_clips, base, self.K_VALUES, self.run_seeds(), 1)

    def check(self, rnd, ledger):
        failures = super().check(rnd, ledger)
        by_seed: dict[int, set] = {}
        for rep in rnd.reports:
            by_seed.setdefault(rep.seed, set()).add((rep.final_epsilon, rep.noise_multiplier, rep.steps))
        if sorted(by_seed) != self.run_seeds() or len(rnd.reports) != len(self.run_seeds()) * len(self.K_VALUES):
            failures.append(f"sweep: expected one run per (k, seed), got {len(rnd.reports)} runs")
        for seed, spends in by_seed.items():
            if len(spends) != 1:
                failures.append(f"sweep: seed {seed} has (epsilon, sigma, steps) varying with k: {sorted(spends)}")
        return failures


class PeftTransfer(Workload):
    """Non-private pretraining, a checkpoint round trip, then short private fine-tunes."""

    name = "peft_transfer"
    SCHEMES = ("linear_probe", "selective", "adapter")
    # criterion 5's source data and pretraining settings, independent of the workload seed
    SOURCE = DatasetSpec(num_classes=10, videos_per_class=50, frames_per_video=64, clip_length=8,
                         feature_dim=32, noise_std=1.5, seed=2000, template_seed=1000, template_jitter=1.5)
    PRETRAIN = dict(hidden_dims=(128,), norm_kind="layer", epochs=8, batch_size=64, learning_rate=0.2, seed=0)
    SOURCE_GATE = 0.5  # criterion 5: pretraining must learn its own task
    RUN = dict(hidden_dims=(128,), norm_kind="layer", clips_per_video=1, target_epsilon=1.0, delta=DELTA,
               clip_norm=1.0, sampling_rate=0.05, max_epochs=1.0, learning_rate=0.05, eval_every=1000)
    BOTTLENECK = 16
    CHECKPOINT = "source.dpvm"

    def datasets(self):
        train = DatasetSpec(num_classes=10, videos_per_class=100, frames_per_video=64, clip_length=8,
                            feature_dim=32, noise_std=1.5, seed=dataset_seed(self.seed, 0), template_seed=1000)
        return {"source": self.SOURCE, "train": train,
                "eval": dataclasses.replace(train, videos_per_class=20, seed=dataset_seed(self.seed, 1))}

    def train_round(self, rnd):
        config = PretrainConfig(data=self.paths["source"], out=self.CHECKPOINT, **self.PRETRAIN)
        (source_model, source_accuracy), rnd.pretrain_s = timed(trainer.pretrain, config)
        spec = self.SOURCE
        rnd.pretrain_clips = config.epochs * spec.num_classes * spec.videos_per_class * spec.clips_per_video
        rnd.attempted += 1
        rnd.notes["source_accuracy"] = source_accuracy
        if not source_accuracy > self.SOURCE_GATE:
            rnd.failed += 1

        # save/load round trip: the loaded values and a re-saved file must match bit for bit
        loaded = models.load_checkpoint(self.CHECKPOINT)
        store = ParameterStore()
        for name, value in loaded.items():
            store.add(name, value)
        models.save_checkpoint("resaved.dpvm", store)
        rnd.attempted += 1
        with open(self.CHECKPOINT, "rb") as a, open("resaved.dpvm", "rb") as b:
            same_file = a.read() == b.read()
        same_values = list(loaded) == source_model.params.names() and all(
            loaded[n].tobytes() == source_model.params.value(n).tobytes() for n in loaded)
        rnd.notes["round_trip_ok"] = same_file and same_values
        rnd.notes["checkpoint"] = loaded

        for scheme in self.SCHEMES:
            config = self.train_config(scheme=scheme, seed=self.seed, checkpoint=self.CHECKPOINT,
                                       bottleneck_dim=self.BOTTLENECK if scheme == "adapter" else None,
                                       **self.RUN)
            report, seconds = timed(trainer.train, config)
            rnd.reports.append(report)
            rnd.train_s += seconds

    def check(self, rnd, ledger):
        failures = super().check(rnd, ledger)
        if not rnd.notes["round_trip_ok"]:
            failures.append("transfer: checkpoint save/load round trip is not bit for bit")
        checkpoint = rnd.notes["checkpoint"]
        for scheme, model in zip(self.SCHEMES, rnd.models):
            frozen = [n for n in model.params.names() if not model.params.is_trainable(n)]
            if not frozen:
                failures.append(f"transfer: {scheme} froze nothing")
            for name in frozen:
                if model.params.value(name).tobytes() != checkpoint[name].tobytes():
                    failures.append(f"transfer: {scheme} changed frozen parameter {name}")
        return failures


WORKLOADS = {w.name: w for w in (VideoK8, SweepShort, PeftTransfer)}
