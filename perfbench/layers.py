"""Where the traced run puts its spans in dpvideo, and the per-layer metrics they give.

A layer is a dpvideo module. Each span wraps the attribute through which the
caller reaches the function: the trainer imports multi_clip_step by name, so
the span wraps trainer.multi_clip_step.
"""

from __future__ import annotations

import os

from dpvideo import accountant, autodiff, data, dp, models, rng, trainer

LAYERS = ("autodiff", "dp", "rng", "models", "accountant", "finetune", "data", "trainer")


def _samples(counts, args, kwargs, result):
    counts["autodiff.samples"] += len(args[1]["clip"])


def _step_clips(counts, args, kwargs, result):
    counts["dp.step_clips"] += sum(len(entry.clips) for entry in args[0])


def _draws(counts, args, kwargs, result):
    counts["rng.noise_draws"] += args[3]


def _scheme_params(counts, args, kwargs, result):
    counts["finetune.runs"] += 1
    counts["finetune.trainable_params"] += result.count_trainable()
    counts["finetune.frozen_params"] += sum(
        result.value(n).size for n in result.names() if not result.is_trainable(n))


def _bytes_loaded(counts, args, kwargs, result):
    counts["data.bytes_loaded"] += os.path.getsize(args[0])


def _steps(counts, args, kwargs, result):
    counts["trainer.steps"] += result.steps


# (owner, attribute, span name, work counter, timed)
POINTS = [
    (dp, "per_sample_gradients", "autodiff.per_sample_gradients", _samples, True),
    (autodiff, "per_sample_gradients", "autodiff.per_sample_gradients", _samples, True),
    (autodiff, "run_forward", "autodiff.run_forward", None, True),
    (autodiff, "backward", "autodiff.backward", None, True),
    (models, "forward", "autodiff.forward", None, True),
    (autodiff, "gradient_of_mean_loss", "autodiff.gradient_of_mean_loss", None, True),
    (trainer, "multi_clip_step", "dp.multi_clip_step", _step_clips, True),
    (dp, "per_video_gradient", "dp.per_video_gradient", None, True),
    (dp, "clip_gradient", "dp.clip_gradient", None, True),
    (dp, "noisy_aggregate", "dp.noisy_aggregate", None, True),
    (rng, "standard_normal", "rng.standard_normal", _draws, True),
    (trainer, "predict_video", "models.predict_video", None, True),
    (models.ParameterStore, "pack_gradient", "models.pack_gradient", None, True),
    (models.ParameterStore, "apply_delta", "models.apply_delta", None, True),
    (trainer, "save_checkpoint", "models.save_checkpoint", None, True),
    (models, "save_checkpoint", "models.save_checkpoint", None, True),
    (trainer, "load_checkpoint", "models.load_checkpoint", None, True),
    (models, "load_checkpoint", "models.load_checkpoint", None, True),
    (trainer, "calibrate_sigma", "accountant.calibrate_sigma", None, True),
    (accountant, "calibrate_sigma", "accountant.calibrate_sigma", None, True),
    (accountant.AccountantState, "create", "accountant.create", None, True),
    (accountant, "rdp_subsampled_gaussian", "accountant.order_evals", None, False),
    (trainer, "to_epsilon", "accountant.to_epsilon", None, True),
    (accountant, "to_epsilon", "accountant.to_epsilon", None, True),
    (trainer, "apply_scheme", "finetune.apply_scheme", _scheme_params, True),
    (data, "generate_dataset", "data.generate_dataset", None, True),
    (data, "save_dataset", "data.save_dataset", None, True),
    (data, "load_dataset", "data.load_dataset", _bytes_loaded, True),
    (trainer, "load_dataset", "data.load_dataset", _bytes_loaded, True),
    (trainer, "sample_clips", "data.sample_clips", None, True),
    (trainer, "train", "trainer.train", _steps, True),
    (trainer, "evaluate", "trainer.evaluate", None, True),
    (trainer, "pretrain", "trainer.pretrain", None, True),
    (trainer, "setup_model", "trainer.setup_model", None, True),
]

ROOT_SPAN = "trainer.train"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(totals: dict, counts) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from Tracer.totals(ROOT_SPAN) and the work counters."""
    calls, total_ns, self_ns = totals["calls"], totals["total_ns"], totals["self_ns"]

    def secs(name):
        return total_ns[name] / 1e9

    psg_s = secs("autodiff.per_sample_gradients")
    step_s = secs("dp.multi_clip_step")
    load_s = secs("data.load_dataset")
    runs = counts["finetune.runs"]
    out = {
        "autodiff.per_sample_gradients_s": (psg_s, "s"),
        "autodiff.us_per_sample": (1e6 * _ratio(psg_s, counts["autodiff.samples"]), "us"),
        "autodiff.backward_s": (secs("autodiff.backward"), "s"),
        "autodiff.backward_calls": (calls["autodiff.backward"], "count"),
        "autodiff.run_forward_calls": (calls["autodiff.run_forward"], "count"),
        "autodiff.forward_s": (secs("autodiff.forward"), "s"),
        "autodiff.gradient_of_mean_loss_s": (secs("autodiff.gradient_of_mean_loss"), "s"),
        "dp.multi_clip_step_s": (step_s, "s"),
        "dp.multi_clip_step_calls": (calls["dp.multi_clip_step"], "count"),
        "dp.step_clips_per_s": (_ratio(counts["dp.step_clips"], step_s), "1/s"),
        "dp.per_video_gradient_s": (secs("dp.per_video_gradient"), "s"),
        "dp.clip_gradient_s": (secs("dp.clip_gradient"), "s"),
        "dp.noisy_aggregate_self_s": (self_ns["dp.noisy_aggregate"] / 1e9, "s"),
        "rng.standard_normal_s": (secs("rng.standard_normal"), "s"),
        "rng.noise_draws": (counts["rng.noise_draws"], "count"),
        "models.predict_video_s": (secs("models.predict_video"), "s"),
        "models.pack_gradient_s": (secs("models.pack_gradient"), "s"),
        "models.apply_delta_s": (secs("models.apply_delta"), "s"),
        "models.save_checkpoint_s": (secs("models.save_checkpoint"), "s"),
        "models.load_checkpoint_s": (secs("models.load_checkpoint"), "s"),
        "accountant.calibrate_sigma_s": (secs("accountant.calibrate_sigma"), "s"),
        "accountant.create_calls": (calls["accountant.create"], "count"),
        "accountant.order_evals": (counts["accountant.order_evals"], "count"),
        "accountant.to_epsilon_calls": (calls["accountant.to_epsilon"], "count"),
        "accountant.to_epsilon_s": (secs("accountant.to_epsilon"), "s"),
        "finetune.trainable_params": (_ratio(counts["finetune.trainable_params"], runs), "count"),
        "finetune.frozen_params": (_ratio(counts["finetune.frozen_params"], runs), "count"),
        "data.generate_s": (secs("data.generate_dataset"), "s"),
        "data.save_s": (secs("data.save_dataset"), "s"),
        "data.load_s": (load_s, "s"),
        "data.load_mb_per_s": (_ratio(counts["data.bytes_loaded"] / 1e6, load_s), "MB/s"),
        "data.sample_clips_s": (secs("data.sample_clips"), "s"),
        "data.sample_clips_calls": (calls["data.sample_clips"], "count"),
        "trainer.train_s": (secs(ROOT_SPAN), "s"),
        "trainer.train_self_s": (self_ns[ROOT_SPAN] / 1e9, "s"),
        "trainer.evaluate_s": (secs("trainer.evaluate"), "s"),
        "trainer.steps": (counts["trainer.steps"], "count"),
        "trainer.empty_steps": (counts["trainer.steps"] - calls["dp.multi_clip_step"], "count"),
        "trainer.pretrain_s": (secs("trainer.pretrain"), "s"),
        "trainer.setup_model_s": (secs("trainer.setup_model"), "s"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_in_train_s"] = (totals["layer_self_ns"].get(layer, 0) / 1e9, "s")
    return out
