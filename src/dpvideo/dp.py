"""Gradient clipping, noisy aggregation, and the private training step.

There is one private step, multi_clip_step: each video is a sample; the
gradients of its sampled clips are averaged first (one tape walk over the
video's clip stack), then the per-video average is clipped. No cross-video
mixing happens before clipping, so one video contributes at most clip_norm to
the aggregate regardless of how many clips it supplied. Clip-level DP-SGD,
dp_sgd_step, is its k=1 case: every clip is a video of one clip.
multi_clip_step applies its noisy update to the parameter store and returns
nothing.

Noise is drawn from a counter-based stream keyed by (seed, step_id), so a
step's noise never depends on the number of clips per video.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .autodiff import Tape, per_sample_gradients
from .models import ParameterStore


@dataclass(frozen=True)
class NoiseConfig:
    clip_norm: float
    noise_multiplier: float
    seed: int

    def __post_init__(self):
        if not 0 < self.clip_norm < math.inf:
            raise ValueError("clip_norm must be positive and finite")
        if not 0 <= self.noise_multiplier < math.inf:
            raise ValueError("noise_multiplier must be non-negative and finite")


@dataclass
class MultiClipEntry:
    """One video's contribution to a step: its label and k sampled clips.

    Clips are (clip_index, frames) pairs; indices must be distinct.
    """

    label: int
    clips: list[tuple[int, np.ndarray]]

    def __post_init__(self):
        if len(self.clips) < 1:
            raise ValueError("a video entry must carry at least one clip")
        indices = [i for i, _ in self.clips]
        if len(set(indices)) != len(indices):
            raise ValueError(f"duplicate clip indices in video entry: {sorted(indices)}")


def clip_gradient(grad: np.ndarray, clip_norm: float) -> np.ndarray:
    """Scale grad to l2 norm at most clip_norm: grad / max(1, |grad| / clip_norm).

    Gradients already within the bound pass through unchanged (bitwise); the
    zero vector is a fixed point.
    """
    if not 0 < clip_norm < math.inf:
        raise ValueError("clip_norm must be positive and finite")
    norm = float(np.linalg.norm(grad))
    if norm <= clip_norm:
        return grad
    return grad * (clip_norm / norm)


def noisy_aggregate(clipped: list[np.ndarray], cfg: NoiseConfig, step_id: int) -> np.ndarray:
    """(sum of clipped gradients + Gaussian noise) / batch size.

    Noise coordinates are i.i.d. N(0, (sigma * clip_norm)^2) and a pure
    function of (cfg.seed, step_id, coordinate), never of the batch contents.
    """
    if not clipped:
        raise ValueError("cannot aggregate an empty batch")
    total = np.zeros_like(clipped[0])
    for g in clipped:  # fixed index order keeps the reduction bit-deterministic
        total += g
    if cfg.noise_multiplier > 0.0:
        scale = cfg.noise_multiplier * cfg.clip_norm
        total = total + scale * rng.standard_normal(cfg.seed, rng.NOISE, step_id, total.size)
    return total / len(clipped)


def per_video_gradient(
    tape: Tape, store: ParameterStore, entry: MultiClipEntry
) -> tuple[np.ndarray, list[float]]:
    """Equal-weight average of the entry's clip gradients, summed in clip-index
    order, and the per-clip losses; the video is one sample of one walk."""
    ordered = sorted(entry.clips, key=lambda pair: pair[0])
    clips = np.stack([c for _, c in ordered])
    grads, losses = per_sample_gradients(
        tape, {"clip": clips[None], "label": np.full((1, len(clips)), entry.label, dtype=np.float64)}, store
    )
    return grads[0], losses


def clip_video_gradients(
    tape: Tape, store: ParameterStore, batch: list[MultiClipEntry], cfg: NoiseConfig
) -> tuple[list[np.ndarray], list[float]]:
    """Clipped per-video averaged gradients for a video-mode batch."""
    clipped = []
    losses: list[float] = []
    for entry in batch:
        avg, entry_losses = per_video_gradient(tape, store, entry)
        clipped.append(clip_gradient(avg, cfg.clip_norm))
        losses.extend(entry_losses)
    return clipped, losses


def dp_sgd_step(
    batch: list[tuple[np.ndarray, int]],
    tape: Tape,
    store: ParameterStore,
    cfg: NoiseConfig,
    lr: float,
    step_id: int,
) -> None:
    """One clip-level private step: multi_clip_step with every clip its own video."""
    videos = [MultiClipEntry(label=label, clips=[(0, clip)]) for clip, label in batch]
    multi_clip_step(videos, tape, store, cfg, lr, step_id)


def multi_clip_step(
    batch: list[MultiClipEntry],
    tape: Tape,
    store: ParameterStore,
    cfg: NoiseConfig,
    lr: float,
    step_id: int,
) -> None:
    """One video-level private step: average clips within each video, then
    clip per video, noise, and descend in place."""
    clipped, _ = clip_video_gradients(tape, store, batch, cfg)
    store.apply_delta(-lr * noisy_aggregate(clipped, cfg, step_id))
