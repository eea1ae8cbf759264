"""Synthetic labeled videos and their clip decomposition.

Each class is a fixed temporal template: a sinusoid with class-specific
frequency and phase, projected into feature space along a class-specific
random direction. Videos are the class template plus i.i.d. Gaussian noise,
and chunk into consecutive, non-overlapping fixed-length clips.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import records, rng

DATASET_MAGIC = b"DPVD"
DATASET_VERSION = 1


class DatasetFormatError(ValueError):
    pass


@dataclass(frozen=True)
class DatasetSpec:
    num_classes: int
    videos_per_class: int
    frames_per_video: int
    clip_length: int
    feature_dim: int
    noise_std: float
    seed: int
    # Templates come from template_seed (defaults to seed); template_jitter
    # perturbs them to create a controlled domain gap between related datasets.
    template_seed: int | None = None
    template_jitter: float = 0.0

    def __post_init__(self):
        for name in ("num_classes", "videos_per_class", "frames_per_video", "clip_length", "feature_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.frames_per_video % self.clip_length != 0:
            raise ValueError(
                f"clip_length {self.clip_length} does not divide frames_per_video {self.frames_per_video}"
            )
        for name in ("noise_std", "template_jitter"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be non-negative and finite")
        rng.check_seed(self.seed)
        if self.template_seed is not None:
            rng.check_seed(self.template_seed, "template_seed")

    @property
    def clips_per_video(self) -> int:
        return self.frames_per_video // self.clip_length

    @property
    def resolved_template_seed(self) -> int:
        return self.seed if self.template_seed is None else self.template_seed


@dataclass
class VideoSample:
    id: int
    label: int
    frames: np.ndarray  # (frames_per_video, feature_dim)


def class_templates(spec: DatasetSpec) -> np.ndarray:
    """Per-class templates, shape (num_classes, frames, features)."""
    gen = rng.stream(spec.resolved_template_seed, rng.TEMPLATE)
    t = np.arange(spec.frames_per_video, dtype=np.float64)
    templates = np.empty((spec.num_classes, spec.frames_per_video, spec.feature_dim))
    for c in range(spec.num_classes):
        freq = c + 1.0
        phase = 2.0 * np.pi * gen.random()
        direction = gen.standard_normal(spec.feature_dim)
        direction /= np.linalg.norm(direction)
        wave = np.sin(2.0 * np.pi * freq * t / spec.frames_per_video + phase)
        templates[c] = np.outer(wave, direction)
    if spec.template_jitter > 0.0:
        jit = rng.stream(spec.resolved_template_seed, rng.TEMPLATE, step=1)
        scale = spec.template_jitter / np.sqrt(spec.feature_dim)
        templates = templates + scale * jit.standard_normal(templates.shape)
    return templates


def generate_dataset(spec: DatasetSpec) -> list[VideoSample]:
    """Balanced dataset, deterministic in spec; labels cycle 0..L-1 by video id."""
    templates = class_templates(spec)
    noise = rng.stream(spec.seed, rng.DATA)
    videos = []
    vid = 0
    for _ in range(spec.videos_per_class):
        for label in range(spec.num_classes):
            frames = templates[label].copy()
            if spec.noise_std > 0.0:
                frames += spec.noise_std * noise.standard_normal(frames.shape)
            videos.append(VideoSample(id=vid, label=label, frames=frames))
            vid += 1
    return videos


def chunk_video(video: VideoSample | np.ndarray, clip_length: int) -> list[np.ndarray]:
    """Consecutive non-overlapping clips; concatenation reconstructs the video."""
    frames = video.frames if isinstance(video, VideoSample) else np.asarray(video)
    total = frames.shape[0]
    if total % clip_length != 0:
        raise ValueError(f"clip length {clip_length} does not divide {total} frames")
    n = total // clip_length
    return [frames[i * clip_length : (i + 1) * clip_length] for i in range(n)]


def sample_clips(
    video: VideoSample, clip_length: int, k: int, gen: np.random.Generator
) -> list[tuple[int, np.ndarray]]:
    """k distinct clips drawn uniformly without replacement, sorted by index."""
    clips = chunk_video(video, clip_length)
    n = len(clips)
    if not 1 <= k <= n:
        raise ValueError(f"cannot sample {k} clips from a video with {n} clips")
    indices = sorted(gen.choice(n, size=k, replace=False).tolist())
    return [(i, clips[i]) for i in indices]


# The header holds DatasetSpec's fields in order, with a has-template-seed flag
# before template_seed. Each video record is id, label, frame count and feature
# count, then the frames as float64.
_HEADER = "<IIIIIdQBQd"
_VIDEO = "<QIII"


def save_dataset(path: str, spec: DatasetSpec, videos: list[VideoSample]) -> None:
    with open(path, "wb") as f:
        records.write_header(f, DATASET_MAGIC, DATASET_VERSION)
        f.write(struct.pack(
            _HEADER, spec.num_classes, spec.videos_per_class, spec.frames_per_video, spec.clip_length,
            spec.feature_dim, spec.noise_std, spec.seed, spec.template_seed is not None,
            spec.template_seed or 0, spec.template_jitter,
        ))
        for v in videos:
            f.write(struct.pack(_VIDEO, v.id, v.label, *v.frames.shape))
            records.write_array(f, v.frames)


def _open_dataset(path: str):
    return records.open_records(path, DATASET_MAGIC, DATASET_VERSION, DatasetFormatError, "dataset")


def _read_spec(r: records.RecordReader) -> DatasetSpec:
    *fields, has_tseed, tseed, jitter = r.unpack(_HEADER, "dataset header")
    try:
        return DatasetSpec(*fields, tseed if has_tseed else None, jitter)
    except ValueError as e:
        raise DatasetFormatError(f"bad dataset header: {e}") from None


def load_dataset_spec(path: str) -> DatasetSpec:
    """The spec in a dataset file's header; no video record is read."""
    with _open_dataset(path) as r:
        return _read_spec(r)


def load_dataset(path: str) -> tuple[DatasetSpec, list[VideoSample]]:
    with _open_dataset(path) as r:
        spec = _read_spec(r)
        videos = []
        while not r.at_end():
            at = r.offset
            vid, label, t, d = r.unpack(_VIDEO, "video header")
            if label >= spec.num_classes or (t, d) != (spec.frames_per_video, spec.feature_dim):
                raise DatasetFormatError(
                    f"video {vid} at byte offset {at}: label {label} and frames {(t, d)} do not fit the "
                    f"spec's {spec.num_classes} classes and frames {(spec.frames_per_video, spec.feature_dim)}"
                )
            frames = r.array((t, d), f"frames of video {vid}")
            videos.append(VideoSample(id=vid, label=label, frames=frames))
    return spec, videos
