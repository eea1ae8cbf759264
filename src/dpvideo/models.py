"""Small clip classifiers with swappable normalization and insertable adapters.

Architecture: per-frame MLP encoder -> temporal mean-pool -> linear head.
A clip of shape (frames_per_clip, input_dim) maps to num_classes logits; a
stack of K such clips maps to (K, num_classes) logits in one tape walk.
BatchNorm is deliberately unsupported: batch statistics couple samples, which
breaks per-sample gradient semantics.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import records, rng
from .autodiff import Tape, forward
from .data import VideoSample, chunk_video

CHECKPOINT_MAGIC = b"DPVM"
CHECKPOINT_VERSION = 1
NORM_EPS = 1e-5

NORM_KINDS = ("layer", "group", "none")


@dataclass(frozen=True)
class ModelConfig:
    input_dim: int
    frames_per_clip: int
    hidden_dims: tuple[int, ...]
    norm_kind: str = "layer"
    norm_groups: int = 1
    num_classes: int = 2

    def __post_init__(self):
        if self.input_dim < 1 or self.frames_per_clip < 1 or self.num_classes < 1:
            raise ValueError("input_dim, frames_per_clip and num_classes must be positive")
        if any(h < 1 for h in self.hidden_dims):
            raise ValueError("hidden widths must be positive")
        if self.norm_kind not in NORM_KINDS:
            raise ValueError(
                f"unsupported norm kind {self.norm_kind!r}; batch statistics are not allowed, "
                f"choose one of {NORM_KINDS}"
            )
        if self.norm_kind == "group":
            if self.norm_groups < 1:
                raise ValueError("norm_groups must be positive")
            for h in self.hidden_dims:
                if h % self.norm_groups != 0:
                    raise ValueError(f"norm_groups={self.norm_groups} does not divide hidden width {h}")


@dataclass(frozen=True)
class AdapterSpec:
    """Bottleneck MLP with a skip connection, inserted after each hidden block."""

    bottleneck_dim: int

    def __post_init__(self):
        if self.bottleneck_dim < 1:
            raise ValueError("bottleneck_dim must be positive")


@dataclass
class _Param:
    value: np.ndarray
    trainable: bool = True


class ParameterStore:
    """Named, ordered parameters with trainable flags.

    Name order is the layout contract for flattened gradient vectors and
    parameter updates.
    """

    def __init__(self) -> None:
        self._params: dict[str, _Param] = {}

    def add(self, name: str, value: np.ndarray, trainable: bool = True) -> None:
        if name in self._params:
            raise ValueError(f"duplicate parameter {name!r}")
        self._params[name] = _Param(np.asarray(value, dtype=np.float64), trainable)

    def names(self) -> list[str]:
        return list(self._params)

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def value(self, name: str) -> np.ndarray:
        return self._params[name].value

    def set_value(self, name: str, value: np.ndarray) -> None:
        p = self._params[name]
        value = np.asarray(value, dtype=np.float64)
        if value.shape != p.value.shape:
            raise ValueError(
                f"parameter {name!r}: shape {value.shape} does not match {p.value.shape}"
            )
        p.value = value

    def is_trainable(self, name: str) -> bool:
        return self._params[name].trainable

    def set_trainable(self, name: str, flag: bool) -> None:
        self._params[name].trainable = flag

    def trainable_names(self) -> list[str]:
        return [n for n, p in self._params.items() if p.trainable]

    def count_trainable(self) -> int:
        return sum(p.value.size for p in self._params.values() if p.trainable)

    def pack_gradient(self, grads: dict[str, np.ndarray]) -> np.ndarray:
        """Flatten gradients over trainable parameters, in store order.

        Trainable parameters unreachable from the loss contribute zeros.
        """
        parts = []
        for name, p in self._params.items():
            if not p.trainable:
                continue
            g = grads.get(name)
            parts.append(np.zeros(p.value.size) if g is None else g.ravel())
        if not parts:
            raise ValueError("no trainable parameters")
        return np.concatenate(parts)

    def apply_delta(self, delta: np.ndarray) -> None:
        """Add a flattened delta to the trainable parameters, in store order."""
        if delta.size != self.count_trainable():
            raise ValueError(
                f"delta length {delta.size} != trainable parameter count {self.count_trainable()}"
            )
        offset = 0
        for p in self._params.values():
            if not p.trainable:
                continue
            n = p.value.size
            p.value = p.value + delta[offset : offset + n].reshape(p.value.shape)
            offset += n

    def snapshot(self, names: list[str] | None = None) -> dict[str, np.ndarray]:
        if names is None:
            names = self.names()
        return {n: self._params[n].value.copy() for n in names}


@dataclass
class Model:
    config: ModelConfig
    tape: Tape
    params: ParameterStore
    adapters: AdapterSpec | None = None

    def clip_logits(self, clip: np.ndarray) -> np.ndarray:
        # label value is irrelevant for logits; 0 is always in range
        _, logits = forward(self.tape, {"clip": clip, "label": 0}, self.params)
        return logits


def reinitialize(store: ParameterStore, seed: int) -> None:
    """Re-draw every parameter with the standard init, keyed by name pattern.

    Weights ~ N(0, 1/fan_in); biases and norm shifts zero; norm scales one;
    adapter up-projections zero so adapters stay exact identities.
    """
    gen = rng.stream(seed, rng.INIT)
    for name in store.names():
        shape = store.value(name).shape
        if name.endswith(".norm.scale"):
            store.set_value(name, np.ones(shape))
        elif name.endswith(".up.weight"):
            store.set_value(name, np.zeros(shape))
        elif name.endswith(".weight"):
            fan_in = shape[0]
            store.set_value(name, gen.standard_normal(shape) / np.sqrt(fan_in))
        else:  # biases, norm shifts, adapter up biases
            store.set_value(name, np.zeros(shape))


def _build_tape(config: ModelConfig, adapters: AdapterSpec | None) -> Tape:
    t = Tape()
    x = t.input("clip", (config.frames_per_clip, config.input_dim))
    label = t.input("label", ())
    for i, h in enumerate(config.hidden_dims):
        w = t.param(f"layer{i}.weight")
        b = t.param(f"layer{i}.bias")
        x = t.add(t.matmul(x, w, name=f"layer{i}.matmul"), b, name=f"layer{i}.bias_add")
        if config.norm_kind == "layer":
            x = t.normalize(x, t.param(f"layer{i}.norm.scale"), t.param(f"layer{i}.norm.shift"),
                            groups=1, eps=NORM_EPS, name=f"layer{i}.layernorm")
        elif config.norm_kind == "group":
            x = t.normalize(x, t.param(f"layer{i}.norm.scale"), t.param(f"layer{i}.norm.shift"),
                            groups=config.norm_groups, eps=NORM_EPS, name=f"layer{i}.groupnorm")
        x = t.relu(x, name=f"layer{i}.relu")
        if adapters is not None:
            dw = t.param(f"adapter{i}.down.weight")
            db = t.param(f"adapter{i}.down.bias")
            uw = t.param(f"adapter{i}.up.weight")
            ub = t.param(f"adapter{i}.up.bias")
            hdn = t.relu(t.add(t.matmul(x, dw, name=f"adapter{i}.down"), db,
                               name=f"adapter{i}.down_bias"), name=f"adapter{i}.relu")
            up = t.add(t.matmul(hdn, uw, name=f"adapter{i}.up"), ub, name=f"adapter{i}.up_bias")
            x = t.add(x, up, name=f"adapter{i}.skip")
    pooled = t.mean_pool(x, name="temporal_pool")
    logits = t.add(t.matmul(pooled, t.param("head.weight"), name="head.matmul"),
                   t.param("head.bias"), name="head.bias_add")
    loss = t.softmax_cross_entropy(logits, label, name="loss")
    t.mark_outputs(loss, logits)
    return t


def _add_base_params(store: ParameterStore, config: ModelConfig) -> None:
    width = config.input_dim
    for i, h in enumerate(config.hidden_dims):
        store.add(f"layer{i}.weight", np.zeros((width, h)))
        store.add(f"layer{i}.bias", np.zeros(h))
        if config.norm_kind != "none":
            store.add(f"layer{i}.norm.scale", np.zeros(h))
            store.add(f"layer{i}.norm.shift", np.zeros(h))
        width = h
    store.add("head.weight", np.zeros((width, config.num_classes)))
    store.add("head.bias", np.zeros(config.num_classes))


def build_model(config: ModelConfig, seed: int) -> Model:
    """Deterministic model construction: same (config, seed), same bits."""
    store = ParameterStore()
    _add_base_params(store, config)
    reinitialize(store, seed)
    return Model(config, _build_tape(config, None), store)


def insert_adapters(model: Model, spec: AdapterSpec, seed: int) -> ParameterStore:
    """Add identity-initialized adapters after each hidden block.

    The up-projection starts at zero, so the skip connection makes every
    adapter an exact identity: outputs are unchanged until training moves the
    adapter parameters.
    """
    if model.adapters is not None:
        raise ValueError("adapters already inserted")
    if not model.config.hidden_dims:
        raise ValueError("model has no hidden blocks to adapt")
    for h in model.config.hidden_dims:
        if spec.bottleneck_dim >= h:
            raise ValueError(
                f"bottleneck_dim {spec.bottleneck_dim} must be smaller than hidden width {h}"
            )
    gen = rng.stream(seed, rng.INIT)
    for i, h in enumerate(model.config.hidden_dims):
        b = spec.bottleneck_dim
        model.params.add(f"adapter{i}.down.weight", gen.standard_normal((h, b)) / np.sqrt(h))
        model.params.add(f"adapter{i}.down.bias", np.zeros(b))
        model.params.add(f"adapter{i}.up.weight", np.zeros((b, h)))
        model.params.add(f"adapter{i}.up.bias", np.zeros(h))
    model.adapters = spec
    model.tape = _build_tape(model.config, spec)
    return model.params


def predict_video(model: Model, video: VideoSample) -> int:
    """Argmax of video_logits; ties break toward the lowest class index."""
    return int(np.argmax(video_logits(model, video)))


def video_logits(model: Model, video: VideoSample) -> np.ndarray:
    """Clip logits averaged over all of the video's clips, summed in clip order."""
    clips = np.stack(chunk_video(video, model.config.frames_per_clip))
    _, logits = forward(model.tape, {"clip": clips, "label": 0}, model.params)
    return logits.sum(axis=0) / len(clips)


def save_checkpoint(path: str, store: ParameterStore) -> None:
    """Binary checkpoint: DPVM magic, version, then one record per parameter:
    u32 name length, UTF-8 name, u32 rank, u32 dims, float64 values."""
    with open(path, "wb") as f:
        records.write_header(f, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
        for name in store.names():
            value = store.value(name)
            encoded = name.encode("utf-8")
            f.write(struct.pack("<I", len(encoded)) + encoded)
            f.write(struct.pack(f"<I{value.ndim}I", value.ndim, *value.shape))
            records.write_array(f, value)


class CheckpointFormatError(ValueError):
    pass


def load_checkpoint(path: str) -> dict[str, np.ndarray]:
    params: dict[str, np.ndarray] = {}
    with records.open_records(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, CheckpointFormatError, "checkpoint") as r:
        while not r.at_end():
            (name_len,) = r.unpack("<I", "name length")
            at = r.offset
            try:
                name = r.read(name_len, "parameter name").decode("utf-8")
            except UnicodeDecodeError:
                raise CheckpointFormatError(f"parameter name at byte offset {at} is not UTF-8") from None
            (ndim,) = r.unpack("<I", f"rank of {name!r}")
            shape = r.unpack(f"<{ndim}I", f"shape of {name!r}")
            if name in params:
                raise CheckpointFormatError(f"duplicate parameter {name!r} in checkpoint")
            params[name] = r.array(shape, f"payload of {name!r}")
    return params


def load_into(store: ParameterStore, checkpoint: dict[str, np.ndarray]) -> None:
    """Copy checkpoint values into matching store parameters.

    Every checkpoint parameter must exist in the store with the same shape;
    store parameters absent from the checkpoint keep their current values
    (fresh adapters stay identity-initialized).
    """
    for name, value in checkpoint.items():
        if name not in store:
            raise ValueError(f"incompatible checkpoint: unknown parameter {name!r}")
        if store.value(name).shape != value.shape:
            raise ValueError(
                f"incompatible checkpoint: parameter {name!r} has shape {value.shape}, "
                f"model expects {store.value(name).shape}"
            )
        store.set_value(name, value)
