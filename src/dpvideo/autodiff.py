"""Reverse-mode automatic differentiation over dense float64 arrays.

A Tape is a static, topologically ordered record of primitive operations.
Models declare their graph once; forward/backward walk the record with values
held in a per-run list, so the tape itself is immutable during a batch and
safe to share across concurrent per-sample computations.

Shape contract: a walk takes a stack of K >= 1 clips. Every input is (K,) +
its declared shape, so the label input holds one label per clip, and every
value on the walk carries the clip axis. Each clip is computed bit for bit as
a stack of one would compute it: parameter adjoints stay per clip until
backward sums them in clip order, and a vector per clip (the pooled features
at the head) is multiplied as a stack of gemv products, a[:, None, :] @ w,
since one (K, H) @ (H, C) gemm rounds differently.

Primitives: matmul, (broadcasting) add, relu, group/layer normalization,
temporal mean-pool, softmax cross-entropy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .models import ParameterStore


class ShapeMismatchError(ValueError):
    """Raised when a node receives inputs whose shapes do not compose."""


class NonFiniteLossError(FloatingPointError):
    """Raised when a forward pass produces a NaN or infinite loss."""


@dataclass(frozen=True)
class Node:
    kind: str
    inputs: tuple[int, ...]
    name: str
    meta: dict = field(default_factory=dict)


class Tape:
    """Builder and container for the operation record."""

    def __init__(self) -> None:
        self.nodes: list[Node] = []
        self.input_shapes: dict[str, tuple[int, ...]] = {}
        self.param_shapes: dict[str, tuple[int, ...]] = {}  # in first-declaration order
        self.loss_id: int | None = None
        self.logits_id: int | None = None

    def _push(self, kind: str, inputs: tuple[int, ...], name: str, **meta) -> int:
        for i in inputs:
            if not 0 <= i < len(self.nodes):
                raise ValueError(f"node {name!r} references unknown input {i}")
        self.nodes.append(Node(kind, inputs, name, meta))
        return len(self.nodes) - 1

    def input(self, name: str, shape: tuple[int, ...]) -> int:
        if name in self.input_shapes:
            raise ValueError(f"duplicate input {name!r}")
        self.input_shapes[name] = tuple(shape)
        return self._push("input", (), name, shape=tuple(shape))

    def param(self, name: str, shape: tuple[int, ...]) -> int:
        self.param_shapes.setdefault(name, tuple(shape))
        return self._push("param", (), name)

    def matmul(self, a: int, b: int, name: str) -> int:
        return self._push("matmul", (a, b), name)

    def add(self, a: int, b: int, name: str) -> int:
        return self._push("add", (a, b), name)

    def relu(self, a: int, name: str) -> int:
        return self._push("relu", (a,), name)

    def normalize(self, x: int, scale: int, shift: int, groups: int, eps: float, name: str) -> int:
        return self._push("norm", (x, scale, shift), name, groups=groups, eps=eps)

    def mean_pool(self, a: int, name: str) -> int:
        return self._push("mean_pool", (a,), name)

    def softmax_cross_entropy(self, logits: int, label: int, name: str) -> int:
        return self._push("softmax_xent", (logits, label), name)

    def mark_outputs(self, loss_id: int, logits_id: int) -> None:
        self.loss_id = loss_id
        self.logits_id = logits_id


def _group_stats(x: np.ndarray, groups: int):
    """Per-row, per-group mean and biased variance over the feature axis."""
    width = x.shape[-1]
    if width % groups != 0:
        raise ShapeMismatchError(f"{groups} groups do not divide width {width}")
    g = x.reshape(x.shape[:-1] + (groups, width // groups))
    mean = g.mean(axis=-1, keepdims=True)
    var = g.var(axis=-1, keepdims=True)
    return g, mean, var


def _eval_node(node: Node, values: list, inputs: dict, params: ParameterStore):
    kind = node.kind
    if kind == "input":
        try:
            v = inputs[node.name]
        except KeyError:
            raise KeyError(f"missing input {node.name!r}") from None
        v = np.asarray(v, dtype=np.float64)
        shape = node.meta["shape"]
        if v.ndim == 0 or len(v) < 1 or v.shape[1:] != shape:
            raise ShapeMismatchError(f"input {node.name!r}: expected shape (clips,) + {shape}, got {v.shape}")
        return v
    if kind == "param":
        return params.value(node.name)
    a = values[node.inputs[0]]
    if kind == "relu":
        return np.maximum(a, 0.0)
    if kind == "mean_pool":
        if a.ndim != 3:
            raise ShapeMismatchError(f"node {node.name!r}: mean_pool expects a matrix per clip, got shape {a.shape}")
        return a.mean(axis=1)
    if kind == "matmul":
        b = values[node.inputs[1]]
        if a.shape[-1] != b.shape[0]:
            raise ShapeMismatchError(
                f"node {node.name!r}: matmul shapes {a.shape} x {b.shape} do not compose"
            )
        if a.ndim == 2:  # one vector per clip: a stack of gemv products
            return (a[:, None, :] @ b)[:, 0]
        return a @ b
    if kind == "add":
        b = values[node.inputs[1]]
        if a.shape != b.shape and a.shape[-1:] != b.shape:
            raise ShapeMismatchError(
                f"node {node.name!r}: add shapes {a.shape} + {b.shape} do not broadcast"
            )
        return a + b
    if kind == "norm":
        scale = values[node.inputs[1]]
        shift = values[node.inputs[2]]
        g, mean, var = _group_stats(a, node.meta["groups"])
        normed = ((g - mean) / np.sqrt(var + node.meta["eps"])).reshape(a.shape)
        return normed * scale + shift
    if kind == "softmax_xent":
        logits = a
        if logits.ndim != 2:
            raise ShapeMismatchError(f"node {node.name!r}: expected a logit vector per clip, got shape {logits.shape}")
        labels = values[node.inputs[1]].astype(np.intp)
        if len(labels) != len(logits):
            raise ShapeMismatchError(f"node {node.name!r}: {len(labels)} labels for {len(logits)} clips")
        if not all(0 <= label < logits.shape[1] for label in labels.tolist()):
            raise ValueError(f"node {node.name!r}: label {labels} out of range for {logits.shape[1]} classes")
        with np.errstate(invalid="ignore"):  # non-finite logits surface as a non-finite loss
            m = logits.max(axis=1)
            lse = m + np.log(np.exp(logits - m[:, None]).sum(axis=1))
            return lse - logits[np.arange(len(logits)), labels]
    raise ValueError(f"unknown node kind {kind!r}")


def run_forward(tape: Tape, inputs: dict, params: ParameterStore) -> list:
    """Evaluate every node; returns the full value list for reuse in backward."""
    values: list = [None] * len(tape.nodes)
    for i, node in enumerate(tape.nodes):
        values[i] = _eval_node(node, values, inputs, params)
    return values


def forward(tape: Tape, inputs: dict, params: ParameterStore) -> tuple[np.ndarray, np.ndarray]:
    """Per-clip losses (K,) and logits (K, C) of one walk over a K-clip stack.
    Deterministic: same inputs, same bits."""
    if tape.loss_id is None or tape.logits_id is None:
        raise ValueError("tape outputs not marked")
    values = run_forward(tape, inputs, params)
    return values[tape.loss_id], values[tape.logits_id]


def _softmax(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def backward(
    tape: Tape,
    inputs: dict,
    params: ParameterStore,
    values: list | None = None,
) -> dict[str, np.ndarray]:
    """Gradients of the summed clip losses of a K-clip stack w.r.t. every parameter node.

    Returns a dict name -> gradient array; parameters used at several nodes
    accumulate. Each clip's gradient is formed as a stack of one would form
    it, then the clip gradients are summed in clip order. Traversal is a fixed
    reverse walk of the record, so repeated calls are bit-identical.
    """
    if values is None:
        values = run_forward(tape, inputs, params)
    adjoints: list = [None] * len(tape.nodes)
    adjoints[tape.loss_id] = np.ones(len(values[tape.loss_id]))

    def accumulate(node_id: int, grad: np.ndarray) -> None:
        if adjoints[node_id] is None:
            adjoints[node_id] = grad
        else:
            adjoints[node_id] = adjoints[node_id] + grad

    for i in range(len(tape.nodes) - 1, -1, -1):
        node = tape.nodes[i]
        g = adjoints[i]
        if g is None or node.kind in ("input", "param"):
            continue
        if node.kind == "relu":
            a = values[node.inputs[0]]
            accumulate(node.inputs[0], g * (a > 0.0))
        elif node.kind == "mean_pool":
            a = values[node.inputs[0]]
            rows = a.shape[1]
            accumulate(node.inputs[0], np.broadcast_to((g / rows)[:, None, :], a.shape).copy())
        elif node.kind == "matmul":
            a = values[node.inputs[0]]
            b = values[node.inputs[1]]
            into_a = tape.nodes[node.inputs[0]].kind != "input"  # nothing reads an input's adjoint
            # weight adjoints per clip: one product over all K * rows would round differently
            if a.ndim == 2:
                if into_a:
                    accumulate(node.inputs[0], (g[:, None, :] @ b.T)[:, 0])
                accumulate(node.inputs[1], a[:, :, None] * g[:, None, :])
            else:
                if into_a:
                    accumulate(node.inputs[0], g @ b.T)
                accumulate(node.inputs[1], np.swapaxes(a, -1, -2) @ g)
        elif node.kind == "add":
            a = values[node.inputs[0]]
            b = values[node.inputs[1]]
            accumulate(node.inputs[0], g)
            if a.shape == b.shape:
                accumulate(node.inputs[1], g)
            else:
                # bias broadcast over the rows of each clip
                accumulate(node.inputs[1], g.sum(axis=tuple(range(1, g.ndim - 1))))
        elif node.kind == "norm":
            x = values[node.inputs[0]]
            scale = values[node.inputs[1]]
            groups = node.meta["groups"]
            eps = node.meta["eps"]
            gx, mean, var = _group_stats(x, groups)
            inv = 1.0 / np.sqrt(var + eps)
            xhat = ((gx - mean) * inv).reshape(x.shape)
            axes = tuple(range(1, x.ndim - 1))
            accumulate(node.inputs[1], (g * xhat).sum(axis=axes))
            accumulate(node.inputs[2], g.sum(axis=axes))
            dxhat = (g * scale).reshape(gx.shape)
            xh = xhat.reshape(gx.shape)
            m1 = dxhat.mean(axis=-1, keepdims=True)
            m2 = (dxhat * xh).mean(axis=-1, keepdims=True)
            dx = ((dxhat - m1 - xh * m2) * inv).reshape(x.shape)
            accumulate(node.inputs[0], dx)
        elif node.kind == "softmax_xent":
            logits = values[node.inputs[0]]
            grad = _softmax(logits)
            grad[np.arange(len(logits)), values[node.inputs[1]].astype(np.intp)] -= 1.0
            accumulate(node.inputs[0], g[:, None] * grad)
        else:
            raise ValueError(f"unknown node kind {node.kind!r}")

    grads: dict[str, np.ndarray] = {}
    for i, node in enumerate(tape.nodes):
        if node.kind == "param" and adjoints[i] is not None:
            prev = grads.get(node.name)
            grads[node.name] = adjoints[i] if prev is None else prev + adjoints[i]
    return {name: g.sum(axis=0) for name, g in grads.items()}


def per_sample_gradients(
    tape: Tape, batch: dict, params: ParameterStore
) -> tuple[list[np.ndarray], list[float]]:
    """Per-sample gradient vectors for a batch with a leading sample axis.

    A sample is a clip stack with one label per clip: batch["clip"] is
    (samples, K, frames, features) and batch["label"] is (samples, K). Each
    sample is one walk of the tape, so element i is exactly the gradient of
    sample i's mean clip loss, flattened over the trainable parameters in
    store order. Also returns the per-clip losses, in sample then clip order.
    """
    arrays = {n: np.asarray(v, dtype=np.float64) for n, v in batch.items()}
    sizes = {len(a) for a in arrays.values()}
    if len(sizes) != 1:
        raise ValueError(f"inconsistent batch sizes: {sizes}")
    (count,) = sizes
    if count < 1:
        raise ValueError("batch must contain at least one sample")
    grads: list[np.ndarray] = []
    losses: list[float] = []
    for i in range(count):
        sample = {n: a[i] for n, a in arrays.items()}
        values = run_forward(tape, sample, params)
        clip_losses = values[tape.loss_id]
        if not np.all(np.isfinite(clip_losses)):
            raise NonFiniteLossError(f"non-finite loss ({clip_losses}) at sample index {i}")
        losses.extend(clip_losses.tolist())
        grads.append(params.pack_gradient(backward(tape, sample, params, values=values)) / len(clip_losses))
    return grads, losses


def gradient_of_mean_loss(tape: Tape, batch: dict, params: ParameterStore) -> np.ndarray:
    """Gradient of the batch-mean loss, accumulated sample by sample."""
    grads, _ = per_sample_gradients(tape, batch, params)
    total = np.zeros_like(grads[0])
    for g in grads:
        total += g
    return total / len(grads)
