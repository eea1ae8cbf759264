"""Reference computations the benchmark checks dpvideo against.

They share no code with the package: the RDP curve is a plain-Python
binomial log-sum, the classifier forward pass is written from the model's
documented architecture in numpy, and gradients are checked by central finite
differences of that forward pass. Each oracle has a self-check on a case whose
answer is known, run before any measurement.
"""

from __future__ import annotations

import math

import numpy as np

ORDERS = range(2, 257)
NORM_EPS = 1e-5  # the clip classifier's documented normalisation epsilon


# --- privacy ledger ---------------------------------------------------------

def rdp_curve(q: float, sigma: float) -> list[float]:
    """Per-step RDP of the Poisson-subsampled Gaussian at every integer order 2..256.

    log sum_k C(a,k) (1-q)^(a-k) q^k exp(k(k-1)/(2 sigma^2)), divided by a-1.
    """
    curve = []
    for a in ORDERS:
        logs = []
        for k in range(a + 1):
            if q == 1.0 and k < a:
                continue  # (1-q)^(a-k) = 0
            log_binom = math.lgamma(a + 1) - math.lgamma(k + 1) - math.lgamma(a - k + 1)
            log_mix = k * math.log(q) + ((a - k) * math.log1p(-q) if k < a else 0.0)
            logs.append(log_binom + log_mix + k * (k - 1) / (2.0 * sigma * sigma))
        top = max(logs)
        curve.append((top + math.log(sum(math.exp(v - top) for v in logs))) / (a - 1))
    return curve


def epsilon(q: float, sigma: float, steps: int, delta: float) -> float:
    """min over orders of steps * rdp(a) + log(1/delta) / (a - 1)."""
    curve = rdp_curve(q, sigma)
    return min(steps * r + math.log(1.0 / delta) / (a - 1) for a, r in zip(ORDERS, curve))


# --- clip classifier ----------------------------------------------------------

def clip_logits(params: dict[str, np.ndarray], clips: np.ndarray, groups: int = 1) -> np.ndarray:
    """Logits for a stack of clips (n, frames, features), from parameters by name.

    Per hidden block i: dense, group norm (groups=1 is layer norm) when
    layer{i}.norm.* exist, ReLU, then a bottleneck adapter with skip when
    adapter{i}.* exist. Then mean over frames and a dense head.
    """
    h = np.asarray(clips, dtype=np.float64)
    i = 0
    while f"layer{i}.weight" in params:
        h = h @ params[f"layer{i}.weight"] + params[f"layer{i}.bias"]
        if f"layer{i}.norm.scale" in params:
            shape = h.shape
            g = h.reshape(shape[:-1] + (groups, shape[-1] // groups))
            g = (g - g.mean(axis=-1, keepdims=True)) / np.sqrt(g.var(axis=-1, keepdims=True) + NORM_EPS)
            h = g.reshape(shape) * params[f"layer{i}.norm.scale"] + params[f"layer{i}.norm.shift"]
        h = np.maximum(h, 0.0)
        if f"adapter{i}.down.weight" in params:
            down = np.maximum(h @ params[f"adapter{i}.down.weight"] + params[f"adapter{i}.down.bias"], 0.0)
            h = h + down @ params[f"adapter{i}.up.weight"] + params[f"adapter{i}.up.bias"]
        i += 1
    return h.mean(axis=-2) @ params["head.weight"] + params["head.bias"]


def mean_loss(params: dict[str, np.ndarray], clips: np.ndarray, label: int, groups: int = 1) -> float:
    """Mean softmax cross-entropy of the clips, all labelled `label`."""
    logits = clip_logits(params, clips, groups)
    top = logits.max(axis=-1, keepdims=True)
    lse = top[:, 0] + np.log(np.exp(logits - top).sum(axis=-1))
    return float(np.mean(lse - logits[:, label]))


def central_difference(f, params: dict[str, np.ndarray], name: str, index: tuple, h: float = 1e-5) -> float:
    """(f(p + h e) - f(p - h e)) / 2h for one coordinate of params[name]."""
    bumped = dict(params)
    value = params[name].copy()
    value[index] += h
    bumped[name] = value
    up = f(bumped)
    value = params[name].copy()
    value[index] -= h
    bumped[name] = value
    down = f(bumped)
    return (up - down) / (2.0 * h)


def close(a: float, b: float, rel: float, abs_floor: float = 1e-8) -> bool:
    return abs(a - b) <= abs_floor or abs(a - b) <= rel * max(abs(a), abs(b))


# --- self-checks --------------------------------------------------------------

def self_check() -> list[str]:
    """Known-answer cases for every oracle; returns the failures."""
    failures = []
    sigma = 1.7
    for a, r in zip(ORDERS, rdp_curve(1.0, sigma)):
        if not close(r, a / (2 * sigma * sigma), rel=1e-12):
            failures.append(f"rdp_curve(q=1) at order {a}: {r} != {a / (2 * sigma * sigma)}")
            break

    # zero dense weights: every frame normalises to the shift, so the logits are
    # relu(shift) @ W_head + b_head whatever the input
    gen = np.random.default_rng(0)
    params = {
        "layer0.weight": np.zeros((3, 4)), "layer0.bias": np.zeros(4),
        "layer0.norm.scale": np.ones(4), "layer0.norm.shift": np.array([1.0, -2.0, 0.5, 0.0]),
        "head.weight": gen.standard_normal((4, 2)), "head.bias": np.array([0.25, -0.25]),
    }
    expected = np.array([1.0, 0.0, 0.5, 0.0]) @ params["head.weight"] + params["head.bias"]
    got = clip_logits(params, gen.standard_normal((5, 6, 3)))
    if not np.allclose(got, expected, rtol=0, atol=1e-12):
        failures.append(f"clip_logits known case: {got[0]} != {expected}")

    # the derivative of sum(x^2) is 2x
    x = {"x": np.array([0.3, -1.2, 2.0])}
    d = central_difference(lambda p: float(np.sum(p["x"] ** 2)), x, "x", (1,))
    if not close(d, -2.4, rel=1e-9):
        failures.append(f"central_difference of x^2 at -1.2: {d} != -2.4")
    return failures
