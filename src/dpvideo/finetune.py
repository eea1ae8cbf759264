"""Training schemes as trainable-parameter masks.

Clipping operates on the flattened gradient of trainable parameters only, so
the active scheme decides both what moves and what the privacy mechanism sees.
from_scratch is full training from the seed's init: it has full's mask and
takes no checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

from .models import ParameterStore

SCHEME_KINDS = ("from_scratch", "full", "linear_probe", "selective", "adapter")


@dataclass(frozen=True)
class Scheme:
    kind: str

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ValueError(f"unknown scheme {self.kind!r}; expected one of {SCHEME_KINDS}")


def _is_head(name: str) -> bool:
    return name.startswith("head.")


def _is_norm(name: str) -> bool:
    return name.endswith(".norm.scale") or name.endswith(".norm.shift")


def _is_adapter(name: str) -> bool:
    return name.startswith("adapter")


def apply_scheme(store: ParameterStore, scheme: Scheme) -> ParameterStore:
    """Set trainable flags for the scheme; idempotent."""
    names = store.names()
    if scheme.kind in ("from_scratch", "full"):
        mask = {n: True for n in names}
    elif scheme.kind == "linear_probe":
        mask = {n: _is_head(n) for n in names}
    elif scheme.kind == "selective":
        if not any(_is_norm(n) for n in names):
            raise ValueError(
                "selective fine-tuning trains normalization layers, but this model has none; "
                "build it with norm_kind='layer' or 'group', or use linear_probe"
            )
        mask = {n: _is_head(n) or _is_norm(n) for n in names}
    else:  # adapter
        if not any(_is_adapter(n) for n in names):
            raise ValueError("insert adapters before applying the adapter scheme")
        mask = {n: _is_head(n) or _is_adapter(n) for n in names}
    for name, flag in mask.items():
        store.set_trainable(name, flag)
    return store
