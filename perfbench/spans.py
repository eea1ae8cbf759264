"""In-memory spans around calls into dpvideo's public functions.

A span wraps the module (or class) attribute through which a caller reaches a
function, so wrapping `trainer.multi_clip_step` times the trainer's calls to
dp.multi_clip_step. Spans record their parent, so a layer's self time is its
span time minus that of its child spans. Spans stay in memory until the run
ends and are then written out in one go. Nothing is wrapped outside a
`Tracer.installed()` block, so untraced runs pay nothing.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def _wrap(self, name: str, fn, on_call):
        names, starts, ends, parents, opened = self.names, self.starts, self.ends, self.parents, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(opened[-1] if opened else -1)
            ends.append(0)
            opened.append(index)
            starts.append(time.perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = time.perf_counter_ns()
                opened.pop()
            if on_call is not None:
                on_call(self.counts, args, kwargs, result)
            return result

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self, points):
        """Wrap every (owner, attribute, span name, on_call, timed) point; restore on exit.

        on_call(counts, args, kwargs, result) adds work counts after the call;
        an untimed point only counts calls under its name.
        """
        saved = []
        try:
            for owner, attr, name, on_call, timed in points:
                raw = owner.__dict__[attr]
                saved.append((owner, attr, raw))
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                wrapped = self._wrap(name, fn, on_call) if timed else self._count(name, fn)
                setattr(owner, attr, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def totals(self, root: str) -> dict:
        """Per span name: calls, inclusive ns and self ns; per layer: self ns inside `root` spans.

        A span's layer is the part of its name before the first dot.
        """
        if self._open:
            raise RuntimeError(f"{len(self._open)} spans still open")
        n = len(self.names)
        child_ns = [0] * n
        inside = [False] * n
        for i in range(n):  # parents precede children, since a span's index is taken on entry
            p = self.parents[i]
            if p >= 0:
                child_ns[p] += self.ends[i] - self.starts[i]
            inside[i] = self.names[i] == root or (p >= 0 and inside[p])
        calls: Counter = Counter()
        total_ns: Counter = Counter()
        self_ns: Counter = Counter()
        layer_self_ns: dict[str, int] = defaultdict(int)
        for i in range(n):
            name = self.names[i]
            own = self.ends[i] - self.starts[i] - child_ns[i]
            calls[name] += 1
            total_ns[name] += self.ends[i] - self.starts[i]
            self_ns[name] += own
            if inside[i]:
                layer_self_ns[name.split(".", 1)[0]] += own
        return {"calls": calls, "total_ns": total_ns, "self_ns": self_ns, "layer_self_ns": dict(layer_self_ns)}

    def write(self, path: str) -> None:
        """One line per span: index, parent index, name, start ns, end ns."""
        origin = min(self.starts, default=0)
        with open(path, "w") as f:
            f.write("index\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.names)):
                f.write(f"{i}\t{self.parents[i]}\t{self.names[i]}\t"
                        f"{self.starts[i] - origin}\t{self.ends[i] - origin}\n")
