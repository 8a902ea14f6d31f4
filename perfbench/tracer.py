"""Outside-in span tracer for the benchmark's traced runs.

The tracer wraps public functions and methods of the ``homotopes`` package at
their module or class boundary.  A module-level function is replaced in every
module that holds a reference to it (``from .matrices import rref`` binds a
second name), so callers inside the package reach the wrapper whichever name
they use.  Nothing in the package is edited, and ``uninstall`` puts every
original back: an untraced run has no wrapper at all.

Each call records a span ``(name, start, end, parent, case)``; self time is
the span's duration minus the time its child spans cover, accumulated as the
calls return.  Per-scalar layers (``record=False``) are timed and counted the
same way but keep no span list entry, so a run with millions of scalar
operations stays small in memory.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Callable, NamedTuple


class Layer(NamedTuple):
    """One wrap target: ``owner.attr`` reported under ``name``.

    ``count(counters, args, result)`` adds layer counters after a call that
    returned normally.
    """

    name: str
    owner: object
    attr: str
    record: bool = True
    count: Callable | None = None


class Tracer:
    """Wraps ``layers``; ``modules`` are searched for other names bound to a
    wrapped function; ``counters`` are reported even when they stay 0."""

    def __init__(self, layers, modules=(), counters=()):
        self.layers = list(layers)
        self.modules = list(modules)
        self.stats = defaultdict(lambda: [0, 0.0])  # name -> [calls, self seconds]
        self.counters = defaultdict(float, dict.fromkeys(counters, 0.0))
        self.spans = []
        self.case = None
        self._stack = []  # one [span index or -1, child seconds] per open call
        self._patched = []  # (owner, attr, owned, original)

    # -- install / uninstall ----------------------------------------------

    def install(self):
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for layer in self.layers:
            original = getattr(layer.owner, layer.attr)
            wrapper = self._wrap(layer, original)
            if isinstance(layer.owner, type):
                owners = [layer.owner]
            else:
                owners = [m for m in [layer.owner, *self.modules]
                          if any(v is original for v in vars(m).values())]
            for owner in dict.fromkeys(owners):
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        self._patched.append((owner, attr, True, value))
                        setattr(owner, attr, wrapper)
            if isinstance(layer.owner, type) and layer.attr not in vars(layer.owner):
                # an inherited method (PrecisionError.__init__): delete on restore
                self._patched.append((layer.owner, layer.attr, False, original))
                setattr(layer.owner, layer.attr, wrapper)
        return self

    def uninstall(self):
        for owner, attr, owned, original in reversed(self._patched):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- recording ----------------------------------------------------------

    def _wrap(self, layer: Layer, fn):
        stat = self.stats[layer.name]
        stack, spans, counters = self._stack, self.spans, self.counters
        clock = time.perf_counter
        name, record, count = layer.name, layer.record, layer.count

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [-1, 0.0]
            if record:
                frame[0] = len(spans)
                spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat[0] += 1
                stat[1] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if record:
                    spans[frame[0]] = (name, start, end, parent, self.case)
            if count is not None:
                count(counters, args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def reset(self):
        """Drop everything recorded so far (the wrappers stay installed)."""
        if self._stack:
            raise RuntimeError("cannot reset inside an open span")
        for stat in self.stats.values():
            stat[0], stat[1] = 0, 0.0
        for key in self.counters:
            self.counters[key] = 0.0
        self.spans.clear()

    def snapshot(self) -> dict:
        """Calls, self seconds and counters recorded so far, by name."""
        out = {}
        for name, (calls, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        out.update(self.counters)
        return out

    def write(self, path, meta: dict):
        """One JSON trace: metadata, per-layer totals and every recorded span."""
        with open(path, "w") as fh:
            json.dump({"meta": meta, "layers": self.snapshot(),
                       "spans": [{"name": s[0], "start": s[1], "end": s[2],
                                  "parent": s[3], "case": s[4]}
                                 for s in self.spans if s is not None]}, fh)

