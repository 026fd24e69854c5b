"""Spans around the calls into wspkit's layers, recorded by the benchmark.

The library is not instrumented: every span is opened and closed here, around
a call into one layer's public function.  A span's name starts with its layer
(`kernel.search`, `encode.build.udpb`); spans named after no layer (`solve`,
`export`, `setup`) are the benchmark's own glue, and their self time is what
the report calls unattributed.

Spans stay in memory as `[name, parent, root, start, end]` lists and are
reduced to per-layer sums when the run ends.
"""

from __future__ import annotations

from time import perf_counter

LAYERS = ("generator", "absorption", "solver", "kernel", "core", "encode")

# a root span with this name is set-up work: counted in the per-layer sums,
# left out of the measured part that self shares and overhead refer to
SETUP = "setup"


def layer_of(name: str):
    head = name.split(".", 1)[0]
    return head if head in LAYERS else None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[self._stack[0]][2] if self._stack else idx
        self.spans.append([name, parent, root, perf_counter(), 0.0])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][4] = perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed out of order (open: {popped})")

    def call(self, name: str, fn, *args, **kwargs):
        idx = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)


class Summary:
    """Per-name totals and per-layer self times of one traced pass."""

    def __init__(self, spans: list[list]) -> None:
        child = [0.0] * len(spans)
        for name, parent, root, t0, t1 in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self.total: dict[str, float] = {}   # seconds per span name, all spans
        self.self_by_layer = {layer: 0.0 for layer in LAYERS}
        self.unattributed = 0.0             # glue self time in the measured part
        self.measured = 0.0                 # root durations outside set-up
        for i, (name, parent, root, t0, t1) in enumerate(spans):
            dur = t1 - t0
            self.total[name] = self.total.get(name, 0.0) + dur
            if spans[root][0] == SETUP:
                continue
            if parent < 0:
                self.measured += dur
            layer = layer_of(name)
            if layer is None:
                self.unattributed += dur - child[i]
            else:
                self.self_by_layer[layer] += dur - child[i]

    def ms(self, name: str) -> float:
        return self.total.get(name, 0.0) * 1000.0

    def share(self, layer: str) -> float:
        return self.self_by_layer[layer] / self.measured if self.measured else 0.0

    def closure_error(self) -> float:
        """|sum of self times + unattributed - measured time|, in seconds;
        zero up to rounding when every span nests inside its root."""
        return abs(sum(self.self_by_layer.values()) + self.unattributed
                   - self.measured)
