"""Search kernel: depth-first pattern construction with incremental matching.

The kernel builds restricted-growth strings one step at a time (each step
joins an existing block or opens a new one), prunes user-independent
constraints structurally, and keeps incrementally-repaired block/user
matchings for the authorisation alternatives.  The search is serial: one
call walks the whole tree from the root.  Two interchangeable backends
implement the same contract and return the same status, plan and counters on
every call, which the parity tests check: the compiled extension (_speed,
built from Cython), which repairs one matching per alternative, and the
pure-Python one (_pure), whose docstring describes how it shares that work
across alternatives and packs its per-depth state.
Selection happens at import: the compiled backend when it is importable,
the pure one otherwise.  `backend_run_search` fetches either by name.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

# every backend's status codes: _pure imports them, and _speed.pyx, whose
# source its checksum pins, repeats them
UNSAT, SAT, BUDGET = 0, 1, 2

KERNEL_MAX_STEPS = 64  # block labels and cover sets live in single machine words


@dataclass(frozen=True)
class CountSpec:
    """An at-most/at-least bound on distinct users over scope depths."""

    at_most: bool
    r: int
    depths: tuple[int, ...]  # ascending positions in visit order


@dataclass(frozen=True)
class SualSpec:
    """Super-user restriction: once all scope depths are assigned within at
    most h blocks, those blocks' users must come from xmask."""

    depths: tuple[int, ...]
    h: int
    xmask: int


@dataclass(frozen=True)
class SearchProblem:
    """A compiled instance, fully reindexed into visit-depth space.

    combo_masks[c][d] is the user bitmask that authorisation alternative c
    allows for the step visited at depth d.  `count_at` and `sual_at` are
    built on first read; only the compiled kernel reads them.
    """

    k: int
    n: int
    order: tuple[int, ...]
    combo_masks: tuple[tuple[int, ...], ...]
    sod_prev: tuple[tuple[int, ...], ...]
    bod_prev: tuple[tuple[int, ...], ...]
    counts: tuple[CountSpec, ...] = ()
    suals: tuple[SualSpec, ...] = ()

    @functools.cached_property
    def count_at(self) -> tuple[tuple[int, ...], ...]:
        """The counting constraints whose scope holds each depth."""
        return _memberships(self.k, [c.depths for c in self.counts])

    @functools.cached_property
    def sual_at(self) -> tuple[tuple[int, ...], ...]:
        """The SUALs whose scope holds each depth."""
        return _memberships(self.k, [s.depths for s in self.suals])


def _memberships(k: int, scopes) -> tuple[tuple[int, ...], ...]:
    at: list[list[int]] = [[] for _ in range(k)]
    for i, depths in enumerate(scopes):
        for d in depths:
            at[d].append(i)
    return tuple(tuple(x) for x in at)


try:
    from . import _speed as _impl  # type: ignore[attr-defined]
    BACKEND = "compiled"
except ImportError:
    from . import _pure as _impl
    BACKEND = "pure"

run_search = _impl.run_search


def available_backends() -> tuple[str, ...]:
    names = ["pure"]
    try:
        from . import _speed  # noqa: F401
        names.insert(0, "compiled")
    except ImportError:
        pass
    return tuple(names)


def backend_run_search(name: str):
    """Fetch a specific backend's run_search (for benchmarks and tests)."""
    if name in ("auto", BACKEND):
        return run_search
    if name == "pure":
        from . import _pure
        return _pure.run_search
    if name == "compiled":
        from . import _speed  # raises ImportError when not built
        return _speed.run_search
    raise ValueError(f"unknown kernel backend {name!r}")
