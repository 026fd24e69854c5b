"""Search kernel: depth-first pattern construction with incremental matching.

The kernel builds restricted-growth strings one step at a time (each step
joins an existing block or opens a new one), prunes user-independent
constraints structurally, and keeps incrementally-repaired block/user
matchings for the authorisation alternatives.  The search is serial: one
call walks the whole tree from the root.  Two backends run one algorithm
and return the same status, plan and counters on every call, which the
parity tests check: the pure-Python one (_pure), whose docstring describes
the algorithm, and the compiled extension (_speed), a hand-written C
transliteration of it whose `search` reads the problem from the flat
buffers `pack` makes; this module packs and calls it.  setup.py does not
build the extension; the tests build it for the parity suite.  Selection
happens at import: the compiled backend when it is importable, the pure
one otherwise.  `backend_run_search` fetches either by name.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass

# every backend's status codes: _pure imports them, and _speed.c repeats them
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

    k is the step count, order[d] the step visited at depth d,
    combo_masks[c][d] the user bitmask that authorisation alternative c
    allows for it, and sod_prev[d] the earlier depths it has an SoD with,
    its SoD scope.
    counts are the at-most and at-least bounds, a binding-of-duty pair
    among them as at most one user (r=1) over its two depths, and suals the
    super-user restrictions.  No field holds the user count: the masks' own
    widths size everything the kernels build.

    The combos are kept sorted by mask tuple, however they are given, so
    every problem is in the one canonical order both kernels search: the
    combos that agree on depths 0..d-1 are consecutive, and the plan is the
    matching of the first class alive at full depth.  Each SoD scope is
    kept ascending with each depth once, as every count and SUAL scope
    lists its depths, so the kernels read all three kinds alike.
    """

    k: int
    order: tuple[int, ...]
    combo_masks: tuple[tuple[int, ...], ...]
    sod_prev: tuple[tuple[int, ...], ...]
    counts: tuple[CountSpec, ...] = ()
    suals: tuple[SualSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "combo_masks", tuple(sorted(self.combo_masks)))
        object.__setattr__(self, "sod_prev",
                           tuple(tuple(sorted(set(p))) for p in self.sod_prev))


def pack(prob: SearchProblem) -> tuple[array, array]:
    """`prob` as the two flat buffers the compiled kernel reads.

    `ints` is k, W (64-bit words per user mask), m, the count of counts and
    of SUALs, then `order`, then each depth's `sod_prev` as (scope size,
    depths...), then each count as (at most?, r, scope size, depths...), a
    binding-of-duty pair as (1, 1, 2, d1, d2), and each SUAL as (h, scope
    size, depths...).  Every scope lists its depths ascending, each once.
    `words` is the combos' masks in their canonical order, depth by depth,
    then the SUALs' super-users, W words each, lowest users first.  W is
    the fewest words that hold every one of those masks, at least one.
    """
    k, combo_masks = prob.k, prob.combo_masks
    top = max([*map(max, combo_masks), *(s.xmask for s in prob.suals)], default=0)
    width = max(1, -(-top.bit_length() // 64))
    ints = array("i", (k, width, len(combo_masks), len(prob.counts),
                       len(prob.suals), *prob.order))
    for prev in prob.sod_prev:
        ints.append(len(prev))
        ints.extend(prev)
    for c in prob.counts:
        ints.extend((c.at_most, c.r, len(c.depths), *c.depths))
    for s in prob.suals:
        ints.extend((s.h, len(s.depths), *s.depths))
    size = 8 * width
    words = array("Q", b"".join(
        [mask.to_bytes(size, "little") for combo in combo_masks for mask in combo]
        + [s.xmask.to_bytes(size, "little") for s in prob.suals]))
    if sys.byteorder == "big":
        words.byteswap()
    return ints, words


def _compiled(search):
    """The compiled backend's run_search: `prob` packed for its `search`."""

    def run_search(prob: SearchProblem, max_nodes=None, max_patterns=None,
                   deadline=None):
        return search(*pack(prob), max_nodes, max_patterns, deadline)

    return run_search


try:
    from ._speed import search as _speed_search  # type: ignore[import]
    run_search = _compiled(_speed_search)
    BACKEND = "compiled"
except ImportError:
    from ._pure import run_search
    BACKEND = "pure"


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
        return _compiled(_speed.search)
    raise ValueError(f"unknown kernel backend {name!r}")
