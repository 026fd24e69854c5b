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
buffers `pack` makes; this module packs and calls it.  Both read each
depth's tables of the UI constraints from `depth_tables`, the one place
they are derived.  setup.py does not build the extension; the tests build
it for the parity suite.  Selection happens at import: the compiled
backend when it is importable, the pure one otherwise.
`backend_run_search` fetches either by name.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from itertools import chain

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
    lists its depths, so `depth_tables` reads all three kinds alike.
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


def depth_tables(prob: SearchProblem) -> tuple[list, list, list]:
    """Each depth's tables of the UI constraints, which both kernels read.

    The cover scopes are SoD scope f, the earlier depths f has an SoD
    with, at index f, then count ci at k + ci, then SUAL si after the
    counts.  Returns (holders, checks, ends), each a list of one table
    per depth d:

    - holders[d]: the scopes that hold depth d, ascending.
    - checks[d]: (scope, r, at most?) of each count bound that can rule a
      block out at d.  Scope position p sees the blocks of the p scope
      depths before it, so an at-most bound r over s scope depths bites
      only at positions r..s-1, and an at-least bound is met whatever
      came before while r - 1 or more scope depths remain, so it bites
      only at positions s-r+1..s-1, its r reduced by the depths after d.
    - ends[d]: (SUAL, h) of each SUAL whose scope ends at d.  Depths are
      visited in ascending order, so a SUAL scope can restrict only at its
      last depth.
    """
    k, counts = prob.k, prob.counts
    holders = [[] for _ in range(k)]
    checks = [[] for _ in range(k)]
    ends = [[] for _ in range(k)]
    for f, depths in enumerate(prob.sod_prev):
        for d in depths:
            holders[d].append(f)
    for i, spec in enumerate(counts, k):
        r, depths = spec.r, spec.depths
        for d in depths:
            holders[d].append(i)
        if spec.at_most:
            check = (i, r, True)
            for d in depths[max(r, 0):]:
                checks[d].append(check)
        else:
            size = len(depths)
            for p in range(max(size - r + 1, 0), size):
                checks[depths[p]].append((i, r - size + p + 1, False))
    base = k + len(counts)
    for si, spec in enumerate(prob.suals):
        for d in spec.depths:
            holders[d].append(base + si)
        if spec.depths:
            ends[max(spec.depths)].append((si, spec.h))
    return holders, checks, ends


def pack(prob: SearchProblem) -> tuple[array, array]:
    """`prob` as the two flat buffers the compiled kernel reads.

    `ints` is k, W (64-bit words per user mask), m, the count of counts and
    of SUALs, then `order`, then each depth's `depth_tables` as (holder
    count, scopes...), (check count, (scope, r, at most?)...) and (end
    count, (SUAL, h)...).
    `words` is the combos' masks in their canonical order, depth by depth,
    then the SUALs' super-users, W words each, lowest users first.  W is
    the fewest words that hold every one of those masks, at least one.
    """
    k, combo_masks = prob.k, prob.combo_masks
    top = max([*map(max, combo_masks), *(s.xmask for s in prob.suals)], default=0)
    width = max(1, -(-top.bit_length() // 64))
    ints = array("i", (k, width, len(combo_masks), len(prob.counts),
                       len(prob.suals), *prob.order))
    for holders, checks, ends in zip(*depth_tables(prob)):
        ints.extend([len(holders), *holders, len(checks), *chain(*checks),
                     len(ends), *chain(*ends)])
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
