"""Search kernel: depth-first pattern construction with incremental matching.

The kernel builds restricted-growth strings one step at a time (each step
joins an existing block or opens a new one), prunes user-independent
constraints structurally, and keeps incrementally-repaired block/user
matchings for the authorisation alternatives.  The search is serial: one
call walks the whole tree from the root.  Two backends run one algorithm
and return the same status, depth-order plan and node count on every
call, which the parity tests check: the pure-Python one (_pure), whose
docstring describes the algorithm, and the compiled extension (_speed), a
hand-written C transliteration of it whose `search` reads the problem from
the flat buffers `pack` makes.  One adapter here wraps either kernel as
`run_search`: it packs, maps None budgets and the plan's depths to steps,
and returns the five values the solver and the benchmark read.  Both
kernels read each depth's tables of the UI constraints from
`depth_tables`, the one place they are derived.  setup.py does not build
the extension; the tests build it for the parity suite.  Selection happens
at import: the compiled backend when it is importable, the pure one
otherwise.  `backend_run_search` fetches either by name.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from itertools import chain
from math import inf

# every backend's status codes: _pure imports them, and _speed.c repeats them
UNSAT, SAT, BUDGET = 0, 1, 2

KERNEL_MAX_STEPS = 64  # block labels and cover sets live in single machine words
_NEVER = 1 << 62  # a node count no search reaches


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
    of SUALs, then each depth's `depth_tables` as (holder count,
    scopes...), (check count, (scope, r, at most?)...) and (end count,
    (SUAL, h)...); the kernel works in depth space and reads no `order`.
    `words` is the combos' masks in their canonical order, depth by depth,
    then the SUALs' super-users, W words each, lowest users first.  W is
    the fewest words that hold every one of those masks, at least one.
    """
    k, combo_masks = prob.k, prob.combo_masks
    top = max([*map(max, combo_masks), *(s.xmask for s in prob.suals)], default=0)
    width = max(1, -(-top.bit_length() // 64))
    ints = array("i", (k, width, len(combo_masks), len(prob.counts),
                       len(prob.suals)))
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


def _adapter(search, packed: bool):
    """The five-value `run_search` over a kernel's `search(prob, or its
    packed buffers, max_nodes, deadline)` -> (status, plan | None, nodes)."""

    def run_search(prob: SearchProblem, max_nodes=None, max_patterns=None,
                   deadline=None):
        """(status, plan | None, patterns, nodes, matchings) of `prob`, with
        `plan[s]` the user of step s, `deadline` a time.perf_counter()
        value and None no budget.  The search stops at its first full
        pattern, so both counters are 1 on SAT and 0 otherwise, and
        `max_patterns`, kept until the benchmark stops passing it (ROADMAP
        item 1a), must be None."""
        if max_patterns is not None:
            raise ValueError("the backtracker stops at its first full "
                             "pattern, so max_patterns cannot bound it")
        max_nodes = _NEVER if max_nodes is None else max(-1, min(max_nodes, _NEVER))
        args = pack(prob) if packed else (prob,)
        status, plan, nodes = search(
            *args, max_nodes, inf if deadline is None else deadline)
        if plan is not None:
            users, plan = plan, [0] * prob.k
            for step, user in zip(prob.order, users):
                plan[step] = user
        found = int(status == SAT)
        return status, plan, found, nodes, found

    return run_search


try:
    from ._speed import search as _speed_search  # type: ignore[import]
    run_search, BACKEND = _adapter(_speed_search, True), "compiled"
except ImportError:
    from ._pure import run_search as _pure_search
    run_search, BACKEND = _adapter(_pure_search, False), "pure"


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
        from ._pure import run_search as search
        return _adapter(search, False)
    if name == "compiled":
        from ._speed import search  # raises ImportError when not built
        return _adapter(search, True)
    raise ValueError(f"unknown kernel backend {name!r}")
