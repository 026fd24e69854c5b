"""Decision procedures: pattern enumeration, backtracking search, brute force.

All three return a SolveResult whose verdict is SAT, UNSAT, or BUDGET (the
search gave up on a resource limit before reaching an answer; never to be
confused with UNSAT).  Any plan returned is re-checked against the original
instance semantics before the result leaves this module.
"""

from __future__ import annotations

import itertools
import operator
import time
from dataclasses import dataclass, field
from enum import Enum
from math import prod
from typing import Optional, Sequence

from . import _kernel
from ._kernel import CountSpec, SearchProblem, SualSpec
from .absorption import AbsorbedInstance, absorb
from .core import (
    AtLeast,
    AtMost,
    BoD,
    CapacityError,
    Instance,
    InvariantError,
    SoD,
    WspError,
    bits_of,
    is_eligible,
    is_valid,
)
from .matching import authorised_plan_for
from .patterns import enumerate_patterns, pattern_satisfies


class Verdict(Enum):
    SAT = "sat"
    UNSAT = "unsat"
    BUDGET = "budget"


@dataclass
class SolveStats:
    """Work counters.

    patterns_visited: complete patterns examined.  matchings_computed:
    complete block-saturation checks.  Pattern enumeration counts every
    pattern it iterates and one check per family member it tries.  The
    backtracker stops at the first full pattern that survives pruning, so
    both counters are 1 on SAT and 0 otherwise; its incremental matching
    repairs are accounted under nodes_expanded.
    """

    patterns_visited: int = 0
    matchings_computed: int = 0
    nodes_expanded: int = 0
    wall_time: float = 0.0


@dataclass(frozen=True)
class SolveResult:
    verdict: Verdict
    plan: Optional[tuple[int, ...]]
    stats: SolveStats = field(default_factory=SolveStats)

    @property
    def sat(self) -> bool:
        return self.verdict is Verdict.SAT


@dataclass(frozen=True)
class Budget:
    """Resource limits; None means unlimited.  `max_nodes` bounds the
    backtracker only: pattern enumeration expands no nodes and rejects it.
    `max_patterns` bounds pattern enumeration only: the backtracker stops at
    its first full pattern and rejects it."""

    max_millis: Optional[float] = None
    max_patterns: Optional[int] = None
    max_nodes: Optional[int] = None

    def deadline(self, t0: float) -> Optional[float]:
        if self.max_millis is None:
            return None
        return t0 + self.max_millis / 1000.0


def verify(plan: Sequence[int], inst: Instance) -> bool:
    """Ground-truth check of a single plan."""
    return is_valid(plan, inst)


def _guard(plan: Sequence[int], inst: Instance) -> tuple[int, ...]:
    plan = tuple(plan)
    if not is_valid(plan, inst):
        raise WspError("internal: solver produced a plan that fails verification")
    return plan


# --- pattern enumeration ---------------------------------------------------


def solve_pattern_enum(inst: Instance, budget: Optional[Budget] = None) -> SolveResult:
    """Iterate all patterns in lexicographic RGS order; for each, check the
    residual user-independent constraints against the pattern, then try one
    saturating matching per member of the absorbed family.  UNSAT only after
    every pattern is exhausted.  It expands no search nodes, so a budget
    with `max_nodes` is rejected rather than ignored."""
    t0 = time.perf_counter()
    budget = budget or Budget()
    if budget.max_nodes is not None:
        raise InvariantError(
            "pattern enumeration expands no nodes, so max_nodes cannot bound it; "
            "bound it with max_patterns or max_millis")
    deadline = budget.deadline(t0)
    stats = SolveStats()
    absorbed = absorb(inst)
    residual = absorbed.residual
    for p in enumerate_patterns(inst.k):
        if budget.max_patterns is not None and stats.patterns_visited >= budget.max_patterns:
            stats.wall_time = time.perf_counter() - t0
            return SolveResult(Verdict.BUDGET, None, stats)
        if deadline is not None and time.perf_counter() > deadline:
            stats.wall_time = time.perf_counter() - t0
            return SolveResult(Verdict.BUDGET, None, stats)
        stats.patterns_visited += 1
        if not all(pattern_satisfies(p, c) for c in residual):
            continue
        for row in absorbed.family_for(p):
            stats.matchings_computed += 1
            plan = authorised_plan_for(p, row)
            if plan is not None:
                stats.wall_time = time.perf_counter() - t0
                return SolveResult(Verdict.SAT, _guard(plan, inst), stats)
    stats.wall_time = time.perf_counter() - t0
    return SolveResult(Verdict.UNSAT, None, stats)


# --- backtracking over pattern prefixes -------------------------------------


def compile_search_problem(absorbed: AbsorbedInstance) -> Optional[SearchProblem]:
    """Reindex an absorbed instance into visit-depth space for the kernel.

    Returns None when the static family is already empty (trivially UNSAT).
    Step visit order is static: ascending constraint degree, ties by index.
    """
    inst = absorbed.instance
    k, n = inst.k, inst.n
    if k > _kernel.KERNEL_MAX_STEPS:
        raise CapacityError(
            f"search kernel handles at most {_kernel.KERNEL_MAX_STEPS} steps, got {k}")
    if not absorbed.static_rows:
        return None

    degree = [0] * k
    for c in inst.constraints:
        for s in set(c.steps):
            degree[s] += 1
    order = tuple(sorted(range(k), key=lambda s: (degree[s], s)))
    pos = {s: d for d, s in enumerate(order)}

    if k == 1:
        combo_masks = tuple((row[0],) for row in absorbed.static_rows)
    else:
        combo_masks = tuple(map(operator.itemgetter(*order), absorbed.static_rows))

    sod_prev: list[list[int]] = [[] for _ in range(k)]
    bod_prev: list[list[int]] = [[] for _ in range(k)]
    counts: list[CountSpec] = []
    for c in absorbed.residual:
        if isinstance(c, SoD):
            d1, d2 = sorted((pos[c.s1], pos[c.s2]))
            sod_prev[d2].append(d1)
        elif isinstance(c, BoD):
            d1, d2 = sorted((pos[c.s1], pos[c.s2]))
            bod_prev[d2].append(d1)
        elif isinstance(c, AtMost):
            counts.append(CountSpec(True, c.r, tuple(sorted(pos[s] for s in c.scope))))
        elif isinstance(c, AtLeast):
            counts.append(CountSpec(False, c.r, tuple(sorted(pos[s] for s in c.scope))))
    suals = tuple(
        SualSpec(tuple(sorted(pos[s] for s in c.scope)), c.h, c.supers)
        for c in absorbed.suals)

    return SearchProblem(
        k=k,
        n=n,
        order=order,
        combo_masks=combo_masks,
        sod_prev=tuple(tuple(sorted(x)) for x in sod_prev),
        bod_prev=tuple(tuple(sorted(x)) for x in bod_prev),
        counts=tuple(counts),
        suals=suals,
    )


def solve_backtracking(
    inst: Instance,
    budget: Optional[Budget] = None,
    backend: str = "auto",
    max_family_size: int = 4096,
) -> SolveResult:
    """Depth-first search over pattern prefixes with structural pruning and
    incrementally-maintained block/user matchings: the compiled kernel keeps
    one per authorisation alternative, the pure one one per class of
    alternatives that agree on the masks visited so far.

    The search is serial and deterministic: the same instance and node
    budget give the same verdict, plan and counters on every run.  It stops
    at the first full pattern that survives pruning, so a budget with
    `max_patterns` would bound no work and is rejected.
    `backend` selects the kernel ("auto", "compiled", "pure").
    """
    t0 = time.perf_counter()
    budget = budget or Budget()
    if budget.max_patterns is not None:
        raise InvariantError(
            "the backtracker stops at its first full pattern, so max_patterns "
            "cannot bound it; bound it with max_nodes or max_millis")
    stats = SolveStats()
    absorbed = absorb(inst, max_family_size=max_family_size)
    prob = compile_search_problem(absorbed)
    if prob is None:
        stats.wall_time = time.perf_counter() - t0
        return SolveResult(Verdict.UNSAT, None, stats)

    run = _kernel.backend_run_search(backend)
    status, plan, patterns, nodes, matchings = run(
        prob,
        max_nodes=budget.max_nodes,
        deadline=budget.deadline(t0),
    )
    stats.patterns_visited = patterns
    stats.nodes_expanded = nodes
    stats.matchings_computed = matchings
    stats.wall_time = time.perf_counter() - t0
    if status == _kernel.SAT:
        return SolveResult(Verdict.SAT, _guard(plan, inst), stats)
    if status == _kernel.BUDGET:
        return SolveResult(Verdict.BUDGET, None, stats)
    return SolveResult(Verdict.UNSAT, None, stats)


# --- exhaustive ground truth -------------------------------------------------


def _auth_lists(inst: Instance) -> list[tuple[int, ...]]:
    return [bits_of(inst.auth.mask(s)) for s in range(inst.k)]


def _check_cap(inst: Instance, cap: int) -> list[tuple[int, ...]]:
    lists = _auth_lists(inst)
    work = prod(len(us) for us in lists)
    if work > cap:
        raise CapacityError(
            f"brute force would enumerate {work} authorised plans, above cap={cap}; "
            f"the full plan space is n^k = {inst.n ** inst.k}")
    return lists

def solve_bruteforce(inst: Instance, cap: int = 10_000_000) -> SolveResult:
    """Exhaustive scan in lexicographic plan order; the ground-truth oracle
    for the other solvers at small sizes."""
    t0 = time.perf_counter()
    stats = SolveStats()
    lists = _check_cap(inst, cap)
    constraints = inst.constraints
    for plan in itertools.product(*lists):
        stats.nodes_expanded += 1
        if all(is_eligible(plan, c) for c in constraints):
            stats.wall_time = time.perf_counter() - t0
            return SolveResult(Verdict.SAT, _guard(plan, inst), stats)
    stats.wall_time = time.perf_counter() - t0
    return SolveResult(Verdict.UNSAT, None, stats)
