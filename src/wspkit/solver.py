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
from math import inf, prod
from typing import Callable, Optional, Sequence

from . import _kernel
from ._kernel import CountSpec, SearchProblem, SualSpec
from .absorption import AbsorbedInstance, absorb
from .core import (
    BoD,
    CapacityError,
    Instance,
    InvariantError,
    SoD,
    WspError,
    is_eligible,
    is_ui,
    is_valid,
)
from .matching import authorised_plan_for
from .patterns import enumerate_patterns


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
    """Resource limits; None means unlimited.  Which solver honours which
    limit is `SOLVER_LIMITS`."""

    max_millis: Optional[float] = None
    max_patterns: Optional[int] = None
    max_nodes: Optional[int] = None

    def __post_init__(self) -> None:
        # a NaN deadline is never passed, so it would leave a solve
        # unbounded; a negative count would report BUDGET before any work
        for name, types in (("max_millis", (int, float)),
                            ("max_patterns", int), ("max_nodes", int)):
            value = getattr(self, name)
            if value is not None and (
                    isinstance(value, bool) or not isinstance(value, types)
                    or not 0 <= value < inf):
                kind = "an int" if types is int else "a finite number"
                raise InvariantError(
                    f"budget: {name} must be {kind} >= 0, got {value!r}")

    def deadline(self, t0: float) -> Optional[float]:
        if self.max_millis is None:
            return None
        return t0 + self.max_millis / 1000.0


# Each solver by its command-line name: the budget fields it honours, and
# why it refuses every other field rather than ignoring it.
SOLVER_LIMITS = {
    "backtrack": (("max_nodes", "max_millis"),
                  "the backtracker stops at its first full pattern"),
    "pattern-enum": (("max_patterns", "max_millis"),
                     "pattern enumeration expands no nodes"),
    "bruteforce": ((), "bruteforce runs to completion"),
}


def check_budget(algorithm: str, budget: Optional[Budget],
                 name: Callable[[str], str] = str) -> None:
    """Raise InvariantError when `budget` sets a field that `algorithm`
    cannot honour.  `name` words a field for the message."""
    if budget is None:
        return
    honoured, reason = SOLVER_LIMITS[algorithm]
    for limit, value in vars(budget).items():
        if value is not None and limit not in honoured:
            advice = " or ".join(map(name, honoured))
            raise InvariantError(
                f"{reason}, so {name(limit)} cannot bound it"
                + (f"; bound it with {advice}" if honoured else ""))


def verify(plan: Sequence[int], inst: Instance) -> bool:
    """Ground-truth check of a single plan."""
    return is_valid(plan, inst)


def _guard(plan: Sequence[int], inst: Instance) -> tuple[int, ...]:
    plan = tuple(plan)
    if not is_valid(plan, inst):
        raise WspError("internal: solver produced a plan that fails verification")
    return plan


def _finish(inst: Instance, t0: float, stats: SolveStats, verdict: Verdict,
            plan: Optional[Sequence[int]] = None) -> SolveResult:
    """Every solver's exit: time the solve from `t0`, check the plan
    against `inst` and build the result."""
    stats.wall_time = time.perf_counter() - t0
    return SolveResult(verdict, None if plan is None else _guard(plan, inst),
                       stats)


# --- pattern enumeration ---------------------------------------------------


def solve_pattern_enum(inst: Instance, budget: Optional[Budget] = None) -> SolveResult:
    """Iterate all patterns in lexicographic RGS order; for each, check the
    residual user-independent constraints against the pattern, then try one
    saturating matching per member of the absorbed family.  UNSAT only after
    every pattern is exhausted.  It expands no search nodes, so a budget
    with `max_nodes` is rejected rather than ignored."""
    t0 = time.perf_counter()
    check_budget("pattern-enum", budget)
    budget = budget or Budget()
    deadline = budget.deadline(t0)
    stats = SolveStats()
    absorbed = absorb(inst)
    residual = absorbed.residual
    for p in enumerate_patterns(inst.k):
        if (budget.max_patterns is not None
                and stats.patterns_visited >= budget.max_patterns) or (
                deadline is not None and time.perf_counter() > deadline):
            return _finish(inst, t0, stats, Verdict.BUDGET)
        stats.patterns_visited += 1
        # the residual is UI, so the RGS, a plan with pattern p, checks it
        if not all(map(is_eligible, itertools.repeat(p.rgs), residual)):
            continue
        for row in absorbed.family_for(p):
            stats.matchings_computed += 1
            plan = authorised_plan_for(p, row)
            if plan is not None:
                return _finish(inst, t0, stats, Verdict.SAT, plan)
    return _finish(inst, t0, stats, Verdict.UNSAT)


# --- backtracking over pattern prefixes -------------------------------------


def visit_order(inst: Instance) -> tuple[int, ...]:
    """The kernels' static step order, fail-first on the non-UI constraints.

    Maximum cardinality order (Tarjan & Yannakakis, SIAM J. Comput. 13(3),
    1984): each next step is the one that shares the most constraints with
    the steps already taken, counting a constraint once per taken member,
    ties by higher constraint degree, then by lower index.  The steps of
    WL, ADA and SUAL constraints come first, ordered by that rule over
    those constraints alone.  So the first is the one of highest degree,
    and once a step of an ADA pair or a SUAL scope is taken the rest of
    that scope is preferred: the kernel drops a dead alternative, or
    narrows a SUAL at its scope's last depth, soon after the scope opens.
    The walk then goes on through the other steps by the same rule, now
    counting every constraint, so each next step is one the SoD, BoD and
    count constraints tie most closely to the steps already placed.  An
    instance whose constraints are all UI keeps ascending degree, ties by
    index.
    """
    k = inst.k
    # step -> the scopes of the UI and of the non-UI constraints on it;
    # every kind's steps are distinct, so each counts once
    ui: list[list[tuple[int, ...]]] = [[] for _ in range(k)]
    held: list[list[tuple[int, ...]]] = [[] for _ in range(k)]
    for c in inst.constraints:
        steps = c.steps
        into = ui if is_ui(c) else held
        for s in steps:
            into[s].append(steps)
    degree = list(map(operator.add, map(len, ui), map(len, held)))
    block = [s for s in range(k) if held[s]]
    if not block:
        # stable: ties by index
        return tuple(sorted(range(k), key=degree.__getitem__))
    shared = [0] * k
    order: list[int] = []
    _take_by_shared(block, held, shared, degree, order)
    # a step outside the block is under no non-UI constraint, so it starts
    # from the block's members in its UI scopes
    rest = [s for s in range(k) if not held[s]]
    if rest:
        placed = list(map(bool, held))
        for t in rest:
            shared[t] = sum(map(placed.__getitem__,
                                itertools.chain.from_iterable(ui[t])))
        _take_by_shared(rest, ui, shared, degree, order)
    return tuple(order)


def _take_by_shared(left: list[int], scopes: list[list[tuple[int, ...]]],
                    shared: list[int], degree: list[int],
                    order: list[int]) -> None:
    """Append `left` to `order` in maximum cardinality order: each time the
    step of highest `shared` count, ties by higher degree, then lower index,
    after which each of its `scopes` counts once more for every member."""
    # by descending degree, ties by index (the sort is stable), so that max,
    # which returns the first of equal items, breaks ties on `shared` by
    # degree, then index
    left.sort(key=degree.__getitem__, reverse=True)
    while True:
        s = max(left, key=shared.__getitem__)
        order.append(s)
        left.remove(s)
        if len(left) <= 1:
            # the last step needs no count
            order.extend(left)
            return
        for steps in scopes[s]:
            for t in steps:
                shared[t] += 1


def compile_search_problem(absorbed: AbsorbedInstance) -> SearchProblem:
    """Reindex an absorbed instance into visit-depth space for the kernel.

    An empty static family compiles to a problem with no combos
    (`combo_masks=()`) in step order and with no constraints, which both
    kernels answer UNSAT at once.
    Step visit order is static, `visit_order(inst)`: the steps of WL, ADA
    and SUAL constraints first, in maximum cardinality order over those
    constraints, then the rest by the same order over every constraint;
    an instance whose constraints are all UI keeps ascending constraint
    degree, ties by index.  Both kernels read it through
    `SearchProblem.order`.  Each residual BoD becomes the count it is, at
    most one user over its two depths, so the kernels have no BoD path.
    """
    inst = absorbed.instance
    k = inst.k
    if k > _kernel.KERNEL_MAX_STEPS:
        raise CapacityError(
            f"search kernel handles at most {_kernel.KERNEL_MAX_STEPS} steps, got {k}")
    if not absorbed.static_rows:
        # no alternative is left to search, so no order is worth working out
        return SearchProblem(k, tuple(range(k)), (), ((),) * k)

    order = visit_order(inst)
    pos = [0] * k
    for d, s in enumerate(order):
        pos[s] = d

    if k == 1:
        combo_masks = tuple((row[0],) for row in absorbed.static_rows)
    else:
        combo_masks = tuple(map(operator.itemgetter(*order), absorbed.static_rows))

    sod_prev: list[list[int]] = [[] for _ in range(k)]
    counts: list[CountSpec] = []
    for c in absorbed.residual:
        if isinstance(c, SoD):
            d1, d2 = pos[c.s1], pos[c.s2]
            if d1 > d2:
                d1, d2 = d2, d1
            sod_prev[d2].append(d1)
        else:  # AtMost, AtLeast, or BoD, at most one user over its steps
            at_most, r = (True, 1) if isinstance(c, BoD) else (c.at_most, c.r)
            counts.append(CountSpec(at_most, r,
                                    tuple(sorted(map(pos.__getitem__, c.steps)))))
    suals = tuple(
        SualSpec(tuple(sorted(map(pos.__getitem__, c.scope))), c.h, c.supers)
        for c in absorbed.suals)

    return SearchProblem(
        k=k,
        order=order,
        combo_masks=combo_masks,
        sod_prev=sod_prev,
        counts=tuple(counts),
        suals=suals,
    )


# The kernel's status codes as verdicts, one for each.
_KERNEL_VERDICT = {_kernel.SAT: Verdict.SAT, _kernel.UNSAT: Verdict.UNSAT,
                   _kernel.BUDGET: Verdict.BUDGET}


def solve_backtracking(
    inst: Instance,
    budget: Optional[Budget] = None,
    backend: str = "auto",
    max_family_size: int = 4096,
) -> SolveResult:
    """Depth-first search over pattern prefixes with structural pruning and
    incrementally-maintained block/user matchings, one per class of
    authorisation alternatives that agree on the masks visited so far.

    The search is serial and deterministic: the same instance and node
    budget give the same verdict, plan and counters on every run.  It stops
    at the first full pattern that survives pruning, so a budget with
    `max_patterns` would bound no work and is rejected.
    `backend` selects the kernel ("auto", "compiled", "pure").
    """
    t0 = time.perf_counter()
    check_budget("backtrack", budget)
    budget = budget or Budget()
    stats = SolveStats()
    absorbed = absorb(inst, max_family_size=max_family_size)
    run = _kernel.backend_run_search(backend)
    status, plan, patterns, nodes, matchings = run(
        compile_search_problem(absorbed),
        max_nodes=budget.max_nodes,
        deadline=budget.deadline(t0),
    )
    stats.patterns_visited = patterns
    stats.nodes_expanded = nodes
    stats.matchings_computed = matchings
    # the kernels return a plan on SAT only
    return _finish(inst, t0, stats, _KERNEL_VERDICT[status], plan)


# --- exhaustive ground truth -------------------------------------------------


def _check_cap(inst: Instance, cap: int) -> list[tuple[int, ...]]:
    lists = [inst.auth.users(s) for s in range(inst.k)]
    work = prod(len(us) for us in lists)
    if work > cap:
        raise CapacityError(
            f"brute force would enumerate {work} authorised plans, above cap={cap}; "
            f"the full plan space is n^k = {inst.n}^{inst.k}")
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
            return _finish(inst, t0, stats, Verdict.SAT, plan)
    return _finish(inst, t0, stats, Verdict.UNSAT)
