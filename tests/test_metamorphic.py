"""Metamorphic relations of the backtracking solver, on every backend.

Each relation changes a draw in a way whose effect on the verdict is known
without an oracle, and checks the solver's answers against each other:

- appending a constraint never turns UNSAT into SAT, and a plan of the
  longer instance is a plan of the shorter one;
- authorising one more user for one step never turns SAT into UNSAT;
- a verdict decided under a node budget B is the verdict, with the same
  plan and node count, under every larger budget and unbudgeted, so BUDGET
  never stands in for UNSAT.

The draws are the small mixed draws of `RELABEL_DRAWS` (k=8, n=16), whose
relabelling relations `test_solver.py` checks, solved unbudgeted, and a k16
row of draws of the hard regime's shape (k=16, n=160, am3=16, sod=35),
every solve under a node budget.  A BUDGET result there is no verdict, so
the relations assert nothing of it.  Each relation also asserts that it is
not vacuous: some draw flips under the first two, and under the third some
draw is BUDGET at the smallest budget and a draw of each row is decided
below its largest.
"""

import dataclasses
import random
from functools import lru_cache

import pytest

from conftest import CONSTRAINT_KINDS, RELABEL_DRAWS, _random_constraint
from wspkit._kernel import available_backends
from wspkit.core import AuthorisationFunction, is_valid
from wspkit.generator import GenSpec, derive_seed, generate
from wspkit.solver import Budget, Verdict, solve_backtracking

BACKENDS = available_backends()

# node budgets, ascending, each draw's last its solves' budget (None for
# none): the k=8 draws' trees have at most 59 nodes, and four of the five
# k16 draws are SAT within 3,400 nodes
BUDGETS = tuple(2 ** e for e in range(7)) + (None,)
K16_BUDGETS = tuple(2 ** e for e in range(13))


@lru_cache(maxsize=None)
def draws() -> tuple:
    """(draw, node budgets): 20 draws of each RELABEL_DRAWS shape, then
    the five draws of the k16 row."""
    return tuple((generate(GenSpec(seed=derive_seed(81, 11, i), k=8, n=16,
                                   **RELABEL_DRAWS[name])), BUDGETS)
                 for name in sorted(RELABEL_DRAWS) for i in range(20)) + \
        tuple((generate(GenSpec(seed=derive_seed(81, 12, i), k=16, n=160,
                                am3=16, sod=35)), K16_BUDGETS)
              for i in range(5))


def budget(cap):
    return None if cap is None else Budget(max_nodes=cap)


@pytest.mark.parametrize("backend", BACKENDS)
def test_appending_a_constraint_never_turns_unsat_into_sat(backend):
    rng = random.Random("append")
    flips = 0
    for i, (inst, caps) in enumerate(draws()):
        base = solve_backtracking(inst, budget(caps[-1]), backend=backend)
        for _ in range(3):
            c = _random_constraint(rng, rng.choice(CONSTRAINT_KINDS), inst.k,
                                   inst.n)
            more = dataclasses.replace(inst, constraints=(*inst.constraints, c))
            res = solve_backtracking(more, budget(caps[-1]), backend=backend)
            if res.verdict is Verdict.BUDGET:
                assert caps[-1] is not None, (i, c)
            elif res.sat:
                assert base.verdict is not Verdict.UNSAT, (i, c)
                assert is_valid(res.plan, inst), (i, c)
            else:
                flips += base.sat
    assert flips


@pytest.mark.parametrize("backend", BACKENDS)
def test_authorising_one_more_user_never_turns_sat_into_unsat(backend):
    rng = random.Random("authorise")
    flips = 0
    for i, (inst, caps) in enumerate(draws()):
        base = solve_backtracking(inst, budget(caps[-1]), backend=backend)
        masks = inst.auth.step_masks
        for _ in range(8):
            s = rng.randrange(inst.k)
            free = [u for u in range(inst.n) if not masks[s] >> u & 1]
            if not free:
                continue
            wider = list(masks)
            wider[s] |= 1 << rng.choice(free)
            res = solve_backtracking(dataclasses.replace(
                inst, auth=AuthorisationFunction(inst.n, tuple(wider))),
                budget(caps[-1]), backend=backend)
            if res.verdict is Verdict.BUDGET:
                assert caps[-1] is not None, (i, s)
            elif res.sat:
                flips += base.verdict is Verdict.UNSAT
            else:
                assert base.verdict is not Verdict.SAT, (i, s)
    assert flips


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_verdict_decided_under_a_node_budget_holds_under_every_larger_one(
        backend):
    def outcome(res):
        return res.verdict, res.plan, res.stats.nodes_expanded

    stopped, decided_at = 0, set()
    for i, (inst, caps) in enumerate(draws()):
        *smaller, largest = caps
        full = solve_backtracking(inst, budget(largest), backend=backend)
        assert full.verdict is not Verdict.BUDGET or largest is not None, i
        decided = False
        for cap in smaller:
            res = solve_backtracking(inst, Budget(max_nodes=cap), backend=backend)
            if res.verdict is Verdict.BUDGET:
                assert not decided, (i, cap)
                stopped += cap == smaller[0]
            else:
                decided = True
                assert outcome(res) == outcome(full), (i, cap)
        if decided:
            decided_at.add(inst.k)
    assert stopped and decided_at == {8, 16}
