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
relabelling relations `test_solver.py` checks.  Each relation also asserts
that it is not vacuous: some draw flips under the first two, and some draw
is BUDGET at the smallest budget.
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

# node budgets, ascending; the draws' trees have at most 59 nodes
BUDGETS = tuple(2 ** e for e in range(7))


@lru_cache(maxsize=None)
def draws() -> tuple:
    """20 draws of each RELABEL_DRAWS shape."""
    return tuple(generate(GenSpec(seed=derive_seed(81, 11, i), k=8, n=16,
                                  **RELABEL_DRAWS[name]))
                 for name in sorted(RELABEL_DRAWS) for i in range(20))


@pytest.mark.parametrize("backend", BACKENDS)
def test_appending_a_constraint_never_turns_unsat_into_sat(backend):
    rng = random.Random("append")
    flips = 0
    for i, inst in enumerate(draws()):
        base = solve_backtracking(inst, backend=backend)
        for _ in range(3):
            c = _random_constraint(rng, rng.choice(CONSTRAINT_KINDS), inst.k,
                                   inst.n)
            more = dataclasses.replace(inst, constraints=(*inst.constraints, c))
            res = solve_backtracking(more, backend=backend)
            if res.sat:
                assert base.sat and is_valid(res.plan, inst), (i, c)
            else:
                assert res.verdict is Verdict.UNSAT, (i, c)
                flips += base.sat
    assert flips


@pytest.mark.parametrize("backend", BACKENDS)
def test_authorising_one_more_user_never_turns_sat_into_unsat(backend):
    rng = random.Random("authorise")
    flips = 0
    for i, inst in enumerate(draws()):
        base = solve_backtracking(inst, backend=backend)
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
                backend=backend)
            if res.sat:
                flips += not base.sat
            else:
                assert res.verdict is base.verdict is Verdict.UNSAT, (i, s)
    assert flips


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_verdict_decided_under_a_node_budget_holds_under_every_larger_one(
        backend):
    def outcome(res):
        return res.verdict, res.plan, res.stats.nodes_expanded

    stopped = 0
    for i, inst in enumerate(draws()):
        full = solve_backtracking(inst, backend=backend)
        assert full.verdict is not Verdict.BUDGET, i
        decided = False
        for cap in BUDGETS:
            res = solve_backtracking(inst, Budget(max_nodes=cap), backend=backend)
            if res.verdict is Verdict.BUDGET:
                assert not decided, (i, cap)
                stopped += cap == BUDGETS[0]
            else:
                decided = True
                assert outcome(res) == outcome(full), (i, cap)
    assert stopped
