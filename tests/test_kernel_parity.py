"""The compiled and pure kernels must agree call for call.

The two backends return the same status, plan and counters on every call,
although the pure one shares state between the authorisation alternatives
of a prefix class and skips blocks the user-independent constraints rule
out, while the compiled one repairs every alternative and checks every
block.  Parity is asserted on the full result tuple: status, plan, and all
three counters.  Any divergence, even in node counts, means the two stopped
searching the same tree.

`conftest.py` builds the compiled kernel for the session when the package
has none, so these tests are skipped only when no C compiler or Python
headers are available.
"""

import random

import pytest

from conftest import (
    COMPILED_MISSING,
    CONSTRAINT_KINDS,
    random_instance,
    valid_plans_longhand,
)
from wspkit import _kernel
from wspkit._kernel import (
    CountSpec,
    SearchProblem,
    SualSpec,
    available_backends,
    backend_run_search,
)
from wspkit.absorption import absorb
from wspkit.generator import GenSpec, derive_seed, generate
from wspkit.solver import Verdict, solve_backtracking

needs_compiled = pytest.mark.skipif(COMPILED_MISSING is not None,
                                    reason="compiled kernel not built")

ALL_MIXES = CONSTRAINT_KINDS + ("mixed",)

# The generator shapes of the benchmark's `alternatives` and `export`
# workloads: up to hundreds of WL/ADA alternatives per draw, and n > 64, so
# every user mask spans two machine words.
BENCH_SHAPES = {
    "alternatives": dict(k=8, n=80, am3=8, sod=10, ada=8, wl=2),
    "export": dict(k=10, n=80, am3=10, sod=7, sual=1, wl=2, ada=2),
}


def compile_problem(inst):
    from wspkit.solver import compile_search_problem
    return compile_search_problem(absorb(inst))


def run_both(prob, **kw):
    pure = backend_run_search("pure")(prob, **kw)
    comp = backend_run_search("compiled")(prob, **kw)
    return pure, comp


@needs_compiled
@pytest.mark.parametrize("kind", ALL_MIXES)
@pytest.mark.parametrize("seed", range(10))
def test_unlimited_run_parity(kind, seed):
    inst = random_instance(kind, seed, k_max=5, n_max=7)
    prob = compile_problem(inst)
    if prob is None:
        return
    pure, comp = run_both(prob)
    assert pure == comp, (kind, seed)


@needs_compiled
@pytest.mark.parametrize("kind", ALL_MIXES)
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("cap", [1, 3, 17])
def test_node_budget_parity(kind, seed, cap):
    inst = random_instance(kind, seed, k_max=5, n_max=7)
    prob = compile_problem(inst)
    if prob is None:
        return
    pure, comp = run_both(prob, max_nodes=cap)
    assert pure == comp, (kind, seed, cap)


@needs_compiled
@pytest.mark.parametrize("seed", range(4))
def test_pattern_budget_parity(seed):
    inst = random_instance("mixed", seed, k_max=5, n_max=7)
    prob = compile_problem(inst)
    if prob is None:
        return
    for cap in (0, 1, 2):
        pure, comp = run_both(prob, max_patterns=cap)
        assert pure == comp, (seed, cap)


@needs_compiled
def test_degenerate_problem_parity():
    dead = SearchProblem(
        k=2, n=2, order=(0, 1), combo_masks=(),
        sod_prev=((), ()), bod_prev=((), ()))
    pure, comp = run_both(dead)
    assert pure == comp == (_kernel.UNSAT, None, 0, 0, 0)


@needs_compiled
@pytest.mark.parametrize("kind", ALL_MIXES)
@pytest.mark.parametrize("seed", range(5))
def test_backend_verdicts_match_ground_truth(kind, seed):
    inst = random_instance(kind, seed, k_max=4, n_max=6)
    truth = valid_plans_longhand(inst)
    for backend in ("pure", "compiled"):
        res = solve_backtracking(inst, backend=backend)
        if truth:
            assert res.verdict is Verdict.SAT, (kind, seed, backend)
            assert res.plan in truth, (kind, seed, backend)
        else:
            assert res.verdict is Verdict.UNSAT, (kind, seed, backend)


@needs_compiled
def test_backends_return_the_same_plan(po_instance):
    a = solve_backtracking(po_instance, backend="pure")
    b = solve_backtracking(po_instance, backend="compiled")
    assert a.plan == b.plan
    assert (a.stats.patterns_visited, a.stats.nodes_expanded,
            a.stats.matchings_computed) == \
           (b.stats.patterns_visited, b.stats.nodes_expanded,
            b.stats.matchings_computed)


def assert_draw_parity(spec):
    """Parity on one generated draw, unlimited and under a node budget that
    stops the search halfway through its tree."""
    prob = compile_problem(generate(spec))
    if prob is None:
        return
    pure, comp = run_both(prob)
    assert pure == comp, spec
    capped, comp = run_both(prob, max_nodes=pure[3] // 2)
    assert capped == comp, spec


@needs_compiled
@pytest.mark.parametrize("shape", sorted(BENCH_SHAPES))
@pytest.mark.parametrize("seed", range(10))
def test_benchmark_shaped_draw_parity(shape, seed):
    assert_draw_parity(GenSpec(seed=derive_seed(seed), **BENCH_SHAPES[shape]))


# --- hand-built problems: shapes of prefix classes that absorb rarely yields --


def hand_problem(combos, n, sod=(), bod=(), counts=(), suals=()):
    """A SearchProblem in visit order; `sod`/`bod` are (earlier depth, later
    depth) pairs."""
    k = len(combos[0])
    sod_prev = [[] for _ in range(k)]
    bod_prev = [[] for _ in range(k)]
    for prev, pairs in ((sod_prev, sod), (bod_prev, bod)):
        for d1, d2 in pairs:
            prev[d2].append(d1)
    return SearchProblem(
        k=k, n=n, order=tuple(range(k)), combo_masks=tuple(combos),
        sod_prev=tuple(map(tuple, sod_prev)),
        bod_prev=tuple(map(tuple, bod_prev)),
        counts=tuple(counts), suals=tuple(suals))


def assert_parity_under_every_budget(prob):
    """Parity unlimited, then at every node cap up to the full count, so a
    budget stop lands at each node of the search."""
    pure, comp = run_both(prob)
    assert pure == comp
    for cap in range(pure[3] + 1):
        capped, comp = run_both(prob, max_nodes=cap)
        assert capped == comp, cap
    return pure


@needs_compiled
def test_identical_combos_parity():
    combo = (0b0011, 0b0110, 0b1100, 0b0011)
    prob = hand_problem([combo, combo, combo], 4, sod=[(0, 1), (1, 2), (0, 3)])
    status, plan, *_ = assert_parity_under_every_budget(prob)
    assert status == _kernel.SAT


@needs_compiled
def test_combos_split_at_the_last_depth_parity():
    # SoD(0, 2) forces a new block at depth 2; combo 0 can only give it user
    # 0, which block 0 holds, so it dies and combo 1's matching is the plan
    prob = hand_problem([(0b001, 0b010, 0b001), (0b001, 0b010, 0b100)], 3,
                        sod=[(0, 2), (1, 2)])
    status, plan, *_ = assert_parity_under_every_budget(prob)
    assert (status, plan) == (_kernel.SAT, [0, 1, 2])
    # combos 0 and 2 share a class until depth 1, where combo 0 dies; the
    # plan is the least alive combo's (1), not that of the class met first
    prob = hand_problem([(0b0001, 0b0001), (0b0010, 0b1000), (0b0001, 0b0100)],
                        4, sod=[(0, 1)])
    status, plan, *_ = assert_parity_under_every_budget(prob)
    assert (status, plan) == (_kernel.SAT, [1, 3])


@needs_compiled
def test_plan_is_the_least_alive_combo_not_the_least_masks_parity():
    # combo 1 has the smaller masks, so it sorts first; the plan is still
    # combo 0's
    prob = hand_problem([(0b10,), (0b01,)], 2)
    status, plan, *_ = assert_parity_under_every_budget(prob)
    assert (status, plan) == (_kernel.SAT, [1])
    # sorted order 1, 2, 0: combos 2 and 0 share a class until depth 1,
    # where combo 2 sorts first, yet all three survive and combo 0 names
    # the plan
    prob = hand_problem([(0b100, 0b011), (0b001, 0b110), (0b100, 0b010)], 3,
                        sod=[(0, 1)])
    status, plan, *_ = assert_parity_under_every_budget(prob)
    assert (status, plan) == (_kernel.SAT, [2, 0])


@needs_compiled
def test_class_split_reused_at_a_second_node_parity():
    # Combos 0 and 1 share a class at depth 1, which is split there first
    # when step 1 joins step 0's block: only combo 1 survives, and SoD(0, 2)
    # then kills it.  The same split serves the next node, where step 1
    # opens a block and both survive; the plan is combo 0's, the least.
    prob = hand_problem([(0b011, 0b100, 0b110), (0b011, 0b001, 0b001)], 3,
                        sod=[(0, 2)])
    status, plan, _, nodes, _ = assert_parity_under_every_budget(prob)
    assert (status, plan, nodes) == (_kernel.SAT, [0, 2, 2], 5)


@needs_compiled
def test_empty_step_mask_parity():
    # a zero mask where a block opens: at depth 0, and at depth 1 where
    # SoD(0, 1) forces a new block
    combos = [(0, 0b11, 0b11), (0b11, 0, 0b11), (0b11, 0b10, 0b01)]
    prob = hand_problem(combos, 2, sod=[(0, 1)])
    status, plan, *_ = assert_parity_under_every_budget(prob)
    assert (status, plan) == (_kernel.SAT, [0, 1, 0])
    assert run_both(hand_problem(combos[:2], 2, sod=[(0, 1)])) == \
        ((_kernel.UNSAT, None, 0, 2, 0),) * 2


@needs_compiled
def test_sual_restriction_in_a_shared_class_parity():
    # Depths 0 and 1 in one block restrict it to users {2, 3}; BoD(0, 2)
    # then kills that branch for both combos, and the search must backtrack
    # to the unrestricted block of depth 0 that the class shares.
    combos = [(0b1111, 0b1111, 0b0001), (0b1111, 0b1111, 0b0010)]
    sual = SualSpec(depths=(0, 1), h=1, xmask=0b1100)
    prob = hand_problem(combos, 4, bod=[(0, 2)], suals=[sual])
    status, plan, *_ = assert_parity_under_every_budget(prob)
    assert (status, plan) == (_kernel.SAT, [0, 1, 0])


@needs_compiled
def test_prefix_rejected_by_user_independent_constraints_parity():
    combos = [(0b111, 0b111, 0b111, 0b111), (0b011, 0b110, 0b111, 0b101)]
    atleast = CountSpec(at_most=False, r=3, depths=(0, 1, 2))
    atmost = CountSpec(at_most=True, r=2, depths=(1, 2, 3))
    prob = hand_problem(combos, 3, sod=[(0, 1)], bod=[(0, 3)],
                        counts=[atleast, atmost])
    assert_parity_under_every_budget(prob)


def random_hand_problem(seed):
    """A random SearchProblem whose combos share prefixes often: each mask
    comes from a small pool per depth, and some combos are copies."""
    rng = random.Random(f"hand-{seed}")
    k, n = rng.randint(2, 6), rng.randint(2, 6)
    full = (1 << n) - 1
    pools = [[rng.randint(0, full) if rng.random() < 0.1 else rng.randint(1, full)
              for _ in range(rng.randint(1, 3))] for _ in range(k)]
    combos = [tuple(rng.choice(pool) for pool in pools)
              for _ in range(rng.randint(1, 8))]
    combos += rng.sample(combos, rng.randint(0, len(combos)))
    pairs = [tuple(sorted(rng.sample(range(k), 2))) for _ in range(rng.randint(0, 3))]
    cut = rng.randint(0, len(pairs))
    counts = [CountSpec(rng.random() < 0.5, rng.randint(1, k),
                        tuple(sorted(rng.sample(range(k), rng.randint(2, k)))))
              for _ in range(rng.randint(0, 2))]
    suals = [SualSpec(tuple(sorted(rng.sample(range(k), rng.randint(2, k)))),
                      rng.randint(1, k - 1), rng.randint(1, full))
             for _ in range(rng.randint(0, 2))]
    return hand_problem(combos, n, sod=pairs[:cut], bod=pairs[cut:],
                        counts=counts, suals=suals)


def assert_random_hand_problem_parity(seed):
    prob = random_hand_problem(seed)
    assert_parity_under_every_budget(prob)
    for cap in (0, 1, 2):
        pure, comp = run_both(prob, max_patterns=cap)
        assert pure == comp, (seed, cap)


@needs_compiled
@pytest.mark.parametrize("seed", range(40))
def test_random_hand_built_problem_parity(seed):
    assert_random_hand_problem_parity(seed)


@pytest.mark.sweep
@needs_compiled
def test_random_hand_built_problem_sweep():
    for seed in range(10_000):
        assert_random_hand_problem_parity(seed)


@pytest.mark.sweep
@needs_compiled
def test_alternatives_workload_sweep():
    # the 600 draws of perfbench's `alternatives` workload at --seed 81
    for i in range(600):
        assert_draw_parity(GenSpec(seed=derive_seed(81, 2, i),
                                   **BENCH_SHAPES["alternatives"]))


def test_backend_selection_errors():
    with pytest.raises(ValueError):
        backend_run_search("turbo")


def test_pure_backend_always_available():
    assert "pure" in available_backends()
    assert backend_run_search("pure") is not None
