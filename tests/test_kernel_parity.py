"""The compiled and pure kernels must agree call for call.

The two backends run one algorithm, the compiled one a C transliteration
of the pure one, and return the same status, plan and node count on every
call.  Parity is asserted on the full result tuple of `backend_run_search`,
and on the raw kernels' (status, plan, nodes) where a test reads the C
kernel directly.  Any divergence, even in node counts, means the two
stopped searching the same tree.

`conftest.py` builds the compiled kernel for the session when the package
has none, so these tests are skipped only when no C compiler or Python
headers are available.
"""

import dataclasses
import hashlib
import math
import random
import time
from array import array
from functools import lru_cache
from itertools import chain

import pytest

from conftest import (
    COMPILED_MISSING,
    CONSTRAINT_KINDS,
    random_instance,
    valid_plans_longhand,
)
from wspkit import _kernel
from wspkit._kernel import _pure
from wspkit._kernel import (
    KERNEL_MAX_STEPS,
    CountSpec,
    SearchProblem,
    SualSpec,
    available_backends,
    backend_run_search,
)
from wspkit.absorption import absorb
from wspkit.core import (
    AtLeast,
    AtMost,
    AuthorisationFunction,
    BoD,
    CapacityError,
    Instance,
    SoD,
    bits_of,
    is_valid,
)
from wspkit.generator import GenSpec, derive_seed, generate
from wspkit.solver import Verdict, solve_backtracking, solve_bruteforce

needs_compiled = pytest.mark.skipif(COMPILED_MISSING is not None,
                                    reason="compiled kernel not built")

ALL_MIXES = CONSTRAINT_KINDS + ("mixed",)

# the raw kernels' budget arguments for an unlimited search
UNLIMITED = (1 << 62, math.inf)

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
    pure, comp = run_both(prob)
    assert pure == comp, (kind, seed)


@needs_compiled
@pytest.mark.parametrize("kind", ALL_MIXES)
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("cap", [1, 3, 17])
def test_node_budget_parity(kind, seed, cap):
    inst = random_instance(kind, seed, k_max=5, n_max=7)
    prob = compile_problem(inst)
    pure, comp = run_both(prob, max_nodes=cap)
    assert pure == comp, (kind, seed, cap)


@needs_compiled
def test_expired_deadline_parity():
    # The kernels read the clock every 2048 nodes, so a deadline already
    # past stops a search of more nodes at node 2048 on both backends, and
    # one far ahead changes nothing.
    prob = compile_problem(generate(GenSpec(k=12, n=120, seed=8, am3=12,
                                            sod=26)))
    pure, comp = run_both(prob)
    assert pure == comp
    assert (pure[0], pure[3]) == (_kernel.UNSAT, 2237)
    assert run_both(prob, deadline=time.perf_counter() - 1) == \
        ((_kernel.BUDGET, None, 0, 2048, 0),) * 2
    assert run_both(prob, deadline=time.perf_counter() + 3600) == (pure, comp)


@needs_compiled
def test_degenerate_problem_parity():
    dead = SearchProblem(k=2, order=(0, 1), combo_masks=(), sod_prev=((), ()))
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


def hand_problem(combos, sod=(), bod=(), counts=(), suals=()):
    """A SearchProblem in visit order; `sod`/`bod` are (earlier depth, later
    depth) pairs.  Each BoD pair is appended to the counts as at most one
    user over its two depths, as `compile_search_problem` lowers it."""
    k = len(combos[0])
    sod_prev = [[] for _ in range(k)]
    for d1, d2 in sod:
        sod_prev[d2].append(d1)
    return SearchProblem(
        k=k, order=tuple(range(k)), combo_masks=tuple(combos),
        sod_prev=tuple(map(tuple, sod_prev)),
        counts=(*counts, *(CountSpec(True, 1, pair) for pair in bod)),
        suals=tuple(suals))


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
    prob = hand_problem([combo, combo, combo], sod=[(0, 1), (1, 2), (0, 3)])
    status, plan, *_ = assert_parity_under_every_budget(prob)
    assert status == _kernel.SAT


@needs_compiled
def test_combos_split_at_the_last_depth_parity():
    # SoD(0, 2) forces a new block at depth 2; combo 0 can only give it user
    # 0, which block 0 holds, so it dies and combo 1's matching is the plan
    prob = hand_problem([(0b001, 0b010, 0b001), (0b001, 0b010, 0b100)],
                        sod=[(0, 2), (1, 2)])
    status, plan, *_ = assert_parity_under_every_budget(prob)
    assert (status, plan) == (_kernel.SAT, [0, 1, 2])
    # the class of depth-0 mask 0b0001 splits at depth 1 into its two
    # combos, and the first dies there; the plan is the second's, the first
    # class alive at full depth, and not the later class's (0b0010, 0b1000)
    prob = hand_problem([(0b0001, 0b0001), (0b0010, 0b1000), (0b0001, 0b0100)],
                        sod=[(0, 1)])
    status, plan, *_ = assert_parity_under_every_budget(prob)
    assert (status, plan) == (_kernel.SAT, [0, 2])


@needs_compiled
def test_plan_is_the_first_alive_class_in_mask_order_parity():
    # the second combo given has the smaller masks, so it sorts first and
    # names the plan
    prob = hand_problem([(0b10,), (0b01,)])
    assert prob.combo_masks == ((0b01,), (0b10,))
    status, plan, *_ = assert_parity_under_every_budget(prob)
    assert (status, plan) == (_kernel.SAT, [0])
    # sorted order (0b001, 0b001), (0b100, 0b010), (0b100, 0b011): the first
    # dies at depth 1, where SoD(0, 1) leaves it no user, and of the two that
    # share depth-0 mask 0b100 the one sorted first names the plan, though
    # the other was given first
    prob = hand_problem([(0b100, 0b011), (0b001, 0b001), (0b100, 0b010)],
                        sod=[(0, 1)])
    status, plan, *_ = assert_parity_under_every_budget(prob)
    assert (status, plan) == (_kernel.SAT, [2, 1])


@needs_compiled
def test_class_split_reused_at_a_second_node_parity():
    # The two combos, sorted (0b011, 0b001, 0b001) then (0b011, 0b100,
    # 0b110), share a class at depth 1, which is split there first when
    # step 1 joins step 0's block: only the first survives, and SoD(0, 2)
    # then kills it.  The same split serves the next node, where step 1
    # opens a block and both survive; the plan is the first's, which moves
    # block 0 to user 1 to give block 1 user 0.
    prob = hand_problem([(0b011, 0b100, 0b110), (0b011, 0b001, 0b001)],
                        sod=[(0, 2)])
    status, plan, _, nodes, _ = assert_parity_under_every_budget(prob)
    assert (status, plan, nodes) == (_kernel.SAT, [1, 0, 0], 5)


@needs_compiled
def test_empty_step_mask_parity():
    # a zero mask where a block opens: at depth 0, and at depth 1 where
    # SoD(0, 1) forces a new block
    combos = [(0, 0b11, 0b11), (0b11, 0, 0b11), (0b11, 0b10, 0b01)]
    prob = hand_problem(combos, sod=[(0, 1)])
    status, plan, *_ = assert_parity_under_every_budget(prob)
    assert (status, plan) == (_kernel.SAT, [0, 1, 0])
    assert run_both(hand_problem(combos[:2], sod=[(0, 1)])) == \
        ((_kernel.UNSAT, None, 0, 2, 0),) * 2


@needs_compiled
def test_sual_restriction_in_a_shared_class_parity():
    # Depths 0 and 1 in one block restrict it to users {2, 3}; BoD(0, 2)
    # then kills that branch for both combos, and the search must backtrack
    # to the unrestricted block of depth 0 that the class shares.
    combos = [(0b1111, 0b1111, 0b0001), (0b1111, 0b1111, 0b0010)]
    sual = SualSpec(depths=(0, 1), h=1, xmask=0b1100)
    prob = hand_problem(combos, bod=[(0, 2)], suals=[sual])
    status, plan, *_ = assert_parity_under_every_budget(prob)
    assert (status, plan) == (_kernel.SAT, [0, 1, 0])


def pure_result_with_parity(prob):
    """The pure kernel's result on `prob`, and parity under every budget
    as well when the compiled kernel is built."""
    if COMPILED_MISSING is None:
        return assert_parity_under_every_budget(prob)
    return backend_run_search("pure")(prob)


# SUAL over depths 1 and 3 of five, users {0..3} everywhere, super-user 3:
# the scope ends at depth 3, which is neither the last depth nor next to
# depth 1.  With BoD(1, 3) both share one block, which the SUAL narrows to
# user 3 after depth 3 is placed; with SoD(1, 3) they cover two blocks,
# more than h = 1, and nothing is narrowed.
SUAL_GAP = SualSpec(depths=(1, 3), h=1, xmask=0b1000)
SUAL_GAP_CASES = {
    "restricts": (dict(sod=[(0, 1), (3, 4)], bod=[(1, 3)]),
                  (_kernel.SAT, [1, 3, 1, 3, 1], 1, 5, 1)),
    "apart": (dict(sod=[(0, 1), (1, 3), (3, 4)]),
              (_kernel.SAT, [1, 0, 1, 1, 0], 1, 5, 1)),
}


@pytest.mark.parametrize("name", sorted(SUAL_GAP_CASES))
def test_sual_ending_at_a_middle_depth(name):
    pairs, expected = SUAL_GAP_CASES[name]
    prob = hand_problem([(0b1111,) * 5], suals=[SUAL_GAP], **pairs)
    assert pure_result_with_parity(prob) == expected


@needs_compiled
def test_prefix_rejected_by_user_independent_constraints_parity():
    combos = [(0b111, 0b111, 0b111, 0b111), (0b011, 0b110, 0b111, 0b101)]
    atleast = CountSpec(at_most=False, r=3, depths=(0, 1, 2))
    atmost = CountSpec(at_most=True, r=2, depths=(1, 2, 3))
    prob = hand_problem(combos, sod=[(0, 1)], bod=[(0, 3)],
                        counts=[atleast, atmost])
    assert_parity_under_every_budget(prob)


def as_instance(prob):
    """The one-combo hand problem `prob` as an Instance, depth d its step
    `prob.order[d]`, for `solve_bruteforce` to give the ground truth."""
    (combo,) = prob.combo_masks
    order = prob.order
    n = max(1, max(combo).bit_length())
    masks = [0] * prob.k
    for d, mask in enumerate(combo):
        masks[order[d]] = mask
    auth = AuthorisationFunction.from_lists([bits_of(mask) for mask in masks], n)
    constraints = [SoD(order[e], order[d])
                   for d in range(prob.k) for e in prob.sod_prev[d]]
    constraints += [(AtMost if c.at_most else AtLeast)(
        c.r, tuple(order[d] for d in c.depths)) for c in prob.counts]
    return Instance(prob.k, n, auth, tuple(constraints))


def assert_matches_ground_truth(prob):
    """Parity under every budget, and the verdict and plan of
    `solve_bruteforce` on the same problem as an Instance; returns the
    result tuple."""
    result = assert_parity_under_every_budget(prob)
    inst = as_instance(prob)
    truth = solve_bruteforce(inst)
    if truth.verdict is Verdict.SAT:
        assert result[0] == _kernel.SAT
        assert is_valid(result[1], inst)
    else:
        assert result[0] == _kernel.UNSAT
    return result


def count_bound_problem(at_most, position):
    """k=5, n=4, every user authorised, and a count bound r=3 whose scope
    position `position` is the node under test.

    At-most: the scope is every depth, and SoD pairs put depths 0..2 in three
    blocks.  The tested depth, when it is 3 or 4, also has an SoD with each
    of them, so only the at-most bound stops it from opening a fourth block.
    At-least: the scope is every depth, and BoD pairs put depths 0..position
    in block 0, so that position sees one covered block and has
    4 - position scope depths after it."""
    r, k = 3, 5
    sod, bod = [], []
    if at_most:
        sod = [(0, 1), (0, 2), (1, 2)]
        if position >= r:
            sod += [(e, position) for e in range(r)]
    else:
        bod = [(0, d) for d in range(1, position + 1)]
    count = CountSpec(at_most=at_most, r=r, depths=tuple(range(k)))
    return hand_problem([(0b1111,) * k], sod=sod, bod=bod, counts=[count])


# position -> verdict.  At-most r=3 can bite from scope position r on, so
# position 2 (r-1) is never checked and the search finds a plan, while at
# positions 3 and 4 the bound leaves the tested depth no block.  At-least
# r=3 can bite while fewer than r-1 scope depths remain after a position:
# at position 3 (remaining+1 = 2 = r-1) it forbids block 0, which BoD
# demands; at positions 2 and 1 (remaining+1 = r, r+1) it is never checked.
COUNT_BOUND_CASES = {
    (True, 2): _kernel.SAT,
    (True, 3): _kernel.UNSAT,
    (True, 4): _kernel.UNSAT,
    (False, 1): _kernel.SAT,
    (False, 2): _kernel.SAT,
    (False, 3): _kernel.UNSAT,
}


@needs_compiled
@pytest.mark.parametrize("at_most, position", sorted(COUNT_BOUND_CASES))
def test_count_bound_at_its_first_and_last_biting_position_parity(
        at_most, position):
    status, *_ = assert_matches_ground_truth(
        count_bound_problem(at_most, position))
    assert status == COUNT_BOUND_CASES[at_most, position]


# --- a node whose next depth has no admissible block ---------------------------

# SoD(0, 2) and at most one user over depths 1 and 2: once depth 1 joins
# block 0, depth 2 may join no open block and open no new one.  The node
# that places depth 1 in block 0 is counted and has no children; the search
# then puts depths 1 and 2 in block 1.
NO_NEXT_BLOCK = dict(sod=[(0, 2)],
                     counts=[CountSpec(at_most=True, r=1, depths=(1, 2))])


@needs_compiled
def test_no_admissible_next_block_with_a_live_matching_parity():
    # both users may take every step, so block 0 keeps its matching; in
    # the plan, block 1 takes user 0 and moves block 0 to user 1
    prob = hand_problem([(0b11, 0b11, 0b11)], **NO_NEXT_BLOCK)
    assert assert_matches_ground_truth(prob) == \
        (_kernel.SAT, [1, 0, 0], 1, 4, 1)


@needs_compiled
def test_no_admissible_next_block_with_a_dead_matching_parity():
    # steps 0 and 1 share no user, so block 0's matching dies at the same
    # node; the counters do not change
    prob = hand_problem([(0b01, 0b10, 0b11)], **NO_NEXT_BLOCK)
    assert assert_matches_ground_truth(prob) == \
        (_kernel.SAT, [0, 1, 1], 1, 4, 1)


@needs_compiled
def test_node_budget_ending_on_a_node_without_admissible_next_block_parity():
    prob = hand_problem([(0b11, 0b11, 0b11)], **NO_NEXT_BLOCK)
    # the second node is the one without children; the node that breaks
    # the budget is counted
    assert run_both(prob, max_nodes=1) == \
        ((_kernel.BUDGET, None, 0, 2, 0),) * 2
    # SoD to both open blocks as well: the search ends on that node, so a
    # budget that stops there is BUDGET and one more node gives UNSAT
    prob = hand_problem([(0b11, 0b11, 0b11)], sod=[(0, 1), (0, 2), (1, 2)],
                        counts=[CountSpec(at_most=True, r=2, depths=(0, 1, 2))])
    assert assert_matches_ground_truth(prob) == (_kernel.UNSAT, None, 0, 2, 0)
    assert run_both(prob, max_nodes=1) == \
        ((_kernel.BUDGET, None, 0, 2, 0),) * 2


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
    return hand_problem(combos, sod=pairs[:cut], bod=pairs[cut:],
                        counts=counts, suals=suals)


@needs_compiled
@pytest.mark.parametrize("seed", range(40))
def test_random_hand_built_problem_parity(seed):
    assert_parity_under_every_budget(random_hand_problem(seed))


@pytest.mark.sweep
@needs_compiled
def test_random_hand_built_problem_sweep():
    for seed in range(10_000):
        assert_parity_under_every_budget(random_hand_problem(seed))


@pytest.mark.sweep
@needs_compiled
def test_alternatives_workload_sweep():
    # the 600 draws of perfbench's `alternatives` workload at --seed 81,
    # each unlimited and at a mid-tree budget
    for i in range(600):
        assert_draw_parity(GenSpec(seed=derive_seed(81, 2, i),
                                   **BENCH_SHAPES["alternatives"]))


@pytest.mark.sweep
@needs_compiled
def test_export_workload_sweep():
    # the 900 draws of perfbench's `export` workload at --seed 81; their
    # SUAL scopes come first in the visit order, so SUAL narrowing fires at
    # shallow depths
    for i in range(900):
        assert_draw_parity(GenSpec(seed=derive_seed(81, 4, i),
                                   **BENCH_SHAPES["export"]))


# --- node totals, pinned for the pure backend ----------------------------------

# name -> (salt, draws, GenSpec shape, total nodes, SAT draws).  Draw i is
# GenSpec(seed=derive_seed(81, salt, i), **shape): the first draws of the
# benchmark's `search`, `alternatives` and `export` workloads at --seed 81,
# 20 draws at k=16 whose counts sit at the phase transition, and 100 draws
# of the shape of `calibrate`'s `wl` family near its transition, where the
# visit order walks on from two WL scopes through the UI steps.  The `bod`
# row is the `mixed` row's draws with 1-3 BoD constraints appended by
# `with_bods`, since the generator draws no BoD.  No draw is budgeted.
# The totals hold only while the tree the kernel searches stays the same, so
# they catch drift without a compiled kernel to compare against; a change
# to the visit order or to pruning changes them on purpose.
NODE_TOTALS = {
    "search": (1, 300, dict(k=12, n=120, am3=12, sod=26), 236_275, 201),
    "alternatives": (2, 300, BENCH_SHAPES["alternatives"], 8_202, 140),
    "export": (4, 300, BENCH_SHAPES["export"], 22_731, 165),
    "k16": (7, 20, dict(k=16, n=160, am3=16, sod=35), 455_985, 13),
    "mixed": (9, 100, dict(k=12, n=120, am3=12, sod=19, wl=2), 11_692, 58),
    "bod": (9, 100, dict(k=12, n=120, am3=12, sod=19, wl=2), 9_223, 8),
}


def with_bods(inst, i):
    """`inst` with 1-3 BoD constraints appended, drawn from `bod-{i}`."""
    rng = random.Random(f"bod-{i}")
    bods = [BoD(*rng.sample(range(inst.k), 2)) for _ in range(rng.randint(1, 3))]
    return dataclasses.replace(inst, constraints=(*inst.constraints, *bods))


def node_totals_draw(name, i):
    """Draw i of NODE_TOTALS[name]."""
    salt, _, shape, _, _ = NODE_TOTALS[name]
    inst = generate(GenSpec(seed=derive_seed(81, salt, i), **shape))
    return with_bods(inst, i) if name == "bod" else inst


@lru_cache(maxsize=None)
def pure_results(name):
    """(status, plan, nodes) of the pure kernel on each NODE_TOTALS[name]
    draw, solved once for both tests below."""
    run = backend_run_search("pure")
    results = []
    for i in range(NODE_TOTALS[name][1]):
        status, plan, _, nodes, _ = run(compile_problem(node_totals_draw(name, i)))
        results.append((status, plan, nodes))
    return results


@pytest.mark.parametrize("name", sorted(NODE_TOTALS))
def test_pure_kernel_node_totals(name):
    _, _, _, nodes, sat = NODE_TOTALS[name]
    results = pure_results(name)
    assert sum(r[2] for r in results) == nodes
    assert [r[0] for r in results].count(_kernel.SAT) == sat


# name -> SHA-256 of "i plan" lines over the SAT draws of NODE_TOTALS[name],
# so a changed plan shows without a compiled kernel to compare against.
PLAN_DIGESTS = {
    "alternatives": "3e100ee92cbeb9f5caba15e06c51e52a6686fdddc2b30ea4f5585b75c36d472a",
    "bod": "609eb83ca8535b9a0245356f1d943e61a77042592eb6726bf89a738043f52813",
    "export": "64f52aa2fa5352c49d7685665c23c942721c759bc57b8142da0e011b82ad8ccc",
    "k16": "7ecf49f9663fdd11c5513083afce2bf678a0b9395e6264d2b3d98e951dffd159",
    "mixed": "c8deb5d38b16dfe10dbe976c6947f7c3d14c00d2aaa8b698da72fd64abc0eb95",
    "search": "a0b99ab56f6ff4ad7124436d1e34335bd79bbaca39c3734a1172edfd6627d2c2",
}


@pytest.mark.parametrize("name", sorted(NODE_TOTALS))
def test_pure_kernel_plan_digests(name):
    digest = hashlib.sha256()
    for i, (status, plan, _) in enumerate(pure_results(name)):
        if status == _kernel.SAT:
            digest.update(f"{i} {plan}\n".encode())
    assert digest.hexdigest() == PLAN_DIGESTS[name]


# --- the combos' canonical order ----------------------------------------------


def assert_combo_order_is_moot(probs, seed):
    """Each of `probs`, rebuilt from its combos in a random order, gets the
    pure kernel's 5-tuple for `probs` from every backend.  Returns how many
    of the shuffles gave the combos in another order."""
    rng = random.Random(seed)
    pure = backend_run_search("pure")
    runs = [backend_run_search(name) for name in available_backends()]
    moved = 0
    for i, prob in enumerate(probs):
        expected = pure(prob)
        combos = list(prob.combo_masks)
        rng.shuffle(combos)
        moved += combos != list(prob.combo_masks)
        again = dataclasses.replace(prob, combo_masks=tuple(combos))
        for run in runs:
            assert run(again) == expected, i
    return moved


@pytest.mark.parametrize("name", ["alternatives", "export", "mixed"])
def test_combo_order_given_never_changes_a_draw_result(name):
    probs = [compile_problem(node_totals_draw(name, i)) for i in range(100)]
    assert assert_combo_order_is_moot(probs, name) >= 10


def test_combo_order_given_never_changes_a_hand_built_result():
    probs = [random_hand_problem(seed) for seed in range(200)]
    assert assert_combo_order_is_moot(probs, "hand") >= 100


def test_sod_scopes_are_stored_ascending_with_each_depth_once():
    prob = SearchProblem(k=4, order=(0, 1, 2, 3), combo_masks=((1, 1, 1, 1),),
                         sod_prev=((), (0, 0), (1, 0, 1), [2, 0, 2, 1, 0]))
    assert prob.sod_prev == ((), (0,), (0, 1), (0, 1, 2))
    assert prob == hand_problem(
        [(1, 1, 1, 1)], sod=[(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)])


# --- at the kernel's step limit ---------------------------------------------

# k = KERNEL_MAX_STEPS, every user authorised everywhere and an SoD between
# every pair of depths, so depth d opens block d and the last depth uses
# the top block.  name -> (n, count bounds over every depth, result).  With
# 64 users the plan gives block b user 63 - b; with 63 the last block finds
# no user.  At most 63 users leaves the last depth no block, so the node
# that places depth 62 ends the search; at least 64 holds on the only path.
TOP_BLOCK = list(range(KERNEL_MAX_STEPS - 1, -1, -1))
EVERY_DEPTH = tuple(range(KERNEL_MAX_STEPS))
TOP_FIELD_CASES = {
    "n64": (64, (), (_kernel.SAT, TOP_BLOCK, 1, 64, 1)),
    "n63": (63, (), (_kernel.UNSAT, None, 0, 64, 0)),
    "at_most_63": (64, (CountSpec(True, 63, EVERY_DEPTH),),
                   (_kernel.UNSAT, None, 0, 63, 0)),
    "at_least_64": (64, (CountSpec(False, 64, EVERY_DEPTH),),
                    (_kernel.SAT, TOP_BLOCK, 1, 64, 1)),
}


@pytest.mark.parametrize("name", sorted(TOP_FIELD_CASES))
def test_every_depth_apart_at_the_step_limit(name):
    n, counts, expected = TOP_FIELD_CASES[name]
    pairs = [(e, f) for f in EVERY_DEPTH for e in range(f)]
    prob = hand_problem([((1 << n) - 1,) * KERNEL_MAX_STEPS], sod=pairs,
                        counts=counts)
    assert pure_result_with_parity(prob) == expected


# k = KERNEL_MAX_STEPS draws with WL/ADA alternatives and a SUAL restriction:
# the first finds a plan after 131 nodes, so its plan comes off a stack
# KERNEL_MAX_STEPS deep; the second is still searching at the budget (and
# at 100,000 nodes).
STEP_LIMIT_DRAWS = {
    "sat": (_kernel.SAT, dict(n=640, sod=100, sual=1, wl=1, ada=4)),
    "budget": (_kernel.BUDGET, dict(n=640, am3=16, sod=100, sual=1, wl=1,
                                    ada=4)),
}


@needs_compiled
@pytest.mark.parametrize("name", sorted(STEP_LIMIT_DRAWS))
def test_step_limit_draw_parity(name):
    status, shape = STEP_LIMIT_DRAWS[name]
    inst = generate(GenSpec(k=KERNEL_MAX_STEPS, seed=derive_seed(64, 0),
                            **shape))
    prob = compile_problem(inst)
    pure, comp = run_both(prob, max_nodes=5000)
    assert pure == comp
    assert pure[0] == status
    if status == _kernel.SAT:
        assert is_valid(pure[1], inst)


# --- the per-depth tables both kernels read --------------------------------

# k=6 with scopes 0..5 the SoD scopes, 6 and 7 the counts and 8 the SUAL.
# SoD scope 3 holds depths 0 and 2.  At most 2 users over depths 0, 2, 3, 5
# is checked at positions 2 and 3 only (depths 3 and 5), with r = 2.  At
# least 3 users over depths 1, 2, 4, 5 is checked where fewer than r - 1
# scope depths remain after a position: positions 2 and 3 (depths 4 and 5),
# with r reduced by the depths left to 2 and 3.  The SUAL over depths 1 and
# 4 ends at depth 4.
TABLES_PROBLEM = hand_problem(
    [(0b11,) * 6], sod=[(0, 3), (2, 3)],
    counts=[CountSpec(True, 2, (0, 2, 3, 5)), CountSpec(False, 3, (1, 2, 4, 5))],
    suals=[SualSpec((1, 4), 1, 0b01)])
TABLES = (
    [[3, 6], [7, 8], [3, 6, 7], [6], [7, 8], [6, 7]],
    [[], [], [], [(6, 2, True)], [(7, 2, False)], [(6, 2, True), (7, 3, False)]],
    [[], [], [], [], [(0, 1)], []],
)


def table_ints(tables):
    """TABLES_PROBLEM's packed ints with `tables` as its depth tables."""
    ints = [6, 1, 1, 2, 1]
    for holders, checks, ends in zip(*tables):
        ints += [len(holders), *holders, len(checks), *chain(*checks),
                 len(ends), *chain(*ends)]
    return array("i", ints)


def test_depth_tables_of_a_hand_problem():
    assert _kernel.depth_tables(TABLES_PROBLEM) == TABLES
    ints, _ = _kernel.pack(TABLES_PROBLEM)
    assert ints == table_ints(TABLES)


# name -> (table, depth, that depth's table with one field or its length
# out of range).  TABLES_PROBLEM has 9 scopes, 2 counts and 1 SUAL.
BAD_TABLES = {
    "holder_at_its_depth": (0, 3, [3]),
    "holder_past_the_scopes": (0, 3, [9]),
    "check_scope_below_the_counts": (1, 3, [(5, 2, True)]),
    "check_scope_past_the_counts": (1, 3, [(8, 2, True)]),
    "check_flag": (1, 3, [(6, 2, 2)]),
    "end_past_the_suals": (2, 4, [(1, 1)]),
    "holder_count": (0, 3, [4] * 10),
    "check_count": (1, 3, [(6, 2, True)] * 3),
    "end_count": (2, 4, [(0, 1)] * 2),
}


@needs_compiled
@pytest.mark.parametrize("name", sorted(BAD_TABLES))
def test_compiled_kernel_refuses_a_table_field_out_of_range(name):
    _speed = pytest.importorskip("wspkit._kernel._speed")
    _, words = _kernel.pack(TABLES_PROBLEM)
    expected = _pure.run_search(TABLES_PROBLEM, *UNLIMITED)
    assert _speed.search(table_ints(TABLES), words, *UNLIMITED) == expected
    which, d, table = BAD_TABLES[name]
    tables = [list(per_depth) for per_depth in TABLES]
    tables[which][d] = table
    with pytest.raises(ValueError, match="malformed packed search problem"):
        _speed.search(table_ints(tables), words, *UNLIMITED)


@needs_compiled
def test_compiled_kernel_refuses_problems_it_would_read_out_of_bounds():
    # one step past the kernel's limit
    run = backend_run_search("compiled")
    assert run(hand_problem([(0b11, 0b11)]))[0] == _kernel.SAT
    with pytest.raises(ValueError, match="malformed packed search problem"):
        run(hand_problem([((1 << 65) - 1,) * (KERNEL_MAX_STEPS + 1)]))


# name -> (a scope with a depth outside the problem, what deriving the
# tables raises): an SoD scope holding its own depth has no field to hold
# it, and a depth at k has no row
OUTSIDE_DEPTHS = {
    "sod_at_its_depth": (dict(sod_prev=((), (1,))), ValueError),
    "sod_at_k": (dict(sod_prev=((), (2,))), IndexError),
    "count_at_k": (dict(counts=(CountSpec(True, 1, (0, 2)),)), IndexError),
    "sual_at_k": (dict(suals=(SualSpec((0, 2), 1, 0b01),)), IndexError),
}


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("name", sorted(OUTSIDE_DEPTHS))
def test_a_scope_depth_outside_the_problem_raises_before_any_node(
        name, backend):
    fields, error = OUTSIDE_DEPTHS[name]
    prob = dataclasses.replace(hand_problem([(0b11, 0b11)]), **fields)
    with pytest.raises(error):
        backend_run_search(backend)(prob)


@needs_compiled
def test_a_descending_sual_scope_runs_alike_on_both_kernels():
    # the tables hold where a scope ends, not its depths in order
    prob = hand_problem([(0b11, 0b11)], suals=[SualSpec((1, 0), 1, 0b01)])
    assert assert_parity_under_every_budget(prob) == \
        backend_run_search("pure")(dataclasses.replace(
            prob, suals=(SualSpec((0, 1), 1, 0b01),)))


# --- the five-value contract around both kernels ------------------------------


@pytest.mark.parametrize("backend", available_backends())
def test_a_visit_order_that_is_not_the_identity_gives_a_step_order_plan(
        backend):
    # NO_NEXT_BLOCK's depth-order plan is [1, 0, 0]; with depth d visiting
    # step order[d] = (2, 0, 1)[d], steps 0 and 1 hold the bound and step 2
    # the SoD, and the plan comes back in step order
    prob = dataclasses.replace(
        hand_problem([(0b11, 0b11, 0b11)], **NO_NEXT_BLOCK), order=(2, 0, 1))
    run = backend_run_search(backend)
    status, plan, *_ = run(prob)
    assert (status, plan) == (_kernel.SAT, [0, 0, 1])
    assert is_valid(plan, as_instance(prob))
    # the same relabelling on random hand-built problems
    rng = random.Random("order")
    for seed in range(40):
        prob = random_hand_problem(seed)
        order = rng.sample(range(prob.k), prob.k)
        status, plan, *counters = run(prob)
        if plan is not None:
            plan = [plan[order.index(step)] for step in range(prob.k)]
        assert run(dataclasses.replace(prob, order=tuple(order))) == \
            (status, plan, *counters), seed


@pytest.mark.parametrize("backend", available_backends())
def test_a_pattern_budget_is_refused_and_the_counters_follow_the_status(
        backend):
    run = backend_run_search(backend)
    sat = hand_problem([(0b11, 0b11, 0b11)], **NO_NEXT_BLOCK)
    with pytest.raises(ValueError, match="first full pattern"):
        run(sat, max_patterns=0)
    unsat = hand_problem([(0b01, 0b01)], sod=[(0, 1)])
    budget = dict(max_nodes=1)
    for prob, kw, status in ((sat, {}, _kernel.SAT), (unsat, {}, _kernel.UNSAT),
                             (sat, budget, _kernel.BUDGET)):
        result = run(prob, max_patterns=None, **kw)
        assert len(result) == 5
        assert result[0] == status
        assert result[2] == result[4] == int(status == _kernel.SAT)


@pytest.mark.parametrize("backend", available_backends())
def test_node_budgets_past_an_int64_are_clamped(backend):
    # a budget no search reaches, and one below any: the adapter clamps both
    # before the compiled kernel reads them as an int64
    run = backend_run_search(backend)
    prob = hand_problem([(0b11, 0b11, 0b11)], **NO_NEXT_BLOCK)
    assert run(prob, max_nodes=10**30) == run(prob) == \
        (_kernel.SAT, [1, 0, 0], 1, 4, 1)
    assert run(prob, max_nodes=-10**30) == run(prob, max_nodes=0) == \
        (_kernel.BUDGET, None, 0, 1, 0)


def test_one_step_past_the_limit_names_it():
    k = KERNEL_MAX_STEPS + 1
    inst = Instance(k, 2, AuthorisationFunction.total(k, 2), ())
    with pytest.raises(CapacityError, match="at most 64 steps, got 65"):
        solve_backtracking(inst)


def test_backend_selection_errors():
    with pytest.raises(ValueError):
        backend_run_search("turbo")


def test_pure_backend_always_available():
    assert "pure" in available_backends()
    assert backend_run_search("pure") is not None
