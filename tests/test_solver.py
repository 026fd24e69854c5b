"""Solver verdicts, counters, budgets, and cross-solver agreement."""

import dataclasses
import hashlib
import random
import tracemalloc

import pytest

from conftest import (
    COMPILED_MISSING,
    CONSTRAINT_KINDS,
    PO_VALID_COUNT,
    RELABEL_DRAWS,
    _random_constraint,
    count_valid_plans,
    disjoint_wl_instance,
    random_instance,
    valid_plans,
    valid_plans_longhand,
)
from wspkit.core import (
    ADA,
    AtLeast,
    AtMost,
    AuthorisationFunction,
    BoD,
    CapacityError,
    Instance,
    InvariantError,
    SUAL,
    SoD,
    WL,
    WspError,
    bits_of,
    is_valid,
    mask_of,
)
from wspkit.generator import FAMILY_KINDS, GenSpec, derive_seed, generate
from wspkit.patterns import bell
from wspkit.solver import (
    Budget,
    SolveResult,
    SolveStats,
    Verdict,
    compile_search_problem,
    solve_backtracking,
    solve_bruteforce,
    solve_pattern_enum,
    verify,
    visit_order,
)
from wspkit.absorption import absorb
from wspkit._kernel import UNSAT, available_backends, backend_run_search

SOLVERS = (solve_bruteforce, solve_pattern_enum, solve_backtracking)


@pytest.mark.parametrize("solve", SOLVERS)
def test_purchase_order_sat(po_instance, solve):
    res = solve(po_instance)
    assert res.verdict is Verdict.SAT
    assert res.sat
    assert is_valid(res.plan, po_instance)
    assert verify(res.plan, po_instance)


def test_purchase_order_count(po_instance):
    assert count_valid_plans(po_instance) == PO_VALID_COUNT
    assert len(valid_plans(po_instance)) == PO_VALID_COUNT


def test_bruteforce_returns_lexicographically_first(po_instance):
    res = solve_bruteforce(po_instance)
    assert res.plan == min(valid_plans(po_instance))


@pytest.mark.parametrize("solve", SOLVERS)
def test_unsat_contradictory_pair(solve):
    inst = Instance(2, 3, AuthorisationFunction.total(2, 3),
                    (SoD(0, 1), BoD(0, 1)))
    res = solve(inst)
    assert res.verdict is Verdict.UNSAT
    assert res.plan is None


@pytest.mark.parametrize("solve", SOLVERS)
def test_unsat_empty_authorisation(solve):
    inst = Instance(2, 3, AuthorisationFunction.from_lists([[0, 1], []], 3), ())
    assert solve(inst).verdict is Verdict.UNSAT


@pytest.mark.parametrize("solve", SOLVERS)
def test_unsat_too_few_users_for_atleast(solve):
    inst = Instance(3, 2, AuthorisationFunction.total(3, 2),
                    (AtLeast(3, (0, 1, 2)),))
    assert solve(inst).verdict is Verdict.UNSAT


def test_pattern_enum_exhausts_before_unsat():
    inst = Instance(4, 2, AuthorisationFunction.total(4, 2),
                    (AtLeast(4, (0, 1, 2, 3)),))
    res = solve_pattern_enum(inst)
    assert res.verdict is Verdict.UNSAT
    assert res.stats.patterns_visited == bell(4)


def test_pattern_enum_holds_no_state_per_pattern():
    """A full UNSAT enumeration of Bell(9) = 21,147 patterns (the two WLs
    leave no family member) keeps nothing per pattern once it is visited."""
    inst = Instance(9, 8, AuthorisationFunction.total(9, 8), (
        SUAL((0, 1, 2, 3, 4), 1, frozenset({7})),
        WL((0, 1), (frozenset({0}), frozenset({1}))),
        WL((1, 2), (frozenset({2}), frozenset({3})))))
    tracemalloc.start()
    try:
        res = solve_pattern_enum(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.verdict is Verdict.UNSAT
    assert res.stats.patterns_visited == bell(9) == 21_147
    assert peak < 1_000_000


# Pattern enumeration's verdict, plan, patterns visited and matchings
# computed on each draw of a fixed corpus, hashed in draw order: 480 small
# draws of every constraint kind and mixed, then 40 generator draws at k=8
# with every constraint kind.
PATTERN_ENUM_DIGEST = "3f77ba45d323a9bf"


def test_pattern_enum_records_are_pinned():
    corpus = [random_instance(kind, seed, k_max=6, n_max=9)
              for kind in CONSTRAINT_KINDS + ("mixed",) for seed in range(60)]
    corpus += [generate(GenSpec(k=8, n=70, am3=8, sod=6, sual=1, wl=1, ada=2,
                                seed=seed)) for seed in range(40)]
    h = hashlib.sha256()
    for inst in corpus:
        res = solve_pattern_enum(inst)
        h.update(f"{res.verdict.value} {res.plan} {res.stats.patterns_visited} "
                 f"{res.stats.matchings_computed}\n".encode())
    assert len(corpus) == 520
    assert h.hexdigest()[:16] == PATTERN_ENUM_DIGEST


def test_pattern_enum_rejects_a_node_budget(po_instance):
    """Pattern enumeration expands no nodes, so a node budget is an error
    rather than silently ignored."""
    with pytest.raises(InvariantError, match="max_nodes.*max_patterns"):
        solve_pattern_enum(po_instance, Budget(max_nodes=1))
    with pytest.raises(InvariantError, match="max_nodes"):
        solve_pattern_enum(po_instance, Budget(max_millis=60_000, max_nodes=10**9))


def test_backtracker_rejects_a_pattern_budget(po_instance):
    """The backtracker stops at its first full pattern, so a pattern budget
    bounds no work and is an error rather than silently ignored."""
    with pytest.raises(InvariantError, match="max_patterns.*max_nodes"):
        solve_backtracking(po_instance, Budget(max_patterns=0))
    with pytest.raises(InvariantError, match="max_patterns"):
        solve_backtracking(po_instance, Budget(max_millis=60_000,
                                               max_patterns=10**9))


def test_backtracker_counters_on_unsat():
    # complete patterns and certified matchings both stay at zero on UNSAT
    inst = Instance(4, 2, AuthorisationFunction.total(4, 2),
                    (AtLeast(4, (0, 1, 2, 3)),))
    res = solve_backtracking(inst)
    assert res.verdict is Verdict.UNSAT
    assert res.stats.patterns_visited == 0
    assert res.stats.matchings_computed == 0
    assert res.stats.nodes_expanded > 0


def test_backtracker_counters_on_sat(po_instance):
    res = solve_backtracking(po_instance)
    assert res.stats.patterns_visited >= 1
    assert res.stats.matchings_computed >= 1
    assert res.stats.nodes_expanded >= po_instance.k


def test_counter_bounds_against_family_product(po_instance):
    absorbed = absorb(po_instance)
    members = max(1, len(absorbed.static_rows))
    res = solve_pattern_enum(po_instance)
    assert res.stats.patterns_visited <= bell(po_instance.k)
    assert res.stats.matchings_computed <= bell(po_instance.k) * members
    res = solve_backtracking(po_instance)
    assert res.stats.patterns_visited <= bell(po_instance.k)
    assert res.stats.matchings_computed <= bell(po_instance.k) * members


def test_budget_pattern_cap():
    inst = Instance(4, 2, AuthorisationFunction.total(4, 2),
                    (AtLeast(4, (0, 1, 2, 3)),))
    res = solve_pattern_enum(inst, Budget(max_patterns=3))
    assert res.verdict is Verdict.BUDGET
    assert res.plan is None
    assert res.stats.patterns_visited == 3


def test_budget_node_cap():
    inst = Instance(6, 3, AuthorisationFunction.total(6, 3),
                    (AtLeast(4, (0, 1, 2, 3)),))
    res = solve_backtracking(inst, Budget(max_nodes=2))
    assert res.verdict is Verdict.BUDGET
    assert res.plan is None


def test_budget_deadline_already_expired(po_instance):
    res = solve_pattern_enum(po_instance, Budget(max_millis=0.0))
    assert res.verdict is Verdict.BUDGET


def test_budget_generous_enough_still_solves(po_instance):
    res = solve_backtracking(po_instance, Budget(max_millis=60_000,
                                                 max_nodes=10_000_000))
    assert res.verdict is Verdict.SAT


def test_budget_deadline_helper():
    assert Budget().deadline(5.0) is None
    assert Budget(max_millis=1500).deadline(2.0) == pytest.approx(3.5)


@pytest.mark.parametrize("field, value", [
    ("max_millis", float("nan")), ("max_millis", float("inf")),
    ("max_millis", -1.0), ("max_millis", True), ("max_millis", "5"),
    ("max_nodes", -1), ("max_nodes", True), ("max_nodes", 1.0),
    ("max_patterns", -1), ("max_patterns", False), ("max_patterns", 2.5)])
def test_budget_checks_its_own_values(field, value):
    # a NaN deadline is never passed and a negative count reports BUDGET
    # at once, so both are refused where the budget is made
    with pytest.raises(InvariantError, match=f"^budget: {field} must be"):
        Budget(**{field: value})


def test_a_zero_budget_is_valid(po_instance):
    assert Budget(max_millis=0, max_nodes=0, max_patterns=0).max_nodes == 0
    res = solve_backtracking(po_instance, Budget(max_nodes=0))
    assert res.verdict is Verdict.BUDGET


@pytest.mark.parametrize("kind", CONSTRAINT_KINDS + ("mixed",))
@pytest.mark.parametrize("seed", range(8))
def test_solvers_agree_with_ground_truth(kind, seed):
    inst = random_instance(kind, seed, k_max=4, n_max=6)
    truth = valid_plans_longhand(inst)
    for solve in SOLVERS:
        res = solve(inst)
        if truth:
            assert res.verdict is Verdict.SAT, (kind, seed, solve.__name__)
            assert res.plan in truth
        else:
            assert res.verdict is Verdict.UNSAT, (kind, seed, solve.__name__)


def wide_instance(kind: str, n: int, seed: int) -> Instance:
    """A k=5..7 draw over n users with constraints of one kind.  The steps
    share a pool of k users that always holds user n-1, so every draw
    reaches the last word of the user masks and blocks compete for users."""
    rng = random.Random(f"wide-{kind}-{n}-{seed}")
    k = rng.randint(5, 7)
    pool = [n - 1] + rng.sample(range(n - 1), k - 1)
    auth = AuthorisationFunction.from_lists(
        [rng.sample(pool, rng.randint(1, k - 1)) for _ in range(k)], n)
    constraints = tuple(_random_constraint(rng, kind, k, n)
                        for _ in range(rng.randint(1, k)))
    return Instance(k, n, auth, constraints)


@pytest.mark.parametrize("n", (65, 130))
@pytest.mark.parametrize("kind", CONSTRAINT_KINDS)
def test_solvers_agree_past_one_machine_word(kind, n):
    """Backtracking on every available backend gives pattern enumeration's
    verdict when user masks span two or more 64-bit words."""
    for seed in range(10):
        inst = wide_instance(kind, n, seed)
        expect = solve_pattern_enum(inst)
        if expect.sat:
            assert verify(expect.plan, inst)
        for backend in available_backends():
            res = solve_backtracking(inst, backend=backend)
            assert res.verdict is expect.verdict, (kind, n, seed, backend)
            if res.sat:
                assert verify(res.plan, inst)


@pytest.mark.parametrize("solve", SOLVERS)
def test_solutions_are_deterministic(po_instance, solve):
    assert {solve(po_instance).plan for _ in range(3)} == {solve(po_instance).plan}


def test_valid_plans_matches_longhand_oracle():
    for seed in range(10):
        inst = random_instance("mixed", seed, k_max=4, n_max=5)
        assert set(valid_plans(inst)) == valid_plans_longhand(inst)


def test_bruteforce_capacity_cap():
    inst = Instance(8, 10, AuthorisationFunction.total(8, 10), ())
    with pytest.raises(CapacityError):
        solve_bruteforce(inst, cap=1000)
    with pytest.raises(CapacityError):
        count_valid_plans(inst, cap=1000)


def test_bruteforce_cap_names_the_plan_space_at_any_n():
    # n**k at n = 10**100, k = 50 has 5001 digits, past the length that
    # Python will turn into a decimal string
    n, k = 10**100, 50
    inst = Instance(k, n, AuthorisationFunction.from_lists([[0, 1]] * k, n), ())
    with pytest.raises(CapacityError, match=rf"n\^k = {n}\^{k}$"):
        solve_bruteforce(inst)


def test_kernel_step_limit():
    k = 65
    inst = Instance(k, 2, AuthorisationFunction.total(k, 2), ())
    with pytest.raises(CapacityError):
        compile_search_problem(absorb(inst))


def test_compile_gives_a_dead_family_no_combos():
    # step 1 has no user, so the static family is empty: the problem has no
    # combos, and every kernel answers UNSAT without a node
    inst = Instance(2, 2, AuthorisationFunction.from_lists([[0], []], 2), ())
    prob = compile_search_problem(absorb(inst))
    assert (prob.k, prob.combo_masks) == (2, ())
    for backend in available_backends():
        assert backend_run_search(backend)(prob) == (UNSAT, None, 0, 0, 0)
        res = solve_backtracking(inst, backend=backend)
        assert res.verdict is Verdict.UNSAT
        assert dataclasses.replace(res.stats, wall_time=0) == SolveStats()


# --- the static visit order ---------------------------------------------------


def order_instance(k, *constraints):
    return Instance(k, 4, AuthorisationFunction.total(k, 4), constraints)


def test_ui_only_instance_visits_steps_by_ascending_degree():
    # degrees 3, 1, 2, 1, 2, 2: ties go to the lower index
    inst = order_instance(6, SoD(0, 1), BoD(0, 2), AtMost(2, (0, 2, 3)),
                          AtLeast(2, (4, 5)), SoD(4, 5))
    assert visit_order(inst) == (1, 3, 2, 4, 5, 0)
    assert visit_order(order_instance(3)) == (0, 1, 2)


def test_steps_under_more_non_ui_constraints_come_first():
    # step 3 is under two non-UI constraints, steps 1 and 2 under one, and
    # step 0, of the highest degree, under none
    inst = order_instance(4, SoD(0, 1), SoD(0, 2), SoD(0, 3),
                          ADA(3, 1, 0b01, 0b10), WL((2, 3), (0b01, 0b10)))
    assert visit_order(inst) == (3, 1, 2, 0)


def test_sual_counts_as_non_ui():
    # the same scope as an at-most keeps ascending degree; as a SUAL it
    # moves to the front, and step 0, under an SoD with each of its
    # steps, follows before step 3, under nothing
    pairs = (SoD(0, 1), SoD(0, 2), SoD(1, 2))
    assert visit_order(order_instance(4, *pairs, AtMost(1, (1, 2)))) == \
        (3, 0, 1, 2)
    assert visit_order(order_instance(4, *pairs, SUAL((1, 2), 1, 0b1))) == \
        (1, 2, 0, 3)


def test_visit_order_ties_fall_to_degree_then_index():
    # steps 0 to 3 are each under one ADA; step 2 has degree 1 and steps
    # 0, 1 and 3 degree 2.  Step 0 leads (the highest degree, lower index
    # than 1 and 3), its ADA partner 1 shares a constraint with it, then
    # 3 of degree 2 goes before its partner 2 of degree 1, and UI step 4
    # comes last
    inst = order_instance(5, ADA(0, 1, 0b1, 0b1), ADA(2, 3, 0b1, 0b1),
                          SoD(0, 4), SoD(1, 4), SoD(3, 4))
    assert visit_order(inst) == (0, 1, 3, 2, 4)


def test_an_ada_pair_and_a_sual_scope_are_each_taken_consecutively():
    # step 5 has the highest degree and opens the SUAL scope 5, 1, 3; the
    # ADA pair 4, 0 follows as one, the higher degree 4 first.  Ascending
    # degree alone would visit 1, 3, 0, 4, 5 and split both
    inst = order_instance(7, SUAL((1, 3, 5), 1, 0b1), ADA(4, 0, 0b1, 0b1),
                          SoD(5, 6), SoD(5, 2), SoD(5, 0), SoD(4, 6),
                          SoD(4, 2))
    assert visit_order(inst) == (5, 1, 3, 4, 0, 2, 6)


def test_ui_only_draws_keep_ascending_degree():
    for i in range(50):
        inst = generate(GenSpec(seed=derive_seed(81, 1, i), k=12, n=120,
                                am3=12, sod=26))
        degree = [sum(s in c.steps for c in inst.constraints)
                  for s in range(inst.k)]
        assert visit_order(inst) == tuple(sorted(range(inst.k),
                                                 key=degree.__getitem__))


def test_the_walk_goes_on_from_the_non_ui_block_through_the_ui_steps():
    # the WL scope 5, 4 comes first, 5 of the higher degree.  Step 0, under
    # an SoD with 5, follows, then 1 and 2, each tied to 0, and 2 (tied to 0
    # and 1) before 3, under no constraint.  Ascending degree would visit
    # 3, 1, 2, 0 after the block and leave 0, the block's SoD neighbour, last
    inst = order_instance(6, WL((4, 5), (0b01, 0b10)), SoD(5, 0), SoD(0, 1),
                          SoD(0, 2), SoD(1, 2))
    assert visit_order(inst) == (5, 4, 0, 1, 2, 3)


# generator counts per draw: each non-UI kind among SoD and at-most constraints
MIXED_ORDER_DRAWS = {"wl": dict(sod=14, am3=6, wl=2),
                     "ada": dict(sod=14, am3=6, ada=2),
                     "sual": dict(sod=14, am3=6, sual=1)}


@pytest.mark.parametrize("name", sorted(MIXED_ORDER_DRAWS))
def test_each_step_after_the_non_ui_block_shares_the_most_constraints(name):
    moved = False
    for i in range(20):
        inst = generate(GenSpec(seed=derive_seed(81, 10, i), k=12, n=60,
                                **MIXED_ORDER_DRAWS[name]))
        order = visit_order(inst)
        block = len({s for c in inst.nonui_constraints() for s in c.steps})
        degree = [sum(s in c.steps for c in inst.constraints)
                  for s in range(inst.k)]
        for d in range(block, inst.k):
            placed = set(order[:d])

            def shared(t):
                return sum(len(placed.intersection(c.steps))
                           for c in inst.constraints if t in c.steps)

            assert order[d] == min(order[d:], key=lambda t: (
                -shared(t), -degree[t], t)), (i, d)
        moved |= order[block:] != tuple(sorted(order[block:],
                                               key=degree.__getitem__))
    # the walk is not ascending degree in disguise
    assert moved


def relabel(inst, perm):
    """`inst` with step s renamed perm[s]."""
    masks = [0] * inst.k
    for s, m in enumerate(inst.auth.step_masks):
        masks[perm[s]] = m

    def move(c):
        if hasattr(c, "scope"):
            return dataclasses.replace(
                c, scope=tuple(sorted(perm[s] for s in c.scope)))
        return dataclasses.replace(c, s1=perm[c.s1], s2=perm[c.s2])

    return Instance(inst.k, inst.n, AuthorisationFunction(inst.n, tuple(masks)),
                    tuple(map(move, inst.constraints)))


# each RELABEL_DRAWS shape on every backend; a pure case is named by its
# shape alone
RELABEL_CASES = [
    pytest.param(name, backend,
                 id=name if backend == "pure" else f"{name}-{backend}")
    for name in sorted(RELABEL_DRAWS) for backend in available_backends()]


@pytest.mark.parametrize("name, backend", RELABEL_CASES)
def test_relabelling_steps_keeps_the_verdict_of_mixed_draws(name, backend):
    # the visit order breaks ties by step index, so a relabelled draw is
    # searched in another tree; its verdict may not move
    rng = random.Random(name)
    trees_differ = False
    for i in range(10):
        inst = generate(GenSpec(seed=derive_seed(81, 11, i), k=8, n=16,
                                **RELABEL_DRAWS[name]))
        expected = solve_pattern_enum(inst).verdict
        nodes = set()
        for _ in range(3):
            perm = list(range(inst.k))
            rng.shuffle(perm)
            moved = relabel(inst, perm)
            res = solve_backtracking(moved, backend=backend)
            assert res.verdict is expected, (i, perm)
            if res.plan is not None:
                assert is_valid(res.plan, moved)
                assert is_valid(tuple(res.plan[perm[s]] for s in range(inst.k)),
                                inst)
            nodes.add(res.stats.nodes_expanded)
        trees_differ |= len(nodes) > 1
    assert trees_differ


def relabel_users(inst, perm):
    """`inst` with user u renamed perm[u], in its authorisations, SUAL
    super-users, WL teams and ADA user sets."""

    def move(mask):
        return mask_of(perm[u] for u in bits_of(mask))

    def move_users(c):
        if isinstance(c, SUAL):
            return dataclasses.replace(c, supers=move(c.supers))
        if isinstance(c, WL):
            return dataclasses.replace(c, teams=tuple(map(move, c.teams)))
        if isinstance(c, ADA):
            return dataclasses.replace(c, trigger=move(c.trigger),
                                       required=move(c.required))
        return c

    return Instance(inst.k, inst.n, AuthorisationFunction(
        inst.n, tuple(map(move, inst.auth.step_masks))),
        tuple(map(move_users, inst.constraints)))


@pytest.mark.parametrize("name, backend", RELABEL_CASES)
def test_relabelling_users_keeps_the_verdict_and_tree_of_mixed_draws(name,
                                                                     backend):
    # a block's users never decide which blocks are admissible, and whether
    # a class can saturate its blocks does not depend on the users' names,
    # so the tree is the same; only the matching, and so the plan, may move
    rng = random.Random(f"users-{name}")
    plans_differ = False
    for i in range(10):
        inst = generate(GenSpec(seed=derive_seed(81, 11, i), k=8, n=16,
                                **RELABEL_DRAWS[name]))
        base = solve_backtracking(inst, backend=backend)
        for _ in range(3):
            perm = list(range(inst.n))
            rng.shuffle(perm)
            moved = relabel_users(inst, perm)
            res = solve_backtracking(moved, backend=backend)
            assert (res.verdict, res.stats.nodes_expanded) == \
                (base.verdict, base.stats.nodes_expanded), (i, perm)
            if res.plan is not None:
                back = tuple(map(perm.index, res.plan))
                assert is_valid(back, inst)
                plans_differ |= back != base.plan
    assert plans_differ


# generator counts per draw: each kind alone, and every kind together
ORDER_DRAWS = {**{kind: {kind: 3} for kind in FAMILY_KINDS},
               "every": dict(sod=4, am3=2, sual=1, wl=2, ada=2)}


@pytest.mark.parametrize("name", sorted(ORDER_DRAWS))
def test_visit_order_is_a_permutation_with_non_ui_steps_first(name):
    for i in range(20):
        inst = generate(GenSpec(seed=derive_seed(81, 8, i), k=9, n=30,
                                **ORDER_DRAWS[name]))
        order = visit_order(inst)
        assert sorted(order) == list(range(inst.k))
        non_ui = {s for c in inst.nonui_constraints() for s in c.steps}
        assert set(order[:len(non_ui)]) == non_ui


def test_compile_visits_steps_in_visit_order():
    for i in range(5):
        inst = generate(GenSpec(seed=derive_seed(81, 4, i), k=10, n=80,
                                am3=10, sod=7, sual=1, wl=2, ada=2))
        assert compile_search_problem(absorb(inst)).order == visit_order(inst)


def bod_as_at_most(inst):
    """`inst` with each BoD(s, t) replaced by AtMost(1, (s, t))."""
    return dataclasses.replace(inst, constraints=tuple(
        AtMost(1, c.steps) if isinstance(c, BoD) else c
        for c in inst.constraints))


@pytest.mark.parametrize("kind", ["bod", "mixed"])
def test_bod_compiles_as_an_at_most_one_count(kind):
    # BoD(s, t) is at most one user over {s, t}, and compile hands it to the
    # kernels as that count, so the two instances are one search problem
    lowered = 0
    for seed in range(80):
        inst = random_instance(kind, seed, k_max=7)
        counted = bod_as_at_most(inst)
        if counted == inst:
            continue
        lowered += 1
        assert compile_search_problem(absorb(inst)) == \
            compile_search_problem(absorb(counted)), seed
        for backend in available_backends():
            a, b = (solve_backtracking(x, backend=backend)
                    for x in (inst, counted))
            assert (a.verdict, a.plan) == (b.verdict, b.plan), (seed, backend)
            assert dataclasses.replace(a.stats, wall_time=0) == \
                dataclasses.replace(b.stats, wall_time=0), (seed, backend)
    assert lowered >= 20


# sha256 prefix of every field compile_search_problem returns, over 20
# export-shaped draws (SoD, at-most, SUAL, WL, ADA) and 40 small draws each
# of BoD, at-least and a mix of every kind.
COMPILE_DIGEST = "9d776c246e0ce4d0"


def test_compiled_problems_are_pinned():
    """Compile's order, product, SoD pair lists, and count and SUAL specs,
    the BoD among the counts, are pinned."""
    corpus = [generate(GenSpec(seed=derive_seed(81, 4, i), k=10, n=80, am3=10,
                               sod=7, sual=1, wl=2, ada=2)) for i in range(20)]
    corpus += [random_instance(kind, seed) for kind in ("bod", "atleast", "mixed")
               for seed in range(40)]
    kinds = {type(c).__name__ for inst in corpus for c in inst.constraints}
    assert kinds == {"SoD", "BoD", "AtMost", "AtLeast", "SUAL", "WL", "ADA"}
    h = hashlib.sha256()
    for inst in corpus:
        prob = compile_search_problem(absorb(inst))
        for name in ("order", "combo_masks", "sod_prev", "counts", "suals"):
            h.update(f"{name}={getattr(prob, name)!r}\n".encode())
    assert h.hexdigest()[:16] == COMPILE_DIGEST


def test_guard_rejects_bad_plan(po_instance):
    from wspkit.solver import _guard
    with pytest.raises(WspError):
        _guard((0, 0, 0, 0, 0, 0), po_instance)


def test_backtracking_respects_max_family_size():
    """Absorption runs under the caller's cap, not the default 4096."""
    inst = disjoint_wl_instance()  # m = 7776
    with pytest.raises(CapacityError):
        solve_backtracking(inst)
    res = solve_backtracking(inst, max_family_size=8192)
    assert res.verdict is Verdict.SAT
    assert is_valid(res.plan, inst)


@pytest.mark.parametrize("backend", [
    "pure",
    pytest.param("compiled", marks=pytest.mark.skipif(
        COMPILED_MISSING is not None, reason="compiled kernel not built")),
])
def test_node_budget_is_a_global_cap(backend):
    """A node budget caps the whole search: a k=12 phase-transition draw
    that needs over a thousand nodes stops one node past the cap."""
    inst = generate(GenSpec(k=12, n=120, seed=0, am3=12, sod=26))
    full = solve_backtracking(inst, backend=backend)
    assert full.verdict is Verdict.UNSAT
    cap = 100
    assert full.stats.nodes_expanded > 10 * cap
    res = solve_backtracking(inst, Budget(max_nodes=cap), backend=backend)
    assert res.verdict is Verdict.BUDGET
    assert res.plan is None
    assert res.stats.nodes_expanded <= cap + 1


def test_solve_result_shapes():
    r = SolveResult(Verdict.UNSAT, None)
    assert not r.sat
    assert isinstance(r.stats, SolveStats)
