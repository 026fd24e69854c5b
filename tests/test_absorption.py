"""Constraint absorption into per-pattern authorisation families."""

import itertools
import random

import pytest

from absorption_oracle import family_for_constraint, functions, intersect_families
from conftest import (
    CONSTRAINT_KINDS,
    disjoint_wl_instance,
    pattern_eligible,
    plan_authorised_cda,
    random_instance,
)
from wspkit.core import (
    ADA,
    AuthorisationFunction,
    CapacityError,
    Instance,
    InvariantError,
    SUAL,
    SoD,
    WL,
    is_authorised,
    is_valid,
)
from wspkit.absorption import absorb, branching_bound, sual_restricts
from wspkit.patterns import Pattern, pattern_of

FULL4 = (1 << 4) - 1


def authorises(family, plan):
    """Does some member of the family authorise the plan?"""
    return any(is_authorised(plan, fn) for fn in family)


def test_ui_family_is_total_or_empty():
    c = SoD(0, 1)
    same = Pattern((0, 0, 1))
    diff = Pattern((0, 1, 1))
    f_bad = family_for_constraint(c, same, 3, 4)
    f_ok = family_for_constraint(c, diff, 3, 4)
    assert len(f_bad) == len(f_ok) == 1
    assert f_bad[0].step_masks == (0, 0, 0)
    assert f_ok[0].step_masks == (FULL4,) * 3
    assert not authorises(f_bad, (0, 1, 2))
    assert authorises(f_ok, (0, 1, 2))


def test_sual_family_restricts_only_when_few_blocks_cover_scope():
    c = SUAL((0, 1, 2), 2, frozenset({0, 1}))
    few = Pattern((0, 1, 0, 0))    # scope covered by 2 blocks <= h
    many = Pattern((0, 1, 2, 0))   # 3 blocks > h: no restriction
    fam_few = family_for_constraint(c, few, 4, 4)
    fam_many = family_for_constraint(c, many, 4, 4)
    assert len(fam_few) == len(fam_many) == 1
    assert fam_few[0].step_masks == (0b11, 0b11, 0b11, FULL4)
    assert fam_many[0].step_masks == (FULL4,) * 4


def test_wl_family_one_member_per_team_in_declaration_order():
    c = WL((0, 2), (frozenset({1, 2}), frozenset({0})))
    fam = family_for_constraint(c, Pattern((0, 1, 2)), 3, 4)
    assert len(fam) == 2
    assert fam[0].step_masks == (0b110, FULL4, 0b110)
    assert fam[1].step_masks == (0b001, FULL4, 0b001)


def test_ada_family_trigger_case_first():
    c = ADA(0, 1, frozenset({0, 1}), frozenset({2}))
    fam = family_for_constraint(c, Pattern((0, 1)), 2, 4)
    assert len(fam) == 2
    assert fam[0].step_masks == (0b0011, 0b0100)
    assert fam[1].step_masks == (FULL4 & ~0b0011, FULL4)


def test_intersect_prunes_dead_members():
    a = (AuthorisationFunction(2, (0b01, 0b11)),)
    b = (
        AuthorisationFunction(2, (0b10, 0b11)),   # meets a in 0 on step 0
        AuthorisationFunction(2, (0b11, 0b01)),
    )
    pruned = intersect_families(a, b)
    assert len(pruned) == 1
    assert pruned[0].step_masks == (0b01, 0b01)
    kept = intersect_families(a, b, prune=False)
    assert len(kept) == 2
    assert kept[0].step_masks == (0, 0b11)


def test_intersect_dimension_mismatch():
    a = (AuthorisationFunction(2, (0b01,)),)
    b = (AuthorisationFunction(3, (0b01,)),)
    with pytest.raises(InvariantError):
        intersect_families(a, b)


def test_family_for_rejects_a_pattern_of_the_wrong_length():
    absorbed = absorb(Instance(2, 2, AuthorisationFunction.total(2, 2), ()))
    assert len(absorbed.family_for(Pattern((0, 1)))) == 1
    with pytest.raises(InvariantError):
        absorbed.family_for(Pattern((0,)))


def test_absorb_shapes():
    inst = Instance(
        3, 4,
        AuthorisationFunction.total(3, 4),
        (SoD(0, 1),
         SUAL((0, 1), 1, frozenset({0})),
         WL((0, 2), (frozenset({0}), frozenset({1}))),
         ADA(0, 1, frozenset({0}), frozenset({1}))),
    )
    absorbed = absorb(inst)
    assert absorbed.residual == (SoD(0, 1),)
    assert len(absorbed.suals) == 1
    # base(1) x WL(2) x ADA(2), minus members pruned to an empty step set
    assert 1 <= len(absorbed.static_rows) <= 4


def test_absorb_empty_authorisation_step_kills_family():
    inst = Instance(
        2, 2,
        AuthorisationFunction.from_lists([[0, 1], []], 2),
        (WL((0, 1), (frozenset({0}),)),),
    )
    absorbed = absorb(inst)
    assert absorbed.static_rows == ()
    assert len(absorbed.family_for(Pattern((0, 1)))) == 0


def test_absorb_capacity_cap():
    teams = (frozenset({0}), frozenset({1}), frozenset({2}))
    cs = tuple(WL((0, 1), teams) for _ in range(5))
    inst = Instance(2, 3, AuthorisationFunction.total(2, 3), cs)
    with pytest.raises(CapacityError):
        absorb(inst, max_family_size=8)
    assert absorb(inst, max_family_size=4096) is not None


def test_absorb_capacity_cap_is_exact_at_the_product():
    inst = disjoint_wl_instance()
    with pytest.raises(CapacityError, match="max_family_size=7775"):
        absorb(inst, max_family_size=6 ** 5 - 1)
    assert len(absorb(inst, max_family_size=6 ** 5).static_rows) == 6 ** 5


def _reference_product(inst):
    """The WL/ADA product as a fold of the public family operations."""
    k, n = inst.k, inst.n
    live = all(m != 0 for m in inst.auth.step_masks)
    fam = (inst.auth,) if live else ()
    trivial = Pattern(tuple(range(k)))
    for c in inst.nonui_constraints():
        if not isinstance(c, SUAL):
            fam = intersect_families(fam, family_for_constraint(c, trivial, k, n))
    return fam


def _wl_ada_instance(seed):
    rng = random.Random(f"wl-ada-product-{seed}")
    k = rng.randint(2, 8)
    n = rng.choice((7, 65, 130))
    lists = [[u for u in range(n) if rng.random() < 0.6] or [rng.randrange(n)]
             for _ in range(k)]
    cs = []
    for _ in range(rng.randint(1, 5)):
        if rng.random() < 0.5:
            scope = rng.sample(range(k), rng.randint(2, min(k, 3)))
            users = rng.sample(range(n), rng.randint(3, n))
            cut = sorted(rng.sample(range(1, len(users)), rng.randint(1, 2)))
            bounds = [0, *cut, len(users)]
            teams = tuple(frozenset(users[a:b]) for a, b in zip(bounds, bounds[1:]))
            cs.append(WL(tuple(scope), teams))
        else:
            s1, s2 = rng.sample(range(k), 2)
            cs.append(ADA(s1, s2,
                          frozenset(rng.sample(range(n), rng.randint(1, n - 1))),
                          frozenset(rng.sample(range(n), rng.randint(1, 3)))))
    return Instance(k, n, AuthorisationFunction.from_lists(lists, n), tuple(cs))


def test_absorb_product_matches_the_family_fold():
    """The static rows equal the fold of `intersect_families` over
    `family_for_constraint`, member for member and in order, with pruning
    and with masks of one, two and three machine words."""
    pruned, widths = 0, set()
    for seed in range(120):
        inst = _wl_ada_instance(seed)
        got = functions(absorb(inst).static_rows, inst.n)
        want = _reference_product(inst)
        assert got == want, seed
        unpruned = 1
        for c in inst.constraints:
            unpruned *= len(c.teams) if isinstance(c, WL) else 2
        pruned += len(got) < unpruned
        widths.add(inst.n)
    assert pruned > 10 and widths == {7, 65, 130}


def test_family_for_matches_the_fold_with_sual():
    """`family_for` at a pattern equals the fold of `intersect_families` over
    every non-UI constraint's `family_for_constraint` there, SUAL included,
    member for member and in order."""
    restricted = 0
    for seed in range(40):
        base = _wl_ada_instance(seed)
        k, n = base.k, base.n
        rng = random.Random(f"sual-fold-{seed}")
        scopes = [rng.sample(range(k), rng.randint(2, k))
                  for _ in range(rng.randint(1, 2))]
        suals = tuple(
            SUAL(tuple(scope), rng.randint(1, len(scope) - 1),
                 frozenset(rng.sample(range(n), rng.randint(1, n - 1))))
            for scope in scopes)
        inst = Instance(k, n, base.auth, base.constraints + suals)
        absorbed = absorb(inst)
        for _ in range(8):
            p = pattern_of(tuple(rng.randrange(3) for _ in range(k)))
            fam = (inst.auth,)
            for c in inst.nonui_constraints():
                fam = intersect_families(fam, family_for_constraint(c, p, k, n))
            assert functions(absorbed.family_for(p), n) == fam, (seed, p)
            restricted += any(sual_restricts(c, p) for c in suals)
    assert restricted > 50


def test_absorbed_family_applies_sual_per_pattern():
    inst = Instance(
        3, 4,
        AuthorisationFunction.total(3, 4),
        (SUAL((0, 1, 2), 1, frozenset({3})),),
    )
    absorbed = absorb(inst)
    merged = absorbed.family_for(Pattern((0, 0, 0)))
    assert merged[0] == (0b1000,) * 3
    spread = absorbed.family_for(Pattern((0, 1, 2)))
    assert spread[0] == (FULL4,) * 3


@pytest.mark.parametrize("kind", CONSTRAINT_KINDS + ("mixed",))
@pytest.mark.parametrize("seed", range(6))
def test_absorption_is_plan_equivalent(kind, seed):
    """Original validity == residual pattern eligibility + family
    authorisation, over every plan of the instance."""
    inst = random_instance(kind, seed, k_max=4, n_max=5)
    absorbed = absorb(inst)
    for plan in itertools.product(range(inst.n), repeat=inst.k):
        p = pattern_of(plan)
        via_cda = (pattern_eligible(p, absorbed.residual)
                   and authorises(functions(absorbed.family_for(p), inst.n), plan))
        assert via_cda == is_valid(plan, inst), (plan, inst)


def test_plan_authorised_cda_wrapper():
    inst = Instance(
        2, 3,
        AuthorisationFunction.total(2, 3),
        (ADA(0, 1, frozenset({0}), frozenset({1})),),
    )
    absorbed = absorb(inst)
    assert plan_authorised_cda((0, 1), absorbed)
    assert not plan_authorised_cda((0, 2), absorbed)
    assert plan_authorised_cda((2, 2), absorbed)


def test_branching_bounds_per_kind():
    k, n = 5, 6
    assert branching_bound(SoD(0, 1), k, n).bound == 1
    assert branching_bound(SUAL((0, 1), 1, frozenset({0})), k, n).bound == 1
    assert branching_bound(ADA(0, 1, frozenset({0}), frozenset({1})), k, n).bound == 2
    wl = WL((0, 1), (frozenset({0}), frozenset({1}), frozenset({2})))
    rep = branching_bound(wl, k, n)
    assert rep.bound == 3
    assert rep.scope_bound == n ** 2
    assert rep.user_bound == (k + 1) ** 3
    assert rep.bound <= min(rep.scope_bound, rep.user_bound)
