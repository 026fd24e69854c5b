"""Constraint absorption into per-pattern authorisation families."""

import itertools
import operator
import random

import pytest

from absorption_oracle import family_for_constraint, functions, intersect_families
from conftest import (
    CONSTRAINT_KINDS,
    _random_constraint,
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
    is_ui,
    is_valid,
)
from wspkit.absorption import absorb, branching_bound, sual_restricts
from wspkit.generator import GenSpec, derive_seed, generate
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


def _base_family(inst):
    """The base authorisations as a family: empty when some step has no
    authorised user."""
    return (inst.auth,) if all(inst.auth.step_masks) else ()


def _fold(fam, c, p, k, n, whole=True):
    """Intersect each member of `fam` with c's own family at p, in order,
    except that, with `whole`, a member is kept whole where c is an ADA
    that holds on every plan the member authorises: every user it
    authorises at s2 is required.  The ADA's two members then union back
    to that member.  Without `whole` it is the plain fold: every member
    meets every member of c's family."""
    own = family_for_constraint(c, p, k, n)
    out = []
    for member in fam:
        if (whole and isinstance(c, ADA)
                and not member.step_masks[c.s2] & ~c.required):
            out.append(member)
        else:
            out.extend(intersect_families((member,), own))
    return tuple(out)


def _reference_product(inst, whole=True):
    """The WL/ADA product as a fold of the public family operations, each
    ADA keeping whole the members it cannot restrict unless `whole` is
    False."""
    k, n = inst.k, inst.n
    fam = _base_family(inst)
    trivial = Pattern(tuple(range(k)))
    for c in inst.nonui_constraints():
        if not isinstance(c, SUAL):
            fam = _fold(fam, c, trivial, k, n, whole)
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


def _ada_dense_instance(seed):
    """WL and ADA constraints over few s2 steps, with required sets drawn
    from a nested pool and some steps authorised only to required users,
    so that many rows reach an ADA whose s2 users are all required."""
    rng = random.Random(f"ada-dense-{seed}")
    k = rng.randint(2, 6)
    n = rng.choice((7, 65, 130))
    core = rng.sample(range(n), rng.randint(1, 3))
    pool = [frozenset(core),
            frozenset(core + rng.sample(range(n), rng.randint(1, 3)))]
    lists = [rng.sample(core, rng.randint(1, len(core))) if rng.random() < 0.3
             else [u for u in range(n) if rng.random() < 0.6] or core
             for _ in range(k)]
    targets = rng.sample(range(k), min(k, 2))
    cs = []
    for _ in range(rng.randint(2, 6)):
        if rng.random() < 0.2:
            scope = rng.sample(range(k), 2)
            cs.append(WL(tuple(scope), (pool[0], frozenset(range(n)) - pool[0])))
            continue
        s2 = rng.choice(targets)
        s1 = rng.choice([s for s in range(k) if s != s2])
        cs.append(ADA(s1, s2,
                      frozenset(rng.sample(range(n), rng.randint(1, n - 1))),
                      rng.choice(pool)))
    return Instance(k, n, AuthorisationFunction.from_lists(lists, n), tuple(cs))


def test_absorb_product_matches_the_family_fold():
    """The static rows equal the fold of `intersect_families` over
    `family_for_constraint`, each ADA keeping whole the members it cannot
    restrict, member for member and in order, with pruning and with masks
    of one, two and three machine words."""
    pruned, widths = 0, set()
    for inst in ([_wl_ada_instance(seed) for seed in range(120)]
                 + [_ada_dense_instance(seed) for seed in range(60)]):
        got = functions(absorb(inst).static_rows, inst.n)
        want = _reference_product(inst)
        assert got == want, inst
        unpruned = 1
        for c in inst.constraints:
            unpruned *= len(c.teams) if isinstance(c, WL) else 2
        pruned += len(got) < unpruned
        widths.add(inst.n)
    assert pruned > 10 and widths == {7, 65, 130}


def test_absorb_keeps_declaration_order_across_kinds():
    """With UI, SUAL, WL and ADA constraints interleaved, the residual is
    the UI constraints and `suals` the SUALs, each in declaration order, and
    the static rows are still the fold over the WL/ADA constraints."""
    interleaved = 0
    for seed in range(60):
        base = _wl_ada_instance(seed)
        k, n = base.k, base.n
        rng = random.Random(f"interleave-{seed}")
        cs = list(base.constraints)
        for kind in rng.choices(("sod", "bod", "atmost", "atleast", "sual"),
                                k=rng.randint(2, 6)):
            cs.insert(rng.randint(0, len(cs)), _random_constraint(rng, kind, k, n))
        inst = Instance(k, n, base.auth, tuple(cs))
        absorbed = absorb(inst)
        assert absorbed.residual == inst.ui_constraints(), seed
        assert absorbed.suals == tuple(c for c in cs if isinstance(c, SUAL)), seed
        assert functions(absorbed.static_rows, n) == _reference_product(inst), seed
        runs = 1 + sum(is_ui(a) != is_ui(b) for a, b in zip(cs, cs[1:]))
        interleaved += runs >= 3 and len(absorbed.suals) >= 1
    assert interleaved > 20


def test_family_for_matches_the_fold_with_sual():
    """`family_for` at a pattern equals the fold of `intersect_families` over
    every non-UI constraint's `family_for_constraint` there, SUAL included
    and each ADA keeping whole the members it cannot restrict, member for
    member and in order."""
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
            fam = _base_family(inst)
            for c in inst.nonui_constraints():
                fam = _fold(fam, c, p, k, n)
            assert functions(absorbed.family_for(p), n) == fam, (seed, p)
            restricted += any(sual_restricts(c, p) for c in suals)
    assert restricted > 50


def _covered(box, boxes):
    """Is every plan of `box`, a tuple of step masks, in some box of
    `boxes`?  Exact: the part of `box` outside the first box it meets is
    split into disjoint boxes, one for each step where that box misses
    some of it, and each is checked against the boxes after it.  The boxes
    before it meet none of `box`, so they meet none of those parts."""
    if not all(box):
        return True
    for i, other in enumerate(boxes):
        meet = tuple(map(operator.and_, box, other))
        if all(meet):
            break
    else:
        return False
    rest = boxes[i + 1:]
    for s, (mask, kept) in enumerate(zip(box, meet)):
        outside = mask & ~kept
        if outside and not _covered(meet[:s] + (outside,) + box[s + 1:], rest):
            return False
    return True


def _same_union(rows, others):
    """Do the two families of rows authorise exactly the same plans?"""
    return (all(_covered(row, others) for row in rows)
            and all(_covered(row, rows) for row in others))


def test_covered_is_exact_on_every_plan():
    """`_covered` agrees with a walk over every plan of the box, at n=7."""
    rng = random.Random("covered-every-plan")
    disagreed = covered = 0
    for _ in range(300):
        k = rng.randint(1, 3)
        box = tuple(rng.randrange(1, 1 << 7) for _ in range(k))
        boxes = tuple(tuple(rng.randrange(1, 1 << 7) for _ in range(k))
                      for _ in range(rng.randint(0, 6)))
        lists = [[u for u in range(7) if mask >> u & 1] for mask in box]
        truth = all(any(all(b[s] >> u & 1 for s, u in enumerate(plan))
                        for b in boxes)
                    for plan in itertools.product(*lists))
        disagreed += _covered(box, boxes) != truth
        covered += truth
    assert disagreed == 0 and 10 < covered < 290


def test_absorb_authorises_exactly_the_plain_fold():
    """The static rows authorise exactly the plans the plain fold of
    `intersect_families` over `family_for_constraint` authorises, by an
    exact comparison of the two unions of rows, and never number more.
    The seeded WL/ADA draws have masks of one, two and three machine
    words; the ADA-dense draws keep many rows whole."""
    fewer, widths = 0, set()
    for inst in ([_wl_ada_instance(seed) for seed in range(120)]
                 + [_ada_dense_instance(seed) for seed in range(120)]):
        rows = absorb(inst).static_rows
        plain = tuple(fn.step_masks for fn in _reference_product(inst, whole=False))
        assert len(rows) <= len(plain), inst
        assert _same_union(rows, plain), inst
        fewer += len(rows) < len(plain)
        widths.add(inst.n)
    assert fewer > 40 and widths == {7, 65, 130}


def test_alternatives_draws_family_sizes_are_pinned():
    """The family size m summed over the 600 draws of the benchmark's
    `alternatives` workload at seed 81: 234,495 when every row meets both
    cases of every ADA, 181,870 with rows kept whole where an ADA cannot
    bite."""
    total = sum(len(absorb(generate(GenSpec(
        seed=derive_seed(81, 2, i), k=8, n=80, am3=8, sod=10, ada=8,
        wl=2))).static_rows) for i in range(600))
    assert total == 181_870


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
    assert branching_bound(SoD(0, 1)) == 1
    assert branching_bound(SUAL((0, 1), 1, frozenset({0}))) == 1
    assert branching_bound(ADA(0, 1, frozenset({0}), frozenset({1}))) == 2
    wl = WL((0, 1), (frozenset({0}), frozenset({1}), frozenset({2})))
    assert branching_bound(wl) == 3
