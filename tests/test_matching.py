"""Authorised plans for a pattern by block-user matching."""

import random

import pytest

from conftest import PO_PATTERN_RGS, matching_oracle, purchase_order_instance
from wspkit.core import AuthorisationFunction, InvariantError, is_authorised, mask_of
from wspkit.matching import authorised_plan_for
from wspkit.patterns import Pattern, enumerate_patterns, pattern_of


def test_purchase_order_graph():
    inst = purchase_order_instance()
    plan = authorised_plan_for(Pattern(PO_PATTERN_RGS), inst.auth)
    # block 0 holds steps 0 and 2: authorised sets {0,1} and {0,2} meet in {0}
    assert plan[0] == plan[2] == 0
    assert plan[1] in (1, 2)
    assert plan[5] in (4, 5, 6)


def test_purchase_order_matching_saturates():
    inst = purchase_order_instance()
    p = Pattern(PO_PATTERN_RGS)
    plan = authorised_plan_for(p, inst.auth)
    assert plan is not None
    assert len(set(plan)) == p.block_count == 5
    assert is_authorised(plan, inst.auth)
    assert pattern_of(plan).rgs == PO_PATTERN_RGS


def test_graph_validation():
    with pytest.raises(InvariantError, match="pattern has 2 steps, authorisation 3"):
        authorised_plan_for(Pattern((0, 1)), AuthorisationFunction.total(3, 2))


def test_unsaturatable_pattern_gives_none():
    # two blocks, both adjacent only to user 0
    auth = AuthorisationFunction.from_lists([[0], [0]], 2)
    assert authorised_plan_for(Pattern((0, 1)), auth) is None
    # merging the steps into one block works
    assert authorised_plan_for(Pattern((0, 0)), auth) == (0, 0)


def test_empty_block_adjacency():
    auth = AuthorisationFunction.from_lists([[0, 1], []], 2)
    # block 1 holds only step 1, which nobody may perform
    assert authorised_plan_for(Pattern((0, 1)), auth) is None
    assert authorised_plan_for(Pattern((0, 0)), auth) is None


def test_matching_is_deterministic():
    auth = AuthorisationFunction.from_lists([[0, 1, 2], [0, 1, 2], [0, 1, 2]], 3)
    runs = {authorised_plan_for(Pattern((0, 1, 2)), auth) for _ in range(5)}
    assert len(runs) == 1
    (plan,) = runs
    assert sorted(plan) == [0, 1, 2]


@pytest.mark.parametrize("seed", range(40))
def test_matching_size_matches_exhaustive_oracle(seed):
    """On random block masks (one step per block), a plan comes back iff the
    exhaustive maximum matching covers every block, and the plan is a
    matching along the graph's edges."""
    rng = random.Random(f"matching-{seed}")
    nb = rng.randint(1, 5)
    n = rng.randint(1, 7)
    masks = tuple(rng.getrandbits(n) for _ in range(nb))
    plan = authorised_plan_for(Pattern(tuple(range(nb))),
                               AuthorisationFunction(n, masks))
    assert (plan is not None) == (matching_oracle(masks, n) == nb)
    if plan is not None:
        assert len(set(plan)) == nb
        for b, u in enumerate(plan):
            assert (masks[b] >> u) & 1


@pytest.mark.parametrize("seed", range(25))
def test_authorised_plan_for_is_sound_and_complete(seed):
    """authorised_plan_for finds a plan iff brute force over per-block user
    choices finds one."""
    rng = random.Random(f"saturate-{seed}")
    k = rng.randint(1, 5)
    n = rng.randint(1, 6)
    auth = AuthorisationFunction(
        n, tuple(rng.getrandbits(n) for _ in range(k)))
    for p in enumerate_patterns(k):
        got = authorised_plan_for(p, auth)
        # each block's users: those authorised for every step in it
        masks = [mask_of(u for u in range(n)
                         if all(auth.allows(s, u) for s in block))
                 for block in p.blocks()]
        expect = matching_oracle(masks, n) == p.block_count
        if expect:
            assert got is not None
            assert is_authorised(got, auth)
            assert pattern_of(got).rgs == p.rgs
        else:
            assert got is None
