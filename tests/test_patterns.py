"""Canonical step partitions, their enumeration, and counting."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PO_PATTERN_RGS, PO_PLAN, bell_oracle, pattern_eligible
from wspkit.core import AtLeast, AtMost, BoD, InvariantError, SUAL, SoD, is_eligible
from wspkit.patterns import (
    Pattern,
    bell,
    enumerate_patterns,
    pattern_of,
    pattern_satisfies,
)


def test_purchase_order_pattern():
    assert pattern_of(PO_PLAN).rgs == PO_PATTERN_RGS


def test_pattern_of_relabels_canonically():
    assert pattern_of((7, 7, 2, 7, 9)).rgs == (0, 0, 1, 0, 2)
    assert pattern_of((0,)).rgs == (0,)


def test_pattern_validation():
    Pattern((0, 1, 0, 2))
    with pytest.raises(InvariantError):
        Pattern((1, 0))  # must start at 0
    with pytest.raises(InvariantError):
        Pattern((0, 2))  # skips a label
    with pytest.raises(InvariantError):
        Pattern(())


def test_blocks_and_accessors():
    p = Pattern((0, 1, 0, 2, 1))
    assert p.k == 5
    assert p.block_count == 3


@pytest.mark.parametrize("k", range(0, 16))
def test_bell_matches_stirling_oracle(k):
    assert bell(k) == bell_oracle(k)


def test_bell_known_values():
    assert [bell(k) for k in range(8)] == [1, 1, 2, 5, 15, 52, 203, 877]
    assert bell(10) == 115975


def test_bell_large_argument_is_exact():
    # 30! sized magnitudes; exact integers, no float involvement
    v = bell(30)
    assert isinstance(v, int)
    assert v == 846749014511809332450147


@pytest.mark.parametrize("k", range(1, 9))
def test_enumeration_count_equals_bell(k):
    assert sum(1 for _ in enumerate_patterns(k)) == bell(k)


def test_enumeration_empty_for_zero_steps():
    assert list(enumerate_patterns(0)) == []


def test_enumeration_is_lexicographic_and_duplicate_free():
    seen = [p.rgs for p in enumerate_patterns(5)]
    assert seen == sorted(seen)
    assert len(seen) == len(set(seen))


@pytest.mark.parametrize("k", range(9))
def test_enumerated_patterns_equal_validated_ones(k):
    """Enumeration builds its patterns without `Pattern`'s validation; each
    equals, and hashes as, the pattern built through it."""
    seen = []
    for p in enumerate_patterns(k):
        checked = Pattern(p.rgs)
        assert type(p.rgs) is tuple
        assert p == checked and hash(p) == hash(checked)
        seen.append(p.rgs)
    assert seen == sorted(seen) and len(seen) == (bell(k) if k else 0)
    for bad in ((0, 2), (1,)):
        with pytest.raises(InvariantError):
            Pattern(bad)


def test_pattern_level_checks():
    p = Pattern((0, 1, 0))
    assert pattern_satisfies(p, SoD(0, 1))
    assert not pattern_satisfies(p, SoD(0, 2))
    assert pattern_satisfies(p, BoD(0, 2))
    assert pattern_satisfies(p, AtMost(2, (0, 1, 2)))
    assert not pattern_satisfies(p, AtLeast(3, (0, 1, 2)))
    assert pattern_eligible(p, (SoD(0, 1), BoD(0, 2)))
    with pytest.raises(InvariantError):
        pattern_satisfies(p, SUAL((0, 1), 1, frozenset({0})))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_pattern_check_agrees_with_any_representative_plan(data):
    """A user-independent constraint holds for a plan iff it holds for the
    plan's pattern, whatever users realise the blocks."""
    k = data.draw(st.integers(2, 6))
    plan = tuple(data.draw(st.integers(0, 9)) for _ in range(k))
    p = pattern_of(plan)
    s1, s2 = data.draw(st.permutations(list(range(k))))[:2]
    scope = tuple(sorted(data.draw(
        st.sets(st.integers(0, k - 1), min_size=2, max_size=k))))
    r = data.draw(st.integers(1, len(scope)))
    for c in (SoD(s1, s2), BoD(s1, s2), AtMost(r, scope), AtLeast(r, scope)):
        assert pattern_satisfies(p, c) == is_eligible(plan, c)


def test_pattern_of_is_a_canonicaliser():
    """Two plans map to the same pattern exactly when they group steps the
    same way; every enumerated pattern is hit by some plan."""
    k, n = 4, 4
    by_pattern: dict[tuple[int, ...], set[tuple[int, ...]]] = {}
    for plan in itertools.product(range(n), repeat=k):
        by_pattern.setdefault(pattern_of(plan).rgs, set()).add(plan)
    assert set(by_pattern) == {p.rgs for p in enumerate_patterns(k)}
    for rgs, plans in by_pattern.items():
        for plan in plans:
            grouping = [[s for s in range(k) if plan[s] == plan[t]] for t in range(k)]
            expect = [[s for s in range(k) if rgs[s] == rgs[t]] for t in range(k)]
            assert grouping == expect
