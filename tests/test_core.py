"""Plan-level semantics and structural validation."""

import dataclasses
import json
import pickle
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    PO_PLAN,
    allocated_blocks_left_by,
    bits_of_loop,
    mask_of_loop,
    purchase_order_instance,
)
from wspkit.core import (
    ADA,
    AtLeast,
    AtMost,
    AuthorisationFunction,
    BoD,
    CATALOGUE,
    Instance,
    InvariantError,
    SUAL,
    SoD,
    WL,
    bits_list,
    bits_of,
    is_authorised,
    is_eligible,
    is_ui,
    is_valid,
    json_text,
    mask_of,
    violated_constraints,
)
from wspkit.core import _BITS_OF_LOOP_MAX, _MASK_OF_LOOP_MAX


def test_purchase_order_plan_is_valid(po_instance):
    assert is_valid(PO_PLAN, po_instance)


def test_purchase_order_plan_variant_valid(po_instance):
    # same plan with the last step moved to another authorised user
    assert is_valid((0, 1, 0, 3, 2, 5), po_instance)


def test_authorisation_rejects_wrong_user(po_instance):
    assert not is_authorised((0, 1, 0, 3, 2, 0), po_instance.auth)
    assert not is_valid((0, 1, 0, 3, 2, 0), po_instance)


def test_eligibility_per_constraint():
    assert is_eligible((0, 1), SoD(0, 1))
    assert not is_eligible((1, 1), SoD(0, 1))
    assert is_eligible((2, 2), BoD(0, 1))
    assert not is_eligible((2, 3), BoD(0, 1))
    assert is_eligible((0, 0, 1), AtMost(2, (0, 1, 2)))
    assert not is_eligible((0, 1, 2), AtMost(2, (0, 1, 2)))
    assert is_eligible((0, 1, 2), AtLeast(3, (0, 1, 2)))
    assert not is_eligible((0, 0, 2), AtLeast(3, (0, 1, 2)))


def test_sual_semantics():
    c = SUAL((0, 1, 2), 1, frozenset({5}))
    assert is_eligible((5, 5, 5), c)        # one user, a super user
    assert not is_eligible((4, 4, 4), c)    # one user, not a super user
    assert is_eligible((3, 4, 3), c)        # two users exceed h=1: unrestricted


def test_wl_semantics():
    c = WL((0, 1), (frozenset({0, 1}), frozenset({2})))
    assert is_eligible((0, 1), c)
    assert is_eligible((2, 2), c)
    assert not is_eligible((0, 2), c)


def test_ada_semantics():
    c = ADA(0, 1, frozenset({0}), frozenset({1}))
    assert is_eligible((0, 1), c)       # triggered, requirement met
    assert not is_eligible((0, 2), c)   # triggered, requirement broken
    assert is_eligible((2, 2), c)       # not triggered


def test_is_ui_split():
    assert is_ui(SoD(0, 1))
    assert is_ui(BoD(0, 1))
    assert is_ui(AtMost(1, (0, 1)))
    assert is_ui(AtLeast(1, (0, 1)))
    assert not is_ui(SUAL((0, 1), 1, frozenset({0})))
    assert not is_ui(WL((0, 1), (frozenset({0}),)))
    assert not is_ui(ADA(0, 1, frozenset({0}), frozenset({1})))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_ui_constraints_ignore_user_identity(data):
    """Renaming users never changes a user-independent constraint's verdict."""
    k = data.draw(st.integers(2, 6))
    n = data.draw(st.integers(2, 6))
    plan = tuple(data.draw(st.integers(0, n - 1)) for _ in range(k))
    perm = data.draw(st.permutations(list(range(n))))
    renamed = tuple(perm[u] for u in plan)
    s1, s2 = data.draw(st.permutations(list(range(k))))[:2]
    scope = tuple(sorted(data.draw(
        st.sets(st.integers(0, k - 1), min_size=2, max_size=k))))
    r = data.draw(st.integers(1, len(scope)))
    for c in (SoD(s1, s2), BoD(s1, s2), AtMost(r, scope), AtLeast(r, scope)):
        assert is_eligible(plan, c) == is_eligible(renamed, c)


def test_nonui_constraints_can_depend_on_identity():
    """For each catalogue kind outside the user-independent set there are two
    plans with the same grouping but different verdicts."""
    sual = SUAL((0, 1), 1, frozenset({0}))
    assert is_eligible((0, 0), sual) and not is_eligible((1, 1), sual)
    wl = WL((0, 1), (frozenset({0}), frozenset({1})))
    assert is_eligible((0, 0), wl) and not is_eligible((2, 2), wl)
    ada = ADA(0, 1, frozenset({0}), frozenset({1}))
    assert is_eligible((0, 1), ada) and not is_eligible((0, 2), ada)


def test_constraint_validation_errors():
    with pytest.raises(InvariantError):
        SoD(1, 1)
    with pytest.raises(InvariantError):
        BoD(2, 2)
    with pytest.raises(InvariantError):
        AtMost(1, (3,))  # single-step counting scope is vacuous
    with pytest.raises(InvariantError):
        AtLeast(1, (3,))
    with pytest.raises(InvariantError):
        AtMost(0, (0, 1))
    with pytest.raises(InvariantError):
        AtMost(3, (0, 1))
    with pytest.raises(InvariantError):
        AtMost(1, (0, 0, 1))  # repeated scope step
    with pytest.raises(InvariantError):
        SUAL((0, 1), 2, frozenset({0}))  # h must stay below |scope|
    with pytest.raises(InvariantError):
        SUAL((0, 1), 0, frozenset({0}))
    with pytest.raises(InvariantError):
        SUAL((0, 1), 1, frozenset())
    with pytest.raises(InvariantError):
        WL((0, 1), (frozenset({0, 1}), frozenset({1, 2})))  # overlapping teams
    with pytest.raises(InvariantError):
        WL((0, 1), ())
    with pytest.raises(InvariantError):
        ADA(0, 0, frozenset({0}), frozenset({1}))
    with pytest.raises(InvariantError):
        ADA(0, 1, frozenset(), frozenset({1}))


# every message the constructors format on failure, word for word
CONSTRUCTOR_ERRORS = [
    (lambda: SoD(1, 1), "sod: steps must differ"),
    (lambda: SoD(1.0, 2), "sod: step indices must be non-negative integers"),
    (lambda: SoD(-1, 2), "sod: step indices must be non-negative integers"),
    (lambda: SoD(0, "1"), "sod: step indices must be non-negative integers"),
    (lambda: BoD(2, 2), "bod: steps must differ"),
    (lambda: BoD(0, 2.0), "bod: step indices must be non-negative integers"),
    (lambda: BoD(0, -2), "bod: step indices must be non-negative integers"),
    (lambda: ADA(0, 0, {0}, {1}), "ada: steps must differ"),
    (lambda: ADA(1.0, 2, {0}, {1}),
     "ada: step indices must be non-negative integers"),
    (lambda: ADA(-1, 2, {0}, {1}),
     "ada: step indices must be non-negative integers"),
    (lambda: ADA(0, 1, -1, {1}), "ada: a user mask must be non-negative"),
    (lambda: ADA(0, 1, {0}, [1.0]),
     "ada: user indices must be non-negative integers"),
    (lambda: AtMost(1, (0, 0, 1)), "atmost: scope has repeated steps"),
    (lambda: AtMost(1, (0, -1)),
     "atmost: step indices must be non-negative integers"),
    (lambda: AtMost(3, (0, 1)), "atmost: r must lie in [1, 2]"),
    (lambda: AtMost(0, (0, 1, 2)), "atmost: r must lie in [1, 3]"),
    (lambda: AtLeast(1, (2, 2)), "atleast: scope has repeated steps"),
    (lambda: AtLeast(1, (0, 1.5)),
     "atleast: step indices must be non-negative integers"),
    (lambda: AtLeast(4, (0, 1, 2)), "atleast: r must lie in [1, 3]"),
    (lambda: SUAL((0, 1, 1), 1, {0}), "sual: scope has repeated steps"),
    (lambda: SUAL((0, -1), 1, {0}),
     "sual: step indices must be non-negative integers"),
    (lambda: SUAL((0, 1), 2, {0}), "sual: h must lie in [1, 1]"),
    (lambda: SUAL((0, 1, 2), 0, {0}), "sual: h must lie in [1, 2]"),
    (lambda: SUAL((0, 1), 1, -3), "sual: a user mask must be non-negative"),
    (lambda: SUAL((0, 1), 1, ["a"]),
     "sual: user indices must be non-negative integers"),
    (lambda: WL((3, 3), ({0},)), "wl: scope has repeated steps"),
    (lambda: WL((0, 1.0), ({0},)),
     "wl: step indices must be non-negative integers"),
    (lambda: WL((0, 1), (-1,)), "wl: a user mask must be non-negative"),
    (lambda: WL((0, 1), ([-1],)),
     "wl: user indices must be non-negative integers"),
]


@pytest.mark.parametrize("make, message", CONSTRUCTOR_ERRORS,
                         ids=[m for _, m in CONSTRUCTOR_ERRORS])
def test_constructor_errors_keep_their_messages(make, message):
    with pytest.raises(InvariantError, match=f"^{re.escape(message)}$"):
        make()


def test_instance_validation_errors():
    auth = AuthorisationFunction.from_lists([[0], [1]], 2)
    with pytest.raises(InvariantError):
        Instance(2, 2, auth, (SoD(0, 2),))  # step out of range
    with pytest.raises(InvariantError):
        Instance(2, 2, auth, (SUAL((0, 1), 1, frozenset({5})),))  # user out of range
    with pytest.raises(InvariantError):
        Instance(3, 2, auth, ())  # k mismatch
    with pytest.raises(InvariantError):
        Instance(2, 3, auth, ())  # n mismatch


class _DuckSoD:
    """Looks like a SoD to code that reads only `steps`, `s1` and `s2`."""

    steps = (0, 1)
    s1, s2 = 0, 1


@pytest.mark.parametrize("stranger", [object(), (0, 1), _DuckSoD()],
                         ids=["object", "tuple", "duck"])
def test_instance_refuses_constraints_outside_the_catalogue(stranger):
    auth = AuthorisationFunction.total(2, 2)
    name = type(stranger).__name__
    with pytest.raises(InvariantError, match=(
            rf"^instance: {name} is not a constraint of the catalogue "
            r"\(SoD, BoD, AtMost, AtLeast, SUAL, WL, ADA\)$")):
        Instance(2, 2, auth, (SoD(0, 1), stranger))


def test_authorisation_mask_range_errors_name_the_step():
    with pytest.raises(InvariantError,
                       match=r"^authorisation: step 1 names a user outside \[0, 3\)$"):
        AuthorisationFunction(3, (0b111, -1))
    with pytest.raises(InvariantError,
                       match=r"^authorisation: step 2 names a user outside \[0, 3\)$"):
        AuthorisationFunction(3, (0b001, 0b010, 1 << 3))
    assert AuthorisationFunction(3, (0, 0b111)).step_masks == (0, 0b111)


def test_authorisation_range_check_does_not_build_an_n_bit_mask():
    # an n-bit mask takes memory in proportion to n, and 1 << 10**100
    # overflows at once; the check shifts each step's mask instead
    n = 10**100
    auth = AuthorisationFunction(n, (0b11, 0))
    assert auth.to_lists() == [[0, 1], []]
    assert Instance(2, n, auth, (SoD(0, 1),)).n == n
    with pytest.raises(InvariantError,
                       match=r"^authorisation: step 1 names a user outside"):
        AuthorisationFunction(n, (0b1, -1))


def test_authorisation_function_helpers():
    a = AuthorisationFunction.from_lists([[2, 0], [1]], 3)
    assert a.users(0) == (0, 2)
    assert a.allows(0, 2) and not a.allows(0, 1)
    assert a.to_lists() == [[0, 2], [1]]
    assert AuthorisationFunction.total(2, 3).users(1) == (0, 1, 2)
    with pytest.raises(InvariantError):
        AuthorisationFunction(2, (0b100,))  # user 2 outside [0, 2)


def test_empty_authorised_set_is_legal():
    a = AuthorisationFunction.from_lists([[], [0]], 2)
    assert a.users(0) == ()
    assert not is_authorised((0, 0), a)


def test_plan_shape_errors(po_instance):
    with pytest.raises(InvariantError):
        is_valid((0, 1, 0), po_instance)  # too short
    with pytest.raises(InvariantError):
        is_valid((0, 1, 0, 3, 2, 9), po_instance)  # user out of range


def test_violated_constraints_reporting(po_instance):
    bad = (0, 0, 0, 3, 2, 4)  # breaks SoD(0, 1) only
    broken = violated_constraints(bad, po_instance)
    assert broken == [SoD(0, 1)]


def test_instance_constraint_partition():
    inst = purchase_order_instance()
    assert len(inst.ui_constraints()) == 5
    assert inst.nonui_constraints() == ()


# --- user sets as masks --------------------------------------------------------
#
# Each entry builds a constraint whose one varied user set is `users`, given
# as a list, a set or a mask, and names the field that holds it; the other
# user set of an ADA is {0}.

USER_SET_FIELDS = {
    "sual": (lambda users: SUAL((0, 1, 2), 1, users), "supers"),
    "wl": (lambda users: WL((0, 1), (users,)), "teams"),
    "ada-trigger": (lambda users: ADA(0, 1, users, {0}), "trigger"),
    "ada-required": (lambda users: ADA(0, 1, {0}, users), "required"),
}


@pytest.mark.parametrize("kind", USER_SET_FIELDS)
@pytest.mark.parametrize("n", [4, 130])
def test_named_user_must_lie_below_n(kind, n):
    make, _ = USER_SET_FIELDS[kind]
    auth = AuthorisationFunction.total(3, n)
    Instance(3, n, auth, (make([0, n - 1]),))
    name = type(make([0])).__name__
    for users, named in (([0, n], n), (1 | 1 << n, n), ([n + 2, 1], n + 2)):
        with pytest.raises(InvariantError,
                           match=rf"^{name}: user {named} outside \[0, {n}\)$"):
            Instance(3, n, auth, (make(users),))


@pytest.mark.parametrize("kind", USER_SET_FIELDS)
@pytest.mark.parametrize("users", [[-1], [0, -1], [1.0], ["a"], [None], [], set(), 0, -1],
                         ids=["neg", "neg-tail", "float", "str", "none", "empty-list",
                              "empty-set", "empty-mask", "neg-mask"])
def test_bad_user_ids_and_empty_sets_are_rejected(kind, users):
    make, _ = USER_SET_FIELDS[kind]
    with pytest.raises(InvariantError):
        make(users)


def test_overlapping_wl_teams_are_rejected():
    for teams in (({0, 1}, {1, 2}), (0b011, 0b110), ([0, 1], 0b110), ({3}, {0}, [1, 3])):
        with pytest.raises(InvariantError, match="pairwise disjoint"):
            WL((0, 1), teams)
    assert WL((0, 1), ({0, 1}, 0b100, [3])).teams == (0b0011, 0b0100, 0b1000)


@pytest.mark.parametrize("kind", USER_SET_FIELDS)
def test_user_set_forms_compare_hash_and_replace_alike(kind):
    make, field = USER_SET_FIELDS[kind]
    forms = ([5, 0, 3, 3], {0, 3, 5}, frozenset({0, 3, 5}), (u for u in (0, 3, 5)),
             mask_of([0, 3, 5]))
    built = [make(users) for users in forms]
    assert all(c == built[0] and hash(c) == hash(built[0]) for c in built)
    teams = field == "teams"
    assert getattr(built[0], field) == ((0b101001,) if teams else 0b101001)
    assert make([0, 3]) != built[0]
    for c in built:
        assert dataclasses.replace(c) == built[0]
        value = ([5, 3, 0],) if teams else [5, 3, 0]
        assert dataclasses.replace(c, **{field: value}) == built[0]


# one constraint of each catalogue class on steps 0 and 2; the plan (0, 0)
# has no step 2, and user 0 is the trigger, so ADA reads step 2 as well
ON_STEPS_0_AND_2 = {
    SoD: SoD(0, 2), BoD: BoD(0, 2), AtMost: AtMost(1, (0, 2)),
    AtLeast: AtLeast(2, (0, 2)), SUAL: SUAL((0, 2), 1, {0}),
    WL: WL((0, 2), ({0},)), ADA: ADA(0, 2, {0}, {1}),
}


@pytest.mark.parametrize("kind", CATALOGUE, ids=lambda kind: kind.__name__)
def test_eligibility_rejects_a_plan_it_cannot_read(kind):
    c = ON_STEPS_0_AND_2[kind]
    with pytest.raises(InvariantError,
                       match=r"^plan: step 2 outside the plan's 2 steps$"):
        is_eligible((0, 0), c)
    if not is_ui(c):  # a user that is no mask bit
        with pytest.raises(InvariantError, match="invalid user -1"):
            is_eligible((-1, 0, 0), c)


# --- masks --------------------------------------------------------------------


def user_sets(n):
    """User sets over range(n): empty, one bit at either end, and random
    sets on both sides of the sizes where mask_of and bits_of leave their
    loops for linear scans."""
    pick = random.Random(n)
    yield []
    yield [0]
    yield [n - 1]
    for size in (2, _BITS_OF_LOOP_MAX, _BITS_OF_LOOP_MAX + 1,
                 _MASK_OF_LOOP_MAX, _MASK_OF_LOOP_MAX + 1, n // 4, n // 2, n):
        if size <= n:
            yield pick.sample(range(n), size)


@pytest.mark.parametrize("n", [1, 63, 64, 65, 100_000])
def test_mask_of_and_bits_of_match_their_loop_definitions(n):
    for users in user_sets(n):
        mask = mask_of_loop(users)
        assert mask_of(users) == mask
        assert mask_of(tuple(users)) == mask
        assert mask_of(iter(users)) == mask
        assert mask_of(users + users[:70]) == mask   # repeats pack once
        assert bits_of(mask) == bits_of_loop(mask) == tuple(sorted(users))
        assert bits_list(mask) == sorted(users)


def test_mask_of_rejects_negative_users_at_every_size():
    for users in ([-1], [3, -1], list(range(80)) + [-1]):
        with pytest.raises(ValueError):
            mask_of(users)


def test_bits_of_leaves_no_tuples_on_the_free_lists():
    # a tuple grown from an iterator is resized into its final length, and
    # once freed a tuple of up to 20 items waits on that length's free list
    # until a full collection: a call that left one behind would add 500
    # blocks here
    mask = (1 << (_BITS_OF_LOOP_MAX + 3)) - 1
    assert allocated_blocks_left_by(lambda: bits_of(mask), 500) < 50


# --- value classes ------------------------------------------------------------


def every_kind_instance():
    auth = AuthorisationFunction.from_lists(
        [[0, 1, 2], [1, 2, 3], [0, 3], [2, 3, 4], [0, 4]], 70)
    constraints = (SoD(0, 1), BoD(1, 2), AtMost(2, (0, 1, 2)),
                   AtLeast(2, (2, 3, 4)), SUAL((0, 1, 4), 1, {0, 4, 69}),
                   WL((1, 3), ({1, 3}, [2, 4, 68])), ADA(0, 2, {0, 1}, {3}))
    return Instance(5, 70, auth, constraints)


def test_value_classes_pickle_round_trip():
    # calibration with jobs > 1 sends instances to worker processes
    inst = every_kind_instance()
    for obj in (inst, inst.auth, *inst.constraints):
        assert not hasattr(obj, "__dict__")
        back = pickle.loads(pickle.dumps(obj))
        assert back == obj and hash(back) == hash(obj)
        assert type(back) is type(obj)


def test_value_classes_replace_and_stay_frozen():
    inst = every_kind_instance()
    sod, bod, atmost, atleast, sual, wl, ada = inst.constraints
    assert dataclasses.replace(inst) == inst
    fewer = dataclasses.replace(inst, constraints=[sod, ada])
    assert fewer.constraints == (sod, ada)
    assert dataclasses.replace(sod, s2=3) == SoD(0, 3)
    assert dataclasses.replace(bod, s1=0) == BoD(0, 2)
    assert dataclasses.replace(atmost, scope=[2, 0, 1]).scope == (0, 1, 2)
    assert dataclasses.replace(atleast, r=3).r == 3
    assert dataclasses.replace(sual, supers=[1]).supers == 0b10
    assert dataclasses.replace(wl, teams=([0],)).teams == (1,)
    assert dataclasses.replace(ada, required={2}).required == 0b100
    assert dataclasses.replace(inst.auth, step_masks=(1,) * 5).k == 5
    with pytest.raises(InvariantError):
        dataclasses.replace(sod, s2=0)
    for obj in (inst, inst.auth, *inst.constraints):
        field = dataclasses.fields(obj)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, field, 1)


def test_shared_shape_bodies_keep_each_kind_apart():
    # SoD and BoD share the pair body, AtMost and AtLeast the count body
    scope = (0, 1, 2)
    assert SoD(0, 1) != BoD(0, 1)
    assert AtMost(2, scope) != AtLeast(2, scope)
    assert SoD(0, 1) == SoD(0, 1) and AtLeast(2, scope) == AtLeast(2, scope)
    assert repr(SoD(0, 1)) == "SoD(s1=0, s2=1)"
    assert repr(BoD(0, 1)) == "BoD(s1=0, s2=1)"
    assert repr(AtMost(2, scope)) == "AtMost(r=2, scope=(0, 1, 2))"
    assert repr(AtLeast(2, scope)) == "AtLeast(r=2, scope=(0, 1, 2))"
    # the instance file form writes each kind's fields in this order
    order = {cls: [f.name for f in dataclasses.fields(cls)]
             for cls in (SoD, BoD, AtMost, AtLeast, SUAL, WL, ADA)}
    assert order == {SoD: ["s1", "s2"], BoD: ["s1", "s2"],
                     AtMost: ["r", "scope"], AtLeast: ["r", "scope"],
                     SUAL: ["scope", "h", "supers"], WL: ["scope", "teams"],
                     ADA: ["s1", "s2", "trigger", "required"]}


def _json_document(rng: random.Random, depth: int = 0):
    if depth >= 4 or rng.random() < 0.45:
        return rng.choice((
            None, True, False, 0, -7, 2 ** 64, -(3 ** 50), 0.0, -0.0, 1.5,
            1e16, -2.5e-8, 1 / 3, "", "plain", 'quote " and \\ slash',
            "tab\t newline\n nul\x00 bell\x07", "caf\u00e9 \u2028 \U0001f600"))
    width = rng.randint(0, 4)
    if rng.random() < 0.5:
        items = [_json_document(rng, depth + 1) for _ in range(width)]
        if rng.random() < 0.3:
            items = [rng.randint(-9, 2 ** 70) for _ in range(width)]
        return tuple(items) if rng.random() < 0.2 else items
    keys = ("k", "n", "b", "a", "\u00e9", "x\"y", "", "zz")
    return {rng.choice(keys) + str(rng.randint(0, 3)): _json_document(rng, depth + 1)
            for _ in range(width)}


@pytest.mark.parametrize("sort_keys", [False, True])
def test_json_text_matches_json_dumps(sort_keys):
    """`json_text` writes what `json.dumps(doc, indent=2)` writes, on random
    nested documents of every value kind, and on the fixed ones below."""
    rng = random.Random(f"json-text-{sort_keys}")
    docs = [_json_document(rng) for _ in range(1500)]
    docs += [{}, [], {"a": {}, "b": [], "c": [[]], "d": [{}]}, [[1, 2], [3]],
             {"z": 1, "a": [True, None, -0.0, 1e16, 2 ** 100]}, "solo", 5]
    for doc in docs:
        assert json_text(doc, sort_keys=sort_keys) == json.dumps(
            doc, indent=2, sort_keys=sort_keys), doc
