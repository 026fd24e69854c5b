"""Encoder tests: Boolean and finite-domain models, plan translation, and
file emission.

The heavy lifting is done by three oracles: `valid_plans_longhand` (direct
definition of validity), full enumeration of tiny CNF lowerings, and a
from-scratch OPB text parser.  Model-level equivalence sweeps at larger
scale live in the acceptance suite.
"""

import gc
import hashlib
import io
import itertools
import json
import types

from math import comb

import pytest

from conftest import (
    CONSTRAINT_KINDS,
    allocated_blocks_left_by,
    random_instance,
    valid_plans_longhand,
)
from encode_oracle import iter_solutions, lower_to_clauses, plan_solutions
from wspkit.core import (
    ADA,
    AtLeast,
    AtMost,
    AuthorisationFunction,
    BoD,
    Instance,
    InvariantError,
    SoD,
    SUAL,
    WL,
    is_valid,
)
from wspkit.generator import GenSpec, derive_seed, generate
from wspkit.encode import (
    SUBSET_ENUM_LIMIT,
    BooleanModel,
    Row,
    _Builder,
    _sequential_counter,
    decode,
    emit_cs_json,
    emit_dimacs,
    emit_opb,
    emit_varmap,
    encode_cs,
    encode_pbpb,
    encode_udpb,
    induced_assignment,
    opb_terms,
)

BOOLEAN_ENCODERS = (encode_udpb, encode_pbpb)


def full_auth(k: int, n: int) -> AuthorisationFunction:
    return AuthorisationFunction.from_lists([list(range(n))] * k, n)


def make(k, n, auth_lists, *constraints) -> Instance:
    auth = AuthorisationFunction.from_lists(auth_lists, n)
    return Instance(k, n, auth, tuple(constraints))


def authorised_plans(inst: Instance):
    return itertools.product(*(inst.auth.users(s) for s in range(inst.k)))


def model_with(*rows, base=None, nvars=0) -> BooleanModel:
    """`base`'s variables and rows, or else `nvars` variables v1.. and no
    rows, plus `rows`, each added through `_Builder.row` as the encoders
    add theirs."""
    if base is None:
        b = _Builder("udpb", make(1, 1, [[0]]))
    else:
        b = _Builder(base.kind, base.instance)
        b.names, b.lits, b.heads = list(base.names), list(base.lits), list(base.heads)
    b.new_vars([f"v{i}" for i in range(1, nvars + 1)])
    for row in rows:
        b.row(row.lits, row.op, row.bound, row.guard)
    return b.build()


def holds(row: Row, *values: int) -> bool:
    """Whether `row`, alone in a model over v1.., holds under `values`."""
    model = model_with(row, nvars=len(values))
    return model.satisfied_by(dict(zip(model.names[1:], values)))


# --- row primitives -----------------------------------------------------------


def test_row_holds_ops():
    vals = (1, 1, 0)  # v1=1 v2=1 v3=0
    assert holds(Row(">=", 2, (1, 2, 3)), *vals)
    assert not holds(Row(">=", 3, (1, 2, 3)), *vals)
    assert holds(Row("<=", 2, (1, 2, 3)), *vals)
    assert not holds(Row("<=", 1, (1, 2, 3)), *vals)
    assert holds(Row("=", 2, (1, 2, 3)), *vals)
    assert not holds(Row("=", 1, (1, 2, 3)), *vals)


def test_row_negated_literals():
    vals = (1, 0)
    assert holds(Row(">=", 2, (1, -2)), *vals)  # v1 true, not-v2 true
    assert not holds(Row(">=", 1, (-1, 2)), *vals)


def test_row_guard_off_means_satisfied():
    row = Row(">=", 1, (1,), guard=2)
    assert holds(row, 0, 0)  # guard false, row inactive
    assert not holds(row, 0, 1)


def test_row_negative_guard():
    row = Row(">=", 1, (1,), guard=-2)
    assert holds(row, 0, 1)   # guard not-v2 is false
    assert not holds(row, 0, 0)


def test_model_validate_rejects_unknown_variable():
    # 0 is never a variable (it ends a row in the literal table), so a guard
    # of 0 is rejected like any unknown variable
    model = encode_udpb(make(1, 1, [[0]]))
    for extra, bad in ((Row(">=", 1, (99,)), 99), (Row(">=", 1, (-99,)), -99),
                       (Row(">=", 1, (1,), guard=-7), -7),
                       (Row(">=", 1, (1,), guard=0), 0)):
        broken = model_with(extra, base=model)
        with pytest.raises(InvariantError, match=f"unknown variable {bad}$"):
            broken.validate()


def test_satisfied_by_rejects_unknown_name():
    model = encode_udpb(make(1, 1, [[0]]))
    with pytest.raises(InvariantError):
        model.satisfied_by({"nope": 1})


# --- fixed tiny examples -------------------------------------------------------


def test_opb_single_step_single_user():
    model = encode_udpb(make(1, 1, [[0]]))
    buf = io.StringIO()
    emit_opb(model, buf)
    assert buf.getvalue() == "* #variable= 1 #constraint= 1\n+1 x1 = 1 ;\n"


def test_udpb_two_step_separation_has_two_solutions():
    inst = make(2, 2, [[0, 1], [0, 1]], SoD(0, 1))
    model = encode_udpb(inst)
    assert model.var_count == 4
    sats = []
    for bits in itertools.product([0, 1], repeat=4):
        a = {model.names[i]: bits[i - 1] for i in range(1, 5)}
        if model.satisfied_by(a):
            sats.append(a)
    assert len(sats) == 2
    assert {decode(a, model) for a in sats} == {(0, 1), (1, 0)}


def test_udpb_counts_whole_benchmark_instance(po_instance):
    # all constraints here are user independent, so the model has no
    # auxiliary variables and satisfying assignments biject with valid plans
    model = encode_udpb(po_instance)
    assert model.var_count == sum(
        len(po_instance.auth.users(s)) for s in range(po_instance.k))
    assert not model.derived and not model.selector_groups
    hits = 0
    for plan in authorised_plans(po_instance):
        a = induced_assignment(plan, model)
        ok = model.satisfied_by(a)
        assert ok == is_valid(plan, po_instance)
        hits += ok
    assert hits == 48


def test_pbpb_at_most_two_fixed_count():
    inst = Instance(3, 3, full_auth(3, 3), (AtMost(2, (0, 1, 2)),))
    model = encode_pbpb(inst)
    valid = [p for p in authorised_plans(inst) if is_valid(p, inst)]
    assert len(valid) == 21  # 27 plans minus the 6 with three distinct users
    induced = set()
    for plan in valid:
        a = induced_assignment(plan, model)
        assert model.satisfied_by(a)
        assert decode(a, model) == plan
        induced.add(tuple(sorted(a.items())))
    assert len(induced) == 21
    # flipping any pairwise-equality variable breaks the model
    a = induced_assignment((0, 0, 1), model)
    for name in ("M0_1", "M1_0", "M0_0", "M1_2"):
        b = dict(a)
        b[name] = 1 - b[name]
        assert not model.satisfied_by(b)


def test_cs_team_constraint_fixed_solution_set():
    inst = Instance(2, 3, full_auth(2, 3),
                    (WL((0, 1), (frozenset({0}), frozenset({1, 2}))),))
    model = encode_cs(inst)
    assert plan_solutions(model) == [
        (0, 0), (1, 1), (1, 2), (2, 1), (2, 2)]


def test_step_with_no_authorised_user():
    inst = make(2, 2, [[], [0, 1]], AtLeast(1, (0, 1)))
    model = encode_udpb(inst)
    assert "falsum" in model.index
    names = model.names[1:]
    for bits in itertools.product([0, 1], repeat=model.var_count):
        assert not model.satisfied_by(dict(zip(names, bits)))
    cs = encode_cs(inst)
    assert cs.variables[0].name == "y0" and cs.variables[0].domain == ()
    assert plan_solutions(cs) == []


# --- variable inventory --------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_variable_counts_closed_form(seed):
    inst = random_instance("sod", seed, k_max=4, n_max=5)
    base = sum(len(inst.auth.users(s)) for s in range(inst.k))
    udpb = encode_udpb(inst)
    pbpb = encode_pbpb(inst)
    assert udpb.var_count == base
    assert pbpb.var_count == base + inst.k * inst.k
    for s in range(inst.k):
        for u in inst.auth.users(s):
            assert udpb.x_index(s, u) is not None
        for u in range(inst.n):
            if not inst.auth.allows(s, u):
                assert udpb.x_index(s, u) is None


def test_exactly_one_row_per_step():
    inst = make(3, 3, [[0, 1], [1, 2], [0, 2]])
    model = encode_udpb(inst)
    eq_rows = [r for r in model.rows if r.op == "=" and r.bound == 1]
    assert len(eq_rows) == 3
    assert all(len(r.lits) == 2 for r in eq_rows)


def test_cs_variables_and_domains():
    inst = make(2, 3, [[0, 2], [1]], SoD(0, 1))
    model = encode_cs(inst)
    assert [(v.name, v.domain) for v in model.variables] == [
        ("y0", (0, 2)), ("y1", (1,))]


def test_cs_row_vocabulary_is_closed():
    known = {"eq", "ne", "nvalue", "select_at_least_one", "cond_exclude",
             "cond_nvalue"}
    for kind in CONSTRAINT_KINDS:
        for seed in range(4):
            model = encode_cs(random_instance(kind, seed, k_max=4, n_max=5))
            assert {row.kind for row in model.rows} <= known


# --- plan <-> assignment translation -------------------------------------------


@pytest.mark.parametrize("encoder", BOOLEAN_ENCODERS)
def test_translation_round_trip(encoder, po_instance):
    model = encoder(po_instance)
    for plan in valid_plans_longhand(po_instance):
        a = induced_assignment(plan, model)
        assert decode(a, model) == plan


def test_induced_assignment_rejects_unauthorised_plan():
    inst = make(2, 2, [[0], [0, 1]])
    model = encode_udpb(inst)
    with pytest.raises(InvariantError):
        induced_assignment((1, 0), model)


def test_induced_assignment_rejects_wrong_length():
    model = encode_udpb(make(2, 2, [[0], [0, 1]]))
    with pytest.raises(InvariantError):
        induced_assignment((0,), model)


def test_decode_rejects_ambiguous_assignment():
    model = encode_udpb(make(1, 2, [[0, 1]]))
    with pytest.raises(InvariantError):
        decode({"x0_0": 1, "x0_1": 1}, model)
    with pytest.raises(InvariantError):
        decode({"x0_0": 0, "x0_1": 0}, model)


def test_pairwise_equality_variables_mirror_the_plan():
    inst = Instance(3, 3, full_auth(3, 3), (SoD(0, 1),))
    model = encode_pbpb(inst)
    for plan in authorised_plans(inst):
        a = induced_assignment(plan, model)
        for s1 in range(3):
            assert a[f"M{s1}_{s1}"] == 1
            for s2 in range(3):
                assert a[f"M{s1}_{s2}"] == int(plan[s1] == plan[s2])
                assert a[f"M{s1}_{s2}"] == a[f"M{s2}_{s1}"]
        for s1, s2, s3 in itertools.permutations(range(3), 3):
            if a[f"M{s1}_{s2}"] and a[f"M{s2}_{s3}"]:
                assert a[f"M{s1}_{s3}"] == 1


def test_structural_rows_force_equality_semantics():
    # a satisfying assignment's M variables must agree with its x variables,
    # so M is not free to deviate from the decoded plan's partition
    inst = Instance(2, 2, full_auth(2, 2), ())
    model = encode_pbpb(inst)
    names = model.names[1:]
    for bits in itertools.product([0, 1], repeat=model.var_count):
        a = dict(zip(names, bits))
        if not model.satisfied_by(a):
            continue
        plan = decode(a, model)
        assert a["M0_1"] == int(plan[0] == plan[1])


def test_usage_variables_follow_their_definition():
    inst = Instance(3, 3, full_auth(3, 3), (AtMost(2, (0, 1, 2)),))
    model = encode_udpb(inst)
    zs = {u: model.names[first + j] for _, _, first, args in model.derived
          for j, u in enumerate(args)}
    assert set(zs) == {0, 1, 2}
    for plan in authorised_plans(inst):
        a = induced_assignment(plan, model)
        for u, name in zs.items():
            assert a[name] == int(u in plan)


def test_representative_variables_follow_their_definition():
    inst = Instance(3, 3, full_auth(3, 3), (AtLeast(2, (0, 1, 2)),))
    model = encode_pbpb(inst)
    reps = {s: model.names[first + j] for _, _, first, args in model.derived
            for j, s in enumerate(args)}
    assert set(reps) == {0, 1, 2}
    for plan in authorised_plans(inst):
        a = induced_assignment(plan, model)
        for s, name in reps.items():
            first = plan[s] not in {plan[t] for t in range(s)}
            assert a[name] == int(first)
        assert sum(a[name] for name in reps.values()) == len(set(plan))


def test_team_selector_takes_first_fitting_team():
    teams = (frozenset({0}), frozenset({1, 2}))
    inst = Instance(2, 3, full_auth(2, 3), (WL((0, 1), teams),))
    model = encode_udpb(inst)
    a = induced_assignment((0, 0), model)
    assert (a["c0_a0"], a["c0_a1"]) == (1, 0)
    a = induced_assignment((1, 2), model)
    assert (a["c0_a0"], a["c0_a1"]) == (0, 1)
    # invalid plan: no team fits, the whole group stays zero
    a = induced_assignment((0, 1), model)
    assert (a["c0_a0"], a["c0_a1"]) == (0, 0)
    assert not model.satisfied_by(a)


def test_conditional_selector_tracks_the_trigger():
    c = ADA(0, 1, frozenset({0}), frozenset({1}))
    inst = Instance(2, 2, full_auth(2, 2), (c,))
    model = encode_udpb(inst)
    a = induced_assignment((0, 1), model)
    assert (a["c0_a1"], a["c0_a2"]) == (1, 0)
    a = induced_assignment((1, 0), model)
    assert (a["c0_a1"], a["c0_a2"]) == (0, 1)
    a = induced_assignment((0, 0), model)  # trigger fires, requirement missed
    assert (a["c0_a1"], a["c0_a2"]) == (0, 0)
    assert not model.satisfied_by(a)


def test_group_selector_matches_block_count():
    c = SUAL((0, 1, 2), 1, frozenset({0}))
    inst = Instance(3, 2, full_auth(3, 2), (c,))
    model = encode_udpb(inst)
    a = induced_assignment((0, 0, 0), model)
    assert (a["c0_g1"], a["c0_g2"]) == (1, 0)
    a = induced_assignment((0, 1, 0), model)
    assert (a["c0_g1"], a["c0_g2"]) == (0, 1)
    # one block but outside the super users: neither alternative fits
    a = induced_assignment((1, 1, 1), model)
    assert (a["c0_g1"], a["c0_g2"]) == (0, 0)
    assert not model.satisfied_by(a)


def test_invalid_plan_violates_some_row(po_instance):
    model = encode_udpb(po_instance)
    bad = (1, 1, 0, 3, 2, 4)  # authorised everywhere, but breaks separation
    assert not is_valid(bad, po_instance)
    a = induced_assignment(bad, model)
    assert not model.satisfied_by(a)


# --- plan-set equivalence ------------------------------------------------------


@pytest.mark.parametrize("kind", CONSTRAINT_KINDS + ("mixed",))
@pytest.mark.parametrize("encoder", BOOLEAN_ENCODERS)
def test_boolean_models_accept_exactly_the_valid_plans(kind, encoder):
    for seed in range(8):
        inst = random_instance(kind, seed, k_max=3, n_max=3)
        truth = valid_plans_longhand(inst)
        model = encoder(inst)
        for plan in authorised_plans(inst):
            a = induced_assignment(plan, model)
            assert model.satisfied_by(a) == (plan in truth), (kind, seed, plan)
            assert decode(a, model) == plan


@pytest.mark.parametrize("kind", CONSTRAINT_KINDS + ("mixed",))
def test_cs_model_solves_to_exactly_the_valid_plans(kind):
    for seed in range(8):
        inst = random_instance(kind, seed, k_max=3, n_max=3)
        truth = valid_plans_longhand(inst)
        model = encode_cs(inst)
        assert set(plan_solutions(model)) == truth, (kind, seed)


def test_cs_solutions_satisfy_the_model():
    inst = random_instance("mixed", 3, k_max=3, n_max=3)
    model = encode_cs(inst)
    for a in iter_solutions(model):
        assert model.satisfied_by(a)


def test_cs_unknown_row_kind_rejected():
    model = encode_cs(make(1, 1, [[0]]))
    from wspkit.encode import CsRow
    with pytest.raises(InvariantError):
        model.row_holds(CsRow("xor", ()), {"y0": 0})


@pytest.mark.parametrize("kind", ("atmost", "atleast", "sual", "mixed"))
def test_cs_model_solves_to_exactly_the_valid_plans_on_wider_scopes(kind):
    # up to 5 steps, so count and SUAL scopes of 4 and 5 steps occur
    for seed in range(10):
        inst = random_instance(kind, seed, k_max=5, n_max=3)
        assert set(plan_solutions(encode_cs(inst))) == valid_plans_longhand(inst), (
            kind, seed)


def test_cs_assignment_outside_the_domains_is_refused():
    model = encode_cs(make(2, 3, [[0, 1], [2]], SoD(0, 1)))
    assert model.satisfied_by({"y0": 1, "y1": 2})
    assert not model.satisfied_by({"y0": 5, "y1": 2})
    assert not model.satisfied_by({"y0": 1})
    with pytest.raises(InvariantError, match="unknown variable 'z'"):
        model.satisfied_by({"y0": 1, "y1": 2, "z": 0})
    assert decode({"y0": 1, "y1": 2}, model) == (1, 2)
    with pytest.raises(InvariantError, match="^step 0 has no authorised user: y0 is 5$"):
        decode({"y0": 5, "y1": 2}, model)
    with pytest.raises(InvariantError, match="^step 1 has no authorised user: y1 is missing$"):
        decode({"y0": 1}, model)


@pytest.mark.parametrize("constraint, kinds", [
    (AtLeast(2, tuple(range(12))), ["nvalue"]),
    (SUAL(tuple(range(12)), 2, frozenset({0})),
     ["select_at_least_one", "cond_nvalue", "cond_nvalue"] + ["cond_exclude"] * 12),
    (AtMost(9, tuple(range(30))), ["nvalue"]),
], ids=["atleast12", "sual12", "atmost30"])
def test_cs_encoding_of_a_wide_scope_is_a_fixed_number_of_rows(constraint, kinds):
    # one count row per bound, however many partitions or subsets the
    # scope has: Bell(12) = 4,213,597 and comb(30, 10) = 30,045,015
    k = len(constraint.scope)
    model = encode_cs(Instance(k, 12, full_auth(k, 12), (SoD(0, 1), constraint)))
    assert [row.kind for row in model.rows] == ["ne"] + kinds


# --- optional transitivity rows ------------------------------------------------


def test_transitivity_rows_are_optional():
    inst = make(3, 2, [[0], [0, 1], [0, 1]], SoD(1, 2))
    with_rows = encode_pbpb(inst, include_transitivity=True)
    without = encode_pbpb(inst, include_transitivity=False)
    assert with_rows.var_count == without.var_count
    # two clauses per ordered triple of distinct steps
    assert len(with_rows.rows) - len(without.rows) == 12
    names = without.names[1:]
    plans_with, plans_without = [], []
    for bits in itertools.product([0, 1], repeat=without.var_count):
        a = dict(zip(names, bits))
        if with_rows.satisfied_by(a):
            plans_with.append(decode(a, with_rows))
        if without.satisfied_by(a):
            plans_without.append(decode(a, without))
    # dropping them may admit extra assignments but never new plans
    assert set(plans_with) == set(plans_without)
    assert set(plans_with) == valid_plans_longhand(inst)
    assert len(plans_with) <= len(plans_without)


# --- subset enumeration versus representative counting --------------------------


def test_at_most_uses_subsets_when_small():
    inst = Instance(3, 3, full_auth(3, 3), (AtMost(1, (0, 1, 2)),))
    model = encode_pbpb(inst)
    assert not model.derived  # pair clauses, no counting variables


def test_at_most_representative_path_is_equivalent(monkeypatch):
    import wspkit.encode as enc
    monkeypatch.setattr(enc, "SUBSET_ENUM_LIMIT", 0)
    for seed in range(6):
        inst = random_instance("atmost", seed, k_max=3, n_max=3)
        truth = valid_plans_longhand(inst)
        model = encode_pbpb(inst)
        if any(isinstance(c, AtMost) for c in inst.constraints):
            assert any(kind == "rep" for kind, *_ in model.derived)
        for plan in authorised_plans(inst):
            a = induced_assignment(plan, model)
            assert model.satisfied_by(a) == (plan in truth)


# --- OPB emission ---------------------------------------------------------------


def parse_opb(text):
    header, rows = None, []
    for line in text.splitlines():
        if line.startswith("*"):
            header = line
            continue
        toks = line.split()
        assert toks[-1] == ";"
        op, rhs = toks[-3], int(toks[-2])
        assert op in (">=", "=")
        terms = []
        for c, v in zip(toks[:-3:2], toks[1:-3:2]):
            assert v.startswith("x")
            terms.append((int(c), int(v[1:])))
        rows.append((terms, op, rhs))
    return header, rows


def opb_satisfied(rows, values):
    for terms, op, rhs in rows:
        total = sum(c for c, v in terms if values[v])
        if op == ">=" and total < rhs:
            return False
        if op == "=" and total != rhs:
            return False
    return True


def test_opb_term_lowering_details():
    assert opb_terms(Row(">=", 1, (1, -2))) == [([(1, 1), (-1, 2)], ">=", 0)]
    assert opb_terms(Row("<=", 0, (3,))) == [([(-1, 3)], ">=", 0)]
    # guard weight is exactly what the row needs when the guard is on
    assert opb_terms(Row(">=", 2, (1, 2, 3), guard=4)) == [
        ([(1, 1), (1, 2), (1, 3), (-2, 4)], ">=", 0)]
    # guarded equality splits into the two guarded inequalities
    assert len(opb_terms(Row("=", 1, (1, 2), guard=3))) == 2


@pytest.mark.parametrize("row", [
    Row(">=", 2, (1, -2, 3)),
    Row("<=", 1, (1, 2, -3)),
    Row("=", 1, (1, 2, 3)),
    Row(">=", 1, (1,), guard=2),
    Row(">=", 1, (1,), guard=-2),
    Row("<=", 0, (1,), guard=3),
    Row("=", 1, (1, -2), guard=3),
    Row(">=", 3, (1, 2), guard=3),
    Row(">=", 3, (1, 2)),
])
def test_opb_lowering_matches_row_semantics(row):
    lowered = opb_terms(row)
    top = max(max(abs(l) for l in row.lits),
              abs(row.guard) if row.guard else 0)
    for bits in itertools.product([False, True], repeat=top):
        values = (False,) + bits
        got = all(sum(c for c, v in terms if values[v]) >= rhs
                  if op == ">=" else
                  sum(c for c, v in terms if values[v]) == rhs
                  for terms, op, rhs in lowered)
        assert got == holds(row, *bits), (row, bits)


@pytest.mark.parametrize("kind", CONSTRAINT_KINDS)
def test_opb_text_round_trips(kind):
    for seed in range(4):
        inst = random_instance(kind, seed, k_max=2, n_max=3)
        for encoder in BOOLEAN_ENCODERS:
            model = encoder(inst)
            if model.var_count > 12:
                continue
            buf = io.StringIO()
            emit_opb(model, buf)
            header, rows = parse_opb(buf.getvalue())
            assert header == (f"* #variable= {model.var_count}"
                              f" #constraint= {len(rows)}")
            names = model.names[1:]
            for bits in itertools.product([0, 1], repeat=model.var_count):
                a = dict(zip(names, bits))
                assert opb_satisfied(rows, (0,) + bits) == model.satisfied_by(a)


def test_opb_separation_clause_shape():
    inst = make(2, 2, [[0, 1], [0, 1]], SoD(0, 1))
    buf = io.StringIO()
    emit_opb(encode_udpb(inst), buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "* #variable= 4 #constraint= 4"
    assert "-1 x1 -1 x3 >= -1 ;" in lines  # not both of a shared user's steps


# --- CNF emission ---------------------------------------------------------------


def cnf_satisfiable(nvars, clauses, fixed):
    """Is there an extension of `fixed` over the remaining variables that
    satisfies every clause?  `fixed` maps variable -> bool.  A plain DPLL:
    set the literal of each clause left with one open literal until none is
    left, fail on a clause left with none, and then try both values of the
    first open variable."""
    values = dict(fixed)
    changed = True
    while changed:
        changed = False
        for cl in clauses:
            open_lits = []
            for lit in cl:
                value = values.get(abs(lit))
                if value is None:
                    open_lits.append(lit)
                elif value == (lit > 0):
                    break
            else:
                if not open_lits:
                    return False
                if len(open_lits) == 1:
                    values[abs(open_lits[0])] = open_lits[0] > 0
                    changed = True
    for v in range(1, nvars + 1):
        if v not in values:
            return any(cnf_satisfiable(nvars, clauses, {**values, v: value})
                       for value in (True, False))
    return True


def assert_counter_exact(length, bound, at_least):
    counter = [length]

    def fresh():
        counter[0] += 1
        return counter[0]

    clauses = _sequential_counter(list(range(1, length + 1)), bound, fresh, (),
                                  at_least)
    if (bound <= 0) if at_least else (bound >= length):
        assert clauses == []
    for bits in itertools.product([False, True], repeat=length):
        fixed = {v: bits[v - 1] for v in range(1, length + 1)}
        reachable = cnf_satisfiable(counter[0], clauses, fixed)
        want = sum(bits) >= bound if at_least else sum(bits) <= bound
        assert reachable == want, (length, bound, at_least, bits)


@pytest.mark.parametrize("length", [1, 2, 3, 4])
@pytest.mark.parametrize("bound", [0, 1, 2, 3, 4])
def test_sequential_counter_exact(length, bound):
    assert_counter_exact(length, bound, at_least=False)


@pytest.mark.parametrize("length", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("bound", [0, 1, 2, 3, 4, 5, 6])
def test_sequential_counter_exact_at_least(length, bound):
    assert_counter_exact(length, bound, at_least=True)


def test_lowering_counts_register_variables():
    inst = Instance(3, 3, full_auth(3, 3), (AtMost(1, (0, 1, 2)),))
    model = encode_udpb(inst)
    nvars, clauses = lower_to_clauses(model)
    assert nvars > model.var_count
    assert all(cl for cl in clauses)


def test_dimacs_separation_clause_shape():
    inst = make(2, 2, [[0, 1], [0, 1]], SoD(0, 1))
    model = encode_udpb(inst)
    buf = io.StringIO()
    emit_dimacs(model, buf)
    lines = buf.getvalue().splitlines()
    nvars, clauses = lower_to_clauses(model)
    assert lines[0] == f"p cnf {nvars} {len(clauses)}"
    assert len(lines) == 1 + len(clauses)
    assert "-1 -3 0" in lines and "-2 -4 0" in lines
    assert all(line.endswith(" 0") for line in lines[1:])


@pytest.mark.parametrize("kind", CONSTRAINT_KINDS)
def test_cnf_lowering_preserves_the_plan_set(kind):
    checked = 0
    for seed in range(6):
        if checked >= 3:
            break
        inst = random_instance(kind, seed, k_max=2, n_max=3)
        truth = valid_plans_longhand(inst)
        for encoder in BOOLEAN_ENCODERS:
            model = encoder(inst)
            nvars, clauses = lower_to_clauses(model)
            if nvars > 13:
                continue
            checked += 1
            plans = set()
            for bits in itertools.product([False, True], repeat=nvars):
                values = (False,) + bits
                if all(any(values[l] if l > 0 else not values[-l] for l in cl)
                       if cl else False
                       for cl in clauses):
                    a = {model.names[i]: int(values[i])
                         for i in range(1, model.var_count + 1)}
                    plans.add(decode(a, model))
            assert plans == truth, (kind, seed, encoder.__name__)
    assert checked  # at least one instance fit under the enumeration cap


def test_cnf_guarded_rows_respect_the_guard():
    # group selectors appear only through guarded rows; check the lowered
    # formula still forces a team choice
    teams = (frozenset({0}), frozenset({1}))
    inst = Instance(2, 2, full_auth(2, 2), (WL((0, 1), teams),))
    model = encode_udpb(inst)
    nvars, clauses = lower_to_clauses(model)
    plans = set()
    for bits in itertools.product([False, True], repeat=nvars):
        values = (False,) + bits
        if all(any(values[l] if l > 0 else not values[-l] for l in cl)
               for cl in clauses):
            a = {model.names[i]: int(values[i])
                 for i in range(1, model.var_count + 1)}
            plans.add(decode(a, model))
    assert plans == {(0, 0), (1, 1)}


@pytest.mark.parametrize("op", [">=", "<=", "="])
def test_cnf_lowering_of_one_row_matches_its_semantics(op):
    # every bound from below 0 to above the row's length, so at-least rows
    # with b on both sides of L/2, unguarded and under either guard sign:
    # the CNF, projected onto the model's own variables, accepts exactly
    # the assignments the row accepts
    checked = 0
    for length in range(1, 7):
        for signs in ((1,) * length, (1, -1) * 3):
            lits = tuple(sign * (i + 1) for i, sign in enumerate(signs[:length]))
            for bound, guard in itertools.product(
                    range(-2, length + 2), (None, length + 1, -length - 1)):
                model = model_with(Row(op, bound, lits, guard), nvars=length + 1)
                nvars, clauses = lower_to_clauses(model)
                for bits in itertools.product([False, True], repeat=length + 1):
                    fixed = dict(enumerate(bits, start=1))
                    want = model.satisfied_by(dict(zip(model.names[1:], bits)))
                    assert cnf_satisfiable(nvars, clauses, fixed) == want, (
                        op, bound, lits, guard, bits)
                checked += 1
    assert checked == 2 * 3 * sum(length + 4 for length in range(1, 7))


# --- sidecars and determinism ----------------------------------------------------


def test_varmap_lines(po_instance):
    model = encode_udpb(po_instance)
    buf = io.StringIO()
    emit_varmap(model, buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == model.var_count
    for i, line in enumerate(lines, start=1):
        name, idx = line.split()
        assert int(idx) == i and name == model.names[i]


def test_varmap_for_cs_model():
    model = encode_cs(make(2, 2, [[0], [0, 1]], SoD(0, 1)))
    buf = io.StringIO()
    emit_varmap(model, buf)
    assert buf.getvalue() == "y0 1\ny1 2\n"


def test_dimacs_writes_varmap_sidecar():
    # the DIMACS file numbers variables only; its sidecar names them
    model = encode_udpb(make(1, 1, [[0]]))
    buf, side = io.StringIO(), io.StringIO()
    emit_dimacs(model, buf)
    emit_varmap(model, side)
    assert buf.getvalue().startswith("p cnf 1 ")
    assert side.getvalue() == "x0_0 1\n"


def test_cs_json_document_shape():
    inst = make(2, 2, [[0, 1], [0, 1]], SoD(0, 1))
    buf = io.StringIO()
    emit_cs_json(encode_cs(inst), buf)
    text = buf.getvalue()
    assert text.endswith("\n") and text == text.rstrip() + "\n"
    doc = json.loads(text)
    assert doc["vars"] == [{"name": "y0", "domain": [0, 1]},
                           {"name": "y1", "domain": [0, 1]}]
    assert doc["constraints"] == [{"kind": "ne", "steps": [0, 1]}]


def test_cs_json_serialises_every_row_kind():
    for kind in CONSTRAINT_KINDS:
        inst = random_instance(kind, 1, k_max=4, n_max=5)
        buf = io.StringIO()
        emit_cs_json(encode_cs(inst), buf)
        json.loads(buf.getvalue())


def assert_emitters_match_row_by_row_lowering(model):
    """emit_opb formats unguarded rows from per-literal strings and
    emit_dimacs joins all clauses at once; both must equal the text of
    `opb_terms` and `lower_to_clauses`, formatted one row at a time."""
    lowered = [t for row in model.rows for t in opb_terms(row)]
    want = f"* #variable= {model.var_count} #constraint= {len(lowered)}\n"
    for terms, op, rhs in lowered:
        want += " ".join(f"{c:+d} x{v}" for c, v in terms)
        want += f" {'>=' if op == '>=' else '='} {rhs} ;\n"
    buf = io.StringIO()
    emit_opb(model, buf)
    assert buf.getvalue() == want

    nvars, clauses = lower_to_clauses(model)
    want = f"p cnf {nvars} {len(clauses)}\n" + "".join(
        " ".join(str(lit) for lit in cl) + " 0\n" for cl in clauses)
    buf = io.StringIO()
    emit_dimacs(model, buf)
    assert buf.getvalue() == want


@pytest.mark.parametrize("kind", CONSTRAINT_KINDS + ("mixed",))
@pytest.mark.parametrize("encoder", BOOLEAN_ENCODERS)
def test_emitters_match_the_row_by_row_lowering(kind, encoder):
    for seed in range(4):
        assert_emitters_match_row_by_row_lowering(
            encoder(random_instance(kind, seed)))


def test_emitters_match_the_row_by_row_lowering_on_negated_literals():
    # the encoders write no unguarded row with a negated literal under
    # "<=", "=" or a bound above 1
    base = encode_udpb(make(2, 2, [[0, 1], [0, 1]]))
    extra = (Row("<=", 1, (1, -2, 3)), Row("=", 1, (-1, 2)),
             Row(">=", 2, (-1, -2, 4)), Row("<=", 0, (-3,), guard=-4))
    assert_emitters_match_row_by_row_lowering(model_with(*extra, base=base))


def test_plain_clauses_with_many_negated_literals():
    # each plain clause's right-hand side is 1 minus its negated literals;
    # 0 to 12 of them, past the few whose line ends the writer keeps ready
    base = encode_udpb(make(4, 3, [[0, 1, 2]] * 4))
    assert base.var_count == 12
    extra = tuple(Row(">=", 1, (*range(-1, -j - 1, -1), *range(j + 1, 13)))
                  for j in range(13))
    model = model_with(*extra, base=base)
    assert_emitters_match_row_by_row_lowering(model)
    buf = io.StringIO()
    emit_opb(model, buf)
    assert buf.getvalue().endswith(
        "".join(f"-1 x{v} " for v in range(1, 13)) + ">= -11 ;\n")


def test_unreachable_bound_writes_an_empty_clause_line():
    # at least 3 of 2 literals lowers to the empty clause, written " 0" on a
    # line of its own between its neighbours' lines
    base = encode_udpb(make(2, 2, [[0, 1], [0, 1]]))
    model = model_with(Row(">=", 1, (1, 2)), Row(">=", 3, (1, 2)),
                       Row(">=", 1, (-3,)), base=base)
    assert lower_to_clauses(model)[1][-3:] == [(1, 2), (), (-3,)]
    buf = io.StringIO()
    emit_dimacs(model, buf)
    assert buf.getvalue().endswith("\n1 2 0\n 0\n-3 0\n")
    assert_emitters_match_row_by_row_lowering(model)


@pytest.mark.parametrize("emitter, encoder", [
    (emit_opb, encode_udpb),
    (emit_opb, encode_pbpb),
    (emit_dimacs, encode_udpb),
    (emit_dimacs, encode_pbpb),
])
def test_emission_is_deterministic(emitter, encoder):
    inst = random_instance("mixed", 7, k_max=4, n_max=5)
    first, second = io.StringIO(), io.StringIO()
    emitter(encoder(inst), first)
    emitter(encoder(inst), second)
    assert first.getvalue() == second.getvalue()
    assert first.getvalue().isascii()


def test_cs_emission_is_deterministic():
    inst = random_instance("mixed", 7, k_max=4, n_max=5)
    first, second = io.StringIO(), io.StringIO()
    emit_cs_json(encode_cs(inst), first)
    emit_cs_json(encode_cs(inst), second)
    assert first.getvalue() == second.getvalue()
    assert first.getvalue().isascii()


# --- pinned output bytes ----------------------------------------------------------

# Draws shaped like perfbench's `export` workload (its seed 81 and salt 4),
# then hand-built cases for branches the generator never draws.  Each entry
# is the first 16 hex digits of the SHA-256 of one model's text in one
# format; for the draws, the texts of all 30 are hashed in draw order.
EXPORT_SHAPE = dict(k=10, n=80, am3=10, sod=7, sual=1, wl=2, ada=2)

PINNED_DIGESTS = {
    "export_draws": {
        "cs.json": "82001354ca086a87",
        "cs.varmap": "f8d797e27334a15e",
        "pbpb.dimacs": "6e17c30a86fd6b11",
        "pbpb.opb": "e4199de97105ab33",
        "pbpb.varmap": "158ea71d2a086510",
        "udpb.dimacs": "6338ea6878698117",
        "udpb.opb": "9d11dad37a439b9e",
        "udpb.varmap": "51bf33f0f64a775f",
    },
    "bod_atleast": {
        "cs.json": "faf8a93ef3c923cf",
        "cs.varmap": "a6616519112a0824",
        "pbpb.dimacs": "5e9bc340d8ead938",
        "pbpb.opb": "d2b2f054bc174075",
        "pbpb.varmap": "b2114cd2d3a63cf1",
        "udpb.dimacs": "5dce67528f504085",
        "udpb.opb": "46e921b64ab34a75",
        "udpb.varmap": "d59eccd49d8e513e",
    },
    "falsum": {
        "cs.json": "744407bc35f0d363",
        "cs.varmap": "22b951c35405eb15",
        "pbpb.dimacs": "2f3ea12f425840de",
        "pbpb.opb": "871697b52722657e",
        "pbpb.varmap": "af84e3104771f1d4",
        "udpb.dimacs": "63f4d8f65410d537",
        "udpb.opb": "dba1b23b3c1692e9",
        "udpb.varmap": "0dad522e1c7d220f",
    },
    "atmost_reps": {
        "cs.json": "9bfa52e6880a713c",
        "cs.varmap": "34b2aa9603b5ce38",
        "pbpb.dimacs": "c7afea8b8c457ef4",
        "pbpb.opb": "ee202fcfb25f6b2d",
        "pbpb.varmap": "959d1c9e7a0aee0f",
        "udpb.dimacs": "3194310f35deef48",
        "udpb.opb": "170a8cc65eb6513e",
        "udpb.varmap": "428a5f352a8d782a",
    },
    "guarded_eq": {
        "udpb.dimacs": "3d49df827a6d3efb",
        "udpb.opb": "d9347fb64b917a42",
        "udpb.varmap": "249b5ac7953a3f6a",
    },
}


def pinned_cases():
    draws = [generate(GenSpec(seed=derive_seed(81, 4, i), **EXPORT_SHAPE))
             for i in range(30)]
    yield "export_draws", draws
    # BoD over shared, left-only and right-only users, and an AtLeast
    yield "bod_atleast", [make(4, 5, [[0, 1, 2], [1, 2, 3], [0, 4], [2, 3, 4]],
                               BoD(0, 1), AtLeast(2, (1, 2, 3)), SoD(2, 3))]
    # step 0 has no authorised user: the falsum pair
    yield "falsum", [make(3, 3, [[], [0, 1], [1, 2]],
                          AtLeast(1, (0, 1)), SoD(1, 2))]
    # comb(8, 4) = 70 forbidden subsets: representative variables
    assert comb(8, 4) > SUBSET_ENUM_LIMIT
    yield "atmost_reps", [Instance(8, 5, full_auth(8, 5),
                                   (AtMost(3, tuple(range(8))),))]


def guarded_equality_model() -> BooleanModel:
    """A UDPB model plus guarded `=` rows, which no encoder writes, under
    positive and negative guards."""
    base = encode_udpb(make(2, 2, [[0, 1], [0, 1]], SoD(0, 1)))
    extra = (Row("=", 1, (1, -2, 3), guard=4), Row("=", 2, (1, 2, 3), guard=-4),
             Row("=", 0, (-1,), guard=2))
    return model_with(*extra, base=base)


def emitted_texts(inst):
    """(key, text) for every format of every model of one instance."""
    models = [("udpb", encode_udpb(inst)), ("pbpb", encode_pbpb(inst))]
    for name, model in models:
        yield from boolean_texts(name, model)
    cs = encode_cs(inst)
    for fmt, emitter in (("json", emit_cs_json), ("varmap", emit_varmap)):
        buf = io.StringIO()
        emitter(cs, buf)
        yield f"cs.{fmt}", buf.getvalue()


def boolean_texts(name, model):
    for fmt, emitter in (("opb", emit_opb), ("dimacs", emit_dimacs),
                         ("varmap", emit_varmap)):
        buf = io.StringIO()
        emitter(model, buf)
        yield f"{name}.{fmt}", buf.getvalue()


def digests(texts) -> dict[str, str]:
    hashers = {}
    for key, text in texts:
        hashers.setdefault(key, hashlib.sha256()).update(text.encode("ascii"))
    return {key: h.hexdigest()[:16] for key, h in hashers.items()}


def pinned_digests() -> dict[str, dict[str, str]]:
    got = {case: digests(t for inst in insts for t in emitted_texts(inst))
           for case, insts in pinned_cases()}
    got["guarded_eq"] = digests(boolean_texts("udpb", guarded_equality_model()))
    return got


def test_emitted_bytes_are_pinned():
    assert pinned_digests() == PINNED_DIGESTS


def export_draws(count: int):
    return [generate(GenSpec(seed=derive_seed(81, 4, i), **EXPORT_SHAPE))
            for i in range(count)]


def gc_tracked_objects(root) -> int:
    """GC-tracked objects reachable from `root`, not counting classes and
    modules."""
    seen, todo, tracked = {id(root)}, [root], 0
    while todo:
        obj = todo.pop()
        tracked += gc.is_tracked(obj)
        for ref in gc.get_referents(obj):
            if id(ref) not in seen and not isinstance(ref, (type, types.ModuleType)):
                seen.add(id(ref))
                todo.append(ref)
    return tracked


@pytest.mark.parametrize("encoder", BOOLEAN_ENCODERS)
def test_models_hold_few_gc_tracked_objects(encoder):
    # every object the collector tracks is walked by each full collection;
    # a model holds its rows in one table, not one object per row
    for inst in export_draws(3):
        model = encoder(inst)
        assert gc_tracked_objects(model) < len(model.rows) / 10


@pytest.mark.parametrize("encoder", BOOLEAN_ENCODERS)
def test_emitters_match_the_row_by_row_lowering_at_n_1000(encoder):
    # an `export`-shaped draw at n=1000: thousands of selector exclusions
    # (`<= 0` under a guard), which the CNF lowering writes without the
    # sequential counter
    inst = generate(GenSpec(seed=derive_seed(81, 4, 0),
                            **dict(EXPORT_SHAPE, n=1000)))
    model = encoder(inst)
    exclusions = sum(1 for head in model.heads
                     if head and head[:2] == ("<=", 0) and head[2] is not None)
    assert exclusions > 1000
    assert_emitters_match_row_by_row_lowering(model)


def test_small_at_least_bounds_lower_to_a_counter_over_their_literals():
    # UDPB's SUAL row in this draw asks for at least 4 of 826 usage
    # variables: written as at most 822 of their negations it took 1.36M
    # of the 1,459,091 clauses, and a counter over the literals needs
    # about 2·L·b; PBPB's at-least rows keep the negated form
    inst = generate(GenSpec(seed=derive_seed(81, 4, 0),
                            **dict(EXPORT_SHAPE, n=1000)))
    assert len(lower_to_clauses(encode_udpb(inst))[1]) < 150_000
    assert len(lower_to_clauses(encode_pbpb(inst))[1]) == 45_455


@pytest.mark.parametrize("encoder", BOOLEAN_ENCODERS)
def test_builds_leave_no_tuples_on_the_free_lists(encoder):
    # CPython 3.11 never hands out a freed 20-item tuple again, and a tuple
    # grown from an iterator and resized is freed onto a free list it was
    # not taken from, so builds that made such tuples would leave blocks
    # allocated, up to 2,000 per length.  This draw's step 8 has 20 users.
    inst = export_draws(1)[0]
    assert inst.auth.mask(8).bit_count() == 20
    assert allocated_blocks_left_by(lambda: encoder(inst), 80) < 50
