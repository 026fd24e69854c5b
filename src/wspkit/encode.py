"""Encapsulated solver-facing formulations of an instance.

Three representations are produced:

* UDPB: Boolean variables x_{s,u} for authorised (s,u) pairs only; one
  exactly-one row per step; user-independent constraints written over x;
  counting constraints via usage indicators z_u with a cardinality bound.
* PBPB: UDPB plus Boolean variables M_{s,t} ("steps s and t share a user")
  for all ordered pairs including the diagonal, with symmetry, diagonal,
  transitivity, and M-to-x linking rows; user-independent constraints are
  then written over M alone, which exposes the step-partition structure to
  the solver.
* CS: integer variables y_s whose domains are the authorised user sets, with
  relational rows (equality, disequality, pair/partition scenarios,
  conditional domain exclusions).

Constraints that restrict user identities (SUAL, WL, ADA) enter all three
through selectors.  SUAL gets two group selectors: g1 picks the partitions
that cover its scope with at most h blocks and confines the scope to the
super users there, g2 picks the rest.  WL and ADA get one selector per
alternative, walked from `absorption.alternatives`, so the encoders encode
exactly the alternatives the solvers branch on.  Every selector reduces to
"selector implies this step avoids these users" rows plus a pick-one row
over its group.

Emission targets are OPB (linear pseudo-Boolean, one row per line), DIMACS
CNF (cardinality rows compiled with sequential counters), and a JSON
document for CS.  All outputs are deterministic: fixed variable order, LF
line endings, ASCII.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from operator import attrgetter
from typing import IO, Iterator, Mapping, Optional, Sequence

from .core import (
    ADA,
    AtLeast,
    AtMost,
    BoD,
    Instance,
    InvariantError,
    SUAL,
    SoD,
    WL,
    bits_of,
    json_text,
)
from .absorption import alternatives
from .patterns import Pattern, enumerate_patterns, pattern_of

# when an at-most constraint would need more forbidden subsets than this,
# switch to representative counting instead of subset enumeration
SUBSET_ENUM_LIMIT = 64


# --- pseudo-Boolean models ---------------------------------------------------


_OPS = frozenset((">=", "<=", "="))


class _Record:
    """A small record that compares, hashes and prints by its slots, in
    order, as a frozen dataclass does, but builds as fast as a plain class:
    the encoders make one per row and per derived variable.  Treat records
    as immutable; nothing stops an assignment to a slot."""

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Row(_Record):
    """One linear row over literals: sum of true literals `op` bound.

    `lits` are signed 1-based variable indices (negative = negated).  A row
    with a `guard` literal is enforced only when the guard is true; guarded
    rows lower to coefficient form in OPB and to guard-weakened clauses in
    DIMACS.
    """

    __slots__ = ("op", "bound", "lits", "guard")

    def __init__(self, op: str, bound: int, lits: tuple[int, ...],
                 guard: Optional[int] = None) -> None:
        if op not in _OPS:
            raise InvariantError(f"row: unknown op {op!r}")
        if not lits:
            raise InvariantError("row: no literals")
        self.op = op  # ">=", "<=", "="
        self.bound = bound
        self.lits = lits
        self.guard = guard

    def holds(self, values: Sequence[bool]) -> bool:
        """Evaluate against values indexed by variable (entry 0 unused)."""
        if self.guard is not None and not _lit_true(self.guard, values):
            return True
        total = sum(1 for lit in self.lits if _lit_true(lit, values))
        if self.op == ">=":
            return total >= self.bound
        if self.op == "<=":
            return total <= self.bound
        return total == self.bound


def _lit_true(lit: int, values: Sequence[bool]) -> bool:
    return bool(values[lit]) if lit > 0 else not values[-lit]


def clause(*lits: int) -> Row:
    return Row(">=", 1, lits)


class DerivedVar(_Record):
    """A variable whose value is a function of the x-variables: usage
    indicators ("z": user `u` performs some scope step) and block
    representatives ("rep": step `s` is the first of its block within the
    scope)."""

    __slots__ = ("index", "kind", "scope", "arg")

    def __init__(self, index: int, kind: str, scope: tuple[int, ...],
                 arg: int) -> None:
        self.index = index
        self.kind = kind  # "z" | "rep"
        self.scope = scope
        self.arg = arg  # user for "z", step for "rep"


@dataclass
class BooleanModel:
    """A pseudo-Boolean formulation plus enough structure to translate plans
    to assignments and back."""

    kind: str  # "udpb" | "pbpb"
    instance: Instance
    names: tuple[str, ...]  # 1-based: names[0] is a placeholder
    index: dict[str, int]
    rows: tuple[Row, ...]
    derived: tuple[DerivedVar, ...]
    selector_groups: tuple[tuple[int, ...], ...]

    @property
    def var_count(self) -> int:
        return len(self.names) - 1

    def x_name(self, s: int, u: int) -> str:
        return f"x{s}_{u}"

    def x_index(self, s: int, u: int) -> Optional[int]:
        return self.index.get(self.x_name(s, u))

    def _values(self, assignment: Mapping[str, int]) -> list[bool]:
        values = [False] * (self.var_count + 1)
        for name, val in assignment.items():
            idx = self.index.get(name)
            if idx is None:
                raise InvariantError(f"assignment names unknown variable {name!r}")
            values[idx] = bool(val)
        return values

    def satisfied_by(self, assignment: Mapping[str, int]) -> bool:
        values = self._values(assignment)
        return all(row.holds(values) for row in self.rows)

    def violated_rows(self, assignment: Mapping[str, int]) -> list[Row]:
        values = self._values(assignment)
        return [row for row in self.rows if not row.holds(values)]

    def validate(self) -> None:
        """Internal consistency: every referenced variable is in the table."""
        v = self.var_count
        seen = set(itertools.chain.from_iterable(map(attrgetter("lits"), self.rows)))
        seen.update([row.guard for row in self.rows if row.guard])
        if not seen or (-v <= min(seen) and max(seen) <= v and 0 not in seen):
            return
        for row in self.rows:
            for lit in row.lits + ((row.guard,) if row.guard else ()):
                if not 1 <= abs(lit) <= v:
                    raise InvariantError(f"row references unknown variable {lit}")


class _Builder:
    def __init__(self, kind: str, inst: Instance) -> None:
        self.kind = kind
        self.inst = inst
        self.names: list[str] = ["<0>"]
        self.index: dict[str, int] = {}
        self.rows: list[Row] = []
        self.derived: list[DerivedVar] = []
        self.selector_groups: list[tuple[int, ...]] = []
        # x[s][u]: index of x{s}_{u}, 0 when u is not authorised for s
        self.x: list[list[int]] = []

    def var(self, name: str) -> int:
        got = self.index.get(name)
        if got is not None:
            return got
        idx = len(self.names)
        self.names.append(name)
        self.index[name] = idx
        return idx

    def add(self, row: Row) -> None:
        self.rows.append(row)

    def build(self) -> BooleanModel:
        model = BooleanModel(
            kind=self.kind,
            instance=self.inst,
            names=tuple(self.names),
            index=dict(self.index),
            rows=tuple(self.rows),
            derived=tuple(self.derived),
            selector_groups=tuple(self.selector_groups),
        )
        model.validate()
        return model


def _add_base(b: _Builder) -> None:
    """x-variables for authorised pairs, exactly-one per step; a step with no
    authorised user gets an unsatisfiable falsum pair instead of an empty
    row."""
    inst = b.inst
    steps = [inst.auth.users(s) for s in range(inst.k)]
    for s, users in enumerate(steps):
        xs = [0] * inst.n
        for u in users:
            xs[u] = b.var(f"x{s}_{u}")
        b.x.append(xs)
    if not all(steps):
        f = b.var("falsum")
        b.add(clause(f))
        b.add(clause(-f))
    for xs, users in zip(b.x, steps):
        if users:
            b.add(Row("=", 1, tuple([xs[u] for u in users])))


def _usage_vars(b: _Builder, ci: int, scope: Sequence[int]) -> list[int]:
    """z-variables: one per user authorised somewhere in the scope, tied to
    the scope's x-variables in both directions."""
    auth = b.inst.auth
    support = 0
    for s in scope:
        support |= auth.mask(s)
    table = [b.x[s] for s in scope]
    scope = tuple(scope)
    add = b.rows.append
    zs = []
    for u in bits_of(support):
        z = b.var(f"c{ci}_z{u}")
        b.derived.append(DerivedVar(z, "z", scope, u))
        xs = [step_x[u] for step_x in table if step_x[u]]
        for x in xs:
            add(clause(-x, z))
        add(clause(-z, *xs))
        zs.append(z)
    return zs


def _rep_vars(b: _Builder, ci: int, scope: Sequence[int],
              same: list[list[int]]) -> list[int]:
    """Representative variables over M (`same[s][t]` is M{s}_{t}): rep_s is
    true iff no earlier scope step shares s's user, so their sum counts
    distinct users on the scope."""
    steps = sorted(scope)
    reps = []
    for i, s in enumerate(steps):
        rep = b.var(f"c{ci}_rep{s}")
        b.derived.append(DerivedVar(rep, "rep", tuple(steps), s))
        earlier = [same[t][s] for t in steps[:i]]
        if not earlier:
            b.add(clause(rep))
        else:
            for m in earlier:
                b.add(clause(-rep, -m))
            b.add(clause(rep, *earlier))
        reps.append(rep)
    return reps


def _exclusions(b: _Builder, sel: int, s: int, allowed_mask: int) -> None:
    """selector -> step s avoids every authorised user outside `allowed_mask`.

    Emitted as guarded rows (not plain clauses) so the selector's meaning
    stays attached to it; they lower to the same two-literal clauses.
    """
    xs = b.x[s]
    for u in bits_of(b.inst.auth.mask(s) & ~allowed_mask):
        b.add(Row("<=", 0, (xs[u],), guard=sel))


def _sual_groups(b: _Builder, ci: int, c: SUAL, count_lits: list[int]) -> None:
    """Two group selectors: g1 takes the scope-on-few-blocks class and
    restricts scope steps to the super users; g2 takes the complement class.
    `count_lits` must sum to the number of distinct users on the scope."""
    g1 = b.var(f"c{ci}_g1")
    g2 = b.var(f"c{ci}_g2")
    b.selector_groups.append((g1, g2))
    b.add(clause(g1, g2))
    b.add(Row("<=", c.h, tuple(count_lits), guard=g1))
    b.add(Row(">=", c.h + 1, tuple(count_lits), guard=g2))
    for s in c.scope:
        _exclusions(b, g1, s, c.supers)


def _named_alternatives(ci: int, c: WL | ADA, n: int) -> list[tuple[str, tuple]]:
    """The constraint's alternatives, each with its selector name c{ci}_a{j}:
    WL numbers its teams from 0, ADA its two cases from 1."""
    first = 0 if isinstance(c, WL) else 1
    return [(f"c{ci}_a{first + j}", alt) for j, alt in enumerate(alternatives(c, n))]


def _selectors(b: _Builder, ci: int, c: WL | ADA) -> None:
    """One selector per alternative, at least one of them true, each forcing
    its steps into the masks of its alternative."""
    named = _named_alternatives(ci, c, b.inst.n)
    sels = [b.var(name) for name, _ in named]
    b.selector_groups.append(tuple(sels))
    b.add(clause(*sels))
    for sel, (_, alt) in zip(sels, named):
        for s, mask in alt:
            _exclusions(b, sel, s, mask)


def encode_udpb(inst: Instance) -> BooleanModel:
    """User-dependent Boolean formulation."""
    b = _Builder("udpb", inst)
    _add_base(b)
    auth = inst.auth
    x = b.x
    for ci, c in enumerate(inst.constraints):
        if isinstance(c, SoD):
            x1, x2 = x[c.s1], x[c.s2]
            for u in bits_of(auth.mask(c.s1) & auth.mask(c.s2)):
                b.add(clause(-x1[u], -x2[u]))
        elif isinstance(c, BoD):
            m1, m2 = auth.mask(c.s1), auth.mask(c.s2)
            x1, x2 = x[c.s1], x[c.s2]
            for u in bits_of(m1 & m2):
                b.add(Row("=", 1, (x1[u], -x2[u])))
            for u in bits_of(m1 & ~m2):
                b.add(clause(-x1[u]))
            for u in bits_of(m2 & ~m1):
                b.add(clause(-x2[u]))
        elif isinstance(c, (AtMost, AtLeast)):
            zs = _usage_vars(b, ci, c.scope)
            if zs:
                op = "<=" if isinstance(c, AtMost) else ">="
                b.add(Row(op, c.r, tuple(zs)))
            elif isinstance(c, AtLeast):
                # no user can reach the scope; the base rows are already
                # unsatisfiable, so the bound needs no row of its own
                pass
        elif isinstance(c, SUAL):
            zs = _usage_vars(b, ci, c.scope)
            if zs:
                _sual_groups(b, ci, c, zs)
        elif isinstance(c, (WL, ADA)):
            _selectors(b, ci, c)
        else:
            raise InvariantError(
                f"no encoding for constraint type {type(c).__name__}")
    return b.build()


def encode_pbpb(inst: Instance, include_transitivity: bool = True) -> BooleanModel:
    """Pattern-based Boolean formulation: the UDPB base plus same-user
    variables M and structural rows, with user-independent constraints
    expressed over M only.

    The transitivity rows are logically implied by the M-to-x linking rows;
    `include_transitivity=False` drops them (they exist to help solvers
    propagate, not to change the solution set).
    """
    b = _Builder("pbpb", inst)
    _add_base(b)
    auth = inst.auth
    k = inst.k
    m = [[b.var(f"M{s1}_{s2}") for s2 in range(k)] for s1 in range(k)]

    for s in range(k):
        b.add(Row("=", 1, (m[s][s],)))
    for s1 in range(k):
        for s2 in range(s1 + 1, k):
            b.add(Row("=", 1, (m[s1][s2], -m[s2][s1])))
    add = b.rows.append
    if include_transitivity:
        for s1, s2, s3 in itertools.permutations(range(k), 3):
            add(clause(-m[s1][s2], -m[s2][s3], m[s1][s3]))
            add(clause(m[s1][s2], -m[s2][s3], -m[s1][s3]))
    x = b.x
    for s1 in range(k):
        for s2 in range(s1 + 1, k):
            mm = m[s1][s2]
            a1, a2 = auth.mask(s1), auth.mask(s2)
            xs1, xs2 = x[s1], x[s2]
            for u in bits_of(a1 & a2):
                x1, x2 = xs1[u], xs2[u]
                add(clause(-mm, -x1, x2))
                add(clause(-mm, -x2, x1))
                add(clause(mm, -x1, -x2))
            for u in bits_of(a1 & ~a2):
                add(clause(-mm, -xs1[u]))
            for u in bits_of(a2 & ~a1):
                add(clause(-mm, -xs2[u]))

    for ci, c in enumerate(inst.constraints):
        if isinstance(c, SoD):
            b.add(Row("=", 0, (m[c.s1][c.s2],)))
        elif isinstance(c, BoD):
            b.add(Row("=", 1, (m[c.s1][c.s2],)))
        elif isinstance(c, AtMost):
            if comb(len(c.scope), c.r + 1) <= SUBSET_ENUM_LIMIT:
                for sub in itertools.combinations(c.scope, c.r + 1):
                    b.add(clause(*(m[s1][s2]
                                   for s1, s2 in itertools.combinations(sub, 2))))
            else:
                reps = _rep_vars(b, ci, c.scope, m)
                b.add(Row("<=", c.r, tuple(reps)))
        elif isinstance(c, AtLeast):
            reps = _rep_vars(b, ci, c.scope, m)
            b.add(Row(">=", c.r, tuple(reps)))
        elif isinstance(c, SUAL):
            reps = _rep_vars(b, ci, c.scope, m)
            _sual_groups(b, ci, c, reps)
        elif isinstance(c, (WL, ADA)):
            _selectors(b, ci, c)
        else:
            raise InvariantError(
                f"no encoding for constraint type {type(c).__name__}")
    return b.build()


# --- plan <-> assignment translation ----------------------------------------


def induced_assignment(plan: Sequence[int], model: BooleanModel) -> dict[str, int]:
    """The total assignment a plan induces on a Boolean model.

    x-variables follow the plan, M-variables its step partition, derived
    variables their definitions.  Selector variables take the
    lexicographically first alternative whose guarded rows the plan
    satisfies; when none fits (the plan violates that constraint) the whole
    group stays zero, which falsifies the group's pick-one row.
    """
    inst = model.instance
    if len(plan) != inst.k:
        raise InvariantError(f"plan covers {len(plan)} steps, instance has {inst.k}")
    assignment = {name: 0 for name in model.names[1:]}
    for s, u in enumerate(plan):
        idx = model.x_index(s, u)
        if idx is None:
            raise InvariantError(
                f"plan assigns step {s} to unauthorised user {u}; "
                f"no such variable in the model")
        assignment[model.names[idx]] = 1
    if model.kind == "pbpb":
        for s1 in range(inst.k):
            for s2 in range(inst.k):
                assignment[f"M{s1}_{s2}"] = int(plan[s1] == plan[s2])
    for dv in model.derived:
        if dv.kind == "z":
            assignment[model.names[dv.index]] = int(
                any(plan[s] == dv.arg for s in dv.scope))
        else:
            earlier = {plan[t] for t in dv.scope if t < dv.arg}
            assignment[model.names[dv.index]] = int(plan[dv.arg] not in earlier)

    values = [False] * (model.var_count + 1)
    for name, val in assignment.items():
        values[model.index[name]] = bool(val)
    guarded: dict[int, list[Row]] = {}
    for row in model.rows:
        if row.guard is not None:
            guarded.setdefault(row.guard, []).append(row)
    for group in model.selector_groups:
        for sel in group:
            values[sel] = True
            ok = all(row.holds(values) for row in guarded.get(sel, ()))
            values[sel] = False
            if ok:
                assignment[model.names[sel]] = 1
                values[sel] = True
                break
    return assignment


def decode(assignment, model) -> tuple[int, ...]:
    """Read the plan off a satisfying assignment (Boolean models) or a
    solution (CS models)."""
    if isinstance(model, CSModel):
        return tuple(int(assignment[f"y{s}"]) for s in range(model.instance.k))
    inst = model.instance
    plan = []
    for s in range(inst.k):
        chosen = [u for u in inst.auth.users(s)
                  if assignment.get(model.x_name(s, u))]
        if len(chosen) != 1:
            raise InvariantError(
                f"step {s} has {len(chosen)} selected users; expected exactly 1")
        plan.append(chosen[0])
    return tuple(plan)


# --- constraint-satisfaction model -------------------------------------------


@dataclass(frozen=True)
class CsVar:
    name: str
    domain: tuple[int, ...]


@dataclass(frozen=True)
class CsRow:
    kind: str
    args: tuple[tuple[str, object], ...]  # ordered (key, value) pairs

    def arg(self, key: str):
        for k, v in self.args:
            if k == key:
                return v
        raise KeyError(key)


def _cs_row(kind: str, **kwargs) -> CsRow:
    return CsRow(kind, tuple(kwargs.items()))


def _scope_rgs(values: Sequence[int]) -> tuple[int, ...]:
    return pattern_of(tuple(values)).rgs


def _partitions_with(scope_len: int, want) -> tuple[tuple[int, ...], ...]:
    return tuple(p.rgs for p in enumerate_patterns(scope_len)
                 if want(p.block_count))


@dataclass
class CSModel:
    """Finite-domain formulation: y_s ranges over the step's authorised
    users; selector variables are 0/1 ints."""

    instance: Instance
    variables: tuple[CsVar, ...]
    rows: tuple[CsRow, ...]

    def domain_of(self, name: str) -> tuple[int, ...]:
        for v in self.variables:
            if v.name == name:
                return v.domain
        raise KeyError(name)

    def row_holds(self, row: CsRow, a: Mapping[str, int]) -> bool:
        kind = row.kind
        if kind == "eq":
            s1, s2 = row.arg("steps")
            return a[f"y{s1}"] == a[f"y{s2}"]
        if kind == "ne":
            s1, s2 = row.arg("steps")
            return a[f"y{s1}"] != a[f"y{s2}"]
        if kind == "some_pair_equal":
            vals = [a[f"y{s}"] for s in row.arg("scope")]
            return len(set(vals)) < len(vals)
        if kind == "scope_pattern_in":
            vals = [a[f"y{s}"] for s in row.arg("scope")]
            return _scope_rgs(vals) in row.arg("allowed")
        if kind == "select_at_least_one":
            return any(a[name] for name in row.arg("selectors"))
        if kind == "cond_exclude":
            if not a[row.arg("selector")]:
                return True
            return a[f"y{row.arg('step')}"] not in row.arg("users")
        if kind == "cond_scope_pattern_in":
            if not a[row.arg("selector")]:
                return True
            vals = [a[f"y{s}"] for s in row.arg("scope")]
            return _scope_rgs(vals) in row.arg("allowed")
        raise InvariantError(f"unknown CS row kind {kind!r}")

    def satisfied_by(self, assignment: Mapping[str, int]) -> bool:
        return all(self.row_holds(row, assignment) for row in self.rows)

    def iter_solutions(self) -> Iterator[dict[str, int]]:
        """Every satisfying assignment (selectors included), in lexicographic
        variable-domain order.  Exhaustive; meant for small instances."""
        names = [v.name for v in self.variables]
        domains = [v.domain for v in self.variables]
        for combo in itertools.product(*domains):
            a = dict(zip(names, combo))
            if self.satisfied_by(a):
                yield a

    def plan_solutions(self) -> list[tuple[int, ...]]:
        """Distinct plans among the solutions, in lexicographic order."""
        k = self.instance.k
        seen = []
        last = None
        for a in self.iter_solutions():
            plan = tuple(a[f"y{s}"] for s in range(k))
            if plan != last:
                seen.append(plan)
                last = plan
        return sorted(set(seen))


def encode_cs(inst: Instance) -> CSModel:
    """Finite-domain formulation.  A step with no authorised users yields an
    empty domain, making the model trivially unsatisfiable."""
    variables = [CsVar(f"y{s}", inst.auth.users(s)) for s in range(inst.k)]
    rows: list[CsRow] = []

    def selector(name: str) -> str:
        variables.append(CsVar(name, (0, 1)))
        return name

    def exclude(sel: str, s: int, allowed_mask: int) -> None:
        banned = bits_of(inst.auth.mask(s) & ~allowed_mask)
        if banned:
            rows.append(_cs_row("cond_exclude", selector=sel, step=s,
                                users=banned))

    for ci, c in enumerate(inst.constraints):
        if isinstance(c, SoD):
            rows.append(_cs_row("ne", steps=(c.s1, c.s2)))
        elif isinstance(c, BoD):
            rows.append(_cs_row("eq", steps=(c.s1, c.s2)))
        elif isinstance(c, AtMost):
            for sub in itertools.combinations(c.scope, c.r + 1):
                rows.append(_cs_row("some_pair_equal", scope=sub))
        elif isinstance(c, AtLeast):
            rows.append(_cs_row(
                "scope_pattern_in",
                scope=c.scope,
                allowed=_partitions_with(len(c.scope), lambda bc: bc >= c.r)))
        elif isinstance(c, SUAL):
            g1 = selector(f"c{ci}_g1")
            g2 = selector(f"c{ci}_g2")
            rows.append(_cs_row("select_at_least_one", selectors=(g1, g2)))
            rows.append(_cs_row(
                "cond_scope_pattern_in", selector=g1, scope=c.scope,
                allowed=_partitions_with(len(c.scope), lambda bc: bc <= c.h)))
            rows.append(_cs_row(
                "cond_scope_pattern_in", selector=g2, scope=c.scope,
                allowed=_partitions_with(len(c.scope), lambda bc: bc > c.h)))
            for s in c.scope:
                exclude(g1, s, c.supers)
        elif isinstance(c, (WL, ADA)):
            named = _named_alternatives(ci, c, inst.n)
            sels = tuple(selector(name) for name, _ in named)
            rows.append(_cs_row("select_at_least_one", selectors=sels))
            for sel, (_, alt) in zip(sels, named):
                for s, mask in alt:
                    exclude(sel, s, mask)
        else:
            raise InvariantError(
                f"no encoding for constraint type {type(c).__name__}")
    return CSModel(inst, tuple(variables), tuple(rows))


# --- emission ----------------------------------------------------------------


def opb_terms(row: Row) -> list[tuple[list[tuple[int, int]], str, int]]:
    """Lower a row to OPB form: (terms, op, rhs) with terms as (coef, var).

    Negated literals become negative unit coefficients with an adjusted
    right-hand side.  A guard literal g turns "sum op bound" into an
    implication by giving not-g a weight big enough to satisfy the row
    alone, which makes the guard coefficient the one non-unit weight in the
    output.  Guarded equalities split into two implications.
    """
    if row.op == "=" and row.guard is not None:
        lo = Row(">=", row.bound, row.lits, row.guard)
        hi = Row("<=", row.bound, row.lits, row.guard)
        return opb_terms(lo) + opb_terms(hi)
    terms = []
    rhs = row.bound
    for lit in row.lits:
        if lit > 0:
            terms.append((1, lit))
        else:
            terms.append((-1, -lit))
            rhs -= 1
    if row.op == "<=":
        terms = [(-c, v) for c, v in terms]
        op, rhs = ">=", -rhs
    else:
        op = row.op
    if row.guard is not None:
        # op is ">=" here; give the guard's false polarity enough weight to
        # satisfy the row on its own (sum >= rhs - need holds always, since
        # rhs - need is the smallest value the sum can take)
        low = sum(min(c, 0) for c, _ in terms)
        need = rhs - low
        if need > 0:
            if row.guard > 0:
                terms.append((-need, row.guard))
                rhs -= need
            else:
                terms.append((need, -row.guard))
    return [(terms, op, rhs)]


def _format_opb_row(terms: list[tuple[int, int]], op: str, rhs: int) -> str:
    parts = [f"{c:+d} x{v}" for c, v in terms]
    sym = op if op == ">=" else "="
    return " ".join(parts) + f" {sym} {rhs} ;"


def emit_opb(model: BooleanModel, sink: IO[str]) -> None:
    """Linear pseudo-Boolean text: standard counts header, one row per
    line.

    Unguarded rows have unit coefficients, so they are formatted straight
    from their literals: `term[lit]` is a literal's text ("+1 xv" for v,
    "-1 xv" for -v), and `flipped[lit]` that of its negation, which a `<=`
    row uses once turned into `>=`.  The selector exclusion "guard g implies
    not x_v" (`_exclusions`, most guarded rows) is written in the fixed form
    that `opb_terms` gives it, `-1 xv -1 xg >= -1`; every other guarded row
    goes through `opb_terms`.
    """
    v = model.var_count
    term = {}
    for i in range(1, v + 1):
        term[i] = f"+1 x{i}"
        term[-i] = f"-1 x{i}"
    flipped = {-lit: text for lit, text in term.items()}
    negative = (0).__gt__
    lines = []
    for row in model.rows:
        lits = row.lits
        guard = row.guard
        if guard is not None:
            if (guard > 0 and row.bound == 0 and row.op == "<=" and len(lits) == 1
                    and lits[0] > 0):
                lines.append(f"{flipped[lits[0]]} {flipped[guard]} >= -1 ;\n")
            else:
                lines.extend(_format_opb_row(*lowered) + "\n"
                             for lowered in opb_terms(row))
            continue
        rhs = row.bound - sum(map(negative, lits))
        if row.op == "<=":
            lines.append(f"{' '.join(map(flipped.__getitem__, lits))} >= {-rhs} ;\n")
        else:
            lines.append(f"{' '.join(map(term.__getitem__, lits))} {row.op} {rhs} ;\n")
    sink.write(f"* #variable= {v} #constraint= {len(lines)}\n" + "".join(lines))


def emit_varmap(model, sink: IO[str]) -> None:
    """Sidecar name-to-index map, one `name index` line per variable."""
    if isinstance(model, CSModel):
        for i, v in enumerate(model.variables, start=1):
            sink.write(f"{v.name} {i}\n")
        return
    for idx in range(1, model.var_count + 1):
        sink.write(f"{model.names[idx]} {idx}\n")


def _sequential_counter(lits: Sequence[int], bound: int, fresh, extra: tuple[int, ...]):
    """Clauses forcing sum(lits) <= bound, via a sequential counter with
    fresh register variables; `extra` literals are appended to every clause
    (the guard escape)."""
    out = []
    L = len(lits)
    if bound >= L:
        return out
    if bound <= 0:
        for lit in lits:
            out.append((-lit,) + extra)
        return out
    reg = [[fresh() for _ in range(bound)] for _ in range(L - 1)]
    out.append((-lits[0], reg[0][0]) + extra)
    for j in range(1, bound):
        out.append((-reg[0][j],) + extra)
    for i in range(1, L - 1):
        out.append((-lits[i], reg[i][0]) + extra)
        out.append((-reg[i - 1][0], reg[i][0]) + extra)
        for j in range(1, bound):
            out.append((-lits[i], -reg[i - 1][j - 1], reg[i][j]) + extra)
            out.append((-reg[i - 1][j], reg[i][j]) + extra)
        out.append((-lits[i], -reg[i - 1][bound - 1]) + extra)
    out.append((-lits[L - 1], -reg[L - 2][bound - 1]) + extra)
    return out


def lower_to_clauses(model: BooleanModel) -> tuple[int, list[tuple[int, ...]]]:
    """Compile every row to CNF clauses; returns (total variable count
    including the counter registers, clauses)."""
    counter = [model.var_count]

    def fresh() -> int:
        counter[0] += 1
        return counter[0]

    clauses: list[tuple[int, ...]] = []
    for row in model.rows:
        if row.guard is None and row.bound == 1 and row.op == ">=":
            clauses.append(row.lits)  # a clause already
            continue
        extra = (-row.guard,) if row.guard is not None else ()
        ops = [(row.op, row.bound)] if row.op != "=" else [
            (">=", row.bound), ("<=", row.bound)]
        for op, bound in ops:
            if op == ">=":
                if bound <= 0:
                    continue
                if bound == 1:
                    clauses.append(tuple(row.lits) + extra)
                    continue
                # at least b of lits == at most L-b of their negations
                neg = [-lit for lit in row.lits]
                if len(row.lits) - bound < 0:
                    clauses.append(extra)  # unsatisfiable unless the guard is off
                    continue
                clauses.extend(_sequential_counter(
                    neg, len(row.lits) - bound, fresh, extra))
            else:
                clauses.extend(_sequential_counter(
                    list(row.lits), bound, fresh, extra))
    return counter[0], clauses


def emit_dimacs(model: BooleanModel, sink: IO[str]) -> None:
    """CNF text; cardinality rows are compiled with sequential counters.
    `emit_varmap` writes the variable names that keep assignments
    decodable."""
    nvars, clauses = lower_to_clauses(model)
    text = {lit: str(lit) for lit in range(-nvars, nvars + 1) if lit}
    body = " 0\n".join([" ".join(map(text.__getitem__, cl)) for cl in clauses])
    sink.write(f"p cnf {nvars} {len(clauses)}\n"
               + (body + " 0\n" if clauses else ""))


def emit_cs_json(model: CSModel, sink: IO[str]) -> None:
    """CS model as JSON: {"vars": [{"name", "domain"}...],
    "constraints": [{"kind", ...args}...]}."""
    doc = {
        "vars": [{"name": v.name, "domain": list(v.domain)}
                 for v in model.variables],
        "constraints": [
            {"kind": row.kind, **dict(row.args)} for row in model.rows
        ],
    }
    sink.write(json_text(doc) + "\n")
