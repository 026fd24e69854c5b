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

A Boolean model keeps its rows as one flat literal table, not one object
per row (see `BooleanModel`); that table is its only form.  The encoders
append to it directly, the emitters walk it row by row and write each text
with one join, and one evaluator, `_holds`, reads a row of it for
`satisfied_by` and for `induced_assignment`'s choice of selectors.  `Row`
values are made only when a model's `rows` is iterated.

Emission targets are OPB (linear pseudo-Boolean, one row per line), DIMACS
CNF (cardinality rows compiled with sequential counters), and a JSON
document for CS.  All outputs are deterministic: fixed variable order, LF
line endings, ASCII.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass
from math import comb
from operator import lt, neg
from typing import IO, Iterable, Iterator, Mapping, Optional

from .core import (
    ADA,
    AtLeast,
    AtMost,
    BoD,
    CapacityError,
    Instance,
    InvariantError,
    SUAL,
    SoD,
    WL,
    bits_list,
    bits_of,
    json_text,
)
from .absorption import alternatives
from .patterns import bell, enumerate_patterns, pattern_of

# when an at-most constraint would need more forbidden subsets than this,
# switch to representative counting instead of subset enumeration
SUBSET_ENUM_LIMIT = 64
# `encode_cs` writes the (r+1)-subsets of an at-most scope and the
# partitions of an at-least or SUAL scope; above this many it refuses
CS_ENUM_LIMIT = 10**6


# --- pseudo-Boolean models ---------------------------------------------------


# the head of a plain clause, which the row table stores as None
_CLAUSE = (">=", 1, None)

Row = namedtuple("Row", "op bound lits guard", defaults=(None,))
Row.__doc__ = """One linear row over literals: sum of true literals `op` bound.

`op` is ">=", "<=" or "="; `lits` are signed 1-based variable indices
(negative = negated).  A row with a `guard` literal is enforced only when
the guard is true; guarded rows lower to coefficient form in OPB and to
guard-weakened clauses in DIMACS.  Models keep their rows as a table (see
`BooleanModel`); a `Row` is the value its `rows` yields."""


def _spans(lits: list[int], heads: Iterable) -> Iterator[tuple]:
    """(head, start, end) for each row of a literal table, whose literals
    are lits[start:end]."""
    index = lits.index
    start = 0
    for head in heads:
        end = index(0, start)
        yield head, start, end
        start = end + 1


def _holds(truth: list[bool], head, lits: Sequence[int]) -> bool:
    """Whether one row of a table, its head and its literals, holds;
    `truth[lit]` is literal lit's value (see `BooleanModel._truth`)."""
    op, bound, guard = head or _CLAUSE
    if guard is not None and not truth[guard]:
        return True
    total = sum(map(truth.__getitem__, lits))
    if op == ">=":
        return total >= bound
    return total <= bound if op == "<=" else total == bound


class _RowView:
    """A model's rows as `Row` values, made from its table as they are
    iterated: `len` makes none."""

    __slots__ = ("_lits", "_heads")

    def __init__(self, lits: list[int], heads: list) -> None:
        self._lits = lits
        self._heads = heads

    def __len__(self) -> int:
        return len(self._heads)

    def __iter__(self) -> Iterator[Row]:
        lits = self._lits
        for head, start, end in _spans(lits, self._heads):
            op, bound, guard = head or _CLAUSE
            yield Row(op, bound, tuple(lits[start:end]), guard)


@dataclass(eq=False, repr=False, slots=True)
class BooleanModel:
    """A pseudo-Boolean formulation plus enough structure to translate plans
    to assignments and back.

    The rows are one table rather than one object each.  `lits` holds every
    row's literals, each row ended by 0 (DIMACS's own layout; 0 is never a
    variable).  `heads` has one entry per row: None for a plain clause
    (`>= 1`, unguarded), otherwise the row's `(op, bound, guard)`, one tuple
    shared by all rows with that head.  `derived` holds the derived
    variables per constraint as `(kind, scope, first, args)` groups:
    variable `first + j` is a usage indicator (kind "z": user `args[j]`
    performs some scope step) or a block representative (kind "rep": step
    `args[j]` is the first of its block within the scope).  `rows` reads
    the table as `Row` values.

    `_Builder` builds the tables and hands them to the constructor as they
    are; treat them as immutable.  Nothing checks them on the way in:
    `validate` runs first in every reader that indexes a per-literal list.
    """

    kind: str  # "udpb" | "pbpb"
    instance: Instance
    names: tuple[str, ...]  # 1-based: names[0] is a placeholder
    index: dict[str, int]
    lits: list[int]
    heads: list
    derived: tuple[tuple, ...]
    selector_groups: tuple[tuple[int, ...], ...]

    @property
    def rows(self) -> _RowView:
        return _RowView(self.lits, self.heads)

    @property
    def var_count(self) -> int:
        return len(self.names) - 1

    def x_name(self, s: int, u: int) -> str:
        return f"x{s}_{u}"

    def x_index(self, s: int, u: int) -> Optional[int]:
        return self.index.get(self.x_name(s, u))

    def _truth(self, assignment: Mapping[str, int]) -> list[bool]:
        """Each literal's value under `assignment`, indexed by the literal:
        entry v is v's value, entry -v (counted from the end) its negation."""
        values = [False] * (self.var_count + 1)
        for name, val in assignment.items():
            idx = self.index.get(name)
            if idx is None:
                raise InvariantError(f"assignment names unknown variable {name!r}")
            values[idx] = bool(val)
        return values + [not value for value in values[:0:-1]]

    def satisfied_by(self, assignment: Mapping[str, int]) -> bool:
        self.validate()
        truth = self._truth(assignment)
        lits = self.lits
        return all(_holds(truth, head, lits[start:end])
                   for head, start, end in _spans(lits, self.heads))

    def validate(self) -> None:
        """Internal consistency: every referenced variable is in the table.
        The readers that index per-literal lists by literal, where an
        unknown one would read another's entry, call it first."""
        v = self.var_count
        lits = self.lits
        bad = [lit for lit in (min(lits, default=0), max(lits, default=0))
               if abs(lit) > v]
        bad += [head[2] for head in dict.fromkeys(self.heads)
                if head is not None and head[2] is not None
                and not 1 <= abs(head[2]) <= v]
        if bad:
            raise InvariantError(f"row references unknown variable {bad[0]}")


class _Builder:
    """A model under construction.  The encoders append rows to the table
    straight away: literals then 0 to `lits`, and to `heads` None for a
    plain clause or the shared tuple that `head` returns."""

    def __init__(self, kind: str, inst: Instance) -> None:
        self.kind = kind
        self.inst = inst
        self.names: list[str] = ["<0>"]
        self.lits: list[int] = []
        self.heads: list = []
        self._shared: dict = {}
        self.derived: list[tuple] = []  # (kind, scope, first, args) groups
        self.selector_groups: list[tuple[int, ...]] = []
        # x[s][u]: index of x{s}_{u}, 0 when u is not authorised for s
        self.x: list[list[int]] = []

    def new_vars(self, names: list[str]) -> range:
        """Number fresh variables with these (distinct, unused) names."""
        first = len(self.names)
        self.names += names
        return range(first, len(self.names))

    def head(self, op: str, bound: int, guard: Optional[int] = None):
        key = (op, bound, guard)
        return None if key == _CLAUSE else self._shared.setdefault(key, key)

    def row(self, lits: Sequence[int], op: str = ">=", bound: int = 1,
            guard: Optional[int] = None) -> None:
        self.lits += lits
        self.lits.append(0)
        self.heads.append(self.head(op, bound, guard))

    def build(self) -> BooleanModel:
        names = tuple(self.names)
        return BooleanModel(
            self.kind, self.inst, names, dict(zip(names[1:], range(1, len(names)))),
            self.lits, self.heads, tuple(self.derived), tuple(self.selector_groups))


def _add_base(b: _Builder) -> None:
    """x-variables for authorised pairs, exactly-one per step; a step with no
    authorised user gets an unsatisfiable falsum pair instead of an empty
    row."""
    inst = b.inst
    steps = list(map(bits_list, inst.auth.step_masks))
    for s, users in enumerate(steps):
        xs = [0] * inst.n
        for u, i in zip(users, b.new_vars([f"x{s}_{u}" for u in users])):
            xs[u] = i
        b.x.append(xs)
    if not all(steps):
        f, = b.new_vars(["falsum"])
        b.row((f,))
        b.row((-f,))
    for xs, users in zip(b.x, steps):
        if users:
            b.row([xs[u] for u in users], "=", 1)


def _usage_vars(b: _Builder, ci: int, scope: Sequence[int]) -> range:
    """z-variables: one per user authorised somewhere in the scope, tied to
    the scope's x-variables in both directions."""
    auth = b.inst.auth
    support = 0
    for s in scope:
        support |= auth.mask(s)
    table = [b.x[s] for s in scope]
    users = bits_of(support)
    zs = b.new_vars([f"c{ci}_z{u}" for u in users])
    b.derived.append(("z", tuple(scope), zs.start, users))
    lits = b.lits
    rows = len(users)
    for z, u in zip(zs, users):
        xs = [step_x[u] for step_x in table if step_x[u]]
        for x in xs:
            lits += (-x, z, 0)
        lits.append(-z)
        lits += xs
        lits.append(0)
        rows += len(xs)
    b.heads += [None] * rows
    return zs


def _rep_vars(b: _Builder, ci: int, scope: Sequence[int],
              same: list[list[int]]) -> range:
    """Representative variables over M (`same[s][t]` is M{s}_{t}): rep_s is
    true iff no earlier scope step shares s's user, so their sum counts
    distinct users on the scope."""
    steps = tuple(sorted(scope))
    reps = b.new_vars([f"c{ci}_rep{s}" for s in steps])
    b.derived.append(("rep", steps, reps.start, steps))
    for i, (rep, s) in enumerate(zip(reps, steps)):
        earlier = [same[t][s] for t in steps[:i]]
        for m in earlier:
            b.row((-rep, -m))
        b.row((rep, *earlier))
    return reps


def _exclusions(b: _Builder, sel: int, s: int, allowed_mask: int) -> None:
    """selector -> step s avoids every authorised user outside `allowed_mask`.

    Emitted as guarded rows (not plain clauses) so the selector's meaning
    stays attached to it; they lower to the same two-literal clauses.
    """
    xs = b.x[s]
    banned = bits_list(b.inst.auth.mask(s) & ~allowed_mask)
    for u in banned:
        b.lits += (xs[u], 0)
    b.heads += [b.head("<=", 0, sel)] * len(banned)


def _sual_groups(b: _Builder, ci: int, c: SUAL, count_lits: Sequence[int]) -> None:
    """Two group selectors: g1 takes the scope-on-few-blocks class and
    restricts scope steps to the super users; g2 takes the complement class.
    `count_lits` must sum to the number of distinct users on the scope."""
    g1, g2 = b.new_vars([f"c{ci}_g1", f"c{ci}_g2"])
    b.selector_groups.append((g1, g2))
    b.row((g1, g2))
    b.row(count_lits, "<=", c.h, g1)
    b.row(count_lits, ">=", c.h + 1, g2)
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
    sels = b.new_vars([name for name, _ in named])
    b.selector_groups.append(tuple(sels))
    b.row(sels)
    for sel, (_, alt) in zip(sels, named):
        for s, mask in alt:
            _exclusions(b, sel, s, mask)


def encode_udpb(inst: Instance) -> BooleanModel:
    """User-dependent Boolean formulation."""
    b = _Builder("udpb", inst)
    _add_base(b)
    auth = inst.auth
    x = b.x
    lits = b.lits
    for ci, c in enumerate(inst.constraints):
        if isinstance(c, SoD):
            x1, x2 = x[c.s1], x[c.s2]
            shared = bits_list(auth.mask(c.s1) & auth.mask(c.s2))
            for u in shared:
                lits += (-x1[u], -x2[u], 0)
            b.heads += [None] * len(shared)
        elif isinstance(c, BoD):
            m1, m2 = auth.mask(c.s1), auth.mask(c.s2)
            x1, x2 = x[c.s1], x[c.s2]
            for u in bits_list(m1 & m2):
                b.row((x1[u], -x2[u]), "=", 1)
            for u in bits_list(m1 & ~m2):
                b.row((-x1[u],))
            for u in bits_list(m2 & ~m1):
                b.row((-x2[u],))
        elif isinstance(c, (AtMost, AtLeast)):
            # with no user able to reach the scope the base rows are
            # already unsatisfiable, so the bound needs no row of its own
            zs = _usage_vars(b, ci, c.scope)
            if zs:
                b.row(zs, "<=" if c.at_most else ">=", c.r)
        elif isinstance(c, SUAL):
            zs = _usage_vars(b, ci, c.scope)
            if zs:
                _sual_groups(b, ci, c, zs)
        else:  # WL or ADA
            _selectors(b, ci, c)
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
    first = b.new_vars([f"M{s1}_{s2}" for s1 in range(k) for s2 in range(k)]).start
    m = [range(first + s1 * k, first + s1 * k + k) for s1 in range(k)]

    for s in range(k):
        b.row((m[s][s],), "=", 1)
    for s1 in range(k):
        for s2 in range(s1 + 1, k):
            b.row((m[s1][s2], -m[s2][s1]), "=", 1)
    lits = b.lits
    rows = 0
    if include_transitivity:
        for s1, s2, s3 in itertools.permutations(range(k), 3):
            m12, m23, m13 = m[s1][s2], m[s2][s3], m[s1][s3]
            lits += (-m12, -m23, m13, 0, m12, -m23, -m13, 0)
        rows += 2 * k * (k - 1) * (k - 2)
    x = b.x
    for s1 in range(k):
        for s2 in range(s1 + 1, k):
            mm = m[s1][s2]
            a1, a2 = auth.mask(s1), auth.mask(s2)
            xs1, xs2 = x[s1], x[s2]
            shared = bits_list(a1 & a2)
            for u in shared:
                x1, x2 = xs1[u], xs2[u]
                lits += (-mm, -x1, x2, 0, -mm, -x2, x1, 0, mm, -x1, -x2, 0)
            only1, only2 = bits_list(a1 & ~a2), bits_list(a2 & ~a1)
            for u in only1:
                lits += (-mm, -xs1[u], 0)
            for u in only2:
                lits += (-mm, -xs2[u], 0)
            rows += 3 * len(shared) + len(only1) + len(only2)
    b.heads += [None] * rows

    for ci, c in enumerate(inst.constraints):
        if isinstance(c, SoD):
            b.row((m[c.s1][c.s2],), "=", 0)
        elif isinstance(c, BoD):
            b.row((m[c.s1][c.s2],), "=", 1)
        elif isinstance(c, AtMost):
            if comb(len(c.scope), c.r + 1) <= SUBSET_ENUM_LIMIT:
                for sub in itertools.combinations(c.scope, c.r + 1):
                    b.row([m[s1][s2] for s1, s2 in itertools.combinations(sub, 2)])
            else:
                b.row(_rep_vars(b, ci, c.scope, m), "<=", c.r)
        elif isinstance(c, AtLeast):
            b.row(_rep_vars(b, ci, c.scope, m), ">=", c.r)
        elif isinstance(c, SUAL):
            _sual_groups(b, ci, c, _rep_vars(b, ci, c.scope, m))
        else:  # WL or ADA
            _selectors(b, ci, c)
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
    for kind, scope, first, args in model.derived:
        for var, arg in enumerate(args, first):
            if kind == "z":
                value = any(plan[s] == arg for s in scope)
            else:
                value = plan[arg] not in {plan[t] for t in scope if t < arg}
            assignment[model.names[var]] = int(value)

    truth = model._truth(assignment)
    guarded: dict[int, list[tuple]] = {}
    lits = model.lits
    for head, start, end in _spans(lits, model.heads):
        if head is not None and head[2] is not None:
            guarded.setdefault(head[2], []).append((head, lits[start:end]))
    for group in model.selector_groups:
        for sel in group:
            truth[sel], truth[-sel] = True, False
            if all(_holds(truth, head, row) for head, row in guarded.get(sel, ())):
                assignment[model.names[sel]] = 1
                break
            truth[sel], truth[-sel] = False, True
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


def _partitions_split(scope_len: int, h: int):
    """The restricted-growth strings of a scope's partitions in one walk,
    split into those with at most h blocks and those with more."""
    low: list[tuple[int, ...]] = []
    high: list[tuple[int, ...]] = []
    for p in enumerate_patterns(scope_len):
        (low if p.block_count <= h else high).append(p.rgs)
    return tuple(low), tuple(high)


@dataclass
class CSModel:
    """Finite-domain formulation: y_s ranges over the step's authorised
    users; selector variables are 0/1 ints."""

    instance: Instance
    variables: tuple[CsVar, ...]
    rows: tuple[CsRow, ...]

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
        return sorted({tuple(a[f"y{s}"] for s in range(k))
                       for a in self.iter_solutions()})


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
        if isinstance(c, (AtMost, AtLeast, SUAL)):
            size = len(c.scope)
            count, what = ((comb(size, c.r + 1), f"{c.r + 1}-step subsets")
                           if isinstance(c, AtMost) else (bell(size), "partitions"))
            if count > CS_ENUM_LIMIT:
                raise CapacityError(
                    f"CS encoding of constraint {ci} ({type(c).__name__}) would enumerate "
                    f"{count} {what} of its {size}-step scope, above "
                    f"CS_ENUM_LIMIT={CS_ENUM_LIMIT}")
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
                allowed=_partitions_split(len(c.scope), c.r - 1)[1]))
        elif isinstance(c, SUAL):
            g1 = selector(f"c{ci}_g1")
            g2 = selector(f"c{ci}_g2")
            rows.append(_cs_row("select_at_least_one", selectors=(g1, g2)))
            within, beyond = _partitions_split(len(c.scope), c.h)
            rows.append(_cs_row("cond_scope_pattern_in", selector=g1,
                                scope=c.scope, allowed=within))
            rows.append(_cs_row("cond_scope_pattern_in", selector=g2,
                                scope=c.scope, allowed=beyond))
            for s in c.scope:
                exclude(g1, s, c.supers)
        else:  # WL or ADA
            named = _named_alternatives(ci, c, inst.n)
            sels = tuple(selector(name) for name, _ in named)
            rows.append(_cs_row("select_at_least_one", selectors=sels))
            for sel, (_, alt) in zip(sels, named):
                for s, mask in alt:
                    exclude(sel, s, mask)
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


def _texts_by_literal(n: int, zero: str, positive: str, negative: str) -> list[str]:
    """The text of every literal in -n..n, indexed by the literal itself:
    entry 0 is `zero`, entry v the %-format `positive` of v, and entry -v
    (counted from the end) `negative` of v, made by one format and split."""
    return ((zero + ("\0" + positive) * n + ("\0" + negative) * n)
            % (*range(1, n + 1), *range(n, 0, -1))).split("\0")


def emit_opb(model: BooleanModel, sink: IO[str]) -> None:
    """Linear pseudo-Boolean text: standard counts header, one row per
    line.

    The text is the model's literal table with each literal replaced by its
    term ("+1 xv " for v, "-1 xv " for -v) and each row's closing 0 by the
    rest of its line, joined in one call; a plain clause's rest comes from a
    table indexed by its count of negated literals.  Unguarded rows have
    unit coefficients, so their terms are their literals'; a `<=` row,
    turned into `>=`, takes its literals' negations instead.  The selector
    exclusion "guard g implies not x_v" (`_exclusions`, most guarded rows)
    is written in the fixed form that `opb_terms` gives it,
    `-1 xv -1 xg >= -1`; every other guarded row goes through `opb_terms`.
    """
    model.validate()
    v = model.var_count
    lits = model.lits
    term = _texts_by_literal(v, "", "+1 x%d ", "-1 x%d ")
    parts = list(map(term.__getitem__, lits))
    # negatives[i]: how many of lits[:i] are negated
    negatives = list(itertools.accumulate(map(lt, lits, itertools.repeat(0)),
                                          initial=0))
    ends = [f">= {1 - j} ;\n" for j in range(8)]  # by count of negated literals
    index, lines, end = lits.index, len(model.heads), -1
    for head in model.heads:
        start = end + 1
        end = index(0, start)
        if head is None:
            try:
                parts[end] = ends[negatives[end] - negatives[start]]
            except IndexError:
                parts[end] = f">= {1 - negatives[end] + negatives[start]} ;\n"
            continue
        op, bound, guard = head
        if guard is None:
            rhs = bound - negatives[end] + negatives[start]
            if op == "<=":
                parts[start:end] = map(term.__getitem__, map(neg, lits[start:end]))
                parts[end] = f">= {-rhs} ;\n"
            else:
                parts[end] = f"{op} {rhs} ;\n"
        elif (guard > 0 and bound == 0 and op == "<=" and end == start + 1
                and lits[start] > 0):
            parts[start] = term[-lits[start]]
            parts[end] = f"{term[-guard]}>= -1 ;\n"
        else:
            lowered = opb_terms(Row(op, bound, tuple(lits[start:end]), guard))
            parts[start:end] = [""] * (end - start)
            parts[end] = "".join(_format_opb_row(*t) + "\n" for t in lowered)
            lines += len(lowered) - 1
    sink.write(f"* #variable= {v} #constraint= {lines}\n" + "".join(parts))


def emit_varmap(model, sink: IO[str]) -> None:
    """Sidecar name-to-index map, one `name index` line per variable."""
    if isinstance(model, CSModel):
        names = [v.name for v in model.variables]
    else:
        names = model.names[1:]
    sink.write("".join(f"{name} {i}\n" for i, name in enumerate(names, start=1)))


def _sequential_counter(lits: Sequence[int], bound: int, fresh, extra: tuple[int, ...]):
    """Clauses forcing sum(lits) <= bound, via a sequential counter with
    fresh register variables; `extra` literals are appended to every clause
    (the guard escape)."""
    L = len(lits)
    if bound < 0:
        return [extra]  # unsatisfiable unless the guard is off
    if bound >= L:
        return []
    if bound == 0:
        return [(-lit, *extra) for lit in lits]
    out = []
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


def _lower(model: BooleanModel) -> tuple[int, list[int], list[int]]:
    """Compile every row to CNF, laid out as the model's own table: each
    clause's literals, then 0.  Returns the total variable count including
    the counter registers, the array, and the positions of the zeros that
    end an empty clause."""
    model.validate()
    registers = itertools.count(model.var_count + 1)
    fresh = registers.__next__
    lits = model.lits
    flat: list[int] = []
    empty: list[int] = []
    done = 0  # lits[:done] are lowered
    index, end = lits.index, -1
    for head in model.heads:
        start = end + 1
        end = index(0, start)
        if head is None:
            continue  # a plain clause is a clause already
        flat += lits[done:start]
        done = end + 1
        op, bound, guard = head
        row = lits[start:end]
        if bound == 0 and op == "<=" and guard is not None:
            for lit in row:  # an exclusion: each literal false or the guard
                flat += (-lit, -guard, 0)
            continue
        extra = (-guard,) if guard is not None else ()
        clauses = []
        if op != "<=":  # at least b of L literals: at most L-b of their negations
            clauses = [(*row, *extra)] if bound == 1 else _sequential_counter(
                [-lit for lit in row], len(row) - bound, fresh, extra)
        if op != ">=":
            clauses += _sequential_counter(row, bound, fresh, extra)
        for cl in clauses:
            if not cl:
                empty.append(len(flat))
            flat += cl
            flat.append(0)
    flat += lits[done:]
    return next(registers) - 1, flat, empty


def lower_to_clauses(model: BooleanModel) -> tuple[int, list[tuple[int, ...]]]:
    """Compile every row to CNF clauses; returns (total variable count
    including the counter registers, clauses).  The clauses are the array
    that `emit_dimacs` writes, split at its zeros."""
    nvars, flat, _ = _lower(model)
    return nvars, [tuple(flat[start:end]) for _, start, end
                   in _spans(flat, itertools.repeat(None, flat.count(0)))]


def emit_dimacs(model: BooleanModel, sink: IO[str]) -> None:
    """CNF text; cardinality rows are compiled with sequential counters.
    The lowered array is written with each literal's text ("v " or "-v ")
    and "0\\n" for each zero, joined in one call.  `emit_varmap` writes the
    variable names that keep assignments decodable."""
    nvars, flat, empty = _lower(model)
    words = _texts_by_literal(nvars, "0\n", "%d ", "-%d ")
    parts = list(map(words.__getitem__, flat))
    for at in empty:
        parts[at] = " 0\n"  # the empty clause's line is " 0"
    sink.write(f"p cnf {nvars} {flat.count(0)}\n" + "".join(parts))


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
