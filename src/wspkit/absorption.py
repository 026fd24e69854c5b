"""Folding constraints into context-dependent authorisations.

Each constraint maps, at a fixed pattern p, to a small disjunctive family of
authorisations: a plan with pattern p satisfies the constraint iff some
family member authorises it.  Families of different constraints combine by
pairwise step-wise intersection, so an instance reduces to (a)
user-independent constraints, checked against the pattern alone, and (b)
one authorisation family per pattern.  The family size per constraint is
its branching bound: 1 for user-independent constraints and SUAL, 2 for
ADA, d (team count) for WL; the solvers' work scales with the product of
these bounds.  A family member is a row: a tuple of k step masks, the form
that pattern enumeration, the matching and both search kernels read.
`alternatives` describes what a WL or ADA constraint contributes; the
encoders read it too, so they encode exactly the alternatives the solvers
branch on.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .core import (
    ADA,
    AuthorisationFunction,
    CapacityError,
    Constraint,
    Instance,
    InvariantError,
    SUAL,
    WL,
    _users_named,
    is_ui,
)
from .patterns import Pattern


def alternatives(c: WL | ADA, n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The one description of a WL or ADA constraint's authorisation
    alternatives: absorption builds its families from it, the encoders their
    selectors, and `branching_bound` counts it.  Each alternative is the
    (step, mask) pairs of the steps it restricts; every other step is left
    unrestricted.

    WL: one alternative per team, in declaration order, pinning the scope to
    that team.  ADA: the trigger case (s1 to a trigger user, s2 to a required
    one) first, then the non-trigger case (s1 to a non-trigger user).
    """
    if isinstance(c, WL):
        return tuple(tuple((s, team) for s in c.scope) for team in c.teams)
    full = (1 << n) - 1
    return (((c.s1, c.trigger), (c.s2, c.required)),
            ((c.s1, full & ~c.trigger),))


def sual_restricts(c: SUAL, p: Pattern) -> bool:
    """Does the SUAL constraint restrict its scope to super-users at pattern
    p, that is, do its scope steps fall in at most h blocks?"""
    return len({p.rgs[s] for s in c.scope}) <= c.h


@dataclass
class AbsorbedInstance:
    """An instance rewritten as: residual user-independent constraints plus a
    per-pattern authorisation family.

    `static_rows` is the pattern-independent part (base authorisations
    intersected with the WL/ADA families), one tuple of step masks per
    member.  SUAL constraints are folded in per pattern by `family_for`
    since their effect depends on how many blocks cover the scope.
    """

    instance: Instance
    residual: tuple[Constraint, ...]
    static_rows: tuple[tuple[int, ...], ...]
    suals: tuple[SUAL, ...]

    @functools.cached_property
    def static_functions(self) -> tuple[AuthorisationFunction, ...]:
        """`static_rows` as authorisation functions.  Its last reader is
        perfbench's traced `_layer_path`, which counts members with it; it
        goes when ROADMAP.md's benchmark item (item 1) points that count at
        `static_rows`."""
        n = self.instance.n
        return tuple(AuthorisationFunction(n, row) for row in self.static_rows)

    def family_for(self, p: Pattern) -> tuple[tuple[int, ...], ...]:
        """The family at pattern p: the static rows narrowed by every SUAL
        that restricts at p, keeping the rows that stay non-empty on every
        step."""
        if p.k != self.instance.k:
            raise InvariantError(
                f"pattern has {p.k} steps, instance has {self.instance.k}")
        narrowing = [(c.scope, c.supers) for c in self.suals if sual_restricts(c, p)]
        if not narrowing:
            return self.static_rows
        kept = []
        for row in self.static_rows:
            masks = list(row)
            for scope, xmask in narrowing:
                for s in scope:
                    masks[s] &= xmask
            if all(masks):
                kept.append(tuple(masks))
        return tuple(kept)


def absorb(inst: Instance, max_family_size: int = 4096) -> AbsorbedInstance:
    """Split an instance into residual user-independent constraints and a
    per-pattern authorisation family.

    Plan-equivalent: a plan is valid for the original instance iff its
    pattern satisfies every residual constraint and some family member at
    that pattern authorises it.  WL and ADA families are pattern-independent,
    so their product with the base authorisations is built once; the product
    size is capped by `max_family_size`.

    Each alternative narrows only the steps it restricts, and only those
    steps can empty and prune a row, so a row is dropped as soon as one of
    them meets the alternative in no user.  Each constraint multiplies the
    rows so far by its alternatives, row by row, with WL teams in
    declaration order and ADA's trigger case first, so the order is fixed.
    """
    n = inst.n
    residual = inst.ui_constraints()
    suals = tuple(c for c in inst.nonui_constraints() if isinstance(c, SUAL))

    rows: list[tuple[int, ...]] = []
    if all(inst.auth.step_masks):
        rows.append(inst.auth.step_masks)
    for c in inst.nonui_constraints():
        if isinstance(c, SUAL):
            continue
        alts = alternatives(c, n)
        if len(rows) * len(alts) > max_family_size:
            raise CapacityError(
                f"authorisation family would exceed max_family_size={max_family_size}; "
                f"raise the limit to absorb this many WL/ADA alternatives")
        product = []
        for row in rows:
            for alt in alts:
                for s, mask in alt:
                    if not row[s] & mask:
                        break
                else:
                    narrowed = list(row)
                    for s, mask in alt:
                        narrowed[s] &= mask
                    product.append(tuple(narrowed))
        rows = product
    return AbsorbedInstance(inst, residual, tuple(rows), suals)


@dataclass(frozen=True)
class BranchingReport:
    """Per-constraint absorption cost summary.

    `bound` is the family-size bound the dedicated construction achieves.
    The two generic bounds come from scope enumeration (n^t over t scope
    steps) and from user-set enumeration ((k+1)^t over t named users); the
    dedicated bound is never worse.
    """

    kind: str
    bound: int
    scope_bound: int
    user_bound: int


def branching_bound(c: Constraint, k: int, n: int) -> BranchingReport:
    kind = type(c).__name__.lower()
    if is_ui(c) or isinstance(c, SUAL):
        bound = 1
    elif isinstance(c, (WL, ADA)):
        bound = len(alternatives(c, n))
    else:
        raise InvariantError(f"unknown constraint type: {type(c).__name__}")
    scope_t = len(set(c.steps))
    users_t = _users_named(c).bit_count()
    return BranchingReport(
        kind=kind,
        bound=bound,
        scope_bound=n ** scope_t,
        user_bound=(k + 1) ** users_t,
    )

