"""Folding constraints into context-dependent authorisations.

Each constraint maps, at a fixed pattern p, to a small disjunctive family of
authorisation functions: a plan with pattern p satisfies the constraint iff
some family member authorises it.  Families of different constraints combine
by pairwise intersection, so an instance reduces to (a) user-independent
constraints, checked against the pattern alone, and (b) one authorisation
family per pattern.  The family size per constraint is its branching bound:
1 for user-independent constraints and SUAL, 2 for ADA, d (team count) for
WL; the solvers' work scales with the product of these bounds.  A family is
a plain tuple of `AuthorisationFunction`s.  `alternatives` describes what a
WL or ADA constraint contributes; the encoders read it too, so they encode
exactly the alternatives the solvers branch on.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

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
from .patterns import Pattern, pattern_satisfies


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


def family_for_constraint(
    c: Constraint, p: Pattern, k: int, n: int,
) -> tuple[AuthorisationFunction, ...]:
    """The constraint's own authorisation family at pattern p.

    Member order is fixed (teams in declaration order, the trigger case of
    ADA first) so downstream intersections stay deterministic.
    """
    full = (1 << n) - 1
    if is_ui(c):
        # One member: unrestricted when the pattern already satisfies the
        # constraint, otherwise a function authorising nothing.
        mask = full if pattern_satisfies(p, c) else 0
        return (AuthorisationFunction(n, (mask,) * k),)
    if isinstance(c, SUAL):
        alts = (tuple((s, c.supers) for s in c.scope) if sual_restricts(c, p) else (),)
    elif isinstance(c, (WL, ADA)):
        alts = alternatives(c, n)
    else:
        raise InvariantError(f"unknown constraint type: {type(c).__name__}")
    members = []
    for alt in alts:
        masks = [full] * k
        for s, mask in alt:
            masks[s] = mask
        members.append(AuthorisationFunction(n, tuple(masks)))
    return tuple(members)


def intersect_families(
    f1: Sequence[AuthorisationFunction],
    f2: Sequence[AuthorisationFunction],
    prune: bool = True,
) -> tuple[AuthorisationFunction, ...]:
    """Pairwise step-wise intersection of two families.

    With prune=True (the default), members left with an empty set on some
    step are dropped: such a function authorises no plan at all, so removing
    it never loses a plan.
    """
    out = []
    for a in f1:
        for b in f2:
            if a.n != b.n or a.k != b.k:
                raise InvariantError("intersect: families over different step/user ranges")
            masks = tuple(ma & mb for ma, mb in zip(a.step_masks, b.step_masks))
            if prune and any(m == 0 for m in masks):
                continue
            out.append(AuthorisationFunction(a.n, masks))
    return tuple(out)


@dataclass
class AbsorbedInstance:
    """An instance rewritten as: residual user-independent constraints plus a
    per-pattern authorisation family.

    `static_rows` is the pattern-independent part (base authorisations
    intersected with the WL/ADA families), one tuple of step masks per
    member; `static_functions` is the same family as authorisation functions.
    SUAL constraints are folded in per pattern by `family_for` since their
    effect depends on how many blocks cover the scope.
    """

    instance: Instance
    residual: tuple[Constraint, ...]
    static_rows: tuple[tuple[int, ...], ...]
    suals: tuple[SUAL, ...]

    @functools.cached_property
    def static_functions(self) -> tuple[AuthorisationFunction, ...]:
        n = self.instance.n
        return tuple(AuthorisationFunction(n, row) for row in self.static_rows)

    def family_for(self, p: Pattern) -> tuple[AuthorisationFunction, ...]:
        """The family at pattern p: the static rows narrowed by every SUAL
        that restricts at p, keeping the rows that stay non-empty on every
        step."""
        if p.k != self.instance.k:
            raise InvariantError(
                f"pattern has {p.k} steps, instance has {self.instance.k}")
        narrowing = [(c.scope, c.supers) for c in self.suals if sual_restricts(c, p)]
        if not narrowing:
            return self.static_functions
        n = self.instance.n
        kept = []
        for row in self.static_rows:
            masks = list(row)
            for scope, xmask in narrowing:
                for s in scope:
                    masks[s] &= xmask
            if all(masks):
                kept.append(AuthorisationFunction(n, tuple(masks)))
        return tuple(kept)


def absorb(inst: Instance, max_family_size: int = 4096) -> AbsorbedInstance:
    """Split an instance into residual user-independent constraints and a
    per-pattern authorisation family.

    Plan-equivalent: a plan is valid for the original instance iff its
    pattern satisfies every residual constraint and some family member at
    that pattern authorises it.  WL and ADA families are pattern-independent,
    so their product with the base authorisations is built once; the product
    size is capped by `max_family_size`.

    The product is the fold of `intersect_families` over each constraint's
    `family_for_constraint`, member for member and in the same order, but it
    is built on plain tuples of step masks: each alternative narrows only the
    steps it restricts, and only those steps can empty and prune a member.
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

