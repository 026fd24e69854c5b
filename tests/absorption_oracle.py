"""The absorption oracle: each constraint's own authorisation family at a
pattern, and the pairwise intersection that folds families together.

The library builds a family as rows of step masks in one pass (`absorb`,
`AbsorbedInstance.family_for`).  The tests check those rows against the
fold of `intersect_families` over `family_for_constraint`, which builds
every member as an `AuthorisationFunction` constraint by constraint.
"""

from __future__ import annotations

from typing import Sequence

from wspkit.absorption import alternatives, sual_restricts
from wspkit.core import (
    ADA,
    AuthorisationFunction,
    Constraint,
    InvariantError,
    SUAL,
    WL,
    is_ui,
)
from wspkit.patterns import Pattern, pattern_satisfies


def functions(rows, n: int) -> tuple[AuthorisationFunction, ...]:
    """A family of rows as authorisation functions over n users."""
    return tuple(AuthorisationFunction(n, row) for row in rows)


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
