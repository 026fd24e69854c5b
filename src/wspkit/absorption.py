"""Folding constraints into context-dependent authorisations.

Each constraint maps, at a fixed pattern p, to a small disjunctive family of
authorisations: a plan with pattern p satisfies the constraint iff some
family member authorises it.  Families of different constraints combine by
pairwise step-wise intersection, so an instance reduces to (a)
user-independent constraints, checked against the pattern alone, and (b)
one authorisation family per pattern.  The family size per constraint is
at most its branching bound: 1 for user-independent constraints and SUAL,
2 for ADA, d (team count) for WL; the solvers' work scales with the
product of these bounds.  An ADA splits a row only where it can bite: a
row whose s2 users are all required satisfies it on every plan, so the
row is kept whole, and the realised family can be smaller than the
product.  A family member is a row: a tuple of k step masks, the form
that pattern enumeration, the matching and both search kernels read.
`alternatives` describes what a WL or ADA constraint contributes; the
encoders read it too and keep one selector per alternative.
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
    is_ui,
)
from .patterns import Pattern


def alternatives(c: WL | ADA) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The one description of a WL or ADA constraint's authorisation
    alternatives: absorption builds its families from it (splitting a row
    by an ADA's two cases only where the ADA can bite), the encoders keep
    one selector per alternative, and `branching_bound` counts it.  Each
    alternative is the (step, mask) pairs of the steps it restricts; every
    other step is left unrestricted.

    WL: one alternative per team, in declaration order, pinning the scope to
    that team.  ADA: the trigger case (s1 to a trigger user, s2 to a required
    one) first, then the non-trigger case (s1 to a non-trigger user), whose
    mask is the complement `~c.trigger`, a negative int: a reader
    intersects a mask with a step's authorised users before it unpacks it,
    since `bits_list` of a negative int never ends.
    """
    if isinstance(c, WL):
        # from lists: a tuple grown from an iterator and resized never came
        # off a free list, yet joins one when freed, until a full collection
        return tuple([tuple([(s, team) for s in c.scope]) for team in c.teams])
    return (((c.s1, c.trigger), (c.s2, c.required)),
            ((c.s1, ~c.trigger),))


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

    One walk over the constraints, in declaration order, sorts each into
    the residual, the SUALs or the WL/ADA product.  Each alternative
    narrows only the steps it restricts, and only those steps can empty
    and prune a row, so a row is dropped at the first of them that meets
    the alternative in no user.  Each constraint multiplies the rows so far
    by its alternatives, row by row, with WL teams in declaration order and
    ADA's trigger case first, so the order is fixed.  An ADA keeps a row
    whole where every user the row authorises at s2 is required: the ADA
    holds on every plan of that row, and its two cases would differ from
    the row only at s1, where they split its users, so they union back to
    it.  The family authorises the same plans with fewer rows; the
    `max_family_size` check before each constraint still counts all of its
    alternatives for every row so far.
    """
    residual: list[Constraint] = []
    suals: list[SUAL] = []
    rows: list[tuple[int, ...]] = []
    if all(inst.auth.step_masks):
        rows.append(inst.auth.step_masks)
    for c in inst.constraints:
        if is_ui(c):
            residual.append(c)
            continue
        if isinstance(c, SUAL):
            suals.append(c)
            continue
        alts = alternatives(c)
        if len(rows) * len(alts) > max_family_size:
            raise CapacityError(
                f"authorisation family would exceed max_family_size={max_family_size}; "
                f"raise the limit to absorb this many WL/ADA alternatives")
        product = []
        if isinstance(c, ADA):
            ((s1, trigger), (s2, required)), ((_, other),) = alts
            for row in rows:
                at_s2 = row[s2]
                if not at_s2 & ~required:
                    # every s2 user is required, so the ADA holds on every
                    # plan of the row: keep it whole
                    product.append(row)
                    continue
                at_s1 = row[s1]
                hit, kept = at_s1 & trigger, at_s2 & required
                if hit and kept:
                    narrowed = list(row)
                    narrowed[s1] = hit
                    narrowed[s2] = kept
                    product.append(tuple(narrowed))
                miss = at_s1 & other
                if miss:
                    narrowed = list(row)
                    narrowed[s1] = miss
                    product.append(tuple(narrowed))
        else:
            for row in rows:
                for alt in alts:
                    narrowed = list(row)
                    for s, mask in alt:
                        narrowed[s] = kept = narrowed[s] & mask
                        if not kept:
                            break
                    else:
                        product.append(tuple(narrowed))
        rows = product
    return AbsorbedInstance(inst, tuple(residual), tuple(rows), tuple(suals))


def branching_bound(c: Constraint) -> int:
    """The constraint's family-size bound: 1 for a user-independent
    constraint or SUAL, its count of alternatives for WL and ADA.  The
    family `absorb` realises can be smaller than the product of these
    bounds: rows die when an alternative meets them in no user, and an
    ADA keeps whole the rows it cannot restrict."""
    if is_ui(c) or isinstance(c, SUAL):
        return 1
    if isinstance(c, (WL, ADA)):
        return len(alternatives(c))
    raise InvariantError(f"unknown constraint type: {type(c).__name__}")
