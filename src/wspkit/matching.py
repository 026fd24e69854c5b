"""Authorised plans for a pattern, by block-user matching.

For a pattern p and authorisation function A, block b may take user u iff u
is authorised for every step in b.  The pattern admits an authorised plan
iff a matching gives every block its own user; each step then takes its
block's user.  The check is one augmenting path per block over user
bitmasks.  `augment` is the one Kuhn step the library has: both this module
and the pure search kernel call it.
"""

from __future__ import annotations

from typing import Optional

from .core import AuthorisationFunction, _require
from .patterns import Pattern


def augment(rows: list[int], mrow: list[int], b: int, seen: list[int]) -> bool:
    """Kuhn's augmenting path from block b; True when it matched b.

    rows[b] is the mask of users block b may take and mrow[b] the user
    matched to block b, or -1.  seen[0] is the mask of users this path
    search has visited.  Users are tried in ascending index order, and a
    matched user's block is re-routed before the next user is tried, so the
    same inputs give the same matching.  A module-level function: a nested
    one that calls itself would hold its own closure in a reference cycle.
    """
    avail = rows[b] & ~seen[0]
    while avail:
        lsb = avail & -avail
        u = lsb.bit_length() - 1
        avail ^= lsb
        seen[0] |= lsb
        if u not in mrow or augment(rows, mrow, mrow.index(u), seen):
            mrow[b] = u
            return True
    return False


def authorised_plan_for(p: Pattern, auth: AuthorisationFunction) -> Optional[tuple[int, ...]]:
    """An authorised plan realising pattern p, or None when no matching
    saturates all blocks.

    Deterministic: blocks are matched in ascending label order, each trying
    users in ascending index order, so the same inputs give the same plan.
    """
    _require(p.k == auth.k, f"pattern has {p.k} steps, authorisation {auth.k}")
    masks = [(1 << auth.n) - 1] * p.block_count
    for s, b in enumerate(p.rgs):
        masks[b] &= auth.mask(s)
    user_of = [-1] * len(masks)  # block -> user
    for b in range(len(masks)):
        if not augment(masks, user_of, b, [0]):
            return None
    return tuple(user_of[b] for b in p.rgs)
