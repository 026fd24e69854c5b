"""Authorised plans for a pattern, by block-user matching.

For a pattern p and a family member, a row of step masks, block b may take
user u iff u is in the mask of every step in b.  The pattern admits an
authorised plan iff a matching gives every block its own user; each step
then takes its block's user.  The check is one augmenting path per block
over user bitmasks.  `augment` is the one Kuhn step the library has: both this module
and the pure search kernel call it.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .core import InvariantError
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


def authorised_plan_for(p: Pattern, row: Sequence[int]) -> Optional[tuple[int, ...]]:
    """An authorised plan realising pattern p under the family member `row`
    (step s may take the users in row[s]), or None when no matching
    saturates all blocks.

    Deterministic: blocks are matched in ascending label order, each trying
    users in ascending index order, so the same inputs give the same plan.
    """
    if p.k != len(row):
        raise InvariantError(
            f"pattern has {p.k} steps, authorisation {len(row)}")
    masks = [-1] * p.block_count  # -1 has every bit set, and no block is empty
    for s, b in enumerate(p.rgs):
        masks[b] &= row[s]
    user_of = [-1] * len(masks)  # block -> user
    for b in range(len(masks)):
        if not augment(masks, user_of, b, [0]):
            return None
    return tuple(user_of[b] for b in p.rgs)
