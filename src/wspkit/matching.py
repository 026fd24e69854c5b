"""Authorised plans for a pattern, by block-user matching.

For a pattern p and authorisation function A, block b may take user u iff u
is authorised for every step in b.  The pattern admits an authorised plan
iff a matching gives every block its own user; each step then takes its
block's user.  The check is one augmenting path per block over user
bitmasks, the way both search kernels make it.
"""

from __future__ import annotations

from typing import Optional

from .core import AuthorisationFunction, _require
from .patterns import Pattern


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
    owner: dict[int, int] = {}  # user -> block
    user_of = [-1] * len(masks)  # block -> user

    def augment(b: int, seen: list[int]) -> bool:
        avail = masks[b] & ~seen[0]
        while avail:
            lsb = avail & -avail
            avail ^= lsb
            seen[0] |= lsb
            u = lsb.bit_length() - 1
            if u not in owner or augment(owner[u], seen):
                owner[u] = b
                user_of[b] = u
                return True
        return False

    for b in range(len(masks)):
        if not augment(b, [0]):
            return None
    return tuple(user_of[b] for b in p.rgs)
