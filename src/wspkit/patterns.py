"""Step partitions in canonical restricted-growth form.

A pattern records which steps share a user, as the set partition a plan
induces.  Canonical form is the restricted growth string (RGS): block labels
assigned in order of first appearance, so rgs[0] == 0 and every later entry
is at most one above the running maximum.  Two plans induce the same pattern
iff they induce the same RGS, which makes equality and hashing cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .core import Constraint, InvariantError, _require, is_eligible, is_ui


@dataclass(frozen=True)
class Pattern:
    """A set partition of steps 0..len(rgs)-1 in canonical RGS form."""

    rgs: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rgs", tuple(self.rgs))
        _require(len(self.rgs) >= 1, "pattern: needs at least one step")
        top = -1
        for i, b in enumerate(self.rgs):
            if not (isinstance(b, int) and 0 <= b <= top + 1):
                raise InvariantError(
                    f"pattern: entry {i} = {b!r} breaks restricted growth "
                    f"(expected 0..{top + 1})")
            top = max(top, b)

    @property
    def k(self) -> int:
        return len(self.rgs)

    @property
    def block_count(self) -> int:
        return max(self.rgs) + 1


def pattern_of(plan: Sequence[int]) -> Pattern:
    """The pattern a plan induces: steps sharing a user share a block."""
    _require(len(plan) >= 1, "pattern_of: empty plan")
    label: dict[int, int] = {}
    rgs = []
    for u in plan:
        if u not in label:
            label[u] = len(label)
        rgs.append(label[u])
    return Pattern(tuple(rgs))


def bell(k: int) -> int:
    """Number of set partitions of k elements, via the Bell triangle.

    Exact big-integer arithmetic; no overflow concerns.
    """
    _require(k >= 0, "bell: k must be >= 0")
    row = [1]
    for _ in range(k):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def enumerate_patterns(k: int) -> Iterator[Pattern]:
    """All patterns over k steps in lexicographic RGS order.

    k == 0 gives an empty stream.  Each pattern comes from the one before by
    the restricted-growth successor: raise the last entry that is not yet
    one above the maximum before it, and zero every entry after it.  The
    successor keeps restricted growth by construction, so the patterns are
    built without `Pattern.__post_init__`'s check.
    """
    _require(k >= 0, "enumerate_patterns: k must be >= 0")
    if k == 0:
        return
    rgs = [0] * k
    top = [0] * k  # top[i]: the largest of rgs[0..i]
    while True:
        p = object.__new__(Pattern)
        object.__setattr__(p, "rgs", tuple(rgs))
        yield p
        i = k - 1
        while i > 0 and rgs[i] > top[i - 1]:
            i -= 1
        if i == 0:
            return
        rgs[i] += 1
        top[i] = max(top[i - 1], rgs[i])
        for j in range(i + 1, k):
            rgs[j] = 0
            top[j] = top[i]


def pattern_satisfies(p: Pattern, c: Constraint) -> bool:
    """Pattern-level satisfaction for user-independent constraints.

    Every plan with pattern p satisfies c iff p does; that is what makes
    these constraints checkable before any users are chosen.  Raises for
    constraint kinds whose satisfaction depends on user identities.  The
    RGS is itself a plan with pattern p, so the check is the plan-level one.
    """
    if not is_ui(c):
        raise InvariantError(
            f"{type(c).__name__} is not user-independent; it has no pattern-level check")
    return is_eligible(p.rgs, c)
