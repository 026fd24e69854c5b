"""Domain types for workflow satisfiability instances.

An instance consists of k steps, n users, an authorisation function mapping
each step to the set of users permitted to perform it, and a list of
constraints.  A plan assigns one user to every step; it is valid when it is
authorised (every step performed by a permitted user) and eligible (no
constraint violated).

Steps and users are dense 0-based integer indices throughout.  Every user
set is an n-bit integer mask, bit u standing for user u: the authorisation
functions' step sets and the constraints' super-user, team, trigger and
required sets alike.  Constraints accept any iterable of user ids there and
pack it with `mask_of`; a mask passes through unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from json.encoder import encode_basestring_ascii
from typing import Iterable, Sequence, Union, get_args


class WspError(Exception):
    """Base class for errors raised by this package."""


class InvariantError(WspError, ValueError):
    """A domain object violates one of its structural invariants."""


class CapacityError(WspError):
    """Requested work exceeds a configured size limit; the message names the
    limit so callers can raise it deliberately."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise InvariantError(msg)


# Up to these sizes the shift-and-or loops beat the linear scans, which pay
# for a whole n-byte buffer: timed on sets drawn from 2 to 16 times as many
# ids as members, mask_of's scan catches up between 32 and 96 users, and
# bits_of's near 12 bits at n=128.  Past them each step of a loop copies
# the whole mask, which is quadratic at large n.
_MASK_OF_LOOP_MAX = 64   # users packed
_BITS_OF_LOOP_MAX = 12   # bits set
_TO_DIGIT = bytes.maketrans(b"\x00\x01", b"01")
_TO_FLAG = bytes.maketrans(b"01", b"\x00\x01")


def mask_of(users: Iterable[int]) -> int:
    """Pack an iterable of user indices into a bitmask, in time linear in
    the largest index."""
    try:
        few = len(users) <= _MASK_OF_LOOP_MAX
    except TypeError:  # an iterator: read it once
        users = list(users)
        few = len(users) <= _MASK_OF_LOOP_MAX
    if few:
        m = 0
        for u in users:
            m |= 1 << u
        return m
    if min(users) < 0:
        raise ValueError("negative shift count")  # as `1 << u` raises
    flags = bytearray(max(users) + 1)  # flags[u] = 1 for each user u
    for u in users:
        flags[u] = 1
    return int(flags.translate(_TO_DIGIT)[::-1], 2)


def bits_of(mask: int) -> tuple[int, ...]:
    """Unpack a bitmask into an ascending tuple of indices, in time linear
    in its length."""
    # through a list: a tuple grown from an iterator is resized into its
    # final length, so a freed one of up to 20 items adds to that length's
    # free list, which only a full collection empties
    return tuple(bits_list(mask))


def bits_list(mask: int) -> list[int]:
    """`bits_of` as a new list, for callers that only read the indices.
    CPython 3.11 never takes a 20-item tuple off its free list, so each
    freed one stays allocated until a full collection."""
    if mask.bit_count() <= _BITS_OF_LOOP_MAX:
        out = []
        while mask:
            lsb = mask & -mask
            out.append(lsb.bit_length() - 1)
            mask ^= lsb
        return out
    flags = bin(mask)[:1:-1].encode("ascii").translate(_TO_FLAG)
    return [*compress(range(len(flags)), flags)]


def _check_pair(s1: int, s2: int, what: str) -> None:
    """The two steps of a pair constraint: distinct non-negative ints."""
    _require(s1 != s2, f"{what}: steps must differ")
    _require(isinstance(s1, int) and s1 >= 0 and isinstance(s2, int)
             and s2 >= 0, f"{what}: step indices must be non-negative integers")


def _steps_tuple(scope: Iterable[int], what: str) -> tuple[int, ...]:
    steps = tuple(sorted(scope))
    _require(len(steps) == len(set(steps)), f"{what}: scope has repeated steps")
    _require(all(isinstance(s, int) and s >= 0 for s in steps),
             f"{what}: step indices must be non-negative integers")
    return steps


def _user_set(users: Union[int, Iterable[int]], what: str) -> int:
    """A user set as a mask: an int is taken as the mask itself, any other
    iterable of user indices is packed with `mask_of`."""
    if isinstance(users, int):
        _require(users >= 0, f"{what}: a user mask must be non-negative")
        return users
    us = tuple(users)
    _require(all(isinstance(u, int) and u >= 0 for u in us),
             f"{what}: user indices must be non-negative integers")
    return mask_of(us)


@dataclass(frozen=True, slots=True)
class AuthorisationFunction:
    """Per-step authorised user sets, stored as n-bit masks.

    An empty set for some step is legal; it just leaves every plan
    unauthorised at that step.
    """

    n: int
    step_masks: tuple[int, ...]

    def __post_init__(self) -> None:
        _require(self.n >= 1, "authorisation: n must be >= 1")
        _require(len(self.step_masks) >= 1, "authorisation: needs at least one step")
        for s, m in enumerate(self.step_masks):
            if m < 0 or m >> self.n:
                raise InvariantError(
                    f"authorisation: step {s} names a user outside [0, {self.n})")

    @classmethod
    def from_lists(cls, lists: Sequence[Iterable[int]], n: int) -> "AuthorisationFunction":
        return cls(n, tuple(mask_of(us) for us in lists))

    @classmethod
    def total(cls, k: int, n: int) -> "AuthorisationFunction":
        """Every user authorised for every step."""
        full = (1 << n) - 1
        return cls(n, (full,) * k)

    @property
    def k(self) -> int:
        return len(self.step_masks)

    def mask(self, s: int) -> int:
        return self.step_masks[s]

    def users(self, s: int) -> tuple[int, ...]:
        return bits_of(self.step_masks[s])

    def allows(self, s: int, u: int) -> bool:
        return (self.step_masks[s] >> u) & 1 == 1

    def to_lists(self) -> list[list[int]]:
        return [bits_list(m) for m in self.step_masks]


# --- constraint catalogue -------------------------------------------------
#
# SoD / BoD bind a pair of steps; AtMost / AtLeast bound the number of
# distinct users on a scope; SUAL, WL and ADA restrict which users may
# appear, so they are not expressible over the step partition alone.


@dataclass(frozen=True, slots=True)
class _Pair:
    """The pair shape, shared by SoD and BoD: two distinct steps."""

    s1: int
    s2: int

    def __post_init__(self) -> None:
        _check_pair(self.s1, self.s2, type(self).__name__.lower())

    @property
    def steps(self) -> tuple[int, ...]:
        return (self.s1, self.s2)


class SoD(_Pair):
    """Separation of duty: the two steps get different users."""

    __slots__ = ()


class BoD(_Pair):
    """Binding of duty: the two steps get the same user."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class _Count:
    """The count shape, shared by AtMost and AtLeast: a bound r on the
    number of distinct users over a scope of at least 2 steps.  Each kind's
    class sets `at_most`, which tells the two bounds apart."""

    r: int
    scope: tuple[int, ...]

    def __post_init__(self) -> None:
        what = type(self).__name__.lower()
        object.__setattr__(self, "scope", _steps_tuple(self.scope, what))
        _require(len(self.scope) >= 2,
                 f"{what}: scope must have at least 2 steps (|T| = 1 is vacuous)")
        _require(1 <= self.r <= len(self.scope),
                 f"{what}: r must lie in [1, {len(self.scope)}]")

    @property
    def steps(self) -> tuple[int, ...]:
        return self.scope


class AtMost(_Count):
    """At most r distinct users over the scope."""

    __slots__ = ()
    at_most = True


class AtLeast(_Count):
    """At least r distinct users over the scope."""

    __slots__ = ()
    at_most = False


@dataclass(frozen=True, slots=True)
class SUAL:
    """Super-user-at-least: if at most h distinct users perform the scope,
    all of them must come from the super-user set."""

    scope: tuple[int, ...]
    h: int
    supers: int  # user mask

    def __post_init__(self) -> None:
        object.__setattr__(self, "scope", _steps_tuple(self.scope, "sual"))
        object.__setattr__(self, "supers", _user_set(self.supers, "sual"))
        _require(len(self.scope) >= 2, "sual: scope must have at least 2 steps")
        _require(1 <= self.h < len(self.scope),
                 f"sual: h must lie in [1, {len(self.scope) - 1}]")
        _require(self.supers != 0, "sual: super-user set must be non-empty")

    @property
    def steps(self) -> tuple[int, ...]:
        return self.scope


@dataclass(frozen=True, slots=True)
class WL:
    """Wang-Li: all scope steps performed by members of a single team."""

    scope: tuple[int, ...]
    teams: tuple[int, ...]  # one user mask per team

    def __post_init__(self) -> None:
        object.__setattr__(self, "scope", _steps_tuple(self.scope, "wl"))
        object.__setattr__(
            self, "teams", tuple(_user_set(t, "wl") for t in self.teams))
        _require(len(self.scope) >= 2, "wl: scope must have at least 2 steps")
        _require(len(self.teams) >= 1, "wl: needs at least one team")
        _require(all(self.teams), "wl: teams must be non-empty")
        seen = 0
        for t in self.teams:
            _require(not seen & t, "wl: teams must be pairwise disjoint")
            seen |= t

    @property
    def steps(self) -> tuple[int, ...]:
        return self.scope


@dataclass(frozen=True, slots=True)
class ADA:
    """Assignment-dependent authorisation: if s1 is performed by a trigger
    user, s2 must be performed by a user from the required set."""

    s1: int
    s2: int
    trigger: int  # user mask
    required: int  # user mask

    def __post_init__(self) -> None:
        _check_pair(self.s1, self.s2, "ada")
        object.__setattr__(self, "trigger", _user_set(self.trigger, "ada"))
        object.__setattr__(self, "required", _user_set(self.required, "ada"))
        _require(self.trigger != 0, "ada: trigger set must be non-empty")
        _require(self.required != 0, "ada: required set must be non-empty")

    @property
    def steps(self) -> tuple[int, ...]:
        return (self.s1, self.s2)


Constraint = Union[SoD, BoD, AtMost, AtLeast, SUAL, WL, ADA]

CATALOGUE = get_args(Constraint)  # the seven constraint classes, in order

UI_KINDS = (SoD, BoD, AtMost, AtLeast)


def is_ui(c: Constraint) -> bool:
    """True when satisfaction of c depends only on the step partition a plan
    induces (which steps share a user), not on user identities."""
    return isinstance(c, UI_KINDS)


def _users_named(c: Constraint) -> int:
    """The mask of every user the constraint names."""
    if isinstance(c, SUAL):
        return c.supers
    if isinstance(c, WL):
        out = 0
        for t in c.teams:
            out |= t
        return out
    if isinstance(c, ADA):
        return c.trigger | c.required
    return 0


# --- plan-level semantics -------------------------------------------------

Plan = tuple  # tuple[int, ...], one user per step


def _user_bit(plan: Sequence[int], s: int) -> int:
    """The one-bit mask of the user the plan gives step s."""
    u = plan[s]
    if not (isinstance(u, int) and u >= 0):
        raise InvariantError(f"plan: step {s} assigned invalid user {u!r}")
    return 1 << u


def _users_on(plan: Sequence[int], scope: Iterable[int]) -> int:
    used = 0
    for s in scope:
        used |= _user_bit(plan, s)
    return used


def is_eligible(plan: Sequence[int], c: Constraint) -> bool:
    """Does the plan satisfy the single constraint c?"""
    try:
        if isinstance(c, SoD):
            return plan[c.s1] != plan[c.s2]
        if isinstance(c, BoD):
            return plan[c.s1] == plan[c.s2]
        if isinstance(c, _Count):
            used = len({plan[s] for s in c.scope})
            return used <= c.r if c.at_most else used >= c.r
        if isinstance(c, SUAL):
            used = _users_on(plan, c.scope)
            return used.bit_count() > c.h or not used & ~c.supers
        if isinstance(c, WL):
            used = _users_on(plan, c.scope)
            return any(not used & ~team for team in c.teams)
        if isinstance(c, ADA):
            if _user_bit(plan, c.s1) & c.trigger:
                return _user_bit(plan, c.s2) & c.required != 0
            return True
    except IndexError:
        # steps are non-negative, so only a step past the plan fails a read,
        # and the reads run in `c.steps` order
        s = next(s for s in c.steps if s >= len(plan))
        raise InvariantError(
            f"plan: step {s} outside the plan's {len(plan)} steps") from None
    raise InvariantError(f"unknown constraint type: {type(c).__name__}")


def is_authorised(plan: Sequence[int], auth: AuthorisationFunction) -> bool:
    """Does every step's user appear in that step's authorised set?"""
    if len(plan) != auth.k:
        raise InvariantError(
            f"plan covers {len(plan)} steps, authorisation has {auth.k}")
    for s, u in enumerate(plan):
        if not 0 <= u < auth.n:
            raise InvariantError(f"plan: user {u} outside [0, {auth.n})")
        if not auth.allows(s, u):
            return False
    return True


@dataclass(frozen=True, slots=True)
class Instance:
    """A workflow satisfiability instance (steps, users, authorisations,
    constraints)."""

    k: int
    n: int
    auth: AuthorisationFunction
    constraints: tuple[Constraint, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "constraints", tuple(self.constraints))
        _require(self.k >= 1, "instance: k must be >= 1")
        _require(self.n >= 1, "instance: n must be >= 1")
        _require(self.auth.k == self.k,
                 f"instance: authorisation covers {self.auth.k} steps, expected {self.k}")
        _require(self.auth.n == self.n,
                 f"instance: authorisation is over {self.auth.n} users, expected {self.n}")
        # the messages are formatted only on failure: calibration builds
        # thousands of instances, each checking every step and user named
        for c in self.constraints:
            if not isinstance(c, CATALOGUE):
                raise InvariantError(
                    f"instance: {type(c).__name__} is not a constraint of the "
                    f"catalogue ({', '.join(t.__name__ for t in CATALOGUE)})")
            for s in c.steps:
                if not 0 <= s < self.k:
                    raise InvariantError(
                        f"{type(c).__name__}: step {s} outside [0, {self.k})")
            named = _users_named(c)
            if named >> self.n:
                raise InvariantError(
                    f"{type(c).__name__}: user {named.bit_length() - 1} "
                    f"outside [0, {self.n})")

    def ui_constraints(self) -> tuple[Constraint, ...]:
        return tuple(c for c in self.constraints if is_ui(c))

    def nonui_constraints(self) -> tuple[Constraint, ...]:
        return tuple(c for c in self.constraints if not is_ui(c))


def check_plan(plan: Sequence[int], inst: Instance) -> tuple[int, ...]:
    """Validate shape and ranges of a plan against an instance."""
    if len(plan) != inst.k:
        raise InvariantError(
            f"plan covers {len(plan)} steps, instance has {inst.k}")
    for s, u in enumerate(plan):
        if not (isinstance(u, int) and 0 <= u < inst.n):
            raise InvariantError(f"plan: step {s} assigned invalid user {u!r}")
    return tuple(plan)


def is_valid(plan: Sequence[int], inst: Instance) -> bool:
    """Authorised and eligible for every constraint."""
    p = check_plan(plan, inst)
    if not is_authorised(p, inst.auth):
        return False
    return all(is_eligible(p, c) for c in inst.constraints)


def violated_constraints(plan: Sequence[int], inst: Instance) -> list[Constraint]:
    """All constraints the plan breaks (authorisation violations excluded)."""
    p = check_plan(plan, inst)
    return [c for c in inst.constraints if not is_eligible(p, c)]


# --- indented JSON text ----------------------------------------------------

_NONFINITE_TEXT = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def json_text(doc, sort_keys: bool = False) -> str:
    """`doc` as `json.dumps(doc, indent=2, sort_keys=sort_keys)` writes it.

    The standard library's indenting encoder is a set of nested functions
    that call one another through their closure cells, a reference cycle
    that every call leaves to the cyclic collector; this writer is a
    module-level recursion and frees everything it builds on return.
    """
    out: list[str] = []
    _json_chunks(doc, out, "\n", sort_keys)
    return "".join(out)


def _json_chunks(value, out: list[str], newline: str, sort_keys: bool) -> None:
    """Append the JSON text of `value` to `out`.  `newline` is the line
    break and indentation of the value's own depth."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        text = float.__repr__(value)
        out.append(_NONFINITE_TEXT.get(text, text))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()) if sort_keys else value.items():
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _json_chunks(item, out, inner, sort_keys)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        if all(type(item) is int for item in value):  # user lists, in one join
            out.append("[" + inner + ("," + inner).join(map(int.__repr__, value))
                       + newline + "]")
            return
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _json_chunks(item, out, inner, sort_keys)
            sep = "," + inner
        out.append(newline + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
