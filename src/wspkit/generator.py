"""Pseudo-random instance generation and satisfiability-rate calibration.

Instances are drawn by a fixed, self-contained PRNG (SplitMix64 streams,
rejection-sampled bounded integers, partial Fisher-Yates subsets) so the same
spec and seed give byte-identical instances on any platform.  The stream is
computed in batches, many outputs at a time in the 128-bit lanes of one
Python int; its outputs are those of the textbook one-at-a-time SplitMix64,
bit for bit, so every draw is unchanged by it.

Authorisation lists are drawn per user: each user receives a uniformly
random number of steps between 1 and floor(k/2) (at least 1), then a
uniform subset of that size.  Every user's draws are made in one pass over
the batched stream, with the rejection draw and the partial shuffle inlined
and each pick appended to its step's list as it is drawn; the rejection
shift is carried from one draw to the next and changes only when the
shuffle's falling bound reaches a power of two.  Every two-step pair is
drawn as below(k), 1 + below(k - 1), with no pool.  The draws are those of
`below` and `subset`, output for output.  Constraint shapes are fixed:

  sod   two distinct steps
  am3   at most 3 users over a scope of 5 steps
  sual  scope of 5 steps, h = 3, 5 super users
  wl    scope of 2 steps, two disjoint teams of floor(n/4) users each
  ada   two distinct steps, trigger and required sets of floor(n/2) users,
        drawn independently (overlap permitted)

Every distinct sod pair and am3 scope is one shared, immutable object,
built on its first draw and kept in a `functools.lru_cache` per kind,
bounded by `_SHARED_MAX` = 1024 entries.  A kind is shared only up to the
largest k at which all its values fit, k = 45 for pairs (990 of them) and
k = 12 for scopes (792); the values of a smaller k are among those, so the
caches never evict.  Past that k each value is built unshared, since hits
grow rare (6.5% of am3 draws at k = 20 through a cache of this bound) and a
miss costs more than an unshared value.  Draws are equal value for value to
unshared ones and consume the stream the same way.

`calibrate_pt` locates the constraint count at which roughly half the drawn
instances are satisfiable: the hardest regime, where instances sit on the
boundary between satisfiable and unsatisfiable.  A calibration draws each
sample once: the authorisation and every constraint kind are drawn in the
order above, so the instance at any count of the varied kind is a prefix of
one list of that kind's constraints plus the kinds drawn after it, and equals
what `generate` gives for that count.  While one call runs, each sample
keeps the constraints of the largest count probed, at most the cap
k(k-1)/2 on top of the base count.  `family_spec` gives the counts of the
two standard benchmark families around that point, and `family_draw` draws
their members:

  family "sod":           k am3 + e sod             (e calibrated)
  family c in {am3, sual, wl, ada}:
                          k am3 + round(0.75 e) sod + e_c of c
                          (e_c calibrated with the sod count held fixed;
                           rounding is to nearest, ties down)
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, fields, replace
from functools import lru_cache, partial
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .core import (
    ADA,
    AtMost,
    AuthorisationFunction,
    Constraint,
    Instance,
    InvariantError,
    SoD,
    SUAL,
    WL,
    WspError,
    json_text,
    mask_of,
)

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15

GENERATOR_VERSION = 1

# a draw is retried under the next sub-seed when some step ends up with no
# authorised user; pathological specs (far more steps than the users can
# cover) would retry forever without a cap
MAX_DRAW_ATTEMPTS = 1000


class CalibrationError(WspError):
    """No constraint count lands in the requested satisfiability band."""


# --- deterministic randomness --------------------------------------------------


def _mix64(z: int) -> int:
    """The SplitMix64 finalising permutation."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def derive_seed(*parts: int) -> int:
    """Combine integers into a 64-bit sub-seed, deterministically."""
    z = 0x243F6A8885A308D3
    for p in parts:
        z = _mix64((z + GOLDEN + _mix64(p & MASK64)) & MASK64)
    return z


# outputs per batch: large enough that the long authorisation streams pay
# little per-batch overhead, small enough that the short streams `_Sample`
# opens per constraint count waste little
_BATCH = 256
# the low word of every lane, in the order a native 'Q' view lists them
_LOW_WORDS = slice(None, None, 2) if sys.byteorder == "little" else \
    slice(None, None, -2)


def _packed(values: Iterable[int]) -> int:
    """One int whose 128-bit lane i holds the i-th of `values`."""
    return int.from_bytes(b"".join(v.to_bytes(16, "little") for v in values),
                          "little")


_ONES = _packed([1] * _BATCH)                      # 1 in every lane
_STEPS = GOLDEN * _packed(range(1, _BATCH + 1))    # (i+1)*GOLDEN in lane i
_LOW = _ONES * MASK64                              # the low half of every lane


def _batch(state: int) -> list[int]:
    """The next `_BATCH` outputs of a stream at `state`, all at once.

    Output i is _mix64(state + (i+1)*GOLDEN mod 2**64) and depends on no
    other output, so lane i of one Python int of 128-bit lanes computes it
    alongside every other lane.  Each lane holds a 64-bit value in its low
    half: a 64x64-bit product fills the lane without carrying into the
    next, and masking with `_LOW` after every shift keeps the bits that a
    right shift pulls down from the next lane out of the products.
    """
    z = (state * _ONES + _STEPS) & _LOW
    z = (((z ^ (z >> 30)) & _LOW) * 0xBF58476D1CE4E5B9) & _LOW
    z = (((z ^ (z >> 27)) & _LOW) * 0x94D049BB133111EB) & _LOW
    z ^= z >> 31  # the high halves take bits of the next lane; none are read
    words = memoryview(z.to_bytes(16 * _BATCH, sys.byteorder)).cast("Q")
    return words[_LOW_WORDS].tolist()


# the largest bound a draw accepts: below(2**64) is a whole output
_BOUND_MAX = 1 << 64


def _shift_and_floor(bound: int) -> tuple[int, int]:
    """The right shift of a draw below `bound`, and the bound at which a
    partial shuffle, whose bound falls by one per draw, must shift once more.

    The shift keeps bit_length(bound - 1) high bits, at least one, so it
    changes only when the falling bound reaches a power of two; that floor
    halves each time it is reached.  Bounds 2 and 1 both shift by 63, so a
    floor of 1 is never acted on.
    """
    width = (bound - 1).bit_length() or 1
    return 64 - width, 1 << (width - 1)


class SplitMix64:
    """The standard SplitMix64 stream, computed a batch of outputs at a
    time."""

    def __init__(self, seed: int) -> None:
        self._base = seed & MASK64  # the state before _buf[0]
        self._buf: list[int] = []
        self._pos = 0               # outputs of _buf read so far

    @property
    def state(self) -> int:
        """The state after the last output read: a stream seeded with it
        continues this one."""
        return (self._base + self._pos * GOLDEN) & MASK64

    def _refill(self) -> list[int]:
        """Compute the batch after the current one, which must be read to
        its end, and return it."""
        self._base = (self._base + len(self._buf) * GOLDEN) & MASK64
        self._buf = _batch(self._base)
        self._pos = 0
        return self._buf

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), by rejection on the high bits."""
        if not 0 < bound <= _BOUND_MAX:
            raise InvariantError(
                f"below: bound must be in [1, 2**64], got {bound}")
        shift = 64 - ((bound - 1).bit_length() or 1)
        buf, pos = self._buf, self._pos
        while True:
            try:
                value = buf[pos] >> shift
            except IndexError:
                buf, pos = self._refill(), 0
                continue
            pos += 1
            if value < bound:
                self._pos = pos
                return value

    def subset(self, m: int, size: int) -> list[int]:
        """`size` distinct integers from range(m), in draw order, via a
        partial Fisher-Yates shuffle."""
        if not 0 <= size <= m:
            raise InvariantError(
                f"subset: size must be in [0, m], cannot draw {size} of {m}")
        buf, pos = self._buf, self._pos
        pool = list(range(m))
        shift, floor = _shift_and_floor(m)
        for i in range(size):
            # below(m - i), inlined, with the shift carried from the last draw
            bound = m - i
            if bound == floor > 1:
                shift, floor = shift + 1, floor >> 1
            while True:
                try:
                    value = buf[pos] >> shift
                except IndexError:
                    buf, pos = self._refill(), 0
                    continue
                pos += 1
                if value < bound:
                    break
            j = i + value
            pool[i], pool[j] = pool[j], pool[i]
        self._pos = pos
        return pool[:size]


# --- specs ----------------------------------------------------------------------

@dataclass(frozen=True)
class GenSpec:
    """What to draw: problem size, constraint counts, and the master seed."""

    k: int
    n: int
    sod: int = 0
    am3: int = 0
    sual: int = 0
    wl: int = 0
    ada: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        # a JSON integer, as the instance file's ints are: 2.0 would fail
        # deep in a draw, and True would silently stand for 1
        for field in fields(self):
            value = getattr(self, field.name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise InvariantError(
                    f"spec: {field.name} must be an int, got {value!r}")
        if self.k < 1:
            raise InvariantError(f"spec: k must be at least 1, got {self.k}")
        if self.n < 1:
            raise InvariantError(f"spec: n must be at least 1, got {self.n}")
        for kind, (_, steps, users) in _KINDS.items():
            count = getattr(self, kind)
            if count < 0:
                raise InvariantError(f"spec: {kind} count must be non-negative")
            if count and (self.k < steps or self.n < users):
                raise InvariantError(
                    f"spec: {kind} draws need k >= {steps} and n >= {users}, "
                    f"got k={self.k}, n={self.n}")

    def counts(self) -> dict[str, int]:
        return {field: getattr(self, field) for field in FAMILY_KINDS}


@dataclass(frozen=True)
class PTCalibration:
    """A calibrated constraint count and the satisfiability rate measured
    at it."""

    e_value: int
    sat_rate: float
    samples: int

    def __post_init__(self) -> None:
        if not (isinstance(self.e_value, int)
                and not isinstance(self.e_value, bool) and self.e_value >= 0):
            raise InvariantError(
                f"calibration: e_value must be an int >= 0, got {self.e_value!r}")
        if not 0.0 <= self.sat_rate <= 1.0:
            raise InvariantError(
                f"calibration: sat_rate must be in [0, 1], got {self.sat_rate}")


# --- instance drawing ------------------------------------------------------------


def _draw_step_users(rng: SplitMix64, k: int, n: int) -> list[list[int]]:
    """Each step's users, in ascending order, where user u's steps are
    `rng.subset(k, 1 + rng.below(max(1, k // 2)))`, drawn in turn for
    u = 0..n-1.

    Both draws are inlined into one loop over the batch, as `subset`
    inlines `below`: the two starting shifts and the shuffle's first floor
    depend only on k, each user's pool is a copy of one template, and each
    pick appends u to its step's list as it is drawn.  The pool holds the
    steps' `list.append` methods in place of the step indices, so a pick is
    the call itself.
    """
    top = max(1, k // 2)
    size_shift = _shift_and_floor(top)[0]
    first_shift, first_floor = _shift_and_floor(k)
    step_users: list[list[int]] = [[] for _ in range(k)]
    template = [users.append for users in step_users]
    buf, pos = rng._buf, rng._pos
    for u in range(n):
        while True:  # below(top)
            try:
                size = buf[pos] >> size_shift
            except IndexError:
                buf, pos = rng._refill(), 0
                continue
            pos += 1
            if size < top:
                break
        pool = template[:]
        shift, floor = first_shift, first_floor
        for i in range(size + 1):  # subset(k, size + 1)
            bound = k - i
            if bound == floor > 1:
                shift, floor = shift + 1, floor >> 1
            while True:
                try:
                    value = buf[pos] >> shift
                except IndexError:
                    buf, pos = rng._refill(), 0
                    continue
                pos += 1
                if value < bound:
                    break
            # position i is never read again, so only j takes its entry
            j = i + value
            pool[j], pick = pool[i], pool[j]
            pick(u)
    rng._pos = pos
    return step_users


def _draw_authorisation(k: int, n: int,
                        seed: int) -> tuple[AuthorisationFunction, int, int]:
    """The authorisation drawn under `seed`, the RNG state after it, and the
    number of attempts it took.  An attempt that leaves some step with no
    authorised user is retried under the next sub-seed."""
    for attempt in range(MAX_DRAW_ATTEMPTS):
        rng = SplitMix64(derive_seed(seed, attempt))
        step_users = _draw_step_users(rng, k, n)
        if all(step_users):
            auth = AuthorisationFunction.from_lists(step_users, n)
            return auth, rng.state, attempt + 1
    raise WspError(
        f"generate: no draw authorised every step after {MAX_DRAW_ATTEMPTS} "
        f"attempts (k={k}, n={n})")


def _pair(rng: SplitMix64, k: int) -> tuple[int, int]:
    """`rng.subset(k, 2)` without the pool: the second pick is position b,
    which holds step 0 when the first pick swapped it there."""
    a = rng.below(k)
    b = 1 + rng.below(k - 1)
    return a, (0 if b == a else b)


# Shared sod and am3 values, each kind up to the largest k whose values all
# fit under the bound (see the module docstring).
_SHARED_MAX = 1024
_SOD_SHARED_K = 45  # C(45, 2) = 990 pairs; C(46, 2) = 1035
_AM3_SHARED_K = 12  # C(12, 5) = 792 scopes; C(13, 5) = 1287


@lru_cache(maxsize=_SHARED_MAX)
def _shared_sod(s1: int, s2: int) -> SoD:
    return SoD(s1, s2)


@lru_cache(maxsize=_SHARED_MAX)
def _shared_am3(scope: tuple[int, ...]) -> AtMost:
    return AtMost(3, scope)


def _draw_sod(rng: SplitMix64, k: int, n: int) -> Constraint:
    a, b = _pair(rng, k)
    if a > b:
        a, b = b, a
    return _shared_sod(a, b) if k <= _SOD_SHARED_K else SoD(a, b)


def _draw_am3(rng: SplitMix64, k: int, n: int) -> Constraint:
    scope = rng.subset(k, 5)
    scope.sort()
    if k <= _AM3_SHARED_K:
        return _shared_am3(tuple(scope))
    return AtMost(3, tuple(scope))


def _draw_sual(rng: SplitMix64, k: int, n: int) -> Constraint:
    scope = tuple(rng.subset(k, 5))
    return SUAL(scope, 3, mask_of(rng.subset(n, 5)))


def _draw_wl(rng: SplitMix64, k: int, n: int) -> Constraint:
    team = n // 4
    scope = _pair(rng, k)
    sample = rng.subset(n, 2 * team)
    return WL(scope, (mask_of(sample[:team]), mask_of(sample[team:])))


def _draw_ada(rng: SplitMix64, k: int, n: int) -> Constraint:
    half = n // 2
    s1, s2 = _pair(rng, k)
    return ADA(s1, s2, mask_of(rng.subset(n, half)), mask_of(rng.subset(n, half)))


class _Kind(NamedTuple):
    """A constraint kind: its drawer, which draws one constraint, and the
    fewest steps and users its draws need, by the shapes in the module
    docstring."""

    draw: Callable[[SplitMix64, int, int], Constraint]
    steps: int
    users: int


# the kinds in draw order, each continuing the stream the kinds before it
# (or the authorisation) left off; `GenSpec` has one count field per kind
_KINDS = {"sod": _Kind(_draw_sod, 2, 1), "am3": _Kind(_draw_am3, 5, 1),
          "sual": _Kind(_draw_sual, 5, 5), "wl": _Kind(_draw_wl, 2, 4),
          "ada": _Kind(_draw_ada, 2, 2)}

FAMILY_KINDS = tuple(_KINDS)


def _draw_kinds(rng: SplitMix64, spec: GenSpec,
                kinds: Sequence[str]) -> list[Constraint]:
    """The constraints of `kinds`, in order, as many of each as `spec`
    asks for."""
    k, n = spec.k, spec.n
    out: list[Constraint] = []
    for kind in kinds:
        draw = _KINDS[kind].draw
        out += [draw(rng, k, n) for _ in range(getattr(spec, kind))]
    return out


def generate_with_meta(spec: GenSpec) -> tuple[Instance, dict]:
    """Draw the instance a GenSpec determines, plus draw metadata (the
    number of attempts it took to authorise every step)."""
    auth, state, attempts = _draw_authorisation(spec.k, spec.n, spec.seed)
    constraints = _draw_kinds(SplitMix64(state), spec, FAMILY_KINDS)
    inst = Instance(spec.k, spec.n, auth, tuple(constraints))
    return inst, {
        "seed": spec.seed,
        "attempts": attempts,
        "version": GENERATOR_VERSION,
    }


def generate(spec: GenSpec) -> Instance:
    """Draw the instance a GenSpec determines; a pure function of it."""
    return generate_with_meta(spec)[0]


def family_draw(spec: GenSpec, master_seed: int,
                index: int) -> tuple[Instance, dict]:
    """Draw `index` of the family of `spec` under `master_seed`: `spec`
    drawn under the sub-seed `derive_seed(master_seed, index)`, with its
    metadata."""
    return generate_with_meta(
        replace(spec, seed=derive_seed(master_seed, index)))


# --- satisfiability-rate calibration ----------------------------------------------


def _is_sat(inst: Instance) -> bool:
    # solve_backtracking is looked up on every call, so a wrapper installed
    # on wspkit.solver sees each calibration solve
    from .solver import Verdict, solve_backtracking

    return solve_backtracking(inst).verdict is Verdict.SAT


class _Sample:
    """One calibration sample, `family_draw(base, base.seed, index)` with a
    varying count of the `vary` kind, drawn once for every count.

    It keeps the authorisation, the constraints of the kinds drawn before
    `vary`, and the `vary` constraints drawn so far with the RNG state after
    each, so the instance at a count is a prefix of that list plus the kinds
    drawn after `vary`, redrawn from the state where the prefix ends.
    Nothing is drawn until the first instance is asked for.
    """

    def __init__(self, base: GenSpec, vary: str, index: int) -> None:
        cut = FAMILY_KINDS.index(vary)
        self.base = base
        self.vary = vary
        self.draw = _KINDS[vary].draw
        self.seed = derive_seed(base.seed, index)
        self.kinds_before = FAMILY_KINDS[:cut]
        self.kinds_after = FAMILY_KINDS[cut + 1:]
        self.auth: Optional[AuthorisationFunction] = None
        self.before: list[Constraint] = []
        self.varied: list[Constraint] = []
        self.states: list[int] = []   # states[i]: after varied[:i]

    def instance(self, count: int) -> Instance:
        """The instance with `count` `vary` constraints on top of the base's;
        the spec at that count must be a valid `GenSpec`."""
        base, vary = self.base, self.vary
        if self.auth is None:
            self.auth, state, _ = _draw_authorisation(base.k, base.n,
                                                      self.seed)
            rng = SplitMix64(state)
            self.before = _draw_kinds(rng, base, self.kinds_before)
            self.states.append(rng.state)
        total = getattr(base, vary) + count
        rng = SplitMix64(self.states[-1])
        while len(self.varied) < total:
            self.varied.append(self.draw(rng, base.k, base.n))
            self.states.append(rng.state)
        after = _draw_kinds(SplitMix64(self.states[total]), base,
                            self.kinds_after)
        return Instance(base.k, base.n, self.auth,
                        (*self.before, *self.varied[:total], *after))


def _check_calibration(base: GenSpec, samples: int,
                       band: tuple[float, float], vary: str,
                       jobs: int) -> None:
    """`calibrate_pt`'s argument checks, which also run before a cached
    calibration is read, so a cache hit refuses what a miss refuses."""
    lo, hi = band
    if samples < 20:
        raise InvariantError(
            f"calibrate: need at least 20 samples, got {samples}")
    if not 0.0 < lo < hi < 1.0:
        raise InvariantError(f"calibrate: band must satisfy 0 < lo < hi < 1, "
                             f"got [{lo}, {hi}]")
    if vary not in FAMILY_KINDS:
        raise InvariantError(f"calibrate: unknown constraint kind {vary!r}")
    if isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 1:
        raise InvariantError(
            f"calibrate: jobs must be an int >= 1, got {jobs!r}")
    if vary == "sod" and base.sod != 0:
        raise InvariantError(
            "calibrate: base spec already fixes the sod count")


def calibrate_pt(base: GenSpec, samples: int = 40,
                 band: tuple[float, float] = (0.4, 0.6), *,
                 vary: str = "sod", jobs: int = 1) -> PTCalibration:
    """Find the smallest `vary`-constraint count whose measured SAT rate
    falls inside `band`, by integer bisection over [0, k(k-1)/2], at the
    base spec's k steps and n users.

    Assumes the rate is monotone non-increasing in the count, which holds in
    expectation (every added constraint can only remove plans) though
    sampling noise can dent it.  The returned count's rate is always
    re-checked against the band, so a noisy bisection fails loudly rather
    than returning an out-of-band count.

    Sample i is `generate(replace(base, seed=derive_seed(base.seed, i)))`
    at each probed count, drawn once per call: its authorisation and the
    constraints of the varied kind are shared by every count, so each
    sample keeps the constraints of the largest count probed (up to the cap
    k(k-1)/2) until the call returns.  With `jobs > 1` one process pool
    serves the whole call and its workers receive instances.
    """
    _check_calibration(base, samples, band, vary, jobs)
    if jobs > 1:
        # imported here: the pool machinery costs every `import wspkit`
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return _bisect(base, vary, samples, band,
                           partial(pool.map, _is_sat, chunksize=4))
    return _bisect(base, vary, samples, band, partial(map, _is_sat))


def _bisect(base: GenSpec, vary: str, samples: int,
            band: tuple[float, float],
            is_sat: Callable[[Iterable[Instance]], Iterable[bool]]
            ) -> PTCalibration:
    """The bisection of `calibrate_pt`; `is_sat` maps instances to their
    verdicts, serially or on a process pool."""
    lo, hi = band
    draws = [_Sample(base, vary, i) for i in range(samples)]
    rates: dict[int, float] = {}

    def rate(count: int) -> float:
        if count not in rates:
            # the spec at this count checks its shape before any sample is
            # drawn for it, so a bad count raises before its first solve
            replace(base, **{vary: getattr(base, vary) + count})
            hits = sum(is_sat(d.instance(count) for d in draws))
            rates[count] = hits / samples
        return rates[count]

    if rate(0) < lo:
        raise CalibrationError(
            f"calibrate: rate is {rate(0):.3f} with no {vary} constraints, "
            f"below the band [{lo}, {hi}]")
    if rate(0) <= hi:
        return PTCalibration(0, rate(0), samples)
    cap = base.k * (base.k - 1) // 2
    if rate(cap) > hi:
        raise CalibrationError(
            f"calibrate: rate stays above the band [{lo}, {hi}]: "
            f"{rate(0):.3f} at 0, {rate(cap):.3f} at {cap}")

    low, high = 0, cap  # rate(low) > hi >= rate(high)
    while high - low > 1:
        mid = (low + high) // 2
        if rate(mid) <= hi:
            high = mid
        else:
            low = mid
    measured = rate(high)
    if measured >= lo:
        return PTCalibration(high, measured, samples)
    raise CalibrationError(
        f"calibrate: no {vary} count lands in the band [{lo}, {hi}]: "
        f"rate jumps from {rate(low):.3f} at {low} to {measured:.3f} "
        f"at {high}")


# --- calibration cache -------------------------------------------------------------


def cache_dir() -> Path:
    env = os.environ.get("WSPKIT_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "wspkit"


def calibration_path(k: int, n: int, family: str) -> Path:
    return cache_dir() / f"pt-k{k}-n{n}-{family}.json"


def _cache_key(k: int, n: int, family: str, samples: int,
               band: tuple[float, float], master_seed: int) -> dict:
    """The settings a cached calibration was computed under; a cache file
    holds them next to its result, and a load under other settings
    misses."""
    return {"k": k, "n": n, "family": family, "samples": samples,
            "band": list(band), "master_seed": master_seed}


def save_calibration(k: int, n: int, family: str, cal: PTCalibration,
                     band: tuple[float, float], master_seed: int) -> Path:
    path = calibration_path(k, n, family)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = _cache_key(k, n, family, cal.samples, band, master_seed)
    doc.update(e_value=cal.e_value, sat_rate=cal.sat_rate)
    path.write_text(json_text(doc, sort_keys=True) + "\n",
                    encoding="ascii")
    return path


def load_calibration(k: int, n: int, family: str, samples: int,
                     band: tuple[float, float],
                     master_seed: int) -> Optional[PTCalibration]:
    """The cached calibration, or None when absent, malformed or computed
    under different settings."""
    path = calibration_path(k, n, family)
    if not path.exists():
        return None
    try:
        doc = json.loads(path.read_text(encoding="ascii"))
    except (OSError, ValueError, RecursionError):
        return None
    if not isinstance(doc, dict):
        return None
    expected = _cache_key(k, n, family, samples, band, master_seed)
    if any(doc.get(key) != value for key, value in expected.items()):
        return None
    try:
        return PTCalibration(doc["e_value"], doc["sat_rate"], doc["samples"])
    except (KeyError, TypeError, InvariantError):
        return None


# --- benchmark families ---------------------------------------------------------------


def _round_three_quarters(e: int) -> int:
    # round(0.75 e) to the nearest integer, ties down: ceil(3e/4 - 1/2)
    return (3 * e + 1) // 4


def _calibrated(base: GenSpec, kind: str, samples: int,
                band: tuple[float, float], use_cache: bool,
                jobs: int) -> PTCalibration:
    """The calibrated count of `kind` on top of `base`, from the cache
    when it holds one."""
    _check_calibration(base, samples, band, kind, jobs)
    k, n = base.k, base.n
    if use_cache:
        cached = load_calibration(k, n, kind, samples, band, base.seed)
        if cached is not None:
            return cached
    cal = calibrate_pt(base, samples, band, vary=kind, jobs=jobs)
    if use_cache:
        save_calibration(k, n, kind, cal, band, base.seed)
    return cal


def family_spec(kind: str, k: int, n: int, *,
                count_override: Optional[int] = None, samples: int = 40,
                band: tuple[float, float] = (0.4, 0.6),
                use_cache: bool = True, jobs: int = 1) -> GenSpec:
    """The calibrated constraint counts of a benchmark family, as a spec
    with seed 0.

    Every family starts from k am3 constraints.  The "sod" family adds the
    calibrated sod count e.  The other families fix sod at round(0.75 e) and
    add a calibrated count of their own kind on top.  `count_override` skips
    the final calibration and uses the given count for the family's own
    kind.
    """
    kind = kind.lower()
    if kind not in FAMILY_KINDS:
        raise InvariantError(f"family: unknown constraint kind {kind!r}")
    base = GenSpec(k=k, n=n, am3=k, seed=derive_seed(k, n))
    if kind != "sod":
        sod = _calibrated(base, "sod", samples, band, use_cache, jobs)
        base = replace(base, sod=_round_three_quarters(sod.e_value))
    extra = count_override
    if extra is None:
        extra = _calibrated(base, kind, samples, band, use_cache,
                            jobs).e_value
    return replace(base, seed=0, **{kind: getattr(base, kind) + extra})

