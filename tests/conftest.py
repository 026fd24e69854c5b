"""Shared fixtures, independent oracles and the session's compiled kernel.

The oracles here deliberately take different routes than the package code
they check: Bell numbers come from a Stirling-number sum instead of the
triangle, maximum matchings from exhaustive recursion instead of
augmenting paths, valid-plan sets from longhand semantics over the full
plan space where affordable, user masks from shift-and-or loops instead of
linear scans, and the SplitMix64 stream one output at a time instead of in
lane batches.

When the package under test has no compiled kernel, this module builds the
hand-written `_speed.c` once per session into a temporary copy of the
package (only a C compiler and the Python headers are needed) and
registers it as `wspkit._kernel._speed`.  It builds with `-Wall -Wextra
-Werror`, so a compiler warning in the kernel fails the session's tests.
The default backend stays the one selected at import, so the rest of the
suite still runs on it, while the parity tests can compare it with the
compiled one.  The sanitizer sweep builds its own copies with
`build_kernel_copy`.  Nothing is built inside the repository.
"""

from __future__ import annotations

import atexit
import gc
import importlib.util
import itertools
import random
import shlex
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path
from typing import Callable, Optional

import pytest

import wspkit._kernel
from absorption_oracle import functions, pattern_satisfies
from wspkit.absorption import AbsorbedInstance
from wspkit.core import (
    ADA,
    AtLeast,
    AtMost,
    AuthorisationFunction,
    BoD,
    Instance,
    SUAL,
    SoD,
    WL,
    bits_of,
    is_authorised,
    is_eligible,
)
from wspkit.patterns import Pattern, pattern_of
from wspkit.solver import _check_cap

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wspkit"

# The tests check results and counters, not speed, so the kernel is compiled
# without optimisation to keep the build short; any warning is an error.
KERNEL_FLAGS = ("-O0", "-Wall", "-Wextra", "-Werror")

BUILD_SCRIPT = """
from setuptools import Extension, setup
setup(name="wspkit-kernel", ext_modules=[Extension(
    "wspkit._kernel._speed", ["wspkit/_kernel/_speed.c"],
    extra_compile_args={compile_args!r}, extra_link_args={link_args!r})])
"""


def missing_build_tool() -> Optional[str]:
    """Name what building `_speed.c` needs and this interpreter lacks, or
    return None when a C compiler and `Python.h` are both present."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    if not cc:
        return "no C compiler configured (sysconfig CC is unset)"
    if shutil.which(cc[0]) is None:
        return f"C compiler {cc[0]!r} not found"
    header = Path(sysconfig.get_paths()["include"]) / "Python.h"
    if not header.is_file():
        return f"{header} not found"
    return None


def build_kernel_copy(compile_args, link_args=()) -> Path:
    """Copy the package to a new temporary directory, removed at exit, and
    compile `_speed.c` in place there with `compile_args` and `link_args`.
    Returns the copy's `src` directory, which holds `wspkit`.  Raises
    RuntimeError with the compiler's output when the build fails."""
    dest = Path(tempfile.mkdtemp(prefix="wspkit-kernel-"))
    atexit.register(shutil.rmtree, dest, True)
    src = dest / "src"
    shutil.copytree(PACKAGE, src / "wspkit",
                    ignore=shutil.ignore_patterns("__pycache__", "*.so"))
    script = BUILD_SCRIPT.format(compile_args=list(compile_args),
                                 link_args=list(link_args))
    res = subprocess.run(
        [sys.executable, "-c", script, "build_ext", "--inplace",
         "--build-temp", str(dest / "build")],
        cwd=src, capture_output=True, text=True, timeout=300)
    if res.returncode != 0:
        raise RuntimeError(f"building _speed.c failed:\n{res.stderr}")
    return src


def _register_compiled_copy() -> None:
    """Build `_speed.c` into a temporary copy of the package and register
    it as `wspkit._kernel._speed` without changing the selected backend."""
    src = build_kernel_copy(KERNEL_FLAGS)
    name = "wspkit._kernel._speed"
    (path,) = (src / "wspkit" / "_kernel").glob("_speed*.so")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    wspkit._kernel._speed = module


# COMPILED_MISSING: the build tool whose absence leaves the session without
# a compiled kernel.  COMPILED_BUILD_ERROR: why a build with the tools
# present failed; the tests that need the kernel fail with it.
COMPILED_MISSING: Optional[str] = None
COMPILED_BUILD_ERROR: Optional[str] = None
if "compiled" not in wspkit._kernel.available_backends():
    COMPILED_MISSING = missing_build_tool()
    if COMPILED_MISSING is None:
        try:
            _register_compiled_copy()
        except RuntimeError as exc:
            COMPILED_BUILD_ERROR = str(exc)


def purchase_order_instance() -> Instance:
    """Six-step purchase-order workflow over eight users; four
    separation-of-duty pairs and one binding-of-duty pair."""
    auth = AuthorisationFunction.from_lists(
        [[0, 1], [1, 2], [0, 2], [2, 3], [2, 3, 4, 7], [4, 5, 6]], 8)
    constraints = (SoD(0, 1), SoD(0, 3), SoD(2, 4), SoD(3, 5), BoD(0, 2))
    return Instance(6, 8, auth, constraints)


PO_PLAN = (0, 1, 0, 3, 2, 4)          # a known valid plan
PO_PATTERN_RGS = (0, 1, 0, 2, 3, 4)   # its canonical pattern
PO_VALID_COUNT = 48                   # exhaustively enumerated


@pytest.fixture
def po_instance() -> Instance:
    return purchase_order_instance()


def disjoint_wl_instance() -> Instance:
    """Ten steps over twelve users, all authorised everywhere, and five WL
    constraints on disjoint step pairs with six 2-user teams each: nothing
    prunes, so the WL product has exactly 6**5 = 7776 members."""
    teams = tuple(frozenset({2 * t, 2 * t + 1}) for t in range(6))
    cs = tuple(WL((2 * i, 2 * i + 1), teams) for i in range(5))
    return Instance(10, 12, AuthorisationFunction.total(10, 12), cs)


# --- independent oracles -----------------------------------------------------


def bell_oracle(k: int) -> int:
    """Bell number via Stirling numbers of the second kind."""
    S = [[0] * (k + 1) for _ in range(k + 1)]
    S[0][0] = 1
    for i in range(1, k + 1):
        for j in range(1, i + 1):
            S[i][j] = j * S[i - 1][j] + S[i - 1][j - 1]
    return sum(S[k])


def matching_oracle(block_masks, n) -> int:
    """Maximum matching size by exhaustive recursion (small graphs only)."""
    nb = len(block_masks)

    def best(b: int, used: int) -> int:
        if b == nb:
            return 0
        top = best(b + 1, used)  # leave block b unmatched
        avail = block_masks[b] & ~used
        while avail:
            lsb = avail & -avail
            avail ^= lsb
            top = max(top, 1 + best(b + 1, used | lsb))
        return top

    return best(0, 0)


def valid_plans_longhand(inst: Instance) -> set[tuple[int, ...]]:
    """Every valid plan, by scanning the full n^k space with the plan-level
    definitions written out over sets, not over the constraints' masks."""
    out = set()
    for plan in itertools.product(range(inst.n), repeat=inst.k):
        if not all(inst.auth.allows(s, plan[s]) for s in range(inst.k)):
            continue
        ok = True
        for c in inst.constraints:
            if isinstance(c, SoD):
                ok = plan[c.s1] != plan[c.s2]
            elif isinstance(c, BoD):
                ok = plan[c.s1] == plan[c.s2]
            elif isinstance(c, AtMost):
                ok = len({plan[s] for s in c.scope}) <= c.r
            elif isinstance(c, AtLeast):
                ok = len({plan[s] for s in c.scope}) >= c.r
            elif isinstance(c, SUAL):
                used = {plan[s] for s in c.scope}
                ok = len(used) > c.h or used <= set(bits_of(c.supers))
            elif isinstance(c, WL):
                used = {plan[s] for s in c.scope}
                ok = any(used <= set(bits_of(team)) for team in c.teams)
            elif isinstance(c, ADA):
                ok = (plan[c.s1] not in bits_of(c.trigger)
                      or plan[c.s2] in bits_of(c.required))
            if not ok:
                break
        if ok:
            out.add(plan)
    return out


def allocated_blocks_left_by(call: Callable[[], object], times: int) -> int:
    """How many more memory blocks are allocated after `times` calls of
    `call` than before them, with the collector off.  A full collection
    first empties the interpreter's free lists, and `times` calls before
    the count refill those the calls draw on, so what counts is what the
    calls keep: a freed tuple that waits on a free list no allocation takes
    it from counts once per call."""
    gc.collect()
    gc.disable()
    try:
        for _ in range(times):
            call()
        before = sys.getallocatedblocks()
        for _ in range(times):
            call()
        return sys.getallocatedblocks() - before
    finally:
        gc.enable()


def mask_of_loop(users) -> int:
    """`core.mask_of` by its definition: one shift-and-or per user."""
    m = 0
    for u in users:
        m |= 1 << u
    return m


def bits_of_loop(mask: int) -> tuple[int, ...]:
    """`core.bits_of` by its definition: peel off the lowest set bit."""
    out = []
    while mask:
        lsb = mask & -mask
        out.append(lsb.bit_length() - 1)
        mask ^= lsb
    return tuple(out)


class ScalarSplitMix64:
    """`generator.SplitMix64` one output at a time, as the textbook stream
    defines it: add GOLDEN to the state, then mix the state."""

    MASK64 = (1 << 64) - 1
    GOLDEN = 0x9E3779B97F4A7C15

    def __init__(self, seed: int) -> None:
        self.state = seed & self.MASK64

    def next64(self) -> int:
        self.state = z = (self.state + self.GOLDEN) & self.MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), by rejection on the high bits."""
        shift = 64 - max(1, (bound - 1).bit_length())
        while True:
            value = self.next64() >> shift
            if value < bound:
                return value

    def subset(self, m: int, size: int) -> list[int]:
        """`size` distinct integers from range(m), in draw order, via a
        partial Fisher-Yates shuffle."""
        pool = list(range(m))
        for i in range(size):
            j = i + self.below(m - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:size]


def next64(rng) -> int:
    """The next raw output of a `generator.SplitMix64` stream: `below` over
    the whole 64-bit range takes it unshifted and never rejects it."""
    return rng.below(1 << 64)


# --- random instance sampler -------------------------------------------------

CONSTRAINT_KINDS = ("sod", "bod", "atmost", "atleast", "sual", "wl", "ada")


def _random_constraint(rng: random.Random, kind: str, k: int, n: int):
    if kind == "sod":
        s1, s2 = rng.sample(range(k), 2)
        return SoD(s1, s2)
    if kind == "bod":
        s1, s2 = rng.sample(range(k), 2)
        return BoD(s1, s2)
    if kind == "atmost":
        t = rng.randint(2, k)
        return AtMost(rng.randint(1, max(1, t - 1)), tuple(rng.sample(range(k), t)))
    if kind == "atleast":
        t = rng.randint(2, k)
        return AtLeast(rng.randint(1, t), tuple(rng.sample(range(k), t)))
    if kind == "sual":
        t = rng.randint(2, k)
        h = rng.randint(1, t - 1)
        supers = rng.sample(range(n), rng.randint(1, max(1, n // 2)))
        return SUAL(tuple(rng.sample(range(k), t)), h, frozenset(supers))
    if kind == "wl":
        t = rng.randint(2, k)
        d = rng.randint(1, min(3, n))
        pool = rng.sample(range(n), rng.randint(d, n))
        teams, at = [], 0
        for i in range(d):
            size = 1 if i < d - 1 else len(pool) - at
            teams.append(frozenset(pool[at:at + size]))
            at += size
        return WL(tuple(rng.sample(range(k), t)), tuple(teams))
    if kind == "ada":
        s1, s2 = rng.sample(range(k), 2)
        trig = rng.sample(range(n), rng.randint(1, n))
        req = rng.sample(range(n), rng.randint(1, n))
        return ADA(s1, s2, frozenset(trig), frozenset(req))
    raise ValueError(kind)


def random_instance(kind: str, seed: int, k_max: int = 5, n_max: int = 8) -> Instance:
    """A small random instance for cross-checking; `kind` picks the
    constraint mix ("mixed" draws from the whole catalogue)."""
    rng = random.Random(f"{kind}-{seed}")
    k = rng.randint(2, k_max)
    n = rng.randint(2, n_max)
    lists = []
    for _ in range(k):
        density = 0.25 + rng.random() * 0.55
        users = [u for u in range(n) if rng.random() < density]
        if not users and rng.random() < 0.85:
            users = [rng.randrange(n)]
        lists.append(users)
    auth = AuthorisationFunction.from_lists(lists, n)
    count = rng.randint(1, 3)
    if kind == "mixed":
        kinds = [rng.choice(CONSTRAINT_KINDS) for _ in range(rng.randint(2, 4))]
    else:
        kinds = [kind] * count
    constraints = tuple(_random_constraint(rng, kd, k, n) for kd in kinds)
    return Instance(k, n, auth, constraints)


# --- plan-level helpers the library does not need ------------------------------


def valid_plans(inst: Instance, cap: int = 10_000_000) -> list[tuple[int, ...]]:
    """All valid plans in lexicographic order, scanning the authorised
    product under `solve_bruteforce`'s cap (CapacityError above it)."""
    return [plan for plan in itertools.product(*_check_cap(inst, cap))
            if all(is_eligible(plan, c) for c in inst.constraints)]


def count_valid_plans(inst: Instance, cap: int = 10_000_000) -> int:
    return len(valid_plans(inst, cap))


def pattern_eligible(p: Pattern, constraints) -> bool:
    """All user-independent constraints satisfied at the pattern level."""
    return all(pattern_satisfies(p, c) for c in constraints)


def plan_authorised_cda(plan, absorbed: AbsorbedInstance) -> bool:
    """Is the plan authorised by the absorbed instance's family at the plan's
    own pattern?"""
    family = absorbed.family_for(pattern_of(plan))
    return any(is_authorised(plan, fn)
               for fn in functions(family, absorbed.instance.n))
