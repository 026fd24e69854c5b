"""The compiled kernel optimised, and under the compiler's sanitizers.

`_speed.c` allocates by hand and indexes flat buffers, and the parity suite
checks it at `-O0` on valid input only.  Here it is built three more times,
each time into its own temporary copy of the package: once at `-O3`, as an
installed build would optimise it, with every warning an error; once with
UndefinedBehavior Sanitizer, every report fatal; and once with
AddressSanitizer.  Each build runs the parity tests in a fresh interpreter
that imports it.  The ASan build also checks parity from buffers of exactly
the packed size, then runs seeded corruptions of `pack` buffers (edge
values, small nudges, cuts, extensions and swaps of adjacent ints), each of
which the kernel must run or refuse with ValueError or MemoryError.

ASan's runtime must be the first library in the process, so its interpreter
preloads the compiler's libasan.  PYTHONMALLOC=malloc sends the
interpreter's small allocations, the kernel's and the buffers' included,
through ASan's allocator, which then knows their bounds.  A corrupted count
can ask for terabytes: `allocator_may_return_null` turns that into
MemoryError, and `max_allocation_size_mb` keeps any one allocation small.

The tests are marked `sweep`, so the default run deselects them; they skip,
naming what is missing, when the compiler or a sanitizer runtime is not
there.
"""

import json
import os
import shlex
import subprocess
import sys
import sysconfig
from functools import lru_cache
from pathlib import Path

import pytest

from conftest import build_kernel_copy, missing_build_tool

pytestmark = pytest.mark.sweep

ROOT = Path(__file__).resolve().parents[1]

# name -> (the sanitizer's compile and link flags, its runtime library, and
# the environment that the interpreter running the build needs)
SANITIZERS = {
    "undefined": (("-fsanitize=undefined", "-fno-sanitize-recover=undefined"),
                  "libubsan.so", {"UBSAN_OPTIONS": "print_stacktrace=1"}),
    "address": (("-fsanitize=address",), "libasan.so", {
        "ASAN_OPTIONS": "detect_leaks=0:allocator_may_return_null=1"
                        ":max_allocation_size_mb=256",
        "PYTHONMALLOC": "malloc"}),
}


def runtime_path(library: str):
    """The C compiler's copy of a sanitizer runtime, or None.  gcc prints
    the bare name back when it has no such file."""
    cc = shlex.split(sysconfig.get_config_var("CC"))
    res = subprocess.run([*cc, f"-print-file-name={library}"],
                         capture_output=True, text=True, timeout=60)
    path = Path(res.stdout.strip())
    return path if res.returncode == 0 and path.is_absolute() \
        and path.exists() else None


@lru_cache(maxsize=None)
def sanitized_build(name: str) -> dict:
    """The environment of an interpreter that imports `_speed.c` built
    under sanitizer `name`; skips when a tool or runtime is missing."""
    flags, library, extra_env = SANITIZERS[name]
    missing = missing_build_tool()
    if missing is not None:
        pytest.skip(f"cannot build the kernel: {missing}")
    runtime = runtime_path(library)
    if runtime is None:
        pytest.skip(f"the C compiler has no {library} for -fsanitize={name}")
    src = build_kernel_copy(("-O1", "-g", "-fno-omit-frame-pointer", *flags),
                            flags)
    env = dict(os.environ, PYTHONPATH=str(src), **extra_env)
    if name == "address":
        env["LD_PRELOAD"] = str(runtime)
    return env


def run_python(env: dict, *argv: str, timeout: int) -> subprocess.CompletedProcess:
    res = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=timeout)
    assert res.returncode == 0, (res.stdout[-4000:], res.stderr[-4000:])
    return res


def assert_parity_cases_pass(env: dict) -> None:
    """The parity tests pass in an interpreter that imports the build that
    `env` puts on its path."""
    where = run_python(env, "-c", "from wspkit._kernel import _speed; "
                       "print(_speed.__file__)", timeout=60).stdout
    assert where.startswith(env["PYTHONPATH"])
    # that interpreter's conftest finds the build importable, so it builds
    # nothing and every parity test runs against it
    out = run_python(env, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                     "tests/test_kernel_parity.py", timeout=1800).stdout
    assert " passed" in out and " skipped" not in out, out[-2000:]


@pytest.mark.parametrize("name", sorted(SANITIZERS))
def test_parity_cases_under_sanitizer(name):
    assert_parity_cases_pass(sanitized_build(name))


def test_parity_cases_at_o3():
    missing = missing_build_tool()
    if missing is not None:
        pytest.skip(f"cannot build the kernel: {missing}")
    src = build_kernel_copy(("-O3", "-Wall", "-Wextra", "-Werror"))
    assert_parity_cases_pass(dict(os.environ, PYTHONPATH=str(src)))


BUFFER_SCRIPT = r"""
import json, math, random, sys
from wspkit._kernel import _pure, _speed, pack
from wspkit.absorption import absorb
from wspkit.generator import GenSpec, derive_seed, generate
from wspkit.solver import compile_search_problem

# draws with every constraint kind, and n > 64, so masks span two words;
# the second shape has no SUAL, so its last mask row ends the words buffer
SHAPES = (dict(k=6, n=70, sod=3, am3=1, sual=1, wl=1, ada=1),
          dict(k=8, n=80, am3=8, sod=10, ada=3, wl=1),
          dict(k=10, n=80, am3=10, sod=7, sual=1, wl=2, ada=2))
problems = [compile_search_problem(absorb(generate(GenSpec(
                seed=derive_seed(20, i), **shape))))
            for i, shape in enumerate(SHAPES * 10)]
# `pack`'s arrays keep spare room past their end, so each problem also
# runs from copies of exactly its size, which a read past either buffer
# leaves
never = 1 << 62
for prob in problems:
    ints, words = (buf[:] for buf in pack(prob))
    expected = _pure.run_search(prob, never, math.inf)
    assert _speed.search(ints, words, never, math.inf) == expected, prob
    cap = expected[2] // 2
    assert _speed.search(ints, words, cap, math.inf) == \
        _pure.run_search(prob, cap, math.inf), prob
buffers = [pack(prob) for prob in problems]
EDGES = (-1, 0, 1, 2, 63, 64, 65, 2**31 - 1, -2**31)
rng = random.Random(int(sys.argv[1]))
tally = {"ran": 0, "ValueError": 0, "MemoryError": 0}
for _ in range(int(sys.argv[2])):
    ints, words = (buf[:] for buf in rng.choice(buffers))
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(6)
        if op < 2 and ints:
            i = rng.randrange(len(ints))
            shifted = max(-2**31, min(2**31 - 1, ints[i] + rng.randint(-3, 3)))
            ints[i] = rng.choice(EDGES) if op == 0 else shifted
        elif op == 2:
            del ints[rng.randint(0, len(ints)):]
        elif op == 3:
            ints.extend(rng.randint(-2, 70) for _ in range(rng.randint(1, 4)))
        elif op == 4 and len(ints) > 1:
            # two adjacent ints swapped: a table's length trades places
            # with an entry, or one field of a row with the next
            i = rng.randrange(len(ints) - 1)
            ints[i], ints[i + 1] = ints[i + 1], ints[i]
        elif rng.random() < 0.5:
            del words[rng.randint(0, len(words)):]
        else:
            words.extend(rng.getrandbits(64) for _ in range(rng.randint(1, 4)))
    try:
        _speed.search(ints, words, 200, math.inf)
        tally["ran"] += 1
    except (ValueError, MemoryError) as exc:
        tally[type(exc).__name__] += 1
print(json.dumps(dict(tally, problems=len(problems), module=_speed.__file__)))
"""


def test_pack_buffers_under_address_sanitizer():
    # parity from exact-size buffers, then seeded corruptions of them
    env = sanitized_build("address")
    count = 20_000
    out = run_python(env, "-c", BUFFER_SCRIPT, "81", str(count),
                     timeout=1800).stdout
    tally = json.loads(out.splitlines()[-1])
    assert tally.pop("module").startswith(env["PYTHONPATH"])
    assert tally.pop("problems") >= 20
    assert sum(tally.values()) == count
    assert tally["ran"] and tally["ValueError"] and tally["MemoryError"], tally
