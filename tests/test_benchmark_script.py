"""The kernel benchmark script runs end to end and reports a speedup table.

The script compares the compiled and pure kernel backends, so it needs the
compiled one.  When the package under test was not built with it, the test
runs the script against the copy of the package in which `conftest.py`
compiled the committed, Cython-generated `_speed.c` for this session.
Because the tests build from that C file, two more tests check that it was
generated from the current `_speed.pyx`: one compares the `.pyx` lines the
C file quotes, the other the `.pyx` against the SHA-256 committed beside the
C file, which also covers the lines Cython does not quote.
"""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import COMPILED_BUILD_ERROR, COMPILED_MISSING, COMPILED_SRC, PACKAGE

REPO_ROOT = Path(__file__).resolve().parents[1]
SCRIPT = REPO_ROOT / "benchmarks" / "kernel_benchmark.py"
SPEED_PYX = PACKAGE / "_kernel" / "_speed.pyx"
SPEED_C = PACKAGE / "_kernel" / "_speed.c"
SPEED_PYX_SHA256 = PACKAGE / "_kernel" / "_speed.pyx.sha256"


@pytest.mark.skipif(COMPILED_MISSING is not None,
                    reason=f"cannot build the compiled kernel: {COMPILED_MISSING}")
def test_kernel_benchmark_compares_both_backends(tmp_path):
    assert COMPILED_BUILD_ERROR is None, COMPILED_BUILD_ERROR
    env = dict(os.environ, WSPKIT_CACHE_DIR=str(tmp_path))
    if COMPILED_SRC is not None:
        env["PYTHONPATH"] = str(COMPILED_SRC)
    res = subprocess.run(
        [sys.executable, str(SCRIPT), "--k-list", "5,6", "--n-mult", "2",
         "--seeds", "2", "--band-lo", "0.25", "--band-hi", "0.75"],
        capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert "pure_ms" in lines[0] and "compiled_ms" in lines[0]
    medians = [line for line in lines if "median" in line]
    assert len(medians) == 2  # one summary row per size
    data = [line for line in lines[1:] if "median" not in line]
    assert len(data) == 4  # sizes x seeds
    assert all(line.rstrip().endswith("x") for line in data)


MARKER = re.compile(r'^\s*/\* "wspkit/_kernel/_speed\.pyx":(\d+)$')
POINTER = "             # <<<<<<<<<<<<<<"


def quoted_pyx_lines(c_text: str):
    """Yield (line number, text) for every pyx line that the generated C
    quotes.  Cython comments each block of C with the pyx line it comes
    from, marked with a `# <<<` pointer, plus up to two lines of context on
    either side, each written as ` * ` + the line with trailing blanks
    stripped and comment delimiters escaped."""
    lines = c_text.splitlines()
    for i, line in enumerate(lines):
        m = MARKER.match(line)
        if not m:
            continue
        body = lines[i + 1:lines.index("*/", i + 1)]
        pointers = [j for j, b in enumerate(body) if b.endswith(POINTER)]
        assert len(pointers) == 1, f"C line {i + 1}: {len(pointers)} pointers"
        first = int(m.group(1)) - pointers[0]
        for j, quoted in enumerate(body):
            text = quoted[3:-len(POINTER)] if j == pointers[0] else quoted[3:]
            text = text.replace("*[inserted by cython to avoid comment closer]/", "*/")
            text = text.replace("/[inserted by cython to avoid comment start]*", "/*")
            yield first + j, text


def test_speed_c_is_generated_from_current_pyx():
    pyx = SPEED_PYX.read_text(encoding="utf-8").splitlines()
    quoted = list(quoted_pyx_lines(SPEED_C.read_text(encoding="utf-8")))
    assert quoted, "no pyx line markers found in _speed.c"
    stale = [(n, text, pyx[n - 1].rstrip() if n <= len(pyx) else None)
             for n, text in quoted
             if n > len(pyx) or pyx[n - 1].rstrip() != text]
    assert not stale, (
        "_speed.c is stale: regenerate it from _speed.pyx with "
        "`python setup.py build_ext --inplace`; "
        f"first mismatches (line, in C, in pyx): {stale[:3]}")


def test_speed_pyx_matches_the_hash_committed_with_speed_c():
    recorded = SPEED_PYX_SHA256.read_text(encoding="ascii").split()[0]
    actual = hashlib.sha256(SPEED_PYX.read_bytes()).hexdigest()
    assert actual == recorded, (
        "_speed.pyx changed since _speed.c was generated: regenerate it with "
        "`python setup.py build_ext --inplace`, then refresh the hash with "
        "`sha256sum _speed.pyx > _speed.pyx.sha256` in src/wspkit/_kernel")
