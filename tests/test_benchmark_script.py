"""The benchmark's backend parity check, its export checks, and the
provenance of `_speed.c`.

`perfbench/run.py` compares every solve of a pass against each other
importable kernel backend.  The first test drives that path in process
against the compiled kernel that `conftest.py` provides.  The second runs
one untraced pass of the `export` workload, whose checks cover the OPB
header, the DIMACS problem line, the CS JSON variable count, and each SAT
plan's assignment on all three models.  The third runs one untraced pass of
`alternatives`, whose WL and ADA draws drive absorption's product and whose
checks verify every SAT plan.  Because the tests
build from the committed `_speed.c`, two more tests check that it was
generated from the current `_speed.pyx`: one compares the `.pyx` lines the
C file quotes, the other the `.pyx` against the SHA-256 committed beside the
C file, which also covers the lines Cython does not quote.
"""

import dataclasses
import hashlib
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

import wspkit.absorption
import wspkit.core
import wspkit.encode
import wspkit.generator
import wspkit.solver
import wspkit._kernel
from conftest import COMPILED_BUILD_ERROR, COMPILED_MISSING, PACKAGE

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPEED_PYX = PACKAGE / "_kernel" / "_speed.pyx"
SPEED_C = PACKAGE / "_kernel" / "_speed.c"
SPEED_PYX_SHA256 = PACKAGE / "_kernel" / "_speed.pyx.sha256"


LIB = SimpleNamespace(
    core=wspkit.core, kernel=wspkit._kernel, absorption=wspkit.absorption,
    solver=wspkit.solver, generator=wspkit.generator, encode=wspkit.encode)


@pytest.mark.skipif(COMPILED_MISSING is not None,
                    reason=f"cannot build the compiled kernel: {COMPILED_MISSING}")
def test_benchmark_parity_check_compares_both_backends(tmp_path, monkeypatch):
    assert COMPILED_BUILD_ERROR is None, COMPILED_BUILD_ERROR
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    import speed
    import workloads

    wl = dataclasses.replace(workloads.WORKLOADS["search"], instances=60)
    state = wl.setup(LIB, 7, tmp_path, None, lambda: None)
    untraced = wl.run_pass(LIB, state, None, speed.RawClock())
    assert untraced.errors == []
    (other,) = {"pure", "compiled"} - {wspkit._kernel.BACKEND}

    errors = []
    status = run.check_parity(LIB, wl, state, untraced, errors)
    assert status == f"checked: {wspkit._kernel.BACKEND} against {other}"
    assert errors == []

    rec = untraced.solves[0]
    patterns, nodes, matchings = rec.counters
    rec.counters = (patterns, nodes + 1, matchings)
    run.check_parity(LIB, wl, state, untraced, errors)
    assert len(errors) == 1 and errors[0].startswith("parity: solve 0 ")


def test_benchmark_export_checks_pass(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import speed
    import workloads

    wl = dataclasses.replace(workloads.WORKLOADS["export"], instances=36)
    state = wl.setup(LIB, 81, tmp_path, None, lambda: None)
    out = wl.run_pass(LIB, state, None, speed.RawClock())
    assert out.errors == []
    assert (len(out.tasks), out.task_failed) == (36 // wl.export_every, 0)
    assert any(rec.verdict == "S" for rec in out.solves[::wl.export_every])


def test_benchmark_alternatives_checks_pass(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import speed
    import workloads

    wl = dataclasses.replace(workloads.WORKLOADS["alternatives"], instances=36)
    state = wl.setup(LIB, 81, tmp_path, None, lambda: None)
    out = wl.run_pass(LIB, state, None, speed.RawClock())
    assert out.errors == []
    assert len(out.solves) == 36
    assert {"S", "U"} <= {rec.verdict for rec in out.solves}


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
