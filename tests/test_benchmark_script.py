"""The benchmark's backend parity check and its export checks.

`perfbench/run.py` compares every solve of a pass against each other
importable kernel backend.  The first test drives that path in process
against the compiled kernel that `conftest.py` provides.  The second runs
one untraced pass of the `export` workload, whose checks cover the OPB
header, the DIMACS problem line, the CS JSON variable count, and each SAT
plan's assignment on all three models.  The third runs one untraced pass of
`alternatives`, whose WL and ADA draws drive absorption's product and whose
checks verify every SAT plan.
"""

import dataclasses
from pathlib import Path
from types import SimpleNamespace

import pytest

import wspkit.absorption
import wspkit.core
import wspkit.encode
import wspkit.generator
import wspkit.solver
import wspkit._kernel
from conftest import COMPILED_BUILD_ERROR, COMPILED_MISSING

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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

