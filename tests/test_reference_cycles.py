"""Every call frees what it builds by reference counting.

Each case's calls run with the cyclic collector disabled, and
`gc.collect()` then returns the number of unreachable objects they left,
which must be 0.  An object in a reference cycle outlives the call that
made it until the collector runs, and the collector's passes grow with
everything else the process holds: a nested function that calls itself
through its closure cell is such a cycle, and it keeps the whole of its
caller's search state.  Every call of a case runs once before any is
measured, so that imports and caches filled on a first call do not count.

A case measures all its calls together, between one pair of full
collections: each collection walks the whole test process's heap, so one
pair per call would cost more than the calls themselves.
"""

import gc
import io
import math
import tracemalloc
from functools import partial

import pytest

from conftest import COMPILED_MISSING, purchase_order_instance, random_instance
from wspkit._kernel import BUDGET, SAT, UNSAT, pack
from wspkit.absorption import absorb
from wspkit.cli import dump_json, instance_to_doc
from wspkit.encode import (
    emit_cs_json,
    emit_dimacs,
    emit_opb,
    encode_cs,
    encode_pbpb,
    encode_udpb,
)
from wspkit.generator import (
    GenSpec,
    PTCalibration,
    derive_seed,
    family_spec,
    generate,
    generate_with_meta,
    save_calibration,
)
from wspkit.matching import authorised_plan_for
from wspkit.patterns import Pattern, enumerate_patterns
from wspkit.solver import (
    Budget,
    compile_search_problem,
    solve_backtracking,
    solve_bruteforce,
    solve_pattern_enum,
)

# the benchmark's draw shapes: WL/ADA alternatives, SUAL restrictions, and
# SAT and UNSAT draws at n > 64
SHAPES = (dict(k=8, n=80, am3=8, sod=10, ada=8, wl=2),
          dict(k=10, n=80, am3=10, sod=7, sual=1, wl=2, ada=2),
          dict(k=12, n=120, am3=12, sod=26))
DRAWS = [generate(GenSpec(seed=derive_seed(7, i), **shape))
         for i in range(3) for shape in SHAPES]
SMALL = [purchase_order_instance()] + [random_instance("mixed", seed)
                                       for seed in range(6)]


def garbage_left_by(calls) -> int:
    """Unreachable objects that the zero-argument `calls` leave behind,
    run in turn after a first round that warms them all."""
    calls = list(calls)
    for call in calls:
        call()
    gc.collect()
    gc.disable()
    try:
        for call in calls:
            call()
    finally:
        gc.enable()
    return gc.collect()


@pytest.mark.parametrize("backend", [
    "pure",
    pytest.param("compiled", marks=pytest.mark.skipif(
        COMPILED_MISSING is not None, reason="compiled kernel not built"))])
@pytest.mark.parametrize("max_nodes", [None, 5])
def test_backtracking_leaves_no_garbage(backend, max_nodes):
    budget = Budget(max_nodes=max_nodes) if max_nodes else None
    assert garbage_left_by(
        partial(solve_backtracking, inst, budget, backend=backend)
        for inst in DRAWS + SMALL) == 0


@pytest.mark.skipif(COMPILED_MISSING is not None,
                    reason="compiled kernel not built")
def test_compiled_solves_leave_traced_memory_flat():
    # The compiled kernel allocates through PyMem, which tracemalloc
    # traces, so memory it failed to free would grow with the solves: 300
    # of them over WL/ADA draws past two machine words of users, SAT, UNSAT
    # and budgeted.  The problems are packed before tracing starts and the
    # raw kernel is called, so what grows can only be the kernel's.  The
    # arguments are passed by position: keyword arguments would refill
    # CPython's free list of dict keys, which tracemalloc counts as held.
    from wspkit._kernel import _speed
    calls = [partial(_speed.search, *pack(compile_search_problem(absorb(
        generate(GenSpec(seed=derive_seed(7, 5, i), k=8, n=130, am3=8,
                         sod=14, ada=4, wl=2))))), cap, math.inf)
        for i in range(10) for cap in (1 << 62, 5)]
    assert {call()[0] for call in calls} == {UNSAT, SAT, BUDGET}
    tracemalloc.start()
    try:
        for call in calls:
            call()
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(15):
            for call in calls:
                call()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # a block leaked per solve would be 300 blocks of 16 bytes or more
    assert after - before < 1024


def test_pattern_enum_and_bruteforce_leave_no_garbage():
    assert garbage_left_by(
        partial(solve, inst)
        for inst in SMALL
        for solve in (solve_pattern_enum, solve_bruteforce)) == 0


def test_matching_leaves_no_garbage():
    inst = purchase_order_instance()
    assert garbage_left_by(
        partial(authorised_plan_for, Pattern(rgs), inst.auth.step_masks)
        for rgs in ((0, 1, 0, 2, 3, 4), (0, 1, 2, 3, 4, 5),
                    (0, 0, 0, 0, 0, 0))) == 0


@pytest.mark.parametrize("consume", [list, next], ids=["run-out", "abandoned"])
def test_pattern_enumeration_leaves_no_garbage(consume):
    assert garbage_left_by([lambda: consume(enumerate_patterns(6))]) == 0


def test_absorb_and_compile_leave_no_garbage():
    def absorb_and_compile(inst):
        return compile_search_problem(absorb(inst))

    assert garbage_left_by(partial(absorb_and_compile, inst)
                           for inst in DRAWS + SMALL) == 0


def test_generation_leaves_no_garbage():
    # the benchmark shapes, a spec whose draw is retried ten times, and one
    # past the k at which am3 values are shared
    specs = [GenSpec(seed=derive_seed(7, 3), **shape) for shape in SHAPES]
    specs.append(GenSpec(k=5, n=3, seed=0))
    specs.append(GenSpec(k=40, n=40, am3=40, sod=40, seed=0))
    assert garbage_left_by(partial(generate_with_meta, spec)
                           for spec in specs) == 0


def test_uncached_calibration_leaves_no_garbage():
    assert garbage_left_by([partial(family_spec, "wl", 6, 30, samples=20,
                                    use_cache=False)]) == 0


def test_encoders_and_emitters_leave_no_garbage():
    calls = []
    for inst in DRAWS[:2] + SMALL[:3]:
        calls += [partial(encode, inst)
                  for encode in (encode_udpb, encode_pbpb, encode_cs)]
        calls += [partial(emit, model, io.StringIO())
                  for model in (encode_udpb(inst), encode_pbpb(inst))
                  for emit in (emit_opb, emit_dimacs)]
    assert garbage_left_by(calls) == 0


def test_json_writers_leave_no_garbage(tmp_path, monkeypatch):
    monkeypatch.setenv("WSPKIT_CACHE_DIR", str(tmp_path))
    insts = DRAWS[:2] + SMALL[:3]
    calls = [partial(emit_cs_json, encode_cs(inst), io.StringIO())
             for inst in insts]
    calls += [partial(dump_json, instance_to_doc(inst)) for inst in insts]
    calls.append(partial(save_calibration, 6, 30, "wl",
                         PTCalibration(3, 0.5, 20), (0.4, 0.6), 7))
    assert garbage_left_by(calls) == 0
    assert len(list(tmp_path.iterdir())) == 1
