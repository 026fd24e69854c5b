"""Every call frees what it builds by reference counting.

Each call runs with the cyclic collector disabled, and `gc.collect()` then
returns the number of unreachable objects it found, which must be 0.  An
object in a reference cycle outlives the call that made it until the
collector runs, and the collector's passes grow with everything else the
process holds: a nested function that calls itself through its closure
cell is such a cycle, and it keeps the whole of its caller's search state.
Each call runs once before it is measured, so that imports and caches
filled on a first call do not count.
"""

import gc
import io

import pytest

from conftest import COMPILED_MISSING, purchase_order_instance, random_instance
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

# SAT, UNSAT and SUAL-restricted draws with WL/ADA alternatives, n > 64
DRAWS = [generate(GenSpec(seed=derive_seed(7, i), **shape))
         for i in range(3)
         for shape in (dict(k=8, n=80, am3=8, sod=10, ada=8, wl=2),
                       dict(k=10, n=80, am3=10, sod=7, sual=1, wl=2, ada=2),
                       dict(k=12, n=120, am3=12, sod=26))]
SMALL = [purchase_order_instance()] + [random_instance("mixed", seed)
                                       for seed in range(6)]


def garbage_left_by(call, *args, **kwargs) -> int:
    """Unreachable objects that `call(*args, **kwargs)` leaves behind."""
    call(*args, **kwargs)
    gc.collect()
    gc.disable()
    try:
        call(*args, **kwargs)
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
    for inst in DRAWS + SMALL:
        assert garbage_left_by(solve_backtracking, inst, budget,
                               backend=backend) == 0


def test_pattern_enum_and_bruteforce_leave_no_garbage():
    for inst in SMALL:
        assert garbage_left_by(solve_pattern_enum, inst) == 0
        assert garbage_left_by(solve_bruteforce, inst) == 0


def test_matching_leaves_no_garbage():
    inst = purchase_order_instance()
    for rgs in ((0, 1, 0, 2, 3, 4), (0, 1, 2, 3, 4, 5), (0, 0, 0, 0, 0, 0)):
        assert garbage_left_by(authorised_plan_for, Pattern(rgs),
                               inst.auth.step_masks) == 0


@pytest.mark.parametrize("consume", [list, next], ids=["run-out", "abandoned"])
def test_pattern_enumeration_leaves_no_garbage(consume):
    assert garbage_left_by(lambda: consume(enumerate_patterns(6))) == 0


def test_absorb_and_compile_leave_no_garbage():
    for inst in DRAWS + SMALL:
        assert garbage_left_by(
            lambda: compile_search_problem(absorb(inst))) == 0


def test_uncached_calibration_leaves_no_garbage():
    assert garbage_left_by(family_spec, "wl", 6, 30, samples=20,
                           use_cache=False) == 0


def test_encoders_and_emitters_leave_no_garbage():
    for inst in DRAWS[:2] + SMALL[:3]:
        for encode in (encode_udpb, encode_pbpb, encode_cs):
            assert garbage_left_by(encode, inst) == 0
        for model in (encode_udpb(inst), encode_pbpb(inst)):
            for emit in (emit_opb, emit_dimacs):
                assert garbage_left_by(emit, model, io.StringIO()) == 0


def test_json_writers_leave_no_garbage(tmp_path, monkeypatch):
    monkeypatch.setenv("WSPKIT_CACHE_DIR", str(tmp_path))
    models = [encode_cs(inst) for inst in DRAWS[:2] + SMALL[:3]]
    docs = [instance_to_doc(inst) for inst in DRAWS[:2] + SMALL[:3]]

    def write_all():
        for model in models:
            emit_cs_json(model, io.StringIO())
        for doc in docs:
            dump_json(doc)
        save_calibration(6, 30, "wl", PTCalibration(3, 0.5, 20), (0.4, 0.6), 7)

    assert garbage_left_by(write_all) == 0
    assert len(list(tmp_path.iterdir())) == 1
