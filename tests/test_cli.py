"""End-to-end tests for the command-line interface.

Every test drives wspkit.cli.main with an argv list, in process, and checks
the documented exit-code contract (solve 10/20/30, verify 0/2, errors 1),
the text written to stdout/stderr, and byte-stability of the files produced.
"""

import csv
import json
from pathlib import Path

import pytest

from conftest import purchase_order_instance
from wspkit import _kernel
from wspkit.cli import (
    EXIT_BUDGET,
    EXIT_ERROR,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_SAT,
    EXIT_UNSAT,
    instance_to_doc,
    load_instance,
    main,
    save_instance,
    save_plan,
)
from wspkit.core import (
    ADA,
    AtLeast,
    AuthorisationFunction,
    Instance,
    SoD,
    WL,
    is_valid,
)
from wspkit.encode import encode_pbpb, encode_udpb
from wspkit.generator import (
    GenSpec,
    PTCalibration,
    derive_seed,
    generate,
    generate_with_meta,
    save_calibration,
)
from wspkit.patterns import bell

BAND = ["--band-lo", "0.25", "--band-hi", "0.75"]


@pytest.fixture()
def cache_env(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("WSPKIT_CACHE_DIR", str(cache))
    return cache


@pytest.fixture()
def po_file(tmp_path):
    path = tmp_path / "po.json"
    save_instance(path, purchase_order_instance())
    return path


def unsat_instance() -> Instance:
    auth = AuthorisationFunction.from_lists([[0], [0]], 2)
    return Instance(2, 2, auth, (SoD(0, 1),))


@pytest.fixture()
def unsat_file(tmp_path):
    path = tmp_path / "unsat.json"
    save_instance(path, unsat_instance())
    return path


# --- solve exit codes ------------------------------------------------------------


@pytest.mark.parametrize("algorithm", ["backtrack", "pattern-enum",
                                       "bruteforce"])
def test_solve_sat_exits_ten_and_prints_a_valid_plan(po_file, algorithm,
                                                     capsys):
    code = main(["solve", str(po_file), "--algorithm", algorithm])
    out = capsys.readouterr().out
    assert code == EXIT_SAT
    lines = out.splitlines()
    assert lines[0] == "verdict SAT"
    assert lines[1].startswith("plan ")
    plan = tuple(int(u) for u in lines[1].split()[1:])
    assert is_valid(plan, purchase_order_instance())


@pytest.mark.parametrize("algorithm", ["backtrack", "pattern-enum",
                                       "bruteforce"])
def test_solve_unsat_exits_twenty(unsat_file, algorithm, capsys):
    code = main(["solve", str(unsat_file), "--algorithm", algorithm])
    out = capsys.readouterr().out
    assert code == EXIT_UNSAT
    assert out.splitlines()[0] == "verdict UNSAT"
    assert "plan" not in out


def test_solve_counters_are_printed(po_file, capsys):
    main(["solve", str(po_file)])
    out = capsys.readouterr().out
    for counter in ("patterns_visited", "nodes_expanded",
                    "matchings_computed"):
        assert any(line.startswith(counter + " ") for line in
                   out.splitlines())


def test_solve_timing_goes_to_stderr_only(po_file, capsys):
    main(["solve", str(po_file)])
    captured = capsys.readouterr()
    assert "millis" not in captured.out
    assert captured.err.startswith("millis ")


def test_solve_stdout_is_deterministic(po_file, capsys):
    main(["solve", str(po_file)])
    first = capsys.readouterr().out
    main(["solve", str(po_file)])
    assert capsys.readouterr().out == first


def test_solve_node_budget_exits_thirty(po_file, capsys):
    code = main(["solve", str(po_file), "--max-nodes", "1"])
    assert code == EXIT_BUDGET
    assert "verdict BUDGET" in capsys.readouterr().out


def test_solve_pattern_budget_exits_thirty(po_file, capsys):
    code = main(["solve", str(po_file), "--algorithm", "pattern-enum",
                 "--max-patterns", "1"])
    assert code == EXIT_BUDGET
    assert "verdict BUDGET" in capsys.readouterr().out


def test_bruteforce_rejects_budget_flags(po_file, capsys):
    code = main(["solve", str(po_file), "--algorithm", "bruteforce",
                 "--max-millis", "5"])
    assert code == EXIT_ERROR
    assert "bruteforce" in capsys.readouterr().err


def test_pattern_enum_rejects_a_node_budget(po_file, capsys):
    code = main(["solve", str(po_file), "--algorithm", "pattern-enum",
                 "--max-nodes", "1"])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert "--max-nodes" in err and "--max-patterns" in err


def test_backtrack_rejects_a_pattern_budget(po_file, capsys):
    code = main(["solve", str(po_file), "--max-patterns", "1"])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert "--max-patterns" in err and "--max-nodes" in err


@pytest.mark.parametrize("flag, value", [("--max-millis", "nan"),
                                         ("--max-nodes", "-1")])
def test_solve_rejects_a_budget_that_bounds_nothing(po_file, flag, value,
                                                    capsys):
    # NaN would run unbounded and -1 would report BUDGET before any work
    code = main(["solve", str(po_file), flag, value])
    assert code == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag[2:].replace("-", "_") in captured.err


def test_solve_plan_out_writes_a_verifiable_plan(po_file, tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    assert main(["solve", str(po_file), "--plan-out",
                 str(plan_path)]) == EXIT_SAT
    capsys.readouterr()
    assert main(["verify", str(po_file), str(plan_path)]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "valid"


def test_plan_out_not_written_on_unsat(unsat_file, tmp_path):
    plan_path = tmp_path / "plan.json"
    assert main(["solve", str(unsat_file), "--plan-out",
                 str(plan_path)]) == EXIT_UNSAT
    assert not plan_path.exists()


def test_solve_kernel_flag_is_accepted(po_file, capsys):
    for kernel in ("auto", "pure"):
        assert main(["solve", str(po_file), "--kernel",
                     kernel]) == EXIT_SAT
    capsys.readouterr()


def test_solve_offers_only_the_built_kernels(po_file, monkeypatch, capsys):
    # without the extension, --kernel compiled is a usage error, not an
    # ImportError out of the solve
    monkeypatch.setattr(_kernel, "available_backends", lambda: ("pure",))
    assert main(["solve", str(po_file), "--kernel", "compiled"]) == EXIT_ERROR
    assert "invalid choice: 'compiled'" in capsys.readouterr().err


def test_solve_has_no_jobs_flag(po_file, capsys):
    """The backtracker is serial, so solve takes no worker count."""
    assert main(["solve", str(po_file), "--jobs", "2"]) == EXIT_ERROR
    assert "--jobs" in capsys.readouterr().err


# --- verify exit codes --------------------------------------------------------------


def test_verify_constraint_violation_names_the_constraint(po_file, tmp_path,
                                                          capsys):
    plan_path = tmp_path / "plan.json"
    save_plan(plan_path, (1, 1, 0, 3, 2, 4))  # authorised, violates SoD(0,1)
    code = main(["verify", str(po_file), str(plan_path)])
    out = capsys.readouterr().out
    assert code == EXIT_INVALID
    assert out.startswith("invalid:")
    assert "sod" in out.lower()
    assert "0" in out and "1" in out


def test_verify_unauthorised_user_is_reported_with_step(po_file, tmp_path,
                                                        capsys):
    plan_path = tmp_path / "plan.json"
    save_plan(plan_path, (0, 0, 0, 0, 0, 0))  # user 0 not authorised at s1
    code = main(["verify", str(po_file), str(plan_path)])
    out = capsys.readouterr().out
    assert code == EXIT_INVALID
    assert "step 1" in out and "unauthorised user 0" in out


def test_verify_out_of_range_user_is_invalid(po_file, tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    save_plan(plan_path, (9, 9, 9, 9, 9, 9))  # n is 8
    assert main(["verify", str(po_file), str(plan_path)]) == EXIT_INVALID
    assert "unauthorised user 9" in capsys.readouterr().out


def test_verify_length_mismatch_is_an_error(po_file, tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    save_plan(plan_path, (0, 1))
    code = main(["verify", str(po_file), str(plan_path)])
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert "2 steps" in err and "6" in err


def test_verify_rejects_malformed_plan_file(po_file, tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text('{"assignment": "abc"}\n')
    assert main(["verify", str(po_file), str(plan_path)]) == EXIT_ERROR
    assert "schema" in capsys.readouterr().err


# --- file errors -----------------------------------------------------------------------


def test_missing_instance_file_exits_one(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "nope.json")]) == EXIT_ERROR
    assert "error" in capsys.readouterr().err


def test_unparseable_json_exits_one(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["solve", str(path)]) == EXIT_ERROR
    assert "not valid JSON" in capsys.readouterr().err


def test_schema_violation_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"k": 2, "n": 2, "constraints": []}))
    assert main(["solve", str(path)]) == EXIT_ERROR
    assert "schema" in capsys.readouterr().err


def test_unknown_constraint_kind_is_rejected(tmp_path, capsys):
    doc = {"k": 2, "n": 2, "auth": [[0], [1]],
           "constraints": [{"kind": "sodd", "s1": 0, "s2": 1}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path)]) == EXIT_ERROR
    assert "schema" in capsys.readouterr().err


def test_extra_top_level_field_is_rejected(tmp_path, capsys):
    doc = {"k": 1, "n": 1, "auth": [[0]], "constraints": [], "color": "red"}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path)]) == EXIT_ERROR
    capsys.readouterr()


@pytest.mark.parametrize("where", ["auth", "sual", "wl", "ada"])
def test_far_user_id_is_rejected_before_packing(where, tmp_path, monkeypatch,
                                                capsys):
    # a list of more than 64 ids with one far above n: packing it would
    # take memory in proportion to that id, so loading must refuse the
    # file before any list reaches mask_of
    import wspkit.core

    n, far = 100, 10**12
    ids = list(range(64)) + [far]
    doc = {"k": 2, "n": n, "auth": [[0], [1]], "constraints": []}
    if where == "auth":
        doc["auth"][1] = ids
        message = f"authorisation: step 1 names a user outside [0, {n})"
    else:
        doc["constraints"] = [
            {"kind": "sual", "scope": [0, 1], "h": 1, "supers": ids}
            if where == "sual" else
            {"kind": "wl", "scope": [0, 1], "teams": [[99], ids]}
            if where == "wl" else
            {"kind": "ada", "s1": 0, "s2": 1, "trigger": [0],
             "required": ids}]
        message = f"{where.upper()}: user {far} outside [0, {n})"
    path = tmp_path / "far.json"
    path.write_text(json.dumps(doc))
    packed = []
    real_mask_of = wspkit.core.mask_of

    def recording_mask_of(users):
        users = list(users)
        packed.append(users)
        return real_mask_of(u for u in users if u < n)  # never the far id

    monkeypatch.setattr(wspkit.core, "mask_of", recording_mask_of)
    assert main(["solve", str(path)]) == EXIT_ERROR
    assert message in capsys.readouterr().err
    assert all(u < n for users in packed for u in users)


def assert_schema_mismatch(argv, which, capsys):
    assert main(argv) == EXIT_ERROR
    captured = capsys.readouterr()
    assert f"does not match the {which} schema" in captured.err
    assert "Traceback" not in captured.err + captured.out


@pytest.mark.parametrize("at", [0, 2])
def test_float_user_id_in_an_auth_list_is_a_schema_error(at, tmp_path,
                                                         capsys):
    # JSON's 1.0 is no integer, wherever the list holds it
    users = [0, 1, 2]
    users[at] = 1.0
    doc = {"k": 2, "n": 4, "auth": [[0], users], "constraints": []}
    path = tmp_path / "float.json"
    path.write_text(json.dumps(doc))
    assert_schema_mismatch(["solve", str(path)], "instance", capsys)


def test_float_step_index_is_a_schema_error(tmp_path, capsys):
    doc = {"k": 2, "n": 2, "auth": [[0], [1]],
           "constraints": [{"kind": "sod", "s1": 1.0, "s2": 0}]}
    path = tmp_path / "float.json"
    path.write_text(json.dumps(doc))
    assert_schema_mismatch(["solve", str(path)], "instance", capsys)


def test_float_user_in_a_plan_is_a_schema_error(po_file, tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({"assignment": [0, 1, 0, 3, 2, 4.0]}))
    assert_schema_mismatch(["verify", str(po_file), str(plan_path)], "plan",
                           capsys)


@pytest.mark.parametrize("where", ["auth", "sual", "wl", "ada"])
@pytest.mark.parametrize("bad", [1.0, -1, "7", True])
def test_bad_id_at_the_end_of_a_long_list_is_a_schema_error(where, bad,
                                                            tmp_path, capsys):
    n = 100_000
    ids = list(range(n - 1)) + [bad]
    doc = {"k": 2, "n": n, "auth": [[0], [1]], "constraints": []}
    if where == "auth":
        doc["auth"][1] = ids
    else:
        doc["constraints"] = [
            {"kind": "sual", "scope": [0, 1], "h": 1, "supers": ids}
            if where == "sual" else
            {"kind": "wl", "scope": [0, 1], "teams": [[0], ids]}
            if where == "wl" else
            {"kind": "ada", "s1": 0, "s2": 1, "trigger": ids,
             "required": [0]}]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert_schema_mismatch(["solve", str(path)], "instance", capsys)


def test_long_user_lists_load_whole(tmp_path):
    # every id of a 100,000-long list survives the shape-only schema check
    n = 100_000
    ids = list(range(0, n, 3))
    doc = {"k": 2, "n": n, "auth": [ids, [n - 1]],
           "constraints": [{"kind": "wl", "scope": [0, 1],
                            "teams": [ids, [n - 2]]}]}
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    inst = load_instance(path)
    assert inst.auth.users(0) == tuple(ids)
    assert instance_to_doc(inst) == doc


# --- usage errors ------------------------------------------------------------------------


def test_missing_required_flag_exits_one(capsys):
    assert main(["generate", "--n", "8"]) == EXIT_ERROR
    assert "--k" in capsys.readouterr().err


def test_unknown_subcommand_exits_one(capsys):
    assert main(["frobnicate"]) == EXIT_ERROR
    capsys.readouterr()


def test_no_subcommand_exits_one(capsys):
    assert main([]) == EXIT_ERROR
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == EXIT_OK
    assert "generate" in capsys.readouterr().out


def test_bad_flag_value_exits_one(capsys):
    assert main(["generate", "--k", "five", "--n", "8"]) == EXIT_ERROR
    capsys.readouterr()


# --- generate ----------------------------------------------------------------------------


def test_generate_writes_a_schema_valid_instance(tmp_path, capsys):
    code = main(["generate", "--k", "5", "--n", "8", "--sod", "2",
                 "--seed", "7", "--out-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    path = tmp_path / "inst-k5-n8-sod2-s7.json"
    assert path.exists()
    assert out.strip() == str(path)
    inst = load_instance(path)
    expected, meta = generate_with_meta(GenSpec(k=5, n=8, sod=2, seed=7))
    assert instance_to_doc(inst) == instance_to_doc(expected)
    doc = json.loads(path.read_text())
    assert doc["meta"]["seed"] == 7
    assert doc["meta"]["family"] == "explicit"
    assert doc["meta"]["version"] == meta["version"]


def test_generate_count_steps_the_seed(tmp_path, capsys):
    main(["generate", "--k", "5", "--n", "8", "--sod", "1", "--seed", "3",
          "--count", "3", "--out-dir", str(tmp_path)])
    capsys.readouterr()
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == [f"inst-k5-n8-sod1-s{s}.json" for s in (3, 4, 5)]
    seeds = [json.loads((tmp_path / name).read_text())["meta"]["seed"]
             for name in names]
    assert seeds == [3, 4, 5]


def test_generate_is_byte_deterministic(tmp_path, capsys):
    args = ["generate", "--k", "6", "--n", "9", "--sod", "2", "--ada", "1",
            "--seed", "11", "--count", "2"]
    main(args + ["--out-dir", str(tmp_path / "a")])
    main(args + ["--out-dir", str(tmp_path / "b")])
    capsys.readouterr()
    for left in sorted((tmp_path / "a").iterdir()):
        right = tmp_path / "b" / left.name
        assert left.read_bytes() == right.read_bytes()


def test_generate_family_uses_the_planted_calibration(tmp_path, cache_env,
                                                      capsys):
    save_calibration(5, 8, "sod", PTCalibration(3, 0.5, 40), (0.4, 0.6),
                     derive_seed(5, 8))
    out_dir = tmp_path / "out"
    code = main(["generate", "--family", "wsp", "--k", "5", "--n", "8",
                 "--seed", "1", "--count", "4", "--out-dir", str(out_dir)])
    capsys.readouterr()
    assert code == EXIT_OK
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == [f"wsp-k5-n8-s1-{i:03d}.json" for i in range(4)]
    for i, name in enumerate(names):
        doc = json.loads((out_dir / name).read_text())
        kinds = [c["kind"] for c in doc["constraints"]]
        assert kinds.count("atmost") == 5  # base load
        assert kinds.count("sod") == 3  # planted calibrated count
        assert doc["meta"]["family"] == "wsp"
        assert doc["meta"]["index"] == i
        assert doc["meta"]["master_seed"] == 1
        assert doc["meta"]["seed"] == derive_seed(1, i)


def test_generate_family_rejects_explicit_counts(tmp_path, cache_env,
                                                 capsys):
    code = main(["generate", "--family", "wsp", "--k", "5", "--n", "8",
                 "--sod", "2", "--out-dir", str(tmp_path)])
    assert code == EXIT_ERROR
    assert "count" in capsys.readouterr().err


def test_generate_unknown_family_exits_one(tmp_path, cache_env, capsys):
    code = main(["generate", "--family", "wsp_xyz", "--k", "5", "--n", "8",
                 "--out-dir", str(tmp_path)])
    assert code == EXIT_ERROR
    assert "family" in capsys.readouterr().err


def test_generate_bad_shape_parameters_exit_one(tmp_path, capsys):
    code = main(["generate", "--k", "3", "--n", "8", "--am3", "1",
                 "--out-dir", str(tmp_path)])
    assert code == EXIT_ERROR
    assert "k >= 5" in capsys.readouterr().err


@pytest.mark.sweep
def test_generate_round_trips_at_n_100k(tmp_path, capsys):
    # the top of the n sweep: every user mask is packed and unpacked
    # through the JSON document at 100 000 users
    code = main(["generate", "--k", "16", "--n", "100000", "--am3", "16",
                 "--sod", "35", "--sual", "1", "--wl", "1", "--ada", "1",
                 "--seed", "5", "--out-dir", str(tmp_path)])
    (path,) = tmp_path.iterdir()
    assert code == EXIT_OK and capsys.readouterr().out.strip() == str(path)
    assert load_instance(path) == generate(GenSpec(
        k=16, n=100_000, am3=16, sod=35, sual=1, wl=1, ada=1, seed=5))


# --- encode -------------------------------------------------------------------------------


def test_encode_udpb_opb_header_matches_the_model(po_file, tmp_path, capsys):
    out = tmp_path / "m.opb"
    code = main(["encode", str(po_file), "--repr", "udpb", "--format", "opb",
                 "--out", str(out)])
    printed = capsys.readouterr().out.splitlines()
    assert code == EXIT_OK
    assert printed == [str(out), str(out) + ".varmap"]
    model = encode_udpb(purchase_order_instance())
    header = out.read_text().splitlines()[0]
    assert header == (f"* #variable= {model.var_count} "
                      f"#constraint= {len(model.rows)}")
    inst = purchase_order_instance()
    assert model.var_count == sum(len(inst.auth.users(s))
                                  for s in range(inst.k))


def test_encode_pbpb_adds_k_squared_variables(po_file, tmp_path, capsys):
    out = tmp_path / "m.opb"
    main(["encode", str(po_file), "--repr", "pbpb", "--format", "opb",
          "--out", str(out)])
    capsys.readouterr()
    inst = purchase_order_instance()
    base = sum(len(inst.auth.users(s)) for s in range(inst.k))
    header = out.read_text().splitlines()[0]
    assert f"#variable= {base + inst.k * inst.k}" in header


def test_encode_no_transitivity_drops_the_triple_rows(po_file, tmp_path,
                                                      capsys):
    with_t = tmp_path / "with.opb"
    without = tmp_path / "without.opb"
    main(["encode", str(po_file), "--repr", "pbpb", "--format", "opb",
          "--out", str(with_t)])
    main(["encode", str(po_file), "--repr", "pbpb", "--format", "opb",
          "--no-transitivity", "--out", str(without)])
    capsys.readouterr()

    def constraints(path):
        return int(path.read_text().split("#constraint=")[1].split()[0])

    k = 6
    assert constraints(with_t) - constraints(without) == 2 * k * (k - 1) * (k - 2)


def test_encode_dimacs_writes_cnf_and_sidecar(po_file, tmp_path, capsys):
    out = tmp_path / "m.cnf"
    main(["encode", str(po_file), "--repr", "udpb", "--format", "dimacs",
          "--out", str(out)])
    capsys.readouterr()
    text = out.read_text()
    assert text.startswith("p cnf ")
    assert all(line.endswith(" 0") for line in text.splitlines()[1:])
    sidecar = (tmp_path / "m.cnf.varmap").read_text()
    assert sidecar.splitlines()[0] == "x0_0 1"


def test_encode_cs_json_parses_with_known_row_kinds(po_file, tmp_path,
                                                    capsys):
    out = tmp_path / "m.json"
    main(["encode", str(po_file), "--repr", "cs", "--format", "json",
          "--out", str(out)])
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert [v["name"] for v in doc["vars"]] == [f"y{s}" for s in range(6)]
    known = {"eq", "ne", "some_pair_equal", "scope_pattern_in",
             "select_at_least_one", "cond_exclude", "cond_scope_pattern_in"}
    assert {c["kind"] for c in doc["constraints"]} <= known


@pytest.mark.parametrize("repr_name,format_name", [
    ("cs", "opb"), ("cs", "dimacs"), ("udpb", "json"), ("pbpb", "json"),
])
def test_encode_rejects_incompatible_repr_format(po_file, tmp_path,
                                                 repr_name, format_name,
                                                 capsys):
    code = main(["encode", str(po_file), "--repr", repr_name, "--format",
                 format_name, "--out", str(tmp_path / "m")])
    assert code == EXIT_ERROR
    assert "cs" in capsys.readouterr().err


def test_encode_cs_names_its_enumeration_limit(tmp_path, capsys):
    # an at-least scope of 12 steps has Bell(12) = 4,213,597 partitions
    path = tmp_path / "wide.json"
    save_instance(path, Instance(12, 12, AuthorisationFunction.from_lists(
        [list(range(12))] * 12, 12), (AtLeast(3, tuple(range(12))),)))
    out = tmp_path / "m.json"
    code = main(["encode", str(path), "--repr", "cs", "--format", "json",
                 "--out", str(out)])
    assert code == EXIT_ERROR
    assert capsys.readouterr().err == (
        "error: CS encoding of constraint 0 (AtLeast) would enumerate 4213597 "
        "partitions of its 12-step scope, above CS_ENUM_LIMIT=1000000\n")
    assert not out.exists()


@pytest.mark.parametrize("repr_name,format_name", [
    ("udpb", "opb"), ("udpb", "dimacs"), ("cs", "json"),
])
def test_encode_rejects_no_transitivity_outside_pbpb(po_file, tmp_path,
                                                     repr_name, format_name,
                                                     capsys):
    out = tmp_path / "m"
    code = main(["encode", str(po_file), "--repr", repr_name, "--format",
                 format_name, "--no-transitivity", "--out", str(out)])
    assert code == EXIT_ERROR
    assert "--no-transitivity applies to --repr pbpb only" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("repr_name,format_name", [
    ("udpb", "opb"), ("pbpb", "opb"), ("udpb", "dimacs"), ("cs", "json"),
])
def test_encode_is_byte_deterministic(po_file, tmp_path, repr_name,
                                      format_name, capsys):
    first = tmp_path / "a.out"
    second = tmp_path / "b.out"
    for out in (first, second):
        main(["encode", str(po_file), "--repr", repr_name, "--format",
              format_name, "--out", str(out)])
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    assert (tmp_path / "a.out.varmap").read_bytes() == \
        (tmp_path / "b.out.varmap").read_bytes()


# --- inspect -------------------------------------------------------------------------------


def test_inspect_reports_bell_bound_for_ui_only_instance(po_file, capsys):
    assert main(["inspect", str(po_file)]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert "non_ui 0" in lines
    assert "bell_k 203" in lines
    assert "branching_product 1" in lines
    assert "work_bound 203" in lines
    # every constraint is UI: ascending degree (3, 1, 2, 2, 1, 1), ties by
    # index
    assert lines[-1] == "visit_order 1 4 5 2 3 0"


def mixed_nonui_instance() -> Instance:
    auth = AuthorisationFunction.from_lists([list(range(8))] * 4, 8)
    teams = (frozenset({0, 1}), frozenset({2, 3}))
    constraints = (WL((0, 1), teams), WL((2, 3), teams),
                   ADA(0, 1, frozenset({0}), frozenset({1})))
    return Instance(4, 8, auth, constraints)


def test_inspect_multiplies_branching_bounds(tmp_path, capsys):
    path = tmp_path / "mixed.json"
    save_instance(path, mixed_nonui_instance())
    assert main(["inspect", str(path)]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines.count("branching wl 2") == 2
    assert lines.count("branching ada 2") == 1
    assert "branching_product 8" in lines
    assert f"work_bound {8 * bell(4)}" in lines


def test_inspect_json_matches_the_text_numbers(tmp_path, capsys):
    path = tmp_path / "mixed.json"
    save_instance(path, mixed_nonui_instance())
    assert main(["inspect", str(path), "--json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["k"] == 4
    assert doc["non_ui"] == 3
    assert doc["branching"] == [{"kind": "wl", "bound": 2},
                                {"kind": "wl", "bound": 2},
                                {"kind": "ada", "bound": 2}]
    assert doc["branching_product"] == 8
    assert doc["work_bound"] == 8 * bell(4)
    assert doc["bell_k"] == bell(4)


def test_inspect_reports_the_visit_order(tmp_path, capsys):
    # steps 2 and 3 are under the ADA, so they come first, 2 of the higher
    # degree; then steps 1 and 0 by ascending degree
    auth = AuthorisationFunction.from_lists([list(range(4))] * 4, 4)
    inst = Instance(4, 4, auth, (SoD(0, 1), SoD(0, 2),
                                 ADA(3, 2, frozenset({0}), frozenset({1}))))
    path = tmp_path / "ordered.json"
    save_instance(path, inst)
    assert main(["inspect", str(path)]) == EXIT_OK
    assert "visit_order 2 3 1 0" in capsys.readouterr().out.splitlines()
    assert main(["inspect", str(path), "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["visit_order"] == [2, 3, 1, 0]


def test_inspect_does_not_solve(tmp_path, capsys):
    # a large-n instance inspect must handle instantly
    auth = AuthorisationFunction.from_lists([list(range(2000))] * 10, 2000)
    inst = Instance(10, 2000, auth, (SoD(0, 1),))
    path = tmp_path / "big.json"
    save_instance(path, inst)
    assert main(["inspect", str(path)]) == EXIT_OK
    assert "bell_k 115975" in capsys.readouterr().out


# --- calibrate -----------------------------------------------------------------------------


def test_calibrate_prints_counts_and_writes_the_cache(cache_env, capsys):
    code = main(["calibrate", "--k", "5", "--n", "8"] + BAND)
    out = capsys.readouterr().out.splitlines()
    assert code == EXIT_OK
    assert "family wsp" in out
    assert "sod 2" in out  # transition point at this size and band
    assert "am3 5" in out
    assert (cache_env / "pt-k5-n8-sod.json").exists()


def test_calibrate_reuses_the_cache(cache_env, capsys):
    main(["calibrate", "--k", "5", "--n", "8"] + BAND)
    first = capsys.readouterr().out
    cached = (cache_env / "pt-k5-n8-sod.json").read_bytes()
    main(["calibrate", "--k", "5", "--n", "8"] + BAND)
    assert capsys.readouterr().out == first
    assert (cache_env / "pt-k5-n8-sod.json").read_bytes() == cached


def test_calibrate_checks_jobs_before_it_reads_the_cache(cache_env, capsys):
    assert main(["calibrate", "--k", "5", "--n", "8"] + BAND) == EXIT_OK
    capsys.readouterr()
    assert main(["calibrate", "--k", "5", "--n", "8", "--jobs", "0"]
                + BAND) == EXIT_ERROR
    assert "jobs must be an int >= 1, got 0" in capsys.readouterr().err


def test_calibrate_reports_an_unreachable_band(cache_env, capsys):
    code = main(["calibrate", "--k", "5", "--n", "8", "--family",
                 "wsp_am3"] + BAND)
    assert code == EXIT_ERROR
    assert "above" in capsys.readouterr().err


# --- bench ----------------------------------------------------------------------------------


BENCH_HEADER = ["k", "n", "family", "seed", "algorithm", "verdict", "millis",
                "patterns_visited", "nodes_expanded"]


def test_bench_csv_layout(tmp_path, cache_env, capsys):
    out = tmp_path / "bench.csv"
    code = main(["bench", "--k-list", "5", "--n-list", "10,12", "--seeds",
                 "3", "--algorithms", "backtrack,bruteforce", "--out",
                 str(out)] + BAND)
    capsys.readouterr()
    assert code == EXIT_OK
    assert b"\r\n" in out.read_bytes()
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == BENCH_HEADER
    data = [r for r in rows[1:] if r[3] != "median"]
    medians = [r for r in rows[1:] if r[3] == "median"]
    assert len(data) == 2 * 3 * 2  # sizes x seeds x algorithms
    assert len(medians) == 2 * 2  # sizes x algorithms
    for row in data:
        assert row[0] == "5" and row[1] in ("10", "12")
        assert row[2] == "wsp"
        assert int(row[3]) in {derive_seed(0, i) for i in range(3)}
        assert row[4] in ("backtrack", "bruteforce")
        assert row[5] in ("sat", "unsat")
        float(row[6])
        int(row[7]), int(row[8])
    for row in medians:
        assert row[5] == ""
        float(row[6])


def test_bench_medians_are_lower_medians(tmp_path, cache_env, capsys):
    out = tmp_path / "bench.csv"
    main(["bench", "--k-list", "5", "--n-mult", "2", "--seeds", "4",
          "--algorithms", "backtrack", "--out", str(out)] + BAND)
    capsys.readouterr()
    rows = list(csv.reader(out.read_text().splitlines()))
    data = [r for r in rows[1:] if r[3] != "median"]
    median_row = next(r for r in rows[1:] if r[3] == "median")
    nodes = sorted(int(r[8]) for r in data)
    assert int(median_row[8]) == nodes[(len(nodes) - 1) // 2]


def test_bench_writes_csv_to_stdout_by_default(cache_env, capsys):
    code = main(["bench", "--k-list", "5", "--n-mult", "2", "--seeds", "2",
                 "--algorithms", "backtrack"] + BAND)
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.splitlines()[0] == ",".join(BENCH_HEADER)


def test_bench_budget_column_reports_budget_verdicts(tmp_path, cache_env,
                                                     capsys):
    out = tmp_path / "bench.csv"
    main(["bench", "--k-list", "5", "--n-mult", "2", "--seeds", "2",
          "--algorithms", "pattern-enum", "--max-millis", "0.0001",
          "--out", str(out)] + BAND)
    capsys.readouterr()
    rows = list(csv.reader(out.read_text().splitlines()))
    verdicts = {r[5] for r in rows[1:] if r[3] != "median"}
    assert verdicts <= {"sat", "unsat", "budget"}


def test_bench_bruteforce_rejects_a_budget(tmp_path, cache_env, capsys):
    """bench applies the same budget rules as solve, before it calibrates."""
    out = tmp_path / "bench.csv"
    code = main(["bench", "--k-list", "5", "--n-mult", "2", "--seeds", "1",
                 "--algorithms", "backtrack,bruteforce", "--max-millis", "5",
                 "--out", str(out)] + BAND)
    assert code == EXIT_ERROR
    assert "bruteforce" in capsys.readouterr().err
    assert not out.exists() and not cache_env.exists()


def test_bench_jobs_leaves_the_solves_alone(tmp_path, cache_env, capsys):
    """--jobs sizes the calibration pool only: with the calibration cached,
    every column but the timing matches a --jobs 1 run."""
    assert main(["calibrate", "--k", "5", "--n", "8"] + BAND) == EXIT_OK
    tables = []
    for jobs in ("1", "2"):
        out = tmp_path / f"bench-{jobs}.csv"
        assert main(["bench", "--k-list", "5", "--n-list", "8", "--seeds",
                     "3", "--algorithms", "backtrack", "--jobs", jobs,
                     "--out", str(out)] + BAND) == EXIT_OK
        rows = list(csv.reader(out.read_text().splitlines()))
        tables.append([row[:6] + row[7:] for row in rows])
    capsys.readouterr()
    assert len(tables[0]) == 1 + 3 + 1  # header, seeds, median
    assert tables[0] == tables[1]


@pytest.mark.parametrize("extra", [
    ["--n-list", "10", "--n-mult", "2"],  # both size modes
    [],  # neither size mode
    ["--n-list", "10,12,14"],  # length mismatch against k-list 5,6
    ["--n-mult", "2", "--algorithms", "magic"],
])
def test_bench_usage_errors(cache_env, extra, capsys):
    code = main(["bench", "--k-list", "5,6"] + extra + BAND)
    assert code == EXIT_ERROR
    capsys.readouterr()


def test_bench_sizes_zip_when_lengths_match(tmp_path, cache_env, capsys):
    out = tmp_path / "bench.csv"
    main(["bench", "--k-list", "5,6", "--n-list", "10,12", "--seeds", "2",
          "--algorithms", "backtrack", "--out", str(out)] + BAND)
    capsys.readouterr()
    rows = list(csv.reader(out.read_text().splitlines()))
    pairs = {(r[0], r[1]) for r in rows[1:]}
    assert pairs == {("5", "10"), ("6", "12")}
