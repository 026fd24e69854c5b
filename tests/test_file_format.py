"""The instance and plan file formats, checked through the command line.

A constraint's keys are its kind and its class's fields, and each field is
an int, a list of ids or a list of id lists.  A key or JSON type that
differs from this format is an error in the format's wording, and a value
that breaks a rule of the catalogue is an error in the constraint class's
wording; both exit 1 without a traceback.  n bounds the user ids and sizes
nothing, so a tiny file with a huge n loads, solves and encodes.
"""

import io
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import pytest

from wspkit.cli import (
    EXIT_ERROR,
    EXIT_OK,
    EXIT_SAT,
    instance_to_doc,
    load_instance,
    main,
)
from wspkit._kernel import available_backends, pack
from wspkit.absorption import absorb
from wspkit.core import CATALOGUE
from wspkit.encode import (
    emit_cs_json,
    emit_dimacs,
    emit_opb,
    emit_varmap,
    encode_cs,
    encode_pbpb,
    encode_udpb,
)
from wspkit.solver import compile_search_problem

SRC = Path(__file__).resolve().parents[1] / "src"

# One valid constraint document of every kind in the catalogue, over k=3
# steps and n=4 users.
VALID = {
    "sod": {"kind": "sod", "s1": 0, "s2": 1},
    "bod": {"kind": "bod", "s1": 0, "s2": 2},
    "atmost": {"kind": "atmost", "r": 2, "scope": [0, 1, 2]},
    "atleast": {"kind": "atleast", "r": 2, "scope": [0, 1]},
    "sual": {"kind": "sual", "scope": [0, 1, 2], "h": 1, "supers": [0, 3]},
    "wl": {"kind": "wl", "scope": [0, 1], "teams": [[0, 1], [2]]},
    "ada": {"kind": "ada", "s1": 0, "s2": 1, "trigger": [0],
            "required": [1, 2]},
}
KINDS = [cls.__name__.lower() for cls in CATALOGUE]
FIELDS = [(cls.__name__.lower(), f.name) for cls in CATALOGUE
          for f in fields(cls)]
INT_FIELDS = ("s1", "s2", "r", "h")


def instance_doc(*constraints) -> dict:
    return {"k": 3, "n": 4, "auth": [[0, 1, 2, 3]] * 3,
            "constraints": list(constraints)}


def write(tmp_path, doc, name="doc.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def assert_rejected(argv, wording, capsys):
    assert main(argv) == EXIT_ERROR
    captured = capsys.readouterr()
    assert wording in captured.err
    assert "Traceback" not in captured.err + captured.out


def assert_instance_mismatch(tmp_path, doc, capsys):
    path = write(tmp_path, doc)
    assert_rejected(["solve", str(path)],
                    "does not match the instance schema", capsys)


def with_field(kind: str, name: str, value) -> dict:
    return dict(VALID[kind], **{name: value})


def test_the_valid_documents_cover_the_catalogue():
    assert list(VALID) == KINDS
    for kind in KINDS:
        assert list(VALID[kind]) == ["kind"] + [
            name for k, name in FIELDS if k == kind]


@pytest.mark.parametrize("kind", KINDS)
def test_every_kind_loads_and_writes_back_the_same_document(kind, tmp_path,
                                                            capsys):
    path = write(tmp_path, instance_doc(VALID[kind]))
    assert main(["inspect", str(path)]) == EXIT_OK
    capsys.readouterr()
    assert instance_to_doc(load_instance(path)) == instance_doc(VALID[kind])


# --- keys and JSON types ------------------------------------------------------------


@pytest.mark.parametrize("kind,name", FIELDS)
@pytest.mark.parametrize("bad", ["float", "bool", "string", "object",
                                 "container"])
def test_a_field_of_the_wrong_json_type_is_a_schema_error(kind, name, bad,
                                                          tmp_path, capsys):
    container = [1] if name in INT_FIELDS else 1
    bad = {"float": 1.5, "bool": True, "string": "1", "object": {},
           "container": container}[bad]
    doc = instance_doc(with_field(kind, name, bad))
    assert_instance_mismatch(tmp_path, doc, capsys)


@pytest.mark.parametrize("kind,name", [(k, name) for k, name in FIELDS
                                       if name not in INT_FIELDS])
@pytest.mark.parametrize("bad", [1.5, True, "1", {}, [0], -1])
def test_a_bad_id_inside_a_list_field_is_a_schema_error(kind, name, bad,
                                                        tmp_path, capsys):
    value = VALID[kind][name]
    if name == "teams":
        value = [[0], [2, bad]] if bad != [0] else [[0], 2]
    else:
        value = [*value, bad]
    doc = instance_doc(with_field(kind, name, value))
    assert_instance_mismatch(tmp_path, doc, capsys)


@pytest.mark.parametrize("kind", KINDS)
def test_a_missing_key_is_a_schema_error(kind, tmp_path, capsys):
    for key in VALID[kind]:
        c = {k: v for k, v in VALID[kind].items() if k != key}
        assert_instance_mismatch(tmp_path, instance_doc(c), capsys)


@pytest.mark.parametrize("kind", KINDS)
def test_an_extra_key_is_a_schema_error(kind, tmp_path, capsys):
    assert_instance_mismatch(
        tmp_path, instance_doc(dict(VALID[kind], colour="red")), capsys)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("bad", [1, None, ["sod"], {"kind": "sod"}])
def test_a_kind_that_is_no_string_is_a_schema_error(kind, bad, tmp_path,
                                                    capsys):
    assert_instance_mismatch(
        tmp_path, instance_doc(dict(VALID[kind], kind=bad)), capsys)


@pytest.mark.parametrize("kind", KINDS)
def test_a_constraint_that_is_no_object_is_a_schema_error(kind, tmp_path,
                                                          capsys):
    for bad in (list(VALID[kind].items()), kind, 1, None):
        assert_instance_mismatch(tmp_path, instance_doc(bad), capsys)


@pytest.mark.parametrize("bad", [[], "seed 7", 7, None])
def test_meta_that_is_no_object_is_a_schema_error(bad, tmp_path, capsys):
    doc = dict(instance_doc(VALID["sod"]), meta=bad)
    assert_instance_mismatch(tmp_path, doc, capsys)
    doc["meta"] = {"seed": 7}
    assert main(["inspect", str(write(tmp_path, doc))]) == EXIT_OK
    capsys.readouterr()


@pytest.mark.parametrize("bad", [[instance_doc()], "instance", 3, None])
def test_a_document_that_is_no_object_is_a_schema_error(bad, tmp_path,
                                                        capsys):
    assert_instance_mismatch(tmp_path, bad, capsys)


@pytest.mark.parametrize("key", ["k", "n", "auth", "constraints"])
def test_top_level_keys_and_types_are_checked(key, tmp_path, capsys):
    doc = instance_doc(VALID["sod"])
    del doc[key]
    assert_instance_mismatch(tmp_path, doc, capsys)
    for bad in (1.0, True, "3", {}, [3] if key in ("k", "n") else 3):
        doc[key] = bad
        assert_instance_mismatch(tmp_path, doc, capsys)


@pytest.mark.parametrize("bad", [{"assignment": [0, 1, 2], "extra": 1},
                                 {"assignment": [0, -1, 2]},
                                 {"assignment": [0, 1.0, 2]},
                                 {"assignment": [0, True, 2]},
                                 {"assignment": 0},
                                 {},
                                 [0, 1, 2]])
def test_plan_keys_and_types_are_checked(bad, tmp_path, capsys):
    inst = write(tmp_path, instance_doc(VALID["sod"]), "inst.json")
    plan = write(tmp_path, bad, "plan.json")
    assert_rejected(["verify", str(inst), str(plan)],
                    "does not match the plan schema", capsys)
    plan = write(tmp_path, {"assignment": [0, 1, 2]}, "plan.json")
    assert main(["verify", str(inst), str(plan)]) == EXIT_OK
    capsys.readouterr()


# --- values ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind,name,value,message", [
    ("atmost", "r", 0, "atmost: r must lie in [1, 3]"),
    ("atleast", "r", 3, "atleast: r must lie in [1, 2]"),
    ("sual", "h", 3, "sual: h must lie in [1, 2]"),
    ("sual", "supers", [], "sual: super-user set must be non-empty"),
    ("wl", "teams", [], "wl: needs at least one team"),
    ("wl", "teams", [[0], []], "wl: teams must be non-empty"),
    ("wl", "scope", [1], "wl: scope must have at least 2 steps"),
    ("ada", "trigger", [], "ada: trigger set must be non-empty"),
    ("sod", "s2", 0, "sod: steps must differ"),
    ("bod", "s1", -1, "bod: step indices must be non-negative integers"),
    ("atmost", "scope", [0, 3], "AtMost: step 3 outside [0, 3)"),
    ("ada", "required", [4], "ADA: user 4 outside [0, 4)"),
])
def test_a_value_error_names_the_broken_rule(kind, name, value, message,
                                             tmp_path, capsys):
    path = write(tmp_path, instance_doc(with_field(kind, name, value)))
    assert_rejected(["solve", str(path)], message, capsys)


def every_kind_doc(n: int) -> dict:
    """One constraint of every kind over three steps, whose only plan is
    0 1 0.  ADA's trigger is user 1, so that plan takes ADA's non-trigger
    case, the complement of a user set."""
    return {"k": 3, "n": n, "auth": [[0, 1], [1, 2], [0, 2]],
            "constraints": [*VALID.values()][:-1]
            + [dict(VALID["ada"], trigger=[1])]}


def test_a_tiny_file_with_a_huge_n_solves(tmp_path, capsys):
    # n is only an int in the file: no step of loading, solving, encoding or
    # checking builds anything in proportion to it
    path = write(tmp_path, every_kind_doc(10**100))
    runs = [["--algorithm", algorithm]
            for algorithm in ("backtrack", "pattern-enum", "bruteforce")]
    if "compiled" in available_backends():
        runs.append(["--kernel", "compiled"])
    for run in runs:
        assert main(["solve", str(path), *run]) == EXIT_SAT, run
        assert "plan 0 1 0" in capsys.readouterr().out, run
    for repr_, format_ in (("udpb", "opb"), ("pbpb", "dimacs"), ("cs", "json")):
        out = tmp_path / f"model.{format_}"
        assert main(["encode", str(path), "--repr", repr_, "--format", format_,
                     "--out", str(out)]) == EXIT_OK
        assert out.stat().st_size > 0
    assert main(["inspect", str(path)]) == EXIT_OK
    assert f"n {10**100}" in capsys.readouterr().out
    plan = tmp_path / "plan.json"
    assert main(["solve", str(path), "--plan-out", str(plan)]) == EXIT_SAT
    assert main(["verify", str(path), str(plan)]) == EXIT_OK
    assert capsys.readouterr().out.endswith("valid\n")


def test_a_huge_n_sizes_no_table(tmp_path):
    # a table of one entry per user would take 32 MB per step at n = 2**22,
    # and a mask packed to n bits 512 KB
    inst = load_instance(write(tmp_path, every_kind_doc(2**22)))
    tracemalloc.start()
    try:
        pack(compile_search_problem(absorb(inst)))
        for model, emitters in ((encode_udpb(inst), (emit_opb, emit_dimacs)),
                                (encode_pbpb(inst), (emit_opb, emit_dimacs)),
                                (encode_cs(inst), (emit_cs_json,))):
            for emit in (*emitters, emit_varmap):
                emit(model, io.StringIO())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


# --- the command needs no third-party package ------------------------------------------


def run_without_jsonschema(*argv, cwd):
    """Run the `wspkit` command in a fresh interpreter in which any import
    of jsonschema fails."""
    code = ("import sys; sys.modules['jsonschema'] = None; "
            "from wspkit.cli import main; sys.exit(main(sys.argv[1:]))")
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd,
                          env=env, capture_output=True, text=True,
                          timeout=120)


def test_the_command_runs_without_jsonschema(tmp_path):
    res = run_without_jsonschema("generate", "--k", "5", "--n", "8", "--sod",
                                 "2", "--seed", "7", cwd=tmp_path)
    assert res.returncode == EXIT_OK, res.stderr
    inst = res.stdout.strip()
    res = run_without_jsonschema("solve", inst, "--plan-out", "plan.json",
                                 cwd=tmp_path)
    assert res.returncode == EXIT_SAT, res.stderr
    res = run_without_jsonschema("verify", inst, "plan.json", cwd=tmp_path)
    assert (res.returncode, res.stdout) == (EXIT_OK, "valid\n"), res.stderr
    res = run_without_jsonschema("encode", inst, "--repr", "pbpb", "--format",
                                 "opb", "--out", "m.opb", cwd=tmp_path)
    assert res.returncode == EXIT_OK, res.stderr
    assert (tmp_path / "m.opb").read_text().startswith("* #variable=")
