"""Command-line front end.

Subcommands: generate, solve, verify, encode, inspect, calibrate, bench.

File formats are JSON (instances, whose constraints take the catalogue's
form, and plans), OPB/DIMACS with a variable-map sidecar (encoded models),
and RFC-4180 CSV (bench results).  All output is byte-stable across runs
(fixed field order, LF line endings, ASCII) except the wall-clock `millis`
column of the bench CSV; solve keeps its timing on stderr so its stdout
stays deterministic too.

Exit codes: solve uses the SAT-competition convention of 10 (satisfiable),
20 (unsatisfiable) and 30 (budget exhausted); verify exits 0 for a valid
plan and 2 for an invalid one; every command exits 1 on usage or IO errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import fields
from math import prod
from pathlib import Path
from statistics import median_low
from typing import Optional, Sequence

from . import _kernel
from .absorption import branching_bound
from .core import (
    CATALOGUE,
    AuthorisationFunction,
    CapacityError,
    Constraint,
    Instance,
    InvariantError,
    WspError,
    bits_list,
    json_text,
    violated_constraints,
)
from .encode import (
    emit_cs_json,
    emit_dimacs,
    emit_opb,
    emit_varmap,
    encode_cs,
    encode_pbpb,
    encode_udpb,
)
from .generator import (
    FAMILY_KINDS,
    GenSpec,
    family_draw,
    family_spec,
    generate_with_meta,
)
from .patterns import bell
from .solver import (
    SOLVER_LIMITS,
    Budget,
    SolveResult,
    Verdict,
    check_budget,
    solve_backtracking,
    solve_bruteforce,
    solve_pattern_enum,
    visit_order,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INVALID = 2
EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_BUDGET = 30

VERDICT_EXIT = {Verdict.SAT: EXIT_SAT, Verdict.UNSAT: EXIT_UNSAT,
                Verdict.BUDGET: EXIT_BUDGET}


class CliError(WspError):
    """A user-facing command error: bad file, bad flag combination."""


# --- instance and plan files -----------------------------------------------------


# The file form of every constraint in the catalogue: its kind is the
# lower-cased class name, and its keys are the kind and the class's fields
# in declaration order.
_KINDS = {cls.__name__.lower(): cls for cls in CATALOGUE}

# The JSON form of each constraint field: an int, a list of step ids, a
# user set as a list of user ids (a mask in the constraint), or a list of
# user sets (WL's teams, one per team).
_FORMS = {"s1": "int", "s2": "int", "r": "int", "h": "int",
          "scope": "steps", "supers": "users", "trigger": "users",
          "required": "users", "teams": "user sets"}


def constraint_to_doc(c: Constraint) -> dict:
    doc = {"kind": type(c).__name__.lower()}
    for f in fields(c):
        value = getattr(c, f.name)
        form = _FORMS[f.name]
        if form == "users":
            value = bits_list(value)
        elif form == "user sets":
            value = [bits_list(mask) for mask in value]
        elif form == "steps":
            value = list(value)
        doc[f.name] = value
    return doc


def instance_to_doc(inst: Instance, meta: Optional[dict] = None) -> dict:
    doc = {
        "k": inst.k,
        "n": inst.n,
        "auth": inst.auth.to_lists(),
        "constraints": [constraint_to_doc(c) for c in inst.constraints],
    }
    if meta is not None:
        doc["meta"] = meta
    return doc


class _Mismatch(CliError):
    """A document's keys or JSON types differ from its file format."""


_JSON_TYPES = {int: "an integer", str: "a string", list: "an array",
               dict: "an object"}


def _typed(value, kind: type, where: str):
    """`value`, once its JSON type is `kind`; a bool is no int, as in JSON."""
    if type(value) is not kind:
        raise _Mismatch(f"{where} is not {_JSON_TYPES[kind]}")
    return value


def _keys(doc, keys: Sequence[str], where: str, optional=()) -> dict:
    """`doc`, once it is an object with every key of `keys` and no key
    outside `keys` and `optional`."""
    for key in keys:
        if key not in _typed(doc, dict, where):
            raise _Mismatch(f"{where} lacks the key {key!r}")
    for key in doc:
        if key not in keys and key not in optional:
            raise _Mismatch(f"{where} has the unexpected key {key!r}")
    return doc


def _top_id(ids, where: str) -> int:
    """The largest id in a list of ids, or -1 for an empty list, once every
    id is an int and not negative."""
    if not _typed(ids, list, where):
        return -1
    if set(map(type, ids)) != {int}:
        i = next(i for i, u in enumerate(ids) if type(u) is not int)
        _typed(ids[i], int, f"{where}[{i}]")
    if min(ids) < 0:
        raise _Mismatch(f"{where}[{ids.index(min(ids))}] is negative")
    return max(ids)


# The widest user mask a file may need.  Bit u of a mask stands for user u,
# so a file that names user 10**12 would need a 125 GB int, whatever n it
# declares; 2**24 bits is 2 MB per mask.
LOADER_MAX_MASK_BITS = 1 << 24


def _check_width(top: int, where: str) -> None:
    """Refuse a largest user id `top` whose mask would be wider than
    `LOADER_MAX_MASK_BITS`, before any mask is packed."""
    if top >= LOADER_MAX_MASK_BITS:
        raise CapacityError(
            f"{where}: user {top} needs a {top + 1}-bit mask, past the "
            f"loader's limit LOADER_MAX_MASK_BITS = {LOADER_MAX_MASK_BITS}")


def constraint_from_doc(doc, n: int, where: str) -> Constraint:
    """The constraint a document describes, once its keys and their JSON
    forms are its kind's and no user id is n or more or past
    `LOADER_MAX_MASK_BITS`; the class checks every other value."""
    kind = _typed(_keys(doc, ("kind",), where, optional=doc)["kind"], str,
                  f"{where}.kind")
    if kind not in _KINDS:
        raise _Mismatch(f"{where}.kind {kind!r} is not one of "
                        f"{', '.join(_KINDS)}")
    names = [f.name for f in fields(_KINDS[kind])]
    _keys(doc, ("kind", *names), where)
    top = -1  # the largest user id
    for name in names:
        value, at = doc[name], f"{where}.{name}"
        form = _FORMS[name]
        if form == "int":
            _typed(value, int, at)
        elif form == "user sets":
            for j, users in enumerate(_typed(value, list, at)):
                top = max(top, _top_id(users, f"{at}[{j}]"))
        elif form == "users":
            top = max(top, _top_id(value, at))
        else:
            _top_id(value, at)
    if top >= n:
        raise InvariantError(f"{kind.upper()}: user {top} outside [0, {n})")
    _check_width(top, kind.upper())
    return _KINDS[kind](*(doc[name] for name in names))


def instance_from_doc(doc) -> Instance:
    """The instance a document describes.  One pass checks its keys and
    JSON types, and every user id (an int, not negative, below n and
    inside `LOADER_MAX_MASK_BITS`) before its list is packed; the
    constraint classes and `Instance` check every other value."""
    _keys(doc, ("k", "n", "auth", "constraints"), "the document", ("meta",))
    k, n = _typed(doc["k"], int, "k"), _typed(doc["n"], int, "n")
    _typed(doc.get("meta", {}), dict, "meta")
    for s, users in enumerate(_typed(doc["auth"], list, "auth")):
        top = _top_id(users, f"auth[{s}]")
        if top >= n:
            raise InvariantError(
                f"authorisation: step {s} names a user outside [0, {n})")
        _check_width(top, f"authorisation: step {s}")
    constraints = tuple(
        constraint_from_doc(c, n, f"constraints[{i}]")
        for i, c in enumerate(_typed(doc["constraints"], list, "constraints")))
    return Instance(k, n, AuthorisationFunction.from_lists(doc["auth"], n),
                    constraints)


def plan_from_doc(doc) -> tuple[int, ...]:
    users = _keys(doc, ("assignment",), "the document")["assignment"]
    _top_id(users, "assignment")
    return tuple(users)


def _read_json(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror or exc}") from exc
    try:
        return json.loads(text)
    except ValueError as exc:
        raise CliError(f"{path}: not valid JSON: {exc}") from exc


def _load(path, schema: str, from_doc):
    doc = _read_json(path)
    try:
        return from_doc(doc)
    except _Mismatch as exc:
        raise CliError(
            f"{path}: does not match the {schema} schema: {exc}") from exc
    except WspError as exc:
        raise CliError(f"{path}: {exc}") from exc


def load_instance(path) -> Instance:
    return _load(path, "instance", instance_from_doc)


def load_plan(path) -> tuple[int, ...]:
    return _load(path, "plan", plan_from_doc)


def dump_json(doc: dict) -> str:
    return json_text(doc) + "\n"


def save_instance(path, inst: Instance, meta: Optional[dict] = None) -> None:
    Path(path).write_text(dump_json(instance_to_doc(inst, meta)),
                          encoding="ascii")


def save_plan(path, plan: Sequence[int]) -> None:
    Path(path).write_text(dump_json({"assignment": list(plan)}),
                          encoding="ascii")


# --- generate ----------------------------------------------------------------------


def _family_kind(name: str) -> str:
    label = name.lower()
    if label in ("wsp", "wsp_sod"):
        return "sod"
    if label.startswith("wsp_"):
        label = label[4:]
    if label in FAMILY_KINDS:
        return label
    raise CliError(f"unknown family {name!r}; use wsp or wsp_<kind> with "
                   f"kind one of {', '.join(FAMILY_KINDS)}")


def _family_label(kind: str) -> str:
    return "wsp" if kind == "sod" else f"wsp_{kind}"


def _family_spec(args, kind: str, k: int, n: int, **kwargs) -> GenSpec:
    """A family's calibrated spec under the calibration flags."""
    return family_spec(kind, k, n, samples=args.samples,
                       band=(args.band_lo, args.band_hi),
                       use_cache=not args.no_cache, jobs=args.jobs, **kwargs)


def cmd_generate(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    counts = {kind: getattr(args, kind) for kind in FAMILY_KINDS}
    if args.family is not None:
        if any(counts.values()):
            raise CliError("--family picks the constraint counts; "
                           "drop the per-kind count flags")
        kind = _family_kind(args.family)
        label = _family_label(kind)
        spec = _family_spec(args, kind, args.k, args.n,
                            count_override=args.family_count)
        for i in range(args.count):
            inst, meta = family_draw(spec, args.seed, i)
            meta.update(family=label, master_seed=args.seed, index=i)
            path = out_dir / f"{label}-k{args.k}-n{args.n}-s{args.seed}-{i:03d}.json"
            save_instance(path, inst, meta)
            print(path)
        return EXIT_OK

    for i in range(args.count):
        seed = args.seed + i
        spec = GenSpec(k=args.k, n=args.n, seed=seed, **counts)
        inst, meta = generate_with_meta(spec)
        meta["family"] = "explicit"
        parts = [f"k{args.k}", f"n{args.n}"]
        parts += [f"{kind}{count}" for kind, count in counts.items() if count]
        parts.append(f"s{seed}")
        path = out_dir / ("inst-" + "-".join(parts) + ".json")
        save_instance(path, inst, meta)
        print(path)
    return EXIT_OK


# --- solve and verify -----------------------------------------------------------------


def _check_budget(algorithm: str, budget: Budget) -> None:
    """Reject a budget the algorithm cannot honour instead of ignoring it,
    naming the flags."""
    check_budget(algorithm, budget,
                 name=lambda field: "--" + field.replace("_", "-"))


def _solve(algorithm: str, inst: Instance, budget: Budget,
           kernel: str) -> SolveResult:
    """Run one solver by its command-line name; `solve` and `bench` share
    this dispatch, so a budget means the same in both."""
    _check_budget(algorithm, budget)
    if algorithm == "backtrack":
        return solve_backtracking(inst, budget, backend=kernel)
    if algorithm == "pattern-enum":
        return solve_pattern_enum(inst, budget)
    return solve_bruteforce(inst)


def cmd_solve(args) -> int:
    budget = Budget(max_millis=args.max_millis, max_patterns=args.max_patterns,
                    max_nodes=args.max_nodes)
    res = _solve(args.algorithm, load_instance(args.instance), budget,
                 args.kernel)
    print(f"verdict {res.verdict.value.upper()}")
    if res.plan is not None:
        print("plan " + " ".join(str(u) for u in res.plan))
        if args.plan_out:
            save_plan(args.plan_out, res.plan)
    stats = res.stats
    print(f"patterns_visited {stats.patterns_visited}")
    print(f"nodes_expanded {stats.nodes_expanded}")
    print(f"matchings_computed {stats.matchings_computed}")
    print(f"millis {stats.wall_time * 1000.0:.3f}", file=sys.stderr)
    return VERDICT_EXIT[res.verdict]


def cmd_verify(args) -> int:
    inst = load_instance(args.instance)
    plan = load_plan(args.plan)
    if len(plan) != inst.k:
        raise CliError(f"{args.plan}: plan covers {len(plan)} steps, "
                       f"instance has {inst.k}")
    for s, u in enumerate(plan):
        if not (0 <= u < inst.n and inst.auth.allows(s, u)):
            print(f"invalid: step {s} assigned unauthorised user {u}")
            return EXIT_INVALID
    violated = violated_constraints(plan, inst)
    if violated:
        print(f"invalid: violates {violated[0]!r}")
        return EXIT_INVALID
    print("valid")
    return EXIT_OK


# --- encode ------------------------------------------------------------------------------


def cmd_encode(args) -> int:
    if (args.repr == "cs") != (args.format == "json"):
        raise CliError("the cs representation pairs with --format json only; "
                       "udpb and pbpb pair with opb or dimacs")
    if args.no_transitivity and args.repr != "pbpb":
        raise CliError("--no-transitivity applies to --repr pbpb only")
    inst = load_instance(args.instance)
    out = Path(args.out)
    if args.repr == "cs":
        model = encode_cs(inst)
    elif args.repr == "udpb":
        model = encode_udpb(inst)
    else:
        model = encode_pbpb(inst,
                            include_transitivity=not args.no_transitivity)
    with open(out, "w", encoding="ascii", newline="") as sink:
        if args.format == "opb":
            emit_opb(model, sink)
        elif args.format == "dimacs":
            emit_dimacs(model, sink)
        else:
            emit_cs_json(model, sink)
    varmap = out.with_name(out.name + ".varmap")
    with open(varmap, "w", encoding="ascii", newline="") as sink:
        emit_varmap(model, sink)
    print(out)
    print(varmap)
    return EXIT_OK


# --- inspect -------------------------------------------------------------------------------


def cmd_inspect(args) -> int:
    inst = load_instance(args.instance)
    non_ui = inst.nonui_constraints()
    reports = [(type(c).__name__.lower(), branching_bound(c)) for c in non_ui]
    product = prod(bound for _, bound in reports)
    bell_k = bell(inst.k)
    work = bell_k * product
    order = visit_order(inst)
    if args.json:
        doc = {
            "k": inst.k,
            "n": inst.n,
            "constraints": len(inst.constraints),
            "ui": len(inst.ui_constraints()),
            "non_ui": len(non_ui),
            "bell_k": bell_k,
            "branching": [{"kind": kind, "bound": bound}
                          for kind, bound in reports],
            "branching_product": product,
            "work_bound": work,
            "visit_order": list(order),
        }
        sys.stdout.write(dump_json(doc))
        return EXIT_OK
    print(f"k {inst.k}")
    print(f"n {inst.n}")
    print(f"constraints {len(inst.constraints)}")
    print(f"ui {len(inst.ui_constraints())}")
    print(f"non_ui {len(non_ui)}")
    for kind, bound in reports:
        print(f"branching {kind} {bound}")
    print(f"bell_k {bell_k}")
    print(f"branching_product {product}")
    print(f"work_bound {work}")
    print("visit_order", *order)
    return EXIT_OK


# --- calibrate -------------------------------------------------------------------------------


def cmd_calibrate(args) -> int:
    kind = _family_kind(args.family)
    spec = _family_spec(args, kind, args.k, args.n)
    print(f"family {_family_label(kind)}")
    print(f"k {args.k}")
    print(f"n {args.n}")
    for field, count in spec.counts().items():
        print(f"{field} {count}")
    return EXIT_OK


# --- bench -----------------------------------------------------------------------------------


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise CliError(f"{flag}: expected comma-separated integers, "
                       f"got {text!r}") from exc


def _bench_sizes(args) -> list[tuple[int, int]]:
    ks = _parse_int_list(args.k_list, "--k-list")
    if not ks:
        raise CliError("--k-list: no sizes given")
    if (args.n_list is None) == (args.n_mult is None):
        raise CliError("give exactly one of --n-list or --n-mult")
    if args.n_mult is not None:
        return [(k, k * args.n_mult) for k in ks]
    ns = _parse_int_list(args.n_list, "--n-list")
    if len(ks) == 1:
        return [(ks[0], n) for n in ns]
    if len(ns) == 1:
        return [(k, ns[0]) for k in ks]
    if len(ks) == len(ns):
        return list(zip(ks, ns))
    raise CliError("--k-list and --n-list lengths do not match")


def cmd_bench(args) -> int:
    kind = _family_kind(args.family)
    label = _family_label(kind)
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    budget = Budget(max_millis=args.max_millis)
    for algorithm in algorithms:
        if algorithm not in SOLVER_LIMITS:
            raise CliError(f"unknown algorithm {algorithm!r}")
        _check_budget(algorithm, budget)
    sizes = _bench_sizes(args)

    rows = []
    groups: dict[tuple, list] = {}
    for k, n in sizes:
        spec = _family_spec(args, kind, k, n)
        for i in range(args.seeds):
            inst, meta = family_draw(spec, args.seed, i)
            for algorithm in algorithms:
                res = _solve(algorithm, inst, budget, args.kernel)
                millis = res.stats.wall_time * 1000.0
                rows.append([k, n, label, meta["seed"], algorithm,
                             res.verdict.value, f"{millis:.3f}",
                             res.stats.patterns_visited,
                             res.stats.nodes_expanded])
                groups.setdefault((k, n, algorithm), []).append(
                    (millis, res.stats.patterns_visited,
                     res.stats.nodes_expanded))

    summaries = []
    for (k, n, algorithm), samples in groups.items():
        summaries.append([
            k, n, label, "median", algorithm, "",
            f"{median_low([s[0] for s in samples]):.3f}",
            median_low([s[1] for s in samples]),
            median_low([s[2] for s in samples]),
        ])

    sink = open(args.out, "w", encoding="ascii", newline="") \
        if args.out else sys.stdout
    try:
        writer = csv.writer(sink)
        writer.writerow(["k", "n", "family", "seed", "algorithm", "verdict",
                         "millis", "patterns_visited", "nodes_expanded"])
        writer.writerows(rows)
        writer.writerows(summaries)
    finally:
        if sink is not sys.stdout:
            sink.close()
    return EXIT_OK


# --- argument parsing ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit 1, matching the documented
    exit-code contract (argparse defaults to 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _add_band_flags(parser) -> None:
    parser.add_argument("--samples", type=int, default=40,
                        help="instances per calibration probe")
    parser.add_argument("--band-lo", type=float, default=0.4)
    parser.add_argument("--band-hi", type=float, default=0.6)
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore and do not write the calibration cache")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for calibration sampling")


def build_parser() -> argparse.ArgumentParser:
    kernels = ("auto", *_kernel.available_backends())
    parser = _Parser(prog="wspkit",
                     description="Workflow satisfiability toolkit")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("generate", help="draw pseudo-random instances")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    for kind in FAMILY_KINDS:
        p.add_argument(f"--{kind}", type=int, default=0,
                       help=f"number of {kind} constraints")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1,
                   help="number of instances to write")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--family", default=None,
                   help="calibrated family (wsp or wsp_<kind>) instead of "
                        "explicit counts")
    p.add_argument("--family-count", type=int, default=None,
                   help="override the family's calibrated own-kind count")
    _add_band_flags(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("instance")
    p.add_argument("--algorithm", choices=tuple(SOLVER_LIMITS),
                   default="backtrack")
    p.add_argument("--max-millis", type=float, default=None)
    p.add_argument("--max-patterns", type=int, default=None)
    p.add_argument("--max-nodes", type=int, default=None)
    p.add_argument("--kernel", choices=kernels, default="auto")
    p.add_argument("--plan-out", default=None,
                   help="write the satisfying plan to this JSON file")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check a plan against an instance")
    p.add_argument("instance")
    p.add_argument("plan")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("encode", help="write a solver-ready model file")
    p.add_argument("instance")
    p.add_argument("--repr", choices=("udpb", "pbpb", "cs"), required=True)
    p.add_argument("--format", choices=("opb", "dimacs", "json"),
                   required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--no-transitivity", action="store_true",
                   help="drop the redundant pairwise-equality transitivity "
                        "rows (pbpb only)")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("inspect",
                       help="report search-effort bounds and the visit order")
    p.add_argument("instance")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("calibrate",
                       help="find and cache a family's constraint counts")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", default="wsp")
    _add_band_flags(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("bench", help="time solvers over calibrated families")
    p.add_argument("--family", default="wsp")
    p.add_argument("--k-list", required=True,
                   help="comma-separated step counts")
    p.add_argument("--n-list", default=None,
                   help="comma-separated user counts")
    p.add_argument("--n-mult", type=int, default=None,
                   help="set n = mult * k instead of --n-list")
    p.add_argument("--seeds", type=int, default=5,
                   help="instances per size")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--algorithms", default="backtrack",
                   help="comma-separated: " + ", ".join(SOLVER_LIMITS))
    p.add_argument("--max-millis", type=float, default=None,
                   help="per-instance budget")
    p.add_argument("--kernel", choices=kernels, default="auto")
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    _add_band_flags(p)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except WspError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
