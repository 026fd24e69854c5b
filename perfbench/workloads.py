"""The four perfbench workloads: their pinned inputs, how one pass over them
runs, and the checks every pass's outputs must pass.

A pass is one walk over the workload's fixed inputs.  Untraced passes call the
public API as a user would (`solve_backtracking`, `family_spec`, the
encoders).  Traced passes take the same serial path as `solve_backtracking`
through the layers' public functions, absorb -> compile_search_problem ->
the kernel backend -> core.is_valid, with a span around each call.

The library receives only the generated instances; every draw comes from the
`--seed` the benchmark was given.  The exception is `calibrate`, whose input
is (k, n) alone: `family_spec` derives its sample seeds from k and n.
"""

from __future__ import annotations

import gc
import io
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from speed import Held
from tracing import SETUP, Tracer

# Instances change whenever the generator's draw changes; the pinned counts
# below were measured against this version and are refused under any other.
EXPECTED_GENERATOR_VERSION = 1

# `search` uses the counts the k=12 calibration gives at the default band
# (0.4-0.6) and sample count (40).  They were derived with
#     wspkit calibrate --k 12 --n 120 --family wsp
# and the `calibrate` workload re-derives them on every run.

_STATUS = {0: "U", 1: "S", 2: "B"}           # kernel status -> verdict letter
_VERDICT = {"sat": "S", "unsat": "U", "budget": "B"}


class Refusal(Exception):
    """The program under test does not match what the workload was pinned
    against; the run stops before measuring anything."""


def check_generator(lib) -> None:
    if lib.generator.GENERATOR_VERSION != EXPECTED_GENERATOR_VERSION:
        raise Refusal(
            f"pinned against GENERATOR_VERSION {EXPECTED_GENERATOR_VERSION}, "
            f"library has {lib.generator.GENERATOR_VERSION}")


# --- records ---------------------------------------------------------------


@dataclass
class Solve:
    seconds: float                     # at reference speed when a RefClock timed it
    verdict: str                       # S, U, B (budget) or E (raised)
    plan: Optional[tuple[int, ...]] = None
    counters: Optional[tuple[int, int, int]] = None   # patterns, nodes, matchings
    m: int = 0                         # family size (traced solves only)
    error: str = ""                    # a raise that is not a capacity limit
    raw: float = 0.0                   # wall seconds


@dataclass
class Pass:
    solves: list[Solve] = field(default_factory=list)
    tasks: list[Held] = field(default_factory=list)   # non-solve tasks
    task_failed: int = 0
    errors: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    tracer: Optional[Tracer] = None
    measured: float = 0.0   # seconds of solve and task time, no checks
    baseline: Optional["Pass"] = None   # untraced twin of a traced pass

    def fail(self, message: str) -> None:
        self.errors.append(message)


def _untraced_call(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def solve_untraced(lib, inst, budget, clock, backend="auto") -> Solve:
    """One `solve_backtracking` call, booked to the returned record on
    `clock`; its time is there once the clock is flushed."""
    rec = Solve(0.0, "E")
    clock.start()
    try:
        res = lib.solver.solve_backtracking(inst, budget, backend=backend)
    except lib.core.CapacityError:
        return rec
    except lib.core.WspError as exc:   # e.g. the solver's own plan guard
        rec.error = str(exc)
        return rec
    finally:
        clock.stop(rec)
    st = res.stats
    rec.verdict, rec.plan = _VERDICT[res.verdict.value], res.plan
    rec.counters = (st.patterns_visited, st.nodes_expanded,
                    st.matchings_computed)
    return rec


def solve_traced(tr: Tracer, lib, inst, max_nodes) -> Solve:
    """The serial path of `solve_backtracking`, one span per layer call,
    all inside one `solve` span whose duration is the solve time."""
    root = tr.begin("solve")
    try:
        rec = _layer_path(tr, lib, inst, max_nodes)
    finally:
        tr.end(root)
    start, end = tr.spans[root][3:5]
    rec.seconds = end - start
    return rec


def _layer_path(tr: Tracer, lib, inst, max_nodes) -> Solve:
    try:
        absorbed = tr.call("absorption.absorb", lib.absorption.absorb, inst)
        prob = tr.call("solver.compile", lib.solver.compile_search_problem,
                       absorbed)
    except lib.core.CapacityError:
        return Solve(0.0, "E")
    except lib.core.WspError as exc:
        return Solve(0.0, "E", error=str(exc))
    m = len(absorbed.static_functions)
    if prob is None:
        return Solve(0.0, "U", None, (0, 0, 0), m)
    run = lib.kernel.backend_run_search(lib.kernel.BACKEND)
    status, plan, patterns, nodes, matchings = tr.call(
        "kernel.search", run, prob, max_nodes=max_nodes, max_patterns=None,
        deadline=None)
    verdict = _STATUS[status]
    if verdict == "S":
        # the plan guard; its answer is re-checked with the others in
        # check_plans, outside the timed region
        plan = tuple(plan)
        tr.call("core.is_valid", lib.core.is_valid, plan, inst)
    return Solve(0.0, verdict, plan, (patterns, nodes, matchings), m)


def check_plans(lib, instances, solves: list[Solve], out: Pass) -> None:
    """Every SAT plan, re-checked from outside the solver."""
    for i, (inst, rec) in enumerate(zip(instances, solves)):
        if rec.error:
            out.fail(f"instance {i}: solve raised: {rec.error}")
        elif rec.verdict == "S" and not lib.core.is_valid(rec.plan, inst):
            out.fail(f"instance {i}: SAT plan fails core.is_valid")


# --- workloads drawn from pinned GenSpec counts -------------------------------


_KIND_OF = {"SoD": "sod", "AtMost": "am3", "SUAL": "sual", "WL": "wl",
            "ADA": "ada"}


@dataclass(frozen=True)
class Drawn:
    """Instances drawn from fixed GenSpec counts, one sub-seed per index.
    Every draw is solved.  Every `export_every`-th draw (none when 0) is then
    built as UDPB, PBPB and CS models and emitted as OPB, DIMACS and CS JSON
    to memory, and its SAT plan is checked against all three models.  The
    exports are spread over the pass so that their times span all of it."""

    name: str
    salt: int             # keeps workloads' draws apart under one --seed
    spec: dict            # GenSpec fields: k, n and the constraint counts
    instances: int        # draws per pass
    node_cap: int         # per-solve node budget, far above any count seen
    export_every: int = 0

    def setup(self, lib, seed: int, cache: Path, tracer: Optional[Tracer],
              lap):
        """Draw the instances, calling `lap()` after each draw."""
        check_generator(lib)
        gen = lib.generator
        call = tracer.call if tracer else _untraced_call
        root = tracer.begin(SETUP) if tracer else None
        insts, attempts = [], 0
        for i in range(self.instances):
            spec = gen.GenSpec(seed=gen.derive_seed(seed, self.salt, i),
                               **self.spec)
            inst, meta = call("generator.generate", gen.generate_with_meta,
                              spec)
            insts.append(inst)
            attempts += meta["attempts"]
            lap()
        if tracer:
            tracer.end(root)
        want = {kind: self.spec.get(kind, 0) for kind in _KIND_OF.values()}
        for i, inst in enumerate(insts):
            got = dict.fromkeys(want, 0)
            for c in inst.constraints:
                got[_KIND_OF[type(c).__name__]] += 1
            if got != want or (inst.k, inst.n) != (self.spec["k"],
                                                   self.spec["n"]):
                raise Refusal(f"draw {i} has counts {got}, pinned {want}")
        return {"instances": insts, "attempts": attempts}

    def budget(self, lib):
        return lib.solver.Budget(max_nodes=self.node_cap)

    def run_pass(self, lib, state, tracer: Optional[Tracer], clock) -> Pass:
        """One walk over the draws, untraced calls timed on `clock`.  With a
        tracer, each solve and export runs untraced and then traced, back to
        back, so both sides see the same machine; the untraced records go
        to `baseline`."""
        insts = state["instances"]
        budget = self.budget(lib)
        out = Pass(tracer=tracer)
        base = out.baseline = Pass() if tracer else None
        for i, inst in enumerate(insts):
            if tracer is None:
                out.solves.append(solve_untraced(lib, inst, budget, clock))
                if self.export_every and i % self.export_every == 0:
                    export_checked(lib, i, inst, None, clock, out)
                continue
            # alternate which side goes first, so neither gains from order
            for side in ((base, out) if i % 2 == 0 else (out, base)):
                if side is base:
                    base.solves.append(solve_untraced(lib, inst, budget,
                                                      clock))
                else:
                    out.solves.append(solve_traced(tracer, lib, inst,
                                                   self.node_cap))
            if self.export_every and i % self.export_every == 0:
                first = (i // self.export_every) % 2 == 0   # by export, not draw
                # an export allocates enough to trigger full collections;
                # start both sides of the pair from the same heap
                gc.collect()
                for side in ((base, out) if first else (out, base)):
                    export_checked(lib, i, inst,
                                   tracer if side is out else None, clock, side)
        clock.flush()
        for p in (out, base):
            if p is not None:
                p.measured = (sum(r.seconds for r in p.solves)
                              + sum(t.seconds for t in p.tasks))
                check_plans(lib, insts, p.solves, p)
                p.counts["generator.attempts"] = state["attempts"]
        return out


def export_checked(lib, i, inst, tracer: Optional[Tracer], clock,
                   out: Pass) -> None:
    """Export draw i, time it on `clock`, count what was written and check
    it against the plan the pass found for it."""
    try:
        held, models, texts = export_one(lib, inst, tracer, clock)
    except lib.core.WspError:
        out.task_failed += 1
        return
    out.tasks.append(held)
    udpb, pbpb, cs = models
    for key, value in (("encode.rows", sum(len(m.rows) for m in models)),
                       ("encode.vars", udpb.var_count + pbpb.var_count
                        + len(cs.variables)),
                       ("encode.bytes", sum(len(t) for t in texts))):
        out.counts[key] = out.counts.get(key, 0) + value
    check_export(lib, i, inst, out.solves[i], models, texts, out)


def export_one(lib, inst, tracer: Optional[Tracer], clock):
    enc = lib.encode
    call = tracer.call if tracer else _untraced_call
    root = tracer.begin("export") if tracer else None
    held = Held()
    clock.start()
    try:
        udpb = call("encode.build.udpb", enc.encode_udpb, inst)
        pbpb = call("encode.build.pbpb", enc.encode_pbpb, inst)
        cs = call("encode.build.cs", enc.encode_cs, inst)
        sinks = (io.StringIO(), io.StringIO(), io.StringIO())
        call("encode.emit.opb", enc.emit_opb, udpb, sinks[0])
        call("encode.emit.dimacs", enc.emit_dimacs, pbpb, sinks[1])
        call("encode.emit.cs_json", enc.emit_cs_json, cs, sinks[2])
    finally:
        clock.stop(held)
        if tracer:
            tracer.end(root)
    return held, (udpb, pbpb, cs), tuple(s.getvalue() for s in sinks)


def cs_assignment(plan, model) -> dict[str, int]:
    """The CS counterpart of `encode.induced_assignment`: y_s follows the
    plan, and each selector group switches on its first member whose
    conditional rows the plan satisfies."""
    a = {v.name: 0 for v in model.variables}
    a.update({f"y{s}": u for s, u in enumerate(plan)})
    guarded: dict[str, list] = {}
    for row in model.rows:
        if row.kind.startswith("cond_"):
            guarded.setdefault(row.arg("selector"), []).append(row)
    for row in model.rows:
        if row.kind != "select_at_least_one":
            continue
        for sel in row.arg("selectors"):
            a[sel] = 1
            if all(model.row_holds(r, a) for r in guarded.get(sel, ())):
                break
            a[sel] = 0
    return a


def check_export(lib, i, inst, rec: Solve, models, texts, out: Pass) -> None:
    enc = lib.encode
    udpb, pbpb, cs = models
    opb, cnf, cs_json = texts
    if not opb.startswith(f"* #variable= {udpb.var_count} #constraint= "):
        out.fail(f"instance {i}: OPB header does not match the UDPB model")
    if not cnf.startswith("p cnf "):
        out.fail(f"instance {i}: DIMACS text has no problem line")
    if len(json.loads(cs_json)["vars"]) != len(cs.variables):
        out.fail(f"instance {i}: CS JSON variable count differs from model")
    if rec.verdict != "S":
        return
    for label, model in (("udpb", udpb), ("pbpb", pbpb)):
        a = enc.induced_assignment(rec.plan, model)
        if not model.satisfied_by(a):
            out.fail(f"instance {i}: plan's assignment violates {label}")
        elif enc.decode(a, model) != rec.plan:
            out.fail(f"instance {i}: {label} assignment decodes to another plan")
    a = cs_assignment(rec.plan, cs)
    if not cs.satisfied_by(a):
        out.fail(f"instance {i}: plan's assignment violates cs")
    elif enc.decode(a, cs) != rec.plan:
        out.fail(f"instance {i}: cs assignment decodes to another plan")


# --- calibration from a cold cache --------------------------------------------


@dataclass(frozen=True)
class Calibrate:
    """`family_spec("sod", k, n)` then `family_spec("wl", k, n)` with
    jobs=1 in an empty cache; the second call reuses the first's sod
    result, as `wspkit calibrate` and `generate --family` do."""

    name: str
    k: int
    n: int
    expected: dict        # family -> the GenSpec counts it must return

    def setup(self, lib, seed: int, cache: Path, tracer: Optional[Tracer],
              lap):
        check_generator(lib)

        def fresh_dir() -> Path:
            return Path(tempfile.mkdtemp(prefix="calibrate-", dir=cache))

        return {"dirs": [fresh_dir()], "fresh_dir": fresh_dir}

    def run_pass(self, lib, state, tracer: Optional[Tracer], clock) -> Pass:
        """One cold calibration.  Untraced, the calibration and each solve
        it issues are timed on `clock`.  With a tracer, an untraced
        calibration runs first and lands in `baseline`."""
        baseline = self.run_pass(lib, state, None, clock) if tracer else None
        gen, solver = lib.generator, lib.solver
        cache = state["dirs"].pop() if state["dirs"] else state["fresh_dir"]()
        os.environ["WSPKIT_CACHE_DIR"] = str(cache)
        out = Pass(tracer=tracer, baseline=baseline)
        seen: list = []   # (instance, record) per solve the calibration issued
        original = (solver.solve_backtracking, gen.generate)
        attempts = [0]
        task = Held()
        if tracer is None:
            def solve(inst, *args, **kwargs):
                clock.lap(task)           # calibration work since the last lap
                rec = Solve(0.0, "E")
                try:
                    res = original[0](inst, *args, **kwargs)
                finally:
                    clock.stop(rec, task)
                    clock.start()
                st = res.stats
                rec.verdict, rec.plan = _VERDICT[res.verdict.value], res.plan
                rec.counters = (st.patterns_visited, st.nodes_expanded,
                                st.matchings_computed)
                seen.append((inst, rec))
                return res
        else:
            def solve(inst, budget=None, **kwargs):
                rec = solve_traced(tracer, lib, inst, None)
                seen.append((inst, rec))
                verdict = {"S": solver.Verdict.SAT, "U": solver.Verdict.UNSAT,
                           "B": solver.Verdict.BUDGET}.get(rec.verdict)
                if verdict is None:
                    raise lib.core.WspError(
                        f"traced absorb or compile raised {rec.error or 'a capacity limit'}")
                return solver.SolveResult(verdict, rec.plan)

            def generate(spec):
                inst, meta = tracer.call("generator.generate",
                                         gen.generate_with_meta, spec)
                attempts[0] += meta["attempts"]
                return inst
            gen.generate = generate
        solver.solve_backtracking = solve
        call = tracer.call if tracer else _untraced_call
        specs = {}
        clock.start()
        try:
            for family in self.expected:
                specs[family] = call("generator.family_spec", gen.family_spec,
                                     family, self.k, self.n, jobs=1)
        except lib.core.WspError as exc:
            out.task_failed = 1
            out.fail(f"calibration raised: {exc}")
        finally:
            # the task is the whole cold calibration, both families
            clock.stop(task)
            solver.solve_backtracking, gen.generate = original
        clock.flush()
        out.tasks.append(task)
        out.solves = [rec for _, rec in seen]
        out.measured = task.seconds   # the solves run inside it
        check_plans(lib, [inst for inst, _ in seen], out.solves, out)
        for family, want in self.expected.items():
            got = specs.get(family)   # None: the raise is reported above
            if got is not None and got.counts() != want:
                out.fail(f"family_spec({family!r}, {self.k}, {self.n}) gave "
                         f"{got.counts()}, expected {want}")
        files = sorted(p.name for p in cache.iterdir())
        wanted = sorted(f"pt-k{self.k}-n{self.n}-{f}.json" for f in self.expected)
        if files != wanted:
            out.fail(f"calibration cache holds {files}, expected {wanted}")
        out.counts["generator.solves"] = len(seen)
        if tracer is not None:
            out.counts["generator.attempts"] = attempts[0]
        return out


def _counts(**kw) -> dict:
    base = dict.fromkeys(("sod", "am3", "sual", "wl", "ada"), 0)
    base.update(kw)
    return base


WORKLOADS = {
    "search": Drawn(
        "search", 1, dict(k=12, n=120, am3=12, sod=26),
        instances=2000, node_cap=250_000),
    "alternatives": Drawn(
        "alternatives", 2, dict(k=8, n=80, am3=8, sod=10, ada=8, wl=2),
        instances=600, node_cap=20_000),
    "calibrate": Calibrate(
        "calibrate", 12, 120,
        {"sod": _counts(am3=12, sod=26), "wl": _counts(am3=12, sod=19, wl=3)}),
    "export": Drawn(
        "export", 4, dict(k=10, n=80, am3=10, sod=7, sual=1, wl=2, ada=2),
        instances=900, node_cap=100_000, export_every=6),
}
