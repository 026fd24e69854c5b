"""wspkit benchmark: one closed-loop client, one solve in flight, jobs=1.

    python3 perfbench/run.py --workload search --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root or anywhere else; the package is imported from
`src/` next to this directory, after an in-place extension build.  With
`--trace 0` the last stdout line is a JSON object carrying the end-to-end
metrics, with `--trace 1` the per-layer metrics of a traced pass.  The
exit code is non-zero when a check fails or the sources are missing.  See
perfbench/README.md for the workloads and what each metric should show.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from speed import REF_NOMINAL_S, Held, RawClock, RefClock
from tracing import LAYERS, Summary, Tracer
from workloads import WORKLOADS, Refusal, solve_untraced

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD_DIR = ROOT / ".bench_build"
CACHE_ROOT = ROOT / ".bench_cache"

# setup_s is the median of at least SETUP_MIN set-ups; cheap set-ups repeat
# until SETUP_WALL_S of wall time is spent, up to SETUP_MAX of them
SETUP_MIN, SETUP_MAX, SETUP_WALL_S = 3, 15, 1.0
HANG_GUARD_S = 170      # a run still going after this is stopped as failed
TAIL_LADDER = (50, 90, 95, 99, 99.9, 99.99)


class HangGuard(Exception):
    pass


# --- build and import ---------------------------------------------------------


def build() -> None:
    """Build the package's extension modules in place, as setup.py defines
    them (none when Cython is absent), once per state of the build inputs."""
    inputs = [ROOT / "setup.py", ROOT / "pyproject.toml"]
    inputs += sorted(p for p in (SRC / "wspkit").rglob("*")
                     if p.suffix in (".pyx", ".pxd", ".c"))
    digest = hashlib.sha256()
    for path in inputs:
        if path.is_file():
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    stamp = BUILD_DIR / "perfbench.stamp"
    if stamp.is_file() and stamp.read_text() == digest.hexdigest():
        return
    BUILD_DIR.mkdir(exist_ok=True)
    subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace",
         "--build-temp", str(BUILD_DIR / "tmp")],
        cwd=ROOT, stdout=sys.stderr, check=True, timeout=800)
    stamp.write_text(digest.hexdigest())


def import_wspkit() -> SimpleNamespace:
    """A fresh import of the layers.  Compiled extension modules stay
    loaded: they cannot be initialised twice in one process."""
    for name in [n for n in sys.modules if n == "wspkit" or n.startswith("wspkit.")]:
        if not str(getattr(sys.modules[name], "__file__", "")).endswith(".so"):
            del sys.modules[name]
    mods = {key: importlib.import_module(f"wspkit.{mod}") for key, mod in (
        ("core", "core"), ("kernel", "_kernel"), ("absorption", "absorption"),
        ("solver", "solver"), ("generator", "generator"), ("encode", "encode"))}
    origin = Path(mods["core"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise Refusal(f"imported wspkit from {origin}, not from {SRC}")
    return SimpleNamespace(**mods)


# --- statistics ---------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the highest ladder
    percentile with at least ten samples beyond it (nearest rank)."""
    xs = sorted(values)
    best = None
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * len(xs))
        if rank >= 1 and len(xs) - rank >= 10:
            best = (p, xs[rank - 1], len(xs) - rank)
    if best is None:
        raise ValueError(f"{len(xs)} samples leave no percentile with ten beyond it")
    return best


def iqr(values: list[float]) -> float:
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def per_index_median(rows: list[list[float]]) -> list[float]:
    return [statistics.median(col) for col in zip(*rows)]


# --- one workload in this process ------------------------------------------------


def measure(wl, seed: int, seconds: float, trace: bool, cache):
    """Set up, run passes, check them, and return (report lines, result)."""
    lines: list[str] = []
    errors: list[str] = []
    setups: list[Held] = []
    tracer = Tracer() if trace else None
    # untraced times are at reference speed; traced ones, and the untraced
    # twins they are compared with, are plain wall time
    clock = RawClock() if trace else RefClock()
    while True:
        state = lib = None    # let the previous set-up go before the next
        held = Held()
        clock.start()
        lib = import_wspkit()
        state = wl.setup(lib, seed, cache, tracer, lambda: clock.lap(held))
        clock.stop(held)
        clock.flush()
        setups.append(held)
        if trace or len(setups) == SETUP_MAX or (
                len(setups) >= SETUP_MIN
                and sum(h.raw for h in setups) >= SETUP_WALL_S):
            break

    if trace:
        traced = wl.run_pass(lib, state, tracer, clock)
        passes = [traced.baseline]
        errors += compare_traced(traced.baseline, traced)
    else:
        passes = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            passes.append(wl.run_pass(lib, state, None, clock))
            last = time.perf_counter() - t0
            if time.perf_counter() - start + last > seconds:
                break
    for p in passes:
        errors += p.errors
    verdicts = ["".join(r.verdict for r in p.solves) for p in passes]
    if len(set(verdicts)) != 1:
        errors.append("verdict sequence differs between passes")
    first = passes[0]

    parity = "not run (the search workload's traced run checks it)"
    if trace and wl.name == "search":
        parity = check_parity(lib, wl, state, first, errors)
    lines.append("stamp " + json.dumps({
        "backend": lib.kernel.BACKEND,
        "available_backends": list(lib.kernel.available_backends()),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "generator_version": lib.generator.GENERATOR_VERSION,
        "parity": parity,
    }, sort_keys=True))
    lines.append(describe(wl, len(passes)))
    digest = hashlib.sha256(verdicts[0].encode()).hexdigest()[:16]
    lines.append(f"digest {wl.name} {digest} over {len(verdicts[0])} verdicts "
                 f"(sat={verdicts[0].count('S')} unsat={verdicts[0].count('U')} "
                 f"budget={verdicts[0].count('B')} raised={verdicts[0].count('E')})")
    nodes = sorted(r.counters[1] for r in passes[0].solves if r.counters)
    if nodes:
        lines.append(f"counts {wl.name} nodes p50={nodes[(len(nodes) - 1) // 2]} "
                     f"max={nodes[-1]} total={sum(nodes)}")

    attempted = len(first.solves) + len(first.tasks)
    failed = sum(r.verdict in "BE" for r in first.solves) + first.task_failed
    if not trace:
        metrics, notes = end_to_end(passes, setups, attempted, failed, clock)
    else:
        metrics, notes = per_layer(first, traced, errors, wl)
    lines += notes
    if wl.name != "calibrate" and any(cache.iterdir()):
        errors.append(f"{wl.name} wrote to its calibration cache")
    for err in errors[:20]:
        lines.append(f"CHECK FAILED: {err}")
    if len(errors) > 20:
        lines.append(f"CHECK FAILED: ... and {len(errors) - 20} more")
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return lines, result


def describe(wl, npasses: int) -> str:
    if hasattr(wl, "spec"):
        counts = " ".join(f"{k}={v}" for k, v in wl.spec.items())
        exported = (f" exported=every {wl.export_every}th"
                    if wl.export_every else "")
        return (f"workload {wl.name}: {counts} instances={wl.instances}"
                f"{exported} node_cap={wl.node_cap} passes={npasses}")
    return (f"workload {wl.name}: family_spec({', '.join(map(repr, wl.expected))}) "
            f"at k={wl.k} n={wl.n}, cold cache, jobs=1; passes={npasses}")


def end_to_end(passes, setups, attempted, failed, clock):
    ms = [t * 1000 for t in per_index_median(
        [[r.seconds for r in p.solves] for p in passes])]
    raw_ms = [t * 1000 for t in per_index_median(
        [[r.raw for r in p.solves] for p in passes])]
    verdicts = [r.verdict for r in passes[0].solves]
    sat = [t for t, v in zip(ms, verdicts) if v == "S"]
    unsat = [t for t, v in zip(ms, verdicts) if v == "U"]
    if not sat or not unsat:
        raise ValueError("the workload needs both SAT and UNSAT solves")
    decided = len(sat) + len(unsat)
    throughput = statistics.median(
        decided / sum(r.seconds for r in p.solves) for p in passes)
    if passes[0].tasks:
        task_ms = [t * 1000 for t in per_index_median(
            [[t.seconds for t in p.tasks] for p in passes])]
    else:
        task_ms = ms
    pct, tail_ms, beyond = tail(ms)
    values = {
        "setup_s": (statistics.median(h.seconds for h in setups), "s"),
        "solve_ms_p50": (statistics.median(ms), "ms"),
        "solve_ms_tail": (tail_ms, "ms"),
        "solves_per_s": (throughput, "1/s"),
        "sat_solve_ms_p50": (statistics.median(sat), "ms"),
        "unsat_solve_ms_p50": (statistics.median(unsat), "ms"),
        "decided_rate": (1 - failed / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
        "task_ms_p50": (statistics.median(task_ms), "ms"),
    }
    notes = [f"metric {k} = {v:{'d' if isinstance(v, int) else '.6g'}} {u}"
             for k, (v, u) in values.items()]
    notes.append(f"note solve_ms_tail is p{pct:g} of {len(ms)} solves, "
                 f"{beyond} beyond it; sat={len(sat)} unsat={len(unsat)}")
    notes.append(f"note fail_rate = {failed / attempted:.6g} ratio "
                 f"({failed} of {attempted} operations)")
    notes.append(f"note setup_s over {len(setups)} set-ups: "
                 + ", ".join(f"{h.seconds:.4f}" for h in setups)
                 + " s; wall: " + ", ".join(f"{h.raw:.4f}" for h in setups))
    refs = clock.references
    notes.append(f"note times are at reference speed: the reference loop took "
                 f"{statistics.median(refs) * 1000:.3f} ms (median of {len(refs)}, "
                 f"IQR {iqr(refs) * 1000:.3f} ms) against {REF_NOMINAL_S * 1000:g} ms "
                 f"nominal; wall solve_ms_p50 = {statistics.median(raw_ms):.6g} ms")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, notes


def compare_traced(untraced, traced) -> list[str]:
    errors = list(traced.errors)
    if len(untraced.solves) != len(traced.solves):
        return errors + [f"traced pass made {len(traced.solves)} solves, "
                         f"untraced {len(untraced.solves)}"]
    for i, (a, b) in enumerate(zip(untraced.solves, traced.solves)):
        if (a.verdict, a.counters) != (b.verdict, b.counters):
            errors.append(f"solve {i}: untraced {a.verdict} {a.counters}, "
                          f"traced {b.verdict} {b.counters}")
    return errors


def check_parity(lib, wl, state, untraced, errors) -> str:
    others = [b for b in lib.kernel.available_backends() if b != lib.kernel.BACKEND]
    if not others:
        return f"skipped: only the {lib.kernel.BACKEND} backend is importable"
    budget = wl.budget(lib)
    for other in others:
        for i, (inst, rec) in enumerate(zip(state["instances"], untraced.solves)):
            got = solve_untraced(lib, inst, budget, RawClock(), backend=other)
            if (got.verdict, got.counters) != (rec.verdict, rec.counters):
                errors.append(f"parity: solve {i} on {other} gave "
                              f"{got.verdict} {got.counters}, on "
                              f"{lib.kernel.BACKEND} {rec.verdict} {rec.counters}")
    return f"checked: {lib.kernel.BACKEND} against {', '.join(others)}"


def per_layer(untraced, traced, errors, wl):
    summary = Summary(traced.tracer.spans)
    if summary.closure_error() > 1e-6:
        errors.append(f"layer self times miss the traced time by "
                      f"{summary.closure_error():.3g} s")
    counted = [r for r in traced.solves if r.counters is not None]
    nodes = [r.counters[1] for r in counted]
    fam = [r.m for r in counted]
    kernel_s = summary.total.get("kernel.search", 0.0)
    untraced_ms = untraced.measured * 1000
    traced_ms = summary.measured * 1000
    counts = traced.counts
    values = {
        "kernel.search_ms": (summary.ms("kernel.search"), "ms"),
        "kernel.nodes": (sum(nodes), "count"),
        "kernel.nodes_per_s": (sum(nodes) / kernel_s if kernel_s else 0.0, "1/s"),
        "kernel.patterns": (sum(r.counters[0] for r in counted), "count"),
        "kernel.matchings": (sum(r.counters[2] for r in counted), "count"),
        "kernel.combo_nodes": (sum(r.counters[1] * r.m for r in counted), "count"),
        "kernel.nodes_p50": (statistics.median_low(nodes) if nodes else 0, "count"),
        "kernel.nodes_max": (max(nodes, default=0), "count"),
        "absorption.absorb_ms": (summary.ms("absorption.absorb"), "ms"),
        "absorption.family_m_p50": (statistics.median_low(fam) if fam else 0, "count"),
        "absorption.family_m_max": (max(fam, default=0), "count"),
        "solver.compile_ms": (summary.ms("solver.compile"), "ms"),
        "core.is_valid_ms": (summary.ms("core.is_valid"), "ms"),
        "generator.generate_ms": (summary.ms("generator.generate"), "ms"),
        "generator.attempts": (counts.get("generator.attempts", 0), "count"),
        "generator.solves": (counts.get("generator.solves", 0), "count"),
    }
    for kind in ("udpb", "pbpb", "cs"):
        values[f"encode.build_ms.{kind}"] = (summary.ms(f"encode.build.{kind}"), "ms")
    for fmt in ("opb", "dimacs", "cs_json"):
        values[f"encode.emit_ms.{fmt}"] = (summary.ms(f"encode.emit.{fmt}"), "ms")
    for key in ("encode.rows", "encode.vars", "encode.bytes"):
        values[key] = (counts.get(key, 0), "count")
    for layer in LAYERS:
        values[f"{layer}.self_share"] = (summary.share(layer), "ratio")
    values.update({
        "trace.traced_ms": (traced_ms, "ms"),
        "trace.untraced_ms": (untraced_ms, "ms"),
        "trace.overhead_ms": (traced_ms - untraced_ms, "ms"),
        "trace.overhead_ratio": ((traced_ms - untraced_ms) / untraced_ms, "ratio"),
        "trace.unattributed_ms": (summary.unattributed * 1000, "ms"),
    })
    notes = [f"metric {k} = {v:{'d' if isinstance(v, int) else '.6g'}} {u}"
             for k, (v, u) in values.items()]
    self_ms = " + ".join(f"{layer} {summary.self_by_layer[layer] * 1000:.1f}"
                         for layer in LAYERS)
    notes.append(f"note self ms: {self_ms} + unattributed "
                 f"{summary.unattributed * 1000:.1f} = traced {traced_ms:.1f}")
    if untraced.tasks and untraced.solves:
        parts = [(name, sum(x.seconds for x in u) * 1000,
                  sum(x.seconds for x in t) * 1000)
                 for name, u, t in (("solves", untraced.solves, traced.solves),
                                    ("tasks", untraced.tasks, traced.tasks))]
        notes.append("note untraced/traced ms: " + ", ".join(
            f"{name} {u:.1f}/{t:.1f}" for name, u, t in parts))
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, notes


# --- entry points -----------------------------------------------------------------


def run_one(args) -> int:
    build()
    sys.path.insert(0, str(SRC))
    cache = CACHE_ROOT / f"run-{os.getpid()}-{time.time_ns()}"
    cache.mkdir(parents=True)
    # set before the first import, so no run reads or writes ~/.cache/wspkit
    os.environ["WSPKIT_CACHE_DIR"] = str(cache)

    def on_alarm(signum, frame):
        raise HangGuard(f"run still going after {HANG_GUARD_S} s")

    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(HANG_GUARD_S)
    try:
        lines, result = measure(WORKLOADS[args.workload], args.seed,
                                args.seconds, bool(args.trace), cache)
    except (Refusal, HangGuard, ValueError) as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)
        shutil.rmtree(cache, ignore_errors=True)
        try:
            CACHE_ROOT.rmdir()
        except OSError:
            pass
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another, so that
    peak_rss_mb covers that workload alone."""
    status = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        out = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(out[:-1]))
        if proc.returncode != 0 or not out:
            status = status or proc.returncode or 1
            combined["correct"] = False
            continue
        res = json.loads(out[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for key, val in res["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = val
    print(json.dumps(combined))
    return status


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="measuring time; at least one pass always runs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wspkit" / "__init__.py").is_file():
        print(f"perfbench: no wspkit sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
