"""Package acceptance tests.

One test per acceptance criterion, run in order.  Each prints exactly one
PASS/FAIL line to the real stdout (past pytest's capture) so a test-log scan
shows the per-criterion outcome at a glance.  Failures carry the first few
offending cases.
"""

import itertools
import time
from contextlib import contextmanager
from dataclasses import replace

import pytest

from absorption_oracle import family_for_constraint, functions
from conftest import (
    CONSTRAINT_KINDS,
    PO_PLAN,
    bell_oracle,
    pattern_eligible,
    purchase_order_instance,
    random_instance,
    valid_plans_longhand,
)
from encode_oracle import plan_solutions
from wspkit.absorption import absorb, branching_bound
from wspkit.cli import main, save_instance
from wspkit.core import (
    ADA,
    AuthorisationFunction,
    Instance,
    SoD,
    WL,
    is_authorised,
)
from wspkit.encode import (
    decode,
    encode_cs,
    encode_pbpb,
    encode_udpb,
    induced_assignment,
)
from wspkit.generator import (
    GenSpec,
    calibrate_pt,
    derive_seed,
    family_spec,
    generate,
)
from wspkit.patterns import (
    bell,
    enumerate_patterns,
    pattern_of,
)
from wspkit.solver import (
    Verdict,
    solve_backtracking,
    solve_bruteforce,
    solve_pattern_enum,
    verify,
)

# instances and solve stats collected along the way, re-checked by the
# search-effort criterion
SOLVED_RECORDS: list = []


@contextmanager
def criterion(capsys, num: int, description: str):
    """Collects failure strings; prints the one PASS/FAIL line either way."""
    failures: list[str] = []
    status = "FAIL"
    try:
        yield failures
        status = "FAIL" if failures else "PASS"
    finally:
        with capsys.disabled():
            print(f"[acceptance] criterion {num:2d} {status}: {description}",
                  flush=True)
    if failures:
        pytest.fail(f"criterion {num}: " + "; ".join(
            str(f) for f in failures[:5]), pytrace=False)


def search_work_bound(inst: Instance) -> int:
    """bell(k) times the product of the constraint branching bounds."""
    product = 1
    for c in inst.nonui_constraints():
        product *= branching_bound(c)
    return bell(inst.k) * product


def authorised_product(inst: Instance):
    return itertools.product(*[inst.auth.users(s) for s in range(inst.k)])


# --- criterion 1: the running example ---------------------------------------------


def test_criterion_01_running_example(capsys):
    with criterion(capsys, 1, "six-step purchase-order example is solved "
                   "satisfiable by all three algorithms in under a second") \
            as failures:
        inst = purchase_order_instance()
        t0 = time.perf_counter()
        results = {
            "pattern-enum": solve_pattern_enum(inst),
            "backtrack": solve_backtracking(inst),
            "bruteforce": solve_bruteforce(inst),
        }
        elapsed = time.perf_counter() - t0
        for name, res in results.items():
            if res.verdict is not Verdict.SAT:
                failures.append(f"{name} returned {res.verdict}")
            elif not verify(res.plan, inst):
                failures.append(f"{name} plan {res.plan} does not verify")
            SOLVED_RECORDS.append((inst, name, res.stats))
        if not verify(PO_PLAN, inst):
            failures.append(f"the documented plan {PO_PLAN} does not verify")
        if elapsed >= 1.0:
            failures.append(f"took {elapsed:.3f}s, limit 1s")


# --- criterion 2: three solvers agree on random mixes ------------------------------


def test_criterion_02_solver_agreement(capsys):
    with criterion(capsys, 2, "pattern-enum, backtracking and brute force "
                   "agree on 200 random instances per constraint mix") \
            as failures:
        t0 = time.perf_counter()
        checked = 0
        for kind in CONSTRAINT_KINDS + ("mixed",):
            for seed in range(200):
                inst = random_instance(kind, seed)
                pe = solve_pattern_enum(inst)
                bt = solve_backtracking(inst)
                bf = solve_bruteforce(inst)
                verdicts = {pe.verdict, bt.verdict, bf.verdict}
                if len(verdicts) != 1:
                    failures.append(f"{kind}/{seed}: verdicts "
                                    f"{pe.verdict}/{bt.verdict}/{bf.verdict}")
                    continue
                for name, res in (("pattern-enum", pe), ("backtrack", bt),
                                  ("bruteforce", bf)):
                    if res.sat and not verify(res.plan, inst):
                        failures.append(
                            f"{kind}/{seed}: {name} plan invalid")
                    SOLVED_RECORDS.append((inst, name, res.stats))
                checked += 1
        elapsed = time.perf_counter() - t0
        if checked != 8 * 200:
            failures.append(f"only {checked} instances checked")
        if elapsed >= 300:
            failures.append(f"sweep took {elapsed:.1f}s, limit 300s")


# --- criterion 3: absorption is plan-equivalent with bounded families ----------------


def test_criterion_03_absorption_equivalence(capsys):
    with criterion(capsys, 3, "constraint absorption preserves the valid-plan "
                   "set on 100 instances per non-trivial kind, with family "
                   "sizes 1 (sual), <=2 (ada), <=team-count (wl)") as failures:
        for kind in ("sual", "wl", "ada"):
            for seed in range(100):
                inst = random_instance(kind, seed)
                absorbed = absorb(inst)
                patterns = list(enumerate_patterns(inst.k))
                for c in inst.nonui_constraints():
                    limit = {"sual": 1, "ada": 2}.get(
                        kind, len(c.teams) if isinstance(c, WL) else None)
                    for p in patterns:
                        size = len(family_for_constraint(
                            c, p, inst.k, inst.n))
                        if limit is not None and size > limit:
                            failures.append(
                                f"{kind}/{seed}: family size {size} at "
                                f"{p.rgs}, limit {limit}")
                            break
                mismatch = 0
                for plan in authorised_product(inst):
                    p = pattern_of(plan)
                    rewritten = (pattern_eligible(p, absorbed.residual)
                                 and any(is_authorised(plan, fn)
                                         for fn in functions(
                                             absorbed.family_for(p), inst.n)))
                    if rewritten != verify(plan, inst):
                        mismatch += 1
                if mismatch:
                    failures.append(
                        f"{kind}/{seed}: {mismatch} plans change validity")
                if len(failures) > 10:
                    return


# --- criterion 4: branching-factor sharpness fixtures ---------------------------------


def wl_sharpness_instance(d: int) -> Instance:
    """Two steps, 2d users in d two-user teams, both steps open to all."""
    n = 2 * d
    teams = tuple(frozenset({2 * i, 2 * i + 1}) for i in range(d))
    auth = AuthorisationFunction.from_lists([list(range(n))] * 2, n)
    return Instance(2, n, auth, (WL((0, 1), teams),))


def ada_sharpness_instance() -> Instance:
    """Two steps, three users; assigning user 0 to the first step forces
    user 1 onto the second."""
    auth = AuthorisationFunction.from_lists([[0, 1, 2], [0, 1, 2]], 3)
    c = ADA(0, 1, frozenset({0}), frozenset({1}))
    return Instance(2, 3, auth, (c,))


def test_criterion_04_sharpness_fixtures(capsys):
    with criterion(capsys, 4, "branching-bound sharpness fixtures: every "
                   "team branch of a d-team fixture is needed, and both "
                   "ada branches are needed with the cross plan rejected") \
            as failures:
        for d in (2, 3, 4):
            inst = wl_sharpness_instance(d)
            absorbed = absorb(inst)
            members = functions(absorbed.static_rows, inst.n)
            if len(members) != d:
                failures.append(f"wl d={d}: family size {len(members)}")
                continue
            truth = valid_plans_longhand(inst)
            if len(truth) != 4 * d:
                failures.append(f"wl d={d}: {len(truth)} valid plans")
            for plan in authorised_product(inst):
                if (any(is_authorised(plan, fn) for fn in members)
                        != (plan in truth)):
                    failures.append(f"wl d={d}: {plan} changes validity")
            for i in range(d):
                plan = (2 * i, 2 * i + 1)  # valid only within team i
                allowed_by = [j for j, fn in enumerate(members)
                              if is_authorised(plan, fn)]
                if allowed_by != [i]:
                    failures.append(
                        f"wl d={d}: plan {plan} allowed by members "
                        f"{allowed_by}, so member {i} is not exclusive")

        inst = ada_sharpness_instance()
        absorbed = absorb(inst)
        members = functions(absorbed.static_rows, inst.n)
        if len(members) != 2:
            failures.append(f"ada: family size {len(members)}")
        else:
            truth = valid_plans_longhand(inst)
            for plan in authorised_product(inst):
                if (any(is_authorised(plan, fn) for fn in members)
                        != (plan in truth)):
                    failures.append(f"ada: {plan} changes validity")
            cases = {
                (0, 1): [0],  # trigger fires, requirement met: branch 1 only
                (1, 2): [1],  # trigger avoided: branch 2 only
                (0, 2): [],   # the cross plan: rejected outright
            }
            for plan, expected in cases.items():
                allowed_by = [j for j, fn in enumerate(members)
                              if is_authorised(plan, fn)]
                if allowed_by != expected:
                    failures.append(f"ada: plan {plan} allowed by "
                                    f"{allowed_by}, expected {expected}")
            with_sod = Instance(2, 3, inst.auth,
                                inst.constraints + (SoD(0, 1),))
            res = solve_backtracking(with_sod)
            sod_truth = valid_plans_longhand(with_sod)
            if not res.sat:
                failures.append("ada+sod fixture should be satisfiable")
            if (0, 1) not in sod_truth or (0, 2) in sod_truth:
                failures.append("ada+sod fixture valid-plan set is wrong")


# --- criterion 5: encodings agree with plan-level semantics -----------------------------


def test_criterion_05_encoder_equivalence(capsys):
    with criterion(capsys, 5, "on 50 tiny instances per kind, plan validity "
                   "matches the pseudo-boolean models, the constraint-solver "
                   "model enumerates exactly the valid plans, and decoding "
                   "inverts inducing") as failures:
        for kind in CONSTRAINT_KINDS + ("mixed",):
            for seed in range(50):
                inst = random_instance(kind, seed, k_max=3, n_max=3)
                truth = valid_plans_longhand(inst)
                udpb = encode_udpb(inst)
                pbpb = encode_pbpb(inst)
                cs = encode_cs(inst)
                if plan_solutions(cs) != sorted(truth):
                    failures.append(f"{kind}/{seed}: cs solutions differ")
                for plan in authorised_product(inst):
                    valid = plan in truth
                    a_u = induced_assignment(plan, udpb)
                    a_p = induced_assignment(plan, pbpb)
                    if udpb.satisfied_by(a_u) != valid:
                        failures.append(
                            f"{kind}/{seed}: udpb disagrees on {plan}")
                    if pbpb.satisfied_by(a_p) != valid:
                        failures.append(
                            f"{kind}/{seed}: pbpb disagrees on {plan}")
                    if decode(a_u, udpb) != plan or decode(a_p, pbpb) != plan:
                        failures.append(
                            f"{kind}/{seed}: decode does not invert {plan}")
                    for s1 in range(inst.k):
                        for s2 in range(inst.k):
                            m = a_p[f"M{s1}_{s2}"]
                            if m != (1 if plan[s1] == plan[s2] else 0):
                                failures.append(
                                    f"{kind}/{seed}: M{s1}_{s2} wrong "
                                    f"on {plan}")
                    if len(failures) > 10:
                        return


# --- criterion 6: pattern enumeration counts ----------------------------------------------


def test_criterion_06_pattern_counts(capsys):
    with criterion(capsys, 6, "pattern enumeration yields exactly the Bell "
                   "number of patterns up to ten steps, and the Bell "
                   "triangle matches an independent oracle up to fifteen") \
            as failures:
        for k in range(1, 11):
            count = sum(1 for _ in enumerate_patterns(k))
            if count != bell(k):
                failures.append(f"k={k}: enumerated {count}, bell {bell(k)}")
        for k in range(16):
            if bell(k) != bell_oracle(k):
                failures.append(f"k={k}: bell {bell(k)} vs oracle "
                                f"{bell_oracle(k)}")
        if bell(10) != 115975:
            failures.append(f"bell(10) = {bell(10)}")


# --- criterion 7: scaling in steps and users ------------------------------------------------


def test_criterion_07_scaling(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("WSPKIT_CACHE_DIR", str(tmp_path / "cache"))
    with criterion(capsys, 7, "backtracking stays under ten seconds per "
                   "twelve-step instance, and a tenfold user increase at "
                   "ten steps costs at most twentyfold time") as failures:
        spec12 = family_spec("sod", 12, 120)
        times12 = []
        for i in range(9):
            inst = generate(replace(spec12, seed=derive_seed(7, i)))
            res = solve_backtracking(inst)
            if res.verdict is Verdict.BUDGET:
                failures.append(f"k=12 seed {i}: budget verdict without "
                                "a budget")
            times12.append(res.stats.wall_time)
            SOLVED_RECORDS.append((inst, "backtrack", res.stats))
        median12 = sorted(times12)[len(times12) // 2]
        if median12 >= 10.0:
            failures.append(f"k=12 median {median12:.3f}s, limit 10s")

        medians = {}
        for n in (100, 1000):
            spec = family_spec("sod", 10, n)
            times = []
            for i in range(9):
                inst = generate(replace(spec, seed=derive_seed(7, i)))
                best = None
                for _ in range(3):
                    res = solve_backtracking(inst)
                    wall = res.stats.wall_time
                    best = wall if best is None else min(best, wall)
                times.append(best)
                SOLVED_RECORDS.append((inst, "backtrack", res.stats))
            medians[n] = sorted(times)[len(times) // 2]
        if medians[1000] > 20 * medians[100]:
            failures.append(
                f"n=1000 median {medians[1000] * 1000:.3f}ms exceeds 20x "
                f"n=100 median {medians[100] * 1000:.3f}ms")


# --- criterion 8: search effort within the matching budget -----------------------------------


def test_criterion_08_matching_work_bound(capsys):
    with criterion(capsys, 8, "matchings computed never exceed bell(k) times "
                   "the product of branching bounds, on every instance "
                   "solved in this suite") as failures:
        checked = 0
        for inst, name, stats in SOLVED_RECORDS:
            bound = search_work_bound(inst)
            if stats.matchings_computed > bound:
                failures.append(
                    f"{name} on k={inst.k} n={inst.n}: "
                    f"{stats.matchings_computed} matchings > bound {bound}")
            checked += 1
        for seed in range(40):
            inst = random_instance("mixed", 9000 + seed)
            for name, res in (
                    ("pattern-enum", solve_pattern_enum(inst)),
                    ("backtrack", solve_backtracking(inst))):
                bound = search_work_bound(inst)
                if res.stats.matchings_computed > bound:
                    failures.append(
                        f"{name} on mixed/{9000 + seed}: "
                        f"{res.stats.matchings_computed} > {bound}")
                checked += 1
        if checked < 1000:
            failures.append(f"only {checked} solve records checked")


# --- criterion 9: phase-transition calibration ------------------------------------------------


def test_criterion_09_calibration_rate(capsys):
    with criterion(capsys, 9, "the calibrated constraint count at eight "
                   "steps and eighty users re-measures to a satisfiable "
                   "rate between 0.3 and 0.7 on 200 fresh seeds") as failures:
        t0 = time.perf_counter()
        master = derive_seed(8, 80)
        base = GenSpec(k=8, n=80, am3=8, seed=master)
        cal = calibrate_pt(base, samples=40, band=(0.4, 0.6))
        sat = 0
        for i in range(200):
            spec = replace(base, sod=base.sod + cal.e_value,
                           seed=derive_seed(master, 10_000 + i))
            if solve_backtracking(generate(spec)).sat:
                sat += 1
        rate = sat / 200
        if not 0.3 <= rate <= 0.7:
            failures.append(f"fresh-seed rate {rate} outside [0.3, 0.7] "
                            f"at e={cal.e_value}")
        elapsed = time.perf_counter() - t0
        if elapsed >= 600:
            failures.append(f"took {elapsed:.1f}s, limit 600s")


# --- criterion 10: byte-identical reruns --------------------------------------------------------


def test_criterion_10_byte_identical_outputs(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("WSPKIT_CACHE_DIR", str(tmp_path / "cache"))
    with criterion(capsys, 10, "generate, single-worker solve, and encode "
                   "produce byte-identical outputs when re-run") as failures:
        gen_args = ["generate", "--k", "6", "--n", "9", "--sod", "2",
                    "--ada", "1", "--seed", "5", "--count", "3"]
        for run in ("a", "b"):
            if main(gen_args + ["--out-dir", str(tmp_path / run)]) != 0:
                failures.append(f"generate run {run} failed")
        capsys.readouterr()
        first = sorted((tmp_path / "a").iterdir())
        if not first:
            failures.append("generate wrote no files")
        for left in first:
            right = tmp_path / "b" / left.name
            if left.read_bytes() != right.read_bytes():
                failures.append(f"generate: {left.name} differs between runs")

        fam_args = ["generate", "--family", "wsp", "--k", "8", "--n", "80",
                    "--seed", "1", "--count", "2"]
        for run in ("fa", "fb"):
            if main(fam_args + ["--out-dir", str(tmp_path / run)]) != 0:
                failures.append(f"family generate run {run} failed")
        capsys.readouterr()
        for left in sorted((tmp_path / "fa").iterdir()):
            right = tmp_path / "fb" / left.name
            if left.read_bytes() != right.read_bytes():
                failures.append(f"family: {left.name} differs between runs")

        po = tmp_path / "po.json"
        save_instance(po, purchase_order_instance())
        outputs = []
        for plan_name in ("p1.json", "p2.json"):
            code = main(["solve", str(po), "--plan-out",
                         str(tmp_path / plan_name)])
            outputs.append(capsys.readouterr().out)
            if code != 10:
                failures.append(f"solve exited {code}")
        if outputs[0] != outputs[1]:
            failures.append("solve stdout differs between runs")
        if (tmp_path / "p1.json").read_bytes() != \
                (tmp_path / "p2.json").read_bytes():
            failures.append("solve plan files differ between runs")

        for repr_name, format_name in (("udpb", "opb"), ("pbpb", "opb"),
                                       ("udpb", "dimacs"), ("cs", "json")):
            paths = []
            for run in ("x", "y"):
                out = tmp_path / f"{repr_name}-{format_name}-{run}"
                main(["encode", str(po), "--repr", repr_name, "--format",
                      format_name, "--out", str(out)])
                paths.append(out)
            capsys.readouterr()
            if paths[0].read_bytes() != paths[1].read_bytes():
                failures.append(f"encode {repr_name}/{format_name} differs")
            if (paths[0].parent / (paths[0].name + ".varmap")).read_bytes() \
                    != (paths[1].parent / (paths[1].name + ".varmap")).read_bytes():
                failures.append(
                    f"encode {repr_name}/{format_name} varmap differs")
