"""Timing comparison of the compiled and pure search-kernel backends.

Draws calibrated instances, solves each with both backends, and prints
per-instance wall times plus a lower-median summary per size.  The two
backends search the same tree and return the same verdicts and search
counters, so the script asserts that they agree exactly before reporting
times.

The script needs the compiled backend (`wspkit._kernel._speed`) and exits 1
without it, since there is then nothing to compare.  Run it from the
repository root with `PYTHONPATH=src` over an in-place build, or after
`pip install -e .`:

    PYTHONPATH=src python3 benchmarks/kernel_benchmark.py
    PYTHONPATH=src python3 benchmarks/kernel_benchmark.py --k-list 8,10,12 --n-mult 10 --seeds 7

Its test, `tests/test_benchmark_script.py`, does not need Cython: when the
package under test lacks the compiled backend and a C compiler is present,
it runs the script against the temporary copy of the package in which
`tests/conftest.py` built the kernel from the committed `_speed.c`.
"""

import argparse
import sys
from dataclasses import replace

from wspkit._kernel import available_backends
from wspkit.generator import derive_seed, family_spec, generate_with_meta
from wspkit.solver import Budget, solve_backtracking


def lower_median(values):
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--k-list", default="8,10,12",
                        help="comma-separated step counts")
    parser.add_argument("--n-mult", type=int, default=10,
                        help="users per step: n = mult * k")
    parser.add_argument("--seeds", type=int, default=5,
                        help="instances per size")
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument("--family", default="sod")
    parser.add_argument("--band-lo", type=float, default=0.4)
    parser.add_argument("--band-hi", type=float, default=0.6)
    parser.add_argument("--max-millis", type=float, default=None,
                        help="per-solve budget")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    backends = available_backends()
    if "compiled" not in backends:
        print("compiled backend unavailable; nothing to compare",
              file=sys.stderr)
        return 1
    budget = Budget(max_millis=args.max_millis) \
        if args.max_millis is not None else None
    ks = [int(part) for part in args.k_list.split(",") if part.strip()]

    print(f"{'k':>3} {'n':>5} {'seed':>20} {'verdict':>7} "
          f"{'pure_ms':>10} {'compiled_ms':>12} {'speedup':>8}")
    for k in ks:
        n = k * args.n_mult
        spec = family_spec(args.family, k, n,
                           band=(args.band_lo, args.band_hi))
        pure_times, compiled_times = [], []
        for i in range(args.seeds):
            sub_seed = derive_seed(args.seed, i)
            inst, _ = generate_with_meta(replace(spec, seed=sub_seed))
            pure = solve_backtracking(inst, budget, backend="pure")
            compiled = solve_backtracking(inst, budget, backend="compiled")
            if (pure.verdict, pure.stats.patterns_visited,
                    pure.stats.nodes_expanded,
                    pure.stats.matchings_computed) != \
                    (compiled.verdict, compiled.stats.patterns_visited,
                     compiled.stats.nodes_expanded,
                     compiled.stats.matchings_computed):
                print(f"backend divergence at k={k} n={n} seed={sub_seed}",
                      file=sys.stderr)
                return 1
            p_ms = pure.stats.wall_time * 1000.0
            c_ms = compiled.stats.wall_time * 1000.0
            pure_times.append(p_ms)
            compiled_times.append(c_ms)
            ratio = p_ms / c_ms if c_ms > 0 else float("inf")
            print(f"{k:>3} {n:>5} {sub_seed:>20} {pure.verdict.value:>7} "
                  f"{p_ms:>10.3f} {c_ms:>12.3f} {ratio:>7.1f}x")
        p_med = lower_median(pure_times)
        c_med = lower_median(compiled_times)
        ratio = p_med / c_med if c_med > 0 else float("inf")
        print(f"{k:>3} {n:>5} {'median':>20} {'':>7} "
              f"{p_med:>10.3f} {c_med:>12.3f} {ratio:>7.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
