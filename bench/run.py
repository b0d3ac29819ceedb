#!/usr/bin/env python3
"""Benchmark of groverian: end-to-end metrics (untraced) or per-layer metrics
(traced) for one workload, printed as JSON on the last line of stdout.

Usage, from the repository root:
    python3 bench/run.py --workload haar-large --seed 1 --seconds 30 --trace 0

Workloads: haar-large, symmetric-small, refute (see bench/README.md).  The
line before the result records the git SHA, the Python, numpy and OpenBLAS
versions, the BLAS thread count, nproc and the seed.  A traced run also
writes its spans to .bench_out/trace-<workload>-<seed>.json.
"""
import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> None:
    """At most one BLAS thread per available core, in this process and in the
    interpreters it starts; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        threads = int(current) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(min(threads, nproc))


def main(argv: list[str] | None = None) -> int:
    spec = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "groverian" / "__init__.py").is_file() or not spec.is_file():
        print(f"error: {ROOT} holds no groverian sources or no BENCHMARK.json", file=sys.stderr)
        return 2
    names = [w["name"] for w in json.loads(spec.read_text())["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    cap_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    from harness import run

    info, result = run(args.workload, args.seed, args.seconds, args.trace, ROOT)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
