"""One benchmark run: set-up time, the timed pass, the CLI, and the metrics.

An untraced run (trace = 0) reports the end-to-end metrics; a traced run
(trace = 1) executes every op twice, once traced and once not, in alternating
order, and reports the per-layer metrics and the tracing overhead.
"""
from __future__ import annotations

import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from tracing import LAYERS, Tracer
from workloads import WORKLOADS, Op, Workload

SETUP_REPEATS = 9
CLI_REPEATS = 5
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND_TAIL = 10
MAX_REPORTED_FAILURES = 5


@dataclass
class PassStats:
    latencies: list[float] = field(default_factory=list)  # seconds, timed ops only
    traced_s: float = 0.0
    untraced_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    results: dict = field(default_factory=dict)  # op index -> first correct output

    def execute(self, op: Op, idx: int | None, tr: Tracer) -> float:
        """Run and check one op; returns its latency in seconds.  The first
        correct output of each op index is kept in ``results``."""
        tr.op = self.attempted
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = op.run(tr)
            elapsed = time.perf_counter() - t0
            fails = op.check(out, tr)
        except Exception:  # a crashing op is a failed op; the run goes on
            elapsed = time.perf_counter() - t0
            fails = [traceback.format_exc()]
            out = None
        if fails:
            self.failed += 1
            if self.failed <= MAX_REPORTED_FAILURES:
                print(f"op {op.label} failed: {'; '.join(fails)}", file=sys.stderr)
        elif idx is not None and idx not in self.results:
            self.results[idx] = out
        return elapsed


def timed_pass(wl: Workload, seconds: float, tr: Tracer, side_tasks=()) -> PassStats:
    """One untimed warm-up op, then whole passes over ``wl.ops``, as many as
    fit in ``seconds`` and at least one, so that every run times the same mix
    of ops; then each op of ``wl.fresh_ops`` runs once, untimed.

    ``side_tasks`` (the fresh-interpreter timings) run between ops, spread
    evenly over the window, so that their samples see the same drift in
    machine speed as the ops do; their time is not part of the window.

    With the tracer enabled each op runs twice, traced and untraced, the order
    alternating from op to op; the latencies are the traced ones.
    """
    stats = PassStats()
    tracing = tr.enabled
    tr.enabled = False
    stats.execute(wl.ops[0], 0, tr)
    pending = list(side_tasks)
    gap = seconds / (len(pending) + 1)
    window = 0.0  # seconds of op time so far
    while True:
        pass_start = window
        for idx, op in enumerate(wl.ops):
            if tracing:
                first = len(stats.latencies) % 2 == 0
                for enabled in (first, not first):
                    tr.enabled = enabled
                    elapsed = stats.execute(op, idx, tr)
                    window += elapsed
                    if enabled:
                        stats.latencies.append(elapsed)
                        stats.traced_s += elapsed
                    else:
                        stats.untraced_s += elapsed
            else:
                elapsed = stats.execute(op, idx, tr)
                window += elapsed
                stats.latencies.append(elapsed)
            if pending and window >= gap * (len(side_tasks) - len(pending) + 1):
                pending.pop(0)()
        if window + (window - pass_start) > seconds:
            break
    tr.enabled = False
    for task in pending:
        task()
    for op in wl.fresh_ops:
        stats.execute(op, None, tr)
    tr.enabled = tracing
    return stats


def tail(latencies: list[float]) -> tuple[float, str]:
    """The highest listed percentile with at least ten ops beyond it, or the
    maximum when there are too few ops for any of them."""
    for p in TAIL_PERCENTILES:
        if len(latencies) * (1.0 - p / 100.0) >= MIN_BEYOND_TAIL:
            return float(np.percentile(latencies, p)), f"p{p:g}"
    return max(latencies), "max"


def program_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def sample_process(samples: list, cmd: list[str], env: dict, root: Path) -> None:
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=root, capture_output=True, text=True)
    samples.append((time.perf_counter() - t0, proc))


def spread_tasks(*groups: list) -> list:
    """Merge task lists so that each group is spread evenly over the whole."""
    keyed = [((i + 0.5) / len(g), k, task) for k, g in enumerate(groups) for i, task in enumerate(g)]
    return [task for _, _, task in sorted(keyed, key=lambda x: x[:2])]


# Library functions groverian.cli calls for the workloads' commands, as
# attribute paths from the cli module.
CLI_LIBRARY_CALLS = ("load_state_json", "pmax_alternating", "run_trace", "trace_to_csv",
                     "refutation.refutation_report")


def cli_in_process(wl: Workload, results: dict, tr: Tracer) -> tuple[float, float, list[str]]:
    """Median seconds of cli.main on the workload's command, and median of its
    self time: cli.main minus the library calls it makes, each of which is
    wrapped in a span for the duration of the call."""
    from unittest import mock  # imported here, as it would add to peak_rss_mb

    from groverian import cli

    def spanned(fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        def wrapper(*args, **kwargs):
            with tr.span(name):
                return fn(*args, **kwargs)
        return wrapper

    mains, selfs, fails = [], [], []
    for _ in range(CLI_REPEATS):
        out = io.StringIO()
        with contextlib.ExitStack() as stack:
            for path in CLI_LIBRARY_CALLS:
                *parents, attr = path.split(".")
                owner = cli
                for part in parents:
                    owner = getattr(owner, part, None)
                if hasattr(owner, attr):
                    stack.enter_context(mock.patch.object(owner, attr, spanned(getattr(owner, attr))))
            stack.enter_context(contextlib.redirect_stdout(out))
            with tr.span("cli.main"):
                code = cli.main(wl.cli_argv())
        main = tr.spans[-1]
        children = sum(s.seconds for s in tr.spans if s.parent == main.id)
        mains.append(main.seconds)
        selfs.append(main.seconds - children)
        fails += [f"cli.main returned {code}"] if code != 0 else wl.cli_check(out.getvalue(), results)
    return statistics.median(mains), statistics.median(selfs), fails


def blas_info() -> tuple[str, int | None]:
    """OpenBLAS version and the thread count it runs with, when numpy bundles it."""
    cfg = np.show_config(mode="dicts")
    version = cfg.get("Build Dependencies", {}).get("blas", {}).get("version", "unknown")
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("libscipy_openblas*.so*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return version, int(fn())
    return version, None


def git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_info(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    blas_version, blas_threads = blas_info()
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas_version,
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
    }


def run(workload: str, seed: int, seconds: float, trace: int, root: Path,
        tiny: bool = False) -> tuple[dict, dict]:
    """Returns (run record, result object).  ``tiny`` shrinks the inputs for
    the benchmark's own tests."""
    info = run_info(root, workload, seed, seconds, trace)
    out_dir = root / ".bench_out"
    tr = Tracer(enabled=bool(trace))
    wl = WORKLOADS[workload](seed, tr, out_dir, tiny=tiny)
    if trace:
        diag_tr = Tracer(enabled=True)
        metrics, fails, stats = traced_run(wl, seconds, tr, diag_tr)
        tr.write(out_dir / f"trace-{workload}-{seed}.json", info, diag_tr)
    else:
        metrics, fails, stats = untraced_run(wl, seconds, root)
    info["op_count"] = len(stats.latencies)
    info["tail_percentile"] = None if trace else tail(stats.latencies)[1]
    info["check_failures"] = [line[:500] for line in fails[:MAX_REPORTED_FAILURES]]
    for line in info["check_failures"]:
        print(f"check failed: {line}", file=sys.stderr)
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    result = {
        "correct": stats.failed == 0 and not fails,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return info, result


def untraced_run(wl: Workload, seconds: float, root: Path) -> tuple[dict, list[str], PassStats]:
    """setup_s is the median wall time of a fresh interpreter importing
    groverian, and cli_s that of ``python -m groverian <command>``, each
    sampled several times across the timed pass."""
    env = program_env(root)
    setup_cmd = [sys.executable, "-c", "import groverian"]
    cli_cmd = [sys.executable, "-m", "groverian", *wl.cli_argv()]
    subprocess.run(setup_cmd, env=env, cwd=root, check=True)  # compiles the bytecode cache
    setup, cli = [], []
    tasks = spread_tasks([partial(sample_process, setup, setup_cmd, env, root)] * SETUP_REPEATS,
                         [partial(sample_process, cli, cli_cmd, env, root)] * CLI_REPEATS)
    stats = timed_pass(wl, seconds, Tracer(enabled=False), tasks)

    fails = []
    for _, proc in setup:
        if proc.returncode != 0:
            fails.append(f"import groverian exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    for _, proc in cli:
        if proc.returncode != 0:
            fails.append(f"CLI exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        else:
            fails += wl.cli_check(proc.stdout, stats.results)
    lat = stats.latencies
    tail_s, _ = tail(lat)
    pmaxes = [op.pmax(stats.results[i]) for i, op in enumerate(wl.ops)
              if op.pmax is not None and i in stats.results]
    metrics = {
        "setup_s": statistics.median(t for t, _ in setup),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * tail_s,
        "cli_s": statistics.median(t for t, _ in cli),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pmax_mean": statistics.fmean(pmaxes) if pmaxes else 0.0,
    }
    return metrics, fails, stats


def traced_run(wl: Workload, seconds: float, tr: Tracer,
               diag_tr: Tracer) -> tuple[dict, list[str], PassStats]:
    """Per-layer metrics from the spans of the timed pass (``tr``) and of the
    workload's diagnostics run after it (``diag_tr``)."""
    stats = timed_pass(wl, seconds, tr)
    diag = wl.diagnostics(diag_tr, stats.results)
    fails = list(diag.pop("fails", []))
    main_s, overhead_s, cli_fails = cli_in_process(wl, stats.results, diag_tr)
    fails += cli_fails
    ops = max(1, len(stats.latencies))

    def mean_ms(spans, scale=1e3):
        return scale * statistics.fmean(s.seconds for s in spans) if spans else 0.0

    solves = tr.named("solver.pmax_alternating")
    busy = sum(s.seconds for s in solves)
    sweeps = [s.meta["sweeps"] for s in solves]
    flops = sum(8 * s.meta["n"] * 2 ** s.meta["n"] * s.meta["starts"] * s.meta["sweeps"] for s in solves)
    builds = [s for s in tr.spans if s.layer == "states"
              and s.name not in ("states.overlap", "states.environment_vector")]
    analytic = [s for s in tr.spans if s.layer == "analytic"]
    self_s = tr.self_seconds()
    metrics = {
        "solver.calls": len(solves),
        "solver.busy_s": busy,
        "solver.ms_per_sweep": 1e3 * busy / sum(sweeps) if sweeps else 0.0,
        "solver.nominal_gflop_s": flops / busy / 1e9 if busy else 0.0,
        "solver.sweeps_p50": float(statistics.median(sweeps)) if sweeps else 0.0,
        "solver.sweeps_max": max(sweeps, default=0),
        "solver.converged_ratio": statistics.fmean(s.meta["converged"] for s in solves) if solves else 0.0,
        "solver.start_sweeps_p50": diag.get("start_sweeps_p50", 0.0),
        "solver.start_sweeps_max": diag.get("start_sweeps_max", 0),
        "solver.useful_sweep_ratio": diag.get("useful_sweep_ratio", 0.0),
        "solver.gridsearch_ms": mean_ms(tr.named("solver.pmax_gridsearch")),
        "states.build_ms": mean_ms(builds),
        "states.overlap_us": mean_ms(tr.named("states.overlap"), 1e6),
        "states.env_us": mean_ms(tr.named("states.environment_vector"), 1e6),
        "grover.iterate_ms": mean_ms(tr.named("grover.iterate_states")),
        "grover.rows": wl.grover_rows,
        "grover.row_ms": mean_ms(tr.named("grover.row")),
        "refutation.report_ms": mean_ms(tr.named("refutation.refutation_report")),
        "refutation.search_ms": mean_ms(diag_tr.named("refutation.constraint5_search")),
        "refutation.identity_ms": mean_ms(diag_tr.named("refutation.substitution_identity_check")),
        "refutation.solutions": diag.get("refutation_solutions", 0),
        "refutation.grid_points": wl.grid_points,
        "analytic.calls": len(analytic),
        "analytic.busy_us": 1e6 * sum(s.seconds for s in analytic),
        "cli.main_ms": 1e3 * main_s,
        "cli.overhead_ms": 1e3 * overhead_s,
        "trace.overhead_ratio": stats.traced_s / stats.untraced_s,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_ms_per_op"] = 1e3 * self_s[layer] / ops
    return metrics, fails, stats
