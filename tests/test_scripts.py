"""The experiment scripts run end to end and write what they promise."""

import ast
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from groverian import refutation_report

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd, returncode=0):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == returncode, proc.stderr
    return proc


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def test_family_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    stdout = run_script("family_sweep.py", "--seeds", 4, "--out", out, cwd=tmp_path).stdout
    rows = read_csv(out)
    # gGHZ at 19 weights for n = 3 and 5, W for n = 2..8, Dicke for n = 2..6.
    assert len(rows) == 2 * 19 + 7 + sum(n + 1 for n in range(2, 7))
    assert {r["family"] for r in rows} == {"gghz", "w", "dicke"}
    assert max(float(r["abs_diff"]) for r in rows) < 1e-8
    assert f"wrote {out}" in stdout


def test_trace_search_entanglement(tmp_path):
    out_dir = tmp_path / "traces"
    run_script("trace_search_entanglement.py", "--seeds", 4, "--out-dir", out_dir, cwd=tmp_path)
    # Twice the optimal iteration count (2 at n = 3, 4 at n = 5), plus row 0.
    for n, n_rows in ((3, 5), (5, 9)):
        rows = read_csv(out_dir / f"grover_trace_n{n}.csv")
        assert list(rows[0]) == ["iteration", "success_probability", "pmax", "groverian"]
        assert [int(r["iteration"]) for r in rows] == list(range(n_rows))
        assert float(rows[0]["pmax"]) == 1.0  # the uniform start is a product state


def test_run_refutation(tmp_path):
    out = tmp_path / "report.json"
    run_script(
        "run_refutation.py", "--resolution", 41, "--identity-samples", 1000, "--out", out,
        cwd=tmp_path,
    )
    report = json.loads(out.read_text())
    assert len(report["solutions"]) == 4
    assert report["flawed_max"] == 1.0
    assert report["true_max"] == 0.5
    assert report["identity_deviation"] < 1e-12


def test_run_refutation_forwards_the_seed(tmp_path):
    out = tmp_path / "report.json"
    run_script(
        "run_refutation.py", "--resolution", 41, "--identity-samples", 1000, "--rng-seed", 7,
        "--out", out, cwd=tmp_path,
    )
    assert json.loads(out.read_text()) == refutation_report(
        grid_resolution=41, identity_samples=1000, rng_seed=7
    )


def test_run_refutation_rejects_zero_samples(tmp_path):
    out = tmp_path / "report.json"
    proc = run_script(
        "run_refutation.py", "--identity-samples", 0, "--out", out, cwd=tmp_path, returncode=2
    )
    assert proc.stderr == "error: samples: must be >= 1, got 0\n"
    assert not out.exists()


START_BUDGET_ERROR = (
    "error: n_starts: 2097153 starts x 2**3 amplitudes exceeds the 16777216-element budget\n"
)


@pytest.mark.parametrize(
    "script, args, stderr",
    [
        ("family_sweep.py", ["--seeds", 0], "error: n_starts: must be >= 1, got 0\n"),
        (
            "family_sweep.py", ["--rng-seed", -1],
            "error: rng_seed: must be an unsigned 64-bit integer, got -1\n",
        ),
        ("trace_search_entanglement.py", ["--seeds", 0], "error: n_starts: must be >= 1, got 0\n"),
        (
            "trace_search_entanglement.py", ["--rng-seed", -1],
            "error: rng_seed: must be an unsigned 64-bit integer, got -1\n",
        ),
        (
            "run_refutation.py", ["--rng-seed", 2**64],
            "error: rng_seed: must be an unsigned 64-bit integer, got 18446744073709551616\n",
        ),
        (
            "run_refutation.py", ["--resolution", 2**24 + 1],
            "error: grid_resolution: grid of 16777217 t3 values exceeds the 16777216-element budget\n",
        ),
        # Refused by the first solve, not by SolverConfig.
        ("family_sweep.py", ["--seeds", 2097153], START_BUDGET_ERROR),
        ("trace_search_entanglement.py", ["--seeds", 2097153], START_BUDGET_ERROR),
        (
            "trace_search_entanglement.py", ["--iterations-factor", 2],
            "trace_search_entanglement.py: error: unrecognized arguments: --iterations-factor 2\n",
        ),
    ],
    ids=[
        "sweep-seeds", "sweep-rng-seed", "trace-seeds", "trace-rng-seed", "refutation-rng-seed",
        "refutation-grid-budget",
        "sweep-start-budget", "trace-start-budget", "trace-iterations-factor",
    ],
)
def test_bad_option_exits_2_before_writing(tmp_path, script, args, stderr):
    out = "--out-dir" if script == "trace_search_entanglement.py" else "--out"
    proc = run_script(script, *args, out, tmp_path / "out", cwd=tmp_path, returncode=2)
    assert proc.stderr.endswith(stderr)
    # argparse prints its usage before its error line; the scripts' own errors are one line.
    usage = proc.stderr[: -len(stderr)]
    assert usage.startswith("usage: ") if stderr.startswith(script) else usage == ""
    assert list(tmp_path.iterdir()) == []


SCRIPT_OPTIONS = {
    "family_sweep.py": {"--seeds", "--rng-seed", "--out"},
    "trace_search_entanglement.py": {"--seeds", "--rng-seed", "--out-dir"},
    "run_refutation.py": {"--resolution", "--eps", "--identity-samples", "--rng-seed", "--out"},
}


def test_script_options_are_pinned():
    options = {}
    for path in sorted((ROOT / "scripts").glob("*.py")):
        calls = [
            node for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument"
        ]
        options[path.name] = {
            arg.value for call in calls for arg in call.args
            if isinstance(arg, ast.Constant) and str(arg.value).startswith("--")
        }
    assert options == SCRIPT_OPTIONS


@pytest.mark.parametrize(
    "script, args, out",
    [
        ("family_sweep.py", ["--seeds", 4], ["--out", "missing/x"]),
        ("trace_search_entanglement.py", ["--seeds", 4], ["--out-dir", "file/sub"]),
        ("run_refutation.py", ["--resolution", 41, "--identity-samples", 1000], ["--out", "missing/x"]),
    ],
    ids=["sweep", "trace", "refutation"],
)
def test_unwritable_output_exits_4(tmp_path, script, args, out):
    (tmp_path / "file").touch()
    flag, target = out
    proc = run_script(script, *args, flag, tmp_path / target, cwd=tmp_path, returncode=4)
    assert proc.stderr.startswith("error: [Errno")
    assert proc.stderr.count("\n") == 1  # one line, no traceback
