"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Every workload pass runs in a fresh
interpreter (``worker.py``) with ``src`` on the path, so the program's
caches start cold; the load is one process with no threads.

--trace 0 measures the end-to-end metrics for S seconds. --trace 1 runs
the workload's fixed input set three times, once untraced and twice
traced, reports the per-layer metrics of the first traced pass, the
tracing overhead (traced / untraced wall time), and checks that the
machine-independent counters and the outputs repeat exactly.

Every pass checks its outputs. The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics; the lines
before it name each metric with its unit. Failures are listed with
their input on stderr, and a run with a wrong output exits with 1.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("obstruct-ladder", "trigonal-census", "chain-search", "cli-repro")

# Set-up interpreters per run: half before the timed pass, half after,
# so host drift during the run reaches both halves.
SETUP_RUNS = 16
CHILD_TIMEOUT = 170


class BenchError(RuntimeError):
    pass


def child(*args: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT, env=env,
                              capture_output=True, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} ran past {CHILD_TIMEOUT} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}:\n"
                         + proc.stderr.decode(errors="replace")[-2000:])
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def set_up(runs: int, warm: bool) -> list[dict]:
    """Fresh interpreters that import the package and load the registry
    and the degree-7 tables. With warm=True one more interpreter runs
    first, only to write bytecode caches and fill the page cache."""
    runs = [child("setup") for _ in range(runs + warm)][warm:]
    for r in runs:
        if r["fixtures"] < 1 or r["schemes"] < 1:
            raise BenchError(f"set-up loaded {r['fixtures']} fixtures, {r['schemes']} schemes")
    return runs


def workload_pass(workload: str, seed: int, seconds: float, fixed: bool, traced: bool) -> dict:
    return child("pass", workload, str(seed), str(seconds), str(int(fixed)), str(int(traced)))


def untraced(workload: str, seed: int, seconds: float) -> tuple[dict, list[dict], int]:
    setups = set_up(SETUP_RUNS // 2, warm=True)
    r = workload_pass(workload, seed, seconds, False, False)
    setups += set_up(SETUP_RUNS - SETUP_RUNS // 2, warm=False)
    failed = len(r["failures"])
    metrics = {name: (value, unit) for name, (value, unit) in r["metrics"].items()}
    metrics["setup_s"] = (statistics.median(s["setup_s"] for s in setups), "s")
    metrics["peak_rss_mb"] = (r["peak_rss_mb"], "MB")
    metrics["success_ratio"] = (1.0 - failed / max(r["attempted"], 1), "ratio")
    print(f"# {r['operations']} operations timed")
    return metrics, [r], r["attempted"]


def traced(workload: str, seed: int, seconds: float) -> tuple[dict, list[dict], int]:
    from tracing import REPEATABLE, layer_metrics

    for old in glob.glob(os.path.join(ROOT, ".perfbench-out", f"spans-{workload}-{seed}-*.json")):
        os.remove(old)
    setups = set_up(SETUP_RUNS // 2, warm=True)
    base = workload_pass(workload, seed, seconds, True, False)
    first = workload_pass(workload, seed, seconds, True, True)
    second = workload_pass(workload, seed, seconds, True, True)
    passes = [base, first, second]
    metrics = layer_metrics(first["trace"])
    metrics["cli.import_s"] = (statistics.median(s["import_s"] for s in setups), "s")
    metrics["trace.overhead_ratio"] = (
        (first["wall"] + second["wall"]) / (2 * base["wall"]), "ratio")
    print(f"# fixed input set: {base['wall']:.3f} s untraced, "
          f"{first['wall']:.3f} s and {second['wall']:.3f} s traced")
    if first.get("histogram"):
        print(f"# verdict pairs (algebraic/braid): {json.dumps(first['histogram'])}")
    if any(p["truncated"] for p in passes):
        # Passes cut at different points cannot be compared; that is a
        # time limit, not a wrong output.
        first["failures"].append({
            "kind": "limit", "input": f"seed {seed}",
            "detail": "a pass did not finish the fixed input set in time; "
                      "outputs and counters not compared"})
        return metrics, passes, sum(p["attempted"] for p in passes)
    problems = []
    if len({p["digest"] for p in passes}) != 1:
        problems.append("outputs differ between passes of one seed")
    again = layer_metrics(second["trace"])
    for name in REPEATABLE:
        if metrics[name][0] != again[name][0]:
            problems.append(f"{name} differs between traced passes: "
                            f"{metrics[name][0]} vs {again[name][0]}")
    for p in problems:
        first["failures"].append({"kind": "wrong", "input": f"seed {seed}", "detail": p})
    return metrics, passes, sum(p["attempted"] for p in passes)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ruledcurves", "__init__.py")):
        print("perfbench: src/ruledcurves not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    try:
        run = traced if args.trace else untraced
        metrics, passes, attempted = run(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    failures = [f for p in passes for f in p["failures"]]
    for f in failures:
        print(f"perfbench: {f['kind']} on {json.dumps(f['input'])}: {f['detail']}",
              file=sys.stderr)
    correct = not any(f["kind"] != "limit" for f in failures)
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
