"""cfcode benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload verify-ladder --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one report

Run it from the root of a checkout that holds ``src/cfcode``. Each set-up
sample and each measured run is a fresh interpreter running ``worker.py``, so
set-up time includes the package import and peak RSS belongs to the workload.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The lines before it
report every metric by name with its unit, the failures and the environment.
Results and traced spans are also written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 9
TIME_LIMIT_S = 170  # one workload must end within 180 s

# Units of every reported figure; the bounded ones are also listed in BENCHMARK.json.
UNITS = {
    "setup_s": "s", "setup_import_s": "s", "wall_ref": "ref", "wall_s": "s", "ref_ms": "ms",
    "peak_rss_mb": "MiB",
    "families_per_s": "1/s",
    "queries_per_s": "1/s", "entry_p50_ms": "ms", "entry_tail_ms": "ms",
    "witness_p50_ms": "ms", "witness_tail_ms": "ms", "fail_frac": "ratio",
}
END_TO_END = ("setup_s", "wall_ref", "peak_rss_mb")


def layer_unit(name: str) -> str:
    if name.endswith("mb_per_s"):
        return "MB/s"
    if name.endswith("families_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    return "count"


def environment(root: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "commit": git_commit(root)}


def git_commit(root: str) -> str:
    """HEAD of the checkout; "unknown" outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def worker(root: str, args: list[str], deadline: float) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", root, *args]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=root,
                          timeout=max(1.0, deadline - time.monotonic()))


def fail(message: str, proc: subprocess.CompletedProcess | None = None) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    if proc is not None:
        sys.stderr.write(proc.stderr[-4000:])
    return 1


def time_setups(root: str, common: list[str], count: int, deadline: float,
                times: list[dict]) -> subprocess.CompletedProcess | None:
    """Append the set-up times of ``count`` fresh interpreters to ``times``;
    return the first failed set-up process, if any."""
    for _ in range(count):
        proc = worker(root, [*common, "--setup-only"], deadline)
        if proc.returncode != 0 or not proc.stdout.strip():
            return proc
        times.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return None


def run_workload(root: str, workload: str, seed: int, seconds: float, trace: int,
                 deadline: float) -> tuple[dict | None, int]:
    """Set up SETUP_SAMPLES times, around one measured run (so the set-up
    samples span the run); return (result, exit code)."""
    common = ["--workload", workload, "--seed", str(seed)]
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    setups: list[dict] = []
    failed = time_setups(root, common, SETUP_SAMPLES - SETUP_SAMPLES // 2, deadline, setups)
    if failed is not None:
        return None, fail(f"{workload}: set-up failed", failed)
    extra = ["--spans", os.path.join(out_dir, f"spans-{workload}-seed{seed}.json")] if trace else []
    proc = worker(root, [*common, "--seconds", str(seconds), "--trace", str(trace), *extra],
                  deadline)
    if proc.returncode != 0 or not proc.stdout.strip():
        return None, fail(f"{workload}: measured run failed (exit {proc.returncode})", proc)
    failed = time_setups(root, common, SETUP_SAMPLES // 2, deadline, setups)
    if failed is not None:
        return None, fail(f"{workload}: set-up failed", failed)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["end_to_end"]["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    result["end_to_end"]["setup_import_s"] = statistics.median(s["import_s"] for s in setups)
    result["setup_samples"] = setups
    result.update(workload=workload, seed=seed, seconds=seconds, trace=trace,
                  env=environment(root))
    name = f"result-{workload}-seed{seed}-trace{trace}.json"
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return result, 0


def report(result: dict) -> None:
    """Print every figure of one workload run, with units, and its failures."""
    w = result["workload"]
    env = result["env"]
    print(f"[{w}] env python={env['python']} nproc={env['nproc']} cpu={env['cpu']!r} "
          f"commit={env['commit']} seed={result['seed']} seconds={result['seconds']}")
    e2e = result["end_to_end"]
    for name, value in e2e.items():
        if name in UNITS:
            extra = ""
            kind = name.split("_")[0]
            if name.endswith("_tail_ms"):
                extra = f"  (p{e2e[kind + '_tail_pct']:g} of {e2e[kind + '_samples']} samples)"
            print(f"[{w}] {name} = {value:.6g} {UNITS[name]}{extra}")
    for name, value in result.get("per_layer", {}).items():
        print(f"[{w}] {name} = {value:.6g} {layer_unit(name)}")
    if result.get("trace_missing"):
        print(f"[{w}] not traced (absent): {', '.join(result['trace_missing'])}")
    print(f"[{w}] calls attempted={result['attempted']} failed={result['failed']}")
    for label, counts in result["statuses"].items():
        if set(counts) != {"ok"}:
            print(f"[{w}]   {label}: {counts}")
    for line in result["details"]:
        print(f"[{w}]   {line}")
    if result["known_defect_queries"]:
        defects = result["known_defects"]
        print(f"[{w}] known-defect queries (untimed, not in attempted) = "
              f"{result['known_defect_queries']}, known_defects = {len(defects)} count")
        for line in defects:
            print(f"[{w}]   {line}")
    for problem in result["selftest_problems"]:
        print(f"[{w}] oracle self-test: {problem}")


def summary(result: dict) -> dict:
    metrics = (result["per_layer"] if result["trace"]
               else {m: result["end_to_end"][m] for m in END_TO_END})
    unit = layer_unit if result["trace"] else UNITS.get
    return {"correct": result["failed"] == 0 and not result["selftest_problems"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: {"value": value, "unit": unit(name)}
                        for name, value in metrics.items()}}


def main() -> int:
    ap = argparse.ArgumentParser(description="cfcode benchmark")
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cfcode", "cli.py")):
        return fail(f"no cfcode sources under {os.path.join(root, 'src')}; "
                    "run from the root of a cfcode checkout")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        deadline = time.monotonic() + TIME_LIMIT_S
        try:
            result, code = run_workload(root, name, args.seed, args.seconds, args.trace, deadline)
        except subprocess.TimeoutExpired:
            return fail(f"{name}: did not finish within {TIME_LIMIT_S} s")
        if result is None:
            return code
        report(result)
        results.append(result)
    if len(results) == 1:
        print(json.dumps(summary(results[0])))
    else:
        parts = {r["workload"]: summary(r) for r in results}
        print(json.dumps({
            "correct": all(p["correct"] for p in parts.values()),
            "attempted": sum(p["attempted"] for p in parts.values()),
            "failed": sum(p["failed"] for p in parts.values()),
            "metrics": {f"{w}.{m}": v for w, p in parts.items() for m, v in p["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
