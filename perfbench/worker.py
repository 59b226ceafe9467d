"""Run one workload in this interpreter and print its measurements as the
last line of stdout (a JSON object). ``run.py`` starts this script in a
fresh interpreter for every set-up sample and every measured run.

Every CLI call goes through ``cfcode.cli.main(argv)`` in process, with
stdout and stderr captured; the call is timed, then its output is checked by
the oracles outside the timed region. Calls repeat in pass order until the
next call would end past ``--seconds``; the first pass always completes (the
first two under ``--trace 1``, which alternates untraced and traced passes).
The workload's known-defect queries run once after the measured passes,
untimed, and are counted apart from the measured calls.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from math import comb

import oracles
import selftest
import workloads

TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.9)
# One reference loop's time on the host the benchmark was tuned on (a
# 2-vCPU Xeon VM, median over many runs); set-up times are scaled to it.
REF_NOMINAL_S = 0.018
# Input of the reference loop: 2000 pseudo-random 462-bit rows.
_REF_ROWS = [(i * 0x9E3779B97F4A7C15 * 0xBF58476D1CE4E5B9) % (1 << 462) for i in range(1, 2001)]


def reference_loop() -> float:
    """Seconds one fixed pure-Python loop takes now. It touches no cfcode
    code: bit-by-bit column packing of big ints, as in a column transpose,
    and small-int binomial arithmetic, as in rank queries. Its time tracks
    how fast the host runs Python at the moment it is taken."""
    start = time.perf_counter()
    for j in range(0, 462, 11):
        out = 0
        for i, r in enumerate(_REF_ROWS):
            out |= ((r >> j) & 1) << i
    acc = 0
    for i in range(60000):
        acc += comb(60, i % 9) % 97
    return time.perf_counter() - start


def reference_loops(beside: float) -> list[float]:
    """Reference loop times taken between two calls: one loop per quarter
    second of the longer neighbouring call (``beside`` seconds), 1 to 20
    loops, so that a long call gets a steadier estimate of host speed."""
    return [reference_loop() for _ in range(min(20, max(1, int(4 * beside))))]


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest listed percentile with at least ten
    samples above it, by nearest rank; the maximum when there are too few."""
    ordered = sorted(samples)
    n = len(ordered)
    best = None
    for p in TAIL_PERCENTILES:
        rank = -(-p * n // 100)  # nearest rank, 1-based
        if n - rank >= 10:
            best = (p, ordered[int(rank) - 1])
    return best if best is not None else (100, ordered[-1])


def call(cli, argv: list[str]) -> tuple[int, str, float]:
    """Run ``cli.main(argv)`` in process; return exit code, stdout and seconds
    taken. ``main`` is looked up on each call, so an installed tracer applies."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed call, not the end of the run
            code = -1
            traceback.print_exc()
        elapsed = time.perf_counter() - start
    if code == -1:
        print(err.getvalue(), file=sys.stderr)
    return code, out.getvalue(), elapsed


class Run:
    """Measures one workload and checks every output."""

    def __init__(self, cli, ops: list[workloads.Op], tracer=None) -> None:
        self.cli = cli
        self.ops = ops
        self.tracer = tracer
        self.untraced: list[list[float]] = [[] for _ in ops]
        self.traced: list[list[tuple[float, dict]]] = [[] for _ in ops]
        self.families: list[int] = [0] * len(ops)   # per verify call
        self.bytes: list[int] = [0] * len(ops)      # file written or read
        self.digests: list[set[str]] = [set() for _ in ops]
        self.ref: list[list[float]] = []            # reference loops, before each call
        self.timeline: list[tuple[int, int, float]] = []  # (op, traced, seconds)
        self.attempted = 0
        self.statuses: dict[str, dict[str, int]] = {}
        self.details: list[str] = []

    def measure(self, seconds: float) -> None:
        required = 2 if self.tracer else 1
        last = [0.0] * len(self.ops)
        start = time.perf_counter()
        passes = i = 0
        prev = 0.0
        while True:
            if passes >= required and time.perf_counter() - start + last[i] > seconds:
                break
            self.ref.append(reference_loops(max(prev, last[i])))
            traced = self.tracer is not None and passes % 2 == 1
            prev = last[i] = self._execute(i, traced)
            i += 1
            if i == len(self.ops):
                i, passes = 0, passes + 1
        self.ref.append(reference_loops(prev))

    def _execute(self, i: int, traced: bool) -> float:
        op = self.ops[i]
        if traced:
            self.tracer.install()
            first = len(self.tracer.name)
        try:
            code, out, elapsed = call(self.cli, op.argv)
        finally:
            if traced:
                self.tracer.uninstall()
        self.timeline.append((i, int(traced), elapsed))
        if traced:
            self.traced[i].append((elapsed, self.tracer.aggregate(first, len(self.tracer.name))))
        else:
            self.untraced[i].append(elapsed)
        self._record(op.label, *self._check(i, op, code, out))
        return elapsed

    def _check(self, i: int, op: workloads.Op, code: int, out: str) -> tuple[str, str]:
        n, k, s, ell = op.params
        if op.kind == "gen":
            self.bytes[i] = os.path.getsize(op.path) if os.path.exists(op.path) else 0
            if code == 0:
                self.digests[i].add(oracles.file_digest(op.path))
            return oracles.check_gen(op.path, code, out, comb(comb(n, s), ell), comb(n, k))
        if op.kind == "verify":
            e = op.expect
            self.bytes[i] = os.path.getsize(op.path) if os.path.exists(op.path) else 0
            self.families[i] = oracles.families_until(
                comb(n, k), e["s"], e["l"], e.get("neg"), e.get("pos"))
            return oracles.check_verify(e, code, out)
        if op.kind == "entry":
            return oracles.check_entry(n, k, s, ell, op.expect["row"], op.expect["col"], code, out)
        return oracles.check_witness(n, k, s, ell, op.expect["neg"], op.expect["pos"], code, out)

    def _record(self, label: str, status: str, detail: str) -> None:
        self.attempted += 1
        counts = self.statuses.setdefault(label, {})
        counts[status] = counts.get(status, 0) + 1
        if status != oracles.OK and len(self.details) < 20:
            self.details.append(f"{label}: {status}: {detail}")

    def check_files(self) -> None:
        """Compare every written file with the oracle's bytes for its set."""
        for i, op in enumerate(self.ops):
            if op.kind == "gen" and self.digests[i]:
                expected = oracles.matrix_file_digest(*op.params)
                for digest in self.digests[i] - {expected}:
                    self._record(op.label, oracles.WRONG, f"file content differs ({digest[:12]})")

    # -- metrics --------------------------------------------------------
    def failed(self) -> int:
        """Checked calls that were not ok."""
        return sum(n for c in self.statuses.values() for st, n in c.items() if st != oracles.OK)

    def pass_ref(self, traced: bool) -> float:
        """One pass in reference-loop units, over the untraced or the traced
        calls: each call's time over the mean reference time just before and
        just after it, averaged per call over the run, summed over the pass.

        Host speed swings by up to ~1.7x over seconds to minutes on a shared
        VM, and it moves the benchmark's own reference loop the same way, so
        it largely cancels in these units."""
        ref = [statistics.mean(x) for x in self.ref]
        ratios: list[list[float]] = [[] for _ in self.ops]
        for k, (i, was_traced, elapsed) in enumerate(self.timeline):
            if was_traced == traced:
                ratios[i].append(2 * elapsed / (ref[k] + ref[k + 1]))
        return sum(statistics.mean(x) for x in ratios if x)

    def ref_s(self) -> float:
        """Median time of one reference loop over the run."""
        return statistics.median(t for x in self.ref for t in x)

    def end_to_end(self) -> dict:
        ops, samples = self.ops, self.untraced
        out = {"wall_ref": self.pass_ref(traced=False),
               "wall_s": sum(statistics.median(x) for x in samples if x),
               "ref_ms": self.ref_s() * 1e3}
        verify_s = sum(sum(x) for op, x in zip(ops, samples) if op.kind == "verify")
        if verify_s:
            fam = sum(f * len(x) for f, x in zip(self.families, samples))
            out["families_per_s"] = fam / verify_s
        queries = [t for op, x in zip(ops, samples) if op.kind in ("entry", "witness") for t in x]
        if queries:
            out["queries_per_s"] = len(queries) / sum(queries)
        for kind in ("entry", "witness"):
            lat = [t * 1e3 for op, x in zip(ops, samples) if op.kind == kind for t in x]
            if lat:
                p, value = tail(lat)
                out[f"{kind}_p50_ms"] = statistics.median(lat)
                out[f"{kind}_tail_ms"] = value
                out[f"{kind}_tail_pct"] = p
                out[f"{kind}_samples"] = len(lat)
        out["fail_frac"] = self.failed() / self.attempted
        return out

    def per_layer(self) -> dict:
        """Layer figures for one pass: each call's mean over its traced runs,
        summed over the pass."""
        layer: dict[str, dict[str, float]] = {}
        scan_families = read_bytes = write_bytes = 0
        for i, runs in enumerate(self.traced):
            if not runs:
                continue
            for _, agg in runs:
                for name, fields in agg.items():
                    dst = layer.setdefault(name, {"calls": 0.0, "s": 0.0, "self_s": 0.0,
                                                  "raised": 0.0})
                    for key, value in fields.items():
                        dst[key] += value / len(runs)
            op = self.ops[i]
            if op.kind == "verify" and not op.expect["counting"]:
                scan_families += self.families[i]
            if op.kind == "verify":
                read_bytes += self.bytes[i]
            if op.kind == "gen":
                write_bytes += self.bytes[i]

        def get(name: str, key: str) -> float:
            return layer.get(name, {}).get(key, 0.0)

        def rate(amount: float, seconds: float) -> float:
            return amount / seconds if seconds else 0.0

        scan_s = get("verification.verify_cover_free", "self_s")
        traced_wall = sum(statistics.median(t for t, _ in runs) for runs in self.traced if runs)
        return {
            "verification.verify_cover_free.self_s": scan_s,
            "verification.scan_families_per_s": rate(scan_families, scan_s),
            "verification.families_required": scan_families,
            "verification.witness_counts.s": get("verification.witness_counts", "s"),
            "code_core.column_int.calls": get("code_core.column_int", "calls"),
            "code_core.column_int.s": get("code_core.column_int", "s"),
            "matrix_io.read_matrix.s": get("matrix_io.read_matrix", "s"),
            "matrix_io.read_matrix.mb_per_s": rate(read_bytes / 1e6, get("matrix_io.read_matrix", "s")),
            "matrix_io.write_matrix.s": get("matrix_io.write_matrix", "s"),
            "matrix_io.write_matrix.mb_per_s": rate(write_bytes / 1e6, get("matrix_io.write_matrix", "s")),
            "code_core.materialize.s": get("code_core.materialize", "s"),
            "combinatorics.binomial.calls": get("combinatorics.binomial", "calls"),
            "combinatorics.colex_unrank.calls": get("combinatorics.colex_unrank", "calls"),
            "combinatorics.colex_unrank.s": get("combinatorics.colex_unrank", "s"),
            "combinatorics.colex_rank.s": get("combinatorics.colex_rank", "s"),
            "code_core.validate.calls": get("code_core.validate", "calls"),
            "code_core.validate.s": get("code_core.validate", "s"),
            "code_core.column_from_rank.s": get("code_core.column_from_rank", "s"),
            "code_core.row_label_from_rank.s": get("code_core.row_label_from_rank", "s"),
            "code_core.entry.s": get("code_core.entry", "s"),
            "verification.witness_row.calls": get("verification.witness_row", "calls"),
            "verification.witness_row.s": get("verification.witness_row", "s"),
            "verification.witness_row.none": get("verification.witness_row", "raised"),
            "cli.main.calls": get("cli.main", "calls"),
            "cli.main.self_s": get("cli.main", "self_s"),
            "trace.wall_s": traced_wall,
            # In reference units, converted back at the run's median host
            # speed: the raw difference is swamped by host-speed swings.
            "trace.overhead_s": (self.pass_ref(traced=True)
                                 - self.pass_ref(traced=False)) * self.ref_s(),
        }


def check_known_defects(cli, ops: list[workloads.Op]) -> list[str]:
    """Run each known-defect witness query once, untimed; describe those
    that fail."""
    failures = []
    for op in ops:
        code, out, _ = call(cli, op.argv)
        n, k, s, ell = op.params
        status, detail = oracles.check_witness(n, k, s, ell, op.expect["neg"],
                                               op.expect["pos"], code, out)
        if status != oracles.OK:
            failures.append(f"{' '.join(op.argv)}: {status}: {detail}")
    return failures


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time the package import, print it and exit")
    ap.add_argument("--root", required=True, help="checkout holding src/cfcode")
    ap.add_argument("--spans", help="file to write the traced spans to")
    args = ap.parse_args()

    root = os.path.abspath(args.root)
    sys.path.insert(0, os.path.join(root, "src"))
    workdir = os.path.join(root, ".perfbench_out", f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        # Set-up is the package import a CLI user pays. The inputs are the
        # benchmark's own work (query-mix classifies its witness queries with
        # the oracles), so they are built outside the timed region.
        start = time.perf_counter()
        import cfcode.cli
        import_s = time.perf_counter() - start
        if args.setup_only:
            # Fresh interpreters land in fast and slow host phases (import
            # times of ~22 and ~33 ms on the 2-vCPU tuning host); the
            # reference loop, timed right after the import, moves with them,
            # so the scaled time is steady.
            ref_s = statistics.median(reference_loop() for _ in range(3))
            print(json.dumps({"setup_s": import_s * REF_NOMINAL_S / ref_s,
                              "import_s": import_s}))
            return 0
        ops, defect_ops = workloads.build(args.workload, args.seed, workdir)
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
        run = Run(cfcode.cli, ops, tracer)
        run.measure(args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    run.check_files()
    known_defects = check_known_defects(cfcode.cli, defect_ops)
    from cfcode.code_core import CodeParams, materialize
    problems = selftest.run(materialize, CodeParams)
    result = {
        "attempted": run.attempted,
        "failed": run.failed(),
        "known_defects": known_defects,
        "known_defect_queries": len(defect_ops),
        "selftest_problems": problems,
        "statuses": run.statuses,
        "details": run.details,
        "end_to_end": dict(run.end_to_end(), peak_rss_mb=peak_rss_mb),
        "ref_s": run.ref,
        "timeline": run.timeline,
        "calls": [{"label": op.label, "untraced_s": run.untraced[i],
                   "traced_s": [t for t, _ in run.traced[i]]} for i, op in enumerate(ops)],
    }
    if tracer is not None:
        result["per_layer"] = run.per_layer()
        result["trace_missing"] = tracer.missing
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
