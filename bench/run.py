#!/usr/bin/env python3
"""Reference-calibrated benchmark of the untrusted-noma package.

Usage, from the repository root:

    python3 bench/run.py --workload {beta-sweep-n4,small-cells,orders-n4} \
        --seed N --seconds S --trace {0,1}

One workload runs per process as a single-threaded closed loop: the next
operation starts only after the previous one returns, until S seconds have
passed, in whole operations. Every operation's outputs are checked (see
checks.py). Each operation's wall time is scaled by NOMINAL_REF_S over the
mean time of the reference computation run just before and just after it
(see refwork.py), so figures read as seconds on the sandbox the benchmark was
sized on while the sandbox's own speed drift cancels out.

--trace 0 reports the end-to-end metrics: ops_per_s, setup_s (median over
fresh interpreters) and peak_rss_mb. --trace 1 alternates untraced and traced
operations and reports the per-layer metrics (see tracing.py) plus the
calibration and tracing-overhead audit. The last line of stdout is the
result as one JSON object; the line before it gives the raw wall figures.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from time import perf_counter

from refwork import Sampler

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
SETUP_REPEATS = 9
MIB = float(1 << 20)


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def time_setups(seed: int, tmpdir: str, setup_argv) -> dict:
    """Spawn fresh interpreters that import the package and run the set-up,
    and time each from spawn to ready on the system-wide monotonic clock,
    less the child's sampling handler time. Each set-up is calibrated by the reference slices the child timed
    during it and just after it."""
    probe = os.path.join(BENCH, "setup_probe.py")
    wall, cal, refs = [], [], []
    for _ in range(SETUP_REPEATS):
        argv = setup_argv(seed, os.path.join(tmpdir, "setup-probe.csv"))
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen([sys.executable, probe, SRC, *argv], stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        child = json.loads(out) if proc.returncode == 0 else {}
        if child.get("code") != 0:
            raise RuntimeError(f"set-up probe failed: exit {proc.returncode}, output {out!r}")
        sampler = Sampler()
        sampler.samples = child["samples"]
        wall.append(child["ready"] - t0 - child["paused"])
        cal.append(wall[-1] * sampler.factor())
        refs.append(statistics.fmean(sampler.samples))
    return {"setup_s": statistics.median(cal), "setup_wall_s": statistics.median(wall),
            "setup_ref_s": statistics.median(refs)}


class Run:
    """Runs the set-up and the timed loop of one workload in this process."""

    def __init__(self, workload, tracer) -> None:
        self.workload = workload
        self.tracer = tracer
        self.refs: list[float] = []  # mean reference slice time per operation
        self.ops: list[dict] = []  # completed operations
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _timed(self, fn, traced: bool, op_index: int):
        """Run fn with reference slices timed beside and during it; returns
        (output, record)."""
        sampler = Sampler()
        tracer = self.tracer if traced else None
        sampler.bracket()
        if tracer:
            times0, counts0 = tracer.snapshot()
            tracer.op = op_index
            tracer.install()
        try:
            with sampler.during():
                t0 = sampler.clock()
                try:
                    out = fn()
                finally:
                    t1 = sampler.clock()
        finally:
            if tracer:
                tracer.uninstall()
            sampler.bracket()
        factor = sampler.factor()
        self.refs.append(statistics.fmean(sampler.samples))
        rec = {"wall": t1 - t0, "cal": (t1 - t0) * factor, "traced": traced,
               "ref": self.refs[-1], "samples": len(sampler.samples)}
        if tracer:
            # spans run on the plain clock; the sampling handler's time is
            # spread over the layers in proportion to their time
            net = factor * (t1 - t0) / (t1 - t0 + sampler.paused)
            times1, counts1 = tracer.snapshot()
            rec["times"] = {k: (v - times0.get(k, 0.0)) * net for k, v in times1.items()}
            rec["counts"] = {k: v - counts0.get(k, 0) for k, v in counts1.items()}
        return out, rec

    def setup(self, fn) -> None:
        _, self.setup_rec = self._timed(fn, self.tracer is not None, -1)

    def loop(self, seconds: float) -> None:
        rounds = (False, True) if self.tracer else (False,)
        start = perf_counter()
        index = 0
        while True:
            for traced in rounds:
                self.attempted += 1
                try:
                    out, rec = self._timed(lambda: self.workload.op(index), traced, index)
                except Exception:  # an operation failure is counted, the run goes on
                    self.failed += 1
                    traceback.print_exc(file=sys.stderr)
                else:
                    self.ops.append(rec)
                    self.errors += self.workload.check(index, out)
                    del out
                index += 1
            if perf_counter() - start >= seconds:
                return


def end_to_end(run: Run, setup: dict) -> tuple[dict, dict]:
    cal = sum(op["cal"] for op in run.ops)
    wall = sum(op["wall"] for op in run.ops)
    metrics = {
        "ops_per_s": {"value": len(run.ops) / cal, "unit": "1/s"},
        "setup_s": {"value": setup["setup_s"], "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    }
    audit = {"wall_ops_per_s": len(run.ops) / wall, "ref_s": statistics.median(run.refs),
             "op_wall_s": [op["wall"] for op in run.ops], "op_cal_s": [op["cal"] for op in run.ops],
             "op_ref_s": [op["ref"] for op in run.ops], "op_samples": [op["samples"] for op in run.ops],
             "setup_wall_s": setup["setup_wall_s"], "setup_ref_s": setup["setup_ref_s"]}
    return metrics, audit


def per_layer(run: Run) -> tuple[dict, dict]:
    """Per traced operation. Times include the traced set-up spread over the
    operations, so a layer the operations never enter still shows its set-up
    share; counts are per operation and exclude the set-up."""
    traced = [op for op in run.ops if op["traced"]]
    plain = [op for op in run.ops if not op["traced"]]
    k = len(traced)

    def total_time(key: str) -> float:
        return run.setup_rec["times"].get(key, 0.0) + sum(op["times"].get(key, 0.0) for op in traced)

    def total_count(key: str, with_setup: bool = False) -> int:
        base = run.setup_rec["counts"].get(key, 0) if with_setup else 0
        return base + sum(op["counts"].get(key, 0) for op in traced)

    export_s = total_time("export")
    values = {
        "orders.self_s": (total_time("self:orders") / k, "s"),
        "orders.orders_walked": (total_count("orders_walked") / k, "count"),
        "orders.secure_set_build_s": (run.setup_rec["times"].get("secure_orders", 0.0), "s"),
        "system.self_s": (total_time("self:system") / k, "s"),
        "optimizer.self_s": (total_time("self:optimizer") / k, "s"),
        "optimizer.sweep_calls": (total_count("sweep_calls") / k, "count"),
        "optimizer.orders_scored_per_s": (
            total_count("orders_scored", True) / total_time("self:optimizer"), "1/s"),
        "experiments.self_s": (total_time("self:experiments") / k, "s"),
        "experiments.export_s": (export_s / k, "s"),
        "experiments.export_mb_per_s": (total_count("export_bytes", True) / MIB / export_s, "MB/s"),
        "cli.self_s": (total_time("self:cli") / k, "s"),
        "bench.ref_s": (statistics.median(run.refs), "s"),
        "bench.wall_ops_per_s": (len(plain) / sum(op["wall"] for op in plain), "1/s"),
        "bench.trace_overhead_pct": (
            100.0 * (sum(op["cal"] for op in traced) / k / (sum(op["cal"] for op in plain) / len(plain)) - 1.0),
            "%"),
    }
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
    audit = {"traced_ops": k, "untraced_ops": len(plain), "absent": run.tracer.absent,
             "orders_scored": "computed from sweep_all inputs as (|S(N)| + 2) x grid points"}
    return metrics, audit


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "untrusted_noma", "__init__.py")):
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import untrusted_noma

    if os.path.dirname(os.path.abspath(untrusted_noma.__file__)) != os.path.join(SRC, "untrusted_noma"):
        print(f"error: untrusted_noma imported from {untrusted_noma.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from tracing import Tracer
    from workloads import WORKLOADS, run_cli, setup_argv

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; valid: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tmpdir = os.path.join(OUT, f"tmp-{tag}-{os.getpid()}")
    os.makedirs(tmpdir)
    try:
        tracer = Tracer() if args.trace else None
        run = Run(WORKLOADS[args.workload](args.seed, tmpdir), tracer)
        run.setup(lambda: run_cli(setup_argv(args.seed, os.path.join(tmpdir, "setup.csv"))))
        run.loop(args.seconds)
        if {op["traced"] for op in run.ops} != {False, bool(tracer)}:
            print("error: no operation completed", file=sys.stderr)
            return 1
        if tracer:
            metrics, audit = per_layer(run)
            tracer.write(os.path.join(OUT, f"trace-{tag}.jsonl"), {"workload": args.workload, "seed": args.seed})
        else:
            metrics, audit = end_to_end(run, time_setups(args.seed, tmpdir, setup_argv))
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    for err in run.errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    result = {"correct": not run.errors, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as stream:
        json.dump({"result": result, "audit": audit}, stream, indent=1)
    print(f"{args.workload}: attempted={run.attempted} failed={run.failed} "
          f"raw={json.dumps(audit)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
