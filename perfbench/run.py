"""Benchmark of the plaid engine: one workload, one fresh interpreter per pass.

    python3 perfbench/run.py --workload grid-sweep --seed 1 --seconds 24 \
        --trace 0

Run from the root of a checkout.  The package is imported from ./src.  The
last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}, with the end-to-end metrics
when --trace 0 and the per-layer metrics when --trace 1.  The line before it
is a report with provenance, sample counts and any failures; the same report
is written under .bench_out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 15
PASSES = 3
PROBE_TIMEOUT_S = 60
PASS_TIMEOUT_S = 150

sys.path.insert(0, HERE)

import measure  # noqa: E402
import workloads  # noqa: E402


def spawn(args: List[str], timeout: float):
    """Start a worker; return (seconds from spawn until its "ready" line,
    the rest of its standard output).  The worker is always reaped."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, *args],
                            stdout=subprocess.PIPE, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if line != b"ready\n" or proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args[:4])} failed with exit "
                           f"code {proc.returncode}")
    return ready, rest


def measure_setup(workload: str, seed: int, budget: float) -> float:
    """Median over fresh interpreters of the time from spawn until the
    package is imported and the op list built, in reference seconds."""
    samples = []
    for _ in range(SETUP_PROBES):
        before = measure.calibration()
        ready, _ = spawn([workload, str(seed), str(budget), "probe", "-"],
                         PROBE_TIMEOUT_S)
        samples.append(measure.reference_time(ready, before,
                                              measure.calibration()))
    return statistics.median(samples)


def run_pass(workload: str, seed: int, budget: float, mode: str,
             outdir: str) -> Dict[str, object]:
    """One pass in a fresh worker; its figures, as worker.run_pass gives
    them."""
    _, rest = spawn([workload, str(seed), str(budget), mode, outdir],
                    PASS_TIMEOUT_S)
    result = json.loads(rest)
    plaid_file = os.path.abspath(result["plaid_file"])
    if not plaid_file.startswith(SRC + os.sep):
        raise RuntimeError(f"worker imported plaid from {plaid_file}, "
                           f"not {SRC}")
    return result


def end_to_end(setup_s: float, passes) -> Dict[str, tuple]:
    """Each op's time is the median over the passes of its reference time.
    Other tenants of the shared host slow an op by as much as 1.8x for
    seconds to minutes, and the calibration loops next to it show by how
    much.  The passes ran in separate interpreters, so no pass found work
    another had done."""
    per_op = [statistics.median(ts) for ts in zip(*(
        p["ref_ms"] for p in passes))]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(per_op) / 1000, "s"),
        "op_p50_ms": (measure.percentile(per_op, 50), "ms"),
        "op_p90_ms": (measure.percentile(per_op, 90), "ms"),
        "peak_rss_mb": (statistics.median(
            p["peak_rss_mb"] for p in passes), "MB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "plaid", "__init__.py")):
        print(f"error: no package sources at {SRC}/plaid; run from the root "
              f"of a plaid checkout", file=sys.stderr)
        return 2
    load_at_start = os.getloadavg()
    budget = args.seconds / PASSES
    tag = f"{args.workload}-s{args.seed}"
    run_dir = os.path.join(OUT, f"{tag}-{os.getpid()}")
    os.makedirs(OUT, exist_ok=True)
    report: Dict[str, object] = {"workload": args.workload,
                                 "seconds": args.seconds, "trace": args.trace}
    try:
        if args.trace:
            untraced = run_pass(args.workload, args.seed, budget, "untraced",
                                os.path.join(run_dir, "untraced"))
            traced = run_pass(args.workload, args.seed, budget, "traced",
                              os.path.join(run_dir, "traced"))
            passes = [untraced, traced]
            metrics = {k: tuple(v) for k, v in
                       traced["layer_metrics"].items()}
            metrics["trace.untraced_wall_s"] = (untraced["wall_s"], "s")
            metrics["trace.traced_wall_s"] = (traced["wall_s"], "s")
            metrics["trace.overhead_s"] = (
                traced["wall_s"] - untraced["wall_s"], "s")
            report["spans_file"] = traced["spans_file"]
        else:
            setup_s = measure_setup(args.workload, args.seed, budget)
            passes = [run_pass(args.workload, args.seed, budget, "untraced",
                               os.path.join(run_dir, f"pass{k}"))
                      for k in range(PASSES)]
            metrics = end_to_end(setup_s, passes)
            n = passes[0]["ops"]
            report.update(
                pass_walls_s=[p["wall_s"] for p in passes],
                calibration_median_ms=[p["calibration_median_ms"]
                                       for p in passes],
                op_samples=n,
                tail_percentile_supported=measure.tail_percentile(n))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(p["ops"] for p in passes)
    log = [(k, *f) for k, p in enumerate(passes) for f in p["failures"]]
    failed = len(log)
    report.update(passes=len(passes), ops_total=attempted, ops_failed=failed)
    report["failures"] = [{"pass": k, "op": i, "request": label,
                           "reason": r} for k, i, label, r in log[:20]]
    report["provenance"] = measure.provenance(ROOT, args.seed, load_at_start)
    report["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()}
    with open(os.path.join(OUT, f"report-{tag}-t{args.trace}.json"),
              "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:>16.6f} {unit}")
    print(f"{'ops_total':44s} {attempted:>16d} count")
    print(f"{'ops_failed':44s} {failed:>16d} count")
    print(json.dumps(report, separators=(",", ":")))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
