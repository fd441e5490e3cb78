"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py <workload> <seed> <budget s> <mode> <dir>

The worker imports the package from ./src, builds the pass's op list and
prints "ready".  In mode "probe" it exits there: run.py times spawn to
"ready" for setup_s.  In mode "untraced" or "traced" it then runs every op,
checks every output outside the timed region, writes the command-line outputs
under <dir> and removes them again, and prints one JSON line with the pass's
figures.  A traced pass writes its span log to
.bench_out/spans-<workload>-s<seed>.jsonl.gz.  Every pass of a run runs the
same ops; a fresh interpreter per pass means no pass finds anything another
pass left in memory.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MODES = ("probe", "untraced", "traced")

sys.path.insert(0, HERE)

import checks  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402


class OpError:
    """An op that raised; the pass records it and goes on."""

    def __init__(self, exc: BaseException):
        self.text = "".join(traceback.format_exception_only(
            type(exc), exc)).strip()


def run_ops(ops: List[workloads.Op], outdir: str, tracer=None):
    """Run every op in order, each after the previous one returns.
    Untraced, the calibration loop runs before the first op and after each
    op.  Returns (loop wall seconds without the calibration loops, per-op
    seconds, per-op results, calibration seconds)."""
    from plaid import cli, params, verify

    os.makedirs(outdir, exist_ok=True)
    times: List[float] = []
    results: list = []
    gc.collect()
    clock = time.perf_counter
    calib = [] if tracer is not None else [measure.calibration()]
    loop_start = clock()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        start = clock()
        try:
            if op.kind == "sweep":
                res = verify.run_suite(op.suite,
                                       params=[params.make_param(*op.pq)])
            elif op.kind == "suite":
                res = verify.SUITES[op.suite](params.make_param(*op.pq))
            else:
                res = cli.main([*op.argv, "--out",
                                os.path.join(outdir, f"{i}.out")])
        except (Exception, SystemExit) as exc:
            res = OpError(exc)
        times.append(clock() - start)
        results.append(res)
        if tracer is None:
            calib.append(measure.calibration())
    return clock() - loop_start - sum(calib[1:]), times, results, calib


def cli_output(outdir: str, i: int) -> Optional[str]:
    try:
        with open(os.path.join(outdir, f"{i}.out")) as fh:
            return fh.read()
    except OSError:
        return None


def check_op(op, res, text: Optional[str], golden_dir: str) -> Optional[str]:
    if isinstance(res, OpError):
        return "raised " + res.text
    try:
        if op.kind == "sweep":
            return checks.check_sweep(op.suite, op.pq, res)
        if op.kind == "suite":
            return checks.check_record(op.suite, op.pq, res)
        return checks.check_cli(op.argv, res, text, golden_dir)
    except Exception as exc:  # a malformed output is a failed op
        return "check raised " + OpError(exc).text


def check_all(ops, results, outdir) -> Dict[int, str]:
    golden_dir = os.path.join(ROOT, "tests", "golden")
    failures = {}
    for i, (op, res) in enumerate(zip(ops, results)):
        text = cli_output(outdir, i) if op.kind == "cli" else None
        reason = check_op(op, res, text, golden_dir)
        if reason:
            failures[i] = reason
    return failures


def reference_ms(times, calib) -> List[float]:
    """Each op's time at reference speed, in ms, from the calibration loops
    timed just before and just after it."""
    return [measure.reference_time(t, calib[i], calib[i + 1]) * 1000
            for i, t in enumerate(times)]


def run_pass(ops, outdir: str, spans_path: Optional[str] = None
             ) -> Dict[str, object]:
    """Run, measure and check one pass; the figures as a JSON-ready dict.
    With spans_path the pass is traced and its span log written there."""
    traced = spans_path is not None
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        with tracer:
            wall, times, results, calib = run_ops(ops, outdir, tracer)
    else:
        wall, times, results, calib = run_ops(ops, outdir)
    rss_mb = measure.peak_rss_mb()
    failures = check_all(ops, results, outdir)
    out: Dict[str, object] = {
        "ops": len(ops),
        "wall_s": wall,
        "peak_rss_mb": rss_mb,
        "failures": [[i, ops[i].label, r] for i, r in sorted(
            failures.items())],
    }
    if traced:
        out["layer_metrics"] = tracer.layer_metrics()
        tracer.write_spans(spans_path)
        out["spans_file"] = os.path.relpath(spans_path, ROOT)
    else:
        out["ref_ms"] = reference_ms(times, calib)
        out["calibration_median_ms"] = statistics.median(calib) * 1000
    return out


def main(argv) -> int:
    workload, seed, budget, mode, outdir = argv
    if mode not in MODES:
        raise SystemExit(f"mode must be one of {MODES}, got {mode!r}")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import plaid.cli  # noqa: F401
    import plaid.verify  # noqa: F401

    ops = workloads.build(workload, int(seed), float(budget))
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if mode == "probe":
        return 0
    spans_path = None
    if mode == "traced":
        spans_path = os.path.join(ROOT, ".bench_out",
                                  f"spans-{workload}-s{seed}.jsonl.gz")
    try:
        out = run_pass(ops, outdir, spans_path)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    out["plaid_file"] = plaid.__file__
    sys.stdout.write(json.dumps(out, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
