"""Tests for the benchmark's own helpers.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import gc
import json
import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402

import plaid  # noqa: E402
import plaid.cli  # noqa: E402
import plaid.grid  # noqa: E402
import plaid.verify  # noqa: E402

GOLDEN = os.path.join(os.path.dirname(HERE), "tests", "golden")


# -- percentiles --------------------------------------------------------------

def test_tail_percentile_needs_ten_samples_beyond():
    assert measure.tail_percentile(246) == 90
    assert measure.tail_percentile(100) == 90
    assert measure.tail_percentile(99) == 50
    assert measure.tail_percentile(1000) == 99
    assert measure.tail_percentile(10000) == 99.9
    assert measure.tail_percentile(20) == 50
    assert measure.tail_percentile(19) is None


def test_reference_time_scales_by_calibration():
    ref = measure.CALIBRATION_REF_S
    assert measure.reference_time(2.0, ref, ref) == pytest.approx(2.0)
    assert measure.reference_time(2.0, 2 * ref, 2 * ref) == pytest.approx(1.0)
    assert measure.reference_time(3.0, ref, 2 * ref) == pytest.approx(2.0)
    assert measure.calibration() > 0


def test_calibration_never_collects():
    collections = []

    def note(phase, info):
        collections.append(info["generation"])

    gc.callbacks.append(note)
    try:
        for _ in range(20):
            measure.calibration()
    finally:
        gc.callbacks.remove(note)
    assert gc.isenabled()
    assert collections == []


def test_end_to_end_takes_each_ops_median_over_passes():
    passes = [{"ref_ms": [1.0] * 9 + [100.0], "peak_rss_mb": 30.0},
              {"ref_ms": [2.0] * 9 + [300.0], "peak_rss_mb": 31.0},
              {"ref_ms": [3.0] * 9 + [200.0], "peak_rss_mb": 29.0}]
    got = run.end_to_end(0.1, passes)
    assert got["wall_s"] == (pytest.approx(0.218), "s")
    assert got["op_p50_ms"] == (2.0, "ms")
    assert got["op_p90_ms"] == (2.0, "ms")
    assert run.end_to_end(0.1, passes[:1])["op_p90_ms"] == (1.0, "ms")
    assert got["peak_rss_mb"] == (30.0, "MB")
    assert got["setup_s"] == (0.1, "s")


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert measure.percentile(values, 50) == 50
    assert measure.percentile(values, 90) == 90
    assert measure.percentile([3.0], 90) == 3.0
    assert measure.percentile([5, 1, 4, 2, 3], 50) == 3


# -- self time ----------------------------------------------------------------

def test_self_time_subtracts_direct_children():
    spans = [
        ("a", 0.0, 10.0, -1, 0),
        ("b", 1.0, 4.0, 0, 0),
        ("c", 5.0, 9.0, 0, 0),
        ("d", 6.0, 7.0, 2, 0),
        ("b", 20.0, 21.5, -1, 1),
    ]
    got = tracer_mod.self_times(spans)
    assert got == pytest.approx({"a": 3.0, "b": 4.5, "c": 3.0, "d": 1.0})


def test_span_self_time_from_real_wrappers():
    tr = tracer_mod.Tracer()
    prm = plaid.make_param(2, 5)
    with tr:
        plaid.grid.trace_polygons(prm, (1, 0))
    spans = tr.spans
    names = [s[0] for s in spans]
    assert names == ["grid.trace_polygons", "grid.BlockGrid"]
    assert spans[1][3] == 0  # BlockGrid's parent is the trace span
    selfs = tracer_mod.self_times(spans)
    trace_dur = spans[0][2] - spans[0][1]
    grid_dur = spans[1][2] - spans[1][1]
    assert selfs["grid.trace_polygons"] == pytest.approx(trace_dur - grid_dur)


# -- patching ----------------------------------------------------------------

def _wrapped_attrs():
    found = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith("plaid"):
            continue
        for attr, value in vars(mod).items():
            if getattr(value, "_perfbench", False):
                found.append(f"{name}.{attr}")
    return found


def test_wrappers_and_fraction_patch_are_removed():
    new_before = Fraction.__dict__["__new__"]
    init_before = plaid.grid.BlockGrid.__dict__["__init__"]
    suites_before = dict(plaid.verify.SUITES)
    tr = tracer_mod.Tracer()
    with pytest.raises(RuntimeError):
        with tr:
            assert getattr(plaid.verify.trace_polygons, "_perfbench", False)
            assert getattr(plaid.grid.trace_polygons, "_perfbench", False)
            assert getattr(plaid.verify.SUITES["mesh"], "_perfbench", False)
            assert Fraction.__dict__["__new__"] is not new_before
            Fraction(1, 3)
            plaid.verify.SUITES["first"](plaid.make_param(2, 5))
            raise RuntimeError("leave the block by an exception")
    assert _wrapped_attrs() == []
    assert Fraction.__dict__["__new__"] is new_before
    assert plaid.grid.BlockGrid.__dict__["__init__"] is init_before
    assert plaid.verify.SUITES == suites_before
    assert tr.fractions["other"] >= 1
    assert tr.calls["verify.suite_first"] == 1
    assert tr.calls["analysis.verify_first"] == 1


def test_failed_install_puts_everything_back(monkeypatch):
    monkeypatch.setattr(tracer_mod, "COUNT_FUNCS", tracer_mod.COUNT_FUNCS + (
        ("pet", "no_such_function"),))
    with pytest.raises(AttributeError):
        with tracer_mod.Tracer():
            pass
    assert _wrapped_attrs() == []
    assert not getattr(plaid.verify.SUITES["mesh"], "_perfbench", False)


def test_fractions_credited_to_innermost_span():
    tr = tracer_mod.Tracer()
    prm = plaid.make_param(2, 5)
    with tr:
        plaid.verify.SUITES["particle-geometry"](prm)
    assert tr.fractions["grid"] > 0 and tr.fractions["classifier"] > 0
    assert tr.fractions["verify"] == 0
    assert tr.fractions["params"] == 0
    with tr:
        plaid.make_param(3, 8)
    assert tr.fractions["params"] == 3  # bigP, bigQ and tau
    assert tr.calls["params.make_param"] == 1


# -- output checks catch corrupted outputs ------------------------------------

def test_sweep_check_catches_corruption():
    prm = plaid.make_param(2, 5)
    recs = plaid.verify.run_suite("two-points", params=[prm])
    assert checks.check_sweep("two-points", (2, 5), recs) is None
    bad = [dict(recs[0], ok=False)]
    assert checks.check_sweep("two-points", (2, 5), bad)
    bad = [dict(recs[0], segments=recs[0]["segments"] - 1)]
    assert checks.check_sweep("two-points", (2, 5), bad)
    assert checks.check_sweep("two-points", (1, 4), recs)
    assert checks.check_sweep("two-points", (2, 5), recs + recs)


@pytest.mark.parametrize("suite,key", [
    ("isomorphism", "squares"), ("bijection", "cover_classes"),
    ("symmetry", "center_classes"), ("mesh", "failure_count"),
    ("pet-equivalence", "orbit_steps"), ("first", "bound"),
    ("empty-rect", "blocks"), ("particle-geometry", "particles"),
    ("hier", "lines_checked")])
def test_record_check_catches_wrong_work_count(suite, key):
    rec = plaid.verify.SUITES[suite](plaid.make_param(3, 8))
    assert checks.check_record(suite, (3, 8), rec) is None
    bad = dict(rec)
    bad[key] = "1" if isinstance(rec[key], str) else rec[key] + 1
    assert checks.check_record(suite, (3, 8), bad)


def _cli(tmp_path, argv):
    out = str(tmp_path / "out.txt")
    assert plaid.cli.main([*argv, "--out", out]) == 0
    with open(out) as fh:
        return fh.read()


def test_orbit_check_catches_corruption(tmp_path):
    argv = ["orbit", "--p", "3", "--q", "8", "--c", "27/2,1/2", "--oriented"]
    text = _cli(tmp_path, argv)
    doc = json.loads(text)
    assert doc["polygon"], "pick a center on a polygon"
    assert checks.check_cli(argv, 0, text, GOLDEN) is None
    doc["polygon"][1] = doc["polygon"][0]
    assert checks.check_cli(argv, 0, json.dumps(doc), GOLDEN)
    doc["polygon"] = []
    assert checks.check_cli(argv, 0, json.dumps(doc), GOLDEN)
    assert checks.check_cli(argv, 2, text, GOLDEN)


def test_stats_document_check_catches_corruption(tmp_path):
    argv = ["stats", "--p", "3", "--q", "8", "--document", "--blocks", "4"]
    text = _cli(tmp_path, argv)
    assert checks.check_cli(argv, 0, text, GOLDEN) is None
    assert checks.check_cli(argv, 0, text.replace(",", ", ", 1), GOLDEN)
    doc = json.loads(text)
    doc["polygons"].pop()
    from plaid.serialize import emit
    assert checks.check_cli(argv, 0, emit(doc), GOLDEN)


def test_irrational_check_catches_corruption(tmp_path):
    argv = ["irrational", "--P", "8/21", "--offset",
            "1/1048583,1/1048609,1/1048613", "--window", "0,0,4,4"]
    text = _cli(tmp_path, argv)
    assert checks.check_cli(argv, 0, text, GOLDEN) is None
    doc = json.loads(text)
    assert checks.check_cli(argv, 0, json.dumps(dict(doc, ok=False)), GOLDEN)
    close = dict(doc, min_wall_distance=f"1/{2 ** 41}")
    assert checks.check_cli(argv, 0, json.dumps(close), GOLDEN)


def test_render_check_catches_corruption(tmp_path):
    argv = ["render", "--p", "3", "--q", "8", "--window", "9,2,17,10",
            "--layers", workloads.ALL_LAYERS]
    text = _cli(tmp_path, argv)
    assert checks.check_cli(argv, 0, text, GOLDEN) is None
    lines = text.splitlines(keepends=True)
    dropped = "".join(ln for i, ln in enumerate(lines)
                      if i != next(j for j, x in enumerate(lines)
                                   if x.startswith("<polygon ")))
    assert checks.check_cli(argv, 0, dropped, GOLDEN)
    assert checks.check_cli(argv, 0, text[:-7], GOLDEN)


def test_golden_check_catches_corruption(tmp_path):
    for op in workloads.GOLDEN_OPS:
        text = _cli(tmp_path, list(op.argv))
        assert checks.check_cli(op.argv, 0, text, GOLDEN) is None
        assert checks.check_cli(op.argv, 0, text.replace("1", "3", 1), GOLDEN)


def test_raising_op_is_failed_and_run_continues(tmp_path):
    ops = [Op("suite", "isomorphism", (2, 4)),
           Op("cli", argv=("orbit", "--p", "2", "--q", "5", "--c", "1,1")),
           Op("cli", argv=("render", "--p", "2", "--q", "5", "--window",
                           "0,0,1,1", "--layers", "nonsense")),
           Op("suite", "isomorphism", (2, 5))]
    _, times, results, calib = worker.run_ops(ops, str(tmp_path))
    assert len(times) == 4 and len(calib) == 5
    assert isinstance(results[0], worker.OpError)
    failures = worker.check_all(ops, results, str(tmp_path))
    assert sorted(failures) == [0, 1, 2]


def test_pass_runs_in_a_fresh_worker(tmp_path):
    outdir = str(tmp_path / "pass0")
    result = run.run_pass("grid-sweep", 1, 0.01, "untraced", outdir)
    assert result["ops"] == 36 and result["failures"] == []
    assert len(result["ref_ms"]) == 36 and min(result["ref_ms"]) > 0
    assert not os.path.exists(outdir)  # the worker removed its outputs


# -- seeded generation --------------------------------------------------------

BUDGET = 24 / run.PASSES  # one pass of a 24-second run


def _cli_params(ops):
    return [(o.argv[0], int(o.argv[2]), int(o.argv[4])) if o.kind == "cli"
            and o.argv[0] != "irrational" else o.argv[:1] for o in ops]


def test_seed_fixes_inputs_and_keeps_the_mix():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 3, BUDGET) == \
            workloads.build(name, 3, BUDGET)
    assert workloads.build("grid-sweep", 1, BUDGET) == \
        workloads.build("grid-sweep", 2, BUDGET)
    for name in ("tile-large", "explore"):
        a = workloads.build(name, 1, BUDGET)
        b = workloads.build(name, 2, BUDGET)
        assert a != b
        assert [(o.kind, o.suite, sum(o.pq)) for o in a] == \
            [(o.kind, o.suite, sum(o.pq)) for o in b]
        assert _cli_params(a) == _cli_params(b)
    ex = workloads.build("explore", 1, BUDGET)
    omegas = sorted(p + q for _, p, q in (x for x in _cli_params(ex)
                                          if len(x) == 3))
    assert omegas[0] <= 7 and omegas[-1] == 101
    assert len(ex) >= 100


def test_no_two_explore_requests_share_a_parameter():
    for seed in range(5):
        ops = workloads.build("explore", seed, BUDGET)
        pqs = [(int(o.argv[2]), int(o.argv[4])) for o in ops
               if o.argv[0] != "irrational"]
        assert len(pqs) == len(set(pqs)) > 60
        assert all(workloads.valid_ps(p + q).count(p) == 1 for p, q in pqs)


def test_distinct_params_moves_surplus_to_the_next_omega():
    got = workloads.distinct_params([7] * 4 + [101] * 3, [(2, 5)])
    assert got == [(1, 6), (3, 4), (1, 8), (4, 5), (9, 92), (26, 75),
                   (42, 59)]


def test_workload_size_follows_run_length():
    assert workloads.grid_bound(BUDGET) == 17
    assert len(workloads.build("grid-sweep", 0, BUDGET)) == 192
    assert len(workloads.build("grid-sweep", 0, 1)) < 192
    assert len(workloads.build("tile-large", 0, 1)) == 3
    assert max(sum(o.pq) for o in workloads.build("tile-large", 0, 20)) == 101
    assert len(workloads.build("explore", 0, 1)) == 2 + 13


# -- traced counts repeat -----------------------------------------------------

SMALL_OPS = [
    Op("sweep", "particle-geometry", (2, 5)),
    Op("sweep", "empty-rect", (3, 8)),
    Op("suite", "symmetry", (3, 8)),
    Op("suite", "pet-equivalence", (3, 8)),
    Op("cli", argv=("orbit", "--p", "3", "--q", "8", "--c", "27/2,1/2")),
    Op("cli", argv=("stats", "--p", "3", "--q", "8", "--document",
                    "--blocks", "4")),
    Op("cli", argv=("irrational", "--P", "8/21", "--offset",
                    "1/1048583,1/1048609,1/1048613", "--window", "0,0,3,3")),
    Op("cli", argv=("render", "--p", "3", "--q", "8", "--window",
                    "9,2,13,6", "--layers", workloads.ALL_LAYERS)),
]


def _traced_counts(tmp_path, name):
    tr = tracer_mod.Tracer()
    with tr:
        _, _, results, calib = worker.run_ops(SMALL_OPS,
                                              str(tmp_path / name), tr)
    assert calib == []  # no calibration Fractions inside a traced pass
    assert worker.check_all(SMALL_OPS, results, str(tmp_path / name)) == {}
    metrics = tr.layer_metrics()
    return {k: v for k, v in metrics.items() if not k.endswith("_s")}


def test_two_traced_runs_give_identical_counts(tmp_path):
    first = _traced_counts(tmp_path, "a")
    second = _traced_counts(tmp_path, "b")
    assert first == second
    assert first["grid.traces_per_block"][0] > 1.0  # stats traces twice
    assert first["classifier.labels_per_class"][0] == 3.0  # symmetry
    assert first["pet.orbits_per_polygon"][0] >= 2.0
    assert first["pet.irrational_tiling.centers"][0] == 9
    assert first["svgout.bytes"][0] > 0 and first["serialize.bytes"][0] > 0
