import json
import os
from fractions import Fraction

import pytest

from plaid.cli import main
from plaid.params import make_param
from plaid.pet import pet_region, special_orbit, vector_polygon
from plaid.svgout import RenderConfig, render_svg


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_render_deterministic(tmp_path, capsys):
    code, out = run(capsys, "render", "--p", "2", "--q", "5",
                    "--window", "0,0,7,7", "--layers", "polygons")
    assert code == 0
    code, out2 = run(capsys, "render", "--p", "2", "--q", "5",
                     "--window", "0,0,7,7", "--layers", "polygons")
    assert out == out2 and "<svg" in out


def test_render_negative_window(capsys):
    """A window with negative corners, joined to its option by "="."""
    code, out = run(capsys, "render", "--p", "2", "--q", "5",
                    "--window=-3,-3,2,2")
    assert code == 0
    assert out == render_svg(make_param(2, 5),
                             RenderConfig(window=(-3, -3, 2, 2)))


def test_parser_kept_after_rejected_request(capsys):
    """The parser is built once per process: a request argparse rejects
    leaves nothing behind, and the next one prints what a fresh process
    prints."""
    import os
    import subprocess
    import sys

    import plaid
    from plaid import cli

    argv = ["orbit", "--p", "2", "--q", "5", "--c", "3/2,1/2", "--oriented"]
    with pytest.raises(SystemExit) as exc:
        main(["orbit", "--p", "2", "--q", "5", "--c"])
    assert exc.value.code == 2
    capsys.readouterr()
    built = cli._parser.cache_info().misses
    code, out = run(capsys, *argv)
    assert cli._parser.cache_info().misses == built
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(plaid.__file__)))
    fresh = subprocess.run([sys.executable, "-m", "plaid.cli", *argv],
                           capture_output=True, text=True, env=env, timeout=60)
    assert code == fresh.returncode == 0 and out == fresh.stdout


def test_render_grid_lines(capsys):
    code, out = run(capsys, "render", "--p", "2", "--q", "5",
                    "--window", "0,0,7,7", "--layers", "grid-lines")
    assert code == 0 and out.count("<line") > 20


def test_verify_suite(capsys):
    code, out = run(capsys, "verify", "--suite", "coherence",
                    "--max-omega", "9")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert all(r["ok"] and r["suite"] == "coherence" for r in records)
    # the records state what they swept: the omega^3 fundamental squares
    assert all(r["squares"] == r["omega"] ** 3 for r in records)
    keys = [(r["omega"], int(r["param"].split("/")[0])) for r in records]
    assert keys == sorted(keys)


def test_verify_explicit_params(capsys):
    code, out = run(capsys, "verify", "--suite", "mesh",
                    "--params", "3/8,4/11")
    assert code == 0
    assert all(json.loads(line)["ok"] for line in out.strip().splitlines())


def test_verify_unknown_suite(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--suite", "nonsense"])


def test_verify_golden_corpus(capsys, monkeypatch):
    from conftest import golden_path
    import os

    monkeypatch.setenv("PLAID_GOLDEN_DIR", os.path.dirname(golden_path("x")))
    code, out = run(capsys, "verify", "--suite", "golden")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert len(records) == 2 and all(r["ok"] for r in records)


def test_verify_golden_truncated_file_becomes_record(capsys, monkeypatch,
                                                     tmp_path):
    """A truncated document next to the two good ones gets its own failing
    record, and the good ones still pass."""
    import shutil

    from conftest import golden_path

    for name in ("polygons_1_2.json", "polygons_2_5.json"):
        shutil.copy(golden_path(name), tmp_path / name)
    text = (tmp_path / "polygons_2_5.json").read_text()
    (tmp_path / "polygons_3_8.json").write_text(text[:len(text) // 2])
    monkeypatch.setenv("PLAID_GOLDEN_DIR", str(tmp_path))
    code, out = run(capsys, "verify", "--suite", "golden")
    assert code == 1
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert [(r["file"], r["ok"]) for r in records] == [
        ("polygons_1_2.json", True), ("polygons_2_5.json", True),
        ("polygons_3_8.json", False)]
    assert records[2]["suite"] == "golden"
    assert records[2]["error"].startswith("JSONDecodeError: ")


def test_verify_irrational_failure_becomes_record(capsys, monkeypatch):
    """A BadOffset from the seeded window at one P becomes that P's failing
    record; the other two P still run, on a 2 x 2 window to stay fast."""
    from plaid import verify

    real = verify.irrational_tiling

    def tiling(P, offset, window, *rest):
        if P == Fraction(34, 89):
            raise verify.BadOffset("planted")
        return real(P, offset, (0, 0, 2, 2), *rest)

    monkeypatch.setattr(verify, "irrational_tiling", tiling)
    code, out = run(capsys, "verify", "--suite", "irrational")
    assert code == 1
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["param"] for r in records] == ["P=8/21", "P=34/89", "P=144/377"]
    assert records[0]["ok"] and records[2]["ok"]
    assert records[1] == {"suite": "irrational", "param": "P=34/89",
                          "omega": 0, "ok": False,
                          "error": "BadOffset: planted"}


def test_verify_first_failure_lights_are_strings(capsys, monkeypatch):
    """A witness line that keeps one of its two light points fails with a
    JSON record that lists the kept point, not a traceback."""
    from plaid import analysis

    real = analysis.light_points_scaled

    def drop_first(*args):
        den, pts = real(*args)
        return den, pts[1:]

    monkeypatch.setattr(analysis, "light_points_scaled", drop_first)
    code, out = run(capsys, "verify", "--suite", "first", "--params", "2/5")
    assert code == 1
    assert json.loads(out) == {
        "suite": "first", "param": "2/5", "omega": 7, "ok": False,
        "reason": "witness light points missing", "line": 2,
        "lights": ["49/10"]}


def test_verify_irrational_suite(capsys):
    code, out = run(capsys, "verify", "--suite", "irrational")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert len(records) == 3
    assert all(r["ok"] and r["zero_offset_rejected"] for r in records)


def test_verify_jobs_parallel(capsys):
    argv = ("verify", "--suite", "bijection", "--max-omega", "9")
    code, out = run(capsys, *argv, "--jobs", "2")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert records and all(r["ok"] for r in records)
    # a parallel sweep prints exactly what the serial one does
    assert run(capsys, *argv) == (0, out)


def recording_pool(monkeypatch):
    """A ProcessPoolExecutor stand-in that runs the map in this process and
    records each pool's max_workers: it starts no process."""
    import concurrent.futures

    started = []

    class Recorder:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    return started


def test_run_suite_starts_at_most_one_worker_per_parameter(monkeypatch):
    """The fork context starts all max_workers processes at the first
    submit, so run_suite asks for no more workers than parameters, and
    runs one parameter serially."""
    from plaid.verify import run_suite

    started = recording_pool(monkeypatch)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    params = [make_param(1, 2), make_param(2, 5)]
    serial = run_suite("two-points", params=params)
    assert started == []
    assert run_suite("two-points", params=params, jobs=8) == serial
    assert started == [2]
    assert run_suite("two-points", params=params[:1], jobs=8) == serial[:1]
    assert run_suite("two-points", params=params, jobs=2) == serial
    assert started == [2, 2]


def test_run_suite_starts_at_most_one_worker_per_cpu(monkeypatch):
    """--jobs above the CPU count starts one worker per CPU, and a host
    whose CPU count is unknown runs serially."""
    from plaid.verify import run_suite

    started = recording_pool(monkeypatch)
    params = [make_param(1, 2), make_param(2, 5), make_param(3, 8),
              make_param(4, 11)]
    serial = run_suite("two-points", params=params)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert run_suite("two-points", params=params, jobs=1000) == serial
    assert started == [3]
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert run_suite("two-points", params=params, jobs=1000) == serial
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert run_suite("two-points", params=params, jobs=1000) == serial
    assert started == [3]


def test_orbit(capsys):
    code, out = run(capsys, "orbit", "--p", "2", "--q", "5",
                    "--c", "1/2,1/2", "--oriented")
    assert code == 0
    doc = json.loads(out)
    assert doc["length"] == 26
    assert len(doc["states"]) == 26 and len(doc["labels"]) == 26
    assert doc["polygon"][0] == ["1/2", "1/2"]
    assert sum(v[0] for v in doc["vectors"]) == 0
    assert sum(v[1] for v in doc["vectors"]) == 0


@pytest.mark.parametrize("center", ["1/2,1/2", "3/2,3/2", "9/2,5/2",
                                    "-13/2,-1/2"])
def test_orbit_matches_pet_reference(capsys, center):
    """Regions and polygon, read off the one orbit walk, against pet_region
    of each state and vector_polygon."""
    param = make_param(2, 5)
    code, out = run(capsys, "orbit", "--p", "2", "--q", "5", f"--c={center}")
    assert code == 0
    doc = json.loads(out)
    c = tuple(Fraction(v) for v in center.split(","))
    orbit = special_orbit(param, c)
    assert doc["regions"] == [pet_region(param, s).name for s in orbit.states]
    pg = vector_polygon(param, c)
    assert doc["polygon"] == ([[str(a), str(b)] for a, b in pg.vertices]
                              if pg else [])


def test_orbit_hold_center(capsys):
    code, out = run(capsys, "orbit", "--p", "2", "--q", "5", "--c", "3/2,3/2")
    assert code == 0
    doc = json.loads(out)
    assert doc["length"] == 1 and doc["polygon"] == []
    assert doc["regions"] == ["hold"]


def test_orbit_bad_center(capsys):
    assert main(["orbit", "--p", "2", "--q", "5", "--c", "1/3,1/2"]) == 2


def test_orbit_bad_param(capsys):
    assert main(["orbit", "--p", "3", "--q", "5", "--c", "1/2,1/2"]) == 2


def test_irrational_bad_offset(capsys):
    code, out = run(capsys, "irrational", "--P", "8/21",
                    "--offset", "0,0,0", "--window", "0,0,5,5")
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == "BadOffset" and doc["suggested_offset"]


def test_irrational_bad_offset_without_suggestion(capsys):
    code, out = run(capsys, "irrational", "--P", "8/21", "--offset", "0,0,0",
                    "--window", "0,0,5,5", "--eps", "1/2")
    assert code == 1
    assert json.loads(out)["suggested_offset"] is None


def test_irrational_good_offset(capsys):
    code, out = run(capsys, "irrational", "--P", "8/21",
                    "--offset", "1/1048583,1/1048609,1/1048613",
                    "--window", "0,0,10,10")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] and doc["mismatches"] == []


def test_stats_and_document(capsys):
    code, out = run(capsys, "stats", "--p", "2", "--q", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 18 and doc["max_diameter"] == "6"
    code, out = run(capsys, "stats", "--p", "2", "--q", "5", "--blocks", "0",
                    "--document")
    assert code == 0
    assert json.loads(out)["format"] == 1


def test_stats_counts_a_repeated_block_once(capsys):
    code, out = run(capsys, "stats", "--p", "2", "--q", "5", "--blocks", "1,1")
    doc = json.loads(out)
    assert code == 0 and doc["per_block"] == {"1,0": 1}
    assert doc["count"] == sum(doc["per_block"].values())


def test_stats_gap_window(capsys):
    code, out = run(capsys, "stats", "--p", "1", "--q", "2",
                    "--gap-window", "0,0,9,3")
    doc = json.loads(out)
    assert code == 0 and "gap_radius" in doc and "gap_note" in doc


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.svg"
    code, _ = run(capsys, "render", "--p", "1", "--q", "2",
                  "--window", "0,0,3,3", "--out", str(target))
    assert code == 0 and target.read_text().startswith("<svg")


@pytest.mark.parametrize("bound", ["0", "2", "-5"])
def test_verify_max_omega_below_3_rejected(capsys, bound):
    code = main(["verify", "--suite", "coherence", "--max-omega", bound])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: --max-omega")


@pytest.mark.parametrize("palette", ["bad", "polygons=#000,x", "=#000",
                                     "polygons=a=b", "nolayer=red",
                                     'polygons=red"/><script>'])
def test_render_malformed_palette(capsys, palette):
    code = main(["render", "--p", "2", "--q", "5", "--window", "0,0,7,7",
                 "--palette", palette])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: --palette")


def test_render_palette_override(capsys):
    code, out = run(capsys, "render", "--p", "2", "--q", "5",
                    "--window", "0,0,7,7", "--palette", "polygons=#123456")
    assert code == 0 and 'stroke="#123456"' in out


def test_run_suite_honours_explicit_bound():
    from plaid.verify import run_suite

    assert run_suite("first", max_omega=0) == []
    assert [r["param"] for r in run_suite("first", max_omega=3)] == ["1/2"]


def _crash_at_omega_5(param):
    if param.omega == 5:
        raise ZeroDivisionError(f"boom at {param}")
    return {"ok": True}


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_crashing_suite_becomes_record(capsys, monkeypatch, jobs):
    from plaid import verify
    from plaid.params import even_rationals

    # worker processes inherit the patched table by fork
    monkeypatch.setitem(verify.SUITES, "crash", _crash_at_omega_5)
    code, out = run(capsys, "verify", "--suite", "crash", "--max-omega", "7",
                    "--jobs", jobs)
    assert code == 1
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["param"] for r in records] == [str(p) for p in even_rationals(7)]
    for r in records:
        assert r["suite"] == "crash"
        if r["omega"] == 5:
            assert r == {"ok": False, "suite": "crash", "param": r["param"],
                         "omega": 5,
                         "error": f"ZeroDivisionError: boom at {r['param']}"}
        else:
            assert r["ok"] and "error" not in r


@pytest.mark.parametrize("argv", [
    ["irrational", "--P", "abc", "--offset", "0,0,0", "--window", "0,0,2,2"],
    ["irrational", "--P", "1/0", "--offset", "0,0,0", "--window", "0,0,2,2"],
    ["irrational", "--P", "8/21", "--offset", "a,b,c", "--window", "0,0,2,2"],
    ["irrational", "--P", "8/21", "--offset", "0,0,0", "--window", "0,0,2,2",
     "--eps", "zz"],
    ["verify", "--suite", "mesh", "--params", "3/8,x"],
    ["verify", "--suite", "mesh", "--params", "3"],
    ["stats", "--p", "2", "--q", "5", "--blocks", "a"],
    ["orbit", "--p", "2", "--q", "5", "--c", "1/0,1/2"],
    ["irrational", "--P", "34/89", "--offset", "1/1048583,1/1048609,1/1048613",
     "--window", "0,0,0,0"],
    ["stats", "--p", "2", "--q", "5", "--document", "--gap-window", "0,0,7,7"],
    # eps <= 0 would switch the good-offset check off
    ["irrational", "--P", "34/89", "--offset", "0,0,0", "--window", "0,0,2,2",
     "--eps", "0"],
    ["irrational", "--P", "34/89", "--offset", "1/1048583,1/1048609,1/1048613",
     "--window", "0,0,2,2", "--eps=-1/2"],
    # {missing} is a directory that does not exist
    ["render", "--p", "2", "--q", "5", "--window", "0,0,7,7",
     "--out", "{missing}/x.svg"],
    ["orbit", "--p", "2", "--q", "5", "--c", "1/2,1/2", "--out", "{missing}/x"],
    ["verify", "--suite", "two-points", "--max-omega", "5",
     "--out", "{missing}/x"],
    ["stats", "--p", "2", "--q", "5", "--out", "{missing}/x"],
    ["irrational", "--P", "34/89", "--offset", "1/1048583,1/1048609,1/1048613",
     "--window", "0,0,2,2", "--out", "{missing}/x"],
    # golden and irrational sweep no parameters and run in one process
    ["verify", "--suite", "golden", "--params", "2/5"],
    ["verify", "--suite", "golden", "--max-omega", "9"],
    ["verify", "--suite", "golden", "--jobs", "2"],
    ["verify", "--suite", "irrational", "--params", "2/5"],
    ["verify", "--suite", "irrational", "--max-omega", "9"],
    ["verify", "--suite", "irrational", "--jobs", "1"],
    # no worker count below one
    ["verify", "--suite", "two-points", "--max-omega", "5", "--jobs", "0"],
    ["verify", "--suite", "two-points", "--max-omega", "5", "--jobs", "-3"],
    # an empty gap window, not a window without connectors
    ["stats", "--p", "2", "--q", "5", "--gap-window", "3,3,0,0"],
    # an explicit parameter list is not cut by a bound
    ["verify", "--suite", "two-points", "--params", "2/5", "--max-omega", "5"],
    # an empty value is a malformed value, not a missing option
    ["verify", "--suite", "two-points", "--params", ""],
    ["stats", "--p", "2", "--q", "5", "--blocks", ""],
    ["irrational", "--P", "34/89", "--offset", "1/1048583,1/1048609,1/1048613",
     "--window", "0,0,2,2", "--eps", ""],
    # an empty --out names no file, it does not mean standard output
    ["orbit", "--p", "2", "--q", "5", "--c", "1/2,1/2", "--out", ""],
    # a label is part of a file name, so it names no directory
    ["bench", "--label", "a/b"],
])
def test_malformed_input_exits_2(argv, tmp_path):
    """The command as a user runs it: exit 2 with a message, no traceback."""
    missing = str(tmp_path / "missing")
    run_as_user_exits_2([arg.replace("{missing}", missing) for arg in argv])


def test_missing_golden_corpus_exits_2(tmp_path):
    run_as_user_exits_2(["verify", "--suite", "golden"],
                        PLAID_GOLDEN_DIR=str(tmp_path / "missing"))


def run_as_user_exits_2(argv, **env):
    import os
    import subprocess
    import sys

    import plaid

    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(plaid.__file__)), **env)
    proc = subprocess.run([sys.executable, "-m", "plaid.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "error" in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == ""


BENCH_LAYERS = ["make_param", "blockgrid_fill", "masks", "empty_rect_census",
                "empty_rect_search", "trace_polygons", "label_table",
                "label_table_cover", "center_codes", "symmetry_conjugacies",
                "mesh_failures", "orbit", "render", "stats_document",
                "render_grid-lines", "render_light-points",
                "render_connectors", "render_polygons",
                "render_orientation-arrows", "document_walk", "document_text"]


def check_bench_document(doc, label, repeats, omegas, windows):
    assert list(doc) == ["label", "machine", "repeats", "omega", "irrational",
                         "entries"]
    assert (doc["label"], doc["repeats"]) == (label, repeats)
    assert list(doc["machine"]) == ["nproc", "python", "cpu"]
    assert list(doc["omega"]) == [str(w) for w in omegas]
    irrational = doc["irrational"]
    assert irrational["P"] == "34/89" and irrational["offset"] == [
        "1/1048583", "1/1048609", "1/1048613"]
    assert list(irrational["seconds"]) == [f"irrational_{w}x{w}"
                                           for w in windows]
    for seconds in [*doc["omega"].values(), irrational["seconds"]]:
        assert all(isinstance(s, float) and s >= 0 for s in seconds.values())
    assert all(list(layers) == BENCH_LAYERS for layers in doc["omega"].values())
    assert isinstance(doc["entries"], list)


def test_bench_document(tmp_path, monkeypatch, capsys):
    """plaid bench cut down to omega 5, one round and a 4 x 4 window: the
    machine, the round count and every layer's seconds, and a rewrite keeps
    the entries appended to the file."""
    from plaid import bench
    monkeypatch.setattr(bench, "OMEGAS", (5,))
    monkeypatch.setattr(bench, "REPEATS", 1)
    monkeypatch.setattr(bench, "IRRATIONAL_WINDOWS", (4,))
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "BENCH_t.json"
    assert run(capsys, "bench", "--label", "t") == (0, "BENCH_t.json\n")
    doc = json.loads(path.read_text())
    check_bench_document(doc, "t", 1, (5,), (4,))
    assert doc["entries"] == []
    doc["entries"] = [{"change": "a before/after entry"}]
    path.write_text(json.dumps(doc))
    assert run(capsys, "bench", "--label", "t") == (0, "BENCH_t.json\n")
    assert json.loads(path.read_text())["entries"] == doc["entries"]


def test_bench_baseline_committed():
    """The committed baseline has the schema plaid bench writes, at omega 51
    and 101 and on the 16 x 16 and 100 x 100 windows."""
    import os
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCH_baseline.json")) as f:
        doc = json.load(f)
    check_bench_document(doc, "baseline", 3, (51, 101), (16, 100))
    assert doc["entries"]
