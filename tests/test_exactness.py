"""Nothing that touches a theorem may use a float: the package source holds
no float literal, never names `float`, and uses `math` only for the exact
`gcd` and `floor`.  The `Fraction` references are test oracles only: no
suite, coherence check or command reaches one."""

import ast
import glob
import os
import sys

import plaid
from plaid.cli import golden_dir, main
from plaid.grid import check_coherence
from plaid.params import make_param
from plaid.svgout import LAYERS
from plaid.verify import SUITES, suite_golden, suite_irrational

MATH_ALLOWED = {"gcd", "floor"}


def package_trees():
    for path in sorted(glob.glob(os.path.join(os.path.dirname(plaid.__file__),
                                              "*.py"))):
        with open(path) as fh:
            yield os.path.basename(path), ast.parse(fh.read(), path)


def float_uses(tree):
    """(line, what) of every float literal, use of the name `float` and
    `math` attribute or import outside MATH_ALLOWED."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value,
                                                         (float, complex)):
            out.append((node.lineno, f"literal {node.value!r}"))
        elif isinstance(node, ast.Name) and node.id == "float":
            out.append((node.lineno, "name float"))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and node.attr not in MATH_ALLOWED):
            out.append((node.lineno, f"math.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            out += [(node.lineno, f"from math import {a.name}")
                    for a in node.names if a.name not in MATH_ALLOWED]
    return out


def test_package_source_is_float_free():
    bad = {name: uses for name, tree in package_trees()
           if (uses := float_uses(tree))}
    assert not bad, bad


def test_check_sees_floats():
    src = ("import math\nfrom math import sqrt\n"
           "x = 0.5\ny = float(3)\nz = math.sqrt(2)\nk = math.gcd(4, 6)\n")
    assert [what for _, what in sorted(float_uses(ast.parse(src)))] == [
        "from math import sqrt", "literal 0.5", "name float", "math.sqrt"]


# the Fraction references: each concept's oracle, for tests to compare against
REFERENCES = (
    "segment_points", "light_count", "good_edges", "light_points_on_line",
    "horizontal_particle", "vertical_particle", "line_invariants",
    "anchor_lines", "f_H", "f_V", "f_P", "f_Q",
    "canon_frac", "xi_local", "checkerboard_label", "fiber_label", "zone_of",
    "wall_distance",
)


class Tripped(Exception):
    pass


def test_references_are_oracles_only(monkeypatch, tmp_path):
    """Every reference raises, in every loaded plaid module that holds it;
    then every suite, the coherence check with and without a region and the
    commands run, and none may reach a reference.  A failure maps each run
    to the references it called (or to "failed")."""
    called = []

    def tripwire(name):
        def trip(*args, **kwargs):
            called.append(name)
            raise Tripped(name)
        return trip

    for module_name, module in list(sys.modules.items()):
        if module_name == "plaid" or module_name.startswith("plaid."):
            for name in REFERENCES:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, tripwire(name))

    out = str(tmp_path / "out")
    runs = {}
    for pq in ((2, 5), (8, 13)):
        param = make_param(*pq)
        for suite, check in SUITES.items():
            runs[f"{suite} {param}"] = \
                lambda check=check, param=param: check(param)["ok"]
        runs[f"coherence {param}"] = \
            lambda param=param: check_coherence(param).ok
    runs["golden"] = lambda: all(r["ok"] for r in suite_golden(golden_dir()))
    runs["irrational"] = lambda: all(r["ok"] for r in suite_irrational())
    runs["coherence region 2/5"] = \
        lambda: check_coherence(make_param(2, 5), (0, 0, 7, 7)).ok
    runs["coherence region 8/13"] = \
        lambda: check_coherence(make_param(8, 13), (-30, -25, 30, 15)).ok
    commands = {
        "render": ["render", "--p", "3", "--q", "8", "--window=-5,-4,6,7",
                   "--layers", ",".join(LAYERS)],
        "orbit": ["orbit", "--p", "2", "--q", "5", "--c", "1/2,1/2",
                  "--oriented"],
        "stats --gap-window": ["stats", "--p", "2", "--q", "5",
                               "--gap-window=-3,-3,9,4"],
        "stats --document": ["stats", "--p", "2", "--q", "5",
                             "--blocks=0,-1", "--document"],
        "irrational": ["irrational", "--P", "8/21", "--offset",
                       "1/1048583,1/1048609,1/1048613", "--window", "0,0,10,10"],
    }
    for case, argv in commands.items():
        runs[case] = lambda argv=argv: main(argv + ["--out", out]) == 0
    # a zero offset is rejected with a suggested offset that passes
    runs["irrational, rejected"] = lambda: main(
        ["irrational", "--P", "8/21", "--offset", "0,0,0", "--window",
         "0,0,5,5", "--out", out]) == 1

    bad = {}
    for case, run in runs.items():
        called.clear()
        try:
            ok = run()
        except Tripped:
            ok = False
        if called or not ok:
            bad[case] = sorted(set(called)) or "failed"
    assert not bad, bad
