"""Nothing that touches a theorem may use a float: the package source holds
no float literal, never names `float`, and uses `math` only for the exact
`gcd` and `floor`."""

import ast
import glob
import os

import plaid

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
