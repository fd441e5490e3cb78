"""Per-layer tracing from outside the package.

`Tracer.install()` wraps public functions of the `plaid` modules.  Each
wrapper is patched into the defining module, into every `plaid.*` module that
imported the name, and into `plaid.verify.SUITES`; `uninstall()` puts every
original back.  Functions that take tens of microseconds or more get spans
(name, start, end, parent, op id), kept in memory until the run ends.  Finer
functions get call counters only.  `Fraction.__new__` is wrapped too, and each
construction is credited to the module of the innermost open span.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

MODULES = ("params", "grid", "classifier", "pet", "analysis", "verify",
           "svgout", "serialize", "cli")

# (module, function) pairs timed with spans, named "<module>.<function>".
SPAN_FUNCS = (
    ("params", "make_param"),
    ("grid", "closed_point_counts"),
    ("grid", "horizontal_particle"),
    ("grid", "vertical_particle"),
    ("grid", "light_points_on_line"),
    ("grid", "trace_polygons"),
    ("classifier", "verify_bijection"),
    ("classifier", "symmetry_conjugacies"),
    ("classifier", "particle_image_geometry"),
    ("pet", "irrational_tiling"),
    ("pet", "check_mesh"),
    ("pet", "cover_bijection"),
    ("pet", "special_orbit"),
    ("pet", "vector_polygon"),
    ("analysis", "empty_rectangles"),
    ("analysis", "block_light_cache"),
    ("analysis", "verify_first"),
    ("analysis", "polygon_stats"),
    ("svgout", "render_svg"),
    ("serialize", "polygon_document"),
    ("serialize", "emit"),
    ("cli", "main"),
)

# Functions of a few microseconds: counted, never timed.
COUNT_FUNCS = (
    ("classifier", "tile_label_scaled"),
    ("classifier", "canon_scaled"),
    ("classifier", "fiber_label"),
    ("pet", "oriented_label_scaled"),
    ("pet", "wall_distance"),
    ("params", "sym_reduce"),
)

SUITE_NAMES = ("coherence", "two-points", "hier", "first", "empty-rect",
               "particle-geometry", "isomorphism", "bijection", "symmetry",
               "pet-equivalence", "mesh")

_OUTSIDE = "other"


def suite_span(suite: str) -> str:
    return "verify.suite_" + suite.replace("-", "_")


def self_times(spans) -> Dict[str, float]:
    """Total self time per span name: each span's duration minus the
    durations of its direct child spans."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: Dict[str, float] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child[i]
    return out


class Tracer:
    """Spans, counters and Fraction counts for one traced pass."""

    def __init__(self):
        self.spans: List[Optional[Tuple[str, float, float, int, int]]] = []
        self.op = -1
        self.calls: Dict[str, int] = {}
        self.fractions: Dict[str, int] = {m: 0 for m in MODULES + (_OUTSIDE,)}
        self.extra: Dict[str, int] = {"pet.special_orbit.steps": 0,
                                      "pet.orbits_nonhold": 0,
                                      "pet.irrational_tiling.centers": 0,
                                      "svgout.bytes": 0,
                                      "serialize.bytes": 0}
        self.traced_blocks = set()
        self.vector_polygons = set()
        self.label_classes: Dict[Tuple[int, int], bytearray] = {}
        self._stack: List[int] = []
        self._mods: List[str] = [_OUTSIDE]
        self._patches: List[Tuple[object, str, object, bool]] = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, fn, name: str, module: str, after=None):
        spans, stack, mods, calls = self.spans, self._stack, self._mods, \
            self.calls
        calls.setdefault(name, 0)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[name] += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            mods.append(module)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                mods.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper._perfbench = True
        return wrapper

    def _counter(self, fn, name: str, before=None):
        calls = self.calls
        calls.setdefault(name, 0)
        if before is None:
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                calls[name] += 1
                before(args, kwargs)
                return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        wrapper._perfbench = True
        return wrapper

    # -- hooks that turn arguments and results into work counts -----------

    def _after_trace(self, args, kwargs, result):
        param = args[0]
        block = args[1] if len(args) > 1 else kwargs.get("block", (0, 0))
        self.traced_blocks.add((param.p, param.q, tuple(block)))

    def _before_label(self, args, kwargs):
        param, a, b = args
        w = param.omega
        key = (param.p, param.q)
        seen = self.label_classes.get(key)
        if seen is None:
            seen = self.label_classes[key] = bytearray(w ** 3)
        seen[(a % (w * w)) * w + b % w] = 1

    def _after_orbit(self, args, kwargs, orbit):
        if orbit.labels != ("EMPTY",):
            self.extra["pet.special_orbit.steps"] += len(orbit.labels)
            self.extra["pet.orbits_nonhold"] += 1

    def _after_vector_polygon(self, args, kwargs, pg):
        if pg is not None:
            param = args[0]
            self.vector_polygons.add((param.p, param.q, pg.verts2[0]))

    def _after_irrational(self, args, kwargs, result):
        x0, y0, x1, y1 = args[2] if len(args) > 2 else kwargs["window"]
        self.extra["pet.irrational_tiling.centers"] += (x1 - x0) * (y1 - y0)

    def _after_svg(self, args, kwargs, text):
        self.extra["svgout.bytes"] += len(text)

    def _after_emit(self, args, kwargs, text):
        self.extra["serialize.bytes"] += len(text)

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr, value, is_dict=False):
        old = owner[attr] if is_dict else owner.__dict__[attr]
        self._patches.append((owner, attr, old, is_dict))
        if is_dict:
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def _patch_everywhere(self, module: str, attr: str, wrapper) -> None:
        orig = getattr(sys.modules["plaid." + module], attr)
        for mname, mod in sorted(sys.modules.items()):
            if mod is None or not (mname == "plaid" or
                                   mname.startswith("plaid.")):
                continue
            for name, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, name, wrapper)

    def install(self) -> None:
        """Patch every wrapper in; a failure part way puts all back."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise

    def _install(self) -> None:
        mods = {m: importlib.import_module("plaid." + m) for m in MODULES}
        hooks = {
            "grid.trace_polygons": self._after_trace,
            "pet.special_orbit": self._after_orbit,
            "pet.vector_polygon": self._after_vector_polygon,
            "pet.irrational_tiling": self._after_irrational,
            "svgout.render_svg": self._after_svg,
            "serialize.emit": self._after_emit,
        }
        for module, attr in SPAN_FUNCS:
            name = f"{module}.{attr}"
            fn = getattr(mods[module], attr)
            self._patch_everywhere(
                module, attr, self._span(fn, name, module, hooks.get(name)))
        for module, attr in COUNT_FUNCS:
            name = f"{module}.{attr}"
            fn = getattr(mods[module], attr)
            before = self._before_label if attr == "tile_label_scaled" \
                else None
            self._patch_everywhere(module, attr,
                                   self._counter(fn, name, before))
        grid_cls = mods["grid"].BlockGrid
        self._set(grid_cls, "__init__",
                  self._span(grid_cls.__init__, "grid.BlockGrid", "grid"))
        suites = mods["verify"].SUITES
        for suite in SUITE_NAMES:
            fn = suites[suite]
            wrapper = self._span(fn, suite_span(suite), "verify")
            self._patch_everywhere("verify", fn.__name__, wrapper)
            self._set(suites, suite, wrapper, is_dict=True)
        self._patch_fraction()

    def _patch_fraction(self) -> None:
        orig = Fraction.__dict__["__new__"]
        new = orig.__func__
        counts, mods = self.fractions, self._mods

        def counting_new(cls, *args, **kwargs):
            counts[mods[-1]] += 1
            return new(cls, *args, **kwargs)

        counting_new._perfbench = True
        self._set(Fraction, "__new__", staticmethod(counting_new))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old, is_dict = self._patches.pop()
            if is_dict:
                owner[attr] = old
            else:
                setattr(owner, attr, old)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> Dict[str, Tuple[float, str]]:
        """Every per-layer metric, as name -> (value, unit)."""
        calls = self.calls
        selfs = self_times([s for s in self.spans if s is not None])
        out: Dict[str, Tuple[float, str]] = {}

        def count(name, value):
            out[name] = (value, "count")

        def self_s(name):
            out[name + ".self_s"] = (selfs.get(name, 0.0), "s")

        for name in ("grid.BlockGrid", "grid.light_points_on_line",
                     "grid.trace_polygons", "pet.special_orbit"):
            count(name + ".calls", calls.get(name, 0))
        for module, attr in SPAN_FUNCS:
            self_s(f"{module}.{attr}")
        self_s("grid.BlockGrid")
        for suite in SUITE_NAMES:
            self_s(suite_span(suite))
        for module, attr in COUNT_FUNCS:
            count(f"{module}.{attr}.calls", calls.get(f"{module}.{attr}", 0))
        for name in ("pet.special_orbit.steps",
                     "pet.irrational_tiling.centers"):
            count(name, self.extra[name])
        for name in ("svgout.bytes", "serialize.bytes"):
            out[name] = (self.extra[name], "bytes")
        out["grid.traces_per_block"] = (_ratio(
            calls.get("grid.trace_polygons", 0), len(self.traced_blocks)),
            "ratio")
        classes = sum(sum(seen) for seen in self.label_classes.values())
        out["classifier.labels_per_class"] = (_ratio(
            calls.get("classifier.tile_label_scaled", 0), classes), "ratio")
        out["pet.orbits_per_polygon"] = (_ratio(
            self.extra["pet.orbits_nonhold"], len(self.vector_polygons)),
            "ratio")
        for module in MODULES:
            count(module + ".fractions", self.fractions[module])
        count("trace.spans", len(self.spans))
        return out

    def write_spans(self, path) -> None:
        """The span log as gzipped JSON lines: name, start, end, parent, op."""
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0
