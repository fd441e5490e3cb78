"""The benchmark's tracer wraps package functions by name, so a renamed or
deleted function breaks traced benchmark runs; keep every name it wraps."""

import importlib
import importlib.util
import os

from plaid.verify import SUITES

TRACER_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_functions_exist():
    tracer = load_tracer()
    for module, attr in tracer.SPAN_FUNCS + tracer.COUNT_FUNCS:
        fn = getattr(importlib.import_module("plaid." + module), attr, None)
        assert callable(fn), f"plaid.{module}.{attr}"


def test_traced_suites_exist():
    assert set(load_tracer().SUITE_NAMES) <= set(SUITES)
