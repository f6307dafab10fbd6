"""The benchmark tracer (``bench/tracer.py``) patches bvm from outside.

This guards the names it patches: installing the tracer must find every
one of them, and uninstalling it must put every original back. A refactor
that removes or renames a patched name (``ComparisonFn.pair`` on a registry
entry, ``Scenario.draw_pairs``, ...) fails here instead of in a traced
benchmark run.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import bvm.cli  # noqa: F401  (imports every module the tracer wraps)
from bvm import comparison, distributions, engine, models

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bvm_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _snapshot():
    """Every bvm module global that is a function, every patched method,
    and the ``pair`` of every registry entry."""
    out = {}
    for mod_name, mod in sys.modules.items():
        if mod_name == "bvm" or mod_name.startswith("bvm."):
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj):
                    out[(mod_name, name)] = obj
    for owner, attr in [
        (comparison.ComparisonFn, "on_batch"),
        (engine.Scenario, "draw_pairs"),
        (distributions.Distribution, "sample"),
        (models.ModelFunction, "evaluate"),
    ]:
        out[(owner.__qualname__, attr)] = vars(owner)[attr]
    for name, fn in comparison._REGISTRY.items():
        out[("registry", name)] = vars(fn)["pair"]
    return out


def test_tracer_installs_on_every_patch_point_and_restores_the_originals():
    tracer = _load_tracer().Tracer()
    before = _snapshot()
    try:
        tracer.install()
        during = _snapshot()
        for key in [
            ("ComparisonFn", "on_batch"),
            ("Scenario", "draw_pairs"),
            ("Distribution", "sample"),
            ("ModelFunction", "evaluate"),
            *(("registry", name) for name in comparison._REGISTRY),
        ]:
            assert during[key] is not before[key], key
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
