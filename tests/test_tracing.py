"""The benchmark tracer (perfbench/tracing.py) wraps nrcx functions at the
module attributes their callers look up.  Renaming or dropping one of
those attributes would break traced benchmark runs, so install and
uninstall the tracer here on the imported package."""

import importlib.util
import sys
from pathlib import Path

import nrcx
import nrcx.cli  # noqa: F401  (the tracer wraps names on these modules)
import nrcx.sexpr  # noqa: F401

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_attribute():
    tracer = _load_tracing().Tracer()
    owners = [m for name, m in sorted(sys.modules.items())
              if name == "nrcx" or name.startswith("nrcx.")]
    owners.append(nrcx.values.VSet)
    before = {id(owner): dict(vars(owner)) for owner in owners}
    try:
        tracer.install_spans(nrcx)
        tracer.install_counters(nrcx)
        wrapped = {(owner, attr) for owner, attr, _ in tracer._installed}
        names = {(owner.__name__, attr) for owner, attr in wrapped}
        assert {("nrcx.cli", "free_vars"), ("nrcx.cli", "eval_rx"),
                ("nrcx.cli", "parse"), ("nrcx.sexpr", "read")} <= names
        for owner, attr in wrapped:
            assert vars(owner)[attr] is not before[id(owner)][attr], attr
    finally:
        tracer.uninstall()
    for owner, attr in wrapped:
        assert vars(owner)[attr] is before[id(owner)][attr], attr
