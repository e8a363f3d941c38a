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


def _check(tmp_path, name, lang, expr, gamma):
    (tmp_path / f"{name}.sexpr").write_text(expr)
    (tmp_path / f"{name}.gamma.sexpr").write_text(gamma)
    return ["check", str(tmp_path / f"{name}.sexpr"), "--lang", lang,
            "--mode", "welldef", "--gamma",
            str(tmp_path / f"{name}.gamma.sexpr")]


def test_traced_checks_answer_as_untraced(tmp_path, capsys):
    # Both searches fail on an early environment, so the enumerator
    # draws only a prefix of each universe; _materialize must still
    # return the list the tracer counts.
    requests = [
        _check(tmp_path, "penrc", "penrc", "(for a x (for b a (fst b)))",
               "((x (coll (coll (atom)))))"),
        _check(tmp_path, "pure", "pure-rx", "(name x)",
               "((x (coll (elem (data)))))")]

    def answers():
        out = []
        for argv in requests:
            code = nrcx.cli.main(argv)
            captured = capsys.readouterr()
            out.append((code, captured.out, captured.err))
        return out

    plain = answers()
    assert [code for code, _, _ in plain] == [4, 4]
    tracer = _load_tracing().Tracer()
    try:
        tracer.install_spans(nrcx)
        traced = answers()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.counts["typeterms.materialized"] > 0
