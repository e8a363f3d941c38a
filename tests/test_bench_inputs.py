"""The request files of the benchmark's ra_eval workload
(perfbench/run.py:prepare) are the bytes of the reference printer and
the reference relation encoder: each query as print_expr(compile_ra(…))
writes it, and each database as json.dumps(env_to_json(encode_db(…))).
The corpus is built by perfbench/corpus.py, loaded here with the
reference.py it imports."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from nrcx import sexpr
from nrcx.frontend import parse, print_expr
from nrcx.translate import compile_ra, encode_db
from nrcx.values import env_to_json

import oracles

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 8])
def test_ra_eval_request_files_match_the_references(monkeypatch, seed):
    reference = _load("reference", monkeypatch)
    corpus = _load("corpus", monkeypatch)
    problems = [p for p in corpus.build("ra_eval", seed) if p["kind"] == "ra"]
    assert len(problems) > 100
    schema = corpus.RA_SCHEMA
    queries = {reference.write(p["query"]) for p in problems}
    for text in sorted(queries):
        expr, _gamma = compile_ra(parse(text, "ra"), schema)
        assert print_expr(expr) == sexpr.write(oracles.to_sexpr(expr)), text
    for p in problems:
        db = {r: [tuple(row) for row in rows] for r, rows in p["db"].items()}
        want = {r: oracles.encode_relation(db[r], schema[r]) for r in schema}
        assert json.dumps(env_to_json(encode_db(db, schema))) == \
            json.dumps(env_to_json(want)), p["id"]
