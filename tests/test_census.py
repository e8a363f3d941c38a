"""Nothing nrcx builds for a request is left to the cyclic collector.

Values are never written after they are built, and no helper refers to
itself through a closure, so reference counting frees every object of a
request.  The census runs requests through ``cli.main`` with the
collector off and ``gc.DEBUG_SAVEALL`` on; ``gc.collect()`` then puts
every unreachable object in ``gc.garbage``, and none may come from
nrcx.
"""

import ast
import gc
import json
import types
from collections import Counter
from pathlib import Path

import nrcx
from nrcx import cli, values
from nrcx.frontend import parse, print_expr
from nrcx.rx import eval_rx
from nrcx.translate import compile_ra, encode_db
from nrcx.values import Atom, VSet, env_to_json

SRC = Path(nrcx.__file__).resolve().parent


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _requests(tmp_path):
    schema = {"R": ("A", "B"), "S": ("A", "B")}
    query = parse("(diff (rel R) (rel S))", "ra")
    expr, _ = compile_ra(query, schema)
    db = {"R": [("a", "b"), ("b", "c"), ("c", "a")],
          "S": [("b", "c"), ("c", "c")]}
    schema_text = "((R (A B)) (S (A B)))"
    return [
        ["eval", _write(tmp_path, "q.sexpr", print_expr(expr)),
         _write(tmp_path, "db.json",
                json.dumps(env_to_json(encode_db(db, schema)))),
         "--lang", "rx"],
        ["check", _write(tmp_path, "pen.sexpr",
                         "(for x R (for y x (ifeq z y (fst z) (sing y))))"),
         "--lang", "penrc", "--mode", "welldef",
         "--gamma", _write(tmp_path, "pen.gamma",
                           "((R (coll (coll (atom)))) (z (atom)))")],
        ["check", _write(tmp_path, "pure.sexpr", "(name x)"),
         "--lang", "pure-rx", "--mode", "welldef",
         "--gamma", _write(tmp_path, "pure.gamma", "((x (coll (elem))))")],
        ["translate", _write(tmp_path, "tr.sexpr",
                             "(for y (kind-elem) x (children y))")],
        ["compile-ra", _write(tmp_path, "ra.sexpr",
                              "(diff (project (A) (rel R)) "
                              "(project (A) (rel S)))"),
         "--schema", _write(tmp_path, "schema.sexpr", schema_text)],
    ]


def _from_nrcx(o):
    if isinstance(o, (types.FunctionType, types.GeneratorType)):
        code = o.__code__ if isinstance(o, types.FunctionType) else o.gi_code
        return Path(code.co_filename).resolve().parent == SRC
    return type(o).__module__.split(".")[0] == "nrcx"


def test_requests_leave_no_nrcx_garbage(tmp_path, capsys):
    requests = _requests(tmp_path)
    codes = [cli.main(argv) for argv in requests]  # compile on first use
    out = capsys.readouterr().out
    assert codes == [0, 4, 4, 0, 0], out
    for verdict in out.splitlines()[1:3]:  # both checks search
        assert json.loads(verdict)["bounds"]["examined"] > 0
    gc.collect()
    was_enabled, flags = gc.isenabled(), gc.get_debug()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for argv in requests:
            cli.main(argv)
        gc.collect()
        left = [o for o in gc.garbage if _from_nrcx(o)]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    capsys.readouterr()
    assert not left, Counter(type(o).__name__ for o in left)


def test_no_nested_function_calls_itself_at_request_time():
    # Such a helper is a function -> cell -> function cycle per call of
    # its enclosing function.  The readers and printers that the
    # frontend builds once, at import, are the exceptions.
    built_at_import = {("frontend.py", "write"), ("frontend.py", "read"),
                       ("frontend.py", "build")}
    found = set()

    def visit(node, nested, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                names = {n.id for n in ast.walk(child)
                         if isinstance(n, ast.Name)}
                if nested and child.name in names:
                    found.add((path.name, child.name))
                visit(child, True, path)
            else:
                visit(child, nested, path)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), False, path)
    assert found == built_at_import


def test_nested_for_builds_one_singleton_per_element(monkeypatch):
    # Each element of R and of S is bound as its singleton, and the
    # inner loop's reruns reuse the singletons of S.
    built = []
    init, sorted_vset = VSet.__init__, values._sorted_vset

    def counting_init(self, elems=()):
        init(self, elems)
        built.append(self)

    def counting_sorted(elems):
        s = sorted_vset(elems)
        built.append(s)
        return s

    sigma = {"R": VSet(Atom(f"r{i}") for i in range(3)),
             "S": VSet(Atom(f"s{i}") for i in range(4))}
    expr = parse("(for x (kind-any) R (for y (kind-any) S y))", "rx")
    monkeypatch.setattr(VSet, "__init__", counting_init)
    monkeypatch.setattr(values, "_sorted_vset", counting_sorted)
    out = eval_rx(expr, sigma)
    assert out.value == sigma["S"]
    assert sum(len(s) == 1 for s in built) == 7
