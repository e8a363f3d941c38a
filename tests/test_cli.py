import hashlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import nrcx.decide
from nrcx import cli
from nrcx.cli import main
from nrcx.frontend import parse, print_expr
from nrcx.rx import eval_pure_rx, eval_rx
from nrcx.sexpr import read
from nrcx.sexpr import write as write_sexpr
from nrcx.translate import decode_relation, encode_db, translate_expr
from nrcx.values import Atom, DataNode, env_from_json, vset

from oracles import to_sexpr


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# --- eval ------------------------------------------------------------------


def test_eval_empty_sequence(tmp_path, capsys):
    expr = write(tmp_path, "e.sexpr", "(empty)")
    env = write(tmp_path, "env.json", "{}")
    code, out, _ = run(capsys, "eval", expr, env, "--lang", "rx")
    assert code == 0
    assert json.loads(out) == {"set": []}


def test_eval_undefined_exit_3(tmp_path, capsys):
    expr = write(tmp_path, "e.sexpr",
                 "(for x R (for y x (ifeq z y (fst z) (sing y))))")
    env = write(tmp_path, "env.json", json.dumps({
        "R": {"set": [{"set": [{"atom": "a"}, {"atom": "b"}]},
                      {"set": [{"atom": "c"}]},
                      {"set": [{"atom": "a"}, {"atom": "b"},
                               {"atom": "d"}]}]},
        "z": {"atom": "d"}}))
    code, out, _ = run(capsys, "eval", expr, env, "--lang", "penrc")
    assert code == 3
    payload = json.loads(out)
    assert payload["undefined"] == "proj-on-nonpair"
    assert payload["at"] == "(fst z)"


def test_eval_rx_cond_undefined_exit_3(tmp_path, capsys):
    # cond is sugar for ifeq, so the failing form is the ifeq it becomes,
    # as in pure RX.
    expr = write(tmp_path, "e.sexpr", "(cond (eq x y) x x)")
    env = write(tmp_path, "env.json",
                json.dumps({"x": {"set": []}, "y": {"set": []}}))
    for lang in ("rx", "pure-rx"):
        got = run(capsys, "eval", expr, env, "--lang", lang)
        reason = ("eq-not-singleton-atom" if lang == "rx"
                  else "eq-on-nonatom")
        assert got == (3, json.dumps({"undefined": reason,
                                      "at": "(ifeq x y x x)"}) + "\n", "")


def test_eval_missing_binding_exit_1(tmp_path, capsys):
    expr = write(tmp_path, "e.sexpr", "(seq x y)")
    env = write(tmp_path, "env.json", json.dumps({"x": {"set": []}}))
    code, out, err = run(capsys, "eval", expr, env, "--lang", "rx")
    assert code == 1
    assert "y" in err


def test_eval_names_unbound_variables_before_checking_bindings(tmp_path,
                                                                capsys):
    # y is unbound even though its branch does not run, and the unbound
    # names are reported before the out-of-domain binding z.
    expr = write(tmp_path, "e.sexpr",
                 "(seq (ifeq (lit a) (lit b) y (empty)) x)")
    env = write(tmp_path, "env.json", "{}")
    got = run(capsys, "eval", expr, env, "--lang", "pure-rx")
    assert got == (1, "", "error: unbound variables: x, y\n")
    env = write(tmp_path, "env.json", json.dumps(
        {"x": {"atom": "a"}, "z": {"pair": [{"atom": "a"}, {"atom": "b"}]}}))
    got = run(capsys, "eval", expr, env, "--lang", "pure-rx")
    assert got == (1, "", "error: unbound variables: y\n")


def test_eval_parse_error_exit_1(tmp_path, capsys):
    expr = write(tmp_path, "e.sexpr", "(seq x")
    env = write(tmp_path, "env.json", "{}")
    code, _, err = run(capsys, "eval", expr, env, "--lang", "rx")
    assert code == 1 and err


def test_eval_oracle_selection(tmp_path, capsys):
    expr = write(tmp_path, "e.sexpr", "(data x)")
    env = write(tmp_path, "env.json", json.dumps(
        {"x": {"set": [{"elem": {"name": "a", "children": []}}]}}))
    _, out_default, _ = run(capsys, "eval", expr, env, "--lang", "rx")
    _, out_alt, _ = run(capsys, "eval", expr, env, "--lang", "rx",
                        "--oracle", "alt")
    assert out_default != out_alt


def test_eval_rx_rejects_non_set_binding_exit_1(tmp_path, capsys):
    expr = write(tmp_path, "e.sexpr", "(children x)")
    env = write(tmp_path, "env.json", json.dumps({"x": {"atom": "a"}}))
    code, out, err = run(capsys, "eval", expr, env, "--lang", "rx")
    assert code == 1 and out == ""
    assert err.startswith("error: binding x is not an RX value")



def test_eval_pure_rx_rejects_pair_binding_exit_1(tmp_path, capsys):
    expr = write(tmp_path, "e.sexpr", "x")
    env = write(tmp_path, "env.json", json.dumps(
        {"x": {"set": [{"pair": [{"atom": "a"}, {"atom": "b"}]}]}}))
    got = run(capsys, "eval", expr, env, "--lang", "pure-rx")
    assert got == (1, "", "error: binding x is not a pure RX value "
                          "(an item or a set of items)\n")


def test_eval_penrc_rejects_data_binding_exit_1(tmp_path, capsys):
    expr = write(tmp_path, "e.sexpr", "(sing x)")
    env = write(tmp_path, "env.json", json.dumps({"x": {"data": "a"}}))
    got = run(capsys, "eval", expr, env, "--lang", "penrc")
    assert got == (1, "", "error: binding x is not an NRC value "
                          "(atoms, pairs and sets)\n")


@pytest.mark.parametrize("text,shown", [("[1, 2]", "[1, 2]"),
                                        ('"x"', "'x'")])
def test_eval_env_not_an_object_exit_1(tmp_path, capsys, text, shown):
    expr = write(tmp_path, "e.sexpr", "(empty)")
    env = write(tmp_path, "env.json", text)
    got = run(capsys, "eval", expr, env, "--lang", "rx")
    assert got == (1, "", f"error: {env}: malformed environment: "
                          f"not a JSON object: {shown}\n")


def test_eval_non_string_atom_token_exit_1(tmp_path, capsys):
    expr = write(tmp_path, "e.sexpr", "(sing x)")
    env = write(tmp_path, "env.json", json.dumps({"x": {"atom": [1]}}))
    got = run(capsys, "eval", expr, env, "--lang", "penrc")
    assert got == (1, "", f"error: {env}: malformed environment: "
                          "atom token must be a nonempty string: [1]\n")


@pytest.mark.parametrize("value", [
    {"elem": {"name": "a"}},
    {"elem": {"name": "a", "children": [], "x": []}},
    {"elem": {"name": "a", "children": {"data": "b"}}},
    {"elem": [{"atom": "a"}]},
    {"pair": [{"atom": "a"}]},
    {"pair": [{"atom": "a"}, {"atom": "b"}, {"atom": "c"}]},
    {"pair": {"atom": "a"}},
    {"set": {"atom": "a"}},
    {"set": "a"},
])
def test_eval_malformed_value_quotes_the_part_exit_1(tmp_path, capsys, value):
    expr = write(tmp_path, "e.sexpr", "x")
    env = write(tmp_path, "env.json",
                json.dumps({"x": {"set": [{"atom": "a"}, value]}}))
    got = run(capsys, "eval", expr, env, "--lang", "penrc")
    assert got == (1, "", f"error: {env}: malformed environment: "
                          f"malformed value JSON: {value!r}\n")


# --- check -----------------------------------------------------------------


def test_check_welldef_counterexample_exit_4(tmp_path, capsys):
    expr = write(tmp_path, "e.sexpr", "(fst x)")
    gamma = write(tmp_path, "gamma.sexpr", "((x (coll (atom))))")
    code, out, _ = run(capsys, "check", expr, "--lang", "penrc",
                       "--mode", "welldef", "--gamma", gamma)
    assert code == 4
    verdict = json.loads(out)
    assert verdict["result"] is False
    assert verdict["counterexample"] == {"x": {"set": []}}
    assert set(verdict["bounds"]) == {"card", "atoms", "examined"}


def test_check_welldef_holds_exit_0(tmp_path, capsys):
    expr = write(tmp_path, "e.sexpr", "(fst x)")
    gamma = write(tmp_path, "gamma.sexpr", "((x (prod (atom) (atom))))")
    code, out, _ = run(capsys, "check", expr, "--lang", "penrc",
                       "--mode", "welldef", "--gamma", gamma)
    assert code == 0
    assert json.loads(out)["result"] is True


def test_check_type_empty_against_empty_coll(tmp_path, capsys):
    expr = write(tmp_path, "e.sexpr", "(empty)")
    gamma = write(tmp_path, "gamma.sexpr", "()")
    tau = write(tmp_path, "tau.sexpr", "(coll (void))")
    code, out, _ = run(capsys, "check", expr, "--lang", "penrc",
                       "--mode", "type", "--gamma", gamma, "--type", tau)
    assert code == 0 and json.loads(out)["result"] is True


def test_check_sat_of_empty_exit_4(tmp_path, capsys):
    expr = write(tmp_path, "e.sexpr", "(empty)")
    gamma = write(tmp_path, "gamma.sexpr", "()")
    code, out, _ = run(capsys, "check", expr, "--lang", "penrc",
                       "--mode", "sat", "--gamma", gamma)
    assert code == 4 and json.loads(out)["result"] is False


def test_check_pure_rx_sat_witness_exit_0(tmp_path, capsys):
    expr = write(tmp_path, "e.sexpr", "(data x)")
    gamma = write(tmp_path, "gamma.sexpr", "((x (coll (data))))")
    code, out, _ = run(capsys, "check", expr, "--lang", "pure-rx",
                       "--mode", "sat", "--gamma", gamma)
    assert code == 0
    verdict = json.loads(out)
    assert verdict["result"] is True
    witness = env_from_json(verdict["counterexample"])
    outcome = eval_pure_rx(parse("(data x)", "pure-rx"), witness)
    assert outcome.is_defined and len(outcome.value) > 0


def test_check_pure_rx_unsat_exit_4(tmp_path, capsys):
    expr = write(tmp_path, "e.sexpr", "(children x)")
    gamma = write(tmp_path, "gamma.sexpr", "((x (coll (data))))")
    code, out, _ = run(capsys, "check", expr, "--lang", "pure-rx",
                       "--mode", "sat", "--gamma", gamma)
    verdict = json.loads(out)
    assert code == 4
    assert verdict["result"] is False and verdict["counterexample"] is None


def test_check_type_precondition_exit_1(tmp_path, capsys):
    expr = write(tmp_path, "e.sexpr", "(fst x)")
    gamma = write(tmp_path, "gamma.sexpr", "((x (coll (atom))))")
    tau = write(tmp_path, "tau.sexpr", "(atom)")
    code, _, err = run(capsys, "check", expr, "--lang", "penrc",
                       "--mode", "type", "--gamma", gamma, "--type", tau)
    assert code == 1 and "not well defined" in err


def test_check_budget_exit_5(tmp_path, capsys):
    # The dead branch (fst (fst x)) keeps the static certificate from
    # proving the expression defined, so the search runs.
    expr = write(tmp_path, "e.sexpr",
                 "(for x R (ifeq (fst x) (fst x) (fst x) (fst (fst x))))")
    gamma = write(tmp_path, "gamma.sexpr",
                  "((R (coll (prod (atom) (atom)))))")
    code, _, err = run(capsys, "check", expr, "--lang", "penrc",
                       "--mode", "welldef", "--gamma", gamma,
                       "--max-envs", "2")
    assert code == 5 and "budget" in err


@pytest.mark.parametrize("flag, value", [
    ("--max-envs", "-1"), ("--max-envs", "0"), ("--timeout", "nan"),
    ("--timeout", "inf"), ("--timeout", "0"), ("--timeout", "-2"),
])
def test_check_rejects_budget_options_out_of_range_exit_1(tmp_path, capsys,
                                                         flag, value):
    # A budget below 1 used to exit 5, and a NaN timeout turned the
    # timeout off, since every comparison with NaN is false.
    expr = write(tmp_path, "e.sexpr", "x")
    gamma = write(tmp_path, "gamma.sexpr", "((x (atom)))")
    code, out, err = run(capsys, "check", expr, "--lang", "penrc",
                         "--mode", "welldef", "--gamma", gamma, flag, value)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {flag}: {value}"), err


@pytest.mark.parametrize("argv", [
    ["check", "e.sexpr", "--lang", "foo", "--mode", "welldef",
     "--gamma", "g.sexpr"],
    ["check", "e.sexpr", "--lang", "penrc", "--mode", "welldef",
     "--gamma", "g.sexpr", "--max-envs", "abc"],
    ["check", "e.sexpr", "--lang", "penrc"],
    ["frobnicate"],
    [],
])
def test_argument_errors_exit_1(capsys, argv):
    # Usage errors exit 1, argparse's errors included (it exits 2).
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "error: " in captured.err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--help"])
    assert exc.value.code == 0
    assert "--max-envs" in capsys.readouterr().out


def test_check_equi_join_holds_statically(tmp_path, capsys):
    expr = write(tmp_path, "e.sexpr",
                 "(for r R (for s S (ifeq (snd r) (fst s) "
                 "(sing (pair (fst r) (snd s))) (empty))))")
    gamma = write(tmp_path, "gamma.sexpr",
                  "((R (coll (prod (atom) (atom)))) "
                  "(S (coll (prod (atom) (atom)))))")
    got = run(capsys, "check", expr, "--lang", "penrc", "--mode", "welldef",
              "--gamma", gamma)
    assert got == (0, '{"result": true, "counterexample": null, "bounds": '
                      '{"card": 8, "atoms": 32, "examined": 0}}\n', "")


def test_check_pure_rx_language(tmp_path, capsys):
    expr = write(tmp_path, "e.sexpr", "(sing x)")
    gamma = write(tmp_path, "gamma.sexpr", "((x (atom)))")
    tau = write(tmp_path, "tau.sexpr", "(coll (atom))")
    code, out, _ = run(capsys, "check", expr, "--lang", "pure-rx",
                       "--mode", "type", "--gamma", gamma, "--type", tau)
    assert code == 0 and json.loads(out)["result"] is True


def test_check_no_prune_same_verdict(tmp_path, capsys):
    expr = write(tmp_path, "e.sexpr", "(fst x)")
    gamma = write(tmp_path, "gamma.sexpr", "((x (coll (atom))))")
    base = run(capsys, "check", expr, "--lang", "penrc", "--mode", "welldef",
               "--gamma", gamma)
    nop = run(capsys, "check", expr, "--lang", "penrc", "--mode", "welldef",
              "--gamma", gamma, "--no-prune")
    assert base[0] == nop[0] == 4
    assert json.loads(base[1])["counterexample"] == \
        json.loads(nop[1])["counterexample"]


def _check_x(tmp_path, capsys, lang, mode, gamma, tau=None):
    argv = ["check", write(tmp_path, "e.sexpr", "x"), "--lang", lang,
            "--mode", mode, "--gamma", write(tmp_path, "gamma.sexpr", gamma)]
    if tau is not None:
        argv += ["--type", write(tmp_path, "type.sexpr", tau)]
    return run(capsys, *argv)


def test_check_gamma_declared_twice_exit_1(tmp_path, capsys):
    got = _check_x(tmp_path, capsys, "penrc", "welldef",
                   "((x (atom)) (x (coll (atom))))")
    gamma = tmp_path / "gamma.sexpr"
    assert got == (1, "", f"error: {gamma}: variable x declared twice\n")


def test_check_pure_rx_kind_outside_domain_exit_1(tmp_path, capsys):
    expr = write(tmp_path, "e.sexpr", "(for v (kind-coll) x x)")
    gamma = write(tmp_path, "gamma.sexpr", "((x (coll (atom))))")
    got = run(capsys, "check", expr, "--lang", "pure-rx", "--mode",
              "welldef", "--gamma", gamma)
    assert got == (1, "", f"error: {expr}: not a pure RX kind: (kind-coll)\n")


def test_check_pure_rx_gamma_outside_domain_exit_1(tmp_path, capsys):
    got = _check_x(tmp_path, capsys, "pure-rx", "welldef",
                   "((x (prod (atom) (atom))))")
    assert got == (1, "", "error: type of x is not a pure RX type: "
                          "(prod (atom) (atom))\n")


@pytest.mark.parametrize("gamma", ["(coll (coll (atom)))", "(elem (atom))"])
def test_check_pure_rx_gamma_outside_grammar_exit_1(tmp_path, capsys, gamma):
    # A set of sets, or element content that is not a union of node
    # types, has values off the image of the encoding.
    got = _check_x(tmp_path, capsys, "pure-rx", "welldef",
                   f"((x {gamma}))")
    assert got == (1, "", f"error: type of x is not a pure RX type: {gamma}\n")


def test_check_enumeration_budget_in_surface_syntax_exit_5(tmp_path, capsys):
    # (name x), on a set, is never reached, but the static certificate
    # cannot tell, so the search runs at the same bounds.
    expr = write(tmp_path, "e.sexpr",
                 "(for v (kind-elem) x (ifeq (name v) (name v) "
                 "(sing (text (name v))) (name x)))")
    gamma = write(tmp_path, "gamma.sexpr", "((x (coll (elem (data)))))")
    got = run(capsys, "check", expr, "--lang", "pure-rx", "--mode",
              "welldef", "--gamma", gamma)
    assert got == (5, "", "budget exceeded: enumeration of (prod (atom) "
                          "(coll (prod (prod (atom) (atom)) (coll (void))))) "
                          "exceeds budget 1000000\n")


def test_check_penrc_gamma_outside_domain_exit_1(tmp_path, capsys):
    got = _check_x(tmp_path, capsys, "penrc", "welldef",
                   "((x (single (atom))))")
    assert got == (1, "", "error: type of x is not an NRC type: "
                          "(single (atom))\n")


def test_check_penrc_type_outside_domain_exit_1(tmp_path, capsys):
    got = _check_x(tmp_path, capsys, "penrc", "type", "((x (atom)))",
                   "(data)")
    assert got == (1, "", "error: output type is not an NRC type: (data)\n")


def test_check_pure_rx_type_outside_domain_exit_1(tmp_path, capsys):
    got = _check_x(tmp_path, capsys, "pure-rx", "type",
                   "((x (coll (atom))))", "(prod (atom) (atom))")
    assert got == (1, "", "error: output type is not a pure RX type: "
                          "(prod (atom) (atom))\n")


@pytest.mark.parametrize("gamma,tau,message", [
    ("((x (elem (coll (data)))))", None,
     "type of x is not a pure RX type: (elem (coll (data)))"),
    ("((x (coll (atom))))", "(coll (elem (single (atom))))",
     "output type is not a pure RX type: (coll (elem (single (atom))))"),
])
def test_check_pure_rx_set_based_element_type_exit_1(tmp_path, capsys,
                                                     gamma, tau, message):
    # Reported as every other type outside the pure RX domain is.
    got = _check_x(tmp_path, capsys, "pure-rx",
                   "welldef" if tau is None else "type", gamma, tau)
    assert got == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("command,depth", [("parse", 600), ("check", 3000)])
def test_deep_nesting_exit_1(tmp_path, capsys, command, depth):
    expr = write(tmp_path, "e.sexpr",
                 "(sing " * depth + "(empty)" + ")" * depth)
    argv = [command, expr, "--lang", "penrc"]
    if command == "check":
        argv += ["--mode", "welldef",
                 "--gamma", write(tmp_path, "gamma.sexpr", "()")]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", "error: expression nested too deeply\n")


def test_deep_rx_chain_prints(tmp_path, capsys):
    # The printer walks as deep as the parser reads.
    depth = 400
    text = "(text " * depth + "(empty)" + ")" * depth
    got = run(capsys, "parse", write(tmp_path, "e.sexpr", text), "--lang", "rx")
    assert got == (0, text + "\n", "")


@pytest.mark.parametrize("depth", [400, 700])
@pytest.mark.parametrize("lang,form,chain,end", [
    ("rx", "(iftype x {} x x)", "(coll ", "(atom)"),
    ("penrc", "(ifkind x {} x x)", "(kind-sum (kind-atom) ", "(kind-coll)"),
])
def test_deep_type_and_kind_print_back(tmp_path, capsys, depth, lang, form,
                                       chain, end):
    # Types and kinds are read and printed at one stack frame a level:
    # at two a level, neither would pass 500 levels.
    text = form.format(chain * depth + end + ")" * depth)
    got = run(capsys, "parse", write(tmp_path, "e.sexpr", text), "--lang", lang)
    assert got == (0, text + "\n", "")


def test_deep_gamma_type_checks(tmp_path, capsys):
    depth = 400
    gamma = write(tmp_path, "gamma.sexpr",
                  "((x " + "(coll " * depth + "(atom)" + ")" * depth + "))")
    code, _, err = run(capsys, "check", write(tmp_path, "e.sexpr", "x"),
                       "--lang", "penrc", "--mode", "welldef",
                       "--gamma", gamma)
    assert (code, err) == (0, "")


def test_deep_translation_prints(tmp_path, capsys):
    # The translation nests about twice as deep as the chain it reads;
    # the printer takes one stack frame a level, so it prints it.
    depth = 400
    text = "(children " * depth + "x" + ")" * depth
    code, out, err = run(capsys, "translate", write(tmp_path, "e.sexpr", text))
    assert (code, err) == (0, "")
    want = translate_expr(parse(text, "pure-rx"))
    assert out == write_sexpr(to_sexpr(want)) + "\n"


def test_deep_environment_loads_and_prints_back(tmp_path, capsys):
    depth = 400
    value = '{"set": [' * depth + "]}" * depth
    env = write(tmp_path, "env.json", '{"x": ' + value + "}")
    got = run(capsys, "eval", write(tmp_path, "e.sexpr", "x"), env,
              "--lang", "penrc")
    assert got == (0, value + "\n", "")


def test_env_nested_too_deeply_exit_1(tmp_path, capsys):
    depth = 1500
    expr = write(tmp_path, "e.sexpr", "x")
    env = write(tmp_path, "env.json",
                '{"x": ' + '{"set": [' * depth + "]}" * depth + "}")
    got = run(capsys, "eval", expr, env, "--lang", "penrc")
    assert got == (1, "", f"error: {env}: malformed environment: "
                          "nested too deeply\n")


def test_deep_gamma_type_exit_1(tmp_path, capsys):
    # The reader reads any depth; the type builder is what recurses, and
    # the file it reads is named, not the expression.
    depth = 3000
    deep = "(coll " * depth + "(atom)" + ")" * depth
    expr = write(tmp_path, "e.sexpr", "x")
    gamma = write(tmp_path, "gamma.sexpr", f"((x {deep}))")
    got = run(capsys, "check", expr, "--lang", "penrc", "--mode", "welldef",
              "--gamma", gamma)
    assert got == (1, "", f"error: {gamma}: type of x nested too deeply\n")
    tau = write(tmp_path, "tau.sexpr", deep)
    got = run(capsys, "check", expr, "--lang", "penrc", "--mode", "type",
              "--gamma", write(tmp_path, "g.sexpr", "((x (atom)))"),
              "--type", tau)
    assert got == (1, "", f"error: {tau}: nested too deeply\n")


def test_deep_schema_and_dependency_files_exit_1(tmp_path, capsys):
    deep = "(" * 3000 + "a" + ")" * 3000
    schema = write(tmp_path, "schema.sexpr", f"((R {deep}))")
    got = run(capsys, "compile-ra", write(tmp_path, "q.sexpr", "(rel R)"),
              "--schema", schema)
    assert got == (1, "", f"error: {schema}: schema entry must be "
                          "(name (attrs...))\n")
    rho = write(tmp_path, "rho.sexpr", f"(fd ({deep}) (B))")
    got = run(capsys, "reduce-deps", "--rho", rho, "--arity", "2",
              "--out-dir", str(tmp_path / "red"))
    assert got == (1, "", f"error: {rho}: expected an attribute, got "
                          f"'{'(' * 77}...'\n")


@pytest.mark.parametrize("command,lang,template,what", [
    ("parse", "ra", "({} x)", "relational form"),
    ("parse", "rx", "(cond ({} x) y z)", "condition"),
    ("reduce-deps", None, "({} (A) (B))", "dependency"),
])
def test_deep_head_is_malformed_exit_1(tmp_path, capsys, command, lang,
                                       template, what):
    # A head that is not a symbol is named by the form, cut short, at
    # any depth.
    text = template.format("(" * 1000 + "a" + ")" * 1000)
    path = write(tmp_path, "e.sexpr", text)
    if command == "parse":
        argv = ["parse", path, "--lang", lang]
    else:
        argv = ["reduce-deps", "--rho", path, "--arity", "2",
                "--out-dir", str(tmp_path / "red")]
    got = run(capsys, *argv)
    assert got == (1, "", f"error: {path}: malformed {what} "
                          f"'{'(' * 77}...'\n")


# One problem per line: (lang, mode, expr, gamma, output type or None).
# Every (lang, mode) pair, with a counterexample, a sat witness, an unsat
# verdict and a failed well-definedness precondition among them.
PINNED_CHECKS = [
    ("penrc", "welldef", "(fst x)", "((x (coll (atom))))", None),
    ("penrc", "welldef", "(for r R (pair (snd r) (fst r)))",
     "((R (coll (prod (atom) (atom)))))", None),
    ("penrc", "type", "(sing x)", "((x (atom)))", "(coll (atom))"),
    ("penrc", "type", "x", "((x (coll (atom))))", "(coll (void))"),
    ("penrc", "type", "(fst x)", "((x (coll (atom))))", "(atom)"),
    ("penrc", "sat", "(empty)", "()", None),
    ("penrc", "sat", "(for a x (sing a))", "((x (coll (atom))))", None),
    ("penrc", "sat", "(fst x)", "((x (coll (atom))))", None),
    ("pure-rx", "welldef", "(name x)", "((x (data)))", None),
    ("pure-rx", "welldef", "(data x)", "((x (coll (data))))", None),
    ("pure-rx", "type", "(seq x y)",
     "((x (coll (sum (atom) (data)))) (y (coll (sum (atom) (data)))))",
     "(coll (data))"),
    ("pure-rx", "type", "(text x)", "((x (coll (atom))))", "(atom)"),
    ("pure-rx", "type", "(sing x)", "((x (atom)))", "(coll (atom))"),
    ("pure-rx", "sat", "(data x)", "((x (coll (data))))", None),
    ("pure-rx", "sat", "(children x)", "((x (coll (data))))", None),
]
PINNED_CHECKS_SHA256 = \
    "45c5b65584ffca3dd2bfd227aaaedb97d14f5b44ec1294f381f023dca03c01f0"


def test_check_output_is_pinned(tmp_path, capsys):
    # Exit codes, stdout and stderr of `nrcx check` on a fixed problem
    # list, recorded before the six decision procedures became calls of
    # one `decide`.  Two pure-RX `examined` counts were re-recorded (15 to
    # 3) when the translated types came to hold only encodings; the
    # verdicts are checked against the encoded route in
    # test_pure_route.py.  Six `examined` counts were re-recorded as 0
    # when the static certificate came to decide those problems (three
    # holding penrc verdicts, two holding pure-RX verdicts and one
    # unsatisfiable one); their verdicts and bounds are unchanged.  The
    # bytes did not change when the type-domain check and the
    # well-definedness precondition moved from the CLI into `decide`.
    transcript = []
    for lang, mode, expr, gamma, tau in PINNED_CHECKS:
        argv = ["check", write(tmp_path, "e.sexpr", expr), "--lang", lang,
                "--mode", mode, "--gamma", write(tmp_path, "g.sexpr", gamma)]
        if tau is not None:
            argv += ["--type", write(tmp_path, "t.sexpr", tau)]
        code, out, err = run(capsys, *argv)
        transcript.append(f"{code}\n{out}{err}")
    digest = hashlib.sha256("".join(transcript).encode()).hexdigest()
    assert digest == PINNED_CHECKS_SHA256, transcript


def test_check_pure_rx_precondition_is_pinned(tmp_path, capsys):
    # Exit code, stdout and stderr of a pure-RX type and sat check whose
    # expression is not well defined, recorded while `nrcx check` still
    # decided the precondition with a `decide` call of its own.
    expected = (1, "", "error: precondition failed: expression is not "
                "well defined; counterexample: {\"result\": false, "
                "\"counterexample\": {\"x\": {\"data\": \"@0\"}}, "
                "\"bounds\": {\"card\": 1, \"atoms\": 2, "
                "\"examined\": 1}}\n")
    expr = write(tmp_path, "e.sexpr", "(name x)")
    gamma = write(tmp_path, "g.sexpr", "((x (data)))")
    tau = write(tmp_path, "t.sexpr", "(atom)")
    for extra in (["--mode", "type", "--type", tau], ["--mode", "sat"]):
        got = run(capsys, "check", expr, "--lang", "pure-rx",
                  "--gamma", gamma, *extra)
        assert got == expected, extra


def test_check_translates_and_certifies_once(tmp_path, capsys, monkeypatch):
    # One check translates e once and each type once, and makes each
    # whole-tree pass over e once: one certificate evaluation, one
    # top-level free_vars walk and one literals walk.  So does a check
    # whose expression the certificate cannot prove defined, which then
    # decides well-definedness by the search before the type search.
    names = ["translate_expr", "translate_type", "certify", "free_vars",
             "literals"]
    calls = {}
    for name in names:
        def counted(*args, _f=getattr(nrcx.decide, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(nrcx.decide, name, counted)
    tau = write(tmp_path, "t.sexpr", "(coll (atom))")
    atom = write(tmp_path, "a.sexpr", "(atom)")
    for src, x_type, extra, code in [
            ("(sing x)", "(atom)", ["--mode", "type", "--type", tau], 0),
            ("(name x)", "(data)", ["--mode", "type", "--type", atom], 1),
            ("(name x)", "(data)", ["--mode", "sat"], 1)]:
        calls.update(dict.fromkeys(names, 0))
        expr = write(tmp_path, "e.sexpr", src)
        gamma = write(tmp_path, "g.sexpr", f"((x {x_type}))")
        got, _, _ = run(capsys, "check", expr, "--lang", "pure-rx",
                        "--gamma", gamma, *extra)
        assert got == code, (src, extra)
        assert calls == {"translate_expr": 1, "translate_type": 2,
                         "certify": 1, "free_vars": 1, "literals": 1}, extra


# --- parse and translate ---------------------------------------------------


def test_parse_reprints_canonically(tmp_path, capsys):
    expr = write(tmp_path, "e.sexpr", "(seq  x ( empty ))")
    code, out, _ = run(capsys, "parse", expr, "--lang", "rx")
    assert code == 0 and out.strip() == "(seq x (empty))"


def test_translate_children(tmp_path, capsys):
    expr = write(tmp_path, "e.sexpr", "(children x)")
    code, out, _ = run(capsys, "translate", expr)
    assert code == 0
    got = parse(out.strip(), "penrc")
    assert got == __import__("nrcx").translate.translate_expr(
        parse("(children x)", "pure-rx"))


SING_25 = "(sing " * 25 + "(empty)" + ")" * 25
SING_25_TOO_LONG = ("budget exceeded: the translation is 5637144415 "
                    "characters long, over the limit of 33554432\n")


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_translation_too_long_exits_5_in_small_memory(tmp_path):
    # A 25-deep (sing ...) chain translates to a shared tree whose text
    # would be about 5.6 GB; its length is counted, nothing is written.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "nrcx.cli", "translate",
         write(tmp_path, "e.sexpr", SING_25)],
        env=env, capture_output=True, text=True, timeout=20,
        preexec_fn=_limit_address_space)
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (5, "", SING_25_TOO_LONG)


def test_translation_at_the_limit_prints(tmp_path, capsys, monkeypatch):
    expr = write(tmp_path, "e.sexpr", "(sing (sing (children x)))")
    text = print_expr(translate_expr(parse("(sing (sing (children x)))",
                                           "pure-rx")))
    monkeypatch.setattr(cli, "MAX_TRANSLATION_CHARS", len(text))
    assert run(capsys, "translate", expr) == (0, text + "\n", "")
    monkeypatch.setattr(cli, "MAX_TRANSLATION_CHARS", len(text) - 1)
    code, out, err = run(capsys, "translate", expr)
    assert (code, out) == (5, "")
    assert err.startswith(f"budget exceeded: the translation is {len(text)} ")


def test_translate_rejects_emptiness(tmp_path, capsys):
    expr = write(tmp_path, "e.sexpr", "(ifempty x y x)")
    code, _, err = run(capsys, "translate", expr)
    assert code == 1 and err


# --- compile-ra ------------------------------------------------------------


def test_compile_ra_union_runs(tmp_path, capsys):
    expr = write(tmp_path, "q.sexpr",
                 "(ra-union (rel R) (rename D B (rename C A (rel S))))")
    schema = write(tmp_path, "schema.sexpr", "((R (A B)) (S (C D)))")
    gout = str(tmp_path / "gamma.sexpr")
    code, out, _ = run(capsys, "compile-ra", expr, "--schema", schema,
                       "--gamma-out", gout)
    assert code == 0
    compiled = parse(out.strip(), "rx")
    db = {"R": {("1", "2")}, "S": {("3", "4")}}
    sch = {"R": ("A", "B"), "S": ("C", "D")}
    result = eval_rx(compiled, encode_db(db, sch))
    assert result.is_defined
    assert decode_relation(result.value, ("A", "B")) == \
        frozenset({("1", "2"), ("3", "4")})
    assert "(coll" in (tmp_path / "gamma.sexpr").read_text()


def test_compile_ra_schema_error_exit_1(tmp_path, capsys):
    expr = write(tmp_path, "q.sexpr", "(project (Z) (rel R))")
    schema = write(tmp_path, "schema.sexpr", "((R (A B)))")
    code, _, err = run(capsys, "compile-ra", expr, "--schema", schema)
    assert code == 1 and err


@pytest.mark.parametrize("text,message", [
    ("((R (A B)) (R (C D)))", "relation R declared twice"),
    ("((R (A A)))", "relation R repeats an attribute"),
    ("((R ((A) B)))", "schema entry must be (name (attrs...))"),
    ("(((R) (A B)))", "schema entry must be (name (attrs...))"),
])
def test_compile_ra_malformed_schema_exit_1(tmp_path, capsys, text, message):
    schema = write(tmp_path, "schema.sexpr", text)
    got = run(capsys, "compile-ra", write(tmp_path, "q.sexpr", "(rel R)"),
              "--schema", schema)
    assert got == (1, "", f"error: {schema}: {message}\n")


def test_compile_ra_gamma_lists_relations_named_like_binders(tmp_path,
                                                             capsys):
    expr = write(tmp_path, "q.sexpr", "(product (rel R) (rel _t4))")
    schema = write(tmp_path, "schema.sexpr", "((R (A)) (_t4 (B)))")
    gout = tmp_path / "gamma.sexpr"
    code, out, _ = run(capsys, "compile-ra", expr, "--schema", schema,
                       "--gamma-out", str(gout))
    assert code == 0
    assert [x for x, _ in read(gout.read_text())] == ["R", "_t4"]
    db = {"R": {("1",)}, "_t4": {("2",)}}
    result = eval_rx(parse(out, "rx"),
                     encode_db(db, {"R": ("A",), "_t4": ("B",)}))
    assert decode_relation(result.value, ("A", "B")) == {("1", "2")}


@pytest.mark.parametrize("tag", ["a b", "x)", "(", "a;b", ""])
def test_compile_ra_tag_must_be_a_symbol(tmp_path, capsys, tag):
    argv = ["compile-ra", write(tmp_path, "q.sexpr", "(rel R)"),
            "--schema", write(tmp_path, "schema.sexpr", "((R (A)))")]
    code, out, _ = run(capsys, *argv, "--tag", "Tup")
    assert code == 0 and "(elem (lit Tup)" in out
    got = run(capsys, *argv, "--tag", tag)
    assert got == (1, "", f"error: --tag: {tag!r} is not a symbol\n")


# --- reduce-deps -----------------------------------------------------------


def test_reduce_deps_writes_four_files(tmp_path, capsys):
    sigma = write(tmp_path, "sigma.sexpr", "(fd (A1) (A2))")
    rho = write(tmp_path, "rho.sexpr", "(fd (A1 A2) (A2))")
    outdir = tmp_path / "red"
    code, _, _ = run(capsys, "reduce-deps", "--sigma", sigma, "--rho", rho,
                     "--arity", "2", "--out-dir", str(outdir))
    assert code == 0
    for name in ("e1.sexpr", "e2.sexpr", "gamma.sexpr", "output-type.sexpr"):
        assert (outdir / name).read_text().strip(), name
    parse((outdir / "e1.sexpr").read_text(), "rx")
    parse((outdir / "e2.sexpr").read_text(), "rx")


def test_reduce_deps_requires_single_conclusion(tmp_path, capsys):
    rho = write(tmp_path, "rho.sexpr", "(fd (A1) (A2)) (fd (A2) (A1))")
    code, _, err = run(capsys, "reduce-deps", "--rho", rho, "--arity", "2",
                       "--out-dir", str(tmp_path / "red"))
    assert code == 1 and err


@pytest.mark.parametrize("attrs,bad", [
    ("a(,b", "a("), ("a,b c", "b c"), ("a,)", ")"), ("a,,b", ""),
])
def test_reduce_deps_attrs_must_be_symbols(tmp_path, capsys, attrs, bad):
    rho = write(tmp_path, "rho.sexpr", "(fd (b) (b))")
    outdir = tmp_path / "red"
    arity = str(attrs.count(",") + 1)
    got = run(capsys, "reduce-deps", "--rho", rho, "--arity", arity,
              "--attrs", attrs, "--out-dir", str(outdir))
    assert got == (1, "", f"error: --attrs: {bad!r} is not a symbol\n")
    assert not outdir.exists()
    code, _, _ = run(capsys, "reduce-deps", "--rho", rho, "--arity", "2",
                     "--attrs", "a,b", "--out-dir", str(outdir))
    assert code == 0
    parse((outdir / "e1.sexpr").read_text(), "rx")


@pytest.mark.parametrize("rho_text,argv,message", [
    ("(fd () ())", ["--arity", "0"], "arity must be at least 1, got 0"),
    ("(fd () ())", ["--arity", "-1"], "arity must be at least 1, got -1"),
    ("(fd (A) (A))", ["--arity", "2", "--attrs", "A,A"],
     "attribute list repeats an attribute"),
])
def test_reduce_deps_checks_its_schema(tmp_path, capsys, rho_text, argv,
                                       message):
    # As compile-ra refuses a relation that repeats an attribute.
    rho = write(tmp_path, "rho.sexpr", rho_text)
    outdir = tmp_path / "red"
    got = run(capsys, "reduce-deps", "--rho", rho, *argv,
              "--out-dir", str(outdir))
    assert got == (1, "", f"error: {message}\n")
    assert not outdir.exists()


# --- output files ----------------------------------------------------------


def _write_requests(tmp_path):
    expr = write(tmp_path, "e.sexpr", "(sing x)")
    env = write(tmp_path, "env.json", json.dumps({"x": {"atom": "a"}}))
    gamma = write(tmp_path, "gamma.sexpr", "((x (atom)))")
    ra = write(tmp_path, "q.sexpr", "(rel R)")
    schema = write(tmp_path, "schema.sexpr", "((R (A)))")
    return {
        "parse": ["parse", expr, "--lang", "penrc"],
        "eval": ["eval", expr, env, "--lang", "penrc"],
        "check": ["check", expr, "--lang", "penrc", "--mode", "welldef",
                  "--gamma", gamma],
        "translate": ["translate", write(tmp_path, "p.sexpr", "x")],
        "compile-ra": ["compile-ra", ra, "--schema", schema],
    }


@pytest.mark.parametrize("command", ["parse", "eval", "check", "translate",
                                     "compile-ra"])
def test_out_in_missing_directory_exit_1(tmp_path, capsys, command):
    out = str(tmp_path / "missing" / "out.txt")
    got = run(capsys, *_write_requests(tmp_path)[command], "--out", out)
    assert got == (1, "", f"error: cannot write {out}: [Errno 2] No such "
                          f"file or directory: {out!r}\n")


def test_gamma_out_in_missing_directory_exit_1(tmp_path, capsys):
    out = str(tmp_path / "missing" / "gamma.sexpr")
    argv = _write_requests(tmp_path)["compile-ra"]
    got = run(capsys, *argv, "--out", str(tmp_path / "compiled.sexpr"),
              "--gamma-out", out)
    assert got == (1, "", f"error: cannot write {out}: [Errno 2] No such "
                          f"file or directory: {out!r}\n")


def test_reduce_deps_out_dir_is_a_file_exit_1(tmp_path, capsys):
    rho = write(tmp_path, "rho.sexpr", "(fd (A1) (A2))")
    got = run(capsys, "reduce-deps", "--rho", rho, "--arity", "2",
              "--out-dir", rho)
    assert got == (1, "", f"error: cannot write {rho}: [Errno 17] File "
                          f"exists: {rho!r}\n")


# --- determinism -----------------------------------------------------------


def test_outputs_are_byte_identical_across_runs(tmp_path, capsys):
    expr = write(tmp_path, "e.sexpr", "(for x R (fst x))")
    gamma = write(tmp_path, "gamma.sexpr", "((R (coll (coll (atom)))))")
    runs = [run(capsys, "check", expr, "--lang", "penrc", "--mode",
                "welldef", "--gamma", gamma) for _ in range(2)]
    assert runs[0] == runs[1]

    sigma = write(tmp_path, "sigma.sexpr", "(ind (A1) (A2))")
    rho = write(tmp_path, "rho.sexpr", "(ind (A2) (A1))")
    texts = []
    for i in range(2):
        outdir = tmp_path / f"red{i}"
        run(capsys, "reduce-deps", "--sigma", sigma, "--rho", rho,
            "--arity", "2", "--out-dir", str(outdir))
        texts.append(tuple(sorted(
            (p.name, p.read_text()) for p in outdir.iterdir())))
    assert texts[0] == texts[1]


def test_out_flag_writes_file(tmp_path, capsys):
    expr = write(tmp_path, "e.sexpr", "(lit a)")
    env = write(tmp_path, "env.json", "{}")
    target = tmp_path / "result.json"
    code, out, _ = run(capsys, "eval", expr, env, "--lang", "rx",
                       "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text()) == {"set": [{"atom": "a"}]}
