import hashlib
import json

import pytest

from nrcx.cli import main
from nrcx.frontend import parse, print_expr
from nrcx.rx import eval_pure_rx, eval_rx
from nrcx.translate import decode_relation, encode_db
from nrcx.values import Atom, DataNode, env_from_json, vset


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
    expr = write(tmp_path, "e.sexpr", "(for x R (fst x))")
    gamma = write(tmp_path, "gamma.sexpr",
                  "((R (coll (prod (atom) (atom)))))")
    code, _, err = run(capsys, "check", expr, "--lang", "penrc",
                       "--mode", "welldef", "--gamma", gamma,
                       "--max-envs", "2")
    assert code == 5 and "budget" in err


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
    "8d6400f46646a6ff1d99116f620d136bf15da35486853521d2592447c47a4940"


def test_check_output_is_pinned(tmp_path, capsys):
    # Exit codes, stdout and stderr of `nrcx check` on a fixed problem
    # list, recorded before the six decision procedures became calls of
    # one `decide`.
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
