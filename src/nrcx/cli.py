"""Command-line interface.

Single binary, subcommand style.  Structured output is JSON (or
canonical s-expressions for translation subcommands) on stdout;
diagnostics go to stderr.  Exit codes are a stable contract:

* 0 success / property holds / expression defined
* 1 usage, parse, or precondition error
* 3 ``eval``: the expression is undefined on the given environment
* 4 ``check``: the property fails (counterexample printed)
* 5 ``check``: the search budget was exceeded; ``translate``: the
  translation is longer than ``MAX_TRANSLATION_CHARS`` characters
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import sexpr
from .decide import (BudgetExceededError, DEFAULT_MAX_ENVS, DEFAULT_TIMEOUT,
                     decide)
# perfbench/tracing.py wraps these names on nrcx.cli, so they stay.
from .decide import (satisfiable_penrc, typecheck_penrc,  # noqa: F401
                     typecheck_pure_rx, well_defined_penrc,
                     well_defined_pure_rx)
from .frontend import free_vars  # noqa: F401
from .frontend import (_build_dep, parse, parse_type, print_expr, print_type,
                       printed_length)
from .rx import ORACLE_SUITES, eval_pure_rx, eval_rx
from .penrc import eval_penrc
from .translate import build_fd_id_reduction, compile_ra, translate_expr
from .values import env_from_json, value_to_json

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNDEFINED = 3
EXIT_FAILS = 4
EXIT_BUDGET = 5

# The most characters `nrcx translate` writes.  The translation shares
# subtrees, and its text about doubles with each nested (sing ...).
MAX_TRANSLATION_CHARS = 1 << 25


class CliError(Exception):
    pass


def _read_file(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _write_out(text, out):
    if not text.endswith("\n"):
        text += "\n"
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {out}: {exc}") from exc


def _load_expr(path, lang):
    try:
        return parse(_read_file(path), lang)
    except (sexpr.ParseError, ValueError) as exc:
        raise CliError(f"{path}: {exc}") from exc


def _load_env(path):
    try:
        data = json.loads(_read_file(path))
        if not isinstance(data, dict):
            raise ValueError(f"not a JSON object: {data!r}")
        return env_from_json(data)
    except (json.JSONDecodeError, ValueError, KeyError, TypeError) as exc:
        raise CliError(f"{path}: malformed environment: {exc}") from exc
    except RecursionError as exc:
        raise CliError(
            f"{path}: malformed environment: nested too deeply") from exc


def _load_sexpr(path, build, many=False):
    """build(sexpr.read, or with many read_all, of path's text)."""
    read = sexpr.read_all if many else sexpr.read
    try:
        return build(read(_read_file(path)))
    except sexpr.ParseError as exc:
        raise CliError(f"{path}: {exc}") from exc
    except RecursionError as exc:
        raise CliError(f"{path}: nested too deeply") from exc


def _load_gamma(path):
    def build(forms):
        gamma = {}
        for entry in forms:
            if isinstance(entry, str) or len(entry) != 2:
                raise CliError(f"{path}: gamma entry must be (var type)")
            var, tsx = entry
            if not isinstance(var, str):
                raise CliError(f"{path}: gamma variable must be a symbol")
            if var in gamma:
                raise CliError(f"{path}: variable {var} declared twice")
            try:
                gamma[var] = parse_type(tsx)
            except RecursionError as exc:
                raise CliError(
                    f"{path}: type of {var} nested too deeply") from exc
        return gamma
    return _load_sexpr(path, build)


def _load_schema(path):
    schema = {}
    for entry in _load_sexpr(path, list):
        if (isinstance(entry, str) or len(entry) != 2 or isinstance(entry[1], str)
                or not all(isinstance(x, str) for x in [entry[0], *entry[1]])):
            raise CliError(f"{path}: schema entry must be (name (attrs...))")
        name, attrs = entry
        if name in schema:
            raise CliError(f"{path}: relation {name} declared twice")
        if len(set(attrs)) != len(attrs):
            raise CliError(f"{path}: relation {name} repeats an attribute")
        schema[name] = tuple(attrs)
    return schema


def _load_deps(path):
    return _load_sexpr(path, lambda sxs: list(map(_build_dep, sxs)), many=True)


def _symbol_arg(text, flag):
    """text, if it is one symbol, so that the output reads back."""
    if not sexpr.SYMBOL.fullmatch(text):
        raise CliError(f"{flag}: {text!r} is not a symbol")
    return text


# ---------------------------------------------------------------------------
# Subcommands.


def cmd_parse(args):
    e = _load_expr(args.expr, args.lang)
    _write_out(print_expr(e), args.out)
    return EXIT_OK


def cmd_eval(args):
    e = _load_expr(args.expr, args.lang)
    env = _load_env(args.env)
    if args.lang == "rx":
        out = eval_rx(e, env, ORACLE_SUITES[args.oracle])
    elif args.lang == "pure-rx":
        out = eval_pure_rx(e, env)
    else:
        out = eval_penrc(e, env)
    if out.is_defined:
        _write_out(json.dumps(value_to_json(out.value)), args.out)
        return EXIT_OK
    payload = {"undefined": out.reason,
               "at": None if out.expr is None else print_expr(out.expr)}
    _write_out(json.dumps(payload), args.out)
    return EXIT_UNDEFINED


def cmd_check(args):
    if args.max_envs < 1:
        raise CliError(f"--max-envs: {args.max_envs} is below 1")
    if not 0 < args.timeout < float("inf"):  # NaN fails it too
        raise CliError(f"--timeout: {args.timeout} is not positive and finite")
    e = _load_expr(args.expr, args.lang)
    gamma = _load_gamma(args.gamma)
    tau = None
    if args.mode == "type":
        if args.type is None:
            raise CliError("--type is required for mode 'type'")
        tau = _load_sexpr(args.type, parse_type)
    verdict = decide(e, gamma, args.mode, lang=args.lang, tau=tau,
                     max_envs=args.max_envs, timeout=args.timeout,
                     prune=not args.no_prune)
    _write_out(json.dumps(verdict.to_json()), args.out)
    return EXIT_OK if verdict.result else EXIT_FAILS


def cmd_translate(args):
    e = translate_expr(_load_expr(args.expr, "pure-rx"))
    n = printed_length(e)
    if n > MAX_TRANSLATION_CHARS:
        raise BudgetExceededError(
            f"the translation is {n} characters long, over the limit of "
            f"{MAX_TRANSLATION_CHARS}")
    _write_out(print_expr(e), args.out)
    return EXIT_OK


def cmd_compile_ra(args):
    phi = _load_expr(args.expr, "ra")
    schema = _load_schema(args.schema)
    expr, gamma = compile_ra(phi, schema, tag=_symbol_arg(args.tag, "--tag"))
    _write_out(print_expr(expr), args.out)
    if args.gamma_out is not None:
        _write_out(_gamma_text(gamma), args.gamma_out)
    return EXIT_OK


def _gamma_text(gamma):
    return sexpr.write([[x, print_type(t)] for x, t in sorted(gamma.items())])


def cmd_reduce_deps(args):
    sigma = _load_deps(args.sigma) if args.sigma else []
    rho_deps = _load_deps(args.rho)
    if len(rho_deps) != 1:
        raise CliError("the conclusion file must contain exactly one dependency")
    attrs = tuple(_symbol_arg(a, "--attrs")
                  for a in args.attrs.split(",")) if args.attrs else None
    e1, e2, gamma, gtype = build_fd_id_reduction(sigma, rho_deps[0],
                                                 args.arity, attrs)
    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot write {args.out_dir}: {exc}") from exc
    _write_out(print_expr(e1), os.path.join(args.out_dir, "e1.sexpr"))
    _write_out(print_expr(e2), os.path.join(args.out_dir, "e2.sexpr"))
    _write_out(_gamma_text(gamma), os.path.join(args.out_dir, "gamma.sexpr"))
    _write_out(sexpr.write(print_type(gtype)),
               os.path.join(args.out_dir, "output-type.sexpr"))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing.


def _add_common(p):
    p.add_argument("--out", default=None, help="write output to this file")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="nrcx",
        description="set-based query calculi: evaluation, translation, "
                    "and decision procedures")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse and reprint canonically")
    p.add_argument("expr")
    p.add_argument("--lang", required=True,
                   choices=("rx", "pure-rx", "penrc", "ra", "deps"))
    _add_common(p)
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("eval", help="evaluate on an environment")
    p.add_argument("expr")
    p.add_argument("env", help="JSON environment file")
    p.add_argument("--lang", required=True,
                   choices=("rx", "pure-rx", "penrc"))
    p.add_argument("--oracle", default="default",
                   choices=sorted(ORACLE_SUITES))
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("check", help="decide a semantic property")
    p.add_argument("expr")
    p.add_argument("--lang", required=True, choices=("penrc", "pure-rx"))
    p.add_argument("--mode", required=True, choices=("welldef", "type", "sat"))
    p.add_argument("--gamma", required=True,
                   help="type assignment file: ((var type) ...)")
    p.add_argument("--type", default=None, help="output type file")
    p.add_argument("--max-envs", type=int, default=DEFAULT_MAX_ENVS)
    p.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT)
    p.add_argument("--no-prune", action="store_true",
                   help="disable symmetry pruning")
    _add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("translate",
                       help="translate pure RX into the nested calculus")
    p.add_argument("expr")
    _add_common(p)
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("compile-ra",
                       help="compile relational algebra into set-based RX")
    p.add_argument("expr")
    p.add_argument("--schema", required=True,
                   help="schema file: ((name (attrs...)) ...)")
    p.add_argument("--tag", default="T", help="tuple element tag (a symbol)")
    p.add_argument("--gamma-out", default=None,
                   help="also write the type assignment here")
    _add_common(p)
    p.set_defaults(func=cmd_compile_ra)

    p = sub.add_parser("reduce-deps",
                       help="dependency implication as expression equivalence")
    p.add_argument("--sigma", default=None,
                   help="premise dependencies, one s-expression each")
    p.add_argument("--rho", required=True, help="conclusion dependency")
    p.add_argument("--arity", type=int, required=True)
    p.add_argument("--attrs", default=None,
                   help="comma-separated attribute names")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_reduce_deps)

    return ap


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on an argument error
        sys.exit(EXIT_USAGE if exc.code == 2 else exc.code)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (CliError, ValueError) as exc:  # every library error too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        print("error: expression nested too deeply", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
