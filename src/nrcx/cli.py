"""Command-line interface.

Single binary, subcommand style.  Structured output is JSON (or
canonical s-expressions for translation subcommands) on stdout;
diagnostics go to stderr.  Exit codes are a stable contract:

* 0 success / property holds / expression defined
* 1 usage, parse, or precondition error
* 3 ``eval``: the expression is undefined on the given environment
* 4 ``check``: the property fails (counterexample printed)
* 5 ``check``: the search budget was exceeded
"""

from __future__ import annotations

import argparse
import json
import sys

from . import sexpr
from .decide import (BudgetExceededError, DEFAULT_MAX_ENVS, DEFAULT_TIMEOUT,
                     NonPenrcError, PreconditionError, decide)
# perfbench/tracing.py wraps these names on nrcx.cli, so they stay.
from .decide import (satisfiable_penrc, typecheck_penrc,  # noqa: F401
                     typecheck_pure_rx, well_defined_penrc,
                     well_defined_pure_rx)
from .frontend import (FD, IND, free_vars, parse, parse_type, print_expr,
                       print_type)
from .rx import ORACLE_SUITES, eval_pure_rx, eval_rx
from .penrc import eval_penrc
from .translate import (NotPurePerxError, SchemaError, build_fd_id_reduction,
                        compile_ra, translate_expr, translate_type)
from .typeterms import is_nrc_type
from .values import (env_from_json, is_nrc_value, is_pure_rx_value,
                     is_rx_value, value_to_json)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNDEFINED = 3
EXIT_FAILS = 4
EXIT_BUDGET = 5


class CliError(Exception):
    pass


def _read_file(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _write_out(text, out):
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text)
            if not text.endswith("\n"):
                f.write("\n")


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


def _load_gamma(path):
    try:
        forms = sexpr.read(_read_file(path))
        gamma = {}
        for entry in forms:
            if isinstance(entry, str) or len(entry) != 2:
                raise CliError(f"{path}: gamma entry must be (var type)")
            var, tsx = entry
            if not isinstance(var, str):
                raise CliError(f"{path}: gamma variable must be a symbol")
            if var in gamma:
                raise CliError(f"{path}: variable {var} declared twice")
            gamma[var] = parse_type(tsx)
        return gamma
    except sexpr.ParseError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _load_type(path):
    try:
        return parse_type(sexpr.read(_read_file(path)))
    except sexpr.ParseError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _load_schema(path):
    try:
        forms = sexpr.read(_read_file(path))
    except sexpr.ParseError as exc:
        raise CliError(f"{path}: {exc}") from exc
    schema = {}
    for entry in forms:
        if isinstance(entry, str) or len(entry) != 2 or isinstance(entry[1], str):
            raise CliError(f"{path}: schema entry must be (name (attrs...))")
        name, attrs = entry
        schema[name] = tuple(attrs)
    return schema


def _load_deps(path):
    try:
        forms = sexpr.read_all(_read_file(path))
    except sexpr.ParseError as exc:
        raise CliError(f"{path}: {exc}") from exc
    out = []
    for sx in forms:
        dep = parse(sexpr.write(sx), "deps")
        assert isinstance(dep, (FD, IND))
        out.append(dep)
    return out


# ---------------------------------------------------------------------------
# Subcommands.


def cmd_parse(args):
    e = _load_expr(args.expr, args.lang)
    _write_out(print_expr(e), args.out)
    return EXIT_OK


# Each language's value domain for bindings, and how to name it.
VALUE_DOMAINS = {
    "rx": (is_rx_value, "an RX value (a set of items)"),
    "pure-rx": (is_pure_rx_value,
                "a pure RX value (an item or a set of items)"),
    "penrc": (is_nrc_value, "an NRC value (atoms, pairs and sets)"),
}


def cmd_eval(args):
    e = _load_expr(args.expr, args.lang)
    env = _load_env(args.env)
    missing = free_vars(e) - set(env)
    if missing:
        raise CliError(f"unbound variables: {', '.join(sorted(missing))}")
    is_value, domain = VALUE_DOMAINS[args.lang]
    for x in sorted(env):
        if not is_value(env[x]):
            raise CliError(f"binding {x} is not {domain}")
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


def _budget_options(args):
    return {"max_envs": args.max_envs, "timeout": args.timeout,
            "prune": not args.no_prune}


def cmd_check(args):
    e = _load_expr(args.expr, args.lang)
    gamma = _load_gamma(args.gamma)
    tau = None
    if args.mode == "type":
        if args.type is None:
            raise CliError("--type is required for mode 'type'")
        tau = _load_type(args.type)
    for x in sorted(gamma):
        _check_type_domain(gamma[x], f"type of {x}", args.lang)
    if tau is not None:
        _check_type_domain(tau, "output type", args.lang)
    options = _budget_options(args)
    verdict = decide(e, gamma, "welldef", lang=args.lang, **options)
    if args.mode != "welldef":
        # Type-checking and satisfiability presuppose well-definedness.
        if not verdict.result:
            raise CliError(
                "precondition failed: expression is not well defined; "
                "counterexample: " + json.dumps(verdict.to_json()))
        verdict = decide(e, gamma, args.mode, lang=args.lang, tau=tau,
                         **options)
    _write_out(json.dumps(verdict.to_json()), args.out)
    return EXIT_OK if verdict.result else EXIT_FAILS


def _check_type_domain(t, what, lang):
    """Reject a type outside the language's type domain before a search
    trips over it."""
    if lang == "penrc":
        if is_nrc_type(t):
            return
        domain = "an NRC type"
    else:
        # translate_type defines the pure RX domain and raises TypeError
        # outside it (ValueError, already an error exit, for set-based
        # RX element types).
        try:
            translate_type(t)
            return
        except TypeError:
            domain = "a pure RX type"
    raise CliError(f"{what} is not {domain}: {sexpr.write(print_type(t))}")


def cmd_translate(args):
    e = _load_expr(args.expr, "pure-rx")
    _write_out(print_expr(translate_expr(e)), args.out)
    return EXIT_OK


def cmd_compile_ra(args):
    phi = _load_expr(args.expr, "ra")
    schema = _load_schema(args.schema)
    expr, gamma = compile_ra(phi, schema, tag=args.tag)
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
    attrs = tuple(args.attrs.split(",")) if args.attrs else None
    e1, e2, gamma, gtype = build_fd_id_reduction(sigma, rho_deps[0],
                                                 args.arity, attrs)
    import os
    os.makedirs(args.out_dir, exist_ok=True)
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
    p.add_argument("--tag", default="T", help="tuple element tag")
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
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (CliError, PreconditionError, NonPenrcError,
            NotPurePerxError, SchemaError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyError as exc:
        print(f"error: missing binding {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        print("error: expression nested too deeply", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
