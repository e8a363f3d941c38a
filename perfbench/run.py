#!/usr/bin/env python3
"""Benchmark of `nrcx eval` and `nrcx check`, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload check_penrc --seed 1 --seconds 20 --trace 0

One closed-loop client in this process sends requests through
``nrcx.cli.main(argv)``, the next only after the previous one returns.
Each request's input files are written during set-up, before any clock
starts; its exit code, stdout and stderr are captured.  The request
list is replayed in whole passes for about ``--seconds`` seconds, and
at least twice.
Afterwards every answer is checked against the independent references
in reference.py and against every other execution of the same request.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` follows each untraced pass with a pass
that records spans and one that counts calls, and reports the per-layer
metrics.  See README.md for the definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import corpus
import reference
from tracing import Tracer, summarize

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

# Set-ups timed before the timed passes, and again after them, so that
# setup_s samples the machine at two moments of a run.
SETUP_REPEATS = 6
# Every request runs at least this often, so that the determinism guard
# compares executions within every run.
MIN_EXECUTIONS = 2
REFERENCE_BUDGET = 100_000
TAIL_BEYOND = 10
EXIT_OK, EXIT_USAGE, EXIT_FAILS, EXIT_BUDGET = 0, 1, 4, 5
PRECONDITION = "error: precondition failed: expression is not well defined; " \
               "counterexample: "
# Exit-5 messages of the count budgets; the timeout's messages ("exceeded
# 60.0s", "timed out while enumerating environments") do not match.
COUNT_BUDGET = re.compile(r"exceeded \d+ environments|exceeds budget \d+")


class SetupError(Exception):
    pass


# ---------------------------------------------------------------------------
# Set-up: import nrcx from this checkout and write the request files.


def import_nrcx():
    """Import nrcx afresh from ROOT/src, so each set-up pays the import."""
    for name in [m for m in sys.modules if m == "nrcx" or m.startswith("nrcx.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    nrcx = importlib.import_module("nrcx")
    for sub in ("cli", "decide", "rx", "sexpr", "translate", "typeterms",
                "values", "frontend"):
        importlib.import_module(f"nrcx.{sub}")
    if Path(nrcx.__file__).resolve().parent != (SRC / "nrcx").resolve():
        raise SetupError(f"imported nrcx from {nrcx.__file__}, not {SRC}")
    return nrcx


def prepare(nrcx, problems, workdir):
    """Every request's argv and the text of its files, keyed by path
    under `workdir`.  Returns (argv list, files, compile_ra seconds)."""
    compile_ns = 0
    requests = []
    files = {}
    compiled = {}

    def add(path, text):
        files[str(path)] = text
        return str(path)

    for p in problems:
        base = workdir / p["id"]
        if p["kind"] == "ra":
            text = reference.write(p["query"])
            if text not in compiled:
                phi = nrcx.frontend.parse(text, "ra")
                t0 = time.perf_counter_ns()
                expr, _gamma = nrcx.translate.compile_ra(phi, corpus.RA_SCHEMA)
                compile_ns += time.perf_counter_ns() - t0
                compiled[text] = add(workdir / f"q{len(compiled):03d}.sexpr",
                                     nrcx.frontend.print_expr(expr))
            db = {r: [tuple(row) for row in rows] for r, rows in p["db"].items()}
            env = nrcx.translate.encode_db(db, corpus.RA_SCHEMA)
            env_path = add(f"{base}.env.json",
                           json.dumps(nrcx.values.env_to_json(env)))
            requests.append(["eval", compiled[text], env_path, "--lang", "rx",
                             "--oracle", p["oracle"]])
            continue
        argv = ["check", add(f"{base}.sexpr", p["expr"]),
                "--lang", p["lang"], "--mode", p["mode"],
                "--gamma", add(f"{base}.gamma.sexpr", p["gamma"])]
        if p["type"] is not None:
            argv += ["--type", add(f"{base}.type.sexpr", p["type"])]
        if "--max-envs" not in p["extra"]:
            argv += ["--max-envs", str(corpus.MAX_ENVS)]
        argv += ["--timeout", str(corpus.SAFETY_TIMEOUT_S)] + p["extra"]
        requests.append(argv)
    return requests, files, compile_ns / 1e9


def time_set_ups(problems, workdir):
    """Import nrcx and prepare every request SETUP_REPEATS times.
    Returns the last import, its requests and files, the set-up times
    and the last compile_ra time."""
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        nrcx = import_nrcx()
        requests, files, compile_s = prepare(nrcx, problems, workdir)
        times.append(time.perf_counter() - t0)
    return nrcx, requests, files, times, compile_s


def write_files(workdir, files):
    """Write the request files.  This is left out of the set-up time:
    the same few hundred small files took from 0.02 s to 0.4 s to write
    in repeats on one machine, and nrcx plays no part in it."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    for path, text in files.items():
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)


# ---------------------------------------------------------------------------
# The closed-loop client.


class Execution:
    __slots__ = ("exit", "stdout", "stderr", "ns")

    def __init__(self, exit_code, stdout, stderr, ns):
        self.exit = exit_code
        self.stdout = stdout
        self.stderr = stderr
        self.ns = ns

    def digest(self):
        return hashlib.sha256(
            f"{self.exit}\n{self.stdout}".encode()).hexdigest()


def send(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter_ns()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else EXIT_USAGE
        except Exception:  # a crash is recorded and counted as failed
            traceback.print_exc()
            code = None
        ns = time.perf_counter_ns() - t0
    return Execution(code, out.getvalue(), err.getvalue(), ns)


def run_pass(cli, requests, tracer=None):
    executions = []
    for i, argv in enumerate(requests):
        if tracer is not None:
            tracer.current_request = i
        executions.append(send(cli, argv))
    return executions


def replay(nrcx, requests, tracer, install):
    install(nrcx)
    try:
        return run_pass(nrcx.cli, requests, tracer)
    finally:
        tracer.uninstall()


def timed_passes(nrcx, requests, seconds, tracer=None):
    """Whole rounds until the next one would end after `seconds`, and
    until every request has run at least MIN_EXECUTIONS times.  A round
    is an untraced pass; in a traced run it is followed by a pass that
    records spans and one that counts sort_key calls.  Returns (untraced
    passes, span passes, counting passes)."""
    plain, traced, counted = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.append(run_pass(nrcx.cli, requests))
        if tracer is not None:
            traced.append(replay(nrcx, requests, tracer, tracer.install_spans))
            counted.append(replay(nrcx, requests, tracer,
                                  tracer.install_counters))
        now = time.perf_counter()
        executions = len(plain) + len(traced) + len(counted)
        if executions >= MIN_EXECUTIONS and now - start + (now - t0) > seconds:
            return plain, traced, counted


# ---------------------------------------------------------------------------
# Verification, outside every timed region.


def _gamma(text):
    return {x: t for x, t in reference.read(text)}


def _witness_problem(nrcx, p, env_json, want):
    """Why the reported environment does not witness `want`, or None.

    want is "undefined", or "outside": the output lies outside the
    request's type (coll(void) for satisfiability).
    """
    gamma = _gamma(p["gamma"])
    env = reference.env_from_json(env_json)
    if set(env) != set(gamma):
        return f"environment binds {sorted(env)}, gamma {sorted(gamma)}"
    for x, t in gamma.items():
        if not reference.member(env[x], t):
            return f"{x} is not of type {reference.write(t)}"
    if p["lang"] == "penrc":
        try:
            out = reference.eval_nrc(reference.read(p["expr"]), env)
            is_defined = True
        except reference.Undefined:
            is_defined = False
    else:
        # Pure RX: evaluate directly, without the translation.
        outcome = nrcx.rx.eval_pure_rx(
            nrcx.frontend.parse(p["expr"], "pure-rx"),
            nrcx.values.env_from_json(env_json))
        is_defined = outcome.is_defined
        if is_defined:
            out = reference.from_json(nrcx.values.value_to_json(outcome.value))
    if want == "undefined":
        return None if not is_defined else "expression is defined there"
    if not is_defined:
        return "expression is undefined there"
    tau = reference.VOID_SET if p["mode"] == "sat" else reference.read(p["type"])
    return None if not reference.member(out, tau) else "output is in the type"


FLIP = {"holds": "fails", "fails": "holds", "undefined": "holds"}


def expected_verdict(p, flip):
    """The verdict an exact procedure gives, or None when the reference
    cannot confirm one within its budget."""
    if p["expected"] is not None:
        want = p["expected"]
    else:
        tau = reference.read(p["type"]) if p["type"] else None
        try:
            want = reference.decide(reference.read(p["expr"]),
                                    _gamma(p["gamma"]), p["mode"], tau,
                                    p["lang"], REFERENCE_BUDGET)
        except reference.ReferenceBudget:
            return None
    return FLIP[want] if flip else want


def verify_check(nrcx, p, ex, flip):
    """'ok', 'budget' (count-budget exit), 'unverified', or a failure."""
    if ex.exit == EXIT_BUDGET:
        if COUNT_BUDGET.search(ex.stderr):
            return "budget"
        return f"failed: safety timeout or unknown budget exit: {ex.stderr!r}"
    want = expected_verdict(p, flip)
    if want is None:
        return "unverified"
    if ex.exit == EXIT_USAGE:
        if not ex.stderr.startswith(PRECONDITION):
            return f"failed: exit 1: {ex.stderr[:200]!r}"
        if want != "undefined":
            return f"failed: precondition failure, expected {want}"
        verdict = json.loads(ex.stderr[len(PRECONDITION):])
        why = _witness_problem(nrcx, p, verdict["counterexample"], "undefined")
        return "ok" if why is None else f"failed: bad witness: {why}"
    if ex.exit not in (EXIT_OK, EXIT_FAILS):
        return f"failed: exit {ex.exit}"
    verdict = json.loads(ex.stdout)
    got = "holds" if verdict["result"] else "fails"
    if (ex.exit == EXIT_OK) != verdict["result"]:
        return "failed: exit code disagrees with the verdict"
    if got != want:
        return f"failed: verdict {got}, expected {want}"
    witness = {("welldef", "fails"): "undefined", ("type", "fails"): "outside",
               ("sat", "holds"): "outside"}.get((p["mode"], got))
    cex = verdict["counterexample"]
    if witness is None:
        return "ok" if cex is None or p["mode"] == "sat" else \
            "failed: a holding verdict carries a counterexample"
    if cex is None:
        return "failed: no witnessing environment"
    why = _witness_problem(nrcx, p, cex, witness)
    return "ok" if why is None else f"failed: bad witness: {why}"


def verify_ra(p, ex, flip):
    if ex.exit != EXIT_OK:
        return f"failed: exit {ex.exit}: {ex.stderr[:200]!r}"
    want = reference.eval_ra(p["query"], p["db"], corpus.RA_SCHEMA)
    if flip:
        want = want ^ {frozenset({("A", "flipped")})}
    try:
        got = reference.decode_relation(reference.from_json(json.loads(ex.stdout)))
    except ValueError as exc:
        return f"failed: output is not a relation encoding: {exc}"
    return "ok" if got == want else "failed: rows differ from the reference"


def verify(nrcx, problems, runs, history, flip):
    """Check every execution.  Returns per-request outcome strings and
    the number of failed executions.  With `flip`, the expected answer of
    the first request checked against a reference is corrupted."""
    outcomes = []
    failed = 0
    for i, p in enumerate(problems):
        execs = [run[i] for run in runs]
        first = execs[0]
        if any(e.exit is None or "Traceback" in e.stderr for e in execs):
            outcome = "failed: crash"
        elif any(e.digest() != first.digest() for e in execs):
            outcome = "failed: executions of the request disagree"
        elif history.get(p["id"], first.digest()) != first.digest():
            outcome = "failed: output differs from an earlier run"
        elif p["kind"] == "ra":
            outcome = verify_ra(p, first, flip)
        else:
            outcome = verify_check(nrcx, p, first, flip)
        # The self-test corrupts the first answer checked by a reference.
        flip = flip and outcome == "budget"
        if outcome.startswith("failed"):
            failed += len(execs)
            print(f"request {p['id']}: {outcome}", file=sys.stderr)
        outcomes.append(outcome)
    return outcomes, failed


# ---------------------------------------------------------------------------
# Metrics and the run record.


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "nrcx").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def load_history(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def save_history(path, history, problems, first_pass):
    merged = dict(history)
    for p, ex in zip(problems, first_pass):
        merged.setdefault(p["id"], ex.digest())
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(merged, f, sort_keys=True)
    os.replace(tmp, path)


def tail(latencies):
    """Latency at the highest percentile with TAIL_BEYOND samples above
    it: (value, percentile, sample count)."""
    ordered = sorted(latencies)
    n = len(ordered)
    i = max(n - TAIL_BEYOND - 1, 0)
    return ordered[i], 100.0 * (i + 1) / n, n


def decided(outcome, ex):
    """A request is decided when it ends in a verdict or a value: exit
    0, 3 or 4, or the type/sat precondition verdict (exit 1)."""
    return not outcome.startswith("failed") and ex.exit != EXIT_BUDGET


def end_to_end(plain, outcomes, setup_s, peak_rss_mb):
    """The end-to-end metrics of the untraced passes.  A request's
    latency is the median of its executions, and the latency metrics are
    taken over requests, so they do not depend on the number of passes.
    Throughput is the request count of a pass over the median request
    time of a pass."""
    latencies = [statistics.median(run[i].ns for run in plain) / 1e6
                 for i in range(len(plain[0]))]
    tail_ms, percentile, samples = tail(latencies)
    pass_s = statistics.median(sum(ex.ns for ex in run) / 1e9 for run in plain)
    n_decided = sum(decided(o, ex) for run in plain
                    for o, ex in zip(outcomes, run))
    metrics = {
        "setup_s": (setup_s, "s"),
        "requests_per_s": (len(plain[0]) / pass_s, "1/s"),
        "latency_p50_ms": (statistics.median(latencies), "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
        "decided_share": (n_decided / (len(plain) * len(plain[0])), "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    extra = {"tail_percentile": round(percentile, 2), "tail_samples": samples,
             "tail_samples_beyond": TAIL_BEYOND}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, extra


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--flip-reference", action="store_true",
                    help="verifier self-test: corrupt the expected answer "
                         "of the first request; the run must then fail")
    args = ap.parse_args(argv)

    if not (SRC / "nrcx" / "__init__.py").is_file():
        print(f"set-up failed: no nrcx package under {SRC}", file=sys.stderr)
        return 2
    problems = corpus.build(args.workload, args.seed)
    corpus_digest = corpus.digest(problems)
    workdir = STATE / f"work-{os.getpid()}"
    try:
        try:
            nrcx, requests, files, setup_times, compile_s = time_set_ups(
                problems, workdir)
        except (SetupError, ImportError) as exc:
            print(f"set-up failed: {exc}", file=sys.stderr)
            return 2
        write_files(workdir, files)
        tracer = Tracer() if args.trace else None
        plain, traced, counted = timed_passes(nrcx, requests, args.seconds,
                                              tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        nrcx, _, _, later_times, _ = time_set_ups(problems, workdir)
        setup_s = statistics.median(setup_times + later_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    src_digest = source_digest()
    history_path = (STATE / "outputs" / f"{args.workload}-seed{args.seed}"
                    f"-{corpus_digest}-{src_digest}.json")
    history = load_history(history_path)
    outcomes, failed = verify(nrcx, problems, plain + traced + counted,
                              history, args.flip_reference)
    if not args.flip_reference:
        save_history(history_path, history, problems, plain[0])
    attempted = len(problems) * (len(plain) + len(traced) + len(counted))
    unverified = outcomes.count("unverified")

    if args.trace:
        budget_exits = sum(ex.exit == EXIT_BUDGET for run in traced
                           for ex in run)
        metrics = summarize(
            tracer, len(traced), len(requests), compile_s,
            sum(ex.ns for run in plain for ex in run),
            sum(ex.ns for run in traced for ex in run), budget_exits)
        tracer.write(STATE / f"spans-{args.workload}.bin.gz")
        extra = {}
    else:
        metrics, extra = end_to_end(plain, outcomes, setup_s, peak_rss_mb)

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "corpus_digest": corpus_digest, "source_digest": src_digest,
        "python": platform.python_version(), "cpu": cpu_model(),
        "nproc": os.cpu_count(), "requests_per_pass": len(requests),
        "passes": len(plain), "traced_passes": len(traced),
        "counting_passes": len(counted),
        "attempted": attempted, "failed": failed,
        "failed_share": failed / attempted, "unverified": unverified,
        "outcomes": {o: outcomes.count(o) for o in sorted(set(outcomes))},
        **extra,
    }
    print(json.dumps({"run_record": record}))
    print(json.dumps({"correct": failed == 0 and unverified == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
