"""Spans at nrcx's layer boundaries, recorded from outside the package.

``Tracer.install_spans`` replaces each traced function at the module
attribute its callers look up (``nrcx.decide.iter_values``,
``nrcx.cli.parse``, ``nrcx.values.VSet.__init__`` ...) with a wrapper
that records a span: name, start, end, parent span and request id.  A
generator's every ``next()`` is a span of its own.  Counts are taken in
the same wrappers.  Spans stay in compact in-memory arrays until the run
ends; ``summarize`` derives each layer's self time and ``write`` saves
them.

Each span also records when its wrapper was entered and left.  A span's
own time runs from just before the wrapped call to just after it, and a
span's self time is its own time minus the whole wrapper time of its
child spans.  So self times leave out the wrappers' bookkeeping, except
the bare call into and out of each wrapper.

``Tracer.install_counters`` counts the calls of functions too small and
frequent to wrap while spans are timed (``sort_key``); it is installed
in a replay of its own.

Nothing under ``src/`` is modified; ``uninstall`` restores every
attribute.
"""

from __future__ import annotations

import functools
import gzip
import json
from array import array
from collections import Counter
from time import perf_counter_ns

LAYERS = ("cli", "frontend", "translate", "decide", "typeterms", "penrc",
          "rx", "values")


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("H")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("q")
        self.end = array("q")
        self.outer_start = array("q")
        self.outer_end = array("q")
        self.counts = Counter()
        self.sort_key_calls = [0]
        self.current_request = -1
        self._stack = []
        self._installed = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid):
        outer = perf_counter_ns()
        i = len(self.start)
        self.outer_start.append(outer)
        self.outer_end.append(0)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.current_request)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(perf_counter_ns())
        return i

    def _close(self, i):
        self.end[i] = perf_counter_ns()
        self._stack.pop()

    def _leave(self, i):
        self.outer_end[i] = perf_counter_ns()

    def _replace(self, owner, attr, wrapper):
        self._installed.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def span(self, owner, attr, name, on_result=None, on_error=None):
        """Record a span around every call of owner.attr."""
        fn = getattr(owner, attr)
        nid = self._name_id(name)
        calls = name + ".calls"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(i)
                if on_error is not None:
                    on_error(exc)
                tracer._leave(i)
                raise
            tracer._close(i)
            tracer.counts[calls] += 1
            if on_result is not None:
                on_result(result)
            tracer._leave(i)
            return result

        self._replace(owner, attr, wrapper)

    def generator(self, owner, attr, name):
        """Record a span around every next() of the iterators that
        owner.attr returns, counting the values they yield."""
        fn = getattr(owner, attr)
        nid = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return _TracedIterator(tracer, nid, name + ".yields",
                                   fn(*args, **kwargs))

        self._replace(owner, attr, wrapper)

    def count_calls(self, owner, attr, cell):
        """Count the calls of a one-argument function in cell[0], without
        a span."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(arg):
            cell[0] += 1
            return fn(arg)

        self._replace(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- installation ------------------------------------------------------

    def install_spans(self, nrcx):
        """Wrap the layer boundaries of an imported nrcx package."""
        cli, decide, values = nrcx.cli, nrcx.decide, nrcx.values
        counts = self.counts

        def count_undefined(outcome):
            if not outcome.is_defined:
                counts["penrc.undefined"] += 1

        def count_off_image(exc):
            if isinstance(exc, nrcx.translate.NotInImageError):
                counts["translate.off_image"] += 1

        def count_materialized(values_list):
            counts["typeterms.materialized"] += len(values_list)

        self.span(cli, "main", "cli.main")
        for attr in ("parse", "parse_type", "free_vars"):
            self.span(cli, attr, f"frontend.{attr}")
        self.span(nrcx.sexpr, "read", "frontend.sexpr_read")
        for attr in ("env_from_json", "value_to_json"):
            self.span(cli, attr, f"values.{attr}")
        self.span(decide, "env_to_json", "values.env_to_json")
        self.span(values.VSet, "__init__", "values.vset_init")
        for attr in ("eval_rx", "eval_pure_rx"):
            self.span(cli, attr, "rx.eval")
        self.span(decide, "eval_penrc", "penrc.eval",
                  on_result=count_undefined)
        self.span(decide, "complexity", "penrc.complexity")
        self.span(decide, "translate_expr", "translate.translate_expr")
        self.span(decide, "translate_type", "translate.translate_type")
        self.span(decide, "dec_env", "translate.dec_env",
                  on_error=count_off_image)
        for attr in ("well_defined_penrc", "typecheck_penrc",
                     "satisfiable_penrc", "well_defined_pure_rx",
                     "typecheck_pure_rx"):
            self.span(cli, attr, f"decide.{attr}")
        for attr in ("typecheck_penrc", "search_counterexample",
                     "atom_supply"):
            self.span(decide, attr, f"decide.{attr}")
        self.span(decide, "minimize_counterexample", "decide.minimize")
        self.generator(decide, "iter_environments", "decide.environments")
        self.generator(decide, "iter_values", "typeterms.iter_values")
        self.span(nrcx.typeterms, "_materialize", "typeterms.materialize",
                  on_result=count_materialized)
        self.span(decide, "member", "typeterms.member")

    def install_counters(self, nrcx):
        """Count sort_key calls, recursive ones included, at every module
        attribute it is looked up from."""
        for module in (nrcx.values, nrcx.typeterms, nrcx.decide):
            self.count_calls(module, "sort_key", self.sort_key_calls)

    # -- results -----------------------------------------------------------

    def layer_times(self):
        """(self ns per layer, inclusive ns per span name)."""
        n = len(self.start)
        child = [0] * n
        inclusive = Counter()
        layer_self = Counter()
        names, name, parent = self.names, self.name, self.parent
        start, end = self.start, self.end
        outer_start, outer_end = self.outer_start, self.outer_end
        # Children are recorded after their parent, so a reverse sweep
        # has every child's time summed before its parent is visited.
        for i in range(n - 1, -1, -1):
            duration = end[i] - start[i]
            p = parent[i]
            if p >= 0:
                child[p] += outer_end[i] - outer_start[i]
            span_name = names[name[i]]
            inclusive[span_name] += duration
            layer_self[span_name.split(".", 1)[0]] += duration - child[i]
        return layer_self, inclusive

    def write(self, path):
        """Save the spans, gzip-compressed: a JSON header line naming the
        arrays and their typecodes, then the raw arrays in native byte
        order, in the header's order."""
        header = {"names": self.names,
                  "arrays": [["name", "H"], ["parent", "i"],
                             ["request", "i"], ["start_ns", "q"],
                             ["end_ns", "q"], ["wrapper_start_ns", "q"],
                             ["wrapper_end_ns", "q"]],
                  "spans": len(self.start)}
        with gzip.open(path, "wb", compresslevel=1) as f:
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.request, self.start,
                        self.end, self.outer_start, self.outer_end):
                arr.tofile(f)


class _TracedIterator:
    __slots__ = ("_tracer", "_nid", "_key", "_it")

    def __init__(self, tracer, nid, key, it):
        self._tracer = tracer
        self._nid = nid
        self._key = key
        self._it = it

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        i = tracer._open(self._nid)
        try:
            value = next(self._it)
        except BaseException:
            tracer._close(i)
            tracer._leave(i)
            raise
        tracer._close(i)
        tracer.counts[self._key] += 1
        tracer._leave(i)
        return value


def summarize(tracer, passes, requests_per_pass, compile_ra_s,
              untraced_ns, traced_ns, budget_exits):
    """The per-layer metrics of a traced run, per pass of the request
    list (counts and seconds) or per request (milliseconds)."""
    layer_self, inclusive = tracer.layer_times()
    c = tracer.counts
    total_self = sum(layer_self.values()) or 1
    requests = passes * requests_per_pass

    def per_pass(x):
        return x / passes

    def ms_per_request(ns):
        return ns / 1e6 / requests

    def ratio(a, b):
        return a / b if b else 0.0

    candidates = c["typeterms.iter_values.yields"]
    examined = c["decide.environments.yields"]
    metrics = {
        "cli.self_ms_per_request": (ms_per_request(layer_self["cli"]), "ms"),
        "frontend.parse_ms_per_request":
            (ms_per_request(layer_self["frontend"]), "ms"),
        "frontend.parse_calls": (per_pass(
            c["frontend.parse.calls"] + c["frontend.parse_type.calls"]
            + c["frontend.sexpr_read.calls"]), "count"),
        "translate.compile_ra_s": (compile_ra_s, "s"),
        "translate.translate_expr_ms":
            (ms_per_request(inclusive["translate.translate_expr"]), "ms"),
        "translate.dec_env_calls": (per_pass(
            c["translate.dec_env.calls"] + c["translate.off_image"]), "count"),
        "translate.off_image_share": (ratio(
            c["translate.off_image"],
            c["translate.dec_env.calls"] + c["translate.off_image"]),
            "ratio"),
        "decide.candidates": (per_pass(candidates), "count"),
        "decide.envs_examined": (per_pass(examined), "count"),
        "decide.prune_yield": (ratio(examined, candidates), "ratio"),
        "decide.search_self_s": (per_pass(layer_self["decide"]) / 1e9, "s"),
        "decide.minimize_calls": (per_pass(c["decide.minimize.calls"]),
                                  "count"),
        "decide.minimize_s": (per_pass(inclusive["decide.minimize"]) / 1e9,
                              "s"),
        "decide.budget_exits": (per_pass(budget_exits), "count"),
        "typeterms.values_yielded":
            (per_pass(candidates + c["typeterms.materialized"]), "count"),
        "typeterms.iter_values_s":
            (per_pass(inclusive["typeterms.iter_values"]) / 1e9, "s"),
        "typeterms.member_calls": (per_pass(c["typeterms.member.calls"]),
                                   "count"),
        "penrc.eval_calls": (per_pass(c["penrc.eval.calls"]), "count"),
        "penrc.eval_s": (per_pass(inclusive["penrc.eval"]) / 1e9, "s"),
        "penrc.undefined_share":
            (ratio(c["penrc.undefined"], c["penrc.eval.calls"]), "ratio"),
        "rx.eval_calls": (per_pass(c["rx.eval.calls"]), "count"),
        "rx.eval_s": (per_pass(inclusive["rx.eval"]) / 1e9, "s"),
        "values.vset_constructed": (per_pass(c["values.vset_init.calls"]),
                                    "count"),
        "values.vset_s": (per_pass(inclusive["values.vset_init"]) / 1e9, "s"),
        "values.sort_key_calls": (per_pass(tracer.sort_key_calls[0]), "count"),
        "trace.overhead_share":
            (ratio(traced_ns - untraced_ns, untraced_ns), "ratio"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = (layer_self[layer] / total_self,
                                          "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
