"""Fuzz `nrcx eval` and `nrcx check` with small generated inputs: every
input ends in a documented exit code, never in a traceback."""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from nrcx.cli import main

# Form heads with their argument sorts: E expression, V variable, K kind,
# T type.
RX_FORMS = [("text", "E"), ("elem", "EE"), ("data", "E"), ("name", "E"),
            ("children", "E"), ("seq", "EE"), ("sing", "E"),
            ("for", "VKEE"), ("ifeq", "EEEE"), ("ifempty", "EEE"),
            ("iftype", "ETEE")]
PENRC_FORMS = [("pair", "EE"), ("fst", "E"), ("snd", "E"), ("sing", "E"),
               ("union", "EE"), ("flatten", "E"), ("for", "VEE"),
               ("ifeq", "EEEE"), ("ifkind", "EKEE"), ("ifempty", "EEE")]
TYPE_FORMS = [("coll", "E"), ("single", "E"), ("prod", "EE"), ("sum", "EE"),
              ("elem", "E")]
KINDS = ["(kind-any)", "(kind-atom)", "(kind-data)", "(kind-elem)",
         "(kind-coll)", "(kind-prod (kind-atom) (kind-any))",
         "(kind-sum (kind-atom) (kind-coll))"]


def _terms(forms, leaves, max_leaves, sorts=None):
    """S-expression text built from `forms`; an argument of sort E
    recurses, the other sorts are drawn from `sorts`."""
    def node(kids):
        def build(form):
            head, args = form
            parts = (kids if a == "E" else sorts[a] for a in args)
            return st.tuples(*parts).map(
                lambda xs: f"({head} {' '.join(xs)})")
        return st.sampled_from(forms).flatmap(build)
    return st.recursive(st.sampled_from(leaves), node, max_leaves=max_leaves)


def _mostly(strategy, other):
    """`strategy` about seven times in eight, `other` otherwise."""
    return st.integers(0, 7).flatmap(lambda i: other if i == 3 else strategy)


def _gamma_text(gamma):
    return "(" + " ".join(f"({x} {t})" for x, t in gamma.items()) + ")"


# Each language's own forms, types and values; other languages' and
# malformed ones now and then.
NRC_TYPES = _terms([("coll", "E"), ("prod", "EE"), ("sum", "EE")],
                   ["(atom)", "(void)"], 3)
PURE_TYPES = _terms([("coll", "E"), ("elem", "E"), ("sum", "EE")],
                    ["(atom)", "(data)", "(void)"], 3)
ANY_TYPES = _terms(TYPE_FORMS, ["(atom)", "(data)", "(void)"], 4)
SORTS = {"V": st.just("v"), "K": st.sampled_from(KINDS), "T": ANY_TYPES}
LEAVES = ["x", "y", "v", "(empty)", "(lit a)", "(lit b)"]
RX_EXPRS = _terms(RX_FORMS, LEAVES, 6, SORTS)
PENRC_EXPRS = _terms(PENRC_FORMS, LEAVES, 6, SORTS)
TEXT = st.text("()xy lit", max_size=12)
EXPRS = {"rx": _mostly(RX_EXPRS, st.one_of(PENRC_EXPRS, TEXT)),
         "penrc": _mostly(PENRC_EXPRS, st.one_of(RX_EXPRS, TEXT))}
TYPES = {"rx": _mostly(PURE_TYPES, st.one_of(ANY_TYPES, TEXT)),
         "penrc": _mostly(NRC_TYPES, st.one_of(ANY_TYPES, TEXT))}
GAMMAS = {lang: _mostly(
    st.fixed_dictionaries({"x": types, "y": types}).map(_gamma_text),
    st.one_of(st.lists(st.tuples(st.sampled_from("xy"), ANY_TYPES),
                       max_size=3).map(dict).map(_gamma_text),
              TEXT)) for lang, types in TYPES.items()}

TOKENS = _mostly(st.sampled_from(["a", "b", "@0"]),
                 st.one_of(st.just(""), st.integers(0, 2), st.none()))
ATOMS = st.builds(lambda t: {"atom": t}, TOKENS)
ITEMS = st.recursive(
    st.one_of(ATOMS, st.builds(lambda t: {"data": t}, TOKENS)),
    lambda kids: st.builds(
        lambda n, cs: {"elem": {"name": n, "children": cs}}, TOKENS,
        st.lists(kids, max_size=2)),
    max_leaves=3)
NRC_VALUES = st.recursive(
    ATOMS, lambda kids: st.one_of(
        st.builds(lambda a, b: {"pair": [a, b]}, kids, kids),
        st.builds(lambda es: {"set": es}, st.lists(kids, max_size=3))),
    max_leaves=5)
ANY_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2, 2),
              st.text("axs", max_size=3)),
    lambda kids: st.one_of(st.lists(kids, max_size=2),
                           st.dictionaries(st.sampled_from(["x", "set"]),
                                           kids, max_size=2)),
    max_leaves=4)
VALUES = {"rx": st.builds(lambda es: {"set": es}, st.lists(ITEMS, max_size=3)),
          "pure-rx": st.one_of(ITEMS, st.builds(lambda es: {"set": es},
                                                st.lists(ITEMS, max_size=3))),
          "penrc": NRC_VALUES}
ENVS = {lang: _mostly(
    st.fixed_dictionaries({"x": values, "y": values}),
    st.one_of(st.dictionaries(st.sampled_from("xyv"),
                              st.one_of(*VALUES.values(), ANY_JSON),
                              max_size=3),
              ANY_JSON)).map(json.dumps) for lang, values in VALUES.items()}

EXIT_CODES = {0, 1, 3, 4, 5}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@st.composite
def requests(draw):
    """(argv naming files by their keys, {file name: text})."""
    if draw(st.booleans()):
        lang = draw(st.sampled_from(["rx", "pure-rx", "penrc"]))
        syntax = "penrc" if lang == "penrc" else "rx"
        files = {"e.sexpr": draw(EXPRS[syntax]),
                 "env.json": draw(ENVS[lang])}
        return ["eval", "e.sexpr", "env.json", "--lang", lang], files
    lang = draw(st.sampled_from(["pure-rx", "penrc"]))
    syntax = "penrc" if lang == "penrc" else "rx"
    mode = draw(st.sampled_from(["welldef", "type", "sat"]))
    files = {"e.sexpr": draw(EXPRS[syntax]),
             "gamma.sexpr": draw(GAMMAS[syntax]),
             "tau.sexpr": draw(TYPES[syntax])}
    return ["check", "e.sexpr", "--lang", lang, "--mode", mode,
            "--gamma", "gamma.sexpr", "--type", "tau.sexpr",
            "--max-envs", "2000"], files


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(request=requests())
def test_cli_never_crashes(tmp_path_factory, request):
    argv, files = request
    d = tmp_path_factory.mktemp("fuzz")
    for name, text in files.items():
        (d / name).write_text(text)
    argv = [str(d / a) if a in files else a for a in argv]
    code, err = _run(argv)
    assert code in EXIT_CODES, (argv, files, code, err)
    assert "Traceback" not in err, (argv, files, err)
