import copy
import dataclasses
import functools
import gc
import inspect
import itertools
import json
import random
import re
import traceback

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import clonecover
from clonecover import serialize
from clonecover.cli import main
from clonecover.core import (
    App,
    AtomBinding,
    CI_ATOM,
    MTuple,
    PartialFn,
    Point,
    Proj,
    Term,
    compile_term,
    compose,
    full_index,
)
from clonecover.decompose import (
    AdmissibilityError,
    hereditary_decompose,
    verify_decomposition,
)
from clonecover.instances import (
    PROFILES,
    ProfileError,
    check_admissibility,
    default_theta,
    generate_instance,
)
from clonecover import analysis, pipeline, synth
from clonecover.pipeline import run_pipeline, verify_pair
from clonecover.synth import end_to_end_synthesize

from conftest import grown, idx, pt, tup, unary
from test_properties import walk


def _count_calls(monkeypatch, names) -> dict:
    """Count calls to each named `clonecover` function, in every module
    that binds it."""
    calls = dict.fromkeys(names, 0)
    modules = [m for m in vars(clonecover).values() if inspect.ismodule(m)]
    for name in names:
        original = next(vars(m)[name] for m in modules if name in vars(m))

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    return calls


def _record_keying(monkeypatch) -> list:
    """For every `analysis.wasteful_pairs` call, in every `clonecover`
    module that binds it (`decompose` and `synth`), its S and the number
    of `MTuple.restrict` calls made inside it."""
    keyed, inside = [], []
    original, restrict = analysis.wasteful_pairs, MTuple.restrict

    def counting(u, s):
        if inside:
            inside[-1] += 1
        return restrict(u, s)

    def recording(g, s, theta):
        inside.append(0)
        try:
            return original(g, s, theta)
        finally:
            keyed.append((frozenset(s), inside.pop()))

    monkeypatch.setattr(MTuple, "restrict", counting)
    for module in vars(clonecover).values():
        if getattr(module, "wasteful_pairs", None) is original:
            monkeypatch.setattr(module, "wasteful_pairs", recording)
    return keyed


def _above(g, s, theta) -> int:
    """The number of tuples of dom(g) whose bound at S is above theta."""
    return sum(k > theta for k in analysis.tuple_bounds(g, s))


def _artifact_bytes(inst):
    """The instance bytes, the synthesized and the pipeline's term bytes,
    and the report bytes of a passing run."""
    term = end_to_end_synthesize(inst.g, inst.f, inst.theta, inst.horizon,
                                 unary_candidates=inst.candidates).term
    report, result = run_pipeline(inst)
    assert report["passed"]
    return (serialize.instance_dumps(inst), serialize.term_dumps(term),
            serialize.term_dumps(result.term), serialize.report_dumps(report))


@st.composite
def generation_params(draw):
    horizon = draw(st.sampled_from((3, 4, 5, 6, 8, 12, 16)))
    return (draw(st.integers(1, 3)), horizon,
            draw(st.integers(1, horizon - 1)),
            draw(st.integers(0, 2**32 - 1)), draw(st.sampled_from(PROFILES)))


class TestInstanceGeneration:
    @settings(derandomize=True, deadline=None)
    @given(params=generation_params())
    @example(params=(1, 8, 4, 0, "mixed"))
    @example(params=(2, 8, 4, 0, "mixed"))
    @example(params=(3, 8, 4, 0, "mixed"))
    def test_generated_instances_are_admissible(self, params):
        try:
            inst = generate_instance(*params)
        except ProfileError:
            assume(False)
        report = check_admissibility(inst)
        assert report["passed"], report["detail"]

    def test_generation_runs_no_choice_stage(self, monkeypatch):
        calls = _count_calls(monkeypatch, ("check_admissibility",
                                           "hereditary_decompose",
                                           "normalize_f"))
        generate_instance(2, 8, 4, seed=9, profile="mary-witness")
        assert calls == {"check_admissibility": 0, "hereditary_decompose": 0,
                         "normalize_f": 0}

    def test_profiles(self):
        mixed = generate_instance(2, 8, 4, 0, "mixed")
        thrifty = generate_instance(2, 8, 4, 0, "all-thrifty")
        mary = generate_instance(2, 8, 4, 0, "mary-witness")
        assert mixed.metadata["features"]
        assert not thrifty.metadata["features"]
        assert len(mary.f.arity) == 2 and mary.candidates

    @pytest.mark.parametrize("profile", PROFILES)
    def test_witness_layout_matches_the_metadata(self, profile):
        # The builder fills each witness graph from whole columns, relying
        # on the codes oplus(n, k) ascending in (n, k) order; here every
        # entry is rebuilt from the metadata one at a time.
        codes = [synth.oplus(n, k) for n in range(1, 200) for k in range(n)]
        assert all(a < b for a, b in zip(codes, codes[1:]))
        for horizon, seed in itertools.product([*range(3, 17), 64],
                                               (0, 1, 7)):
            inst = generate_instance(1, horizon, horizon - 1, seed, profile)
            meta = inst.metadata["witness"]
            lines, rows = dict(meta["lines"]), meta["rows"]
            label = dict(meta["domain_labels"])
            entries = []
            for n in range(1, horizon):
                for k in range(n):
                    entries.append((pt(0, label[synth.oplus(n, k)]),
                                    pt(rows[k], lines[n])))
            assert inst.f.arity == full_index(meta["arity"])
            if profile != "mary-witness":
                assert meta["arity"] == 1 and inst.candidates == ()
                assert list(inst.f.graph.items()) == [
                    (MTuple(((1, d),)), v) for d, v in entries]
                continue
            anchor = pt(*meta["anchor"])
            assert meta["arity"] == 2
            assert list(inst.f.graph.items()) == [
                (MTuple(((1, d), (2, anchor))), v) for d, v in entries]
            support = sorted(d for d, _ in entries)
            assert anchor == support[0]
            ident, const = inst.candidates
            assert ident.arity == const.arity == full_index(1)
            assert list(ident.graph.items()) == [
                (MTuple(((1, p),)), p) for p in support]
            assert list(const.graph.items()) == [
                (MTuple(((1, p),)), anchor) for p in support]

    def test_same_seed_same_instance(self):
        a = generate_instance(2, 8, 4, seed=42)
        b = generate_instance(2, 8, 4, seed=42)
        assert a == b

    def test_different_seeds_differ(self):
        a = generate_instance(2, 8, 4, seed=1)
        b = generate_instance(2, 8, 4, seed=2)
        assert a.g != b.g

    def test_parameter_validation(self):
        with pytest.raises(ProfileError):
            generate_instance(4, 8, 4, 0)
        # the low-y budget, not a list of arities, decides: at m = 4 the
        # cheapest feature needs theta = 2 * 3
        with pytest.raises(ProfileError, match="the least theta that does "
                                               "is 6"):
            generate_instance(4, 8, 5, 0)
        with pytest.raises(ProfileError):
            generate_instance(0, 8, 4, 0)
        with pytest.raises(ProfileError):
            generate_instance(2, 2, 1, 0)
        with pytest.raises(ProfileError):
            generate_instance(2, 8, 8, 0)
        with pytest.raises(ProfileError):
            generate_instance(2, 8, 4, 0, "no-such-profile")

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("profile", PROFILES)
    def test_arity_four_runs_end_to_end(self, seed, profile):
        report, _ = run_pipeline(generate_instance(4, 12, 6, seed, profile))
        assert report["passed"]

    def test_default_theta(self):
        assert default_theta(16) == 8
        assert default_theta(7) == 4


def _distinct_nodes(root) -> int:
    """The number of distinct node objects under root, which keeps them
    alive, so their ids stay distinct."""
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(getattr(node, "children", ()))
    return len(seen)


PROBE_ARGV = ["--m", "2", "--horizon", "6", "--theta", "3", "--seed", "0"]

# every object kind a document holds, and the keys its writer writes
OBJECT_KEYS = {
    "instance": ("version", "kind", "m", "horizon", "theta", "seed",
                 "ceiling", "profile", "g", "f", "candidates", "metadata"),
    "term": ("version", "kind", "arity", "root", "env"),
    "graph": ("arity", "codomain", "graph"),
    "atom binding": ("kind", "fn"),
    "projection node": ("t", "k"),
    "application node": ("t", "name", "children"),
}


@functools.cache
def _probe_documents() -> dict:
    """The instance and term bytes of the instance PROBE_ARGV generates."""
    inst = generate_instance(2, 6, 3, 0)
    term = end_to_end_synthesize(inst.g, inst.f, inst.theta, inst.horizon,
                                 unary_candidates=inst.candidates).term
    return {"instance": serialize.instance_dumps(inst),
            "term": serialize.term_dumps(term)}


def _first_projection(node: dict) -> dict:
    while node["t"] != "proj":
        node = node["children"][0]
    return node


# each object kind: the document holding it, and where it is found in that
# document together with the name its ParseError gives it
OBJECT_SITES = {
    "instance": ("instance", lambda d: (d, "instance")),
    "term": ("term", lambda d: (d, "term")),
    "graph": ("instance", lambda d: (d["g"], "instance.g")),
    "atom binding": ("term", lambda d: (d["env"]["Q"], "term: atom 'Q'")),
    "projection node": ("term",
                        lambda d: (_first_projection(d["root"]), "term node")),
    "application node": ("term", lambda d: (d["root"], "term node")),
}


def _cut(text: str, limit: int) -> str:
    return text if len(text) <= limit else text[:limit - 3] + "..."


def _canonical(value):
    """value as the reader sees it in a written document: keys sorted."""
    return json.loads(json.dumps(value, sort_keys=True))


def _tuple_repr(points: dict) -> str:
    """The repr of the tuple of ``{index: (x, y)}``."""
    return "<" + ", ".join(f"{i}:({x}|{y})"
                           for i, (x, y) in sorted(points.items())) + ">"


# one bad point value for each point fault, and its message
POINT_FAULTS = {
    "bool": ([True, 1], ": coordinates must be JSON integers"),
    "float": ([1.5, 1], ": coordinates must be JSON integers"),
    "negative": ([1, -1], ": negative coordinate"),
    "three-coordinates": ([1, 1, 0], ""),
}
GRAPH_FAULTS = [
    "not-a-pair", "tuple-not-an-object", "key-01", "missing-key",
    "extra-key", "wrong-indices", "duplicate-tuples",
    *(f"{place}-{fault}" for place in ("key", "value")
      for fault in POINT_FAULTS),
]


def _faulty_graph(order: list, fault: str) -> tuple:
    """A graph object over ``order`` whose entry 1 carries ``fault``, and
    the message its reader gives after the graph's place.  Entry n maps
    the tuple of the points (n|i) to (n|n+1)."""
    entries = [[{str(i): [n, i] for i in order}, [n, n + 1]]
               for n in range(3)]
    u = entries[1][0]
    last = str(order[-1])
    tuple_off_arity = None
    if fault == "not-a-pair":
        entries[1] = [u]
        message = (f"graph entry 1 {_cut(repr(_canonical([u])), 60)} is not "
                   "a [tuple, point] pair")
    elif fault == "tuple-not-an-object":
        entries[1][0] = [1, 1]
        message = "bad tuple [1, 1]"
    elif fault == "key-01":
        u["01"] = u.pop("1")
        message = (f"bad tuple {_cut(repr(_canonical(u)), 60)}: index key "
                   "'01' is not a positive decimal")
    elif fault == "missing-key":
        del u[last]
        tuple_off_arity = u
    elif fault == "extra-key":
        u[str(order[-1] + 1)] = [5, 5]
        tuple_off_arity = u
    elif fault == "wrong-indices":
        entries[1][0] = tuple_off_arity = {str(i + 1): [1, i] for i in order}
    elif fault == "duplicate-tuples":
        entries[1][0] = copy.deepcopy(entries[0][0])
        message = "two graph entries have equal domain tuples"
    else:
        place, kind = fault.split("-", 1)
        bad, reason = POINT_FAULTS[kind]
        if place == "key":
            u[last] = bad
        else:
            entries[1][1] = bad
        message = f"bad point {bad!r}{reason}"
    if tuple_off_arity is not None:
        points = {int(k): p for k, p in tuple_off_arity.items()}
        message = _cut(f"domain tuple {_tuple_repr(points)} does not match "
                       f"arity {order}", 120)
    return {"arity": order, "codomain": None, "graph": entries}, message


class TestSerialization:
    def test_instance_round_trip(self):
        inst = generate_instance(2, 8, 4, seed=3)
        data = serialize.instance_dumps(inst)
        assert serialize.instance_loads(data) == inst

    def test_term_round_trip(self):
        inst = generate_instance(1, 6, 3, seed=3)
        res = end_to_end_synthesize(inst.g, inst.f, inst.theta, inst.horizon,
                                    unary_candidates=inst.candidates)
        data = serialize.term_dumps(res.term)
        back = serialize.term_loads(data)
        us = sorted(inst.g.domain())
        assert compile_term(back)(us) == [inst.g.graph[u] for u in us]
        assert serialize.term_dumps(back) == data

    def test_tuple_valued_pfn_is_not_written(self):
        # every graph a document holds is point-valued, so the writer
        # refuses the composed inner map, the one tuple-valued map the
        # program builds, rather than write what no reader reads
        h = {tup((0, 0)): tup((1, 2))}
        term = Term(root=App("a", (Proj(1),)),
                    env={"a": AtomBinding(h, "ci")}, arity=idx(1))
        with pytest.raises(TypeError, match="not MTuple"):
            serialize.term_dumps(term)

    def test_unknown_version_rejected(self):
        inst = generate_instance(1, 6, 3, seed=0)
        doc = json.loads(serialize.instance_dumps(inst))
        # true and 1.0 equal 1 in Python, and used to load as version 1
        for version in (99, True, 1.0):
            with pytest.raises(serialize.ParseError, match="version"):
                serialize.instance_loads(
                    serialize.dumps({**doc, "version": version}))
        with pytest.raises(serialize.ParseError):
            serialize.loads(b'{"no": "tag"}\n', "instance")
        # each reader used to ignore the kind tag
        kindless = {k: v for k, v in doc.items() if k != "kind"}
        for kind in ("term", "report", None):
            tagged = kindless if kind is None else {**doc, "kind": kind}
            with pytest.raises(serialize.ParseError,
                               match=f"kind {kind!r} is not 'instance'"):
                serialize.instance_loads(serialize.dumps(tagged))
        with pytest.raises(serialize.ParseError,
                           match="kind 'instance' is not 'term'"):
            serialize.term_loads(serialize.dumps(
                {**self.small_term_doc(), "kind": "instance"}))

    def test_malformed_bytes_rejected(self):
        with pytest.raises(serialize.ParseError):
            serialize.loads(b"not json", "instance")

    def test_deeply_nested_document_rejected(self):
        with pytest.raises(serialize.ParseError):
            serialize.loads(b"[" * 100000, "instance")

    @staticmethod
    def with_first_tuple(doc, tuple_doc):
        """The term document with its atom's first domain tuple replaced."""
        doc["env"]["a"]["fn"]["graph"][0][0] = tuple_doc
        return serialize.dumps(doc)

    def test_non_integer_tuple_index_rejected(self):
        with pytest.raises(serialize.ParseError, match="bad tuple"):
            serialize.term_loads(self.with_first_tuple(
                self.small_term_doc(), {"x": [0, 0]}))

    @pytest.mark.parametrize("tuple_doc", [
        {"1": [0, 0], "01": [5, 5]},  # used to load as <1:(5|5)>
        {" 1": [0, 0]},
        {"1_0": [0, 0]},  # used to load as index 10
        {"0": [0, 0]},
    ])
    def test_non_canonical_tuple_index_rejected(self, tuple_doc):
        with pytest.raises(serialize.ParseError,
                           match="is not a positive decimal"):
            serialize.term_loads(self.with_first_tuple(
                self.small_term_doc(), tuple_doc))

    @staticmethod
    def small_term_doc():
        term = Term(root=App("a", (Proj(1),)),
                    env={"a": AtomBinding(unary({(0, 1): (2, 3)}), "ci")},
                    arity=idx(1))
        data = serialize.term_dumps(term)
        assert serialize.term_dumps(serialize.term_loads(data)) == data
        return json.loads(data.decode())

    def test_term_without_env_rejected(self):
        doc = self.small_term_doc()
        del doc["env"]
        with pytest.raises(serialize.ParseError, match="env"):
            serialize.term_loads(serialize.dumps(doc))

    @pytest.mark.parametrize("kind, change", [
        *[(kind, ("add", "zz", 1)) for kind in OBJECT_KEYS],
        *[(kind, ("drop", key)) for kind, keys in OBJECT_KEYS.items()
          for key in keys],
        # probes that loaded before every object was read by one rule
        ("graph", ("set", "arity", [2, 1])),
        ("term", ("set", "arity", [2, 1])),
        ("instance", ("set", "metadata", 5)),
        ("term", ("set", "env", "unused tuple-valued atom")),
    ], ids=lambda v: v if isinstance(v, str) else "-".join(v[:2]))
    def test_object_fields_are_exact(self, kind, change, tmp_path, capsys):
        # Each object holds exactly the keys its writer writes: an unknown
        # key used to load and be dropped by the next dump, so two
        # byte-different documents read as one.
        docs = {name: json.loads(data)
                for name, data in _probe_documents().items()}
        doc_kind, find = OBJECT_SITES[kind]
        obj, name = find(docs[doc_kind])
        assert list(obj) == sorted(OBJECT_KEYS[kind])
        action, key, *value = change
        if action == "add":
            obj[key] = 1
            expected = f"{name}: unknown field 'zz'"
        elif action == "drop":
            # with an unknown key too: the error names both, but a node
            # without its tag has no key list to judge the others by
            del obj[key]
            obj["zz"] = 1
            expected = f"{name}: missing field {key!r}; unknown field 'zz'"
            if kind == doc_kind and key == "version":
                expected = f"{name}: missing version tag"
            elif kind == doc_kind and key == "kind":
                expected = f"{name}: document kind None is not {name!r}"
            elif key == "t":
                expected = f"{name}: missing field 't'"
        elif key == "env":
            obj["env"]["unused"] = {"kind": "ci", "fn": {
                "arity": [1], "codomain": [1],
                "graph": [[{"1": [0, 0]}, {"1": [1, 1]}]]}}
            expected = 'term.env["unused"].fn: codomain [1] is not null'
        else:
            [obj[key]] = value
            expected = {
                "arity": f"{name}: arity {value[0]!r} is not strictly "
                         "increasing",
                "metadata": f"{name}: metadata 5 is not an object"}[key]
        data = serialize.dumps(docs[doc_kind])
        load = {"instance": serialize.instance_loads,
                "term": serialize.term_loads}[doc_kind]
        with pytest.raises(serialize.ParseError) as exc:
            load(data)
        assert str(exc.value) == expected
        # the command line reports it as one line and exits 2
        path = tmp_path / "doc.json"
        path.write_bytes(data)
        argv = (["check", "--instance", str(path)] if doc_kind == "instance"
                else ["verify", *PROBE_ARGV, "--term", str(path)])
        assert main(argv) == 2
        assert capsys.readouterr().err == f"clonecover: {exc.value}\n"

    def test_graph_entry_not_a_pair_rejected(self):
        doc = self.small_term_doc()
        entry = doc["env"]["a"]["fn"]["graph"][0]
        doc["env"]["a"]["fn"]["graph"][0] = entry[:1]
        with pytest.raises(serialize.ParseError) as exc:
            serialize.term_loads(serialize.dumps(doc))
        assert str(exc.value) == ('term.env["a"].fn: graph entry 0 '
                                  "[{'1': [0, 1]}] is not a [tuple, point] "
                                  "pair")
        # the same holds for a point of three coordinates, and an entry of
        # three members or none, on the unary atom's graph
        for bad, message in (
                ([{"1": [0, 1, 2]}, [2, 3]], "bad point [0, 1, 2]"),
                ([{"1": [0, 1]}, [2, 3, 4]], "bad point [2, 3, 4]"),
                ([{"1": [0, 1]}, [2, 3], [4, 5]],
                 "graph entry 0 [{'1': [0, 1]}, [2, 3], [4, 5]] is not a "
                 "[tuple, point] pair"),
                (5, "graph entry 0 5 is not a [tuple, point] pair")):
            doc["env"]["a"]["fn"]["graph"][0] = bad
            with pytest.raises(serialize.ParseError) as exc:
                serialize.term_loads(serialize.dumps(doc))
            assert str(exc.value) == f'term.env["a"].fn: {message}'
        # an instance's g and f name the entry too; both used to print
        # Python's own unpacking message
        inst_doc = json.loads(serialize.instance_dumps(
            generate_instance(2, 8, 4, seed=3)))
        for key, bad in itertools.product(("g", "f"), ("three", 5)):
            doc = copy.deepcopy(inst_doc)
            graph = doc[key]["graph"]
            if bad == "three":
                bad = graph[1] = [*graph[1], [4, 5]]
            else:
                graph[1] = bad
            with pytest.raises(serialize.ParseError) as exc:
                serialize.instance_loads(serialize.dumps(doc))
            assert str(exc.value) == (
                f"instance.{key}: graph entry 1 {bad!r} is not a "
                "[tuple, point] pair")

    @pytest.mark.parametrize("bad", [5, "xy", {"a": 1}],
                             ids=["int", "string", "object"])
    def test_graph_that_is_not_an_array_rejected(self, bad):
        # A graph or a candidate list used to be iterated whatever it was:
        # an int gave Python's "'int' object is not iterable", a string or
        # an object was read as its characters or keys.
        inst_doc = json.loads(serialize.instance_dumps(
            generate_instance(2, 8, 4, 0, "mary-witness")))
        cases = [
            (serialize.instance_loads, inst_doc, ("g", "graph"),
             "instance.g"),
            (serialize.instance_loads, inst_doc, ("candidates", 0, "graph"),
             "instance.candidates[0]"),
            (serialize.instance_loads, inst_doc, ("candidates", 1, "graph"),
             "instance.candidates[1]"),
            (serialize.term_loads, self.small_term_doc(),
             ("env", "a", "fn", "graph"), 'term.env["a"].fn'),
        ]
        for load, original, path, where in cases:
            doc = obj = copy.deepcopy(original)
            for key in path[:-1]:
                obj = obj[key]
            obj[path[-1]] = bad
            with pytest.raises(serialize.ParseError) as exc:
                load(serialize.dumps(doc))
            assert str(exc.value) == f"{where}: graph {bad!r} is not an array"
        with pytest.raises(serialize.ParseError) as exc:
            serialize.instance_loads(serialize.dumps(
                {**inst_doc, "candidates": bad}))
        assert str(exc.value) == f"instance: candidates {bad!r} is not an array"

    def test_shown_values_are_cut(self):
        # A value copied from elsewhere in the document used to be shown
        # whole: f's graph as g's first value gave a 786-character line.
        doc = json.loads(serialize.instance_dumps(
            generate_instance(2, 8, 4, seed=3)))
        doc["g"]["graph"][0][1] = doc["f"]["graph"]
        with pytest.raises(serialize.ParseError) as exc:
            serialize.instance_loads(serialize.dumps(doc))
        assert str(exc.value) == ("instance.g: bad point [[{'1': [0, 1]}, "
                                  "[33, 16]], [{'1': [0, 5]}, [33, 47]], "
                                  "[{...")
        # the text of an error the reader wraps is cut too
        doc = self.small_term_doc()
        doc["root"]["name"] = "b" * 500
        with pytest.raises(serialize.ParseError) as exc:
            serialize.term_loads(serialize.dumps(doc))
        message = str(exc.value)
        assert message.startswith("term: unbound atom 'bbb")
        assert message.endswith("b...") and len(message) == len("term: ") + 120

    def test_app_without_children_rejected(self):
        doc = self.small_term_doc()
        del doc["root"]["children"]
        with pytest.raises(serialize.ParseError, match="children"):
            serialize.term_loads(serialize.dumps(doc))

    @pytest.mark.parametrize("children, message", [
        (None, "term node: missing field 'children'"),
        (5, "term node: children 5 is not an array"),
        # used to be read as its characters, each a node without a tag
        ("ab", "term node: children 'ab' is not an array"),
    ])
    def test_faults_below_the_root_are_term_node_errors(self, children,
                                                        message):
        # One guard at the root reports a fault at any depth as about a
        # term node.
        doc = self.small_term_doc()
        inner = {"t": "app", "name": "a", "children": children}
        if children is None:
            del inner["children"]
        doc["root"]["children"][0] = inner
        with pytest.raises(serialize.ParseError) as exc:
            serialize.term_loads(serialize.dumps(doc))
        assert str(exc.value) == message

    @pytest.mark.parametrize("path, bad, message", [
        (("env",), 5, "term: env 5 is not an object"),
        (("arity",), 5, "term: arity 5 is not an array"),
        (("env", "a", "fn", "arity"), 5,
         'term.env["a"].fn: arity 5 is not an array'),
        (("root", "name"), [1], "term node: name [1] is not a string"),
    ], ids=["env", "term-arity", "graph-arity", "node-name"])
    def test_values_of_the_wrong_json_type_are_named(self, path, bad,
                                                     message):
        # Each used to print Python's own message: "'int' object has no
        # attribute 'items'", "'int' object is not iterable" or
        # "unhashable type: 'list'".
        doc = obj = self.small_term_doc()
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = bad
        with pytest.raises(serialize.ParseError) as exc:
            serialize.term_loads(serialize.dumps(doc))
        assert str(exc.value) == message

    def test_non_integer_projection_rejected(self):
        doc = self.small_term_doc()
        doc["root"]["children"][0]["k"] = "x"
        with pytest.raises(serialize.ParseError, match="term node"):
            serialize.term_loads(serialize.dumps(doc))

    def test_projection_outside_arity_rejected(self):
        # Proj(2) in a unary term used to load and fail evaluation with a
        # KeyError
        doc = self.small_term_doc()
        doc["root"]["children"][0]["k"] = 2
        with pytest.raises(serialize.ParseError,
                           match="projection 2 outside arity"):
            serialize.term_loads(serialize.dumps(doc))

    def test_child_count_other_than_atom_arity_rejected(self):
        doc = self.small_term_doc()
        doc["root"]["children"].append({"t": "proj", "k": 1})
        with pytest.raises(serialize.ParseError,
                           match="arity 1, applied to 2 children"):
            serialize.term_loads(serialize.dumps(doc))

    def test_unbound_atom_rejected(self):
        doc = self.small_term_doc()
        doc["root"]["name"] = "b"
        with pytest.raises(serialize.ParseError, match="unbound atom 'b'"):
            serialize.term_loads(serialize.dumps(doc))

    def test_unknown_atom_kind_rejected(self):
        doc = self.small_term_doc()
        doc["env"]["a"]["kind"] = "oracle"
        with pytest.raises(serialize.ParseError, match="unknown kind"):
            serialize.term_loads(serialize.dumps(doc))

    def test_inconsistent_instance_rejected(self):
        doc = json.loads(serialize.instance_dumps(
            generate_instance(2, 8, 4, seed=3)))
        shifted = {**doc["g"], "arity": [2, 3], "graph": [
            [{str(int(i) + 1): p for i, p in u.items()}, v]
            for u, v in doc["g"]["graph"]]}
        faults = [
            # m = 3 and theta = 99 on a binary g used to load silently
            ({"m": 3, "theta": 99}, "m = 3 but g has arity"),
            ({"m": 1}, "m = 1 but g has arity"),
            # a binary g over {2, 3}, and m = 0 with an empty g, loaded too
            ({"g": shifted}, r"m = 2 but g has arity \[2, 3\]"),
            ({"m": 0, "g": {**doc["g"], "arity": [], "graph": []}},
             "m = 0 is below 1"),
            ({"theta": 99}, "theta 99 outside"),
            ({"theta": 0}, "theta 0 outside"),
            ({"theta": 8}, "theta 8 outside"),
            ({"profile": "bogus"}, "unknown profile"),
            # a repeated arity member used to load as the set, and dumped
            # back to other bytes
            ({"g": {**doc["g"], "arity": [1, 2, 2]}},
             r"arity \[1, 2, 2\] is not strictly increasing"),
            # the ceiling is horizon**2 + horizon = 72; another one used to
            # load and be kept
            ({"ceiling": 12345},
             r"ceiling 12345 is not horizon \* horizon \+ horizon = 72"),
            ({"ceiling": 10**6}, "ceiling 1000000 is not"),
            ({"ceiling": 73}, "ceiling 73 is not"),
        ]
        for fields, message in faults:
            with pytest.raises(serialize.ParseError, match=message):
                serialize.instance_loads(serialize.dumps({**doc, **fields}))

    def test_huge_m_builds_no_index_set(self, monkeypatch):
        # {1..m} used to be built for any m before it was compared with g's
        # arity, so "m": 10**12 asked for a set of 10**12 members; the
        # guard fails the test instead of building it
        def bounded(m):
            assert m <= 1000, f"an index set of {m} members was built"
            return full_index(m)

        monkeypatch.setattr(serialize, "full_index", bounded)
        doc = json.loads(serialize.instance_dumps(
            generate_instance(2, 8, 4, seed=3)))
        with pytest.raises(serialize.ParseError) as exc:
            serialize.instance_loads(serialize.dumps({**doc, "m": 10**12}))
        assert str(exc.value) == ("instance: m = 1000000000000 but g has "
                                  "arity [1, 2]")

    @staticmethod
    def off_arity_g(doc):
        """The instance document with g's first domain tuple over one index
        too many."""
        g = json.loads(json.dumps(doc["g"]))
        g["graph"][0][0]["9"] = [0, 0]
        return {**doc, "g": g}

    @staticmethod
    def tuple_valued_off_codomain(fn_doc):
        """A function document made tuple-valued over {1, 2}, with values
        over {1} only."""
        return {**fn_doc, "codomain": [1, 2],
                "graph": [[u, {"1": v}] for u, v in fn_doc["graph"]]}

    def test_domain_tuple_off_arity_rejected(self):
        doc = json.loads(serialize.instance_dumps(
            generate_instance(2, 8, 4, seed=3)))
        with pytest.raises(serialize.ParseError,
                           match="instance.g: domain tuple .* does not "
                                 r"match arity \[1, 2\]"):
            serialize.instance_loads(serialize.dumps(self.off_arity_g(doc)))
        # an extra index key on the unary atom's tuple
        doc = self.small_term_doc()
        doc["env"]["a"]["fn"]["graph"][0][0]["2"] = [0, 0]
        with pytest.raises(serialize.ParseError) as exc:
            serialize.term_loads(serialize.dumps(doc))
        assert str(exc.value) == ('term.env["a"].fn: domain tuple '
                                  "<1:(0|1), 2:(0|0)> does not match arity "
                                  "[1]")

    def test_value_off_codomain_rejected(self):
        # a graph's codomain is null, so the codomain is rejected before
        # any value is read against it
        doc = self.small_term_doc()
        fn = doc["env"]["a"]["fn"]
        doc["env"]["a"]["fn"] = self.tuple_valued_off_codomain(fn)
        with pytest.raises(serialize.ParseError) as exc:
            serialize.term_loads(serialize.dumps(doc))
        assert str(exc.value) == ('term.env["a"].fn: codomain [1, 2] is not '
                                  "null")

    @pytest.mark.parametrize("coordinate",
                             ["1e400", "Infinity", "2.7", '"3"', "true"])
    def test_non_integer_coordinate_rejected(self, coordinate):
        # 1e400 and Infinity used to escape as OverflowError; the others
        # loaded as integers
        inst = generate_instance(1, 6, 3, seed=0)
        for data, load in (
                (serialize.dumps(self.small_term_doc()), serialize.term_loads),
                (serialize.instance_dumps(inst), serialize.instance_loads)):
            bad = re.sub(rb'"1":\[\d+,', b'"1":[%s,' % coordinate.encode(),
                         data, count=1)
            assert bad != data
            with pytest.raises(serialize.ParseError, match="JSON integers"):
                load(bad)
        value = json.loads(coordinate)
        # the output point of the unary atom follows it too
        doc = self.small_term_doc()
        doc["env"]["a"]["fn"]["graph"][0][1] = [2, value]
        with pytest.raises(serialize.ParseError) as exc:
            serialize.term_loads(serialize.dumps(doc))
        assert str(exc.value) == ('term.env["a"].fn: bad point '
                                  f"{[2, value]!r}: coordinates must be JSON "
                                  "integers")
        # the scalars follow the coordinate rule: "m": 1.9, "theta": "4"
        # and "arity": [true] used to load as 1, 4 and {True}
        inst_doc = json.loads(serialize.instance_dumps(inst))
        for key in ("m", "horizon", "theta", "seed", "ceiling"):
            with pytest.raises(serialize.ParseError,
                               match=f"instance: {key} .* is not a JSON "
                                     "integer"):
                serialize.instance_loads(
                    serialize.dumps({**inst_doc, key: value}))
        doc = self.small_term_doc()
        fn = doc["env"]["a"]["fn"]
        faults = [
            ({**doc, "root": {**doc["root"],
                              "children": [{"t": "proj", "k": value}]}},
             "term node: projection"),
            ({**doc, "arity": [value]}, "term: arity member"),
            ({**doc, "env": {"a": {**doc["env"]["a"],
                                   "fn": {**fn, "arity": [value]}}}},
             r'term.env\["a"\].fn: arity member'),
        ]
        for bad, where in faults:
            with pytest.raises(serialize.ParseError,
                               match=f"{where} .* is not a JSON integer"):
                serialize.term_loads(serialize.dumps(bad))
        # a codomain is null, whatever its members
        tuple_valued = self.tuple_valued_off_codomain(fn)
        bad = {**doc, "env": {"a": {**doc["env"]["a"], "fn": {
            **tuple_valued, "codomain": [1, value]}}}}
        with pytest.raises(serialize.ParseError) as exc:
            serialize.term_loads(serialize.dumps(bad))
        assert str(exc.value) == (f'term.env["a"].fn: codomain {[1, value]!r} '
                                  "is not null")

    def test_arity_member_below_one_rejected(self):
        # An index set holds positive naturals, as a tuple key does; each
        # of these used to load and dump back to the same bytes, and the
        # non-empty f over [0] failed only in PartialFn, as "domain tuple
        # <1:(0|0)> does not match arity [0]".
        inst_doc = json.loads(serialize.instance_dumps(
            generate_instance(2, 8, 4, seed=3)))
        f = inst_doc["f"]
        faults = [
            (serialize.instance_loads,
             {**inst_doc, "f": {**f, "arity": arity, "graph": []}},
             f"instance.f: arity member {arity[0]} is below 1")
            for arity in ([0], [-3], [-1, 2])
        ]
        faults.append((serialize.instance_loads,
                       {**inst_doc, "f": {**f, "arity": [0]}},
                       "instance.f: arity member 0 is below 1"))
        doc = self.small_term_doc()
        faults.append((serialize.term_loads,
                       {**doc, "arity": [0], "root": {"t": "proj", "k": 0}},
                       "term: arity member 0 is below 1"))
        fn = doc["env"]["a"]["fn"]
        faults.append((serialize.term_loads,
                       {**doc, "env": {"a": {**doc["env"]["a"],
                                             "fn": {**fn, "arity": [-7]}}}},
                       'term.env["a"].fn: arity member -7 is below 1'))
        for load, bad, message in faults:
            with pytest.raises(serialize.ParseError) as exc:
                load(serialize.dumps(bad))
            assert str(exc.value) == message

    def test_duplicate_domain_tuple_rejected(self):
        # the second entry used to overwrite the first: the atom loaded as
        # {<1:(0|1)>: (5|5)}
        doc = self.small_term_doc()
        doc["env"]["a"]["fn"]["graph"] = [[{"1": [0, 1]}, [2, 3]],
                                          [{"1": [0, 1]}, [5, 5]]]
        with pytest.raises(serialize.ParseError) as exc:
            serialize.term_loads(serialize.dumps(doc))
        assert str(exc.value) == ('term.env["a"].fn: two graph entries have '
                                  "equal domain tuples")
        inst_doc = json.loads(serialize.instance_dumps(
            generate_instance(2, 8, 4, seed=3)))
        g = inst_doc["g"]
        doubled = {**g, "graph": g["graph"] + g["graph"][:1]}
        with pytest.raises(serialize.ParseError,
                           match="instance.g: two graph entries"):
            serialize.instance_loads(
                serialize.dumps({**inst_doc, "g": doubled}))

    def test_out_of_range_numbers_rejected(self):
        # each used to escape as a ValueError or an OverflowError
        term = serialize.dumps(self.small_term_doc())
        with pytest.raises(serialize.ParseError, match="digits"):
            serialize.term_loads(term.replace(b"[2,3]",
                                              b"[%s,3]" % (b"1" * 5000)))
        with pytest.raises(serialize.ParseError, match="term node"):
            serialize.term_loads(term.replace(b'"k":1', b'"k":1e400'))
        inst = json.loads(serialize.instance_dumps(
            generate_instance(1, 6, 3, seed=0)))
        with pytest.raises(serialize.ParseError, match="instance"):
            serialize.instance_loads(serialize.dumps({**inst, "m": 1e400}))

    def test_negative_coordinate_rejected(self):
        for bad in ([-1, 3], [2, -1]):
            doc = self.small_term_doc()
            doc["env"]["a"]["fn"]["graph"][0][1] = bad
            with pytest.raises(serialize.ParseError, match="negative"):
                serialize.term_loads(serialize.dumps(doc))
        # in the domain tuple too
        for bad in ([-1, 1], [0, -1]):
            doc = self.small_term_doc()
            doc["env"]["a"]["fn"]["graph"][0][0] = {"1": bad}
            with pytest.raises(serialize.ParseError) as exc:
                serialize.term_loads(serialize.dumps(doc))
            assert str(exc.value) == (f'term.env["a"].fn: bad point {bad!r}: '
                                      "negative coordinate")

    def test_loaded_term_shares_its_subterms(self):
        # one object per distinct node, as in the synthesized term: 31
        # node objects for a 181-node tree
        inst = generate_instance(3, 8, 4, 0, "mixed")
        term = end_to_end_synthesize(inst.g, inst.f, inst.theta, inst.horizon,
                                     unary_candidates=inst.candidates).term
        data = serialize.term_dumps(term)
        back = serialize.term_loads(data)
        assert back.size() == term.size() == 181
        assert _distinct_nodes(back.root) == _distinct_nodes(term.root) == 31
        assert back == term and serialize.term_dumps(back) == data

    def test_canonical_bytes(self):
        inst = generate_instance(1, 6, 3, seed=0)
        data = serialize.instance_dumps(inst)
        # canonical form: sorted keys, tight separators, one trailing newline
        assert data == serialize.dumps(json.loads(data.decode()))
        assert data.endswith(b"\n") and b": " not in data

    @pytest.mark.parametrize("site", ["instance.g", 'term.env["a"].fn'])
    @pytest.mark.parametrize("order", [[1], [1, 2], [1, 2, 3],
                                       [*range(1, 11)]],
                             ids=lambda order: f"arity{len(order)}")
    @pytest.mark.parametrize("fault", GRAPH_FAULTS)
    def test_one_fault_in_a_graph_of_any_arity(self, fault, order, site):
        # One rule reads every graph, whatever its arity; each fault is
        # named by the same message on an instance's g and on a term atom.
        # Arity 10 writes its keys in JSON's order, "10" before "2".
        graph, message = _faulty_graph(order, fault)
        if site == "instance.g":
            doc, load = json.loads(serialize.instance_dumps(
                generate_instance(1, 6, 3, seed=0))), serialize.instance_loads
            doc["g"] = graph
        else:
            doc, load = self.small_term_doc(), serialize.term_loads
            doc["env"]["a"]["fn"] = graph
        with pytest.raises(serialize.ParseError) as exc:
            load(serialize.dumps(doc))
        assert str(exc.value) == f"{site}: {message}"

    def test_tuple_keys_in_any_order_load(self):
        # The writer lists a tuple's keys in JSON's order; keys listed in
        # another order name the same tuple, and write back canonically.
        order = [1, 2, 10]
        fn = PartialFn(frozenset(order), {
            MTuple(tuple((i, Point(n, i)) for i in order)): Point(n, 0)
            for n in range(4)})
        term = Term(App("a", tuple(map(Proj, order))),
                    {"a": AtomBinding(fn, CI_ATOM)}, fn.arity)
        inst = generate_instance(2, 8, 4, seed=3)
        for data, load, dump, graph in (
                (serialize.term_dumps(term), serialize.term_loads,
                 serialize.term_dumps, lambda d: d["env"]["a"]["fn"]),
                (serialize.instance_dumps(inst), serialize.instance_loads,
                 serialize.instance_dumps, lambda d: d["g"])):
            doc = json.loads(data)
            entries = graph(doc)["graph"]
            for n, entry in enumerate(entries):
                keys = [*entry[0]]
                keys = keys[n % len(keys):] + keys[:n % len(keys)]
                entry[0] = {k: entry[0][k] for k in reversed(keys)}
            reordered = json.dumps(doc, separators=(",", ":")).encode()
            assert reordered != data
            assert dump(load(reordered)) == data

    @staticmethod
    def deep_term(depth: int) -> bytes:
        """A term document whose root applies the unary atom a ``depth``
        times to x1, written without a recursive writer."""
        root = ('{"children":[' * depth + '{"k":1,"t":"proj"}'
                + '],"name":"a","t":"app"}' * depth)
        return ('{"arity":[1],"env":{"a":{"fn":{"arity":[1],"codomain":null,'
                '"graph":[[{"1":[0,1]},[0,1]]]},"kind":"ci"}},"kind":"term",'
                f'"root":{root},"version":1}}\n').encode()

    def test_a_deep_term_is_one_parse_error(self, monkeypatch, tmp_path,
                                           capsys):
        # 400 nested applications parse as JSON and as term nodes, and used
        # to escape compile_term as a RecursionError.  Deeper ones overflow
        # the node reader itself where JSON's nesting limit lies past the
        # interpreter's recursion limit, as on Python 3.12; here the reader
        # is handed such a document already parsed.
        assert serialize.term_loads(self.deep_term(3)).depth() == 4
        path = tmp_path / "deep.json"
        path.write_bytes(self.deep_term(400))
        doc = json.loads(self.deep_term(0))
        for _ in range(5000):
            doc["root"] = {"t": "app", "name": "a", "children": [doc["root"]]}
        for reader, message in (("compile_term", "term: nested too deeply"),
                                ("_node_parse",
                                 "term node: nested too deeply")):
            if reader == "_node_parse":
                monkeypatch.setattr(serialize, "loads", lambda data, kind: doc)
            with pytest.raises(serialize.ParseError) as exc:
                serialize.term_loads(path.read_bytes())
            assert str(exc.value) == message
            frames = [f.name for f in traceback.extract_tb(
                exc.value.__cause__.__traceback__)]
            assert reader in frames
            assert ("compile_term" in frames) == (reader == "compile_term")
            # the command line prints it as one line and exits 2
            assert main(["verify", "--m", "1", "--term", str(path)]) == 2
            assert capsys.readouterr().err == f"clonecover: {message}\n"


class TestPipeline:
    def test_report_passes_on_generated_instance(self):
        inst = generate_instance(2, 8, 4, seed=9)
        report, result = run_pipeline(inst)
        assert report["passed"]
        assert result is not None
        assert {c["name"] for c in report["checks"]} >= {
            "admissibility",
            "decomposition contracts",
            "term equality on dom(g)",
            "helper range certificates",
            "selector width bound (m!)",
            "per-line uniqueness",
        }

    def test_report_bytes_are_deterministic(self):
        a, _ = run_pipeline(generate_instance(1, 6, 3, seed=5))
        b, _ = run_pipeline(generate_instance(1, 6, 3, seed=5))
        assert serialize.report_dumps(a) == serialize.report_dumps(b)

    def test_choice_stages_run_once(self, monkeypatch):
        inst = generate_instance(2, 8, 4, seed=9, profile="mary-witness")
        calls = _count_calls(monkeypatch, ("reduce_to_unary", "normalize_f",
                                           "hereditary_decompose"))
        report, _ = run_pipeline(inst)
        assert report["passed"]
        assert calls == {"reduce_to_unary": 1, "normalize_f": 1,
                         "hereditary_decompose": 1}

    def test_f_star_is_built_once_per_synthesis(self, monkeypatch):
        # f* depends on the horizon alone: the witness's judges build none,
        # and each synthesis builds it once, for the selector and the term.
        inst = generate_instance(2, 8, 4, seed=9, profile="mary-witness")
        calls = _count_calls(monkeypatch, ("normal_witness",))
        f = synth.reduce_to_unary(inst.f, inst.candidates)
        nw = synth.normalize_f(f, inst.horizon)
        adm = check_admissibility(inst)
        assert calls == {"normal_witness": 0}
        assert [field.name for field in dataclasses.fields(nw)] == [
            "relabel_domain", "line_map", "row_map"]
        assert adm["passed"] and list(adm) == [
            "passed", "checks", "detail", "trace"]
        end_to_end_synthesize(inst.g, inst.f, inst.theta, inst.horizon,
                              unary_candidates=inst.candidates)
        assert calls == {"normal_witness": 1}
        report, _ = run_pipeline(inst)
        assert report["passed"] and calls == {"normal_witness": 2}

    def test_tuple_bounds_are_read_in_one_pass_per_sweep(self, monkeypatch):
        # The decomposition and its verifier each read every tuple's bound
        # at one S from one tuple_bounds pass, through wasteful_pairs.
        # The K columns and the helpers read neither: one passing
        # complete_synthesis transposes dom(q) once (index_columns) and
        # folds every S's bounds itself.
        inst = generate_instance(3, 8, 4, 5, "mary-witness")
        calls = _count_calls(monkeypatch, ("tuple_bounds", "index_columns",
                                           "wasteful_pairs"))
        trace = hereditary_decompose(inst.g, inst.theta)
        sweeps = len(trace.stages)
        assert sweeps == 8
        assert calls == dict.fromkeys(calls, sweeps)
        result = synth.complete_synthesis(inst.g, inst.horizon, trace)
        assert result.h_family and calls == {
            "tuple_bounds": sweeps, "index_columns": sweeps + 1,
            "wasteful_pairs": sweeps}
        assert verify_decomposition(inst.g, trace).passed
        assert calls == {"tuple_bounds": 2 * sweeps,
                         "index_columns": 2 * sweeps + 1,
                         "wasteful_pairs": 2 * sweeps}

    def test_a_q_that_is_not_thrifty_fails_only_the_k_tables(self,
                                                              monkeypatch):
        # A trace claiming a theta its g' does not meet stops synthesis at
        # the K-tables, with the message the per-S bound path has always
        # given; the helpers never run.
        inst = generate_instance(3, 8, 4, 5, "mary-witness")
        message = ("function is not thrifty at theta=2: value (1|57) has "
                   "preimage bound 4")
        low = dataclasses.replace(hereditary_decompose(inst.g, inst.theta),
                                  theta=2)
        with pytest.raises(synth.StageError) as raised:
            synth.complete_synthesis(inst.g, inst.horizon, low)
        assert raised.value.stage == "k-tables"
        assert str(raised.value.cause) == message
        assert (raised.value.cause.value, raised.value.cause.bound) == (
            Point(1, 57), 4)

        admissibility = pipeline.check_admissibility

        def lowered(instance):
            return {**admissibility(instance), "trace": low}

        monkeypatch.setattr(pipeline, "check_admissibility", lowered)
        report, result = run_pipeline(inst)
        assert result is None and not report["passed"]
        names = [c["name"] for c in report["checks"]]
        assert "stage:helpers" not in names
        assert [(c["name"], c["detail"]) for c in report["checks"]
                if not c["passed"]] == [("stage:k-tables", message)]

    def test_a_thrift_failure_keys_only_its_wasteful_tuples(self,
                                                             monkeypatch):
        # Both thrift failures name the least wasteful fiber through
        # wasteful_pairs, which keys the tuples with a bound above theta
        # alone: the K-tables' error reads it once, at the failing S, and
        # the verifier once per stage.  The second q is first wasteful at
        # S = {1}, in both of its fibers.
        inst = generate_instance(3, 8, 4, 5, "mary-witness")
        low = dataclasses.replace(hereditary_decompose(inst.g, inst.theta),
                                  theta=2)
        q = PartialFn(idx(1, 2), {
            tup((1, 0), (0, 9)): pt(0, 0), tup((0, 0), (4, 1)): pt(0, 1),
            tup((0, 0), (2, 7)): pt(2, 2), tup((0, 0), (1, 0)): pt(1, 1),
            tup((0, 0), (0, 5)): pt(1, 1), tup((0, 0), (3, 3)): pt(1, 1)})
        keyed = _record_keying(monkeypatch)
        for fn, value, bound in ((low.g_prime, "(1|57)", 4),
                                 (q, "(1|1)", 6)):
            keyed.clear()
            with pytest.raises(analysis.NotThriftyError) as raised:
                synth.fiber_k_tables(fn, 2)
            assert str(raised.value) == (
                f"function is not thrifty at theta=2: value {value} has "
                f"preimage bound {bound}")
            failing = next(s for s in analysis.all_subsets(sorted(fn.arity))
                           if _above(fn, s, 2))
            assert keyed == [(failing, _above(fn, failing, 2))]
        assert keyed == [(idx(1), 4)]
        keyed.clear()
        assert [(c["name"], c["detail"]) for c in
                verify_decomposition(inst.g, low).failing] == [
            ("S=[]: fibers thrifty", "fiber <>"),
            ("S=[1]: fibers thrifty", "fiber <1:(2|2)>"),
            ("S=[2]: fibers thrifty", "fiber <2:(0|2)>"),
            ("S=[3]: fibers thrifty", "fiber <3:(4|2)>"),
            ("S=[1, 2]: fibers thrifty", "fiber <1:(2|2), 2:(45|2)>"),
            ("S=[1, 3]: fibers thrifty", "fiber <1:(2|2), 3:(39|3)>"),
            ("S=[2, 3]: fibers thrifty", "fiber <2:(0|2), 3:(51|2)>")]
        assert keyed == [(stage.s, _above(stage.g_prime, stage.s, 2))
                         for stage in low.stages]

    def test_a_passing_run_leaves_no_cyclic_garbage(self):
        # Reference counting frees everything a run makes, so a recursive
        # closure or another cycle shows up here rather than as collector
        # time in the benchmark.
        gc.collect()
        gc.disable()
        try:
            inst = generate_instance(3, 8, 4, 5, "mary-witness")
            loaded = serialize.instance_loads(serialize.instance_dumps(inst))
            res = end_to_end_synthesize(loaded.g, loaded.f, loaded.theta,
                                        loaded.horizon,
                                        unary_candidates=loaded.candidates)
            term = serialize.term_loads(serialize.term_dumps(res.term))
            assert verify_pair(loaded, term)["passed"]
            report, _ = run_pipeline(loaded)
            assert report["passed"]
            del inst, loaded, res, term, report
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_factor_families_per_instance(self, monkeypatch):
        # One certification pass per run, on the width-1 family the exact
        # worst case spans; one exact width search, whose verdict the
        # width-2 check reads.
        calls = _count_calls(monkeypatch, ("main_lemma_certify",
                                           "spanned_family",
                                           "verify_Q_in_CI"))
        report, _ = run_pipeline(generate_instance(2, 8, 4, seed=9))
        assert report["passed"]
        assert calls == {"main_lemma_certify": 1, "spanned_family": 1,
                         "verify_Q_in_CI": 1}

    def test_selector_certificates_scan_q_once_per_family(self,
                                                          monkeypatch):
        # |Q| = 28 over 21 value lines.  Certifying each (line, perm) pair
        # on its own made 378 certification calls and 644 = 23 |Q|
        # product-membership evaluations; the one family is read in one
        # scan of Q.
        inst = generate_instance(3, 8, 4, 5, "mary-witness")
        calls = _count_calls(monkeypatch, ("main_lemma_certify",))
        members = [0]
        original = synth._in_product

        def counting(*args):
            members[0] += 1
            return original(*args)

        monkeypatch.setattr(synth, "_in_product", counting)
        report, result = run_pipeline(inst)
        assert report["passed"]
        assert len(result.q_table) == 28
        assert calls["main_lemma_certify"] == 1
        assert members[0] == len(result.q_table)

    def test_width_failure_stays_in_its_own_check(self, monkeypatch):
        original = pipeline.verify_Q_in_CI

        def failing_narrow(q_table, m):
            verdict = original(q_table, m)
            return dataclasses.replace(verdict, observed=verdict.bound + 1)

        monkeypatch.setattr(pipeline, "verify_Q_in_CI", failing_narrow)
        report, result = run_pipeline(generate_instance(2, 8, 4, seed=9))
        line = original(result.q_table, 2).line
        checks = {c["name"]: c for c in report["checks"]}
        assert not report["passed"]
        assert checks["selector width bound (m!)"] == {
            "name": "selector width bound (m!)", "passed": False,
            "detail": f"line {line}: width 3 > 2"}
        assert checks["per-line uniqueness"]["passed"]
        assert checks["per-line uniqueness"]["detail"] == ""
        # with width 1 failed, the lemma proves nothing about width 2
        assert checks["selector width bound (width-2 products)"] == {
            "name": "selector width bound (width-2 products)",
            "passed": False, "detail": "not derived: width-1 bound failed"}

    def test_stage_failure_is_one_check(self, monkeypatch):
        # A failing stage used to be written twice: as its check and again
        # as a "stage_error" object holding the same stage and cause.
        def failing_selector(*args):
            raise AdmissibilityError("no selector here")

        monkeypatch.setattr(synth, "build_Q", failing_selector)
        report, result = run_pipeline(generate_instance(2, 8, 4, seed=9))
        assert result is None and not report["passed"]
        assert [c for c in report["checks"] if not c["passed"]] == [
            {"name": "stage:selector", "passed": False,
             "detail": "no selector here"}]
        assert "stage_error" not in report

    def test_helper_off_the_x0_row_fails_its_range_check(self, monkeypatch):
        # One entry of the ({1}, 2) helper leaves the x = 0 row after
        # synthesis; the check must fail and name that pair alone.  A
        # helper built off the row stops the selector stage instead, as
        # f* is defined on x = 0 only.  The first entry's value (0|1) is
        # shared, so its line then holds two points; (0|19) is the value
        # of one entry alone, and only the x test sees (1|19).
        complete = pipeline.complete_synthesis
        for value in (None, Point(0, 19)):

            def shifted_helper(g, f_star, trace, value=value):
                result = complete(g, f_star, trace)
                family = dict(result.h_family)
                h = family[(idx(1), 2)]
                u, v = next((u, v) for u, v in h.graph.items()
                            if value in (None, v))
                shared = [*h.graph.values()].count(v) > 1
                assert shared == (value is None)
                family[(idx(1), 2)] = PartialFn(h.arity,
                                                {**h.graph, u: Point(1, v.y)})
                return dataclasses.replace(result, h_family=family)

            monkeypatch.setattr(pipeline, "complete_synthesis",
                                shifted_helper)
            report, _ = run_pipeline(generate_instance(2, 8, 4, seed=9))
            checks = {c["name"]: c for c in report["checks"]}
            assert not report["passed"]
            assert checks["helper range certificates"] == {
                "name": "helper range certificates", "passed": False,
                "detail": "[([1], 2)]"}
            assert [c["name"] for c in report["checks"]
                    if not c["passed"]] == ["helper range certificates"]

    @pytest.mark.parametrize("m, profile, size", [
        *((m, profile, 0) for m in (1, 2, 3) for profile in PROFILES),
        (3, "mary-witness", 200),
    ])
    def test_artifacts_do_not_depend_on_the_order_of_g(self, m, profile,
                                                       size):
        # A sweep lists g' in an order of its own; the writer sorts every
        # graph, so no byte may follow the insertion order of g.
        inst = generate_instance(m, 8, 4, 0, profile)
        if size:
            inst = grown(inst, size)
            assert check_admissibility(inst)["passed"]
        want = _artifact_bytes(inst)
        rng = random.Random(size + m)
        for _ in range(2):
            items = list(inst.g.graph.items())
            rng.shuffle(items)
            assert [u for u, _ in items] != list(inst.g.graph)
            shuffled = dataclasses.replace(
                inst, g=PartialFn(inst.g.arity, dict(items)))
            assert _artifact_bytes(shuffled) == want

    def test_vacuous_certificates_fail_uniqueness(self, monkeypatch):
        # A certifier that admits no entry makes no certificate at all;
        # the worst-case entries the family was spanned from must qualify.
        monkeypatch.setattr(synth, "_in_product", lambda *args: False)
        report, result = run_pipeline(generate_instance(2, 8, 4, seed=9))
        entries = pipeline.verify_Q_in_CI(result.q_table, 2).entries
        checks = {c["name"]: c for c in report["checks"]}
        assert entries and not report["passed"]
        assert checks["per-line uniqueness"] == {
            "name": "per-line uniqueness", "passed": False,
            "detail": "; ".join(
                f"worst-case entry {uv!r} qualifies in no certificate"
                for uv in entries)}
        assert checks["selector width bound (m!)"]["passed"]

    def test_verify_pair_detects_tampering(self):
        inst = generate_instance(1, 6, 3, seed=7)
        _, result = run_pipeline(inst)
        assert verify_pair(inst, result.term)["passed"]
        u = sorted(inst.g.domain())[0]
        inst.g.graph[u] = Point(inst.g.graph[u].x + 1, inst.g.graph[u].y)
        assert not verify_pair(inst, result.term)["passed"]

    def test_mismatch_count_reaches_the_report_and_the_cli(
            self, tmp_path, monkeypatch, capsys):
        # One selector entry that a tuple of dom(g) reaches gets another
        # value; every tuple that reaches it must be counted, by the
        # verifier, in the report and at the command line.
        inst = generate_instance(2, 8, 4, seed=5)
        term = end_to_end_synthesize(inst.g, inst.f, inst.theta, inst.horizon,
                                     unary_candidates=inst.candidates).term

        def tamper(term):
            q = term.env[synth.SELECTOR_ATOM].fn
            u = min(inst.g.graph)
            key = MTuple(zip(sorted(q.arity),
                             (walk(ch, u, term.env)
                              for ch in term.root.children)))
            v = q.graph[key]
            q = PartialFn(q.arity, {**q.graph, key: Point(v.x + 1, v.y)})
            binding = dataclasses.replace(term.env[synth.SELECTOR_ATOM], fn=q)
            return Term(term.root, {**term.env, synth.SELECTOR_ATOM: binding},
                        term.arity)

        bad = tamper(term)
        want = sum(walk(bad.root, u, bad.env) != v
                   for u, v in inst.g.graph.items())
        assert want >= 1
        assert verify_pair(inst, bad) == {"passed": False, "mismatched": want}

        complete = pipeline.complete_synthesis

        def tampered_synthesis(g, horizon, trace):
            result = complete(g, horizon, trace)
            return dataclasses.replace(result, term=tamper(result.term))

        monkeypatch.setattr(pipeline, "complete_synthesis", tampered_synthesis)
        report, _ = run_pipeline(inst)
        checks = {c["name"]: c for c in report["checks"]}
        assert not report["passed"]
        assert checks["term equality on dom(g)"] == {
            "name": "term equality on dom(g)", "passed": False,
            "detail": f"{want} mismatching tuples"}

        inst_path, term_path = tmp_path / "inst.json", tmp_path / "term.json"
        inst_path.write_bytes(serialize.instance_dumps(inst))
        term_path.write_bytes(serialize.term_dumps(bad))
        assert main(["verify", "--instance", str(inst_path),
                     "--term", str(term_path)]) == 1
        assert capsys.readouterr().out == (
            f"FAIL  term equality on dom(g)  ({want} mismatching tuples)\n")

    def test_verify_pair_looks_up_each_distinct_subterm_once(self):
        # A tree walk makes one atom-graph lookup per App node and tuple;
        # the compiled term makes at most one per distinct App subterm.
        inst = generate_instance(3, 8, 4, 0)
        term = end_to_end_synthesize(inst.g, inst.f, inst.theta, inst.horizon,
                                     unary_candidates=inst.candidates).term
        assert term.size() == 181
        lookups = []

        class CountingGraph(dict):
            def get(self, key, default=None):
                lookups.append(key)
                return super().get(key, default)

        env = {}
        for name, binding in term.env.items():
            fn = PartialFn(binding.fn.arity, {})
            fn.graph = CountingGraph(binding.fn.graph)
            env[name] = dataclasses.replace(binding, fn=fn)
        assert verify_pair(inst, Term(term.root, env, term.arity))["passed"]
        app_nodes, stack = [], [term.root]
        while stack:
            node = stack.pop()
            if isinstance(node, App):
                app_nodes.append(node)
                stack.extend(node.children)
        distinct = len(set(app_nodes))
        assert distinct < len(app_nodes)
        assert 0 < len(lookups) <= distinct * len(inst.g)


class TestValidatedConstructions:
    """The algebra builds its results without the constructor's per-entry
    checks; counting ``PartialFn.__init__`` calls catches a silent loss of
    that fast path without timing anything."""

    @staticmethod
    def count_inits(monkeypatch, work):
        calls = [0]
        original = PartialFn.__init__

        def counting(self, *args, **kwargs):
            calls[0] += 1
            original(self, *args, **kwargs)

        monkeypatch.setattr(PartialFn, "__init__", counting)
        result = work()
        monkeypatch.setattr(PartialFn, "__init__", original)
        return calls[0], result

    def test_algebra_results_are_not_revalidated(self, monkeypatch):
        two = idx(1, 2)
        g = PartialFn(two, {tup((0, 0), (1, 1)): pt(2, 0),
                            tup((0, 0), (2, 1)): pt(3, 0),
                            tup((1, 0), (1, 1)): pt(2, 0)})
        h = {u: u for u in g.graph}

        def work():
            return [compose(g, h), g.restrict(list(g.graph)[:2])]

        count, results = self.count_inits(monkeypatch, work)
        assert count == 0
        assert [len(r) for r in results] == [3, 2]

    def test_pipeline_run_stays_under_budget(self, monkeypatch):
        # 2025 validated constructions when every algebra result was checked
        inst = generate_instance(3, 8, 4, 5, "mary-witness")
        count, (report, _) = self.count_inits(monkeypatch,
                                              lambda: run_pipeline(inst))
        assert report["passed"]
        assert count <= 500

    @pytest.mark.parametrize("profile", PROFILES)
    def test_generation_checks_only_the_target(self, monkeypatch, profile):
        # The witness graphs are made from the builder's own points over a
        # fixed arity, so only g is checked; checking them too made 2, 2
        # and 5 constructions (mixed, all-thrifty, mary-witness).
        for seed in (0, 1, 2):
            count, inst = self.count_inits(
                monkeypatch, lambda: generate_instance(3, 64, 32, seed,
                                                       profile))
            assert count == 1
            assert len(inst.f) == 64 * 63 // 2

    def test_decomposition_builds_its_stages_unchecked(self, monkeypatch):
        # Building each sweep through the operator algebra made 196 checked
        # constructions.
        inst = generate_instance(3, 8, 4, 5, "mary-witness")
        count, trace = self.count_inits(
            monkeypatch, lambda: hereditary_decompose(inst.g, inst.theta))
        assert len(trace.stages) == 8
        assert count == 0

    @pytest.mark.parametrize("m, profile", [(1, "mixed"), (2, "mixed"),
                                            (3, "mary-witness")])
    def test_reading_documents_checks_no_graph(self, monkeypatch, m,
                                               profile):
        # The reader checks each graph in its own pass and builds every
        # tuple over the sorted arity itself; running the checked
        # constructor over the result too made one construction per graph.
        inst = generate_instance(m, 8, 4, 5, profile)
        term = end_to_end_synthesize(inst.g, inst.f, inst.theta, inst.horizon,
                                     unary_candidates=inst.candidates).term
        docs = serialize.instance_dumps(inst), serialize.term_dumps(term)
        count, (inst_back, term_back) = self.count_inits(
            monkeypatch, lambda: (serialize.instance_loads(docs[0]),
                                  serialize.term_loads(docs[1])))
        assert count == 0
        assert inst_back == inst and term_back == term


class TestCli:
    def test_gen_writes_canonical_instance(self, tmp_path):
        out = tmp_path / "inst.json"
        assert main(["gen", "--m", "1", "--horizon", "6", "--theta", "3",
                     "--seed", "4", "--out", str(out)]) == 0
        inst = serialize.instance_loads(out.read_bytes())
        assert inst == generate_instance(1, 6, 3, seed=4)

    def test_check_and_demo_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        main(["gen", "--m", "1", "--horizon", "6", "--theta", "3",
              "--seed", "4", "--out", str(out)])
        assert main(["check", "--instance", str(out)]) == 0
        assert main(["demo", "--instance", str(out),
                     "--out", str(tmp_path / "report.json")]) == 0
        report = serialize.loads(
            (tmp_path / "report.json").read_bytes(), "report")
        assert report["passed"]

    def test_synth_then_verify_round_trip(self, tmp_path, capsys):
        # synth and demo print the term's stats in one format, and every
        # verdict as a check line: on stderr when stdout is the artifact's
        inst_path = tmp_path / "inst.json"
        term_path = tmp_path / "term.json"
        main(["gen", "--m", "2", "--horizon", "8", "--theta", "4",
              "--seed", "6", "--out", str(inst_path)])
        assert main(["synth", "--instance", str(inst_path),
                     "--out", str(term_path)]) == 0
        term = serialize.term_loads(term_path.read_bytes())
        stats = (f"term: size={term.size()} depth={term.depth()} "
                 f"atoms={len(term.env)}\n")
        out = capsys.readouterr()
        assert (out.out, out.err) == (
            "", stats + "PASS  term equality on dom(g)\n")
        assert main(["verify", "--instance", str(inst_path),
                     "--term", str(term_path)]) == 0
        out = capsys.readouterr()
        assert (out.out, out.err) == ("PASS  term equality on dom(g)\n", "")
        assert main(["demo", "--instance", str(inst_path)]) == 0
        out = capsys.readouterr()
        report = serialize.loads(out.out.encode(), "report")
        assert out.err == stats + "".join(
            f"PASS  {c['name']}\n" for c in report["checks"])

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    def test_verify_rejects_g_bound_as_a_ci_atom(self, tmp_path):
        # The term g(x1, x2), with g itself bound as a width-harmless atom,
        # agrees with g on dom(g) but is no term over the witness.
        inst = generate_instance(2, 8, 4, 5)
        term = Term(App("g", (Proj(1), Proj(2))),
                    {"g": AtomBinding(inst.g, CI_ATOM)}, inst.g.arity)
        inst_path, term_path = tmp_path / "inst.json", tmp_path / "term.json"
        inst_path.write_bytes(serialize.instance_dumps(inst))
        term_path.write_bytes(serialize.term_dumps(term))
        assert main(["verify", "--instance", str(inst_path),
                     "--term", str(term_path)]) == 1

    def test_decompose_exit_zero(self, tmp_path):
        assert main(["decompose", "--m", "2", "--horizon", "8",
                     "--theta", "4", "--seed", "2"]) == 0

    @pytest.mark.parametrize("argv, want", [
        (["--m", "2", "--seed", "2", "--profile", "mixed"],
         "S=[]: |g'|=20 rerouted=4\n"
         "S=[1]: |g'|=20 rerouted=0\n"
         "S=[2]: |g'|=20 rerouted=0\n"
         "S=[1, 2]: |g'|=20 rerouted=0\n"
         "PASS  decomposition admissible\n"
         "PASS  decomposition contracts\n"),
        (["--m", "3", "--seed", "5", "--profile", "mary-witness"],
         "S=[]: |g'|=31 rerouted=0\n"
         "S=[1]: |g'|=28 rerouted=4\n"
         "S=[2]: |g'|=28 rerouted=0\n"
         "S=[3]: |g'|=28 rerouted=0\n"
         "S=[1, 2]: |g'|=28 rerouted=0\n"
         "S=[1, 3]: |g'|=28 rerouted=0\n"
         "S=[2, 3]: |g'|=28 rerouted=0\n"
         "S=[1, 2, 3]: |g'|=28 rerouted=0\n"
         "PASS  decomposition admissible\n"
         "PASS  decomposition contracts\n"),
    ], ids=["m2-mixed", "m3-mary-witness"])
    def test_decompose_prints_each_stage(self, argv, want, capsys):
        # rerouted counts every tuple a stage moves, each pick's own
        # entry included: at S = [1] four tuples move onto one pick, so
        # |g'| falls by three
        assert main(["decompose", "--horizon", "8", "--theta", "4",
                     *argv]) == 0
        out = capsys.readouterr()
        assert (out.out, out.err) == (want, "")

    def test_decompose_failure_is_one_fail_line(self, tmp_path, capsys):
        # The lone value's only tuple lies above theta, so the selection
        # finds no fresh low tuple to re-route it through.
        inst = dataclasses.replace(generate_instance(1, 6, 3, seed=4),
                                   g=unary({(0, 5): (1, 1)}))
        path = tmp_path / "inst.json"
        path.write_bytes(serialize.instance_dumps(inst))
        assert main(["decompose", "--instance", str(path)]) == 1
        out = capsys.readouterr()
        assert out.out == ("FAIL  decomposition admissible  (no fresh low "
                           "tuple left for fiber key <>, value (1|1))\n")
        assert out.err == ""

    def test_synth_failure_is_one_fail_line(self, tmp_path, capsys):
        # A witness with one image point leaves normalization no line to
        # spread g's values over.
        inst = dataclasses.replace(generate_instance(2, 8, 4, 0),
                                   f=unary({(0, 1): (5, 7)}))
        path = tmp_path / "inst.json"
        path.write_bytes(serialize.instance_dumps(inst))
        assert main(["check", "--instance", str(path)]) == 1
        capsys.readouterr()
        assert main(["synth", "--instance", str(path)]) == 1
        out = capsys.readouterr()
        assert out.err == ("FAIL  stage:normalize  (no unused image line "
                           "with at least 7 points)\n")
        assert out.out == ""

    def test_candidate_above_ceiling_fails_the_coordinate_check(
            self, tmp_path, capsys):
        # The point lies in no other candidate's domain, so the reduction
        # never reads it: only the coordinate check can see it.
        inst = generate_instance(2, 8, 4, 5, "mary-witness")
        ident, const = inst.candidates
        far = Point(0, inst.ceiling + 7)
        ident = PartialFn(ident.arity,
                          {**ident.graph, MTuple(((1, far),)): far})
        inst = dataclasses.replace(inst, candidates=(ident, const))
        path = tmp_path / "inst.json"
        path.write_bytes(serialize.instance_dumps(inst))
        assert not check_admissibility(inst)["passed"]
        assert main(["check", "--instance", str(path)]) == 1
        assert capsys.readouterr().out == (
            "FAIL  coordinates below ceiling\n"
            "PASS  witness recoverable\n"
            "PASS  decomposition admissible\n")

    def test_coordinates_are_checked_against_the_true_ceiling(
            self, tmp_path, capsys):
        # The ceiling at horizon 8 is 72, so (0|5000) is out of range.  A
        # document that claims another ceiling no longer loads (see
        # test_inconsistent_instance_rejected).
        inst = generate_instance(2, 8, 4, 5)
        assert inst.ceiling == 72
        far = MTuple.of({1: Point(0, 1), 2: Point(1, 0)})
        assert far not in inst.g.graph
        g = PartialFn(inst.g.arity, {**inst.g.graph, far: Point(0, 5000)})
        inst = dataclasses.replace(inst, g=g)
        path = tmp_path / "inst.json"
        path.write_bytes(serialize.instance_dumps(inst))
        report = check_admissibility(serialize.instance_loads(path.read_bytes()))
        assert report["checks"][0] == {
            "name": "coordinates below ceiling", "passed": False, "detail": ""}
        assert main(["check", "--instance", str(path)]) == 1
        assert capsys.readouterr().out.startswith(
            "FAIL  coordinates below ceiling\n")

    def test_nullary_witness_fails_cleanly(self, tmp_path, capsys):
        # A witness of arity 0 is below the unary rule: it must fail witness
        # recovery, not escape as an error of the unary reduction.
        doc = json.loads(serialize.instance_dumps(generate_instance(2, 8, 4, 0)))
        doc["f"] = {"arity": [], "codomain": None, "graph": [[{}, [1, 1]]]}
        path = tmp_path / "inst.json"
        path.write_bytes(serialize.dumps(doc))
        assert main(["check", "--instance", str(path)]) == 1
        assert capsys.readouterr().out == (
            "PASS  coordinates below ceiling\n"
            "FAIL  witness recoverable  (witness must be unary and "
            "point-valued)\n"
            "PASS  decomposition admissible\n")
        assert main(["synth", "--instance", str(path)]) == 1
        out = capsys.readouterr()
        assert out.err == ("FAIL  stage:normalize  (witness must be unary "
                           "and point-valued)\n")
        assert out.out == ""

    def test_truncated_instance_is_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        data = serialize.instance_dumps(generate_instance(1, 6, 3, seed=4))
        path.write_bytes(data[:len(data) // 2])
        assert main(["demo", "--instance", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("clonecover: instance: ")
        assert err.count("\n") == 1

    def test_semantic_faults_are_one_line_errors(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        term_path = tmp_path / "term.json"
        inst = generate_instance(1, 6, 3, seed=4)
        res = end_to_end_synthesize(inst.g, inst.f, inst.theta, inst.horizon)
        term = json.loads(serialize.term_dumps(res.term).decode())
        term["root"]["children"][0] = {"t": "proj", "k": 5}
        inst_path.write_bytes(serialize.instance_dumps(inst))
        term_path.write_bytes(serialize.dumps(term))
        assert main(["verify", "--instance", str(inst_path),
                     "--term", str(term_path)]) == 2
        doc = json.loads(serialize.instance_dumps(inst))
        inst_path.write_bytes(serialize.dumps({**doc, "theta": 99}))
        assert main(["check", "--instance", str(inst_path)]) == 2
        tuple_valued = {**doc["g"], "codomain": [1],
                        "graph": [[u, {"1": v}] for u, v in doc["g"]["graph"]]}
        inst_path.write_bytes(serialize.dumps({**doc, "g": tuple_valued}))
        assert main(["check", "--instance", str(inst_path)]) == 2
        mary = json.loads(serialize.instance_dumps(
            generate_instance(2, 8, 4, 0, "mary-witness")))
        first, *rest = mary["candidates"]
        tuple_valued = {**first, "codomain": [1],
                        "graph": [[u, {"1": v}] for u, v in first["graph"]]}
        inst_path.write_bytes(serialize.dumps(
            {**mary, "candidates": [tuple_valued, *rest]}))
        assert main(["check", "--instance", str(inst_path)]) == 2
        inst_path.write_bytes(serialize.dumps(
            {**mary, "candidates": [mary["g"], *rest]}))
        assert main(["check", "--instance", str(inst_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("clonecover: term: projection 5")
        assert err[1].startswith("clonecover: instance: theta 99")
        # a tuple-valued g or candidate is refused by the graph reader, and
        # the message names which graph it is
        assert err[2] == "clonecover: instance.g: codomain [1] is not null"
        assert err[3] == ("clonecover: instance.candidates[0]: codomain [1] "
                          "is not null")
        assert err[4] == ("clonecover: instance.candidates[0]: must be unary, "
                          "got arity [1, 2]")
        assert len(err) == 5

    def test_index_faults_are_one_line_errors(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        term_path = tmp_path / "term.json"
        inst = generate_instance(1, 6, 3, seed=4)
        res = end_to_end_synthesize(inst.g, inst.f, inst.theta, inst.horizon)
        term = json.loads(serialize.term_dumps(res.term).decode())
        name = sorted(term["env"])[0]
        term["env"][name]["fn"] = TestSerialization.tuple_valued_off_codomain(
            term["env"][name]["fn"])
        inst_path.write_bytes(serialize.instance_dumps(inst))
        term_path.write_bytes(serialize.dumps(term))
        assert main(["verify", "--instance", str(inst_path),
                     "--term", str(term_path)]) == 2
        doc = json.loads(serialize.instance_dumps(inst))
        inst_path.write_bytes(
            serialize.dumps(TestSerialization.off_arity_g(doc)))
        assert main(["demo", "--instance", str(inst_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0] == (f"clonecover: term.env[{json.dumps(name)}].fn: "
                          "codomain [1, 2] is not null")
        assert err[1].startswith("clonecover: instance.g: domain tuple ")
        assert "does not match arity [1]" in err[1]
        assert len(err) == 2

    def test_term_of_other_arity_is_one_line_error(self, tmp_path, capsys):
        term_path = tmp_path / "term.json"
        assert main(["synth", "--m", "1", "--seed", "3",
                     "--out", str(term_path)]) == 0
        capsys.readouterr()
        assert main(["verify", "--m", "2", "--seed", "3",
                     "--term", str(term_path)]) == 2
        assert capsys.readouterr().err == (
            "clonecover: term: arity [1] does not match the instance's "
            "arity [1, 2]\n")
        # a long arity is cut, so the error stays one short line
        wide = Term(Proj(1), {}, full_index(40))
        term_path.write_bytes(serialize.term_dumps(wide))
        assert main(["verify", "--m", "2", "--seed", "3",
                     "--term", str(term_path)]) == 2
        assert capsys.readouterr().err == (
            "clonecover: term: arity [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, "
            "13, 14, 15, 16, 1... does not match the instance's arity "
            "[1, 2]\n")

    @pytest.mark.parametrize("argv, message", [
        (["gen", "--m", "0"], "arity must be at least 1, got 0"),
        (["gen", "--horizon", "2"], "horizon must be at least 3"),
        (["check", "--instance", "MISSING"], "No such file"),
        (["verify", "--term", "MISSING"], "No such file"),
    ], ids=["gen-m", "gen-horizon", "check-instance", "verify-term"])
    def test_usage_errors_exit_2_with_one_line(self, argv, message,
                                               tmp_path, capsys):
        missing = str(tmp_path / "nonexistent.json")
        assert main([missing if a == "MISSING" else a for a in argv]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("clonecover: ") and message in out.err
        assert out.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["check", "--out", "OUT"],
        ["decompose", "--out", "OUT"],
        ["verify"],
        *(["demo", "--instance", "INST", flag, value] for flag, value in (
            ("--seed", "0"), ("--m", "2"), ("--horizon", "16"),
            ("--theta", "8"), ("--profile", "mixed"))),
    ], ids=["check-out", "decompose-out", "verify-no-term", "instance-seed",
            "instance-m", "instance-horizon", "instance-theta",
            "instance-profile"])
    def test_options_a_command_would_ignore_exit_2(self, argv, tmp_path,
                                                   capsys):
        # An option a command would not read is refused, never dropped.
        inst = tmp_path / "inst.json"
        inst.write_bytes(serialize.instance_dumps(generate_instance(2, 8, 4, 0)))
        paths = {"OUT": str(tmp_path / "out.json"), "INST": str(inst)}
        argv = [paths.get(a, a) for a in argv]
        if "--instance" in argv:
            assert main(argv) == 2
            assert capsys.readouterr().err == (
                f"clonecover: --instance cannot be combined with {argv[-2]}\n")
        else:
            with pytest.raises(SystemExit) as exited:
                main(argv)
            assert exited.value.code == 2
        assert not (tmp_path / "out.json").exists()

    def test_demo_writes_the_pipeline_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["demo", "--m", "2", "--seed", "7", "--out", str(out)]) == 0
        report, _ = run_pipeline(generate_instance(2, 16, 8, 7))
        assert out.read_bytes() == serialize.report_dumps(report)
