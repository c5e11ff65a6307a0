import inspect
import json

import pytest

import clonecover
from clonecover import serialize
from clonecover.cli import main
from clonecover.core import (
    App,
    AtomBinding,
    PartialFn,
    Point,
    Proj,
    Term,
    eval_term,
    idx,
)
from clonecover.instances import (
    Instance,
    ProfileError,
    check_admissibility,
    default_theta,
    generate_instance,
)
from clonecover.pipeline import run_pipeline, verify_pair
from clonecover.synth import end_to_end_synthesize

from conftest import pt, tup, unary


class TestInstanceGeneration:
    def test_generated_instances_are_admissible(self):
        for m in (1, 2, 3):
            inst = generate_instance(m, horizon=8, theta=4, seed=0)
            assert check_admissibility(inst)["passed"]

    def test_profiles(self):
        mixed = generate_instance(2, 8, 4, 0, "mixed")
        thrifty = generate_instance(2, 8, 4, 0, "all-thrifty")
        mary = generate_instance(2, 8, 4, 0, "mary-witness")
        assert mixed.metadata["features"]
        assert not thrifty.metadata["features"]
        assert len(mary.f.arity) == 2 and mary.candidates

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
        with pytest.raises(ProfileError):
            generate_instance(2, 2, 1, 0)
        with pytest.raises(ProfileError):
            generate_instance(2, 8, 8, 0)
        with pytest.raises(ProfileError):
            generate_instance(2, 8, 4, 0, "no-such-profile")

    def test_default_theta(self):
        assert default_theta(16) == 8
        assert default_theta(7) == 4


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
        for u in inst.g.domain():
            assert eval_term(back, u) == inst.g.graph[u]
        assert serialize.term_dumps(back) == data

    def test_tuple_valued_pfn_round_trip(self):
        p = PartialFn(idx(1), {tup((0, 0)): tup((1, 2))}, idx(1))
        assert serialize.pfn_parse(serialize.pfn_json(p)) == p

    def test_unknown_version_rejected(self):
        inst = generate_instance(1, 6, 3, seed=0)
        doc = serialize.instance_json(inst)
        doc["version"] = 99
        with pytest.raises(serialize.ParseError, match="version"):
            serialize.instance_parse(doc)
        with pytest.raises(serialize.ParseError):
            serialize.loads(b'{"no": "tag"}\n')

    def test_malformed_bytes_rejected(self):
        with pytest.raises(serialize.ParseError):
            serialize.loads(b"not json")

    def test_deeply_nested_document_rejected(self):
        with pytest.raises(serialize.ParseError):
            serialize.loads(b"[" * 100000)

    def test_non_integer_tuple_index_rejected(self):
        with pytest.raises(serialize.ParseError, match="bad tuple"):
            serialize.mtuple_parse({"x": [0, 0]})

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

    def test_graph_entry_not_a_pair_rejected(self):
        doc = self.small_term_doc()
        entry = doc["env"]["a"]["fn"]["graph"][0]
        doc["env"]["a"]["fn"]["graph"][0] = entry[:1]
        with pytest.raises(serialize.ParseError, match="partial function"):
            serialize.term_loads(serialize.dumps(doc))

    def test_app_without_children_rejected(self):
        doc = self.small_term_doc()
        del doc["root"]["children"]
        with pytest.raises(serialize.ParseError, match="children"):
            serialize.term_loads(serialize.dumps(doc))

    def test_non_integer_projection_rejected(self):
        doc = self.small_term_doc()
        doc["root"]["children"][0]["k"] = "x"
        with pytest.raises(serialize.ParseError, match="term node"):
            serialize.term_loads(serialize.dumps(doc))

    def test_canonical_bytes(self):
        inst = generate_instance(1, 6, 3, seed=0)
        data = serialize.instance_dumps(inst)
        # canonical form: sorted keys, tight separators, one trailing newline
        assert data == serialize.dumps(json.loads(data.decode()))
        assert data.endswith(b"\n") and b": " not in data


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
        calls = {"reduce_to_unary": 0, "normalize_f": 0,
                 "hereditary_decompose": 0}
        modules = [m for m in vars(clonecover).values()
                   if inspect.ismodule(m)]
        for name in calls:
            original = getattr(clonecover, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            for module in modules:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counting)
        report, _ = run_pipeline(inst)
        assert report["passed"]
        assert calls == {"reduce_to_unary": 1, "normalize_f": 1,
                         "hereditary_decompose": 1}

    def test_verify_pair_detects_tampering(self):
        inst = generate_instance(1, 6, 3, seed=7)
        _, result = run_pipeline(inst)
        assert verify_pair(inst, result.term)["passed"]
        u = sorted(inst.g.domain())[0]
        inst.g.graph[u] = Point(inst.g.graph[u].x + 1, inst.g.graph[u].y)
        assert not verify_pair(inst, result.term)["passed"]


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
        report = serialize.report_loads(
            (tmp_path / "report.json").read_bytes())
        assert report["passed"]

    def test_synth_then_verify_round_trip(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        term_path = tmp_path / "term.json"
        main(["gen", "--m", "2", "--horizon", "8", "--theta", "4",
              "--seed", "6", "--out", str(inst_path)])
        assert main(["synth", "--instance", str(inst_path),
                     "--out", str(term_path)]) == 0
        assert main(["verify", "--instance", str(inst_path),
                     "--term", str(term_path)]) == 0

    def test_decompose_exit_zero(self, tmp_path):
        assert main(["decompose", "--m", "2", "--horizon", "8",
                     "--theta", "4", "--seed", "2"]) == 0

    def test_truncated_instance_is_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        data = serialize.instance_dumps(generate_instance(1, 6, 3, seed=4))
        path.write_bytes(data[:len(data) // 2])
        assert main(["verify", "--instance", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("clonecover: instance: ")
        assert err.count("\n") == 1

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        monkeypatch.setenv("CLONECOVER_SEED", "17")
        main(["gen", "--m", "1", "--horizon", "6", "--theta", "3",
              "--out", str(out_a)])
        main(["gen", "--m", "1", "--horizon", "6", "--theta", "3",
              "--seed", "17", "--out", str(out_b)])
        assert out_a.read_bytes() == out_b.read_bytes()
