"""Byte pins across commits: fixed digests of the canonical instance, term
and report bytes on a small grid, and the exact reports and check output
of inadmissible instances.

A refactor that keeps these passing keeps every pinned artifact
byte-identical; a change that alters the bytes on purpose updates the
constants and says why.
"""
import dataclasses
import hashlib

import pytest

from clonecover import instances, serialize
from clonecover.cli import main
from clonecover.core import MTuple, PartialFn, Point
from clonecover.instances import check_admissibility, generate_instance
from clonecover.pipeline import run_pipeline
from clonecover.synth import end_to_end_synthesize

from conftest import grown

# (m, seed, profile) -> sha256 over instance, term and report bytes, in order
GOLDEN = {
    (1, 0, "mixed"): "447fe0a59ae5b578ee94ab99d989b693712a4a4b985cf1eee9539957c8f9c1a5",
    (1, 0, "all-thrifty"): "6afac4965a1d7b84f66a569a2fdae5389c9f858e4be59097b64431b883c2c6dd",
    (1, 0, "mary-witness"): "66aa71645b6187dd306347393c43b63a96071a81961cb4fed0f4f9fbfb39aa35",
    (1, 1, "mixed"): "babb2aff63dcc66f3e8b9a920205218ff5576fde7a47e070d5e8276b5e9c48b0",
    (1, 1, "all-thrifty"): "a5422aec02ed11ca0c34fb05d3c350df1da3ef734d5d10a5822ddc4e03cea5cf",
    (1, 1, "mary-witness"): "d41f40a1353892ecf4c92666f9224090b3c9501d15791ef0fcae6d30c31d0ef0",
    (2, 0, "mixed"): "62620c80522a6a52483819f61b8c2d0797d7aef57b687fe21010a6d9296738d8",
    (2, 0, "all-thrifty"): "8ab0cec3d82883d93df23ae60c7f3a2c09536fb851824718b91d99e30c0089e8",
    (2, 0, "mary-witness"): "b23d1e51cc3b37c9ed6779c6b811506d6c56c81ba72583be3233110ea2989b4b",
    (2, 1, "mixed"): "9f115b2ce9a2d1fffd28503ccab3aa8c30ec2f2847ba74d87e89ba3fc5872d03",
    (2, 1, "all-thrifty"): "2b961f7cbef924684909a2f948ed0d760daf203e359ae771b1dde5da7035a91e",
    (2, 1, "mary-witness"): "741dadfc72aefdc14969770b592a74a400cf38945726f02cf872cacb74fb2a3c",
    (3, 0, "mixed"): "95d7a5e05ecc48a18fc4cc14af17c435479937493593cec6d429179a747ae8c4",
    (3, 0, "all-thrifty"): "d997c42488c20082cfa8fad33c7df6def914bce13b92de789af0efe503bd7864",
    (3, 0, "mary-witness"): "531a0e103f6adcf612441074c08e5a85d65990895a3acf5966dae77ef59aaee8",
    (3, 1, "mixed"): "5da096beec2fcab1fe8789c47579bae9d213bcdf3f4cf17c8301210c6a7bd36e",
    (3, 1, "all-thrifty"): "ccff02a3c70c234a39511d45ac9372254068d2d4b267ef97b30a5792354e1c87",
    (3, 1, "mary-witness"): "c8a08f678cad8d088510dbcdc716cd933736c8583d1af3671fe2b70599e51558",
}


# profile -> the same digest for m = 4 at horizon 12, theta 6, seed 0: the
# 725-node term and its report
GOLDEN_M4 = {
    "mixed": "3d4af12da8d830531a3eeb32712dd9bd50a794e674e55f31cdbf890572f8eac7",
    "all-thrifty": "7d6d1027e6819bb7bef3f4094533027a770c269d55c74ce0237c56db52c6a513",
    "mary-witness": "2e295f992a2210b688d92cde396d0e6338c89d141c2cab6dda78b358bcbd6fd3",
}


# profile -> the same digest for m = 5 at horizon 16, theta 12, seed 0: the
# 2591-node term, whose selector has 80 (S, j) slots
GOLDEN_M5 = {
    "mixed": "38b8616e9a9522fe31fe307a42e82dcd2c0b34b796e7ea82c8c3029c869dbeac",
    "all-thrifty": "c598256a1552f777f6ce7340005c9967ac2fd8fab6f84c2326f0a1b6f9f359c4",
    "mary-witness": "a291a9a4b1637dd6eb78b82d52078f60127f2db7fcf9b0116420cebfa68feafe",
}

# the same digest for one m = 6 instance: the 8491-node term, whose
# selector has 192 (S, j) slots
GOLDEN_M6 = ((6, 24, 16, 0, "mixed"),
             "a71e49ce2d059349d6b9341c79f7b529d2ccf2b41e14212999a183758a23326c")

# sha256 of the instance, term and report bytes for one m = 7 instance,
# whose selector has 448 (S, j) slots.  The term is written once and not
# read back: `term_dumps` costs less than the run, a `term_loads` of its
# 3.4 MB more.
GOLDEN_M7 = ((7, 32, 20, 0, "mixed"),
             "bc6b88f09fad648163d20b2bc602335d38c0c5bf54d070896e624d93e6e15153",
             "2ff485cbac8ce87029a0f7c736aff04aa59393e5884bcd3a3ef2823a9f5b07a7",
             "21c59fffe3b50159abbee2106c4d6f7b212c69147e354dfd1b83daa584462a4c")


# sha256 of the instance, term and report bytes of one m = 3 mary-witness
# instance grown to 300 tuples by `grown`: the bulk-m3 benchmark's round-0
# instance for run seed 3, at the size its numbers are measured on
GOLDEN_BULK = ((3, 8, 4, 300, "mary-witness"), 300, (
    "fca082bc9091aa29213655fbf6d727fdaf42ad73a408281cd7e1ee3eeef66241",
    "e1bb7d5e1bb3cd95f05b6af7830b39ea0d3519878abc3d2ffbc758523e099610",
    "bef139adc26c7293a550d3964d26f0df7f8516fc2a88ff02a12370c52876b2e2"))


# (seed, profile) -> sha256 of the instance, term and report bytes of the
# m = 3 instance at horizon 64, theta 32: coordinates of up to four digits,
# and a witness, candidates and f* of about 2000 entries each.  These are the
# horizon-m3 benchmark's round-0 instances for run seed 3.
GOLDEN_HORIZON = {
    (900, "mixed"): (
        "b0c77961790f1f44d804f67c26856ea5b7cf278bd0847d18ef09fe1dbafe011a",
        "194bc7c9c08dac569842cd9979770fa6dd3eee78f57422a9ac3a1d8157c52a1f",
        "2529659ad719226a168bba0d4d604d3cfb17e292a4cd693911a664110809445c"),
    (901, "all-thrifty"): (
        "7ebf0c45811317d4ef5337d9612c7320d16d88e6e4a09d745ff66980133843bf",
        "a52c9b86b232c788c1c5028425c3293cc76925729c96a71915f070c7c2f89bfc",
        "c795435c9094e994e7f3ba24cd09315bb4ec9abcd6d5e367205aa4ceb7186c7b"),
    (902, "mary-witness"): (
        "de83bb41d0bfd529db58f9680b17be287fb250738d26ac9083ab2b711517457e",
        "748493c5d718481063c255fe5efe9a3062257c2b3156c88a83eb1f8e8598449f",
        "7cc0f91235dcd1a4c4bd8bf8d717dc10b82db8d260dea189be9251542873a674"),
}


@pytest.mark.parametrize("m, seed, profile", sorted(GOLDEN))
def test_golden_bytes(m, seed, profile):
    assert _digest(generate_instance(m, 8, 4, seed, profile)) == GOLDEN[
        (m, seed, profile)]


@pytest.mark.parametrize("profile", sorted(GOLDEN_M4))
def test_golden_bytes_arity_four(profile):
    assert _digest(generate_instance(4, 12, 6, 0, profile)) == GOLDEN_M4[
        profile]


@pytest.mark.parametrize("profile", sorted(GOLDEN_M5))
def test_golden_bytes_arity_five(profile):
    assert _digest(generate_instance(5, 16, 12, 0, profile)) == GOLDEN_M5[
        profile]


def test_golden_bytes_arity_six():
    args, digest = GOLDEN_M6
    assert _digest(generate_instance(*args)) == digest


def test_golden_bytes_arity_seven():
    args, instance_digest, term_digest, report_digest = GOLDEN_M7
    inst = generate_instance(*args)
    report, result = run_pipeline(inst)
    assert report["passed"]
    assert hashlib.sha256(
        serialize.instance_dumps(inst)).hexdigest() == instance_digest
    assert hashlib.sha256(
        serialize.term_dumps(result.term)).hexdigest() == term_digest
    assert hashlib.sha256(
        serialize.report_dumps(report)).hexdigest() == report_digest


def test_golden_bytes_at_bulk_scale():
    args, size, digests = GOLDEN_BULK
    inst = grown(generate_instance(*args), size)
    assert len(inst.g) == size and check_admissibility(inst)["passed"]
    term = end_to_end_synthesize(inst.g, inst.f, inst.theta, inst.horizon,
                                 unary_candidates=inst.candidates).term
    report, result = run_pipeline(inst)
    assert report["passed"]
    term_bytes = serialize.term_dumps(term)
    assert serialize.term_dumps(result.term) == term_bytes
    assert tuple(hashlib.sha256(data).hexdigest() for data in (
        serialize.instance_dumps(inst), term_bytes,
        serialize.report_dumps(report))) == digests


@pytest.mark.parametrize("seed, profile", sorted(GOLDEN_HORIZON))
def test_golden_bytes_at_horizon_64(seed, profile):
    inst = generate_instance(3, 64, 32, seed, profile)
    report, result = run_pipeline(inst)
    assert report["passed"]
    data = (serialize.instance_dumps(inst), serialize.term_dumps(result.term),
            serialize.report_dumps(report))
    assert tuple(hashlib.sha256(d).hexdigest() for d in data) == (
        GOLDEN_HORIZON[seed, profile])
    # the bytes read back to the same instance and term
    assert serialize.instance_loads(data[0]) == inst
    assert serialize.term_dumps(serialize.term_loads(data[1])) == data[1]


def _digest(inst):
    """sha256 over the instance, term and report bytes, after checking
    that the report passes and the pipeline's term is the synthesized one."""
    result = end_to_end_synthesize(inst.g, inst.f, inst.theta, inst.horizon,
                                   unary_candidates=inst.candidates)
    report, pipeline_result = run_pipeline(inst)
    term_bytes = serialize.term_dumps(result.term)
    assert report["passed"]
    assert serialize.term_dumps(pipeline_result.term) == term_bytes
    digest = hashlib.sha256()
    for data in (serialize.instance_dumps(inst), term_bytes,
                 serialize.report_dumps(report)):
        digest.update(data)
    return digest.hexdigest()


# (m, horizon, theta, seed, profile) -> sha256 of the instance bytes, for
# seeds whose first build collides in the target graph and is redrawn
RETRY_GOLDEN = {
    (1, 3, 2, 25, "mixed"): "617ff4f5581b083b4a44b4ad7251f96ea8cceb338df04496a7334264e4a78e7b",
    (1, 4, 2, 125, "mary-witness"): "af8388bbeb984ec98101d7797e1cd6e3b088b449a1b750404813f42034b20219",
    (1, 3, 1, 187, "all-thrifty"): "fa97243ab395e59e8862a27885c17c5e9b53296589f02038730a4ca5d9ee7ea6",
}


@pytest.mark.parametrize("key", sorted(RETRY_GOLDEN))
def test_retry_seed_bytes(key, monkeypatch):
    builds = []
    original = instances._build

    def counting(*args):
        builds.append(args)
        return original(*args)

    monkeypatch.setattr(instances, "_build", counting)
    inst = generate_instance(*key)
    assert len(builds) == 2
    digest = hashlib.sha256(serialize.instance_dumps(inst)).hexdigest()
    assert digest == RETRY_GOLDEN[key]


# -- inadmissible instances -------------------------------------------

WITNESS_DETAIL = "no unused image line with at least 11 points"
DECOMPOSITION_DETAIL = ("no fresh low tuple left for fiber key <>, "
                        "value (42|31)")


def _lift_candidates(inst):
    """Move every planted candidate tuple's free components to y >= theta,
    so the wasteful values they were planted for have no low tuple left."""
    graph = dict(inst.g.graph)
    for feature in inst.metadata["features"]:
        free = set(inst.g.arity) - set(feature["subset"])
        for entries in feature["candidates"]:
            u = MTuple.of({i: Point(*p) for i, p in entries})
            lifted = MTuple.of({
                i: Point(p.x, p.y + inst.theta) if i in free else p
                for i, p in u.items()
            })
            graph[lifted] = graph.pop(u)
    assert len(graph) == len(inst.g)
    return dataclasses.replace(inst, g=PartialFn(inst.g.arity, graph))


def _failing_instance(kind):
    inst = generate_instance(2, 8, 4, 0)
    if kind in ("decomposition", "both"):
        inst = _lift_candidates(inst)
    if kind in ("witness", "both"):
        inst = dataclasses.replace(inst, horizon=12)
    return inst


FAILURES = {
    "witness": [("witness recoverable", WITNESS_DETAIL)],
    "decomposition": [("decomposition admissible", DECOMPOSITION_DETAIL)],
    "both": [("witness recoverable", WITNESS_DETAIL),
             ("decomposition admissible", DECOMPOSITION_DETAIL)],
}


def _report_bytes(kind):
    failed = FAILURES[kind]
    detail = "; ".join(f"{name}: {text}" for name, text in failed)
    horizon = 8 if kind == "decomposition" else 12
    return (
        '{"checks":[{"detail":"' + detail + '","name":"admissibility",'
        '"passed":false}],"domain_size":21,"horizon":' + str(horizon)
        + ',"kind":"report","m":2,"passed":false,"profile":"mixed",'
        '"seed":0,"theta":4,"version":1}\n'
    ).encode()


def _check_lines(kind):
    failed = dict(FAILURES[kind])
    lines = []
    for name in ("coordinates below ceiling", "witness recoverable",
                 "decomposition admissible"):
        if name in failed:
            lines.append(f"FAIL  {name}  ({failed[name]})")
        else:
            lines.append(f"PASS  {name}")
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("kind", sorted(FAILURES))
class TestFailurePaths:
    def test_check_admissibility(self, kind):
        adm = check_admissibility(_failing_instance(kind))
        assert not adm["passed"]
        failed = [(c["name"], c["detail"]) for c in adm["checks"]
                  if not c["passed"]]
        assert failed == FAILURES[kind]
        assert adm["detail"] == "; ".join(
            f"{name}: {text}" for name, text in FAILURES[kind])

    def test_run_pipeline(self, kind):
        report, result = run_pipeline(_failing_instance(kind))
        assert result is None
        assert "stage_error" not in report and "term_stats" not in report
        assert serialize.report_dumps(report) == _report_bytes(kind)

    def test_cli_check_exits_one(self, kind, tmp_path, capsys):
        path = tmp_path / "inst.json"
        path.write_bytes(serialize.instance_dumps(_failing_instance(kind)))
        assert main(["check", "--instance", str(path)]) == 1
        assert capsys.readouterr().out == _check_lines(kind)
