"""Fast tests of the benchmark itself (not of entropia).

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import copy
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import inputs  # noqa: E402
import oracle  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402

from entropia import arith, laws  # noqa: E402


# --- the oracle rejects corrupted results ----------------------------------


def _cli(*argv):
    ops = worker.cli_ops([["--json", *argv]])
    return ops[0][1]()


def test_oracle_accepts_and_rejects_cli_outputs():
    for argv in (["entropy", "720720"], ["compare", "20", "63"], ["ideal", "cubic:2", "31"],
                 ["ideal", "quad:5", "2"], ["ideal", "cyclo:7", "7"], ["edivisors", "180"]):
        code, stdout = _cli(*argv)
        assert oracle.check_cli(["--json", *argv], code, stdout) is None
        doc = json.loads(stdout)
        result = doc["result"]
        key = {"entropy": "Hbar", "compare": "gap", "ideal": "g", "edivisors": "count"}[argv[0]]
        result[key] = result[key] + 1e-6 if isinstance(result[key], float) else result[key] + 1
        bad = json.dumps(doc)
        assert oracle.check_cli(["--json", *argv], code, bad) is not None
    assert oracle.check_cli(["--json", "entropy", "24"], 2, "") is not None


def test_oracle_rejects_corrupted_draws():
    data = inputs.pass_inputs("draws", 5, 0, toy=True)
    record = worker.run_pass(worker.make_ops("draws", data), None)
    assert oracle.check_pass("draws", data, record["outputs"]) == [None] * 200
    for i in (0, 60, 120, 180):  # one draw of each mix
        outputs = copy.deepcopy(record["outputs"])
        outputs[i][1] += 1e-7
        verdicts = oracle.check_pass("draws", data, outputs)
        assert [v is not None for v in verdicts].count(True) == 1
    assert oracle.check_pass("draws", data, record["outputs"][:-1])[-1] is not None


def test_oracle_rejects_corrupted_sweep_tallies():
    data = inputs.pass_inputs("sweep", 0, 0, toy=True)
    record = worker.run_pass(worker.make_ops("sweep", data), None)
    assert oracle.check_pass("sweep", data, record["outputs"]) == [None] * len(data)
    names = [name for name, _, _ in data]
    for name, field in (("products", "counts"), ("corollary-int", "violation_count"),
                        ("bounds", "subjects")):
        outputs = copy.deepcopy(record["outputs"])
        out = outputs[names.index(name)]
        if field == "counts":
            out["summary"]["counts"]["EQUAL"] += 1
        elif field == "subjects":
            out["subjects"] -= 1
        else:
            out["summary"]["violation_count"] += 1
        assert oracle.check_pass("sweep", data, outputs)[names.index(name)] is not None


def test_sweep_tallies_are_derived_independently():
    tallies = oracle.sweep_expected(inputs.pass_inputs("sweep", 0, 0))
    assert tallies["products"]["counts"] == {"LESS": 15654, "EQUAL": 9842, "GREATER": 71060}
    assert tallies["products"]["margin"] > 1e-6
    assert tallies["corollary-int"]["subjects"] == 44503
    assert tallies["corollary-int"]["violations"] == 18554
    assert tallies["corollary-ideal"]["subjects"] == 56
    assert tallies["corollary-ideal"]["violations"] == 112


def test_witness_recheck():
    assert oracle.check_witness(
        "corollary-int", "n=60: H(30) = 1.09861228867 > H(n) = 1.03972077084") is None
    assert oracle.check_witness(
        "corollary-int", "n=60: H(15) = 0.69314718056 > H(n) = 1.03972077084") is not None
    assert oracle.check_witness("corollary-int", "something else") == "unparsed"


# --- self time on synthetic nested spans -----------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tr = tracing.Tracer(clock=clock, keep_depth=10)
    # root [0, 10] > a [1, 4] > b [2, 3];  root > c [5, 9]
    steps = [(0, "root"), (1, "a"), (2, "b"), (3, None), (4, None), (5, "c"), (9, None),
             (10, None)]
    for t, name in steps:
        clock.now = t
        tr.begin(name) if name else tr.end()
    self_s = {name: st[2] for name, st in tr.stats.items()}
    assert self_s == {"root": 3.0, "a": 2.0, "b": 1.0, "c": 4.0}
    assert tr.stats["root"][1] == 10.0
    assert sum(self_s.values()) == 10.0
    # every span is kept with its parent link, as written out at exit
    names = {span_id: name for span_id, _, name, _, _ in tr.kept}
    assert {name: names.get(parent) for _, parent, name, _, _ in tr.kept} == {
        "root": None, "a": "root", "b": "a", "c": "root"}


def test_tracer_wraps_rebound_names_and_generators():
    tr = tracing.Tracer()
    original = (arith.factored_range, arith.Factorization.__init__, laws.Factorization)
    undo = tracing.install(tr, "entropia", worker.TRACE_TARGETS)
    try:
        laws.sweep_corollary_int(500)
    finally:
        tracing.uninstall(undo)
    assert (arith.factored_range, arith.Factorization.__init__, laws.Factorization) == original
    assert tr.stats["arith.factored_range"][3] == 499  # one item per next()
    assert tr.stats["arith.Factorization"][0] > 0  # built through laws.Factorization
    assert tr.stats["arith.spf_sieve"][0] == 1  # a child of the first next()
    assert tr.stats["laws.sweep_corollary_int"][3] == laws.sweep_corollary_int(500).checked


# --- seeds change inputs, not the work mix ---------------------------------


def test_seed_changes_inputs_not_mix():
    a, b = inputs.draws_pass(1, 0, 200), inputs.draws_pass(2, 0, 200)
    assert a != b and a == inputs.draws_pass(1, 0, 200)
    assert {k: len(v) for k, v in a.items()} == {k: len(v) for k, v in b.items()}
    ca, cb = inputs.cli_pass(1, 0), inputs.cli_pass(2, 0)
    assert ca != cb and ca == inputs.cli_pass(1, 0)
    assert Counter(v[1] for v in ca) == Counter(v[1] for v in cb) == Counter(
        {"entropy": 500, "compare": 250, "ideal": 150, "edivisors": 100})
    assert inputs.pass_inputs("sweep", 1, 0) == inputs.pass_inputs("sweep", 2, 0)
    assert inputs.cold_start_argvs(1) != inputs.cold_start_argvs(2)


# --- the three workloads at toy size ---------------------------------------


@pytest.mark.parametrize("workload", ["sweep", "draws", "cli"])
def test_workload_runs_at_toy_size(workload):
    data = inputs.pass_inputs(workload, 3, 0, toy=True)
    tr = tracing.Tracer()
    undo = tracing.install(tr, "entropia", worker.TRACE_TARGETS)
    try:
        record = worker.run_pass(worker.make_ops(workload, data), tr)
    finally:
        tracing.uninstall(undo)
    verdicts = oracle.check_pass(workload, data, record["outputs"])
    assert verdicts and all(v is None for v in verdicts)
    assert sum(st[0] for name, st in tr.stats.items() if name.startswith("op.")) == len(
        record["outputs"])
