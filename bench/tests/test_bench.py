"""Tests of the benchmark itself: generators, oracle and tracer.

Run from the repository root with ``python3 -m pytest -q bench/tests``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import generators
import oracle
import pmcperturb.cli as cli
from tracer import Tracer
from worker import run_op

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = ROOT / "tests" / "golden" / "paper_tables.json"

SMALL = {
    "chain-sensitivity": lambda seed: generators.birth_death_chain(seed, n=40),
    "probe-validate": lambda seed: generators.zeroconf_probes(seed, probes=5),
    "dense-validate": lambda seed: generators.random_dense(seed, n=25),
}
ARGS = {
    "chain-sensitivity": ["sensitivity", "--format", "json"],
    "probe-validate": ["validate", "--delta", "0.01", "--samples", "20", "--format", "json",
                       "--seed", "3"],
    "dense-validate": ["validate", "--delta", "0.01", "--samples", "5", "--format", "json",
                       "--seed", "3"],
}


def run_small(workload, tmp_path, seed=7):
    text = SMALL[workload](seed)
    path = tmp_path / "m.model"
    path.write_text(text, encoding="utf-8")
    argv = [ARGS[workload][0], str(path), *ARGS[workload][1:]]
    code, _, out, err, _ = run_op(cli, argv)
    assert code == 0, err
    return oracle.Oracle(workload, text), argv, out


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_generator_is_byte_identical_for_a_seed(workload):
    assert SMALL[workload](5) == SMALL[workload](5)
    assert SMALL[workload](5) != SMALL[workload](6)


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_oracle_accepts_program_output(workload, tmp_path):
    check, argv, out = run_small(workload, tmp_path)
    assert check.check_model() == []
    assert check.check(0, out, argv) == []


def _corrupt_h(record):
    record["parameters"][0]["h"][1] += 1e-6


def _corrupt_exact(record):
    record["samples"][3]["exact"] += 1e-6


def _flip_exceeds(record):
    record["samples"][4]["exceeds"] = not record["samples"][4]["exceeds"]


@pytest.mark.parametrize("workload, corrupt, check_name", [
    ("chain-sensitivity", _corrupt_h, "h"),
    ("probe-validate", _corrupt_exact, "exact"),
    ("dense-validate", _flip_exceeds, "exceeds_rule"),
])
def test_oracle_rejects_corrupted_result(workload, corrupt, check_name, tmp_path):
    check, argv, out = run_small(workload, tmp_path)
    record = json.loads(out)
    corrupt(record)
    fails = check.check(0, json.dumps(record), argv)
    assert check_name in {name for name, _ in fails}
    assert check.check(2, out, argv) == [("exit_code", "exit code 2")]


def test_oracle_restricts_to_states_that_reach_the_destination():
    a = np.array([[0.0, 0.5, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    b = np.array([0.0, 1.0, 0.0])
    assert oracle._reaching(a, b).tolist() == [True, True, False]


def test_closed_forms_reject_a_wrong_solve(tmp_path):
    check, _, _ = run_small("chain-sensitivity", tmp_path)
    check.reference.probability += 1e-6
    assert [name for name, _ in check.check_model()] == ["closed_form"]


def test_paper_tables_gate(tmp_path):
    code, _, out, _, _ = run_op(cli, ["paper-tables", "--format", "json"])
    golden = GOLDEN.read_text(encoding="utf-8")
    assert code == 0 and oracle.check_paper_tables(out, golden) == []
    record = json.loads(out)
    record["frog"]["model_hash"] = "000000000000"
    assert oracle.check_paper_tables(json.dumps(record), golden) == []
    record["zeroconf"]["perturbed"][1]["delta_x1e3"] *= 1.0 + 1e-9
    fails = oracle.check_paper_tables(json.dumps(record), golden)
    assert [name for name, _ in fails] == ["paper_tables"]


@pytest.mark.parametrize("workload", ["chain-sensitivity", "probe-validate"])
def test_traced_self_times_sum_to_operation_time(workload, tmp_path):
    _, argv, plain = run_small(workload, tmp_path)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main is not cli.main.__wrapped__
        code, seconds, out, _, record = run_op(cli, argv, tracer.call)
    finally:
        tracer.uninstall()
    assert not hasattr(cli.main, "__wrapped__")
    assert code == 0 and out == plain
    profile = tracer.profile(record)
    untraced = profile.pop("op")[0] / 1e9
    traced = sum(self_ns for self_ns, _ in profile.values()) / 1e9
    assert abs(seconds - (traced + untraced)) <= 1e-4
    assert abs(seconds - traced) <= untraced + 1e-4
    assert untraced < 0.05 * seconds
    assert profile["cli.main"][1] == 1
    assert profile["modelfile.parse_model"][1] == 1
    assert record["counts"]["reachability.reach_positive_states"] > 0
