"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/bench_checks.py

They run the benchmark at tiny instance counts; the repository's own test
suite does not collect this file.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402  (needs HERE on sys.path)

WORK_COUNTER_SUFFIXES = (".calls", ".terms_in", ".terms_out", ".reps_out",
                         ".radius_max", ".level_max")


def spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=600)
    return proc


def result(*args):
    proc = bench(*args)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", ["germ", "transfer", "descent", "signs"])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    detail, out = result("--workload", workload, "--seed", "3",
                         "--seconds", "1", "--trace", str(trace),
                         "--instances", "2")
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 2
    listed = spec()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == \
        {k: v["unit"] for k, v in out["metrics"].items()}
    assert all(isinstance(v["value"], (int, float))
               for v in out["metrics"].values())


@pytest.fixture
def loaded():
    engines = child.load_orbitlab()
    import workloads
    return engines, workloads


def _runner(E, workloads, workload, keys):
    insts = [workloads.build(E, workloads.make_record(E, workload, k))
             for k in keys]
    return child.Runner(E, workload, 0, insts,
                        child.load_digests()[workload])


def test_perturbed_engine_fails_its_identity_and_the_digest(loaded,
                                                            monkeypatch,
                                                            tmp_path, capsys):
    engines, workloads = loaded
    import orbitlab.integrals as integrals
    original = integrals.gl_orbit_integral
    monkeypatch.setattr(integrals, "gl_orbit_integral",
                        lambda *a, **k: original(*a, **k) + 1)
    E = engines.resolve()
    keys = ["unit-p3-split-0/0", "unit-p3-nonsplit-0/0"]
    runner = _runner(E, workloads, "transfer", keys)
    runner.run_pass()
    assert runner.failed == runner.attempted == 2
    for w in runner.witnesses:
        assert "unit matching failed" in w["problems"]
        assert any(p.startswith("digest") for p in w["problems"])
        assert w["record"]["p"] == 3 and w["record"]["tau"] == [2, 1]

    # the witness alone re-runs the failure bit for bit
    path = tmp_path / "witness.jsonl"
    path.write_text(json.dumps(runner.witnesses[0]) + "\n")
    child.replay(engines, workloads, str(path), 0)
    assert json.loads(capsys.readouterr().out)["reproduced"]


def test_consistent_perturbation_is_caught_by_the_digest_alone(loaded,
                                                              monkeypatch):
    engines, workloads = loaded
    import orbitlab.integrals as integrals
    original = integrals.parabolic_descent
    # both sides of the descent identity scale alike, so only the digest
    # sees that the results changed
    monkeypatch.setattr(integrals, "parabolic_descent",
                        lambda *a, **k: original(*a, **k).scale(2))
    runner = _runner(engines.resolve(), workloads, "descent",
                     ["same-level1-3/0"])
    runner.run_pass()
    assert runner.failed == 1
    assert [p[:6] for p in runner.witnesses[0]["problems"]] == ["digest"]


def test_replay_of_a_passing_record_reproduces_its_digest(loaded, tmp_path,
                                                          capsys):
    engines, workloads = loaded
    E = engines.resolve()
    key = "weil-ramified-1/1"
    witness = {"workload": "signs", "seed": 0, "index": 0, "key": key,
               "record": workloads.make_record(E, "signs", key),
               "ledger": {}, "problems": [],
               "digest": child.load_digests()["signs"][key]}
    path = tmp_path / "w.jsonl"
    path.write_text(json.dumps(witness) + "\n")
    child.replay(engines, workloads, str(path), 0)
    assert json.loads(capsys.readouterr().out)["reproduced"]


@pytest.mark.parametrize("workload", ["transfer", "germ"])
def test_traced_runs_repeat_their_work_counters(workload):
    runs = [result("--workload", workload, "--seed", "5", "--seconds", "1",
                   "--trace", "1", "--instances", "4")[1]["metrics"]
            for _ in range(2)]
    counters = [{k: v["value"] for k, v in m.items()
                 if k.endswith(WORK_COUNTER_SUFFIXES)} for m in runs]
    assert counters[0] == counters[1]
    assert any(counters[0].values())


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "germ", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
