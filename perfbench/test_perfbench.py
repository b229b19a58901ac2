"""Smoke tests of the benchmark itself, on shrunken workloads.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402

run.load_program()

from workloads import WORKLOADS, check_correct, execute  # noqa: E402

SPEC = run.load_spec()
NAMES = [entry["name"] for entry in SPEC["workloads"]]

#: Shrunken sizes: enough transactions for every metric to apply.
TINY = {"snapshot-ro": 30, "local-rw": 300, "edge-zipf": 120}


def tiny(name: str):
    workload = WORKLOADS[name]
    config = dataclasses.replace(
        workload.config, initial_keys=min(workload.config.initial_keys, 3_000)
    )
    return dataclasses.replace(workload, config=config, size=TINY[name])


@pytest.fixture(scope="module")
def measured():
    """Untraced and traced measurements of every workload, seeds 1 and 2."""
    results = {}
    for name in NAMES:
        workload = tiny(name)
        results[name] = {
            "plain": run.measure(workload, seed=1, seconds=0.0, trace=False),
            "traced": run.measure(workload, seed=1, seconds=0.0, trace=True),
            "other_seed": run.measure(workload, seed=2, seconds=0.0, trace=False),
        }
    return results


def test_benchmark_names_every_workload():
    assert set(TINY) == set(NAMES)
    assert set(NAMES) <= set(WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_metric_names_match_benchmark_json(measured, name):
    plain = run.report(measured[name]["plain"], SPEC, trace=False)
    traced = run.report(measured[name]["traced"], SPEC, trace=True)
    assert plain["correct"] and traced["correct"]
    assert set(plain["metrics"]) == {entry["name"] for entry in SPEC["end_to_end"]}
    assert set(traced["metrics"]) == {entry["name"] for entry in SPEC["per_layer"]}
    assert all(entry["value"] > 0 for entry in plain["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_sim_digest_is_stable_per_seed_and_neutral_to_tracing(measured, name):
    plain = measured[name]["plain"]
    # Every repetition of the untraced run repeated the first one's digest.
    assert len(plain.digests) >= run.MIN_REPS
    assert set(plain.digests) == {plain.sim_digest}
    # The traced repetitions (wrappers and program tracing on) did too.
    traced = measured[name]["traced"]
    assert traced.digests and set(traced.digests) == {plain.sim_digest}
    assert traced.sim_digest == plain.sim_digest
    assert measured[name]["other_seed"].sim_digest != plain.sim_digest


def test_gate_rejects_reads_that_contradict_the_committed_history():
    workload = tiny("edge-zipf")
    from repro.core.system import TransEdgeSystem

    system = TransEdgeSystem(workload.config)
    outcome = execute(workload, system, workload.generate(1))
    assert check_correct(outcome) == []
    history = outcome.history
    observation = history.read_only[0]
    key = next(iter(observation.values))
    history.record_read_only("forged", {key: b"never written"}, observation.versions)
    assert any("history" in problem for problem in check_correct(outcome))

    # A value some transaction did commit, claimed at the wrong version.
    history.read_only.pop()
    store = system.leader_replica(system.partitioner.partition_of(key)).store
    rewritten = [key for key in store.keys() if len(store.history(key)) > 1]
    key = rewritten[0]
    (first_version, first_value), (_, later_value) = store.history(key)[:2]
    history.record_read_only("misdated", {key: later_value}, {key: first_version})
    assert later_value != first_value
    assert any("committed version" in problem for problem in check_correct(outcome))


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_benchmark_json_follows_its_schema():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(set(entry) == {"name", "why"} for entry in SPEC["workloads"])
    assert all(
        set(entry) == {"name", "unit", "better", "bound"} and 0 < entry["bound"] <= 0.25
        for entry in SPEC["end_to_end"]
    )
    assert all(set(entry) == {"name", "unit", "better"} for entry in SPEC["per_layer"])
    setup = next(entry for entry in SPEC["end_to_end"] if entry["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(entry["bound"] for entry in SPEC["end_to_end"])
    details = json.loads((ROOT / "perfbench" / "workloads.json").read_text())
    assert [entry["name"] for entry in details["workloads"]] == NAMES
