"""Smoke tests of the benchmark at tiny sizes.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402

bench.use_source_tree()

import workloads  # noqa: E402
from calibrate import Calibrator  # noqa: E402

TINY = {"sim-namedropper-faulty": 64, "live-sublog": 8}

#: A layer each workload must show as busy in a traced run.
BUSY_LAYER = {
    "sim-namedropper-faulty": "sim.transport.submit_s",
    "live-sublog": "live.node.marker_wait_s",
}


def test_declared_metrics_match_the_reported_ones():
    config = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in config["workloads"]} == set(workloads.WORKLOADS)
    for key, reported in (("end_to_end", workloads.END_TO_END), ("per_layer", workloads.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in config[key]} == reported


@pytest.mark.parametrize("traced", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_metric_is_reported_with_its_unit(name, traced):
    result = bench.run(name, seed=3, seconds=0, traced=traced, n=TINY[name])
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= workloads.MIN_PASSES * workloads.WORKLOADS[name].instances
    units = {metric: value["unit"] for metric, value in result["metrics"].items()}
    assert units == (workloads.PER_LAYER if traced else workloads.END_TO_END)
    values = {metric: value["value"] for metric, value in result["metrics"].items()}
    if traced:
        assert values[BUSY_LAYER[name]] > 0
        assert (values["live.query_p99_ms"] > 0) == workloads.WORKLOADS[name].live
    else:
        wall = result["wall"]
        assert wall["speed"] > 0
        assert values["discover_s"] == pytest.approx(wall["discover_s"] * wall["speed"])
        assert values["success_frac"] == 1.0
        assert all(value > 0 for value in values.values())


def test_calibrator_reports_a_speed_and_stops_its_process():
    with Calibrator() as calibrator:
        child = calibrator._child
        for _ in range(3):
            calibrator.sample()
        assert len(calibrator.samples) == 3
        assert calibrator.speed() > 0
    assert child.poll() == 0
    with pytest.raises(RuntimeError):
        calibrator.sample()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_wrong_reference_digest_counts_as_failure(name):
    workload = workloads.WORKLOADS[name]
    seeds = workloads.instance_seeds(5, workload.instances)
    expected = [
        workloads.reference(workload, seed, slot, TINY[name]) for slot, seed in enumerate(seeds)
    ]
    expected[0] = {**expected[0], "digest": "0" * 64}
    result = bench.run(name, seed=5, seconds=0, traced=False, n=TINY[name], expected=expected)
    assert not result["correct"]
    assert result["failed"] == workloads.MIN_PASSES
    assert all("digest differs" in problem for problem in result["problems"])
    assert set(result["metrics"]) == {"success_frac"}


def test_refuses_to_run_without_the_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "live-sublog", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )  # fmt: skip
    assert done.returncode != 0
    assert done.stdout == ""
