"""The benchmark's own tests, at a tiny size.

Run from the repository root::

    python3 -m pytest perfbench -q

They check that every metric ``BENCHMARK.json`` names is emitted with
its unit, that simulated metrics repeat bit for bit for one seed, that
a wrong reference is counted as a failed operation instead of raising,
and that the command refuses to run without the program it measures.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import measure  # noqa: E402
import workloads  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Per-workload ``--size``: the smallest programs that still exercise
#: every verb (profile-cold's time is codegen, which size barely moves).
SIZES = {"profile-cold": 0.05, "sim-long": 0.02, "ci-loop": 0.1}
SEED = 3


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable,
            str(cwd / "perfbench" / "run.py"),
            "--workload", workload,
            "--seed", str(SEED),
            "--seconds", "0",
            "--trace", str(trace),
            "--size", str(SIZES[workload]),
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=900,
    )


_RESULTS = {}


def result(workload: str, trace: int, repeat: int = 0) -> dict:
    """The parsed last line of one run (cached per test session)."""
    key = (workload, trace, repeat)
    if key not in _RESULTS:
        done = bench(workload, trace)
        assert done.returncode == 0, done.stderr
        _RESULTS[key] = json.loads(done.stdout.strip().splitlines()[-1])
    return _RESULTS[key]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(SIZES))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    out = result(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    expected = CONTRACT["per_layer" if trace else "end_to_end"]
    assert list(out["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        emitted = out["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
        assert math.isfinite(emitted["value"])
        if not trace:
            assert emitted["value"] > 0, metric["name"]


SIMULATED_END_TO_END = ("sim_overhead_flow_x", "sim_overhead_context_x")
SIMULATED_PER_LAYER = ("optimize_cycles_x",) + tuple(measure.SIM_EVENTS)


@pytest.mark.parametrize("workload", sorted(SIZES))
def test_simulated_metrics_repeat_exactly(workload):
    for trace, names in ((0, SIMULATED_END_TO_END), (1, SIMULATED_PER_LAYER)):
        first = result(workload, trace)["metrics"]
        second = result(workload, trace, repeat=1)["metrics"]
        for name in names:
            assert first[name]["value"] == second[name]["value"], (trace, name)


def _prepared(name, tmp_path):
    workload = workloads.WORKLOADS[name](SEED, SIZES[name])
    state = workload.setup(str(tmp_path))
    workload.references(state)
    return workload, state


def test_corrupted_reference_is_a_failed_operation(tmp_path):
    workload, state = _prepared("sim-long", tmp_path)
    victim = workload.order[0]
    state["refs"][victim].return_value = "corrupted"
    run = measure.timed_run(workload, state, 0)
    # Every verb on the victim fails its check; none of them raises.
    assert run.ledger.failed == len(workload.modes)
    assert run.ledger.attempted == len(workload.order) * len(workload.modes)
    assert all(victim in error for error in run.ledger.errors)


def test_corrupted_oracle_and_shard_references_are_failed_operations(tmp_path):
    workload, state = _prepared("ci-loop", tmp_path)
    key = workload.commits[0].changed[0]
    counts = state["refs"][key].paths["hw"]
    function = next(name for name, table in counts.items() if table)
    path_sum = next(iter(counts[function]))
    counts[function][path_sum] += 1
    state["shard_refs"][key].return_values.append(0)
    ledger = workloads.Ledger()
    workload.run_pass(state, ledger)
    failures = "\n".join(ledger.errors)
    assert "path counts differ from oracle" in failures
    assert "shard-run: return values differ" in failures
    assert ledger.failed >= 2


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("sim-long", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout
