"""Simulator throughput: the compiled engine vs the reference loop.

Runs the uninstrumented SPEC95-like suite under ``engine="simple"``
(the reference if/elif interpreter) and ``engine="fast"`` (the
predecoded block engine), checks both agree bit-for-bit on every
counter, and records simulated instructions per second to
``BENCH_vm_speed.json`` at the repository root so the speedups are
tracked across PRs.

The fast engine is timed twice: cold (first run pays per-block decode
and bytecode compilation) and warm (compiled code cached — the regime
every experiment runs in).  The asserted speedup is the warm one.

``REPRO_VM_SPEED_CHECK_ONLY=1`` relaxes the assertion to >1x for
noisy shared CI runners; ``REPRO_VM_SPEED_MIN`` overrides the target.
"""

import json
import os
import pathlib

from benchmarks.conftest import SCALE, once, workload_selection
from repro.tools.bench_runner import measure_vm_speed

RESULT_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_vm_speed.json"

#: Required warm speedup of fast over simple, unless check-only.
MIN_SPEEDUP = float(os.environ.get("REPRO_VM_SPEED_MIN", "3.0"))
CHECK_ONLY = os.environ.get("REPRO_VM_SPEED_CHECK_ONLY", "") not in ("", "0")


def test_vm_speed(benchmark):
    names = workload_selection()
    payload = once(benchmark, lambda: measure_vm_speed(SCALE, names))
    payload["min_required"] = MIN_SPEEDUP
    payload["check_only"] = CHECK_ONLY
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    speedup_warm = payload["speedup_warm"]
    # Warm passes must reuse every compiled block.
    assert payload["fast_warm"]["source_cache_misses"] == 0, payload
    if CHECK_ONLY:
        assert speedup_warm > 1.0, payload
    else:
        assert speedup_warm >= MIN_SPEEDUP, payload
