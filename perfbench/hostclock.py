"""Wall times at a nominal host speed.

The benchmark shares its host with other tenants, and the speed of one
core drifts by tens of percent over tens of seconds — far more than
the regressions the benchmark must resolve.  So a short, fixed probe
(standard-library work only: ``copy.deepcopy``, ``compile``/``exec``
and closure dispatch, the same kinds of work the profiler does) runs
before every timed call.  A call's wall time is multiplied by the
nominal probe time over the median of the probes around it, which
reports it as it would have read on the host at its nominal speed.
The probe never touches the program under test, so a faster program
still reads faster, and it runs with the garbage collector off so the
program's heap size cannot slow it.
"""

from __future__ import annotations

import copy
import gc
import random
import statistics
import time
from typing import List

#: What the probe takes on the nominal host (about its median on the
#: host described under "Measured steadiness" in ``README.md``).
NOMINAL_PROBE_SECONDS = 0.0025
#: Probes on each side of a call that set its host speed.
WINDOW = 3

_rng = random.Random(7)


class _Node:
    def __init__(self, name, items):
        self.name = name
        self.items = items


_TREE = [_Node(f"n{i}", [(j, _rng.random(), str(j)) for j in range(12)]) for i in range(60)]
_SOURCE = (
    "def f(regs, mem):\n"
    + "".join(
        f"    regs[{i % 8}] = regs[{(i * 3) % 8}] + mem.get({i}, {i})\n" for i in range(40)
    )
    + "    return regs\n"
)


def _probe_work() -> int:
    copy.deepcopy(_TREE)
    namespace = {}
    exec(compile(_SOURCE, "<probe>", "exec"), namespace)
    step = namespace["f"]
    regs = [0] * 8
    mem = {i: i for i in range(0, 40, 3)}
    closures = [
        (lambda r, k=k: r.__setitem__(k % 8, r[(k + 1) % 8] + k)) for k in range(16)
    ]
    for _ in range(60):
        step(regs, mem)
        for closure in closures:
            closure(regs)
    return regs[0]


class HostClock:
    """Probe timings, and wall times scaled to the nominal host speed."""

    def __init__(self):
        self.probes: List[float] = []

    def probe(self) -> int:
        """Time the probe once; returns its index."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            _probe_work()
            self.probes.append(time.perf_counter() - started)
        finally:
            if enabled:
                gc.enable()
        return len(self.probes) - 1

    def normalize(self, seconds: float, index: int) -> float:
        """``seconds`` measured right after probe ``index``, at nominal speed."""
        window = self.probes[max(0, index - WINDOW) : index + WINDOW + 1]
        return seconds * NOMINAL_PROBE_SECONDS / statistics.median(window)
