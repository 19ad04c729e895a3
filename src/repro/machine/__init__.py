"""The simulated processor: the paper's UltraSPARC substitute.

The paper reads real hardware performance counters; Python exposes no
such thing, so we execute IR programs on a deterministic machine model
that maintains the same sixteen event counters the UltraSPARC documents
(instructions, cycles, cache events, branch events, stall cycles) and
exposes two programmable PIC registers with 32-bit wrap semantics,
including the write-then-read requirement the paper works around
(§3.1).  Instrumentation executes on the same machine, so it perturbs
the caches, the predictor, and the counters — which is precisely the
phenomenon Table 2 studies.

Two interchangeable execution engines run the IR (``Machine(...,
engine=...)``): ``"simple"``, the reference if/elif interpreter, and
``"fast"`` (default), the predecoded block engine in
:mod:`repro.machine.engine` — decode-once cached segments with
block-static cost sums and I-cache probe points hoisted out of the hot
loop.  The two are bit-identical in every counter; see docs/API.md.
"""

from repro.machine.config import MachineConfig, MachineConfigError
from repro.machine.counters import Event, CounterBank, PicRegisters
from repro.machine.caches import DirectMappedCache, SetAssociativeCache
from repro.machine.branch import TwoBitPredictor
from repro.machine.memory import MemoryMap, Region
from repro.machine.vm import Machine, MachineError, RunResult

__all__ = [
    "CounterBank",
    "DirectMappedCache",
    "Event",
    "Machine",
    "MachineConfig",
    "MachineConfigError",
    "MachineError",
    "MemoryMap",
    "PicRegisters",
    "Region",
    "RunResult",
    "SetAssociativeCache",
    "TwoBitPredictor",
]
