"""Machine configuration, defaulting to UltraSPARC-I-like parameters.

The numbers mirror the machine the paper measured on where documented
(16KB direct-mapped on-chip L1 D-cache with 32-byte lines, §6.4.1;
two 32-bit PIC counters, §3.3) and use plausible mid-90s values
elsewhere.  Experiments vary these to stress the analyses, and the
ablation benchmarks sweep them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


class MachineConfigError(ValueError):
    """A machine configuration the cost models cannot simulate."""


@dataclass
class MachineConfig:
    # --- L1 data cache (paper: 16KB, direct mapped, on chip) ---
    dcache_size: int = 16 * 1024
    dcache_line: int = 32
    dcache_assoc: int = 1
    #: Cycles added to a load that misses L1 (off-chip fill).
    dcache_read_miss_penalty: int = 6
    #: UltraSPARC's L1 D is write-through, no write-allocate: a write
    #: miss does not fill the line; its cost is absorbed by the store
    #: buffer unless the buffer is full.
    dcache_write_allocate: bool = False

    # --- optional unified L2 (UltraSPARC systems had 512KB-4MB e-cache) ---
    #: When enabled, an L1 miss probes the L2: an L2 hit costs the L1
    #: miss penalty; an L2 miss costs ``l2_miss_penalty`` instead.
    l2_enabled: bool = False
    l2_size: int = 512 * 1024
    l2_line: int = 64
    l2_assoc: int = 4
    l2_miss_penalty: int = 30

    # --- L1 instruction cache (UltraSPARC: 16KB, 2-way, 32B) ---
    icache_size: int = 16 * 1024
    icache_line: int = 32
    icache_assoc: int = 2
    icache_miss_penalty: int = 5

    # --- branch prediction ---
    predictor_entries: int = 512
    mispredict_penalty: int = 4

    # --- store buffer ---
    store_buffer_depth: int = 8
    #: Cycles the memory system needs to retire one store.
    store_drain_cycles: int = 2

    # --- floating point latencies per op ---
    fp_latencies: Dict[str, int] = field(
        default_factory=lambda: {"fadd": 3, "fsub": 3, "fmul": 3, "fdiv": 12}
    )

    # --- frames / memory map ---
    #: 8-byte words reserved per activation frame (spill slots, saved
    #: gCSP, saved counters).
    frame_words: int = 32
    #: Maximum call depth before the machine reports stack overflow.
    max_call_depth: int = 4096

    # --- safety valve for runaway programs ---
    max_instructions: int = 500_000_000

    def validate(self) -> None:
        """Raise :class:`MachineConfigError` for a geometry the models
        cannot build or a store buffer or predictor that would fault
        mid-run."""
        _check_cache("dcache", self.dcache_size, self.dcache_line, self.dcache_assoc)
        if self.l2_enabled:
            _check_cache("l2", self.l2_size, self.l2_line, self.l2_assoc)
        _check_cache("icache", self.icache_size, self.icache_line, self.icache_assoc)
        if not _power_of_two(self.predictor_entries):
            raise MachineConfigError(
                f"predictor_entries must be a power of two, not {self.predictor_entries}"
            )
        if self.store_buffer_depth < 1:
            raise MachineConfigError(
                f"store_buffer_depth must be at least 1, not {self.store_buffer_depth}"
            )
        if self.store_drain_cycles < 0:
            raise MachineConfigError(
                f"store_drain_cycles must not be negative, not {self.store_drain_cycles}"
            )


def _power_of_two(n: int) -> bool:
    return n >= 1 and not n & (n - 1)


def _check_cache(name: str, size: int, line: int, assoc: int) -> None:
    """The cache constructors' geometry rules, checked up front."""
    if not _power_of_two(line):
        raise MachineConfigError(f"{name} line size must be a power of two, not {line}")
    if assoc < 1:
        raise MachineConfigError(f"{name} associativity must be at least 1, not {assoc}")
    if size < 1 or size % (line * assoc):
        raise MachineConfigError(
            f"{name} size {size} must be a multiple of line*assoc ({line}*{assoc})"
        )
    sets = size // (line * assoc)
    if not _power_of_two(sets):
        raise MachineConfigError(
            f"{name} set count must be a power of two, not {sets} "
            f"({size} bytes of {line}-byte lines, {assoc}-way)"
        )
