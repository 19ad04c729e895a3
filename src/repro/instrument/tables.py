"""Counter tables and the profiling runtime.

A :class:`CounterTable` is the run-time storage for one function's path
(or edge) counters.  The actual counts live in Python dictionaries, but
every update issues the load/store traffic a real table would at
deterministic simulated addresses inside the profiling memory region —
so big tables fight the program for D-cache lines, which is the
perturbation channel the paper discusses in §3.2.

Array tables store ``slot_words`` 8-byte words per index at
``base + index*slot_words*8``.  Hash tables (used when a function has
too many potential paths to array-index, §2) store a key word plus the
slots per bucket and pay an extra key-compare load per update.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, List, Optional, Tuple

from repro.machine.memory import WORD


class TableKind(Enum):
    ARRAY = "array"
    HASH = "hash"


#: Functions with more potential paths than this get a hash table.
ARRAY_PATH_LIMIT = 4096
#: Bucket count for hash tables (power of two).
HASH_BUCKETS = 1 << 14

_KNUTH = 2654435761


class CounterTable:
    """Counters for one function: frequency plus optional metric slots."""

    __slots__ = (
        "name",
        "table_id",
        "base",
        "capacity",
        "metric_slots",
        "kind",
        "buckets",
        "counts",
        "metrics",
        "out_of_range",
    )

    def __init__(
        self,
        name: str,
        table_id: int,
        base: int,
        capacity: int,
        metric_slots: int,
        kind: TableKind,
        buckets: int = HASH_BUCKETS,
    ):
        if buckets & (buckets - 1):
            raise ValueError("hash bucket count must be a power of two")
        self.name = name
        self.table_id = table_id
        self.base = base
        self.capacity = capacity
        self.metric_slots = metric_slots
        self.kind = kind
        self.buckets = buckets
        self.counts: Dict[int, int] = {}
        self.metrics: Dict[int, List[int]] = {}
        #: Commits whose index fell outside [0, capacity): only possible
        #: when a longjmp interrupts a path mid-flight, leaving a sum
        #: that corresponds to no real path.  A real array would be
        #: corrupted; we count and quarantine instead.
        self.out_of_range = 0

    # -- geometry ------------------------------------------------------------

    @property
    def slot_words(self) -> int:
        return 1 + self.metric_slots

    def size_bytes(self) -> int:
        if self.kind is TableKind.ARRAY:
            return self.capacity * self.slot_words * WORD
        return self.buckets * (1 + self.slot_words) * WORD

    def _slot_addr(self, index: int) -> int:
        if self.kind is TableKind.ARRAY:
            return self.base + index * self.slot_words * WORD
        bucket = ((index * _KNUTH) & 0xFFFFFFFF) & (self.buckets - 1)
        return self.base + bucket * (1 + self.slot_words) * WORD

    # -- updates (with simulated memory traffic) --------------------------------

    def bump(self, machine, index: int) -> None:
        """``count[index] += 1`` with its read-modify-write traffic."""
        if not 0 <= index < self.capacity:
            self.out_of_range += 1
            return
        addr = self._slot_addr(index)
        if self.kind is TableKind.HASH:
            machine.charge(3)  # hash multiply, mask, key compare
            machine.probe_read(addr)  # key compare
            addr += WORD
        machine.probe_read(addr)
        machine.probe_write(addr, self.counts.get(index, 0) + 1)
        self.counts[index] = self.counts.get(index, 0) + 1

    def accumulate(self, machine, index: int, values: Tuple[int, ...]) -> None:
        """Bump frequency and add each metric value (Figure 3's sequence)."""
        if not 0 <= index < self.capacity:
            self.out_of_range += 1
            return
        addr = self._slot_addr(index)
        if self.kind is TableKind.HASH:
            machine.charge(3)
            machine.probe_read(addr)
            addr += WORD
        machine.probe_read(addr)
        machine.probe_write(addr, self.counts.get(index, 0) + 1)
        self.counts[index] = self.counts.get(index, 0) + 1
        slots = self.metrics.get(index)
        if slots is None:
            slots = [0] * self.metric_slots
            self.metrics[index] = slots
        for offset, value in enumerate(values[: self.metric_slots]):
            slot_addr = addr + (1 + offset) * WORD
            machine.probe_read(slot_addr)
            slots[offset] += value
            machine.probe_write(slot_addr, slots[offset])

    # -- results ------------------------------------------------------------------

    def nonzero(self) -> Dict[int, int]:
        return dict(self.counts)

    def metric_totals(self) -> List[int]:
        totals = [0] * self.metric_slots
        for slots in self.metrics.values():
            for offset, value in enumerate(slots):
                totals[offset] += value
        return totals


class ProfilingRuntime:
    """Owns all counter tables and serves the VM's instrumentation ops.

    The sentinel table id ``-1`` means "the current calling context's
    table": the lookup is delegated to the CCT runtime, which is how
    combined flow+context profiling stores per-context path counters in
    call records (§4.3).
    """

    #: Table id used by PathCommit/HwcAccum in combined mode.
    CONTEXT_TABLE = -1

    def __init__(self, profiling_base: int):
        self.tables: List[CounterTable] = []
        self._cursor = profiling_base
        #: Function name -> table spec, for per-context table creation.
        self.specs: Dict[str, Tuple[int, int, TableKind]] = {}

    # -- allocation ---------------------------------------------------------------

    def new_table(
        self,
        name: str,
        capacity: int,
        metric_slots: int = 0,
        kind: Optional[TableKind] = None,
    ) -> CounterTable:
        if kind is None:
            kind = TableKind.ARRAY if capacity <= ARRAY_PATH_LIMIT else TableKind.HASH
        table = CounterTable(
            name, len(self.tables), self._cursor, capacity, metric_slots, kind
        )
        self._cursor += table.size_bytes()
        self.tables.append(table)
        self.specs[name] = (capacity, metric_slots, kind)
        return table

    def table_for(self, machine, frame, table_id: int) -> CounterTable:
        if table_id == self.CONTEXT_TABLE:
            if machine.cct_runtime is None:
                raise RuntimeError(
                    "combined flow+context instrumentation needs a CCT runtime"
                )
            return machine.cct_runtime.path_table(machine, frame.function.name)
        return self.tables[table_id]

    # -- VM callbacks ---------------------------------------------------------------

    def commit(self, machine, frame, instr) -> None:
        index = frame.regs[instr.reg] + instr.end
        self.table_for(machine, frame, instr.table).bump(machine, index)
        if instr.reset_to is not None:
            frame.regs[instr.reg] = instr.reset_to

    def accumulate(self, machine, frame, instr) -> None:
        pic0, pic1 = machine.pic.read()
        index = frame.regs[instr.reg] + instr.end
        self.table_for(machine, frame, instr.table).accumulate(
            machine, index, (pic0, pic1)
        )
        if instr.rezero:
            machine.pic.write_zero()
            machine.pic.read()
        if instr.reset_to is not None:
            frame.regs[instr.reg] = instr.reset_to

    def k_cycle(self, machine, frame, instr) -> None:
        """Backedge probe for k-iteration paths (KHwcCycle).

        The register packs ``path_sum * k + layer``.  Below the last
        layer the backedge merely continues the path (pre-scaled cross
        increment folds in the layer bump); at layer ``k-1`` it runs the
        Figure 3 commit with rezero and restarts at the packed START.
        The operation order mirrors :meth:`accumulate` exactly — the
        fast engine generates this same sequence inline.
        """
        reg = frame.regs[instr.reg]
        layer = reg % instr.k
        if layer != instr.k - 1:
            frame.regs[instr.reg] = reg + instr.cross[layer]
            return
        pic0, pic1 = machine.pic.read()
        index = (reg - layer) // instr.k + instr.end
        self.table_for(machine, frame, instr.table).accumulate(
            machine, index, (pic0, pic1)
        )
        machine.pic.write_zero()
        machine.pic.read()
        frame.regs[instr.reg] = instr.start

    def k_exit(self, machine, frame, instr) -> None:
        """Exit commit for k-iteration paths (KHwcExit): layer-indexed end value."""
        pic0, pic1 = machine.pic.read()
        reg = frame.regs[instr.reg]
        layer = reg % instr.k
        index = (reg - layer) // instr.k + instr.values[layer]
        self.table_for(machine, frame, instr.table).accumulate(
            machine, index, (pic0, pic1)
        )

    def edge_count(self, machine, instr) -> None:
        self.tables[instr.table].bump(machine, instr.edge)
