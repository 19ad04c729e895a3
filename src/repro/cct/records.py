"""Call records: the CCT vertex structure of Figure 6/7.

A record has an ID (the procedure), a parent pointer, a metrics array,
and one callee slot per call site.  A slot holds one of three tagged
values (paper Figure 6):

* *offset* (tag 1) — uninitialized; masking the tag yields the offset
  back to the start of this record, which is how a callee finds its
  caller's record to begin the ancestor search.  Modeled as ``None``.
* *record pointer* (tag 0) — the one callee seen at this direct call
  site.  Modeled as a :class:`CallRecord` reference.
* *list pointer* (tag 2) — a move-to-front list of callees (indirect
  call sites, or direct sites that observed several callees through
  uninstrumented intermediaries).  Modeled as a :class:`CalleeList`.

Byte-level layout mirrors Figure 7 with 8-byte cells: ``ID``,
``parent``, ``metrics[n]``, ``children[nslots]``; list elements are
two-word (callee pointer, next) cells.  Addresses come from the
simulated CCT heap so record maintenance generates real cache traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Union

from repro.machine.memory import WORD

#: The distinguished root identifier (paper: "labeled with the special
#: identifier T, which corresponds to no procedure").
ROOT_ID = "<root>"


class ListNode:
    """One two-word cell of a callee list."""

    __slots__ = ("record", "addr")

    def __init__(self, record: "CallRecord", addr: int):
        self.record = record
        self.addr = addr

    def size_bytes(self) -> int:
        return 2 * WORD


class CalleeList:
    """Move-to-front list of callees for one slot."""

    __slots__ = ("nodes",)

    def __init__(self) -> None:
        self.nodes: List[ListNode] = []

    def records(self) -> List["CallRecord"]:
        return [node.record for node in self.nodes]

    def size_bytes(self) -> int:
        return sum(node.size_bytes() for node in self.nodes)


Slot = Union[None, "CallRecord", CalleeList]


class CallRecord:
    """One CCT vertex (possibly shared by many activations)."""

    __slots__ = ("id", "parent", "metrics", "slots", "addr", "path_tables")

    def __init__(self, proc: str, parent: Optional["CallRecord"], nslots: int,
                 metric_slots: int, addr: int):
        self.id = proc
        self.parent = parent
        self.metrics: List[int] = [0] * metric_slots
        self.slots: List[Slot] = [None] * nslots
        self.addr = addr
        #: function name -> CounterTable, for combined flow+context
        #: profiling (§4.3: "keep a procedure's array of counters or
        #: hash table in a CallRecord").
        self.path_tables: Dict[str, object] = {}

    # -- geometry (Figure 7) ----------------------------------------------------

    @property
    def nslots(self) -> int:
        return len(self.slots)

    def record_bytes(self) -> int:
        """Size of the record proper: ID + parent + metrics + slots."""
        return (2 + len(self.metrics) + len(self.slots)) * WORD

    def metrics_addr(self) -> int:
        return self.addr + 2 * WORD

    def slot_addr(self, slot: int) -> int:
        return self.addr + (2 + len(self.metrics) + slot) * WORD

    # -- structure ------------------------------------------------------------------

    def children(self) -> Iterator["CallRecord"]:
        """Distinct callee records over all slots (tree + backedge targets)."""
        seen = set()
        for slot in self.slots:
            if slot is None:
                continue
            if isinstance(slot, CalleeList):
                for record in slot.records():
                    if id(record) not in seen:
                        seen.add(id(record))
                        yield record
            else:
                if id(slot) not in seen:
                    seen.add(id(slot))
                    yield slot

    def tree_children(self) -> Iterator["CallRecord"]:
        """Children reached by tree edges only (backedges excluded).

        A slot entry is a backedge when it points at this record or one
        of its ancestors (the recursion rule of §4.1); such entries are
        skipped so traversals terminate.
        """
        for child in self.children():
            if child.parent is self:
                yield child

    def context(self) -> List[str]:
        """The calling context: procedure names from the root down."""
        names: List[str] = []
        node: Optional[CallRecord] = self
        while node is not None:
            names.append(node.id)
            node = node.parent
        names.reverse()
        return names

    def __repr__(self) -> str:
        return f"CallRecord({' -> '.join(self.context())})"


@dataclass
class CCTStats:
    """On-line construction statistics (used by tests and ablations)."""

    enters: int = 0
    fast_hits: int = 0
    list_hits: int = 0
    list_scans: int = 0
    ancestor_steps: int = 0
    allocations: int = 0
    backedges_created: int = 0
    slot_upgrades: int = 0
