"""Memory map and backing store.

A flat byte-addressed space with 8-byte words, split into fixed
regions.  The interesting property for this reproduction is not the
values (a dict suffices) but the *addresses*: program data, activation
frames, profiling counter tables, and the CCT heap all live in one
address space and index the same direct-mapped L1 data cache, so
instrumentation data structures can — and do — conflict with the
program's own working set, exactly the perturbation §3.2 of the paper
worries about.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Tuple, Union

WORD = 8


@dataclass(frozen=True)
class Region:
    name: str
    base: int
    size: int

    @property
    def limit(self) -> int:
        return self.base + self.size

    def contains(self, address: int) -> bool:
        return self.base <= address < self.limit


class MemoryMap:
    """Region layout plus the word-granular backing store."""

    def __init__(self, globals_words: int = 0):
        self.globals = Region("globals", 0x0001_0000, max(globals_words, 1) * WORD)
        self.heap = Region("heap", 0x0100_0000, 0x0700_0000)
        self.stack = Region("stack", 0x0800_0000, 0x0100_0000)
        #: Path/edge counter tables (the profiling runtime's arrays).
        self.profiling = Region("profiling", 0x1000_0000, 0x1000_0000)
        #: The CCT's demand-paged call-record heap (paper §4.2).
        self.cct = Region("cct", 0x2000_0000, 0x1000_0000)
        self._store: Dict[int, Union[int, float]] = {}
        self._heap_next = self.heap.base
        # region_of bisects the sorted region boundaries: the span from
        # each boundary to the next belongs to the first region (in
        # this order) that contains the boundary.
        regions = (self.globals, self.heap, self.stack, self.profiling, self.cct)
        self._region_edges = sorted({r.base for r in regions} | {r.limit for r in regions})
        self._region_names = ["unmapped"] + [
            next((r.name for r in regions if r.contains(edge)), "unmapped")
            for edge in self._region_edges
        ]

    # -- data ------------------------------------------------------------------

    def read(self, address: int) -> Union[int, float]:
        """Word read; uninitialized memory reads as zero."""
        return self._store.get(address, 0)

    def write(self, address: int, value: Union[int, float]) -> None:
        self._store[address] = value

    # -- allocation ---------------------------------------------------------------

    def heap_alloc(self, size_words: int) -> int:
        """Bump allocation, word aligned; raises on exhaustion."""
        if size_words < 0:
            raise ValueError("negative allocation")
        address = self._heap_next
        self._heap_next += size_words * WORD
        if self._heap_next > self.heap.limit:
            raise MemoryError("simulated heap exhausted")
        return address

    def heap_used(self) -> int:
        return self._heap_next - self.heap.base

    def frame_base(self, depth: int, frame_words: int) -> int:
        """Stack address of the frame at call depth ``depth``."""
        base = self.stack.base + depth * frame_words * WORD
        if base + frame_words * WORD > self.stack.limit:
            raise MemoryError("simulated stack exhausted")
        return base

    def global_addr(self, word_index: int) -> int:
        return self.globals.base + word_index * WORD

    def region_table(self) -> Tuple[List[int], List[str]]:
        """``(edges, names)``: ``address`` lies in the region
        ``names[bisect_right(edges, address)]``, the rule
        :meth:`region_of` applies, for callers that inline it."""
        return self._region_edges, self._region_names

    def region_of(self, address: int) -> str:
        return self._region_names[bisect_right(self._region_edges, address)]
