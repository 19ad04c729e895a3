"""Cache simulators: direct-mapped (L1 D) and set-associative (L1 I).

Both expose ``access(address) -> hit`` and count their own ``misses``.
The direct-mapped variant is specialized (one tag per set, no LRU
state) because the interpreter calls it on every load and store.

The fast engine's generated code tests hits inline against
:attr:`DirectMappedCache.tags` and the most recent line of each
:attr:`SetAssociativeCache.ways` set, and calls :meth:`access` only
when that test fails, so neither class counts its accesses (for the
L1 D-cache they are the ``DC_READ + DC_WRITE`` counters).  Generated
code binds those lists by identity: they are never rebound.
"""

from __future__ import annotations

from typing import List


class DirectMappedCache:
    """One tag per set; a 16KB/32B instance has 512 sets (paper §6.4.1)."""

    __slots__ = ("line", "sets", "_line_bits", "_set_mask", "tags", "misses")

    def __init__(self, size: int, line: int):
        if size % line:
            raise ValueError("cache size must be a multiple of the line size")
        self.line = line
        self.sets = size // line
        if self.sets & (self.sets - 1) or line & (line - 1):
            raise ValueError("sets and line size must be powers of two")
        self._line_bits = line.bit_length() - 1
        self._set_mask = self.sets - 1
        self.tags: List[int] = [-1] * self.sets
        self.misses = 0

    def access(self, address: int, allocate: bool = True) -> bool:
        """Probe the cache; fill on miss when ``allocate``.  Returns hit?"""
        block = address >> self._line_bits
        index = block & self._set_mask
        if self.tags[index] == block:
            return True
        self.misses += 1
        if allocate:
            self.tags[index] = block
        return False

    def contains(self, address: int) -> bool:
        block = address >> self._line_bits
        return self.tags[block & self._set_mask] == block

    def set_index(self, address: int) -> int:
        """Which set an address maps to (used by conflict diagnostics)."""
        return (address >> self._line_bits) & self._set_mask


class SetAssociativeCache:
    """N-way with true LRU per set; used for the instruction cache."""

    __slots__ = ("line", "assoc", "sets", "_line_bits", "_set_mask", "ways", "misses")

    def __init__(self, size: int, line: int, assoc: int):
        if size % (line * assoc):
            raise ValueError("cache size must be a multiple of line*assoc")
        self.line = line
        self.assoc = assoc
        self.sets = size // (line * assoc)
        if self.sets & (self.sets - 1) or line & (line - 1):
            raise ValueError("sets and line size must be powers of two")
        self._line_bits = line.bit_length() - 1
        self._set_mask = self.sets - 1
        # ways[set] is an LRU-ordered list, most recent last.
        self.ways: List[List[int]] = [[] for _ in range(self.sets)]
        self.misses = 0

    def access(self, address: int, allocate: bool = True) -> bool:
        block = address >> self._line_bits
        index = block & self._set_mask
        way = self.ways[index]
        # Fast path: re-touching the most recent line leaves LRU order
        # unchanged, and a membership scan beats catching ValueError on
        # the (frequent) miss path.
        if way:
            if way[-1] == block:
                return True
            if block in way:
                way.remove(block)
                way.append(block)
                return True
        self.misses += 1
        if allocate:
            way.append(block)
            if len(way) > self.assoc:
                way.pop(0)
        return False

    def contains(self, address: int) -> bool:
        block = address >> self._line_bits
        return block in self.ways[block & self._set_mask]

    def set_index(self, address: int) -> int:
        """Which set an address maps to."""
        return (address >> self._line_bits) & self._set_mask
