"""Path numbering: NP values, Val edge labels, and regeneration (§2.1).

Two passes over the transformed acyclic graph in reverse topological
order (combined into one loop here):

* ``NP(v)`` — the number of paths from v to EXIT; ``NP(EXIT) = 1`` and
  ``NP(v) = sum(NP(w) for w in successors(v))``.
* ``Val(e_i)`` for a vertex's ordered successor edges ``e_1..e_n`` —
  ``Val(e_i) = NP(w_1) + ... + NP(w_{i-1})``.

Every ENTRY..EXIT path then generates a distinct path sum in
``0 .. NP(ENTRY)-1`` and every value in that range is generated by some
path: the labelling is both unique and compact.

Regeneration inverts the encoding: walking from ENTRY and repeatedly
choosing the successor edge whose ``[Val, Val+NP)`` interval contains
the remaining sum reconstructs the blocks of any path from its sum
alone, which the reporting layer uses to print hot paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.cfg.graph import CFG, Edge
from repro.pathprof.transform import TEdge, TransformedGraph, build_transformed


class PathProfilingError(Exception):
    """Raised for out-of-range path sums or malformed graphs."""


@dataclass
class ReconstructedPath:
    """A path decoded from its path sum.

    ``tedges`` is the transformed-graph edge sequence.  ``blocks`` is
    the executed block sequence (EXIT excluded).  When the path starts
    after a backedge, ``entry_backedge`` is that CFG backedge (the
    path's first block is the backedge's target); similarly
    ``exit_backedge`` when the path ends by taking a backedge.
    """

    path_sum: int
    tedges: List[TEdge]
    blocks: List[str]
    entry_backedge: Optional[Edge]
    exit_backedge: Optional[Edge]

    def describe(self) -> str:
        prefix = "(backedge)-> " if self.entry_backedge is not None else ""
        suffix = " ->(backedge)" if self.exit_backedge is not None else ""
        return prefix + " -> ".join(self.blocks) + suffix


class PathNumbering:
    """The complete numbering for one function's CFG."""

    def __init__(self, graph: TransformedGraph):
        self.graph = graph
        self.cfg: CFG = graph.cfg
        self.np: Dict[str, int] = {}
        self.val: Dict[int, int] = {}
        self._number()

    # -- construction --------------------------------------------------------

    def _number(self) -> None:
        order = self._reverse_topological()
        np = self.np
        for vertex in order:
            if vertex == self.graph.exit:
                np[vertex] = 1
                continue
            total = 0
            for edge in self.graph.succ[vertex]:
                self.val[edge.index] = total
                total += np[edge.dst]
            if total == 0:
                # A reachable vertex with no outgoing transformed edges
                # cannot happen (ret/longjmp blocks feed EXIT; pure
                # backedge blocks get a pseudo end edge).
                raise PathProfilingError(
                    f"{self.cfg.name}: vertex {vertex!r} has no path to EXIT"
                )
            np[vertex] = total

    def _reverse_topological(self) -> List[str]:
        graph = self.graph
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {v: WHITE for v in graph.vertices}
        order: List[str] = []
        stack: List[Tuple[str, int]] = [(graph.entry, 0)]
        color[graph.entry] = GRAY
        while stack:
            vertex, idx = stack[-1]
            succs = graph.succ[vertex]
            if idx < len(succs):
                stack[-1] = (vertex, idx + 1)
                dst = succs[idx].dst
                dst_color = color[dst]
                if dst_color == GRAY:
                    raise PathProfilingError(
                        f"{self.cfg.name}: transformed graph has a cycle at "
                        f"{vertex}->{dst}; backedge removal failed"
                    )
                if dst_color == WHITE:
                    color[dst] = GRAY
                    stack.append((dst, 0))
            else:
                color[vertex] = BLACK
                order.append(vertex)
                stack.pop()
        return order

    # -- properties ----------------------------------------------------------

    @property
    def num_paths(self) -> int:
        """NP(ENTRY): the number of distinct profiled paths."""
        return self.np[self.graph.entry]

    def pseudo_values(self, backedge: Edge) -> Tuple[int, int]:
        """(START, END) = (Val(ENTRY->w), Val(v->EXIT)) for a backedge."""
        start, end = self.graph.pseudo_for_backedge[backedge.index]
        return self.val[start.index], self.val[end.index]

    # -- encoding / decoding ---------------------------------------------------

    def path_sum(self, tedges: List[TEdge]) -> int:
        """Sum of Val along an edge sequence (verification helper)."""
        return sum(self.val[e.index] for e in tedges)

    def regenerate(self, path_sum: int) -> ReconstructedPath:
        """Decode ``path_sum`` back into the unique path that produces it."""
        if not 0 <= path_sum < self.num_paths:
            raise PathProfilingError(
                f"{self.cfg.name}: path sum {path_sum} out of range "
                f"[0, {self.num_paths})"
            )
        graph = self.graph
        remaining = path_sum
        vertex = graph.entry
        tedges: List[TEdge] = []
        while vertex != graph.exit:
            chosen: Optional[TEdge] = None
            for edge in graph.succ[vertex]:
                value = self.val[edge.index]
                if value <= remaining < value + self.np[edge.dst]:
                    chosen = edge
                    break
            if chosen is None:  # pragma: no cover - uniqueness guarantees a hit
                raise PathProfilingError(
                    f"{self.cfg.name}: no successor interval contains "
                    f"{remaining} at {vertex!r}"
                )
            remaining -= self.val[chosen.index]
            tedges.append(chosen)
            vertex = chosen.dst
        return self._decode(path_sum, tedges)

    def _decode(self, path_sum: int, tedges: List[TEdge]) -> ReconstructedPath:
        entry_backedge: Optional[Edge] = None
        exit_backedge: Optional[Edge] = None
        edges = list(tedges)
        if edges and edges[0].role == "start":
            entry_backedge = edges[0].origin
        if edges and edges[-1].role == "end":
            exit_backedge = edges[-1].origin
        blocks: List[str] = []
        if edges:
            first = edges[0]
            blocks.append(first.dst if first.role == "start" else first.src)
            for edge in edges[1:] if first.role == "start" else edges:
                if edge.dst != self.graph.exit:
                    blocks.append(edge.dst)
                elif edge.role == "real":
                    pass  # the ret block is already in the list
        return ReconstructedPath(path_sum, edges, blocks, entry_backedge, exit_backedge)

    def enumerate_paths(self, limit: Optional[int] = None) -> Iterator[ReconstructedPath]:
        """Yield every path (by increasing sum), up to ``limit`` paths.

        Cost is O(paths * path length); intended for tests, reporting,
        and small graphs.
        """
        count = self.num_paths if limit is None else min(limit, self.num_paths)
        for path_sum in range(count):
            yield self.regenerate(path_sum)


def number_paths(cfg: CFG) -> PathNumbering:
    """Convenience: transform ``cfg`` and number its paths."""
    return PathNumbering(build_transformed(cfg))
