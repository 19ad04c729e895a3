"""CFG construction from IR functions.

Vertices are block names plus a synthetic :data:`EXIT` vertex.  Every
block whose terminator leaves the function (``ret`` or ``longjmp``)
gets an edge to EXIT, giving the unique-exit normal form the
Ball–Larus algorithm requires.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.ir.function import Function
from repro.ir.instructions import Kind

#: Name of the synthetic exit vertex; never collides with block names
#: because the assembler/builder reject identifiers with this shape.
EXIT = "__EXIT__"

#: Synthetic entry vertex, added only when the function's first block
#: has predecessors (e.g. a loop branching back to it).  The
#: Ball–Larus algorithm requires an ENTRY with no incoming edges:
#: otherwise a backedge into the first block would turn into a pseudo
#: edge ENTRY->ENTRY, a self-loop in the "acyclic" graph.
ENTRY = "__ENTRY__"


@dataclass(frozen=True)
class Edge:
    """A CFG edge.  ``index`` is stable and unique within one CFG.

    ``kind`` records how control flows: ``"branch"`` for br targets,
    ``"then"``/``"else"`` for the two arms of a cbr, ``"exit"`` for the
    synthetic edge to EXIT.
    """

    src: str
    dst: str
    index: int
    kind: str = "branch"

    def __repr__(self) -> str:
        return f"Edge({self.src}->{self.dst}#{self.index})"


class CFG:
    """Adjacency-list CFG with stable edge indices."""

    def __init__(self, name: str, entry: str):
        self.name = name
        self.entry = entry
        self.exit = EXIT
        self.vertices: List[str] = []
        self.succ: Dict[str, List[Edge]] = {}
        self.pred: Dict[str, List[Edge]] = {}
        self.edges: List[Edge] = []

    def add_vertex(self, name: str) -> None:
        if name in self.succ:
            raise ValueError(f"duplicate vertex {name!r}")
        self.vertices.append(name)
        self.succ[name] = []
        self.pred[name] = []

    def add_edge(self, src: str, dst: str, kind: str = "branch") -> Edge:
        edge = Edge(src, dst, len(self.edges), kind)
        self.edges.append(edge)
        self.succ[src].append(edge)
        self.pred[dst].append(edge)
        return edge

    def successors(self, vertex: str) -> List[str]:
        return [e.dst for e in self.succ[vertex]]

    def predecessors(self, vertex: str) -> List[str]:
        return [e.src for e in self.pred[vertex]]

    def find_edge(self, src: str, dst: str) -> Optional[Edge]:
        for edge in self.succ[src]:
            if edge.dst == dst:
                return edge
        return None

    def __repr__(self) -> str:
        return (
            f"CFG({self.name!r}, {len(self.vertices)} vertices, "
            f"{len(self.edges)} edges)"
        )


def build_cfg(function: Function) -> CFG:
    """Build the CFG of ``function`` with the synthetic EXIT vertex.

    Blocks unreachable from the entry are still added as vertices (the
    analyses skip them); blocks that cannot reach EXIT make path
    profiling ill-defined and are rejected by the path-profiling pass,
    not here.
    """
    cfg = CFG(function.name, function.entry.name)
    for block in function.blocks:
        cfg.add_vertex(block.name)
    cfg.add_vertex(EXIT)
    for block in function.blocks:
        term = block.terminator
        kind = term.kind
        if kind == Kind.BR:
            cfg.add_edge(block.name, term.target, "branch")
        elif kind == Kind.CBR:
            cfg.add_edge(block.name, term.then, "then")
            cfg.add_edge(block.name, term.els, "else")
        elif kind in (Kind.RET, Kind.LONGJMP):
            cfg.add_edge(block.name, EXIT, "exit")
        else:  # pragma: no cover - validation guarantees a terminator
            raise ValueError(f"block {block.name!r} has no terminator")
    first = function.entry.name
    if cfg.pred[first]:
        cfg.add_vertex(ENTRY)
        cfg.add_edge(ENTRY, first, "entry")
        cfg.entry = ENTRY
    return cfg
