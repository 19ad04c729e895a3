"""Cyclic -> acyclic CFG transformation (paper §2.2).

For each backedge b = v->w the transform removes b and adds two pseudo
edges: ``b_start = ENTRY->w`` and ``b_end = v->EXIT``.  The resulting
graph is acyclic, and the unique/compact path-sum property extends to
the four path categories the paper profiles:

* backedge-free ENTRY..EXIT paths,
* ENTRY..v followed by backedge v->w  (uses b_end),
* backedge into w, w..z, backedge out of z  (uses b_start and b'_end),
* backedge into w, w..EXIT  (uses b_start).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cfg.analysis import backedges as find_backedges
from repro.cfg.graph import CFG, Edge


@dataclass(frozen=True)
class TEdge:
    """An edge of the transformed graph.

    ``role`` is ``"real"`` for surviving CFG edges, ``"start"`` for
    ENTRY->w pseudo edges, ``"end"`` for v->EXIT pseudo edges.
    ``origin`` is the underlying CFG edge: for pseudo edges, the
    backedge they replace.
    """

    src: str
    dst: str
    index: int
    role: str
    origin: Edge

    def __repr__(self) -> str:
        tag = "" if self.role == "real" else f"[{self.role}]"
        return f"TEdge({self.src}->{self.dst}{tag})"


class TransformedGraph:
    """The acyclic graph the numbering runs on.

    Successor lists preserve the original CFG edge order, with pseudo
    start edges appended to ENTRY's list in backedge-discovery order.
    The order is the total order the numbering uses (the paper notes
    the choice is immaterial; a fixed one keeps everything
    deterministic).
    """

    def __init__(self, cfg: CFG):
        self.cfg = cfg
        self.entry = cfg.entry
        self.exit = cfg.exit
        self.vertices: List[str] = list(cfg.vertices)
        self.succ: Dict[str, List[TEdge]] = {v: [] for v in self.vertices}
        self.pred: Dict[str, List[TEdge]] = {v: [] for v in self.vertices}
        self.edges: List[TEdge] = []
        self.backedges: List[Edge] = []
        #: backedge CFG index -> (start TEdge, end TEdge)
        self.pseudo_for_backedge: Dict[int, Tuple[TEdge, TEdge]] = {}

    def _add(self, src: str, dst: str, role: str, origin: Edge) -> TEdge:
        edge = TEdge(src, dst, len(self.edges), role, origin)
        self.edges.append(edge)
        self.succ[src].append(edge)
        self.pred[dst].append(edge)
        return edge

    def real_edge_for(self, cfg_edge: Edge) -> Optional[TEdge]:
        for edge in self.succ[cfg_edge.src]:
            if edge.role == "real" and edge.origin.index == cfg_edge.index:
                return edge
        return None


def build_transformed(cfg: CFG) -> TransformedGraph:
    """Apply the backedge -> pseudo-edge transformation to ``cfg``."""
    graph = TransformedGraph(cfg)
    back = find_backedges(cfg)
    back_indices = {e.index for e in back}
    graph.backedges = back
    for edge in cfg.edges:
        if edge.index not in back_indices:
            graph._add(edge.src, edge.dst, "real", edge)
    for edge in back:
        start = graph._add(cfg.entry, edge.dst, "start", edge)
        end = graph._add(edge.src, cfg.exit, "end", edge)
        graph.pseudo_for_backedge[edge.index] = (start, end)
    return graph
