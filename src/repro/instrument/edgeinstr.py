"""Edge profiling: the qpt baseline the paper compares against [BL94].

Two placements:

* ``simple`` — every CFG edge carries a counter increment;
* ``spanning_tree`` — only the chords of a maximum-weight spanning tree
  (with a virtual EXIT->ENTRY closing edge) are instrumented;
  :func:`reconstruct_edge_counts` recovers the tree edges' counts after
  the run by flow conservation (Knuth's classic result, which [BL94]
  builds on).

The paper reports intraprocedural path profiling costs roughly twice
this technique; the overhead-components benchmark reproduces that
comparison on our machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set

from repro.cfg.graph import CFG, Edge, build_cfg
from repro.edit.editor import FunctionEditor
from repro.instrument.tables import CounterTable, ProfilingRuntime, TableKind
from repro.ir.function import Function, Program
from repro.ir.instructions import EdgeCount
from repro.pathprof.estimate import estimate_edge_frequencies
from repro.pathprof.placement import max_spanning_tree


@dataclass
class EdgeFunctionInfo:
    function: str
    cfg: CFG
    table: CounterTable
    #: Edge indices that actually carry an increment.
    instrumented: List[int]
    #: Edge indices in the spanning tree (empty for simple placement).
    tree_edges: List[int]
    closing_in_tree: bool


class EdgeInstrumentation:
    def __init__(self, program: Program, runtime: ProfilingRuntime, placement: str):
        self.program = program
        self.runtime = runtime
        self.placement = placement
        self.functions: Dict[str, EdgeFunctionInfo] = {}

    def edge_counts(self, function: str, entries: Optional[int] = None) -> Dict[int, int]:
        """Full per-edge counts; reconstructs tree edges when optimized.

        ``entries`` is how many times the function was invoked, needed
        to seed reconstruction when the closing edge is a tree edge; it
        can be measured by any counter (e.g. the callee's entry edge of
        a caller profile) — tests pass it explicitly.
        """
        info = self.functions[function]
        raw = info.table.nonzero()
        if self.placement == "simple":
            return {e.index: raw.get(e.index, 0) for e in info.cfg.edges}
        if entries is None:
            raise ValueError("optimized edge profiles need the entry count")
        return reconstruct_edge_counts(info.cfg, info.tree_edges, raw, entries)


def instrument_edges(
    program: Program,
    placement: str = "simple",
    runtime: Optional[ProfilingRuntime] = None,
    functions: Optional[Iterable[str]] = None,
) -> EdgeInstrumentation:
    """Instrument ``program`` in place for edge profiling."""
    if placement not in ("simple", "spanning_tree"):
        raise ValueError(f"unknown placement {placement!r}")
    if runtime is None:
        from repro.machine.memory import MemoryMap

        runtime = ProfilingRuntime(MemoryMap().profiling.base)
    result = EdgeInstrumentation(program, runtime, placement)
    selected = set(functions) if functions is not None else None
    for function in program.functions.values():
        if selected is not None and function.name not in selected:
            continue
        result.functions[function.name] = _instrument_function(
            function, placement, runtime
        )
    return result


def _instrument_function(
    function: Function, placement: str, runtime: ProfilingRuntime
) -> EdgeFunctionInfo:
    cfg = build_cfg(function)
    table = runtime.new_table(
        f"edges:{function.name}", len(cfg.edges), metric_slots=0, kind=TableKind.ARRAY
    )
    editor = FunctionEditor(function, cfg)
    if placement == "simple":
        chords = list(cfg.edges)
        tree: List[int] = []
        closing_in_tree = False
    else:
        weights = estimate_edge_frequencies(cfg)
        tree_edges, closing_in_tree = max_spanning_tree(
            cfg.vertices,
            cfg.edges,
            cfg.entry,
            cfg.exit,
            lambda edge: weights[edge.index],
        )
        tree = [e.index for e in tree_edges]
        tree_set = set(tree)
        chords = [e for e in cfg.edges if e.index not in tree_set]
    for edge in chords:
        count = EdgeCount(edge.index, table.table_id)
        if edge.kind == "entry":
            editor.insert_at_entry([count])
        elif edge.dst == cfg.exit:
            editor.insert_before_terminator(edge.src, [count])
        else:
            editor.insert_on_edge(edge, [count])
    editor.apply()
    return EdgeFunctionInfo(
        function.name, cfg, table, [e.index for e in chords], tree, closing_in_tree
    )


def reconstruct_edge_counts(
    cfg: CFG,
    tree_edges: List[int],
    chord_counts: Dict[int, int],
    entries: int,
) -> Dict[int, int]:
    """Recover tree-edge counts from chord counts by flow conservation.

    Every vertex's inflow equals its outflow once ENTRY is credited
    with ``entries`` incoming executions and EXIT with the same
    outgoing (the virtual closing edge).  The tree edges form no cycle,
    so peeling vertices with a single unknown incident edge solves the
    system completely.
    """
    counts: Dict[int, int] = {}
    unknown: Set[int] = set(tree_edges)
    for edge in cfg.edges:
        if edge.index not in unknown:
            counts[edge.index] = chord_counts.get(edge.index, 0)

    # Net known flow per vertex; ENTRY/EXIT carry the closing edge.
    balance: Dict[str, int] = {v: 0 for v in cfg.vertices}
    balance[cfg.entry] += entries
    balance[cfg.exit] -= entries
    incident: Dict[str, List[Edge]] = {v: [] for v in cfg.vertices}
    for edge in cfg.edges:
        if edge.index in unknown:
            incident[edge.src].append(edge)
            incident[edge.dst].append(edge)
        else:
            balance[edge.dst] += counts[edge.index]
            balance[edge.src] -= counts[edge.index]

    # Peel: a vertex with one unknown incident edge determines it.
    pending = [v for v in cfg.vertices if len(incident[v]) == 1]
    while pending:
        vertex = pending.pop()
        edges = [e for e in incident[vertex] if e.index in unknown]
        if len(edges) != 1:
            continue
        edge = edges[0]
        # inflow(vertex) - outflow(vertex) = 0, so the unknown edge
        # carries whatever balances the vertex.
        if edge.dst == vertex:
            value = -balance[vertex]
        else:
            value = balance[vertex]
        counts[edge.index] = value
        unknown.remove(edge.index)
        balance[edge.dst] += value
        balance[edge.src] -= value
        for endpoint in (edge.src, edge.dst):
            incident[endpoint] = [e for e in incident[endpoint] if e.index in unknown]
            if len(incident[endpoint]) == 1:
                pending.append(endpoint)
    if unknown:
        raise ValueError(f"could not reconstruct edges {sorted(unknown)}")
    return counts
