"""Instrumentation placement: where the path-register updates go.

Two schemes:

* :func:`plan_simple` — Figure 1(c): every transformed edge with a
  nonzero Val gets ``r += Val(e)``; backedges get the combined
  ``count[r+END]++; r = START``; returning blocks commit with the Val of
  their exit edge folded in.

* :func:`plan_spanning_tree` — Figure 1(d) / the MICRO'96 optimization:
  add an uninstrumentable closing edge EXIT->ENTRY, pick a maximum-weight
  spanning tree of the (undirected) transformed graph, and place
  increments only on *chords*.  A chord's increment is the signed sum of
  Val around its fundamental cycle; for any ENTRY..EXIT path the chord
  increments telescope to exactly the path's Val sum, so path sums are
  unchanged while hot tree edges carry no instrumentation.  Increments
  that land on pseudo edges fold into the backedge's START/END
  constants, and those on exit edges fold into the commit.

Both schemes produce an :class:`InstrumentationPlan`, which the editor
(:mod:`repro.edit`) lowers to actual spliced IR.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cfg.graph import CFG, Edge
from repro.pathprof.kiter import KPathNumbering
from repro.pathprof.numbering import PathNumbering
from repro.pathprof.transform import TEdge


@dataclass(frozen=True)
class EdgeIncrement:
    """``r += value`` on a real CFG edge (value may be negative)."""

    edge: Edge
    value: int


@dataclass(frozen=True)
class BackedgeInstr:
    """``count[r + end_val] += 1; r = start_val`` on a backedge."""

    edge: Edge
    end_val: int
    start_val: int


@dataclass(frozen=True)
class ExitCommit:
    """``count[r + value] += 1`` in a returning block (before the ret)."""

    block: str
    value: int


@dataclass
class InstrumentationPlan:
    """Everything the editor needs to instrument one function."""

    numbering: PathNumbering
    method: str
    increments: List[EdgeIncrement] = field(default_factory=list)
    backedge_instrs: List[BackedgeInstr] = field(default_factory=list)
    exit_commits: List[ExitCommit] = field(default_factory=list)

    @property
    def num_paths(self) -> int:
        return self.numbering.num_paths

    @property
    def cfg(self) -> CFG:
        return self.numbering.cfg

    def increment_count(self) -> int:
        """Number of distinct ``r += v`` sites (the optimization's target)."""
        return sum(1 for inc in self.increments if inc.value != 0)

    def check_path_sums(self, limit: int = 4096) -> None:
        """Verify every path's increments telescope to its path sum.

        Walks up to ``limit`` regenerated paths and simulates the plan's
        updates; raises ``AssertionError`` on mismatch.  Used by tests
        and as a paranoia check for the spanning-tree scheme.
        """
        inc_by_edge: Dict[int, int] = {
            inc.edge.index: inc.value for inc in self.increments
        }
        start_by_backedge = {
            bi.edge.index: bi.start_val for bi in self.backedge_instrs
        }
        end_by_backedge = {bi.edge.index: bi.end_val for bi in self.backedge_instrs}
        commit_by_block = {ec.block: ec.value for ec in self.exit_commits}
        for path in self.numbering.enumerate_paths(limit=limit):
            register = 0
            if path.entry_backedge is not None:
                register = start_by_backedge[path.entry_backedge.index]
            for tedge in path.tedges:
                if tedge.role == "real" and tedge.dst != self.numbering.graph.exit:
                    register += inc_by_edge.get(tedge.origin.index, 0)
            if path.exit_backedge is not None:
                register += end_by_backedge[path.exit_backedge.index]
            else:
                register += commit_by_block[path.blocks[-1]]
            assert register == path.path_sum, (
                f"{self.cfg.name}: path {path.describe()} commits {register}, "
                f"expected {path.path_sum}"
            )


# ---------------------------------------------------------------------------
# k-iteration placement (kflow mode)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KEdgeIncrement:
    """``r += values[layer]`` on a real CFG edge (raw, unscaled values).

    ``values`` has one entry per layer; edges whose value is uniform
    across layers are lowered to a plain :class:`~repro.ir.PathAdd`.
    """

    edge: Edge
    values: Tuple[int, ...]


@dataclass(frozen=True)
class KBackedgeInstr:
    """Backedge probe: cross into the next layer, or commit at layer k-1.

    ``cross[i]`` is the raw Val of the cross edge leaving layer ``i``;
    ``end_val``/``start_val`` are the raw Vals of the layered graph's
    end/start pseudo edges (the commit index offset and post-commit
    restart).
    """

    edge: Edge
    cross: Tuple[int, ...]
    end_val: int
    start_val: int


@dataclass(frozen=True)
class KExitCommit:
    """``count[path + values[layer]] += 1`` in a returning block."""

    block: str
    values: Tuple[int, ...]


@dataclass
class KInstrumentationPlan:
    """Per-layer probe placement for one function's k-iteration profile."""

    numbering: KPathNumbering
    method: str
    increments: List[KEdgeIncrement] = field(default_factory=list)
    backedge_instrs: List[KBackedgeInstr] = field(default_factory=list)
    exit_commits: List[KExitCommit] = field(default_factory=list)

    @property
    def num_paths(self) -> int:
        return self.numbering.num_paths

    @property
    def cfg(self) -> CFG:
        return self.numbering.cfg

    def check_path_sums(self, limit: int = 4096) -> None:
        """Simulate the packed-register probes over regenerated k-paths.

        The register packs ``path_sum * k + layer``; each probe must
        telescope to the path's sum at its commit point.  Raises
        ``AssertionError`` on mismatch.
        """
        k = self.numbering.k
        inc_by_edge = {inc.edge.index: inc.values for inc in self.increments}
        bi_by_edge = {bi.edge.index: bi for bi in self.backedge_instrs}
        commit_by_block = {ec.block: ec.values for ec in self.exit_commits}
        exit_vertex = self.numbering.graph.exit
        for path in self.numbering.enumerate_paths(limit=limit):
            register = 0
            if path.entry_backedge is not None:
                register = bi_by_edge[path.entry_backedge.index].start_val * k
            for tedge in path.tedges:
                layer = register % k
                if tedge.role == "real" and tedge.dst != exit_vertex:
                    values = inc_by_edge.get(tedge.origin.index)
                    if values is not None:
                        register += values[layer] * k
                elif tedge.role == "cross":
                    register += bi_by_edge[tedge.origin.index].cross[layer] * k + 1
            layer = register % k
            if path.exit_backedge is not None:
                assert layer == k - 1, (
                    f"{self.cfg.name}: path {path.describe()} takes the end "
                    f"pseudo edge at layer {layer}, expected {k - 1}"
                )
                committed = (register - layer) // k + bi_by_edge[
                    path.exit_backedge.index
                ].end_val
            else:
                committed = (register - layer) // k + commit_by_block[path.blocks[-1]][
                    layer
                ]
            assert committed == path.path_sum, (
                f"{self.cfg.name}: path {path.describe()} commits {committed}, "
                f"expected {path.path_sum}"
            )


def plan_kflow(numbering: KPathNumbering) -> KInstrumentationPlan:
    """Per-edge placement over the layered graph (the kflow scheme).

    Each surviving CFG edge carries the per-layer Vals of its ``k``
    copies; unreachable layer copies are padded with the uniform
    reachable value when one exists (so the edge still collapses to a
    single plain add) and 0 otherwise — reachability over-approximates
    dynamic occupancy, so padded entries are never read at run time.
    """
    plan = KInstrumentationPlan(numbering, method="kflow")
    graph = numbering.graph
    cfg = numbering.cfg
    back_indices = {e.index for e in graph.backedges}
    for edge in cfg.edges:
        if edge.index in back_indices:
            continue
        raw = numbering.layer_values(edge)
        reachable = [v for v in raw if v is not None]
        if not reachable:
            continue  # no layer copy reachable from ENTRY: never executes
        uniform = reachable[0] if all(v == reachable[0] for v in reachable) else None
        pad = uniform if uniform is not None else 0
        values = tuple(pad if v is None else v for v in raw)
        if edge.dst == cfg.exit:
            plan.exit_commits.append(KExitCommit(edge.src, values))
        elif any(values):
            plan.increments.append(KEdgeIncrement(edge, values))
    for backedge in graph.backedges:
        start, end = graph.pseudo_for_backedge[backedge.index]
        plan.backedge_instrs.append(
            KBackedgeInstr(
                backedge,
                numbering.cross_values(backedge),
                numbering.val.get(end.index, 0),
                numbering.val[start.index],
            )
        )
    return plan


def plan_simple(numbering: PathNumbering) -> InstrumentationPlan:
    """The per-edge scheme: instrument every nonzero transformed edge."""
    plan = InstrumentationPlan(numbering, method="simple")
    graph = numbering.graph
    for tedge in graph.edges:
        if tedge.index not in numbering.val:
            continue  # source unreachable from ENTRY: never executes
        value = numbering.val[tedge.index]
        if tedge.role != "real":
            continue
        if tedge.dst == graph.exit:
            plan.exit_commits.append(ExitCommit(tedge.src, value))
        elif value != 0:
            plan.increments.append(EdgeIncrement(tedge.origin, value))
    for backedge in graph.backedges:
        start_val, end_val = numbering.pseudo_values(backedge)
        plan.backedge_instrs.append(BackedgeInstr(backedge, end_val, start_val))
    return plan


def plan_spanning_tree(
    numbering: PathNumbering,
    weights: Optional[Dict[int, float]] = None,
) -> InstrumentationPlan:
    """The chord-increment scheme over a maximum-weight spanning tree.

    ``weights`` maps CFG-edge indices to relative frequencies (measured
    or estimated); heavier edges are preferred as tree edges.  Pseudo
    edges inherit their backedge's weight.
    """
    plan = InstrumentationPlan(numbering, method="spanning_tree")
    graph = numbering.graph
    known = weights or {}
    tree, closing = max_spanning_tree(
        graph.vertices,
        graph.edges,
        graph.entry,
        graph.exit,
        lambda tedge: known.get(tedge.origin.index, 1.0),
    )
    chord_inc = _chord_increments(numbering, tree, closing)

    start_vals: Dict[int, int] = {e.index: 0 for e in graph.backedges}
    end_vals: Dict[int, int] = {e.index: 0 for e in graph.backedges}
    commits: Dict[str, int] = {}
    # Every exit edge needs a commit even with a zero increment.
    for tedge in graph.edges:
        if tedge.role == "real" and tedge.dst == graph.exit:
            commits[tedge.src] = 0

    for tedge, inc in chord_inc.items():
        if tedge.role == "start":
            start_vals[tedge.origin.index] = inc
        elif tedge.role == "end":
            end_vals[tedge.origin.index] = inc
        elif tedge.dst == graph.exit:
            commits[tedge.src] = inc
        elif inc != 0:
            plan.increments.append(EdgeIncrement(tedge.origin, inc))

    for backedge in graph.backedges:
        plan.backedge_instrs.append(
            BackedgeInstr(backedge, end_vals[backedge.index], start_vals[backedge.index])
        )
    for block, value in commits.items():
        plan.exit_commits.append(ExitCommit(block, value))
    return plan


# ---------------------------------------------------------------------------
# Spanning-tree machinery
# ---------------------------------------------------------------------------

#: Sentinel "edge" closing EXIT back to ENTRY; always a tree edge.
_CLOSING = "closing"


class _UnionFind:
    def __init__(self, items):
        self.parent = {item: item for item in items}

    def find(self, item):
        root = item
        parent = self.parent
        while parent[root] != root:
            root = parent[root]
        while parent[item] != root:
            parent[item], item = root, parent[item]
        return root

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def max_spanning_tree(vertices, edges, entry, exit, weight) -> Tuple[list, bool]:
    """Kruskal over an undirected graph closed by a virtual EXIT->ENTRY edge.

    Returns (tree edges, closing_in_tree).  The closing edge is
    processed first so it is always in the tree (it cannot carry an
    increment).  Edges go heaviest first by ``weight(edge)``; ties break
    on edge index for determinism.  Path placement runs it over the
    transformed graph, edge placement over the CFG.
    """
    uf = _UnionFind(vertices)
    closing_in_tree = uf.union(exit, entry)
    tree = []
    for edge in sorted(edges, key=lambda e: (-weight(e), e.index)):
        if uf.union(edge.src, edge.dst):
            tree.append(edge)
    return tree, closing_in_tree


def _chord_increments(
    numbering: PathNumbering, tree: List[TEdge], closing_in_tree: bool
) -> Dict[TEdge, int]:
    """Increment per chord: signed Val around its fundamental cycle.

    For chord c = u->v, the fundamental cycle is c plus the tree path
    from v back to u; traversing it in c's direction, each edge
    contributes +Val if traversed forward and -Val if backward.  The
    closing edge contributes 0 (it has no Val).
    """
    graph = numbering.graph
    tree_set = {e.index for e in tree}
    # Undirected adjacency over tree edges: vertex -> (neighbor, tedge, forward)
    adj: Dict[str, List[Tuple[str, Optional[TEdge], bool]]] = {
        v: [] for v in graph.vertices
    }
    for tedge in tree:
        adj[tedge.src].append((tedge.dst, tedge, True))
        adj[tedge.dst].append((tedge.src, tedge, False))
    if closing_in_tree:
        adj[graph.exit].append((graph.entry, None, True))
        adj[graph.entry].append((graph.exit, None, False))

    # Root the tree at ENTRY once; record parent pointers.
    parent: Dict[str, Tuple[str, Optional[TEdge], bool]] = {}
    seen = {graph.entry}
    stack = [graph.entry]
    while stack:
        vertex = stack.pop()
        for neighbor, tedge, forward in adj[vertex]:
            if neighbor in seen:
                continue
            seen.add(neighbor)
            parent[neighbor] = (vertex, tedge, forward)
            stack.append(neighbor)

    depth: Dict[str, int] = {graph.entry: 0}

    def vertex_depth(vertex: str) -> int:
        trail = []
        while vertex not in depth:
            trail.append(vertex)
            vertex = parent[vertex][0]
        base = depth[vertex]
        for v in reversed(trail):
            base += 1
            depth[v] = base
        return depth[trail[0]] if trail else base

    increments: Dict[TEdge, int] = {}
    for tedge in graph.edges:
        if tedge.index in tree_set:
            continue
        if tedge.index not in numbering.val:
            continue  # source unreachable from ENTRY: never executes
        inc = numbering.val[tedge.index]
        # Walk v and u up to their LCA, signing tree-edge Vals.
        u, v = tedge.src, tedge.dst
        du, dv = vertex_depth(u), vertex_depth(v)
        # Traversal direction: cycle goes u ->(chord) v ->(tree) u.
        # From v up toward the LCA we travel *with* the path direction
        # v..u, so a tree edge stored as parent->child (forward=True,
        # meaning edge points parent->child... see below) contributes:
        #   going from child to parent against edge direction -> -Val
        #   going from child to parent along edge direction  -> +Val
        # parent[child] = (parent, tedge, forward) with forward=True when
        # the tedge is directed parent->child.
        # Tree edges whose source is unreachable carry no Val; any
        # consistent assignment works for the telescoping identity
        # (both sides are linear in the edge weights and such edges
        # never lie on an executed path), so they count as zero.
        val = numbering.val
        while dv > du:
            p, edge, forward = parent[v]
            if edge is not None:
                value = val.get(edge.index, 0)
                inc += -value if forward else value
            v, dv = p, dv - 1
        while du > dv:
            p, edge, forward = parent[u]
            if edge is not None:
                value = val.get(edge.index, 0)
                inc += value if forward else -value
            u, du = p, du - 1
        while u != v:
            pu, eu, fu = parent[u]
            pv, ev, fv = parent[v]
            if eu is not None:
                value = val.get(eu.index, 0)
                inc += value if fu else -value
            if ev is not None:
                value = val.get(ev.index, 0)
                inc += -value if fv else value
            u, v = pu, pv
        increments[tedge] = inc
    return increments
