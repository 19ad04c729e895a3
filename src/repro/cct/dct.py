"""Dynamic call tree, dynamic call graph, and the DCT -> CCT projection.

Figure 4 of the paper contrasts three representations of calling
behaviour: the dynamic call tree (one vertex per activation, size
proportional to the number of calls), the dynamic call graph (one
vertex per procedure, maximal aggregation, the "gprof problem"), and
the calling context tree between them.

The CCT is *defined* as a projection of the DCT under a vertex
equivalence (§4.1): v ~ w iff they are the same procedure and their
parents are equivalent — refined, for recursion, so that every
occurrence of P at or below an instance of P collapses into that
instance (Figure 5).  :func:`project_cct` implements the definition
directly; tests compare it against the on-line construction of
:mod:`repro.cct.runtime`, which must produce the identical tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.cct.records import ROOT_ID, CalleeList, CallRecord


class DCTNode:
    """One procedure activation."""

    __slots__ = ("proc", "site", "parent", "children")

    def __init__(self, proc: str, site: int, parent: Optional["DCTNode"]):
        self.proc = proc
        self.site = site
        self.parent = parent
        self.children: List[DCTNode] = []

    def size(self) -> int:
        """Number of activations in this subtree (including self)."""
        total = 1
        stack = list(self.children)
        while stack:
            node = stack.pop()
            total += 1
            stack.extend(node.children)
        return total

    def __repr__(self) -> str:
        return f"DCTNode({self.proc!r}, {len(self.children)} children)"


class DynamicCallTree:
    """The full DCT; its root is the distinguished non-procedure vertex."""

    def __init__(self) -> None:
        self.root = DCTNode(ROOT_ID, -1, None)

    def size(self) -> int:
        """Activations recorded (root excluded)."""
        return self.root.size() - 1

    def paths(self) -> Iterator[Tuple[str, ...]]:
        """All root-to-vertex call chains (procedure names)."""
        stack: List[Tuple[DCTNode, Tuple[str, ...]]] = [(self.root, ())]
        while stack:
            node, prefix = stack.pop()
            for child in node.children:
                chain = prefix + (child.proc,)
                yield chain
                stack.append((child, chain))


class DynamicCallRecorder:
    """A machine tracer that records the DCT during execution.

    Attach as ``machine.tracer``; the VM reports every frame push/pop
    (including frames killed by longjmp), so the recorder's stack stays
    balanced.
    """

    def __init__(self) -> None:
        self.tree = DynamicCallTree()
        self._stack: List[DCTNode] = [self.tree.root]

    # -- tracer protocol ------------------------------------------------------

    def on_enter(self, proc: str, site: int) -> None:
        node = DCTNode(proc, site, self._stack[-1])
        self._stack[-1].children.append(node)
        self._stack.append(node)

    def on_exit(self, proc: str, value) -> None:
        if len(self._stack) <= 1:
            raise RuntimeError("call recorder stack underflow")
        self._stack.pop()

    def on_block(self, proc: str, block: str) -> None:
        pass


@dataclass(frozen=True)
class DCGEdge:
    caller: str
    callee: str


class DynamicCallGraph:
    """Figure 4(b): one vertex per procedure, call counts on edges."""

    def __init__(self) -> None:
        self.procs: Dict[str, int] = {}
        self.edges: Dict[DCGEdge, int] = {}

    @classmethod
    def from_dct(cls, dct: DynamicCallTree) -> "DynamicCallGraph":
        graph = cls()
        stack = [dct.root]
        while stack:
            node = stack.pop()
            for child in node.children:
                graph.procs[child.proc] = graph.procs.get(child.proc, 0) + 1
                if node.proc != ROOT_ID:
                    edge = DCGEdge(node.proc, child.proc)
                    graph.edges[edge] = graph.edges.get(edge, 0) + 1
                stack.append(child)
        return graph

    def calls_to(self, callee: str) -> int:
        return sum(count for edge, count in self.edges.items() if edge.callee == callee)


# ---------------------------------------------------------------------------
# The defining projection
# ---------------------------------------------------------------------------


class ProjectedNode:
    """A CCT vertex produced by projecting a DCT."""

    __slots__ = ("proc", "parent", "children", "count")

    def __init__(self, proc: str, parent: Optional["ProjectedNode"]):
        self.proc = proc
        self.parent = parent
        #: (site, proc) -> child (which may be an ancestor: a backedge).
        self.children: Dict[Tuple[int, str], ProjectedNode] = {}
        self.count = 0

    def context(self) -> List[str]:
        names: List[str] = []
        node: Optional[ProjectedNode] = self
        while node is not None:
            names.append(node.proc)
            node = node.parent
        names.reverse()
        return names


def project_cct(dct: DynamicCallTree, by_site: bool = True) -> ProjectedNode:
    """Apply the vertex equivalence of §4.1 to a DCT.

    With ``by_site=False`` calls to the same procedure from different
    sites of one caller share a child (the space/precision trade-off
    §4.1 describes); ``True`` matches the implemented runtime.
    """
    root = ProjectedNode(ROOT_ID, None)
    stack: List[Tuple[DCTNode, ProjectedNode]] = [(dct.root, root)]
    while stack:
        dnode, pnode = stack.pop()
        for child in dnode.children:
            # The program entry's "call" has no site; the root record
            # reserves slot 0 for it (paper §4.2).
            site = child.site if child.site >= 0 else 0
            key = (site if by_site else 0, child.proc)
            existing = pnode.children.get(key)
            if existing is None:
                # Recursion rule: an occurrence of P below an instance
                # of P is equivalent to that instance.
                ancestor = _ancestor_with_proc(pnode, child.proc)
                if ancestor is not None:
                    existing = ancestor
                else:
                    existing = ProjectedNode(child.proc, pnode)
                pnode.children[key] = existing
            existing.count += 1
            stack.append((child, existing))
    return root


def _ancestor_with_proc(node: Optional[ProjectedNode], proc: str) -> Optional[ProjectedNode]:
    while node is not None:
        if node.proc == proc:
            return node
        node = node.parent
    return None


# ---------------------------------------------------------------------------
# Canonical forms (for testing on-line CCT == projected CCT)
# ---------------------------------------------------------------------------


def canonical_projected(node: ProjectedNode) -> str:
    """Deterministic serialization; backedges encode as ``^k``."""
    return _canon(
        node,
        lambda n: sorted(
            (site, proc, child) for (site, proc), child in n.children.items()
        ),
        [],
    )


def canonical_record(record: CallRecord) -> str:
    """Same form for an on-line :class:`CallRecord` tree."""

    def children(rec: CallRecord):
        out = []
        for site, slot in enumerate(rec.slots):
            if slot is None:
                continue
            if isinstance(slot, CalleeList):
                for child in slot.records():
                    out.append((site, child.id, child))
            else:
                out.append((site, slot.id, slot))
        return sorted(out, key=lambda item: (item[0], item[1]))

    return _canon(record, children, [])


def _canon(node, children_fn, trail: list) -> str:
    trail.append(node)
    parts = []
    for site, proc, child in children_fn(node):
        if child in trail or _is_same_in(child, trail):
            distance = len(trail) - 1 - _index_in(child, trail)
            parts.append(f"{site}:^{distance}")
        else:
            parts.append(f"{site}:{_canon(child, children_fn, trail)}")
    trail.pop()
    name = getattr(node, "proc", None) or getattr(node, "id", "?")
    freq = getattr(node, "count", None)
    if freq is None:
        metrics = getattr(node, "metrics", None)
        freq = metrics[0] if metrics else 0
    return f"({name}*{freq}[{','.join(parts)}])"


def _is_same_in(child, trail) -> bool:
    return any(entry is child for entry in trail)


def _index_in(child, trail) -> int:
    for index, entry in enumerate(trail):
        if entry is child:
            return index
    raise ValueError("not in trail")
