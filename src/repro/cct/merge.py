"""Structural CCT merging: aggregate profiles from many runs.

The paper builds one CCT per process and dumps it at exit; aggregating
hardware-counter profiles across processes (the PGO problem of
combining per-run counter files) needs a *merge* over those dumps.
Two CCTs of the same program are merged by walking their records in
lockstep from the roots:

* records are matched by calling context — same procedure reached
  through the same callee slot of matched parents;
* a slot pairs by index; its callees unify by procedure identifier
  (within one slot all callees have distinct identifiers, because the
  runtime's lookup is by procedure);
* recursion *backedges* unify with backedges: a backedge's target is
  the matched ancestor, which both operands necessarily agree on
  because the context path above the record is identical.  A slot
  where one operand recursed and the other allocated a fresh child
  would describe two different programs and raises :class:`MergeError`;
* metric vectors sum elementwise; per-record path tables
  (:class:`~repro.instrument.tables.CounterTable`) sum their
  counts/metrics key by key, preserving hash-bucket semantics — the
  capacity, kind, and bucket count must agree or the path sums are not
  comparable (:class:`MergeError` again);
* the merged tree is re-laid-out in the simulated CCT heap in a
  canonical preorder, so ``heap_bytes`` reports what the aggregate
  structure would occupy.

The result is *canonical*: callee lists are ordered by procedure
identifier rather than by move-to-front recency (transient state with
no post-mortem meaning), and addresses are reassigned
deterministically.  On canonical operands merge is commutative and
associative, and the empty CCT is its identity — properties the
sharded-run driver relies on to make ``N``-shard aggregation
bit-identical to a serial run (and that
``tests/test_merge_properties.py`` checks on generated trees).

Known limitation: signal-handler root slots are matched by index like
every other slot, so merging runs whose handlers fired in different
orders conflates their contexts.  Deterministic workloads (the
sharding use case) deliver signals identically in every shard.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cct.records import ROOT_ID, CalleeList, CallRecord, ListNode
from repro.instrument.tables import CounterTable
from repro.machine.memory import WORD, MemoryMap


class MergeError(ValueError):
    """The operands do not describe the same program structure."""


class MergedCCT:
    """An aggregated or reloaded CCT: protocol-compatible with
    :class:`CCTRuntime` (``root``, ``records``, ``heap_bytes()``), so
    statistics, rendering, profile collection, and
    :func:`~repro.cct.serialize.save_cct` all apply unchanged.
    :func:`~repro.cct.serialize.load_cct` returns one too."""

    def __init__(self, root: CallRecord, records: List[CallRecord], heap_bytes: int):
        self.root = root
        self.records = records
        self._heap_bytes = heap_bytes

    def heap_bytes(self) -> int:
        return self._heap_bytes


def empty_cct(metric_slots: int = 3) -> MergedCCT:
    """The merge identity: a bare root with one uninitialized slot."""
    root = CallRecord(ROOT_ID, None, 1, metric_slots, MemoryMap().cct.base)
    return MergedCCT(root, [root], root.record_bytes())


def merge_ccts(ccts: Sequence) -> MergedCCT:
    """Merge any number of CCTs (runtimes, loaded dumps, prior merges).

    ``ccts`` may be empty (yields the empty CCT) or mix
    :class:`~repro.cct.runtime.CCTRuntime` and :class:`MergedCCT`
    operands (loaded dumps included); each just needs ``root``.  The
    inputs are not modified.
    """
    roots = [cct.root for cct in ccts if cct is not None]
    if not roots:
        return empty_cct()
    ids = {root.id for root in roots}
    if len(ids) != 1:
        raise MergeError(f"root identifiers differ: {sorted(ids)}")
    records: List[CallRecord] = []
    merged_of: Dict[int, CallRecord] = {}
    root = _merge_group(roots, None, merged_of, records)
    heap_bytes = _relayout(root, records)
    return MergedCCT(root, records, heap_bytes)


# -- the lockstep walk -------------------------------------------------------


def _slot_callees(record: CallRecord, index: int) -> Tuple[bool, List[CallRecord]]:
    """(was a callee list, callee records) for one slot of one operand."""
    if index >= len(record.slots):
        return False, []
    slot = record.slots[index]
    if slot is None:
        return False, []
    if isinstance(slot, CalleeList):
        return True, slot.records()
    return False, [slot]


def _merge_group(
    sources: List[CallRecord],
    parent: Optional[CallRecord],
    merged_of: Dict[int, CallRecord],
    records: List[CallRecord],
) -> CallRecord:
    """Merge records that matched on calling context into one record."""
    nslots = max(src.nslots for src in sources)
    metric_slots = max(len(src.metrics) for src in sources)
    merged = CallRecord(sources[0].id, parent, nslots, metric_slots, 0)
    records.append(merged)
    for src in sources:
        merged_of[id(src)] = merged
        for offset, value in enumerate(src.metrics):
            merged.metrics[offset] += value
        for name, table in src.path_tables.items():
            _merge_table(merged.path_tables, name, table)

    for index in range(nslots):
        listy = False
        children: Dict[str, List[CallRecord]] = {}
        backedges: Dict[str, List[CallRecord]] = {}
        for src in sources:
            src_listy, callees = _slot_callees(src, index)
            listy = listy or src_listy
            for callee in callees:
                if callee.parent is src:
                    children.setdefault(callee.id, []).append(callee)
                else:
                    backedges.setdefault(callee.id, []).append(callee)
        entries: List[CallRecord] = []
        for proc in sorted(set(children) | set(backedges)):
            if proc in children and proc in backedges:
                raise MergeError(
                    f"slot {index} of {merged.id!r}: {proc!r} is a fresh child "
                    f"in one operand but a recursion backedge in another"
                )
            if proc in backedges:
                targets = {id(merged_of[id(t)]) for t in backedges[proc]}
                if len(targets) != 1:
                    raise MergeError(
                        f"slot {index} of {merged.id!r}: backedge targets for "
                        f"{proc!r} unify to different ancestors"
                    )
                entries.append(merged_of[id(backedges[proc][0])])
            else:
                entries.append(_merge_group(children[proc], merged, merged_of, records))
        if not entries:
            continue
        if len(entries) == 1 and not listy:
            merged.slots[index] = entries[0]
        else:
            callee_list = CalleeList()
            callee_list.nodes = [ListNode(entry, 0) for entry in entries]
            merged.slots[index] = callee_list
    return merged


def _merge_table(tables: Dict[str, object], name: str, table: CounterTable) -> None:
    existing = tables.get(name)
    if existing is None:
        copy = CounterTable(
            table.name,
            table.table_id,
            0,
            table.capacity,
            table.metric_slots,
            table.kind,
            buckets=table.buckets,
        )
        copy.counts = dict(table.counts)
        copy.metrics = {key: list(values) for key, values in table.metrics.items()}
        copy.out_of_range = table.out_of_range
        tables[name] = copy
        return
    if (
        existing.capacity != table.capacity
        or existing.metric_slots != table.metric_slots
        or existing.kind is not table.kind
        or existing.buckets != table.buckets
    ):
        raise MergeError(
            f"path table {name!r}: incompatible geometry "
            f"({existing.capacity}/{existing.kind.value}/{existing.buckets} vs "
            f"{table.capacity}/{table.kind.value}/{table.buckets})"
        )
    for key, count in table.counts.items():
        existing.counts[key] = existing.counts.get(key, 0) + count
    for key, values in table.metrics.items():
        slots = existing.metrics.setdefault(key, [0] * existing.metric_slots)
        for offset, value in enumerate(values):
            slots[offset] += value
    existing.out_of_range += table.out_of_range


def walk_lockstep(left, right) -> Iterable[tuple]:
    """Walk two CCTs in lockstep, yielding every calling context either
    operand reached.

    Yields ``(context, left_record, right_record)`` triples where
    ``context`` is a tuple of ``(slot_index, procedure)`` pairs from the
    root down (the root itself is the empty context) and a record is
    ``None`` for a context only the other operand reached.  Matching is
    exactly the merge unification — slots pair by index, callees by
    procedure identifier — and recursion backedges are skipped (their
    counts live at the matched ancestor, which would otherwise be
    visited twice).  The regression detector diffs per-context metrics
    over this walk, so a context one run never entered is compared
    against an implicit zero rather than silently dropped.

    ``left``/``right`` are anything with a ``root`` (runtime, loaded
    dump, merge result).  :class:`MergeError` if the roots' identifiers
    differ — such operands describe different programs.
    """
    lroot = getattr(left, "root", left)
    rroot = getattr(right, "root", right)
    if lroot.id != rroot.id:
        raise MergeError(f"root identifiers differ: {sorted({lroot.id, rroot.id})}")

    def visit(context, lrec, rrec):
        yield context, lrec, rrec
        nslots = max(
            lrec.nslots if lrec is not None else 0,
            rrec.nslots if rrec is not None else 0,
        )
        for index in range(nslots):
            lkids: Dict[str, CallRecord] = {}
            rkids: Dict[str, CallRecord] = {}
            for record, kids in ((lrec, lkids), (rrec, rkids)):
                if record is None:
                    continue
                _, callees = _slot_callees(record, index)
                for callee in callees:
                    if callee.parent is record:
                        kids[callee.id] = callee
            for proc in sorted(set(lkids) | set(rkids)):
                yield from visit(
                    context + ((index, proc),), lkids.get(proc), rkids.get(proc)
                )

    yield from visit((), lroot, rroot)


# -- canonical heap layout ---------------------------------------------------


def _relayout(root: CallRecord, records: List[CallRecord]) -> int:
    """Assign canonical preorder heap addresses; returns heap bytes.

    The live runtime interleaves record, list-cell, and table
    allocations with execution; the canonical aggregate lays out each
    record followed by its list cells and path tables, in preorder, so
    the layout depends only on the merged structure.
    """
    base = MemoryMap().cct.base
    cursor = base
    ordered: List[CallRecord] = []
    stack = [root]
    while stack:
        record = stack.pop()
        ordered.append(record)
        record.addr = cursor
        cursor += record.record_bytes()
        tree_children: List[CallRecord] = []
        for index in range(record.nslots):
            slot = record.slots[index]
            if slot is None:
                continue
            if isinstance(slot, CalleeList):
                for node in slot.nodes:
                    node.addr = cursor
                    cursor += 2 * WORD
                    if node.record.parent is record:
                        tree_children.append(node.record)
            elif slot.parent is record:
                tree_children.append(slot)
        for name in sorted(record.path_tables):
            table = record.path_tables[name]
            table.base = cursor
            table.name = f"{name}@{record.addr:#x}"
            cursor += table.size_bytes()
        stack.extend(reversed(tree_children))
    records[:] = ordered
    return cursor - base


# -- equality ----------------------------------------------------------------


def _preorder_index(root: CallRecord) -> Dict[int, int]:
    index: Dict[int, int] = {}
    stack = [root]
    while stack:
        record = stack.pop()
        index[id(record)] = len(index)
        children: List[CallRecord] = []
        for slot_index in range(record.nslots):
            _, callees = _slot_callees(record, slot_index)
            for callee in sorted(callees, key=lambda r: r.id):
                if callee.parent is record:
                    children.append(callee)
        stack.extend(reversed(children))
    return index


def _table_form(table: CounterTable) -> tuple:
    return (
        table.capacity,
        table.metric_slots,
        table.kind.value,
        table.buckets,
        tuple(sorted((k, v) for k, v in table.counts.items() if v)),
        tuple(
            sorted(
                (k, tuple(v)) for k, v in table.metrics.items() if any(v)
            )
        ),
        table.out_of_range,
    )


def canonical_form(cct) -> tuple:
    """A hashable description of a CCT modulo transient state.

    Two CCTs with equal canonical forms hold the same aggregate
    profile: addresses, record enumeration order, and callee-list
    order (move-to-front recency) are ignored; everything the analyses
    read — context structure, backedge targets, metric vectors, path
    tables — is included.  ``cct`` is anything with a ``root``
    (runtime, loaded dump, merge result) or a bare root record.
    """
    root = getattr(cct, "root", cct)
    index = _preorder_index(root)

    def describe(record: CallRecord) -> tuple:
        slots = []
        for slot_index in range(record.nslots):
            listy, callees = _slot_callees(record, slot_index)
            entries = []
            for callee in sorted(callees, key=lambda r: r.id):
                if callee.parent is record:
                    entries.append(("child", describe(callee)))
                else:
                    entries.append(("back", callee.id, index[id(callee)]))
            slots.append((listy, tuple(entries)))
        tables = tuple(
            (name, _table_form(record.path_tables[name]))
            for name in sorted(record.path_tables)
        )
        return (record.id, tuple(record.metrics), tuple(slots), tables)

    return describe(root)


def cct_equivalent(first, second) -> bool:
    """Merge-algebra equality: equal :func:`canonical_form`."""
    return canonical_form(first) == canonical_form(second)


def cct_digest(cct) -> str:
    """SHA-256 over the :func:`strict_form` of a CCT.

    A content digest of the *logical* tree (records, slots, addresses,
    tables, heap bytes) rather than of any particular file encoding:
    two dumps of the same aggregate digest identically even if the
    JSON bytes differ.  The shard runner's manifests and run logs use
    this as the merge-determinism witness.
    """
    return hashlib.sha256(repr(strict_form(cct)).encode()).hexdigest()


def strict_form(cct) -> tuple:
    """An exact description, including every serialized byte of state.

    Unlike :func:`canonical_form` this keeps record order, addresses,
    callee-list order, list-cell addresses, table bases/names, and the
    heap-bytes bookkeeping — it is the round-trip fidelity check for
    :func:`~repro.cct.serialize.save_cct`/``load_cct``.
    """
    records: List[CallRecord] = list(cct.records)
    index = {id(record): i for i, record in enumerate(records)}

    def slot_form(slot) -> object:
        if slot is None:
            return None
        if isinstance(slot, CalleeList):
            return tuple((index[id(node.record)], node.addr) for node in slot.nodes)
        return index[id(slot)]

    described = []
    for record in records:
        tables = tuple(
            (
                name,
                record.path_tables[name].name,
                record.path_tables[name].base,
                _table_form(record.path_tables[name]),
            )
            for name in sorted(record.path_tables)
        )
        described.append(
            (
                record.id,
                None if record.parent is None else index[id(record.parent)],
                record.addr,
                tuple(record.metrics),
                tuple(slot_form(slot) for slot in record.slots),
                tables,
            )
        )
    return (index[id(cct.root)], cct.heap_bytes(), tuple(described))


__all__ = [
    "MergeError",
    "MergedCCT",
    "canonical_form",
    "cct_digest",
    "cct_equivalent",
    "empty_cct",
    "merge_ccts",
    "strict_form",
    "walk_lockstep",
]
