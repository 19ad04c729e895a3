"""CCT serialization.

The paper's instrumentation writes the CCT heap to a file at program
exit, "from which the CCT can be reconstructed".  We serialize to JSON:
records by index, slots as tagged values, per-record path tables as
sparse maps.  Reconstruction yields :class:`CallRecord` objects wired
exactly as the live tree (including recursion backedges), suitable for
all the analysis/statistics code.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List

from repro.cct.merge import MergedCCT
from repro.cct.records import CalleeList, CallRecord, ListNode
from repro.instrument.tables import CounterTable, TableKind


class CCTLoadError(ValueError):
    """A CCT dump is missing, corrupt, or not a CCT dump at all.

    Carries the offending ``path`` so callers (the shard runner, the
    CLI) can report *which* checkpoint is damaged instead of leaking a
    raw JSON/KeyError traceback from deep inside reconstruction.
    """

    def __init__(self, path: str, reason: str):
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason


def file_digest(path: str) -> str:
    """SHA-256 of a file's bytes — the checkpoint integrity witness."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _slot_json(slot, index_of: Dict[int, int]):
    if slot is None:
        return None
    if isinstance(slot, CalleeList):
        # Each list cell is (callee index, cell heap address): the
        # address is live structure — dropping it would silently
        # zero the indirect-call list state on a round trip.
        return {
            "list": [index_of[id(node.record)] for node in slot.nodes],
            "addrs": [node.addr for node in slot.nodes],
        }
    return {"record": index_of[id(slot)]}


def _table_json(table: CounterTable) -> dict:
    return {
        "name": table.name,
        "capacity": table.capacity,
        "metric_slots": table.metric_slots,
        "kind": table.kind.value,
        "buckets": table.buckets,
        "base": table.base,
        "out_of_range": table.out_of_range,
        "counts": {str(k): v for k, v in table.counts.items()},
        "metrics": {str(k): v for k, v in table.metrics.items()},
    }


def save_cct(runtime, path: str) -> None:
    """Write the CCT (records, metrics, path tables) to ``path``.

    ``runtime`` is anything with ``records``, ``root``, and
    ``heap_bytes()`` — a live :class:`CCTRuntime` or a
    :class:`~repro.cct.merge.MergedCCT` (a reloaded dump, or the
    aggregate shard workers ship their merged trees as).

    The write is atomic: the payload goes to a same-directory temp
    file which is then renamed over ``path``, so a reader never sees a
    half-written dump and a crash mid-write leaves any previous
    checkpoint intact.
    """
    index_of = {id(record): i for i, record in enumerate(runtime.records)}
    records = []
    for record in runtime.records:
        records.append(
            {
                "id": record.id,
                "parent": None if record.parent is None else index_of[id(record.parent)],
                "metrics": list(record.metrics),
                "addr": record.addr,
                "slots": [_slot_json(slot, index_of) for slot in record.slots],
                "path_tables": {
                    name: _table_json(table)
                    for name, table in record.path_tables.items()
                },
            }
        )
    payload = {
        "format": "repro-cct-v1",
        "heap_bytes": runtime.heap_bytes(),
        "root": index_of[id(runtime.root)],
        "records": records,
    }
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_cct(path: str) -> MergedCCT:
    """Reconstruct a CCT written by :func:`save_cct`.

    Raises :class:`CCTLoadError` (naming ``path``) when the file is
    missing, truncated, not JSON, or structurally not a CCT dump —
    partial shard checkpoints must surface as a typed, reportable
    condition, not a raw parse traceback.

    Loading is all-or-nothing: every numeric field is validated while
    reconstructing, so a corrupt dump fails *here* rather than lazily
    inside a later merge after the merge target was partially mutated.
    """
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise CCTLoadError(path, f"cannot read CCT dump ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise CCTLoadError(path, f"truncated or corrupt CCT dump ({exc})") from exc
    if not isinstance(payload, dict) or payload.get("format") != "repro-cct-v1":
        raise CCTLoadError(path, "not a repro CCT file")
    try:
        return _reconstruct(path, payload)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise CCTLoadError(
            path, f"malformed CCT dump ({type(exc).__name__}: {exc})"
        ) from exc


def _int(value, what: str) -> int:
    """Eager integer validation for reconstructed values.

    Every numeric field is checked *while loading* so that a corrupt
    dump is a :class:`CCTLoadError` at :func:`load_cct` time, never a
    lazy ``TypeError`` deep inside a later merge after that merge has
    already half-mutated its target — and never a silently wrong
    profile (a string ``"12"`` would otherwise reconstruct metrics as
    a list of characters).
    """
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _int_list(values, what: str) -> List[int]:
    if not isinstance(values, list):
        raise ValueError(f"{what} must be a list of integers, got {values!r}")
    return [_int(value, what) for value in values]


def _reconstruct(path: str, payload: dict) -> MergedCCT:
    raw_records = payload["records"]
    records: List[CallRecord] = []
    for raw in raw_records:
        metrics = _int_list(raw["metrics"], "record metrics")
        record = CallRecord(
            raw["id"], None, len(raw["slots"]), len(metrics), _int(raw["addr"], "addr")
        )
        record.metrics = metrics
        records.append(record)
    for record, raw in zip(records, raw_records):
        if raw["parent"] is not None:
            record.parent = records[raw["parent"]]
        for index, slot in enumerate(raw["slots"]):
            if slot is None:
                continue
            if "record" in slot:
                record.slots[index] = records[slot["record"]]
            else:
                lst = CalleeList()
                # "addrs" is absent in files written before cell
                # addresses were persisted; such cells load as 0.
                addrs = slot.get("addrs") or [0] * len(slot["list"])
                for child_index, addr in zip(slot["list"], addrs):
                    lst.nodes.append(
                        ListNode(records[child_index], _int(addr, "cell addr"))
                    )
                record.slots[index] = lst
        for name, raw_table in raw["path_tables"].items():
            table = CounterTable(
                raw_table["name"],
                -1,
                _int(raw_table.get("base", 0), "table base"),
                _int(raw_table["capacity"], "table capacity"),
                _int(raw_table["metric_slots"], "table metric_slots"),
                TableKind(raw_table["kind"]),
                buckets=_int(raw_table["buckets"], "table buckets"),
            )
            table.counts = {
                int(k): _int(v, f"table {name!r} count")
                for k, v in raw_table["counts"].items()
            }
            table.metrics = {
                int(k): _int_list(v, f"table {name!r} metrics")
                for k, v in raw_table["metrics"].items()
            }
            table.out_of_range = _int(
                raw_table.get("out_of_range", 0), "table out_of_range"
            )
            record.path_tables[name] = table
    return MergedCCT(
        records[payload["root"]], records, _int(payload["heap_bytes"], "heap_bytes")
    )
