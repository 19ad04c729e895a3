"""Structured JSONL logging for profiling runs.

Long collection runs need post-mortem observability: which shard was
retried, why, how many attempts it took, what digest the merge
consumed, and how long each pipeline phase of every run took.  Writers
append one JSON object per event to a ``run.log.jsonl`` file next to
the shard checkpoints (or wherever ``repro profile --log`` points), so
a crashed or resumed run carries its full history in the working
directory.

Events share a small envelope — ``seq`` (monotonic per writer),
``ts`` (Unix seconds), ``event`` — plus event-specific fields:

========================  ====================================================
``run_start``             ``shards``, ``inputs``, ``mode``, ``resume``
``shard_start``           ``shard``, ``attempt``, ``pid``
``shard_exit``            ``shard``, ``attempt``, ``exitcode``, ``timed_out``,
                          ``seconds``
``shard_corrupt``         ``shard``, ``attempt``, ``reason``
``shard_retry``           ``shard``, ``next_attempt``, ``delay``
``shard_done``            ``shard``, ``attempt``, ``digest``
``merge``                 ``shards_merged``, ``cct_digest``
``run_complete``          ``shards``
``run_failed``            ``shard``, ``attempts``, ``reason``
``phase``                 ``phase`` (clone/instrument/decode/run/collect,
                          plus ``store`` when the run is persisted to a
                          profile store), ``mode``, ``seconds``; the
                          decode phase adds ``engine``, the run phase
                          ``instructions`` and ``cycles``, the store
                          phase ``run_id`` and ``workload`` (emitted by
                          :class:`repro.session.ProfileSession`)
========================  ====================================================

The log is append-only.  Shard workers append their own ``phase``
events: each ``emit`` is a single whole-line ``O_APPEND`` write, so
concurrent writers interleave lines, never bytes.  A writer can carry
``context`` fields (e.g. ``shard``/``pid``) merged into every record
to tell its lines apart; ``seq`` stays monotonic *per writer*.  A
``RunLog(None)`` swallows events, keeping call sites unconditional.
"""

from __future__ import annotations

import json
import time
from typing import Iterator, List, Optional


class RunLog:
    """Append-only JSONL event log (no-op when ``path`` is ``None``).

    ``context`` keyword fields are merged into every record the writer
    emits — the shard runner stamps worker logs with ``shard``/``pid``.
    """

    def __init__(self, path: Optional[str], **context):
        self.path = path
        self.context = context
        self._seq = 0

    def emit(self, event: str, **fields) -> None:
        if self.path is None:
            return
        record = {"seq": self._seq, "ts": round(time.time(), 3), "event": event}
        record.update(self.context)
        record.update(fields)
        self._seq += 1
        with open(self.path, "a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def read_run_log(path: str) -> List[dict]:
    """Parse a run log back into event dicts (skipping torn tails).

    A crash can leave a partial final line; tolerate it — the log is
    observability, not a source of truth (the checkpoints are).
    """
    events: List[dict] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                break
    return events


def events_of(path: str, kind: str) -> Iterator[dict]:
    """The events of one kind, in log order."""
    return (event for event in read_run_log(path) if event.get("event") == kind)


__all__ = ["RunLog", "events_of", "read_run_log"]
