"""`ProfileStore` — a content-addressed on-disk profile registry.

Profiles become a *service* when runs are comparable across time: a
stored profile is keyed by ``(ProfileSpec digest, workload id, code
fingerprint)`` so any two entries under one spec digest are diffable
by construction — same mode, same placement, same PIC events, same
input set, and (for path profiles) the same Ball–Larus numbering.

Layout under the store root::

    index.json                  the lookup/listing index (atomic rewrites)
    index.lock                  serializes index updates (``flock``)
    objects/<aa>/<digest>.json  content-addressed blobs

Every artifact — the run record itself, the CCT dump, the flat path
and edge profiles — is a blob named by the SHA-256 of its bytes, so
storage is deduplicating and idempotent: re-saving an identical run
writes nothing and returns the same run id.  Writes go through the
PR 4 tmp-file + rename machinery (:mod:`repro.store.iojson`), reads
re-verify the content digest with
:func:`repro.cct.serialize.file_digest` — a truncated or tampered
blob is a typed :class:`StoreError` naming the path, never a silently
wrong profile.

Writers may share a store: each index update (read, append, rewrite)
runs under an exclusive ``flock`` on ``index.lock``, so concurrent
saves keep every row.  Readers take no lock, because a rewrite replaces
the index atomically.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cct.serialize import CCTLoadError, file_digest, load_cct, save_cct
from repro.machine.counters import Event
from repro.session.spec import ProfileSpec
from repro.store.encode import (
    StoredFunctionPaths,
    counters_from_json,
    counters_to_json,
    edge_profile_from_json,
    edge_profile_to_json,
    path_profile_from_json,
    path_profile_to_json,
    paths_of,
)
from repro.store.iojson import canonical_json, write_json_atomic

RUN_FORMAT = "repro-store-run-v1"
INDEX_FORMAT = "repro-store-index-v1"
INDEX_NAME = "index.json"
LOCK_NAME = "index.lock"

#: Longest wait, in seconds, for another writer's index update.
INDEX_LOCK_TIMEOUT = 30.0

#: Shortest run-id prefix :meth:`ProfileStore.resolve` accepts.
MIN_PREFIX = 4


class StoreError(ValueError):
    """A store artifact is missing, corrupt, or a ref does not resolve.

    Carries the offending ``path`` (a file for corruption, the store
    root for ref errors) so callers report *which* artifact is damaged
    instead of leaking a parse traceback.
    """

    def __init__(self, path: str, reason: str):
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason


def code_fingerprint(program) -> str:
    """SHA-256 of the program's disassembly — the code-version key.

    Computed over the *uninstrumented* program, so the fingerprint
    identifies what the user wrote, not what the instrumentation pass
    turned it into.
    """
    from repro.ir.disasm import format_program

    return hashlib.sha256(format_program(program).encode()).hexdigest()


@dataclass
class StoredProfile:
    """One fully reloaded registry entry."""

    run_id: str
    spec: ProfileSpec
    spec_digest: str
    workload: str
    code_fingerprint: str
    counters: Dict[Event, int]
    return_values: List[int]
    #: Recency rank in the index (monotonic per store).
    seq: int
    cct: Optional[object] = None
    paths: Optional[Dict[str, StoredFunctionPaths]] = None
    edges: Optional[Dict[str, Dict[int, int]]] = None
    record: dict = field(default_factory=dict, repr=False)

    @property
    def key(self) -> tuple:
        return (self.spec_digest, self.workload, self.code_fingerprint)


class ProfileStore:
    """The registry: save, resolve, and reload profiles by content."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(os.path.join(root, "objects"), exist_ok=True)

    # -- blobs ---------------------------------------------------------------

    def _object_path(self, digest: str) -> str:
        return os.path.join(self.root, "objects", digest[:2], f"{digest}.json")

    def _put_bytes(self, data: bytes) -> str:
        digest = hashlib.sha256(data).hexdigest()
        path = self._object_path(digest)
        if not os.path.exists(path):
            os.makedirs(os.path.dirname(path), exist_ok=True)
            tmp = f"{path}.tmp.{os.getpid()}"
            try:
                with open(tmp, "wb") as handle:
                    handle.write(data)
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        return digest

    def _put_cct(self, cct) -> str:
        """Content-address a CCT dump: save, digest the bytes, rename."""
        staging = os.path.join(
            self.root, "objects", f"staging.{os.getpid()}.cct.json"
        )
        try:
            save_cct(cct, staging)
            with open(staging, "rb") as handle:
                return self._put_bytes(handle.read())
        finally:
            if os.path.exists(staging):
                os.unlink(staging)

    def _get_blob(self, digest: str, what: str) -> str:
        """Verified blob path: existence + content-digest check."""
        path = self._object_path(digest)
        if not os.path.exists(path):
            raise StoreError(path, f"missing {what} blob")
        if file_digest(path) != digest:
            raise StoreError(
                path, f"{what} blob content does not match its digest (truncated?)"
            )
        return path

    def _get_json(self, digest: str, what: str) -> dict:
        path = self._get_blob(digest, what)
        try:
            with open(path) as handle:
                return json.load(handle)
        except json.JSONDecodeError as exc:  # pragma: no cover - digest catches first
            raise StoreError(path, f"corrupt {what} blob ({exc})") from exc

    # -- the index -----------------------------------------------------------

    @property
    def index_path(self) -> str:
        return os.path.join(self.root, INDEX_NAME)

    def _load_index(self) -> dict:
        if not os.path.exists(self.index_path):
            return {"format": INDEX_FORMAT, "runs": []}
        try:
            with open(self.index_path) as handle:
                payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise StoreError(
                self.index_path, f"truncated or corrupt store index ({exc})"
            ) from exc
        if not isinstance(payload, dict) or payload.get("format") != INDEX_FORMAT:
            raise StoreError(self.index_path, "not a profile store index")
        return payload

    @contextmanager
    def _index_lock(self):
        """Hold the exclusive index lock for one read-append-rewrite.

        Waits at most :data:`INDEX_LOCK_TIMEOUT` for another writer,
        then raises :class:`StoreError`.  The lock is released when the
        descriptor closes, also when the holder dies.
        """
        fd = os.open(os.path.join(self.root, LOCK_NAME), os.O_RDWR | os.O_CREAT, 0o644)
        try:
            deadline = time.monotonic() + INDEX_LOCK_TIMEOUT
            while True:
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    break
                except BlockingIOError:
                    if time.monotonic() >= deadline:
                        raise StoreError(
                            self.root,
                            f"index lock held by another writer for over "
                            f"{INDEX_LOCK_TIMEOUT:g} s",
                        ) from None
                    time.sleep(0.002)
            yield
        finally:
            os.close(fd)

    def entries(
        self,
        workload: Optional[str] = None,
        spec_digest: Optional[str] = None,
    ) -> List[dict]:
        """Index entries, oldest first, optionally filtered by key."""
        runs = self._load_index()["runs"]
        if workload is not None:
            runs = [e for e in runs if e["workload"] == workload]
        if spec_digest is not None:
            runs = [e for e in runs if e["spec_digest"] == spec_digest]
        return sorted(runs, key=lambda e: e["seq"])

    # -- saving --------------------------------------------------------------

    def save_record(
        self,
        record: dict,
        cct=None,
        paths=None,
        edges=None,
    ) -> str:
        """Low-level save: persist blobs, the record, and an index row.

        ``record`` carries everything but the ``blobs`` table (filled
        here).  Returns the run id — the content digest of the record
        blob.  Saving an identical record is a no-op returning the same
        id: content addressing makes the operation idempotent.
        """
        record = dict(record)
        record["format"] = RUN_FORMAT
        record["blobs"] = {
            "cct": None if cct is None else self._put_cct(cct),
            "paths": None if paths is None else self._put_bytes(
                canonical_json(path_profile_to_json(paths)).encode()
            ),
            "edges": None if edges is None else self._put_bytes(
                canonical_json(edge_profile_to_json(edges)).encode()
            ),
        }
        run_id = self._put_bytes(canonical_json(record).encode())

        with self._index_lock():
            index = self._load_index()
            if not any(entry["run"] == run_id for entry in index["runs"]):
                seq = 1 + max((entry["seq"] for entry in index["runs"]), default=0)
                index["runs"].append(
                    {
                        "run": run_id,
                        "seq": seq,
                        "spec_digest": record["spec_digest"],
                        "workload": record["workload"],
                        "code_fingerprint": record["code_fingerprint"],
                        "mode": record["spec"]["mode"],
                    }
                )
                write_json_atomic(self.index_path, index)
        return run_id

    def save_run(self, spec: ProfileSpec, run, *, workload: str, program) -> str:
        """Persist one :class:`~repro.session.ProfileRun`.

        ``program`` is the *uninstrumented* program the run profiled —
        its disassembly digest is the code-fingerprint key component.
        """
        record = {
            "spec": spec.to_json(),
            "spec_digest": spec.digest(),
            "workload": workload,
            "code_fingerprint": code_fingerprint(program),
            "counters": counters_to_json(run.result.counters),
            "return_values": [run.return_value],
        }
        return self.save_record(
            record,
            cct=run.cct,
            paths=paths_of(run.path_profile),
            edges=run.edges,
        )

    def save_outcome(self, outcome, *, workload: Optional[str] = None) -> str:
        """Persist a sharded (or serial-reference) aggregate.

        The merged CCT/profile of a :class:`~repro.tools.shard_runner.
        ShardOutcome` is byte-equivalent to the serial run's, so stored
        shard aggregates diff cleanly against stored serial runs.
        """
        fingerprint = code_fingerprint(outcome.spec.build_program())
        if workload is None:
            workload = outcome.spec.workload or f"inline:{fingerprint[:12]}"
        spec = outcome.spec.profile
        record = {
            "spec": spec.to_json(),
            "spec_digest": spec.digest(),
            "workload": workload,
            "code_fingerprint": fingerprint,
            "counters": counters_to_json(outcome.counters),
            "return_values": list(outcome.return_values),
        }
        return self.save_record(
            record,
            cct=outcome.cct,
            paths=paths_of(outcome.path_profile),
        )

    # -- refs and loading ----------------------------------------------------

    def resolve(self, ref: str) -> str:
        """A ref -> run id.

        Ref syntax:

        * ``latest`` / ``latest~N`` — the most recent run (N back);
        * ``<workload>:latest~N`` — the same, within one workload;
        * a run-id prefix (>= ``MIN_PREFIX`` hex chars, unambiguous).
        """
        if not ref:
            raise StoreError(self.root, "empty ref")
        workload = None
        selector = ref
        if ":" in ref:
            workload, selector = ref.rsplit(":", 1)
        if selector == "latest" or selector.startswith("latest~"):
            back = 0
            if "~" in selector:
                try:
                    back = int(selector.split("~", 1)[1])
                except ValueError:
                    raise StoreError(self.root, f"malformed ref {ref!r}") from None
            entries = self.entries(workload=workload)
            if back < 0 or back >= len(entries):
                raise StoreError(
                    self.root,
                    f"ref {ref!r} reaches past the {len(entries)} stored run(s)",
                )
            return entries[len(entries) - 1 - back]["run"]
        if workload is not None:
            raise StoreError(self.root, f"malformed ref {ref!r}")
        if len(ref) < MIN_PREFIX or any(c not in "0123456789abcdef" for c in ref):
            raise StoreError(self.root, f"unknown ref {ref!r}")
        matches = sorted(
            {e["run"] for e in self.entries() if e["run"].startswith(ref)}
        )
        if not matches:
            raise StoreError(self.root, f"unknown ref {ref!r}")
        if len(matches) > 1:
            raise StoreError(
                self.root,
                f"ambiguous ref {ref!r} ({len(matches)} matches)",
            )
        return matches[0]

    def load(self, ref: str) -> StoredProfile:
        """Reload a stored profile, verifying every blob's digest."""
        run_id = self.resolve(ref)
        entry = next(e for e in self.entries() if e["run"] == run_id)
        record = self._get_json(run_id, "run record")
        if not isinstance(record, dict) or record.get("format") != RUN_FORMAT:
            raise StoreError(self._object_path(run_id), "not a stored run record")
        try:
            spec = ProfileSpec.from_json(record["spec"])
            counters = counters_from_json(record.get("counters", {}))
            blobs = record.get("blobs") or {}
            paths = edges = None
            if blobs.get("paths"):
                paths = path_profile_from_json(
                    self._get_json(blobs["paths"], "path profile")
                )
            if blobs.get("edges"):
                edges = edge_profile_from_json(
                    self._get_json(blobs["edges"], "edge profile")
                )
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, StoreError):
                raise
            raise StoreError(
                self._object_path(run_id),
                f"malformed run record ({type(exc).__name__}: {exc})",
            ) from exc
        cct = None
        if blobs.get("cct"):
            path = self._get_blob(blobs["cct"], "CCT")
            try:
                cct = load_cct(path)
            except CCTLoadError as exc:
                raise StoreError(path, exc.reason) from exc
        return StoredProfile(
            run_id=run_id,
            spec=spec,
            spec_digest=record["spec_digest"],
            workload=record["workload"],
            code_fingerprint=record["code_fingerprint"],
            counters=counters,
            return_values=list(record.get("return_values", [])),
            seq=entry["seq"],
            cct=cct,
            paths=paths,
            edges=edges,
            record=record,
        )

    def baseline_for(
        self, stored: StoredProfile, same_code: bool = False
    ) -> Optional[StoredProfile]:
        """The most recent *earlier* run of the same spec and workload.

        The CI gate's comparison point.  By default code fingerprint is
        deliberately not part of the filter: the gate exists to compare
        across code versions.  ``same_code=True`` adds the fingerprint
        to the filter, selecting the lineage of runs measured against
        byte-identical code — what a PGO cycle wants, where the
        interesting baseline is the *same* program before optimization
        was applied to a copy.
        """
        earlier = [
            entry
            for entry in self.entries(
                workload=stored.workload, spec_digest=stored.spec_digest
            )
            if entry["seq"] < stored.seq
            and (
                not same_code
                or entry["code_fingerprint"] == stored.code_fingerprint
            )
        ]
        if not earlier:
            return None
        return self.load(earlier[-1]["run"])


__all__ = [
    "INDEX_FORMAT",
    "MIN_PREFIX",
    "ProfileStore",
    "RUN_FORMAT",
    "StoreError",
    "StoredProfile",
    "code_fingerprint",
]
