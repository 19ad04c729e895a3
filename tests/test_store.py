"""Property tests for the content-addressed profile store.

The store's contract, over generated profiles rather than hand-rolled
fixtures:

* a save/load cycle is bit-identical — counters, path profiles, and
  the CCT (by :func:`~repro.cct.merge.strict_form`) all round-trip;
* re-saving identical content is a no-op returning the same run id
  (content addressing makes saves idempotent);
* a truncated or tampered blob is a typed :class:`StoreError` naming
  the damaged path, never a silently wrong profile;
* refs (``latest``, ``latest~N``, ``workload:latest``, id prefixes)
  resolve as documented and fail as typed errors;
* concurrent writers keep every index row, and a writer that cannot
  take the index lock in time fails with a typed error.
"""

from __future__ import annotations

import fcntl
import json
import multiprocessing
import os
import tempfile

import pytest
from hypothesis import given, settings

from repro.cct.merge import strict_form
from repro.session import ProfileSpec
from repro.store import ProfileStore, StoreError
from repro.store.encode import counters_to_json

from tests.cct_strategies import cct_trees, counter_banks, stored_path_profiles

FEW = settings(max_examples=25, deadline=None)

SPEC = ProfileSpec(mode="context_flow")


def _record(counters, workload="bench", fingerprint="f" * 64, spec=SPEC):
    return {
        "spec": spec.to_json(),
        "spec_digest": spec.digest(),
        "workload": workload,
        "code_fingerprint": fingerprint,
        "counters": counters_to_json(counters),
        "return_values": [0],
    }


class TestRoundTrip:
    @FEW
    @given(counter_banks(), stored_path_profiles(), cct_trees())
    def test_save_load_is_bit_identical(self, counters, paths, cct):
        with tempfile.TemporaryDirectory() as root:
            store = ProfileStore(root)
            run_id = store.save_record(_record(counters), cct=cct, paths=paths)
            loaded = store.load(run_id)
        assert loaded.counters == counters
        assert loaded.paths == paths
        assert strict_form(loaded.cct) == strict_form(cct)
        assert loaded.spec == SPEC
        assert loaded.spec_digest == SPEC.digest()
        assert loaded.workload == "bench"
        assert loaded.return_values == [0]

    @FEW
    @given(counter_banks(), stored_path_profiles(), cct_trees())
    def test_resave_is_a_noop(self, counters, paths, cct):
        with tempfile.TemporaryDirectory() as root:
            store = ProfileStore(root)
            first = store.save_record(_record(counters), cct=cct, paths=paths)
            files_before = sorted(
                os.path.join(dirpath, name)
                for dirpath, _, names in os.walk(root)
                for name in names
            )
            index_before = open(store.index_path).read()
            second = store.save_record(_record(counters), cct=cct, paths=paths)
            files_after = sorted(
                os.path.join(dirpath, name)
                for dirpath, _, names in os.walk(root)
                for name in names
            )
            assert second == first
            assert files_after == files_before
            assert open(store.index_path).read() == index_before
            assert len(store.entries()) == 1

    def test_different_content_different_ids(self, tmp_path):
        from repro.machine.counters import Event

        store = ProfileStore(str(tmp_path))
        a = store.save_record(_record({Event.INSTRS: 100}))
        b = store.save_record(_record({Event.INSTRS: 101}))
        assert a != b
        assert len(store.entries()) == 2


class TestCorruption:
    def _stored(self, root, cct=None, paths=None):
        from repro.machine.counters import Event

        store = ProfileStore(root)
        run_id = store.save_record(
            _record({Event.INSTRS: 500, Event.CYCLES: 900}), cct=cct, paths=paths
        )
        return store, run_id

    def test_truncated_record_blob_is_typed_error(self, tmp_path):
        store, run_id = self._stored(str(tmp_path))
        path = store._object_path(run_id)
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) // 2)
        with pytest.raises(StoreError) as info:
            store.load(run_id)
        assert info.value.path == path
        assert "does not match its digest" in info.value.reason

    @FEW
    @given(cct_trees())
    def test_truncated_cct_blob_names_the_path(self, cct):
        with tempfile.TemporaryDirectory() as root:
            store, run_id = self._stored(root, cct=cct)
            digest = store.load(run_id).record["blobs"]["cct"]
            path = store._object_path(digest)
            with open(path, "r+b") as handle:
                handle.truncate(os.path.getsize(path) // 2)
            with pytest.raises(StoreError) as info:
                store.load(run_id)
            assert info.value.path == path

    def test_missing_blob_is_typed_error(self, tmp_path):
        from tests.cct_strategies import FakeCCT  # noqa: F401  (doc anchor)

        store, run_id = self._stored(str(tmp_path))
        os.unlink(store._object_path(run_id))
        with pytest.raises(StoreError) as info:
            store.load(run_id)
        assert "missing" in info.value.reason

    def test_corrupt_index_is_typed_error(self, tmp_path):
        store, _ = self._stored(str(tmp_path))
        with open(store.index_path, "w") as handle:
            handle.write('{"truncated')
        with pytest.raises(StoreError) as info:
            store.entries()
        assert info.value.path == store.index_path

    def test_malformed_record_is_typed_error(self, tmp_path):
        store, run_id = self._stored(str(tmp_path))
        record = json.load(open(store._object_path(run_id)))
        record["counters"] = {"NO_SUCH_EVENT": 1}
        data = json.dumps(record, sort_keys=True).encode()
        bad_id = store._put_bytes(data)
        index = store._load_index()
        index["runs"].append(
            {
                "run": bad_id,
                "seq": 99,
                "spec_digest": record["spec_digest"],
                "workload": record["workload"],
                "code_fingerprint": record["code_fingerprint"],
                "mode": record["spec"]["mode"],
            }
        )
        from repro.store.iojson import write_json_atomic

        write_json_atomic(store.index_path, index)
        with pytest.raises(StoreError) as info:
            store.load(bad_id)
        assert "malformed run record" in info.value.reason

    def test_record_on_retired_trace_engine_is_typed_error(self, tmp_path):
        from repro.machine.counters import Event

        store = ProfileStore(str(tmp_path))
        record = _record({Event.INSTRS: 500})
        record["spec"]["engine"] = "trace"
        run_id = store.save_record(record)
        with pytest.raises(StoreError) as info:
            store.load(run_id)
        assert info.value.path == store._object_path(run_id)
        assert "malformed run record (ProfileSpecError" in info.value.reason
        assert "unknown engine 'trace'" in info.value.reason


class TestRefs:
    def _three(self, root):
        from repro.machine.counters import Event

        store = ProfileStore(root)
        ids = [
            store.save_record(
                _record({Event.INSTRS: count}, workload=workload)
            )
            for count, workload in ((1, "a"), (2, "b"), (3, "a"))
        ]
        return store, ids

    def test_latest_and_history(self, tmp_path):
        store, ids = self._three(str(tmp_path))
        assert store.resolve("latest") == ids[2]
        assert store.resolve("latest~1") == ids[1]
        assert store.resolve("latest~2") == ids[0]

    def test_workload_scoped_refs(self, tmp_path):
        store, ids = self._three(str(tmp_path))
        assert store.resolve("a:latest") == ids[2]
        assert store.resolve("a:latest~1") == ids[0]
        assert store.resolve("b:latest") == ids[1]

    def test_prefix_refs(self, tmp_path):
        store, ids = self._three(str(tmp_path))
        assert store.resolve(ids[0][:12]) == ids[0]
        assert store.resolve(ids[0]) == ids[0]

    @pytest.mark.parametrize(
        "ref", ["", "latest~9", "zz:latest", "abc", "deadbeef", "x:y:latest~x"]
    )
    def test_bad_refs_are_typed_errors(self, tmp_path, ref):
        store, _ = self._three(str(tmp_path))
        with pytest.raises(StoreError):
            store.resolve(ref)

    def test_baseline_for_same_spec_and_workload(self, tmp_path):
        store, ids = self._three(str(tmp_path))
        latest_a = store.load("a:latest")
        baseline = store.baseline_for(latest_a)
        assert baseline is not None and baseline.run_id == ids[0]
        # the oldest run of each key has no baseline
        assert store.baseline_for(store.load(ids[0])) is None
        assert store.baseline_for(store.load(ids[1])) is None

    def test_baseline_for_same_code_walks_one_lineage(self, tmp_path):
        from repro.machine.counters import Event

        store = ProfileStore(str(tmp_path))
        ids = [
            store.save_record(
                _record({Event.INSTRS: count}, workload="a", fingerprint=fp)
            )
            for count, fp in ((1, "f" * 64), (2, "e" * 64), (3, "f" * 64))
        ]
        latest = store.load(ids[2])
        # Default: the gate compares across code versions — nearest
        # earlier run wins regardless of fingerprint.
        assert store.baseline_for(latest).run_id == ids[1]
        # same_code=True: the PGO lineage — skip the foreign-code run.
        assert store.baseline_for(latest, same_code=True).run_id == ids[0]
        middle = store.load(ids[1])
        assert store.baseline_for(middle, same_code=True) is None


WRITERS = 8
SAVES_PER_WRITER = 25


def _save_distinct_records(root, writer, queue):
    from repro.machine.counters import Event

    store = ProfileStore(root)
    queue.put(
        [
            store.save_record(
                _record({Event.INSTRS: writer * 1000 + i}, workload=f"w{writer}")
            )
            for i in range(SAVES_PER_WRITER)
        ]
    )


class TestConcurrentWriters:
    def test_forked_writers_keep_every_row(self, tmp_path):
        """More writers than cores, each saving distinct records into
        one store: without the index lock, concurrent read-append-rewrite
        cycles drop each other's rows."""
        root = str(tmp_path)
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        writers = [
            ctx.Process(target=_save_distinct_records, args=(root, w, queue))
            for w in range(WRITERS)
        ]
        for process in writers:
            process.start()
        saved = [run for _ in writers for run in queue.get(timeout=120)]
        for process in writers:
            process.join(timeout=60)
            assert not process.is_alive()
            assert process.exitcode == 0
        store = ProfileStore(root)
        entries = store.entries()
        assert len(entries) == WRITERS * SAVES_PER_WRITER
        assert [e["seq"] for e in entries] == list(range(1, len(entries) + 1))
        assert sorted(e["run"] for e in entries) == sorted(saved)
        for run in saved:
            assert store.resolve(run) == run

    def test_held_lock_times_out_as_typed_error(self, tmp_path, monkeypatch):
        from repro.machine.counters import Event
        from repro.store import store as store_module

        store = ProfileStore(str(tmp_path))
        store.save_record(_record({Event.INSTRS: 1}))
        monkeypatch.setattr(store_module, "INDEX_LOCK_TIMEOUT", 0.05)
        with open(os.path.join(store.root, store_module.LOCK_NAME)) as held:
            fcntl.flock(held, fcntl.LOCK_EX)
            with pytest.raises(StoreError, match="index lock") as info:
                store.save_record(_record({Event.INSTRS: 2}))
        assert info.value.path == store.root
        assert len(store.entries()) == 1
        # Released: the next save goes through.
        store.save_record(_record({Event.INSTRS: 2}))
        assert len(store.entries()) == 2


class TestSessionSink:
    SOURCE = """
    fn main() {
        var i = 0; var sum = 0;
        while (i < 12) { sum = sum + i * i; i = i + 1; }
        return sum;
    }
    """

    def test_session_run_persists_and_logs_store_phase(self, tmp_path):
        from repro.lang import compile_source
        from repro.session import ProfileSession, ProfileSpec
        from repro.tools.runlog import RunLog

        log_path = str(tmp_path / "run.log.jsonl")
        store = ProfileStore(str(tmp_path / "store"))
        session = ProfileSession(log=RunLog(log_path))
        spec = ProfileSpec(mode="context_flow")
        run = session.run(
            spec, compile_source(self.SOURCE), store=store, workload="unit"
        )
        assert run.stored_as is not None
        loaded = store.load(run.stored_as)
        assert loaded.workload == "unit"
        assert loaded.counters == dict(run.result.counters)
        assert strict_form(loaded.cct) == strict_form(run.cct)
        phases = [
            json.loads(line)["phase"]
            for line in open(log_path)
            if json.loads(line).get("event") == "phase"
        ]
        assert phases == ["clone", "instrument", "decode", "run", "collect", "store"]

    def test_kflow_run_round_trips_with_stable_spec_digest(self, tmp_path):
        """A persisted kflow run reloads bit-identically, keyed under a
        spec digest that is deterministic and distinct per k."""
        from repro.lang import compile_source
        from repro.session import ProfileSession, ProfileSpec

        store = ProfileStore(str(tmp_path))
        program = compile_source(self.SOURCE)
        spec = ProfileSpec(mode="kflow", k=2)
        run = ProfileSession().run(
            spec, program, store=store, workload="unit"
        )
        loaded = store.load(run.stored_as)
        assert loaded.spec == spec
        assert loaded.spec_digest == spec.digest()
        assert loaded.counters == dict(run.result.counters)
        assert set(loaded.paths) == set(run.path_profile.functions)
        for name, stored in loaded.paths.items():
            fpp = run.path_profile.functions[name]
            assert stored.counts == dict(fpp.counts)
            assert stored.metrics == {
                k: list(v) for k, v in fpp.metrics.items()
            }
        # The digest is reproducible across processes (pure data) and
        # splits the store's compatibility key by k.
        assert ProfileSpec(mode="kflow", k=2).digest() == spec.digest()
        assert ProfileSpec(mode="kflow", k=3).digest() != spec.digest()
        rerun = ProfileSession().run(
            spec, program, store=store, workload="unit"
        )
        assert rerun.stored_as == run.stored_as  # content-addressed

    def test_identical_session_runs_share_one_run_id(self, tmp_path):
        from repro.lang import compile_source
        from repro.session import ProfileSession, ProfileSpec

        store = ProfileStore(str(tmp_path))
        program = compile_source(self.SOURCE)
        spec = ProfileSpec(mode="context_flow")
        first = ProfileSession().run(spec, program, store=store, workload="unit")
        second = ProfileSession().run(spec, program, store=store, workload="unit")
        assert first.stored_as == second.stored_as
        assert len(store.entries()) == 1
