"""Sharded profiling must be invisible in the merged results.

For a deterministic workload, splitting the input set across N forked
workers and merging the per-shard CCT dumps must reproduce the serial
run exactly: identical CCT structure byte for byte (strict form),
identical Table-3 statistics, identical hot-path classification, and
identical totals across all sixteen hardware event counters.
"""

import json
import os

import pytest

from repro.cct.merge import canonical_form, strict_form
from repro.cct.stats import cct_statistics
from repro.machine.counters import NUM_EVENTS, Event
from repro.profiles.hotpaths import classify_paths
from repro.session import ProfileSpecError
from repro.tools.shard_runner import (
    MANIFEST_FORMAT,
    ShardCheckpointError,
    ShardSpec,
    flow_template,
    load_manifest,
    resume_run,
    serial_run,
    shard_run,
    spec_for_workload,
    spec_from_json,
    spec_to_json,
)

SOURCE = """
fn helper(x) { if (x % 2 == 0) { return x * 3; } return x + 7; }
fn fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
fn main(a) {
    var i = 0; var sum = 0;
    while (i < a) { sum = sum + helper(i) + fib(i % 6); i = i + 1; }
    return sum;
}
"""

INPUTS = ((4,), (7,), (2,), (9,), (5,), (3,))


def _profile_facts(profile):
    return {
        name: (dict(fpp.counts), {k: list(v) for k, v in fpp.metrics.items()})
        for name, fpp in profile.functions.items()
    }


class TestShardEqualsSerial:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_combined_mode(self, shards):
        spec = ShardSpec(source=SOURCE, inputs=INPUTS, mode="context_flow")
        reference = serial_run(spec)
        outcome = shard_run(spec, shards, jobs=1)
        assert outcome.return_values == reference.return_values
        assert strict_form(outcome.cct) == strict_form(reference.cct)
        assert cct_statistics(outcome.cct).row() == cct_statistics(reference.cct).row()
        assert _profile_facts(outcome.path_profile) == _profile_facts(
            reference.path_profile
        )

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_flow_hw_hot_paths(self, shards):
        spec = ShardSpec(source=SOURCE, inputs=INPUTS, mode="flow_hw")
        reference = serial_run(spec)
        outcome = shard_run(spec, shards, jobs=1)
        assert outcome.cct is None
        assert _profile_facts(outcome.path_profile) == _profile_facts(
            reference.path_profile
        )
        ours = classify_paths(outcome.path_profile)
        theirs = classify_paths(reference.path_profile)
        assert ours.row() == theirs.row()
        assert [
            (c.entry.function, c.entry.path_sum, c.klass) for c in ours.classified
        ] == [
            (c.entry.function, c.entry.path_sum, c.klass) for c in theirs.classified
        ]

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_all_sixteen_counters(self, shards):
        """Counter totals are partition-invariant, event by event."""
        spec = ShardSpec(source=SOURCE, inputs=INPUTS, mode="context_hw")
        reference = serial_run(spec)
        outcome = shard_run(spec, shards, jobs=1)
        assert len(Event) == NUM_EVENTS == 16
        for event in Event:
            assert outcome.counters[event] == reference.counters[event], event.name
        assert strict_form(outcome.cct) == strict_form(reference.cct)

    @pytest.mark.parametrize("shards", [2, 4])
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_kflow_mode(self, shards, k):
        """Multi-iteration path profiles merge exactly like flow_hw:
        pointwise sums over k-path ids, byte-identical to serial."""
        from repro.session import ProfileSpec

        spec = ShardSpec(
            source=SOURCE,
            profile=ProfileSpec(mode="kflow", k=k, inputs=INPUTS),
        )
        reference = serial_run(spec)
        outcome = shard_run(spec, shards, jobs=1)
        assert outcome.cct is None
        assert outcome.return_values == reference.return_values
        assert outcome.counters == reference.counters
        assert _profile_facts(outcome.path_profile) == _profile_facts(
            reference.path_profile
        )

    def test_kflow_k1_merge_matches_flow_hw(self):
        """The k=1 degenerate case is flow_hw under another name, all
        the way through the sharded merge."""
        from repro.session import ProfileSpec

        kflow = shard_run(
            ShardSpec(
                source=SOURCE,
                profile=ProfileSpec(mode="kflow", k=1, inputs=INPUTS),
            ),
            2,
            jobs=1,
        )
        flow = shard_run(
            ShardSpec(source=SOURCE, inputs=INPUTS, mode="flow_hw"), 2, jobs=1
        )
        assert _profile_facts(kflow.path_profile) == _profile_facts(
            flow.path_profile
        )
        assert kflow.counters == flow.counters

    def test_forked_workers_match(self, tmp_path):
        """The real multiprocess path (fork + dump + reload)."""
        spec = ShardSpec(source=SOURCE, inputs=INPUTS, mode="context_flow")
        reference = serial_run(spec)
        outcome = shard_run(spec, 3, workdir=str(tmp_path))
        assert strict_form(outcome.cct) == strict_form(reference.cct)
        assert outcome.counters == reference.counters
        assert len(outcome.shard_files) == 3
        for shard_file in outcome.shard_files:
            assert os.path.exists(shard_file)

    def test_more_shards_than_inputs(self):
        """Workers with empty chunks contribute the merge identity."""
        spec = ShardSpec(source=SOURCE, inputs=INPUTS[:2], mode="context_flow")
        reference = serial_run(spec)
        outcome = shard_run(spec, 4, jobs=1)
        assert strict_form(outcome.cct) == strict_form(reference.cct)
        assert outcome.counters == reference.counters


class TestSpecValidation:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown mode"):
            ShardSpec(source=SOURCE, mode="edge")

    def test_unknown_mode_is_a_typed_error_naming_the_mode(self):
        from repro.session import ProfileSpecError

        with pytest.raises(ProfileSpecError, match="unknown mode 'bogus'"):
            ShardSpec(source=SOURCE, mode="bogus")

    def test_embedded_profile_spec_drives_the_run(self):
        from repro.session import ProfileSpec

        profile = ProfileSpec(mode="flow_hw", inputs=INPUTS)
        spec = ShardSpec(source=SOURCE, profile=profile)
        assert spec.mode == "flow_hw"
        assert spec.inputs == INPUTS
        # Legacy keywords override fields of an explicit profile.
        overridden = ShardSpec(source=SOURCE, profile=profile, mode="context_hw")
        assert overridden.profile.mode == "context_hw"
        assert overridden.inputs == INPUTS

    def test_exactly_one_program_source(self):
        with pytest.raises(ValueError, match="exactly one"):
            ShardSpec(source=SOURCE, workload="129.compress")
        with pytest.raises(ValueError, match="exactly one"):
            ShardSpec()

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError, match="shards"):
            shard_run(ShardSpec(source=SOURCE), 0)

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="retries"):
            ShardSpec(source=SOURCE, retries=-1)

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(ValueError, match="timeout"):
            ShardSpec(source=SOURCE, timeout=0)

    def test_negative_backoff_rejected(self):
        with pytest.raises(ValueError, match="backoff"):
            ShardSpec(source=SOURCE, backoff=-0.5)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"workload": 7}, "workload must be a string"),
            ({"source": 7}, "source must be a string"),
            ({"asm": b"func"}, "asm must be a string"),
            ({"source": SOURCE, "scale": "1"}, "scale must be a positive number"),
            ({"source": SOURCE, "scale": True}, "scale must be a positive number"),
            ({"source": SOURCE, "retries": "x"}, "retries must be an integer"),
            ({"source": SOURCE, "retries": 1.0}, "retries must be an integer"),
            ({"source": SOURCE, "timeout": "soon"}, "timeout must be a positive"),
            ({"source": SOURCE, "backoff": None}, "backoff must be a number"),
        ],
    )
    def test_mistyped_field_rejected_naming_the_field(self, fields, message):
        with pytest.raises(ProfileSpecError, match=message):
            ShardSpec(**fields)


class TestManifestAndResume:
    def test_spec_json_round_trip(self):
        spec = ShardSpec(
            source=SOURCE,
            inputs=INPUTS,
            mode="flow_hw",
            retries=3,
            timeout=7.5,
            backoff=0.25,
        )
        assert spec_from_json(spec_to_json(spec)) == spec

    def test_spec_from_json_ignores_unknown_keys(self):
        raw = spec_to_json(ShardSpec(source=SOURCE, inputs=INPUTS))
        raw["future_knob"] = "whatever"
        assert spec_from_json(raw) == ShardSpec(source=SOURCE, inputs=INPUTS)

    def test_manifest_embeds_the_profile_spec(self):
        spec = ShardSpec(
            source=SOURCE, inputs=INPUTS, mode="flow_hw", placement="simple"
        )
        raw = spec_to_json(spec)
        assert raw["profile"]["mode"] == "flow_hw"
        assert raw["profile"]["placement"] == "simple"
        assert raw["profile"]["inputs"] == [list(args) for args in INPUTS]
        for legacy_key in ("mode", "placement", "by_site", "inputs", "engine"):
            assert legacy_key not in raw

    def test_kflow_spec_json_round_trip_keeps_k(self):
        from repro.session import ProfileSpec

        spec = ShardSpec(
            source=SOURCE,
            profile=ProfileSpec(mode="kflow", k=3, inputs=INPUTS),
        )
        raw = spec_to_json(spec)
        assert raw["profile"]["mode"] == "kflow"
        assert raw["profile"]["k"] == 3
        revived = spec_from_json(raw)
        assert revived == spec
        assert revived.profile.k == 3
        assert revived.profile.digest() == spec.profile.digest()

    def test_legacy_manifest_without_k_still_loads(self):
        # Manifests written before the ``k`` field existed carry no
        # such key; they must load with identical semantics (and, for
        # non-kflow modes, identical spec digests).
        spec = ShardSpec(source=SOURCE, inputs=INPUTS, mode="flow_hw")
        raw = spec_to_json(spec)
        assert "k" not in raw["profile"]
        revived = spec_from_json(raw)
        assert revived == spec
        assert revived.profile.digest() == spec.profile.digest()

    @staticmethod
    def _write_manifest(tmp_path, **changes):
        payload = {
            "format": MANIFEST_FORMAT,
            "spec": spec_to_json(ShardSpec(source=SOURCE, inputs=INPUTS)),
            "shards": 2,
            "entries": [],
        }
        payload.update(changes)
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_manifest_without_spec_is_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"format": MANIFEST_FORMAT}))
        with pytest.raises(ShardCheckpointError, match="no spec object"):
            load_manifest(str(path))
        with pytest.raises(ShardCheckpointError, match="no spec object"):
            resume_run(str(path))

    @pytest.mark.parametrize("profile", [None, "context_flow", [1, 2]])
    def test_manifest_spec_without_profile_object_is_rejected(self, tmp_path, profile):
        spec = spec_to_json(ShardSpec(source=SOURCE, inputs=INPUTS))
        if profile is None:
            del spec["profile"]
        else:
            spec["profile"] = profile
        path = self._write_manifest(tmp_path, spec=spec)
        with pytest.raises(ShardCheckpointError, match="no profile object"):
            load_manifest(path)
        with pytest.raises(ShardCheckpointError, match="no profile object"):
            resume_run(path)

    def test_spec_without_profile_is_rejected(self):
        raw = spec_to_json(ShardSpec(source=SOURCE, inputs=INPUTS))
        del raw["profile"]
        with pytest.raises(ProfileSpecError, match="must be an object"):
            spec_from_json(raw)

    @pytest.mark.parametrize("shards", [None, 0, -1, "2", 1.5, True])
    def test_manifest_shards_must_be_a_positive_int(self, tmp_path, shards):
        path = self._write_manifest(tmp_path, shards=shards)
        with pytest.raises(ShardCheckpointError, match="positive integer"):
            load_manifest(path)

    def test_manifest_describes_the_split(self, tmp_path):
        spec = ShardSpec(source=SOURCE, inputs=INPUTS)
        outcome = shard_run(spec, 3, workdir=str(tmp_path), jobs=1)
        payload = load_manifest(outcome.manifest_path)
        assert payload["shards"] == 3
        assert spec_from_json(payload["spec"]) == spec
        chunks = [entry["inputs"] for entry in payload["entries"]]
        assert sorted(index for chunk in chunks for index in chunk) == list(
            range(len(INPUTS))
        )
        assert chunks == [[0, 3], [1, 4], [2, 5]]  # round-robin

    def test_resume_of_complete_run_reruns_nothing(self, tmp_path):
        spec = ShardSpec(source=SOURCE, inputs=INPUTS)
        outcome = shard_run(spec, 2, workdir=str(tmp_path), jobs=1)
        before = {
            name: os.path.getmtime(os.path.join(str(tmp_path), name))
            for name in os.listdir(str(tmp_path))
            if name.endswith(".json")
        }
        resumed = resume_run(outcome.manifest_path)
        after = {
            name: os.path.getmtime(os.path.join(str(tmp_path), name))
            for name in before
        }
        assert before == after  # checkpoints untouched: pure re-merge
        assert strict_form(resumed.cct) == strict_form(outcome.cct)
        assert resumed.counters == outcome.counters
        assert resumed.return_values == outcome.return_values

    @staticmethod
    def _pending_after_resume(workdir):
        from repro.tools.runlog import read_run_log

        resume_run(os.path.join(workdir, "manifest.json"), jobs=1)
        starts = [
            event
            for event in read_run_log(os.path.join(workdir, "run.log.jsonl"))
            if event["event"] == "run_start"
        ]
        return starts[-1]["pending"]

    def test_checkpoints_of_another_split_rerun(self, tmp_path):
        """A checkpoint records its input indices, so resuming a manifest
        whose shard count was changed re-runs every shard and still
        matches the serial run."""
        spec = ShardSpec(source=SOURCE, inputs=INPUTS)
        shard_run(spec, 2, workdir=str(tmp_path), jobs=1)
        manifest = tmp_path / "manifest.json"
        payload = json.loads(manifest.read_text())
        payload["shards"] = 3
        manifest.write_text(json.dumps(payload))
        assert self._pending_after_resume(str(tmp_path)) == [0, 1, 2]
        outcome = resume_run(str(manifest))
        assert strict_form(outcome.cct) == strict_form(serial_run(spec).cct)

    def test_checkpoint_without_its_work_record_reruns(self, tmp_path):
        """A checkpoint that does not say what it profiled (one written
        before checkpoints recorded it) is re-run, not trusted."""
        from repro.store.iojson import payload_digest

        spec = ShardSpec(source=SOURCE, inputs=INPUTS)
        shard_run(spec, 2, workdir=str(tmp_path), jobs=1)
        result = tmp_path / "shard1.result.json"
        payload = json.loads(result.read_text())
        del payload["work_digest"], payload["inputs"]
        payload["digest"] = payload_digest(payload)
        result.write_text(json.dumps(payload))
        assert self._pending_after_resume(str(tmp_path)) == [1]

    def test_temp_workdir_forfeits_resume(self):
        spec = ShardSpec(source=SOURCE, inputs=INPUTS[:2])
        outcome = shard_run(spec, 2, jobs=1)
        assert outcome.manifest_path is None
        assert outcome.shard_files == []

    def test_rerun_in_same_workdir_clears_stale_checkpoints(self, tmp_path):
        spec = ShardSpec(source=SOURCE, inputs=INPUTS)
        shard_run(spec, 4, workdir=str(tmp_path), jobs=1)
        # Fewer shards second time: shard 2/3 checkpoints must not
        # survive to poison a later resume of the 2-shard manifest.
        outcome = shard_run(spec, 2, workdir=str(tmp_path), jobs=1)
        reference = serial_run(spec)
        assert strict_form(outcome.cct) == strict_form(reference.cct)
        assert not os.path.exists(str(tmp_path / "shard2.result.json"))
        assert not os.path.exists(str(tmp_path / "shard3.result.json"))


class TestWorkloadSharding:
    def test_workload_spec_repetitions(self):
        spec = spec_for_workload("129.compress", scale=0.2, runs=3)
        assert spec.inputs == ((), (), ())

    def test_sharded_workload_matches_serial(self):
        spec = spec_for_workload("129.compress", scale=0.2, runs=2)
        reference = serial_run(spec)
        outcome = shard_run(spec, 2, jobs=1)
        assert strict_form(outcome.cct) == strict_form(reference.cct)
        assert outcome.counters == reference.counters

    def test_table3_sharded_is_shard_count_invariant(self):
        from repro.experiments.table3 import cct_stats_experiment

        rows = {
            shards: cct_stats_experiment(
                ["129.compress"], scale=0.2, shards=shards, runs=2
            )
            for shards in (1, 2)
        }
        assert rows[1] == rows[2]
        assert rows[1][0]["Benchmark"] == "129.compress"
        # two runs double the aggregate call frequency vs one
        single = cct_stats_experiment(["129.compress"], scale=0.2, shards=1, runs=1)
        assert rows[1][0]["Nodes"] == single[0]["Nodes"]

    def test_one_path_column_present_under_sharding(self):
        spec = spec_for_workload("145.fpppp", scale=0.2, runs=1)
        outcome = shard_run(spec, 2, jobs=1)
        template = flow_template(spec)
        stats = cct_statistics(
            outcome.cct, program=template.program, flow_functions=template.functions
        )
        assert stats.call_sites_one_path is not None


class TestMergedProfileSemantics:
    def test_metrics_scale_with_repeated_inputs(self):
        one = serial_run(ShardSpec(source=SOURCE, inputs=((6,),)))
        three = serial_run(ShardSpec(source=SOURCE, inputs=((6,), (6,), (6,))))
        assert canonical_form(one.cct) != canonical_form(three.cct)
        freq_one = sum(
            r.metrics[0] for r in one.cct.records if r is not one.cct.root
        )
        freq_three = sum(
            r.metrics[0] for r in three.cct.records if r is not three.cct.root
        )
        assert freq_three == 3 * freq_one

    def test_disjoint_inputs_union_paths(self):
        """Inputs driving different paths union in the aggregate."""
        even = serial_run(ShardSpec(source=SOURCE, inputs=((2,),), mode="flow_hw"))
        merged = serial_run(
            ShardSpec(source=SOURCE, inputs=((2,), (9,)), mode="flow_hw")
        )
        helper_even = even.path_profile.functions["helper"]
        helper_merged = merged.path_profile.functions["helper"]
        assert set(helper_even.counts) <= set(helper_merged.counts)
        assert helper_merged.total_freq() > helper_even.total_freq()
