"""The command-line interface."""

import pytest

from repro.cli import main

SOURCE = """
global data[256];
fn work(n) {
    var i = 0; var sum = 0;
    while (i < n) { sum = sum + data[i & 255]; i = i + 1; }
    return sum;
}
fn main(mode) {
    var i = 0; var out = 0;
    while (i < 15) {
        if (mode == 1) { out = out + work(i); } else { out = out + 1; }
        i = i + 1;
    }
    return out;
}
"""

ASM = """
program entry=main
func main(0) regs=8 {
entry:
    const r0, 0
    const r1, 7
    br head
head:
    lt r2, r0, r1
    cbr r2, body, done
body:
    add r0, r0, 1
    br head
done:
    ret r0
}
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "program.pl"
    path.write_text(SOURCE)
    return str(path)


@pytest.fixture
def asm_file(tmp_path):
    path = tmp_path / "program.asm"
    path.write_text(ASM)
    return str(path)


class TestRun:
    def test_mini_language(self, source_file, capsys):
        assert main(["run", source_file, "1"]) == 0
        out = capsys.readouterr().out
        assert "result:" in out
        assert "INSTRS" in out

    def test_assembly(self, asm_file, capsys):
        assert main(["run", asm_file]) == 0
        out = capsys.readouterr().out
        assert "result: 7" in out


class TestFlow:
    def test_hot_paths_printed(self, source_file, capsys):
        assert main(["flow", source_file, "1"]) == 0
        out = capsys.readouterr().out
        assert "paths by L1D misses" in out
        assert "hot paths carry" in out
        assert "overhead:" in out

    def test_threshold_flag(self, source_file, capsys):
        assert main(["flow", source_file, "1", "--threshold", "0.5"]) == 0
        assert "hot paths" in capsys.readouterr().out


class TestContext:
    def test_cct_printed(self, source_file, capsys):
        assert main(["context", source_file, "1"]) == 0
        out = capsys.readouterr().out
        assert "calling context tree" in out
        assert "main -> work" in out
        assert "records" in out

    def test_merge_sites_flag(self, source_file, capsys):
        assert main(["context", source_file, "1", "--merge-sites"]) == 0
        assert "calling context tree" in capsys.readouterr().out


class TestCombined:
    def test_per_context_paths(self, source_file, capsys):
        assert main(["combined", source_file, "1"]) == 0
        out = capsys.readouterr().out
        assert "per-context path profile" in out
        assert "one-path call sites" in out

    def test_save_cct(self, source_file, tmp_path, capsys):
        target = str(tmp_path / "out.cct")
        assert main(["combined", source_file, "1", "--save", target]) == 0
        from repro.cct.serialize import load_cct

        loaded = load_cct(target)
        assert any(r.id == "work" for r in loaded.records)


class TestCoverage:
    def test_report_and_untested(self, source_file, capsys):
        assert main(["coverage", source_file, "2"]) == 0
        out = capsys.readouterr().out
        assert "path coverage" in out
        assert "untested:" in out  # mode==1 branch was never driven


class TestTable:
    def test_table_subset(self, capsys):
        assert main(
            ["table", "4", "--scale", "0.25", "--workloads", "130.li"]
        ) == 0
        out = capsys.readouterr().out
        assert "Table 4" in out
        assert "130.li" in out


class TestRetiredVerbs:
    def test_cache_verb_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["cache", "--stats"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'cache'" in capsys.readouterr().err


class TestBench:
    def test_instrumented_bench_writes_gate_json(self, tmp_path, capsys):
        import json

        out = tmp_path / "BENCH_instrumented_speed.json"
        assert (
            main(
                [
                    "bench",
                    "--instrumented",
                    "--scale",
                    "0.1",
                    "--workloads",
                    "129.compress",
                    "--check-only",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        printed = capsys.readouterr().out
        assert "instrumented suite throughput" in printed
        payload = json.loads(out.read_text())
        assert set(payload["modes"]) == {"flow_hw", "context_hw", "context_flow"}
        assert payload["check_only"] is True
        for data in payload["modes"].values():
            assert data["simple"]["seconds"] > 0
            assert data["fast_warm"]["seconds"] > 0

    def test_uninstrumented_bench_writes_gate_json(self, tmp_path, capsys):
        import json

        out = tmp_path / "BENCH_vm_speed.json"
        assert (
            main(
                [
                    "bench",
                    "--scale",
                    "0.1",
                    "--workloads",
                    "129.compress",
                    "--check-only",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        payload = json.loads(out.read_text())
        assert payload["workloads"] == 1
        assert payload["simulated_instructions"] > 0

    def test_payload_carries_only_simple_and_fast_passes(self, tmp_path, capsys):
        import json

        out = tmp_path / "BENCH_vm_speed.json"
        assert main(
            ["bench", "--scale", "0.1", "--workloads", "129.compress",
             "--check-only", "--out", str(out)]
        ) == 0
        printed = capsys.readouterr().out
        payload = json.loads(out.read_text())
        passes = {"simple", "fast_cold", "fast_warm"}
        assert passes <= set(payload)
        assert not any("trace" in key for key in payload)
        assert "trace" not in printed
        from repro.tools.bench_runner import CODEGEN_STAT_KEYS

        for name in ("fast_cold", "fast_warm"):
            assert set(payload[name]) == {
                "seconds", "instructions_per_second", *CODEGEN_STAT_KEYS
            }
        assert payload["fast_cold"]["source_cache_misses"] > 0
        assert payload["fast_warm"]["source_cache_misses"] == 0

    def test_unreachable_minimum_fails(self, tmp_path, capsys):
        assert (
            main(
                [
                    "bench",
                    "--scale",
                    "0.1",
                    "--workloads",
                    "129.compress",
                    "--min",
                    "1000",
                    "--out",
                    str(tmp_path / "out.json"),
                ]
            )
            == 1
        )
        assert "FAIL" in capsys.readouterr().out


class TestContextRenderFlags:
    def test_tree_output(self, source_file, capsys):
        assert main(["context", source_file, "1", "--tree"]) == 0
        out = capsys.readouterr().out
        assert "<root>" in out
        assert "|-" in out or "`-" in out

    def test_dot_output(self, source_file, capsys):
        assert main(["context", source_file, "1", "--dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph CCT")


class TestDiff:
    def test_identical_inputs(self, source_file, capsys):
        assert main(["diff", source_file, "--first", "1", "--second", "1"]) == 0
        assert "identical" in capsys.readouterr().out

    def test_differing_inputs(self, source_file, capsys):
        assert main(["diff", source_file, "--first", "1", "--second", "2"]) == 0
        out = capsys.readouterr().out
        assert "differing path spectra" in out
        assert "only run" in out


class TestOptimize:
    LOOPY = """
    global data[64];
    fn main() {
        var i = 0; var sum = 0;
        while (i < 300) {
            if (i % 4 == 0) { sum = sum + data[i & 63]; }
            else { sum = sum + 1; }
            if (sum > 5000) { sum = sum - 5000; }
            i = i + 1;
        }
        return sum;
    }
    """

    def test_optimize_reports_speedup(self, tmp_path, capsys):
        path = tmp_path / "loopy.pl"
        path.write_text(self.LOOPY)
        assert main(["optimize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "superblock in main" in out
        assert "cycles:" in out
        assert "verdict:" in out

    def test_optimize_run_ref_requires_store(self, tmp_path):
        path = tmp_path / "loopy.pl"
        path.write_text(self.LOOPY)
        assert main(["optimize", str(path), "--run", "latest"]) == 2

    def test_optimize_unknown_pass_is_usage_error(self, tmp_path):
        path = tmp_path / "loopy.pl"
        path.write_text(self.LOOPY)
        assert main(["optimize", str(path), "--passes", "zorp"]) == 2

    def test_optimize_json_and_report_file_agree(self, tmp_path, capsys):
        import json

        path = tmp_path / "loopy.pl"
        path.write_text(self.LOOPY)
        report = tmp_path / "report.json"
        assert (
            main(["optimize", str(path), "--json", "--report", str(report)])
            == 0
        )
        blob = json.loads(capsys.readouterr().out)
        assert blob["format"] == "repro-pgo-report-v1"
        assert blob["architectural_match"] is True
        assert blob["profile_source"] == "live"
        assert json.loads(report.read_text()) == blob

    def test_optimize_from_stored_run(self, tmp_path, capsys):
        import json

        path = tmp_path / "loopy.pl"
        path.write_text(self.LOOPY)
        store = str(tmp_path / "store")
        assert (
            main(
                [
                    "profile", str(path),
                    "--mode", "combined",
                    "--store", store,
                    "--workload", "w",
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (
            main(
                [
                    "optimize", str(path),
                    "--store", store,
                    "--run", "latest",
                    "--json",
                ]
            )
            == 0
        )
        blob = json.loads(capsys.readouterr().out)
        assert blob["profile_source"] != "live"
        assert blob["workload"] == "w"
        # save-on-store: both verification runs were persisted
        assert blob["stored"]["baseline"] and blob["stored"]["optimized"]

    def test_optimize_rejects_foreign_stored_profile(self, tmp_path, capsys):
        path = tmp_path / "loopy.pl"
        path.write_text(self.LOOPY)
        store = str(tmp_path / "store")
        assert main(["profile", str(path), "--store", store]) == 0
        other = tmp_path / "other.pl"
        other.write_text("fn main() { return 4; }")
        assert (
            main(["optimize", str(other), "--store", store, "--run", "latest"])
            == 2
        )


class TestShardRun:
    def test_keep_then_resume(self, source_file, tmp_path, capsys):
        keep = str(tmp_path / "shards")
        import os

        os.mkdir(keep)
        assert (
            main(
                [
                    "shard-run",
                    source_file,
                    "--inputs",
                    "1;2;1;2",
                    "--shards",
                    "2",
                    "--keep",
                    keep,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "4 inputs over 2 shards" in out
        assert "merged hardware events" in out
        assert f"manifest kept at {keep}" in out.replace("\n", " ") or keep in out
        manifest = os.path.join(keep, "manifest.json")
        assert os.path.exists(manifest)
        assert os.path.exists(os.path.join(keep, "run.log.jsonl"))

        # A completed run resumes as a pure re-merge of the checkpoints.
        assert main(["shard-run", "--resume", manifest]) == 0
        out = capsys.readouterr().out
        assert "resumed 4 inputs over 2 shards" in out

    def test_resume_reexecutes_missing_shard(self, source_file, tmp_path, capsys):
        import os

        keep = str(tmp_path / "shards")
        os.mkdir(keep)
        assert (
            main(
                [
                    "shard-run",
                    source_file,
                    "--inputs",
                    "1;2",
                    "--shards",
                    "2",
                    "--keep",
                    keep,
                ]
            )
            == 0
        )
        capsys.readouterr()
        os.unlink(os.path.join(keep, "shard1.result.json"))
        assert main(["shard-run", "--resume", os.path.join(keep, "manifest.json")]) == 0
        assert "resumed 2 inputs over 2 shards" in capsys.readouterr().out

    def test_resume_missing_manifest_is_one_line_error(self, tmp_path, capsys):
        assert main(["shard-run", "--resume", str(tmp_path / "manifest.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "missing run manifest" in err
        assert len(err.strip().splitlines()) == 1

    def test_resume_corrupt_manifest_is_one_line_error(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text("{definitely not json")
        assert main(["shard-run", "--resume", str(manifest)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(manifest) in err

    def test_resume_manifest_without_spec_is_one_line_error(self, tmp_path, capsys):
        import json

        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"format": "repro-shard-manifest-v1"}))
        assert main(["shard-run", "--resume", str(manifest)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "no spec object" in err
        assert len(err.strip().splitlines()) == 1

    def test_file_required_without_resume(self):
        with pytest.raises(SystemExit, match="FILE required"):
            main(["shard-run", "--shards", "2"])


class TestErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            main(["run", "/nonexistent/program.pl"])

    @staticmethod
    def _fails_in_one_line(capsys, argv) -> str:
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        return err

    @pytest.mark.parametrize("verb", ["run", "profile"])
    def test_syntax_error_is_one_line_error(self, verb, tmp_path, capsys):
        path = tmp_path / "bad.pl"
        path.write_text("fn main() { return 1 +; }\n")
        err = self._fails_in_one_line(capsys, [verb, str(path)])
        assert err.startswith("error: line 1: unexpected token ';'")

    @pytest.mark.parametrize("verb", ["run", "profile"])
    def test_asm_error_is_one_line_error(self, verb, tmp_path, capsys):
        path = tmp_path / "bad.asm"
        path.write_text(ASM.replace("add r0, r0, 1", "bogus r0"))
        err = self._fails_in_one_line(capsys, [verb, str(path)])
        assert err.startswith("error: line ") and "unknown mnemonic 'bogus'" in err

    @pytest.mark.parametrize("verb", ["run", "profile"])
    def test_invalid_ir_is_one_line_error(self, verb, tmp_path, capsys):
        path = tmp_path / "bad.asm"
        path.write_text(ASM.replace("br head\nhead:", "br nowhere\nhead:"))
        err = self._fails_in_one_line(capsys, [verb, str(path)])
        assert err.startswith("error: main.entry: branch to unknown block 'nowhere'")

    @pytest.mark.parametrize("verb", ["run", "profile"])
    def test_machine_fault_is_one_line_error(self, verb, tmp_path, capsys):
        path = tmp_path / "needs_arg.pl"
        path.write_text("fn main(n) { return n; }\n")
        err = self._fails_in_one_line(capsys, [verb, str(path)])
        assert err.startswith("error: main takes 1 args, got 0")

    def test_exhausted_budget_is_one_line_error(self, tmp_path, capsys, monkeypatch):
        import functools

        from repro.machine import vm
        from repro.machine.config import MachineConfig

        monkeypatch.setattr(
            vm, "MachineConfig", functools.partial(MachineConfig, max_instructions=5000)
        )
        path = tmp_path / "forever.pl"
        path.write_text("fn main() { var i = 0; while (1) { i = i + 1; } return i; }\n")
        err = self._fails_in_one_line(capsys, ["run", str(path)])
        assert err.startswith("error: instruction budget exceeded (5000)")

    @pytest.mark.parametrize("verb", ["profile", "optimize", "shard-run"])
    def test_zero_k_is_one_line_error(self, verb, source_file, capsys):
        """``--k 0`` is rejected by ``ProfileSpec``, not run as k=1."""
        err = self._fails_in_one_line(
            capsys, [verb, source_file, "--mode", "kflow", "--k", "0"]
        )
        assert err.startswith("error: k must be an integer >= 1 for kflow mode, got 0")

    @pytest.mark.parametrize(
        "size, assoc, message",
        [
            ("100", "1", "error: icache size 100 must be a multiple of line*assoc"),
            ("96", "1", "error: icache set count must be a power of two, not 3"),
            ("512", "0", "error: icache associativity must be at least 1"),
        ],
    )
    def test_unsimulatable_icache_is_one_line_error(
        self, size, assoc, message, tmp_path, capsys
    ):
        path = tmp_path / "one.pl"
        path.write_text("fn main() { return 1; }\n")
        err = self._fails_in_one_line(
            capsys,
            ["optimize", str(path), "--icache-size", size, "--icache-assoc", assoc],
        )
        assert err.startswith(message)
        assert capsys.readouterr().out == ""


class TestProfile:
    """The unified ``profile`` verb and its per-mode delegates."""

    MODE_TITLES = {
        "baseline": "hardware events",
        "flow": "paths by L1D misses",
        "flow-freq": "path frequencies",
        "context": "calling context tree",
        "combined": "per-context path profile",
        "edge": "edge counters",
    }

    @pytest.mark.parametrize("mode", sorted(MODE_TITLES))
    def test_every_mode_reports(self, mode, source_file, capsys):
        assert main(["profile", source_file, "1", "--mode", mode]) == 0
        assert self.MODE_TITLES[mode] in capsys.readouterr().out

    def test_per_mode_verbs_delegate(self, source_file, capsys):
        """``flow``/``context``/``combined`` are spelled-out profile modes."""
        for verb, mode in (
            ("flow", "flow"),
            ("context", "context"),
            ("combined", "combined"),
        ):
            assert main([verb, source_file, "1"]) == 0
            legacy_out = capsys.readouterr().out
            assert main(["profile", source_file, "1", "--mode", mode]) == 0
            assert capsys.readouterr().out == legacy_out

    def test_log_records_every_phase(self, source_file, tmp_path, capsys):
        import json

        log = str(tmp_path / "run.log.jsonl")
        assert main(
            ["profile", source_file, "1", "--mode", "combined", "--log", log]
        ) == 0
        capsys.readouterr()
        events = [json.loads(line) for line in open(log)]
        assert [e["event"] for e in events] == ["phase"] * 5
        assert [e["phase"] for e in events] == [
            "clone", "instrument", "decode", "run", "collect",
        ]
        assert all(e["seconds"] >= 0 and e["command"] == "profile" for e in events)

    def test_custom_pic_events(self, source_file, capsys):
        assert main(
            ["profile", source_file, "1", "--pic0", "cycles", "--pic1", "branches"]
        ) == 0
        assert "paths by L1D misses" in capsys.readouterr().out

    def test_unknown_event_is_one_line_error(self, source_file, capsys):
        assert main(["profile", source_file, "1", "--pic1", "BOGUS"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown pic1_event 'BOGUS'")
        assert len(err.strip().splitlines()) == 1

    def test_retired_trace_engine_is_one_line_error(self, source_file, capsys):
        assert main(["profile", source_file, "1", "--engine", "trace"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown engine 'trace'")
        assert "('simple', 'fast')" in err
        assert len(err.strip().splitlines()) == 1

    def test_shard_run_logs_phases(self, source_file, tmp_path, capsys):
        import json
        import os

        keep = str(tmp_path)
        assert main(
            ["shard-run", source_file, "--inputs", "1;2", "--shards", "2",
             "--keep", keep]
        ) == 0
        capsys.readouterr()
        events = [
            json.loads(line)
            for line in open(os.path.join(keep, "run.log.jsonl"))
        ]
        phases = [e for e in events if e["event"] == "phase"]
        assert phases and all(e["seconds"] >= 0 for e in phases)
        assert {e["phase"] for e in phases} == {
            "clone", "instrument", "decode", "run", "collect",
        }
        assert all("shard" in e for e in phases)
