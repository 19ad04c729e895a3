"""The measured-profile view and the optimization pipeline.

The contracts under test:

* :class:`MeasuredProfile` reports the same paths and call edges
  whether built live from a run or rebuilt from a stored one, and
  refuses to decode against code it did not measure;
* the inliner preserves architectural results — including the frame
  zeroing corner (a callee register read before written must still
  read 0 inside the clone) — and respects its budgets;
* the pipeline skips stale functions (restructured by an earlier
  pass) instead of mis-decoding their measured numbering;
* an optimized program runs bit-identically under both execution
  engines, on the corpus and on hypothesis-generated IR.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from repro.ir.asm import parse_program
from repro.ir.disasm import format_program
from repro.ir.instructions import Kind
from repro.lang import compile_source
from repro.opt import (
    MeasuredProfile,
    MeasuredProfileError,
    OptError,
    OptPlan,
    inline_call,
    inline_hot_calls,
    run_pipeline,
)
from repro.store import ProfileStore
from repro.tools.pp import PP, clone_program

from tests.conftest import compile_corpus
from tests.ir_strategies import ir_hot_programs

#: A hot call edge (main -> work, 60 invocations) plus a hot loop in
#: the callee: every pipeline pass has something measurable to do.
CALLING = """
global data[256];

fn work(base, n) {
    var i = 0; var acc = 0;
    while (i < n) {
        acc = acc + data[(base + i) & 255] + i;
        i = i + 1;
    }
    return acc;
}

fn main() {
    var total = 0; var j = 0;
    while (j < 60) {
        total = total + work(j, 8);
        j = j + 1;
    }
    return total;
}
"""

FUZZ = settings(
    max_examples=12,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

ENGINES = ("simple", "fast")


def _profiled(source_or_program):
    program = (
        compile_source(source_or_program)
        if isinstance(source_or_program, str)
        else source_or_program
    )
    run = PP().context_flow(program)
    return program, run, MeasuredProfile.from_run(run, program)


class TestMeasuredProfileLive:
    def test_sees_paths_and_edges(self):
        _, _, profile = _profiled(CALLING)
        assert set(profile.functions) == {"main", "work"}
        edges = profile.hot_call_edges()
        assert edges[0].caller == "main"
        assert edges[0].callee == "work"
        assert edges[0].calls == 60
        assert profile.source == "live"

    def test_hot_loop_paths_are_loop_iterations(self):
        _, _, profile = _profiled(CALLING)
        loops = {c.function for c in profile.hot_loop_paths(min_freq=2)}
        assert "work" in loops
        top = profile.hot_loop_paths(min_freq=2)[0]
        assert top.path.entry_backedge.dst == top.path.exit_backedge.dst

    def test_block_heat_sums_decoded_paths(self):
        _, run, profile = _profiled(CALLING)
        heat = profile.block_heat("work")
        counts = run.path_profile.functions["work"].counts
        assert sum(heat.values()) >= sum(counts.values())
        # The loop body runs 8x per call; it must out-heat the entry.
        body = max(heat.values())
        entry = heat[compile_source(CALLING).functions["work"].entry.name]
        assert body > entry

    def test_unknown_ranking_rejected(self):
        _, _, profile = _profiled(CALLING)
        with pytest.raises(MeasuredProfileError, match="ranking"):
            profile.hot_paths(by="vibes")


class TestMeasuredProfileStored:
    def _stored(self, tmp_path, source=CALLING, mode="context_flow", k=None):
        program = compile_source(source)
        store = ProfileStore(tmp_path / "store")
        pp = PP()
        spec = pp.spec(mode, k=k) if k else pp.spec(mode)
        run = pp.session.run(spec, program, (), store=store, workload="w")
        return program, store.load(run.stored_as), run

    def test_matches_live_view(self, tmp_path):
        program, stored, run = self._stored(tmp_path)
        live = MeasuredProfile.from_run(run, program)
        rebuilt = MeasuredProfile.from_stored(stored, program)
        assert rebuilt.source == stored.run_id
        assert set(rebuilt.functions) == set(live.functions)
        for name, mfp in live.functions.items():
            other = rebuilt.functions[name]
            assert other.counts == mfp.counts
            assert other.num_potential_paths == mfp.num_potential_paths
        assert rebuilt.hot_call_edges() == live.hot_call_edges()
        assert rebuilt.counters == live.counters

    def test_rejects_restructured_code(self, tmp_path):
        _, stored, _ = self._stored(tmp_path)
        # Same function names, different CFG: extra branch in work.
        mutated = compile_source(
            CALLING.replace(
                "acc = acc + data[(base + i) & 255] + i;",
                "if (i % 2 == 0) { acc = acc + i; } else { acc = acc - 1; }",
            )
        )
        with pytest.raises(MeasuredProfileError, match="different code"):
            MeasuredProfile.from_stored(stored, mutated)

    def test_rejects_missing_function(self, tmp_path):
        _, stored, _ = self._stored(tmp_path)
        shrunk = compile_source(CALLING)
        del shrunk.functions["work"]
        with pytest.raises(MeasuredProfileError, match="does not define"):
            MeasuredProfile.from_stored(stored, shrunk)

    def test_kflow_counts_project_onto_base_paths(self, tmp_path):
        program, stored, _ = self._stored(tmp_path, mode="kflow", k=2)
        flow = MeasuredProfile.from_run(PP().flow_freq(program), program)
        projected = MeasuredProfile.from_stored(stored, program)
        for name, mfp in flow.functions.items():
            other = projected.functions[name]
            assert other.counts == mfp.counts, name
            assert other.metrics == {}  # k-path metrics do not project


class TestInline:
    def test_preserves_result_and_removes_call(self):
        program, run, profile = _profiled(CALLING)
        optimized = clone_program(program)
        results = inline_hot_calls(
            optimized, profile, min_calls=2, growth_budget=1.0
        )
        assert [(r.caller, r.callee) for r in results] == [("main", "work")]
        assert results[0].calls == 60
        kinds = [i.kind for i in optimized.functions["main"].instructions()]
        assert Kind.CALL not in kinds
        rerun = PP().baseline(optimized)
        assert rerun.return_value == run.return_value

    def test_zeroes_registers_read_before_written(self):
        # leaky reads r1 (never a param, never written) and r3: a fresh
        # frame reads them as 0, so the clone must zero them too.
        program = parse_program(
            """
            program entry=main globals=0

            func main(0) regs=8 {
            entry:
                const r0, 7
                call r1, leaky(r0)
                ret r1
            }

            func leaky(1) regs=4 {
            entry:
                add r2, r1, 5
                add r2, r2, r0
                add r2, r2, r3
                ret r2
            }
            """
        )
        expected = PP().baseline(clone_program(program)).return_value
        assert expected == 12
        result = inline_call(
            program, program.functions["main"], program.functions["leaky"]
        )
        assert result is not None
        assert PP().baseline(program).return_value == expected

    def test_initialised_callee_needs_no_zero_glue(self):
        program, _, profile = _profiled(CALLING)
        optimized = clone_program(program)
        inline_hot_calls(optimized, profile, growth_budget=1.0)
        # work initialises i and acc: the only consts written into the
        # split head are the two immediate arguments, no zero glue.
        head = optimized.functions["main"].blocks
        glue = [
            i
            for b in head
            for i in b.instrs
            if i.kind == Kind.CONST and ".inl" not in b.name
        ]
        zero_glue = [i for i in glue if i.value == 0]
        original = [
            i
            for i in program.functions["main"].instructions()
            if i.kind == Kind.CONST and i.value == 0
        ]
        assert len(zero_glue) == len(original)

    def test_refuses_recursion(self):
        program = compile_source(
            """
            fn fact(n) { if (n < 2) { return 1; } return n * fact(n - 1); }
            fn main() { return fact(6); }
            """
        )
        fact = program.functions["fact"]
        assert inline_call(program, fact, fact) is None

    def test_respects_callee_size_cap(self):
        program, _, profile = _profiled(CALLING)
        optimized = clone_program(program)
        assert inline_hot_calls(optimized, profile, max_callee_size=1) == []

    def test_respects_growth_budget(self):
        program, _, profile = _profiled(CALLING)
        optimized = clone_program(program)
        assert (
            inline_hot_calls(
                optimized, profile, growth_budget=0.0, growth_floor=0
            )
            == []
        )
        assert format_program(optimized) == format_program(program)


class TestOptPlan:
    def test_unknown_pass_rejected(self):
        with pytest.raises(OptError, match="unknown pass"):
            OptPlan(passes=("zorp",))

    def test_negative_budget_rejected(self):
        with pytest.raises(OptError):
            OptPlan(growth_budget=-0.5)
        with pytest.raises(OptError):
            OptPlan(growth_floor=-1)

    def test_json_round_trips_the_knobs(self):
        plan = OptPlan(passes=("layout",), min_freq=5, growth_floor=7)
        blob = plan.to_json()
        assert blob["passes"] == ["layout"]
        assert blob["min_freq"] == 5
        assert blob["growth_floor"] == 7


class TestPipeline:
    def test_zero_budget_changes_nothing(self):
        program, _, profile = _profiled(CALLING)
        optimized = clone_program(program)
        plan = OptPlan(
            passes=("inline", "superblock"),
            growth_budget=0.0,
            growth_floor=0,
        )
        result = run_pipeline(optimized, profile, plan)
        assert not result.changed
        assert format_program(optimized) == format_program(program)

    def test_stale_function_skipped_after_inline(self):
        # Inlining restructures main, so its measured numbering is no
        # longer decodable; the superblock pass must skip it rather
        # than straighten paths that no longer exist.
        program, _, profile = _profiled(CALLING)
        optimized = clone_program(program)
        plan = OptPlan(growth_budget=1.0)
        result = run_pipeline(optimized, profile, plan)
        superblocks = result.passes[1]
        assert superblocks.name == "superblock"
        formed = {s["function"] for s in superblocks.details["superblocks"]}
        assert "main" not in formed

    def test_reports_every_pass(self):
        program, _, profile = _profiled(CALLING)
        result = run_pipeline(clone_program(program), profile)
        assert [p.name for p in result.passes] == list(OptPlan().passes)
        assert result.icost_before == program.total_instructions()
        blob = result.to_json()
        assert [p["pass"] for p in blob["passes"]] == list(OptPlan().passes)


class TestPipelineDifferential:
    """Satellite: optimized programs agree across both engines."""

    def _optimize(self, program):
        program, run, profile = _profiled(program)
        optimized = clone_program(program)
        run_pipeline(optimized, profile, OptPlan(growth_budget=1.0))
        return run, optimized

    def _assert_tiers_agree(self, label, baseline, optimized):
        runs = {
            engine: PP(engine=engine).baseline(optimized)
            for engine in ENGINES
        }
        for engine, run in runs.items():
            assert run.return_value == baseline.return_value, (label, engine)
            assert dict(run.result.counters) == dict(
                runs["simple"].result.counters
            ), (label, engine)

    def test_corpus_optimized_identical_across_tiers(self, corpus_name):
        baseline, optimized = self._optimize(compile_corpus(corpus_name))
        self._assert_tiers_agree(corpus_name, baseline, optimized)

    @FUZZ
    @given(program=ir_hot_programs())
    def test_generated_hot_programs_survive_pipeline(self, program):
        baseline, optimized = self._optimize(program)
        self._assert_tiers_agree("generated", baseline, optimized)
