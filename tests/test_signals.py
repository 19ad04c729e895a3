"""Asynchronous signals: handlers as additional entry points (§4.2).

The paper notes its tool would need multiple CCT roots to support
signal handlers; this reproduction implements that: each handler gets
its own slot on the distinguished root, so handler contexts hang off
the root rather than polluting whichever procedure happened to be
interrupted.
"""

import pytest

from repro.cct.merge import strict_form
from repro.cct.runtime import CCTRuntime
from repro.instrument.cctinstr import instrument_context
from repro.instrument.pathinstr import instrument_paths
from repro.instrument.tables import ProfilingRuntime
from repro.lang import compile_source
from repro.machine.memory import MemoryMap
from repro.machine.vm import Machine, MachineError

SOURCE = """
global ticks[1];
global work_done[1];

fn on_tick(n) {
    ticks[0] = ticks[0] + 1;
    return helper(n);
}

fn helper(n) {
    return n * 2;
}

fn compute(x) {
    var i = 0; var sum = 0;
    while (i < 40) { sum = sum + (x ^ i); i = i + 1; }
    return sum;
}

fn main() {
    var i = 0; var out = 0;
    while (i < 50) {
        out = out + compute(i);
        i = i + 1;
    }
    work_done[0] = 1;
    return out & 65535;
}
"""


def _machine(source=SOURCE, **signal):
    program = compile_source(source)
    machine = Machine(program)
    if signal:
        machine.install_signal(**signal)
    return program, machine


class TestDelivery:
    def test_signals_fire_periodically(self):
        _, machine = _machine(handler="on_tick", period=500)
        machine.run()
        assert machine.signals_delivered >= 5
        # The handler really ran: it bumped the tick counter.
        assert machine.memory.read(machine.memory.global_addr(0)) == (
            machine.signals_delivered
        )

    def test_result_unchanged_by_signals(self):
        _, plain = _machine()
        _, signaled = _machine(handler="on_tick", period=300)
        assert plain.run().return_value == signaled.run().return_value

    def test_handler_return_value_discarded(self):
        # The interrupted code's registers must be untouched even
        # though the handler returns a value.
        _, machine = _machine(handler="on_tick", period=100)
        result = machine.run()
        _, plain = _machine()
        assert result.return_value == plain.run().return_value

    def test_signals_masked_inside_handler(self):
        # A tiny period cannot re-enter the handler while it runs.
        _, machine = _machine(handler="on_tick", period=1)
        machine.config.max_instructions = 2_000_000
        result = machine.run()
        assert result is not None

    def test_unknown_handler_rejected(self):
        program = compile_source(SOURCE)
        machine = Machine(program)
        with pytest.raises(MachineError, match="unknown"):
            machine.install_signal(handler="ghost", period=100)

    def test_bad_period_rejected(self):
        program = compile_source(SOURCE)
        machine = Machine(program)
        with pytest.raises(MachineError, match="period"):
            machine.install_signal(handler="on_tick", period=0)


class TestSignalsAndCCT:
    def _run(self, period=400):
        program = compile_source(SOURCE)
        instrument_context(program)
        runtime = CCTRuntime(MemoryMap().cct.base, collect_hw=True)
        machine = Machine(program)
        machine.cct_runtime = runtime
        machine.install_signal(handler="on_tick", period=period)
        machine.run()
        return machine, runtime

    def test_handler_contexts_hang_off_root(self):
        machine, runtime = self._run()
        handler_records = [r for r in runtime.records if r.id == "on_tick"]
        assert len(handler_records) == 1
        assert handler_records[0].parent is runtime.root
        # The handler's own callees nest under it.
        helper_contexts = {
            tuple(r.context()) for r in runtime.records if r.id == "helper"
        }
        assert ("<root>", "on_tick", "helper") in helper_contexts

    def test_interrupted_contexts_unpolluted(self):
        machine, runtime = self._run()
        compute_records = [r for r in runtime.records if r.id == "compute"]
        assert len(compute_records) == 1
        assert compute_records[0].parent.id == "main"
        # No record claims the handler called compute or vice versa.
        for record in runtime.records:
            chain = record.context()
            if "on_tick" in chain:
                assert "compute" not in chain
                assert "main" not in chain

    def test_handler_frequency_matches_deliveries(self):
        machine, runtime = self._run()
        handler = next(r for r in runtime.records if r.id == "on_tick")
        assert handler.metrics[0] == machine.signals_delivered

    def test_shadow_stack_balanced(self):
        machine, runtime = self._run()
        assert runtime.shadow == []
        assert runtime._interrupted_gcsp == []


class TestSignalsAndPathProfiling:
    def test_path_counts_still_exact(self):
        """Signals interrupt at block boundaries, so the interrupted
        path resumes and commits normally; handler paths count too."""
        program = compile_source(SOURCE)
        runtime = ProfilingRuntime(MemoryMap().profiling.base)
        flow = instrument_paths(program, mode="freq", placement="simple",
                                runtime=runtime)
        machine = Machine(program)
        machine.path_runtime = runtime
        machine.install_signal(handler="on_tick", period=400)
        machine.run()
        handler_counts = flow.path_counts("on_tick")
        assert sum(handler_counts.values()) == machine.signals_delivered
        # compute's loop paths: 40 iterations x 50 calls all accounted.
        compute_total = sum(flow.path_counts("compute").values())
        assert compute_total == 50 * 41  # 40 backedges + exit per call


class TestEnginesAgreeUnderSignals:
    """Handlers preempt at block boundaries on both engines: the fast
    engine's generated segments must reach the same delivery points as
    the reference interpreter, so every fact matches bit for bit."""

    def _run(self, engine, instrument):
        program = compile_source(SOURCE)
        flow = cct = None
        if instrument == "flow":
            runtime = ProfilingRuntime(MemoryMap().profiling.base)
            flow = instrument_paths(program, mode="hw", placement="simple",
                                    runtime=runtime)
        elif instrument == "context":
            instrument_context(program)
            cct = CCTRuntime(MemoryMap().cct.base, collect_hw=True)
        machine = Machine(program, engine=engine)
        if flow is not None:
            machine.path_runtime = flow.runtime
        machine.cct_runtime = cct
        machine.install_signal(handler="on_tick", period=300)
        result = machine.run()
        facts = {
            "counters": dict(result.counters),
            "return_value": result.return_value,
            "delivered": machine.signals_delivered,
            "ticks": machine.memory.read(machine.memory.global_addr(0)),
        }
        if flow is not None:
            facts["paths"] = {
                name: (flow.path_counts(name), flow.path_metrics(name))
                for name in flow.functions
            }
        if cct is not None:
            facts["cct"] = strict_form(cct)
        return facts

    @pytest.mark.parametrize("instrument", ["none", "flow", "context"])
    def test_fast_matches_simple(self, instrument):
        simple = self._run("simple", instrument)
        fast = self._run("fast", instrument)
        assert simple["delivered"] > 0
        assert fast == simple
