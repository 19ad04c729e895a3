"""The fast engine's cost-model forms: inline hit paths and call forms.

Generated segment code inlines the common case of each default model —
the direct-mapped D-cache tag test, the I-cache most-recent-line test,
the two-bit predictor update and the store-buffer push — and reaches
any other model object through a call.  The inline forms bake cache
and store-buffer geometry into the source and bind I-cache sets and
predictor slots, so these tests run the differential check (counters,
return value, region misses, path tables, exact CCT) under configs
that move every one of those values, and under the ablation stubs the
benchmark swaps in.
"""

import dataclasses

import pytest

from repro.ir.asm import parse_program
from repro.machine.config import MachineConfig
from repro.machine.vm import Machine
from repro.tools.pp import PP
from repro.workloads.suite import build_workload
from tests.test_engine_codeshare import ARG, TWINS
from tests.test_engine_differential import _assert_identical

#: Configs that move what the inline forms bake in or bind, plus the
#: set-associative D-cache that selects the call form.
CONFIGS = {
    "dcache_geometry": {"dcache_size": 4 * 1024, "dcache_line": 64},
    "dcache_assoc": {"dcache_assoc": 2},
    "write_allocate": {"dcache_write_allocate": True},
    "dcache_assoc_write_allocate": {"dcache_assoc": 2, "dcache_write_allocate": True},
    "l2": {"l2_enabled": True},
    "predictor_entries": {"predictor_entries": 64},
    "sb_depth1_drain0": {"store_buffer_depth": 1, "store_drain_cycles": 0},
    "sb_depth1_drain3": {"store_buffer_depth": 1, "store_drain_cycles": 3},
    "sb_depth2_drain0": {"store_buffer_depth": 2, "store_drain_cycles": 0},
    "sb_depth2_drain3": {"store_buffer_depth": 2, "store_drain_cycles": 3},
    "pgo_icache": {"icache_size": 512, "icache_assoc": 1},
}

MODES = ("baseline", "flow_hw", "context_flow")

#: Suite programs: call-heavy integer, heap-heavy list code, FP arrays.
SUITE = ("099.go", "130.li", "102.swim")
SCALE = 0.1


def _sources(run):
    return [decoded.source for decoded in run.machine._decoded.values()]


@pytest.mark.parametrize("label", sorted(CONFIGS))
@pytest.mark.parametrize("name", ("twins",) + SUITE)
def test_engines_agree_under_every_geometry(label, name):
    config = dataclasses.replace(MachineConfig(), **CONFIGS[label])
    for mode in MODES:
        if name == "twins":
            program, args = parse_program(TWINS), (ARG,)
        else:
            program, args = build_workload(name, SCALE), ()
        simple = getattr(PP(config, engine="simple"), mode)(program, args)
        fast = getattr(PP(config, engine="fast"), mode)(program, args)
        _assert_identical(name, f"{label}/{mode}", simple, fast)
        text = "".join(_sources(fast))
        # The D-cache form follows the cache's class.
        if config.dcache_assoc == 1:
            assert "_dt[" in text and "_dca(" not in text
        else:
            assert "_dca(" in text and "_dt[" not in text


class AlwaysHit:
    """The benchmark's ablation stub: every access hits, every branch
    is predicted, and nothing else of a model's interface exists."""

    def access(self, address, allocate=True):
        return True

    def predict_and_update(self, address, taken):
        return True


COMPONENTS = ("dcache", "icache", "predictor")


def _run(program, engine, component=None):
    machine = Machine(program, engine=engine)
    if component is not None:
        setattr(machine, component, AlwaysHit())
    return machine.run(ARG)


@pytest.mark.parametrize("component", COMPONENTS)
def test_stub_set_before_run_takes_the_call_form(component):
    expected = _run(parse_program(TWINS), "simple")
    stub_expected = _run(parse_program(TWINS), "simple", component)
    assert stub_expected.return_value == expected.return_value == 2 * ARG
    assert stub_expected.counters != expected.counters
    # Clones of one program alternate between the forms: default, then
    # the stub, then default again.  Each run decodes its clone afresh.
    program = parse_program(TWINS)
    for stubbed in (False, True, False):
        program = program.clone()
        result = _run(program, "fast", component if stubbed else None)
        assert result.counters == (stub_expected if stubbed else expected).counters
        assert result.return_value == 2 * ARG


@pytest.mark.parametrize("component", COMPONENTS)
def test_stub_in_a_profiling_run(component, monkeypatch):
    """As the benchmark's ablation does it: the stub replaces the model
    inside every profiling run, so fused probe traffic uses it too."""
    program = build_workload("130.li", SCALE)
    reference = PP(engine="simple").flow_hw(program)
    original_run = Machine.run

    def run_with_stub(machine, *args, **kwargs):
        setattr(machine, component, AlwaysHit())
        return original_run(machine, *args, **kwargs)

    monkeypatch.setattr(Machine, "run", run_with_stub)
    simple = PP(engine="simple").flow_hw(program)
    fast = PP(engine="fast").flow_hw(program)
    _assert_identical("130.li", f"flow_hw without {component}", simple, fast)
    assert fast.result.return_value == reference.result.return_value
    monkeypatch.undo()
    _assert_identical(
        "130.li", "flow_hw after the stub", reference, PP(engine="fast").flow_hw(program)
    )
