"""Differential check: the compiled engine vs the reference loop.

For every SPEC95-like workload, run the simulator under
``engine="simple"`` (the reference if/elif interpreter) and
``engine="fast"`` (the predecoded block engine) in four configurations
— uninstrumented, path-instrumented ("Flow and HW"), CCT-instrumented
("Context and HW"), and combined flow+context — and require
bit-identical counter snapshots, return values, per-region miss
attribution, path profiles (counts *and* per-path metrics), and exact
CCT state (:func:`~repro.cct.merge.strict_form`: every record, slot,
address, and serialized byte).

This is the acceptance gate for the engine's fused instrumentation
probes: any divergence in any of the sixteen counters, any path count,
or any CCT record on any workload is a bug in the compiled engine.
"""

import dataclasses

import pytest

from repro.cct.merge import strict_form
from repro.machine.counters import Event
from repro.tools.pp import PP
from repro.tools.shard_runner import spec_for_workload, shard_run
from repro.workloads.suite import SPEC95, build_workload

SCALE = 0.25


def _facts(run):
    return (
        dict(run.result.counters),
        run.result.return_value,
        run.result.region_misses,
    )


def _profile_facts(run):
    """Everything a profiling run collected, in comparable form."""
    facts = {}
    if run.path_profile is not None:
        facts["paths"] = {
            fname: (dict(fpp.counts), {k: list(v) for k, v in fpp.metrics.items()})
            for fname, fpp in run.path_profile.functions.items()
        }
    if run.cct is not None:
        facts["cct"] = strict_form(run.cct)
    return facts


def _assert_identical(name, config, simple_run, fast_run):
    simple_counters, simple_rv, simple_rm = _facts(simple_run)
    fast_counters, fast_rv, fast_rm = _facts(fast_run)
    diverging = {
        event: (simple_counters[event], fast_counters[event])
        for event in Event
        if simple_counters.get(event) != fast_counters.get(event)
    }
    assert not diverging, f"{name}/{config}: counter divergence {diverging}"
    assert simple_rv == fast_rv, f"{name}/{config}: return value"
    assert simple_rm == fast_rm, f"{name}/{config}: region misses"
    simple_profiles = _profile_facts(simple_run)
    fast_profiles = _profile_facts(fast_run)
    assert simple_profiles.get("paths") == fast_profiles.get("paths"), (
        f"{name}/{config}: path profiles diverge"
    )
    assert simple_profiles.get("cct") == fast_profiles.get("cct"), (
        f"{name}/{config}: CCT state diverges"
    )


#: Every instrumented profiling configuration of Table 1.
MODES = ("flow_hw", "context_hw", "context_flow")


@pytest.mark.parametrize("name", SPEC95)
def test_engines_agree(name):
    program = build_workload(name, SCALE)
    simple = PP(engine="simple")
    fast = PP(engine="fast")
    _assert_identical(name, "base", simple.baseline(program), fast.baseline(program))
    for mode in MODES:
        _assert_identical(
            name, mode, getattr(simple, mode)(program), getattr(fast, mode)(program)
        )


@pytest.mark.parametrize("name", SPEC95)
def test_engines_agree_kflow(name):
    """Multi-iteration path profiling across every span: the
    k-iteration probes (packed path+layer register, cycle commits at
    back-edges, layer-indexed exit commits) must survive fusion into
    the fast engine's segments with bit-identical counters and k-path
    tables."""
    program = build_workload(name, SCALE)
    simple = PP(engine="simple")
    fast = PP(engine="fast")
    for k in (1, 2, 4):
        _assert_identical(
            name, f"kflow[k={k}]", simple.kflow(program, k=k), fast.kflow(program, k=k)
        )


@pytest.mark.parametrize("name", SPEC95)
def test_engines_agree_under_sharding(name):
    """The sharded driver is engine-transparent: splitting two runs of
    a workload across two shards yields identical merged CCTs and
    counter totals regardless of which execution engine the workers
    use."""
    base = spec_for_workload(name, scale=SCALE, runs=2, mode="context_hw")
    simple, fast = (
        shard_run(dataclasses.replace(base, engine=engine), 2, jobs=1)
        for engine in ("simple", "fast")
    )
    diverging = {
        event: (simple.counters[event], fast.counters[event])
        for event in Event
        if simple.counters[event] != fast.counters[event]
    }
    assert not diverging, f"{name}/sharded: counter divergence {diverging}"
    assert simple.return_values == fast.return_values, f"{name}/sharded: returns"
    assert strict_form(simple.cct) == strict_form(fast.cct), f"{name}/sharded: cct"
