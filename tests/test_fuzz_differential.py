"""Differential fuzzing: both engines, random programs, every mode.

The hand-built workload suite exercises the engines on *realistic*
control flow; this suite exercises them on *adversarial* control flow
— randomly composed branches, counted loops, call DAGs, and scratch
loads/stores from ``tests/ir_strategies.py`` — and requires the
predecoded engine to match the reference interpreter bit for bit on
every run fact: all sixteen hardware counters, the return value,
per-region miss attribution, path profiles (counts and per-path metric
vectors), and exact CCT state (:func:`strict_form`).

Generated loops run only a handful of iterations, so dedicated
hot-loop tests additionally draw programs with 8–32-iteration loops,
where compiled segments and fused probes run many times per block.

The examples are derandomized (fixed seed), so a CI failure is
reproducible locally with the same example count.  The bound comes
from ``REPRO_FUZZ_EXAMPLES`` (default 15; CI's smoke job raises it).
"""

import os

from hypothesis import HealthCheck, given, settings

from repro.cct.merge import strict_form
from repro.machine.counters import Event
from repro.tools.pp import PP

from tests.ir_strategies import ir_hot_programs, ir_programs

EXAMPLES = int(os.environ.get("REPRO_FUZZ_EXAMPLES", "15"))

#: Every instrumented profiling configuration of Table 1.
MODES = ("flow_hw", "context_hw", "context_flow")

FUZZ_SETTINGS = settings(
    max_examples=EXAMPLES,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _facts(run):
    return (
        dict(run.result.counters),
        run.result.return_value,
        run.result.region_misses,
    )


def _path_facts(run):
    if run.path_profile is None:
        return None
    return {
        name: (dict(fpp.counts), {k: list(v) for k, v in fpp.metrics.items()})
        for name, fpp in run.path_profile.functions.items()
    }


def _assert_engines_identical(config, simple_run, fast_run):
    simple_counters, simple_rv, simple_rm = _facts(simple_run)
    fast_counters, fast_rv, fast_rm = _facts(fast_run)
    diverging = {
        event.name: (simple_counters.get(event), fast_counters.get(event))
        for event in Event
        if simple_counters.get(event) != fast_counters.get(event)
    }
    assert not diverging, f"{config}: counter divergence {diverging}"
    assert simple_rv == fast_rv, f"{config}: return value"
    assert simple_rm == fast_rm, f"{config}: region misses"
    assert _path_facts(simple_run) == _path_facts(fast_run), (
        f"{config}: path profiles diverge"
    )
    if simple_run.cct is not None or fast_run.cct is not None:
        assert strict_form(simple_run.cct) == strict_form(fast_run.cct), (
            f"{config}: CCT state diverges"
        )


def _check_engines(config, mode, program):
    simple = getattr(PP(engine="simple"), mode)(program)
    fast = getattr(PP(engine="fast"), mode)(program)
    _assert_engines_identical(config, simple, fast)


@FUZZ_SETTINGS
@given(program=ir_programs())
def test_fuzz_engines_agree_uninstrumented(program):
    _check_engines("base", "baseline", program)


@FUZZ_SETTINGS
@given(program=ir_programs())
def test_fuzz_engines_agree_flow(program):
    _check_engines("flow_hw", "flow_hw", program)


@FUZZ_SETTINGS
@given(program=ir_programs())
def test_fuzz_engines_agree_context(program):
    _check_engines("context_hw", "context_hw", program)


@FUZZ_SETTINGS
@given(program=ir_programs())
def test_fuzz_engines_agree_combined(program):
    _check_engines("context_flow", "context_flow", program)


#: Iteration spans the multi-iteration path mode is fuzzed at.  k=1 is
#: the flow_hw-equivalent degenerate case; 2 and 4 force the packed
#: register through cross-layer bumps and cycle commits.
KFLOW_SPANS = (1, 2, 4)


@FUZZ_SETTINGS
@given(program=ir_programs())
def test_fuzz_engines_agree_kflow(program):
    """Multi-iteration path probes (KPathAdd/KHwcCycle/KHwcExit) fuse
    into the compiled engine bit-identically for every iteration span:
    same counters, same k-path counts, same per-path metric vectors."""
    for k in KFLOW_SPANS:
        simple = PP(engine="simple").kflow(program, k=k)
        fast = PP(engine="fast").kflow(program, k=k)
        _assert_engines_identical(f"kflow[k={k}]", simple, fast)


@FUZZ_SETTINGS
@given(program=ir_hot_programs())
def test_fuzz_engines_agree_on_hot_kflow_loops(program):
    """Hot loops under k=2: the packed path+layer register crosses
    many back-edges — every cycle commit must preserve it exactly."""
    simple = PP(engine="simple").kflow(program, k=2)
    fast = PP(engine="fast").kflow(program, k=2)
    _assert_engines_identical("hot/kflow[k=2]", simple, fast)


@FUZZ_SETTINGS
@given(program=ir_hot_programs())
def test_fuzz_engines_agree_on_hot_loops(program):
    """Hot counted loops take their back-edge many times before the
    loop exit — uninstrumented and under the mode where every flow
    probe is fused into generated segment code."""
    _check_engines("hot/base", "baseline", program)
    _check_engines("hot/flow_hw", "flow_hw", program)


@FUZZ_SETTINGS
@given(program=ir_programs())
def test_fuzz_reference_interpreter_agrees(program):
    """The generated programs also satisfy the pure-Python reference
    semantics: every engine returns what the instruction-set reference
    interpreter computes (a semantics check, not just engine parity)."""
    from repro.machine.reference import ReferenceInterpreter

    expected = ReferenceInterpreter(program).run()
    for engine in ("simple", "fast"):
        run = PP(engine=engine).baseline(program)
        assert run.result.return_value == expected, engine
