"""Benchmark infrastructure: process fan-out and engine speed measurement.

Three independent facilities live here:

* :func:`run_tasks` — parallel fan-out for independent whole-workload
  simulations.  Every table experiment is an embarrassingly parallel
  loop — one simulated machine per workload, no shared state — so the
  suite can fan out across processes.  Opt in with
  ``REPRO_BENCH_JOBS=N`` (or an explicit ``jobs=`` argument); unset,
  ``0``, or ``1`` degrades to a plain serial loop with zero
  multiprocessing involvement, so the default behaviour (and any
  environment without working ``fork``) is unchanged.  Workers must be
  module-level callables (picklable) taking one item from the work
  list; results come back in input order.

* :func:`run_supervised` — fault-aware fan-out for workers that may
  crash, hang, or be killed: one forked process per item, bounded
  concurrency, per-process timeouts, and a :class:`ProcessOutcome`
  (exit code, timed-out flag, wall time) per item instead of a return
  value.  The sharded profiling driver builds its retry/resume logic
  on this.

* :func:`measure_vm_speed` / :func:`measure_instrumented_speed` — time
  the SPEC95-like suite under ``engine="simple"`` (the reference
  if/elif interpreter) and ``engine="fast"`` (the predecoded block
  engine), uninstrumented or under the three instrumented profiling
  modes (flow+HW, context+HW, combined flow+context).  Each measurement
  asserts both engines agree bit-for-bit on every counter, the return
  value, and per-region miss attribution before reporting a speedup,
  and folds each machine's codegen statistics into the per-pass
  payload entries; the results back
  ``BENCH_vm_speed.json`` and ``BENCH_instrumented_speed.json`` at the
  repository root.

The instrumented measurement instruments each workload **once** per
mode and reuses the instrumented program across every timed pass,
attaching fresh (but identically shaped) runtime state per run: a
``copy.deepcopy`` of the pristine post-instrumentation
:class:`~repro.instrument.tables.ProfilingRuntime` and/or a new
:class:`~repro.cct.runtime.CCTRuntime` at the same base address.
Generated segment source bakes in table geometry *values*, not
runtime identity, so warm passes take every block's code object from
the process-wide compile cache — the regime every real experiment runs
in.  Runtime construction and machine setup happen outside the timed
window; only simulation time (which includes each run's decode) is
reported.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def bench_jobs(default: int = 0) -> int:
    """Parallelism requested via ``REPRO_BENCH_JOBS`` (0 means serial)."""
    raw = os.environ.get("REPRO_BENCH_JOBS", "").strip()
    if not raw:
        return default
    try:
        jobs = int(raw)
    except ValueError:
        return default
    return max(jobs, 0)


def run_tasks(
    worker: Callable[[T], R],
    items: Sequence[T],
    jobs: Optional[int] = None,
) -> List[R]:
    """Map ``worker`` over ``items``, optionally across processes.

    ``jobs=None`` reads :func:`bench_jobs`; ``jobs <= 1`` (or fewer
    than two items) runs serially in-process.  Parallel runs use a
    fork-based pool so programs/configs reach workers without pickling
    the simulator state; results preserve input order, and worker
    exceptions propagate to the caller.
    """
    items = list(items)
    if jobs is None:
        jobs = bench_jobs()
    if jobs <= 1 or len(items) < 2:
        return [worker(item) for item in items]

    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    jobs = min(jobs, len(items))
    with ctx.Pool(processes=jobs) as pool:
        return pool.map(worker, items)


@dataclass
class ProcessOutcome:
    """How one supervised worker process ended."""

    index: int
    exitcode: Optional[int]
    timed_out: bool
    seconds: float

    @property
    def ok(self) -> bool:
        return self.exitcode == 0 and not self.timed_out


def run_supervised(
    worker: Callable[[T], None],
    items: Sequence[T],
    jobs: Optional[int] = None,
    timeout: Optional[float] = None,
    poll: float = 0.005,
    on_start: Optional[Callable[[int, int], None]] = None,
) -> List[ProcessOutcome]:
    """Fork one *supervised* process per item; report how each ended.

    Unlike :func:`run_tasks` (a ``Pool.map`` that hangs forever if a
    worker is SIGKILLed and propagates nothing about timeouts), this
    runner exists for workers that are *expected* to die: each item
    gets its own forked process, at most ``jobs`` run concurrently,
    and any process still alive ``timeout`` seconds after its start is
    killed and reported as timed out.  Workers communicate results via
    side effects only (checkpoint files); the supervisor reads nothing
    from them but their exit code.

    ``on_start(index, pid)`` is invoked as each worker launches (for
    run logs).  Outcomes come back in item order.
    """
    import multiprocessing

    items = list(items)
    if jobs is None or jobs <= 0:
        jobs = len(items) or 1
    ctx = multiprocessing.get_context("fork")
    outcomes: List[Optional[ProcessOutcome]] = [None] * len(items)
    pending = list(range(len(items)))
    running: Dict[int, Tuple[object, float, Optional[float]]] = {}
    while pending or running:
        while pending and len(running) < jobs:
            index = pending.pop(0)
            process = ctx.Process(target=worker, args=(items[index],))
            process.start()
            started = time.perf_counter()
            deadline = None if timeout is None else started + timeout
            running[index] = (process, started, deadline)
            if on_start is not None:
                on_start(index, process.pid)
        finished = []
        now = time.perf_counter()
        for index, (process, started, deadline) in running.items():
            if not process.is_alive():
                process.join()
                outcomes[index] = ProcessOutcome(
                    index, process.exitcode, False, now - started
                )
                finished.append(index)
            elif deadline is not None and now >= deadline:
                process.kill()
                process.join()
                outcomes[index] = ProcessOutcome(
                    index, process.exitcode, True, now - started
                )
                finished.append(index)
        for index in finished:
            del running[index]
        if running and not finished:
            time.sleep(poll)
    return [outcome for outcome in outcomes if outcome is not None]


# ---------------------------------------------------------------------------
# Engine speed measurement (BENCH_vm_speed / BENCH_instrumented_speed)
# ---------------------------------------------------------------------------

#: Instrumented profiling modes measured by default, in report order.
INSTRUMENTED_MODES = ("flow_hw", "context_hw", "context_flow")


def prepare_instrumented(program, mode: str):
    """Instrument a clone of ``program`` once for ``mode``.

    A thin wrapper over the canonical pipeline: builds a default
    :class:`~repro.session.ProfileSpec` for ``mode`` and asks a
    :class:`~repro.session.ProfileSession` to instrument.  Returns
    ``(target, fresh)`` where ``target`` is the instrumented program
    (shared by every pass, so its block shapes stay in the process-wide
    compile cache) and ``fresh()`` builds a new
    ``(path_runtime, cct_runtime)`` pair for one run: empty counters,
    identical table geometry and base addresses.
    """
    from repro.session import ProfileSession, ProfileSpec

    instrumented = ProfileSession().instrument(ProfileSpec(mode=mode), program)
    return instrumented.program, lambda: instrumented.runtimes(fresh=True)


#: ``Machine.codegen_stats`` keys folded into bench payloads:
#: ``decoded_blocks - compile_cache_hits`` is the number of
#: ``compile()`` calls a pass made, which a warm pass keeps at 0.
CODEGEN_STAT_KEYS = ("decoded_blocks", "compile_cache_hits")

def _suite_pass(machines) -> Tuple[int, float, list, Dict[str, int]]:
    """Run prepared ``(name, machine)`` pairs; time only ``run()``.

    Returns ``(total instructions, seconds, per-run facts, stats)``
    where the facts — counters, return value, region misses — are what
    engine equality is asserted on and ``stats`` sums every machine's
    ``codegen_stats``.
    """
    total_instructions = 0
    elapsed = 0.0
    facts = []
    stats: Dict[str, int] = {}
    for name, machine in machines:
        start = time.perf_counter()
        result = machine.run()
        elapsed += time.perf_counter() - start
        total_instructions += result.instructions
        facts.append((name, result.counters, result.return_value, result.region_misses))
        for key, value in machine.codegen_stats.items():
            stats[key] = stats.get(key, 0) + value
    return total_instructions, elapsed, facts, stats


def _best_pass(n: int, fn) -> Tuple[int, float, list, Dict[str, int]]:
    """Minimum wall time over ``n`` passes (noise floor, not average)."""
    best = None
    for _ in range(n):
        result = fn()
        if best is None or result[1] < best[1]:
            best = result
    return best


def _tier_entry(instructions: int, seconds: float, stats: Dict[str, int]) -> Dict:
    entry = {
        "seconds": round(seconds, 4),
        "instructions_per_second": round(instructions / seconds),
    }
    entry.update({key: stats.get(key, 0) for key in CODEGEN_STAT_KEYS})
    return entry


def measure_engine_speed(make_pass: Callable[[str], Iterable]) -> Dict:
    """Simple vs fast engine timings over one configuration.

    ``make_pass(engine)`` yields ``(name, ready-to-run Machine)`` pairs
    and is called once per pass (fresh machines, fresh runtime state).
    The simple engine and the warm fast pass run best-of-two; the cold
    fast pass (first decode + compile) is timed once, after emptying
    the process-wide plan and compile caches, which earlier work in the
    process may have warmed.  Raises ``AssertionError`` unless all
    passes produced identical facts — the bit-exactness contract the
    fast engine must honour.
    """
    from repro.machine.engine import _compile_block, _plans

    simple_i, simple_t, simple_facts, _ = _best_pass(
        2, lambda: _suite_pass(make_pass("simple"))
    )
    _plans.clear()
    _compile_block.cache_clear()
    cold_i, cold_t, cold_facts, cold_stats = _suite_pass(make_pass("fast"))
    warm_i, warm_t, warm_facts, warm_stats = _best_pass(
        2, lambda: _suite_pass(make_pass("fast"))
    )
    passes = {"fast_cold": cold_facts, "fast_warm": warm_facts}
    for label, facts in passes.items():
        if facts != simple_facts:
            diverging = [
                fact[0]
                for fact, other in zip(simple_facts, facts)
                if fact != other
            ]
            raise AssertionError(
                f"{label} disagrees with simple on run facts: {diverging}"
            )
    return {
        "simulated_instructions": simple_i,
        "simple": {
            "seconds": round(simple_t, 4),
            "instructions_per_second": round(simple_i / simple_t),
        },
        "fast_cold": _tier_entry(cold_i, cold_t, cold_stats),
        "fast_warm": _tier_entry(warm_i, warm_t, warm_stats),
        "speedup_cold": round(simple_t / cold_t, 2),
        "speedup_warm": round(simple_t / warm_t, 2),
    }


def _build_suite(scale: float, names: Optional[Sequence[str]]) -> Dict:
    from repro.workloads.suite import build_workload, workload_names

    if names is None:
        names = workload_names("SPEC95")
    return {name: build_workload(name, scale) for name in names}


def measure_vm_speed(scale: float, names: Optional[Sequence[str]] = None) -> Dict:
    """Uninstrumented suite throughput, simple vs fast engine."""
    from repro.machine.vm import Machine

    programs = _build_suite(scale, names)

    def make_pass(engine):
        return ((name, Machine(program, engine=engine)) for name, program in programs.items())

    payload = {"scale": scale, "workloads": len(programs)}
    payload.update(measure_engine_speed(make_pass))
    return payload


def measure_instrumented_speed(
    scale: float,
    names: Optional[Sequence[str]] = None,
    modes: Sequence[str] = INSTRUMENTED_MODES,
) -> Dict:
    """Instrumented suite throughput per profiling mode, both engines.

    The headline number (``speedup_warm_flow``, the gate in
    ``BENCH_instrumented_speed.json``) is the warm fast-engine speedup
    on the flow-instrumented suite — the mode where every profiling
    hook fuses into generated code.  Combined mode fuses its CCT hooks
    and its per-context path commits (``table == -1``) of array specs;
    only hash specs keep a runtime call from generated code.
    """
    from repro.machine.vm import Machine

    programs = _build_suite(scale, names)
    payload: Dict = {"scale": scale, "workloads": len(programs), "modes": {}}
    for mode in modes:
        prepared = [
            (name, *prepare_instrumented(program, mode))
            for name, program in programs.items()
        ]

        def make_pass(engine, prepared=prepared):
            for name, target, fresh in prepared:
                machine = Machine(target, engine=engine)
                machine.path_runtime, machine.cct_runtime = fresh()
                yield name, machine

        payload["modes"][mode] = measure_engine_speed(make_pass)
    if "flow_hw" in payload["modes"]:
        payload["speedup_warm_flow"] = payload["modes"]["flow_hw"]["speedup_warm"]
    return payload
