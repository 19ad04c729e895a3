"""Timed and traced passes, and the metrics computed from them."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from hostclock import NOMINAL_PROBE_SECONDS
from repro.machine.counters import Event
from tracer import Tracer
from workloads import Ledger, expect, median, tail, verb_profile

perf_counter = time.perf_counter

#: ``(where the caller looks it up, attribute, layer)``.  Layers that
#: nest (``store.load`` resolves refs through ``store.index``) are
#: reported as self time, so the layers add up to the traced wall time.
LAYERS = (
    ("repro.session.session", "clone_program", "session.clone"),
    ("repro.session.pgo", "clone_program", "session.clone"),
    ("repro.session.session", "instrument_paths", "instrument"),
    ("repro.session.session", "instrument_context", "instrument"),
    ("repro.session.session", "instrument_edges", "instrument"),
    ("repro.session.session", "instrument_kpaths", "instrument"),
    ("repro.machine.engine", "decode_block", "machine.decode"),
    ("repro.machine.vm:Machine", "run", "machine.run"),
    ("repro.session.session", "collect_path_profile", "profiles.collect"),
    ("repro.tools.shard_runner", "collect_path_profile", "profiles.collect"),
    ("repro.store.store:ProfileStore", "save_run", "store.save"),
    ("repro.store.store:ProfileStore", "save_outcome", "store.save"),
    ("repro.store.store:ProfileStore", "resolve", "store.index"),
    ("repro.store.store:ProfileStore", "entries", "store.index"),
    ("repro.store.store:ProfileStore", "baseline_for", "store.index"),
    ("repro.store.store:ProfileStore", "load", "store.load"),
    ("repro.store.detect", "diff_profiles", "store.detect"),
    ("repro.opt.measured:MeasuredProfile", "from_stored", "opt.measured"),
    ("repro.session.pgo", "run_pipeline", "opt.pipeline"),
    ("repro.tools.shard_runner", "run_supervised", "tools.shard_wall"),
    ("repro.tools.shard_runner", "load_cct", "cct.serialize"),
    ("repro.tools.shard_runner", "save_cct", "cct.serialize"),
    ("repro.store.store", "load_cct", "cct.serialize"),
    ("repro.store.store", "save_cct", "cct.serialize"),
    ("repro.tools.shard_runner", "merge_ccts", "cct.merge"),
)

#: Simulated counters summed into the ``sim.*`` metrics.
SIM_EVENTS = {
    "sim.instructions": Event.INSTRS,
    "sim.cycles": Event.CYCLES,
    "sim.dc_miss": Event.DC_MISS,
    "sim.ic_miss": Event.IC_MISS,
    "sim.br_mispred": Event.BR_MISPRED,
    "sim.sb_stall": Event.SB_STALL,
}

#: Cost-model components the ablation replaces, one at a time.
ABLATED = ("dcache", "icache", "predictor")


@dataclass
class Result:
    ledger: Ledger
    values: Dict[str, float]
    notes: List[str] = field(default_factory=list)
    tracer: Optional[Tracer] = None


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _program_size(program) -> int:
    return sum(len(b.instrs) for f in program.functions.values() for b in f.blocks)


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer of :data:`LAYERS`, with counts at the same boundaries."""
    counts = tracer.counts
    instrumented = {"target": None}

    def before_instrument(args):
        target = args[0]
        size = _program_size(target)
        if instrumented["target"] is not target:
            instrumented["target"] = target
            counts["instrument.original"] += size
        instrumented["size"] = size

    def after_instrument(result, args):
        counts["instrument.growth"] += _program_size(args[0]) - instrumented["size"]

    def before_run(args):
        if tracer.before_run is not None:
            tracer.before_run(args[0])

    def after_run(result, args):
        for metric, event in SIM_EVENTS.items():
            counts[metric] += result.counters[event]
        stats = args[0].codegen_stats
        counts["decode.hits"] += stats.get("source_cache_hits", 0)
        counts["decode.misses"] += stats.get("source_cache_misses", 0)

    def after_diff(report, args):
        counts["store.detect_findings"] += len(report.findings)

    def after_pipeline(result, args):
        counts["opt.passes_changed"] += sum(1 for p in result.passes if p.changed)

    def after_merge(merged, args):
        counts["cct.merge_records"] += len(merged.records)

    hooks = {
        "instrument": (before_instrument, after_instrument),
        "machine.run": (before_run, after_run),
        "store.detect": (None, after_diff),
        "opt.pipeline": (None, after_pipeline),
        "cct.merge": (None, after_merge),
    }
    for target, attr, layer in LAYERS:
        before, after = hooks.get(layer, (None, None))
        tracer.wrap(target, attr, layer, after=after, before=before)


# -- untraced ------------------------------------------------------------------


def _keep_going(begun: float, seconds: float, pass_seconds: List[float], block: int) -> bool:
    """Whole blocks of passes only: start another if it should end in time."""
    done = len(pass_seconds)
    if done % block or not done:
        return True
    return perf_counter() - begun + block * max(pass_seconds) <= seconds


def _finite(values: Dict[str, float]) -> Dict[str, float]:
    """Non-finite values (no samples) become 0; the run is failed anyway."""
    return {k: (v if math.isfinite(v) else 0.0) for k, v in values.items()}


def timed_run(workload, state, seconds: float) -> Result:
    """Whole untraced passes for ``seconds``; the end-to-end metrics."""
    ledger = Ledger()
    begun = perf_counter()
    while _keep_going(begun, seconds, ledger.pass_seconds, 1):
        started = perf_counter()
        workload.run_pass(state, ledger)
        ledger.pass_seconds.append(perf_counter() - started)
    ledger.clock.probe()  # the host speed after the last call
    latencies = ledger.latencies()
    profiles = latencies["profile"]
    percentile, tail_value = tail(profiles, workload.profiles_per_pass) if profiles else (0, math.nan)
    verb_seconds = sum(ledger.seconds())
    values = {
        "profile_p50_ms": _ms(median(profiles)),
        "profile_tail_ms": _ms(tail_value),
        "iteration_p50_ms": _ms(median(ledger.iteration_seconds())),
        "throughput_minstr_s": (
            ledger.instructions / verb_seconds / 1e6 if verb_seconds else math.nan
        ),
    }
    values.update(workload.simulated(ledger))
    if not profiles:
        ledger.failed = max(ledger.failed, 1)
    raw_profiles = [s for verb, s, _ in ledger.calls if verb == "profile"]
    notes = [
        f"passes {len(ledger.pass_seconds)}: "
        + " ".join(f"{s:.2f}" for s in ledger.pass_seconds) + " s",
        f"host probe median {_ms(median(ledger.clock.probes)):.3f} ms "
        f"(nominal {_ms(NOMINAL_PROBE_SECONDS):.3f} ms); "
        f"unscaled profile p50 {_ms(median(raw_profiles)):.2f} ms",
        f"profile_tail_ms is p{percentile:.1f} of n={len(profiles)} profile calls",
    ]
    for verb, samples in sorted(latencies.items()):
        notes.append(f"verb {verb}: n={len(samples)} p50 {_ms(median(samples)):.2f} ms")
    return Result(ledger, _finite(values), notes)


# -- traced --------------------------------------------------------------------


class AlwaysHit:
    """Stands in for a cache or the branch predictor: every access hits."""

    def access(self, address, allocate=True):
        return True

    def predict_and_update(self, address, taken):
        return True


def traced_run(workload, state, seconds: float) -> Result:
    """Untraced and traced passes in blocks ordered untraced, traced,
    traced, untraced, so a drift in host speed cancels out of the
    tracing overhead; the per-layer metrics.

    An untimed warm-up pass runs first: the first pass of a process is
    slower (first forks, first store writes), which would otherwise
    count against the untraced side.
    """
    warm_up = Ledger()
    workload.run_pass(state, warm_up)
    untraced = Ledger(sim=warm_up.sim, optimize_ratios=warm_up.optimize_ratios)
    traced = Ledger(
        clock=untraced.clock, sim=untraced.sim, optimize_ratios=untraced.optimize_ratios
    )
    tracer = Tracer()
    passes = {False: [], True: []}  # (start, end) call indices per pass
    pass_counts: Dict[str, float] = {}
    all_passes: List[float] = []
    begun = perf_counter()
    while _keep_going(begun, seconds, all_passes, 4):
        is_traced = len(all_passes) % 4 in (1, 2)
        ledger = traced if is_traced else untraced
        first = len(ledger.calls)
        started = perf_counter()
        if is_traced:
            install_layers(tracer)
        try:
            workload.run_pass(state, ledger)
        finally:
            tracer.uninstall()
        all_passes.append(perf_counter() - started)
        passes[is_traced].append((first, len(ledger.calls)))
        if is_traced:
            for key, value in workload.pass_counts(state).items():
                pass_counts[key] = pass_counts.get(key, 0.0) + value
    untraced.clock.probe()
    per_call = {
        is_traced: [(traced if is_traced else untraced).seconds(*bounds) for bounds in spans]
        for is_traced, spans in passes.items()
    }
    verb_seconds = {key: [sum(calls) for calls in runs] for key, runs in per_call.items()}

    n = len(verb_seconds[True])
    self_time = tracer.self_time
    counts = tracer.counts
    traced_wall = sum(verb_seconds[True])
    raw_wall = sum(s for _, s, _ in traced.calls)
    # Layer times are read off the raw clock; scale them like the calls.
    scale = traced_wall / raw_wall if raw_wall else 0.0

    def layer_ms(layer):
        return _ms(self_time.get(layer, 0.0)) * scale / n

    def per_pass(key):
        return counts.get(key, 0.0) / n

    covered = sum(self_time.values()) / raw_wall if raw_wall else 0.0
    verb_p50 = {verb: _ms(median(s)) for verb, s in untraced.latencies().items()}
    original = counts.get("instrument.original", 0.0)
    hits, misses = counts.get("decode.hits", 0.0), counts.get("decode.misses", 0.0)
    instructions = counts.get("sim.instructions", 0.0)
    values = {
        "session.clone_ms": layer_ms("session.clone"),
        "instrument.self_ms": layer_ms("instrument"),
        "instrument.code_growth_x": (
            (original + counts.get("instrument.growth", 0.0)) / original if original else 0.0
        ),
        "machine.decode_ms": layer_ms("machine.decode"),
        "machine.decode_blocks": tracer.calls.get("machine.decode", 0) / n,
        "machine.decode_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "machine.run_ms": layer_ms("machine.run"),
        "machine.ns_per_sim_instr": (
            self_time.get("machine.run", 0.0) * scale * 1e9 / instructions
            if instructions
            else 0.0
        ),
        "profiles.collect_ms": layer_ms("profiles.collect"),
        "store.save_ms": layer_ms("store.save"),
        "store.index_ms": layer_ms("store.index"),
        "store.load_ms": layer_ms("store.load"),
        "store.detect_ms": layer_ms("store.detect"),
        "store.detect_findings": per_pass("store.detect_findings"),
        "opt.measured_ms": layer_ms("opt.measured"),
        "opt.pipeline_ms": layer_ms("opt.pipeline"),
        "opt.passes_changed": per_pass("opt.passes_changed"),
        "tools.shard_wall_ms": layer_ms("tools.shard_wall"),
        "cct.serialize_ms": layer_ms("cct.serialize"),
        "cct.merge_ms": layer_ms("cct.merge"),
        "cct.merge_records": per_pass("cct.merge_records"),
        "tracing.wall_ms": _ms(traced_wall) / n,
        "tracing.coverage_pct": 100.0 * covered,
        "tracing.overhead_pct": 100.0 * (_paired_ratio(per_call) - 1.0),
        "ci_p50_ms": verb_p50.get("ci", 0.0),
        "optimize_p50_ms": verb_p50.get("optimize", 0.0),
        "shard_run_p50_ms": verb_p50.get("shard-run", 0.0),
    }
    for metric in SIM_EVENTS:
        values[metric] = per_pass(metric)
    for key in ("store.bytes_written", "store.index_rows"):
        values[key] = pass_counts.get(key, 0.0) / n
    values["optimize_cycles_x"] = workload.simulated(untraced).get("optimize_cycles_x", 0.0)

    ablation = Ledger()
    values.update(ablate(workload, state, ablation))

    parts = (warm_up, untraced, traced, ablation)
    ledger = Ledger(
        attempted=sum(part.attempted for part in parts),
        failed=sum(part.failed for part in parts),
        errors=[error for part in parts for error in part.errors],
    )
    notes = [
        f"passes {len(all_passes)} ({n} traced)  timed {sum(all_passes):.1f} s",
        f"traced verb time per pass {_ms(traced_wall) / n:.1f} ms, "
        f"untraced {_ms(median(verb_seconds[False])):.1f} ms",
    ]
    for layer in sorted(self_time, key=self_time.get, reverse=True):
        notes.append(
            f"layer {layer:18} self {100.0 * self_time[layer] / (raw_wall or 1.0):5.1f}%"
            f"  calls {tracer.calls[layer] / n:.0f}/pass"
        )
    return Result(ledger, _finite(values), notes, tracer)


def _paired_ratio(per_call: Dict[bool, List[List[float]]]) -> float:
    """Traced over untraced time of the same call, median over calls.

    Every pass makes the same calls in the same order, so call ``j`` of
    a traced pass pairs with call ``j`` of an untraced one; the median
    of the pairs shrugs off the host noise a ratio of pass sums keeps.
    Falls back to the ratio of sums when a failed call broke the pairing.
    """
    traced, untraced = per_call[True], per_call[False]
    if len({len(calls) for calls in traced + untraced}) != 1:
        total = sum(map(sum, untraced))
        return sum(map(sum, traced)) / total if total else math.nan
    return median([sum(t) / sum(u) for t, u in zip(zip(*traced), zip(*untraced))])


def ablate(workload, state, ledger: Ledger) -> Dict[str, float]:
    """Marginal share of ``machine.run`` time of each cost-model component.

    Each ``(program, mode)`` the workload names is profiled with the
    full model, once with each component replaced by
    :class:`AlwaysHit` before the first instruction runs (the fast
    engine binds them when it decodes), and with the full model again.
    Only return values are checked: the counters change by design.
    """
    shares = {f"machine.{name}_share": 0.0 for name in ABLATED}
    runs = workload.ablation_runs(state)
    if not runs:
        return shares
    tracer = Tracer()
    install_layers(tracer)
    samples = []  # (component, machine.run seconds, host probe index)
    try:
        for name, program, ref, mode in runs:
            # The full model runs before and after the ablated ones, so
            # drift in host speed over the five runs cancels.
            for component in (None,) + ABLATED + (None,):
                tracer.before_run = (
                    None
                    if component is None
                    else (lambda machine, c=component: setattr(machine, c, AlwaysHit()))
                )
                before = tracer.self_time.get("machine.run", 0.0)

                def account(result, ref=ref):
                    base, run = result
                    expect(run.return_value == ref.return_value, "wrong return value")
                    if base is not None:
                        expect(base.return_value == ref.return_value, "wrong return value")
                    return 0

                ledger.op(
                    "ablation",
                    f"{mode} {name} without {component}",
                    lambda: verb_profile(mode, program),
                    account,
                )
                spent = tracer.self_time.get("machine.run", 0.0) - before
                samples.append((component, spent, len(ledger.clock.probes) - 1))
    finally:
        tracer.before_run = None
        tracer.uninstall()
    ledger.clock.probe()
    run_seconds = dict.fromkeys((None,) + ABLATED, 0.0)
    for component, spent, probe in samples:
        run_seconds[component] += ledger.clock.normalize(spent, probe)
    full = run_seconds[None] / 2
    for component in ABLATED:
        if full:
            shares[f"machine.{component}_share"] = (full - run_seconds[component]) / full
    return shares
