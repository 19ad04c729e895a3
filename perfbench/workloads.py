"""The three benchmark workloads and the verbs they drive.

Every workload is a closed loop run by one client: each verb call
starts after the previous one returned.  A *pass* is one fixed,
seed-determined sequence of verb calls; the timed window runs whole
passes, so every pass of a run measures the same mix.

Verbs go through the library calls their ``repro.cli`` commands make:

* ``profile`` -> ``ProfileSession.run`` (a flow or kflow profile first
  runs its uninstrumented baseline, as ``cmd_profile`` does);
* ``ci`` -> ``ProfileStore.load`` + ``baseline_for`` +
  ``repro.store.detect.diff_profiles``;
* ``optimize --run REF`` -> ``repro.session.pgo.pgo_cycle``;
* ``shard-run`` -> ``repro.tools.shard_runner.shard_run``.

Every output is checked against a reference computed before the timed
window (see :meth:`Workload.references`).  A failed check or an
exception counts as one failed operation and never stops the run.
"""

from __future__ import annotations

import math
import os
import random
import shutil
import statistics
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from hostclock import HostClock
from repro.experiments.pgo import constrained_config
from repro.instrument.pathinstr import instrument_paths
from repro.machine.counters import Event
from repro.machine.reference import ReferenceInterpreter
from repro.machine.vm import Machine
from repro.opt import OptPlan
from repro.profiles.oracle import PathOracle
from repro.session import ProfileSession, ProfileSpec
from repro.session.pgo import pgo_cycle
from repro.session.session import clone_program
from repro.store import ProfileStore, Thresholds
from repro.store import detect
from repro.store.store import code_fingerprint
from repro.tools.shard_runner import ShardSpec, serial_run, shard_run
from repro.workloads.suite import SPEC95, build_workload

perf_counter = time.perf_counter

#: ``repro profile --mode`` names -> ProfileSpec (kflow at k=2).
PROFILE_SPECS = {
    "baseline": ProfileSpec(mode="baseline"),
    "flow": ProfileSpec(mode="flow_hw"),
    "flow-freq": ProfileSpec(mode="flow_freq"),
    "context": ProfileSpec(mode="context_hw"),
    "combined": ProfileSpec(mode="context_flow"),
    "edge": ProfileSpec(mode="edge"),
    "kflow": ProfileSpec(mode="kflow", k=2),
}

#: Modes whose path counts must equal the tracing oracle's.
ORACLE_MODES = {"flow": "hw", "flow-freq": "freq"}

#: Reference-interpreter step budget (the largest sim-long program runs
#: about ten million instructions).
REFERENCE_STEPS = 200_000_000


# -- the verbs -----------------------------------------------------------------


def verb_profile(mode: str, program, store=None, workload=None):
    """``repro profile --mode MODE [--store DIR --workload W]``.

    Returns ``(baseline_run, run)``; ``baseline_run`` is ``None`` for
    modes that do not report an overhead.
    """
    spec = PROFILE_SPECS[mode]
    session = ProfileSession()
    base = None
    if spec.mode in ("flow_hw", "kflow"):
        base = session.run(replace(spec, mode="baseline", k=None), program, ())
    run = session.run(spec, program, (), store=store, workload=workload)
    return base, run


def verb_ci(store: ProfileStore, ref: str):
    """``repro ci REF --store DIR``: ``(candidate, baseline, report)``."""
    cand = store.load(ref)
    base = store.baseline_for(cand)
    if base is None:
        return cand, None, None
    return cand, base, detect.diff_profiles(base, cand, Thresholds())


def verb_optimize(program, store: ProfileStore, ref: str):
    """``repro optimize FILE --store DIR --run REF --icache-size 512
    --icache-assoc 1``: the PGO cycle on the I-cache-constrained machine."""
    return pgo_cycle(
        program,
        session=ProfileSession(config=constrained_config()),
        store=store,
        run_ref=ref,
        plan=OptPlan(),
        thresholds=Thresholds(),
        save=True,
    )


def verb_shard_run(spec: ShardSpec, shards: int, workdir: str):
    """``repro shard-run --shards N --keep DIR``."""
    return shard_run(spec, shards, workdir=workdir)


# -- bookkeeping ---------------------------------------------------------------


class CheckFailed(Exception):
    """An output differs from its reference."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Ledger:
    """Everything the timed passes of one run measured."""

    clock: HostClock = field(default_factory=HostClock)
    #: ``(verb, wall seconds, index of the host probe taken just before)``.
    calls: List[Tuple[str, float, int]] = field(default_factory=list)
    #: ``[start, end)`` call indices of each loop iteration.
    iterations: List[Tuple[int, int]] = field(default_factory=list)
    pass_seconds: List[float] = field(default_factory=list)
    instructions: int = 0
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: Simulated counters per ``(program, version, label)``, first pass.
    sim: Dict[tuple, Dict[Event, int]] = field(default_factory=dict)
    #: Simulated cycle ratios: optimized / original per optimize call.
    optimize_ratios: Dict[tuple, float] = field(default_factory=dict)

    def fail(self, what: str, exc: BaseException) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            detail = "".join(traceback.format_exception_only(type(exc), exc)).strip()
            self.errors.append(f"{what}: {detail}")

    def op(self, verb: str, what: str, call: Callable, account: Callable) -> None:
        """Time one verb call, then account for and check its output.

        ``account(result)`` returns the simulated instructions the call
        executed; it raises :class:`CheckFailed` (or anything else) when
        an output is wrong, which counts the operation as failed.
        """
        self.attempted += 1
        probe = self.clock.probe()
        started = perf_counter()
        try:
            result = call()
        except Exception as exc:  # noqa: BLE001 - counted, run continues
            self.fail(f"{verb} {what}", exc)
            return
        self.calls.append((verb, perf_counter() - started, probe))
        try:
            self.instructions += account(result)
        except Exception as exc:  # noqa: BLE001 - counted, run continues
            self.fail(f"{verb} {what}", exc)

    @contextmanager
    def iteration(self):
        start = len(self.calls)
        yield
        self.iterations.append((start, len(self.calls)))

    def seconds(self, start: int = 0, end: Optional[int] = None) -> List[float]:
        """Call wall times at nominal host speed."""
        return [
            self.clock.normalize(seconds, probe)
            for _, seconds, probe in self.calls[start:end]
        ]

    def latencies(self) -> Dict[str, List[float]]:
        by_verb: Dict[str, List[float]] = defaultdict(list)
        for (verb, _, _), seconds in zip(self.calls, self.seconds()):
            by_verb[verb].append(seconds)
        return by_verb

    def iteration_seconds(self) -> List[float]:
        seconds = self.seconds()
        return [sum(seconds[start:end]) for start, end in self.iterations]

    def note_sim(self, key: tuple, counters: Dict[Event, int]) -> None:
        """Record simulated counters; a later pass must repeat them exactly."""
        counters = dict(counters)
        known = self.sim.setdefault(key, counters)
        expect(known == counters, f"{key}: simulated counters changed between passes")


def geomean(values) -> float:
    values = list(values)
    if not values:
        return float("nan")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def tail(values: List[float], per_pass: int) -> Tuple[float, float]:
    """``(percentile, value)``: the highest nearest-rank percentile that
    leaves at least ten samples of one pass beyond it.

    Fixing the percentile from the per-pass count keeps it the same
    whether a run fits one pass or several.
    """
    percentile = 100.0 * max(1, per_pass - 10) / per_pass
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return percentile, ordered[rank - 1]


def scaled_programs(names, scales: Dict[str, float]):
    return {name: build_workload(name, scales[name]) for name in names}


# -- references ----------------------------------------------------------------


@dataclass
class Reference:
    """What a program must compute, from engines not under test."""

    return_value: object
    #: Oracle path counts per oracle path mode, then per function.
    paths: Dict[str, Dict[str, Dict[int, int]]] = field(default_factory=dict)


def reference_for(program, path_modes=()) -> Reference:
    """Return value from the reference interpreter; path counts from
    the tracing oracle on the uninstrumented program."""
    ref = Reference(ReferenceInterpreter(program, max_steps=REFERENCE_STEPS).run())
    for path_mode in path_modes:
        probe = instrument_paths(clone_program(program), mode=path_mode)
        oracle = PathOracle({n: i.numbering for n, i in probe.functions.items()})
        machine = Machine(clone_program(program))
        machine.tracer = oracle
        machine.run()
        ref.paths[path_mode] = {n: oracle.function_counts(n) for n in probe.functions}
    return ref


def check_profile(mode: str, ref: Reference, base, run) -> None:
    expect(run.return_value == ref.return_value, f"{mode}: wrong return value")
    if base is not None:
        expect(base.return_value == ref.return_value, "baseline: wrong return value")
    path_mode = ORACLE_MODES.get(mode)
    if path_mode is not None:
        counts = {n: dict(f.counts) for n, f in run.path_profile.functions.items()}
        expect(counts == ref.paths[path_mode], f"{mode}: path counts differ from oracle")


# -- workloads -----------------------------------------------------------------


class Workload:
    """One closed-loop workload: set-up, references, and timed passes."""

    name = ""
    #: Verb calls of each kind in one pass (fixes the tail percentile).
    profiles_per_pass = 0

    def __init__(self, seed: int, size: float = 1.0):
        self.rng = random.Random(seed)

    def setup(self, workdir: str):
        raise NotImplementedError

    def references(self, state) -> None:
        raise NotImplementedError

    def run_pass(self, state, ledger: Ledger) -> None:
        raise NotImplementedError

    def ablation_runs(self, state):
        """``(name, program, reference, mode)`` for the cost-model ablation."""
        return []

    def pass_counts(self, state) -> Dict[str, float]:
        """Counts read after a traced pass, outside every span."""
        return {}

    def simulated(self, ledger: Ledger) -> Dict[str, float]:
        """Simulated end-to-end ratios (geomeans over programs)."""
        flow, context = [], []
        for key, counters in ledger.sim.items():
            *program, label = key
            if label != "baseline":
                continue
            base = counters[Event.CYCLES]
            flow_run = ledger.sim.get((*program, "flow"))
            context_run = ledger.sim.get((*program, "context"))
            if flow_run is not None:
                flow.append(flow_run[Event.CYCLES] / base)
            if context_run is not None:
                context.append(context_run[Event.CYCLES] / base)
        return {
            "sim_overhead_flow_x": geomean(flow),
            "sim_overhead_context_x": geomean(context),
        }

    # shared pieces -------------------------------------------------------

    def _jittered(self, names, nominal: Dict[str, float]) -> Dict[str, float]:
        """Seeded scale per program: nominal times a factor in [0.98, 1.02]."""
        return {n: nominal[n] * self.rng.uniform(0.98, 1.02) for n in names}

    def _profile_op(self, ledger, mode, name, key, program, ref, store=None):
        """One ``profile`` call; returns the run (or ``None`` on error)."""
        box = {}

        def account(result):
            base, run = result
            check_profile(mode, ref, base, run)
            box["run"] = run
            ledger.note_sim((*key, mode), run.result.counters)
            instructions = run.result.instructions
            if base is not None:
                ledger.note_sim((*key, "baseline"), base.result.counters)
                instructions += base.result.instructions
            return instructions

        ledger.op(
            "profile",
            f"{mode} {name}",
            lambda: verb_profile(mode, program, store=store, workload=name),
            account,
        )
        return box.get("run")

    def _profile_every_mode(self, state, ledger) -> None:
        """One iteration per program: one ``profile`` call per mode."""
        for name in self.order:
            program = state["programs"][name]
            ref = state["refs"][name]
            with ledger.iteration():
                for mode in self.modes:
                    self._profile_op(ledger, mode, name, (name,), program, ref)


class ProfileCold(Workload):
    """Every suite program, freshly built, profiled once per mode."""

    name = "profile-cold"
    modes = ("flow", "flow-freq", "context", "combined", "edge", "kflow")

    def __init__(self, seed: int, size: float = 1.0):
        super().__init__(seed, size)
        self.names = sorted(SPEC95)
        self.scales = self._jittered(self.names, {n: 0.25 * size for n in self.names})
        self.order = list(self.names)
        self.rng.shuffle(self.order)
        self.profiles_per_pass = len(self.names) * len(self.modes)

    def setup(self, workdir):
        return {"programs": scaled_programs(self.names, self.scales)}

    def references(self, state):
        state["refs"] = {
            name: reference_for(program, ORACLE_MODES.values())
            for name, program in state["programs"].items()
        }

    def run_pass(self, state, ledger):
        self._profile_every_mode(state, ledger)


class SimLong(Workload):
    """One large program per archetype, in the Table 1 modes."""

    name = "sim-long"
    modes = ("baseline", "flow", "context", "combined")
    #: Archetype -> (program, nominal scale).  Scales are sized so each
    #: program simulates on the order of a million instructions or more,
    #: which keeps decode a few percent of the run.
    programs = {
        "loop_kernel": ("132.ijpeg", 6.0),
        "interpreter": ("124.m88ksim", 24.0),
        "layered_calls": ("147.vortex", 12.0),
        "compress": ("129.compress", 8.0),
        "branchy": ("099.go", 3.0),
        "recursive": ("145.fpppp", 24.0),
    }

    def __init__(self, seed: int, size: float = 1.0):
        super().__init__(seed, size)
        nominal = {name: scale * size for name, scale in self.programs.values()}
        self.names = sorted(nominal)
        self.scales = self._jittered(self.names, nominal)
        self.order = list(self.names)
        self.rng.shuffle(self.order)
        self.profiles_per_pass = len(self.names) * len(self.modes)

    def setup(self, workdir):
        return {"programs": scaled_programs(self.names, self.scales)}

    def references(self, state):
        state["refs"] = {
            name: reference_for(program, ("hw",))
            for name, program in state["programs"].items()
        }

    def run_pass(self, state, ledger):
        self._profile_every_mode(state, ledger)

    def ablation_runs(self, state):
        """The flow verb of every program: one uninstrumented and one
        path-instrumented simulation, the pair Table 1 compares."""
        return [
            (name, state["programs"][name], state["refs"][name], "flow")
            for name in self.order
        ]


@dataclass
class Commit:
    """One CI commit: which program versions changed."""

    changed: List[Tuple[str, int]]  # (program, version)


class CiLoop(Workload):
    """A CI job over a pre-filled store, commit after commit.

    Each commit changes a seeded subset of programs (a new version is
    the same program at a slightly different scale, hence new code),
    re-profiles them into the store, gates every stored run with
    ``ci``, optimizes one of them from its stored profile, and runs one
    sharded profile.  Every pass replays the same commits on a fresh
    copy of the pre-filled store.
    """

    name = "ci-loop"
    pool = ("132.ijpeg", "101.tomcatv", "147.vortex", "103.su2cor")
    modes = ("flow", "context", "combined")
    commits_per_pass = 6
    changed_per_commit = 2
    shard_inputs = 4
    #: Earlier commits already in the store when the job starts.
    history = 2

    def __init__(self, seed: int, size: float = 1.0):
        super().__init__(seed, size)
        self.base_scale = self._jittered(self.pool, {n: 0.5 * size for n in self.pool})
        versions = {name: self.history for name in self.pool}
        # Each round shuffles the pool into commits, so every program
        # changes equally often and the simulated geomeans compare
        # like with like across seeds.
        order: List[str] = []
        while len(order) < self.commits_per_pass * self.changed_per_commit:
            round_ = list(self.pool)
            self.rng.shuffle(round_)
            order.extend(round_)
        self.commits: List[Commit] = []
        for start in range(0, len(order), self.changed_per_commit):
            changed = []
            for name in order[start:start + self.changed_per_commit]:
                changed.append((name, versions[name]))
                versions[name] += 1
            self.commits.append(Commit(changed))
        self.scales = {
            name: self._version_scales(name, count) for name, count in versions.items()
        }
        self.profiles_per_pass = (
            self.commits_per_pass * self.changed_per_commit * len(self.modes)
        )
        self.shards = max(1, min(2, os.cpu_count() or 1))

    def _version_scales(self, name: str, count: int) -> List[float]:
        """Scales of ``count`` versions with pairwise different code.

        Candidates zig-zag around the base scale (+1%, -1%, +2%, ...) so
        versions stay close to one size; a candidate whose code equals
        an earlier version's (iteration counts round) is skipped.
        """
        scales, seen, step = [], set(), 0
        while len(scales) < count:
            offset = (step + 1) // 2 * (1 if step % 2 else -1)
            step += 1
            scale = self.base_scale[name] * (1.0 + 0.01 * offset)
            if scale <= 0:
                continue
            fingerprint = code_fingerprint(build_workload(name, scale))
            if fingerprint not in seen:
                seen.add(fingerprint)
                scales.append(scale)
        return scales

    def scale_of(self, name: str, version: int) -> float:
        return self.scales[name][version]

    def setup(self, workdir):
        programs = {
            (name, version): build_workload(name, scale)
            for name, scales in self.scales.items()
            for version, scale in enumerate(scales)
        }
        store_dir = os.path.join(workdir, "store-filled")
        shutil.rmtree(store_dir, ignore_errors=True)
        store = ProfileStore(store_dir)
        lineage: Dict[Tuple[str, str], List[str]] = defaultdict(list)
        for version in range(self.history):
            for name in self.pool:
                for mode in self.modes:
                    _, run = verb_profile(
                        mode, programs[(name, version)], store=store, workload=name
                    )
                    lineage[(name, mode)].append(run.stored_as)
        return {
            "programs": programs,
            "store_dir": store_dir,
            "workdir": workdir,
            "lineage": dict(lineage),
        }

    def shard_spec(self, name: str, version: int) -> ShardSpec:
        return ShardSpec(
            workload=name,
            scale=self.scale_of(name, version),
            inputs=[()] * self.shard_inputs,
            mode="context_flow",
        )

    def references(self, state):
        refs = {}
        shards = {}
        for commit in self.commits:
            for key in commit.changed:
                refs[key] = reference_for(state["programs"][key], ("hw",))
            key = commit.changed[0]
            shards[key] = serial_run(self.shard_spec(*key))
        state["refs"] = refs
        state["shard_refs"] = shards

    def run_pass(self, state, ledger):
        store_dir = os.path.join(state["workdir"], "store")
        shutil.rmtree(store_dir, ignore_errors=True)
        shutil.copytree(state["store_dir"], store_dir)
        store = ProfileStore(store_dir)
        lineage = {key: list(ids) for key, ids in state["lineage"].items()}
        for commit in self.commits:
            with ledger.iteration():
                self._commit(state, ledger, store, lineage, commit)

    def _commit(self, state, ledger, store, lineage, commit):
        stored = []
        for name, version in commit.changed:
            program = state["programs"][(name, version)]
            ref = state["refs"][(name, version)]
            for mode in self.modes:
                run = self._profile_op(
                    ledger, mode, name, (name, version), program, ref, store=store
                )
                if run is not None:
                    history = lineage[(name, mode)]
                    stored.append((run.stored_as, history[-1]))
                    history.append(run.stored_as)
        for run_id, expected_base in stored:
            self._ci_op(ledger, store, run_id, expected_base)
        name, version = commit.changed[0]
        self._optimize_op(ledger, state, store, name, version, lineage[(name, "combined")][-1])
        self._shard_op(ledger, state, name, version)

    def _ci_op(self, ledger, store, run_id, expected_base):
        def account(result):
            cand, base, report = result
            expect(cand.run_id == run_id, "ci loaded the wrong run")
            expect(base is not None, "ci found no baseline")
            expect(base.run_id == expected_base, "ci gated against the wrong baseline")
            expect(report.candidate == run_id and report.baseline == expected_base,
                   "ci report names the wrong runs")
            return 0

        ledger.op("ci", run_id[:12], lambda: verb_ci(store, run_id), account)

    def _optimize_op(self, ledger, state, store, name, version, run_id):
        ref = state["refs"][(name, version)]
        program = state["programs"][(name, version)]

        def account(report):
            expect(report.architectural_match, "optimize: architectural mismatch")
            expect(report.optimized_return == ref.return_value,
                   "optimize: wrong return value")
            before = report.baseline_counters[Event.CYCLES]
            after = report.optimized_counters[Event.CYCLES]
            ledger.optimize_ratios.setdefault((name, version), after / before)
            return (
                report.baseline_counters[Event.INSTRS]
                + report.optimized_counters[Event.INSTRS]
            )

        ledger.op(
            "optimize",
            f"{name} v{version}",
            lambda: verb_optimize(program, store, run_id),
            account,
        )

    def _shard_op(self, ledger, state, name, version):
        spec = self.shard_spec(name, version)
        expected = state["shard_refs"][(name, version)]
        workdir = os.path.join(state["workdir"], "shards")
        os.makedirs(workdir, exist_ok=True)

        def account(outcome):
            expect(outcome.return_values == expected.return_values,
                   "shard-run: return values differ from serial_run")
            expect(outcome.counters == expected.counters,
                   "shard-run: counters differ from serial_run")
            return outcome.counters[Event.INSTRS]

        ledger.op(
            "shard-run",
            f"{name} v{version}",
            lambda: verb_shard_run(spec, self.shards, workdir),
            account,
        )

    def pass_counts(self, state):
        """Rows in the index and net bytes the pass added to the store."""
        store_dir = os.path.join(state["workdir"], "store")
        return {
            "store.index_rows": len(ProfileStore(store_dir).entries()),
            "store.bytes_written": tree_bytes(store_dir) - tree_bytes(state["store_dir"]),
        }

    def simulated(self, ledger):
        ratios = super().simulated(ledger)
        ratios["optimize_cycles_x"] = geomean(ledger.optimize_ratios.values())
        return ratios


def tree_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(folder, name))
        for folder, _, names in os.walk(path)
        for name in names
    )


WORKLOADS = {cls.name: cls for cls in (ProfileCold, SimLong, CiLoop)}


def median(values) -> float:
    return statistics.median(values) if values else float("nan")
