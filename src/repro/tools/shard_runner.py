"""Sharded profiling: split a workload's input set across workers.

Scaling the reproduction past one process per workload means running
shards of an input set concurrently and *aggregating* their profiles —
the same problem PGO systems solve when combining per-process
hardware-counter dumps.  The driver here:

1. splits the input set round-robin across ``shards`` workers and
   writes a **run manifest** describing the split;
2. each worker (a forked process supervised by
   :func:`repro.tools.bench_runner.run_supervised`) runs its inputs
   serially, merges the per-run CCTs with
   :func:`repro.cct.merge.merge_ccts`, and **checkpoints** the shard's
   aggregate atomically: the CCT dump via
   :func:`repro.cct.serialize.save_cct` (tmp-file + rename) and a
   digest-carrying result file referencing it;
3. the parent validates each checkpoint (exit code, result digest,
   CCT dump digest), **retries** failed, hung, or corrupt shards with
   bounded backoff, reloads the dumps, and merges them into one
   aggregate CCT / path profile and one summed hardware-counter bank.

Because the merge is commutative and associative with the empty CCT
as identity (see :mod:`repro.cct.merge`), the aggregate is identical
for every shard count — including ``shards=1`` — and identical to
:func:`serial_run`, the in-process reference that never forks or
touches disk.  The same algebra is what makes the runner *resumable*:
a shard's checkpoint is a pure function of the spec and its input
chunk, so :func:`resume_run` can re-execute only the missing or
corrupt shards of a crashed run and still converge to the byte-
identical serial result — recomputing a shard can never change what
it contributes.  ``tests/test_shard_runner.py`` pins the equivalence
for ``N ∈ {1, 2, 4}``; ``tests/test_shard_faults.py`` pins it under
injected worker kills, hangs, and truncated dumps
(:mod:`repro.tools.faults`).

Every run appends shard start/exit/retry/merge events to a JSONL run
log (:mod:`repro.tools.runlog`) in the working directory; workers
additionally append per-run pipeline ``phase`` events (clone /
instrument / decode / run / collect, stamped with their shard and
pid) through the :class:`~repro.session.ProfileSession` they run on.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cct.merge import MergedCCT, cct_digest, merge_ccts
from repro.cct.serialize import CCTLoadError, file_digest, load_cct, save_cct
from repro.machine.counters import NUM_EVENTS, Event
from repro.profiles.merge import (
    counts_from_json,
    counts_to_json,
    merge_counts,
    merge_metric_maps,
    metric_maps_from_json,
    metric_maps_to_json,
)
from repro.profiles.pathprofile import (
    FunctionPathProfile,
    PathProfile,
    collect_path_profile,
)
from repro.session import ProfileSession, ProfileSpec, ProfileSpecError
from repro.store.iojson import payload_digest as _payload_digest
from repro.store.iojson import write_json_atomic as _write_json_atomic
from repro.tools.bench_runner import run_supervised
from repro.tools.faults import FaultPlan
from repro.tools.runlog import RunLog

#: Profiling configurations the driver knows how to merge.
MODES = ("context_flow", "context_hw", "flow_hw", "kflow")

#: Modes whose shard aggregate is a *flat* path profile (pointwise
#: count/metric sums keyed by path id, no CCT) — ``flow_hw`` and its
#: multi-iteration generalization.  The merge algebra is identical:
#: ``kflow`` only changes the numbering (and hence the table
#: geometry), never the shape of the checkpoint payload.
FLAT_FLOW_MODES = ("flow_hw", "kflow")

MANIFEST_FORMAT = "repro-shard-manifest-v1"
RESULT_FORMAT = "repro-shard-result-v1"
MANIFEST_NAME = "manifest.json"
LOG_NAME = "run.log.jsonl"

#: Exponential backoff between retry waves is capped here (seconds).
MAX_BACKOFF = 2.0


class ShardCheckpointError(ValueError):
    """A shard checkpoint or run manifest is missing or corrupt."""

    def __init__(self, path: str, reason: str):
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason


class ShardRunError(RuntimeError):
    """A shard kept failing after its retry budget was spent.

    Carries the manifest path so the caller (or the ``repro shard-run
    --resume`` CLI) can resume the run: checkpoints of the shards that
    *did* complete stay valid on disk.
    """

    def __init__(self, message: str, shard: int, attempts: int, manifest: Optional[str]):
        super().__init__(message)
        self.shard = shard
        self.attempts = attempts
        self.manifest = manifest


@dataclass(frozen=True, init=False)
class ShardSpec:
    """A workload plus its profiling spec, in fork-safe (picklable) form.

    Exactly one of ``workload`` (a SPEC95 suite name), ``source``
    (mini-language text), or ``asm`` (IR assembly text) names the
    program; workers rebuild it locally rather than pickling compiled
    IR.  ``profile`` is the embedded :class:`~repro.session.
    ProfileSpec` describing *how* each input is profiled — its
    ``inputs`` is the input set, one integer-argument tuple per run of
    ``main``.  The legacy keyword arguments (``inputs``, ``mode``,
    ``engine``, ``placement``, ``by_site``) still construct (or
    override) the embedded spec, and read back through properties.

    ``retries``/``timeout``/``backoff`` are the fault-tolerance knobs:
    each shard may be re-executed up to ``retries`` extra times after
    a crash, hang (a worker alive past ``timeout`` seconds is killed),
    or corrupt checkpoint, with exponential backoff between waves
    (``backoff * 2**(attempt-1)`` seconds, capped at ``MAX_BACKOFF``).
    """

    workload: Optional[str]
    scale: float
    source: Optional[str]
    asm: Optional[str]
    profile: ProfileSpec
    retries: int
    timeout: Optional[float]
    backoff: float

    def __init__(
        self,
        workload: Optional[str] = None,
        scale: float = 1.0,
        source: Optional[str] = None,
        asm: Optional[str] = None,
        inputs: Optional[Sequence[Sequence[int]]] = None,
        mode: Optional[str] = None,
        engine: Optional[str] = None,
        placement: Optional[str] = None,
        by_site: Optional[bool] = None,
        profile: Optional[ProfileSpec] = None,
        retries: int = 2,
        timeout: Optional[float] = None,
        backoff: float = 0.05,
    ):
        if profile is None:
            profile = ProfileSpec(
                mode="context_flow" if mode is None else mode,
                engine=engine,
                placement="spanning_tree" if placement is None else placement,
                by_site=True if by_site is None else by_site,
                inputs=((),) if inputs is None else tuple(
                    tuple(args) for args in inputs
                ),
            )
        else:
            overrides = {
                key: value
                for key, value in (
                    ("mode", mode),
                    ("engine", engine),
                    ("placement", placement),
                    ("by_site", by_site),
                    ("inputs", inputs),
                )
                if value is not None
            }
            if overrides:
                profile = replace(profile, **overrides)
        if profile.mode not in MODES:
            raise ProfileSpecError(
                f"unknown mode {profile.mode!r}; options: {MODES}"
            )
        named = [x is not None for x in (workload, source, asm)]
        if sum(named) != 1:
            raise ValueError("specify exactly one of workload/source/asm")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if backoff < 0:
            raise ValueError("backoff must be >= 0")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        object.__setattr__(self, "workload", workload)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "asm", asm)
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "retries", retries)
        object.__setattr__(self, "timeout", timeout)
        object.__setattr__(self, "backoff", backoff)

    # -- legacy accessors (pre-ProfileSpec field names) ------------------------

    @property
    def inputs(self) -> Tuple[Tuple[int, ...], ...]:
        return self.profile.inputs

    @property
    def mode(self) -> str:
        return self.profile.mode

    @property
    def engine(self) -> Optional[str]:
        return self.profile.engine

    @property
    def placement(self) -> str:
        return self.profile.placement

    @property
    def by_site(self) -> bool:
        return self.profile.by_site

    def build_program(self):
        if self.workload is not None:
            from repro.workloads.suite import build_workload

            return build_workload(self.workload, self.scale)
        if self.source is not None:
            from repro.lang import compile_source

            return compile_source(self.source)
        from repro.ir.asm import parse_program

        return parse_program(self.asm)


def spec_to_json(spec: ShardSpec) -> dict:
    """A JSON-safe description of a spec (the manifest's ``spec`` key).

    The profiling configuration is embedded whole under ``profile``
    (see :meth:`repro.session.ProfileSpec.to_json`).
    """
    return {
        "workload": spec.workload,
        "scale": spec.scale,
        "source": spec.source,
        "asm": spec.asm,
        "profile": spec.profile.to_json(),
        "retries": spec.retries,
        "timeout": spec.timeout,
        "backoff": spec.backoff,
    }


def spec_from_json(raw: dict) -> ShardSpec:
    """Inverse of :func:`spec_to_json` (unknown keys are ignored).

    The embedded ``profile`` object is required: a spec without one
    raises :class:`~repro.session.ProfileSpecError` rather than
    resuming under default profiling knobs.
    """
    kwargs = {
        key: raw[key]
        for key in (
            "workload", "scale", "source", "asm", "retries", "timeout", "backoff"
        )
        if key in raw
    }
    kwargs["profile"] = ProfileSpec.from_json(raw.get("profile"))
    return ShardSpec(**kwargs)


@dataclass
class ShardOutcome:
    """The merged view of one sharded (or serial reference) run."""

    spec: ShardSpec
    shards: int
    #: Aggregate CCT (context modes; ``None`` for ``flow_hw``).
    cct: Optional[MergedCCT]
    #: Aggregate flat path profile (``None`` for ``context_hw``).
    path_profile: Optional[PathProfile]
    #: Sum of the sixteen ground-truth event counters over every run.
    counters: Dict[Event, int]
    #: ``main``'s return value per input, in input-set order.
    return_values: List[int]
    #: Shard CCT dump paths (empty when ``workdir`` was temporary).
    shard_files: List[str] = field(default_factory=list)
    #: Run manifest path (``None`` when ``workdir`` was temporary).
    manifest_path: Optional[str] = None


def flow_template(spec: ShardSpec):
    """Instrument (without running) to recover the path numberings.

    Instrumentation is deterministic in the program, so the template's
    :class:`FunctionPathInfo` decodes path sums produced by any worker.
    """
    return ProfileSession().instrument(spec.profile, spec.build_program()).flow


# -- checkpoints and the run manifest ----------------------------------------


def _chunks_of(spec: ShardSpec, shards: int) -> List[List[Tuple[int, Tuple[int, ...]]]]:
    indexed = list(enumerate(spec.inputs))
    return [indexed[shard::shards] for shard in range(shards)]


def _result_path(workdir: str, shard: int) -> str:
    return os.path.join(workdir, f"shard{shard}.result.json")


def _cct_dump_path(workdir: str, shard: int) -> str:
    return os.path.join(workdir, f"shard{shard}.cct.json")


def _load_checkpoint(workdir: str, shard: int) -> dict:
    """Load and integrity-check one shard's result checkpoint.

    Returns the result payload; raises :class:`ShardCheckpointError`
    (result file missing/corrupt) or lets
    :class:`~repro.cct.serialize.CCTLoadError` escape (CCT dump
    unreadable) so the caller can name the offending path.
    """
    path = _result_path(workdir, shard)
    if not os.path.exists(path):
        raise ShardCheckpointError(path, "missing shard result")
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ShardCheckpointError(
            path, f"truncated or corrupt shard result ({exc})"
        ) from exc
    if not isinstance(payload, dict) or payload.get("format") != RESULT_FORMAT:
        raise ShardCheckpointError(path, "not a shard result file")
    if payload.get("digest") != _payload_digest(payload):
        raise ShardCheckpointError(path, "shard result digest mismatch")
    if payload.get("cct") is not None:
        dump = os.path.join(workdir, payload["cct"])
        if not os.path.exists(dump):
            raise ShardCheckpointError(dump, "missing shard CCT dump")
        if file_digest(dump) != payload.get("cct_digest"):
            raise ShardCheckpointError(
                dump, "shard CCT dump digest mismatch (torn write?)"
            )
    return payload


def _checkpoint_valid(workdir: str, shard: int) -> bool:
    try:
        _load_checkpoint(workdir, shard)
        return True
    except (ShardCheckpointError, CCTLoadError):
        return False


def manifest_path_of(workdir: str) -> str:
    return os.path.join(workdir, MANIFEST_NAME)


def _write_manifest(workdir: str, spec: ShardSpec, shards: int) -> str:
    chunks = _chunks_of(spec, shards)
    payload = {
        "format": MANIFEST_FORMAT,
        "spec": spec_to_json(spec),
        "shards": shards,
        "entries": [
            {
                "shard": shard,
                "result": os.path.basename(_result_path(workdir, shard)),
                "cct": os.path.basename(_cct_dump_path(workdir, shard)),
                "inputs": [index for index, _ in chunks[shard]],
            }
            for shard in range(shards)
        ],
    }
    path = manifest_path_of(workdir)
    _write_json_atomic(path, payload)
    return path


def load_manifest(path: str) -> dict:
    """Read a run manifest; :class:`ShardCheckpointError` if damaged."""
    if not os.path.exists(path):
        raise ShardCheckpointError(path, "missing run manifest")
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ShardCheckpointError(
            path, f"truncated or corrupt run manifest ({exc})"
        ) from exc
    if not isinstance(payload, dict) or payload.get("format") != MANIFEST_FORMAT:
        raise ShardCheckpointError(path, "not a shard run manifest")
    spec = payload.get("spec")
    if not isinstance(spec, dict):
        raise ShardCheckpointError(path, "run manifest has no spec object")
    if not isinstance(spec.get("profile"), dict):
        raise ShardCheckpointError(path, "run manifest spec has no profile object")
    shards = payload.get("shards")
    if not isinstance(shards, int) or isinstance(shards, bool) or shards < 1:
        raise ShardCheckpointError(
            path, f"run manifest shards must be a positive integer, got {shards!r}"
        )
    return payload


# -- the worker --------------------------------------------------------------


def _shard_worker_entry(task) -> None:
    """Run one shard's inputs and checkpoint the aggregate to disk.

    Executed in a forked worker (or in-process when ``jobs=1``).  All
    results travel through the checkpoint files — the supervisor reads
    nothing from the worker but its exit code — which is what makes a
    SIGKILLed worker indistinguishable from a never-started one and
    retry/resume a pure re-execution.
    """
    spec, shard, chunk, workdir, fault = task
    # ``writer`` distinguishes each worker process's lines (and its
    # per-writer ``seq``) from the coordinator's in the shared log.
    session = ProfileSession(
        log=RunLog(
            os.path.join(workdir, LOG_NAME),
            writer=f"shard-{shard}/{os.getpid()}",
            shard=shard,
            pid=os.getpid(),
        )
    )
    program = spec.build_program()
    counters = [0] * NUM_EVENTS
    returns: List[Tuple[int, int]] = []
    ccts = []
    flow_counts: Dict[str, Dict[int, int]] = {}
    flow_metrics: Dict[str, Dict[int, List[int]]] = {}
    midpoint = len(chunk) // 2
    for position, (input_index, args) in enumerate(chunk):
        if fault is not None and position == midpoint:
            fault.maybe_fire(workdir, shard, "mid_run")
        run = session.run(spec.profile, program, args)
        for event in Event:
            counters[event] += run.result.counters[event]
        returns.append((input_index, run.result.return_value))
        if run.cct is not None:
            ccts.append(run.cct)
        if spec.mode in FLAT_FLOW_MODES:
            for name, fpp in run.path_profile.functions.items():
                flow_counts[name] = merge_counts(
                    [flow_counts.get(name, {}), fpp.counts]
                )
                flow_metrics[name] = merge_metric_maps(
                    [flow_metrics.get(name, {}), fpp.metrics]
                )
    if fault is not None and not chunk:
        fault.maybe_fire(workdir, shard, "mid_run")

    cct_name = None
    dump_digest = None
    if ccts:
        dump = _cct_dump_path(workdir, shard)
        save_cct(merge_ccts(ccts), dump)
        dump_digest = file_digest(dump)
        cct_name = os.path.basename(dump)
        # The digest witnesses the *intended* dump; a truncate fault
        # after this point is exactly the torn write it simulates.
        if fault is not None:
            fault.maybe_fire(workdir, shard, "after_dump", dump_path=dump)
    payload = {
        "format": RESULT_FORMAT,
        "shard": shard,
        "counters": counters,
        "returns": [[index, value] for index, value in returns],
        "cct": cct_name,
        "cct_digest": dump_digest,
        "flow_counts": (
            counts_to_json(flow_counts) if spec.mode in FLAT_FLOW_MODES else None
        ),
        "flow_metrics": (
            metric_maps_to_json(flow_metrics)
            if spec.mode in FLAT_FLOW_MODES
            else None
        ),
    }
    payload["digest"] = _payload_digest(payload)
    result = _result_path(workdir, shard)
    _write_json_atomic(result, payload)
    if fault is not None and cct_name is None:
        fault.maybe_fire(workdir, shard, "after_dump", dump_path=result)


# -- the supervisor ----------------------------------------------------------


def _execute_shards(
    spec: ShardSpec,
    shards: int,
    workdir: str,
    pending: Sequence[int],
    jobs: int,
    log: RunLog,
    retries: int,
    timeout: Optional[float],
    fault: Optional[FaultPlan],
    manifest: Optional[str],
) -> None:
    """Run ``pending`` shards to valid checkpoints, retrying failures.

    Waves: every still-failing shard of a wave is retried in the next
    one after an exponential-backoff pause, until its checkpoint
    validates or its attempt budget (``1 + retries``) is spent —
    then :class:`ShardRunError` (completed checkpoints stay on disk).
    ``jobs=1`` runs workers in-process (no fork, timeouts unenforced),
    which still exercises the full checkpoint/validate/merge path.
    """
    chunks = _chunks_of(spec, shards)
    attempts = {shard: 0 for shard in pending}
    wave = list(pending)
    while wave:
        for shard in wave:
            attempts[shard] += 1
        tasks = [(spec, shard, chunks[shard], workdir, fault) for shard in wave]
        failed: List[int] = []
        if jobs == 1:
            for task in tasks:
                shard = task[1]
                log.emit(
                    "shard_start", shard=shard, attempt=attempts[shard], pid=os.getpid()
                )
                started = time.perf_counter()
                exitcode = 0
                try:
                    _shard_worker_entry(task)
                except Exception as exc:  # noqa: BLE001 - retried below
                    exitcode = 1
                    log.emit(
                        "shard_corrupt",
                        shard=shard,
                        attempt=attempts[shard],
                        reason=f"worker raised {type(exc).__name__}: {exc}",
                    )
                log.emit(
                    "shard_exit",
                    shard=shard,
                    attempt=attempts[shard],
                    exitcode=exitcode,
                    timed_out=False,
                    seconds=round(time.perf_counter() - started, 4),
                )
                if exitcode != 0:
                    failed.append(shard)
        else:
            outcomes = run_supervised(
                _shard_worker_entry,
                tasks,
                jobs=jobs,
                timeout=timeout,
                on_start=lambda i, pid: log.emit(
                    "shard_start", shard=wave[i], attempt=attempts[wave[i]], pid=pid
                ),
            )
            for outcome in outcomes:
                shard = wave[outcome.index]
                log.emit(
                    "shard_exit",
                    shard=shard,
                    attempt=attempts[shard],
                    exitcode=outcome.exitcode,
                    timed_out=outcome.timed_out,
                    seconds=round(outcome.seconds, 4),
                )
                if not outcome.ok:
                    failed.append(shard)
        for shard in wave:
            if shard in failed:
                continue
            try:
                payload = _load_checkpoint(workdir, shard)
            except (ShardCheckpointError, CCTLoadError) as exc:
                log.emit(
                    "shard_corrupt",
                    shard=shard,
                    attempt=attempts[shard],
                    reason=str(exc),
                )
                failed.append(shard)
                continue
            log.emit(
                "shard_done",
                shard=shard,
                attempt=attempts[shard],
                digest=payload["digest"],
            )
        exhausted = [shard for shard in failed if attempts[shard] > retries]
        if exhausted:
            shard = exhausted[0]
            log.emit(
                "run_failed",
                shard=shard,
                attempts=attempts[shard],
                reason="retry budget exhausted",
            )
            raise ShardRunError(
                f"shard {shard} failed {attempts[shard]} time(s); "
                + (f"resume with the manifest at {manifest}" if manifest
                   else "re-run with a persistent workdir to enable resume"),
                shard=shard,
                attempts=attempts[shard],
                manifest=manifest,
            )
        if failed:
            delay = min(
                MAX_BACKOFF,
                spec.backoff * (2 ** (max(attempts[s] for s in failed) - 1)),
            )
            for shard in sorted(failed):
                log.emit(
                    "shard_retry",
                    shard=shard,
                    next_attempt=attempts[shard] + 1,
                    delay=round(delay, 4),
                )
            if delay:
                time.sleep(delay)
        wave = sorted(failed)


# -- merging -----------------------------------------------------------------


def _merge_from_checkpoints(
    spec: ShardSpec, shards: int, workdir: str, log: RunLog
) -> ShardOutcome:
    counters = {event: 0 for event in Event}
    returns: List[Tuple[int, int]] = []
    shard_files: List[str] = []
    ccts = []
    flow_payloads = []
    for shard in range(shards):
        payload = _load_checkpoint(workdir, shard)
        for event in Event:
            counters[event] += payload["counters"][event]
        returns.extend((index, value) for index, value in payload["returns"])
        if payload["cct"] is not None:
            dump = os.path.join(workdir, payload["cct"])
            shard_files.append(dump)
            ccts.append(load_cct(dump))
        if spec.mode in FLAT_FLOW_MODES:
            flow_payloads.append(
                (
                    counts_from_json(payload["flow_counts"] or {}),
                    metric_maps_from_json(payload["flow_metrics"] or {}),
                )
            )

    cct = merge_ccts(ccts) if spec.mode not in FLAT_FLOW_MODES else None
    log.emit(
        "merge",
        shards_merged=shards,
        cct_digest=None if cct is None else cct_digest(cct),
    )
    profile: Optional[PathProfile] = None
    if spec.mode == "context_flow":
        profile = collect_path_profile(flow_template(spec), cct_runtime=cct)
    elif spec.mode in FLAT_FLOW_MODES:
        template = flow_template(spec)
        profile = PathProfile()
        for name, info in template.functions.items():
            merged_counts = merge_counts(
                [counts.get(name, {}) for counts, _ in flow_payloads]
            )
            merged_metrics = merge_metric_maps(
                [metrics.get(name, {}) for _, metrics in flow_payloads]
            )
            profile.functions[name] = FunctionPathProfile(
                info, merged_counts, merged_metrics
            )
    return ShardOutcome(
        spec=spec,
        shards=shards,
        cct=cct,
        path_profile=profile,
        counters=counters,
        return_values=[rv for _, rv in sorted(returns)],
        shard_files=shard_files,
        manifest_path=manifest_path_of(workdir),
    )


# -- entry points ------------------------------------------------------------


def shard_run(
    spec: ShardSpec,
    shards: int,
    workdir: Optional[str] = None,
    jobs: Optional[int] = None,
    max_retries: Optional[int] = None,
    timeout: Optional[float] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> ShardOutcome:
    """Profile ``spec``'s input set across ``shards`` forked workers.

    ``workdir`` keeps the per-shard checkpoints, the run manifest, and
    the JSONL run log (otherwise a temporary directory is used and
    cleaned up — which also forfeits resumability).  ``jobs`` caps
    worker parallelism (default: one process per shard; ``jobs=1``
    runs the shards serially in-process, still exercising the full
    checkpoint/merge path).  ``max_retries``/``timeout`` override the
    spec's knobs; ``fault_plan`` (or ``REPRO_FAULT_PLAN``) injects a
    deterministic worker fault for testing recovery.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    retries = spec.retries if max_retries is None else max_retries
    timeout = spec.timeout if timeout is None else timeout
    fault = fault_plan if fault_plan is not None else FaultPlan.from_env()
    cleanup = None
    if workdir is None:
        cleanup = tempfile.TemporaryDirectory(prefix="repro-shards-")
        workdir = cleanup.name
    try:
        # Stale checkpoints from a previous run in the same directory
        # would let a crashed worker masquerade as a completed one —
        # including shards beyond this run's count, which a later
        # resume of an old manifest could otherwise pick up.
        for name in os.listdir(workdir):
            if name.startswith("shard") and (
                name.endswith(".result.json") or name.endswith(".cct.json")
            ):
                os.unlink(os.path.join(workdir, name))
        manifest = _write_manifest(workdir, spec, shards)
        log = RunLog(os.path.join(workdir, LOG_NAME))
        log.emit(
            "run_start",
            shards=shards,
            inputs=len(spec.inputs),
            mode=spec.mode,
            resume=False,
        )
        _execute_shards(
            spec,
            shards,
            workdir,
            list(range(shards)),
            shards if jobs is None else jobs,
            log,
            retries,
            timeout,
            fault,
            None if cleanup is not None else manifest,
        )
        outcome = _merge_from_checkpoints(spec, shards, workdir, log)
        log.emit("run_complete", shards=shards)
    finally:
        if cleanup is not None:
            cleanup.cleanup()
    if cleanup is not None:
        outcome.shard_files = []
        outcome.manifest_path = None
    return outcome


def resume_run(
    manifest: str,
    jobs: Optional[int] = None,
    max_retries: Optional[int] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> ShardOutcome:
    """Finish an interrupted sharded run from its manifest.

    Validates every shard checkpoint under the manifest's directory,
    re-executes only the missing or corrupt shards, and merges.  The
    merge consumes the same per-shard aggregates a crash-free run
    would have produced (each is a deterministic function of the spec
    and its input chunk), so the resumed outcome is byte-identical to
    both the uninterrupted sharded run and the serial reference.
    """
    payload = load_manifest(manifest)
    spec = spec_from_json(payload["spec"])
    shards = payload["shards"]
    workdir = os.path.dirname(os.path.abspath(manifest))
    retries = spec.retries if max_retries is None else max_retries
    fault = fault_plan if fault_plan is not None else FaultPlan.from_env()
    log = RunLog(os.path.join(workdir, LOG_NAME))
    pending = [
        shard for shard in range(shards) if not _checkpoint_valid(workdir, shard)
    ]
    log.emit(
        "run_start",
        shards=shards,
        inputs=len(spec.inputs),
        mode=spec.mode,
        resume=True,
        pending=pending,
    )
    if pending:
        _execute_shards(
            spec,
            shards,
            workdir,
            pending,
            len(pending) if jobs is None else jobs,
            log,
            retries,
            spec.timeout,
            fault,
            manifest,
        )
    outcome = _merge_from_checkpoints(spec, shards, workdir, log)
    log.emit("run_complete", shards=shards)
    return outcome


def serial_run(spec: ShardSpec) -> ShardOutcome:
    """The unsharded reference: every input in-process, one merge.

    Uses the identical aggregation path as :func:`shard_run` (merge of
    per-run CCTs, pointwise profile sums) without forking or touching
    disk, so sharded outcomes can be compared against it bit for bit.
    """
    session = ProfileSession()
    program = spec.build_program()
    counters = {event: 0 for event in Event}
    returns: List[int] = []
    ccts = []
    profiles: List[PathProfile] = []
    for args in spec.inputs:
        run = session.run(spec.profile, program, args)
        for event in Event:
            counters[event] += run.result.counters[event]
        returns.append(run.result.return_value)
        if run.cct is not None:
            ccts.append(run.cct)
        if spec.mode in FLAT_FLOW_MODES:
            profiles.append(run.path_profile)

    cct = merge_ccts(ccts) if spec.mode not in FLAT_FLOW_MODES else None
    profile: Optional[PathProfile] = None
    if spec.mode == "context_flow":
        profile = collect_path_profile(flow_template(spec), cct_runtime=cct)
    elif spec.mode in FLAT_FLOW_MODES:
        template = flow_template(spec)
        profile = PathProfile()
        for name, info in template.functions.items():
            profile.functions[name] = FunctionPathProfile(
                info,
                merge_counts([p.functions[name].counts for p in profiles
                              if name in p.functions]),
                merge_metric_maps([p.functions[name].metrics for p in profiles
                                   if name in p.functions]),
            )
    return ShardOutcome(
        spec=spec,
        shards=1,
        cct=cct,
        path_profile=profile,
        counters=counters,
        return_values=returns,
    )


def spec_for_workload(
    name: str,
    scale: float = 1.0,
    runs: int = 1,
    mode: str = "context_flow",
    engine: Optional[str] = None,
) -> ShardSpec:
    """Input set for a suite workload: ``runs`` repetitions of its
    (argument-less, deterministic) entry point."""
    return ShardSpec(
        workload=name,
        scale=scale,
        profile=ProfileSpec(
            mode=mode, engine=engine, inputs=tuple(() for _ in range(max(1, runs)))
        ),
    )


__all__ = [
    "FLAT_FLOW_MODES",
    "LOG_NAME",
    "MANIFEST_NAME",
    "MODES",
    "ShardCheckpointError",
    "ShardOutcome",
    "ShardRunError",
    "ShardSpec",
    "load_manifest",
    "manifest_path_of",
    "resume_run",
    "serial_run",
    "shard_run",
    "spec_for_workload",
    "spec_from_json",
    "spec_to_json",
]
