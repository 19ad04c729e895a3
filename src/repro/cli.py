"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``run FILE [ARGS...]`` — execute a program, print result and counters;
* ``profile FILE`` — the unified driver: any :data:`repro.session.MODES`
  configuration through the one ``ProfileSession`` pipeline
  (``--mode flow``: hot paths with HW metrics; ``--mode context``: the
  CCT with metrics; ``--mode combined``: paths per calling context;
  the two CCT modes also render the CCT with ``--tree``/``--dot`` and
  save it with ``--save``, which other modes refuse), with ``--log``
  appending structured phase events (clone/instrument/machine/run/
  collect, wall-time each) as JSONL;
* ``coverage FILE`` — path coverage with untested paths;
* ``shard-run FILE`` — split an input set across forked workers and
  merge the per-shard profiles into one aggregate; checkpoints, a run
  manifest, and a JSONL run log land in ``--keep``, failed workers are
  retried (``--max-retries``/``--timeout``), and ``--resume MANIFEST``
  finishes an interrupted run;
* ``diff FILE --first/--second`` — path-spectrum diff of two inputs;
  ``diff BASE CAND --store DIR`` — regression diff of two *stored*
  profiles (counter drift, per-context deltas, hot-path churn), human
  or ``--json``, exit 1 on a degradation verdict;
* ``ci [REF] --store DIR`` — the regression gate: compare a stored run
  against the most recent earlier run of the same spec and workload,
  exit 1 on degradation (``profile --store DIR`` is what persists
  runs);
* ``table N`` — regenerate one of the paper's tables over the suite
  (Table 3 optionally through the sharded driver);
* ``bench [--instrumented]`` — engine throughput over the suite,
  writing/validating ``BENCH_vm_speed.json`` or
  ``BENCH_instrumented_speed.json``.

``FILE`` ending in ``.asm`` is parsed as IR assembly; anything else is
compiled as mini-language source.  Program arguments are integers
passed to ``main``.

A usage error (an unknown verb or flag, a non-integer argument, a CCT
flag in a mode that builds no CCT) is one ``error:`` line on stderr and
exit code 2; a failure the command meets (a malformed program, an
unreadable program file, an unwritable ``--log``, ``--store``,
``--save`` or ``--report`` path, a simulated fault, a damaged store or
run manifest) is one ``error:`` line and exit code 1, except that ``diff``,
``ci`` and ``optimize`` exit 2 on store errors.  Paths the command
writes are checked before the run, so an unwritable one costs no run.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from typing import List, Optional, Tuple

from repro.machine.counters import Event
from repro.reporting import format_table


class ProgramFileError(Exception):
    """A program file named on the command line cannot be read."""


def _read_program(path: str) -> str:
    try:
        with open(path) as handle:
            return handle.read()
    except OSError as exc:
        raise ProgramFileError(
            f"cannot read program {path}: {exc.strerror or exc}"
        ) from None


class OutputFileError(Exception):
    """A file named on the command line cannot be written."""


def _check_output(path: str, what: str) -> None:
    """Reject ``path`` before the run whose result it would hold if its
    directory cannot take a new file (the writers replace ``path`` with
    a file made beside it) or it names a directory."""
    try:
        with tempfile.TemporaryFile(dir=os.path.dirname(path) or "."):
            pass
    except OSError as exc:
        raise OutputFileError(
            f"cannot write {what} {path}: {exc.strerror or exc}"
        ) from None
    if os.path.isdir(path):
        raise OutputFileError(f"cannot write {what} {path}: Is a directory")


def _load_program(path: str):
    from repro.ir.asm import parse_program
    from repro.lang import compile_source

    text = _read_program(path)
    if path.endswith(".asm"):
        return parse_program(text)
    return compile_source(text)


def _int_tuple(raw: str) -> Tuple[int, ...]:
    """``"1,2"`` or ``"1 2"`` -> ``(1, 2)``: one run's arguments."""
    try:
        return tuple(int(v) for v in raw.replace(",", " ").split())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a list of integers: {raw!r}"
        ) from None


def _input_sets(raw: str) -> List[Tuple[int, ...]]:
    """``"1,2;3,4;5"`` -> ``[(1, 2), (3, 4), (5,)]`` (``;`` separates runs)."""
    return [_int_tuple(chunk) for chunk in raw.split(";")]


def cmd_run(args) -> int:
    from repro.machine.vm import Machine

    program = _load_program(args.file)
    machine = Machine(program)
    result = machine.run(*args.args)
    print(f"result: {result.return_value}")
    rows = [
        {"Event": event.name, "Count": result[event]}
        for event in Event
        if result[event]
    ]
    print(format_table(rows, title="hardware events"))
    return 0


#: CLI mode names -> :data:`repro.session.MODES` entries.
_PROFILE_MODES = {
    "baseline": "baseline",
    "flow": "flow_hw",
    "flow-freq": "flow_freq",
    "context": "context_hw",
    "combined": "context_flow",
    "edge": "edge",
    "kflow": "kflow",
}


def _make_session(args):
    """One ``ProfileSession`` per command; ``--log`` adds phase events.

    ``--icache-size`` / ``--icache-assoc`` (the optimize verb) shrink
    the modelled I-cache so layout effects are measurable on programs
    the default 16KB cache would swallow whole.
    """
    from repro.session import ProfileSession

    log = None
    if getattr(args, "log", None):
        from repro.tools.runlog import RunLog

        log = RunLog(args.log, command=args.command)
    config = None
    icache_size = getattr(args, "icache_size", None)
    icache_assoc = getattr(args, "icache_assoc", None)
    if icache_size is not None or icache_assoc is not None:
        from dataclasses import replace as _replace

        from repro.machine.config import MachineConfig

        config = MachineConfig()
        if icache_size is not None:
            config = _replace(config, icache_size=icache_size)
        if icache_assoc is not None:
            config = _replace(config, icache_assoc=icache_assoc)
        # Rejected here, before any run, as one error line from main.
        config.validate()
    return ProfileSession(config=config, log=log)


def _build_spec(mode, args):
    """A ``ProfileSpec`` from CLI flags (absent flags keep defaults)."""
    from repro.session import ProfileSpec

    pic0 = getattr(args, "pic0", None)
    pic1 = getattr(args, "pic1", None)
    extra = {}
    if mode == "kflow":
        extra["k"] = getattr(args, "k", None)
    return ProfileSpec(
        mode=mode,
        pic0_event=pic0.upper() if isinstance(pic0, str) else Event.INSTRS,
        pic1_event=pic1.upper() if isinstance(pic1, str) else Event.DC_MISS,
        placement=getattr(args, "placement", None) or "spanning_tree",
        engine=getattr(args, "engine", None),
        by_site=not getattr(args, "merge_sites", False),
        read_at_backedges=getattr(args, "backedge_reads", False),
        **extra,
    )


def _report_baseline(run, args) -> int:
    print(f"result: {run.return_value}")
    rows = [
        {"Event": event.name, "Count": run.result[event]}
        for event in Event
        if run.result[event]
    ]
    print(format_table(rows, title="hardware events"))
    return 0


def _report_flow(base, run, args) -> int:
    from repro.profiles.hotpaths import classify_paths

    print(f"result: {run.return_value}  overhead: {run.overhead_vs(base):.2f}x\n")

    report = classify_paths(run.path_profile, args.threshold)
    rows = []
    for classified in sorted(
        report.classified, key=lambda c: -c.entry.misses
    )[: args.limit]:
        entry = classified.entry
        fpp = run.path_profile.functions[entry.function]
        rows.append(
            {
                "Function": entry.function,
                "Path": fpp.decode(entry.path_sum).describe()[:70],
                "Freq": entry.freq,
                "Instrs": entry.instructions,
                "Misses": entry.misses,
                "Class": classified.klass.value,
            }
        )
    print(format_table(rows, title="paths by L1D misses"))
    print(
        f"\n{report.hot.num} hot paths carry "
        f"{100 * report.hot.miss_share(report.total_misses):.1f}% of "
        f"{report.total_misses} misses"
    )
    return 0


def _report_flow_freq(run, args) -> int:
    print(f"result: {run.return_value}\n")
    rows = []
    for name, fpp in run.path_profile.functions.items():
        for path_sum, count in sorted(fpp.counts.items()):
            rows.append(
                {
                    "Function": name,
                    "Path": fpp.decode(path_sum).describe()[:70],
                    "Freq": count,
                }
            )
    rows.sort(key=lambda r: (-r["Freq"], r["Function"]))
    print(format_table(rows[: args.limit], title="path frequencies"))
    return 0


def _render_cct(run, args) -> int:
    from repro.render import render_cct_ascii, render_cct_dot

    render = render_cct_dot if args.dot else render_cct_ascii
    # Combined mode keeps the PIC metrics per path, so its records carry
    # only the call count (metric 0); context mode shows PIC0.
    print(render(run.cct.root, metric=0 if run.flow is not None else 1))
    return 0


def _report_context(run, args) -> int:
    from repro.cct.stats import cct_statistics

    rows = []
    for record in run.cct.records:
        if record is run.cct.root:
            continue
        rows.append(
            {
                "Context": " -> ".join(record.context()[1:]),
                "Calls": record.metrics[0],
                "PIC0": record.metrics[1],
                "PIC1": record.metrics[2],
            }
        )
    rows.sort(key=lambda r: -r["PIC0"])
    print(format_table(rows[: args.limit], title="calling context tree"))
    stats = cct_statistics(run.cct)
    print(
        f"\n{stats.nodes} records, height {stats.height_max}, "
        f"{stats.size_bytes} bytes, max replication {stats.max_replication}"
    )
    return 0


def _report_combined(run, args) -> int:
    from repro.cct.stats import cct_statistics

    rows = []
    for record in run.cct.records:
        for fname, table in record.path_tables.items():
            numbering = run.flow.functions[fname].numbering
            for path_sum, count in sorted(table.counts.items()):
                rows.append(
                    {
                        "Context": " -> ".join(record.context()[1:]),
                        "Path": numbering.regenerate(path_sum).describe()[:48],
                        "Freq": count,
                    }
                )
    print(format_table(rows[: args.limit], title="per-context path profile"))
    stats = cct_statistics(run.cct, run.program, run.flow.functions)
    print(
        f"\none-path call sites: {stats.call_sites_one_path} of "
        f"{stats.call_sites_used} used"
    )
    return 0


def _report_edges(run, args) -> int:
    print(f"result: {run.return_value}\n")
    rows = []
    for name, info in run.edges.functions.items():
        raw = info.table.nonzero()
        for index in sorted(raw):
            edge = info.cfg.edges[index]
            rows.append(
                {
                    "Function": name,
                    "Edge": f"{edge.src}->{edge.dst}",
                    "Count": raw[index],
                }
            )
    print(format_table(rows[: args.limit], title="edge counters"))
    return 0


def cmd_profile(args) -> int:
    """The unified driver: every profiling mode runs through here."""
    from dataclasses import replace

    from repro.cct.serialize import save_cct

    mode = _PROFILE_MODES[args.mode]
    spec = _build_spec(mode, args)
    if not spec.needs_context:
        for flag in ("save", "tree", "dot"):
            if getattr(args, flag):
                print(
                    f"error: --{flag} needs a mode that builds a CCT "
                    f"(context or combined), not {args.mode}",
                    file=sys.stderr,
                )
                return 2
    program = _load_program(args.file)
    if args.save:
        _check_output(args.save, "CCT")
    session = _make_session(args)
    run_args = args.args
    store = None
    if args.store:
        from repro.store import ProfileStore

        store = ProfileStore(args.store)
    workload = args.workload
    if mode in ("flow_hw", "kflow"):
        base = session.run(
            replace(spec, mode="baseline", k=None), program, run_args
        )
        run = session.run(
            spec, program, run_args, store=store, workload=workload
        )
        status = _report_flow(base, run, args)
    else:
        run = session.run(spec, program, run_args, store=store, workload=workload)
        report = {
            "baseline": _report_baseline,
            "flow_freq": _report_flow_freq,
            "context_hw": _report_context,
            "context_flow": _report_combined,
            "edge": _report_edges,
        }[mode]
        if args.tree or args.dot:
            report = _render_cct
        status = report(run, args)
    if args.save:
        save_cct(run.cct, args.save)
        print(f"CCT written to {args.save}")
    if run.stored_as is not None:
        print(f"\nstored as {run.stored_as[:12]} in {args.store}")
    return status


def cmd_coverage(args) -> int:
    from repro.profiles.spectra import path_coverage, untested_paths
    from repro.tools.pp import PP

    program = _load_program(args.file)
    run = PP().flow_freq(program, args.args)
    report = path_coverage(run.path_profile)
    print(format_table(report.rows(), title="path coverage"))
    print(f"\noverall: {100 * report.fraction:.1f}%")
    for name, coverage in report.functions.items():
        if coverage.executed < coverage.potential:
            missing = untested_paths(run.path_profile, name, limit=args.limit)
            for path in missing:
                print(f"  untested: {name}: {path.describe()}")
    return 0


def _store_thresholds(args):
    from repro.store import Thresholds

    return Thresholds(
        ratio=args.ratio, min_count=args.min_count, top_k=args.top_k
    )


def _print_diff_report(report, as_json: bool) -> None:
    if as_json:
        import json

        print(json.dumps(report.to_json(), indent=2))
        return
    print(
        f"baseline {report.baseline[:12]}  candidate {report.candidate[:12]}  "
        f"spec {report.spec_digest[:12]}"
    )
    print(f"verdict: {report.verdict.value}")
    for detector in report.detectors:
        print(
            f"  {detector.name}: {detector.verdict.value} "
            f"({detector.checked} checked, {len(detector.findings)} finding(s))"
        )
    if report.findings:
        rows = [
            {
                "Detector": f.detector,
                "Subject": f.subject[:60],
                "Baseline": f.baseline,
                "Candidate": f.candidate,
                "Delta": f"{f.delta:+d}",
                "Verdict": f.verdict.value,
            }
            for f in report.findings
        ]
        print(format_table(rows, title="findings"))


def _cmd_store_diff(args) -> int:
    """Regression diff of two stored profiles: ``diff BASE CAND --store``."""
    from repro.store import DetectError, ProfileStore, StoreError, Verdict, diff_profiles

    if not args.store:
        print(
            "error: diff between stored refs requires --store DIR", file=sys.stderr
        )
        return 2
    try:
        store = ProfileStore(args.store)
        base = store.load(args.file)
        cand = store.load(args.candidate)
        report = diff_profiles(base, cand, _store_thresholds(args))
    except (StoreError, DetectError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_diff_report(report, args.json)
    return 1 if report.verdict is Verdict.DEGRADATION else 0


def cmd_diff(args) -> int:
    """Spectrum diff of two inputs, or regression diff of two stored refs."""
    if args.candidate is not None:
        return _cmd_store_diff(args)
    from repro.profiles.spectra import spectrum_diff
    from repro.tools.pp import PP

    program = _load_program(args.file)
    pp = PP()
    first = pp.flow_freq(program, args.first)
    second = pp.flow_freq(program, args.second)
    diff = spectrum_diff(first.path_profile, second.path_profile)
    if diff.is_empty():
        print("spectra identical: both inputs drive the same paths")
        return 0
    print("functions with differing path spectra:")
    for name in diff.distinguishing_functions():
        fpp_first = first.path_profile.functions[name]
        for path_sum in sorted(diff.only_first.get(name, ())):
            print(f"  {name}: only run A: {fpp_first.decode(path_sum).describe()}")
        fpp_second = second.path_profile.functions[name]
        for path_sum in sorted(diff.only_second.get(name, ())):
            print(f"  {name}: only run B: {fpp_second.decode(path_sum).describe()}")
    return 0


def cmd_ci(args) -> int:
    """The regression gate: a stored run against its stored baseline.

    The baseline is the most recent *earlier* run of the same spec
    digest and workload (code fingerprint deliberately ignored — the
    gate compares across code versions).  No baseline means the gate
    passes trivially; a ``degradation`` verdict is exit code 1.
    """
    from repro.store import DetectError, ProfileStore, StoreError, Verdict, diff_profiles

    if not args.store:
        print("error: ci requires --store DIR", file=sys.stderr)
        return 2
    try:
        store = ProfileStore(args.store)
        cand = store.load(args.ref)
        base = store.baseline_for(cand)
        if base is None:
            print(
                f"ci: {cand.run_id[:12]} has no earlier run of spec "
                f"{cand.spec_digest[:12]} on workload {cand.workload!r}; "
                f"gate passes trivially"
            )
            return 0
        report = diff_profiles(base, cand, _store_thresholds(args))
    except (StoreError, DetectError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_diff_report(report, args.json)
    if report.verdict is Verdict.DEGRADATION:
        if not args.json:
            print("ci: FAIL (degradation)")
        return 1
    if not args.json:
        print(f"ci: OK ({report.verdict.value})")
    return 0


def _optimize_plan(args):
    """An ``OptPlan`` from CLI flags (absent flags keep plan defaults)."""
    from repro.opt import OptPlan

    kwargs = {}
    if getattr(args, "passes", None):
        kwargs["passes"] = tuple(
            name.strip() for name in args.passes.split(",") if name.strip()
        )
    for flag, key in (
        ("min_freq", "min_freq"),
        ("min_calls", "min_calls"),
        ("max_callee_size", "max_callee_size"),
        ("growth_budget", "growth_budget"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            kwargs[key] = value
    return OptPlan(**kwargs)


def _print_pgo_report(report) -> None:
    """Human-readable PGO cycle summary."""
    from repro.machine.counters import Event

    for result in report.pipeline.passes:
        details = result.details
        if result.name == "inline":
            for entry in details.get("inlined", ()):
                print(
                    f"inlined {entry['callee']} into {entry['caller']} "
                    f"(site {entry['site']}, {entry['calls']} calls, "
                    f"+{entry['code_growth']} code)"
                )
        elif result.name == "superblock":
            for entry in details.get("superblocks", ()):
                print(
                    f"superblock in {entry['function']}: trace "
                    f"{entry['trace']} (freq {entry['freq']}), "
                    f"{entry['jumps_straightened']} jumps straightened, "
                    f"+{entry['code_growth']} code"
                )
        elif result.name == "layout" and result.changed:
            print(f"layout: reordered {len(details.get('reordered', ()))} functions")
        elif result.name == "cleanup" and result.changed:
            print(f"cleanup: {details.get('changes', 0)} changes")

    base = report.baseline_counters
    cand = report.optimized_counters
    judged = {f.subject: f.verdict.value for f in report.counters_report.findings}
    for event in Event:
        before, after = base.get(event, 0), cand.get(event, 0)
        if not before and not after:
            continue
        marker = judged.get(event.name, "")
        print(
            f"  {event.name:12} {before:>12} -> {after:>12}"
            + (f"  [{marker}]" if marker else "")
        )
    cycles_b = base.get(Event.CYCLES, 0)
    cycles_a = cand.get(Event.CYCLES, 0)
    speedup = cycles_b / cycles_a if cycles_a else 0.0
    print(
        f"cycles: {cycles_b} -> {cycles_a} ({speedup:.3f}x), "
        f"instructions: {base.get(Event.INSTRS, 0)} -> "
        f"{cand.get(Event.INSTRS, 0)}"
    )
    match = "ok" if report.architectural_match else "MISMATCH"
    print(f"architectural results: {match}")
    print(f"verdict: {report.verdict.value}")


def cmd_optimize(args) -> int:
    """The closed PGO loop: profile -> optimize -> re-measure -> verify.

    The driving profile is measured live (``--mode``, default
    ``combined``) or decoded from a stored run (``--store DIR --run
    REF``).  Exit codes mirror ``repro diff``: 0 for ok/optimization,
    1 for a degradation verdict (including an architectural mismatch),
    2 for usage or store errors.
    """
    from repro.opt import MeasuredProfileError, OptError
    from repro.session import PGOError, pgo_cycle
    from repro.store import ProfileStore, StoreError, Verdict

    program = _load_program(args.file)
    if args.report:
        _check_output(args.report, "report")
    run_args = args.args
    session = _make_session(args)

    try:
        plan = _optimize_plan(args)
    except OptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.run and not args.store:
        print("error: --run REF requires --store DIR", file=sys.stderr)
        return 2

    thresholds = _store_thresholds(args)
    try:
        store = ProfileStore(args.store) if args.store else None
        if args.run:
            report = pgo_cycle(
                program,
                args=run_args or None,
                session=session,
                store=store,
                run_ref=args.run,
                plan=plan,
                thresholds=thresholds,
                workload=args.workload,
                save=store is not None,
            )
        else:
            spec = _build_spec(_PROFILE_MODES[args.mode], args)
            if run_args:
                spec = spec.with_inputs([run_args])
            report = pgo_cycle(
                program,
                spec,
                run_args or None,
                session=session,
                store=store,
                plan=plan,
                thresholds=thresholds,
                workload=args.workload,
                save=store is not None,
            )
    except (PGOError, MeasuredProfileError, OptError, StoreError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.report:
        with open(args.report, "w") as handle:
            handle.write(report.to_json_str() + "\n")
    if args.json:
        print(report.to_json_str())
    else:
        _print_pgo_report(report)
    return 1 if report.verdict is Verdict.DEGRADATION else 0


_SHARD_MODES = {
    "combined": "context_flow",
    "context": "context_hw",
    "flow": "flow_hw",
    "kflow": "kflow",
}


def cmd_shard_run(args) -> int:
    from dataclasses import replace

    from repro.cct.stats import cct_statistics
    from repro.profiles.hotpaths import classify_paths
    from repro.tools.shard_runner import ShardSpec, resume_run, shard_run

    if args.resume:
        outcome = resume_run(
            args.resume, max_retries=args.max_retries
        )
        mode_label = {v: k for k, v in _SHARD_MODES.items()}[outcome.spec.mode]
        print(
            f"resumed {len(outcome.spec.inputs)} inputs over {outcome.shards} "
            f"shards ({mode_label}); results: {outcome.return_values}"
        )
    else:
        if not args.file:
            raise SystemExit("shard-run: FILE required unless --resume is given")
        text = _read_program(args.file)
        inputs = args.inputs if args.inputs is not None else [tuple(args.args)]
        spec = ShardSpec(
            source=None if args.file.endswith(".asm") else text,
            asm=text if args.file.endswith(".asm") else None,
            profile=replace(_build_spec(_SHARD_MODES[args.mode], args), inputs=inputs),
            timeout=args.timeout,
            backoff=args.backoff,
        )
        outcome = shard_run(
            spec,
            args.shards,
            workdir=args.keep,
            max_retries=args.max_retries,
        )
        print(
            f"{len(inputs)} inputs over {args.shards} shards "
            f"({args.mode}); results: {outcome.return_values}"
        )
    rows = [
        {"Event": event.name, "Count": count}
        for event, count in outcome.counters.items()
        if count
    ]
    print(format_table(rows, title="merged hardware events"))
    if outcome.cct is not None:
        stats = cct_statistics(outcome.cct)
        print(
            f"\nmerged CCT: {stats.nodes} records, height {stats.height_max}, "
            f"{stats.size_bytes} bytes, max replication {stats.max_replication}"
        )
        contexts = [
            {
                "Context": " -> ".join(record.context()[1:]),
                "Calls": record.metrics[0],
                "PIC0": record.metrics[1],
                "PIC1": record.metrics[2],
            }
            for record in outcome.cct.records
            if record is not outcome.cct.root
        ]
        contexts.sort(key=lambda r: (-r["Calls"], r["Context"]))
        print(format_table(contexts[: args.limit], title="hottest contexts"))
    if outcome.path_profile is not None:
        report = classify_paths(outcome.path_profile)
        ranked = sorted(
            report.classified,
            key=lambda c: (-c.entry.misses, -c.entry.freq, c.entry.function),
        )
        rows = [
            {
                "Function": c.entry.function,
                "Path": c.entry.path_sum,
                "Freq": c.entry.freq,
                "Misses": c.entry.misses,
                "Class": c.klass.value,
            }
            for c in ranked[: args.limit]
        ]
        print(
            format_table(
                rows,
                title=f"merged paths ({report.hot.num} hot of {report.total_paths})",
            )
        )
    if outcome.manifest_path:
        print(
            f"shard checkpoints, run log, and manifest kept at "
            f"{outcome.manifest_path}"
        )
    return 0


def cmd_bench(args) -> int:
    """Engine throughput benchmark; writes and validates the JSON gate."""
    import json
    import os
    import pathlib

    from repro.tools.bench_runner import measure_instrumented_speed, measure_vm_speed

    names = args.workloads or None
    if args.instrumented:
        payload = measure_instrumented_speed(args.scale, names)
        default_out = "BENCH_instrumented_speed.json"
        min_default = os.environ.get("REPRO_INSTRUMENTED_SPEED_MIN", "2.0")
        speedup = payload["speedup_warm_flow"]
        rows = [
            {
                "Mode": mode,
                "Simple s": data["simple"]["seconds"],
                "Cold s": data["fast_cold"]["seconds"],
                "Warm s": data["fast_warm"]["seconds"],
                "Warm speedup": data["speedup_warm"],
            }
            for mode, data in payload["modes"].items()
        ]
        title = "instrumented suite throughput (gate: flow warm)"
    else:
        payload = measure_vm_speed(args.scale, names)
        default_out = "BENCH_vm_speed.json"
        min_default = os.environ.get("REPRO_VM_SPEED_MIN", "3.0")
        speedup = payload["speedup_warm"]
        rows = [
            {
                "Mode": "uninstrumented",
                "Simple s": payload["simple"]["seconds"],
                "Cold s": payload["fast_cold"]["seconds"],
                "Warm s": payload["fast_warm"]["seconds"],
                "Warm speedup": payload["speedup_warm"],
            }
        ]
        title = "uninstrumented suite throughput"

    minimum = args.min if args.min is not None else float(min_default)
    payload["min_required"] = minimum
    payload["check_only"] = args.check_only
    out = pathlib.Path(args.out or default_out)
    out.write_text(json.dumps(payload, indent=2) + "\n")

    print(format_table(rows, title=f"{title} (scale={args.scale})"))
    print(f"\nwritten to {out}")
    if args.check_only:
        ok, required = speedup > 1.0, ">1.0 (check-only)"
    else:
        ok, required = speedup >= minimum, f">={minimum}"
    if not ok:
        print(f"FAIL: warm speedup {speedup}, required {required}")
        return 1
    print(f"OK: warm speedup {speedup}, required {required}")
    return 0


def cmd_table(args) -> int:
    from repro import experiments

    drivers = {
        "1": (experiments.overhead_experiment, "Table 1: overhead"),
        "2": (experiments.perturbation_experiment, "Table 2: perturbation"),
        "3": (experiments.cct_stats_experiment, "Table 3: CCT statistics"),
        "4": (experiments.hot_path_experiment, "Table 4: misses by path"),
        "5": (experiments.hot_procedure_experiment, "Table 5: misses by procedure"),
    }
    driver, title = drivers[args.number]
    names = args.workloads or None
    if args.number == "3" and (args.shards or args.runs > 1):
        rows = driver(
            names, args.scale, shards=max(args.shards, 1), runs=args.runs
        )
        title += f" (sharded x{max(args.shards, 1)}, runs={args.runs})"
    elif args.shards or args.runs > 1:
        raise SystemExit("--shards/--runs only apply to table 3")
    else:
        rows = driver(names, args.scale)
    print(format_table(rows, title=f"{title} (scale={args.scale})"))
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line and exit code 2
    (subparsers inherit the class)."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="repro",
        description="Flow and context sensitive profiling (PLDI'97 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_program_command(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="mini-language source or .asm file")
        p.add_argument("args", nargs="*", type=int, help="integer arguments to main")
        p.add_argument("--limit", type=int, default=25, help="max rows printed")
        p.set_defaults(fn=fn)
        return p

    add_program_command("run", cmd_run, "execute and show hardware events")
    profile = add_program_command(
        "profile", cmd_profile, "unified profiling driver (any mode)"
    )
    profile.add_argument(
        "--mode",
        choices=sorted(_PROFILE_MODES),
        default="flow",
        help="profiling configuration (one ProfileSpec mode)",
    )
    profile.add_argument(
        "--placement", choices=["simple", "spanning_tree"], default="spanning_tree"
    )
    profile.add_argument("--engine", help="execution engine override")
    profile.add_argument(
        "--k",
        type=int,
        default=1,
        help="kflow mode only: paths span up to k loop iterations",
    )
    profile.add_argument("--pic0", default="INSTRS", help="PIC0 event name")
    profile.add_argument("--pic1", default="DC_MISS", help="PIC1 event name")
    profile.add_argument("--threshold", type=float, default=0.01)
    profile.add_argument("--backedge-reads", action="store_true")
    profile.add_argument(
        "--merge-sites",
        action="store_true",
        help="site-insensitive CCT (smaller, less precise; §4.1)",
    )
    profile.add_argument(
        "--tree", action="store_true", help="ASCII CCT (context and combined modes)"
    )
    profile.add_argument(
        "--dot", action="store_true", help="Graphviz DOT CCT (context and combined modes)"
    )
    profile.add_argument(
        "--save", help="write the CCT to this file (context and combined modes)"
    )
    profile.add_argument(
        "--log",
        help="append structured JSONL phase events (wall-time per phase) here",
    )
    profile.add_argument(
        "--store",
        help="persist the finished run into this profile-store directory",
    )
    profile.add_argument(
        "--workload",
        help="workload id the stored run is keyed under "
        "(default: derived from the code fingerprint)",
    )
    add_program_command("coverage", cmd_coverage, "path coverage report")
    optimize = add_program_command(
        "optimize", cmd_optimize, "closed PGO loop: profile, optimize, re-measure"
    )
    optimize.add_argument(
        "--mode",
        choices=sorted(m for m in _PROFILE_MODES if m != "baseline"),
        default="combined",
        help="live profiling configuration driving the passes",
    )
    optimize.add_argument(
        "--k",
        type=int,
        default=1,
        help="kflow mode only: paths span up to k loop iterations",
    )
    optimize.add_argument("--engine", help="execution engine override")
    optimize.add_argument(
        "--run",
        help="drive the passes from this stored run ref instead of a "
        "live profile (requires --store)",
    )
    optimize.add_argument(
        "--passes",
        help="comma-separated pass list (default: inline,superblock,layout,cleanup)",
    )
    optimize.add_argument(
        "--min-freq",
        type=int,
        default=None,
        help="minimum measured frequency for a superblock trace",
    )
    optimize.add_argument(
        "--min-calls",
        type=int,
        default=None,
        help="minimum measured invocation count for an inlined edge",
    )
    optimize.add_argument(
        "--max-callee-size",
        type=int,
        default=None,
        help="largest callee the inliner will duplicate",
    )
    optimize.add_argument(
        "--growth-budget",
        type=float,
        default=None,
        help="fraction of original size each duplicating pass may add",
    )
    optimize.add_argument(
        "--report", help="write the repro-pgo-report-v1 JSON here"
    )
    optimize.add_argument(
        "--workload",
        help="workload id the verification runs are keyed under",
    )
    optimize.add_argument(
        "--log",
        help="append structured JSONL phase events here",
    )
    optimize.add_argument(
        "--icache-size",
        type=int,
        default=None,
        help="modelled I-cache size in bytes (default 16384); shrink it "
        "to make layout effects measurable on small programs",
    )
    optimize.add_argument(
        "--icache-assoc",
        type=int,
        default=None,
        help="modelled I-cache associativity (default 2)",
    )

    shard = sub.add_parser(
        "shard-run",
        help="split an input set across forked workers, merge the profiles",
    )
    shard.add_argument(
        "file", nargs="?", help="mini-language source or .asm file"
    )
    shard.add_argument(
        "args", nargs="*", type=int, help="single input: integer args to main"
    )
    shard.add_argument("--shards", type=int, default=2, help="worker count")
    shard.add_argument(
        "--inputs",
        type=_input_sets,
        help="input set: runs separated by ';', args by ',' (e.g. '1,2;3,4')",
    )
    shard.add_argument(
        "--mode",
        choices=sorted(_SHARD_MODES),
        default="combined",
        help="profiling configuration to run and merge",
    )
    shard.add_argument(
        "--k",
        type=int,
        default=1,
        help="kflow mode only: paths span up to k loop iterations",
    )
    shard.add_argument("--limit", type=int, default=25, help="max rows printed")
    shard.add_argument(
        "--keep",
        help="directory to keep shard checkpoints, manifest, and run log",
    )
    shard.add_argument(
        "--resume",
        metavar="MANIFEST",
        help="finish an interrupted run from its manifest.json "
        "(re-executes only missing/corrupt shards)",
    )
    shard.add_argument(
        "--max-retries",
        type=int,
        default=None,
        help="extra attempts per failed/hung/corrupt shard (default: 2)",
    )
    shard.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="seconds before a hung worker is killed and retried",
    )
    shard.add_argument(
        "--backoff",
        type=float,
        default=0.05,
        help="base retry backoff in seconds (doubles per attempt)",
    )
    shard.set_defaults(fn=cmd_shard_run)

    def add_store_flags(p):
        p.add_argument("--store", help="profile-store directory")
        p.add_argument("--json", action="store_true", help="machine-readable report")
        p.add_argument(
            "--ratio",
            type=float,
            default=0.05,
            help="relative change above which a pair is a verdict",
        )
        p.add_argument(
            "--min-count",
            type=int,
            default=32,
            help="absolute count floor below which a pair is noise",
        )
        p.add_argument(
            "--top-k", type=int, default=10, help="hot-path set size for churn"
        )

    add_store_flags(optimize)

    diff = sub.add_parser(
        "diff",
        help="path-spectrum diff of two inputs, or regression diff of two "
        "stored profile refs (--store)",
    )
    diff.add_argument("file", metavar="file_or_base_ref")
    diff.add_argument(
        "candidate",
        nargs="?",
        default=None,
        metavar="candidate_ref",
        help="second stored ref: diff stored profiles instead of spectra",
    )
    diff.add_argument(
        "--first", type=_int_tuple, default="", help="comma-separated args, run A"
    )
    diff.add_argument(
        "--second", type=_int_tuple, default="", help="comma-separated args, run B"
    )
    add_store_flags(diff)
    diff.set_defaults(fn=cmd_diff)

    ci = sub.add_parser(
        "ci",
        help="regression gate: a stored run vs. the previous run of its "
        "spec+workload (exit 1 on degradation)",
    )
    ci.add_argument(
        "ref",
        nargs="?",
        default="latest",
        help="stored run to gate (default: latest)",
    )
    add_store_flags(ci)
    ci.set_defaults(fn=cmd_ci)

    bench = sub.add_parser(
        "bench", help="engine throughput benchmark (writes the JSON gate)"
    )
    bench.add_argument(
        "--instrumented",
        action="store_true",
        help="measure the instrumented suite (flow/context/combined modes)",
    )
    bench.add_argument("--scale", type=float, default=0.5)
    bench.add_argument("--workloads", nargs="*", help="subset of the suite")
    bench.add_argument(
        "--check-only",
        action="store_true",
        help="relax the speedup gate to >1x (noisy shared runners)",
    )
    bench.add_argument(
        "--min",
        type=float,
        default=None,
        help="required warm speedup (default: env override or 3.0/2.0)",
    )
    bench.add_argument("--out", help="output JSON path (default: gate filename)")
    bench.set_defaults(fn=cmd_bench)

    table = sub.add_parser("table", help="regenerate a paper table")
    table.add_argument("number", choices=["1", "2", "3", "4", "5"])
    table.add_argument("--scale", type=float, default=0.5)
    table.add_argument("--workloads", nargs="*", help="subset of the suite")
    table.add_argument(
        "--shards",
        type=int,
        default=0,
        help="table 3 only: aggregate each workload through the sharded driver",
    )
    table.add_argument(
        "--runs",
        type=int,
        default=1,
        help="table 3 only: repetitions per workload in the sharded input set",
    )
    table.set_defaults(fn=cmd_table)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from repro.cct.serialize import CCTLoadError
    from repro.ir.asm import AsmError
    from repro.ir.function import IRValidationError
    from repro.lang import LangError
    from repro.machine.config import MachineConfigError
    from repro.machine.vm import MachineError
    from repro.session import ProfileSpecError
    from repro.store import StoreError
    from repro.tools.runlog import RunLogError
    from repro.tools.shard_runner import ShardCheckpointError, ShardRunError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (
        AsmError,
        CCTLoadError,
        IRValidationError,
        LangError,
        MachineConfigError,
        MachineError,
        OutputFileError,
        ProfileSpecError,
        ProgramFileError,
        RunLogError,
        ShardCheckpointError,
        ShardRunError,
        StoreError,
    ) as exc:
        # Malformed programs, unreadable program files, unwritable log,
        # store and output paths, unsimulatable machine configs, simulated
        # faults (bad calls, exhausted budgets), corrupt dumps,
        # malformed specs, and exhausted shard retries are expected
        # operational conditions: one line naming the offence, not a
        # traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
