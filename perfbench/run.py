"""The repository benchmark: one command, three closed-loop workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload profile-cold --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``
with no instrumentation in the program.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics: layer
times from the traced passes, the tracing overhead from comparing the
two, and (sim-long) the cost-model ablation.  Every metric is printed
by name with its unit; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The program measured is the ``src/repro`` tree next to this directory;
without it the command exits non-zero before printing a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: Host probes before and after each set-up: one long interval needs
#: several on each side for its window median to skip a probe spike.
SETUP_PROBES = 5


def pin_environment() -> None:
    """Drop every ``REPRO_*`` knob: engine tier, trace tier, code cache,
    bench fan-out and shard fault injection all stay at their defaults."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]


def host_fingerprint() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        type=float,
        default=1.0,
        help="multiplies every program scale (tests use a tiny size)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure at {SRC / 'repro'}", file=sys.stderr)
        return 2
    pin_environment()
    from hostclock import HostClock

    clock = HostClock()
    for _ in range(SETUP_PROBES):
        clock.probe()
    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads  # imports the program under test

    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"error: imported repro from {repro.__file__}", file=sys.stderr)
        return 2
    imports = (time.perf_counter() - started, len(clock.probes) - 1)

    args = parse_args(argv, sorted(workloads.WORKLOADS))
    contract = load_contract()
    workdir = SCRATCH / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run_benchmark(args, contract, workdir, clock, imports)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_benchmark(args, contract, workdir: Path, clock, imports) -> int:
    import measure as measuring
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.size)
    setups = []  # (seconds, host probe index)
    for _ in range(SETUP_REPEATS):
        for _ in range(SETUP_PROBES):
            probe = clock.probe()
        begun = time.perf_counter()
        state = workload.setup(str(workdir))
        setups.append((time.perf_counter() - begun, probe))
    for _ in range(SETUP_PROBES):
        clock.probe()
    import_seconds = clock.normalize(*imports)
    setup_seconds = import_seconds + statistics.median(
        clock.normalize(*setup) for setup in setups
    )
    begun = time.perf_counter()
    workload.references(state)
    reference_seconds = time.perf_counter() - begun

    host = host_fingerprint()
    if args.trace:
        result = measuring.traced_run(workload, state, args.seconds)
        names = contract["per_layer"]
    else:
        result = measuring.timed_run(workload, state, args.seconds)
        names = contract["end_to_end"]
    result.values["setup_s"] = setup_seconds
    result.values["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )

    metrics = {}
    for metric in names:
        value = result.values.get(metric["name"])
        if value is None:
            print(f"error: metric {metric['name']} was not measured", file=sys.stderr)
            return 2
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for key, value in host.items():
        print(f"host.{key} {value}")
    print(
        f"imports {imports[0]:.2f} s  set-ups "
        + " ".join(f"{s:.2f}" for s, _ in setups)
        + f" s (unscaled)  references {reference_seconds:.1f} s"
    )
    for line in result.notes:
        print(line)
    for error in result.ledger.errors:
        print(f"FAILED {error}")
    for name, metric in metrics.items():
        print(f"{name:28} {metric['value']:>16.6g} {metric['unit']}")
    if args.trace:
        SCRATCH.mkdir(exist_ok=True)
        trace_path = SCRATCH / f"trace-{args.workload}-seed{args.seed}.jsonl"
        result.tracer.write(
            str(trace_path),
            {"workload": args.workload, "seed": args.seed, "host": host},
        )
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    ledger = result.ledger
    print(
        json.dumps(
            {
                "correct": ledger.failed == 0,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
