"""Trace-tier execution: superblock compilation of hot block chains.

The block engine (:mod:`repro.machine.engine`) compiles each basic
block once, but every block boundary still costs a Python call, a
``frame.regs`` reload, a link-cell dispatch and a counter flush.  This
tier sits above it and removes those boundaries for the hot paths:

* **Hot-chain detection.**  Every branch transfer bumps a per-block
  heat counter in a dispatch dictionary.  When a block's count crosses
  :data:`TRACE_THRESHOLD`, the engine records the *next* chain of
  branch transfers starting from that block — following unconditional
  branches and whichever conditional arm execution actually takes —
  until the chain loops back to its head, revisits a member, runs into
  an untraceable block (calls, returns, setjmp/longjmp, non-fused
  instrumentation), or hits :data:`MAX_TRACE_BLOCKS`.

* **Superblock compilation.**  The recorded chain is compiled into one
  generated Python function.  Architectural registers referenced by
  the trace live in Python *locals* across former block boundaries
  (``_r7`` instead of ``regs[7]``); a chain that loops back to its
  head becomes a real ``while True:`` loop in generated code; fetch
  and memory-event costs batch across the whole chain and flush once
  per observer or per loop iteration instead of once per block; the
  fused instrumentation probes of the block engine are inherited
  verbatim, so flow, context and combined profiling modes all run on
  the trace tier.

* **Deoptimization.**  The off-trace arm of every conditional branch
  (and the final transfer of a non-looping trace) exits the trace with
  an *exact state handoff*: pending counter sums are materialized,
  written-back registers are stored to ``frame.regs``, the I-cache
  line cell is synced, and ``frame.block_name``/``frame.index`` point
  at the successor block.  The block engine continues as if it had
  executed the whole prefix itself, so counters stay bit-identical to
  the reference interpreter (the differential suites enforce this).
  A mid-trace budget overflow performs the same handoff before
  raising, and every run revalidates compiled traces against each
  chain block's ``edit_gen`` exactly like the decoded-block cache.

* **Conservative preconditions.**  Runs with an attached tracer or an
  installed signal handler delegate wholesale to the block engine:
  both observe execution at block granularity, and modelling their
  timing inside superblocks would buy complexity, not speed.

Compiled traces are cached at three levels: per machine (the bound
function in the dispatch dictionary), per block (generated source and
code object on the chain head's ``Block._trace_cache``, shared by all
machines simulating the program), and on disk
(:mod:`repro.machine.codecache`, content-addressed, so a *new process*
skips codegen entirely on warm start).
"""

from __future__ import annotations

import hashlib
import os
import sys
from typing import Dict, List, Optional, Tuple

from repro.ir.instructions import Kind
from repro.machine.codecache import default_cache
from repro.machine.engine import (
    SEGMENT_CAP,
    _BR_MISPRED,
    _BR_TAKEN,
    _BRANCHES,
    _CYCLES,
    _DC_READ,
    _DC_WRITE,
    _FP_STALL,
    _IC_MISS,
    _IC_REF,
    _INLINE_KINDS,
    _INSTRS,
    _LOADS,
    _STORES,
    _SegmentWriter,
    _config_key,
    _fuse_plan,
    _literal,
    _probe_key,
    _resolve_probe_spec,
)

#: Branch-transfer count at which a block becomes a trace head.
TRACE_THRESHOLD = 8

#: Upper bound on blocks fused into one trace.  Together with
#: :data:`repro.machine.engine.SEGMENT_CAP` this bounds how far past
#: ``max_instructions`` one loop iteration can run before the
#: back-edge budget check fires.
MAX_TRACE_BLOCKS = 16

#: Dispatch-table sentinel: this block was evaluated as a trace head
#: and rejected (untraceable, or a non-looping chain too short to pay
#: for its deopt overhead).  Stops repeated recording attempts.
BLACKLIST = object()

#: Entries kept in a head block's ``_trace_cache`` (differently
#: instrumented machines key differently; the dict stays tiny).
_BLOCK_CACHE_CAP = 8


def _threshold() -> int:
    try:
        return max(1, int(os.environ.get("REPRO_TRACE_THRESHOLD", "")))
    except ValueError:
        return TRACE_THRESHOLD


def _traceable_block(machine, block) -> bool:
    """Whether ``block`` can be a trace member.

    Every instruction must compile inline or fuse (closure handlers
    read ``frame.regs`` and would see stale values under register
    residency), the terminator must be a branch (call/return chains
    are the block engine's job), and the block must fit one segment.
    """
    instrs = block.instrs
    if not instrs or len(instrs) > SEGMENT_CAP:
        return False
    term_kind = instrs[-1].kind
    if term_kind != Kind.BR and term_kind != Kind.CBR:
        return False
    for instr in instrs[:-1]:
        kind = instr.kind
        if kind in _INLINE_KINDS:
            continue
        if _fuse_plan(machine, instr) is None:
            return False
    return True


# ---------------------------------------------------------------------------
# Trace code generation
# ---------------------------------------------------------------------------


class _TraceWriter(_SegmentWriter):
    """Segment writer with registers held in Python locals.

    Inherits every instruction body and fused probe from the block
    engine's writer; only the three register-access hooks change, plus
    trace-specific emission for junctions (exits and the back edge).
    """

    def __init__(self, machine, fname: str):
        super().__init__(machine, fname, alloc_link=None)
        #: Registers the trace ever reads / writes.  All referenced
        #: registers are loaded into locals at entry (so an exit taken
        #: before a later write can write back the *original* value),
        #: and all written registers are stored back at every exit.
        self.reg_reads: set = set()
        self.reg_writes: set = set()

    def rd(self, reg: int) -> str:
        self.reg_reads.add(reg)
        return f"_r{reg}"

    def wr(self, reg: int) -> str:
        self.reg_writes.add(reg)
        return f"_r{reg}"

    def rw(self, reg: int) -> str:
        self.reg_reads.add(reg)
        self.reg_writes.add(reg)
        return f"_r{reg}"

    def const(self, value) -> str:
        return _literal(value)

    # -- junction emission -----------------------------------------------------

    def peek_flush(self, indent: int) -> None:
        """Materialize pending cost sums *without* clearing them.

        Exit arms live inside conditionals: the fall-through path
        still owes the same pending sums, so the writer state must
        survive the arm.
        """
        if self.n:
            self.emit(f"counts[{_IC_REF}] += {self.n}", indent)
            self.emit(f"counts[{_INSTRS}] += {self.icost}", indent)
            self.emit(f"counts[{_CYCLES}] += {self.icost + self.fp}", indent)
            if self.fp:
                self.emit(f"counts[{_FP_STALL}] += {self.fp}", indent)
        if self.loads:
            self.emit(f"counts[{_LOADS}] += {self.loads}", indent)
            self.emit(f"counts[{_DC_READ}] += {self.loads}", indent)
        if self.stores:
            self.emit(f"counts[{_STORES}] += {self.stores}", indent)
            self.emit(f"counts[{_DC_WRITE}] += {self.stores}", indent)

    def emit_handoff(self, target: str, indent: int) -> None:
        """Deoptimize: exact state handoff, then back to the block engine."""
        self.peek_flush(indent)
        self.emit(f"_il[0] = {self.prev_iline}", indent)
        self.lines.append(("wb", indent))
        self.emit(f"frame.block_name = {target!r}", indent)
        self.emit("frame.index = 0", indent)

    def emit_exit(self, target: str, indent: int) -> None:
        self.emit_handoff(target, indent)
        self.emit("return None", indent)

    def emit_backedge(
        self, head_name: str, head_addr: int, head_iline: int, max_instructions: int
    ) -> None:
        """Close the loop: flush, budget check, head I-cache probe."""
        tail_iline = self.prev_iline
        self.flush_costs()
        # The budget check the block engine would perform before the
        # head's next segment; the handoff makes the abort state (and
        # the counters at the raise) identical to deoptimizing first.
        self.emit(f"if counts[{_INSTRS}] > {max_instructions}:")
        self.emit_handoff(head_name, indent=3)
        self.emit(
            f'    raise _ME("instruction budget exceeded ({max_instructions})")'
        )
        if tail_iline != head_iline:
            self.emit(f"if not _ica({head_addr}):")
            self.emit(f"    counts[{_IC_MISS}] += 1")
            self.emit(f"    counts[{_CYCLES}] += {self.penalty}")
        self.emit("continue")
        self.prev_iline = head_iline


def _emit_junction(
    writer: _TraceWriter,
    term,
    addr: int,
    iline: int,
    next_name: Optional[str],
    backedge: Optional[Tuple[str, int, int, int]],
) -> None:
    """Emit one chain block's terminator.

    ``next_name`` is the on-trace successor (``None`` when every arm
    exits); ``backedge`` carries ``(head_name, head_addr, head_iline,
    max_instructions)`` when the on-trace arm closes the loop.
    """
    writer.fetch(addr, iline, term.icost)
    if term.kind == Kind.BR:
        if next_name is None or term.target != next_name:
            writer.flush_costs()
            writer.emit_exit(term.target, indent=2)
        elif backedge is not None:
            writer.emit_backedge(*backedge)
        return
    # CBR: emit the off-trace arm as the conditional body, fall
    # through into the on-trace arm.  Branch counters are plain adds —
    # no observer runs between here and the next flush, so they batch
    # through junctions exactly like fetch costs do.
    mp = writer.config.mispredict_penalty
    writer.emit(f"counts[{_BRANCHES}] += 1")
    if term.then == next_name:
        writer.emit(f"if {writer.rd(term.cond)} == 0:")
        writer.emit(f"    if not _prd({addr}, False):")
        writer.emit(f"        counts[{_BR_MISPRED}] += 1")
        writer.emit(f"        counts[{_CYCLES}] += {mp}")
        writer.emit_exit(term.els, indent=3)
        writer.emit(f"counts[{_BR_TAKEN}] += 1")
        writer.emit(f"if not _prd({addr}, True):")
        writer.emit(f"    counts[{_BR_MISPRED}] += 1")
        writer.emit(f"    counts[{_CYCLES}] += {mp}")
        if backedge is not None:
            writer.emit_backedge(*backedge)
    elif term.els == next_name:
        writer.emit(f"if {writer.rd(term.cond)} != 0:")
        writer.emit(f"    counts[{_BR_TAKEN}] += 1")
        writer.emit(f"    if not _prd({addr}, True):")
        writer.emit(f"        counts[{_BR_MISPRED}] += 1")
        writer.emit(f"        counts[{_CYCLES}] += {mp}")
        writer.emit_exit(term.then, indent=3)
        writer.emit(f"if not _prd({addr}, False):")
        writer.emit(f"    counts[{_BR_MISPRED}] += 1")
        writer.emit(f"    counts[{_CYCLES}] += {mp}")
        if backedge is not None:
            writer.emit_backedge(*backedge)
    else:
        # Non-looping trace tail: both arms deoptimize.
        writer.emit(f"if {writer.rd(term.cond)} != 0:")
        writer.emit(f"    counts[{_BR_TAKEN}] += 1")
        writer.emit(f"    if not _prd({addr}, True):")
        writer.emit(f"        counts[{_BR_MISPRED}] += 1")
        writer.emit(f"        counts[{_CYCLES}] += {mp}")
        writer.emit_exit(term.then, indent=3)
        writer.emit(f"if not _prd({addr}, False):")
        writer.emit(f"    counts[{_BR_MISPRED}] += 1")
        writer.emit(f"    counts[{_CYCLES}] += {mp}")
        writer.emit_exit(term.els, indent=2)


def _generate_trace(machine, function, chain: List, loop_back: bool):
    """Produce ``(source, code, specs)`` for one recorded chain.

    Pure in the chain's instruction content, the laid-out addresses
    and the same config/probe constants the block generator bakes in,
    so the result is shared through the head block's ``_trace_cache``
    and the on-disk code cache.
    """
    fname = function.name
    layout = machine.layout.block_addrs
    line_bits = machine._icache_line_bits
    names = [block.name for block in chain]

    head = chain[0]
    head_addrs = layout[(fname, head.name)]
    head_addr = head_addrs[0]
    head_iline = head_addr >> line_bits
    max_instructions = machine.config.max_instructions

    flat_instrs: List = []
    for block in chain:
        flat_instrs.extend(block.instrs)

    writer = _TraceWriter(machine, fname)
    writer.prev_iline = head_iline  # the entry check below establishes it
    writer.cell_stale = True

    flat_base = 0
    for position, block in enumerate(chain):
        instrs = block.instrs
        addrs = layout[(fname, block.name)]
        for i, instr in enumerate(instrs[:-1]):
            addr = addrs[i]
            iline = addr >> line_bits
            if instr.kind in _INLINE_KINDS:
                writer.inline(instr, addr, iline)
            else:
                plan = _fuse_plan(machine, instr)
                writer.fuse(plan, instr, flat_base + i, addr, iline)
        term = instrs[-1]
        if position + 1 < len(chain):
            next_name = names[position + 1]
            backedge = None
        elif loop_back:
            next_name = names[0]
            backedge = (head.name, head_addr, head_iline, max_instructions)
        else:
            next_name = None
            backedge = None
        _emit_junction(
            writer, term, addrs[-1], addrs[-1] >> line_bits, next_name, backedge
        )
        flat_base += len(instrs)

    specs = tuple(spec for _tag, spec in writer.extras)
    params = "".join(f", _pb{i}" for i in range(len(specs)))
    regs_used = sorted(writer.reg_reads | writer.reg_writes)
    writebacks = sorted(writer.reg_writes)

    shape = " -> ".join(names) + (" -> (loop)" if loop_back else "")
    lines: List[str] = [f"# trace {fname}: {shape}"]
    lines.append(
        f"def _maketrace(machine, counts, _il, _ica, _dca, _mrd, _mwr, _sbp, _nms, _rmc, _prd{params}):"
    )
    lines.append("    def _trace(frame):")
    lines.append("        regs = frame.regs")
    for reg in regs_used:
        lines.append(f"        _r{reg} = regs[{reg}]")
    # Dynamic entry check for the head's first fetch — the same test
    # the block engine performs at every segment head.
    lines.append(f"        if {head_iline} != _il[0]:")
    lines.append(f"            if not _ica({head_addr}):")
    lines.append(f"                counts[{_IC_MISS}] += 1")
    lines.append(f"                counts[{_CYCLES}] += {writer.penalty}")
    lines.append("        while True:")
    for entry in writer.lines:
        if entry.__class__ is tuple:
            _tag, indent = entry
            for reg in writebacks:
                lines.append("    " * (indent + 1) + f"regs[{reg}] = _r{reg}")
        else:
            lines.append("    " + entry)
    lines.append("    return _trace")
    source = "\n".join(lines) + "\n"
    code = compile(source, f"<trace {fname}:{names[0]}>", "exec")
    return source, code, specs


# ---------------------------------------------------------------------------
# Cache keys
# ---------------------------------------------------------------------------


def _chain_key(machine, function, chain: List, loop_back: bool) -> Tuple:
    """In-process cache key (mirrors the decoded-block cache key)."""
    layout = machine.layout.block_addrs
    fname = function.name
    return (
        tuple(
            (
                block.name,
                block.edit_gen,
                len(block.instrs),
                layout[(fname, block.name)][0],
            )
            for block in chain
        ),
        loop_back,
        _config_key(machine.config),
        machine.config.max_instructions,
        tuple(_probe_key(machine, block.instrs) for block in chain),
    )


def disk_key(machine, function, chain: List, loop_back: bool) -> str:
    """Content-addressed key for the on-disk code cache.

    ``edit_gen`` orders edits within one process only, so the disk key
    hashes what the generation guards in memory: the instruction reprs
    (dataclass reprs are complete and stable) plus the addresses,
    config constants and probe fingerprints that appear as literals in
    the generated source.  The interpreter cache tag scopes marshalled
    code objects to the interpreter that produced them.
    """
    fname = function.name
    layout = machine.layout.block_addrs
    digest = hashlib.sha256()
    digest.update(
        repr(
            (
                sys.implementation.cache_tag,
                loop_back,
                _config_key(machine.config),
                machine.config.max_instructions,
            )
        ).encode()
    )
    for block in chain:
        digest.update(
            repr(
                (
                    fname,
                    block.name,
                    tuple(layout[(fname, block.name)]),
                    _probe_key(machine, block.instrs),
                )
            ).encode()
        )
        for instr in block.instrs:
            digest.update(repr(instr).encode())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Compilation driver and per-machine state
# ---------------------------------------------------------------------------


class TraceMeta:
    """Validation metadata for one compiled trace (cf. DecodedBlock)."""

    __slots__ = ("chain", "runtimes", "source")

    def __init__(self, chain: Tuple, runtimes: Tuple, source: str):
        #: ``((block_name, edit_gen, n_instrs), ...)`` for every member.
        self.chain = chain
        self.runtimes = runtimes
        self.source = source


def compile_trace(machine, function, names: List[str], loop_back: bool, state):
    """Compile one recorded chain and bind it to ``machine``.

    Returns ``(trace_fn, meta)``.  Generation is skipped when either
    the head block's in-process cache or the on-disk code cache
    already holds this chain's compiled form.
    """
    from repro.machine.vm import MachineError

    chain = [function.block(name) for name in names]
    head = chain[0]
    stats = machine.trace_stats
    key = _chain_key(machine, function, chain, loop_back)

    block_cache = head._trace_cache
    entry = None if block_cache is None else block_cache.get(key)
    if entry is None:
        source = code = specs = None
        disk = state.disk
        if disk is not None:
            dkey = disk_key(machine, function, chain, loop_back)
            cached = disk.get(dkey)
            if cached is not None and len(cached) == 3:
                source, code, specs = cached
                stats["disk_cache_hits"] += 1
            else:
                stats["disk_cache_misses"] += 1
        if code is None:
            source, code, specs = _generate_trace(machine, function, chain, loop_back)
            stats["traces_generated"] += 1
            if disk is not None:
                disk.put(dkey, source, (source, code, specs))
        if block_cache is None:
            block_cache = head._trace_cache = {}
        elif len(block_cache) >= _BLOCK_CACHE_CAP:
            block_cache.clear()
        block_cache[key] = (source, code, specs)
    else:
        source, code, specs = entry

    namespace = machine._codegen_namespace()
    if "_ME" not in namespace:
        namespace["_ME"] = MachineError
    flat_instrs: List = []
    for block in chain:
        flat_instrs.extend(block.instrs)
    exec(code, namespace)
    maker = namespace["_maketrace"]
    extras = [_resolve_probe_spec(machine, flat_instrs, spec) for spec in specs]
    trace_fn = maker(
        machine,
        machine.counters.counts,
        machine._iline,
        machine.icache.access,
        machine.dcache.access,
        machine.memory._store.get,
        machine.memory._store.__setitem__,
        machine._store_buffer_push,
        machine._note_miss,
        machine._read_miss_cycles,
        machine.predictor.predict_and_update,
        *extras,
    )
    meta = TraceMeta(
        tuple((block.name, block.edit_gen, len(block.instrs)) for block in chain),
        (machine.path_runtime, machine.cct_runtime),
        source,
    )
    stats["traces_compiled"] += 1
    stats["trace_blocks"] += len(chain)
    return trace_fn, meta


class TraceState:
    """Per-machine trace tier state: heat, compiled traces, recorder."""

    __slots__ = ("threshold", "dispatch", "traces", "recording", "disk")

    def __init__(self, machine):
        self.threshold = _threshold()
        #: ``(fname, bname) -> heat count | BLACKLIST | trace function``.
        self.dispatch: Dict[Tuple[str, str], object] = {}
        self.traces: Dict[Tuple[str, str], TraceMeta] = {}
        #: Active recording: ``(function, [block names])`` or None.
        self.recording: Optional[Tuple] = None
        self.disk = default_cache()

    def invalidate(self) -> None:
        self.dispatch.clear()
        self.traces.clear()
        self.recording = None

    def begin_run(self, machine) -> None:
        """Evict traces whose chain blocks or runtimes went stale.

        The same per-run sweep the decoded-block cache performs:
        programs cannot be edited mid-run, so validating once per run
        lets the hot dispatch path skip all checks.
        """
        self.recording = None
        functions = machine.program.functions
        runtimes = (machine.path_runtime, machine.cct_runtime)
        stale = []
        for key, meta in self.traces.items():
            function = functions.get(key[0])
            ok = (
                function is not None
                and meta.runtimes[0] is runtimes[0]
                and meta.runtimes[1] is runtimes[1]
            )
            if ok:
                for bname, edit_gen, n_instrs in meta.chain:
                    try:
                        block = function.block(bname)
                    except KeyError:
                        ok = False
                        break
                    if block.edit_gen != edit_gen or len(block.instrs) != n_instrs:
                        ok = False
                        break
            if not ok:
                stale.append(key)
        for key in stale:
            del self.traces[key]
            del self.dispatch[key]
            # The head's DecodedBlock may have latched the stale trace
            # function (it survives when only a *member* block changed).
            decoded = machine._decoded.get(key)
            if decoded is not None:
                decoded.hot = None

    # -- recording -------------------------------------------------------------

    def maybe_start(self, machine, function, key) -> None:
        """A block crossed the heat threshold: record or blacklist it."""
        block = function.block(key[1])
        if _traceable_block(machine, block):
            self.recording = (function, [key[1]])
        else:
            self.dispatch[key] = BLACKLIST

    def record(self, machine, function, key) -> None:
        """One branch transfer while recording: extend or finalize."""
        fn, names = self.recording
        bname = key[1]
        if function is not fn:  # pragma: no cover - branches stay in-function
            self.recording = None
            return
        if bname == names[0]:
            self._finalize(machine, loop_back=True)
            return
        if bname in names:
            self._finalize(machine, loop_back=False)
            return
        existing = self.dispatch.get(key)
        if (
            existing is not None
            and existing.__class__ is not int
            and existing is not BLACKLIST
        ):
            # The chain runs into an already-compiled trace: natural end.
            self._finalize(machine, loop_back=False)
            return
        if len(names) >= MAX_TRACE_BLOCKS:
            self._finalize(machine, loop_back=False)
            return
        if not _traceable_block(machine, function.block(bname)):
            self._finalize(machine, loop_back=False)
            return
        names.append(bname)

    def _finalize(self, machine, loop_back: bool) -> None:
        function, names = self.recording
        self.recording = None
        head_key = (function.name, names[0])
        if not loop_back and len(names) < 2:
            # A one-block non-looping trace is all deopt overhead.
            self.dispatch[head_key] = BLACKLIST
            return
        trace_fn, meta = compile_trace(machine, function, names, loop_back, self)
        self.dispatch[head_key] = trace_fn
        self.traces[head_key] = meta
        decoded = machine._decoded.get(head_key)
        if decoded is not None:
            decoded.hot = trace_fn


# ---------------------------------------------------------------------------
# Outer run loop
# ---------------------------------------------------------------------------


def execute(machine):
    """Run ``machine`` to completion with the trace tier enabled.

    Cold blocks execute on the block engine unchanged; branch
    transfers feed the heat counters; hot chains enter their compiled
    traces.  Runs with a tracer or a signal handler attached delegate
    wholesale to the block engine (see the module docstring).
    """
    from repro.machine import engine as _engine
    from repro.machine.vm import MachineError

    if machine.tracer is not None or machine._signal_handler is not None:
        return _engine.execute(machine)

    state = machine._trace_state
    if state is None:
        state = machine._trace_state = TraceState(machine)
    state.begin_run(machine)
    machine._validate_decoded()

    counts = machine.counters.counts
    frames = machine._frames
    max_instructions = machine.config.max_instructions
    decoded_cache = machine._decoded
    dispatch = state.dispatch
    threshold = state.threshold
    stats = machine.trace_stats
    INSTRS = _INSTRS

    while frames:
        frame = frames[-1]
        function = frame.function
        key = (function.name, frame.block_name)
        index = frame.index
        decoded = decoded_cache.get(key)
        if decoded is None:
            decoded = machine._decoded_block(function, frame.block_name)
        if index == 0:
            # Function entries (calls land here) feed the same heat
            # counters as branch transfers, so a hot helper's body can
            # become a trace even when it is never branched to.
            d = decoded.hot
            if d is None and state.recording is None:
                d = dispatch.get(key)
                if d is None:
                    dispatch[key] = 1
                elif d.__class__ is int:
                    d += 1
                    dispatch[key] = d
                    if d >= threshold:
                        state.maybe_start(machine, function, key)
                    d = None
                else:
                    # Resolved (trace or BLACKLIST): latch for next time.
                    decoded.hot = d
            if d is not None and d is not BLACKLIST and state.recording is None:
                stats["trace_entries"] += 1
                d(frame)
                continue
        k = 0 if index == 0 else decoded.resume[index]
        steps = decoded.steps
        nsteps = decoded.nsteps
        while True:
            if counts[INSTRS] > max_instructions:
                raise MachineError(f"instruction budget exceeded ({max_instructions})")
            r = steps[k](frame)
            if r is True:
                # Call, return or longjmp: a chain cannot cross it.
                if state.recording is not None:
                    state._finalize(machine, loop_back=False)
                break
            if r is False:
                k += 1
                if k >= nsteps:
                    raise MachineError(
                        f"{function.name}.{frame.block_name}: fell through block end"
                    )
                continue
            # Branch transfer within the same frame; the segment code
            # already pointed frame.block_name/index at the successor.
            d = r.hot
            if d is not None and state.recording is None:
                # Resolved block: one slot load, no dict lookup.
                if d is not BLACKLIST:
                    stats["trace_entries"] += 1
                    d(frame)
                    break
                decoded = r
                steps = decoded.steps
                nsteps = decoded.nsteps
                k = 0
                continue
            key = r.key
            if state.recording is not None:
                state.record(machine, function, key)
            d = dispatch.get(key)
            if d is None:
                dispatch[key] = 1
            elif d.__class__ is int:
                d += 1
                dispatch[key] = d
                if d >= threshold and state.recording is None:
                    state.maybe_start(machine, function, key)
            elif d is not BLACKLIST:
                r.hot = d
                stats["trace_entries"] += 1
                d(frame)
                break
            else:
                r.hot = BLACKLIST
            decoded = r
            steps = decoded.steps
            nsteps = decoded.nsteps
            k = 0

    return machine._return_value


__all__ = [
    "BLACKLIST",
    "MAX_TRACE_BLOCKS",
    "TRACE_THRESHOLD",
    "TraceMeta",
    "TraceState",
    "compile_trace",
    "disk_key",
    "execute",
]
