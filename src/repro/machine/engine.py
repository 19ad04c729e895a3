"""Predecoded block execution engine ("decode once, execute many").

The simple interpreter in :mod:`repro.machine.vm` re-inspects
``instr.kind`` through a long ``if/elif`` chain for every *dynamic*
instruction and recomputes fetch bookkeeping (``address >> line_bits``)
per instruction.  All of that is static per *static* instruction, so
this engine compiles each basic block once and caches the result on the
machine:

* the block is partitioned into **segments** — maximal straight-line
  runs ending at a control transfer (branch, call, return, longjmp), a
  setjmp (so longjmp resume points always land on a segment boundary),
  or the :data:`SEGMENT_CAP` safety split;
* each segment is compiled to one specialized Python function that
  fetches every one of its instructions and runs the common ones
  inline (const/move/binop/fbinop, loads, stores, conditional and
  unconditional branches, alloc, setjmp and the path-register
  pseudo-ops) — generated source with register numbers, counter
  indices, cost sums, penalties, D-cache and store-buffer geometry and
  table strides inlined as literals, ``exec``-ed once at decode time.  Those
  literals are the block's *shape*; every other value is bound as a
  maker parameter through :meth:`_SegmentWriter.const`: what the block
  computes with (immediates, constants, load/store offsets, path
  increments, commit ends and restarts, k-iteration value tuples, edge
  indices, CCT call slots) and where it sits (addresses, I-cache lines
  and sets, predictor slots, block and function names, table bases and
  capacities, CCT proc ids);
* the instrumentation hooks spliced by :mod:`repro.instrument` are
  **fused** into the generated source wherever their behaviour is
  static: array-table ``bump``/``accumulate`` fast paths with slot
  strides inlined, ``edge_count`` with the whole address precomputed,
  the PIC zero/save/restore sequences, the CCT
  gCSP store before calls, and the CCT entry/exit protocol with a
  generated tag-0 fast path that only calls into the runtime
  (``CCTRuntime._enter_slow``) for tag-1/tag-2 slots.  Every other
  hook — hash tables, per-context tables (the combined mode's ``table
  == -1``), CCT backedge probes, and any hook run without an attached
  runtime — is one generated line, the simple engine's own runtime
  call (``machine._require_path_runtime().commit(machine, frame,
  instr)``), with the instruction bound as a maker parameter;
* only the instructions that change the frame stack — calls, indirect
  calls, returns and longjmp — get a closure handler, one per
  instruction with operands and callee records bound at decode time.
  It holds the frame change alone; the segment fetches the
  instruction, flushes its costs and then returns through it;
* block-static work is hoisted out of the inner loop: per-run
  ``IC_REF``/``INSTRS``/``CYCLES``/``FP_STALL`` increments are batched
  into partial sums flushed before the next counter *observer*, and the
  per-instruction ``address >> line_bits`` check is replaced by probes
  at precomputed I-cache line-crossing addresses;
* the cost models' common case is generated code too, for program and
  fused probe traffic alike.  A direct-mapped D-cache access is the tag
  test ``_dt[_b & mask] != _b`` on the bound ``tags`` list, with the
  line bits and set mask as literals; a miss is one call to a
  per-machine function (:func:`_dcache_miss_paths`) that fills the
  line per the write-allocate policy, counts the miss and its region
  with one ``bisect``, and adds the L1 penalty, reaching the L2 only
  when one is enabled.
  A conditional branch steps its two-bit counter on the bound
  predictor ``table`` at a bound slot.  An I-cache line crossing
  compares the line with the most recent line of its set (bound set
  index) and calls ``access`` only when they differ, since a hit on
  that line changes no LRU state.  A store-buffer push is the closed
  form of :meth:`Machine._store_buffer_push` on the shared one-integer
  ``_sb`` cell: stores drain back to back, so the pending ones always
  form a run of step ``store_drain_cycles`` ending at the newest
  completion time, and a push stalls by ``last - now -
  (depth-1)*drain`` when that is positive.  Any model of another class
  — a set-associative D-cache, an ablation stub — is reached through
  its methods instead (the call form); the model classes select the
  form at decode time and are part of the block cache key.

Equivalence argument: inside a batched run no operation reads a
counter, so only the *order* of commutative additions into the counter
bank differs from one-at-a-time execution; the totals at every
observation point are identical.  The observers are store-buffer pushes
(which read ``CYCLES``), PIC reads (which read any event), the signal
delivery and budget checks at block/segment boundaries, and run end —
the decoder flushes pending cost sums before each of them.  A fused
probe flushes only when its body actually reads a counter: every
simulated profiling *store* drains the store buffer (an observer) and
every PIC access latches counter values, so those sequences flush
first, while the pure gCSP assignment of ``CctCall`` batches straight
through; an unfused hook's runtime call always flushes first.  Every
instruction is fetched in one place, :meth:`_SegmentWriter.fetch`, and
neither a fused probe nor an unfused hook's call breaks the segment or
resets the static I-cache line tracking (no runtime touches the line
state), so the probe sequence stays exactly the one the simple
engine's dynamic ``iline != last_iline`` test produces.  I-cache
probes happen at exactly the addresses where that dynamic test would
fire: within a segment the line sequence is static, and the one
dynamic case (the first instruction executed after a control transfer)
is checked against the machine's line state at every segment head.

Decoded blocks are cached per machine, keyed by ``(function, block)``
and validated against the block's **edit generation** (a monotonic
counter :meth:`repro.ir.function.Block.note_edit` bumps on every
splice; ``id(block.instrs)`` is unsafe — a GC'd list's id can be
reused) plus ``len(block.instrs)``, so :mod:`repro.edit` splices
invalidate stale entries automatically; call
:meth:`Machine.invalidate_decoded` after any other program surgery.
The generated source cached on the block additionally keys on the
config constants it bakes in (:func:`_config_key`), on the cost-model
classes and geometry (:func:`_model_key`) and on a *probe fingerprint*
— the table geometry and CCT flags baked into fused probes — so
machines with differently-shaped models or runtimes never share
compiled code.  ``Program.clone()`` carries that cache, which is why
the model classes are in the key: an ablation stub set on a machine
before its first decode must not reuse tag-test code, nor leave its
call-form code to a default machine.

Code objects come from :func:`_compile_block`, a process-wide LRU
cache of :data:`COMPILE_CACHE_CAP` entries keyed by the source text.
Because operand values and positions are parameters, blocks of the
same shape — the same function in two cloned programs, twin helpers,
repeated loop bodies, blocks that differ only in an immediate or a
path increment — compile once.  The text is a sound key on its own:
every constant the code depends on is either a literal in it or an
argument bound per machine at decode time.  The cap is sized to the
profile loop's working set, so each shape compiles once per process:
a pass of the repo benchmark's profile-cold workload decodes 645
distinct texts, sim-long 324 and ci-loop 172.  An LRU cache smaller
than a loop's working set evicts every entry before its next use.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from typing import Callable, Dict, List, Optional, Tuple

from repro.cct.records import CallRecord
from repro.cct.runtime import GCSP_SLOT, _ShadowEntry
from repro.instrument.tables import TableKind
from repro.ir.instructions import (
    BINARY_OPS,
    FLOAT_OPS,
    Imm,
    Kind,
    _int_div,
    _int_mod,
)
from repro.machine.branch import TwoBitPredictor
from repro.machine.caches import DirectMappedCache, SetAssociativeCache
from repro.machine.counters import Event
from repro.machine.memory import WORD

_CYCLES = int(Event.CYCLES)
_INSTRS = int(Event.INSTRS)
_DC_READ = int(Event.DC_READ)
_DC_WRITE = int(Event.DC_WRITE)
_DC_READ_MISS = int(Event.DC_READ_MISS)
_DC_WRITE_MISS = int(Event.DC_WRITE_MISS)
_DC_MISS = int(Event.DC_MISS)
_IC_REF = int(Event.IC_REF)
_IC_MISS = int(Event.IC_MISS)
_BRANCHES = int(Event.BRANCHES)
_BR_TAKEN = int(Event.BR_TAKEN)
_BR_MISPRED = int(Event.BR_MISPRED)
_SB_STALL = int(Event.SB_STALL)
_FP_STALL = int(Event.FP_STALL)
_LOADS = int(Event.LOADS)
_STORES = int(Event.STORES)

#: Upper bound on instructions compiled into one segment: the engine
#: checks the instruction budget between segments, so this bounds how
#: far past ``max_instructions`` a straight-line run can get.
SEGMENT_CAP = 64

#: Program kinds compiled inline into generated segment code.
_INLINE_KINDS = frozenset(
    {
        Kind.CONST,
        Kind.MOVE,
        Kind.BINOP,
        Kind.FBINOP,
        Kind.LOAD,
        Kind.STORE,
        Kind.FRAME_LOAD,
        Kind.FRAME_STORE,
        Kind.ALLOC,
        Kind.BR,
        Kind.CBR,
        Kind.SETJMP,
        Kind.PATH_RESET,
        Kind.PATH_ADD,
        Kind.K_PATH_ADD,
    }
)

#: Kinds that change the frame stack: segment code fetches them, then
#: calls their closure handler (see :func:`_make_handler`).
_HANDLER_KINDS = frozenset({Kind.CALL, Kind.ICALL, Kind.RET, Kind.LONGJMP})

#: Kinds whose segment code ends in a control transfer.
_TRANSFER_KINDS = _HANDLER_KINDS | {Kind.BR, Kind.CBR}

#: Integer binops that map to a Python operator with semantics
#: identical to the BINARY_OPS lambda (comparisons are emitted as
#: ``1 if a < b else 0`` so results stay int, never bool).
_INT_OP_FMT = {
    "add": "{a} + {b}",
    "sub": "{a} - {b}",
    "mul": "{a} * {b}",
    "and": "{a} & {b}",
    "or": "{a} | {b}",
    "xor": "{a} ^ {b}",
    "shl": "{a} << {b}",
    "shr": "{a} >> {b}",
    "eq": "1 if {a} == {b} else 0",
    "ne": "1 if {a} != {b} else 0",
    "lt": "1 if {a} < {b} else 0",
    "le": "1 if {a} <= {b} else 0",
    "gt": "1 if {a} > {b} else 0",
    "ge": "1 if {a} >= {b} else 0",
    "div": "_idiv({a}, {b})",
    "mod": "_imod({a}, {b})",
    "min": "min({a}, {b})",
    "max": "max({a}, {b})",
}

_FLOAT_OP_FMT = {
    "fadd": "{a} + {b}",
    "fsub": "{a} - {b}",
    "fmul": "{a} * {b}",
    "fdiv": "_fdiv({a}, {b})",
}


def _const_key(value) -> Tuple:
    """Dedup key of a bound constant: equal keys mean interchangeable values.

    Keyed by type as well as value so ``1``, ``1.0`` and ``True`` stay
    apart, and by a float's sign so ``0.0`` and ``-0.0`` do too (they
    compare equal but are different values).
    """
    cls = value.__class__
    if cls is float:
        return (cls, value, math.copysign(1.0, value))
    return (cls, value)


class DecodedBlock:
    """One block's compiled step list plus cache-validation metadata."""

    __slots__ = (
        "steps",
        "nsteps",
        "resume",
        "edit_gen",
        "n_instrs",
        "total_icost",
        "source",
        "runtimes",
    )

    def __init__(
        self,
        steps: List[Callable],
        resume: Dict[int, int],
        edit_gen: int,
        n_instrs: int,
        total_icost: int,
        source: str,
        runtimes: Tuple,
    ):
        self.steps = steps
        self.nsteps = len(steps)
        #: Instruction index -> step index, defined for every step start
        #: (block entry, and the instruction after each call/setjmp —
        #: the only places ``frame.index`` can point mid-block).
        self.resume = resume
        #: The block's edit generation at decode time; a bumped
        #: generation (any splice) evicts this decoding.
        self.edit_gen = edit_gen
        self.n_instrs = n_instrs
        self.total_icost = total_icost
        #: The generated segment source (kept for tests and debugging).
        self.source = source
        #: The (path_runtime, cct_runtime) pair whose tables/records the
        #: fused probes bound; strong references on purpose, so identity
        #: comparison in ``_validate_decoded`` can never hit a recycled
        #: ``id``.  Swapping runtimes between runs evicts the decoding.
        self.runtimes = runtimes


# ---------------------------------------------------------------------------
# Closure handlers: calls, returns and longjmp (one per instruction).
# Segment code has already fetched the instruction and flushed its
# costs, so a closure holds only the frame-stack change; control always
# transfers, so each returns True.
# ---------------------------------------------------------------------------


def _make_handler(machine, instr, next_index: int, fname: str):
    from repro.machine.vm import Frame, MachineError

    kind = instr.kind
    counts = machine.counters.counts
    frames = machine._frames
    functions = machine.program.functions

    if kind == Kind.CALL or kind == Kind.ICALL:
        frame_base = machine.memory.frame_base
        frame_words = machine.config.frame_words
        max_call_depth = machine.config.max_call_depth
        dst, site, args = instr.dst, instr.site, instr.args
        nargs = len(args)
        imm_args = tuple(
            (pos, a.value) for pos, a in enumerate(args) if a.__class__ is Imm
        )
        reg_args = tuple(
            (pos, a) for pos, a in enumerate(args) if a.__class__ is not Imm
        )
        if kind == Kind.CALL:
            callee = functions.get(instr.callee)
            callee_name = instr.callee
            table = None
            func_reg = None
        else:
            callee = None
            callee_name = None
            table = machine.program.function_table
            func_reg = instr.func

        def step(frame):
            if callee is not None:
                target = callee
            elif table is None:
                raise MachineError(f"call to unknown {callee_name!r}")
            else:
                findex = frame.regs[func_reg]
                if not 0 <= findex < len(table):
                    raise MachineError(f"indirect call through bad index {findex!r}")
                target = functions[table[findex]]
            if len(frames) >= max_call_depth:
                raise MachineError("call stack overflow")
            if nargs > target.num_params:
                raise MachineError(f"{fname}: too many args for {target.name}")
            frame.index = next_index
            new_frame = Frame(target, frame_base(len(frames), frame_words), dst)
            new_regs = new_frame.regs
            for pos, value in imm_args:
                new_regs[pos] = value
            regs = frame.regs
            for pos, reg in reg_args:
                new_regs[pos] = regs[reg]
            frames.append(new_frame)
            machine.depth = len(frames)
            tracer = machine.tracer
            if tracer is not None:
                tracer.on_enter(target.name, site)
                tracer.on_block(target.name, new_frame.block_name)
            return True

        return step

    if kind == Kind.RET:
        rv = instr.value
        rv_imm = rv is not None and rv.__class__ is Imm
        rv_value = rv.value if rv_imm else None

        def step(frame):
            if rv is None:
                value = None
            elif rv_imm:
                value = rv_value
            else:
                value = frame.regs[rv]
            frames.pop()
            machine.depth = len(frames)
            if frame.is_signal:
                machine._signal_depth -= 1
                machine._next_signal_at = counts[_INSTRS] + machine._signal_period
                if machine.cct_runtime is not None:
                    machine.cct_runtime.on_signal_return(machine)
            tracer = machine.tracer
            if tracer is not None:
                tracer.on_exit(fname, value)
            if not frames:
                machine._return_value = value
            else:
                if frame.ret_reg is not None and not frame.is_signal:
                    frames[-1].regs[frame.ret_reg] = 0 if value is None else value
            return True

        return step

    # Kind.LONGJMP
    jmpbufs = machine._jmpbufs
    env, jv = instr.env, instr.value
    jv_imm = jv.__class__ is Imm
    jv_value = jv.value if jv_imm else None

    def step(frame):
        regs = frame.regs
        handle = regs[env]
        if not 0 <= handle < len(jmpbufs):
            raise MachineError(f"longjmp through bad handle {handle!r}")
        depth, block_name, resume_index, dst_reg = jmpbufs[handle]
        if depth > len(frames):
            raise MachineError("longjmp to a dead frame")
        value = jv_value if jv_imm else regs[jv]
        if value == 0:
            value = 1
        tracer = machine.tracer
        while len(frames) > depth:
            dead = frames.pop()
            if tracer is not None:
                tracer.on_exit(dead.function.name, None)
        machine.depth = len(frames)
        if machine.cct_runtime is not None:
            machine.cct_runtime.unwind_to(machine, len(frames))
        target = frames[-1]
        target.block_name = block_name
        target.index = resume_index
        target.regs[dst_reg] = value
        if tracer is not None:
            tracer.on_block(target.function.name, block_name)
        return True

    return step


# ---------------------------------------------------------------------------
# Segment code generation
# ---------------------------------------------------------------------------


class _SegmentWriter:
    """Emits one segment's specialized source, batching static costs.

    :meth:`fetch` is the one fetch path: every instruction of the
    segment goes through it, whatever runs after.  Fetch costs
    (``IC_REF``/``INSTRS``/``CYCLES``/``FP_STALL``) of consecutive
    instructions accumulate into partial sums that are flushed before
    the next *observer* — a store (its store-buffer push reads
    ``CYCLES``), a fused probe body that reads a counter (profiling
    stores and PIC accesses; the pure gCSP assignment of ``CctCall`` is
    no observer and batches through), an unfused hook's runtime call
    (:meth:`hook_call`), a closure handler (:meth:`handler_call`), or
    segment end.  I-cache probes are emitted in instruction order at
    line-crossing addresses only, and the static line tracking lasts
    the whole segment.

    Each cost model's hit path is emitted inline when the machine's
    model is of the default class: the direct-mapped D-cache tag test
    (miss: one ``_drm``/``_dwm`` call), the I-cache
    most-recent-line test (otherwise: ``_ica``), the two-bit predictor
    step, and the store-buffer push, which never calls.  A model of any
    other class gets the call form (``_dca``, ``_ica``, ``_prd``), so
    only the default models' state lists are bound by identity.
    Values derived from an address — I-cache sets, predictor slots —
    are bound under their own :meth:`const` role.
    """

    def __init__(self, machine, fname: str, alloc_link: Callable[[], int]):
        self.lines: List[str] = []
        self.machine = machine
        self.fname = fname
        self.alloc_link = alloc_link
        #: Per-segment maker parameters beyond the fixed ones, in
        #: emission order: ("h", instr_index) the closure handler,
        #: ("lk", n) successor-link cells, ("pb", spec) bind-time
        #: objects (hook instructions, and the tables, PIC methods and
        #: CCT state fused probes use), and ("c", value) block-specific
        #: constants (see :meth:`const`).
        self.extras: List[Tuple[str, object]] = []
        #: The maker parameter name of each ``extras`` entry.
        self.names: List[str] = []
        #: spec -> generated parameter name, for per-segment dedup.
        self._params: Dict[Tuple, str] = {}
        #: (type, value) -> generated constant name, likewise.
        self._consts: Dict[Tuple, str] = {}
        self.config = machine.config
        self.penalty = machine.config.icache_miss_penalty
        self.write_allocate = machine.config.dcache_write_allocate
        self.fp_latencies = machine.config.fp_latencies
        self.dcache, self.icache, self.predictor = _inline_models(machine)
        # pending cost sums
        self.n = 0
        self.icost = 0
        self.fp = 0
        # pending memory-event sums: program loads/stores contribute
        # LOADS/DC_READ (resp. STORES/DC_WRITE) unconditionally, and no
        # operation between flushes reads those counters, so the
        # increments batch exactly like fetch costs do.  (Fused probe
        # traffic stays unbatched: probe bodies interleave PIC reads.)
        self.loads = 0
        self.stores = 0
        # I-cache line of the previous emitted instruction; None until
        # the segment head's dynamic check has run.
        self.prev_iline: Optional[int] = None
        self.cell_stale = False

    def _bind(self, extra: Tuple[str, object], name: str) -> None:
        self.extras.append(extra)
        self.names.append(name)

    def param(self, *spec) -> str:
        """Parameter name for a bind-time object described by ``spec``."""
        name = self._params.get(spec)
        if name is None:
            name = f"_pb{len(self._params)}"
            self._params[spec] = name
            self._bind(("pb", spec), name)
        return name

    def const(self, value, role: str = "") -> str:
        """Source expression for a block-specific constant.

        Operand values (immediates, constants, offsets, path values,
        edge and call-slot numbers) and positions (addresses, I-cache
        lines, block and function names, table bases and capacities,
        CCT proc ids) become maker parameters, named in first-use
        order and deduplicated by :func:`_const_key`, so blocks that
        differ only in those values emit byte-identical source and
        share one code object.  A ``role`` keeps values derived from an
        address (I-cache sets, predictor slots) apart from the rest:
        whether such a value happens to equal an operand depends on
        where the block sits, so merging them would split twin blocks.
        """
        key = (role, *_const_key(value))
        name = self._consts.get(key)
        if name is None:
            name = f"_c{len(self._consts)}"
            self._consts[key] = name
            self._bind(("c", value), name)
        return name

    def emit(self, line: str, indent: int = 2) -> None:
        self.lines.append("    " * indent + line)

    # -- fetch ----------------------------------------------------------------

    def fetch(self, addr: int, iline: int, icost: int) -> None:
        """Fetch one instruction: its I-cache probe, if it starts a new
        line, and its share of the batched fetch costs."""
        if self.prev_iline is None:
            # Dynamic head check: the previous dynamic instruction ran
            # in another segment (or another block entirely).
            self.emit(f"if {self.const(iline)} != _il[0]:")
            self._icache_probe(addr, iline, 3)
        elif iline != self.prev_iline:
            self._icache_probe(addr, iline, 2)
        self.prev_iline = iline
        self.cell_stale = True
        self.n += 1
        self.icost += icost

    def _icache_probe(self, addr: int, iline: int, indent: int) -> None:
        """Fetch from a new I-cache line: a hit on the line its set used
        last changes no LRU state, so only other lines call ``access``."""
        if self.icache is not None:
            iset = self.const(self.icache.set_index(addr), "set")
            self.emit(f"_w = _iw[{iset}]", indent)
            self.emit(f"if not _w or _w[-1] != {self.const(iline)}:", indent)
            indent += 1
        self.emit(f"if not _ica({self.const(addr)}):", indent)
        self.emit(f"    counts[{_IC_MISS}] += 1", indent)
        self.emit(f"    counts[{_CYCLES}] += {self.penalty}", indent)

    def flush_costs(self) -> None:
        if self.n:
            self.emit(f"counts[{_IC_REF}] += {self.n}")
            self.emit(f"counts[{_INSTRS}] += {self.icost}")
            self.emit(f"counts[{_CYCLES}] += {self.icost + self.fp}")
            if self.fp:
                self.emit(f"counts[{_FP_STALL}] += {self.fp}")
            self.n = self.icost = self.fp = 0
        if self.loads:
            self.emit(f"counts[{_LOADS}] += {self.loads}")
            self.emit(f"counts[{_DC_READ}] += {self.loads}")
            self.loads = 0
        if self.stores:
            self.emit(f"counts[{_STORES}] += {self.stores}")
            self.emit(f"counts[{_DC_WRITE}] += {self.stores}")
            self.stores = 0

    def sync_cell(self) -> None:
        """Bring the machine's I-cache line state up to date (needed
        before a transfer, whose target segment's head check reads it,
        and before a runtime call, so a fault leaves it current)."""
        if self.cell_stale:
            self.emit(f"_il[0] = {self.const(self.prev_iline)}")
            self.cell_stale = False

    # -- operand helpers -------------------------------------------------------

    def _operand(self, value) -> str:
        if value.__class__ is Imm:
            return self.const(value.value)
        return f"regs[{value}]"

    # -- instruction bodies ----------------------------------------------------

    def inline(self, instr, index: int, addr: int, iline: int) -> None:
        kind = instr.kind
        self.fetch(addr, iline, instr.icost)
        if kind == Kind.BINOP:
            expr = _INT_OP_FMT[instr.op].format(
                a=f"regs[{instr.a}]", b=self._operand(instr.b)
            )
            self.emit(f"regs[{instr.dst}] = {expr}")
        elif kind == Kind.CONST:
            self.emit(f"regs[{instr.dst}] = {self.const(instr.value)}")
        elif kind == Kind.MOVE:
            self.emit(f"regs[{instr.dst}] = regs[{instr.src}]")
        elif kind == Kind.FBINOP:
            expr = _FLOAT_OP_FMT[instr.op].format(
                a=f"regs[{instr.a}]", b=self._operand(instr.b)
            )
            self.emit(f"regs[{instr.dst}] = {expr}")
            self.fp += self.fp_latencies[instr.op] - 1
        elif kind == Kind.LOAD or kind == Kind.FRAME_LOAD:
            if kind == Kind.LOAD:
                offset = f" + {self.const(instr.offset)}" if instr.offset else ""
                self.emit(f"_a = regs[{instr.base}]{offset}")
            else:
                self.emit(f"_a = frame.base_addr + {instr.slot * WORD}")
            self.loads += 1
            self._dcache_read("_a", 2)
            self.emit(f"regs[{instr.dst}] = _mrd(_a, 0)")
        elif kind == Kind.STORE or kind == Kind.FRAME_STORE:
            # The store-buffer push reads CYCLES: flush pending costs
            # (this store's fetch and its STORES/DC_WRITE bump
            # included) before the body runs.
            if kind == Kind.STORE:
                value = self._operand(instr.src)
                offset = f" + {self.const(instr.offset)}" if instr.offset else ""
                self.stores += 1
                self.flush_costs()
                self.emit(f"_a = regs[{instr.base}]{offset}")
            else:
                value = f"regs[{instr.src}]"
                self.stores += 1
                self.flush_costs()
                self.emit(f"_a = frame.base_addr + {instr.slot * WORD}")
            self._dcache_write("_a", 2)
            self._store_buffer_push(2)
            self.emit(f"_mwr(_a, {value})")
        elif kind == Kind.ALLOC:
            self.emit(f"regs[{instr.dst}] = _halloc({self._operand(instr.size)})")
        elif kind == Kind.SETJMP:
            # The resume point is the next instruction, which starts
            # the next segment.
            self.emit(f"regs[{instr.env}] = len(machine._jmpbufs)")
            self.emit(
                "machine._jmpbufs.append((len(machine._frames), frame.block_name, "
                f"{self.const(index + 1)}, {instr.dst}))"
            )
            self.emit(f"regs[{instr.dst}] = 0")
        elif kind == Kind.PATH_RESET:
            self.emit(f"regs[{instr.reg}] = 0")
        elif kind == Kind.PATH_ADD:
            self.emit(f"regs[{instr.reg}] += {self.const(instr.value)}")
        elif kind == Kind.K_PATH_ADD:
            self.emit(f"_r = regs[{instr.reg}]")
            self.emit(
                f"regs[{instr.reg}] = _r + {self.const(instr.values)}[_r % {instr.k}]"
            )
        elif kind == Kind.BR:
            self.flush_costs()
            self.sync_cell()
            self._transfer(instr.target, indent=2)
        elif kind == Kind.CBR:
            self.flush_costs()
            self.sync_cell()
            self.emit(f"counts[{_BRANCHES}] += 1")
            if self.predictor is not None:
                self.emit(f"_ps = _pt[{self.const(self.predictor.slot(addr), 'slot')}]")
            self.emit(f"if regs[{instr.cond}] != 0:")
            self.emit(f"    counts[{_BR_TAKEN}] += 1")
            self._predict(addr, True)
            self._transfer(instr.then, indent=3)
            self.emit("else:")
            self._predict(addr, False)
            self._transfer(instr.els, indent=3)
        else:  # pragma: no cover - guarded by _INLINE_KINDS
            raise AssertionError(f"{kind!r} is not an inline kind")

    def _predict(self, addr: int, taken: bool) -> None:
        """The predictor update of one branch arm, a mispredict charged.

        Inline it is the two-bit counter step on the state ``_ps`` read
        before the arms split: taken counts up from below 3 and was
        mispredicted below 2, not-taken counts down from above 0 and
        was mispredicted above 1.
        """
        mispredict = (
            f"counts[{_BR_MISPRED}] += 1",
            f"counts[{_CYCLES}] += {self.config.mispredict_penalty}",
        )
        if self.predictor is None:
            self.emit(f"if not _prd({self.const(addr)}, {taken}):", 3)
            for line in mispredict:
                self.emit(f"    {line}", 3)
            return
        slot = self.const(self.predictor.slot(addr), "slot")
        if taken:
            self.emit("if _ps < 3:", 3)
            self.emit(f"    _pt[{slot}] = _ps + 1", 3)
            self.emit("    if _ps < 2:", 3)
        else:
            self.emit("if _ps > 0:", 3)
            self.emit(f"    _pt[{slot}] = _ps - 1", 3)
            self.emit("    if _ps > 1:", 3)
        for line in mispredict:
            self.emit(f"        {line}", 3)

    # -- cost-model hit paths ---------------------------------------------------

    def _dcache_tag(self, addr: str, indent: int) -> None:
        """Open the direct-mapped tag test: its body is the miss path."""
        self.emit(f"_b = {addr} >> {self.dcache._line_bits}", indent)
        self.emit(f"if _dt[_b & {self.dcache._set_mask}] != _b:", indent)

    def _dcache_read(self, addr: str, indent: int) -> None:
        """D-cache side of a read: miss count, penalty, attribution."""
        if self.dcache is not None:
            self._dcache_tag(addr, indent)
            self.emit(f"    _drm({addr})", indent)
            return
        self.emit(f"if not _dca({addr}):", indent)
        self.emit(f"    counts[{_DC_READ_MISS}] += 1", indent)
        self.emit(f"    counts[{_DC_MISS}] += 1", indent)
        self.emit(f"    counts[{_CYCLES}] += _rmc({addr})", indent)
        self.emit(f"    _nms({addr})", indent)

    def _dcache_write(self, addr: str, indent: int) -> None:
        """D-cache side of a write (allocation per the config)."""
        if self.dcache is not None:
            self._dcache_tag(addr, indent)
            self.emit(f"    _dwm({addr})", indent)
            return
        miss = f"_dca({addr})" if self.write_allocate else f"_dca({addr}, False)"
        self.emit(f"if not {miss}:", indent)
        self.emit(f"    counts[{_DC_WRITE_MISS}] += 1", indent)
        self.emit(f"    counts[{_DC_MISS}] += 1", indent)
        self.emit(f"    _nms({addr})", indent)

    def _store_buffer_push(self, indent: int) -> None:
        """``Machine._store_buffer_push`` on the shared ``_sb`` cell."""
        drain = self.config.store_drain_cycles
        full = (self.config.store_buffer_depth - 1) * drain
        self.emit(f"_d = _sb[0] - counts[{_CYCLES}]", indent)
        self.emit(f"if _d > {full}:", indent)
        self.emit(f"    counts[{_CYCLES}] += _d - {full}", indent)
        self.emit(f"    counts[{_SB_STALL}] += _d - {full}", indent)
        self.emit(f"_sb[0] = (_sb[0] if _d > 0 else counts[{_CYCLES}]) + {drain}", indent)

    def _transfer(self, target: str, indent: int) -> None:
        # Branch targets stay within the function, so the successor's
        # decoded block is returned directly (resolved lazily through a
        # per-site link cell) and the run loop skips the cache lookup.
        n = self.alloc_link()
        self._bind(("lk", n), f"_lk{n}")
        name = self.const(target)
        self.emit(f"frame.block_name = {name}", indent)
        self.emit("frame.index = 0", indent)
        self.emit("_t = machine.tracer", indent)
        self.emit("if _t is not None:", indent)
        self.emit(f"    _t.on_block({self.const(self.fname)}, {name})", indent)
        self.emit(f"return _lk{n}[0] or _rs(_lk{n}, {name})", indent)

    # -- fused instrumentation probes ------------------------------------------

    def probe_read(self, addr: str, indent: int = 2) -> None:
        """``Machine.probe_read`` traffic with the value discarded.

        The simulated memory read itself is skipped: ``MemoryMap.read``
        is a pure dictionary lookup, so dropping it changes no counter
        and no state.
        """
        self.emit(f"counts[{_LOADS}] += 1", indent)
        self.emit(f"counts[{_DC_READ}] += 1", indent)
        self._dcache_read(addr, indent)

    def probe_write(self, addr: str, value: str, indent: int = 2) -> None:
        """``Machine.probe_write`` traffic: miss probe, drain, store."""
        self.emit(f"counts[{_STORES}] += 1", indent)
        self.emit(f"counts[{_DC_WRITE}] += 1", indent)
        self._dcache_write(addr, indent)
        self._store_buffer_push(indent)
        self.emit(f"_mwr({addr}, {value})", indent)

    def fuse(self, plan: Tuple, instr, index: int, addr: int, iline: int) -> None:
        """Emit one instrumentation hook inline (plan from _fuse_plan).

        Every fused body except ``CctCall`` observes counters (its
        profiling stores drain the store buffer; PIC accesses latch
        event counts), so pending fetch costs flush first — exactly the
        state the simple engine has charged when the hook runs.
        ``CctCall`` touches no counter and batches straight through.
        """
        self.fetch(addr, iline, instr.icost)
        op = plan[0]
        if op != "cct_call":
            self.flush_costs()
        if op == "commit":
            self._fuse_commit(instr, plan[1])
        elif op == "accum":
            self._fuse_accum(instr, plan[1])
        elif op == "k_cycle":
            self._fuse_kcycle(instr, plan[1])
        elif op == "k_exit":
            self._fuse_kexit(instr, plan[1])
        elif op == "edge":
            self._fuse_edge(instr, plan[1])
        elif op == "hwc_zero":
            self.emit(f"{self.param('picz')}()")
            self.emit(f"{self.param('picr')}()")
        elif op == "hwc_save":
            self.emit(f"_sv = {self.param('picr')}()")
            self.emit("frame.saved_pic = _sv")
            self.emit(f"_a = frame.base_addr + {(self.config.frame_words - 1) * WORD}")
            self.probe_write("_a", "_sv[0]")
        elif op == "hwc_restore":
            self.emit(f"_a = frame.base_addr + {(self.config.frame_words - 1) * WORD}")
            self.probe_read("_a")
            self.emit("_sv = frame.saved_pic")
            self.emit(f"{self.param('picw')}(_sv[0], _sv[1])")
            self.emit(f"{self.param('picr')}()")
        elif op == "cct_call":
            rt = self.param("cct")
            sh = self.param("cctsh")
            slot = instr.slot if self.machine.cct_runtime.by_site else 0
            self.emit(
                f"{rt}.gcsp = (({sh}[-1].record if {sh} else "
                f"{self.param('cctroot')}), {self.const(slot)})"
            )
        elif op == "cct_enter":
            self._fuse_cct_enter(instr, index)
        elif op == "cct_exit":
            self._fuse_cct_exit()
        else:  # pragma: no cover - plans come from _fuse_plan
            raise AssertionError(f"unknown fuse plan {plan!r}")

    def _bump(self, tc: str, index: str, addr: str, indent: int) -> None:
        """CounterTable.bump's in-range body: RMW traffic + dict update."""
        self.probe_read(addr, indent)
        self.emit(f"_v = {tc}.get({index}, 0) + 1", indent)
        self.probe_write(addr, "_v", indent)
        self.emit(f"{tc}[{index}] = _v", indent)

    def _fuse_commit(self, instr, table) -> None:
        tc = self.param("tblc", instr.table)
        self.emit(f"_i = regs[{instr.reg}] + {self.const(instr.end)}")
        self.emit(f"if 0 <= _i < {self.const(table.capacity)}:")
        self.emit(f"    _a = {self.const(table.base)} + _i * {table.slot_words * WORD}")
        self._bump(tc, "_i", "_a", 3)
        self.emit("else:")
        self.emit(f"    {self.param('tbl', instr.table)}.out_of_range += 1")
        if instr.reset_to is not None:
            self.emit(f"regs[{instr.reg}] = {self.const(instr.reset_to)}")

    def _fuse_accum(self, instr, table) -> None:
        tc = self.param("tblc", instr.table)
        tm = self.param("tblm", instr.table)
        pr = self.param("picr")
        self.emit(f"_p = {pr}()")
        self.emit(f"_i = regs[{instr.reg}] + {self.const(instr.end)}")
        self.emit(f"if 0 <= _i < {self.const(table.capacity)}:")
        self.emit(f"    _a = {self.const(table.base)} + _i * {table.slot_words * WORD}")
        self._bump(tc, "_i", "_a", 3)
        self.emit(f"    _m = {tm}.get(_i)")
        self.emit("    if _m is None:")
        self.emit("        _m = [0, 0]")
        self.emit(f"        {tm}[_i] = _m")
        self.emit(f"    _a += {WORD}")
        self.probe_read("_a", 3)
        self.emit("    _m[0] += _p[0]")
        self.probe_write("_a", "_m[0]", 3)
        self.emit(f"    _a += {WORD}")
        self.probe_read("_a", 3)
        self.emit("    _m[1] += _p[1]")
        self.probe_write("_a", "_m[1]", 3)
        self.emit("else:")
        self.emit(f"    {self.param('tbl', instr.table)}.out_of_range += 1")
        if instr.rezero:
            self.emit(f"{self.param('picz')}()")
            self.emit(f"{pr}()")
        if instr.reset_to is not None:
            self.emit(f"regs[{instr.reg}] = {self.const(instr.reset_to)}")

    def _accum_slots(self, instr, table, indent: int) -> None:
        """The in-range accumulate body with ``_i`` and ``_p`` already set.

        Mirrors :meth:`_fuse_accum`'s interior, parameterized on indent
        so the k-iteration probes can nest it under their layer branch.
        """
        tc = self.param("tblc", instr.table)
        tm = self.param("tblm", instr.table)
        self.emit(
            f"_a = {self.const(table.base)} + _i * {table.slot_words * WORD}", indent
        )
        self._bump(tc, "_i", "_a", indent)
        self.emit(f"_m = {tm}.get(_i)", indent)
        self.emit("if _m is None:", indent)
        self.emit("    _m = [0, 0]", indent)
        self.emit(f"    {tm}[_i] = _m", indent)
        self.emit(f"_a += {WORD}", indent)
        self.probe_read("_a", indent)
        self.emit("_m[0] += _p[0]", indent)
        self.probe_write("_a", "_m[0]", indent)
        self.emit(f"_a += {WORD}", indent)
        self.probe_read("_a", indent)
        self.emit("_m[1] += _p[1]", indent)
        self.probe_write("_a", "_m[1]", indent)

    def _fuse_kcycle(self, instr, table) -> None:
        # Mirrors ProfilingRuntime.k_cycle exactly: layer test first, the
        # commit arm repeating the accumulate order (PIC read, index,
        # table update, rezero, packed restart).
        pr = self.param("picr")
        k = instr.k
        self.emit(f"_r = regs[{instr.reg}]")
        self.emit(f"_l = _r % {k}")
        self.emit(f"if _l != {k - 1}:")
        self.emit(f"    regs[{instr.reg}] = _r + {self.const(instr.cross)}[_l]")
        self.emit("else:")
        self.emit(f"    _p = {pr}()")
        self.emit(f"    _i = (_r - _l) // {k} + {self.const(instr.end)}")
        self.emit(f"    if 0 <= _i < {self.const(table.capacity)}:")
        self._accum_slots(instr, table, 4)
        self.emit("    else:")
        self.emit(f"        {self.param('tbl', instr.table)}.out_of_range += 1")
        self.emit(f"    {self.param('picz')}()")
        self.emit(f"    {pr}()")
        self.emit(f"    regs[{instr.reg}] = {self.const(instr.start)}")

    def _fuse_kexit(self, instr, table) -> None:
        # Mirrors ProfilingRuntime.k_exit: layer-indexed end value, no
        # rezero, no reset.
        pr = self.param("picr")
        self.emit(f"_p = {pr}()")
        self.emit(f"_r = regs[{instr.reg}]")
        self.emit(f"_l = _r % {instr.k}")
        self.emit(f"_i = (_r - _l) // {instr.k} + {self.const(instr.values)}[_l]")
        self.emit(f"if 0 <= _i < {self.const(table.capacity)}:")
        self._accum_slots(instr, table, 3)
        self.emit("else:")
        self.emit(f"    {self.param('tbl', instr.table)}.out_of_range += 1")

    def _fuse_edge(self, instr, table) -> None:
        # The edge index is a compile-time constant, so the range check
        # and the slot address both resolve at decode time.
        if 0 <= instr.edge < table.capacity:
            addr = table.base + instr.edge * table.slot_words * WORD
            self._bump(
                self.param("tblc", instr.table),
                self.const(instr.edge),
                self.const(addr),
                2,
            )
        else:
            self.emit(f"{self.param('tbl', instr.table)}.out_of_range += 1")

    def _fuse_cct_enter(self, instr, index: int) -> None:
        rt = self.param("cct")
        sh = self.param("cctsh")
        st = self.param("cctst")
        collect_hw = self.machine.cct_runtime.collect_hw
        self.emit(f"{st}.enters += 1")
        self.emit(f"_g = {rt}.gcsp")
        self.emit("_pnt = _g[0]")
        self.emit("_a = _pnt.slot_addr(_g[1])")
        self.probe_read("_a")
        self.emit("_s = _pnt.slots[_g[1]]")
        self.emit(f"if _s.__class__ is _CRec and _s.id == {self.const(instr.proc)}:")
        self.emit("    _c = _s")
        self.emit(f"    {st}.fast_hits += 1")
        self.emit("else:")
        self.emit(f"    _c = {self.param('eslow', index)}(_pnt, _g[1], _a, _s)")
        self.emit(f"_a = frame.base_addr + {GCSP_SLOT * WORD}")
        self.probe_write("_a", "0")
        self.emit("_e = _SE(machine.depth, _c, _g)")
        if collect_hw:
            self.emit(f"_p = {self.param('picr')}()")
            self.emit("_e.pic0 = _p[0]")
            self.emit("_e.pic1 = _p[1]")
            self.emit(f"counts[{_INSTRS}] += 3")
            self.emit(f"counts[{_CYCLES}] += 3")
        self.emit(f"{sh}.append(_e)")
        self.emit(f"_a = _c.addr + {2 * WORD}")
        self.probe_read("_a")
        self.emit("_m = _c.metrics")
        self.emit("_m[0] += 1")
        self.probe_write("_a", "_m[0]")

    def _fuse_cct_exit(self) -> None:
        rt = self.param("cct")
        sh = self.param("cctsh")
        collect_hw = self.machine.cct_runtime.collect_hw
        self.emit(f"if not {sh}:")
        self.emit('    raise RuntimeError("CCT exit with empty shadow stack")')
        self.emit(f"_e = {sh}.pop()")
        self.emit("if _e.depth != machine.depth:")
        self.emit(
            "    raise RuntimeError(f\"CCT exit at depth {machine.depth}, "
            "expected {_e.depth}; enter/exit hooks are unbalanced\")"
        )
        self.emit(f"_a = frame.base_addr + {GCSP_SLOT * WORD}")
        self.probe_read("_a")
        self.emit(f"{rt}.gcsp = _e.saved_gcsp")
        if collect_hw:
            self.emit(f"_p = {self.param('picr')}()")
            self.emit("_c = _e.record")
            self.emit(f"_a = _c.addr + {3 * WORD}")
            self.probe_read("_a")
            self.emit("_m = _c.metrics")
            self.emit(f"_m[1] += (_p[0] - _e.pic0) % {1 << 32}")
            self.probe_write("_a", "_m[1]")
            self.emit(f"_a += {WORD}")
            self.probe_read("_a")
            self.emit(f"_m[2] += (_p[1] - _e.pic1) % {1 << 32}")
            self.probe_write("_a", "_m[2]")
            self.emit(f"counts[{_INSTRS}] += 8")
            self.emit(f"counts[{_CYCLES}] += 8")

    def handler_call(self, instr, index: int, addr: int, iline: int) -> None:
        """Fetch a call, return or longjmp, then transfer through its
        closure handler (the segment's only one: it ends the segment)."""
        self.fetch(addr, iline, instr.icost)
        self.flush_costs()
        self.sync_cell()
        self._bind(("h", index), "_h")
        self.emit("return _h(frame)")

    def hook_call(self, instr, index: int, addr: int, iline: int) -> None:
        """An unfused hook: the simple engine's runtime call, one line.

        Hooks read the PIC, so pending costs flush first.  No runtime
        touches the I-cache line state, so the segment and its static
        line tracking carry on past the call.
        """
        self.fetch(addr, iline, instr.icost)
        self.flush_costs()
        self.sync_cell()
        call = _HOOK_CALLS[instr.kind].format(self.param("instr", index))
        self.emit(f"machine.{call}")

    def close(self) -> None:
        self.flush_costs()
        self.sync_cell()
        self.emit("return False")


#: The runtime call the simple engine makes for each hook kind; segment
#: code makes the same call for every hook :func:`_fuse_plan` leaves
#: unfused, so a missing runtime raises the same ``MachineError``.
_HOOK_CALLS = {
    Kind.PATH_COMMIT: "_require_path_runtime().commit(machine, frame, {})",
    Kind.HWC_ACCUM: "_require_path_runtime().accumulate(machine, frame, {})",
    Kind.EDGE_COUNT: "_require_path_runtime().edge_count(machine, {})",
    Kind.K_HWC_CYCLE: "_require_path_runtime().k_cycle(machine, frame, {})",
    Kind.K_HWC_EXIT: "_require_path_runtime().k_exit(machine, frame, {})",
    Kind.CCT_ENTER: "_require_cct_runtime().enter(machine, frame, {})",
    Kind.CCT_CALL: "_require_cct_runtime().before_call(machine, frame, {})",
    Kind.CCT_EXIT: "_require_cct_runtime().exit(machine, frame, {})",
    Kind.CCT_PROBE: "_require_cct_runtime().probe(machine, frame, {})",
}

#: Instrumentation kinds whose fusibility depends on the path runtime.
_TABLE_KINDS = frozenset(
    {
        Kind.PATH_COMMIT,
        Kind.HWC_ACCUM,
        Kind.EDGE_COUNT,
        Kind.K_HWC_CYCLE,
        Kind.K_HWC_EXIT,
    }
)
#: CCT hooks the generator can fuse (CctProbe stays a runtime call:
#: rare, and its interval restart shares no structure with enter/exit).
_CCT_FUSED_KINDS = frozenset({Kind.CCT_ENTER, Kind.CCT_CALL, Kind.CCT_EXIT})
_CCT_ALL_KINDS = frozenset(
    {Kind.CCT_ENTER, Kind.CCT_CALL, Kind.CCT_EXIT, Kind.CCT_PROBE}
)

_TABLE_PLAN_OPS = {
    Kind.PATH_COMMIT: "commit",
    Kind.HWC_ACCUM: "accum",
    Kind.EDGE_COUNT: "edge",
    Kind.K_HWC_CYCLE: "k_cycle",
    Kind.K_HWC_EXIT: "k_exit",
}

#: Table kinds whose fused body hard-codes two metric slots.
_METRIC_TABLE_KINDS = frozenset({Kind.HWC_ACCUM, Kind.K_HWC_CYCLE, Kind.K_HWC_EXIT})
_CCT_PLAN_OPS = {
    Kind.CCT_ENTER: "cct_enter",
    Kind.CCT_CALL: "cct_call",
    Kind.CCT_EXIT: "cct_exit",
}


def _fuse_plan(machine, instr) -> Optional[Tuple]:
    """How to fuse hook ``instr`` into generated source, or None when
    segment code makes the runtime call instead (:meth:`_SegmentWriter.hook_call`).

    Array-table commits/accumulates/edge bumps fuse with their slot
    strides as literals; hash tables, per-context tables
    (``table == -1``) and missing runtimes get the call.  PIC sequences
    always fuse.  CCT enter/call/exit fuse when a runtime is attached
    (the entry slow path still runs in the runtime, through a per-site
    closure); ``CctProbe`` never does.
    """
    kind = instr.kind
    if kind == Kind.HWC_ZERO:
        return ("hwc_zero",)
    if kind == Kind.HWC_SAVE:
        return ("hwc_save",)
    if kind == Kind.HWC_RESTORE:
        return ("hwc_restore",)
    if kind in _TABLE_KINDS:
        runtime = machine.path_runtime
        if runtime is None or not 0 <= instr.table < len(runtime.tables):
            return None
        table = runtime.tables[instr.table]
        if table.kind is not TableKind.ARRAY:
            return None
        if kind in _METRIC_TABLE_KINDS and table.metric_slots != 2:
            return None
        return (_TABLE_PLAN_OPS[kind], table)
    if kind in _CCT_FUSED_KINDS:
        if machine.cct_runtime is None:
            return None
        return (_CCT_PLAN_OPS[kind],)
    return None


def _config_key(config) -> Tuple:
    """The config constants baked into generated segment source."""
    return (
        config.icache_line,
        config.icache_miss_penalty,
        config.mispredict_penalty,
        config.frame_words,
        config.store_buffer_depth,
        config.store_drain_cycles,
        tuple(sorted(config.fp_latencies.items())),
    )


def _inline_models(machine) -> Tuple:
    """``(dcache, icache, predictor)``: each of the machine's models
    whose hit path generated code inlines, ``None`` for a model of any
    other class (a set-associative D-cache, an ablation stub), which
    generated code reaches through the call form."""
    dcache, icache, predictor = machine.dcache, machine.icache, machine.predictor
    return (
        dcache if dcache.__class__ is DirectMappedCache else None,
        icache if icache.__class__ is SetAssociativeCache else None,
        predictor if predictor.__class__ is TwoBitPredictor else None,
    )


def _model_key(machine) -> Tuple:
    """Fingerprint of how generated code reaches the cost models.

    Part of the block cache key, next to :func:`_config_key`: the model
    classes select inline or call forms, the inline forms bake in the
    D-cache's line bits and set mask and bind I-cache sets and
    predictor slots, and the D-cache call form bakes in the
    write-allocate flag.
    """
    dcache, icache, predictor = _inline_models(machine)
    return (
        machine.dcache.__class__,
        machine.icache.__class__,
        machine.predictor.__class__,
        (dcache._line_bits, dcache._set_mask)
        if dcache is not None
        else machine.config.dcache_write_allocate,
        None if icache is None else (icache._line_bits, icache._set_mask),
        None if predictor is None else predictor._mask,
    )


#: Maker parameters that reach the cost models, in binding order.
_MODEL_PARAMS = "_iw, _ica, _dt, _dca, _drm, _dwm, _rmc, _nms, _pt, _prd, _sb"


def _dcache_miss_paths(machine, dcache: DirectMappedCache) -> Tuple[Callable, Callable]:
    """``(read_miss, write_miss)``: what follows a failed inline tag test.

    Each is one call doing what :meth:`DirectMappedCache.access` and
    the machine's miss bookkeeping do for a known miss: fill the line
    (a write only under write-allocate), count it in ``dcache.misses``,
    the miss events and the region of the address, and, for a read,
    add the L1 penalty, or the L2 miss penalty when an enabled L2 misses
    too.  Built once per machine and cache.
    """
    cached = machine._dc_miss_paths
    if cached is not None and cached[0] is dcache:
        return cached[1:]
    tags = dcache.tags
    line_bits = dcache._line_bits
    set_mask = dcache._set_mask
    counts = machine.counters.counts
    region_misses = machine.region_misses
    edges, names = machine.memory.region_table()
    config = machine.config
    penalty = config.dcache_read_miss_penalty
    l2_penalty = config.l2_miss_penalty
    l2 = machine.l2
    allocate = config.dcache_write_allocate

    def read_miss(address):
        block = address >> line_bits
        tags[block & set_mask] = block
        dcache.misses += 1
        counts[_DC_READ_MISS] += 1
        counts[_DC_MISS] += 1
        counts[_CYCLES] += penalty if l2 is None or l2.access(address) else l2_penalty
        region_misses[names[bisect_right(edges, address)]] += 1

    def write_miss(address):
        if allocate:
            block = address >> line_bits
            tags[block & set_mask] = block
        dcache.misses += 1
        counts[_DC_WRITE_MISS] += 1
        counts[_DC_MISS] += 1
        region_misses[names[bisect_right(edges, address)]] += 1

    machine._dc_miss_paths = (dcache, read_miss, write_miss)
    return read_miss, write_miss


def _model_bindings(machine) -> Tuple:
    """The :data:`_MODEL_PARAMS` objects of ``machine``; a model in the
    call form binds ``None`` for the state its inline form reads."""
    dcache, icache, predictor = _inline_models(machine)
    drm, dwm = (None, None) if dcache is None else _dcache_miss_paths(machine, dcache)
    return (
        None if icache is None else icache.ways,
        machine.icache.access,
        None if dcache is None else dcache.tags,
        machine.dcache.access,
        drm,
        dwm,
        machine._read_miss_cycles,
        machine._note_miss,
        None if predictor is None else predictor.table,
        machine.predictor.predict_and_update,
        machine._store_drained,
    )


def _probe_key(machine, instrs) -> Tuple:
    """Fingerprint of everything fused probes bake into source.

    Part of the block-level compile cache key: two machines share a
    compiled block only when every instrumentation hook would fuse the
    same way with the same literals (table geometry, CCT flags).
    Uninstrumented blocks fingerprint to ``()`` and share universally.
    """
    parts = []
    path_runtime = machine.path_runtime
    cct_runtime = machine.cct_runtime
    for instr in instrs:
        kind = instr.kind
        if kind in _TABLE_KINDS:
            if path_runtime is None or not 0 <= instr.table < len(path_runtime.tables):
                parts.append(("slow",))
            else:
                table = path_runtime.tables[instr.table]
                parts.append(
                    (table.kind.value, table.base, table.capacity, table.metric_slots)
                )
        elif kind in _CCT_ALL_KINDS:
            if cct_runtime is None:
                parts.append(("slow",))
            else:
                parts.append(("cct", cct_runtime.collect_hw, cct_runtime.by_site))
    return tuple(parts)


def _generate_block(machine, fname: str, instrs, addrs):
    """Produce ``(source, starts, seg_extras, n_links)`` for one block.

    Pure in everything but ``instrs``/``addrs``, the few config
    constants of :func:`_config_key` and the model forms of
    :func:`_model_key`, so the result is cached on the block and shared
    by every machine simulating the same program.  Block-specific
    constants are maker parameters (``seg_extras``), so ``source``
    depends only on the block's shape, the config and the model forms.
    """
    line_bits = machine._icache_line_bits

    segments: List[Tuple[int, _SegmentWriter]] = []
    writer: Optional[_SegmentWriter] = None
    seg_start = 0
    seg_len = 0
    n_links = 0

    def alloc_link() -> int:
        nonlocal n_links
        n_links += 1
        return n_links - 1

    def begin(i: int) -> None:
        nonlocal writer, seg_start, seg_len
        writer = _SegmentWriter(machine, fname, alloc_link)
        seg_start = i
        seg_len = 0

    def end() -> None:
        nonlocal writer
        if writer is not None:
            segments.append((seg_start, writer))
            writer = None

    begin(0)
    for i, instr in enumerate(instrs):
        addr = addrs[i]
        iline = addr >> line_bits
        kind = instr.kind
        if writer is None:
            begin(i)
        if kind in _INLINE_KINDS:
            writer.inline(instr, i, addr, iline)
        elif kind in _HANDLER_KINDS:
            writer.handler_call(instr, i, addr, iline)
        elif (plan := _fuse_plan(machine, instr)) is not None:
            writer.fuse(plan, instr, i, addr, iline)
        else:
            writer.hook_call(instr, i, addr, iline)
        seg_len += 1
        if kind in _TRANSFER_KINDS:
            end()
        elif kind == Kind.SETJMP or seg_len >= SEGMENT_CAP:
            # A setjmp's successor is a resume point, like a call's:
            # it must start its own segment.
            writer.close()
            end()
    if writer is not None:
        writer.close()
        end()

    starts = [start for start, _w in segments]
    seg_extras = [w.extras for _start, w in segments]

    # Assemble one module with a maker per segment.
    src_parts: List[str] = []
    for j, (start, seg_writer) in enumerate(segments):
        params = "".join(f", {name}" for name in seg_writer.names)
        src_parts.append(
            f"def _make{j}(machine, counts, _il, {_MODEL_PARAMS}, _mrd, _mwr, _rs{params}):"
        )
        src_parts.append("    def _seg(frame):")
        src_parts.append("        regs = frame.regs")
        src_parts.extend(seg_writer.lines)
        src_parts.append("    return _seg")
    source = "\n".join(src_parts) + "\n"
    return source, starts, seg_extras, n_links


#: Distinct block sources whose code objects stay compiled process-wide.
#: It holds every benchmark workload's working set with headroom (see
#: the module docstring).  One entry holds about 8.3 KB (a 5.8 KB code
#: object and its 2.5 KB source-text key), so a full cache holds about
#: 8.3 MB.
COMPILE_CACHE_CAP = 1024


@functools.lru_cache(maxsize=COMPILE_CACHE_CAP)
def _compile_block(source: str):
    """The code object of one block's generated source.

    Keyed by the source text alone: every constant the code depends on
    is either a literal in that text or a maker parameter bound per
    machine, so equal text compiles to interchangeable code.
    """
    return compile(source, "<decoded>", "exec")


def _resolve_probe_spec(machine, instrs, spec):
    """Bind one ("pb", spec) maker parameter to its runtime object."""
    tag = spec[0]
    if tag == "instr":
        return instrs[spec[1]]
    if tag == "tbl":
        return machine.path_runtime.tables[spec[1]]
    if tag == "tblc":
        return machine.path_runtime.tables[spec[1]].counts
    if tag == "tblm":
        return machine.path_runtime.tables[spec[1]].metrics
    if tag == "picr":
        return machine.pic.read
    if tag == "picz":
        return machine.pic.write_zero
    if tag == "picw":
        return machine.pic.write_values
    if tag == "cct":
        return machine.cct_runtime
    if tag == "cctsh":
        return machine.cct_runtime.shadow
    if tag == "cctst":
        return machine.cct_runtime.stats
    if tag == "cctroot":
        return machine.cct_runtime.root
    if tag == "eslow":
        instr = instrs[spec[1]]
        runtime = machine.cct_runtime

        def enter_slow(
            parent,
            slot_index,
            slot_addr,
            slot,
            _rt=runtime,
            _machine=machine,
            _proc=instr.proc,
            _nslots=instr.nslots,
        ):
            return _rt._enter_slow(
                _machine, parent, slot_index, slot_addr, slot, _proc, _nslots
            )

        return enter_slow
    raise AssertionError(f"unknown probe spec {spec!r}")  # pragma: no cover


def decode_block(machine, function, block) -> DecodedBlock:
    """Compile one block into its step list (called once per block).

    The generated source and code object are cached on the block (they
    depend only on the instruction list, the block's base address,
    :func:`_config_key` constants, the :func:`_model_key` forms, and the
    :func:`_probe_key` fingerprint of the attached runtimes); only the
    per-machine binding — the ``exec`` of segment makers plus the
    closure handlers, hook instructions and fused-probe objects — runs
    again for each machine.
    """
    fname = function.name
    instrs = block.instrs
    addrs = machine.layout.block_addrs[(fname, block.name)]
    counts = machine.counters.counts

    cache_key = (
        block.edit_gen,
        len(instrs),
        addrs[0] if addrs else 0,
        _config_key(machine.config),
        _model_key(machine),
        _probe_key(machine, instrs),
    )
    stats = machine.codegen_stats
    cached = block._decode_cache
    if cached is not None and cached[0] == cache_key:
        _key, source, code, starts, seg_extras, n_links = cached
        stats["source_cache_hits"] += 1
    else:
        source, starts, seg_extras, n_links = _generate_block(
            machine, fname, instrs, addrs
        )
        hits = _compile_block.cache_info().hits
        code = _compile_block(source)
        if _compile_block.cache_info().hits != hits:
            stats["compile_cache_hits"] += 1
        block._decode_cache = (cache_key, source, code, starts, seg_extras, n_links)
        stats["source_cache_misses"] += 1
    stats["decoded_blocks"] += 1

    total_icost = sum(instr.icost for instr in instrs)

    # Per-machine successor-link cells; registered so invalidation can
    # reset them (a stale link would bypass the cache's validity check).
    cells = [[None] for _ in range(n_links)]
    machine._decode_links.extend(cells)

    def resolve_link(cell, block_name, _function=function):
        decoded = machine._decoded_block(_function, block_name)
        cell[0] = decoded
        return decoded

    namespace = machine._codegen_namespace()
    exec(code, namespace)
    models = _model_bindings(machine)
    iline_cell = machine._iline
    mem_read = machine.memory._store.get
    mem_write = machine.memory._store.__setitem__

    resume: Dict[int, int] = {}
    steps: List[Callable] = []
    for j, start in enumerate(starts):
        maker = namespace[f"_make{j}"]
        resume[start] = j
        extras = []
        for t, v in seg_extras[j]:
            if t == "h":
                extras.append(_make_handler(machine, instrs[v], v + 1, fname))
            elif t == "lk":
                extras.append(cells[v])
            elif t == "c":
                extras.append(v)
            else:
                extras.append(_resolve_probe_spec(machine, instrs, v))
        steps.append(
            maker(
                machine,
                counts,
                iline_cell,
                *models,
                mem_read,
                mem_write,
                resolve_link,
                *extras,
            )
        )

    return DecodedBlock(
        steps,
        resume,
        block.edit_gen,
        len(instrs),
        total_icost,
        source,
        (machine.path_runtime, machine.cct_runtime),
    )


# ---------------------------------------------------------------------------
# Outer run loop
# ---------------------------------------------------------------------------


def execute(machine):
    """Run ``machine`` to completion with the predecoded engine.

    Entry frames must already be pushed onto ``machine._frames`` (done
    by :meth:`Machine.run`).  Returns the program's return value.
    """
    from repro.machine.vm import MachineError

    machine._validate_decoded()
    counts = machine.counters.counts
    frames = machine._frames
    max_instructions = machine.config.max_instructions
    decoded_cache = machine._decoded
    signal_active = machine._signal_handler is not None
    INSTRS = _INSTRS

    while frames:
        if (
            signal_active
            and counts[INSTRS] >= machine._next_signal_at
            and machine._signal_depth == 0
        ):
            machine._deliver_signal()
        frame = frames[-1]
        function = frame.function
        decoded = decoded_cache.get((function.name, frame.block_name))
        if decoded is None:
            decoded = machine._decoded_block(function, frame.block_name)
        index = frame.index
        k = 0 if index == 0 else decoded.resume[index]
        steps = decoded.steps
        nsteps = decoded.nsteps
        while True:
            if counts[INSTRS] > max_instructions:
                raise MachineError(f"instruction budget exceeded ({max_instructions})")
            r = steps[k](frame)
            if r is True:
                # Call, return, or longjmp: the top frame (and with it
                # the current function) may have changed — full lookup.
                break
            if r is False:
                # Segment fell through to the next (cap split / setjmp
                # resume point); a block's last segment always transfers.
                k += 1
                if k >= nsteps:
                    raise MachineError(
                        f"{function.name}.{frame.block_name}: fell through block end"
                    )
                continue
            # Branch within the same frame: r is the successor's
            # decoded block, delivered through the transfer's link cell.
            decoded = r
            steps = decoded.steps
            nsteps = decoded.nsteps
            k = 0
            if (
                signal_active
                and counts[INSTRS] >= machine._next_signal_at
                and machine._signal_depth == 0
            ):
                machine._deliver_signal()
                break

    return machine._return_value


#: Names available to generated segment code (stable across blocks; the
#: machine builds one namespace and all decoded segments share it).
CODEGEN_GLOBALS = {
    "_idiv": _int_div,
    "_imod": _int_mod,
    "_fdiv": FLOAT_OPS["fdiv"],
    "min": min,
    "max": max,
    # Fused CCT entry protocol: the shadow-entry record and the
    # CallRecord class for the generated tag-0 identity test.
    "_SE": _ShadowEntry,
    "_CRec": CallRecord,
}
