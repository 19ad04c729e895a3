"""The machine simulator: executes IR programs and counts events.

One ``Machine`` owns the memory map, the L1 data and instruction
caches, the branch predictor, the store buffer, the sixteen-event
counter bank, and the two PIC registers.  Ordinary instructions and
instrumentation pseudo-instructions run through the same pipeline-cost
model, so instrumentation genuinely perturbs every metric.

Cost model (deliberately simple and deterministic):

* every instruction costs ``icost`` base cycles and instructions;
* a load that misses L1 D adds ``dcache_read_miss_penalty`` cycles;
* a store enters the store buffer, which drains one store per
  ``store_drain_cycles``; a full buffer stalls the pipeline (see
  :meth:`Machine._store_buffer_push` for why one integer is its state);
* a conditional branch consults the 2-bit predictor; a mispredict adds
  ``mispredict_penalty`` cycles;
* an FP operation adds its latency minus one as FP stall cycles;
* an instruction fetch that changes cache line probes the I-cache.
"""

from __future__ import annotations

import os
from collections import defaultdict
from typing import Dict, List, Optional, Tuple, Union

from repro.ir.function import Function, Program
from repro.ir.instructions import BINARY_OPS, FLOAT_OPS, Imm, Kind
from repro.machine.branch import TwoBitPredictor
from repro.machine.caches import DirectMappedCache, SetAssociativeCache
from repro.machine.config import MachineConfig
from repro.machine.counters import CounterBank, Event, PicRegisters
from repro.machine.memory import WORD, MemoryMap

# Event indices as plain ints for the hot loop.
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


class MachineError(Exception):
    """Raised for runtime faults: bad calls, stack overflow, runaway runs."""


class Frame:
    """One activation record.

    The fast engine pushes every call's frame from a pool of one frame
    per call depth (``Machine._frame_pool``, dropped at the end of each
    run) and resets every field but ``base_addr`` and ``is_signal`` when
    it reuses one, the way SPARC reuses register windows; only the entry
    and signal frames are made fresh.  So nothing may hold a frame after
    it is popped.
    """

    __slots__ = (
        "function",
        "regs",
        "block_name",
        "index",
        "ret_reg",
        "base_addr",
        "saved_pic",
        "is_signal",
        "cont",
    )

    def __init__(self, function: Function, base_addr: int, ret_reg: Optional[int]):
        self.function = function
        self.regs: List[Union[int, float]] = [0] * function.num_regs
        self.block_name = function.entry.name
        self.index = 0
        self.ret_reg = ret_reg
        self.base_addr = base_addr
        self.saved_pic: Tuple[int, int] = (0, 0)
        #: Pushed by asynchronous signal delivery, not by a call.
        self.is_signal = False
        #: Where the caller resumes, ``(steps, nsteps, step)`` of its
        #: decoded block, set by every fast-engine call so the return
        #: hands straight back; None for the entry and signal frames.
        #: The run empties ``steps`` when it ends, so a frame left on
        #: the stack by a fault holds no live code.
        self.cont: Optional[tuple] = None


class RunResult:
    """Counters and outcome of one program execution."""

    def __init__(self, machine: "Machine", return_value: Union[int, float, None]):
        self.machine = machine
        self.return_value = return_value
        self.counters: Dict[Event, int] = machine.counters.snapshot()
        #: Per-region D-cache misses, frozen to a plain dict.
        self.region_misses: Dict[str, int] = dict(machine.region_misses)

    @property
    def instructions(self) -> int:
        return self.counters[Event.INSTRS]

    @property
    def cycles(self) -> int:
        return self.counters[Event.CYCLES]

    def __getitem__(self, event: Event) -> int:
        return self.counters[event]

    def __repr__(self) -> str:
        return (
            f"RunResult(ret={self.return_value!r}, "
            f"instrs={self.instructions}, cycles={self.cycles})"
        )


class Machine:
    """Executes one program; create a fresh machine per run for cold caches."""

    def __init__(
        self,
        program: Program,
        config: Optional[MachineConfig] = None,
        pic0_event: Event = Event.INSTRS,
        pic1_event: Event = Event.DC_MISS,
        engine: Optional[str] = None,
    ):
        self.program = program
        self.config = config or MachineConfig()
        self.config.validate()
        self.memory = MemoryMap(program.globals_size)
        self.counters = CounterBank()
        self.pic = PicRegisters(self.counters, pic0_event, pic1_event)
        cfg = self.config
        #: Which execution engine :meth:`run` uses: "fast" (the
        #: predecoded engine of :mod:`repro.machine.engine`) or "simple"
        #: (the reference if/elif interpreter).  Set per machine, or
        #: globally via ``REPRO_ENGINE``.
        self.engine = engine or os.environ.get("REPRO_ENGINE", "fast")
        if cfg.dcache_assoc == 1:
            self.dcache = DirectMappedCache(cfg.dcache_size, cfg.dcache_line)
        else:
            self.dcache = SetAssociativeCache(
                cfg.dcache_size, cfg.dcache_line, cfg.dcache_assoc
            )
        self.icache = SetAssociativeCache(cfg.icache_size, cfg.icache_line, cfg.icache_assoc)
        self.l2 = (
            SetAssociativeCache(cfg.l2_size, cfg.l2_line, cfg.l2_assoc)
            if cfg.l2_enabled
            else None
        )
        self.predictor = TwoBitPredictor(cfg.predictor_entries)
        #: Cycle at which the store buffer's newest store drains, in a
        #: one-slot list shared with generated code like ``_iline``.
        self._store_drained: List[int] = [0]
        self._icache_line_bits = cfg.icache_line.bit_length() - 1
        #: Last fetched I-cache line, in a one-slot list so generated
        #: segment code can share the state cheaply.
        self._iline: List[int] = [-1]

        # Attached instrumentation runtimes (set by repro.instrument /
        # repro.cct before run() when the program is instrumented).
        self.path_runtime = None
        self.cct_runtime = None

        #: D-cache misses attributed to the memory region of the
        #: missing address: quantifies how much of the miss traffic the
        #: instrumentation's own data (profiling tables, CCT heap,
        #: frame spills) contributes — the §3.2 pollution, measured.
        #: (A defaultdict for the hot path; snapshots freeze plain dicts.)
        self.region_misses: Dict[str, int] = defaultdict(int)

        #: Optional tracer with on_enter/on_exit/on_block callbacks;
        #: used by the ground-truth oracle profiler in tests.
        self.tracer = None

        self._jmpbufs: List[Tuple[int, str, int, int]] = []
        #: Current call depth; the CCT runtime pairs its shadow stack
        #: with frames through this.
        self.depth = 0

        # Asynchronous signal delivery (paper §4.2: signal handlers are
        # additional program entry points; the CCT grows extra roots).
        self._signal_handler: Optional[str] = None
        self._signal_period = 0
        self._next_signal_at = 0
        self.signals_delivered = 0
        #: Nonzero while a handler (or anything it called) runs:
        #: signals stay masked for the handler's whole dynamic extent.
        self._signal_depth = 0
        #: Code addresses of the program as laid out at the start of the
        #: current run (see :meth:`run`).
        self.layout = None

        #: Call stack, shared with the execution engines (a persistent
        #: list so decoded closures can bind its identity once).
        self._frames: List[Frame] = []
        #: The fast engine's reusable frames, indexed by call depth
        #: (see :class:`Frame`); dropped at the end of every run.
        self._frame_pool: List[Frame] = []
        #: One-slot cell through which a fast-engine call or return
        #: closure hands the run loop where to continue.
        self._handoff: List[Optional[tuple]] = [None]
        self._return_value: Union[int, float, None] = None
        #: (function, block) -> DecodedBlock: the fast engine's decodings
        #: of the current or last run, whose step lists the run empties
        #: when it ends.
        self._decoded: Dict[Tuple[str, str], object] = {}
        #: The arguments every segment maker of the current fast-engine
        #: run takes first, built on its first decode and dropped at its
        #: end (see ``engine._fixed_args``).
        self._maker_args: Optional[tuple] = None
        #: What block generation reads from this machine in the current
        #: fast-engine run, the first half of every decode plan's key
        #: (see ``engine.run_context``).
        self._plan_context: Optional[bytes] = None
        #: Block-compilation observability, summed over this machine's
        #: runs: ``decoded_blocks`` counts block decodings, each of
        #: which either took its plan from the process-wide plan cache
        #: (``source_cache_hits``) or generated it
        #: (``source_cache_misses``), and ``compile_cache_hits`` counts
        #: those whose code object the process-wide code cache served
        #: (a plan hit's always is while its shape stays cached), so
        #: ``decoded_blocks - compile_cache_hits`` is the number of
        #: ``compile()`` calls.
        self.codegen_stats: Dict[str, int] = {
            "decoded_blocks": 0,
            "source_cache_hits": 0,
            "source_cache_misses": 0,
            "compile_cache_hits": 0,
        }

    # ------------------------------------------------------------------
    # Memory traffic helpers (shared by program loads/stores and the
    # instrumentation runtimes).
    # ------------------------------------------------------------------

    def _note_miss(self, address: int) -> None:
        self.region_misses[self.memory.region_of(address)] += 1

    def _read_miss_cycles(self, address: int) -> int:
        """Cycles an L1 read miss costs: L2 hit or full memory trip."""
        if self.l2 is None:
            return self.config.dcache_read_miss_penalty
        if self.l2.access(address):
            return self.config.dcache_read_miss_penalty
        return self.config.l2_miss_penalty

    def probe_read(self, address: int) -> Union[int, float]:
        counts = self.counters.counts
        counts[_LOADS] += 1
        counts[_DC_READ] += 1
        if not self.dcache.access(address):
            counts[_DC_READ_MISS] += 1
            counts[_DC_MISS] += 1
            counts[_CYCLES] += self._read_miss_cycles(address)
            self._note_miss(address)
        return self.memory.read(address)

    def probe_write(self, address: int, value: Union[int, float]) -> None:
        counts = self.counters.counts
        counts[_STORES] += 1
        counts[_DC_WRITE] += 1
        if not self.dcache.access(address, allocate=self.config.dcache_write_allocate):
            counts[_DC_WRITE_MISS] += 1
            counts[_DC_MISS] += 1
            self._note_miss(address)
        self._store_buffer_push()
        self.memory.write(address, value)

    def _store_buffer_push(self) -> None:
        """Enter one store into the buffer, stalling while it is full.

        The buffer retires stores back to back, one per
        ``store_drain_cycles`` (``drain``): a store pushed behind
        pending ones completes ``drain`` after the newest of them, one
        pushed into an empty buffer ``drain`` after it enters.  So the
        stores pending at a push complete at ``last, last - drain,
        last - 2*drain, ...`` down to the push cycle (``CYCLES`` never
        decreases, so their run began at or before it), ``last`` being
        the newest completion.  The buffer is full exactly when
        ``last - (depth-1)*drain`` is still ahead, and the push then
        stalls until that store drains.  ``last`` is the whole state;
        the fast engine's generated store code applies the same rule to
        the same cell.
        """
        counts = self.counters.counts
        config = self.config
        drained = self._store_drained
        ahead = drained[0] - counts[_CYCLES]
        full = (config.store_buffer_depth - 1) * config.store_drain_cycles
        if ahead > full:
            counts[_CYCLES] += ahead - full
            counts[_SB_STALL] += ahead - full
        drained[0] = (drained[0] if ahead > 0 else counts[_CYCLES]) + config.store_drain_cycles

    def install_signal(self, handler: str, period: int) -> None:
        """Deliver an asynchronous signal every ``period`` instructions.

        The handler (a zero- or one-parameter function; it receives the
        signal count) runs on its own frame at the next block boundary
        after the period elapses, with resumption semantics: its return
        continues the interrupted code exactly where it stopped.
        """
        if handler not in self.program.functions:
            raise MachineError(f"unknown signal handler {handler!r}")
        if self.program.functions[handler].num_params > 1:
            raise MachineError("signal handlers take at most one parameter")
        if period <= 0:
            raise MachineError("signal period must be positive")
        self._signal_handler = handler
        self._signal_period = period
        self._next_signal_at = period

    def charge(self, instructions: int) -> None:
        """Charge extra dynamic instructions (CCT slow paths etc.)."""
        counts = self.counters.counts
        counts[_INSTRS] += instructions
        counts[_CYCLES] += instructions

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, *args: Union[int, float]) -> RunResult:
        """Execute the program on the machine's engine (:attr:`engine`).

        ``"fast"`` is the predecoded block engine
        (:mod:`repro.machine.engine`, the default); ``"simple"`` is the
        reference if/elif interpreter.  Both produce bit-identical
        counters (the differential tests enforce it).

        Each run lays the program out and decodes it afresh, as it
        stands now: a rerun sees any edit made since the last run, and
        the last run's decodings go.  A fast run empties its decodings
        when it ends, so dropping the machine frees it by reference
        counting (see ``engine.execute``).
        """
        from repro.edit.layout import assign_layout

        program = self.program
        entry = program.functions.get(program.entry)
        if entry is None:
            raise MachineError(f"entry function {program.entry!r} missing")
        if len(args) != entry.num_params:
            raise MachineError(
                f"{program.entry} takes {entry.num_params} args, got {len(args)}"
            )
        self.layout = assign_layout(program)
        self._decoded = {}
        self._maker_args = None
        frames = self._frames
        frames.clear()
        frame = Frame(entry, self.memory.frame_base(0, self.config.frame_words), None)
        for i, value in enumerate(args):
            frame.regs[i] = value
        frames.append(frame)
        self.depth = 1
        self._return_value = None

        tracer = self.tracer
        if tracer is not None:
            tracer.on_enter(entry.name, -1)
            tracer.on_block(entry.name, frame.block_name)

        if self.engine == "fast":
            from repro.machine.engine import execute, run_context

            self._plan_context = run_context(self)
            return RunResult(self, execute(self))
        if self.engine == "simple":
            return RunResult(self, self._run_simple())
        raise MachineError(f"unknown engine {self.engine!r}")

    # -- engine plumbing ----------------------------------------------------

    def _deliver_signal(self) -> None:
        """Push a signal-handler frame (both engines call this at block
        boundaries when the period has elapsed and signals are unmasked)."""
        counts = self.counters.counts
        frames = self._frames
        self._next_signal_at = counts[_INSTRS] + self._signal_period
        self.signals_delivered += 1
        self._signal_depth += 1
        handler = self.program.functions[self._signal_handler]
        signal_frame = Frame(
            handler,
            self.memory.frame_base(len(frames), self.config.frame_words),
            None,
        )
        signal_frame.is_signal = True
        if handler.num_params == 1:
            signal_frame.regs[0] = self.signals_delivered
        frames.append(signal_frame)
        self.depth = len(frames)
        if self.cct_runtime is not None:
            self.cct_runtime.on_signal_delivery(self, handler.name)
        tracer = self.tracer
        if tracer is not None:
            tracer.on_enter(handler.name, -2)
            tracer.on_block(handler.name, signal_frame.block_name)

    def _decoded_block(self, function: Function, block_name: str):
        """The current run's decoding of one block, decoded on first use."""
        key = (function.name, block_name)
        decoded = self._decoded.get(key)
        if decoded is None:
            from repro.machine.engine import decode_block

            decoded = decode_block(self, function, function.block(block_name))
            self._decoded[key] = decoded
        return decoded

    def _run_simple(self) -> Union[int, float, None]:
        frames = self._frames
        counts = self.counters.counts
        config = self.config
        memory = self.memory
        dcache = self.dcache
        functions = self.program.functions
        addrs_of = self.layout.block_addrs
        line_bits = self._icache_line_bits
        iline_cell = self._iline
        max_instructions = config.max_instructions
        tracer = self.tracer
        return_value: Union[int, float, None] = None

        while frames:
            if (
                self._signal_handler is not None
                and counts[_INSTRS] >= self._next_signal_at
                and self._signal_depth == 0
            ):
                self._deliver_signal()

            frame = frames[-1]
            function = frame.function
            fname = function.name
            block = function.block(frame.block_name)
            instrs = block.instrs
            addrs = addrs_of[(fname, frame.block_name)]
            i = frame.index
            n = len(instrs)
            if counts[_INSTRS] > max_instructions:
                raise MachineError(
                    f"instruction budget exceeded ({max_instructions})"
                )

            transferred = False
            while i < n:
                instr = instrs[i]
                address = addrs[i]
                i += 1
                kind = instr.kind
                # --- fetch ---
                counts[_IC_REF] += 1
                iline = address >> line_bits
                if iline != iline_cell[0]:
                    iline_cell[0] = iline
                    if not self.icache.access(address):
                        counts[_IC_MISS] += 1
                        counts[_CYCLES] += config.icache_miss_penalty
                counts[_INSTRS] += instr.icost
                counts[_CYCLES] += instr.icost
                if counts[_INSTRS] > max_instructions:
                    raise MachineError(
                        f"instruction budget exceeded ({max_instructions})"
                    )

                if kind == Kind.BINOP:
                    regs = frame.regs
                    b = instr.b
                    bv = b.value if b.__class__ is Imm else regs[b]
                    regs[instr.dst] = BINARY_OPS[instr.op](regs[instr.a], bv)
                elif kind == Kind.LOAD:
                    regs = frame.regs
                    addr = regs[instr.base] + instr.offset
                    counts[_LOADS] += 1
                    counts[_DC_READ] += 1
                    if not dcache.access(addr):
                        counts[_DC_READ_MISS] += 1
                        counts[_DC_MISS] += 1
                        counts[_CYCLES] += self._read_miss_cycles(addr)
                        self._note_miss(addr)
                    regs[instr.dst] = memory.read(addr)
                elif kind == Kind.STORE:
                    regs = frame.regs
                    src = instr.src
                    value = src.value if src.__class__ is Imm else regs[src]
                    addr = regs[instr.base] + instr.offset
                    counts[_STORES] += 1
                    counts[_DC_WRITE] += 1
                    if not dcache.access(addr, allocate=config.dcache_write_allocate):
                        counts[_DC_WRITE_MISS] += 1
                        counts[_DC_MISS] += 1
                        self._note_miss(addr)
                    self._store_buffer_push()
                    memory.write(addr, value)
                elif kind == Kind.CONST:
                    frame.regs[instr.dst] = instr.value
                elif kind == Kind.MOVE:
                    regs = frame.regs
                    regs[instr.dst] = regs[instr.src]
                elif kind == Kind.CBR:
                    taken = frame.regs[instr.cond] != 0
                    counts[_BRANCHES] += 1
                    if taken:
                        counts[_BR_TAKEN] += 1
                    if not self.predictor.predict_and_update(address, taken):
                        counts[_BR_MISPRED] += 1
                        counts[_CYCLES] += config.mispredict_penalty
                    target = instr.then if taken else instr.els
                    frame.block_name = target
                    frame.index = 0
                    if tracer is not None:
                        tracer.on_block(fname, target)
                    transferred = True
                    break
                elif kind == Kind.BR:
                    frame.block_name = instr.target
                    frame.index = 0
                    if tracer is not None:
                        tracer.on_block(fname, instr.target)
                    transferred = True
                    break
                elif kind == Kind.FBINOP:
                    regs = frame.regs
                    b = instr.b
                    bv = b.value if b.__class__ is Imm else regs[b]
                    regs[instr.dst] = FLOAT_OPS[instr.op](regs[instr.a], bv)
                    latency = config.fp_latencies[instr.op]
                    counts[_CYCLES] += latency - 1
                    counts[_FP_STALL] += latency - 1
                elif kind == Kind.CALL or kind == Kind.ICALL:
                    regs = frame.regs
                    if kind == Kind.CALL:
                        callee = functions.get(instr.callee)
                        if callee is None:
                            raise MachineError(f"call to unknown {instr.callee!r}")
                    else:
                        findex = regs[instr.func]
                        table = self.program.function_table
                        if not 0 <= findex < len(table):
                            raise MachineError(
                                f"indirect call through bad index {findex!r}"
                            )
                        callee = functions[table[findex]]
                    if len(frames) >= config.max_call_depth:
                        raise MachineError("call stack overflow")
                    if len(instr.args) > callee.num_params:
                        raise MachineError(
                            f"{fname}: too many args for {callee.name}"
                        )
                    frame.index = i
                    new_frame = Frame(
                        callee,
                        self.memory.frame_base(len(frames), config.frame_words),
                        instr.dst,
                    )
                    new_regs = new_frame.regs
                    for pos, arg in enumerate(instr.args):
                        new_regs[pos] = arg.value if arg.__class__ is Imm else regs[arg]
                    frames.append(new_frame)
                    self.depth = len(frames)
                    if tracer is not None:
                        tracer.on_enter(callee.name, instr.site)
                        tracer.on_block(callee.name, new_frame.block_name)
                    transferred = True
                    break
                elif kind == Kind.RET:
                    value = instr.value
                    if value is not None:
                        regs = frame.regs
                        value = value.value if value.__class__ is Imm else regs[value]
                    frames.pop()
                    self.depth = len(frames)
                    if frame.is_signal:
                        self._signal_depth -= 1
                        # Re-arm from handler completion so a period
                        # shorter than the handler cannot starve the
                        # interrupted code (timer semantics).
                        self._next_signal_at = (
                            counts[_INSTRS] + self._signal_period
                        )
                        if self.cct_runtime is not None:
                            self.cct_runtime.on_signal_return(self)
                    if tracer is not None:
                        tracer.on_exit(fname, value)
                    if not frames:
                        return_value = value
                    else:
                        caller = frames[-1]
                        if frame.ret_reg is not None and not frame.is_signal:
                            caller.regs[frame.ret_reg] = 0 if value is None else value
                    transferred = True
                    break
                elif kind == Kind.ALLOC:
                    regs = frame.regs
                    size = instr.size
                    sv = size.value if size.__class__ is Imm else regs[size]
                    regs[instr.dst] = memory.heap_alloc(sv)
                elif kind == Kind.FRAME_LOAD:
                    addr = frame.base_addr + instr.slot * WORD
                    counts[_LOADS] += 1
                    counts[_DC_READ] += 1
                    if not dcache.access(addr):
                        counts[_DC_READ_MISS] += 1
                        counts[_DC_MISS] += 1
                        counts[_CYCLES] += self._read_miss_cycles(addr)
                        self._note_miss(addr)
                    frame.regs[instr.dst] = memory.read(addr)
                elif kind == Kind.FRAME_STORE:
                    addr = frame.base_addr + instr.slot * WORD
                    value = frame.regs[instr.src]
                    counts[_STORES] += 1
                    counts[_DC_WRITE] += 1
                    if not dcache.access(addr, allocate=config.dcache_write_allocate):
                        counts[_DC_WRITE_MISS] += 1
                        counts[_DC_MISS] += 1
                        self._note_miss(addr)
                    self._store_buffer_push()
                    memory.write(addr, value)
                # --- instrumentation pseudo-instructions ---
                elif kind == Kind.PATH_RESET:
                    frame.regs[instr.reg] = 0
                elif kind == Kind.PATH_ADD:
                    frame.regs[instr.reg] += instr.value
                elif kind == Kind.PATH_COMMIT:
                    self._require_path_runtime().commit(self, frame, instr)
                elif kind == Kind.HWC_ZERO:
                    self.pic.write_zero()
                    self.pic.read()
                elif kind == Kind.HWC_ACCUM:
                    self._require_path_runtime().accumulate(self, frame, instr)
                elif kind == Kind.HWC_SAVE:
                    frame.saved_pic = self.pic.read()
                    self.probe_write(
                        frame.base_addr + (config.frame_words - 1) * WORD,
                        frame.saved_pic[0],
                    )
                elif kind == Kind.HWC_RESTORE:
                    self.probe_read(frame.base_addr + (config.frame_words - 1) * WORD)
                    self.pic.write_values(*frame.saved_pic)
                    self.pic.read()
                elif kind == Kind.EDGE_COUNT:
                    self._require_path_runtime().edge_count(self, instr)
                elif kind == Kind.K_PATH_ADD:
                    regs = frame.regs
                    value = regs[instr.reg]
                    regs[instr.reg] = value + instr.values[value % instr.k]
                elif kind == Kind.K_HWC_CYCLE:
                    self._require_path_runtime().k_cycle(self, frame, instr)
                elif kind == Kind.K_HWC_EXIT:
                    self._require_path_runtime().k_exit(self, frame, instr)
                elif kind == Kind.CCT_ENTER:
                    self._require_cct_runtime().enter(self, frame, instr)
                elif kind == Kind.CCT_CALL:
                    self._require_cct_runtime().before_call(self, frame, instr)
                elif kind == Kind.CCT_EXIT:
                    self._require_cct_runtime().exit(self, frame, instr)
                elif kind == Kind.CCT_PROBE:
                    self._require_cct_runtime().probe(self, frame, instr)
                elif kind == Kind.SETJMP:
                    handle = len(self._jmpbufs)
                    self._jmpbufs.append(
                        (len(frames), frame.block_name, i, instr.dst)
                    )
                    frame.regs[instr.env] = handle
                    frame.regs[instr.dst] = 0
                elif kind == Kind.LONGJMP:
                    regs = frame.regs
                    handle = regs[instr.env]
                    if not 0 <= handle < len(self._jmpbufs):
                        raise MachineError(f"longjmp through bad handle {handle!r}")
                    depth, block_name, resume_index, dst_reg = self._jmpbufs[handle]
                    if depth > len(frames):
                        raise MachineError("longjmp to a dead frame")
                    value = instr.value
                    value = value.value if value.__class__ is Imm else regs[value]
                    if value == 0:
                        value = 1
                    while len(frames) > depth:
                        dead = frames.pop()
                        if tracer is not None:
                            tracer.on_exit(dead.function.name, None)
                    self.depth = len(frames)
                    if self.cct_runtime is not None:
                        self.cct_runtime.unwind_to(self, len(frames))
                    target = frames[-1]
                    target.block_name = block_name
                    target.index = resume_index
                    target.regs[dst_reg] = value
                    if tracer is not None:
                        tracer.on_block(target.function.name, block_name)
                    transferred = True
                    break
                else:  # pragma: no cover
                    raise MachineError(f"unimplemented instruction kind {kind!r}")

            if not transferred:
                # Fell off the end of a block without a terminator;
                # validation prevents this, but guard anyway.
                raise MachineError(
                    f"{fname}.{frame.block_name}: fell through block end"
                )

        return return_value

    # ------------------------------------------------------------------

    def _require_path_runtime(self):
        if self.path_runtime is None:
            raise MachineError(
                "program contains path/edge instrumentation but no "
                "profiling runtime is attached"
            )
        return self.path_runtime

    def _require_cct_runtime(self):
        if self.cct_runtime is None:
            raise MachineError(
                "program contains CCT instrumentation but no CCT runtime "
                "is attached"
            )
        return self.cct_runtime
