"""Instruction set of the register-machine IR.

Design notes
------------

* Registers are plain ``int`` indices into a per-frame register file.
  Immediates are wrapped in :class:`Imm` so an operand is unambiguously
  either a register number or a literal value.
* Every instruction carries an integer :attr:`~Instruction.kind` drawn
  from :class:`Kind` so the interpreter can dispatch through a table
  instead of a chain of ``isinstance`` checks.
* Instrumentation pseudo-instructions (``Path*``, ``Hwc*``, ``Cct*``,
  ``EdgeCount``) are first-class IR instructions.  They are only ever
  created by the passes in :mod:`repro.instrument`, but they execute on
  the simulated machine, occupy instruction-cache space, touch the data
  cache, and are charged a realistic instruction cost
  (:attr:`Instruction.icost`).  That is what makes the perturbation
  study (Table 2 of the paper) meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Union


class Kind(IntEnum):
    """Dense instruction tags for table dispatch in the interpreter."""

    CONST = 0
    MOVE = 1
    BINOP = 2
    FBINOP = 3
    LOAD = 4
    STORE = 5
    ALLOC = 6
    BR = 7
    CBR = 8
    CALL = 9
    ICALL = 10
    RET = 11
    SETJMP = 12
    LONGJMP = 13
    # --- instrumentation pseudo-instructions ---
    PATH_RESET = 14
    PATH_ADD = 15
    PATH_COMMIT = 16
    HWC_ZERO = 17
    HWC_ACCUM = 18
    HWC_SAVE = 19
    HWC_RESTORE = 20
    EDGE_COUNT = 21
    CCT_ENTER = 22
    CCT_CALL = 23
    CCT_EXIT = 24
    FRAME_LOAD = 25
    FRAME_STORE = 26
    CCT_PROBE = 27
    K_PATH_ADD = 28
    K_HWC_CYCLE = 29
    K_HWC_EXIT = 30


@dataclass(frozen=True, slots=True)
class Imm:
    """An immediate operand; distinguishes literals from register indices."""

    value: Union[int, float]

    def __repr__(self) -> str:
        return f"Imm({self.value!r})"


Operand = Union[int, Imm]

#: Integer binary operators.  Comparison operators produce 0/1.
BINARY_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: _int_div(a, b),
    "mod": lambda a, b: _int_mod(a, b),
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "shl": lambda a, b: a << b,
    "shr": lambda a, b: a >> b,
    "eq": lambda a, b: 1 if a == b else 0,
    "ne": lambda a, b: 1 if a != b else 0,
    "lt": lambda a, b: 1 if a < b else 0,
    "le": lambda a, b: 1 if a <= b else 0,
    "gt": lambda a, b: 1 if a > b else 0,
    "ge": lambda a, b: 1 if a >= b else 0,
    "min": min,
    "max": max,
}

#: Floating-point binary operators (longer latency on the machine).
FLOAT_OPS = {
    "fadd": lambda a, b: a + b,
    "fsub": lambda a, b: a - b,
    "fmul": lambda a, b: a * b,
    "fdiv": lambda a, b: a / b if b != 0.0 else 0.0,
}


def _int_div(a: int, b: int) -> int:
    """C-style truncating division; division by zero yields zero.

    Workload generators may synthesize divisions whose operands are data
    dependent; trapping would make whole-program runs fragile, so the
    machine defines x/0 == 0 (as several soft-float ABIs do).
    """
    if b == 0:
        return 0
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _int_mod(a: int, b: int) -> int:
    if b == 0:
        return 0
    return a - _int_div(a, b) * b


class Instruction:
    """Base class for all IR instructions.

    :attr:`icost` is how many machine instructions this IR operation
    represents.  Ordinary operations cost 1.  Instrumentation
    pseudo-instructions bundle several machine instructions (the paper
    quotes e.g. thirteen or more instructions for the hardware-counter
    accumulate sequence) and are charged accordingly.
    """

    __slots__ = ()
    kind: Kind
    icost: int = 1

    def operands(self) -> tuple:
        """Register numbers read by this instruction (for analyses)."""
        return ()

    def defined(self) -> tuple:
        """Register numbers written by this instruction."""
        return ()


@dataclass(slots=True)
class Const(Instruction):
    """``dst = value`` — load an integer or float literal."""

    dst: int
    value: Union[int, float]

    kind = Kind.CONST

    def defined(self) -> tuple:
        return (self.dst,)


@dataclass(slots=True)
class Move(Instruction):
    """``dst = src`` — register copy."""

    dst: int
    src: int

    kind = Kind.MOVE

    def operands(self) -> tuple:
        return (self.src,)

    def defined(self) -> tuple:
        return (self.dst,)


@dataclass(slots=True)
class Binop(Instruction):
    """``dst = a <op> b`` over integers; ``b`` may be an immediate."""

    op: str
    dst: int
    a: int
    b: Operand

    kind = Kind.BINOP

    def __post_init__(self) -> None:
        if self.op not in BINARY_OPS:
            raise ValueError(f"unknown integer op {self.op!r}")

    def operands(self) -> tuple:
        if isinstance(self.b, Imm):
            return (self.a,)
        return (self.a, self.b)

    def defined(self) -> tuple:
        return (self.dst,)


@dataclass(slots=True)
class FBinop(Instruction):
    """``dst = a <op> b`` over floats; executes on the FP unit."""

    op: str
    dst: int
    a: int
    b: Operand

    kind = Kind.FBINOP

    def __post_init__(self) -> None:
        if self.op not in FLOAT_OPS:
            raise ValueError(f"unknown float op {self.op!r}")

    def operands(self) -> tuple:
        if isinstance(self.b, Imm):
            return (self.a,)
        return (self.a, self.b)

    def defined(self) -> tuple:
        return (self.dst,)


@dataclass(slots=True)
class Load(Instruction):
    """``dst = memory[regs[base] + offset]`` — goes through the D-cache."""

    dst: int
    base: int
    offset: int = 0

    kind = Kind.LOAD

    def operands(self) -> tuple:
        return (self.base,)

    def defined(self) -> tuple:
        return (self.dst,)


@dataclass(slots=True)
class Store(Instruction):
    """``memory[regs[base] + offset] = src`` — D-cache plus store buffer."""

    src: Operand
    base: int
    offset: int = 0

    kind = Kind.STORE

    def operands(self) -> tuple:
        if isinstance(self.src, Imm):
            return (self.base,)
        return (self.src, self.base)


@dataclass(slots=True)
class Alloc(Instruction):
    """``dst = heap_allocate(size_words)`` — bump allocation."""

    dst: int
    size: Operand

    kind = Kind.ALLOC

    def operands(self) -> tuple:
        if isinstance(self.size, Imm):
            return ()
        return (self.size,)

    def defined(self) -> tuple:
        return (self.dst,)


@dataclass(slots=True)
class Br(Instruction):
    """Unconditional branch to a block (by name)."""

    target: str

    kind = Kind.BR


@dataclass(slots=True)
class Cbr(Instruction):
    """Conditional branch: nonzero ``cond`` goes to ``then``, else ``els``.

    Conditional branches consult the branch predictor on the machine.
    """

    cond: int
    then: str
    els: str

    kind = Kind.CBR

    def operands(self) -> tuple:
        return (self.cond,)


@dataclass(slots=True)
class Call(Instruction):
    """Direct call; arguments are copied into the callee's r0..rN-1.

    ``site`` is the call-site index within the caller, assigned by
    :func:`repro.ir.function.Function.assign_call_sites`; the CCT runtime
    keys callee slots by it.
    """

    callee: str
    args: list
    dst: Union[int, None] = None
    site: int = -1

    kind = Kind.CALL

    def operands(self) -> tuple:
        return tuple(a for a in self.args if not isinstance(a, Imm))

    def defined(self) -> tuple:
        return () if self.dst is None else (self.dst,)


@dataclass(slots=True)
class ICall(Instruction):
    """Indirect call through a function index held in ``func`` register."""

    func: int
    args: list
    dst: Union[int, None] = None
    site: int = -1

    kind = Kind.ICALL

    def operands(self) -> tuple:
        return (self.func, *(a for a in self.args if not isinstance(a, Imm)))

    def defined(self) -> tuple:
        return () if self.dst is None else (self.dst,)


@dataclass(slots=True)
class Ret(Instruction):
    """Return, optionally with a value."""

    value: Union[Operand, None] = None

    kind = Kind.RET

    def operands(self) -> tuple:
        if self.value is None or isinstance(self.value, Imm):
            return ()
        return (self.value,)


@dataclass(slots=True)
class Setjmp(Instruction):
    """``dst = setjmp()`` — captures the current continuation.

    Returns 0 on the direct call; a later :class:`Longjmp` resumes here
    with the longjmp value (coerced to nonzero).  Used to exercise the
    CCT's handling of non-local returns (paper §4.3).
    """

    dst: int
    env: int

    kind = Kind.SETJMP

    def defined(self) -> tuple:
        return (self.dst,)


@dataclass(slots=True)
class Longjmp(Instruction):
    """``longjmp(env, value)`` — unwind frames back to the setjmp point."""

    env: int
    value: Operand

    kind = Kind.LONGJMP

    def operands(self) -> tuple:
        if isinstance(self.value, Imm):
            return (self.env,)
        return (self.env, self.value)


@dataclass(slots=True)
class FrameLoad(Instruction):
    """``dst = frame_memory[slot]`` — reload a spilled register.

    The executable editor inserts these around uses of a spilled
    register (paper §3.2: EEL spills a register to the stack when a
    procedure has no free register, and the extra loads/stores perturb
    the metrics).  The access goes through the D-cache at the frame's
    stack address.
    """

    dst: int
    slot: int

    kind = Kind.FRAME_LOAD

    def defined(self) -> tuple:
        return (self.dst,)


@dataclass(slots=True)
class FrameStore(Instruction):
    """``frame_memory[slot] = src`` — spill a register to the stack."""

    src: int
    slot: int

    kind = Kind.FRAME_STORE

    def operands(self) -> tuple:
        return (self.src,)


# ---------------------------------------------------------------------------
# Instrumentation pseudo-instructions
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class PathReset(Instruction):
    """``r = 0`` at procedure ENTRY (Ball–Larus path register init)."""

    reg: int

    kind = Kind.PATH_RESET
    icost = 1

    def defined(self) -> tuple:
        return (self.reg,)


@dataclass(slots=True)
class PathAdd(Instruction):
    """``r += value`` along a CFG edge (the Val(e) increment)."""

    reg: int
    value: int

    kind = Kind.PATH_ADD
    icost = 1

    def operands(self) -> tuple:
        return (self.reg,)

    def defined(self) -> tuple:
        return (self.reg,)


@dataclass(slots=True)
class PathCommit(Instruction):
    """``count[r + end] += 1`` then optionally ``r = start``.

    ``table`` names a counter table registered with the profiling
    runtime; the increment is a real load/store pair into the profiling
    memory region, so it occupies D-cache lines.  ``reset_to`` is the
    START value of a backedge's pseudo edge, or ``None`` at EXIT.
    """

    reg: int
    end: int
    table: int
    reset_to: Union[int, None] = None

    kind = Kind.PATH_COMMIT
    # add, address arithmetic, load, add, store (+ optional reset move)
    icost = 5

    def operands(self) -> tuple:
        return (self.reg,)

    def defined(self) -> tuple:
        return (self.reg,)


@dataclass(slots=True)
class HwcZero(Instruction):
    """Zero the PIC hardware counters (write + read-after-write).

    On the UltraSPARC the write must be followed by a read to guarantee
    completion before subsequent instructions (paper §3.1); the machine
    models the same and the cost reflects both instructions.
    """

    kind = Kind.HWC_ZERO
    icost = 2


@dataclass(slots=True)
class HwcAccum(Instruction):
    """Read the PIC counters and accumulate into a path's metric slots.

    Implements the end-of-path sequence of Figure 3: read the 64-bit
    counter register, extract the two 32-bit event counts, and add each
    (plus a frequency increment) into 64-bit accumulators indexed by the
    path sum.  The paper reports this takes thirteen or more
    instructions; we charge 13 plus the memory traffic of the
    read-modify-write of three 8-byte accumulator slots.

    ``rezero`` makes the sequence also clear the counters, which is how
    backedge instrumentation chains intervals together.
    """

    reg: int
    end: int
    table: int
    rezero: bool = True
    reset_to: Union[int, None] = None

    kind = Kind.HWC_ACCUM
    icost = 13

    def operands(self) -> tuple:
        return (self.reg,)

    def defined(self) -> tuple:
        return (self.reg,)


@dataclass(slots=True)
class HwcSave(Instruction):
    """Save the live PIC counter values to the frame (around calls)."""

    kind = Kind.HWC_SAVE
    icost = 3


@dataclass(slots=True)
class HwcRestore(Instruction):
    """Restore saved PIC counter values (write + read-after-write)."""

    kind = Kind.HWC_RESTORE
    icost = 4


@dataclass(slots=True)
class EdgeCount(Instruction):
    """``edge_counter[edge] += 1`` — the qpt-style edge-profiling baseline."""

    edge: int
    table: int

    kind = Kind.EDGE_COUNT
    # address arithmetic, load, add, store
    icost = 4


@dataclass(slots=True)
class CctEnter(Instruction):
    """CCT procedure-entry hook: find or build this context's call record.

    The real cost is dynamic (fast path: one tagged load; slow path:
    ancestor walk plus record allocation); the CCT runtime reports the
    instructions actually executed and performs the corresponding
    simulated memory accesses.  ``icost`` here is only the static floor.
    """

    proc: str
    nslots: int

    kind = Kind.CCT_ENTER
    icost = 4


@dataclass(slots=True)
class CctCall(Instruction):
    """Before a call: gCSP = lCRP + slot offset for this call site."""

    slot: int

    kind = Kind.CCT_CALL
    icost = 2


@dataclass(slots=True)
class CctExit(Instruction):
    """CCT procedure-exit hook: restore the caller's gCSP from the stack."""

    kind = Kind.CCT_EXIT
    icost = 2


@dataclass(slots=True)
class CctProbe(Instruction):
    """Mid-procedure counter read on a loop backedge (paper §4.3).

    Accumulates the interval since procedure entry (or the previous
    probe) into the current call record and restarts the interval,
    bounding the interval length so 32-bit counters cannot wrap and
    capturing partial metrics for procedures that never return
    normally.
    """

    kind = Kind.CCT_PROBE
    icost = 6


@dataclass(slots=True)
class KPathAdd(Instruction):
    """``r += values[r % k]`` — per-layer Val(e) increment for k-iteration paths.

    The k-iteration path register packs ``path_sum * k + layer`` into one
    scavenged register, where ``layer`` counts backedge crossings since the
    last commit.  ``values`` holds one increment per layer, each pre-scaled
    by ``k`` so the packed layer component is preserved.  Edges whose
    increment is uniform across layers are lowered to a plain
    :class:`PathAdd` instead; this instruction pays one extra machine op
    for the layer-indexed table lookup.
    """

    reg: int
    k: int
    values: tuple

    kind = Kind.K_PATH_ADD
    icost = 2

    def operands(self) -> tuple:
        return (self.reg,)

    def defined(self) -> tuple:
        return (self.reg,)


@dataclass(slots=True)
class KHwcCycle(Instruction):
    """Backedge probe for k-iteration paths: cross a layer or commit.

    With packed register ``r = path_sum * k + layer``: when
    ``layer < k - 1`` the backedge continues the current path into the
    next layer (``r += cross[layer]``, where each cross value is
    pre-scaled as ``raw * k + 1`` to fold in the layer bump); when
    ``layer == k - 1`` it commits like :class:`HwcAccum` with
    ``index = path_sum + end``, rezeroes the counters, and resets
    ``r = start`` (pre-scaled ``raw_start * k``, layer 0).  The commit arm
    is the paper's Figure 3 sequence plus the layer test, hence one extra
    machine op over :class:`HwcAccum`.
    """

    reg: int
    k: int
    cross: tuple
    end: int
    start: int
    table: int

    kind = Kind.K_HWC_CYCLE
    icost = 14

    def operands(self) -> tuple:
        return (self.reg,)

    def defined(self) -> tuple:
        return (self.reg,)


@dataclass(slots=True)
class KHwcExit(Instruction):
    """Exit commit for k-iteration paths (no rezero, no reset).

    Unpacks ``r = path_sum * k + layer`` and accumulates into
    ``index = path_sum + values[layer]`` where ``values`` holds the raw
    per-layer exit edge value.  Unlike :class:`HwcAccum` the end value is
    layer-dependent, so the exit commit cannot collapse to the base
    instruction for ``k > 1``.
    """

    reg: int
    k: int
    values: tuple
    table: int

    kind = Kind.K_HWC_EXIT
    icost = 14

    def operands(self) -> tuple:
        return (self.reg,)


_TERMINATORS = frozenset({Kind.BR, Kind.CBR, Kind.RET, Kind.LONGJMP})


def is_terminator(instr: Instruction) -> bool:
    """True if ``instr`` must appear (only) as the last instruction of a block."""
    return instr.kind in _TERMINATORS


def copy_instruction(instr: Instruction) -> Instruction:
    """A copy of ``instr`` that owns its lists and shares every other field.

    The only mutable field an instruction holds is the argument list of
    :class:`Call`/:class:`ICall`; every other field is an int, str,
    tuple or frozen :class:`Imm`, so the copy shares it.  Passes may
    then reassign any field of the copy, or append to its ``args``,
    without touching the original.
    """
    cls = instr.__class__
    new = cls.__new__(cls)
    for name in cls.__dataclass_fields__:
        value = getattr(instr, name)
        if value.__class__ is list:
            value = list(value)
        setattr(new, name, value)
    return new
