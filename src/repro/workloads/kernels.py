"""IR-emitting building blocks shared by the workload archetypes.

Each helper emits straight-line or structured code into a
:class:`~repro.ir.builder.FunctionBuilder`, managing registers
explicitly (workload functions run close to the 32-register file on
purpose, so instrumentation occasionally has to spill — a perturbation
source the paper discusses).

Memory addressing: workload arrays live in the globals region at fixed
offsets; absolute base addresses are compile-time constants, exactly
like linked global arrays in a real binary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.ir.builder import FunctionBuilder
from repro.ir.instructions import Imm
from repro.machine.memory import WORD

#: Must match MemoryMap's globals region base.
GLOBALS_BASE = 0x0001_0000

#: Words per 32-byte cache line (the default machine's line size).
LINE_WORDS = 4

#: LCG constants (glibc's): deterministic pseudo-random data at runtime.
LCG_MUL = 1103515245
LCG_ADD = 12345
LCG_MASK = 0x7FFFFFFF


@dataclass
class ArrayDecl:
    """A global array: ``words`` 8-byte words at a fixed offset."""

    name: str
    offset_words: int
    words: int

    @property
    def base(self) -> int:
        return GLOBALS_BASE + self.offset_words * WORD


class GlobalPlanner:
    """Assigns global-array offsets; tracks the program's globals size."""

    def __init__(self) -> None:
        self._next = 0
        self.arrays: List[ArrayDecl] = []

    def array(self, name: str, words: int, align_lines: bool = True) -> ArrayDecl:
        if align_lines and self._next % LINE_WORDS:
            self._next += LINE_WORDS - self._next % LINE_WORDS
        decl = ArrayDecl(name, self._next, words)
        self._next += words
        self.arrays.append(decl)
        return decl

    def conflict_pair(self, name: str, words: int, cache_words: int) -> Tuple[ArrayDecl, ArrayDecl]:
        """Two arrays exactly one cache-size apart: same-set conflicts.

        Alternating accesses at equal indices evict each other in a
        direct-mapped cache — the concentrated-miss pattern behind the
        paper's dense hot paths (§1: "possibly due to a cache
        conflict").
        """
        first = self.array(f"{name}_a", words)
        gap = cache_words - (self._next - first.offset_words) % cache_words
        self._next += gap % cache_words
        second = self.array(f"{name}_b", words, align_lines=False)
        return first, second

    @property
    def total_words(self) -> int:
        return self._next


# ---------------------------------------------------------------------------
# Emission helpers
# ---------------------------------------------------------------------------


def emit_lcg_step(fb: FunctionBuilder, state: int, scratch: int) -> None:
    """``state = (state * LCG_MUL + LCG_ADD) & LCG_MASK`` in-place."""
    fb.binop("mul", state, Imm(LCG_MUL), dst=scratch)
    fb.binop("add", scratch, Imm(LCG_ADD), dst=scratch)
    fb.binop("and", scratch, Imm(LCG_MASK), dst=state)


def emit_array_addr(
    fb: FunctionBuilder,
    array: ArrayDecl,
    index: int,
    addr: int,
    stride_words: int = 1,
    mask_to_array: bool = True,
) -> None:
    """``addr = array.base + ((index * stride) % words) * 8``.

    ``words`` is rounded down to a power of two for cheap masking, as a
    hand-written kernel would.
    """
    fb.binop("mul", index, Imm(stride_words), dst=addr)
    if mask_to_array:
        mask = _floor_pow2(array.words) - 1
        fb.binop("and", addr, Imm(mask), dst=addr)
    fb.binop("mul", addr, Imm(WORD), dst=addr)
    fb.binop("add", addr, Imm(array.base), dst=addr)


def _floor_pow2(value: int) -> int:
    if value < 1:
        raise ValueError("array too small")
    return 1 << (value.bit_length() - 1)


def emit_sum_walk(
    fb: FunctionBuilder,
    array: ArrayDecl,
    index: int,
    accum: int,
    addr: int,
    scratch: int,
    loads: int,
    stride_words: int,
) -> None:
    """Unrolled read chain: ``loads`` loads at increasing strided offsets.

    A stride of one word stays within cache lines (few misses); a
    stride of a line or more touches a new line per load (misses once
    the footprint exceeds the cache).
    """
    emit_array_addr(fb, array, index, addr, stride_words)
    step = stride_words * WORD
    wrap = _floor_pow2(array.words) * WORD
    for i in range(loads):
        offset = (i * step) % max(wrap, WORD)
        fb.load(addr, offset, dst=scratch)
        fb.binop("add", accum, scratch, dst=accum)


def emit_conflict_ping_pong(
    fb: FunctionBuilder,
    pair: Tuple[ArrayDecl, ArrayDecl],
    index: int,
    accum: int,
    addr: int,
    scratch: int,
    rounds: int,
) -> None:
    """Alternate loads of two same-set arrays: every access misses."""
    first, second = pair
    emit_array_addr(fb, first, index, addr, stride_words=LINE_WORDS)
    delta = second.base - first.base
    for _ in range(rounds):
        fb.load(addr, 0, dst=scratch)
        fb.binop("add", accum, scratch, dst=accum)
        fb.load(addr, delta, dst=scratch)
        fb.binop("add", accum, scratch, dst=accum)


def emit_fp_chain(fb: FunctionBuilder, value: int, scratch: int, ops: int) -> None:
    """A dependent FP chain (fadd/fmul alternating): FP stall pressure."""
    fb.const(1.0001, dst=scratch)
    for i in range(ops):
        op = "fmul" if i % 2 else "fadd"
        fb.fbinop(op, value, scratch, dst=value)


def emit_compute_chain(fb: FunctionBuilder, value: int, ops: int) -> None:
    """Cache-neutral integer work (the sparse-path filler)."""
    for i in range(ops):
        op = ("add", "xor", "mul")[i % 3]
        fb.binop(op, value, Imm(2 * i + 1), dst=value)


def emit_dispatch_tree(
    fb: FunctionBuilder,
    selector: int,
    width: int,
    label: str,
    join: str,
    scratch: int,
    leaf_emit,
) -> None:
    """A balanced if-tree over ``selector in [0, width)``: ``width`` paths.

    ``leaf_emit(fb, leaf_index)`` emits each leaf's body; every leaf
    branches to ``join``.  This is the long-cold-tail generator: each
    leaf is one distinct path.
    """
    if width < 1 or width & (width - 1):
        raise ValueError("dispatch width must be a power of two")

    def subtree(name: str, lo: int, hi: int) -> None:
        fb.block(name)
        if hi - lo == 1:
            leaf_emit(fb, lo)
            fb.br(join)
            return
        mid = (lo + hi) // 2
        fb.binop("lt", selector, Imm(mid), dst=scratch)
        left = f"{label}_{lo}_{mid}"
        right = f"{label}_{mid}_{hi}"
        fb.cbr(scratch, left, right)
        subtree(left, lo, mid)
        subtree(right, mid, hi)

    subtree(f"{label}_{0}_{width}", 0, width)


