"""Hypothesis strategies that generate small, *terminating* IR programs.

The differential fuzz suite (``tests/test_fuzz_differential.py``) runs
the same random program under both execution engines and every
profiling configuration; for that to be decidable the generated
programs must halt.  Two structural rules guarantee it:

* the call graph is a DAG — a helper may only call strictly
  later-numbered helpers, directly or through the function table, so
  there is no recursion;
* every loop is a counted countdown with a constant trip count drawn
  at generation time.

Within those rules the generator exercises the control-flow and
memory shapes the engines compile differently: conditional branches
(data-dependent on the accumulator), counted loops (backedge path
commits, CCT probes), direct calls (CCT enter/exit, PIC save/restore),
indirect calls whose target the accumulator picks (callee lists, and a
call site whose target changes between runs of it), and loads/stores
through a per-function scratch buffer (D-cache traffic).  Every
arithmetic step masks the accumulator to 16 bits so values stay
engine-representable and paths stay data-dependent.

All programs share one fixed shape convention — ``main()`` takes no
arguments and returns the masked accumulator — so test harnesses can
run any generated program identically.  The strategy is fully
shrinkable: hypothesis minimizes failing programs segment by segment.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.ir.builder import FunctionBuilder, ProgramBuilder
from repro.ir.function import Program
from repro.ir.instructions import Imm

#: Accumulator mask: keeps values bounded and branch conditions varied.
MASK = 0xFFFF

#: Closed integer ops (no div/mod blowups, no unbounded shifts).
ARITH_OPS = ("add", "sub", "mul", "xor", "or", "min", "max")

#: Per-function scratch buffer size, in words.
BUFFER_WORDS = 8

_WORD = 8  # matches repro.machine.memory.WORD


def _arith(draw, fb: FunctionBuilder, acc: int) -> None:
    """One masked accumulator update: ``acc = (acc op k) & MASK``."""
    op = draw(st.sampled_from(ARITH_OPS))
    operand = draw(st.integers(min_value=1, max_value=997))
    fb.binop(op, acc, Imm(operand), dst=acc)
    fb.binop("and", acc, Imm(MASK), dst=acc)


def _call_segment(draw, fb: FunctionBuilder, acc: int, callees) -> None:
    callee = draw(st.sampled_from(callees))
    result = fb.call(callee, [acc])
    fb.binop("add", acc, result, dst=acc)
    fb.binop("and", acc, Imm(MASK), dst=acc)


def _icall_segment(fb: FunctionBuilder, acc: int, callees) -> None:
    """An indirect call to ``callees[acc % len(callees)]``.

    The function table lists every helper in order and ``callees`` is a
    run of it (``f<first>`` onwards), so the table index is ``first +
    acc % len(callees)``: data-dependent, yet never an earlier helper.
    """
    index = fb.binop("mod", acc, Imm(len(callees)))
    fb.binop("add", index, Imm(int(callees[0][1:])), dst=index)
    result = fb.icall(index, [acc])
    fb.binop("add", acc, result, dst=acc)
    fb.binop("and", acc, Imm(MASK), dst=acc)


def _mem_segment(draw, fb: FunctionBuilder, acc: int, buf: int) -> None:
    offset = draw(st.integers(min_value=0, max_value=BUFFER_WORDS - 1)) * _WORD
    fb.store(acc, buf, offset)
    loaded = fb.load(buf, draw(st.integers(min_value=0, max_value=BUFFER_WORDS - 1)) * _WORD)
    fb.binop("add", acc, loaded, dst=acc)
    fb.binop("and", acc, Imm(MASK), dst=acc)


def _branch_segment(draw, fb: FunctionBuilder, acc: int, labels, callees) -> None:
    then_l, else_l, join_l = labels(), labels(), labels()
    cond = fb.binop("and", acc, Imm(draw(st.sampled_from([1, 2, 3, 7]))))
    fb.cbr(cond, then_l, else_l)
    fb.block(then_l)
    _arith(draw, fb, acc)
    if callees and draw(st.booleans()):
        _call_segment(draw, fb, acc, callees)
    fb.br(join_l)
    fb.block(else_l)
    _arith(draw, fb, acc)
    fb.br(join_l)
    fb.block(join_l)


def _loop_segment(
    draw, fb: FunctionBuilder, acc: int, buf: int, labels, callees, max_trip: int = 5
) -> None:
    trip = draw(st.integers(min_value=1, max_value=max_trip))
    head_l, body_l, exit_l = labels(), labels(), labels()
    counter = fb.const(trip)
    fb.br(head_l)
    fb.block(head_l)
    cond = fb.binop("gt", counter, Imm(0))
    fb.cbr(cond, body_l, exit_l)
    fb.block(body_l)
    _arith(draw, fb, acc)
    if draw(st.booleans()):
        _mem_segment(draw, fb, acc, buf)
    if callees and draw(st.booleans()):
        _call_segment(draw, fb, acc, callees)
    fb.binop("sub", counter, Imm(1), dst=counter)
    fb.br(head_l)
    fb.block(exit_l)


def _build_helper(draw, name: str, callees, max_trip: int = 5) -> FunctionBuilder:
    """One helper ``f(x)``: entry masking, 1–3 random segments, return."""
    fb = FunctionBuilder(name, num_params=1, num_regs=64)
    counter = [0]

    def labels() -> str:
        counter[0] += 1
        return f"b{counter[0]}"

    fb.block("entry")
    acc = fb.binop("and", 0, Imm(MASK))
    buf = fb.alloc(Imm(BUFFER_WORDS))
    fb.store(acc, buf, 0)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        segment = draw(
            st.sampled_from(
                ["arith", "branch", "loop", "mem", "call", "icall"]
                if callees
                else ["arith", "branch", "loop", "mem"]
            )
        )
        if segment == "arith":
            _arith(draw, fb, acc)
        elif segment == "branch":
            _branch_segment(draw, fb, acc, labels, callees)
        elif segment == "loop":
            _loop_segment(draw, fb, acc, buf, labels, callees, max_trip)
        elif segment == "mem":
            _mem_segment(draw, fb, acc, buf)
        elif segment == "call":
            _call_segment(draw, fb, acc, callees)
        else:
            _icall_segment(fb, acc, callees)
    tail = fb.load(buf, 0)
    fb.binop("add", acc, tail, dst=acc)
    fb.binop("and", acc, Imm(MASK), dst=acc)
    fb.ret(acc)
    return fb


@st.composite
def ir_programs(draw, max_trip: int = 5) -> Program:
    """A random valid program: DAG of 1–3 helpers plus ``main()``.

    The function table lists the helpers in order, ``f0`` at index 0.

    ``max_trip`` bounds loop trip counts.  The default keeps runs
    short; ``ir_hot_programs`` raises it so counted loops take their
    back-edges many times before exiting.
    """
    helper_count = draw(st.integers(min_value=1, max_value=3))
    names = [f"f{index}" for index in range(helper_count)]
    builder = ProgramBuilder(entry="main")
    builder.program.function_table = list(names)
    for index, name in enumerate(names):
        builder.add(_build_helper(draw, name, names[index + 1 :], max_trip))

    fb = FunctionBuilder("main", num_params=0, num_regs=64)
    fb.block("entry")
    acc = fb.const(draw(st.integers(min_value=0, max_value=MASK)))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        if draw(st.booleans()):
            _call_segment(draw, fb, acc, names)
        else:
            _icall_segment(fb, acc, names)
    fb.ret(acc)
    builder.add(fb)
    return builder.finish()


def ir_hot_programs():
    """Programs whose loops run 8–32 iterations: hot back-edges."""
    return ir_programs(max_trip=32)


@st.composite
def ir_program_asm(draw) -> str:
    """A random valid program as IR assembly text.

    The fork-safe form :class:`~repro.tools.shard_runner.ShardSpec`
    ships to workers (``asm=``) — and, because
    :func:`~repro.ir.disasm.format_program` round-trips, the same
    program the in-process strategies build.
    """
    from repro.ir.disasm import format_program

    return format_program(draw(ir_programs()))
