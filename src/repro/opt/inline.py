"""CCT-driven procedure inlining for hot call edges.

The calling context tree says which call edges dominate the run; this
pass inlines the hottest of them, subject to a size budget.  Inlining
in this IR is a block-level splice:

* the callee's blocks are cloned into the caller under mangled names,
  with every register shifted past the caller's file (the caller's
  file grows by the callee's — registers are frame-local, so disjoint
  ranges cannot clash);
* the call instruction's block is split: the head keeps the
  instructions before the call plus the argument moves and a branch to
  the cloned entry; a continuation block receives the rest;
* callee returns become an assignment to the call's destination
  register followed by a branch to the continuation.

Two semantic corners are handled explicitly.  A fresh callee frame
starts zeroed, so every non-parameter register *live at the callee's
entry* (it may be read before written) is zeroed before entering the
clone; a callee that initialises its locals needs no glue.  And a
``ret`` with no value still defines the caller's destination register
(the machine writes 0), so a bare return lowers to ``const dst, 0``.

Callees containing ``setjmp``/``longjmp`` (non-local control would
escape the clone's frame discipline), frame spills (slot addresses are
frame-relative), or instrumentation pseudo-instructions are refused,
as are recursive self-edges and site-insensitive edges that cannot be
mapped back to one call instruction.

After every splice the caller's call sites are renumbered and *all*
its blocks are stamped with a fresh edit generation — the PR 3
invalidation contract: compiled closures bake ``Call.site`` in, so a
renumbered site must evict the block's decoded code.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cfg.graph import build_cfg
from repro.ir.function import Block, Function, Program, validate_function
from repro.ir.instructions import (
    Br,
    Const,
    Imm,
    Instruction,
    Kind,
    Move,
    Ret,
    copy_instruction,
)

#: Kinds a callee may not contain if it is to be inlined.
_UNINLINEABLE = frozenset(
    {Kind.SETJMP, Kind.LONGJMP, Kind.FRAME_LOAD, Kind.FRAME_STORE}
)
_FIRST_PSEUDO = Kind.PATH_RESET


@dataclass
class InlineResult:
    """One performed inline, for reporting and tests."""

    caller: str
    callee: str
    site: int
    calls: int
    code_growth: int  # icost-weighted instructions added to the caller


def _inlineable(callee: Function, caller: Function) -> bool:
    if callee.name == caller.name:
        return False  # direct recursion: inlining cannot terminate it
    for instr in callee.instructions():
        if instr.kind in _UNINLINEABLE or instr.kind >= _FIRST_PSEUDO:
            return False
    return True


def _find_call(caller: Function, callee: str, site: int):
    """The call instruction for a measured edge, or None.

    ``site`` indexes :meth:`Function.assign_call_sites` numbering; -1
    (a site-insensitive profile) matches the first direct call to
    ``callee``.
    """
    for block in caller.blocks:
        for instr in block.instrs:
            if instr.kind != Kind.CALL or instr.callee != callee:
                continue
            if site == -1 or instr.site == site:
                return instr
    return None


def _locate(caller: Function, call) -> Optional[tuple]:
    """Where a call instruction currently lives: ``(block, index)``.

    Lookup is by instruction identity, so a call resolved against the
    profiled program is still found after earlier inlines split or
    renumbered the caller's blocks.
    """
    for block in caller.blocks:
        for index, instr in enumerate(block.instrs):
            if instr is call:
                return block, index
    return None


def _entry_live_registers(callee: Function) -> set:
    """Registers the callee may read before writing: the zero-init set.

    A fresh frame starts zeroed, so the clone must zero exactly the
    registers that are live at the callee's entry — computed by the
    textbook backward dataflow (``live_in = gen | (live_out - kill)``)
    to a fixpoint.  A well-formed callee that initialises its locals
    before use needs no zeroing glue at all.
    """
    gen: Dict[str, set] = {}
    kill: Dict[str, set] = {}
    for block in callee.blocks:
        reads: set = set()
        writes: set = set()
        for instr in block.instrs:
            for reg in instr.operands():
                if reg not in writes:
                    reads.add(reg)
            writes.update(instr.defined())
        gen[block.name] = reads
        kill[block.name] = writes
    cfg = build_cfg(callee)
    live_in: Dict[str, set] = {name: set() for name in gen}
    changed = True
    while changed:
        changed = False
        for block in callee.blocks:
            live_out: set = set()
            for succ in cfg.successors(block.name):
                if succ in live_in:
                    live_out |= live_in[succ]
            updated = gen[block.name] | (live_out - kill[block.name])
            if updated != live_in[block.name]:
                live_in[block.name] = updated
                changed = True
    return live_in[callee.entry.name]


def inline_call(
    program: Program,
    caller: Function,
    callee: Function,
    site: int = -1,
    call=None,
) -> Optional[InlineResult]:
    """Inline one direct call in place; None when the edge is refused.

    The call is named either by ``site`` (resolved against the current
    numbering) or directly by the ``call`` instruction object.
    """
    if not _inlineable(callee, caller):
        return None
    if call is None:
        call = _find_call(caller, callee.name, site)
    if call is None or call.kind != Kind.CALL or call.callee != callee.name:
        return None
    located = _locate(caller, call)
    if located is None:
        return None
    block, index = located
    size_before = caller.size_in_instructions()

    # Unique name mangling per inline within this caller.
    for counter in itertools.count():
        prefix = f"{block.name}.inl{counter}"
        if not any(b.name.startswith(prefix) for b in caller.blocks):
            break
    name_map = {b.name: f"{prefix}.{b.name}" for b in callee.blocks}
    cont_name = f"{prefix}.cont"

    offset = caller.num_regs
    caller.num_regs += callee.num_regs

    # Clone and remap the callee's blocks.
    clones: List[Block] = []
    for source in callee.blocks:
        instrs = [_remap(copy_instruction(i), offset) for i in source.instrs]
        lowered: List[Instruction] = []
        for instr in instrs:
            if instr.kind == Kind.BR:
                instr.target = name_map[instr.target]
                lowered.append(instr)
            elif instr.kind == Kind.CBR:
                instr.then = name_map[instr.then]
                instr.els = name_map[instr.els]
                lowered.append(instr)
            elif instr.kind == Kind.RET:
                lowered.extend(_lower_return(instr, call.dst, offset))
                lowered.append(Br(cont_name))
            else:
                lowered.append(instr)
        clones.append(Block(name_map[source.name], lowered))

    # Split the call block: head = prefix + entry glue, cont = the rest.
    head = block.instrs[:index]
    for param, arg in enumerate(call.args):
        if isinstance(arg, Imm):
            head.append(Const(offset + param, arg.value))
        else:
            head.append(Move(offset + param, arg))
    for reg in sorted(_entry_live_registers(callee)):
        if reg >= callee.num_params:
            head.append(Const(offset + reg, 0))
    head.append(Br(name_map[callee.entry.name]))
    cont = Block(cont_name, block.instrs[index + 1 :])
    block.instrs = head
    block.note_edit()

    position = caller.blocks.index(block)
    caller.blocks[position + 1 : position + 1] = [cont] + clones
    caller.invalidate_index()

    # Sites renumber across the whole caller (the inlined call vanished
    # and trailing calls moved): every block's decoded code may bake a
    # stale ``Call.site``, so stamp them all.
    caller.assign_call_sites()
    for stale in caller.blocks:
        stale.note_edit()
    validate_function(caller, program)
    return InlineResult(
        caller=caller.name,
        callee=callee.name,
        site=site,
        calls=0,
        code_growth=caller.size_in_instructions() - size_before,
    )


def _remap(instr: Instruction, offset: int) -> Instruction:
    """Shift every register reference of a cloned instruction by ``offset``."""
    kind = instr.kind
    if kind == Kind.CONST:
        instr.dst += offset
    elif kind == Kind.MOVE:
        instr.dst += offset
        instr.src += offset
    elif kind in (Kind.BINOP, Kind.FBINOP):
        instr.dst += offset
        instr.a += offset
        if not isinstance(instr.b, Imm):
            instr.b += offset
    elif kind == Kind.LOAD:
        instr.dst += offset
        instr.base += offset
    elif kind == Kind.STORE:
        if not isinstance(instr.src, Imm):
            instr.src += offset
        instr.base += offset
    elif kind == Kind.ALLOC:
        instr.dst += offset
        if not isinstance(instr.size, Imm):
            instr.size += offset
    elif kind == Kind.CBR:
        instr.cond += offset
    elif kind == Kind.CALL:
        instr.args = [
            a if isinstance(a, Imm) else a + offset for a in instr.args
        ]
        if instr.dst is not None:
            instr.dst += offset
    elif kind == Kind.ICALL:
        instr.func += offset
        instr.args = [
            a if isinstance(a, Imm) else a + offset for a in instr.args
        ]
        if instr.dst is not None:
            instr.dst += offset
    elif kind == Kind.RET:
        if instr.value is not None and not isinstance(instr.value, Imm):
            instr.value += offset
    return instr


def _lower_return(ret: Ret, dst: Optional[int], offset: int) -> List[Instruction]:
    """``ret v`` inside the clone -> assignment to the call's dst.

    The register in ``ret.value`` was already shifted by :func:`_remap`.
    A bare ``ret`` writes 0 to the destination — exactly what the
    machine's RET does when a destination register is expected.
    """
    if dst is None:
        return []
    if ret.value is None:
        return [Const(dst, 0)]
    if isinstance(ret.value, Imm):
        return [Const(dst, ret.value.value)]
    return [Move(dst, ret.value)]


def inline_hot_calls(
    program: Program,
    profile,
    min_calls: int = 2,
    max_callee_size: int = 40,
    growth_budget: float = 0.25,
    growth_floor: int = 32,
) -> List[InlineResult]:
    """Inline the profile's hottest call edges under a size budget.

    Edges come from :meth:`~repro.opt.measured.MeasuredProfile.
    hot_call_edges` (most-invoked first).  A callee larger than
    ``max_callee_size`` (icost-weighted) is never inlined; the pass
    stops before program growth would exceed ``growth_budget`` times
    the original program size (but may always grow by at least
    ``growth_floor`` — a fraction of a tiny program starves the pass,
    and tiny programs are the ones growth cannot hurt).
    """
    original = program.total_instructions()
    allowance = max(int(original * growth_budget), growth_floor)
    # Resolve every candidate edge to its call instruction *before* any
    # transformation: the profile's site indices refer to the measured
    # program's numbering, which the first inline invalidates.
    candidates = []
    seen = set()
    for edge in profile.hot_call_edges(min_calls=min_calls):
        caller = program.functions.get(edge.caller)
        callee = program.functions.get(edge.callee)
        if caller is None or callee is None:
            continue
        call = _find_call(caller, edge.callee, edge.site)
        if call is None or id(call) in seen:
            continue
        seen.add(id(call))
        candidates.append((edge, caller, callee, call))

    results: List[InlineResult] = []
    for edge, caller, callee, call in candidates:
        if callee.size_in_instructions() > max_callee_size:
            continue
        if program.total_instructions() + callee.size_in_instructions() \
                > original + allowance:
            continue
        outcome = inline_call(program, caller, callee, edge.site, call=call)
        if outcome is None:
            continue
        outcome.calls = edge.calls
        results.append(outcome)
    return results


__all__ = ["InlineResult", "inline_call", "inline_hot_calls"]
