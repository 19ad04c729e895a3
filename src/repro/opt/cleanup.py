"""IR cleanup passes: constant folding, copy propagation, dead blocks.

Small, local, and semantics-preserving — the passes a binary editor's
companion optimizer would run after splicing or duplication:

* :func:`fold_constants` — per-block constant and copy propagation:
  an operand whose defining ``const``/``mov`` is visible within the
  block folds into an immediate; fully-constant integer ops evaluate
  at compile time.  Conditional branches on known constants become
  unconditional.
* :func:`remove_unreachable_blocks` — drop blocks no path from the
  entry reaches (superblock formation, for one, orphans originals).
* :func:`merge_blocks` — splice a block into its unique ``br``
  successor, removing the executed jump (inlining and superblock
  formation both leave such seams).
* :func:`cleanup_function` / :func:`cleanup_program` — all of the
  above, to a fixpoint.

None of the passes touch instrumentation pseudo-instructions, and all
preserve observable behaviour: tests check optimized programs return
identical results with no more executed instructions.
"""

from __future__ import annotations

from typing import Dict, List, Set, Union

from repro.cfg.analysis import depth_first_order
from repro.cfg.graph import build_cfg
from repro.ir.function import Function, Program, validate_function
from repro.ir.instructions import (
    BINARY_OPS,
    Binop,
    Br,
    Cbr,
    Const,
    Imm,
    Instruction,
    Kind,
    Move,
)


def fold_constants(function: Function) -> int:
    """Per-block constant/copy propagation; returns changes made.

    A block's instruction list is rebound only when rewriting actually
    changed an instruction; an untouched block keeps its list object.
    """
    changes = 0
    for block in function.blocks:
        known: Dict[int, Union[int, float]] = {}
        copies: Dict[int, int] = {}
        rewritten: List[Instruction] = []
        block_changed = False
        for instr in block.instrs:
            kind = instr.kind
            if kind == Kind.CONST:
                known[instr.dst] = instr.value
                copies.pop(instr.dst, None)
                _invalidate_copies_of(copies, instr.dst)
                rewritten.append(instr)
                continue
            if kind == Kind.MOVE:
                source = copies.get(instr.src, instr.src)
                if source in known:
                    rewritten.append(Const(instr.dst, known[source]))
                    known[instr.dst] = known[source]
                    copies.pop(instr.dst, None)
                    _invalidate_copies_of(copies, instr.dst)
                    changes += 1
                    block_changed = True
                else:
                    _invalidate_copies_of(copies, instr.dst)
                    copies[instr.dst] = source
                    known.pop(instr.dst, None)
                    if source != instr.src:
                        rewritten.append(Move(instr.dst, source))
                        block_changed = True
                    else:
                        rewritten.append(instr)
                continue
            if kind == Kind.BINOP:
                a = copies.get(instr.a, instr.a)
                b = instr.b
                if not isinstance(b, Imm):
                    b = copies.get(b, b)
                    if b in known and isinstance(known[b], int):
                        b = Imm(known[b])
                        changes += 1
                if (
                    a in known
                    and isinstance(known[a], int)
                    and isinstance(b, Imm)
                    and isinstance(b.value, int)
                ):
                    value = BINARY_OPS[instr.op](known[a], b.value)
                    rewritten.append(Const(instr.dst, value))
                    known[instr.dst] = value
                    copies.pop(instr.dst, None)
                    _invalidate_copies_of(copies, instr.dst)
                    changes += 1
                    block_changed = True
                    continue
                if a != instr.a or b is not instr.b:
                    rewritten.append(Binop(instr.op, instr.dst, a, b))
                    block_changed = True
                else:
                    rewritten.append(instr)
                known.pop(instr.dst, None)
                copies.pop(instr.dst, None)
                _invalidate_copies_of(copies, instr.dst)
                continue
            if kind == Kind.CBR:
                cond = copies.get(instr.cond, instr.cond)
                if cond in known:
                    target = instr.then if known[cond] != 0 else instr.els
                    rewritten.append(Br(target))
                    changes += 1
                    block_changed = True
                    continue
                if cond != instr.cond:
                    rewritten.append(Cbr(cond, instr.then, instr.els))
                    changes += 1
                    block_changed = True
                    continue
                rewritten.append(instr)
                continue
            # Anything else: operands may read copies; defs invalidate.
            for reg in instr.defined():
                known.pop(reg, None)
                copies.pop(reg, None)
                _invalidate_copies_of(copies, reg)
            rewritten.append(instr)
        if block_changed:
            block.instrs = rewritten
    return changes


def _invalidate_copies_of(copies: Dict[int, int], reg: int) -> None:
    for dst in [d for d, s in copies.items() if s == reg]:
        del copies[dst]


def merge_blocks(function: Function) -> int:
    """Merge each block into its unique ``br`` successor; returns merges.

    When a block ends in an unconditional branch to a block with no
    other predecessors, the two are one straight-line region split by
    an executed jump — inlining and superblock formation both leave
    such seams (entry glue, lowered returns, straightened traces).
    Merging splices the successor's instructions over the branch,
    removing one executed instruction per traversal.  Blocks carrying
    instrumentation pseudo-instructions are left alone (probe placement
    is per-block), and the entry block is never absorbed.
    """
    merges = 0
    while True:
        cfg = build_cfg(function)
        by_name = {b.name: b for b in function.blocks}
        merged = False
        for block in function.blocks:
            if not block.instrs:
                continue
            last = block.instrs[-1]
            if last.kind != Kind.BR:
                continue
            target = last.target
            if target == block.name or target == function.entry.name:
                continue
            if len(cfg.pred.get(target, ())) != 1:
                continue
            tblock = by_name[target]
            if any(
                i.kind >= Kind.PATH_RESET
                for i in block.instrs + tblock.instrs
            ):
                continue
            block.instrs = block.instrs[:-1] + tblock.instrs
            function.blocks.remove(tblock)
            function.invalidate_index()
            merges += 1
            merged = True
            break
        if not merged:
            break
    if merges:
        function.assign_call_sites()
    return merges


def remove_unreachable_blocks(function: Function) -> int:
    """Drop blocks unreachable from the entry; returns blocks removed.

    The surviving call sites renumber when a removed block contained a
    call.
    """
    cfg = build_cfg(function)
    reachable: Set[str] = set(depth_first_order(cfg))
    keep = [b for b in function.blocks if b.name in reachable]
    removed = len(function.blocks) - len(keep)
    if removed:
        function.blocks = keep
        function.invalidate_index()
        function.assign_call_sites()
    return removed


def cleanup_function(function: Function, max_rounds: int = 8) -> int:
    """Fold and prune to a fixpoint; returns total changes."""
    total = 0
    for _ in range(max_rounds):
        changes = fold_constants(function)
        changes += remove_unreachable_blocks(function)
        changes += merge_blocks(function)
        total += changes
        if not changes:
            break
    validate_function(function)
    return total


def cleanup_program(program: Program) -> int:
    return sum(cleanup_function(f) for f in program.functions.values())
