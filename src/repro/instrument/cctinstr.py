"""Context-sensitive instrumentation (paper §4.2's insertion points).

Per instrumented procedure:

* *procedure entry*: ``CctEnter`` — find/build the call record;
* *procedure call*: ``CctCall`` immediately before every call
  instruction — point the gCSP at this site's callee slot;
* *procedure exit*: ``CctExit`` immediately before every ``ret`` —
  restore the caller's gCSP;
* optionally, *loop backedges*: ``CctProbe`` — read the counters
  mid-procedure (§4.3's wrap/non-local-return mitigation).

Functions left out of ``functions`` stay uninstrumented, which
exercises the gCSP save/restore property: callees of an uninstrumented
intermediary attach to the nearest instrumented ancestor's record.

Ordering: when combining with flow instrumentation, run the flow pass
first so path commits land before ``CctExit`` (a per-context path
commit must observe this procedure's record as current).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.cfg.analysis import backedges
from repro.cfg.graph import build_cfg
from repro.edit.editor import FunctionEditor
from repro.ir.function import Function, Program
from repro.ir.instructions import CctCall, CctEnter, CctExit, CctProbe, Kind


@dataclass
class ContextInstrumentation:
    program: Program
    instrumented: List[str] = field(default_factory=list)
    read_at_backedges: bool = False
    #: function -> number of call sites (the CctEnter slot counts).
    call_sites: Dict[str, int] = field(default_factory=dict)


def instrument_context(
    program: Program,
    functions: Optional[Iterable[str]] = None,
    read_at_backedges: bool = False,
) -> ContextInstrumentation:
    """Insert CCT hooks into ``program`` in place."""
    result = ContextInstrumentation(program, read_at_backedges=read_at_backedges)
    selected = set(functions) if functions is not None else None
    for function in program.functions.values():
        if selected is not None and function.name not in selected:
            continue
        result.call_sites[function.name] = _instrument_function(
            function, read_at_backedges
        )
        result.instrumented.append(function.name)
    return result


def _instrument_function(function: Function, read_at_backedges: bool) -> int:
    nsites = function.assign_call_sites()

    # gCSP setup immediately before each call instruction.  This is a
    # mid-block insertion, done directly (the editor handles block
    # boundaries; calls never terminate blocks in this IR).
    for block in function.blocks:
        rewritten = []
        for instr in block.instrs:
            if instr.kind in (Kind.CALL, Kind.ICALL):
                rewritten.append(CctCall(instr.site))
            rewritten.append(instr)
        block.instrs = rewritten

    cfg = build_cfg(function)
    editor = FunctionEditor(function, cfg)
    editor.insert_at_entry([CctEnter(function.name, nsites)])
    for block in function.blocks:
        if block.terminator.kind == Kind.RET:
            editor.insert_before_terminator(block.name, [CctExit()])
    if read_at_backedges:
        for edge in backedges(cfg):
            editor.insert_on_edge(edge, [CctProbe()])
    editor.apply()
    return nsites
