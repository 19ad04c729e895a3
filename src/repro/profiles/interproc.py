"""Approximate interprocedural hot-path extraction (§6.3's implication).

Table 3's "One Path" column identifies the call sites where combined
flow+context profiling is *as precise as complete interprocedural path
profiling*: within one calling context, exactly one intraprocedural
path reaches the site, so the interprocedural continuation through it
is unambiguous.

This module exploits that: starting from a calling context, it takes
the context's hottest intraprocedural path, and whenever the path runs
through a call site it descends into the callee's per-context path
table and continues — flagging each hop as *exact* (one-path site) or
*ambiguous* (several paths reach the site; the hottest is chosen).
The result is a stitched cross-procedure trace with a precision label,
something neither a flow-only nor a context-only profile can produce.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cct.records import CalleeList, CallRecord
from repro.ir.function import Program
from repro.ir.instructions import Kind


@dataclass
class StitchStep:
    """One procedure's segment of the stitched path."""

    context: Tuple[str, ...]
    function: str
    path_sum: int
    freq: int
    blocks: List[str]
    #: True when every executed path in this context reaching the call
    #: site used to descend is this one (the §6.3 precision case).
    exact: bool


@dataclass
class StitchedPath:
    steps: List[StitchStep] = field(default_factory=list)

    def describe(self) -> str:
        lines = []
        for step in self.steps:
            marker = "=" if step.exact else "~"
            lines.append(
                f"{marker} {step.function} x{step.freq}: "
                f"{' -> '.join(step.blocks)}"
            )
        return "\n".join(lines)


def _call_sites_by_block(program: Program, function: str) -> Dict[str, List[Tuple[int, object]]]:
    sites: Dict[str, List[Tuple[int, object]]] = {}
    for block in program.functions[function].blocks:
        for instr in block.instrs:
            if instr.kind in (Kind.CALL, Kind.ICALL):
                sites.setdefault(block.name, []).append((instr.site, instr))
    return sites


def stitch_hot_path(
    run,
    max_depth: int = 16,
) -> StitchedPath:
    """Stitch the hottest interprocedural path from a context_flow run.

    ``run`` is a :class:`~repro.tools.pp.ProfileRun` from
    :meth:`PP.context_flow`.  Starting at the entry function's record,
    repeatedly: take the context's hottest executed path; find the
    first call site along it; descend into the callee record reached
    through that site.
    """
    if run.cct is None or run.flow is None:
        raise ValueError("stitching needs a combined flow+context run")
    program = run.program
    record: Optional[CallRecord] = None
    for candidate in run.cct.records:
        if candidate.parent is run.cct.root:
            record = candidate
            break
    result = StitchedPath()
    while record is not None and len(result.steps) < max_depth:
        function = record.id
        info = run.flow.functions.get(function)
        table = record.path_tables.get(function)
        if info is None or table is None or not table.counts:
            break
        # Hottest executed path in this context.
        path_sum, freq = max(table.counts.items(), key=lambda item: item[1])
        decoded = info.numbering.regenerate(path_sum)
        sites_by_block = _call_sites_by_block(program, function)
        chosen_site: Optional[int] = None
        for block in decoded.blocks:
            if block in sites_by_block:
                chosen_site = sites_by_block[block][0][0]
                break
        exact = True
        if chosen_site is not None:
            # How many executed paths reach the chosen site?
            reaching = 0
            for other_sum, count in table.counts.items():
                if count <= 0:
                    continue
                other = info.numbering.regenerate(other_sum)
                if any(
                    chosen_site in [s for s, _ in sites_by_block.get(b, ())]
                    for b in other.blocks
                ):
                    reaching += 1
            exact = reaching == 1
        result.steps.append(
            StitchStep(
                context=tuple(record.context()[1:]),
                function=function,
                path_sum=path_sum,
                freq=freq,
                blocks=decoded.blocks,
                exact=exact,
            )
        )
        if chosen_site is None:
            break
        record = _descend(record, chosen_site)
    return result


def _descend(record: CallRecord, site: int) -> Optional[CallRecord]:
    if site >= len(record.slots):
        site = 0 if record.slots else -1
    if site < 0:
        return None
    slot = record.slots[site]
    if slot is None:
        return None
    if isinstance(slot, CalleeList):
        records = slot.records()
        return records[0] if records else None
    return slot
