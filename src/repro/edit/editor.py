"""Function editing: insertion points, edge splitting, register scavenging.

The instrumentation passes compute *plans* against a function's CFG;
this editor turns plans into spliced IR.  Insertion "on an edge"
follows the usual critical-edge discipline:

* the edge's source ends in an unconditional branch -> insert before
  the terminator of the source block;
* the destination has a single predecessor -> insert at the top of the
  destination;
* otherwise the edge is critical -> split it with a fresh block.

Register scavenging mirrors EEL: use a register the function never
touches if one exists; otherwise run in *spilled mode*, where the path
sum lives in a frame slot and every instrumentation sequence brackets
itself with saves/restores of a victim register — the extra loads and
stores the paper identifies as spill perturbation.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.cfg.graph import CFG, Edge
from repro.ir.function import Block, Function
from repro.ir.instructions import (
    Br,
    FrameLoad,
    FrameStore,
    Instruction,
    Kind,
    is_terminator,
)


class EditError(Exception):
    """Raised when a splice cannot be applied."""


#: Frame slot holding the spilled path sum (spilled mode).
PATH_SLOT = 0
#: Frame slot holding the victim register's program value.
VICTIM_SLOT = 1


class ScavengeResult:
    """Outcome of register scavenging for one function."""

    __slots__ = ("register", "spilled")

    def __init__(self, register: int, spilled: bool):
        self.register = register
        self.spilled = spilled


class FunctionEditor:
    """Accumulates edits against one function, then applies them at once.

    Edits are batched because positions are expressed in terms of the
    *original* blocks; applying eagerly would invalidate later edits.
    The CFG handed to instrumentation must be built before editing.
    """

    def __init__(self, function: Function, cfg: CFG):
        self.function = function
        self.cfg = cfg
        self._entry_prefix: List[Instruction] = []
        #: block -> instructions to place immediately before its terminator.
        self._before_term: Dict[str, List[Instruction]] = {}
        #: block -> instructions to place at its top.
        self._at_top: Dict[str, List[Instruction]] = {}
        #: (src, dst) -> instructions for that edge (maybe via splitting).
        self._on_edge: Dict[Tuple[str, str], List[Instruction]] = {}
        self._applied = False
        self._split_counter = 0

    # -- scavenging ----------------------------------------------------------

    def scavenge_register(self) -> ScavengeResult:
        """Find a register for the path sum, or pick a spill victim."""
        high = self.function.max_register_used()
        if high + 1 < self.function.num_regs:
            return ScavengeResult(high + 1, spilled=False)
        return ScavengeResult(self.function.num_regs - 1, spilled=True)

    def wrap_spilled(
        self, scavenge: ScavengeResult, instrs: List[Instruction]
    ) -> List[Instruction]:
        """In spilled mode, bracket an instrumentation sequence.

        Save the victim's program value, load the memory-resident path
        sum, run the sequence, store the path sum back, restore the
        victim.  In non-spilled mode the sequence is returned unchanged.
        """
        if not scavenge.spilled:
            return instrs
        reg = scavenge.register
        return [
            FrameStore(reg, VICTIM_SLOT),
            FrameLoad(reg, PATH_SLOT),
            *instrs,
            FrameStore(reg, PATH_SLOT),
            FrameLoad(reg, VICTIM_SLOT),
        ]

    # -- edit requests ---------------------------------------------------------

    def insert_at_entry(self, instrs: List[Instruction]) -> None:
        self._entry_prefix.extend(instrs)

    def insert_before_terminator(self, block: str, instrs: List[Instruction]) -> None:
        self._before_term.setdefault(block, []).extend(instrs)

    def insert_on_edge(self, edge: Edge, instrs: List[Instruction]) -> None:
        key = (edge.src, edge.dst)
        self._on_edge.setdefault(key, []).extend(instrs)

    # -- application ------------------------------------------------------------

    def apply(self) -> None:
        """Apply all batched edits to the function (once)."""
        if self._applied:
            raise EditError("editor already applied")
        self._applied = True
        function = self.function

        for (src, dst), instrs in self._on_edge.items():
            self._apply_edge(src, dst, instrs)

        for block_name, instrs in self._at_top.items():
            block = function.block(block_name)
            block.instrs[0:0] = instrs

        for block_name, instrs in self._before_term.items():
            block = function.block(block_name)
            if not block.instrs or not is_terminator(block.instrs[-1]):
                raise EditError(f"{block_name!r} lacks a terminator")
            block.instrs[-1:-1] = instrs

        if self._entry_prefix:
            entry = function.entry
            entry.instrs[0:0] = self._entry_prefix

        function.invalidate_index()
        function.assign_call_sites()

    def _apply_edge(self, src: str, dst: str, instrs: List[Instruction]) -> None:
        function = self.function
        src_block = function.block(src)
        term = src_block.instrs[-1]
        if term.kind == Kind.BR:
            # Sole successor: placing before the terminator is on-edge.
            src_block.instrs[-1:-1] = instrs
            return
        if term.kind != Kind.CBR:
            raise EditError(
                f"cannot place edge code after terminator kind {term.kind!r} "
                f"in {src!r}"
            )
        preds = self.cfg.pred[dst]
        # The entry block has an implicit predecessor (function start),
        # so edge code may not be hoisted to its top.
        if len(preds) == 1 and dst != function.entry.name:
            # Merge with any at-top insertion order: edge code runs first.
            pending = self._at_top.setdefault(dst, [])
            pending[0:0] = instrs
            return
        # Critical edge: split with a fresh block.
        split_name = self._fresh_block_name(src, dst)
        split = Block(split_name, [*instrs, Br(dst)])
        function.add_block(split)
        if term.then == dst:
            term.then = split_name
        elif term.els == dst:
            term.els = split_name
        else:  # pragma: no cover - edge came from this terminator
            raise EditError(f"edge {src}->{dst} does not match terminator")

    def _fresh_block_name(self, src: str, dst: str) -> str:
        while True:
            name = f"{src}.{dst}.split{self._split_counter}"
            self._split_counter += 1
            if not any(b.name == name for b in self.function.blocks):
                return name
