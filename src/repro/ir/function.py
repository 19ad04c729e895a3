"""Functions, basic blocks, and whole programs.

A :class:`Function` is an ordered list of named basic blocks over a
finite register file; the first block is the entry.  A
:class:`Program` maps function names to functions and carries the pieces
of link-time state the machine needs: the global data size, the function
table used by indirect calls, and the entry-point name.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Union

from repro.ir.instructions import (
    Call,
    ICall,
    Instruction,
    Kind,
    copy_instruction,
    is_terminator,
)


class IRValidationError(Exception):
    """Raised when a function or program is structurally malformed."""


class Block:
    """A basic block: straight-line instructions ending in one terminator."""

    __slots__ = ("name", "instrs")

    def __init__(self, name: str, instrs: Optional[List[Instruction]] = None):
        self.name = name
        self.instrs: List[Instruction] = instrs if instrs is not None else []

    @property
    def terminator(self) -> Instruction:
        if not self.instrs:
            raise IRValidationError(f"block {self.name!r} is empty")
        return self.instrs[-1]

    def successors(self) -> List[str]:
        """Names of successor blocks implied by the terminator."""
        term = self.terminator
        kind = term.kind
        if kind == Kind.BR:
            return [term.target]
        if kind == Kind.CBR:
            return [term.then, term.els]
        return []

    def __repr__(self) -> str:
        return f"Block({self.name!r}, {len(self.instrs)} instrs)"


class Function:
    """A function: parameters arrive in registers ``0 .. num_params-1``.

    ``num_regs`` is the size of the architectural register file.  The
    executable editor (:mod:`repro.edit`) must find a register unused by
    the function's own code to hold the path sum, spilling one if the
    file is full — mirroring EEL's register scavenging.
    """

    __slots__ = ("name", "num_params", "num_regs", "blocks", "_block_index")

    def __init__(
        self,
        name: str,
        num_params: int = 0,
        num_regs: int = 32,
        blocks: Optional[List[Block]] = None,
    ):
        if num_params > num_regs:
            raise IRValidationError(
                f"function {name!r}: {num_params} params exceed {num_regs} registers"
            )
        self.name = name
        self.num_params = num_params
        self.num_regs = num_regs
        self.blocks: List[Block] = blocks if blocks is not None else []
        self._block_index: Optional[Dict[str, Block]] = None

    @property
    def entry(self) -> Block:
        if not self.blocks:
            raise IRValidationError(f"function {self.name!r} has no blocks")
        return self.blocks[0]

    def block(self, name: str) -> Block:
        index = self._block_index
        if index is None or len(index) != len(self.blocks):
            index = {b.name: b for b in self.blocks}
            self._block_index = index
        return index[name]

    def invalidate_index(self) -> None:
        """Call after adding/renaming blocks outside the builder API."""
        self._block_index = None

    def add_block(self, block: Block) -> Block:
        if any(b.name == block.name for b in self.blocks):
            raise IRValidationError(
                f"function {self.name!r}: duplicate block {block.name!r}"
            )
        self.blocks.append(block)
        self._block_index = None
        return block

    def instructions(self) -> Iterator[Instruction]:
        for block in self.blocks:
            yield from block.instrs

    def call_sites(self) -> List[Union[Call, ICall]]:
        """All call instructions, in block order."""
        return [i for i in self.instructions() if i.kind in (Kind.CALL, Kind.ICALL)]

    def assign_call_sites(self) -> int:
        """Number call sites 0..n-1 in block order; returns the count.

        The CCT keys a call record's callee slots by these indices, so
        every pass that adds or removes calls must renumber.
        """
        site = 0
        for instr in self.instructions():
            if instr.kind in (Kind.CALL, Kind.ICALL):
                instr.site = site
                site += 1
        return site

    def max_register_used(self) -> int:
        """Highest register index referenced anywhere, or -1 if none."""
        high = self.num_params - 1
        for instr in self.instructions():
            for reg in instr.operands():
                if reg > high:
                    high = reg
            for reg in instr.defined():
                if reg > high:
                    high = reg
        return high

    def size_in_instructions(self) -> int:
        """Machine instructions the function occupies (icost-weighted)."""
        return sum(i.icost for i in self.instructions())

    def __repr__(self) -> str:
        return f"Function({self.name!r}, {len(self.blocks)} blocks)"


class Program:
    """A linked program: functions, globals, and the indirect-call table."""

    def __init__(
        self,
        functions: Optional[Dict[str, Function]] = None,
        entry: str = "main",
        globals_size: int = 0,
    ):
        self.functions: Dict[str, Function] = functions if functions is not None else {}
        self.entry = entry
        self.globals_size = globals_size
        #: Function table for indirect calls: index -> function name.
        self.function_table: List[str] = []

    def add_function(self, function: Function) -> Function:
        if function.name in self.functions:
            raise IRValidationError(f"duplicate function {function.name!r}")
        self.functions[function.name] = function
        return function

    def function_index(self, name: str) -> int:
        """Index of ``name`` in the function table, registering if new.

        Workloads place these indices in registers/memory and dispatch
        through :class:`repro.ir.instructions.ICall`.
        """
        try:
            return self.function_table.index(name)
        except ValueError:
            self.function_table.append(name)
            return len(self.function_table) - 1

    def total_instructions(self) -> int:
        return sum(f.size_in_instructions() for f in self.functions.values())

    def assign_all_call_sites(self) -> None:
        for function in self.functions.values():
            function.assign_call_sites()

    def clone(self) -> "Program":
        """A copy that passes and instrumentation can edit freely.

        Functions, blocks, instruction lists, instructions (through
        :func:`~repro.ir.instructions.copy_instruction`) and the function
        table are new objects; everything immutable is shared.  An
        instruction object that sits in two places stays one object in
        the copy.
        """
        copies: Dict[int, Instruction] = {}
        functions: Dict[str, Function] = {}
        for name, function in self.functions.items():
            blocks = []
            for block in function.blocks:
                instrs = []
                for instr in block.instrs:
                    new = copies.get(id(instr))
                    if new is None:
                        new = copies[id(instr)] = copy_instruction(instr)
                    instrs.append(new)
                blocks.append(Block(block.name, instrs))
            functions[name] = Function(
                function.name, function.num_params, function.num_regs, blocks
            )
        program = Program(functions, self.entry, self.globals_size)
        program.function_table = list(self.function_table)
        return program

    def __repr__(self) -> str:
        return f"Program({len(self.functions)} functions, entry={self.entry!r})"


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def validate_function(function: Function, program: Optional[Program] = None) -> None:
    """Check structural invariants; raise :class:`IRValidationError` if broken.

    Invariants: nonempty; unique block names; exactly one terminator per
    block, in final position; branch targets resolve; register indices
    within the file; direct-call targets resolve (when a program is
    given); setjmp/longjmp and alloc operands in range.
    """
    if not function.blocks:
        raise IRValidationError(f"function {function.name!r} has no blocks")

    names = [b.name for b in function.blocks]
    if len(set(names)) != len(names):
        raise IRValidationError(f"function {function.name!r} has duplicate block names")
    name_set = set(names)

    nregs = function.num_regs
    for block in function.blocks:
        if not block.instrs:
            raise IRValidationError(
                f"{function.name}.{block.name}: empty block"
            )
        for pos, instr in enumerate(block.instrs):
            last = pos == len(block.instrs) - 1
            if is_terminator(instr) and not last:
                raise IRValidationError(
                    f"{function.name}.{block.name}: terminator at position {pos} "
                    f"is not last"
                )
            if last and not is_terminator(instr):
                raise IRValidationError(
                    f"{function.name}.{block.name}: block does not end in a terminator"
                )
            for reg in (*instr.operands(), *instr.defined()):
                if not 0 <= reg < nregs:
                    raise IRValidationError(
                        f"{function.name}.{block.name}: register r{reg} out of "
                        f"range (file size {nregs})"
                    )
        for target in block.successors():
            if target not in name_set:
                raise IRValidationError(
                    f"{function.name}.{block.name}: branch to unknown block "
                    f"{target!r}"
                )
        term = block.terminator
        if term.kind == Kind.CBR and term.then == term.els:
            raise IRValidationError(
                f"{function.name}.{block.name}: conditional branch with "
                f"identical arms {term.then!r}"
            )
        if program is not None and term.kind == Kind.CALL:
            pass  # calls are not terminators; handled below

    if program is not None:
        for instr in function.instructions():
            if instr.kind == Kind.CALL and instr.callee not in program.functions:
                raise IRValidationError(
                    f"{function.name}: call to unknown function {instr.callee!r}"
                )


def validate_program(program: Program) -> None:
    """Validate every function plus program-level invariants."""
    if program.entry not in program.functions:
        raise IRValidationError(f"entry function {program.entry!r} not defined")
    for name in program.function_table:
        if name not in program.functions:
            raise IRValidationError(
                f"function table references unknown function {name!r}"
            )
    for function in program.functions.values():
        validate_function(function, program)

