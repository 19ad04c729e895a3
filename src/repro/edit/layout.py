"""Code layout: assign an address to every instruction.

Addresses only feed the instruction cache and the branch predictor, but
that is exactly why they matter here: instrumentation grows the code,
changes line alignment, and can evict program code from the I-cache —
one of the perturbation channels Table 2 measures.  An IR instruction
occupies ``4 * icost`` bytes (pseudo-instructions expand to several
machine instructions).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.ir.function import Program

CODE_BASE = 0x0040_0000
#: Functions start on a cache-line-friendly boundary.
FUNCTION_ALIGN = 32


class Layout:
    """Address map for one program's code."""

    def __init__(self) -> None:
        #: (function, block) -> per-instruction addresses.
        self.block_addrs: Dict[Tuple[str, str], List[int]] = {}
        self.function_base: Dict[str, int] = {}
        self.code_size = 0


def assign_layout(program: Program) -> Layout:
    """Lay out functions sequentially from :data:`CODE_BASE`."""
    layout = Layout()
    address = CODE_BASE
    for function in program.functions.values():
        remainder = address % FUNCTION_ALIGN
        if remainder:
            address += FUNCTION_ALIGN - remainder
        layout.function_base[function.name] = address
        for block in function.blocks:
            addrs: List[int] = []
            for instr in block.instrs:
                addrs.append(address)
                address += 4 * instr.icost
            layout.block_addrs[(function.name, block.name)] = addrs
    layout.code_size = address - CODE_BASE
    return layout
