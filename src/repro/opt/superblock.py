"""Superblock formation from a measured path profile.

Takes a steady-state loop path — a Ball–Larus path that both enters
and leaves through backedges to the same header — and tail-duplicates
it into a *superblock*: a single-entry clone of the trace whose
internal unconditional jumps are straightened away.  All edges into
the original header are redirected to the clone, so steady iterations
run entirely inside the trace; any off-trace branch falls back into
the original blocks and re-enters the trace at the next backedge.

This is precisely the trade the paper's summary describes: "these
optimizations duplicate paths to customize them, which increases code
size" — and a path profile is what makes picking the right trace an
empirical decision rather than a guess.

Selection and transformation are separate layers: the pass pipeline
(:mod:`repro.opt.pipeline`) ranks candidate loop paths *across all
functions* via :meth:`~repro.opt.measured.MeasuredProfile.
hot_loop_paths` and applies :func:`form_superblock_from_path` to the
winners under a code-growth budget; :func:`form_superblock` survives
as the single-function convenience that picks the hottest qualifying
path from one profile (live or measured — both carry ``counts`` and
``decode``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.ir.function import Block, Function, validate_function
from repro.ir.instructions import Kind, copy_instruction
from repro.pathprof.numbering import ReconstructedPath


@dataclass
class SuperblockResult:
    """What the transformation did, for reporting and tests."""

    function: str
    header: str
    trace: List[str]
    clone_names: List[str]
    trace_freq: int
    blocks_added: int
    jumps_straightened: int
    code_growth: int  # icost-weighted instructions added


def hottest_loop_path(profile):
    """The most frequent backedge-to-backedge path around one header.

    ``profile`` is anything with ``counts`` and ``decode`` — a live
    :class:`~repro.profiles.pathprofile.FunctionPathProfile` or a
    :class:`~repro.opt.measured.MeasuredFunctionProfile`.
    """
    best = None
    best_freq = 0
    for path_sum, freq in profile.counts.items():
        if freq <= best_freq:
            continue
        decoded = profile.decode(path_sum)
        if decoded.entry_backedge is None or decoded.exit_backedge is None:
            continue
        if decoded.entry_backedge.dst != decoded.exit_backedge.dst:
            continue
        best = decoded
        best_freq = freq
    return best, best_freq


def form_superblock(
    function: Function,
    profile,
    min_freq: int = 2,
) -> Optional[SuperblockResult]:
    """Pick the hottest loop path of one function and superblock it."""
    path, freq = hottest_loop_path(profile)
    if path is None or freq < min_freq:
        return None
    return form_superblock_from_path(function, path, freq)


def form_superblock_from_path(
    function: Function,
    path: ReconstructedPath,
    freq: int,
) -> Optional[SuperblockResult]:
    """Apply superblock formation for one selected loop path, in place.

    ``path`` must be a steady-state loop path (entry and exit backedges
    to the same header); returns None when the function was already
    transformed (the clone names exist).
    """
    header = path.blocks[0]
    trace = list(path.blocks)
    size_before = function.size_in_instructions()

    # 1. Clone the trace, chaining on-trace terminator arms.
    suffix = ".sb"
    clone_names = [name + suffix for name in trace]
    if any(any(b.name == cn for b in function.blocks) for cn in clone_names):
        return None  # already transformed
    clones: Dict[str, Block] = {}
    for position, name in enumerate(trace):
        original = function.block(name)
        clone = Block(
            clone_names[position], [copy_instruction(i) for i in original.instrs]
        )
        clones[name] = clone
    for position, name in enumerate(trace[:-1]):
        term = clones[name].instrs[-1]
        nxt = trace[position + 1]
        _retarget(term, nxt, nxt + suffix)
    for clone in clones.values():
        function.add_block(clone)

    # 2. Redirect every edge into the original header (preheader edges,
    #    all backedges — including the trace clone's own) to the clone
    #    header, so steady iterations stay in the superblock.
    header_clone = header + suffix
    for block in function.blocks:
        if block.name == header_clone:
            continue
        _retarget(block.instrs[-1], header, header_clone)
        block.note_edit()

    # 3. Straighten: merge clone pairs linked by unconditional jumps.
    jumps_straightened = 0
    chain = list(clone_names)
    position = 0
    while position < len(chain) - 1:
        current = function.block(chain[position])
        term = current.instrs[-1]
        if term.kind == Kind.BR and term.target == chain[position + 1]:
            follower = function.block(chain[position + 1])
            current.instrs = current.instrs[:-1] + follower.instrs
            current.note_edit()
            function.blocks.remove(follower)
            function.invalidate_index()
            removed = chain.pop(position + 1)
            clone_names.remove(removed)
            jumps_straightened += 1
            # Re-examine the merged block: it may now end in a Br to
            # the next clone in the chain.
        else:
            position += 1

    function.invalidate_index()
    if function.assign_call_sites():
        # Sites renumbered: decoded blocks bake ``Call.site`` into their
        # compiled closures, so every block with a call must be evicted.
        for block in function.blocks:
            block.note_edit()
    validate_function(function)
    return SuperblockResult(
        function=function.name,
        header=header,
        trace=trace,
        clone_names=clone_names,
        trace_freq=freq,
        blocks_added=len(clone_names),
        jumps_straightened=jumps_straightened,
        code_growth=function.size_in_instructions() - size_before,
    )


def _retarget(terminator, old: str, new: str) -> None:
    kind = terminator.kind
    if kind == Kind.BR and terminator.target == old:
        terminator.target = new
    elif kind == Kind.CBR:
        if terminator.then == old:
            terminator.then = new
        if terminator.els == old:
            terminator.els = new
