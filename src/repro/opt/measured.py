"""`MeasuredProfile` — the read-only measured view optimization passes consume.

The paper's closing argument is that profiles exist to *drive*
optimization; this module is the seam where measured data enters the
optimizer.  A :class:`MeasuredProfile` unifies everything one profiling
run learned about a program:

* per-function path tables (frequency and, when the run carried HW
  metrics, per-path counter accumulations), decodable back into block
  sequences through a Ball–Larus numbering;
* hot call edges aggregated from the calling context tree;
* whole-run hardware-counter totals.

It is built either live from a :class:`~repro.session.ProfileRun`
(:meth:`MeasuredProfile.from_run`) or from a persisted run reloaded
through :mod:`repro.store` (:meth:`MeasuredProfile.from_stored`).  The
stored form carries no numbering — the Ball–Larus numbering is a pure
function of the CFG, so :meth:`from_stored` rebuilds it from the
*uninstrumented* program and verifies the potential-path counts match,
rejecting a profile that was measured against different code.  kflow
profiles (paths spanning ``k`` loop iterations) are projected exactly
onto 1-iteration path sums via
:func:`~repro.pathprof.kiter.project_kpath_counts`; their metrics do
not project (probe overhead differs with ``k``) and are dropped.

Passes treat the view as read-only: :class:`MeasuredFunctionProfile`
duck-types the live
:class:`~repro.profiles.pathprofile.FunctionPathProfile` (``counts``,
``metrics``, ``decode``), so the superblock and layout passes accept
either without caring where the numbers came from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cct.records import ROOT_ID, CalleeList
from repro.cfg.graph import build_cfg
from repro.ir.function import Program
from repro.machine.counters import Event
from repro.pathprof.kiter import number_kpaths, project_kpath_counts
from repro.pathprof.numbering import (
    PathNumbering,
    PathProfilingError,
    ReconstructedPath,
    number_paths,
)


class MeasuredProfileError(ValueError):
    """The profile cannot be interpreted against this program."""


@dataclass(frozen=True)
class CallEdge:
    """One measured caller->callee edge, aggregated over all contexts.

    ``site`` is the caller's call-site index (-1 when the profile was
    collected site-insensitively); ``calls`` is the invocation count and
    ``cost`` the PIC0 metric accumulated in the callee's records.
    """

    caller: str
    site: int
    callee: str
    calls: int
    cost: int


@dataclass(frozen=True)
class HotPath:
    """One executed path, ranked within :meth:`MeasuredProfile.hot_paths`."""

    function: str
    path_sum: int
    freq: int
    metrics: Tuple[int, ...]
    path: ReconstructedPath


class MeasuredFunctionProfile:
    """One function's measured paths; duck-types ``FunctionPathProfile``."""

    def __init__(
        self,
        function: str,
        numbering: PathNumbering,
        counts: Dict[int, int],
        metrics: Optional[Dict[int, List[int]]] = None,
    ):
        self.function = function
        self.numbering = numbering
        self.num_potential_paths = numbering.num_paths
        self.counts = dict(counts)
        self.metrics = {k: list(v) for k, v in (metrics or {}).items()}

    def decode(self, path_sum: int) -> ReconstructedPath:
        return self.numbering.regenerate(path_sum)

    def total_freq(self) -> int:
        return sum(self.counts.values())


class MeasuredProfile:
    """The unified read-only view one optimization pipeline runs against."""

    def __init__(
        self,
        functions: Dict[str, MeasuredFunctionProfile],
        call_edges: Tuple[CallEdge, ...] = (),
        counters: Optional[Dict[Event, int]] = None,
        source: str = "live",
    ):
        self.functions = functions
        self.call_edges = tuple(call_edges)
        self.counters = dict(counters or {})
        #: Where the numbers came from: ``"live"`` or a store run id.
        self.source = source

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_run(
        cls, run, program: Program, by_site: bool = True
    ) -> "MeasuredProfile":
        """Build the view from a live :class:`~repro.session.ProfileRun`.

        ``by_site`` must match the spec the run was collected under:
        with a site-insensitive CCT the slot index is not a call-site
        index, so edges are reported with ``site=-1``.
        """
        functions: Dict[str, MeasuredFunctionProfile] = {}
        if run.path_profile is not None:
            for name, fpp in run.path_profile.functions.items():
                if name not in program.functions:
                    continue
                functions[name] = MeasuredFunctionProfile(
                    name, fpp.numbering, fpp.counts, fpp.metrics
                )
        edges = (
            () if run.cct is None else _edges_from_cct(run.cct.root, by_site)
        )
        return cls(
            functions,
            call_edges=edges,
            counters=dict(run.result.counters),
            source="live",
        )

    @classmethod
    def from_stored(cls, stored, program: Program) -> "MeasuredProfile":
        """Rebuild the view from a reloaded store entry.

        The stored run carries path-sum tables but no numbering; the
        numbering is reconstructed from ``program``'s CFGs exactly as
        the instrumentation pass built it, and the potential-path count
        is checked against the stored witness — a mismatch means the
        profile was measured against different code and raises
        :class:`MeasuredProfileError` instead of silently mis-decoding.
        """
        k = stored.spec.k if stored.spec.mode == "kflow" else None
        functions: Dict[str, MeasuredFunctionProfile] = {}
        for name, sfp in (stored.paths or {}).items():
            function = program.functions.get(name)
            if function is None:
                raise MeasuredProfileError(
                    f"stored profile covers function {name!r} "
                    f"which this program does not define"
                )
            try:
                cfg = build_cfg(function)
                numbering = number_paths(cfg)
            except PathProfilingError as exc:
                raise MeasuredProfileError(
                    f"cannot rebuild path numbering for {name!r}: {exc}"
                ) from exc
            counts = sfp.counts
            metrics = sfp.metrics
            if k is not None and k > 1:
                knum = number_kpaths(cfg, k)
                if knum.num_paths != sfp.num_potential_paths:
                    raise MeasuredProfileError(
                        f"{name!r}: stored profile has "
                        f"{sfp.num_potential_paths} potential k-paths, "
                        f"this program has {knum.num_paths} — "
                        f"the profile was measured against different code"
                    )
                counts = project_kpath_counts(knum, numbering, counts)
                metrics = {}  # k-path metrics do not project onto base paths
            elif numbering.num_paths != sfp.num_potential_paths:
                raise MeasuredProfileError(
                    f"{name!r}: stored profile has "
                    f"{sfp.num_potential_paths} potential paths, "
                    f"this program has {numbering.num_paths} — "
                    f"the profile was measured against different code"
                )
            functions[name] = MeasuredFunctionProfile(
                name, numbering, counts, metrics
            )
        edges = (
            ()
            if stored.cct is None
            else _edges_from_cct(stored.cct.root, stored.spec.by_site)
        )
        return cls(
            functions,
            call_edges=edges,
            counters=dict(stored.counters),
            source=stored.run_id,
        )

    # -- hot-path queries ------------------------------------------------------

    def hot_paths(
        self, limit: Optional[int] = None, by: str = "freq"
    ) -> List[HotPath]:
        """Executed paths across all functions, hottest first.

        ``by="freq"`` ranks by execution frequency; ``by="misses"``
        ranks by the accumulated PIC1 metric (the paper's hot-path
        criterion) and falls back to frequency for paths without
        metrics.
        """
        if by not in ("freq", "misses"):
            raise MeasuredProfileError(f"unknown hot-path ranking {by!r}")
        entries: List[HotPath] = []
        for name, mfp in self.functions.items():
            for path_sum, freq in mfp.counts.items():
                if freq <= 0:
                    continue
                metrics = tuple(mfp.metrics.get(path_sum, ()))
                entries.append(
                    HotPath(name, path_sum, freq, metrics, mfp.decode(path_sum))
                )
        if by == "misses":
            entries.sort(
                key=lambda e: (
                    -(e.metrics[1] if len(e.metrics) > 1 else e.freq),
                    e.function,
                    e.path_sum,
                )
            )
        else:
            entries.sort(key=lambda e: (-e.freq, e.function, e.path_sum))
        return entries if limit is None else entries[:limit]

    def hot_loop_paths(self, min_freq: int = 2) -> List[HotPath]:
        """Superblock candidates: steady-state loop paths, hottest first.

        A qualifying path both enters and leaves through backedges to
        the same header — one full iteration of a loop's dominant body.
        """
        candidates = []
        for entry in self.hot_paths():
            if entry.freq < min_freq:
                continue
            path = entry.path
            if path.entry_backedge is None or path.exit_backedge is None:
                continue
            if path.entry_backedge.dst != path.exit_backedge.dst:
                continue
            candidates.append(entry)
        return candidates

    def hot_call_edges(self, min_calls: int = 1) -> List[CallEdge]:
        """Measured call edges, most-invoked first."""
        edges = [e for e in self.call_edges if e.calls >= min_calls]
        edges.sort(key=lambda e: (-e.calls, -e.cost, e.caller, e.site))
        return edges

    # -- per-block attribution -------------------------------------------------

    def block_heat(self, function: str) -> Dict[str, int]:
        """Execution frequency per block: paths through it, summed."""
        mfp = self.functions.get(function)
        heat: Dict[str, int] = {}
        if mfp is None:
            return heat
        for path_sum, freq in mfp.counts.items():
            if freq <= 0:
                continue
            for block in mfp.decode(path_sum).blocks:
                heat[block] = heat.get(block, 0) + freq
        return heat


def _edges_from_cct(root, by_site: bool = True) -> Tuple[CallEdge, ...]:
    """Aggregate (caller, site, callee) edges over the CCT's tree edges.

    Recursion backedges (a slot pointing at the record itself or an
    ancestor) are excluded, matching
    :meth:`~repro.cct.records.CallRecord.tree_children`; edges out of
    the synthetic root are skipped — there is no caller to optimize.
    """
    totals: Dict[Tuple[str, int, str], List[int]] = {}
    stack = [root]
    while stack:
        record = stack.pop()
        for slot_index, slot in enumerate(record.slots):
            site = slot_index if by_site else -1
            if slot is None:
                continue
            children = slot.records() if isinstance(slot, CalleeList) else [slot]
            for child in children:
                if child.parent is not record:
                    continue  # recursion backedge
                stack.append(child)
                if record.id == ROOT_ID:
                    continue
                key = (record.id, site, child.id)
                tally = totals.setdefault(key, [0, 0])
                if child.metrics:
                    tally[0] += child.metrics[0]
                if len(child.metrics) > 1:
                    tally[1] += child.metrics[1]
    return tuple(
        CallEdge(caller, site, callee, calls, cost)
        for (caller, site, callee), (calls, cost) in sorted(totals.items())
    )


__all__ = [
    "CallEdge",
    "HotPath",
    "MeasuredFunctionProfile",
    "MeasuredProfile",
    "MeasuredProfileError",
]
