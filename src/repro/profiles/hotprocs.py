"""Hot-procedure analysis: Table 5 of the paper.

The same miss apportionment as Table 4, but by procedure:

* a **hot procedure** incurs at least ``threshold`` of the misses;
* **dense** / **sparse** split hot procedures by miss ratio vs. the
  program average;
* ``Path/Proc`` is the average number of *executed* paths in
  procedures of each category — the number that shows procedure-level
  reporting cannot isolate behaviour (hot procedures execute tens of
  paths, §6.4.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.profiles.hotpaths import PathClass
from repro.profiles.pathprofile import PathProfile


@dataclass
class ProcEntry:
    function: str
    executed_paths: int
    instructions: int
    misses: int
    klass: PathClass = PathClass.COLD

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.instructions if self.instructions else 0.0


@dataclass
class ProcBucket:
    num: int = 0
    paths: int = 0
    misses: int = 0

    def add(self, entry: ProcEntry) -> None:
        self.num += 1
        self.paths += entry.executed_paths
        self.misses += entry.misses

    def paths_per_proc(self) -> float:
        return self.paths / self.num if self.num else 0.0

    def miss_share(self, total: int) -> float:
        return self.misses / total if total else 0.0


@dataclass
class HotProcReport:
    threshold: float
    total_misses: int
    entries: List[ProcEntry] = field(default_factory=list)
    hot: ProcBucket = field(default_factory=ProcBucket)
    dense: ProcBucket = field(default_factory=ProcBucket)
    sparse: ProcBucket = field(default_factory=ProcBucket)
    cold: ProcBucket = field(default_factory=ProcBucket)

    def row(self) -> Dict[str, object]:
        tm = self.total_misses
        return {
            "Hot Num": self.hot.num,
            "Hot Path/Proc": round(self.hot.paths_per_proc(), 1),
            "Hot Misses%": round(100 * self.hot.miss_share(tm), 1),
            "Dense Num": self.dense.num,
            "Dense Path/Proc": round(self.dense.paths_per_proc(), 1),
            "Dense Misses%": round(100 * self.dense.miss_share(tm), 1),
            "Sparse Num": self.sparse.num,
            "Sparse Path/Proc": round(self.sparse.paths_per_proc(), 1),
            "Sparse Misses%": round(100 * self.sparse.miss_share(tm), 1),
            "Cold Num": self.cold.num,
            "Cold Path/Proc": round(self.cold.paths_per_proc(), 1),
            "Cold Misses%": round(100 * self.cold.miss_share(tm), 1),
        }


def classify_procedures(profile: PathProfile, threshold: float = 0.01) -> HotProcReport:
    """Aggregate paths by procedure and classify per Table 5."""
    entries: List[ProcEntry] = []
    for name, function_profile in profile.functions.items():
        executed = 0
        instructions = 0
        misses = 0
        for entry in function_profile.entries():
            if entry.freq <= 0:
                continue
            executed += 1
            instructions += entry.instructions
            misses += entry.misses
        if executed:
            entries.append(ProcEntry(name, executed, instructions, misses))

    total_instructions = sum(e.instructions for e in entries)
    total_misses = sum(e.misses for e in entries)
    average_ratio = total_misses / total_instructions if total_instructions else 0.0
    floor = threshold * total_misses

    report = HotProcReport(threshold=threshold, total_misses=total_misses)
    report.entries = entries
    for entry in entries:
        if total_misses > 0 and entry.misses >= floor and entry.misses > 0:
            entry.klass = (
                PathClass.DENSE if entry.miss_ratio > average_ratio else PathClass.SPARSE
            )
            report.hot.add(entry)
            (report.dense if entry.klass is PathClass.DENSE else report.sparse).add(entry)
        else:
            entry.klass = PathClass.COLD
            report.cold.add(entry)
    return report
