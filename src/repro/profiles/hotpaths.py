"""Hot-path analysis: Table 4 and §6.4 of the paper.

Definitions (§6.4.1):

* a **hot path** incurs at least ``threshold`` (default 1%) of the
  program's total L1 D-cache misses; the threshold is explicitly "a
  parameter to control the number of paths";
* a **cold path** is any other executed path;
* a **dense path** is a hot path whose miss ratio (misses per
  instruction) exceeds the program's average miss ratio — poor
  locality;
* a **sparse path** is a hot path below the average — hot only because
  it executes heavily.

The module also computes §6.4.3's statistic: the basic blocks on hot
paths execute, on average, along how many different paths — the number
that argues statement-level miss reporting cannot isolate behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Set, Tuple

from repro.profiles.pathprofile import PathEntry, PathProfile


class PathClass(Enum):
    DENSE = "dense"
    SPARSE = "sparse"
    COLD = "cold"


@dataclass
class ClassifiedPath:
    entry: PathEntry
    klass: PathClass

    @property
    def is_hot(self) -> bool:
        return self.klass is not PathClass.COLD


@dataclass
class Bucket:
    """One Table 4 cell group: path count, instruction and miss shares."""

    num: int = 0
    instructions: int = 0
    misses: int = 0

    def add(self, entry: PathEntry) -> None:
        self.num += 1
        self.instructions += entry.instructions
        self.misses += entry.misses

    def inst_share(self, total: int) -> float:
        return self.instructions / total if total else 0.0

    def miss_share(self, total: int) -> float:
        return self.misses / total if total else 0.0


@dataclass
class HotPathReport:
    """The Table 4 row for one program."""

    threshold: float
    total_paths: int
    total_instructions: int
    total_misses: int
    hot: Bucket
    dense: Bucket
    sparse: Bucket
    cold: Bucket
    classified: List[ClassifiedPath] = field(repr=False, default_factory=list)

    def hot_paths(self) -> List[ClassifiedPath]:
        return [c for c in self.classified if c.is_hot]

    def row(self) -> Dict[str, object]:
        ti, tm = self.total_instructions, self.total_misses
        return {
            "All Num": self.total_paths,
            "All Inst": ti,
            "All Miss": tm,
            "Hot Num": self.hot.num,
            "Hot Inst%": round(100 * self.hot.inst_share(ti), 1),
            "Hot Miss%": round(100 * self.hot.miss_share(tm), 1),
            "Dense Num": self.dense.num,
            "Dense Inst%": round(100 * self.dense.inst_share(ti), 1),
            "Dense Miss%": round(100 * self.dense.miss_share(tm), 1),
            "Sparse Num": self.sparse.num,
            "Sparse Inst%": round(100 * self.sparse.inst_share(ti), 1),
            "Sparse Miss%": round(100 * self.sparse.miss_share(tm), 1),
            "Cold Num": self.cold.num,
            "Cold Inst%": round(100 * self.cold.inst_share(ti), 1),
            "Cold Miss%": round(100 * self.cold.miss_share(tm), 1),
        }


def classify_paths(profile: PathProfile, threshold: float = 0.01) -> HotPathReport:
    """Classify every executed path per the paper's definitions."""
    entries = [e for e in profile.entries() if e.freq > 0]
    total_instructions = sum(e.instructions for e in entries)
    total_misses = sum(e.misses for e in entries)
    average_ratio = total_misses / total_instructions if total_instructions else 0.0
    miss_floor = threshold * total_misses

    report = HotPathReport(
        threshold=threshold,
        total_paths=len(entries),
        total_instructions=total_instructions,
        total_misses=total_misses,
        hot=Bucket(),
        dense=Bucket(),
        sparse=Bucket(),
        cold=Bucket(),
    )
    for entry in entries:
        if total_misses > 0 and entry.misses >= miss_floor and entry.misses > 0:
            ratio = entry.misses / entry.instructions if entry.instructions else 0.0
            klass = PathClass.DENSE if ratio > average_ratio else PathClass.SPARSE
            report.hot.add(entry)
            (report.dense if klass is PathClass.DENSE else report.sparse).add(entry)
        else:
            klass = PathClass.COLD
            report.cold.add(entry)
        report.classified.append(ClassifiedPath(entry, klass))
    return report


def threshold_sweep(
    profile: PathProfile, thresholds: Tuple[float, ...] = (0.01, 0.001)
) -> Dict[float, HotPathReport]:
    """Reports at several thresholds (the paper drops go/gcc to 0.1%)."""
    return {t: classify_paths(profile, t) for t in thresholds}


def paths_per_hot_block(
    profile: PathProfile, report: HotPathReport
) -> Tuple[float, Dict[Tuple[str, str], int]]:
    """§6.4.3: how many executed paths run through each hot-path block.

    Returns the average over blocks that lie on at least one hot path,
    plus the per-block counts keyed by (function, block).
    """
    hot_blocks: Set[Tuple[str, str]] = set()
    for classified in report.hot_paths():
        entry = classified.entry
        function_profile = profile.functions[entry.function]
        for block in function_profile.decode(entry.path_sum).blocks:
            hot_blocks.add((entry.function, block))

    per_block: Dict[Tuple[str, str], int] = {key: 0 for key in hot_blocks}
    for name, function_profile in profile.functions.items():
        relevant = {b for (f, b) in hot_blocks if f == name}
        if not relevant:
            continue
        for path_sum, count in function_profile.counts.items():
            if count <= 0:
                continue
            for block in function_profile.decode(path_sum).blocks:
                if block in relevant:
                    per_block[(name, block)] += 1
    if not per_block:
        return 0.0, {}
    average = sum(per_block.values()) / len(per_block)
    return average, per_block
