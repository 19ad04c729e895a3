"""Merging flat (context-insensitive) profiles across runs.

Counterpart of :mod:`repro.cct.merge` for the flow-sensitive side:
path and edge counts and per-path metric vectors from independent runs
of the same instrumented program sum pointwise (the shard runner's
merge), and the JSON round-trips below carry them through shard
checkpoints.
"""

from __future__ import annotations

from typing import Dict, List, Sequence


def merge_counts(maps: Sequence[Dict[int, int]]) -> Dict[int, int]:
    """Pointwise sum of sparse counter maps (path or edge counts)."""
    merged: Dict[int, int] = {}
    for counts in maps:
        for key, count in counts.items():
            merged[key] = merged.get(key, 0) + count
    return merged


def merge_metric_maps(maps: Sequence[Dict[int, List[int]]]) -> Dict[int, List[int]]:
    """Pointwise elementwise sum of sparse metric-vector maps."""
    merged: Dict[int, List[int]] = {}
    for metrics in maps:
        for key, values in metrics.items():
            slots = merged.setdefault(key, [0] * len(values))
            if len(slots) < len(values):
                slots.extend([0] * (len(values) - len(slots)))
            for offset, value in enumerate(values):
                slots[offset] += value
    return merged


# -- JSON round-trips for shard checkpoints ----------------------------------
#
# Shard workers checkpoint their flat flow data (per-function sparse
# count and metric maps) as JSON; JSON object keys are strings, so the
# integer path sums need an explicit round trip.  Kept here, next to
# the merge they feed, so the checkpoint format and the merge shape
# can't drift apart.


def counts_to_json(per_function: Dict[str, Dict[int, int]]) -> Dict[str, Dict[str, int]]:
    """``{fn: {path_sum: count}}`` with JSON-safe (string) keys."""
    return {
        name: {str(key): count for key, count in counts.items()}
        for name, counts in per_function.items()
    }


def counts_from_json(raw: Dict[str, Dict[str, int]]) -> Dict[str, Dict[int, int]]:
    """Inverse of :func:`counts_to_json` (keys back to ``int``)."""
    return {
        name: {int(key): count for key, count in counts.items()}
        for name, counts in raw.items()
    }


def metric_maps_to_json(
    per_function: Dict[str, Dict[int, List[int]]],
) -> Dict[str, Dict[str, List[int]]]:
    """``{fn: {path_sum: [metrics...]}}`` with JSON-safe keys."""
    return {
        name: {str(key): list(values) for key, values in metrics.items()}
        for name, metrics in per_function.items()
    }


def metric_maps_from_json(
    raw: Dict[str, Dict[str, List[int]]],
) -> Dict[str, Dict[int, List[int]]]:
    """Inverse of :func:`metric_maps_to_json`."""
    return {
        name: {int(key): list(values) for key, values in metrics.items()}
        for name, metrics in raw.items()
    }


__all__ = [
    "counts_from_json",
    "counts_to_json",
    "merge_counts",
    "merge_metric_maps",
    "metric_maps_from_json",
    "metric_maps_to_json",
]
