"""Two-bit saturating-counter branch predictor.

Indexed by (a hash of) the branch's address.  States 0/1 predict
not-taken, 2/3 predict taken; the counter saturates toward the actual
outcome.  This is the classic Smith predictor mid-90s processors
shipped, enough to make branch-mispredict counts a meaningful metric
for instrumented vs. uninstrumented runs.

The fast engine's generated code performs the same update inline on
:attr:`TwoBitPredictor.table`, so the list is bound by identity and
never rebound.  Lookups and mispredicts are the ``BRANCHES`` and
``BR_MISPRED`` counters.
"""

from __future__ import annotations

from typing import List


class TwoBitPredictor:
    __slots__ = ("entries", "_mask", "table")

    def __init__(self, entries: int = 512):
        if entries < 1 or entries & (entries - 1):
            raise ValueError("entries must be a power of two")
        self.entries = entries
        self._mask = entries - 1
        # Initialize to weakly-taken: loops predict well immediately,
        # which is the usual reset state.
        self.table: List[int] = [2] * entries

    def slot(self, address: int) -> int:
        """The table index a branch at ``address`` uses."""
        return (address >> 2) & self._mask

    def predict_and_update(self, address: int, taken: bool) -> bool:
        """Returns True when the prediction was correct."""
        index = (address >> 2) & self._mask
        state = self.table[index]
        if taken:
            if state < 3:
                self.table[index] = state + 1
            return state >= 2
        if state > 0:
            self.table[index] = state - 1
        return state < 2
