"""Outside-in span tracer for the benchmark's traced runs.

Each layer is timed by replacing its public callable where the caller
looks it up (a module attribute such as
``repro.session.session.instrument_paths`` or a method on a class such
as ``Machine.run``) with a wrapper that opens a span around the call.
Spans live in memory as plain lists and are written out once, when the
benchmark ends.  A layer's self time is its span's duration minus the
durations of the spans opened inside it.

Nothing is patched until :meth:`Tracer.install`; :meth:`Tracer.uninstall`
puts every original back, so untraced passes run the unmodified code.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

perf_counter = time.perf_counter


class Tracer:
    """In-memory spans, per-layer self times and counts."""

    def __init__(self):
        #: ``[layer, start, end, parent_index]`` per span, in open order.
        self.spans: List[list] = []
        self._stack: List[list] = []  # [span_index, start, child_seconds]
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Counts recorded at layer boundaries (instructions, records, ...).
        self.counts: Dict[str, float] = defaultdict(float)
        self._patches: List[tuple] = []
        #: Called with the machine right before ``Machine.run`` (ablation).
        self.before_run: Optional[Callable] = None

    # -- spans ---------------------------------------------------------------

    def open(self, layer: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        start = perf_counter()
        self.spans.append([layer, start, None, parent])
        self._stack.append([len(self.spans) - 1, start, 0.0])

    def close(self) -> None:
        end = perf_counter()
        index, start, children = self._stack.pop()
        span = self.spans[index]
        span[2] = end
        duration = end - start
        self.self_time[span[0]] += duration - children
        self.calls[span[0]] += 1
        if self._stack:
            self._stack[-1][2] += duration

    # -- patching ------------------------------------------------------------

    def wrap(self, target: str, attr: str, layer: str, after=None, before=None):
        """Time ``target.attr`` as ``layer``.

        ``target`` is a dotted module path, optionally followed by
        ``:Class``.  ``before(args)`` runs just before the call and
        ``after(result, args)`` just after it, both outside the span.
        A missing target is skipped, so the benchmark still runs on a
        commit that renamed one layer.
        """
        module_name, _, class_name = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
        except (ImportError, AttributeError):
            return
        if attr not in vars(owner):
            return
        original = vars(owner)[attr]
        is_classmethod = isinstance(original, classmethod)
        function = original.__func__ if is_classmethod else original
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            tracer.open(layer)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.close()
            if after is not None:
                after(result, args)
            return result

        wrapper.__wrapped__ = function
        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output --------------------------------------------------------------

    def write(self, path: str, header: dict) -> None:
        """Write the header and every closed span as JSON lines."""
        with open(path, "w") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for layer, start, end, parent in self.spans:
                if end is not None:
                    handle.write(
                        json.dumps(
                            {"layer": layer, "start": start, "end": end, "parent": parent}
                        )
                        + "\n"
                    )
