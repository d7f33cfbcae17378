"""In-memory spans around calls into the program's layers.

A span records its name, start, end, parent span and the run id. Spans
are kept in memory and read out when the run ends. A span's *layer* is
the part of its name before ``:`` (``repro.stream:npz_ingest`` belongs
to ``repro.stream``); spans without a parent are roots and belong to no
layer. A layer's self time is the duration of its spans minus the part
of each span's interval that its child spans cover; a root's self time
is the residual no traced call explains, reported as ``unaccounted``.

:class:`NullTracer` has the same surface and records nothing, so the
untraced passes run the very same code with tracing off.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    """One timed call: ``end`` is ``None`` while the call is running."""

    span_id: int
    name: str
    start: float
    end: Optional[float]
    parent: Optional[int]
    run_id: str

    @property
    def layer(self) -> Optional[str]:
        """The layer named before ``:``; roots have none."""
        if self.parent is None:
            return None
        return self.name.split(":", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals: List[tuple]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Tracer:
    """Records nested spans of one run on one thread."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        record = Span(
            len(self.spans), name, time.perf_counter(), None, parent, self.run_id
        )
        self.spans.append(record)
        self._stack.append(record.span_id)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> Dict[int, float]:
        """Self seconds of each span, by span id."""
        children: Dict[int, List[tuple]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(
                    (span.start, span.end)
                )
        return {
            span.span_id: span.duration - _covered(children.get(span.span_id, []))
            for span in self.spans
        }

    def summary(self) -> dict:
        """Self time per layer, the roots, and the unaccounted residual.

        ``residual_s`` is ``root_s - (sum of layer self times +
        unaccounted_s)``: zero up to float rounding when every child
        lies inside its parent and siblings do not overlap.
        """
        selfs = self.self_times()
        layers: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        unaccounted = 0.0
        root = 0.0
        for span in self.spans:
            if span.layer is None:
                unaccounted += selfs[span.span_id]
                root += span.duration
            else:
                layers[span.layer] = layers.get(span.layer, 0.0) + selfs[span.span_id]
                calls[span.layer] = calls.get(span.layer, 0) + 1
        return {
            "root_s": root,
            "unaccounted_s": unaccounted,
            "layer_self_s": layers,
            "layer_calls": calls,
            "residual_s": root - (sum(layers.values()) + unaccounted),
            "spans": len(self.spans),
        }

    def records(self) -> List[dict]:
        """Every span as a plain dict, for writing out after the run."""
        return [asdict(span) for span in self.spans]


class NullTracer:
    """Tracing off: the same ``span`` surface, nothing recorded."""

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield None
