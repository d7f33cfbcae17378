"""Incremental background flow/burst cadence tracking.

Table 1 needs more than keyed totals: per-app background flow counts
and inter-burst intervals. :class:`CadenceTracker` accumulates both
chunk by chunk at the paper's default gaps while the packets go by, so
a streamed (or sharded) ingest still renders a byte-identical Table 1
without ever holding a whole trace. Split out of ``stream.ingest`` so
the shard executors (:mod:`repro.shard`) can reuse it without pulling
in the driver.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.core.periodicity import DEFAULT_BURST_GAP
from repro.core.readout import DEFAULT_FLOW_GAP
from repro.trace.arrays import PacketArray
from repro.trace.events import state_background_mask

#: The tracker's state, payload member -> dtype: sorted key columns
#: (``flow_keys`` = ``(app << 32) | conn``, ``flow_count_apps``,
#: ``burst_apps``) each with parallel value columns (NaN: no burst yet).
_STATE = {
    "flow_keys": np.int64,
    "flow_last": np.float64,
    "flow_count_apps": np.int64,
    "flow_counts": np.int64,
    "burst_apps": np.int64,
    "burst_counts": np.int64,
    "burst_last_ts": np.float64,
    "burst_last_start": np.float64,
}


def _runs(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """First and last positions of the runs of equal values in ``keys``."""
    if len(keys) == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    heads = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return heads, np.append(heads[1:], len(keys)) - 1


def _lookup(keys: np.ndarray, query: np.ndarray):
    """Insertion positions of ``query`` in sorted ``keys``, and a hit mask."""
    pos = np.searchsorted(keys, query)
    if len(keys) == 0:
        return pos, np.zeros(len(query), dtype=bool)
    return pos, keys[np.minimum(pos, len(keys) - 1)] == query


def _gap_flags(t: np.ndarray, heads: np.ndarray, carried, hit, gap):
    """Per packet: is it more than ``gap`` after its group's previous
    packet — ``t[i - 1]``, or at a group head the carried last timestamp
    (a head with none is always flagged)?"""
    flags = np.empty(len(t), dtype=bool)
    flags[1:] = (t[1:] - t[:-1]) > gap
    head_flags = np.ones(len(heads), dtype=bool)
    head_flags[hit] = (t[heads[hit]] - carried) > gap
    flags[heads] = head_flags
    return flags


class CadenceTracker:
    """Incremental background flow/burst cadence for one user.

    Tracks, chunk by chunk, exactly what the batch
    :meth:`~repro.core.accounting.StudyEnergy.background_cadence`
    computes from the full arrays: per-app background flow counts (an
    ``(app, conn)`` pair starts a new flow after ``flow_gap`` of
    silence — the strict ``>`` rule of
    :func:`~repro.trace.flow.reconstruct_flows`) and per-app burst
    starts plus inter-burst intervals (the strict ``>`` rule of
    :func:`~repro.core.periodicity.burst_starts`). Counts are integers,
    so chunking-exact; intervals are differences of the same ``float64``
    timestamps the batch path subtracts, so the pooled arrays are
    bit-identical too. The carried last-timestamps make every
    chunk-boundary gap the identical subtraction the whole-trace
    ``np.diff`` performs.

    The state is columnar (:data:`_STATE`). Each chunk is folded with
    one stable sort per grouping and segmented array operations;
    carried values are found by ``searchsorted`` into the key columns.
    """

    def __init__(
        self,
        flow_gap: float = DEFAULT_FLOW_GAP,
        burst_gap: float = DEFAULT_BURST_GAP,
    ) -> None:
        self.flow_gap = float(flow_gap)
        self.burst_gap = float(burst_gap)
        self._s = {name: np.empty(0, dt) for name, dt in _STATE.items()}
        #: ``(apps, intervals)`` blocks in chunk order, each grouped by
        #: app; a stable sort by app keeps each app's in time order.
        self._interval_blocks: List[Tuple[np.ndarray, np.ndarray]] = []

    def observe(self, packets: PacketArray) -> None:
        """Fold one raw (time-sorted) chunk into the cadence state."""
        mask = state_background_mask(packets.states)
        if not mask.any():
            return
        # Stable sorts keep each group's packets in time order; sorting
        # the app-sorted keys is far cheaper than sorting raw ones.
        apps = packets.apps[mask]
        by_app = np.argsort(apps, kind="stable")
        a = apps[by_app].astype(np.int64)
        t = packets.timestamps[mask][by_app]
        self._observe_bursts(a, t)
        keys = (a << 32) | packets.conns[mask][by_app]
        by_key = np.argsort(keys, kind="stable")
        self._observe_flows(keys[by_key], t[by_key])

    def _upsert(self, pos, hit, **columns: np.ndarray) -> None:
        """Write one chunk's per-key values (the key column among them):
        overwrite hit rows in place, insert the rest in key order."""
        for name, new in columns.items():
            self._s[name][pos[hit]] = new[hit]
        if not hit.all():
            at, miss = pos[~hit], ~hit
            for name, new in columns.items():
                self._s[name] = np.insert(self._s[name], at, new[miss])

    def _observe_bursts(self, a: np.ndarray, t: np.ndarray) -> None:
        """Fold background packets sorted by app (``a``), time within."""
        s = self._s
        heads, ends = _runs(a)
        pos, hit = _lookup(s["burst_apps"], a[heads])
        carried = pos[hit]
        is_start = _gap_flags(
            t, heads, s["burst_last_ts"][carried], hit, self.burst_gap
        )
        n_starts = np.add.reduceat(is_start, heads, dtype=np.int64)
        opened = n_starts > 0
        starts = t[is_start]
        start_apps = a[is_start]
        # Each start's predecessor: the previous start of its app, or
        # the carried latest burst start (NaN: none) for an app's first.
        last_start = np.full(len(heads), np.nan)
        last_start[hit] = s["burst_last_start"][carried]
        first, last = _runs(start_apps)
        prev = np.empty_like(starts)
        prev[1:] = starts[:-1]
        prev[first] = last_start[opened]
        keep = ~np.isnan(prev)
        if keep.any():
            self._interval_blocks.append(
                (start_apps[keep], (starts - prev)[keep])
            )
        n_starts[hit] += s["burst_counts"][carried]
        last_start[opened] = starts[last]
        self._upsert(
            pos, hit, burst_apps=a[heads], burst_counts=n_starts,
            burst_last_ts=t[ends], burst_last_start=last_start,
        )

    def _observe_flows(self, k: np.ndarray, t: np.ndarray) -> None:
        """Fold background packets sorted by flow key, time within."""
        heads, ends = _runs(k)
        pos, hit = _lookup(self._s["flow_keys"], k[heads])
        new_flow = _gap_flags(
            t, heads, self._s["flow_last"][pos[hit]], hit, self.flow_gap
        )
        self._upsert(pos, hit, flow_keys=k[heads], flow_last=t[ends])
        flow_apps = k[new_flow] >> 32
        app_heads, app_ends = _runs(flow_apps)
        counts = app_ends - app_heads + 1
        pos, hit = _lookup(self._s["flow_count_apps"], flow_apps[app_heads])
        counts[hit] += self._s["flow_counts"][pos[hit]]
        self._upsert(
            pos, hit, flow_count_apps=flow_apps[app_heads], flow_counts=counts
        )

    def _pooled_intervals(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(interval_offsets, intervals)``: every app's intervals in
        time order, grouped and split by ``burst_apps``."""
        if len(self._interval_blocks) > 1:
            apps, intervals = map(np.concatenate, zip(*self._interval_blocks))
            order = np.argsort(apps, kind="stable")
            self._interval_blocks = [(apps[order], intervals[order])]
        apps, intervals = (
            self._interval_blocks[0]
            if self._interval_blocks
            else (np.empty(0, np.int64), np.empty(0, np.float64))
        )
        starts = np.searchsorted(apps, self._s["burst_apps"])
        return np.append(starts, len(intervals)).astype(np.int64), intervals

    def summary(self) -> Dict[int, Tuple[int, int, np.ndarray]]:
        """app -> (n_flows, n_bursts, intervals), for the readout."""
        s = self._s
        offsets, intervals = self._pooled_intervals()
        intervals = intervals.copy()
        pos, hit = _lookup(s["flow_count_apps"], s["burst_apps"])
        flows = np.zeros(len(s["burst_apps"]), dtype=np.int64)
        flows[hit] = s["flow_counts"][pos[hit]]
        return {
            app: (flow, bursts, intervals[lo:hi])
            for app, flow, bursts, lo, hi in zip(
                s["burst_apps"].tolist(),
                flows.tolist(),
                s["burst_counts"].tolist(),
                offsets[:-1].tolist(),
                offsets[1:].tolist(),
            )
        }

    # ------------------------------------------------------------------
    # Checkpoint round-trip
    # ------------------------------------------------------------------
    def payload(self) -> Dict[str, np.ndarray]:
        """Fixed-name array members (checkpoint serialisation)."""
        offsets, intervals = self._pooled_intervals()
        out = {name: column.copy() for name, column in self._s.items()}
        out["interval_offsets"] = offsets
        out["intervals"] = intervals.copy()
        return out

    @classmethod
    def from_payload(
        cls,
        payload: Dict[str, np.ndarray],
        flow_gap: float = DEFAULT_FLOW_GAP,
        burst_gap: float = DEFAULT_BURST_GAP,
    ) -> "CadenceTracker":
        tracker = cls(flow_gap, burst_gap)
        tracker._s = {
            name: np.array(payload[name], dt) for name, dt in _STATE.items()
        }
        intervals = np.array(payload["intervals"], np.float64)
        if len(intervals):
            sizes = np.diff(np.asarray(payload["interval_offsets"], np.int64))
            apps = np.repeat(tracker._s["burst_apps"], sizes)
            tracker._interval_blocks = [(apps, intervals)]
        return tracker
