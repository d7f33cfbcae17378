"""Differential oracle for :class:`repro.stream.cadence.CadenceTracker`.

Helper module (not collected): the chunk-edge suites in
``test_stream.py`` and ``test_readout_protocol.py`` import
:class:`_ReferenceCadenceTracker` and :func:`assert_cadence_equal`
from here.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.core.periodicity import DEFAULT_BURST_GAP
from repro.core.readout import DEFAULT_FLOW_GAP
from repro.trace.arrays import PacketArray
from repro.trace.events import state_background_mask


class _ReferenceCadenceTracker:
    """The per-(app, conn)-group tracker the columnar one replaced.

    Dict state, one Python-level ``np.diff`` per group per chunk: slow,
    but each group's arithmetic is spelled out. Its ``summary()`` and
    ``payload()`` are the oracle the columnar tracker must match member
    for member, dtype for dtype.
    """

    def __init__(
        self,
        flow_gap: float = DEFAULT_FLOW_GAP,
        burst_gap: float = DEFAULT_BURST_GAP,
    ) -> None:
        self.flow_gap = float(flow_gap)
        self.burst_gap = float(burst_gap)
        #: ``(app << 32) | conn`` -> last background packet timestamp.
        self._flow_last: Dict[int, float] = {}
        #: app -> background flows opened so far.
        self._flow_counts: Dict[int, int] = {}
        #: app -> last background packet timestamp (burst clustering).
        self._burst_last_ts: Dict[int, float] = {}
        #: app -> start time of the latest burst.
        self._burst_last_start: Dict[int, float] = {}
        #: app -> bursts counted so far.
        self._burst_counts: Dict[int, int] = {}
        #: app -> chronological list of inter-burst interval arrays.
        self._intervals: Dict[int, List[np.ndarray]] = {}

    def observe(self, packets: PacketArray) -> None:
        """Fold one raw (time-sorted) chunk into the cadence state."""
        if len(packets) == 0:
            return
        mask = state_background_mask(packets.states)
        if not mask.any():
            return
        ts = packets.timestamps[mask]
        apps = packets.apps.astype(np.int64)[mask]
        conns = packets.conns.astype(np.int64)[mask]
        self._observe_bursts(apps, ts)
        self._observe_flows(apps, conns, ts)

    def _observe_bursts(self, apps: np.ndarray, ts: np.ndarray) -> None:
        order = np.argsort(apps, kind="stable")
        s_apps = apps[order]
        s_ts = ts[order]
        group_starts = np.flatnonzero(
            np.concatenate([[True], s_apps[1:] != s_apps[:-1]])
        )
        bounds = np.append(group_starts, len(s_apps))
        for i, lo in enumerate(group_starts):
            app = int(s_apps[lo])
            t = s_ts[lo : bounds[i + 1]]
            last_ts = self._burst_last_ts.get(app)
            if last_ts is None:
                is_start = np.concatenate(
                    [[True], np.diff(t) > self.burst_gap]
                )
            else:
                prev = np.concatenate([[last_ts], t[:-1]])
                is_start = (t - prev) > self.burst_gap
            starts = t[is_start]
            if len(starts):
                last_start = self._burst_last_start.get(app)
                seq = (
                    starts
                    if last_start is None
                    else np.concatenate([[last_start], starts])
                )
                intervals = np.diff(seq)
                if len(intervals):
                    self._intervals.setdefault(app, []).append(intervals)
                self._burst_counts[app] = self._burst_counts.get(
                    app, 0
                ) + len(starts)
                self._burst_last_start[app] = float(starts[-1])
            self._burst_last_ts[app] = float(t[-1])

    def _observe_flows(
        self, apps: np.ndarray, conns: np.ndarray, ts: np.ndarray
    ) -> None:
        order = np.lexsort((conns, apps))
        s_apps = apps[order]
        s_conns = conns[order]
        s_ts = ts[order]
        group_starts = np.flatnonzero(
            np.concatenate(
                [
                    [True],
                    (s_apps[1:] != s_apps[:-1])
                    | (s_conns[1:] != s_conns[:-1]),
                ]
            )
        )
        bounds = np.append(group_starts, len(s_apps))
        for i, lo in enumerate(group_starts):
            app = int(s_apps[lo])
            key = (app << 32) | int(s_conns[lo])
            t = s_ts[lo : bounds[i + 1]]
            new_flows = int(np.count_nonzero(np.diff(t) > self.flow_gap))
            last = self._flow_last.get(key)
            if last is None or (t[0] - last) > self.flow_gap:
                new_flows += 1
            if new_flows:
                self._flow_counts[app] = (
                    self._flow_counts.get(app, 0) + new_flows
                )
            self._flow_last[key] = float(t[-1])

    def summary(self) -> Dict[int, Tuple[int, int, np.ndarray]]:
        """app -> (n_flows, n_bursts, intervals), for the readout."""
        out: Dict[int, Tuple[int, int, np.ndarray]] = {}
        for app in sorted(self._burst_last_ts):
            parts = self._intervals.get(app)
            intervals = (
                np.concatenate(parts) if parts else np.empty(0, np.float64)
            )
            out[app] = (
                self._flow_counts.get(app, 0),
                self._burst_counts.get(app, 0),
                intervals,
            )
        return out

    # ------------------------------------------------------------------
    # Checkpoint round-trip
    # ------------------------------------------------------------------
    def payload(self) -> Dict[str, np.ndarray]:
        """Fixed-name array members (checkpoint serialisation)."""
        flow_keys = np.array(sorted(self._flow_last), dtype=np.int64)
        burst_apps = np.array(sorted(self._burst_last_ts), dtype=np.int64)
        flow_count_apps = np.array(sorted(self._flow_counts), dtype=np.int64)
        parts = [
            (
                np.concatenate(self._intervals[int(app)])
                if int(app) in self._intervals
                else np.empty(0, np.float64)
            )
            for app in burst_apps
        ]
        offsets = np.zeros(len(parts) + 1, dtype=np.int64)
        if parts:
            offsets[1:] = np.cumsum([len(p) for p in parts])
        return {
            "flow_keys": flow_keys,
            "flow_last": np.array(
                [self._flow_last[int(k)] for k in flow_keys], dtype=np.float64
            ),
            "flow_count_apps": flow_count_apps,
            "flow_counts": np.array(
                [self._flow_counts[int(a)] for a in flow_count_apps],
                dtype=np.int64,
            ),
            "burst_apps": burst_apps,
            "burst_counts": np.array(
                [self._burst_counts.get(int(a), 0) for a in burst_apps],
                dtype=np.int64,
            ),
            "burst_last_ts": np.array(
                [self._burst_last_ts[int(a)] for a in burst_apps],
                dtype=np.float64,
            ),
            "burst_last_start": np.array(
                [
                    self._burst_last_start.get(int(a), np.nan)
                    for a in burst_apps
                ],
                dtype=np.float64,
            ),
            "interval_offsets": offsets,
            "intervals": (
                np.concatenate(parts) if parts else np.empty(0, np.float64)
            ),
        }

    @classmethod
    def from_payload(
        cls,
        payload: Dict[str, np.ndarray],
        flow_gap: float = DEFAULT_FLOW_GAP,
        burst_gap: float = DEFAULT_BURST_GAP,
    ) -> "_ReferenceCadenceTracker":
        tracker = cls(flow_gap, burst_gap)
        for k, v in zip(payload["flow_keys"], payload["flow_last"]):
            tracker._flow_last[int(k)] = float(v)
        for a, c in zip(payload["flow_count_apps"], payload["flow_counts"]):
            tracker._flow_counts[int(a)] = int(c)
        offsets = np.asarray(payload["interval_offsets"], np.int64)
        intervals = np.asarray(payload["intervals"], np.float64)
        for i, (app, count, last_ts, last_start) in enumerate(
            zip(
                payload["burst_apps"],
                payload["burst_counts"],
                payload["burst_last_ts"],
                payload["burst_last_start"],
            )
        ):
            app = int(app)
            tracker._burst_counts[app] = int(count)
            tracker._burst_last_ts[app] = float(last_ts)
            if not np.isnan(last_start):
                tracker._burst_last_start[app] = float(last_start)
            lo, hi = int(offsets[i]), int(offsets[i + 1])
            if hi > lo:
                tracker._intervals[app] = [intervals[lo:hi].copy()]
        return tracker


def assert_cadence_equal(tracker, reference) -> None:
    """``summary()`` and every ``payload()`` member identical: counts
    ``==``, arrays ``array_equal`` with the same dtype (NaN ``==`` NaN
    for ``burst_last_start``)."""
    got, want = tracker.summary(), reference.summary()
    assert list(got) == list(want)
    for app, (flows, bursts, intervals) in want.items():
        assert got[app][:2] == (flows, bursts), app
        assert got[app][2].dtype == np.float64
        assert np.array_equal(got[app][2], intervals), app
    got, want = tracker.payload(), reference.payload()
    assert list(got) == list(want)
    for name, array in want.items():
        assert got[name].dtype == array.dtype, name
        assert np.array_equal(got[name], array, equal_nan=True), name
