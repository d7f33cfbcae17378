"""Shared pieces of the benchmark: paths, inputs, timing, digests.

Every workload runs against the program's source tree at
``<checkout>/src``; nothing is installed. Working files live under
``<checkout>/.bench_work`` (one fresh directory per run, removed at the
end) and per-run results under ``<checkout>/.bench_results``, so a run
reads and writes only inside its checkout.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
RESULTS_ROOT = ROOT / ".bench_results"

#: The fixed study: 8 users x 28 days (1,031,387 packets at seed 42).
N_USERS = 8
DURATION_DAYS = 28.0

#: Study and ingest latencies are scaled to this many input packets, so
#: seeds whose studies differ in size stay comparable.
PER_PACKETS = 1_000_000

#: Users exported to CSV for the CSV ingest (233,216 packets at seed 42).
CSV_USERS = 2

#: The readout JSON names the study by a digest of the archive path
#: (checkpoints) or of the dataset (batch); drop it before hashing so
#: digests compare across checkouts and between batch and checkpoint.
PATH_DEPENDENT_READOUT_FIELDS = ("study",)


#: Median wall time of :func:`calibration_kernel` on the reference host
#: (a quiet 2-vCPU Xeon VM at 2.0 GHz). End-to-end times are reported in
#: reference-host units: as measured, divided by the run's host factor
#: (see :class:`Calibration`).
REFERENCE_KERNEL_S = 0.2


def calibration_kernel() -> float:
    """Wall seconds of a fixed piece of work in the program's mix:
    numpy sorts, scans and group sums over 600 k floats, zlib over their
    bytes, then Python object churn, dict updates and CSV-style string
    parsing. It calls nothing of the program, so a change to the program
    cannot move it. The cyclic garbage collector is off while it runs:
    a collection walks every live object, so with it on the kernel's
    time would grow with the heap the program left behind."""
    import gc
    import zlib

    import numpy as np

    gc.disable()
    try:
        started = time.perf_counter()
        values = np.random.default_rng(7).random(600_000)
        groups = (values * 997).astype(np.int64)
        ordered = np.sort(values)
        np.cumsum(ordered)
        np.searchsorted(ordered, values[:100_000])
        np.bincount(groups, weights=values)
        zlib.compress(groups[:75_000].tobytes(), 6)
        rows = [(k, str(k), {"k": k}) for k in range(60_000)]
        rows.sort(key=lambda row: -row[0])
        counts: Dict[int, int] = {}
        for k in range(150_000):
            counts[k % 997] = counts.get(k % 997, 0) + k
        total = 0.0
        for k in range(40_000):
            fields = f"{k},{k * 3},com.app{k % 50},{k * 0.5}".split(",")
            total += int(fields[1]) + float(fields[3])
        return time.perf_counter() - started
    finally:
        gc.enable()


class Calibration:
    """Kernel samples taken through a run, between its timed sections.

    Host speed on a shared machine drifts by tens of percent within
    minutes, and the drift moves this kernel and the program alike:
    probed on the reference host over a 2x drift, the program's stage
    times followed the kernel with a log-log slope of 0.9-1.2. A run's
    host factor is its median sample over the reference time, and its
    end-to-end times are divided by it. One sample is too short to
    follow the host from second to second (bursts of contention slow
    single samples by up to 50 %), so the factor is taken over the whole
    run, as a median, the same way the passes are; set-up time is divided
    by the median of the samples around the set-ups alone, because the
    set-ups take the first part of the run. The first kernel run of a
    process is a warm-up and is dropped.
    """

    def __init__(self) -> None:
        calibration_kernel()
        self.samples: List[float] = []

    def sample(self) -> float:
        self.samples.append(calibration_kernel())
        return self.samples[-1]

    @property
    def host_factor(self) -> float:
        """Median sample / the reference host's (> 1: a slower host)."""
        return median(self.samples) / REFERENCE_KERNEL_S


def child_env(workdir: Path) -> Dict[str, str]:
    """Environment for the benchmark's child processes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(workdir)
    env.pop("REPRO_FAULT_PLAN", None)
    return env


def study_config(seed: int):
    from repro import StudyConfig

    return StudyConfig(n_users=N_USERS, duration_days=DURATION_DAYS, seed=seed)


@contextmanager
def timed(times: Dict[str, float], key: str, tracer, span_name: str) -> Iterator[None]:
    """Time a call into ``times[key]`` (accumulating) inside a span."""
    with tracer.span(span_name):
        started = time.perf_counter()
        try:
            yield
        finally:
            times[key] = times.get(key, 0.0) + time.perf_counter() - started


def vm_hwm_mb(pid: Optional[int] = None) -> float:
    """Peak resident set of a process in MB (``VmHWM``)."""
    path = Path(f"/proc/{pid or os.getpid()}/status")
    try:
        for line in path.read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raise RuntimeError(f"cannot read peak RSS of process {pid}")


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def readout_digest_text(text: str) -> str:
    """The readout JSON without its path-dependent fields, re-serialised
    the way the program serialises it."""
    payload = json.loads(text)
    for field in PATH_DEPENDENT_READOUT_FIELDS:
        payload.pop(field, None)
    return json.dumps(payload, indent=2)


def artefact_digest(name: str, text: str) -> str:
    if name == "readout":
        text = readout_digest_text(text)
    return sha256(text)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


class Checks:
    """Output checks of one run: each passes or counts as a failure."""

    def __init__(self, corrupt: bool = False) -> None:
        self.results: List[dict] = []
        self.known: List[dict] = []
        #: Self-test mode: flip one byte of the first artefact compared,
        #: so the comparison must fail.
        self._corrupt_next = corrupt

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append({"check": name, "ok": bool(ok), "detail": detail})
        return bool(ok)

    def same_text(self, name: str, got: str, want: str) -> bool:
        if self._corrupt_next:
            self._corrupt_next = False
            got = corrupt_one_byte(got)
            name += " [self-test: one byte corrupted]"
        return self.check(
            name,
            got == want,
            "" if got == want else f"sha256 {sha256(got)[:12]} != {sha256(want)[:12]}",
        )

    def known_discrepancy(self, name: str, **values) -> None:
        """Record a documented difference: reported, never asserted."""
        self.known.append({"name": name, **values})

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(not r["ok"] for r in self.results)


def corrupt_one_byte(text: str) -> str:
    """``text`` with its middle byte changed (the self-test's damage)."""
    data = bytearray(text.encode("utf-8"))
    if not data:
        return "\x00"
    mid = len(data) // 2
    data[mid] = (data[mid] + 1) % 128 or 1
    return data.decode("utf-8", errors="replace")


def totals_equal(checks: Checks, label: str, got, want) -> None:
    """Grouped totals of two readouts: keys equal, values ``array_equal``.

    The identity the streaming layer guarantees against batch
    attribution over the same packets (bit for bit, not approximately).
    """
    import numpy as np

    for name in ("energy_by_app", "energy_by_app_state", "energy_by_state"):
        a = getattr(got, name)()
        b = getattr(want, name)()
        same = list(a) == list(b) and np.array_equal(
            np.array(list(a.values())), np.array(list(b.values()))
        )
        checks.check(f"{label}.{name}", same)
    checks.check(f"{label}.bytes_by_app", got.bytes_by_app() == want.bytes_by_app())
    checks.check(f"{label}.idle_energy", got.idle_energy == want.idle_energy)


def stream_layer(npz_s: float, metrics: dict) -> dict:
    """``repro.stream`` numbers of one npz ingest and its ``RunMetrics``."""
    stages = metrics["stages"]
    return {
        "stream.npz_s": npz_s,
        "stream.read_s": stages["stream.read"]["seconds"],
        "stream.attribute_s": stages["stream.attribute"]["seconds"],
        "stream.checkpoint_s": stages["stream.checkpoint"]["seconds"],
        "stream.chunks": metrics["counters"]["stream.chunks"],
        "stream.attribute_packets_per_s": metrics["derived"]["ingest_packets_per_s"],
    }
