"""Benchmark of the reproduction's pipeline: the study and ingest workloads.

Run one workload from the root of a checkout::

    python3 perfbench/run.py --workload study --seed 42 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones from a run whose calls into the program are wrapped in
spans. ``--self-test`` corrupts one byte of one compared artefact, so
the run must report a failed check and exit 1. The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines above it name every metric with
its unit and divisor, the artefact digests and the known
discrepancies. The full record, spans included, goes to
``.bench_results/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from common import (
    DURATION_DAYS,
    N_USERS,
    REFERENCE_KERNEL_S,
    RESULTS_ROOT,
    ROOT,
    SRC,
    WORK_ROOT,
    Calibration,
    child_env,
    median,
)
from spans import NullTracer, Tracer

WORKLOADS = ("study", "ingest")

#: Set-ups per run; setup_s is their median. An ingest set-up generates
#: and saves the full study and exports two users to CSV (about 7 s), a
#: study set-up only starts an interpreter and imports the pipeline.
SETUP_REPEATS = {"study": 3, "ingest": 2}

#: End-to-end metrics (every untraced run prints all of them). The
#: timing ones are in reference-host units (see common.Calibration).
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_ms": "ms",
    "peak_rss_mb": "MB",
}

#: The layers spans are attributed to, and the name of their self time.
LAYERS = {
    "repro.workload": "self.workload_s",
    "repro.trace": "self.trace_s",
    "repro.radio": "self.radio_s",
    "repro.core": "self.core_s",
    "repro.policy": "self.policy_s",
    "repro.stream": "self.stream_s",
    "repro.store": "self.store_s",
    "repro.store.server": "self.server_s",
}

#: Per-layer metrics (every traced run prints all of them; a layer the
#: workload never calls reads 0).
PER_LAYER = {
    "workload.generate_s": "s",
    "workload.packets": "count",
    "trace.save_s": "s",
    "trace.save_mb": "MB",
    "trace.load_s": "s",
    "trace.index_s": "s",
    "trace.csv_write_s": "s",
    "radio.attribute_s": "s",
    "radio.attribute_packets_per_s": "pkt/s",
    "core.render_totals_s": "s",
    "core.render_replay_s": "s",
    "core.readout_s": "s",
    "core.render_checkpoint_s": "s",
    "policy.table2_s": "s",
    "stream.npz_s": "s",
    "stream.npz_nocadence_s": "s",
    "stream.cadence_share": "ratio",
    "stream.read_s": "s",
    "stream.attribute_s": "s",
    "stream.checkpoint_s": "s",
    "stream.chunks": "count",
    "stream.csv_prepass_s": "s",
    "stream.csv_run_s": "s",
    "stream.attribute_packets_per_s": "pkt/s",
    "store.get_hit_ms": "ms",
    "store.miss_render_put_ms": "ms",
    "store.invalidate_ms": "ms",
    "store.hits": "count",
    "store.misses": "count",
    "store.hit_ratio": "ratio",
    "serve.request_ms": "ms",
    "serve.requests": "count",
    "serve.not_modified_share": "ratio",
    "serve.p50_200_ms": "ms",
    "serve.p50_304_ms": "ms",
    "serve.p95_ms": "ms",
    "serve.p99_ms": "ms",
    "serve.late_ms": "ms",
    **{name: "s" for name in LAYERS.values()},
    "span.root_s": "s",
    "span.unaccounted_s": "s",
    "span.count": "count",
    "span.overhead_share": "ratio",
}


class Context:
    """What a workload needs: its inputs, the clock, the tracer."""

    def __init__(self, args, run_id: str) -> None:
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = float(args.seconds)
        self.trace = bool(args.trace)
        self.self_test = args.self_test
        self.users = N_USERS
        self.days = DURATION_DAYS
        self.tracer = Tracer(run_id) if self.trace else NullTracer()
        self.workdir: Path = Path()
        self.manifest: dict = {}
        self.overhead = None
        self.calibration = Calibration()

    def run_passes(self, one_pass):
        """Repeat the workload's pass for about ``seconds``.

        No pass starts that would end more than half a pass past
        ``seconds``, so the passes fill the run to within half a pass
        either way. A traced run alternates untraced and traced passes,
        at least one of each, so tracing overhead is measured in the
        same process. Only the last pass keeps its large objects (for
        the checks). A calibration sample follows every pass.
        """
        passes = []
        started = time.perf_counter()
        while True:
            traced = self.trace and len(passes) % 2 == 1
            if passes:
                passes[-1].pop("keep", None)
                gc.collect()
            tracer = self.tracer if traced else NullTracer()
            begun = time.perf_counter()
            record = one_pass(self, tracer)
            record["wall_s"] = time.perf_counter() - begun
            record["traced"] = traced
            passes.append(record)
            self.calibration.sample()
            elapsed = time.perf_counter() - started
            if elapsed + record["wall_s"] / 2 >= self.seconds and (
                not self.trace or len(passes) >= 2
            ):
                break
        if self.trace:
            self.overhead = {
                "untraced_s": median([p["wall_s"] for p in passes if not p["traced"]]),
                "traced_s": median([p["wall_s"] for p in passes if p["traced"]]),
            }
        return passes

    def layer_times(self, passes) -> dict:
        """Per-call times of the traced passes (all passes if untraced)."""
        chosen = [p for p in passes if p["traced"]] or passes
        keys = chosen[0]["times"]
        return {k: median([p["times"][k] for p in chosen]) for k in keys}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="corrupt one byte of one compared artefact; the check must fail",
    )
    return parser.parse_args(argv)


def set_up(ctx: Context, workdir: Path) -> tuple:
    """Build the inputs ``SETUP_REPEATS`` times; the last build is used.

    Calibration samples come before every set-up and after the last.
    Returns the set-ups' wall times and the host factor around them.
    """
    samples, around = [], []
    repeats = SETUP_REPEATS[ctx.workload]
    for k in range(repeats):
        around.append(ctx.calibration.sample())
        target = workdir / f"setup{k}"
        started = time.perf_counter()
        subprocess.run(
            [
                sys.executable,
                str(Path(__file__).with_name("setup_inputs.py")),
                "--workload", ctx.workload,
                "--seed", str(ctx.seed),
                "--out", str(target),
            ],
            check=True,
            env=child_env(workdir),
            cwd=str(workdir),
        )
        ctx.workdir = target
        ctx.manifest = json.loads((target / "manifest.json").read_text())
        samples.append(time.perf_counter() - started)
        if k < repeats - 1:
            shutil.rmtree(target)
    around.append(ctx.calibration.sample())
    return samples, median(around) / REFERENCE_KERNEL_S


def span_metrics(ctx: Context) -> tuple:
    summary = ctx.tracer.summary()
    out = {name: summary["layer_self_s"].get(layer, 0.0) for layer, name in LAYERS.items()}
    out["span.root_s"] = summary["root_s"]
    out["span.unaccounted_s"] = summary["unaccounted_s"]
    out["span.count"] = summary["spans"]
    overhead = ctx.overhead
    out["span.overhead_share"] = overhead["traced_s"] / overhead["untraced_s"] - 1.0
    return out, summary


def report_lines(ctx, result, metrics, setup_samples, setup_factor) -> list:
    lines = [
        f"workload {ctx.workload}  seed {ctx.seed}  trace {int(ctx.trace)}  "
        f"input {json.dumps(result['input'])}"
    ]
    lines.append(
        f"setup_s = {median(setup_samples):.4f} s  (median of "
        f"{len(setup_samples)} set-ups: {', '.join(f'{s:.3f}' for s in setup_samples)}; "
        f"host factor around them {setup_factor:.4f})"
    )
    lines.append(f"peak_rss_mb = {result['e2e']['peak_rss_mb']:.4f} MB")
    samples = ctx.calibration.samples
    lines.append(
        f"host_factor = {ctx.calibration.host_factor:.4f}  [median of {len(samples)} "
        f"calibration kernel samples / {REFERENCE_KERNEL_S} s: "
        f"{', '.join(f'{s:.3f}' for s in samples)}]"
    )
    lines.append(
        "(the times on these lines are as measured; the JSON line's setup_s, "
        "throughput_per_s and latency_ms are in reference-host units: times "
        "divided by host_factor (setup_s by the set-ups' own), rates multiplied by it)"
    )
    for name, value, unit, how in result["named"]:
        lines.append(f"{name} = {value:,.4f} {unit}  [{how}]")
    checks = result["checks"]
    attempted, failed = outcome(result)
    lines.append(
        f"failed_share = {failed / attempted:.4f}  [{failed} failed / {attempted} "
        "attempted: output checks plus timed passes or requests]"
    )
    for record in result.get("failed_records", [])[:10]:
        lines.append(f"FAILED request: {json.dumps(record)}")
    for known in checks.known:
        lines.append(f"known discrepancy: {json.dumps(known)}")
    for entry in checks.results:
        if not entry["ok"]:
            lines.append(f"FAILED check: {entry['check']} {entry['detail']}")
    for name, digest in sorted(result["digests"].items()):
        lines.append(f"sha256 {name} {digest}")
    return lines


def outcome(result) -> tuple:
    """(attempted, failed): output checks plus the timed operations."""
    checks = result["checks"]
    return (
        checks.attempted + result["operations"],
        checks.failed + result.get("failed_operations", 0),
    )


def _terminate(signum, frame):
    """SIGTERM unwinds like an error, so children are stopped and the
    working directory is removed."""
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    declared = ROOT / "BENCHMARK.json"
    if declared.is_file():
        doc = json.loads(declared.read_text())
        if [m["name"] for m in doc["end_to_end"]] != list(END_TO_END) or [
            m["name"] for m in doc["per_layer"]
        ] != list(PER_LAYER):
            print("error: BENCHMARK.json metrics differ from run.py's", file=sys.stderr)
            return 2
    import importlib

    workload_module = importlib.import_module(args.workload)
    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    workdir = WORK_ROOT / run_id
    workdir.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = str(workdir)
    ctx = Context(args, run_id)
    try:
        setup_samples, setup_factor = set_up(ctx, workdir)
        result = workload_module.run(ctx)
    except Exception:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checks = result["checks"]
    # Reference-host units: a slower host (factor > 1) inflates what was
    # measured, so times are divided by the factor and rates multiplied
    # by it. Memory is not scaled.
    factor = ctx.calibration.host_factor
    as_measured = {"setup_s": median(setup_samples), **result["e2e"]}
    scale = {
        "setup_s": 1 / setup_factor,
        "throughput_per_s": factor,
        "latency_ms": 1 / factor,
        "peak_rss_mb": 1.0,
    }
    metrics = {
        name: {"value": as_measured[name] * scale[name], "unit": unit}
        for name, unit in END_TO_END.items()
    }
    record = {
        "workload": ctx.workload,
        "seed": ctx.seed,
        "trace": int(ctx.trace),
        "input": result["input"],
        "setup_s_samples": setup_samples,
        "end_to_end": metrics,
        "end_to_end_as_measured": as_measured,
        "calibration": {
            "samples": ctx.calibration.samples,
            "reference_kernel_s": REFERENCE_KERNEL_S,
            "host_factor": factor,
            "setup_host_factor": setup_factor,
        },
        "named": [
            {"name": n, "value": v, "unit": u, "divisor": how}
            for n, v, u, how in result["named"]
        ],
        "checks": checks.results,
        "known_discrepancies": checks.known,
        "digests": result["digests"],
        "passes": result.get("passes"),
    }
    printed = metrics
    if ctx.trace:
        layer_values, summary = span_metrics(ctx)
        values = {name: 0 for name in PER_LAYER}
        values.update(result["per_layer"])
        values.update(layer_values)
        unknown = set(values) - set(PER_LAYER)
        if unknown:
            raise RuntimeError(f"per-layer metrics not declared: {sorted(unknown)}")
        printed = {
            name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()
        }
        record["per_layer"] = printed
        record["spans_summary"] = summary
        record["tracing_overhead"] = ctx.overhead
        checks.check(
            "spans: layer self times + unaccounted == root",
            abs(summary["residual_s"]) <= 1e-6,
            f"residual {summary['residual_s']}",
        )
        RESULTS_ROOT.mkdir(exist_ok=True)
        (RESULTS_ROOT / f"{ctx.workload}-seed{ctx.seed}-spans.json").write_text(
            json.dumps(ctx.tracer.records()) + "\n"
        )
    attempted, failed = outcome(result)
    record.update(attempted=attempted, failed=failed, failed_share=failed / attempted)
    RESULTS_ROOT.mkdir(exist_ok=True)
    (RESULTS_ROOT / f"{ctx.workload}-seed{ctx.seed}-trace{int(ctx.trace)}.json").write_text(
        json.dumps(record, indent=2, default=str) + "\n"
    )
    for line in report_lines(ctx, result, metrics, setup_samples, setup_factor):
        print(line)
    if ctx.trace:
        for name, entry in printed.items():
            print(f"{name} = {entry['value']} {entry['unit']}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": printed,
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
