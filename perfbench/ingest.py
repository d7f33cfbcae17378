"""The ``ingest`` workload: streamed ingestion of a saved study.

One pass, over inputs the set-up built:

1. ``StreamIngestor(NpzStreamSource(study.npz), checkpoint_path=...)``
   over the whole study, with cadence tracking on (the default);
2. ``StreamIngestor(CsvStreamSource(pairs))`` over the two users the
   set-up exported with ``write_packets_csv``/``write_events_csv``;
3. ``readout_from_checkpoint`` of step 1's checkpoint and the five
   totals artefacts rendered from it.

This carries the two streaming hot spots: per-row CSV parsing and the
cadence tracker. The generator and ``Dataset.load`` never run in the
timed section.

The traced run also serves the last pass's checkpoint with ``repro
serve`` (``serve.probe``): the per-layer numbers of ``repro.store`` and
its HTTP server come from there, and every response is checked.
"""

from __future__ import annotations

import time

import serve
from common import (
    PER_PACKETS,
    Checks,
    artefact_digest,
    median,
    stream_layer,
    timed,
    totals_equal,
    vm_hwm_mb,
)

CHECKPOINT_ARTEFACTS = ("fig1", "fig2", "fig3", "table1", "headlines")


def _pairs(ctx):
    return [
        (ctx.workdir / packets, ctx.workdir / events)
        for packets, events in ctx.manifest["csv_pairs"]
    ]


def one_pass(ctx, tracer) -> dict:
    from repro import RunMetrics
    from repro.core.readout import readout_from_checkpoint
    from repro.store import render_analysis
    from repro.stream import CsvStreamSource, NpzStreamSource, StreamIngestor
    from repro.stream.checkpoint import previous_path

    # Every pass writes a fresh checkpoint, never a rotation of the last.
    ck = ctx.workdir / "ck.npz"
    ck.unlink(missing_ok=True)
    previous_path(ck).unlink(missing_ok=True)
    times: dict = {}
    npz_metrics = RunMetrics()
    with tracer.span("ingest"):
        with timed(times, "npz", tracer, "repro.stream:npz_ingest"):
            npz_result = StreamIngestor(
                NpzStreamSource(ctx.workdir / "study.npz"),
                workers=1,
                checkpoint_path=ck,
                metrics=npz_metrics,
            ).run()
        with timed(times, "csv_prepass", tracer, "repro.stream:CsvStreamSource"):
            source = CsvStreamSource(_pairs(ctx))
        with timed(times, "csv_run", tracer, "repro.stream:csv_ingest"):
            csv_result = StreamIngestor(source, workers=1).run()
        with timed(times, "readout", tracer, "repro.core:readout_from_checkpoint"):
            readout = readout_from_checkpoint(ck)
        texts = {}
        with timed(times, "render", tracer, "repro.core:render_checkpoint"):
            for name in CHECKPOINT_ARTEFACTS:
                texts[name] = render_analysis(name, readout)
    return {
        "times": times,
        "npz_metrics": npz_metrics.as_dict(),
        "keep": {
            "npz_result": npz_result,
            "csv_result": csv_result,
            "csv_registry": source.registry,
            "readout": readout,
            "texts": texts,
        },
    }


def run(ctx) -> dict:
    passes = ctx.run_passes(one_pass)
    peak = vm_hwm_mb()
    last = passes[-1]
    untraced = [p for p in passes if not p["traced"]]
    packets = ctx.manifest["packets"]
    csv_packets = ctx.manifest["csv_packets"]
    npz_s = median([p["times"]["npz"] for p in untraced])
    csv_s = median(
        [p["times"]["csv_prepass"] + p["times"]["csv_run"] for p in untraced]
    )
    answer_s = median(
        [
            p["times"]["npz"] + p["times"]["readout"] + p["times"]["render"]
            for p in untraced
        ]
    )
    stage_rate = median(
        [p["npz_metrics"]["derived"]["ingest_packets_per_s"] for p in untraced]
    )
    pass_s = median([sum(p["times"].values()) for p in untraced])
    latency_ms = answer_s * 1e3 * PER_PACKETS / packets
    result = {
        "e2e": {
            "throughput_per_s": csv_packets / csv_s,
            "latency_ms": latency_ms,
            "peak_rss_mb": peak,
        },
        "named": [
            (
                "throughput_per_s",
                csv_packets / csv_s,
                "pkt/s",
                "ingest_csv_packets_per_s (below)",
            ),
            (
                "pass_s",
                pass_s,
                "s",
                "npz ingest + CSV ingest + readout + five renders: one pass, "
                "as measured (not scaled)",
            ),
            (
                "latency_ms",
                latency_ms,
                "ms",
                f"npz ingest + readout + five renders ({answer_s:.4f} s) scaled "
                f"to {PER_PACKETS} packets: x {PER_PACKETS} / {packets}",
            ),
            (
                "ingest_npz_packets_per_s",
                packets / npz_s,
                "pkt/s",
                f"{packets} packets / {npz_s:.4f} s wall of NpzStreamSource() + "
                "run() incl. cadence and checkpoint write",
            ),
            (
                "stream.attribute_packets_per_s",
                stage_rate,
                "pkt/s",
                f"{packets} packets / the stream.attribute stage alone "
                "(the program's ingest_packets_per_s)",
            ),
            (
                "ingest_csv_packets_per_s",
                csv_packets / csv_s,
                "pkt/s",
                f"{csv_packets} packets of {len(ctx.manifest['csv_pairs'])} users / "
                f"{csv_s:.4f} s wall of CsvStreamSource() prepass + run()",
            ),
        ],
        "input": {
            "packets": packets,
            "csv_packets": csv_packets,
            "csv_users": len(ctx.manifest["csv_pairs"]),
            "users": ctx.users,
            "days": ctx.days,
        },
        "passes": [{"traced": p["traced"], "times": p["times"]} for p in passes],
    }
    checks = Checks(corrupt=ctx.self_test)
    result["digests"] = check(ctx, last, checks)
    result["checks"] = checks
    result["per_layer"] = {}
    result["operations"] = len(passes)
    if ctx.trace:
        result["per_layer"] = per_layer(ctx, passes, last)
        served, requests, digests = serve.probe(ctx, checks)
        result["per_layer"].update(served)
        result["digests"].update(digests)
        result["operations"] += len(requests)
        result["failed_records"] = [r for r in requests if not r["ok"]]
        result["failed_operations"] = len(result["failed_records"])
    return result


def check(ctx, last, checks: Checks) -> dict:
    """Streamed totals against batch attribution of the same inputs."""
    from repro import StudyEnergy
    from repro.store import render_analysis
    from repro.trace.dataset import Dataset
    from repro.trace.io_text import dataset_from_csv

    keep = last["keep"]
    started = time.perf_counter()
    dataset = Dataset.load(ctx.workdir / "study.npz")
    last["check_load_s"] = time.perf_counter() - started
    started = time.perf_counter()
    batch = StudyEnergy(dataset, workers=1)
    last["check_attribute_s"] = time.perf_counter() - started
    totals_equal(checks, "ingest.npz stream == batch", keep["npz_result"], batch)
    for name, text in keep["texts"].items():
        checks.same_text(
            f"ingest.{name} checkpoint == batch", text, render_analysis(name, batch)
        )
    checks.known_discrepancy(
        "total_energy stream vs batch",
        batch=batch.total_energy,
        stream=keep["npz_result"].total_energy,
        equal=batch.total_energy == keep["npz_result"].total_energy,
        note="float fold order differs in the last bits; grouped totals are equal",
    )
    del batch, dataset
    # The CSV reader re-derives app ids and the observation window, so
    # compare with batch attribution over the same CSV files.
    csv_batch_dataset = dataset_from_csv(_pairs(ctx))
    csv_batch = StudyEnergy(csv_batch_dataset, workers=1)
    totals_equal(checks, "ingest.csv stream == batch", keep["csv_result"], csv_batch)
    checks.check(
        "ingest.csv registry == batch registry",
        keep["csv_registry"].to_json() == csv_batch_dataset.registry.to_json(),
    )
    digests = {
        name: artefact_digest(name, text) for name, text in keep["texts"].items()
    }
    digests["readout"] = artefact_digest(
        "readout", render_analysis("readout", keep["readout"])
    )
    digests["csv_readout"] = artefact_digest(
        "readout", render_analysis("readout", csv_batch)
    )
    return digests


def per_layer(ctx, passes, last) -> dict:
    """Per-layer numbers; the cadence probe runs here, outside any pass."""
    from repro import RunMetrics
    from repro.stream import NpzStreamSource, StreamIngestor

    times = ctx.layer_times(passes)
    traced = [p for p in passes if p["traced"]] or passes
    npz_metrics = traced[-1]["npz_metrics"]
    started = time.perf_counter()
    StreamIngestor(
        NpzStreamSource(ctx.workdir / "study.npz"),
        workers=1,
        checkpoint_path=ctx.workdir / "ck_nocadence.npz",
        metrics=RunMetrics(),
        cadence=False,
    ).run()
    nocadence_s = time.perf_counter() - started
    manifest_times = ctx.manifest["times"]
    return {
        "workload.generate_s": manifest_times["generate"],
        "workload.packets": ctx.manifest["packets"],
        "trace.save_s": manifest_times["save"],
        "trace.save_mb": ctx.manifest["save_bytes"] / 1e6,
        "trace.csv_write_s": manifest_times["csv_write"],
        "trace.load_s": last["check_load_s"],
        "radio.attribute_s": last["check_attribute_s"],
        "radio.attribute_packets_per_s": ctx.manifest["packets"]
        / last["check_attribute_s"],
        "core.readout_s": times["readout"],
        "core.render_checkpoint_s": times["render"],
        **stream_layer(times["npz"], npz_metrics),
        "stream.npz_nocadence_s": nocadence_s,
        "stream.cadence_share": 1.0 - nocadence_s / times["npz"],
        "stream.csv_prepass_s": times["csv_prepass"],
        "stream.csv_run_s": times["csv_run"],
    }
