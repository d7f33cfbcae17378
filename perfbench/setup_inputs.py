"""Build one workload's inputs in a fresh process (the set-up step).

Run by ``run.py`` before the timed section, once per set-up repeat::

    PYTHONPATH=src python3 perfbench/setup_inputs.py --workload ingest --seed 42 --out DIR

* ``study``: imports the pipeline and builds nothing (the study job
  generates its own input inside the timed section);
* ``ingest``: generates the fixed study, saves ``study.npz`` and writes
  the first two users' packet/event CSVs.

Timings of the calls made here go to ``DIR/manifest.json``; the wall
time of the whole process is what ``setup_s`` counts.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path


def build(workload: str, seed: int, out: Path) -> dict:
    from repro import generate_study
    from repro.trace.io_text import write_events_csv, write_packets_csv

    from common import CSV_USERS, study_config

    manifest: dict = {"workload": workload, "seed": seed, "times": {}}
    times = manifest["times"]
    if workload == "study":
        import repro.core  # noqa: F401  (what the study job runs)
        import repro.policy  # noqa: F401

        return manifest
    if workload != "ingest":
        raise SystemExit(f"unknown workload {workload!r}")
    started = time.perf_counter()
    dataset = generate_study(study_config(seed), workers=1)
    times["generate"] = time.perf_counter() - started
    npz = out / "study.npz"
    started = time.perf_counter()
    dataset.save(npz)
    times["save"] = time.perf_counter() - started
    manifest["packets"] = dataset.total_packets
    manifest["save_bytes"] = npz.stat().st_size
    pairs = []
    started = time.perf_counter()
    for trace in list(dataset)[:CSV_USERS]:
        packets = out / f"u{trace.user_id}_packets.csv"
        events = out / f"u{trace.user_id}_events.csv"
        write_packets_csv(packets, trace.packets, dataset.registry)
        write_events_csv(events, trace.events, dataset.registry)
        pairs.append([packets.name, events.name])
    times["csv_write"] = time.perf_counter() - started
    manifest["csv_pairs"] = pairs
    manifest["csv_packets"] = sum(len(trace.packets) for trace in list(dataset)[:CSV_USERS])
    return manifest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = build(args.workload, args.seed, out)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
