"""The composed argument parser and the ``main`` entry point.

Each command family module (:mod:`repro.cli.analyses`,
:mod:`repro.cli.serving`, :mod:`repro.cli.streaming`,
:mod:`repro.cli.sharding`) registers its own subparsers; this module
composes them — in the menu order the CLI has always shown — and owns
the typed-error → exit-code mapping around ``args.func``.
"""

from __future__ import annotations

import sys
from typing import List, Optional

import argparse

from repro import RunMetrics
from repro.errors import (
    NeedsPacketDetail,
    ShardIncomplete,
    SourceTruncated,
    StreamError,
    TraceError,
    TransportError,
)
from repro.exitcodes import (
    EXIT_BAD_INPUT,
    EXIT_NEEDS_PACKET_DETAIL,
    EXIT_SHARD_INCOMPLETE,
    EXIT_SOURCE_TRUNCATED,
    EXIT_TRANSPORT_FAILED,
)

from repro.cli import analyses, serving, sharding, streaming


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Revisiting Network Energy Efficiency of "
            "Mobile Apps' (IMC 2015)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    analyses.add_generate(sub)
    analyses.add_figure(sub)
    analyses.add_table(sub)
    analyses.add_report(sub)
    analyses.add_headlines(sub)
    serving.add_serve(sub)
    streaming.add_follow(sub)
    serving.add_store(sub)
    analyses.add_whatif(sub)
    analyses.add_recommend(sub)
    analyses.add_longitudinal(sub)
    analyses.add_import(sub)
    streaming.add_ingest(sub)
    sharding.add_shard(sub)
    analyses.add_app(sub)
    analyses.add_summary(sub)
    analyses.add_coalesce(sub)
    analyses.add_lab(sub)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point."""
    args = build_parser().parse_args(argv)
    metrics = RunMetrics()
    args._run_metrics = metrics
    try:
        with metrics.stage("command"):
            rc = args.func(args)
    except NeedsPacketDetail as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEEDS_PACKET_DETAIL
    except ShardIncomplete as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SHARD_INCOMPLETE
    except TransportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT_FAILED
    except SourceTruncated as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOURCE_TRUNCATED
    # Last: the typed stream failures above are StreamErrors too.
    except (TraceError, StreamError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    out = getattr(args, "metrics_json", None)
    if out:
        metrics.write_json(out)
    return rc
