"""The CLI's exit-code vocabulary, in one place.

Every ``repro`` subcommand maps its typed failures onto this table;
the docs repeat it (docs/SERVING.md, docs/SCALING.md,
docs/MONITORING.md) and ``tests/test_docs_consistency.py`` asserts the
union of the documented tables equals exactly the constants defined
here, so the numbers cannot drift.

* ``EXIT_OK`` — success.
* ``EXIT_USAGE`` — argparse-level misuse (argparse's own convention).
* ``EXIT_NEEDS_PACKET_DETAIL`` — a per-packet analysis was asked of a
  totals-only readout (:class:`~repro.errors.NeedsPacketDetail`).
* ``EXIT_STORE_MISS`` — ``--store-only`` and the artefact is not in
  the store.
* ``EXIT_SHARD_INCOMPLETE`` — ``repro shard merge`` found unfinished
  shards (:class:`~repro.errors.ShardIncomplete`).
* ``EXIT_FOLLOW_INTERRUPTED`` — ``repro follow`` stopped on
  SIGTERM/SIGINT after writing its checkpoint; rerun with ``--resume``.
* ``EXIT_SOURCE_TRUNCATED`` — a tailed source shrank under the
  follower (:class:`~repro.errors.SourceTruncated`); the cursor no
  longer points at the data it consumed.
* ``EXIT_TRANSPORT_FAILED`` — a remote-transport shard run could not
  place every shard after retries and reassignment
  (:class:`~repro.errors.TransportError`); no merge was attempted.
* ``EXIT_BAD_INPUT`` — malformed input
  (:class:`~repro.errors.TraceError`, or any other
  :class:`~repro.errors.StreamError`): one ``error:`` line on stderr,
  no traceback.
"""

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NEEDS_PACKET_DETAIL = 3
EXIT_STORE_MISS = 4
EXIT_SHARD_INCOMPLETE = 5
EXIT_FOLLOW_INTERRUPTED = 6
EXIT_SOURCE_TRUNCATED = 7
EXIT_TRANSPORT_FAILED = 8
EXIT_BAD_INPUT = 9
