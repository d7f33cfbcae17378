"""Text (CSV) interchange for traces.

The synthetic generator is a stand-in for real collection software; a
downstream user with actual packet/process logs (tcpdump + procfs, the
paper's own pipeline) can feed them to every analysis through this
module. Two simple CSV schemas:

Packets — header ``timestamp,size,direction,app,conn``::

    12.531,1448,down,com.android.chrome,17
    12.540,60,up,com.android.chrome,17

``direction`` accepts ``up``/``down``/``uplink``/``downlink``/``0``/``1``.

Events — header ``timestamp,kind,app,value``::

    10.0,process,com.android.chrome,foreground
    95.2,process,com.android.chrome,background
    95.2,screen,,off
    12.0,input,com.android.chrome,

Process-state values are the :class:`~repro.trace.events.ProcessState`
names (case-insensitive); screen values are ``on``/``off``.
"""

from __future__ import annotations

import csv
import math
from itertools import chain, islice
from pathlib import Path
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import faults
from repro.errors import TraceError
from repro.trace.arrays import PacketArray
from repro.trace.dataset import AppRegistry, Dataset
from repro.trace.events import (
    EventLog,
    ProcessState,
    ProcessStateEvent,
    ScreenEvent,
    UserInputEvent,
)
from repro.trace.packet import Direction
from repro.trace.trace import UserTrace

PathLike = Union[str, Path]

_DIRECTIONS = {
    "up": Direction.UPLINK,
    "uplink": Direction.UPLINK,
    "0": Direction.UPLINK,
    "down": Direction.DOWNLINK,
    "downlink": Direction.DOWNLINK,
    "1": Direction.DOWNLINK,
}


def _parse_direction(token: Optional[str]) -> Direction:
    if token is None:
        raise TraceError("missing packet direction")
    try:
        return _DIRECTIONS[token.strip().lower()]
    except KeyError:
        raise TraceError(f"unknown packet direction {token!r}") from None


def _app_id(registry: AppRegistry, name: Optional[str]) -> int:
    name = (name or "").strip()
    if not name:
        raise TraceError("packet/event row with empty app name")
    if name in registry:
        return registry.id_of(name)
    return registry.register(name).app_id


#: One parsed packets-CSV row: (timestamp, size, direction, app id, conn).
PacketRow = Tuple[float, int, int, int, int]

#: The packets-CSV schema's required columns.
PACKET_COLUMNS = frozenset({"timestamp", "size", "direction", "app"})

#: Exclusive upper bound of the ``size`` and ``conn`` fields (uint32).
_U32_LIMIT = 1 << 32


def _parse_timestamp(token) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise TraceError(f"non-finite timestamp {token!r}")
    return value


def _parse_u32(token, field: str) -> int:
    value = int(token)
    if not 0 <= value < _U32_LIMIT:
        raise TraceError(f"{field} {value} out of range [0, 2**32)")
    return value


def parse_packet_fields(row, registry: AppRegistry) -> PacketRow:
    """Parse one raw packets-CSV row dict into a :data:`PacketRow`.

    The row parser behind :func:`iter_packet_rows` and the live tail
    (:class:`repro.follow.TailCsvSource`), and the reference the block
    reader (:func:`iter_packet_blocks`) falls back on. Field order
    matters: timestamp, size and direction parse *before* the app name
    registers, so a row rejected on those fields leaves the registry
    untouched and surviving rows get identical app ids everywhere.
    Raises :class:`TraceError` (or ``ValueError``/``TypeError`` from
    the numeric casts) on a malformed row — including a non-finite
    timestamp and a ``size`` or ``conn`` outside ``[0, 2**32)``.
    """
    return (
        _parse_timestamp(row["timestamp"]),
        _parse_u32(row["size"], "size"),
        int(_parse_direction(row["direction"])),
        _app_id(registry, row["app"]),
        _parse_u32(row.get("conn") or 0, "conn"),
    )


def _check_packet_header(path: Path, fieldnames) -> List[str]:
    if fieldnames is None or not PACKET_COLUMNS.issubset(fieldnames):
        raise TraceError(
            f"{path.name}: packets CSV must have columns "
            f"{sorted(PACKET_COLUMNS)}, got {fieldnames}"
        )
    return list(fieldnames)


def _parse_rows(
    reader: csv.DictReader,
    path: Path,
    registry: AppRegistry,
    on_bad_row: Optional[Callable[[TraceError], None]],
    inject: bool,
    first_line: int = 0,
) -> Iterator[Tuple[int, PacketRow]]:
    """Row-parse ``reader``, yielding ``(file line, row)`` pairs.

    ``first_line`` is how many file lines precede the reader's input,
    so a reader over one block still names the true file line.
    """
    for row in reader:
        if inject:
            spec = faults.fire("io.packet_row")
            if spec is not None and spec.action == "corrupt":
                row = faults.corrupt_row(row)
        try:
            parsed = parse_packet_fields(row, registry)
        except (TraceError, ValueError, TypeError) as exc:
            error = TraceError(
                f"{path.name}:{first_line + reader.line_num}: {exc}"
            )
            if on_bad_row is not None:
                on_bad_row(error)
                continue
            raise error from None
        yield first_line + reader.line_num, parsed


def iter_packet_rows(
    path: PathLike,
    registry: AppRegistry,
    on_bad_row: Optional[Callable[[TraceError], None]] = None,
    inject: bool = False,
    with_line_numbers: bool = False,
) -> Iterator[PacketRow]:
    """Lazily parse a packets CSV, one row at a time.

    The row parser: :func:`iter_packet_blocks` (behind the batch reader
    :func:`read_packets_csv` and :class:`repro.stream.CsvStreamSource`)
    re-reads every block it cannot prove identical through the same
    per-row code, so this iterator is the reference for the rows, the
    registration order (and therefore every app id), the errors and
    the quarantine. Malformed rows raise :class:`TraceError` naming the
    file and line number — unless ``on_bad_row`` is given, which
    receives that error and the iterator moves on (the row-quarantine
    hook). Timestamp, size and direction parse before the app name
    registers, so a row quarantined on those fields leaves the registry
    untouched and surviving rows get identical app ids.

    ``inject`` opts this iteration into the ``io.packet_row`` fault
    site (:mod:`repro.faults`); batch reads never inject, so the
    fault-free reference numbers cannot be perturbed by an armed plan.

    ``with_line_numbers`` yields ``(line_number, row)`` pairs instead
    of bare rows, so a caller diagnosing a defect *between* rows (e.g.
    an out-of-order timestamp) can point at the actual file line even
    when quarantined rows were dropped along the way.
    """
    path = Path(path)
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        _check_packet_header(path, reader.fieldnames)
        for line_num, parsed in _parse_rows(
            reader, path, registry, on_bad_row, inject
        ):
            yield (line_num, parsed) if with_line_numbers else parsed


#: numpy's C ``loadtxt`` (1.23+) parses floats as Python does and
#: rejects, rather than rounds, a float in an integer column; older
#: numpy row-parses every block.
_C_READER = np.lib.NumpyVersion(np.__version__) >= "1.23.0"

#: Most file lines one :func:`iter_packet_blocks` block parses at once.
#: The bound keeps the block's fixed-width string columns small: the
#: CSV phase's memory grows with it, not with the file.
_PACKET_BLOCK_LINES = 8192

#: Fixed widths of the block parser's string columns. A value that
#: fills its width may have been truncated, so its block is re-read by
#: the row parser.
_DIRECTION_WIDTH = 10
_APP_WIDTH = 64

#: loadtxt dtype of each packets-CSV column the block parser reads.
_BLOCK_DTYPES = {
    "timestamp": "f8",
    "size": "i8",
    "direction": f"U{_DIRECTION_WIDTH}",
    "app": f"U{_APP_WIDTH}",
    "conn": "i8",
}

#: Lines ``csv`` reads as no row at all (and skips).
_BLANK_LINES = frozenset({"\n", "\r\n", "\r"})


def _block_dtype(fieldnames: List[str]) -> Optional[np.dtype]:
    """The block parser's record dtype for this header, or ``None``.

    Only the schema's columns, each once and in any order, with or
    without ``conn``; any other header is row-parsed.
    """
    names = set(fieldnames)
    if len(names) != len(fieldnames) or not (
        PACKET_COLUMNS <= names <= set(_BLOCK_DTYPES)
    ):
        return None
    return np.dtype([(name, _BLOCK_DTYPES[name]) for name in fieldnames])


def _in_u32(values: np.ndarray) -> bool:
    return bool(((values >= 0) & (values < _U32_LIMIT)).all())


def _parse_block(
    text: str,
    lines: List[str],
    dtype: np.dtype,
    registry: AppRegistry,
    first_line: int,
) -> Optional[Tuple[np.ndarray, PacketArray]]:
    """Parse one unquoted block in C; ``None`` unless provably exact.

    Every row is validated before any app name registers, so a block
    handed back to the row parser has left the registry untouched.
    """
    # csv rejects NUL (before Python 3.11) and over-long fields; the C
    # reader takes both.
    if "\x00" in text or max(map(len, lines)) > csv.field_size_limit():
        return None
    blank = np.fromiter(
        map(_BLANK_LINES.__contains__, lines), dtype=bool, count=len(lines)
    )
    line_numbers = first_line + 1 + np.flatnonzero(~blank)
    if not len(line_numbers):
        return line_numbers, PacketArray()
    try:
        table = np.loadtxt(
            lines,
            dtype=dtype,
            delimiter=",",
            comments=None,
            ndmin=1,
        )
    except (ValueError, TypeError, OverflowError):
        return None
    if len(table) != len(line_numbers):
        return None
    timestamps = table["timestamp"]
    sizes = table["size"]
    conns = table["conn"] if "conn" in dtype.names else None
    if not (
        np.isfinite(timestamps).all()
        and _in_u32(sizes)
        and (conns is None or _in_u32(conns))
    ):
        return None
    direction_tokens = table["direction"].tolist()
    direction_codes = {}
    for token in dict.fromkeys(direction_tokens):
        direction = _DIRECTIONS.get(token.strip().lower())
        if direction is None or len(token) >= _DIRECTION_WIDTH:
            return None
        direction_codes[token] = int(direction)
    app_tokens = table["app"].tolist()
    first_seen = dict.fromkeys(app_tokens)
    if any(not t.strip() or len(t) >= _APP_WIDTH for t in first_seen):
        return None
    # Every row is proven valid: register in first-appearance order,
    # exactly the order the row parser would.
    app_ids = {token: _app_id(registry, token) for token in first_seen}
    n = len(table)
    packets = PacketArray.from_columns(
        timestamps,
        sizes,
        np.fromiter(
            map(direction_codes.__getitem__, direction_tokens),
            dtype=np.uint8,
            count=n,
        ),
        np.fromiter(
            map(app_ids.__getitem__, app_tokens), dtype=np.uint16, count=n
        ),
        conns,
    )
    return line_numbers, packets


def packets_from_rows(rows: Sequence[PacketRow]) -> PacketArray:
    """Columns of parsed packet rows (:func:`parse_packet_fields`)."""
    columns = list(zip(*rows))
    return PacketArray.from_columns(
        np.array(columns[0], dtype=np.float64),
        np.array(columns[1], dtype=np.uint32),
        np.array(columns[2], dtype=np.uint8),
        np.array(columns[3], dtype=np.uint16),
        np.array(columns[4], dtype=np.uint32),
    )


def _row_blocks(
    rows: Iterator[Tuple[int, PacketRow]], size: int
) -> Iterator[Tuple[np.ndarray, PacketArray]]:
    """Group row-parser output into blocks of at most ``size`` rows.

    On an error the rows parsed before it are yielded first, so a
    consumer checking *between* rows (the stream prepass's sortedness
    check) reports the earlier defect, as a row-by-row reader would.
    """
    batch: List[Tuple[int, PacketRow]] = []

    def flush() -> Tuple[np.ndarray, PacketArray]:
        line_numbers = np.array([line for line, _ in batch], dtype=np.int64)
        packets = packets_from_rows([row for _, row in batch])
        batch.clear()
        return line_numbers, packets

    try:
        for item in rows:
            batch.append(item)
            if len(batch) >= size:
                yield flush()
    except (TraceError, csv.Error):
        if batch:
            yield flush()
        raise
    if batch:
        yield flush()


def iter_packet_blocks(
    path: PathLike,
    registry: AppRegistry,
    on_bad_row: Optional[Callable[[TraceError], None]] = None,
    inject: bool = False,
) -> Iterator[Tuple[np.ndarray, PacketArray]]:
    """Parse a packets CSV in blocks of at most 8192 lines.

    Yields ``(line_numbers, packets)`` pairs: the file line of every
    row and the rows as an unlabelled :class:`PacketArray`, in file
    order. The packet parser behind :func:`read_packets_csv` and
    :class:`repro.stream.CsvStreamSource`.

    Each block is parsed by numpy's C reader (``np.loadtxt``, whose
    float parsing is Python's own) and validated whole; its direction
    and app columns map through dicts built in first-appearance order,
    so the registry grows exactly as under :func:`iter_packet_rows`.
    A block the C path cannot prove identical — a parse error or a
    row-count mismatch, a string that fills its fixed width, a NUL or
    a line past csv's field size limit, a non-finite timestamp, an
    out-of-range ``size``/``conn``, an unknown direction or an empty
    app name — is re-read by the row parser, which then owns its
    errors, line numbers and quarantine (``on_bad_row``, as in
    :func:`iter_packet_rows`). So is the rest of the file from the
    first quote character on (a quoted field may span lines and
    blocks), a file whose header is not the schema's columns each
    once, and — with ``inject`` and a fault plan armed — every block,
    so ``io.packet_row`` fires once per row.
    """
    path = Path(path)
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        fieldnames = _check_packet_header(path, reader.fieldnames)

        def row_parsed(rows, first_line):
            return _row_blocks(
                _parse_rows(
                    rows, path, registry, on_bad_row, inject, first_line
                ),
                _PACKET_BLOCK_LINES,
            )

        dtype = _block_dtype(fieldnames) if _C_READER else None
        if dtype is None:
            yield from row_parsed(reader, 0)
            return
        consumed = reader.line_num
        while lines := list(islice(handle, _PACKET_BLOCK_LINES)):
            text = "".join(lines)
            if '"' in text:
                # A quoted field may span lines and blocks: the row
                # parser takes the rest of the file.
                rest = csv.DictReader(chain(lines, handle), fieldnames)
                yield from row_parsed(rest, consumed)
                return
            block = None
            if not (inject and faults.active_plan() is not None):
                block = _parse_block(text, lines, dtype, registry, consumed)
            if block is None:
                rows = csv.DictReader(lines, fieldnames)
                yield from row_parsed(rows, consumed)
            elif len(block[1]):
                yield block
            consumed += len(lines)


def read_packets_csv(path: PathLike, registry: AppRegistry) -> PacketArray:
    """Read a packets CSV, registering unseen app names.

    Parses through :func:`iter_packet_blocks`; returns a time-sorted
    :class:`PacketArray`.
    """
    blocks = [packets for _, packets in iter_packet_blocks(path, registry)]
    return PacketArray.concat(blocks).sorted_by_time()


#: One parsed events-CSV row, tagged by kind.
EventRow = Tuple[str, object]


def iter_event_rows(
    path: PathLike, registry: AppRegistry
) -> Iterator[EventRow]:
    """Lazily parse an events CSV into ``(kind, event)`` pairs.

    ``kind`` is ``"process"``/``"screen"``/``"input"``; ``event`` is the
    matching :mod:`repro.trace.events` record. Shared by the batch and
    streaming readers; malformed rows raise :class:`TraceError` naming
    the file and line number.
    """
    path = Path(path)
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        required = {"timestamp", "kind"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise TraceError(
                f"{path.name}: events CSV must have columns "
                f"{sorted(required)}, got {reader.fieldnames}"
            )
        for row in reader:
            try:
                yield _parse_event_row(row, registry)
            except (TraceError, ValueError, TypeError) as exc:
                raise TraceError(
                    f"{path.name}:{reader.line_num}: {exc}"
                ) from None


def _parse_event_row(row, registry: AppRegistry) -> EventRow:
    # csv.DictReader fills the fields a short row lacks with None.
    missing = [name for name in ("timestamp", "kind") if row[name] is None]
    if missing:
        raise TraceError(f"row has no {'/'.join(missing)} field")
    timestamp = float(row["timestamp"])
    kind = row["kind"].strip().lower()
    if kind == "process":
        state_name = (row.get("value") or "").strip().upper()
        try:
            state = ProcessState[state_name]
        except KeyError:
            raise TraceError(
                f"unknown process state {row.get('value')!r}"
            ) from None
        return kind, ProcessStateEvent(
            timestamp, _app_id(registry, row.get("app") or ""), state
        )
    if kind == "screen":
        value = (row.get("value") or "").strip().lower()
        if value not in ("on", "off"):
            raise TraceError(f"screen value must be on/off, got {value!r}")
        return kind, ScreenEvent(timestamp, value == "on")
    if kind == "input":
        return kind, UserInputEvent(
            timestamp, _app_id(registry, row.get("app") or "")
        )
    raise TraceError(f"unknown event kind {row['kind']!r}")


def read_events_csv(path: PathLike, registry: AppRegistry) -> EventLog:
    """Read an events CSV (process/screen/input streams)."""
    log = EventLog()
    for kind, event in iter_event_rows(path, registry):
        if kind == "process":
            log.add_process_event(event)
        elif kind == "screen":
            log.add_screen_event(event)
        else:
            log.add_input_event(event)
    return log


def dataset_from_csv(
    user_files: Sequence[Tuple[PathLike, Optional[PathLike]]],
    duration: Optional[float] = None,
    registry: Optional[AppRegistry] = None,
) -> Dataset:
    """Build a dataset from per-user (packets CSV, events CSV) pairs.

    Args:
        user_files: One ``(packets_csv, events_csv_or_None)`` per user;
            user ids are assigned 1..N in order.
        duration: Observation window length; defaults to the latest
            packet/event time across users, rounded up to a whole day.
        registry: Existing registry to extend; a fresh one by default.

    Packets are state-labelled from the event streams before return.
    """
    if not user_files:
        raise TraceError("at least one user is required")
    registry = registry if registry is not None else AppRegistry()
    parsed: List[Tuple[PacketArray, EventLog]] = []
    horizon = 0.0
    for packets_path, events_path in user_files:
        packets = read_packets_csv(packets_path, registry)
        events = (
            read_events_csv(events_path, registry)
            if events_path is not None
            else EventLog()
        )
        if len(packets):
            horizon = max(horizon, float(packets.timestamps[-1]))
        for event in events:
            horizon = max(horizon, event.timestamp)
        parsed.append((packets, events))
    if duration is None:
        duration = float(np.ceil(horizon / 86400.0) * 86400.0) or 86400.0
    users = [
        UserTrace(uid, 0.0, duration, packets, events)
        for uid, (packets, events) in enumerate(parsed, start=1)
    ]
    dataset = Dataset(registry, users, metadata={"source": "csv"})
    dataset.label_states()
    return dataset


def write_packets_csv(
    path: PathLike, packets: PacketArray, registry: AppRegistry
) -> None:
    """Write a packets CSV readable by :func:`read_packets_csv`."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["timestamp", "size", "direction", "app", "conn"])
        for rec in packets.data:
            writer.writerow(
                [
                    repr(float(rec["timestamp"])),
                    int(rec["size"]),
                    "up" if int(rec["direction"]) == int(Direction.UPLINK) else "down",
                    registry.name_of(int(rec["app"])),
                    int(rec["conn"]),
                ]
            )


def write_events_csv(
    path: PathLike, events: EventLog, registry: AppRegistry
) -> None:
    """Write an events CSV readable by :func:`read_events_csv`."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["timestamp", "kind", "app", "value"])
        for event in events.process_events:
            writer.writerow(
                [
                    repr(event.timestamp),
                    "process",
                    registry.name_of(event.app),
                    event.state.name.lower(),
                ]
            )
        for event in events.screen_events:
            writer.writerow(
                [repr(event.timestamp), "screen", "", "on" if event.on else "off"]
            )
        for event in events.input_events:
            writer.writerow(
                [repr(event.timestamp), "input", registry.name_of(event.app), ""]
            )
