"""The packets-CSV block reader against the row parser, its oracle.

:func:`repro.trace.io_text.iter_packet_blocks` parses blocks of lines
with numpy's C reader and hands every block it cannot prove identical
back to the row parser. These tests hold it to the row parser
(:func:`repro.trace.io_text.iter_packet_rows`) over generated files
full of the things real logs contain: blank lines, CRLF endings,
whitespace around fields, quoted names with commas, non-ASCII and
over-wide names, missing or empty ``conn``, extra columns, permuted
headers, garbage, unsorted rows and NaN/negative/huge values. Both
parsers must give bit-identical columns (timestamps compared as
``uint64`` views), the same registry JSON, and the same error — class
and message — or the same quarantined rows.

The streaming source built on the block reader is held to the batch
reader at random chunk sizes, skips and block bounds.
"""

from __future__ import annotations

import csv
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import StudyConfig, StudyEnergy, faults, generate_study
from repro.errors import TraceError
from repro.faults import FaultPlan, FaultSpec
from repro.stream import CsvStreamSource, StreamIngestor
from repro.trace import io_text
from repro.trace.arrays import PacketArray
from repro.trace.dataset import AppRegistry
from repro.trace.io_text import (
    dataset_from_csv,
    iter_packet_blocks,
    iter_packet_rows,
    read_packets_csv,
    write_events_csv,
    write_packets_csv,
)

COLUMNS = ("timestamp", "size", "direction", "app", "conn")

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


# ----------------------------------------------------------------------
# Generated packets CSVs
# ----------------------------------------------------------------------
_PAD = st.sampled_from(
    ["", "", "", " ", "\t", "  ", "\x0c", "\x0b", "\xa0", "\u2003", "\x85"]
)

#: Per column: (tokens the row parser accepts, tokens it rejects).
TOKENS = {
    "timestamp": (
        st.one_of(
            st.floats(0, 1e7).map(repr),
            st.floats(-1e3, 1e7).map(lambda x: f"{x:.3f}"),
            st.floats(allow_nan=False, allow_infinity=False).map(repr),
            st.sampled_from(
                [".5", "5.", "-0.0", "+3", "1E3", "4.9e-324", "00012.5",
                 "1.5e-3"]
            ),
        ),
        st.sampled_from(
            ["nan", "-nan", "inf", "-inf", "1e400", "1_0.5", "", " ", "x",
             "1.5e", "0x10", "\u0661.5", "Infinity"]
        ),
    ),
    "size": (
        st.one_of(
            st.integers(0, 2**32 - 1).map(str),
            st.sampled_from(["+7", "-0", "007", "4294967295"]),
        ),
        st.one_of(
            st.integers(-(2**33), -1).map(str),
            st.integers(2**32, 2**70).map(str),
            st.sampled_from(
                ["", "1.0", "1e3", "1_000", "###corrupt###", " ", "0x10",
                 "\u0667"]
            ),
        ),
    ),
    "direction": (
        st.sampled_from(
            ["up", "down", "UP", "Down", "uplink", "downlink", "0", "1",
             "DownLink"]
        ),
        st.sampled_from(
            ["sideways", "", " ", "dow n", "uplinkuplink",
             "down" + " " * 8 + "x", "up" + "\t" * 9 + "z"]
        ),
    ),
    "app": (
        st.integers(0, 7).flatmap(
            lambda k: st.sampled_from(
                ["com.a", "com.b", "org.c.d", "app.\u00fcn\u00efc\u00f6de",
                 "\u5e94\u7528", " com.a", "com.b\t", "tab\tinside"]
                if k
                else ["x" * 63, "y" * 64, "z" * 80]
            )
        ),
        st.sampled_from(["", "  ", "\t"]),
    ),
    "note": (st.text(max_size=4), st.text(max_size=4)),
}
TOKENS["conn"] = (
    TOKENS["size"][0],
    st.one_of(TOKENS["size"][1], st.just("")),
)

#: App names the writer must quote; the reader row-parses the rest of
#: a file from the first quote on, so only some files carry them.
QUOTED_APPS = st.sampled_from(["with,comma", 'say "hi"', "two\nlines"])


@st.composite
def packets_csv(draw):
    """The text of one generated packets CSV.

    Each file draws a noise level — clean, rare garbage or frequent
    garbage — so the C path's proofs and its fallbacks both get
    exercised.
    """
    header = list(COLUMNS)
    if draw(st.booleans()):
        header.remove("conn")
    if draw(st.integers(0, 7)) == 0:
        header.append("note")
    if draw(st.integers(0, 15)) == 0:
        header.remove(draw(st.sampled_from(header)))
    header = draw(st.permutations(header))
    noise = draw(st.sampled_from([0, 0, 50, 6]))
    quoting = draw(st.integers(0, 3)) == 0
    crlf = draw(st.integers(0, 3)) == 0
    ending = "\r\n" if crlf else "\n"
    out = io.StringIO()
    csv.writer(out, lineterminator=ending).writerow(header)
    for _ in range(draw(st.integers(0, 40))):
        shape = draw(st.integers(0, 9 if noise else 29))
        if shape == 0:
            out.write(ending)  # blank line
            continue
        fields = []
        for name in header:
            valid, invalid = TOKENS[name]
            bad = noise and draw(st.integers(1, noise)) == 1
            if name == "app" and quoting and draw(st.integers(0, 9)) == 0:
                valid = QUOTED_APPS
            token = draw(invalid if bad else valid)
            if name != "app":
                token = draw(_PAD) + token + draw(_PAD)
            fields.append(token)
        if shape == 1:
            fields.append("extra")
        elif shape == 2:
            fields.pop()
        elif shape == 3:
            fields = [draw(st.text(max_size=12))]
        csv.writer(out, lineterminator=ending).writerow(fields)
    return out.getvalue()


def _write(directory, text):
    path = directory / "p.csv"
    path.write_bytes(text.encode("utf-8"))
    return path


# ----------------------------------------------------------------------
# Running both parsers to a comparable outcome
# ----------------------------------------------------------------------
def _outcome(pairs, registry, errors, raised):
    """(lines, columns, registry JSON, quarantined, error) of one run."""
    lines = [line for line, _ in pairs]
    packets = [packets for _, packets in pairs]
    packets = PacketArray.concat(packets) if packets else PacketArray()
    return {
        "lines": np.array(lines, dtype=np.int64),
        "timestamps": packets.timestamps.view(np.uint64),
        "sizes": packets.sizes,
        "directions": packets.directions,
        "apps": packets.apps,
        "conns": packets.conns,
        "registry": registry.to_json(),
        "quarantined": [str(e) for e in errors],
        "error": raised,
    }


def run_rows(path, quarantine):
    registry, errors, rows, raised = AppRegistry(), [], [], None
    try:
        for line, row in iter_packet_rows(
            path,
            registry,
            on_bad_row=errors.append if quarantine else None,
            with_line_numbers=True,
        ):
            rows.append((line, row))
    except Exception as exc:  # compared by class and message below
        raised = (type(exc), str(exc))
    pairs = [(line, io_text.packets_from_rows([row])) for line, row in rows]
    return _outcome(pairs, registry, errors, raised)


def run_blocks(path, quarantine, block_lines):
    registry, errors, pairs, raised = AppRegistry(), [], [], None
    blocks = iter_packet_blocks(
        path, registry, on_bad_row=errors.append if quarantine else None
    )
    with mock.patch.object(io_text, "_PACKET_BLOCK_LINES", block_lines):
        try:
            for line_numbers, packets in blocks:
                assert 0 < len(packets) <= block_lines
                assert len(line_numbers) == len(packets)
                pairs.extend(
                    (int(line), packets[i : i + 1])
                    for i, line in enumerate(line_numbers)
                )
        except AssertionError:
            raise
        except Exception as exc:
            raised = (type(exc), str(exc))
    return _outcome(pairs, registry, errors, raised)


def assert_same(expected, actual):
    for key, value in expected.items():
        if isinstance(value, np.ndarray):
            assert value.dtype == actual[key].dtype, key
            assert np.array_equal(value, actual[key]), key
        else:
            assert value == actual[key], key


# ----------------------------------------------------------------------
# Differential suite
# ----------------------------------------------------------------------
@SETTINGS
@given(
    text=packets_csv(),
    quarantine=st.booleans(),
    block_lines=st.integers(1, 50),
)
def test_blocks_match_row_parser(tmp_path, text, quarantine, block_lines):
    path = _write(tmp_path, text)
    expected = run_rows(path, quarantine)
    assert_same(expected, run_blocks(path, quarantine, block_lines))


@SETTINGS
@given(text=packets_csv(), block_lines=st.integers(1, 50))
def test_batch_reader_matches_row_parser(tmp_path, text, block_lines):
    """read_packets_csv returns the oracle's rows, time-sorted, or
    raises its error."""
    path = _write(tmp_path, text)
    expected = run_rows(path, quarantine=False)
    registry = AppRegistry()
    with mock.patch.object(io_text, "_PACKET_BLOCK_LINES", block_lines):
        try:
            packets = read_packets_csv(path, registry)
        except Exception as exc:
            assert expected["error"] == (type(exc), str(exc))
            return
    assert expected["error"] is None
    order = np.argsort(expected["timestamps"].view(np.float64), kind="stable")
    assert np.array_equal(
        packets.timestamps.view(np.uint64), expected["timestamps"][order]
    )
    assert np.array_equal(packets.apps, expected["apps"][order])
    assert np.array_equal(packets.sizes, expected["sizes"][order])
    assert registry.to_json() == expected["registry"]


@pytest.mark.parametrize(
    "text, message",
    [
        ("1.0,-1,up,a,1\n", "size -1 out of range"),
        ("1.0,4294967296,up,a,1\n", "size 4294967296 out of range"),
        ("1.0,10,up,a,-3\n", "conn -3 out of range"),
        ("1.0,10,up,a,4294967296\n", "conn 4294967296 out of range"),
        ("nan,10,up,a,1\n", "non-finite timestamp 'nan'"),
        ("-inf,10,up,a,1\n", "non-finite timestamp '-inf'"),
        ("1.0,10\n", "missing packet direction"),
        ("1.0,10,up\n", "packet/event row with empty app name"),
    ],
)
def test_out_of_range_fields_are_typed_and_located(tmp_path, text, message):
    """Out-of-range sizes/conns and non-finite timestamps raise a
    located TraceError (never a bare OverflowError), in both parsers."""
    path = _write(tmp_path, "timestamp,size,direction,app,conn\n" + text)
    with pytest.raises(TraceError, match=rf"p\.csv:2: {message}"):
        read_packets_csv(path, AppRegistry())
    with pytest.raises(TraceError, match=rf"p\.csv:2: {message}"):
        list(iter_packet_rows(path, AppRegistry()))
    errors = []
    assert list(iter_packet_blocks(path, AppRegistry(), errors.append)) == []
    assert len(errors) == 1


HEADER = ",".join(COLUMNS) + "\n"


@pytest.mark.parametrize("block_lines", [1, 2, 3, 8192])
@pytest.mark.parametrize("quarantine", [False, True])
@pytest.mark.parametrize(
    "body",
    [
        # a name over the string width, truncated by the C reader
        "1.0,10,up,a,1\n2.0,10,up," + "z" * 80 + ",1\n3.0,10,up,a,1\n",
        # a direction whose truncation would read as valid
        "1.0,10,up,a,1\n2.0,10,down" + " " * 8 + "x,b,1\n3.0,1,up,a,1\n",
        # quoted fields, one spanning lines (and block bounds)
        '1.0,10,up,a,1\n2.0,10,up,"b\nc",1\n3.0,10,up,"say ""hi""",1\n',
        '1.0,10,up,a,1\n2.0,10,up,"b,c",1\n3.0,10,up,a,1\n',
        # NUL bytes (a csv error before Python 3.11, a character after)
        "1.0,10,up,a,1\n2.0,10,up,b\x00c,1\n",
        # a field past csv's size limit (the C reader would take it)
        "1.0,10,up,a,1\n" + " " * 140_000 + "2.0,10,up,b,1\n",
        # lone CR line ends, CRLF, and blank lines
        "1.0,10,up,a,1\r2.0,10,up,b,1\r\n\n\r\n3.0,10,down,c,1\n",
        # whitespace-only and field-less lines are rows to csv
        "1.0,10,up,a,1\n \n,,,,\n3.0,10,up,a,1\n",
        # out-of-range and non-finite values
        "1.0,4294967296,up,a,1\n2.0,10,up,b,-1\nnan,1,up,c,1\n",
        "1.0,10,up,a,1\n2.0,10,up,b,4294967296\n3.0,10,up,c,0\n",
        # short and long rows, empty conn, empty app
        "1.0,10,up\n2.0,10,up,b\n3.0,10,up,c,,extra\n4.0,1,up,  ,1\n",
    ],
)
def test_fallback_cases(tmp_path, body, quarantine, block_lines):
    """Every reason the C path hands a block back, at block bounds
    before, on and after the offending row."""
    path = _write(tmp_path, HEADER + body)
    expected = run_rows(path, quarantine)
    assert_same(expected, run_blocks(path, quarantine, block_lines))


def test_clean_blocks_take_the_c_path(tmp_path):
    """A clean file never reaches the row parser: the fast path is the
    one that runs, not just the one that is tested."""
    rows = "".join(
        f"{i},app{i % 7},{'up' if i % 3 else 'down'},{60 + i},{0.5 * i!r}\n"
        for i in range(1000)
    )
    path = _write(tmp_path, "conn,app,direction,size,timestamp\n" + rows)
    expected = run_rows(path, quarantine=False)
    with mock.patch.object(
        io_text, "_parse_rows", side_effect=AssertionError("row path")
    ):
        actual = run_blocks(path, quarantine=False, block_lines=64)
    assert_same(expected, actual)


def test_armed_plan_fires_once_per_row(tmp_path):
    """With a fault plan armed, an injecting read goes row by row so
    ``io.packet_row`` fires exactly once per row."""
    rows = "".join(f"{float(i)!r},60,up,app{i % 3},1\n" for i in range(300))
    path = _write(tmp_path, ",".join(COLUMNS) + "\n" + rows + "\n")
    plan = FaultPlan([FaultSpec("io.packet_row", "corrupt", hit=10**9)])
    with faults.installed(plan):
        blocks = list(iter_packet_blocks(path, AppRegistry(), inject=True))
        assert faults.fire_count("io.packet_row") == 300
    assert sum(len(packets) for _, packets in blocks) == 300


# ----------------------------------------------------------------------
# CsvStreamSource on the block reader vs the batch reader
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def csv_pairs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("csv_blocks")
    dataset = generate_study(StudyConfig(n_users=2, duration_days=1, seed=8))
    pairs = []
    for trace in dataset:
        p = directory / f"u{trace.user_id}_packets.csv"
        e = directory / f"u{trace.user_id}_events.csv"
        write_packets_csv(p, trace.packets, dataset.registry)
        write_events_csv(e, trace.events, dataset.registry)
        pairs.append((p, e))
    return pairs, dataset_from_csv(pairs)


@settings(max_examples=40, deadline=None)
@given(
    chunk_size=st.integers(1, 6000),
    skip=st.integers(0, 9000),
    block_lines=st.integers(1, 5000),
)
def test_stream_chunks_match_batch(csv_pairs, chunk_size, skip, block_lines):
    pairs, batch = csv_pairs
    with mock.patch.object(io_text, "_PACKET_BLOCK_LINES", block_lines):
        source = CsvStreamSource(pairs, chunk_size=chunk_size)
        assert source.registry.to_json() == batch.registry.to_json()
        for trace in batch:
            chunks = list(source.iter_chunks(trace.user_id, skip=skip))
            assert all(len(c) == chunk_size for c in chunks[:-1])
            assert all(0 < len(c) <= chunk_size for c in chunks)
            streamed = PacketArray.concat(chunks).data
            assert streamed.tobytes() == trace.packets.data[skip:].tobytes()


@settings(max_examples=6, deadline=None)
@given(chunk_size=st.integers(50, 5000), block_lines=st.integers(1, 3000))
def test_stream_totals_match_batch(csv_pairs, chunk_size, block_lines):
    pairs, batch = csv_pairs
    study = StudyEnergy(batch)
    with mock.patch.object(io_text, "_PACKET_BLOCK_LINES", block_lines):
        result = StreamIngestor(
            CsvStreamSource(pairs, chunk_size=chunk_size)
        ).run()
    for name in ("energy_by_app", "energy_by_app_state", "energy_by_state"):
        expected, actual = getattr(study, name)(), getattr(result, name)()
        assert list(expected) == list(actual)
        assert np.array_equal(
            np.array(list(expected.values())), np.array(list(actual.values()))
        )
    assert study.bytes_by_app() == result.bytes_by_app()
