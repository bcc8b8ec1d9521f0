"""Ingestion, sessionization, and splitting: worked examples, the
segmentation invariants checked by brute force against raw events, and the
flat event and session tables against the per-user statement of
tests/_reference.py."""

import csv
import io
import json
import os
import re
import tempfile
from contextlib import nullcontext
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _reference as ref
from churnkit import eventlog, simulate
from churnkit.cli import main
from churnkit.errors import DataError
from churnkit.eventlog import (
    Session,
    SessionSequence,
    event_table,
    read_sessions,
    session_table,
    split_users,
    write_json,
    write_session_table,
    write_sessions,
    write_table,
)


def _csv(text):
    return io.StringIO(text)


def _cols(table):
    """An event table as lists: the (user, rank) pairs in dict order, the ranks and the hours."""
    users, rank, hours = table
    return list(users.items()), rank.tolist(), hours.tolist()


def _bits(table):
    """``_cols`` with the exact bits of each time (-0.0 is not 0.0)."""
    users, rank, hours = _cols(table)
    return users, rank, [t.hex() for t in hours]


def _one_user(ts):
    """session_table's users, ranks and hours for the sorted times ts of one user "u"."""
    return ["u"], np.zeros(len(ts), np.uint8), np.asarray(ts, np.float64)


def _row_loop():
    """Send every block of a CSV to the row loop."""
    return mock.patch.object(eventlog, "_csv_columns", lambda *args: None)


def _spy_columns(results):
    """Record what the column parse returns for each block."""
    real = eventlog._csv_columns

    def spy(*args):
        results.append(real(*args))
        return results[-1]

    return mock.patch.object(eventlog, "_csv_columns", spy)


_PAD = st.sampled_from(["", " ", "\t", "  "])


@st.composite
def _clean_csv(draw):
    """A CSV the column parse takes whole: user ids and times with whitespace
    around them, duplicate, unsorted and interleaved rows, extra columns."""
    cols = draw(st.permutations(["user_id", "timestamp"] + ["x", "y"][: draw(st.integers(0, 2))]))
    stamp = st.one_of(
        st.sampled_from(["0", "0.0", "-0.0", "1.5", "-2", "3600", "7200.25", "1e3", "1_000"]),
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.integers(-(10**7), 10**7).map(str),
    )
    value = {
        "user_id": st.sampled_from(["a", "b", "u1", "42", "ü"]),
        "timestamp": stamp,
        "x": st.text("xy 0.", max_size=3),
        "y": st.text("xy 0.", max_size=3),
    }
    row = st.tuples(*(st.tuples(_PAD, value[c], _PAD).map("".join) for c in cols)).map(",".join)
    rows = draw(st.lists(row, min_size=1, max_size=40))
    rows = draw(st.permutations(rows + draw(st.lists(st.sampled_from(rows), max_size=10))))
    header = ",".join(draw(_PAD) + c for c in cols)
    return "\n".join([header, *rows]) + draw(st.sampled_from(["\n", ""]))


class TestIngest:
    def test_direct_parse(self):
        got = event_table(_csv("user_id,timestamp\nu1,0.0\nu1,1.5\nu2,2.0\n"))
        assert _cols(got) == ([("u1", 0), ("u2", 1)], [0, 0, 1], [0.0, 1.5, 2.0])

    def test_out_of_order_rows_are_sorted(self):
        # by user rank, then time; the users stay in order of first appearance
        got = event_table(_csv("user_id,timestamp\nu2,5.0\nu1,3.0\nu2,1.0\n"))
        assert _cols(got) == ([("u2", 1), ("u1", 0)], [0, 1, 1], [3.0, 1.0, 5.0])

    def test_exact_duplicates_dropped(self):
        got = event_table(_csv("user_id,timestamp\nu1,1.0\nu1,1.0\n"))
        assert _cols(got) == ([("u1", 0)], [0], [1.0])

    def test_malformed_row_names_line_number(self):
        with pytest.raises(DataError, match="line 3"):
            event_table(_csv("user_id,timestamp\nu1,1.0\nu1\n"))

    def test_unparseable_timestamp_names_line(self):
        with pytest.raises(DataError, match="line 2.*nonsense"):
            event_table(_csv("user_id,timestamp\nu1,nonsense\n"))

    def test_header_required(self):
        with pytest.raises(DataError, match="header"):
            event_table(_csv("u1,1.0\nu1,2.0\n"))

    def test_jsonl_and_iso8601(self):
        lines = "\n".join(
            [
                json.dumps({"user_id": "a", "timestamp": 7200}),
                json.dumps({"user_id": "a", "timestamp": "1970-01-01T03:00:00Z"}),
            ]
        )
        got = event_table(io.StringIO(lines), fmt="jsonl", time_unit="seconds")
        assert _cols(got) == ([("a", 0)], [0, 0], [2.0, 3.0])

    def test_numeric_hours_is_the_default_unit(self):
        got = event_table(_csv("user_id,timestamp\nu1,36.5\n"))
        assert _cols(got) == ([("u1", 0)], [0], [36.5])

    def test_jsonl_bad_line(self):
        with pytest.raises(DataError, match="line 2"):
            event_table(io.StringIO('{"user_id":"a","timestamp":1}\n{oops\n'), fmt="jsonl")

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        text=_clean_csv(),
        time_unit=st.sampled_from(["hours", "seconds"]),
        block=st.sampled_from([8, 64, 1 << 20]),
        newline=st.sampled_from(["\n", "\r\n"]),
    )
    def test_column_parse_equals_row_loop(self, text, time_unit, block, newline):
        text = text.replace("\n", newline)  # CRLF lines stay on the column parse too
        results = []
        with mock.patch.object(eventlog, "BLOCK_CHARS", block), _spy_columns(results):
            got = event_table(_csv(text), time_unit=time_unit)
        assert results and all(r is not None for r in results)  # no row loop
        with _row_loop():
            want = event_table(_csv(text), time_unit=time_unit)
        assert _bits(got) == _bits(want)
        assert got[1].dtype == want[1].dtype and got[2].dtype == want[2].dtype == np.float64

    def test_lines_of_other_lengths_go_to_the_row_loop(self):
        # 2 fields, then 4: as many as two lines of 3, but in other places
        got = event_table(_csv("user_id,timestamp,x\nu2,2.0\nu1,5,7,9\n"))
        assert _cols(got) == ([("u2", 1), ("u1", 0)], [0, 1], [5.0, 2.0])

    def test_first_of_equal_times_stays(self):
        # 0.0 == -0.0, so, as in a set, a user keeps the first of them
        rng = np.random.default_rng(7)
        middle = [f"u{i % 3},{rng.choice(['0.0', '-0.0', '0', '1.5'])}\n" for i in range(3000)]
        text = "user_id,timestamp\nu0,-0.0\nu1,-0.0\nu2,-0.0\n" + "".join(middle) + "u0,0\nu1,0\nu2,0\n"
        with _row_loop():
            want = event_table(_csv(text))
        first = ["-0x0.0p+0", "0x1.8000000000000p+0"] * 3  # -0.0, 1.5 for each user
        assert _bits(event_table(_csv(text))) == _bits(want) == ([(f"u{i}", i) for i in range(3)], [0, 0, 1, 1, 2, 2],
                                                                  first)


# 12 clean lines (2 to 13), so that a tail at line 14 is in a later block
_HEAD = "user_id,timestamp\n" + "".join(f"u{i % 3},{i}.5\n" for i in range(12))


@pytest.mark.parametrize(
    "tail, message",
    [
        ("u1,abc\n", "line 14: unparseable timestamp 'abc'"),
        ("u1\n", "line 14: expected 2 fields, got 1"),
        ("\n", None),
        ('"u,1",2.0\n', None),
        ('"u,1",3.0\r\nu2,4.0\r\n', None),
        ("u1,3.0\ru2,4.0\n", None),
        ("u1,nan\n", "line 14: non-finite timestamp"),
        ("u1,-inf\n", "line 14: non-finite timestamp"),
        ("u1,1970-01-01T03:00:00Z\n", None),
        (" ,1.0\n", "line 14: empty user_id"),
    ],
    ids=["bad-value", "short-row", "blank-line", "quoted", "crlf", "lone-cr", "nan", "inf", "iso", "empty-user"],
)
def test_row_loop_takes_over_in_a_later_block(tmp_path, capsys, tail, message):
    # the same events, or the same message, line and exit code, as the row loop alone
    events = tmp_path / "events.csv"
    events.write_text(_HEAD + tail + "u9,99.0\n", newline="")

    def run(out):
        code = main(["sessionize", "--in", str(events), "--out", str(out)])
        return code, capsys.readouterr().err, out.read_text() if out.exists() else None

    results = []
    with mock.patch.object(eventlog, "BLOCK_CHARS", 16), _spy_columns(results):
        got = run(tmp_path / "blocks.jsonl")
    assert results[0] is not None and results[-1] is None
    with _row_loop():
        want = run(tmp_path / "rows.jsonl")
    assert got == want
    if message is None:
        assert got[0] == 0
    else:
        assert got[0] == 2 and message in got[1]


# the first five need no CSV quotes; the last three send a CSV to the row loop
_IDS = ["u1", "u2", "42", "\u00fc\u4e2d", "t\tb\\s", 'q"t', "a,b", "l\nb"]
# steps of exactly 0.25, 0.5 and 1.0 among them, also as seconds (x 3600)
_STAMPS = [0.0, -0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 2.0, 3.5, -1.5, 1e-9]


def _csv_field(user):
    return '"' + user.replace('"', '""') + '"' if any(c in user for c in ',"\n') else user


@st.composite
def _events(draw):
    """(user, timestamp) rows in file order: duplicate, unsorted and interleaved."""
    ids = draw(st.lists(st.sampled_from(_IDS), min_size=1, max_size=4, unique=True))
    stamp = st.one_of(st.sampled_from(_STAMPS), st.floats(-1e4, 1e4))
    return draw(st.lists(st.tuples(st.sampled_from(ids), stamp), min_size=1, max_size=60))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    rows=_events(),
    fmt=st.sampled_from(["csv", "jsonl"]),
    time_unit=st.sampled_from(["hours", "seconds"]),
    threshold=st.sampled_from([0.25, 0.5, 1.0]),
    gap_mode=st.sampled_from(["start-to-start", "end-to-start"]),
    block=st.sampled_from([16, 1 << 20]),
)
# the row loop takes over in a later block, at the quoted id
@example(rows=[("u1", 0.0), ("u2", 1.0), ("u1", 0.5), ("u2", -0.0), ('q"t', 3.0), ("u1", 0.5), ("u1", -0.0)],
         fmt="csv", time_unit="hours", threshold=0.5, gap_mode="end-to-start", block=16)
def test_sessionize_equals_the_per_user_reference(rows, fmt, time_unit, threshold, gap_mode, block):
    # the CLI's sessions file, byte for byte, and event_table's columns, user order and bits
    scale = 3600.0 if time_unit == "seconds" else 1.0
    stamps = [t * scale for _, t in rows]
    want = ref.ingest((user, float(repr(t)) / scale) for (user, _), t in zip(rows, stamps))
    if fmt == "csv":
        text = "user_id,timestamp\n" + "".join(f"{_csv_field(u)},{t!r}\n" for (u, _), t in zip(rows, stamps))
    else:
        text = "".join(json.dumps({"user_id": u, "timestamp": t}) + "\n" for (u, _), t in zip(rows, stamps))
    flags = ["--format", fmt, "--time-unit", time_unit, "--session-threshold-hours", repr(threshold),
             "--gap-mode", gap_mode]
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(eventlog, "BLOCK_CHARS", block):
        events, got, expected = Path(tmp, "events"), Path(tmp, "got.jsonl"), Path(tmp, "want.jsonl")
        events.write_text(text, encoding="utf-8", newline="")
        assert main(["sessionize", "--in", str(events), "--out", str(got), *flags]) == 0
        table = event_table(events, fmt, time_unit)
        sequences = [ref.sessionize(user, want[user], threshold, gap_mode) for user in sorted(want)]
        write_sessions(sequences, expected)
        assert got.read_bytes() == expected.read_bytes() == ref.sessions_text(sequences).encode()
    ids = sorted(want)
    assert _bits(table) == ([(user, ids.index(user)) for user in want],
                            [r for r, user in enumerate(ids) for _ in want[user]],
                            [t.hex() for user in ids for t in want[user]])


class TestAdapters:
    """event_table's user order, session_table's checks of its arguments and
    of its gaps, and session_table against the per-user reference."""

    def test_ingest_keeps_the_order_of_first_appearance(self):
        text = "user_id,timestamp\nz,3\na,-0.0\nz,1\nm,2\na,0\na,-1\n"
        for parse in (nullcontext, _row_loop):  # the block parse, then the row loop
            with parse():
                got = event_table(_csv(text))
            assert _bits(got) == ([("z", 2), ("a", 0), ("m", 1)], [0, 0, 1, 2, 2],
                                  ["-0x1.0000000000000p+0", "-0x0.0p+0", "0x1.0000000000000p+1",
                                   "0x1.0000000000000p+0", "0x1.8000000000000p+1"])

    @pytest.mark.parametrize("threshold", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_threshold(self, threshold):
        message = f"session_table: threshold must be finite and positive, got {threshold}"
        with pytest.raises(ValueError, match=re.escape(message)):
            session_table(*_one_user([1.0, 2.0]), threshold)

    def test_bad_gap_mode(self):
        with pytest.raises(ValueError, match="session_table: unknown gap_mode 'both'"):
            session_table(*_one_user([1.0]), 1.0, "both")

    def test_no_events_and_unsorted_name_the_first_user(self):
        with pytest.raises(DataError, match="event file contains no events"):
            event_table(io.StringIO("\n\n"), fmt="jsonl")
        # rows out of order come out by user rank, then time; of two users whose
        # gaps overflow, the first in rank order is named, with its session's start
        users, rank, hours = event_table(_csv("user_id,timestamp\nc,1e308\nc,-1e308\nb,1e308\na,1\nb,-1e308\n"))
        assert list(users.items()) == [("c", 2), ("b", 1), ("a", 0)]
        assert (rank.tolist(), hours.tolist()) == ([0, 1, 1, 2, 2], [1.0, -1e308, 1e308, -1e308, 1e308])
        for gap_mode in ("start-to-start", "end-to-start"):
            with pytest.raises(DataError, match=re.escape("Session: bad gap inf (user 'b', session at t = 1e+308)")):
                session_table(sorted(users), rank, hours, 1.0, gap_mode)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        per_user=st.dictionaries(st.sampled_from(_IDS), st.lists(st.sampled_from(_STAMPS), min_size=1, max_size=20)
                                 .map(sorted), min_size=1, max_size=4),
        threshold=st.sampled_from([0.25, 0.5, 1.0]),
        gap_mode=st.sampled_from(["start-to-start", "end-to-start"]),
    )
    def test_sessionize_equals_the_reference_duplicates_kept(self, per_user, threshold, gap_mode):
        ids = sorted(per_user)
        want = [ref.sessionize(user, per_user[user], threshold, gap_mode) for user in ids]
        rank = np.repeat(np.arange(len(ids), dtype=np.uint8), [len(per_user[user]) for user in ids])
        first, t, g, d = session_table(ids, rank, np.concatenate([per_user[user] for user in ids]), threshold, gap_mode)
        cells = lambda t, g, d: list(zip(map(float.hex, t.tolist()), map(float.hex, g.tolist()), d.tolist()))
        assert first.tolist() == np.cumsum([0, *map(len, want)]).tolist()
        assert cells(t, g, d) == [(s.t.hex(), s.g.hex(), s.d) for q in want for s in q.sessions]
        for q in want:  # each user alone gives its own rows
            _, *alone = session_table(*_one_user(per_user[q.user_id]), threshold, gap_mode)
            assert cells(*alone) == [(s.t.hex(), s.g.hex(), s.d) for s in q.sessions]


class TestSessionize:
    def test_hand_traced_example(self):
        first, t, g, d = session_table(*_one_user([0.0, 0.4, 0.9, 5.0, 5.2]), threshold=1.0)
        assert (first.tolist(), t.tolist(), g.tolist(), d.tolist()) == ([0, 2], [0.0, 5.0], [0.0, 5.0], [3, 2])

    def test_singleton(self):
        first, t, g, d = session_table(*_one_user([3.0]), threshold=1.0)
        assert (first.tolist(), t.tolist(), g.tolist(), d.tolist()) == ([0, 1], [3.0], [0.0], [1])

    def test_boundary_is_exclusive(self):
        # a gap exactly equal to the threshold starts a new session
        _, t, g, _ = session_table(*_one_user([0.0, 1.0]), threshold=1.0)
        assert len(t) == 2
        assert g[1] == pytest.approx(1.0)

    def test_end_to_start_gap_mode(self):
        _, _, g, _ = session_table(*_one_user([0.0, 0.4, 5.0]), threshold=1.0, gap_mode="end-to-start")
        assert g[1] == pytest.approx(5.0 - 0.4)
        _, _, g2, _ = session_table(*_one_user([0.0, 0.4, 5.0]), threshold=1.0)
        assert g2[1] == pytest.approx(5.0)

    def test_empty_events_rejected(self):
        with pytest.raises(DataError, match="event file contains no events"):
            event_table(_csv("user_id,timestamp\n"))
        with pytest.raises(DataError, match="empty event file"):
            event_table(_csv(""))

    def test_duration_sum_equals_event_count(self):
        # 50 users in one table: each user's durations add up to its events
        rng = np.random.default_rng(2)
        per_user = [np.unique(rng.uniform(0, 100, size=rng.integers(1, 200))) for _ in range(50)]
        rank = np.repeat(np.arange(50, dtype=np.uint8), list(map(len, per_user)))
        first, _, _, d = session_table([f"u{k}" for k in range(50)], rank, np.concatenate(per_user), threshold=0.5)
        assert np.add.reduceat(d, first[:-1]).tolist() == list(map(len, per_user))

    def test_gap_and_within_session_invariants(self):
        rng = np.random.default_rng(3)
        psi = 0.75
        for _ in range(50):
            ts = np.unique(np.sort(rng.uniform(0, 60, size=150)))
            _, t, g, d = session_table(*_one_user(ts), threshold=psi)
            # brute force: find each session's events again
            starts = t.tolist()
            for i in range(1, len(starts)):
                assert g[i] >= psi
                assert g[i] == pytest.approx(starts[i] - starts[i - 1])
            bounds = starts + [np.inf]
            for i in range(len(starts)):
                inside = ts[(ts >= bounds[i]) & (ts < bounds[i + 1])]
                assert len(inside) == d[i]
                if len(inside) > 1:
                    assert np.max(np.diff(inside)) < psi

    def test_coarsening_is_monotone_in_threshold(self):
        rng = np.random.default_rng(4)
        ts = np.unique(np.sort(rng.uniform(0, 40, size=300)))
        counts = [len(session_table(*_one_user(ts), threshold=t)[1]) for t in (0.05, 0.1, 0.3, 0.9, 2.7)]
        assert all(b <= a for a, b in zip(counts, counts[1:]))

    def test_reconstruction_roundtrip(self):
        # rebuild synthetic events from a sessionization's own output and
        # re-sessionize: the result must be identical
        rng = np.random.default_rng(5)
        ts = np.unique(np.sort(rng.uniform(0, 80, size=220)))
        psi = 1.0
        _, t, _, d = session_table(*_one_user(ts), threshold=psi)
        rebuilt = []
        for start, n in zip(t.tolist(), d.tolist()):
            step = min(0.01, psi / (2.0 * n))
            rebuilt.extend(start + k * step for k in range(n))
        _, t2, _, d2 = session_table(*_one_user(sorted(rebuilt)), threshold=psi)
        assert (t2.tolist(), d2.tolist()) == (t.tolist(), d.tolist())

    def test_determinism(self):
        ts = [0.0, 0.2, 3.0, 3.1, 9.0]
        a = session_table(*_one_user(ts), threshold=1.0)
        b = session_table(*_one_user(ts), threshold=1.0)
        assert [col.tolist() for col in a] == [col.tolist() for col in b]


class TestSplitUsers:
    def _many(self, n):
        return [
            SessionSequence(f"u{i:03d}", [Session(t=0.0, g=0.0, d=1)]) for i in range(n)
        ]

    def test_sizes_and_reproducibility(self):
        seqs = self._many(10)
        tr1, te1 = split_users(seqs, 0.8, seed=7)
        tr2, te2 = split_users(seqs, 0.8, seed=7)
        assert len(tr1) == 8 and len(te1) == 2
        assert [s.user_id for s in tr1] == [s.user_id for s in tr2]
        assert [s.user_id for s in te1] == [s.user_id for s in te2]

    def test_two_users_half(self):
        tr, te = split_users(self._many(2), 0.5, seed=0)
        assert len(tr) == 1 and len(te) == 1

    def test_partition_is_disjoint_and_complete(self):
        seqs = self._many(23)
        for seed in range(5):
            tr, te = split_users(seqs, 0.8, seed=seed)
            assert len(tr) == 18 and len(te) == 5
            ids = sorted(s.user_id for s in tr) + sorted(s.user_id for s in te)
            assert sorted(ids) == sorted(s.user_id for s in seqs)

    def test_requires_two_users(self):
        with pytest.raises(DataError):
            split_users(self._many(1), 0.8, seed=0)

    def test_fraction_domain(self):
        with pytest.raises(ValueError):
            split_users(self._many(4), 1.2, seed=0)


class TestSessionsIO:
    def test_roundtrip(self, tmp_path):
        users, rank, hours = event_table(_csv("user_id,timestamp\nb,0.0\nb,0.1\nb,4.0\na,2.0\n"))
        ids = sorted(users)  # user-sorted
        first, t, g, d = session_table(ids, rank, hours, threshold=1.0)
        path = tmp_path / "sessions.jsonl"
        write_session_table(path, ids, first, t, g, d)
        back = read_sessions(path)
        assert [s.user_id for s in back] == ["a", "b"]
        assert first.tolist() == [0, 1, 3]
        assert [(s.t, s.g, s.d) for q in back for s in q.sessions] == list(zip(t.tolist(), g.tolist(), d.tolist()))

    def test_read_rejects_garbage(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text("not json\n")
        with pytest.raises(DataError, match="line 1"):
            read_sessions(p)

    @pytest.mark.parametrize("gap_mode", ["start-to-start", "end-to-start"])
    def test_sessionized_files_load(self, tmp_path, gap_mode):
        rng = np.random.default_rng(6)
        hours = np.concatenate([np.sort(4.4e5 + rng.uniform(0, 500, size=300)) for _ in "ab"])
        first, t, g, d = session_table(["a", "b"], np.repeat(np.uint8([0, 1]), 300), hours, 0.5, gap_mode)
        write_session_table(tmp_path / "s.jsonl", ["a", "b"], first, t, g, d)
        back = read_sessions(tmp_path / "s.jsonl")
        assert [len(q) for q in back] == np.diff(first).tolist()
        assert [(s.t, s.g, s.d) for q in back for s in q.sessions] == list(zip(t.tolist(), g.tolist(), d.tolist()))

    def test_simulated_files_load(self, tmp_path):
        # simulate adds each gap to the last start time, so about half the gaps
        # exceed their start difference by a rounding error
        spec = simulate.GeneratorSpec(kind="stationary", users=3, horizon=2000.0, mean_gap=0.3)
        seqs, _ = simulate.generate(spec, 3)
        assert any(b.g > b.t - a.t for q in seqs for a, b in zip(q.sessions, q.sessions[1:]))
        write_sessions(seqs, tmp_path / "s.jsonl")
        assert len(read_sessions(tmp_path / "s.jsonl")) == 3

    def test_session_invariants_enforced(self):
        with pytest.raises(DataError):
            Session(t=0.0, g=0.0, d=0)
        with pytest.raises(DataError):
            Session(t=0.0, g=-1.0, d=1)
        with pytest.raises(DataError):
            SessionSequence("u", [])

    # each used to be read as a user of its own: "None", "True", "{'a': 1}", "" and "  "
    @pytest.mark.parametrize(
        "user, message",
        [
            (None, "line 2: user_id must be a string or an integer, got None"),
            (True, "line 2: user_id must be a string or an integer, got True"),
            ({"a": 1}, "line 2: user_id must be a string or an integer, got {'a': 1}"),
            ("", "line 2: empty user_id"),
            ("  ", "line 2: empty user_id"),
        ],
        ids=["null", "bool", "object", "empty", "blank"],
    )
    def test_read_rejects_a_user_id_that_is_not_a_string_or_an_integer(self, tmp_path, user, message):
        p = tmp_path / "s.jsonl"
        p.write_text("".join(json.dumps({"user_id": u, "sessions": [{"t": 0.0, "g": 0.0, "d": 1}]}) + "\n"
                             for u in ("u1", user)))
        with pytest.raises(DataError, match=re.escape(message)):
            read_sessions(p)

    def test_read_keeps_valid_user_ids_as_written(self, tmp_path):
        p = tmp_path / "s.jsonl"
        ids = [" a ", 7, "a,1", 'b"2', "0"]
        p.write_text("".join(json.dumps({"user_id": u, "sessions": [{"t": 0.0, "g": 0.0, "d": 1}]}) + "\n"
                             for u in ids))
        assert [s.user_id for s in read_sessions(p)] == [" a ", "7", "a,1", 'b"2', "0"]


class TestWriters:
    def test_write_table_fields(self, tmp_path):
        p = tmp_path / "t.csv"
        write_table(p, ("name", "x", "n", "missing"), [("u1", 0.1, 3, None), ("u2", 1e-300, -2, None)])
        # a float is its repr, None is "None", and nothing here needs quotes
        assert p.read_bytes() == b"name,x,n,missing\nu1,0.1,3,None\nu2,1e-300,-2,None\n"

    def test_write_table_quotes_only_what_needs_it(self, tmp_path):
        p = tmp_path / "t.csv"
        write_table(p, ("id", "x"), [("a,1", 1.5), ('b"2', 2.5), ("c\nd", 3.5), ("e\rf", 4.5), (" g ", 5.5)])
        assert p.read_bytes() == b'id,x\n"a,1",1.5\n"b""2",2.5\n"c\nd",3.5\n"e\rf",4.5\n g ,5.5\n'

    @pytest.mark.parametrize("extra", [[], [("a,b", 1)], [('q"', 2)], [("x\ny", 3)], [("", "")]],
                             ids=["plain", "comma", "quote", "newline", "empty"])
    def test_write_table_agrees_with_the_csv_module(self, tmp_path, extra):
        # tables that need no quotes and tables that do give what csv.writer gives
        rows = [("u1", 0.1, 3, True), ("", -0.0, 10**20, float("nan")), (" s ", 1e16, -7, "t"), *extra]
        p = tmp_path / "t.csv"
        write_table(p, ("a", "b", "c", "d"), rows)
        expected = io.StringIO()
        csv.writer(expected, lineterminator="\n").writerows([[str(v) for v in row] for row in [("a", "b", "c", "d"), *rows]])
        assert p.read_text() == expected.getvalue()

    def test_write_json_sorts_keys_and_ends_in_a_newline(self, tmp_path):
        p = tmp_path / "d.json"
        write_json(p, {"b": [1, 2.5], "a": None})
        assert p.read_text() == '{"a": null, "b": [1, 2.5]}\n'
        write_json(p, {"b": 1, "a": 2}, indent=1)
        assert p.read_text() == '{\n "a": 2,\n "b": 1\n}\n'

    @pytest.mark.parametrize("write", [
        lambda path: write_table(path, ("a",), [(1,)]),
        lambda path: write_json(path, {}),
        lambda path: write_session_table(path, ["u"], *session_table(*_one_user([0.0]), 1.0)),
    ], ids=["table", "json", "sessions"])
    def test_an_unwritable_path_is_a_data_error_naming_it(self, tmp_path, write):
        path = tmp_path / "missing" / "out"
        with pytest.raises(DataError, match=re.escape(f"cannot write {path}: No such file or directory")):
            write(path)
        with pytest.raises(DataError, match=re.escape(f"cannot write {tmp_path}: Is a directory")):
            write(tmp_path)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
    def test_a_failed_write_is_a_data_error(self):
        with pytest.raises(DataError, match="cannot write /dev/full: No space left on device"):
            write_json("/dev/full", {"a": 1})
