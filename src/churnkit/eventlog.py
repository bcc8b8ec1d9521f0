"""Event-log ingestion and sessionization.

Internal time unit is hours.  Raw logs arrive as CSV (header
``user_id,timestamp``) or JSONL objects ``{"user_id": ..., "timestamp": ...}``;
numeric timestamps are taken as hours unless ``time_unit="seconds"``, and
ISO-8601 strings are always converted to hours since the Unix epoch.

Sessionization runs on flat columns: ``event_table`` reads, sorts and
deduplicates every event once, ``session_table`` cuts every user's sessions at
once and ``write_session_table`` writes them; ``write_sessions`` writes
``SessionSequence`` objects (simulate's output) through it.

A CSV is parsed a column at a time, in blocks of whole lines, up to the first
block with a quote, a carriage return, a line of the wrong length, a timestamp
that is not a finite number or an empty user id; the ``csv`` row loop, which
names a failing line, reads from there on.  Either appends the same events
to the same columns, as JSONL does.

A session is a maximal run of one user's events whose consecutive gaps are
strictly below the threshold; a gap exactly equal to the threshold starts a
new session.  The stored gap of session i is start-to-start by default
(t_i - t_{i-1}); ``gap_mode="end-to-start"`` measures from the previous
session's last event instead.  The first session carries the sentinel gap 0.

Files are read through ``open_input`` and written through ``write_table`` (CSV,
quoted only where needed), ``write_json`` and ``write_session_table``; a file
that cannot be opened or written, or an input that is not UTF-8, is a DataError.
A sessions file's user id is a string or an integer that is not blank, and
is kept as written.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .errors import DataError

GAP_MODES = ("start-to-start", "end-to-start")
BLOCK_CHARS = 1 << 20  # a CSV block; the column parse holds a few times this


@dataclass(frozen=True)
class Session:
    """(start time, previous absence gap, duration in events)."""

    t: float
    g: float
    d: int

    def __post_init__(self):
        if self.d < 1:
            raise DataError(f"Session: duration must be >= 1, got {self.d}")
        if self.g < 0.0 or not math.isfinite(self.g):
            raise DataError(f"Session: bad gap {self.g}")
        if not math.isfinite(self.t):
            raise DataError(f"Session: bad start time {self.t}")


@dataclass
class SessionSequence:
    user_id: str
    sessions: list = field(default_factory=list)

    def __post_init__(self):
        if not self.sessions:
            raise DataError(f"SessionSequence: user {self.user_id!r} has no sessions")
        starts = [s.t for s in self.sessions]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise DataError(
                f"SessionSequence: start times not strictly increasing for {self.user_id!r}"
            )

    def __len__(self):
        return len(self.sessions)

    def gaps(self):
        """Observed real gaps (the sentinel first gap is excluded)."""
        return [s.g for s in self.sessions[1:]]

    def durations(self):
        return [s.d for s in self.sessions]


def _parse_timestamp(raw, time_unit, lineno):
    """Hours from a number in time_unit or an ISO-8601 string; anything
    else, or a value that is not finite, is a DataError naming the line."""
    # an int goes through its text, where a huge one reads as inf, not OverflowError
    text = raw if isinstance(raw, float) else str(raw).strip()
    try:
        value = float(text)
        if time_unit == "seconds":
            value /= 3600.0
    except ValueError:
        try:
            dt = datetime.fromisoformat(text.replace("Z", "+00:00") if text.endswith("Z") else text)
        except ValueError:
            raise DataError(f"line {lineno}: unparseable timestamp {text!r}") from None
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        value = dt.timestamp() / 3600.0
    if not math.isfinite(value):
        raise DataError(f"line {lineno}: non-finite timestamp")
    return value


def _user_id(value, lineno):
    """The text of a JSON user id, a string or an integer that is not blank."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise DataError(f"line {lineno}: user_id must be a string or an integer, got {value!r}")
    if not str(value).strip():
        raise DataError(f"line {lineno}: empty user_id")
    return str(value)


def _csv_columns(block, ncols, ui, ti, time_unit, codes):
    """(user codes, hours) of a block of whole CSV lines, or None if the block
    needs the row loop.  A user new to ``codes`` gets the next code, so codes
    number the users in order of first appearance.  A CRLF line ends as an LF
    one; a lone carriage return needs the row loop."""
    block = block.replace("\r\n", "\n")
    block += "" if block.endswith("\n") else "\n"
    lines, fields = block.count("\n"), block.replace("\n", ",\n,").split(",")
    # a line ends at its (ncols + 1)-th token: no short, long or blank line
    if ('"' in block or "\r" in block or len(fields) != lines * (ncols + 1) + 1
            or fields[ncols :: ncols + 1].count("\n") != lines):
        return None
    try:
        hours = np.fromiter(map(float, fields[ti : -1 : ncols + 1]), np.float64, lines)
    except ValueError:
        return None
    hours /= 3600.0 if time_unit == "seconds" else 1.0  # exact either way
    users = list(map(str.strip, fields[ui : -1 : ncols + 1]))
    if not np.isfinite(hours).all() or "" in users:
        return None
    codes.update(zip([user for user in dict.fromkeys(users) if user not in codes], itertools.count(len(codes))))
    return np.fromiter(map(codes.__getitem__, users), np.intp, lines), hours


def event_table(source, fmt="csv", time_unit="hours"):
    """(users, rank, hours) of an event file (a path or an open text stream):
    {user id: its rank in sorted order}, in order of first appearance, and
    each distinct (user, time) event as its user's rank and its time in hours,
    sorted by rank, then time; of equal times (0.0, -0.0) the first stays."""
    if time_unit not in ("hours", "seconds"):
        raise ValueError(f"event_table: unknown time_unit {time_unit!r}")
    if fmt not in ("csv", "jsonl"):
        raise ValueError(f"event_table: unknown format {fmt!r}")
    is_path = isinstance(source, (str, bytes)) or hasattr(source, "__fspath__")
    opened = open_input(source, "event file") if is_path else nullcontext(source)

    codes, parts, code, hours = {}, [], [], []  # code, hours: the events read one at a time
    with opened as stream:
        if fmt == "csv":
            lineno = 0  # of the last record read
            try:
                header = next(csv.reader(stream), None)
                if header is None:
                    raise DataError("empty event file")
                cols = [c.strip() for c in header]
                if "user_id" not in cols or "timestamp" not in cols:
                    raise DataError(f"line 1: expected header with user_id,timestamp, got {header}")
                ui, ti = cols.index("user_id"), cols.index("timestamp")
                rows, lineno = (), 1  # the rows the block parse leaves
                while block := stream.read(BLOCK_CHARS) + stream.readline():
                    if (part := _csv_columns(block, len(cols), ui, ti, time_unit, codes)) is None:
                        # newline="" splits the block as reading the file itself does
                        rows = csv.reader(itertools.chain(io.StringIO(block, newline=""), stream))
                        break
                    parts.append(part)
                    lineno += part[0].size
                for lineno, rec in enumerate(rows, start=lineno + 1):
                    if not rec:
                        continue
                    if len(rec) <= max(ui, ti):
                        raise DataError(f"line {lineno}: expected {len(cols)} fields, got {len(rec)}")
                    user = rec[ui].strip()
                    if not user:
                        raise DataError(f"line {lineno}: empty user_id")
                    hours.append(_parse_timestamp(rec[ti], time_unit, lineno))
                    code.append(codes.setdefault(user, len(codes)))
            except csv.Error as exc:  # e.g. a field over the csv module's size limit
                raise DataError(f"line {lineno + 1}: {exc}") from None
        else:
            for lineno, raw in enumerate(stream, start=1):
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    obj = json.loads(raw)
                except ValueError as exc:  # also an integer over the digit limit
                    raise DataError(f"line {lineno}: bad JSON ({getattr(exc, 'msg', exc)})") from None
                if not isinstance(obj, dict) or "user_id" not in obj or "timestamp" not in obj:
                    raise DataError(f"line {lineno}: need user_id and timestamp fields")
                user = _user_id(obj["user_id"], lineno).strip()  # as in a CSV
                hours.append(_parse_timestamp(obj["timestamp"], time_unit, lineno))
                code.append(codes.setdefault(user, len(codes)))
    if not codes:
        raise DataError("event file contains no events")

    parts.append((np.array(code, np.intp), np.array(hours, np.float64)))
    code, hours = (np.concatenate(col) for col in zip(*parts))
    parts.clear()  # here and below, each array goes as soon as it is used
    ranks = dict(zip(sorted(codes), itertools.count()))
    users = {user: ranks[user] for user in codes}
    # in the smallest type that holds them: ranks of up to 16 bits are radix-sorted
    rank = np.fromiter(users.values(), np.min_scalar_type(len(users) - 1), len(users))[code]
    del code
    # by user, then time; stable, so of equal times (0.0, -0.0) the first stays
    order = np.argsort(hours, kind="stable")
    order = order[np.argsort(rank[order], kind="stable")]
    rank, hours = rank[order], hours[order]
    keep = np.concatenate(([True], (rank[1:] != rank[:-1]) | (hours[1:] != hours[:-1])))
    return users, rank[keep], hours[keep]


def session_table(users, rank, hours, threshold, gap_mode="start-to-start"):
    """(first, t, g, d): the start, gap and event count of each session of
    events sorted by rank, then time, where users[r] is rank r's id; rank
    r's sessions are first[r]:first[r + 1].  A new user or a step of at
    least threshold starts a session; a user's first gap is 0, a later one
    start-to-start or end-to-start, and finite."""
    if not 0.0 < threshold < math.inf:  # NaN fails too
        raise ValueError(f"session_table: threshold must be finite and positive, got {threshold}")
    if gap_mode not in GAP_MODES:
        raise ValueError(f"session_table: unknown gap_mode {gap_mode!r}")
    new_user = rank[1:] != rank[:-1]
    with np.errstate(over="ignore"):  # a step past the float range is inf: a break, and a gap that fails
        starts = np.flatnonzero(np.concatenate(([True], new_user | (hours[1:] - hours[:-1] >= threshold))))
        t = hours[starts]
        before = t[:-1] if gap_mode == "start-to-start" else hours[starts[1:] - 1]
        g = np.concatenate(([0.0], t[1:] - before))
    first = np.concatenate(([True], new_user[starts[1:] - 1]))
    g[first] = 0.0
    if not np.isfinite(g).all():
        k = np.flatnonzero(~np.isfinite(g))[0]
        user, start = users[rank[starts[k]]], t[k].item()
        raise DataError(f"Session: bad gap {g[k]} (user {user!r}, session at t = {start!r})")
    return np.append(np.flatnonzero(first), t.size), t, g, np.diff(starts, append=hours.size)


def derive_seed(seed, *tokens):
    """Stable sub-seed from (seed, tokens); independent of process hashing."""
    material = ":".join([str(seed)] + [str(t) for t in tokens])
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def split_users(sequences, train_fraction, seed):
    """Deterministic disjoint train/test partition of users."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"split_users: train_fraction must be in (0,1), got {train_fraction}")
    if len(sequences) < 2:
        raise DataError(f"split_users: need at least 2 users, got {len(sequences)}")
    ordered = sorted(sequences, key=lambda s: s.user_id)
    rng = np.random.default_rng(derive_seed(seed, "split"))
    perm = rng.permutation(len(ordered))
    n_train = int(round(train_fraction * len(ordered)))
    n_train = min(max(n_train, 1), len(ordered) - 1)
    train_idx = sorted(perm[:n_train])
    test_idx = sorted(perm[n_train:])
    return [ordered[i] for i in train_idx], [ordered[i] for i in test_idx]


@contextmanager
def open_input(path, kind):
    """A UTF-8 text file to read; an OSError or a byte that is not UTF-8 is a DataError naming the file."""
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot open {kind}: {exc}") from None
    with fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise DataError(f"{kind} {path} is not UTF-8: {exc}") from None


@contextmanager
def _open_output(path):
    """A text file to write; an OSError on it is a DataError naming the path."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror or exc}") from None


def _field(text):
    """A CSV field, quoted (RFC 4180) if it holds a comma, a quote or a line break."""
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


def write_table(path, header, rows):
    """Write a CSV table with "\\n" line ends, each field as its str (a
    float's is its repr), quoted only where it needs quotes."""
    rows = [header, *rows]
    text = "".join([",".join(map(str, row)) + "\n" for row in rows])
    # unless every comma and line end is a separator, some field needs quotes
    if ('"' in text or "\r" in text or text.count("\n") != len(rows)
            or text.count(",") != sum(map(len, rows)) - len(rows)):
        text = "".join([",".join([_field(str(v)) for v in row]) + "\n" for row in rows])
    with _open_output(path) as fh:
        fh.write(text)


def write_json(path, obj, indent=None):
    """Write obj as one JSON document with sorted keys and a final newline."""
    with _open_output(path) as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=indent) + "\n")


def write_session_table(path, users, first, t, g, d):
    """Write ``session_table``'s columns of users as JSONL {"user_id",
    "sessions": [{"t","g","d"}]}, byte for byte as json.dumps writes it."""
    sessions = list(map('{"t": %r, "g": %r, "d": %d}'.__mod__, zip(t.tolist(), g.tolist(), d.tolist())))
    first = first.tolist()
    with _open_output(path) as fh:
        fh.write("".join(['{"user_id": %s, "sessions": [%s]}\n' % (json.dumps(user), ", ".join(sessions[a:b]))
                          for user, a, b in zip(users, first, first[1:])]))


def write_sessions(sequences, path):
    """Write sequences through ``write_session_table``."""
    t, g, d = (np.array([getattr(s, k) for seq in sequences for s in seq.sessions], dtype)
               for k, dtype in (("t", float), ("g", float), ("d", None)))
    write_session_table(path, [seq.user_id for seq in sequences], np.cumsum([0, *map(len, sequences)]), t, g, d)


def _count(value):
    """An event count: a whole number, not a bool (json's true is not 1)."""
    if type(value) is int and value.bit_length() < 1024:  # an int that float() takes
        return value
    if isinstance(value, bool) or not float(value).is_integer():
        raise ValueError(f"duration {value!r} is not a whole number")
    return int(value)


def read_sessions(path):
    """Read sequences from the JSONL produced by write_sessions / simulate.

    Each user appears on one line only, the first session carries the
    sentinel gap 0, and a later gap g is in (0, t - previous t], up to the
    rounding of previous t + g, in either gap mode; else it is a DataError.
    """
    sequences = []
    seen = set()
    with open_input(path, "sessions file") as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                obj = json.loads(raw)
            except ValueError as exc:  # also an integer over the digit limit
                raise DataError(f"line {lineno}: bad JSON ({getattr(exc, 'msg', exc)})") from None
            try:
                sessions = [Session(t=float(s["t"]), g=float(s["g"]), d=_count(s["d"])) for s in obj["sessions"]]
                user = obj["user_id"]
            except (KeyError, TypeError, ValueError, OverflowError) as exc:  # OverflowError: float() of a huge int
                raise DataError(f"line {lineno}: bad session record ({exc})") from None
            sequences.append(SessionSequence(user_id=_user_id(user, lineno), sessions=sessions))
            if sessions[0].g != 0.0:
                raise DataError(f"line {lineno}: the first session's gap must be the sentinel 0")
            for a, b in zip(sessions, sessions[1:]):
                if not 0.0 < b.g <= b.t - a.t + 1e-12 * (abs(a.t) + abs(b.t)):
                    raise DataError(f"line {lineno}: gap {b.g!r} at t = {b.t!r} is not in (0, t - last t]")
            uid = sequences[-1].user_id
            if uid in seen:
                raise DataError(f"line {lineno}: duplicate user_id {uid!r}")
            seen.add(uid)
    if not sequences:
        raise DataError("sessions file contains no sequences")
    return sequences
