"""Span tracing of churnkit's layers from outside the package.

A ``Tracer`` replaces public functions by timing wrappers at the module
attributes where callers look them up (``churnkit.inference.expected_gap``
rather than ``churnkit.tppmath.expected_gap``, because ``inference`` imports
the name), and puts the originals back on exit.  Nothing under ``src/`` is
edited.  A lookup site that no longer exists -- a module or function deleted
by a later refactor -- is recorded as absent instead of raising.

Spans are kept in memory as ``(name, parent index, start, end, work)``;
``work`` is an optional per-call count (user-steps, records, events).  The
per-layer metrics are computed from them once the traced run ends.
"""

from __future__ import annotations

import importlib
import time


def _cli_span_name(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    sub = argv[0] if argv else "none"
    return f"cli.main.{sub}"


def _len_arg(i):
    return lambda args, kwargs, result: len(args[i])


def _len_result(args, kwargs, result):
    return len(result)


def _events(args, kwargs, result):
    return sum(len(stamps) for stamps in result.values())


def _clipped(args, kwargs, result):
    max_norm = args[1] if len(args) > 1 else kwargs["max_norm"]
    return int(max_norm > 0.0 and result > max_norm)


# (span name, [lookup sites], work counter).  A site is "module:attr.path";
# the last attribute is the one replaced.  Every site of a span that exists
# is wrapped, so a function imported by name into several modules is timed
# wherever it is called from.
SPANS = (
    ("eventlog.ingest_events", ["churnkit.cli:ingest_events"], _events),
    ("eventlog.sessionize_log", ["churnkit.cli:sessionize_log"], _len_result),
    ("eventlog.read_sessions", ["churnkit.cli:read_sessions"], _len_result),
    ("eventlog.write_sessions", ["churnkit.cli:write_sessions"], _len_arg(0)),
    ("simulate.generate", ["churnkit.simulate:generate"], None),
    ("train.train", ["churnkit.train:train", "churnkit.cli:train"], None),
    ("train.elbo_and_grads", ["churnkit.train:elbo_and_grads"], _len_arg(1)),
    ("train.Adam.step", ["churnkit.train:Adam.step"], None),
    ("train.clip_gradients", ["churnkit.train:clip_gradients"], _clipped),
    (
        "train.save_checkpoint",
        ["churnkit.train:save_checkpoint", "churnkit.cli:save_checkpoint"],
        None,
    ),
    (
        "train.load_checkpoint",
        ["churnkit.train:load_checkpoint", "churnkit.cli:load_checkpoint"],
        None,
    ),
    ("diffgraph.backward", ["churnkit.train:dg.backward"], None),
    ("kernels.step_fwd", ["churnkit.diffgraph:K.step_fwd"], None),
    ("kernels.step_bwd", ["churnkit.diffgraph:K.step_bwd"], None),
    ("model.step", ["churnkit.inference:step"], None),
    ("tppmath.expected_gap", ["churnkit.inference:expected_gap"], None),
    (
        "inference.rolling_evaluate_many",
        [
            "churnkit.inference:rolling_evaluate_many",
            "churnkit.cli:rolling_evaluate_many",
            "churnkit.evalharness:rolling_evaluate_many",
        ],
        _len_result,
    ),
    (
        "inference.rolling_evaluate",
        ["churnkit.inference:rolling_evaluate", "churnkit.train:rolling_evaluate"],
        _len_result,
    ),
    ("inference.filter_sequence", ["churnkit.inference:filter_sequence"], _len_arg(1)),
    ("evalharness.compare", ["churnkit.cli:compare"], None),
    ("evalharness.fit_baseline", ["churnkit.cli:fit_baseline"], None),
    ("evalharness.compute_metrics", ["churnkit.evalharness:compute_metrics"], _len_arg(0)),
    ("cli.main", ["churnkit.cli:main"], None),
)


def _resolve(site):
    """(owner object, attribute name) for a lookup site, or None if gone."""
    module_name, _, path = site.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Context manager that wraps every site in ``SPANS`` while active."""

    def __init__(self):
        self.spans = []
        self.absent = []
        self._stack = []
        self._patched = []

    def __enter__(self):
        for name, sites, work in SPANS:
            found = False
            for site in sites:
                target = _resolve(site)
                if target is None:
                    continue
                owner, attr = target
                original = getattr(owner, attr)
                self._patched.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, work))
                found = True
            if not found:
                self.absent.append(name)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        return False

    def _wrap(self, name, fn, work):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        namer = _cli_span_name if name == "cli.main" else None

        def traced(*args, **kwargs):
            label = namer(args, kwargs) if namer else name
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (label, parent, t0, t1, 0)
            if work is not None:
                spans[idx] = (label, parent, t0, t1, work(args, kwargs, result))
            return result

        return traced


class SpanTable:
    """Aggregates over a finished list of spans."""

    def __init__(self, spans):
        self.spans = spans
        self.child = [0.0] * len(spans)
        self.by_name = {}
        for i, (name, parent, t0, t1, _) in enumerate(spans):
            self.by_name.setdefault(name, []).append(i)
            if parent >= 0:
                self.child[parent] += t1 - t0

    def _dur(self, i):
        return self.spans[i][3] - self.spans[i][2]

    def _select(self, name, parent=None):
        idx = self.by_name.get(name, [])
        if parent is None:
            return idx
        spans = self.spans
        return [i for i in idx if spans[i][1] >= 0 and spans[spans[i][1]][0] == parent]

    def total(self, name, parent=None):
        return sum(self._dur(i) for i in self._select(name, parent))

    def self_time(self, name, parent=None):
        return sum(self._dur(i) - self.child[i] for i in self._select(name, parent))

    def calls(self, name):
        return len(self._select(name))

    def work(self, name, parent=None):
        return sum(self.spans[i][4] for i in self._select(name, parent))

    def total_within(self, name, ancestor):
        """Time of ``name`` spans that run somewhere below an ``ancestor`` span."""
        total = 0.0
        for i in self._select(name):
            p = self.spans[i][1]
            while p >= 0 and self.spans[p][0] != ancestor:
                p = self.spans[p][1]
            if p >= 0:
                total += self._dur(i)
        return total


# ------------------------------------------------------------ layer metrics

SUBCOMMANDS = ("sessionize", "train", "predict", "evaluate")


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(spans, extra=None):
    """{metric name: (value, unit)} for the per-layer split of one traced rep.

    A metric whose functions were never called reads 0; ``Tracer.absent``
    tells a deleted function from one the workload does not reach.
    """
    t = SpanTable(spans)
    us = 1e6

    def us_per_call(name):
        return _ratio(t.total(name), t.calls(name), us)

    user_steps = t.work("train.elbo_and_grads")
    grads_s = t.total("train.elbo_and_grads")
    fwd_s = t.total_within("kernels.step_fwd", "train.elbo_and_grads")
    bwd_s = t.total_within("kernels.step_bwd", "train.elbo_and_grads")
    tape_s = grads_s - fwd_s - bwd_s if grads_s else 0.0
    filter_steps = t.work("inference.filter_sequence")
    # prediction records only; the per-epoch MAE records are train.epoch_mae
    pred = "inference.rolling_evaluate_many"
    records = t.work("inference.rolling_evaluate", parent=pred)
    events = t.work("eventlog.ingest_events")
    ingest_s = t.total("eventlog.ingest_events") + t.total("eventlog.sessionize_log")

    m = {
        "eventlog.ingest_events.s": (t.total("eventlog.ingest_events"), "s"),
        "eventlog.sessionize_log.s": (t.total("eventlog.sessionize_log"), "s"),
        "eventlog.read_sessions.s": (t.total("eventlog.read_sessions"), "s"),
        "eventlog.write_sessions.s": (t.total("eventlog.write_sessions"), "s"),
        "eventlog.events": (events, "count"),
        "eventlog.events_per_s": (_ratio(events, ingest_s), "1/s"),
        "diffgraph.backward.self_s": (t.self_time("diffgraph.backward"), "s"),
        "diffgraph.backward.calls": (t.calls("diffgraph.backward"), "count"),
        "diffgraph.tape_self_s": (tape_s, "s"),
        "diffgraph.tape.us_per_user_step": (_ratio(tape_s, user_steps, us), "us"),
        "kernels.step_fwd.us_per_call": (us_per_call("kernels.step_fwd"), "us"),
        "kernels.step_bwd.us_per_call": (us_per_call("kernels.step_bwd"), "us"),
        "kernels.step_fwd.calls": (t.calls("kernels.step_fwd"), "count"),
        "kernels.step_bwd.calls": (t.calls("kernels.step_bwd"), "count"),
        "model.step.us_per_call": (us_per_call("model.step"), "us"),
        "model.step.calls": (t.calls("model.step"), "count"),
        "train.train.s": (t.total("train.train"), "s"),
        "train.elbo_and_grads.us_per_user_step": (_ratio(grads_s, user_steps, us), "us"),
        "train.elbo_and_grads.user_steps": (user_steps, "count"),
        "train.Adam.step.s": (t.total("train.Adam.step"), "s"),
        "train.clip_gradients.s": (t.total("train.clip_gradients"), "s"),
        "train.clip_fraction": (
            _ratio(t.work("train.clip_gradients"), t.calls("train.clip_gradients")), "ratio"),
        "train.epoch_mae.s": (t.total("inference.rolling_evaluate", parent="train.train"), "s"),
        "train.save_checkpoint.s": (t.total("train.save_checkpoint"), "s"),
        "train.load_checkpoint.s": (t.total("train.load_checkpoint"), "s"),
        "inference.filter_sequence.us_per_step": (
            _ratio(t.total("inference.filter_sequence"), filter_steps, us), "us"),
        "inference.rolling_evaluate.us_per_record": (
            _ratio(t.total("inference.rolling_evaluate", parent=pred), records, us), "us"),
        "inference.rolling_evaluate.self_us_per_record": (
            _ratio(t.self_time("inference.rolling_evaluate", parent=pred), records, us), "us"),
        "inference.records": (records, "count"),
        "tppmath.expected_gap.calls": (t.calls("tppmath.expected_gap"), "count"),
        "tppmath.expected_gap.us_per_call": (us_per_call("tppmath.expected_gap"), "us"),
        "evalharness.compare.self_s": (t.self_time("evalharness.compare"), "s"),
        "evalharness.fit_baseline.s": (t.total("evalharness.fit_baseline"), "s"),
        "evalharness.compute_metrics.s": (t.total("evalharness.compute_metrics"), "s"),
    }
    for sub in SUBCOMMANDS:
        m[f"cli.main.{sub}.s"] = (t.total(f"cli.main.{sub}"), "s")
        m[f"cli.main.{sub}.self_s"] = (t.self_time(f"cli.main.{sub}"), "s")
    m.update(extra or {})
    return m
