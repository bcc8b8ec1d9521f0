"""The benchmark's workloads, driven through churnkit's public functions.

Each workload has ``setup(seed, work)`` -> ``(ctx, Rep)`` and
``rep(ctx)`` -> ``Rep``; a rep is one timed pass of the workload, short
enough (one to a few seconds) that a run repeats it many times on the same
inputs.  A rep times its phases separately (``Rep.phases``: phase ->
(seconds, work count)), so the runner can take a statistic of each phase
over the passes.
Set-up builds the inputs from the workload seed: the generator seed and the
train/test split derive from it.  The program's own seed (initial weights,
latent draws, prediction draws) is part of the workload's configuration,
like H or the learning rate, and stays ``MODEL_SEED``: after one epoch of
training the quality metrics move by 10-20% between model seeds, against
well under 10% between data seeds.  Functions are looked up on their
modules at call time, so a ``tracing.Tracer`` that is active sees every call.

Every train, predict and CLI call is one operation.  An operation fails when
one of its output checks fails; the check names are kept so a failure can be
reported.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import math
import time
from dataclasses import dataclass, field

import numpy as np

cli = importlib.import_module("churnkit.cli")
eventlog = importlib.import_module("churnkit.eventlog")
evalharness = importlib.import_module("churnkit.evalharness")
inference = importlib.import_module("churnkit.inference")
simulate = importlib.import_module("churnkit.simulate")
train = importlib.import_module("churnkit.train")

PRED_SAMPLES = 32
MODEL_SEED = 0
EVAL_METHODS = "model,per_user_mean,global_mean,last_value,hom_poisson"


@dataclass
class Rep:
    phases: dict = field(default_factory=dict)  # phase -> (seconds, work count)
    quality: dict = field(default_factory=dict)  # deterministic given the inputs
    ops: list = field(default_factory=list)  # (operation, [failed checks])
    info: dict = field(default_factory=dict)  # digests and other non-metric facts


# ------------------------------------------------------------------ checks


def user_steps(sequences):
    """Sessions the ELBO consumes in one epoch (users with >= 2 sessions)."""
    return sum(len(s) for s in sequences if len(s) >= 2)


def record_checks(records, sequences):
    expected = sum(len(s) - 1 for s in sequences if len(s) >= 2)
    failed = []
    if len(records) != expected:
        failed.append(f"record count {len(records)} != {expected}")
    values = [v for r in records for v in (r.pred_gap, r.pred_dur)]
    if not all(math.isfinite(v) and v > 0.0 for v in values):
        failed.append("a prediction is not finite and > 0")
    return failed


def elbo_checks(neg_elbo):
    return [] if math.isfinite(neg_elbo) else [f"neg ELBO per event is {neg_elbo}"]


def records_digest(records):
    h = hashlib.sha256()
    for r in records:
        h.update(f"{r.user_id},{r.step},{r.pred_gap!r},{r.pred_dur!r}\n".encode())
    return h.hexdigest()


def params_digest(params):
    h = hashlib.sha256()
    for name, value in sorted(vars(params).items()):
        if isinstance(value, np.ndarray):
            h.update(name.encode())
            h.update(np.ascontiguousarray(value, dtype=np.float64).tobytes())
    return h.hexdigest()


def file_digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------- fit_long


class FitLong:
    """The criterion-5 shape for one epoch, cut to two of its batches:
    stationary users of ~250 sessions, 80/20 split, H=16, P=8, batch 16,
    bptt_k=200 (two truncation segments per user), then rolling prediction of
    the held-out users at S=32.  The tape, the fused kernels and the
    optimizer do most of the work.  The criterion-5 fixture trains 160 users
    and takes its per-epoch MAE on 32 of them (the default cap); this pass
    trains 32 and keeps the same share, 6 users."""

    name = "fit_long"
    USERS = 60  # 48 training users, 12 held out
    TRAIN_USERS = 32  # two batches
    EPOCHS = 1
    MAE_USERS = 6

    def setup(self, seed, work):
        spec = simulate.GeneratorSpec(
            kind="stationary", users=self.USERS, horizon=500.0, mean_gap=2.0, mean_duration=5.0
        )
        sequences, _ = simulate.generate(spec, seed)
        train_seqs, test_seqs = eventlog.split_users(sequences, 0.8, seed)
        config = train.TrainConfig(
            epochs=self.EPOCHS, lr=0.01, hidden=16, mlp_hidden=8, batch_size=16, bptt_k=200,
            seed=MODEL_SEED, report_mae_users=self.MAE_USERS,
        )
        ctx = {"train": train_seqs[: self.TRAIN_USERS], "test": test_seqs, "config": config}
        return ctx, Rep()

    def rep(self, ctx):
        out = Rep()
        t0 = time.perf_counter()
        params, report = train.train(ctx["train"], ctx["config"])
        t1 = time.perf_counter()
        records = inference.rolling_evaluate_many(params, ctx["test"], PRED_SAMPLES, MODEL_SEED)
        t2 = time.perf_counter()
        summary = evalharness.compute_metrics(records)
        t3 = time.perf_counter()

        neg_elbo = float(report.epochs[-1].neg_elbo_per_event)
        out.ops.append(("train", elbo_checks(neg_elbo)))
        out.ops.append(("predict", record_checks(records, ctx["test"])))
        out.phases = {
            "train": (t1 - t0, user_steps(ctx["train"]) * self.EPOCHS),
            "predict": (t2 - t1, len(records)),
            "metrics": (t3 - t2, len(records)),
        }
        out.quality = {
            "neg_elbo_per_event": neg_elbo,
            "holdout_mae_gap": summary.mae_gap,
            "holdout_mae_duration": summary.mae_duration,
        }
        out.info = {
            "params_sha256": params_digest(params),
            "predictions_sha256": records_digest(records),
        }
        return out


# ----------------------------------------------------------- score_learned


class ScoreLearned:
    """Rolling prediction and fixed-policy alarms for held-out users at S=32
    from a checkpoint trained in set-up with ``wt_mode="learned"``.  Every
    latent draw calls ``tppmath.expected_gap`` by quadrature, so the
    inference/tppmath path does the work and no training is timed.  Each
    scored user is cut to the same number of sessions, so every seed scores
    the same number of records.  The set-up training gives this workload's
    ``train_steps_per_s`` and ``neg_elbo_per_event``."""

    name = "score_learned"
    USERS = 60
    EPOCHS = 3
    PRED_USERS = 5  # of the 12 held-out users (~50 sessions each)
    PRED_SESSIONS = 40  # 5 x 39 = 195 records a pass

    def setup(self, seed, work):
        spec = simulate.GeneratorSpec(
            kind="stationary", users=self.USERS, horizon=100.0, mean_gap=2.0, mean_duration=5.0
        )
        sequences, _ = simulate.generate(spec, seed)
        train_seqs, test_seqs = eventlog.split_users(sequences, 0.8, seed)
        # the per-epoch MAE would call the quadrature too; keep it to one user
        config = train.TrainConfig(
            epochs=self.EPOCHS,
            lr=0.01,
            hidden=16,
            mlp_hidden=8,
            seed=MODEL_SEED,
            wt_mode="learned",
            report_mae_users=1,
            report_mae_samples=1,
        )
        t0 = time.perf_counter()
        params, report = train.train(train_seqs, config)
        train_s = time.perf_counter() - t0
        path = work / "learned.json"
        train.save_checkpoint(params, path)
        neg_elbo = float(report.epochs[-1].neg_elbo_per_event)
        scored = [
            eventlog.SessionSequence(s.user_id, s.sessions[: self.PRED_SESSIONS])
            for s in test_seqs
            if len(s) >= self.PRED_SESSIONS
        ][: self.PRED_USERS]
        ctx = {"test": scored, "checkpoint": path}
        wt = float(params.head_wt)
        return ctx, Rep(
            phases={"train": (train_s, user_steps(train_seqs) * self.EPOCHS)},
            quality={"neg_elbo_per_event": neg_elbo},
            ops=[("train", elbo_checks(neg_elbo))],
            # wt > 0 and wt < 0 (a defective gap distribution) take different
            # quadrature branches in expected_gap
            info={"learned_wt": wt, "learned_wt_sign": "positive" if wt > 0.0 else "negative"},
        )

    def rep(self, ctx):
        out = Rep()
        policy = inference.AlarmPolicy(mode="fixed", theta_g=168.0, theta_d=2.0)
        t0 = time.perf_counter()
        params, _ = train.load_checkpoint(ctx["checkpoint"])
        records = inference.rolling_evaluate_many(params, ctx["test"], PRED_SAMPLES, MODEL_SEED)
        alarms = [inference.churn_alarm(r, policy) for r in records]
        t1 = time.perf_counter()
        summary = evalharness.compute_metrics(records)
        t2 = time.perf_counter()

        failed = record_checks(records, ctx["test"])
        if len(alarms) != len(records):
            failed.append("alarm count differs from record count")
        out.ops.append(("predict", failed))
        out.phases = {
            "predict": (t1 - t0, len(records)),
            "metrics": (t2 - t1, len(records)),
        }
        out.quality = {
            "holdout_mae_gap": summary.mae_gap,
            "holdout_mae_duration": summary.mae_duration,
        }
        out.info = {
            "params_sha256": params_digest(params),
            "predictions_sha256": records_digest(records),
        }
        return out


# ------------------------------------------------------------ pipeline_cli


def write_event_log(sequences, path, spacing_hours):
    """Expand sessions into raw events: a session of d events starting at t
    becomes timestamps t, t + spacing, ..., t + (d - 1) * spacing."""
    events = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("user_id,timestamp\n")
        for seq in sequences:
            uid = seq.user_id
            lines = [
                f"{uid},{s.t + k * spacing_hours!r}\n" for s in seq.sessions for k in range(s.d)
            ]
            fh.write("".join(lines))
            events += len(lines)
    return events


def read_csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class PipelineCli:
    """The CLI pipeline through ``churnkit.cli.main``: ~200k raw events expanded
    from 440 regime-switching users with short, ragged histories are
    sessionized, trained on (H=8, one epoch, full unroll), predicted for every
    user and evaluated against four baselines over three seeds.  Covers
    eventlog I/O, checkpoints, manifests and evalharness; per-user overheads
    weigh more here than the fused step."""

    name = "pipeline_cli"
    USERS = 440
    EPOCHS = 1
    THRESHOLD_HOURS = 0.25
    SPACING_HOURS = 1.0 / 120.0

    def setup(self, seed, work):
        spec = simulate.GeneratorSpec(
            kind="regime_switching",
            users=self.USERS,
            horizon=60.0,
            regime_gaps=(1.0, 12.0),
            regime_durations=(20.0, 60.0),
            switch=((0.9, 0.1), (0.1, 0.9)),
        )
        sequences, _ = simulate.generate(spec, seed)
        events_path = work / "events.csv"
        events = write_event_log(sequences, events_path, self.SPACING_HOURS)
        return {"work": work, "events_path": events_path, "events": events}, Rep()

    def rep(self, ctx):
        out = Rep()
        work, seed = ctx["work"], str(MODEL_SEED)
        sessions = work / "sessions.jsonl"
        model = work / "model.json"
        report = work / "model.json.report.csv"
        preds = work / "predictions.csv"
        metrics = work / "metrics.csv"

        def stage(name, argv, *outputs):
            """One CLI call; fails unless it exits 0 and writes its outputs
            and the manifest of the first one."""
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                code = cli.main(argv)
                seconds = time.perf_counter() - t0
            failed = [f"exit code {code}"] if code != 0 else []
            written = (*outputs, outputs[0].with_name(outputs[0].name + ".manifest.json"))
            failed += [f"{p.name} not written" for p in written if not p.is_file()]
            out.ops.append((name, failed))
            return seconds

        t_sess = stage(
            "sessionize",
            ["sessionize", "--in", str(ctx["events_path"]), "--out", str(sessions),
             "--session-threshold-hours", repr(self.THRESHOLD_HOURS)],
            sessions,
        )
        t_train = stage(
            "train",
            ["train", "--sessions", str(sessions), "--out", str(model), "--epochs", str(self.EPOCHS),
             "--lr", "0.01", "--hidden", "8", "--mlp-hidden", "4", "--bptt-k", "0", "--seed", seed],
            model, report,
        )
        t_pred = stage(
            "predict",
            ["predict", "--sessions", str(sessions), "--model", str(model), "--out", str(preds),
             "--split", "all", "--seed", seed],
            preds,
        )
        t_eval = stage(
            "evaluate",
            ["evaluate", "--sessions", str(sessions), "--model", str(model), "--out", str(metrics),
             "--methods", EVAL_METHODS, "--seeds", "0,1,2", "--seed", seed],
            metrics, metrics.with_name(metrics.name + ".long.csv"),
        )
        checked = self._check_outputs(dict(out.ops), sessions, report, preds, metrics)
        out.phases = {
            "sessionize": (t_sess, ctx["events"]),
            "train": (t_train, checked["user_steps"] * self.EPOCHS),
            "predict": (t_pred, checked["records"]),
            "evaluate": (t_eval, 0),
        }
        out.quality = {
            "neg_elbo_per_event": checked["neg_elbo"],
            "holdout_mae_gap": checked["mae_gap"],
            "holdout_mae_duration": checked["mae_duration"],
        }
        out.info = {
            "checkpoint_sha256": file_digest(model),
            "predictions_sha256": file_digest(preds),
        }
        return out

    @staticmethod
    def _check_outputs(ops, sessions, report, preds, metrics):
        """Content checks of the stage outputs, run after the timed stages;
        failures go into ``ops`` (operation name -> failed checks)."""
        sequences = eventlog.read_sessions(sessions)
        train_seqs, _ = eventlog.split_users(sequences, 0.8, MODEL_SEED)

        neg_elbo = float(read_csv_rows(report)[-1]["neg_elbo_per_event"])
        ops["train"].extend(elbo_checks(neg_elbo))

        rows = read_csv_rows(preds)
        expected = sum(len(s) - 1 for s in sequences if len(s) >= 2)
        if len(rows) != expected:
            ops["predict"].append(f"record count {len(rows)} != {expected}")
        values = [float(r[k]) for r in rows for k in ("pred_gap", "pred_dur")]
        if not all(math.isfinite(v) and v > 0.0 for v in values):
            ops["predict"].append("a prediction is not finite and > 0")

        summary = {r["method"]: r for r in read_csv_rows(metrics)}
        if sorted(summary) != sorted(EVAL_METHODS.split(",")):
            ops["evaluate"].append(f"methods in summary: {sorted(summary)}")
        model_row = summary.get("model", {})
        mae_gap = float(model_row.get("mae_gap", "nan"))
        mae_duration = float(model_row.get("mae_duration", "nan"))
        if not (math.isfinite(mae_gap) and math.isfinite(mae_duration)):
            ops["evaluate"].append("model MAE is not finite")
        return {
            "user_steps": user_steps(train_seqs),
            "records": len(rows),
            "neg_elbo": neg_elbo,
            "mae_gap": mae_gap,
            "mae_duration": mae_duration,
        }


WORKLOADS = {w.name: w for w in (FitLong(), ScoreLearned(), PipelineCli())}
