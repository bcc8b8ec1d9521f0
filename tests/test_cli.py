"""End-to-end CLI behavior: exit-code taxonomy, manifests, and a small
pipeline run through every subcommand."""

import argparse
import csv
import inspect
import json
import math
import os
import platform
import subprocess
import sys
import warnings

import numpy as np
import pytest

import churnkit
from churnkit import cli
from churnkit.cli import _options, build_parser, main
from churnkit.errors import DataError
from churnkit.evalharness import compare, fit_baselines
from churnkit.eventlog import Session, SessionSequence, read_sessions, split_users, write_sessions
from churnkit.inference import AlarmPolicy, churn_alarm, rolling_evaluate_many, user_history_stats
from churnkit.model import init_params
from churnkit.simulate import GeneratorSpec, generate
from churnkit.train import TrainConfig, gradcheck_elbo, load_checkpoint, save_checkpoint, train


def test_version_exits_zero(capsys):
    assert main(["--version"]) == 0


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate"]) == 1


def test_unknown_flag_suggests_close_match(capsys):
    code = main(["gradcheck", "--hiddden", "4"])
    assert code == 1
    err = capsys.readouterr().err
    assert "--hidden" in err


# each subcommand's flags as (default, choices, required), as they were when
# they were written out by hand; the pair flags' defaults, then the strings
# "1,10", "3,8" and "0.95,0.95" parsed by the command, are given parsed
_FLAGS = {
    "sessionize": {
        "--format": ("csv", ("csv", "jsonl"), False),
        "--gap-mode": ("start-to-start", ("start-to-start", "end-to-start"), False),
        "--in": (None, None, True),
        "--out": (None, None, True),
        "--session-threshold-hours": (1.0, None, False),
        "--time-unit": ("hours", ("hours", "seconds"), False),
    },
    "train": {
        "--batch-size": (16, None, False),
        "--bptt-k": (200, None, False),
        "--clip-norm": (5.0, None, False),
        "--epochs": (70, None, False),
        "--hidden": (64, None, False),
        "--latent-mode": ("full", ("full", "fixed"), False),
        "--lr": (0.001, None, False),
        "--mc-samples": (1, None, False),
        "--mlp-hidden": (32, None, False),
        "--out": (None, None, True),
        "--report": (None, None, False),
        "--seed": (0, None, False),
        "--sessions": (None, None, True),
        "--train-frac": (0.8, None, False),
        "--wt-mode": ("frozen_zero", ("frozen_zero", "learned"), False),
    },
    "predict": {
        "--alarm-mode": ("fixed", ("fixed", "expected"), False),
        "--expected-dur-cmp": ("less", ("less", "greater"), False),
        "--model": (None, None, True),
        "--out": (None, None, True),
        "--pred-samples": (32, None, False),
        "--seed": (0, None, False),
        "--sessions": (None, None, True),
        "--split": ("test", ("test", "train", "all"), False),
        "--theta-d": (2.0, None, False),
        "--theta-g": (168.0, None, False),
        "--train-frac": (0.8, None, False),
    },
    "evaluate": {
        "--ablation-epochs": (20, None, False),
        "--ablation-lr": (0.01, None, False),
        "--methods": ("model,per_user_mean,global_mean,last_value,hom_poisson", None, False),
        "--model": (None, None, True),
        "--out": (None, None, True),
        "--pred-samples": (32, None, False),
        "--seed": (0, None, False),
        "--seeds": ("0", None, False),
        "--sessions": (None, None, True),
        "--split": ("test", ("test", "train", "all"), False),
        "--train-frac": (0.8, None, False),
    },
    "simulate": {
        "--from-model": (None, None, False),
        "--horizon": (500.0, None, False),
        "--kind": (None, ("stationary", "regime_switching", "from_model"), True),
        "--max-sessions": (100000, None, False),
        "--mean-duration": (5.0, None, False),
        "--mean-gap": (2.0, None, False),
        "--out": (None, None, True),
        "--regime-durations": ((3.0, 8.0), None, False),
        "--regime-gaps": ((1.0, 10.0), None, False),
        "--regime-stay": (((0.95, 0.050000000000000044), (0.050000000000000044, 0.95)), None, False),
        "--seed": (0, None, False),
        "--users": (100, None, False),
    },
    "gradcheck": {
        "--hidden": (4, None, False),
        "--mlp-hidden": (4, None, False),
        "--out": (None, None, False),
        "--seed": (1, None, False),
        "--step-size": (1e-05, None, False),
        "--steps": (5, None, False),
        "--tol": (0.0001, None, False),
        "--wt-mode": ("learned", ("frozen_zero", "learned"), False),
    },
}


def _subparsers():
    return next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_flag_table():
    # flags derived from a dataclass or a function must not drop, rename or
    # move a flag, or change its default, choices or whether it is required
    got = {
        name: {
            " ".join(a.option_strings): (a.default, tuple(a.choices) if a.choices else None, a.required)
            for a in p._actions
            if a.dest != "help"
        }
        for name, p in _subparsers().items()
    }
    assert got == _FLAGS


def test_flag_table_with_wrapped_functions(monkeypatch):
    # perfbench's tracer replaces the functions cli imports by name with
    # wrappers that take (*args, **kwargs), so the parser must not read the
    # defaults from those names
    import churnkit.cli as cli

    for name in ("event_table", "session_table", "write_session_table", "read_sessions", "write_sessions",
                 "load_checkpoint", "save_checkpoint", "train", "compare", "fit_baselines", "rolling_columns"):
        fn = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *args, _fn=fn, **kwargs: _fn(*args, **kwargs))
    test_flag_table()


def test_library_defaults_are_the_flag_defaults():
    parse = build_parser().parse_args
    args = parse(["predict", "--sessions", "s", "--model", "m", "--out", "o"])
    policy = AlarmPolicy()  # usable as it stands
    assert policy == AlarmPolicy(mode=args.alarm_mode, theta_g=args.theta_g, theta_d=args.theta_d,
                                 expected_dur_cmp=args.expected_dur_cmp)
    for kind, extra in (("stationary", {}), ("regime_switching", {}), ("from_model", {"model_path": "m"})):
        argv = ["simulate", "--kind", kind, "--out", "o"] + (["--from-model", "m"] if extra else [])
        assert GeneratorSpec(kind=kind, **extra) == GeneratorSpec(**_options(parse(argv), GeneratorSpec))
    defaults = {k: v.default for k, v in inspect.signature(gradcheck_elbo).parameters.items()}
    assert _options(parse(["gradcheck"]), gradcheck_elbo) == defaults


def test_missing_input_file_is_data_error(tmp_path):
    out = tmp_path / "s.jsonl"
    assert main(["sessionize", "--in", str(tmp_path / "nope.csv"), "--out", str(out)]) == 2


def test_malformed_csv_is_data_error(tmp_path):
    bad = tmp_path / "events.csv"
    bad.write_text("user_id,timestamp\nu1,abc\n")
    assert main(["sessionize", "--in", str(bad), "--out", str(tmp_path / "s.jsonl")]) == 2


@pytest.mark.parametrize(
    "fmt, text",
    [
        ("csv", "user_id,timestamp\nu1,nan\nu1,3.0\n"),  # used to merge both into one session at t = 3
        ("csv", "user_id,timestamp\nu1,inf\n"),
        ("jsonl", '{"user_id": "u1", "timestamp": "nan"}\n'),  # used to write "t": NaN
        ("jsonl", '{"user_id": "u1", "timestamp": 1' + "0" * 400 + "}\n"),  # used to raise OverflowError
    ],
    ids=["csv-nan", "csv-inf", "jsonl-nan-text", "jsonl-huge-int"],
)
def test_non_finite_timestamp_is_data_error(tmp_path, fmt, text):
    src = tmp_path / f"events.{fmt}"
    src.write_text(text)
    assert main(["sessionize", "--in", str(src), "--out", str(tmp_path / "s.jsonl"), "--format", fmt]) == 2


@pytest.mark.parametrize("gap_mode", ["start-to-start", "end-to-start"])
def test_gap_past_the_float_range_is_data_error_without_warnings(tmp_path, capsys, gap_mode):
    # it used to print two "overflow encountered in subtract" RuntimeWarnings
    # first, and under -W error to end in a traceback with exit 1; users far
    # apart from each other used to warn too.  The message names the user and
    # the start of the session whose gap overflows
    src, out = tmp_path / "events.csv", tmp_path / "s.jsonl"
    argv = ["sessionize", "--in", str(src), "--out", str(out), "--gap-mode", gap_mode]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        src.write_text("user_id,timestamp\nu1,-1e308\nu1,1e308\n")
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "churnkit sessionize: data error: Session: bad gap inf (user 'u1', session at t = 1e+308)\n" in err
        assert "RuntimeWarning" not in err and "Traceback" not in err
        src.write_text("user_id,timestamp\na,1e308\nb,-1e308\nb,1e308\nc,-1e308\n")
        assert main(argv) == 2
        assert "Session: bad gap inf (user 'b', session at t = 1e+308)\n" in capsys.readouterr().err
        src.write_text("user_id,timestamp\na,1e308\nb,-1e308\nb,0\nc,-1e308\n")
        assert main(argv) == 0
    assert [json.loads(line)["user_id"] for line in out.read_text().splitlines()] == ["a", "b", "c"]


@pytest.mark.parametrize(
    "text, message",
    [
        ('user_id,timestamp\nu1,1.0\n"' + "x" * 200_000 + '",2.0\n', "line 3: field larger than field limit"),
        ('"' + "x" * 200_000 + '",timestamp\nu1,1.0\n', "line 1: field larger than field limit"),
    ],
    ids=["row", "header"],
)
def test_csv_field_over_the_size_limit_is_data_error(tmp_path, capsys, text, message):
    # the csv module's error used to end in a traceback
    src = tmp_path / "events.csv"
    src.write_text(text)
    assert main(["sessionize", "--in", str(src), "--out", str(tmp_path / "s.jsonl")]) == 2
    assert message in capsys.readouterr().err


# json.loads raises a plain ValueError for an integer literal over the
# interpreter's 4,300-digit limit; it used to exit 1, as a usage error
HUGE_INT = "1" + "0" * 5000


def test_jsonl_integer_over_the_digit_limit_is_data_error(tmp_path, capsys):
    src = tmp_path / "events.jsonl"
    src.write_text('{"user_id": "u0", "timestamp": 0.5}\n{"user_id": ' + HUGE_INT + ', "timestamp": 1.0}\n')
    assert main(["sessionize", "--in", str(src), "--out", str(tmp_path / "s.jsonl"), "--format", "jsonl"]) == 2
    assert "line 2: bad JSON (Exceeds the limit (4300 digits)" in capsys.readouterr().err


def test_sessions_integer_over_the_digit_limit_is_data_error(tmp_path, capsys):
    sessions = tmp_path / "sessions.jsonl"
    record = {"user_id": "HUGE", "sessions": [{"t": 0.0, "g": 0.0, "d": 1}, {"t": 1.0, "g": 1.0, "d": 2}]}
    sessions.write_text(json.dumps(record).replace('"HUGE"', HUGE_INT) + "\n")
    with pytest.raises(DataError, match=r"line 1: bad JSON \(Exceeds the limit"):
        read_sessions(sessions)
    model = tmp_path / "model.json"
    save_checkpoint(init_params(4, 3, seed=1), model)
    argv = ["predict", "--sessions", str(sessions), "--model", str(model), "--out", str(tmp_path / "p.csv")]
    assert main(argv) == 2


# 401 digits parse as JSON, but float() of them overflows; each used to end
# in an OverflowError traceback, from float() for t and g and from the
# duration check for d
@pytest.mark.parametrize("key", ["t", "g", "d"])
def test_sessions_integer_beyond_float_range_is_data_error(tmp_path, capsys, key):
    sessions = tmp_path / "sessions.jsonl"
    record = {"user_id": "u0", "sessions": [{"t": 0.0, "g": 0.0, "d": 1}, {"t": 1.0, "g": 1.0, "d": 2}]}
    record["sessions"][1][key] = "HUGE"
    sessions.write_text(json.dumps(record).replace('"HUGE"', "1" + "0" * 400) + "\n")
    argv = ["train", "--sessions", str(sessions), "--out", str(tmp_path / "m.json"), "--epochs", "1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "line 1: bad session record (int too large to convert to float)" in err
    assert "Traceback" not in err


# the first three used to be read as the users "None", "True" and "{'x': 1}"
@pytest.mark.parametrize(
    "user, message",
    [
        (None, "line 2: user_id must be a string or an integer, got None"),
        (True, "line 2: user_id must be a string or an integer, got True"),
        ({"x": 1}, "line 2: user_id must be a string or an integer, got {'x': 1}"),
        (" \t", "line 2: empty user_id"),
    ],
    ids=["null", "bool", "object", "whitespace"],
)
def test_jsonl_user_id_is_a_string_or_an_integer(tmp_path, capsys, user, message):
    src = tmp_path / "events.jsonl"
    src.write_text("".join(json.dumps({"user_id": u, "timestamp": 0}) + "\n" for u in ("u1", user)))
    assert main(["sessionize", "--in", str(src), "--out", str(tmp_path / "s.jsonl"), "--format", "jsonl"]) == 2
    assert message in capsys.readouterr().err


def test_jsonl_and_csv_strip_user_ids_alike(tmp_path):
    # " a " used to be a user of its own in JSONL, and "a" in CSV
    rows = [(" a ", 0.0), ("a", 3.0), (7, 5.0), ("7", 9.0)]
    (tmp_path / "e.csv").write_text("user_id,timestamp\n" + "".join(f"{u},{t}\n" for u, t in rows))
    (tmp_path / "e.jsonl").write_text("".join(json.dumps({"user_id": u, "timestamp": t}) + "\n" for u, t in rows))
    for fmt in ("csv", "jsonl"):
        out = tmp_path / f"{fmt}.jsonl"
        assert main(["sessionize", "--in", str(tmp_path / f"e.{fmt}"), "--out", str(out), "--format", fmt]) == 0
    lines = (tmp_path / "jsonl.jsonl").read_text()
    assert lines == (tmp_path / "csv.jsonl").read_text()
    assert [json.loads(line)["user_id"] for line in lines.splitlines()] == ["7", "a"]


@pytest.mark.parametrize(
    "subcommand, flags",
    [
        ("sessionize", ["--session-threshold-hours", "-2"]),
        # NaN used to put every user in one session with exit 0
        ("sessionize", ["--session-threshold-hours", "nan"]),
        # NaN used to turn clipping off and write NaN into the manifest
        ("train", ["--clip-norm", "nan"]),
        ("train", ["--lr", "nan"]),  # used to exit 3 mid-training
        ("train", ["--bptt-k", "-3"]),  # used to run a full unroll
        ("predict", ["--theta-g", "nan", "--theta-d", "nan"]),  # used to never alarm
        # both used to exit 0 and write NaN into the manifest
        ("simulate", ["--kind", "regime_switching", "--regime-stay", "nan,0.9"]),
        ("simulate", ["--kind", "stationary", "--horizon", "nan", "--max-sessions", "50"]),
        ("simulate", ["--kind", "regime_switching", "--regime-gaps", "1,2,3"]),
    ],
    ids=["sessionize-threshold-negative", "sessionize-threshold-nan", "train-clip-norm-nan", "train-lr-nan",
         "train-bptt-k-negative", "predict-thetas-nan", "simulate-stay-nan",
         "simulate-horizon-nan", "simulate-gaps-not-a-pair"],
)
def test_bad_flag_value_is_usage_error(tmp_path, subcommand, flags):
    ev = tmp_path / "events.csv"
    ev.write_text("user_id,timestamp\nu1,1.0\n")
    sessions = tmp_path / "sessions.jsonl"
    sessions.write_text("".join(json.dumps(r) + "\n" for r in _TWO_USERS))
    model = tmp_path / "model.json"
    save_checkpoint(init_params(4, 3, seed=1), model)
    out = str(tmp_path / "out")
    argv = {
        "sessionize": ["--in", str(ev), "--out", out],
        "train": ["--sessions", str(sessions), "--out", out, "--epochs", "1", "--hidden", "4",
                  "--mlp-hidden", "3", "--train-frac", "1"],
        "predict": ["--sessions", str(sessions), "--model", str(model), "--out", out, "--split", "all"],
        "simulate": ["--users", "3", "--out", out],
    }[subcommand]
    assert main([subcommand, *argv, *flags]) == 1


def test_gradcheck_pass_and_fail_exit_codes(tmp_path):
    assert main(["gradcheck", "--hidden", "3", "--steps", "4", "--seed", "1"]) == 0
    # impossible tolerance turns the same check into a numerical failure
    assert main(["gradcheck", "--hidden", "3", "--steps", "4", "--seed", "1", "--tol", "1e-14"]) == 3


def test_sessionize_writes_manifest(tmp_path):
    ev = tmp_path / "events.csv"
    ev.write_text("user_id,timestamp\nu1,0.0\nu1,0.5\nu1,5.0\nu2,1.0\n")
    out = tmp_path / "sessions.jsonl"
    assert main(["sessionize", "--in", str(ev), "--out", str(out)]) == 0
    assert out.exists()
    manifest = json.loads((tmp_path / "sessions.jsonl.manifest.json").read_text())
    assert manifest["subcommand"] == "sessionize"
    assert manifest["config"]["session_threshold_hours"] == 1.0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert [l["user_id"] for l in lines] == ["u1", "u2"]
    assert lines[0]["sessions"][0] == {"t": 0.0, "g": 0.0, "d": 2}


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_sessionize_both_formats(tmp_path, fmt):
    src = tmp_path / f"events.{fmt}"
    if fmt == "csv":
        src.write_text("user_id,timestamp\nu1,0.0\nu1,3.0\n")
    else:
        src.write_text('{"user_id":"u1","timestamp":0.0}\n{"user_id":"u1","timestamp":3.0}\n')
    out = tmp_path / "s.jsonl"
    assert main(["sessionize", "--in", str(src), "--out", str(out), "--format", fmt]) == 0
    assert len(out.read_text().splitlines()) == 1


def test_full_pipeline_small(tmp_path):
    sessions = tmp_path / "sessions.jsonl"
    model = tmp_path / "model.json"
    preds = tmp_path / "predictions.csv"
    metrics = tmp_path / "metrics.csv"

    assert main(
        ["simulate", "--kind", "stationary", "--users", "12", "--horizon", "60",
         "--mean-gap", "2", "--mean-duration", "4", "--seed", "5", "--out", str(sessions)]
    ) == 0
    assert (tmp_path / "sessions.jsonl.truth.json").exists()

    assert main(
        ["train", "--sessions", str(sessions), "--out", str(model), "--epochs", "2",
         "--lr", "0.01", "--hidden", "4", "--mlp-hidden", "3", "--seed", "1",
         "--train-frac", "0.75"]
    ) == 0
    assert model.exists()
    report = (tmp_path / "model.json.report.csv").read_text().splitlines()
    assert report[0].startswith("epoch,")
    assert len(report) == 3

    assert main(
        ["predict", "--sessions", str(sessions), "--model", str(model), "--out", str(preds),
         "--split", "test", "--train-frac", "0.75", "--seed", "1", "--pred-samples", "4"]
    ) == 0
    header = preds.read_text().splitlines()[0]
    assert header == "user_id,step,pred_gap,obs_gap,pred_dur,obs_dur,alarm"
    assert len(preds.read_text().splitlines()) > 1

    assert main(
        ["evaluate", "--sessions", str(sessions), "--model", str(model), "--out", str(metrics),
         "--methods", "model,global_mean,last_value", "--split", "test",
         "--train-frac", "0.75", "--seed", "1", "--pred-samples", "4"]
    ) == 0
    rows = metrics.read_text().splitlines()
    assert rows[0] == "method,mae_gap,mre_gap,mae_duration,mre_duration,count"
    assert len(rows) == 4
    assert (tmp_path / "metrics.csv.long.csv").exists()


def test_predict_expected_alarm_mode(tmp_path):
    sessions = tmp_path / "sessions.jsonl"
    model = tmp_path / "model.json"
    preds = tmp_path / "p.csv"
    main(["simulate", "--kind", "stationary", "--users", "6", "--horizon", "40",
          "--seed", "2", "--out", str(sessions)])
    main(["train", "--sessions", str(sessions), "--out", str(model), "--epochs", "1",
          "--hidden", "4", "--mlp-hidden", "3", "--seed", "1", "--train-frac", "0.67"])
    assert main(
        ["predict", "--sessions", str(sessions), "--model", str(model), "--out", str(preds),
         "--split", "all", "--seed", "1", "--pred-samples", "2",
         "--alarm-mode", "expected", "--expected-dur-cmp", "greater"]
    ) == 0
    assert preds.exists()


def test_predict_manifest_records_environment(tmp_path):
    # the random streams of a predictions file are only reproducible with
    # the numpy that drew them
    sessions = tmp_path / "sessions.jsonl"
    model = tmp_path / "model.json"
    preds = tmp_path / "p.csv"
    main(["simulate", "--kind", "stationary", "--users", "4", "--horizon", "30",
          "--seed", "3", "--out", str(sessions)])
    main(["train", "--sessions", str(sessions), "--out", str(model), "--epochs", "1",
          "--hidden", "3", "--mlp-hidden", "2", "--seed", "1", "--train-frac", "0.75"])
    assert main(
        ["predict", "--sessions", str(sessions), "--model", str(model), "--out", str(preds),
         "--split", "all", "--seed", "1", "--pred-samples", "2"]
    ) == 0
    manifest = json.loads((tmp_path / "p.csv.manifest.json").read_text())
    assert manifest["subcommand"] == "predict"
    assert manifest["numpy"] == np.__version__
    assert manifest["python"] == platform.python_version()


def test_predict_test_split_needs_a_holdout(tmp_path):
    sessions = tmp_path / "sessions.jsonl"
    model = tmp_path / "model.json"
    main(["simulate", "--kind", "stationary", "--users", "4", "--horizon", "30",
          "--seed", "4", "--out", str(sessions)])
    main(["train", "--sessions", str(sessions), "--out", str(model), "--epochs", "1",
          "--hidden", "4", "--mlp-hidden", "3", "--seed", "1", "--train-frac", "1.0"])
    code = main(["predict", "--sessions", str(sessions), "--model", str(model),
                 "--out", str(tmp_path / "p.csv"), "--split", "test", "--train-frac", "1.0"])
    assert code == 2


def _ragged_files(tmp_path, *train_flags):
    """A sessions file of 30 regime-switching users, short and ragged, and
    three one-session users; and a model trained on it, with train_flags."""
    seqs, _ = generate(GeneratorSpec(kind="regime_switching", users=30, horizon=30.0), seed=7)
    seqs += [SessionSequence(f"solo{k}", [Session(t=float(k), g=0.0, d=k + 1)]) for k in range(3)]
    sessions, model = tmp_path / "sessions.jsonl", tmp_path / "model.json"
    write_sessions(seqs, sessions)
    assert main(["train", "--sessions", str(sessions), "--out", str(model), "--epochs", "1", "--hidden", "4",
                 "--mlp-hidden", "3", "--seed", "1", "--lr", "0.01", *train_flags]) == 0
    return sessions, model


@pytest.mark.parametrize(
    "flags", [["--theta-g", "1.4", "--theta-d", "4"], ["--alarm-mode", "expected"]], ids=["fixed", "expected"]
)
def test_predict_csv_equals_a_per_record_reference(tmp_path, flags):
    # predict works on record columns; its CSV must equal, byte for byte, the
    # table built record by record from the public record API
    sessions, model = _ragged_files(tmp_path)
    preds = tmp_path / "p.csv"
    argv = ["predict", "--sessions", str(sessions), "--model", str(model), "--out", str(preds),
            "--split", "all", "--seed", "3", "--pred-samples", "5", *flags]
    assert main(argv) == 0
    args = build_parser().parse_args(argv)
    policy = AlarmPolicy(args.alarm_mode, args.theta_g, args.theta_d, args.expected_dur_cmp)
    seqs = read_sessions(sessions)
    params, _ = load_checkpoint(model)
    stats = {s.user_id: user_history_stats(s) for s in seqs}
    lines = ["user_id,step,pred_gap,obs_gap,pred_dur,obs_dur,alarm"]
    for r in rolling_evaluate_many(params, seqs, 5, 3):
        alarm = int(churn_alarm(r, policy, stats[r.user_id]))
        lines.append(f"{r.user_id},{r.step},{r.pred_gap!r},{r.obs_gap!r},{r.pred_dur!r},{r.obs_dur},{alarm}")
    assert {line[-1] for line in lines[1:]} == {"0", "1"}
    assert len(lines) - 1 == sum(len(s) - 1 for s in seqs)
    assert preds.read_text() == "\n".join(lines) + "\n"


def _evaluate_tables(per_seed, methods, seeds):
    """The summary and long CSVs that evaluate writes for the per-seed
    compare summaries per_seed."""
    fields = ("mae_gap", "mre_gap", "mae_duration", "mre_duration")
    summary = ["method," + ",".join(fields) + ",count"]
    for m in methods:
        means = [repr(float(np.mean([getattr(per_seed[s][m], f) for s in seeds]))) for f in fields]
        summary.append(",".join([m, *means, str(per_seed[seeds[0]][m].count)]))
    long = ["method,seed,metric,value"]
    long += [f"{m},{s},{f},{getattr(per_seed[s][m], f)!r}" for m in methods for s in seeds for f in fields]
    return "\n".join(summary) + "\n", "\n".join(long) + "\n"


def test_evaluate_tables_equal_per_seed_compare(tmp_path):
    # evaluate scores the seedless baselines once, at the first seed; its
    # tables must equal, byte for byte, those of compare run at every seed
    # over all five default methods
    sessions, model = _ragged_files(tmp_path)
    out = tmp_path / "m.csv"
    assert main(["evaluate", "--sessions", str(sessions), "--model", str(model), "--out", str(out),
                 "--seeds", "0,1,2", "--seed", "1", "--pred-samples", "4"]) == 0
    params, _ = load_checkpoint(model)
    train_seqs, test_seqs = split_users(read_sessions(sessions), 0.8, 1)
    methods = ["model", "per_user_mean", "global_mean", "last_value", "hom_poisson"]
    fitted = {"model": params, **fit_baselines(methods[1:], train_seqs)}
    seeds = (0, 1, 2)
    per_seed = {seed: compare(fitted, test_seqs, 4, seed) for seed in seeds}
    summary, long = _evaluate_tables(per_seed, methods, seeds)
    assert out.read_text() == summary
    assert (tmp_path / "m.csv.long.csv").read_text() == long


@pytest.mark.parametrize("wt_mode", ["frozen_zero", "learned"])
def test_evaluate_ablation_mirrors_the_model(tmp_path, wt_mode):
    # the ablation is trained at each seed with the model's sizes and
    # intensity-slope mode and the latent fixed, so that the comparison
    # isolates the latent; evaluate's tables must equal, byte for byte,
    # those of compare over per-seed models trained so
    sessions, model = _ragged_files(tmp_path, "--wt-mode", wt_mode)
    out = tmp_path / "m.csv"
    assert main(["evaluate", "--sessions", str(sessions), "--model", str(model), "--out", str(out),
                 "--methods", "model,ablation_rnn", "--seeds", "0,1", "--seed", "1", "--pred-samples", "4",
                 "--ablation-epochs", "1"]) == 0
    params, _ = load_checkpoint(model)
    assert params.wt_mode == wt_mode
    train_seqs, test_seqs = split_users(read_sessions(sessions), 0.8, 1)
    seeds = (0, 1)
    per_seed = {}
    for seed in seeds:
        cfg = TrainConfig(epochs=1, lr=0.01, hidden=4, mlp_hidden=3, wt_mode=wt_mode, latent_mode="fixed", seed=seed)
        ablation, _ = train(train_seqs, cfg)
        per_seed[seed] = compare({"model": params, "ablation_rnn": ablation}, test_seqs, 4, seed)
    summary, long = _evaluate_tables(per_seed, ["model", "ablation_rnn"], seeds)
    assert out.read_text() == summary
    assert (tmp_path / "m.csv.long.csv").read_text() == long


def test_checkpoint_error_maps_to_data_error(tmp_path):
    sessions = tmp_path / "sessions.jsonl"
    main(["simulate", "--kind", "stationary", "--users", "4", "--horizon", "30",
          "--seed", "3", "--out", str(sessions)])
    bad_model = tmp_path / "broken.json"
    bad_model.write_text("{not json")
    code = main(["predict", "--sessions", str(sessions), "--model", str(bad_model),
                 "--out", str(tmp_path / "p.csv"), "--split", "all"])
    assert code == 2


def _predict_exit_code(tmp_path, params, edit_payload=None):
    """Exit code of `predict` on a small sessions file and a checkpoint of
    params, optionally edited as JSON before it is read back."""
    sessions = tmp_path / "sessions.jsonl"
    main(["simulate", "--kind", "stationary", "--users", "4", "--horizon", "30",
          "--seed", "3", "--out", str(sessions)])
    model = tmp_path / "model.json"
    save_checkpoint(params, model)
    if edit_payload is not None:
        payload = json.loads(model.read_text())
        edit_payload(payload)
        model.write_text(json.dumps(payload))
    return main(["predict", "--sessions", str(sessions), "--model", str(model),
                 "--out", str(tmp_path / "p.csv"), "--split", "all"])


@pytest.mark.parametrize("value", [float("nan"), float("inf"), "abc"])
def test_non_finite_checkpoint_is_data_error(tmp_path, value):
    def edit(payload):
        payload["params"]["head_bt"]["data"] = [value]

    assert _predict_exit_code(tmp_path, init_params(4, 3, seed=1), edit) == 2


@pytest.mark.parametrize("key,value", [("latent_mode", "bogus"), ("w_t_mode", "weird")])
def test_unknown_checkpoint_mode_is_data_error(tmp_path, capsys, key, value):
    # an unknown latent_mode used to run as the fixed-latent ablation
    def edit(payload):
        payload["config"][key] = value

    assert _predict_exit_code(tmp_path, init_params(4, 3, seed=1), edit) == 2
    assert f"unknown {key} {value!r}" in capsys.readouterr().err


def test_non_finite_head_is_numerical_error(tmp_path):
    # finite but extreme prior weights: mu = -inf and sigma = inf, so the
    # latent draw mu + sigma * eps, and with it the head value, is NaN
    params = init_params(4, 3, seed=1)
    params.prior_W1[...] = 0.0
    params.prior_b1[...] = 50.0
    params.prior_W2[0] = -1e308
    params.prior_W2[1] = 1e308
    assert _predict_exit_code(tmp_path, params) == 3


def _simulate_from(tmp_path, model, kind="from_model"):
    out = tmp_path / "gen.jsonl"
    return main(["simulate", "--kind", kind, "--from-model", str(model), "--users", "5",
                 "--horizon", "30", "--seed", "2", "--out", str(out)]), out


def test_simulate_from_trained_checkpoint(tmp_path):
    sessions = tmp_path / "sessions.jsonl"
    model = tmp_path / "model.json"
    main(["simulate", "--kind", "stationary", "--users", "6", "--horizon", "40",
          "--seed", "2", "--out", str(sessions)])
    assert main(["train", "--sessions", str(sessions), "--out", str(model), "--epochs", "1",
                 "--hidden", "4", "--mlp-hidden", "3", "--seed", "1", "--train-frac", "0.67"]) == 0
    code, out = _simulate_from(tmp_path, model)
    assert code == 0
    truth = json.loads((tmp_path / "gen.jsonl.truth.json").read_text())
    assert math.isfinite(truth["loglik_per_event"])
    assert truth["spec"]["model_path"] == str(model)
    assert sorted(truth["users"]) == sorted(s.user_id for s in read_sessions(out))


def test_simulate_from_diverging_checkpoint_is_numerical_error(tmp_path, capsys):
    model = tmp_path / "model.json"
    save_checkpoint(init_params(4, 3, seed=1).replace(head_bt=800.0), model)
    assert _simulate_from(tmp_path, model)[0] == 3
    assert "user u0000 diverged at step 0" in capsys.readouterr().err


def test_simulate_from_checkpoint_with_huge_duration_rate_is_numerical_error(tmp_path, capsys):
    # it used to exit 3 with a message naming the sampler, not the user and step
    model = tmp_path / "model.json"
    save_checkpoint(init_params(4, 3, seed=1).replace(dur_b=30.0), model)
    assert _simulate_from(tmp_path, model)[0] == 3
    assert "generate: user u0000 failed at step 0: duration rate" in capsys.readouterr().err


def test_simulate_from_malformed_checkpoint_is_data_error(tmp_path):
    # a parameter entry that is a list used to end in an AttributeError traceback
    model = tmp_path / "model.json"
    save_checkpoint(init_params(4, 3, seed=1), model)
    payload = json.loads(model.read_text())
    payload["params"]["lstm_b"] = [0.0] * 16
    model.write_text(json.dumps(payload))
    assert _simulate_from(tmp_path, model)[0] == 2


def test_simulate_model_with_another_kind_is_usage_error(tmp_path):
    # the model used to be ignored, and still listed in the manifest and truth
    model = tmp_path / "model.json"
    save_checkpoint(init_params(4, 3, seed=1), model)
    code, out = _simulate_from(tmp_path, model, kind="stationary")
    assert code == 1 and not out.exists()


def _sessions_exit_code(tmp_path, subcommand, sessions_records, pred_samples=2):
    """Exit code of `predict` or `evaluate` on a hand-written sessions file."""
    sessions = tmp_path / "sessions.jsonl"
    sessions.write_text("".join(json.dumps(r) + "\n" for r in sessions_records))
    model = tmp_path / "model.json"
    save_checkpoint(init_params(4, 3, seed=1), model)
    return main([subcommand, "--sessions", str(sessions), "--model", str(model),
                 "--out", str(tmp_path / "out.csv"), "--split", "all", "--pred-samples", str(pred_samples),
                 *(["--methods", "model,global_mean"] if subcommand == "evaluate" else [])])


def test_non_numeric_session_field_is_data_error(tmp_path):
    records = [{"user_id": "u1", "sessions": [{"t": 0.0, "g": 0.0, "d": 1}, {"t": "x", "g": 1.0, "d": 2}]}]
    assert _sessions_exit_code(tmp_path, "predict", records) == 2


def test_non_finite_start_time_is_data_error(tmp_path):
    # json reads NaN, and a NaN start time passed the increasing-times check
    records = [{"user_id": "u1", "sessions": [{"t": 0.0, "g": 0.0, "d": 1}, {"t": math.nan, "g": 1.0, "d": 2}]}]
    assert _sessions_exit_code(tmp_path, "predict", records) == 2


@pytest.mark.parametrize("d", [2.7, True], ids=["fraction", "bool"])
def test_non_integer_duration_is_data_error(tmp_path, d):
    # read as 2 and as 1 before
    records = [{"user_id": "u1", "sessions": [{"t": 0.0, "g": 0.0, "d": 1}, {"t": 1.0, "g": 1.0, "d": d}]}]
    assert _sessions_exit_code(tmp_path, "predict", records) == 2


def test_zero_gap_after_first_session_is_data_error(tmp_path):
    # start times still increase, but a zero gap would divide by zero in the
    # relative-error metrics
    records = [
        {"user_id": "u1", "sessions": [{"t": 0.0, "g": 0.0, "d": 1}, {"t": 1.0, "g": 1.0, "d": 2},
                                       {"t": 2.0, "g": 0.0, "d": 1}]},
        {"user_id": "u2", "sessions": [{"t": 0.0, "g": 0.0, "d": 3}, {"t": 2.5, "g": 2.5, "d": 1}]},
    ]
    assert _sessions_exit_code(tmp_path, "evaluate", records) == 2


@pytest.mark.parametrize("g", [1.5, -0.5], ids=["above-start-difference", "below-zero"])
def test_gap_that_disagrees_with_start_times_is_data_error(tmp_path, g):
    # 1.5 h since a start only 1 h before used to be read as it stood
    records = [{"user_id": "u1", "sessions": [{"t": 0.0, "g": 0.0, "d": 1}, {"t": 1.0, "g": g, "d": 2}]}]
    assert _sessions_exit_code(tmp_path, "predict", records) == 2


_TWO_USERS = [
    {"user_id": "u1", "sessions": [{"t": 0.0, "g": 0.0, "d": 1}, {"t": 1.0, "g": 1.0, "d": 2}]},
    {"user_id": "u2", "sessions": [{"t": 0.0, "g": 0.0, "d": 3}, {"t": 2.5, "g": 2.5, "d": 1}]},
]


@pytest.mark.parametrize("subcommand", ["predict", "evaluate"])
@pytest.mark.parametrize("pred_samples", [0, -1])
def test_non_positive_pred_samples_is_usage_error(tmp_path, capsys, subcommand, pred_samples):
    # 0 used to write nan predictions with exit 0, -1 to fail inside numpy
    assert _sessions_exit_code(tmp_path, subcommand, _TWO_USERS, pred_samples) == 1
    assert "n_samples must be >= 1" in capsys.readouterr().err


def test_duplicate_user_id_is_data_error(tmp_path):
    # predict --alarm-mode expected keys history stats by user, so a second
    # line for u1 would borrow the other line's stats
    records = _TWO_USERS + [
        {"user_id": "u1", "sessions": [{"t": 0.0, "g": 0.0, "d": 2}, {"t": 4.0, "g": 4.0, "d": 2}]}
    ]
    assert _sessions_exit_code(tmp_path, "predict", records) == 2


def test_non_zero_first_gap_is_data_error(tmp_path):
    # the first gap is the sentinel 0; any other value would be fed to the LSTM
    records = [dict(_TWO_USERS[0], sessions=[{"t": 0.0, "g": 3.0, "d": 1}, {"t": 1.0, "g": 1.0, "d": 2}])]
    assert _sessions_exit_code(tmp_path, "predict", records) == 2


def test_diverging_training_is_numerical_error(tmp_path, capsys):
    # a huge learning rate throws the duration bias out of exp range after
    # the first batch; the message names the failing step and user
    sessions = tmp_path / "sessions.jsonl"
    main(["simulate", "--kind", "stationary", "--users", "12", "--horizon", "60",
          "--seed", "5", "--out", str(sessions)])
    code = main(["train", "--sessions", str(sessions), "--out", str(tmp_path / "m.json"),
                 "--epochs", "2", "--lr", "1e6", "--hidden", "4", "--mlp-hidden", "3",
                 "--batch-size", "4", "--seed", "1"])
    assert code == 3
    assert "diverged at epoch 1, batch 1: step 0 of 'u0000'" in capsys.readouterr().err


def test_predict_quotes_ids_that_need_it(tmp_path):
    # ids with a comma or a quote used to give rows of 8 fields, and a line
    # break split a row in two
    ids = ["a,1", 'b"2', "c\nd", "e\rf", "plain"]
    records = [dict(_TWO_USERS[0], user_id=u) for u in ids]
    assert _sessions_exit_code(tmp_path, "predict", records) == 0
    with open(tmp_path / "out.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["user_id", "step", "pred_gap", "obs_gap", "pred_dur", "obs_dur", "alarm"]
    assert all(len(row) == 7 for row in rows)
    assert sorted({row[0] for row in rows[1:]}) == sorted(ids)


def _writing_argv(tmp_path, subcommand, out):
    """The arguments of a small run of subcommand that writes out."""
    ev = tmp_path / "events.csv"
    ev.write_text("user_id,timestamp\nu1,1.0\nu2,3.0\n")
    sessions = tmp_path / "sessions.jsonl"
    sessions.write_text("".join(json.dumps(r) + "\n" for r in _TWO_USERS))
    model = tmp_path / "model.json"
    save_checkpoint(init_params(4, 3, seed=1), model)
    held_out = ["--sessions", str(sessions), "--model", str(model), "--out", out, "--split", "all",
                "--pred-samples", "2"]
    return {
        "sessionize": ["--in", str(ev), "--out", out],
        "simulate": ["--kind", "stationary", "--users", "3", "--horizon", "20", "--out", out],
        "train": ["--sessions", str(sessions), "--out", out, "--epochs", "1", "--hidden", "4",
                  "--mlp-hidden", "3", "--train-frac", "1"],
        "predict": held_out,
        "evaluate": held_out + ["--methods", "model,global_mean"],
        "gradcheck": ["--hidden", "3", "--steps", "4", "--out", out],
    }[subcommand]


@pytest.mark.parametrize("subcommand", ["sessionize", "simulate", "train", "predict", "evaluate", "gradcheck"])
def test_unwritable_out_is_data_error(tmp_path, capsys, subcommand):
    # simulate, train and predict used to end in a FileNotFoundError traceback, exit 1
    out = str(tmp_path / "missing" / "out")
    assert main([subcommand, *_writing_argv(tmp_path, subcommand, out)]) == 2
    err = capsys.readouterr().err
    assert f"churnkit {subcommand}: data error: cannot write {out}: No such file or directory" in err
    assert "Traceback" not in err


def test_unwritable_report_is_data_error(tmp_path, capsys):
    argv = _writing_argv(tmp_path, "train", str(tmp_path / "model.json"))
    report = str(tmp_path / "missing" / "report.csv")
    assert main(["train", *argv, "--report", report]) == 2
    assert f"cannot write {report}: No such file or directory" in capsys.readouterr().err


@pytest.mark.parametrize("missing", ["out", "report"])
def test_train_checks_its_outputs_before_training(tmp_path, capsys, monkeypatch, missing):
    # the checkpoint used to be written, without a manifest, before the report failed
    out = tmp_path / ("missing" if missing == "out" else "") / "m.json"
    report = tmp_path / ("missing" if missing == "report" else "") / "r.csv"
    argv = _writing_argv(tmp_path, "train", str(out)) + ["--report", str(report)]
    before = sorted(tmp_path.iterdir())
    monkeypatch.setattr(cli, "train", lambda *a, **k: pytest.fail("train ran"))
    assert main(["train", *argv]) == 2
    bad = out if missing == "out" else report
    assert f"churnkit train: data error: cannot write {bad}: No such file or directory" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


# a byte that is not UTF-8 used to exit 1, as a usage error
@pytest.mark.parametrize("kind", ["csv", "jsonl", "sessions", "checkpoint"])
def test_non_utf8_input_is_data_error(tmp_path, capsys, kind):
    bad = tmp_path / "bad"
    text = {
        "csv": b"user_id,timestamp\nu1,1.0\nu\xff,2.0\n",
        "jsonl": b'{"user_id": "u1", "timestamp": 1.0}\n{"user_id": "u\xff", "timestamp": 2.0}\n',
        "sessions": json.dumps(_TWO_USERS[0]).encode().replace(b"u1", b"u\xff") + b"\n",
        "checkpoint": b'{"format_version": 1, "config": "\xff"}\n',
    }[kind]
    bad.write_bytes(text)
    command, flag = {"csv": ("sessionize", "--in"), "jsonl": ("sessionize", "--in"),
                     "sessions": ("predict", "--sessions"), "checkpoint": ("predict", "--model")}[kind]
    argv = _writing_argv(tmp_path, command, str(tmp_path / "out"))
    argv[argv.index(flag) + 1] = str(bad)
    assert main([command, *argv, *(["--format", "jsonl"] if kind == "jsonl" else [])]) == 2
    err = capsys.readouterr().err
    assert f"churnkit {command}: data error:" in err and "can't decode byte 0xff" in err
    name = {"csv": "event file", "jsonl": "event file", "sessions": "sessions file", "checkpoint": "checkpoint"}[kind]
    assert f"{name} {bad} is not UTF-8" in err


def test_checkpoint_integer_over_the_digit_limit_is_data_error(tmp_path, capsys):
    # json raises a plain ValueError for it, which used to exit 1
    argv = _writing_argv(tmp_path, "predict", str(tmp_path / "p.csv"))
    model = tmp_path / "model.json"
    model.write_text(model.read_text().replace('"format_version": ', '"format_version": ' + HUGE_INT + ", \"x\": "))
    assert main(["predict", *argv]) == 2
    assert "checkpoint is not valid JSON: Exceeds the limit (4300 digits)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        ["--step-size", "0"],  # used to end in a ZeroDivisionError traceback
        ["--step-size=-1e-5"],
        ["--step-size", "nan"],  # these two used to exit 3 with a non-finite head value
        ["--step-size", "inf"],
        ["--tol", "nan"],  # used to exit 3 with a FAIL
        ["--tol", "0"],
        ["--tol", "inf"],
    ],
    ids=["step-zero", "step-negative", "step-nan", "step-inf", "tol-nan", "tol-zero", "tol-inf"],
)
def test_gradcheck_bad_step_size_or_tolerance_is_usage_error(capsys, flags):
    assert main(["gradcheck", "--hidden", "3", "--steps", "4", *flags]) == 1
    assert "step_size and tol must be finite and > 0" in capsys.readouterr().err


@pytest.mark.parametrize("wt_mode", ["learned", "frozen_zero"])
def test_default_commands_load_no_scipy(tmp_path, wt_mode):
    # scipy.special alone takes about 0.3 s to import, which every CLI call would pay
    events, s, m = tmp_path / "e.csv", tmp_path / "s.jsonl", str(tmp_path / "m.json")
    events.write_text("user_id,timestamp\nu1,1.0\nu1,5.0\nu2,3.0\nu2,9.5\n")
    held_out = ["--sessions", str(s), "--model", m, "--pred-samples", "4"]
    calls = [
        ["sessionize", "--in", str(events), "--out", str(tmp_path / "es.jsonl")],
        ["simulate", "--kind", "regime_switching", "--users", "8", "--horizon", "80", "--out", str(s)],
        ["train", "--sessions", str(s), "--out", m, "--epochs", "1", "--hidden", "4", "--mlp-hidden", "3",
         "--wt-mode", wt_mode],
        ["simulate", "--kind", "from_model", "--from-model", m, "--users", "8", "--horizon", "80",
         "--out", str(tmp_path / "g.jsonl")],
        ["predict", *held_out, "--out", str(tmp_path / "p.csv")],
        ["evaluate", *held_out, "--out", str(tmp_path / "v.csv")],
    ]
    code = (f"import sys\nfrom churnkit.cli import main\nfor argv in {calls!r}:\n    assert main(argv) == 0, argv\n"
            "sys.exit(str(sorted(n for n in sys.modules if n.split('.')[0] == 'scipy')) if 'scipy' in sys.modules else 0)")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(churnkit.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
