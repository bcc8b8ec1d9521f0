"""Command-line pipeline: sessionize -> train -> predict -> evaluate, plus
simulate and gradcheck.

Exit codes: 0 success, 1 usage error, 2 data error (an output that cannot be
written and an input that is not UTF-8 among them), 3 numerical failure.
Every run writes a ``<output>.manifest.json`` next to its primary output with
the fully resolved configuration, so a run can be reproduced exactly.
"""

from __future__ import annotations

import argparse
import difflib
import inspect
import logging
import os
import platform
import sys
from dataclasses import asdict

import numpy as np

from . import __version__, eventlog
from .errors import ChurnkitError, DataError, NumericalError
from .eventlog import (
    GAP_MODES,
    ingest_events,
    read_sessions,
    sessionize_log,
    split_users,
    write_json,
    write_sessions,
    write_table,
)
from .evalharness import BASELINE_KINDS, compare, fit_baseline, fit_baselines
from .inference import AlarmPolicy, churn_alarm, rolling_evaluate_many, user_history_stats
from .model import LATENT_MODES, WT_MODES
from .simulate import KINDS, GeneratorSpec, generate
from .train import (
    CHECKPOINT_VERSION,
    TrainConfig,
    gradcheck_elbo,
    load_checkpoint,
    save_checkpoint,
    train,
)

log = logging.getLogger("churnkit")


class _Parser(argparse.ArgumentParser):
    """argparse parser that exits 1 on usage errors and suggests close flags."""

    def _all_option_strings(self):
        options = set()
        for action in self._actions:
            options.update(action.option_strings)
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    for sub_action in sub._actions:
                        options.update(sub_action.option_strings)
        return sorted(options)

    def error(self, message):
        if "unrecognized arguments:" in message:
            unknown = [t for t in message.split(":", 1)[1].split() if t.startswith("--")]
            options = self._all_option_strings()
            hints = []
            for u in unknown:
                close = difflib.get_close_matches(u, [o for o in options if o != u], n=1)
                if close:
                    hints.append(f"did you mean {close[0]}?")
            if hints:
                message += "  (" + " ".join(hints) + ")"
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def write_manifest(args, config, inputs, outputs):
    """Write ``<--out>.manifest.json`` for the run of args."""
    manifest = {
        "subcommand": args.subcommand,
        "config": config,
        "inputs": inputs,
        "outputs": outputs,
        "seed": getattr(args, "seed", None),  # sessionize draws nothing
        "version": __version__,
        "checkpoint_format": CHECKPOINT_VERSION,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }
    write_json(args.out + ".manifest.json", manifest, indent=1)


# kept out of a manifest's config: the seed and the files, which it records
# on their own, and the entries that select the command and its logging
_NOT_CONFIG = {"func", "subcommand", "verbose", "seed", "infile", "out", "sessions", "model"}


def _config(args):
    """The parsed options of a run, for its manifest."""
    return {k: v for k, v in vars(args).items() if k not in _NOT_CONFIG}


def _add_options(p, target, skip=(), **extra):
    """Add a --flag for each parameter of target, a dataclass or a function,
    that is not in skip: of its default's type and with that default, or
    required where it has none.  extra gives more add_argument keywords by
    parameter name."""
    for name, param in inspect.signature(target).parameters.items():
        if name not in skip:
            empty = param.default is param.empty
            opts = {"required": True} if empty else {"type": type(param.default), "default": param.default}
            p.add_argument("--" + name.replace("_", "-"), **opts | extra.get(name, {}))


def _default(target, name):
    """The default of parameter name of target, a dataclass or a function."""
    return inspect.signature(target).parameters[name].default


def _options(args, target):
    """The parsed options that are parameters of target, as its keywords."""
    names = inspect.signature(target).parameters
    return {k: v for k, v in vars(args).items() if k in names}


def _pair(text):
    """argparse type of a pair flag: two comma-separated numbers."""
    try:
        a, b = map(float, text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"needs two comma-separated numbers, got {text!r}") from None
    return a, b


def _stay(text):
    """argparse type of --regime-stay: the chance of each regime to stay, as
    the switching matrix."""
    a, b = _pair(text)
    return (a, 1.0 - a), (1.0 - b, b)


def _split(sequences, args):
    """(training users, held-out users): the --train-frac split by --seed,
    which holds no user out at a fraction of 1 or more."""
    if args.train_frac >= 1.0:
        return sequences, []
    return split_users(sequences, args.train_frac, args.seed)


def _held_out(args, train_users=True):
    """(model, training users, --split users) of predict and evaluate, from
    the --sessions and --model files.  Unless train_users asks for the
    training users, --split all skips the split, so it also takes a single
    user; the training users are then None."""
    sequences = read_sessions(args.sessions)
    params, _ = load_checkpoint(args.model)
    if args.split == "all" and not train_users:
        train_seqs, selected = None, sequences
    else:
        train_seqs, test_seqs = _split(sequences, args)
        selected = {"all": sequences, "train": train_seqs, "test": test_seqs}[args.split]
    if not selected:
        raise DataError(f"{args.subcommand}: no held-out users when --train-frac >= 1")
    return params, train_seqs, selected


# ------------------------------------------------------------- subcommands


def _cmd_sessionize(args):
    per_user = ingest_events(args.infile, fmt=args.format, time_unit=args.time_unit)
    sequences = sessionize_log(per_user, args.session_threshold_hours, args.gap_mode)
    write_sessions(sequences, args.out)
    write_manifest(args, _config(args), {"events": args.infile}, {"sessions": args.out})
    print(f"sessionize: {len(sequences)} users -> {args.out}")
    return 0


def _cmd_train(args):
    report_path = args.report or (args.out + ".report.csv")
    for path in (args.out, report_path):  # fail as writing would, before a training that may be long
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise DataError(f"cannot write {path}: No such file or directory")
    sequences = read_sessions(args.sessions)
    train_seqs, test_seqs = _split(sequences, args)
    config = TrainConfig(**_options(args, TrainConfig))
    params, report = train(train_seqs, config)
    save_checkpoint(params, args.out)
    report.to_csv(report_path)
    write_manifest(args, asdict(config) | {"train_frac": args.train_frac}, {"sessions": args.sessions},
                   {"model": args.out, "report": report_path})
    final = report.epochs[-1]
    print(
        f"train: {len(train_seqs)} users ({len(test_seqs)} held out), "
        f"final neg elbo/event {final.neg_elbo_per_event:.5f} -> {args.out}"
    )
    return 0


def _cmd_predict(args):
    policy = AlarmPolicy(mode=args.alarm_mode, **_options(args, AlarmPolicy))
    params, _, selected = _held_out(args, train_users=False)
    records = rolling_evaluate_many(params, selected, args.pred_samples, args.seed)
    stats = {s.user_id: user_history_stats(s) for s in selected}
    alarms = [int(churn_alarm(r, policy, stats[r.user_id])) for r in records]
    rows = [(r.user_id, r.step, r.pred_gap, r.obs_gap, r.pred_dur, r.obs_dur, a) for r, a in zip(records, alarms)]
    write_table(args.out, ("user_id", "step", "pred_gap", "obs_gap", "pred_dur", "obs_dur", "alarm"), rows)
    write_manifest(args, _config(args), {"sessions": args.sessions, "model": args.model},
                   {"predictions": args.out})
    print(f"predict: {len(records)} records for {len(selected)} users -> {args.out}")
    return 0


def _cmd_evaluate(args):
    # the baselines are fitted on the training users, whatever --split is
    params, train_seqs, eval_seqs = _held_out(args)

    method_names = [m.strip() for m in args.methods.split(",") if m.strip()]
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    if not method_names or not seeds:
        raise ValueError("evaluate: need at least one method and one seed")
    # only the ablation takes a seed, so the other baselines are fitted once
    baselines = fit_baselines([m for m in method_names if m not in ("model", "ablation_rnn")], train_seqs)
    fitted = {m: params if m == "model" else baselines[m] for m in method_names if m != "ablation_rnn"}
    per_seed = {}
    for seed in seeds:
        methods = dict(fitted)
        if "ablation_rnn" in method_names:
            cfg = TrainConfig(
                epochs=args.ablation_epochs,
                lr=args.ablation_lr,
                hidden=params.hidden,
                mlp_hidden=params.mlp_hidden,
                seed=seed,
            )
            methods["ablation_rnn"] = fit_baseline("ablation_rnn", train_seqs, cfg)
        per_seed[seed] = compare(methods, eval_seqs, args.pred_samples, seed)

    metric_fields = ("mae_gap", "mre_gap", "mae_duration", "mre_duration")
    write_table(args.out, ("method", *metric_fields, "count"), (
        [m, *(float(np.mean([getattr(per_seed[s][m], f) for s in seeds])) for f in metric_fields),
         per_seed[seeds[0]][m].count] for m in method_names
    ))
    long_path = args.out + ".long.csv"
    write_table(long_path, ("method", "seed", "metric", "value"), (
        (m, s, f, getattr(per_seed[s][m], f)) for m in method_names for s in seeds for f in metric_fields
    ))
    write_manifest(args, _config(args) | {"methods": method_names, "seeds": seeds},
                   {"sessions": args.sessions, "model": args.model}, {"summary": args.out, "long": long_path})
    print(f"evaluate: {len(method_names)} method(s) x {len(seeds)} seed(s) -> {args.out}")
    return 0


def _cmd_simulate(args):
    sequences, truth = generate(GeneratorSpec(**_options(args, GeneratorSpec)), args.seed)
    write_sessions(sequences, args.out)
    truth_path = args.out + ".truth.json"
    write_json(truth_path, truth)
    total = sum(len(s) for s in sequences)
    inputs = {} if args.model_path is None else {"model": args.model_path}
    write_manifest(args, dict(truth["spec"], kind=args.kind), inputs, {"sessions": args.out, "truth": truth_path})
    print(f"simulate: {len(sequences)} users, {total} sessions -> {args.out}")
    return 0


def _cmd_gradcheck(args):
    report = gradcheck_elbo(**_options(args, gradcheck_elbo))
    for name in sorted(report.per_param):
        print(f"  {name:12s} rel err {report.per_param[name]:.3e}")
    print(f"gradcheck: {report.summary()}")
    if args.out:
        write_table(args.out, ("param", "rel_err"), sorted(report.per_param.items()))
        write_manifest(args, _config(args), {}, {"report": args.out})
    if not report.passed:
        raise NumericalError(f"gradient check failed: {report.summary()}")
    return 0


# ------------------------------------------------------------------ parser


def build_parser():
    parser = _Parser(prog="churnkit", description=__doc__)
    parser.add_argument(
        "--version",
        action="version",
        version=f"churnkit {__version__} (checkpoint format {CHECKPOINT_VERSION})",
    )
    parser.add_argument("--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("sessionize", help="segment raw event logs into sessions")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    # defaults read through the module: perfbench's tracer replaces the names
    # imported here with wrappers that take (*args, **kwargs)
    ingest, sessionize = eventlog.ingest_events, eventlog.sessionize_log
    p.add_argument("--format", choices=("csv", "jsonl"), default=_default(ingest, "fmt"))
    p.add_argument("--time-unit", choices=("hours", "seconds"), default=_default(ingest, "time_unit"))
    p.add_argument("--session-threshold-hours", type=float, default=1.0)
    p.add_argument("--gap-mode", choices=GAP_MODES, default=_default(sessionize, "gap_mode"))
    p.set_defaults(func=_cmd_sessionize)

    # train, predict and evaluate must split the users alike
    split = argparse.ArgumentParser(add_help=False)
    split.add_argument("--train-frac", type=float, default=0.8)

    p = sub.add_parser("train", parents=[split], help="fit the model on sessionized data")
    p.add_argument("--sessions", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None)
    _add_options(p, TrainConfig, skip=("report_mae_users", "report_mae_samples"),
                 wt_mode={"choices": WT_MODES}, latent_mode={"choices": LATENT_MODES})
    p.set_defaults(func=_cmd_train)

    # the flags that predict and evaluate share
    held_out = argparse.ArgumentParser(add_help=False, parents=[split])
    held_out.add_argument("--sessions", required=True)
    held_out.add_argument("--model", required=True)
    held_out.add_argument("--out", required=True)
    held_out.add_argument("--split", choices=("test", "train", "all"), default="test")
    held_out.add_argument("--seed", type=int, default=0)
    held_out.add_argument("--pred-samples", type=int, default=32)

    p = sub.add_parser("predict", parents=[held_out], help="rolling next-gap/duration predictions and alarms")
    p.add_argument("--alarm-mode", choices=("fixed", "expected"), default=AlarmPolicy.mode)
    _add_options(p, AlarmPolicy, skip=("mode",), expected_dur_cmp={"choices": ("less", "greater")},
                 theta_g={"help": "absence threshold, hours"}, theta_d={"help": "duration threshold, events"})
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", parents=[held_out], help="compare the model against baselines")
    p.add_argument(
        "--methods",
        default="model,per_user_mean,global_mean,last_value,hom_poisson",
        help="comma list from: model," + ",".join(BASELINE_KINDS),
    )
    p.add_argument("--seeds", default="0", help="comma list of evaluation seeds")
    p.add_argument("--ablation-epochs", type=int, default=20)
    p.add_argument("--ablation-lr", type=float, default=0.01)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("simulate", help="generate synthetic session data")
    _add_options(p, GeneratorSpec, skip=("switch", "model_path", "model_params"),
                 kind={"choices": KINDS}, regime_gaps={"type": _pair}, regime_durations={"type": _pair})
    p.add_argument("--regime-stay", dest="switch", metavar="REGIME_STAY", type=_stay,
                   default=GeneratorSpec.switch)
    p.add_argument("--from-model", dest="model_path", metavar="FROM_MODEL", default=GeneratorSpec.model_path)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("gradcheck", help="finite-difference check of the full objective")
    _add_options(p, gradcheck_elbo, wt_mode={"choices": WT_MODES})
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gradcheck)

    return parser


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"churnkit {args.subcommand}: numerical failure: {exc}", file=sys.stderr)
        return 3
    except ChurnkitError as exc:
        print(f"churnkit {args.subcommand}: data error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"churnkit {args.subcommand}: usage error: {exc}", file=sys.stderr)
        return 1


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
