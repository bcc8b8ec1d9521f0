"""Acceptance suite: every criterion at its stated tolerance, one summary
line each (see the "acceptance criteria" section of the pytest output).

The quantitative checks run on synthetic data with known ground truth; the
heavier fixtures (a full parameter-recovery training run) are shared across
criteria that reference the same experiment.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate, stats

from _acceptance_report import record
from churnkit.cli import main as cli_main
from churnkit.evalharness import compute_metrics, fit_baselines
from churnkit.eventlog import derive_seed, read_sessions, split_users
from churnkit.inference import rolling_evaluate_many
from churnkit.model import init_params
from churnkit.simulate import GeneratorSpec, generate
from churnkit import _kernels as K
from churnkit.tppmath import gap_at
from churnkit.train import TrainConfig, _elbo_value, gradcheck_elbo, train


# --------------------------------------------------------------- criterion 1


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    report = gradcheck_elbo(hidden=4, mlp_hidden=4, steps=5, seed=1, wt_mode="learned")
    elapsed = time.perf_counter() - t0
    ok = report.max_rel_err < 1e-4 and elapsed < 10.0
    record(1, ok, f"gradcheck max rel err {report.max_rel_err:.2e} (< 1e-4) in {elapsed:.2f}s (< 10s)")
    assert report.max_rel_err < 1e-4
    assert elapsed < 10.0


# --------------------------------------------------------------- criterion 2


def _gap_density(a, wt, g):
    """The gap density that training scores, exp of _kernels.gap_loglik; 0
    where wt * g is past exp's range, where the density is 0 in floats."""
    if wt * g > K.EXP_ARG_MAX:
        return 0.0
    return math.exp(K.gap_loglik(a, wt, g)[0])


def test_criterion_2_density_normalization():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(50):
        a, wt = float(rng.uniform(-2, 2)), float(rng.uniform(0, 1))
        mass, _ = integrate.quad(lambda g: _gap_density(a, wt, g), 0.0, np.inf, limit=300)
        worst = max(worst, abs(mass - 1.0))
    worst_neg = 0.0
    for _ in range(25):
        a, wt = float(rng.uniform(-2, 2)), float(rng.uniform(-1.0, -0.05))
        mass, _ = integrate.quad(lambda g: _gap_density(a, wt, g), 0.0, np.inf, limit=300)
        expected = 1.0 - math.exp(-math.exp(a) / abs(wt))
        worst_neg = max(worst_neg, abs(mass - expected))
    ok = worst < 1e-6 and worst_neg < 1e-6
    record(2, ok, f"normalization error {worst:.2e} (wt>=0), {worst_neg:.2e} (wt<0), both < 1e-6")
    assert worst < 1e-6
    assert worst_neg < 1e-6


# --------------------------------------------------------------- criterion 3


def test_criterion_3_sampler_fidelity():
    rng = np.random.default_rng(7)
    draws = gap_at(0.0, 0.0, -np.log1p(-rng.random(100_000)))
    ks = stats.kstest(draws, "expon").statistic
    mean_err = abs(draws.mean() - 1.0)
    ok = ks < 0.01 and mean_err < 0.02
    record(3, ok, f"KS statistic {ks:.4f} (< 0.01), |mean-1| {mean_err:.4f} (< 0.02)")
    assert ks < 0.01
    assert mean_err < 0.02


# --------------------------------------------------------------- criterion 4


def test_criterion_4_kl_properties():
    rng = np.random.default_rng(21)
    min_kl = math.inf
    for _ in range(10_000):
        q = (float(rng.normal(0, 3)), float(rng.uniform(0.05, 4)))
        p = (float(rng.normal(0, 3)), float(rng.uniform(0.05, 4)))
        min_kl = min(min_kl, float(K.gaussian_kl(*q, *p)))
    equal = float(K.gaussian_kl(0.3, 1.1, 0.3, 1.1))

    worst_sigma = 0.0
    for _ in range(10):
        q_mu, q_sigma = float(rng.normal(0, 2)), float(rng.uniform(0.3, 2.5))
        p_mu, p_sigma = float(rng.normal(0, 2)), float(rng.uniform(0.3, 2.5))
        x = q_mu + q_sigma * rng.standard_normal(1_000_000)
        diff = (-0.5 * ((x - q_mu) / q_sigma) ** 2 - math.log(q_sigma)) - (
            -0.5 * ((x - p_mu) / p_sigma) ** 2 - math.log(p_sigma)
        )
        se = diff.std(ddof=1) / math.sqrt(len(diff))
        worst_sigma = max(worst_sigma, abs(float(K.gaussian_kl(q_mu, q_sigma, p_mu, p_sigma)) - diff.mean()) / se)
    ok = min_kl >= 0.0 and equal == 0.0 and worst_sigma < 3.0
    record(4, ok, f"min KL {min_kl:.2e} (>= 0), KL(q,q) = {equal}, MC deviation {worst_sigma:.2f} sigma (< 3)")
    assert min_kl >= 0.0
    assert equal == 0.0
    assert worst_sigma < 3.0


# ------------------------------------------------------- criteria 5, 6, 9a


@pytest.fixture(scope="module")
def stationary_run():
    spec = GeneratorSpec(
        kind="stationary", users=200, horizon=500.0, mean_gap=2.0, mean_duration=5.0
    )
    seqs, _ = generate(spec, seed=101)
    train_seqs, test_seqs = split_users(seqs, 0.8, seed=0)
    cfg = TrainConfig(
        epochs=30,
        lr=0.01,
        hidden=16,
        mlp_hidden=8,
        seed=0,
        batch_size=16,
        report_mae_users=16,
        report_mae_samples=8,
    )
    t0 = time.perf_counter()
    params, report = train(train_seqs, cfg)
    records = rolling_evaluate_many(params, test_seqs, 32, 0)
    elapsed = time.perf_counter() - t0
    return {
        "train": train_seqs,
        "test": test_seqs,
        "params": params,
        "report": report,
        "records": records,
        "elapsed": elapsed,
    }


def test_criterion_5_parameter_recovery(stationary_run):
    records = stationary_run["records"]
    mean_gap = float(np.mean([r.pred_gap for r in records]))
    mean_dur = float(np.mean([r.pred_dur for r in records]))
    elapsed = stationary_run["elapsed"]
    ok = abs(mean_gap - 2.0) / 2.0 < 0.10 and abs(mean_dur - 5.0) / 5.0 < 0.10 and elapsed < 300.0
    record(
        5,
        ok,
        f"held-out mean gap {mean_gap:.3f} (2.0 +-10%), mean duration {mean_dur:.3f} "
        f"(5.0 +-10%), runtime {elapsed:.0f}s (< 300s)",
    )
    assert abs(mean_gap - 2.0) / 2.0 < 0.10
    assert abs(mean_dur - 5.0) / 5.0 < 0.10
    assert elapsed < 300.0


def test_criterion_6_convergence_shape(stationary_run):
    neg = [e.neg_elbo_per_event for e in stationary_run["report"].epochs]
    decrease = neg[0] - neg[-1]
    window = neg[24:30]
    spread = max(window) - min(window)
    smoothed = np.convolve(neg, np.ones(3) / 3.0, mode="valid")
    monotone = bool(np.all(np.diff(smoothed) <= 1e-9))
    ok = neg[-1] < neg[0] and spread < 0.05 * decrease and monotone
    record(
        6,
        ok,
        f"loss {neg[0]:.4f} -> {neg[-1]:.4f}, final-window spread {spread:.4f} "
        f"= {100.0 * spread / decrease:.2f}% of decrease (< 5%), "
        f"3-epoch-smoothed curve non-increasing: {monotone}",
    )
    assert neg[-1] < neg[0]
    assert spread < 0.05 * decrease
    assert monotone


# --------------------------------------------------------------- criterion 7


def test_criterion_7_latent_variable_benefit():
    spec = GeneratorSpec(
        kind="regime_switching",
        users=100,
        horizon=350.0,
        regime_gaps=(1.0, 10.0),
        regime_durations=(3.0, 8.0),
        switch=((0.95, 0.05), (0.05, 0.95)),
    )
    full_mae = []
    abl_mae = []
    for seed in range(5):
        seqs, _ = generate(spec, seed=300 + seed)
        train_seqs, test_seqs = split_users(seqs, 0.8, seed=seed)
        cfg = TrainConfig(
            epochs=15,
            lr=0.01,
            hidden=4,
            mlp_hidden=8,
            seed=seed,
            batch_size=16,
            report_mae_users=2,
            report_mae_samples=2,
        )
        params_full, _ = train(train_seqs, cfg)
        params_abl, _ = train(train_seqs, replace(cfg, latent_mode="fixed"))
        full_mae.append(
            compute_metrics(rolling_evaluate_many(params_full, test_seqs, 32, seed)).mae_gap
        )
        abl_mae.append(
            compute_metrics(rolling_evaluate_many(params_abl, test_seqs, 32, seed)).mae_gap
        )
    mean_full = float(np.mean(full_mae))
    mean_abl = float(np.mean(abl_mae))
    ok = mean_full <= mean_abl
    record(
        7,
        ok,
        f"gap MAE over 5 seeds: full {mean_full:.4f} <= ablation {mean_abl:.4f} "
        f"(margin {mean_abl - mean_full:+.4f}; per seed "
        + " ".join(f"{a - f:+.4f}" for f, a in zip(full_mae, abl_mae))
        + ")",
    )
    assert mean_full <= mean_abl


# --------------------------------------------------------------- criterion 8


def test_criterion_8_bound_property():
    truth_params = init_params(8, 8, seed=77)
    spec = GeneratorSpec(
        kind="from_model", users=250, horizon=200.0, model_params=truth_params, max_sessions=600
    )
    seqs, truth = generate(spec, seed=400)
    train_seqs, test_seqs = split_users(seqs, 0.8, seed=0)
    test_seqs = [s for s in test_seqs if len(s) >= 2]
    n_events = sum(len(s) for s in test_seqs)
    assert n_events >= 10_000, f"held-out set too small: {n_events}"

    cfg = TrainConfig(
        epochs=8, lr=0.01, hidden=8, mlp_hidden=8, seed=0, batch_size=16,
        report_mae_users=4, report_mae_samples=2,
    )
    params, _ = train(train_seqs, cfg)

    elbo_sum = 0.0
    per_user = []
    true_sum = 0.0
    for seq in test_seqs:
        rng = np.random.default_rng(derive_seed(0, "bound", seq.user_id))
        elbo_u = _elbo_value(params, seq, rng.standard_normal((8, len(seq))))
        true_u = truth["users"][seq.user_id]["loglik"]
        elbo_sum += elbo_u
        true_sum += true_u
        per_user.append((elbo_u - true_u) / len(seq))
    elbo_per_event = elbo_sum / n_events
    true_per_event = true_sum / n_events
    se = float(np.std(per_user, ddof=1) / math.sqrt(len(per_user)))
    ok = elbo_per_event <= true_per_event + 2.0 * se
    record(
        8,
        ok,
        f"trained ELBO/event {elbo_per_event:.4f} <= true loglik/event {true_per_event:.4f} "
        f"+ 2se ({2.0 * se:.4f}) on {n_events} held-out events",
    )
    assert elbo_per_event <= true_per_event + 2.0 * se


# --------------------------------------------------------------- criterion 9


def test_criterion_9_baseline_sanity(stationary_run):
    pred = fit_baselines(["hom_poisson"], stationary_run["train"])["hom_poisson"]
    gaps = [pred.user_gap[s.user_id] for s in stationary_run["train"]]  # each user's predicted gap
    rel_err = abs(float(np.mean(gaps)) - 2.0) / 2.0

    from churnkit.eventlog import Session, SessionSequence

    constant = []
    for u in range(5):
        sessions = [Session(t=3.0 * i, g=0.0 if i == 0 else 3.0, d=2) for i in range(6)]
        constant.append(SessionSequence(f"c{u}", sessions))
    lv = fit_baselines(["last_value"], constant)["last_value"]
    lv_mae = compute_metrics(lv.columns(constant)).mae_gap
    ok = rel_err < 0.05 and lv_mae == 0.0
    record(
        9,
        ok,
        f"hom_poisson mean gap within {100 * rel_err:.2f}% of truth (< 5%), "
        f"last_value MAE on constant gaps {lv_mae}",
    )
    assert rel_err < 0.05
    assert lv_mae == 0.0


# -------------------------------------------------------------- criterion 10


def _expand_to_events(sessions_path, events_path):
    """Deterministically rebuild an event log from sessions (spacing 0.001h)."""
    rows = []
    for seq in read_sessions(sessions_path):
        for s in seq.sessions:
            for k in range(s.d):
                rows.append((seq.user_id, s.t + 0.001 * k))
    rows.sort()
    with open(events_path, "w", encoding="utf-8") as fh:
        fh.write("user_id,timestamp\n")
        for user, t in rows:
            fh.write(f"{user},{t!r}\n")


def _run_pipeline(root):
    argvs = [
        ["simulate", "--kind", "stationary", "--users", "24", "--horizon", "100",
         "--mean-gap", "2", "--mean-duration", "4", "--seed", "9", "--out", "sim_sessions.jsonl"],
        None,  # events expansion happens between these stages
        ["sessionize", "--in", "events.csv", "--out", "sessions.jsonl",
         "--session-threshold-hours", "1.0"],
        ["train", "--sessions", "sessions.jsonl", "--out", "model.json", "--epochs", "3",
         "--lr", "0.01", "--hidden", "6", "--mlp-hidden", "4", "--seed", "1",
         "--train-frac", "0.75"],
        ["predict", "--sessions", "sessions.jsonl", "--model", "model.json",
         "--out", "predictions.csv", "--split", "test", "--train-frac", "0.75",
         "--seed", "1", "--pred-samples", "8"],
        ["evaluate", "--sessions", "sessions.jsonl", "--model", "model.json",
         "--out", "metrics.csv", "--methods", "model,per_user_mean,global_mean,last_value,hom_poisson",
         "--split", "test", "--train-frac", "0.75", "--seed", "1", "--pred-samples", "8"],
    ]
    for argv in argvs:
        if argv is None:
            _expand_to_events(root / "sim_sessions.jsonl", root / "events.csv")
            continue
        assert cli_main(argv) == 0, f"pipeline stage failed: {argv[0]}"


def _strip_seconds(text):
    lines = text.strip().splitlines()
    return "\n".join(",".join(line.split(",")[:-1]) for line in lines)


def test_criterion_10_pipeline_determinism(tmp_path, monkeypatch):
    dirs = []
    for name in ("run_a", "run_b"):
        root = tmp_path / name
        root.mkdir()
        monkeypatch.chdir(root)
        _run_pipeline(root)
        dirs.append(root)
    byte_identical = [
        "sim_sessions.jsonl",
        "sim_sessions.jsonl.truth.json",
        "sim_sessions.jsonl.manifest.json",
        "events.csv",
        "sessions.jsonl",
        "sessions.jsonl.manifest.json",
        "model.json",
        "model.json.manifest.json",
        "predictions.csv",
        "predictions.csv.manifest.json",
        "metrics.csv",
        "metrics.csv.long.csv",
        "metrics.csv.manifest.json",
    ]
    mismatched = []
    for name in byte_identical:
        if (dirs[0] / name).read_bytes() != (dirs[1] / name).read_bytes():
            mismatched.append(name)
    # the train report is compared without its wall-clock column
    ra = _strip_seconds((dirs[0] / "model.json.report.csv").read_text())
    rb = _strip_seconds((dirs[1] / "model.json.report.csv").read_text())
    if ra != rb:
        mismatched.append("model.json.report.csv")
    ok = not mismatched
    record(
        10,
        ok,
        f"{len(byte_identical) + 1} pipeline outputs byte-identical across reruns"
        + ("" if ok else f" (mismatched: {mismatched})"),
    )
    assert not mismatched
