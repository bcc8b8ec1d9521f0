#!/usr/bin/env python3
"""churnkit's benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload fit_long --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 1

Run from the repository root.  The benchmark imports churnkit from ``src/``
(it builds nothing) and pins the BLAS/OpenMP threads of its process to 1.

``--trace 0`` sets the workload up ``SETUP_REPS`` times (``setup_s`` is the
import time plus the median set-up), then repeats the workload's timed pass,
a few seconds of work on the same inputs, while another one fits into
``--seconds``.  Each timing metric is the upper quartile of its phase's
times over the passes (see ``upper_quartile`` for why); the quality metrics
are the same on every pass.

``--trace 1`` sets up once and alternates untraced passes with passes under
``tracing.Tracer`` (untraced, traced, untraced, ...).  It reports the
per-layer split of the median traced pass and the tracing overhead (median
traced minus median untraced wall time), next to the spread of the untraced
passes, which is the noise the overhead is measured against.

Human-readable tables go to stdout first, with the figures of the first
baseline (``baseline.json``, measured at the commit that added this
benchmark) beside them; the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs every workload in a fresh process, one at a time.
"""

import os
import sys

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:  # before numpy is imported
    os.environ[_var] = "1"
sys.dont_write_bytecode = True  # leave the checkout as it was

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("fit_long", "score_learned", "pipeline_cli")
SETUP_REPS = 5

# (name, unit); every workload reports all of them
END_TO_END = (
    ("setup_s", "s"),
    ("pipeline_s", "s"),
    ("train_steps_per_s", "1/s"),
    ("predict_records_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("neg_elbo_per_event", "nats"),
    ("holdout_mae_gap", "h"),
    ("holdout_mae_duration", "events"),
)
# figures printed in the table but not part of the result line: stages that
# only pipeline_cli has, and failed / attempted, which the result line carries
EXTRA = (("sessionize_events_per_s", "1/s"), ("evaluate_s", "s"), ("failed_ratio", "ratio"))
# metric -> (phase, "rate" = work per second of the phase, or "s" = seconds)
PHASE_METRICS = {
    "train_steps_per_s": ("train", "rate"),
    "predict_records_per_s": ("predict", "rate"),
    "sessionize_events_per_s": ("sessionize", "rate"),
    "evaluate_s": ("evaluate", "s"),
}
# per-layer counts that only follow the size of the workload: printed, but
# not part of the result line, since no change to the program should move them
LAYER_INFO = ("eventlog.events", "inference.records", "train.elbo_and_grads.user_steps")

# ROADMAP.md, "Measured at this re-anchor" (numpy path, 2 cores, H=16, P=8,
# frozen wt); printed next to the traced split of the one workload of that
# shape (pipeline_cli has H=8, score_learned a learned wt)
REFERENCE_WORKLOAD = "fit_long"
REFERENCE = {
    "train.elbo_and_grads.us_per_user_step": 165.0,
    "kernels.step_fwd.us_per_call": 38.0,
    "kernels.step_bwd.us_per_call": 73.0,
    "diffgraph.tape.us_per_user_step": 55.0,
    "inference.filter_sequence.us_per_step": 58.0,
    "inference.rolling_evaluate.us_per_record": 113.0,
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ------------------------------------------------------------- environment


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _source_digest(package_dir):
    h = hashlib.sha256()
    for path in sorted(package_dir.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(ck, seed):
    import numpy
    import scipy

    return {
        "backend": "numba" if getattr(ck, "NUMBA_ENABLED", False) else "numpy",
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(Path(ck.__file__).parent),
        "thread_pins": {v: os.environ[v] for v in THREAD_VARS},
        "seed": seed,
    }


# ------------------------------------------------------------------ runner


class Run:
    """Operations and info collected over one invocation."""

    def __init__(self):
        self.ops = []
        self.info = {}
        self.digests = []

    def add(self, rep):
        self.ops.extend(rep.ops)
        self.info.update(rep.info)
        digests = {k: v for k, v in rep.info.items() if k.endswith("_sha256")}
        if digests:
            self.digests.append(digests)
        return rep

    def fail(self, what, exc):
        traceback.print_exc(file=sys.stderr)
        self.ops.append((what, [f"{type(exc).__name__}: {exc}"]))

    @property
    def failed(self):
        return [(name, why) for name, why in self.ops if why]


def timed_setups(workload, seed, work, run):
    """SETUP_REPS set-ups; returns (ctx of the last one, times, set-up reps)."""
    times, reps, ctx = [], [], None
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        ctx, rep = workload.setup(seed, work)
        times.append(time.perf_counter() - t0)
        reps.append(run.add(rep))
    return ctx, times, reps


def timed_reps(workload, ctx, seconds, run):
    """Repeat the timed pass while another one fits into ``seconds``."""
    reps, walls = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        try:
            rep = workload.rep(ctx)
        except Exception as exc:  # report the failure, keep the result line
            run.fail(f"{workload.name} pass", exc)
            break
        walls.append(time.perf_counter() - t0)
        reps.append(run.add(rep))
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    return reps, walls


def upper_quartile(values):
    """The statistic every timing metric takes over the passes of a run.

    On a shared 2-vCPU cloud VM (Intel Xeon, 2.1 GHz) the noise is not only
    slow-downs: for a second to minutes at a time, at random, a fixed numpy
    loop runs 1.5-1.9x faster than in its usual state.  Timed in 35 s
    windows of 0.5-4 s passes over 7 minutes, its interquartile spread
    across windows was 0.10-0.26 for the fastest pass, 0.17-0.21 for the
    median pass and 0.09-0.12 for the upper quartile of the passes: the
    usual, slower state is the steady one."""
    values = list(values)
    return statistics.quantiles(values, n=4)[2] if len(values) > 1 else values[0]


def phase_time(phase, reps):
    """(seconds, work) of ``phase`` over the reps that have it, or None."""
    timed = [r.phases[phase] for r in reps if phase in r.phases]
    if not timed:
        return None
    return upper_quartile(s for s, _ in timed), timed[0][1]


def end_to_end(import_s, setup_times, setup_reps, reps, run):
    figures = {"setup_s": import_s + statistics.median(setup_times)}
    if reps:
        figures["pipeline_s"] = upper_quartile(sum(s for s, _ in r.phases.values()) for r in reps)
    for name, (phase, kind) in PHASE_METRICS.items():
        timed = phase_time(phase, reps) or phase_time(phase, setup_reps)
        if timed is not None:
            figures[name] = timed[1] / timed[0] if kind == "rate" else timed[0]
    for rep in setup_reps + reps:
        for name, value in rep.quality.items():
            figures.setdefault(name, value)
    figures["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    figures["failed_ratio"] = len(run.failed) / max(1, len(run.ops))
    return figures


def traced_passes(workload, seed, work, seconds, run, tracing):
    """Set up under the tracer, then alternate untraced and traced passes
    (U, T, U, T, ..., U) while another pair fits into ``seconds``.

    Returns the per-layer metrics of the median traced pass, the absent
    functions and the untraced walls."""
    with tracing.Tracer() as tracer:
        ctx, rep = workload.setup(seed, work)
        run.add(rep)
    generate_s = tracing.SpanTable(tracer.spans).total("simulate.generate")
    untraced_walls, traced = [], []  # traced: (wall, spans, absent)

    def untraced():
        t0 = time.perf_counter()
        run.add(workload.rep(ctx))
        untraced_walls.append(time.perf_counter() - t0)

    start = time.perf_counter()
    untraced()
    while True:
        with tracing.Tracer() as tracer:
            t0 = time.perf_counter()
            run.add(workload.rep(ctx))
            traced.append((time.perf_counter() - t0, list(tracer.spans), tracer.absent))
        untraced()
        pair = statistics.median(untraced_walls) + statistics.median(w for w, _, _ in traced)
        if time.perf_counter() - start + pair > seconds:
            break

    u = statistics.median(untraced_walls)
    t = statistics.median(w for w, _, _ in traced)
    _, spans, absent = sorted(traced, key=lambda x: x[0])[len(traced) // 2]
    extra = {
        "simulate.generate.s": (generate_s, "s"),
        "trace.untraced_pass_s": (u, "s"),
        "trace.overhead_s": (t - u, "s"),
        "trace.overhead_ratio": ((t - u) / u, "ratio"),
        "trace.absent_functions": (len(absent), "count"),
    }
    return tracing.layer_metrics(spans, extra), absent, untraced_walls, len(traced)


def noise_band(walls):
    """Relative spread of identical untraced passes: (slowest - fastest) / fastest."""
    return (max(walls) - min(walls)) / min(walls)


# ---------------------------------------------------------------- printing


def load_baseline(workload):
    try:
        data = json.loads((HERE / "baseline.json").read_text())
    except (OSError, ValueError):
        return {}
    entry = data.get("workloads", {}).get(workload, {})
    return {**entry.get("end_to_end", {}), **entry.get("extra", {}), **entry.get("per_layer", {})}


def print_table(title, metrics, baseline, band=None):
    """One line per metric; with ``band`` (the relative noise between
    identical passes of this run), a ROADMAP figure reproduces when the traced
    value lies within that band of it."""
    print(f"\n{title}")
    print(f"  {'metric':45s} {'value':>14s} {'unit':8s} {'baseline':>14s}")
    for name, (value, unit) in metrics.items():
        base = baseline.get(name)
        line = f"  {name:45s} {_num(value):>14s} {unit:8s} {_num(base):>14s}"
        if band is not None and name in REFERENCE:
            ref = REFERENCE[name]
            if not value:
                verdict = "not measured here (absent or not called)"
            elif abs(value - ref) / ref <= band:
                verdict = "reproduces"
            else:
                verdict = f"does not reproduce ({value / ref - 1.0:+.0%})"
            line += f"   ROADMAP {ref:g}: {verdict}"
        print(line)


def _nums(values):
    return "[" + ", ".join(f"{v:.3f}" for v in values) + "]"


def _num(value):
    if value is None:
        return "-"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


# -------------------------------------------------------------------- main


def run_all(args):
    """Each workload in a fresh process, one at a time."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return 2
        results[name] = json.loads(lines[-1])
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    src = ROOT / "src"
    if not (src / "churnkit" / "__init__.py").is_file():
        print(f"perfbench: no churnkit sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import churnkit as ck

    import_s = time.perf_counter() - t0
    if Path(ck.__file__).resolve().parent != (src / "churnkit").resolve():
        print(f"perfbench: imported churnkit from {ck.__file__}, not from {src}", file=sys.stderr)
        return 2

    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    run = Run()
    env = environment(ck, args.seed)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    absent, notes, band = [], [], None
    try:
        if args.trace:
            try:
                metrics, absent, walls, n_traced = traced_passes(
                    workload, args.seed, work, args.seconds, run, tracing
                )
            except Exception as exc:  # report the failure, keep the result line
                run.fail(f"{workload.name} traced pass", exc)
                metrics, walls, n_traced = {}, [], 0
            if walls:
                band = noise_band(walls)
                notes.append(f"{len(walls)} untraced and {n_traced} traced passes; untraced walls "
                             f"{_nums(walls)} s, noise band {band:.1%}")
                notes.append(f"tracing overhead {metrics['trace.overhead_ratio'][0]:+.1%} "
                             f"against a noise band of {band:.1%}")
        else:
            ctx, setup_times, setup_reps = timed_setups(workload, args.seed, work, run)
            reps, walls = timed_reps(workload, ctx, args.seconds, run)
            figures = end_to_end(import_s, setup_times, setup_reps, reps, run)
            metrics = {name: (figures.get(name), unit) for name, unit in END_TO_END + EXTRA}
            notes.append(f"import {import_s:.3f} s, set-ups {_nums(setup_times)} s")
            for phase in dict.fromkeys(ph for r in setup_reps + reps for ph in r.phases):
                secs = [r.phases[phase][0] for r in setup_reps + reps if phase in r.phases]
                notes.append(f"phase {phase}: {len(secs)} times, fastest {min(secs):.4f} s, "
                             f"median {statistics.median(secs):.4f} s, "
                             f"upper quartile {upper_quartile(secs):.4f} s")
            notes.append(f"{len(walls)} timed passes, walls {_nums(walls)} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    print(f"perfbench {args.workload}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"info: {json.dumps(run.info, sort_keys=True)}")
    agree = all(d == run.digests[0] for d in run.digests)
    print(f"digests agree across passes: {agree} ({len(run.digests)} passes)")
    for note in notes:
        print(note)
    for name, why in run.failed:
        print(f"FAILED {name}: {'; '.join(why)}")
    if absent:
        print(f"absent (not found at their lookup sites): {', '.join(absent)}")
    title = ("per-layer split (median traced pass)" if args.trace
             else "end-to-end (timings: upper quartile over passes, per phase)")
    reference_band = band if args.workload == REFERENCE_WORKLOAD else None
    print_table(title, metrics, load_baseline(args.workload), reference_band)

    hidden = set(dict(EXTRA)) | set(LAYER_INFO)
    result_metrics = {
        name: {"value": value if value is not None and math.isfinite(value) else None,
               "unit": unit}
        for name, (value, unit) in metrics.items()
        if name not in hidden
    }
    result = {
        "correct": not run.failed,
        "attempted": len(run.ops),
        "failed": len(run.failed),
        "metrics": result_metrics,
    }
    print()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
