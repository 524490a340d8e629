"""Benchmark of the ``uncloneq`` command line, end to end and per layer.

Usage (from the repository root)::

    python3 benchmarks/run.py --workload mc_sampling --seed 1 --seconds 20 --trace 0

The benchmark imports ``uncloneq.cli`` once and runs the workload's CLI jobs
as a closed loop with one client: one job at a time, back to back, each
through ``cli.main(argv)``, in passes over the job list until
``--seconds`` have elapsed.  The seed and the pass index only set the
``--seed`` value of each generated argv, so every pass samples fresh
keys and a run's median pass averages over many of them.

``--trace 0`` reports the end-to-end metrics from untraced passes.
``--trace 1`` runs each pass twice, untraced then traced, reports the
per-layer metrics of the traced passes (see ``tracer.py``) and the
difference of the two pass times as ``trace_overhead_s``.

Every job must exit 0 and every verdict row must pass; a job run twice
with the same argv, traced or not, must print the same bytes.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it name every metric with
its unit and record the environment.  The exit code is 1 if any job
failed, 2 if the program cannot be imported.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as tr

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

BASELINE_SEED = 1
MIN_PASSES = 3
SETUP_SAMPLES = 9  # this process plus eight fresh interpreters
BLAS_THREADS = max(1, min(2, len(os.sched_getaffinity(0))))
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Each workload is a fixed list of CLI jobs; the seed is appended per job.
WORKLOADS: dict[str, list[list[str]]] = {
    "mc_sampling": [
        ["theorem2", "--cases", "4x4;16x16", "--trials", "800"],
        ["erlang", "--ns", "2,4,64,1024", "--trials", "16000"],
    ],
    "dense_eval": [
        ["lemma1", "--scheme", "uniform_haar:2,16", "--trials", "2"],
        ["meg", "--scheme", "uniform_haar:2,5", "--attack", "cloner", "--trials", "2"],
        ["meg", "--scheme", "uniform_haar:4,2", "--attack", "measure_share", "--trials", "8"],
    ],
    "seesaw_opt": [
        # Two-message Haar jobs: with three or more Haar messages the
        # fixed-point best response can return an effect with a negative
        # eigenvalue, and the job exits 2 on a few seeds in a thousand.
        ["seesaw", "--scheme", "uniform_haar:2,3", "--channel", "measure_share", "--trials", "60"],
        ["seesaw", "--scheme", "bb84:2", "--channel", "cloner", "--trials", "4"],
        ["conjecture-scan", "--M", "2", "--d", "8", "--trials", "6"],
    ],
}

# per-subcommand seconds, printed by name (each workload runs only some)
SUBCOMMAND_METRICS = {
    "theorem2": "theorem2_s",
    "erlang": "erlang_s",
    "lemma1": "lemma1_s",
    "meg": "meg_s",
    "seesaw": "seesaw_s",
    "conjecture-scan": "scan_s",
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# (span name, quantity, unit) read from ``tracer.summarize``
LAYER_QUANTITIES = [
    ("attacks.random_basis_attack_estimate", "s", "s"),
    ("attacks.random_basis_attack_estimate", "self_s", "s"),
    ("attacks.random_basis_attack_estimate", "trials", "count"),
    ("schemes.encrypt", "calls", "count"),
    ("schemes.encrypt", "s", "s"),
    ("schemes.key_sampler", "calls", "count"),
    ("schemes.key_sampler", "s", "s"),
    ("linalg.haar_unitary", "calls", "count"),
    ("linalg.haar_unitary", "s", "s"),
    ("stats.max_over_sum_estimate", "s", "s"),
    ("stats.max_over_sum_estimate", "samples", "count"),
    ("attacks.pwin_ind_eval", "s", "s"),
    ("attacks.pwin_ind_eval", "self_s", "s"),
    ("attacks.pwin_ind_eval", "keys", "count"),
    ("attacks.ind_attack_build", "s", "s"),
    ("attacks.pwin_unif_eval", "s", "s"),
    ("attacks.pwin_unif_eval", "self_s", "s"),
    ("attacks.pwin_unif_eval", "keys", "count"),
    ("linalg.apply_channel", "calls", "count"),
    ("linalg.apply_channel", "s", "s"),
    ("linalg.apply_channel", "out_bytes", "B_from_shape"),
    ("linalg.herm_eig", "calls", "count"),
    ("linalg.herm_eig", "s", "s"),
    ("meg.verify_reduction", "s", "s"),
    ("meg.meg_win_prob", "s", "s"),
    ("meg.meg_win_prob", "self_s", "s"),
    ("meg.choi_state", "s", "s"),
    ("meg.choi_state", "out_bytes", "B_from_shape"),
    ("meg.meg_from_qecm", "s", "s"),
    ("meg.mean_ciphertext", "s", "s"),
    ("optimize.pwin_unif_seesaw", "s", "s"),
    ("optimize.seesaw_pguess", "calls", "count"),
    ("optimize.seesaw_pguess", "s", "s"),
    ("optimize.seesaw_pguess", "self_s", "s"),
    ("optimize.seesaw_pguess", "iterations", "count"),
    ("linalg.pseudo_inv_sqrt", "calls", "count"),
    ("linalg.pseudo_inv_sqrt", "s", "s"),
] + [(f"cli.{sub}", "self_s", "s") for sub in SUBCOMMAND_METRICS]

RATIO_UNITS = {
    "attacks.encrypt_per_trial": "count/trial",
    "stats.samples_per_s": "1/s",
    "optimize.seesaw_iters_per_call": "count/call",
    "optimize.seesaw_converged_frac": "ratio",
    "trace_overhead_s": "s",
}


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.{q}": unit for name, q, unit in LAYER_QUANTITIES}
    units.update(RATIO_UNITS)
    return units


def job_argvs(workload: str, seed: int, pass_index: int = 0) -> list[list[str]]:
    """The workload's CLI jobs, each with a ``--seed`` drawn from ``seed`` and the pass."""
    rng = random.Random(f"{seed}:{pass_index}")
    return [job + ["--seed", str(rng.randrange(2**31))] for job in WORKLOADS[workload]]


# -- environment and set-up ------------------------------------------------------


def pin_blas_threads() -> None:
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)


def import_cli():
    """Import ``uncloneq.cli`` from this checkout's ``src``, never from elsewhere."""
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    from uncloneq import cli

    if Path(cli.__file__).resolve().parent.parent != SRC_DIR:
        raise ImportError(f"uncloneq imported from {cli.__file__}, not from {SRC_DIR}")
    return cli


def setup_once():
    """Import numpy and ``uncloneq`` and run one warm-up ``selftest``."""
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    cli = import_cli()
    rc, _, err = run_job(cli, ["selftest"])
    if rc != 0:
        raise RuntimeError(f"warm-up selftest exited {rc}: {err}")
    return time.perf_counter() - t0, cli


def setup_in_fresh_interpreter() -> float:
    code = f"import sys; sys.path.insert(0, {str(BENCH_DIR)!r}); import run; print(run.setup_once()[0])"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=BENCH_DIR.parent,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def blas_runtime_threads() -> int | None:
    """Thread count reported by a loaded OpenBLAS, if one can be found."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        lib = ctypes.CDLL(str(path))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_runtime_threads(),
        "blas_threads_requested": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
    }


# -- jobs and passes -------------------------------------------------------------


def run_job(cli, argv: list[str]) -> tuple[int, str, str]:
    """Run one CLI job in-process; return exit code, report text, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a traceback is a failed job, not a crashed benchmark
            rc = -1
            err.write(f"{type(exc).__name__}: {exc}")
    return rc, out.getvalue(), err.getvalue()


def report_ok(text: str) -> bool:
    """Every verdict row passes; a row without a verdict holds a value in [1/M, 1]."""
    rows = list(csv.DictReader(io.StringIO(text)))
    if not rows:
        return False
    for row in rows:
        if row["pass"] == "true":
            continue
        if row["pass"] != "" or "M" not in row:
            return False
        if not 1.0 / int(row["M"]) - 1e-9 <= float(row["value"]) <= 1.0 + 1e-9:
            return False
    return True


class Checker:
    """Counts jobs and failures; pins each argv's report bytes to its first run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reference: dict[tuple[str, ...], str] = {}

    def check(self, argv: list[str], rc: int, text: str, err: str) -> None:
        self.attempted += 1
        ref = self.reference.setdefault(tuple(argv), text)
        problem = None
        if rc != 0:
            problem = f"exit {rc}"
        elif not report_ok(text):
            problem = "a report row failed"
        elif text != ref:
            problem = "report bytes differ from an earlier run of the same argv"
        if problem:
            self.failed += 1
            print(f"FAILED {' '.join(argv)}: {problem} {err.strip()}", file=sys.stderr)


def run_pass(cli, jobs: list[list[str]], checker: Checker, tracer=None) -> tuple[float, dict[str, float]]:
    """One pass over the jobs; returns the pass time and seconds per subcommand."""
    per_sub: dict[str, float] = {}
    t_pass = time.perf_counter()
    for argv in jobs:
        t0 = time.perf_counter()
        if tracer is None:
            rc, text, err = run_job(cli, argv)
        else:
            with tracer.span(f"cli.{argv[0]}"):
                rc, text, err = run_job(cli, argv)
        per_sub[argv[0]] = per_sub.get(argv[0], 0.0) + time.perf_counter() - t0
        checker.check(argv, rc, text, err)
    return time.perf_counter() - t_pass, per_sub


def measure_end_to_end(cli, workload: str, seed: int, seconds: float, checker: Checker) -> tuple[dict, dict]:
    walls: list[float] = []
    subs: dict[str, list[float]] = {}
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_PASSES or time.perf_counter() < deadline:
        wall, per_sub = run_pass(cli, job_argvs(workload, seed, len(walls)), checker)
        walls.append(wall)
        for sub, s in per_sub.items():
            subs.setdefault(sub, []).append(s)
    metrics = {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {SUBCOMMAND_METRICS[sub]: statistics.median(v) for sub, v in subs.items()}
    extra["passes"] = len(walls)
    return metrics, extra


def layer_metrics(spans) -> dict[str, float]:
    """Every per-layer metric of one traced pass; 0 where a layer was not reached."""
    summary = tr.summarize(spans)
    out = {f"{name}.{q}": float(summary.get(name, {}).get(q, 0)) for name, q, _ in LAYER_QUANTITIES}
    trials = out["attacks.random_basis_attack_estimate.trials"]
    below = tr.count_below(spans, "schemes.encrypt", "attacks.random_basis_attack_estimate")
    out["attacks.encrypt_per_trial"] = below / trials if trials else 0.0
    mos = summary.get("stats.max_over_sum_estimate", {})
    out["stats.samples_per_s"] = mos["samples"] / mos["s"] if mos.get("s") else 0.0
    pg = summary.get("optimize.seesaw_pguess", {})
    calls = pg.get("calls", 0)
    out["optimize.seesaw_iters_per_call"] = pg["iterations"] / calls if calls else 0.0
    out["optimize.seesaw_converged_frac"] = pg["converged"] / calls if calls else 0.0
    return out


def measure_per_layer(cli, workload: str, seed: int, seconds: float, checker: Checker) -> dict:
    plain: list[float] = []
    traced: list[float] = []
    layers: list[dict[str, float]] = []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_PASSES or time.perf_counter() < deadline:
        jobs = job_argvs(workload, seed, len(traced))
        plain.append(run_pass(cli, jobs, checker)[0])
        t = tr.Tracer()
        with t.installed():
            traced.append(run_pass(cli, jobs, checker, tracer=t)[0])
        layers.append(layer_metrics(t.spans))
    metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    metrics["trace_overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return metrics


# -- entry point -----------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=BASELINE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_blas_threads()
    try:
        setup_s, cli = setup_once()
    except ImportError as exc:
        print(f"benchmark: cannot import the program: {exc}", file=sys.stderr)
        return 2
    env = environment()

    checker = Checker()
    if args.trace:
        metrics = measure_per_layer(cli, args.workload, args.seed, args.seconds, checker)
        units = per_layer_units()
        extra: dict = {}
    else:
        samples = [setup_s] + [setup_in_fresh_interpreter() for _ in range(SETUP_SAMPLES - 1)]
        metrics, extra = measure_end_to_end(cli, args.workload, args.seed, args.seconds, checker)
        metrics["setup_s"] = statistics.median(samples)
        units = dict(END_TO_END_UNITS)
        units.update({name: "s" for name in extra if name != "passes"})
        units["passes"] = "count"
    extra["fail_ratio"] = checker.failed / checker.attempted
    units["fail_ratio"] = "ratio"

    print("env " + json.dumps(env, sort_keys=True))
    print("first_pass " + json.dumps([" ".join(j) for j in job_argvs(args.workload, args.seed)]))
    for name, value in sorted({**metrics, **extra}.items()):
        print(f"metric {name} {value:.6g} {units[name]}")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }
    print(json.dumps(result))
    return 0 if checker.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
