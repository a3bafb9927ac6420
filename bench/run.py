"""The necklace-kit benchmark.

    python3 bench/run.py --workload classify|forms|lie|moment --seed N
                         --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the library from
`src/` and writes only under `.bench_run/`.  It prints one information line
(the seed, nproc, and the Python, numpy and BLAS versions) and, last, one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.

Each workload runs in its own process (`worker.py`) as a closed loop: one
client issues the next op only after the previous op and its correctness
check are done.  An op set holds 100 or more ops in fixed proportions (see
`workloads.py`); a run executes round(S / OP_SET_SECONDS) op sets drawn from
the seed, so it lasts about S seconds at the reference speed and always does
the same work for a seed, whatever the speed of the code.

With `--trace 0` the metrics are the end-to-end ones: throughput, median and
90th-percentile op latency, set-up time, peak resident memory, and the
share of ops that passed.  Op times are reported at the reference speed of
`speed.py`: each is scaled by a probe's reference time over the probe times
measured around it, which removes the host's load from the figures and
leaves the code's speed in them.  The record in `.bench_run/records/` also
keeps the unscaled figures.  Set-up time is the median, over SETUP_SAMPLES
worker processes started from scratch, of the CPU time (user + system) each
spends from its start to its first op: set-up is CPU-bound, so on an idle
host this is close to its wall time, and unlike wall time it leaves out the
time a process waits for a core that another tenant holds.  Each sample is
scaled to the reference speed by a start-up probe (`speed.STARTUP_PROBE`, a
fresh interpreter importing numpy) run right after it.  With `--trace 1`
one op set runs untraced and then traced, and the metrics are the
per-layer self times and work counts from the traced process plus the
tracing overhead.

Worker processes run with one BLAS/OpenMP thread and PYTHONHASHSEED=0.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from tracer import PER_LAYER_METRICS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_run"

WORKLOADS = ("classify", "forms", "lie", "moment")

# Seconds one op set takes at this commit, probes and checks included, at
# the reference speed of speed.py (Python 3.11, numpy 2.4, one BLAS thread).
OP_SET_SECONDS = {"classify": 3.4, "forms": 2.7, "lie": 0.8, "moment": 3.6}

SETUP_SAMPLES = 9
# A run is abandoned, with no result, after TIME_LIMIT_MARGIN_S for the
# start-ups plus SLOW_HOST_FACTOR times its ops' time at the reference speed;
# at the benchmark's run_seconds that is under 180 s.
TIME_LIMIT_MARGIN_S = 100.0
SLOW_HOST_FACTOR = 5

END_TO_END_METRICS = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_op_ratio", "ratio"),
)


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    return env


def run_child(command: list[str], deadline: float, what: str) -> str:
    """Run one child process to completion and return its standard output."""
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            env=worker_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{what} did not finish within the time limit") from None
    if done.returncode != 0:
        raise BenchError(f"{what} exited with code {done.returncode}")
    return done.stdout


def start_worker(deadline: float, workload: str, seed: int, op_sets: int, mode: str, spans=None):
    """Run one worker to completion and return its report."""
    command = [
        sys.executable,
        str(BENCH_DIR / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--op-sets", str(op_sets),
        "--mode", mode,
        "--workdir", str(OUT_DIR),
    ]
    if spans is not None:
        command += ["--spans", str(spans)]
    lines = run_child(command, deadline, f"{mode} worker").strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} worker printed no report")
    return json.loads(lines[-1])


def startup_probe(deadline: float) -> float:
    """CPU seconds one speed.STARTUP_PROBE process used."""
    return float(run_child([sys.executable, "-c", speed.STARTUP_PROBE], deadline, "start-up probe"))


def scaled_latencies(report) -> list[float]:
    return speed.scaled(
        report["latencies"], report["probes"], report["probe_before"], report["probe_reference_s"]
    )


def measure(workload: str, seed: int, op_sets: int, deadline: float) -> tuple[dict, dict]:
    setups, startup_probes = [], []
    for _ in range(SETUP_SAMPLES):
        setups.append(start_worker(deadline, workload, seed, op_sets, "setup")["setup_cpu_s"])
        startup_probes.append(startup_probe(deadline))
    report = start_worker(deadline, workload, seed, op_sets, "measure")
    raw = report["latencies"]
    latencies = scaled_latencies(report)
    attempted = len(latencies)
    failed = len(report["failures"])
    metrics = {
        "ops_per_s": attempted / sum(latencies),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_p90_ms": 1000 * statistics.quantiles(latencies, n=10)[8],
        "setup_s": statistics.median(
            setup * speed.STARTUP_PROBE_S / probe for setup, probe in zip(setups, startup_probes)
        ),
        "peak_rss_mb": report["peak_rss_kb"] / 1024,
        "ok_op_ratio": (attempted - failed) / attempted,
    }
    units = dict(END_TO_END_METRICS)
    run = {
        "op_sets": op_sets,
        "env": report["env"],
        "failures": report["failures"],
        "unscaled": {
            "ops_per_s": attempted / sum(raw),
            "op_p50_ms": 1000 * statistics.median(raw),
            "op_p90_ms": 1000 * statistics.quantiles(raw, n=10)[8],
            "mean_probe_s": statistics.fmean(report["probes"]),
            "setup_s": statistics.median(setups),
        },
        "setup_cpu_s": setups,
        "startup_probes_s": startup_probes,
        "latencies_s": raw,
        "scaled_latencies_s": latencies,
        "probes_s": report["probes"],
        "probe_before": report["probe_before"],
    }
    return run, {
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def trace(workload: str, seed: int, deadline: float) -> tuple[dict, dict]:
    spans = OUT_DIR / "traces" / f"{workload}-seed{seed}.spans.tsv.gz"
    spans.parent.mkdir(parents=True, exist_ok=True)
    plain = start_worker(deadline, workload, seed, 1, "measure")
    traced = start_worker(deadline, workload, seed, 1, "trace", spans)

    values = dict(traced["layers"])
    values["trace.overhead_ratio"] = sum(scaled_latencies(traced)) / sum(scaled_latencies(plain))
    failures = plain["failures"] + traced["failures"]
    run = {"op_sets": 1, "env": traced["env"], "failures": failures, "spans": str(spans)}
    return run, {
        "attempted": len(plain["latencies"]) + len(traced["latencies"]),
        "failed": len(failures),
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_METRICS
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "necklacekit" / "__init__.py").is_file():
        print(f"error: no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    # on SIGTERM, unwind so that subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    op_sets = max(1, round(args.seconds / OP_SET_SECONDS[args.workload]))
    # the traced run times one op set untraced and one traced, whatever --seconds
    timed_sets = 2 if args.trace else op_sets
    limit = TIME_LIMIT_MARGIN_S + SLOW_HOST_FACTOR * timed_sets * OP_SET_SECONDS[args.workload]
    deadline = time.monotonic() + limit
    try:
        if args.trace:
            run, result = trace(args.workload, args.seed, deadline)
        else:
            run, result = measure(args.workload, args.seed, op_sets, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for message in run["failures"][:10]:
        print(f"failed: {message}", file=sys.stderr)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **run, **result}
    records = OUT_DIR / "records"
    records.mkdir(exist_ok=True)
    (records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    env = run["env"]
    print(
        f"# workload={args.workload} seed={args.seed} trace={args.trace} "
        f"op_sets={run['op_sets']} ops={result['attempted']} nproc={env['nproc']} "
        f"python={env['python']} numpy={env['numpy']} blas={env['blas']!r} "
        f"blas_threads={env['blas_threads']}"
    )
    print(json.dumps({"correct": result["failed"] == 0, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
