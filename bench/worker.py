"""One workload process of the necklace-kit benchmark; `run.py` starts it.

    worker.py --workload W --seed N --op-sets K --mode setup|measure|trace
              --workdir DIR [--spans FILE]

Every mode builds K op sets from the seed (writing quiver files under a
fresh directory in DIR) and does the workload's warm-up.  `setup` then
reports its set-up time, the CPU time it has used so far, and exits;
`measure` runs the ops in a closed loop and reports each op's latency, the
speed probes timed around the ops, the failures and the peak resident
memory; `trace` does the same with every layer traced, and also reports the
per-layer metrics and writes the spans to FILE.  The report is one JSON
object on the last line of standard output.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def environment() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--op-sets", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()

    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.workdir))
    try:
        ops = workloads.build(args.workload, args.seed, args.op_sets, workdir)
        workloads.warm_up(args.workload)
        tracer = None
        if args.mode == "trace":
            tracer = Tracer()
            tracer.install()
        # set-up time: the CPU seconds this process has used since it started
        report = {"env": environment(), "setup_cpu_s": time.process_time()}
        probe, report["probe_reference_s"] = workloads.probe_for(args.workload)
        if args.mode != "setup":
            on_op = None
            if tracer is not None:
                def on_op(n):
                    tracer.op_id = n
            # the CLI prints its report; the last line of stdout is ours
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                latencies, probes, probe_before, failures = workloads.run_ops(ops, probe, on_op)
            report["latencies"] = latencies
            report["probes"] = probes
            report["probe_before"] = probe_before
            report["failures"] = failures
            report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if tracer is not None:
                report["layers"] = tracer.metrics()
                tracer.write_spans(args.spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
