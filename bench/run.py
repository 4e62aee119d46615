"""sympbw benchmark: one run of one workload.

    python3 bench/run.py --workload {ideal-n4,census,straighten-corpus} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its ``src/``.
The run spawns fresh worker processes (bench/worker.py): several that only
set up, for the median set-up time, then one that measures.  It prints each
metric by name with its unit, then, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import metric_names, unit
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
END_TO_END = ("latency_p50_ms", "latency_p99_ms", "wall_s", "success_share", "peak_rss_mb",
              "setup_s")
SETUP_SAMPLES = 7  # worker spawns timed for set-up, the measuring one included
RUN_LIMIT_S = 170  # the whole run, set-up included, ends within this


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def run_worker(args, setup_only, deadline):
    """Run one worker to its end; return its set-up seconds and its stdout after READY."""
    env = {k: v for k, v in os.environ.items() if k != "SYMPBW_WORKERS"}
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - start
        if line.strip() != "READY":
            raise RuntimeError("worker did not start")
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise RuntimeError("the run did not finish in time") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return setup, out


def end_to_end(summary, setup_samples):
    latencies = summary["latencies"]
    attempted = summary["attempted"]
    failed = sum(summary["failures"].values())
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s", len(setup_samples)),
        "wall_s": (statistics.median(summary["rounds"]), "s", len(summary["rounds"])),
        "latency_p50_ms": (1000 * percentile(latencies, 50), "ms", len(latencies)),
        "latency_p99_ms": (1000 * percentile(latencies, 99), "ms", len(latencies)),
        "peak_rss_mb": (summary["peak_rss_mb"], "MB", 1),
        "success_share": ((attempted - failed) / attempted, "ratio", attempted),
    }
    for name, seconds in sorted(summary["op_seconds"].items()):
        metrics[name] = (seconds, "s", len(summary["rounds"]))
    metrics["fail_share"] = (failed / attempted, "ratio", attempted)
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description="sympbw benchmark, one run")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sympbw" / "cli.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'sympbw'} is missing", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_LIMIT_S
    try:
        setup_samples = [run_worker(args, True, deadline)[0] for _ in range(SETUP_SAMPLES - 1)]
        setup, out = run_worker(args, False, deadline)
        setup_samples.append(setup)
        summary = json.loads(out.strip().splitlines()[-1])
    except (RuntimeError, json.JSONDecodeError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    failed = sum(summary["failures"].values())
    print(f"workload {args.workload} seed {args.seed}: {summary['attempted']} operations, "
          f"{failed} failed {summary['failures']}, {summary['wrong']} wrong answers")
    if args.trace:
        reported = {name: (summary["per_layer"][name], unit(name)) for name in metric_names()}
        for name, (value, u) in reported.items():
            print(f"  {name:42s} {value:14.6f} {u}")
    else:
        metrics = end_to_end(summary, setup_samples)
        for name, (value, u, samples) in metrics.items():
            print(f"  {name:26s} {value:12.6f} {u:5s} ({samples} samples)")
        reported = {name: metrics[name][:2] for name in END_TO_END}
    print(json.dumps({
        "correct": summary["wrong"] == 0,
        "attempted": summary["attempted"],
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
