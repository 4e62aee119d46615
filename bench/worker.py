"""One benchmark run, in a fresh process.

The worker imports ``sympbw.cli`` from the checkout's ``src/``, builds the
workload's inputs and prints ``READY``; the parent takes the time up to that
line as set-up time.  It then drives ``sympbw.cli.main(argv)`` in-process from
a single client in a closed loop: round after round of the workload's
operations until ``--seconds`` have passed.  Each operation starts with the
program's memo caches empty, as a fresh ``sympbw`` process would, runs under
a wall-clock cap, and has its output checked outside the timed interval.
The last stdout line is a JSON summary for the parent.

With ``--trace 1`` the first round runs untraced, the later rounds under the
tracer, and the summary carries the per-layer metrics.
"""

import argparse
import contextlib
import gc
import io
import json
import resource
import signal
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from layers import make_tracer, per_layer_metrics
from tracer import memo_caches
from workloads import CHECK_POINTS, WORKLOADS, Context

ROOT = Path(__file__).resolve().parent.parent
TRACE_DIR = ROOT / ".bench_trace"


class OpTimeout(BaseException):
    """Raised by the cap's alarm; a BaseException so program code cannot swallow it."""


def _alarm(signum, frame):
    raise OpTimeout()


@dataclass
class Output:
    out: str
    err: str
    code: object


def import_program():
    """Import sympbw.cli from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import sympbw.cli

    if Path(sympbw.__file__).resolve().parent != src / "sympbw":
        raise ImportError(f"sympbw imported from {sympbw.__file__}, not from {src}")
    return sympbw.cli


class Runner:
    """Runs operations one at a time, timing, capping and checking each."""

    def __init__(self, cli, workload, ctx, caches):
        self.cli = cli
        self.workload = workload
        self.ctx = ctx
        self.caches = caches
        self.tracer = None  # set for traced rounds
        self.seconds = {}  # operation -> seconds of each successful call
        self.failures = Counter()
        self.attempted = 0
        self.wrong = 0
        self.trace_lines = Counter()
        signal.signal(signal.SIGALRM, _alarm)
        self._install_probe()

    def _install_probe(self):
        """Record the size of every ideal the CLI generates, for the suite checks.

        The probe looks generate_ideal up on its module at call time, so it
        calls the traced function once the tracer is installed.
        """
        relations = sys.modules["sympbw.relations"]
        ctx = self.ctx

        def generate_ideal(*args, **kwargs):
            rels = relations.generate_ideal(*args, **kwargs)
            ctx.relation_counts.append(len(rels))
            return rels

        self.cli.generate_ideal = generate_ideal

    def run(self, op, traced=False):
        """Run one operation and return its seconds."""
        for cache in self.caches:
            cache.cache_clear()
        self.ctx.relation_counts.clear()
        argv = list(op.argv) + (["--trace"] if traced and op.argv[0] == "straighten" else [])
        out, err = io.StringIO(), io.StringIO()
        failure = None
        code = None
        elapsed = self.workload.cap_s
        self.attempted += 1
        if traced:
            self.tracer.start_op()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                signal.setitimer(signal.ITIMER_REAL, self.workload.cap_s)
                try:
                    code = self.cli.main(argv)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                    elapsed = time.perf_counter() - start
        except OpTimeout:
            failure = "timeout"
        except Exception as exc:  # the program crashed: count it, keep running
            failure = type(exc).__name__
        output = Output(out.getvalue(), err.getvalue(), code)
        if traced:
            self.tracer.stop_op()
            for line in output.err.splitlines():
                self.trace_lines[line.split(" ", 1)[0]] += 1
        if failure is None and code and not output.out.strip():
            failure = f"exit-{code}"  # refused with an error message, printed no answer
        if failure is None:
            try:
                op.check(output, self.ctx)
            except Exception as exc:  # a check that cannot read the output fails the call
                failure = "wrong"
                self.wrong += 1
                print(f"wrong answer: {' '.join(op.argv)}: {exc}", file=sys.stderr)
        if failure is not None:
            self.failures[failure] += 1
        elif not traced:
            self.seconds.setdefault(op, []).append(elapsed)
        return elapsed

    def latencies(self):
        """Median seconds of each operation that succeeded, over its rounds."""
        return {op: statistics.median(times) for op, times in self.seconds.items()}

    def run_rounds(self, seconds, traced=False):
        """Rounds of every operation until ``seconds`` have passed; seconds per round."""
        rounds = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds:
            gc.collect()
            rounds.append(sum(self.run(op, traced) for op in self.workload.ops))
        return rounds


def sample_points(workload):
    """Exact coordinates at CHECK_POINTS sampled points per (n, ring) the checks need."""
    from sympbw.verify import sample_classical_flag, sample_degenerate_point

    samplers = {"classical": sample_classical_flag, "degenerate": sample_degenerate_point}
    return {
        (n, ring): [samplers[ring](n, 1000 + s).flat() for s in range(CHECK_POINTS)]
        for n, ring in workload.needs_points
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    cli = import_program()
    workload = WORKLOADS[args.workload](args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    ctx = Context(points=sample_points(workload))
    runner = Runner(cli, workload, ctx, memo_caches())
    # a traced run times one untraced round, to report the tracing overhead
    rounds = runner.run_rounds(0 if args.trace else args.seconds)
    latencies = runner.latencies()
    summary = {
        "rounds": rounds,
        "latencies": list(latencies.values()),
        "op_seconds": {op.metric: s for op, s in latencies.items() if op.metric},
    }
    if args.trace:
        runner.tracer = make_tracer()
        runner.tracer.install()
        traced_rounds = runner.run_rounds(args.seconds, traced=True)
        runner.tracer.uninstall()
        runner.tracer.write(TRACE_DIR / f"{workload.name}-seed{args.seed}.json")
        summary["per_layer"] = per_layer_metrics(runner, rounds, traced_rounds)
    summary.update(
        attempted=runner.attempted,
        failures=dict(runner.failures),
        wrong=runner.wrong,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
