"""mellinops benchmark: one seeded workload, closed loop, one JSON result line.

    python3 perfbench/run.py --workload exact-koszul --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  One single-threaded closed-loop client: each operation is an
in-process ``mellinops.cli.main(argv, stream)`` call in a worker process
(``worker.py``) whose output is checked here before the next one is sent.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer ones
(see ``perfbench/README.md``).
"""

from __future__ import annotations

import os

# Pinned before numpy loads, here and in every child process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

from reference import REFERENCE_S, reference_seconds  # noqa: E402
from tracing import WORK  # noqa: E402
from workloads import FAILED, OK, PARAMETERS, WORKLOADS, WRONG  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

SETUP_RUNS = 9  # cold interpreter starts per run, at least; setup_s is their median
SETUP_CODE = "from mellinops.cli import main; raise SystemExit(main(['transform', 't']))"
WARMUP_OPS = {"exact-koszul": 4, "exact-algebra": 12, "numeric": 6}
# The reference window of scaled(), in operation durations.  The pure-Python
# exact layer follows the reference runs right before and after it (span 0).
# The numeric workload's long operations are mostly vectorised numpy, whose
# speed follows the mostly pure-Python reference less closely: scaled by
# their own two reference runs, repeats of one Haar operation spread more
# than unscaled ones, so they take the machine's speed over a wider window.
REFERENCE_SPAN = {"exact-koszul": 0, "exact-algebra": 0, "numeric": 20}
# A timed phase measures whole periods of the workload's stream (see
# workloads.py), and runs on past --seconds until it holds this many
# samples, so that at least ten lie beyond the reported p90.
MIN_SAMPLES = 100


def describe():
    """Machine and program size, for reading figures across commits."""
    import platform

    import numpy

    loc = sum(
        1
        for path in (SRC / "mellinops").glob("*.py")
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    )
    return (f"nproc {len(os.sched_getaffinity(0))}, python {platform.python_version()}, "
            f"numpy {numpy.__version__}, src/mellinops net LOC {loc}")


def child_cpu_s():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class ColdStarts:
    """Cold starts of `transform "t"` for setup_s, spread over the timed phase.

    setup_s is their median process time at the reference speed.  The
    machine's speed is the mean of all the reference runs made for them,
    two before and two after each start.
    """

    def __init__(self, spacing_s):
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.spacing_s = spacing_s
        self.next_at = time.perf_counter()
        self.times, self.refs = [], []
        self.ok = True

    def sample(self):
        self.refs += [reference_seconds() for _ in range(2)]
        before = child_cpu_s()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=self.env,
                              capture_output=True, text=True, timeout=60)
        self.times.append(child_cpu_s() - before)
        self.refs += [reference_seconds() for _ in range(2)]
        self.ok &= done.returncode == 0 and done.stdout == "tau\n"
        self.next_at = time.perf_counter() + self.spacing_s

    def sample_if_due(self):
        if time.perf_counter() >= self.next_at:
            self.sample()

    def setup_s(self):
        """The median, or None if a cold start failed."""
        while len(self.times) < SETUP_RUNS:
            self.sample()
        if not self.ok:
            return None
        return statistics.median(self.times) / statistics.fmean(self.refs) * REFERENCE_S


class Worker:
    """The program's own process; see worker.py for the requests it takes."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(SRC)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def ask(self, *request):
        pickle.dump(request, self.proc.stdin)
        self.proc.stdin.flush()
        return pickle.load(self.proc.stdout)

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Record(NamedTuple):
    op: object
    rc: int | None
    text: str
    cpu_s: float  # process time of the cli.main call
    before: tuple  # (clock, process time of the reference kernel) just before
    after: tuple  # and just after
    outcome: str


class Loop:
    """Closed-loop client over an operation stream, keeping every sample."""

    def __init__(self, worker):
        self.worker = worker
        self.records = []

    def run_one(self, op, op_id=0):
        rc, text, cpu_s, before, after = self.worker.ask("run", op.argv, op_id)
        outcome = FAILED if rc is None else op.check(rc, text)
        self.records.append(Record(op, rc, text, cpu_s, before, after, outcome))

    def run_for(self, periods, seconds, between=lambda: None):
        """Whole periods, until ``seconds`` have passed and MIN_SAMPLES are held."""
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(self.records) < MIN_SAMPLES:
            for op in next(periods):
                self.run_one(op)
                between()


def scaled(records, span):
    """Each operation's process time at the reference speed, in seconds.

    An operation's reference time is the mean of the reference runs within
    ``span`` times its own duration either side of it, its own two included.
    """
    samples = sorted(s for r in records for s in (r.before, r.after))
    clock = [t for t, _ in samples]
    out = []
    for r in records:
        (t0, _), (t1, _) = r.before, r.after
        lo = bisect.bisect_left(clock, t0 - span * (t1 - t0))
        hi = bisect.bisect_right(clock, t1 + span * (t1 - t0))
        out.append(r.cpu_s / statistics.fmean(ref for _, ref in samples[lo:hi]) * REFERENCE_S)
    return out


def tally(records):
    attempted = len(records)
    failed = sum(r.outcome != OK for r in records)
    wrong = sum(r.outcome == WRONG for r in records)
    return attempted, failed, wrong


def end_to_end(records, span, setup_s, peak_kb):
    lat = scaled(records, span)
    cuts = statistics.quantiles(lat, n=100, method="inclusive")
    ok = sum(r.outcome == OK for r in records)
    return {
        "setup_s": (setup_s, "s"),
        "op_p50_s": (cuts[49], "s"),
        "op_p90_s": (cuts[89], "s"),
        "ops_per_s": (ok / sum(lat), "1/s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }


def per_layer(summary, untraced, traced, span):
    """Per-operation layer figures from the traced replay of the untraced ops."""
    n = len(traced)
    # Span times are wall times; scale them to the reference speed as well.
    speed = REFERENCE_S / statistics.fmean(s[1] for r in traced for s in (r.before, r.after))
    out = {}
    for name, (calls, self_s) in summary["totals"].items():
        out[f"{name}.calls"] = (calls / n, "1/op")
        out[f"{name}.self_s"] = (self_s * speed / n, "s/op")
    for prefix, (work, _) in WORK.items():
        out[f"{prefix}.{work}"] = (summary["work"][prefix] / n, "1/op")
    for key, count in summary["counts"].items():
        out[key] = (count / n, "1/op")
    hits, misses = summary["mono_mul"]
    attempts = hits + misses
    out["ore.mono_mul.attempts"] = (attempts / n, "1/op")
    out["ore.mono_mul.misses"] = (misses / n, "1/op")
    out["ore.mono_mul.hit_ratio"] = (hits / attempts if attempts else 0.0, "ratio")
    out["trace.ops"] = (n, "count")
    out["trace.untraced_s"] = (sum(scaled(untraced, span)) / n, "s/op")
    out["trace.traced_s"] = (sum(scaled(traced, span)) / n, "s/op")
    out["trace.overhead"] = (out["trace.traced_s"][0] / out["trace.untraced_s"][0], "ratio")
    out["trace.top_span_coverage"] = (summary["coverage"], "ratio")
    return out


def traced_replay(worker, untraced, spans_path):
    """Replay the untraced operations under the tracer; compare the reports."""
    loop = Loop(worker)
    worker.ask("trace_on")
    for op_id, record in enumerate(untraced):
        loop.run_one(record.op, op_id)
    summary = worker.ask("trace_off", str(spans_path))
    identical = all(
        (a.rc, a.text) == (b.rc, b.text) for a, b in zip(untraced, loop.records)
    )
    return summary, loop.records, identical


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "mellinops" / "cli.py").is_file():
        print(f"no program source at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = OUT / f"run-{os.getpid()}"  # per-run files, such as --config grids
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_workload(args, workdir):
    reference_seconds()  # first call pays for lazy set-up in numpy and fractions
    span = REFERENCE_SPAN[args.workload]
    periods = WORKLOADS[args.workload](args.seed, workdir)
    worker = Worker()
    try:
        warm = Loop(worker)
        for op in next(periods)[:WARMUP_OPS[args.workload]]:
            warm.run_one(op)
        _, _, warm_wrong = tally(warm.records)
        # Start timing from the program's cold operator cache, as a CLI run does.
        worker.ask("reset")

        loop = Loop(worker)
        if not args.trace:  # --trace 1 reports no setup_s
            cold = ColdStarts(args.seconds / (SETUP_RUNS - 1))
            loop.run_for(periods, args.seconds, cold.sample_if_due)
            setup_s = cold.setup_s()
            if setup_s is None:
                print("cold start of `mellinops transform t` failed", file=sys.stderr)
                return 1
            metrics = end_to_end(loop.records, span, setup_s, worker.ask("peak_rss_kb"))
            records, identical = loop.records, True
        else:
            loop.run_for(periods, args.seconds / 2)
            summary, records, identical = traced_replay(
                worker, loop.records, OUT / f"spans_{args.workload}_seed{args.seed}.npz")
            metrics = per_layer(summary, loop.records, records, span)
            if not identical:
                print("traced reports differ from untraced ones", file=sys.stderr)
    finally:
        worker.close()

    attempted, failed, wrong = tally(records)
    print(f"{args.workload}  {describe()}")
    print(f"{args.workload}  parameters {json.dumps(PARAMETERS[args.workload])}, "
          f"warm-up {WARMUP_OPS[args.workload]} ops, reference {REFERENCE_S} s")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload}  {name:<44} {value:.6g} {unit}")
    print(f"{args.workload}  samples {attempted}, failed {failed}, silently wrong {wrong}")
    result = {
        "correct": wrong == 0 and warm_wrong == 0 and identical,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
