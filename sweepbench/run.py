"""Sweep benchmark of tensorspectra: full Z- and H-spectrum sweeps, timed.

    python3 sweepbench/run.py --workload fixtures-z --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from its ``src``.
One operation is one ``full_sweep``; a run does whole rounds of sweeps (see
workloads.py) and checks every output against results computed apart from
the program (see checks.py).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are end to end (wall_s, setup_s, peak_rss_mb);
with ``--trace 1`` they are per layer (see layers.py).
"""

import os
import sys

# Pinned before numpy is first imported, here and in every cold start: at
# these matrix sizes a second BLAS thread costs time instead of saving it.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# Cold starts per run whose median is setup_s.
SETUP_STARTS = 7


def import_program():
    """Import tensorspectra from the checkout's src, and from nowhere else."""
    package = os.path.join(SRC, "tensorspectra")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        sys.exit(f"run.py: no program to measure at {package}")
    sys.path.insert(0, SRC)
    import tensorspectra

    if os.path.dirname(os.path.abspath(tensorspectra.__file__)) != package:
        sys.exit(f"run.py: imported tensorspectra from {tensorspectra.__file__}")


def build_inputs(args):
    """Everything a run sets up before its first sweep.

    A traced run needs at least three rounds: one to build what the others
    share, then a traced and an untraced one.
    """
    from tensorspectra import SweepOptions, Tensor
    from workloads import make_rounds

    rounds = make_rounds(args.workload, args.seed, args.seconds, 3 if args.trace else 1)
    return [[(s, Tensor(s.entries), SweepOptions(**s.options)) for s in r] for r in rounds]


def cold_start_seconds(args):
    """Seconds from starting a fresh interpreter to having built the inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        sys.exit(f"run.py: cold start failed with exit code {code}")
    return elapsed


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
    }


class Outcome:
    """Operations attempted and failed, and the reference computations."""

    def __init__(self):
        import tensorspectra.oracle as oracle

        self.brute = {"Z": oracle.brute_z_n2, "H": oracle.brute_h_n2}
        self.oracles = {}
        self.oracle_seconds = 0.0
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def oracle(self, sweep, tensor):
        """Companion-matrix result of an n = 2 sweep, computed once per tensor."""
        if sweep.dim != 2:
            return None
        if sweep.label not in self.oracles:
            start = time.perf_counter()
            self.oracles[sweep.label] = self.brute[sweep.kind](tensor)
            self.oracle_seconds += time.perf_counter() - start
        return self.oracles[sweep.label]

    def record(self, sweep, tensor, spectrum, error=None):
        from checks import check_sweep

        self.attempted += 1
        if error is not None:
            problems = [f"raised {error!r}"]
        else:
            problems = check_sweep(sweep, spectrum, self.oracle(sweep, tensor))
            self.wrong += bool(problems)
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAILED {sweep.label}: {p}", file=sys.stderr)


def timed_sweep(sweep, tensor, options, outcome, trace=None):
    """One operation: sweep, time it, check it.  Returns the seconds."""
    from tensorspectra import full_sweep

    spectrum, error = None, None
    start = time.perf_counter()
    try:
        if trace is None:
            spectrum = full_sweep(sweep.kind, tensor, options)
        else:
            spectrum = trace.sweep(sweep.kind, tensor, options)
    except Exception as exc:   # a failed operation, counted and reported
        error = exc
    elapsed = time.perf_counter() - start
    outcome.record(sweep, tensor, spectrum, error)
    return elapsed


def run_plain(rounds, outcome, cold_start):
    """End-to-end metrics: every round untraced.

    wall_s is the median time of one round.  setup_s is the median of
    SETUP_STARTS cold starts spread between the rounds, so that one slow
    spell of the machine cannot hold all of them.
    """
    gaps = len(rounds) + 1
    starts = [SETUP_STARTS * (g + 1) // gaps - SETUP_STARTS * g // gaps for g in range(gaps)]
    setup = [cold_start() for _ in range(starts[0])]
    times = []
    for r, sweeps in enumerate(rounds):
        times.append(sum(timed_sweep(s, t, o, outcome) for s, t, o in sweeps))
        setup += [cold_start() for _ in range(starts[r + 1])]
    print("round seconds " + json.dumps([round(t, 4) for t in times]))
    print("cold starts " + json.dumps([round(t, 4) for t in setup]))
    return {"wall_s": (statistics.median(times), "s"),
            "setup_s": (statistics.median(setup), "s")}


def run_traced(rounds, outcome):
    """Per-layer metrics from traced rounds, and the tracing overhead.

    Round 0 runs untraced and builds what later rounds share, such as the
    moment-matrix structures.  After it, odd rounds run traced and even
    rounds untraced, so both meet the same caches and, on average, the same
    machine.
    """
    from layers import LayerTrace

    trace = LayerTrace()
    plain, traced = [], []
    for r, sweeps in enumerate(rounds):
        use = trace if r % 2 else None
        seconds = sum(timed_sweep(s, t, o, outcome, use) for s, t, o in sweeps)
        if r:
            (plain if use is None else traced).append(seconds)
    metrics = trace.metrics(len(traced))
    # the oracle runs once per distinct tensor, so once per distinct round
    distinct = len({tuple(s.label for s, _, _ in r) for r in rounds})
    metrics["oracle.brute_s"] = (outcome.oracle_seconds / distinct, "s")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain),
                                   "s")
    if not trace.counts_agree():
        print("traced solve or iteration counts differ from Spectrum.counters",
              file=sys.stderr)
        outcome.wrong += 1
    return metrics


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the inputs, print 'ready' and exit (a cold start)")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    import_program()
    if args.setup_only:
        build_inputs(args)
        print("ready", flush=True)
        return 0

    rounds = build_inputs(args)
    outcome = Outcome()
    if args.trace:
        metrics = run_traced(rounds, outcome)
    else:
        metrics = run_plain(rounds, outcome, lambda: cold_start_seconds(args))
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    print("environment " + json.dumps(environment()))
    print(json.dumps({
        "correct": outcome.wrong == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
