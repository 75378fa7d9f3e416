"""Sweep one random scale tensor and exit 1 unless it meets its gates.

Usage, from the root of a checkout:

    PYTHONPATH=src python3 .github/scale_sweep.py KIND M N VALUES MAX_SOLVES [--max-mb MB]

The tensor is ``default_rng((M, N, 5)).standard_normal((N,) * M)``.  Its
KIND sweep must end certified-complete with exactly VALUES eigenvalues in
at most MAX_SOLVES SDP solves and, with ``--max-mb``, a peak RSS of at most
MB megabytes.  Run one case per process: the peak RSS is this process's own.
"""

import argparse
import resource
import sys

import numpy as np

from tensorspectra import Tensor, full_sweep


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kind", choices=["Z", "H"])
    parser.add_argument("m", type=int)
    parser.add_argument("n", type=int)
    parser.add_argument("values", type=int, help="number of eigenvalues the sweep must find")
    parser.add_argument("max_solves", type=int, help="most SDP solves the sweep may take")
    parser.add_argument("--max-mb", type=float, default=None, help="most peak RSS in MB")
    args = parser.parse_args()

    rng = np.random.default_rng((args.m, args.n, 5))
    s = full_sweep(args.kind, Tensor(rng.standard_normal((args.n,) * args.m)))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(args.kind, args.m, args.n, s.termination.value, len(s.values), s.counters,
          f"{peak_mb:.0f} MB")
    ok = (s.termination.value == "certified-complete" and len(s.values) == args.values
          and s.counters["sdp_solves"] <= args.max_solves
          and (args.max_mb is None or peak_mb <= args.max_mb))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
