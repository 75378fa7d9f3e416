"""Command line front end: read a tensor file, sweep, report with certificates.

Exit codes: 0 for any completed sweep (including a certified empty
spectrum), 2 for parse or configuration errors, 3 when a sweep ends
without a completeness certificate (budget exhausted, a continuum is
suspected or a consistency check failed); partial results are still
printed.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .driver import SweepOptions, Termination, full_sweep
from .momentsdp import dump_problem
from .sdpsolver import SolverOptions
from .tensor import TensorFormatError, parse_tensor


def _fmt(x, sig=12):
    """Shortest fixed-significance decimal; stable across runs."""
    return f"{float(x):.{sig}g}"


def emit_json(spectrum, config=None):
    """Machine-readable report with a fixed field order.

    Reals carry 12 significant digits, so parse-and-reemit reproduces the
    text exactly.  The timings section reports deterministic work counters
    rather than wall-clock seconds: identical runs must be byte-identical.
    """
    out = []
    out.append("{")
    out.append(f'  "kind": "{spectrum.kind.value}",')
    out.append('  "eigenvalues": [')
    rows = []
    for p in spectrum.eigenpairs:
        vecs = ", ".join(
            "[" + ", ".join(_fmt(x) for x in v) + "]" for v in p.vectors)
        rows.append(
            "    {"
            f'"value": {_fmt(p.value)}, '
            f'"vectors": [{vecs}], '
            f'"residual": {_fmt(p.residual)}, '
            f'"isolated": {"true" if p.isolated else "false"}, '
            f'"order": {p.order_used}'
            "}")
    out.append(",\n".join(rows))
    out.append("  ],")
    out.append(f'  "termination": "{spectrum.termination.value}",')
    cfg = config or {}
    cfg_rows = ", ".join(
        f'"{k}": {v}' for k, v in cfg.items())
    out.append('  "config": {' + cfg_rows + "},")
    cnt_rows = ", ".join(
        f'"{k}": {int(v)}' for k, v in sorted(spectrum.counters.items()))
    out.append('  "timings": {' + cnt_rows + "}")
    out.append("}")
    return "\n".join(out) + "\n"


def _config_echo(args):
    return {
        "delta0": _fmt(args.delta),
        "delta_min": _fmt(args.delta_min),
        "kmax_offset": int(args.kmax_offset),
        "nonneg": "true" if args.nonneg else "false",
        "tol_res": _fmt(args.tol_res),
        "tol_eq": _fmt(args.tol_eq),
        "tol_dedup": _fmt(args.tol_dedup),
        "rank_tol": _fmt(args.rank_tol),
        "seed": int(args.seed),
    }


def _print_text(spectrum, file=None):
    file = file if file is not None else sys.stdout
    kind = spectrum.kind.value
    if not spectrum.eigenpairs:
        if spectrum.termination == Termination.CERTIFIED_COMPLETE:
            print(f"no real {kind}-eigenvalues (certified)", file=file)
        else:
            print(f"no real {kind}-eigenvalues found "
                  f"({spectrum.termination.value})", file=file)
    else:
        print(f"{kind}-eigenvalues ({len(spectrum.eigenpairs)}):", file=file)
        header = f"{'value':>12}  {'residual':>9}  {'isolated':>8}  {'order':>5}  eigenvectors"
        print(header, file=file)
        for p in spectrum.eigenpairs:
            vecs = "  ".join("(" + ", ".join(f"{x:.4f}" for x in v) + ")"
                             for v in p.vectors)
            iso = "yes" if p.isolated else "unknown"
            print(f"{p.value:12.4f}  {p.residual:9.1e}  {iso:>8}  "
                  f"{p.order_used:5d}  {vecs}", file=file)
    print(f"termination: {spectrum.termination.value}", file=file)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tensor-spectra",
        description="Compute all real Z- and H-eigenvalues of a real tensor "
                    "by certified moment relaxations.")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("mode", choices=["zeig", "heig", "both"],
                        help="which eigenvalue kind(s) to compute")
    parser.add_argument("file", help="tensor file (see README for the format)")
    parser.add_argument("--delta", type=float, default=0.05,
                        help="initial step gap between eigenvalues")
    parser.add_argument("--delta-min", type=float, default=1e-6,
                        help="smallest gap before suspecting a continuum")
    parser.add_argument("--kmax-offset", type=int, default=3,
                        help="extra relaxation orders above the base order")
    parser.add_argument("--nonneg", action="store_true",
                        help="restrict the Z sweep to nonnegative eigenvalues")
    parser.add_argument("--tol-res", type=float, default=1e-7,
                        help="eigenpair residual tolerance")
    parser.add_argument("--tol-eq", type=float, default=1e-4,
                        help="backward-check equality tolerance")
    parser.add_argument("--tol-dedup", type=float, default=1e-6,
                        help="eigenvalue deduplication tolerance")
    parser.add_argument("--rank-tol", type=float, default=1e-6,
                        help="numerical rank threshold for flat truncation")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the extraction randomization")
    parser.add_argument("--json", action="store_true",
                        help="emit the machine-readable report")
    parser.add_argument("--dump-sdp", metavar="DIR", default=None,
                        help="write each relaxation to DIR in text form")
    return parser


def _sweep_options(args):
    """The sweep options of the flags; SweepOptions raises ValueError on bad ones."""
    return SweepOptions(
        delta0=args.delta, delta_min=args.delta_min,
        kmax_offset=args.kmax_offset, eps_res=args.tol_res,
        eps_eq=args.tol_eq, eps_dedup=args.tol_dedup,
        tau_rank=args.rank_tol, seed=args.seed, nonneg=args.nonneg,
        solver_options=SolverOptions())


def _dumping_solver(directory):
    os.makedirs(directory, exist_ok=True)
    from . import sdpsolver

    counter = [0]

    def solver(problem, options):
        path = os.path.join(directory, f"sdp_{counter[0]:04d}.txt")
        counter[0] += 1
        with open(path, "w") as fh:
            fh.write(dump_problem(problem))
        return sdpsolver.solve(problem, options)

    return solver


def run(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    env_seed = os.environ.get("TENSOR_SPECTRA_SEED")
    if env_seed is not None:
        try:
            args.seed = int(env_seed)
        except ValueError:
            print(f"error: TENSOR_SPECTRA_SEED={env_seed!r} is not an integer",
                  file=sys.stderr)
            return 2

    try:
        with open(args.file) as fh:
            A = parse_tensor(fh.read())
    except OSError as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    except TensorFormatError as exc:
        print(f"error: {args.file}: {exc}", file=sys.stderr)
        return 2

    try:
        opts = _sweep_options(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.dump_sdp:
        opts.solver = _dumping_solver(args.dump_sdp)

    kinds = {"zeig": ["Z"], "heig": ["H"], "both": ["Z", "H"]}[args.mode]
    spectra = [full_sweep(k, A, opts) for k in kinds]

    exit_code = 0
    for spectrum in spectra:
        if args.json:
            sys.stdout.write(emit_json(spectrum, config=_config_echo(args)))
        else:
            _print_text(spectrum)
        if spectrum.termination != Termination.CERTIFIED_COMPLETE:
            exit_code = 3
    return exit_code


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
