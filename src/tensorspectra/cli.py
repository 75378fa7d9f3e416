"""Command line front end: read a tensor file, sweep, report with certificates.

Exit codes: 0 for any completed sweep (including a certified empty
spectrum), 2 for parse or configuration errors, 3 when a sweep ends
without a completeness certificate (budget exhausted, a continuum is
suspected or a consistency check failed); partial results are still
printed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import sys

from . import __version__, sdpsolver
from .driver import SweepOptions, Termination, full_sweep
from .momentsdp import dump_problem
from .tensor import TensorFormatError, parse_tensor


# Every SweepOptions field the command line sets: (field, flag, type, help).
# This table builds the parser, the options, the config echo and the flag
# names of error messages; each default is the field's own.
_OPTIONS = (
    ("delta0", "--delta", float, "initial step gap between eigenvalues"),
    ("delta_min", "--delta-min", float, "smallest step gap before the sweep ends uncertified"),
    ("kmax_offset", "--kmax-offset", int, "extra relaxation orders above the base order"),
    ("nonneg", "--nonneg", bool, "restrict the Z sweep to nonnegative eigenvalues"),
    ("eps_res", "--tol-res", float, "eigenpair residual tolerance"),
    ("eps_eq", "--tol-eq", float, "gap pass threshold (proven bound minus last eigenvalue)"),
    ("eps_dedup", "--tol-dedup", float, "eigenvalue deduplication tolerance"),
    ("tau_rank", "--rank-tol", float, "numerical rank threshold for flat truncation"),
    ("seed", "--seed", int, "seed for the extraction randomization"),
)
_FLAGS = {name: flag for name, flag, _, _ in _OPTIONS}


def _key(flag):
    """A flag's argparse destination, also its key in the config echo."""
    return flag[2:].replace("-", "_")


def _real(x):
    """A real at 12 significant digits, so parse-and-reemit reproduces the text."""
    return float(f"{x:.12g}")


def emit_json(spectrum, config=None):
    """Machine-readable report: one JSON document on one line, fixed field order.

    The timings section reports deterministic work counters rather than
    wall-clock seconds: identical runs must be byte-identical.
    """
    doc = {
        "kind": spectrum.kind.value,
        "eigenvalues": [{
            "value": _real(p.value),
            "vectors": [[_real(x) for x in v] for v in p.vectors],
            "residual": _real(p.residual),
            "isolated": bool(p.isolated),
            "order": int(p.order_used),
        } for p in spectrum.eigenpairs],
        "termination": spectrum.termination.value,
        "config": config or {},
        "timings": {k: int(v) for k, v in sorted(spectrum.counters.items())},
    }
    return json.dumps(doc) + "\n"


def _config_echo(opts):
    """Every option that shaped the run, in a fixed order."""
    return {_key(flag): getattr(opts, name) for name, flag, _, _ in _OPTIONS}


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
    defaults = SweepOptions()
    for name, flag, kind, text in _OPTIONS:
        how = {"action": "store_true"} if kind is bool else {"type": kind}
        parser.add_argument(flag, default=getattr(defaults, name), help=text, **how)
    parser.add_argument("--json", action="store_true",
                        help="emit the machine-readable report")
    parser.add_argument("--dump-sdp", metavar="DIR", default=None,
                        help="write each relaxation to DIR in text form")
    return parser


def _sweep_options(args):
    """The sweep options of the flags; SweepOptions raises ValueError on bad ones."""
    return SweepOptions(**{name: getattr(args, _key(flag)) for name, flag, _, _ in _OPTIONS})


def _dumping_solver(directory):
    os.makedirs(directory, exist_ok=True)
    counter = itertools.count()

    def solver(problem, options):
        path = os.path.join(directory, f"sdp_{next(counter):04d}.txt")
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

    try:
        with open(args.file, encoding="utf-8") as fh:
            A = parse_tensor(fh.read())
    except OSError as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    except (TensorFormatError, UnicodeDecodeError) as exc:
        print(f"error: {args.file}: {exc}", file=sys.stderr)
        return 2

    try:
        opts = _sweep_options(args)
    except ValueError as exc:
        # name the flag the user set, not the SweepOptions field
        message = re.sub(r"\w+", lambda word: _FLAGS.get(word[0], word[0]), str(exc))
        print(f"error: {message}", file=sys.stderr)
        return 2
    if args.dump_sdp:
        try:
            opts.solver = _dumping_solver(args.dump_sdp)
        except OSError as exc:
            print(f"error: --dump-sdp {args.dump_sdp}: {exc}", file=sys.stderr)
            return 2

    kinds = {"zeig": ["Z"], "heig": ["H"], "both": ["Z", "H"]}[args.mode]
    spectra = [full_sweep(k, A, opts) for k in kinds]

    exit_code = 0
    for spectrum in spectra:
        if args.json:
            sys.stdout.write(emit_json(spectrum, config=_config_echo(opts)))
        else:
            _print_text(spectrum)
        if spectrum.termination != Termination.CERTIFIED_COMPLETE:
            exit_code = 3
    return exit_code


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
