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
import re
import sys

from . import __version__
from .driver import SweepOptions, Termination, full_sweep
from .momentsdp import dump_problem
from .tensor import TensorFormatError, parse_tensor


def _fmt(x, sig=12):
    """Shortest fixed-significance decimal; stable across runs."""
    return f"{float(x):.{sig}g}"


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


def _json_value(x):
    """JSON text of an option value: true/false, an integer or a real."""
    if isinstance(x, bool):
        return "true" if x else "false"
    return str(x) if isinstance(x, int) else _fmt(x)


def _config_echo(opts):
    """Every option that shaped the run, as JSON text in a fixed order."""
    return {_key(flag): _json_value(getattr(opts, name)) for name, flag, _, _ in _OPTIONS}


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
