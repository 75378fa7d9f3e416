"""Checks of one sweep's output against results computed apart from the sweep.

Every check here uses numpy alone on the tensor entries, except the n = 2
companion-matrix oracle, whose values come from univariate root finding
rather than from moment relaxations.  ``check_sweep`` returns the list of
problems it found; an empty list means the sweep passed.
"""

from __future__ import annotations

import numpy as np

# Every emitted eigenpair satisfies its defining equations to this bound.
RESIDUAL_TOL = 1e-7
# The paper's values hold to 5e-3 unless a per-value list is given; the n = 2
# oracle's to 1e-5.
REF_TOL = 5e-3
ORACLE_TOL = 1e-5

CERTIFIED = "certified-complete"
CONTINUUM = "continuum-suspected"


def h_norm_power(m):
    """Even power m0 of the H normalization sum(u**m0) = 1."""
    return m if m % 2 == 0 else m - 1


def h_count_bound(m, n):
    return n * (m - 1) ** (n - 1)


def contract(E, u):
    """A u^{m-1}: every index but the first contracted against u."""
    out = E
    for _ in range(E.ndim - 1):
        out = out @ u
    return out


def defining_residual(kind, E, lam, u):
    """Largest violation of the eigen-equations and the normalization."""
    u = np.asarray(u, dtype=float)
    m = E.ndim
    Au = contract(E, u)
    if kind == "Z":
        return max(float(np.max(np.abs(Au - lam * u))), abs(float(u @ u) - 1.0))
    norm = abs(float(np.sum(u ** h_norm_power(m))) - 1.0)
    return max(float(np.max(np.abs(Au - lam * u ** (m - 1)))), norm)


def _binary_contraction(E):
    """Ascending coefficients in t of (A x^{m-1})_i at x = (1, t), n = 2."""
    P = E[..., None]
    for _ in range(E.ndim - 1):
        low, high = P[..., 0, :], P[..., 1, :]
        pad = np.zeros(low.shape[:-1] + (1,))
        P = np.concatenate([low, pad], axis=-1) + np.concatenate([pad, high], axis=-1)
    return P


def n2_eigenvalues(kind, E):
    """Sorted real eigenvalues of an n = 2 tensor, by numpy root finding alone.

    Eigenvector directions (1, t) are the real roots of the eliminant
    x2^e (A x^{m-1})_1 - x1^e (A x^{m-1})_2, with e = 1 for Z and m - 1
    for H; the direction (0, 1) is one when (A e2^{m-1})_1 vanishes.  The
    values are approximate: they serve to spot near-double eigenvalues.
    """
    m = E.ndim
    P0, P1 = _binary_contraction(E)
    e = 1 if kind == "Z" else m - 1
    g = np.concatenate([np.zeros(e), P0]) - np.concatenate([P1, np.zeros(e)])
    roots = np.roots(g[::-1])
    ts = [r.real for r in roots if abs(r.imag) <= 1e-6 * (1.0 + abs(r.real))]
    dirs = [np.array([1.0, t]) for t in ts]
    if abs(E[(0,) + (1,) * (m - 1)]) <= 1e-12 * np.max(np.abs(E)):
        dirs.append(np.array([0.0, 1.0]))
    values = []
    for u in dirs:
        if kind == "Z":
            u = u / np.linalg.norm(u)
            lam = float(u @ contract(E, u))
            values += [lam, -lam] if m % 2 else [lam]
        else:
            i = int(np.argmax(np.abs(u)))
            values.append(float(contract(E, u)[i] / u[i] ** (m - 1)))
    return np.sort(values)


def unmatched(computed, expected, tol):
    """Values of either list left without a partner within tol.

    Each expected value needs a computed value of its own; a computed value
    needs only to lie near some expected value, since the paper's four
    digits cannot tell apart eigenvalues closer than their rounding.
    """
    computed, expected = sorted(computed), sorted(expected)
    missing, free = [], list(computed)
    for e in expected:
        near = [c for c in free if abs(c - e) <= tol]
        if near:
            free.remove(near[0])
        else:
            missing.append(e)
    stray = [c for c in computed if not any(abs(c - e) <= tol for e in expected)]
    return missing, stray


def check_sweep(sweep, spectrum, oracle=None):
    """Problems with ``spectrum``, the output of ``full_sweep`` on ``sweep``.

    ``oracle`` is the companion-matrix result for an n = 2 tensor.
    """
    problems = []
    E, kind = sweep.entries, sweep.kind
    values = [float(p.value) for p in spectrum.eigenpairs]

    if any(b <= a for a, b in zip(values, values[1:])):
        problems.append(f"values not strictly increasing: {values}")
    if kind == "H" and len(values) > h_count_bound(sweep.order, sweep.dim):
        problems.append(f"{len(values)} H-eigenvalues exceed the bound "
                        f"{h_count_bound(sweep.order, sweep.dim)}")
    for p in spectrum.eigenpairs:
        if not p.vectors:
            problems.append(f"eigenvalue {p.value:.10g} has no eigenvector")
        for u in p.vectors:
            res = defining_residual(kind, E, float(p.value), u)
            if not res <= RESIDUAL_TOL:
                problems.append(f"eigenpair at {p.value:.10g} has residual {res:.2e}")

    if sweep.termination is not None and spectrum.termination.value != sweep.termination:
        problems.append(f"termination {spectrum.termination.value}, "
                        f"expected {sweep.termination}")

    if sweep.per_value_tol is not None:
        ref, tols = sorted(sweep.reference), sweep.per_value_tol
        if len(values) != len(ref) or any(
                abs(v - r) > t for v, r, t in zip(values, ref, tols)):
            problems.append(f"values {values} off reference {ref} by more than {tols}")
    elif sweep.reference is not None:
        missing, stray = unmatched(values, sweep.reference, REF_TOL)
        if missing or stray:
            problems.append(f"values {values} against reference {sweep.reference}: "
                            f"missing {missing}, stray {stray}")

    if oracle is not None:
        expected = oracle_values(sweep, oracle)
        if expected is None:
            if spectrum.termination.value == CERTIFIED:
                problems.append("certified complete, but the oracle finds a continuum")
        else:
            missing, stray = unmatched(values, expected, ORACLE_TOL)
            if missing or stray:
                problems.append(f"values {values} against oracle {expected}: "
                                f"missing {missing}, stray {stray}")
    return problems


def oracle_values(sweep, result):
    """The values an n = 2 sweep must match, from the oracle's ``result``.

    None where the oracle found a continuum.  A nonnegative Z sweep is
    compared with the oracle's nonnegative values.
    """
    if not result.complete:
        return None
    values = list(result.values)
    if sweep.options.get("nonneg"):
        values = [v for v in values if v >= -ORACLE_TOL]
    return values
