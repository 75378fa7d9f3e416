"""Brute-force ground truth for two-dimensional tensors.

For n = 2 the eigenvalue systems reduce exactly to univariate root
finding.  Z- and H-pairs both solve A x^{m-1} = lam x^{[p]} with
sum x_i^m0 = 1 (p = 1, m0 = 2 for Z; p = m-1 and an even m0 for H; see
:class:`EigenSystem`).  Eliminating lam from the two components leaves
the binary form x2^p (A x^{m-1})_1 - x1^p (A x^{m-1})_2, whose real root
directions carry all eigenvectors.  Roots come from companion-matrix eigenvalues, so the
result is complete up to numerical precision, and every returned pair is
re-verified against the defining equations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .driver import EigenSystem, polish_eigenpair
from .poly import Polynomial, tensor_to_poly_vector

RESIDUAL_TOL = 1e-9
VALUE_DEDUP = 1e-8


class IdenticallyZeroError(ValueError):
    """The eliminant vanishes identically: a continuum of eigenvectors."""


@dataclass
class OracleResult:
    eigenpairs: list                 # (value, [vectors]) sorted by value
    complete: bool
    note: str = ""

    @property
    def values(self):
        return [v for v, _ in self.eigenpairs]


def companion_roots(coeffs):
    """Real roots of sum_i coeffs[i] * t^i via companion-matrix eigenvalues.

    Coefficients are ascending.  Trailing coefficients below 1e-12 of the
    largest magnitude are trimmed; an all-zero polynomial raises
    :class:`IdenticallyZeroError`.  Real candidates are Newton-polished.
    """
    c = np.asarray(coeffs, dtype=float)
    top = np.max(np.abs(c)) if c.size else 0.0
    if top == 0.0 or c.size == 0:
        raise IdenticallyZeroError("all coefficients vanish")
    c = np.where(np.abs(c) > 1e-12 * top, c, 0.0)
    deg = int(np.max(np.nonzero(c)))
    if deg == 0:
        return []
    c = c[: deg + 1]
    roots = np.roots(c[::-1])
    dc = c[1:] * np.arange(1, deg + 1)
    out = []
    for r in roots:
        if abs(r.imag) > 1e-8 * (1.0 + abs(r.real)):
            continue
        t = r.real
        for _ in range(10):
            p = np.polyval(c[::-1], t)
            dp = np.polyval(dc[::-1], t)
            if dp == 0.0 or abs(p) < 1e-15 * top:
                break
            t -= p / dp
        out.append(t)
    return sorted(out)


def _binary_form_coeffs(p, deg):
    """Coefficients of p(1, t) in ascending powers of t, for n = 2 forms."""
    c = np.zeros(deg + 1)
    for (a, b), v in p.terms.items():
        c[b] += v
    return c


def _collect(system, candidates):
    groups = []
    for u in candidates:
        lam0 = system.eigenvalue_at(u)
        lam, v, _ = polish_eigenpair(system, None, lam0, u)
        if system.residual(lam, v) > RESIDUAL_TOL:
            continue
        for g in groups:
            if abs(g[0] - lam) <= VALUE_DEDUP * (1.0 + abs(lam)):
                if not any(np.linalg.norm(v - w) <= 1e-7 for w in g[1]):
                    g[1].append(v)
                break
        else:
            groups.append([lam, [v]])
    groups.sort(key=lambda g: g[0])
    return [(float(lam), sorted(vs, key=lambda v: tuple(np.round(v, 12))))
            for lam, vs in groups]


def _brute_n2(kind, A):
    """All real eigenpairs of one kind of a 2-dimensional tensor.

    The eliminant, of degree m-1+p, is dehomogenized at x1 = 1; the x1 = 0
    branch is tested apart.  Both representatives of each root direction
    under the normalization sum x_i^m0 = 1 are candidates.
    """
    if A.dim != 2:
        raise ValueError(f"oracle requires dimension 2, got {A.dim}")
    system = EigenSystem(kind, A)
    P = tensor_to_poly_vector(A)
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    elim = x2 ** system.p * P[0] - x1 ** system.p * P[1]
    try:
        roots = companion_roots(_binary_form_coeffs(elim, A.order - 1 + system.p))
    except IdenticallyZeroError:
        return OracleResult(eigenpairs=[], complete=False,
                            note="identically zero eliminant: continuum")
    candidates = []
    for t in roots:
        u = system.normalize(np.array([1.0, t]))
        candidates.extend([u, -u])
    scale = np.max(np.abs(A.entries)) or 1.0
    if abs(P[0].evaluate(np.array([0.0, 1.0]))) <= 1e-10 * scale:
        candidates.extend([np.array([0.0, 1.0]), np.array([0.0, -1.0])])
    return OracleResult(eigenpairs=_collect(system, candidates), complete=True)


def brute_z_n2(A):
    """All real Z-eigenpairs (p = 1, m0 = 2) of a 2-dimensional tensor."""
    return _brute_n2("Z", A)


def brute_h_n2(A):
    """All real H-eigenpairs (p = m-1, even m0) of a 2-dimensional tensor."""
    return _brute_n2("H", A)
