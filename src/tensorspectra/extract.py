"""Flat truncation detection and extraction of atoms from moment vectors.

A moment vector y that satisfies the rank condition

    rank M_{t-k0}(y) = rank M_t(y)

for some t comes from an atomic measure; its r = rank M_t(y) support
points are recovered through multiplication operators on a monomial basis
of the moment matrix column space, simultaneously diagonalized via a
random convex combination.  Shifted basis positions and the powers of
the atoms come from the ``exponents`` and ``positions`` of :mod:`poly`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .poly import basis_size, exponents, moment_index_table, positions

RECON_TOL = 1e-4          # accepted reconstruction residual (inf-norm)
MAX_REDRAWS = 5           # attempts at a separating random combination
RANK_FLOOR = 1e-6         # rank thresholds scale with max(largest singular value, this)


class ExtractionError(RuntimeError):
    """Raised when atoms cannot be recovered reliably from a moment vector."""


@dataclass
class AtomicMeasure:
    """Finitely supported measure: points with positive weights."""

    atoms: list          # list of (point ndarray, weight float)
    truncation: int      # moments reproduced up to this degree
    residual: float      # inf-norm moment reconstruction error

    @property
    def points(self):
        return [u for u, _ in self.atoms]

    @property
    def weights(self):
        return np.array([c for _, c in self.atoms])


def numerical_rank(M, tau_rank):
    """Singular values above tau_rank * max(largest, RANK_FLOOR) count as rank."""
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return 0
    if not np.isfinite(M).all():
        raise ValueError("M must be finite")
    _u, s, _vt, info = lapack.dgesdd(M, compute_uv=0)
    if info != 0:
        raise np.linalg.LinAlgError("SVD did not converge")
    thresh = tau_rank * max(s[0], RANK_FLOOR)
    return int(np.sum(s > thresh))


def flat_truncation(y, k0, k, tau_rank=1e-6):
    """Smallest t in [k0, k] with rank M_{t-k0}(y) = rank M_t(y), else None."""
    if k0 > k:
        raise ValueError(f"need k0 <= k, got {k0} > {k}")
    ranks = {}

    def rank_at(t):
        if t not in ranks:
            ranks[t] = numerical_rank(_moment_matrix(y, t), tau_rank)
        return ranks[t]

    for t in range(k0, k + 1):
        if rank_at(t - k0) == rank_at(t):
            return t
    return None


def _moment_matrix(y, t):
    """M_t(y) of a moment vector y of order at least t."""
    if t > y.k:
        raise ValueError(f"moment vector of order {y.k} has no M_{t}")
    return y.values[moment_index_table(y.n, t)]


def _moment_matrix_factor(y, t, tau_rank):
    M = _moment_matrix(y, t)
    r = numerical_rank(M, tau_rank)
    if r == 0:
        raise ExtractionError("moment matrix is numerically zero")
    w, V = scipy.linalg.eigh(M)
    order = np.argsort(w)[::-1][:r]
    w = np.maximum(w[order], 0.0)
    U = V[:, order] * np.sqrt(w)
    return U, r


def extract_atoms(y, t, tau_rank=1e-6, seed=0):
    """Recover the support of an atomic measure matching y up to degree 2t.

    Requires the flat truncation condition at t.  The column space of
    M_t(y) is spanned by monomials of degree < t; coordinates of the atoms
    are read off from commuting multiplication operators on that basis,
    and weights solve the moment matching system.  Raises
    :class:`ExtractionError` when no separating random combination is
    found in MAX_REDRAWS draws or the reconstruction residual exceeds
    RECON_TOL.  The weights need no check of their own beyond being
    positive: the match of the moment of 1 is their sum, so the residual
    gate already holds it within RECON_TOL of y_0.
    """
    n = y.n
    U, r = _moment_matrix_factor(y, t, tau_rank)

    # pivot a monomial basis of degree <= t-1 so each x_i shift stays indexed
    low = basis_size(n, t - 1)
    Usub = U[:low, :]
    _, R, piv = scipy.linalg.qr(Usub.T, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    if diag.size < r or diag[r - 1] <= 1e-12 * max(diag[0], 1e-300):
        raise ExtractionError(
            f"column space not spanned by low-degree monomials (rank {r})")
    basis_rows = piv[:r]
    V0 = U[basis_rows, :]

    # row i: the positions of x_i times each basis monomial
    shifted = positions(n, t, exponents(n, t)[basis_rows] + np.eye(n, dtype=np.intp)[:, None])
    mult = []
    for rows in shifted:
        Ni = np.linalg.solve(V0, U[rows, :])
        mult.append((Ni + Ni.T) / 2.0)

    rng = np.random.default_rng(seed)
    points = None
    for _ in range(MAX_REDRAWS):
        xi = rng.random(n) + 0.1
        xi /= xi.sum()
        Nmix = sum(w * Ni for w, Ni in zip(xi, mult))
        theta, Q = scipy.linalg.eigh(Nmix)
        spread = max(theta[-1] - theta[0], 1.0)
        gaps = np.diff(theta)
        if r == 1 or np.all(gaps > 1e-7 * spread):
            points = np.array([[Q[:, a] @ Ni @ Q[:, a] for Ni in mult]
                               for a in range(r)])
            break
    if points is None:
        raise ExtractionError(
            f"no separating combination after {MAX_REDRAWS} draws (r={r})")

    # weights from the Vandermonde-type moment match
    B = np.prod(points ** exponents(n, 2 * t)[:, None], axis=2)
    target = y.truncate(2 * t)
    weights, *_ = np.linalg.lstsq(B, target, rcond=None)
    residual = float(np.max(np.abs(B @ weights - target)))
    if residual > RECON_TOL:
        raise ExtractionError(f"moment reconstruction residual {residual:.2e}")
    if np.any(weights <= 0.0):
        raise ExtractionError(f"nonpositive extracted weight {weights.min():.2e}")
    atoms = [(points[a].copy(), float(weights[a])) for a in range(r)]
    return AtomicMeasure(atoms=atoms, truncation=2 * t, residual=residual)
