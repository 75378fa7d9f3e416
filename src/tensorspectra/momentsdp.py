"""Moment vectors, localizing matrices, and relaxations of polynomial problems.

A moment vector y of order k collects one value per monomial of degree at
most 2k.  The localizing matrix of a polynomial q is the symmetric matrix
L_q(y) with vec(p)^T L_q(y) vec(p) = <q*p^2, y> for admissible p; for q = 1
it is the moment matrix M_k(y).  A polynomial optimization problem

    min f(x)  s.t.  each eq(x) = 0, each ineq(x) >= 0

relaxes at order k to the conic problem over y: minimize <f, y> subject to
<1, y> = 1, every cell of each L_eq(y) equal to zero, M_k(y) and each
L_ineq(y) positive semidefinite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse

from .poly import Polynomial, basis_size, monomials_upto, rank_table

EQ_RANK_TOL = 1e-10  # relative QR threshold for dropping dependent equality rows


@dataclass(frozen=True)
class MomentVector:
    """Truncated moment sequence indexed by the graded monomial order."""

    n: int
    k: int
    values: np.ndarray

    def __post_init__(self):
        expected = basis_size(self.n, 2 * self.k)
        if self.values.shape != (expected,):
            raise ValueError(
                f"moment vector needs {expected} entries for n={self.n}, k={self.k}, "
                f"got {self.values.shape}")

    def truncate(self, t):
        """Moments of degree at most t (a prefix in the graded order)."""
        if t > 2 * self.k:
            raise ValueError(f"cannot truncate to degree {t} > {2 * self.k}")
        return self.values[: basis_size(self.n, t)]

    def pair(self, f):
        """The pairing <f, y> = sum of f's coefficients times moments."""
        return float(f.coefficient_vector(2 * self.k) @ self.values)


def moment_vector_of_point(u, k):
    """The moment vector of the Dirac measure at u: entries u^alpha."""
    u = np.asarray(u, dtype=float)
    n = u.shape[0]
    vals = np.array([np.prod(u ** np.array(mono)) for mono in monomials_upto(n, 2 * k)])
    return MomentVector(n, k, vals)


@dataclass(frozen=True)
class LocalizingStructure:
    """Sparse description of y -> L_q(y) for a fixed q and order k.

    ``matrix`` maps a moment vector (length ``num_moments``) to the
    flattened side*side localizing matrix.
    """

    q: Polynomial
    k: int
    n: int
    side: int
    num_moments: int
    matrix: scipy.sparse.csr_matrix = field(repr=False)


def localizing_structure(q, k):
    """Build the localizing structure of q at order k."""
    dq = q.degree
    if dq > 2 * k:
        raise ValueError(f"polynomial degree {dq} exceeds 2k = {2 * k}")
    n = q.n
    half = (dq + 1) // 2
    side = basis_size(n, k - half)
    basis = monomials_upto(n, k - half)
    table = rank_table(n, 2 * k)
    num_moments = basis_size(n, 2 * k)
    rows, cols, data = [], [], []
    for a in range(side):
        for b in range(a, side):
            cell = a * side + b
            cell_t = b * side + a
            for mono, c in q.terms.items():
                idx = table[tuple(x + y + z for x, y, z in zip(mono, basis[a], basis[b]))]
                rows.append(cell)
                cols.append(idx)
                data.append(c)
                if cell_t != cell:
                    rows.append(cell_t)
                    cols.append(idx)
                    data.append(c)
    mat = scipy.sparse.csr_matrix(
        (data, (rows, cols)), shape=(side * side, num_moments))
    return LocalizingStructure(q=q, k=k, n=n, side=side,
                               num_moments=num_moments, matrix=mat)


def moment_structure(n, k):
    """Structure of the order-k moment matrix (localizing matrix of 1)."""
    return localizing_structure(Polynomial.constant(n, 1.0), k)


def assemble_matrix(s, y):
    """Evaluate the structure on a moment vector, giving a symmetric matrix."""
    if isinstance(y, MomentVector):
        if y.n != s.n or y.k < s.k:
            raise ValueError(f"moment vector (n={y.n}, k={y.k}) does not cover "
                             f"structure (n={s.n}, k={s.k})")
        vec = y.values[: s.num_moments]
    else:
        vec = np.asarray(y, dtype=float)[: s.num_moments]
    return (s.matrix @ vec).reshape(s.side, s.side)


@dataclass
class ConicProblem:
    """Linear conic problem over a moment vector y.

    minimize (or maximize)  c . y
    s.t.  eq_rows y = eq_rhs,  each block_j(y) is PSD,

    where block_j(y) reshapes ``blocks[j].matrix @ y``.  When the equality
    system alone is inconsistent, ``farkas_mu`` carries a combination of
    equality rows proving it.
    """

    n: int
    k: int
    c: np.ndarray
    eq_rows: np.ndarray
    eq_rhs: np.ndarray
    blocks: list
    maximize: bool = False
    farkas_mu: np.ndarray | None = None

    @property
    def num_vars(self):
        return self.c.shape[0]


def _dedupe_rows(rows):
    """Drop exact duplicate equality rows, keeping first occurrences."""
    seen = {}
    keep = []
    for r in rows:
        key = r.tobytes()
        if key not in seen:
            seen[key] = True
            keep.append(r)
    return keep


def _independent_rows(L):
    """Indices of a numerically independent subset of rows, in stable order."""
    if L.shape[0] == 0:
        return []
    _, R, piv = scipy.linalg.qr(L.T, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    if diag.size == 0 or diag[0] == 0.0:
        return []
    rank = int(np.sum(diag > EQ_RANK_TOL * diag[0]))
    return sorted(piv[:rank])


def _equality_system(eqs, k, num_vars):
    """Reduced equality rows for <1,y>=1 and all localizing cells."""
    # every scalar cell of each equality localizing matrix, upper triangle once
    raw = []
    for h in eqs:
        s = localizing_structure(h, k)
        dense = s.matrix.toarray().reshape(s.side, s.side, num_vars)
        iu, ju = np.triu_indices(s.side)
        raw.extend(dense[iu, ju])
    raw = _dedupe_rows(raw)
    loc = np.array(raw) if raw else np.zeros((0, num_vars))
    keep = _independent_rows(loc)
    loc = loc[keep]

    unit = np.zeros(num_vars)
    unit[0] = 1.0
    farkas_mu = None
    if loc.shape[0]:
        # a unit row reachable from homogeneous rows means <1,y>=1 is
        # unsatisfiable; record the combination as a Farkas certificate
        w, *_ = np.linalg.lstsq(loc.T, unit, rcond=None)
        resid = np.max(np.abs(loc.T @ w - unit))
        if resid <= 1e-9 * max(1.0, np.max(np.abs(w))):
            farkas_mu = np.concatenate(([1.0], -w))

    eq_rows = np.vstack([unit[None, :], loc])
    eq_rhs = np.zeros(eq_rows.shape[0])
    eq_rhs[0] = 1.0
    return eq_rows, eq_rhs, farkas_mu


def _build_relaxation(f, eqs, ineqs, k, maximize, store):
    n = f.n
    if f.degree > 2 * k:
        raise ValueError(f"objective degree {f.degree} exceeds 2k = {2 * k}")
    for g in list(eqs) + list(ineqs):
        if g.n != n:
            raise ValueError("all polynomials must share the variable count")
        if g.degree > 2 * k:
            raise ValueError(f"constraint degree {g.degree} exceeds 2k = {2 * k}")
    num_vars = basis_size(n, 2 * k)
    c = f.coefficient_vector(2 * k)
    store = {} if store is None else store
    if k not in store:
        store[k] = (moment_structure(n, k), _equality_system(eqs, k, num_vars))
    moment, (eq_rows, eq_rhs, farkas_mu) = store[k]

    blocks = [moment]
    blocks.extend(localizing_structure(g, k) for g in ineqs)
    return ConicProblem(n=n, k=k, c=c, eq_rows=eq_rows, eq_rhs=eq_rhs,
                        blocks=blocks, maximize=maximize, farkas_mu=farkas_mu)


def build_min_relaxation(f, eqs, ineqs, k, store=None):
    """Order-k moment relaxation of minimizing f over {eqs = 0, ineqs >= 0}.

    ``store``, a dict shared only by relaxations with the same eqs, keeps
    the moment structure and the reduced equality system per order k.
    """
    return _build_relaxation(f, eqs, ineqs, k, False, store)


def build_max_relaxation(f, eqs, ineqs, k, store=None):
    """Order-k moment relaxation of maximizing f over {eqs = 0, ineqs >= 0}.

    Internally minimizes <-f, y>; reported objectives are in the maximize
    sense.  An upper bound f <= B enters through ineqs as the polynomial
    B - f.  ``store`` is as for :func:`build_min_relaxation`.
    """
    return _build_relaxation(f.scale(-1.0), eqs, ineqs, k, True, store)


def dump_problem(problem):
    """Plain-text dump: objective, equality triplets, block sizes."""
    out = []
    sense = "max" if problem.maximize else "min"
    out.append(f"conic-problem n={problem.n} k={problem.k} vars={problem.num_vars} "
               f"sense={sense}")
    obj = problem.c if not problem.maximize else -problem.c
    nz = np.nonzero(obj)[0]
    out.append("objective " + " ".join(f"{i}:{obj[i]!r}" for i in nz))
    out.append(f"equalities {problem.eq_rows.shape[0]}")
    for r in range(problem.eq_rows.shape[0]):
        nz = np.nonzero(problem.eq_rows[r])[0]
        cells = " ".join(f"{i}:{problem.eq_rows[r, i]!r}" for i in nz)
        out.append(f"eq {r} rhs {problem.eq_rhs[r]!r} {cells}")
    out.append("blocks " + " ".join(str(b.side) for b in problem.blocks))
    return "\n".join(out) + "\n"
