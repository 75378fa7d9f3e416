"""Moment vectors, localizing matrices, and relaxations of polynomial problems.

A moment vector y of order k collects one value per monomial of degree at
most 2k, in the graded order of :mod:`poly`; every position, exponent and
degree here is read from that module's ``exponents`` and ``positions``.
The localizing matrix of a polynomial q is the symmetric matrix L_q(y)
with vec(p)^T L_q(y) vec(p) = <q*p^2, y> for admissible p; for q = 1 it
is the moment matrix M_k(y).  A polynomial optimization problem

    min f(x)  s.t.  each eq(x) = 0, each ineq(x) >= 0

relaxes at order k to the conic problem over y: minimize <f, y> subject to
<1, y> = 1, every cell of each L_eq(y) equal to zero, M_k(y) and each
L_ineq(y) positive semidefinite.

Every row, a cell of a block or an equality row, is <q x^g, y> for a
shift g, and one routine builds them all: cell (a, b) of L_q has the shift
a + b, and L_eq gives one equality row per monomial of degree at most
2(k - ceil(deg eq / 2)), its distinct cells (``_equality_system``).

A problem is sign-invariant when f and every inequality have only terms of
even degree and every equality has terms of one degree parity: every H
system and every even-order Z system, with their caps and shifts, is.  Its
relaxation then has an optimum with every odd-degree moment at zero (the
average of y and its image under u -> -u), and infeasibility carries over
the same way, so the relaxation is built over the even-degree moments
only: the equality rows of even support, and the same blocks with their
columns restricted to those moments.  The problem records the positions
of its variables in the full moment vector and lifts a solution back with
the odd moments at zero.  ex56 H at k = 6 shrinks from 455 moments and
271 equality rows to 252 and 135.

Every Z and H relaxation holds the sphere sum_i x_i^m0 = 1, m0 even, and
every cell of its localizing matrix as an equality row, so every feasible
y has <x^delta (sum_i x_i^m0 - 1), y> = 0 for all |delta| <= 2k - m0.
M_k(y) then maps the coefficient vector of each x^beta (sum_i x_i^m0 - 1),
|beta| <= k - m0, to zero, and so does L_ineq(y) for |beta| <= k - m0 -
ceil(deg ineq / 2): every cell either product reads has degree at most
2k - m0.  So each block keeps only its rows whose monomial alpha has
alpha_1 < m0, the standard monomials of the sphere in the graded order.
A dropped row alpha is the leading monomial, with coefficient 1, of the
vector of beta = alpha - m0 e_1, and every other dropped row of that
vector has a smaller exponent of x_1: ordered by that exponent, the
vectors are unit triangular on the dropped rows.  Any vector is thus a
vector on the kept rows plus a combination of them, and a block is PSD
exactly when its principal submatrix on the kept rows is.  This is
facial reduction of the moment cone (Permenter and Parrilo, "Partial
facial reduction", Math. Program. 171, 2018), exact given the sphere
rows, every one of which the relaxation states.  A relaxation without
the sphere keeps every row.  Each block is built on its kept rows alone
and records them (``rows``); ex56 H's moment block at k = 6 keeps 74 of
its 84 rows.

Over the even-degree moments, cell (a, b) of a block of a sign-invariant
relaxation holds moments of degree deg a + deg b plus an even number, so
it is empty unless the basis monomials a and b have the same degree
parity.  Each block is then the direct sum of its even-degree and its
odd-degree rows and columns, and it is PSD exactly when both parts are,
so a block whose whole side is at least SPLIT_MIN_SIDE enters the
relaxation as the two parts of its kept rows, each built on its own rows
and tagged with its ``parity`` (ex56 H at k = 6: the moment block of side
84 as parts of 43 and 31, of 50 and 34 with every row kept).  The split
refuses a polynomial with a term of odd degree, or a support with a
moment of odd degree: their cross-parity cells may hold a moment.  Below
that side the extra block costs the solver more per iteration than the
smaller products save.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse

from .poly import Polynomial, basis_size, exponents, positions

SPLIT_MIN_SIDE = 30  # smallest block side split by degree parity (module docstring)


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
    return MomentVector(n, k, np.prod(u ** exponents(n, 2 * k), axis=1))


@dataclass(frozen=True)
class LocalizingStructure:
    """Sparse description of y -> L_q(y) for a fixed q and order k.

    ``matrix`` maps a moment vector (length ``num_moments``) to the
    flattened side*side localizing matrix.  With ``support``, the vector
    holds only the moments at those positions of the full moment vector;
    without it, the first ``num_moments``.  With ``rows``, the matrix is
    the principal submatrix on those rows of the whole basis; without it,
    the whole matrix.  ``parity`` is 0 or 1 for the even or the odd part of
    a block split by degree parity (module docstring), else None.
    """

    q: Polynomial
    k: int
    n: int
    side: int
    num_moments: int
    matrix: scipy.sparse.csr_matrix = field(repr=False)
    support: np.ndarray | None = field(default=None, repr=False)
    rows: np.ndarray | None = field(default=None, repr=False)
    parity: int | None = None

    @property
    def basis(self):
        """The exponents of the basis monomial of each row."""
        basis = exponents(self.n, self.k - (self.q.degree + 1) // 2)
        return basis if self.rows is None else basis[self.rows]


def _shift_rows(q, k, shifts, support):
    """The CSR rows <q x^g, y>, one per exponent row g of ``shifts``, over
    the order-k moments, or with ``support`` (increasing positions) those
    alone: the entries of every other moment are left out."""
    n = q.n
    monos = np.array(list(q.terms), dtype=np.intp).reshape(-1, n)
    # the graded order is a monomial order: with q's terms sorted by position
    # once, each row's moments come out sorted, and distinct
    order = np.argsort(positions(n, 2 * k, monos))
    monos = monos[order]
    coefs = np.array(list(q.terms.values()), dtype=float)[order]
    cols = positions(n, 2 * k, shifts[:, None, :] + monos)
    num_moments = basis_size(n, 2 * k)
    if support is not None:
        column = np.full(num_moments, -1)     # increasing on the support
        column[support] = np.arange(len(support))
        cols = column[cols]
        num_moments = len(support)
    keep = cols >= 0
    indptr = np.concatenate(([0], np.cumsum(np.count_nonzero(keep, axis=1))))
    data = np.broadcast_to(coefs, cols.shape)[keep]
    return scipy.sparse.csr_matrix(
        (data, cols[keep], indptr), shape=(len(shifts), num_moments))


def localizing_structure(q, k, support=None, rows=None):
    """Build the localizing structure of q at order k.

    With ``support``, an increasing array of moment positions, the matrix
    has one column per position, and the entries of every other moment are
    left out.  With ``rows``, an increasing array of rows of the whole
    basis, only the cells joining two of them are built.
    """
    dq = q.degree
    if dq > 2 * k:
        raise ValueError(f"polynomial degree {dq} exceeds 2k = {2 * k}")
    n = q.n
    basis = exponents(n, k - (dq + 1) // 2)
    if rows is not None:
        basis = basis[rows]
    side = len(basis)
    mat = _shift_rows(q, k, (basis[:, None] + basis[None, :]).reshape(side * side, n),
                      support)
    return LocalizingStructure(q=q, k=k, n=n, side=side, num_moments=mat.shape[1],
                               matrix=mat, support=support, rows=rows)


def moment_structure(n, k, support=None):
    """Structure of the order-k moment matrix (localizing matrix of 1)."""
    return localizing_structure(Polynomial.constant(n, 1.0), k, support)


def assemble_matrix(s, y):
    """Evaluate the structure on a moment vector, giving a symmetric matrix."""
    if isinstance(y, MomentVector):
        if y.n != s.n or y.k < s.k:
            raise ValueError(f"moment vector (n={y.n}, k={y.k}) does not cover "
                             f"structure (n={s.n}, k={s.k})")
        vec = y.values[: s.num_moments] if s.support is None else y.values[s.support]
    else:
        vec = np.asarray(y, dtype=float)[: s.num_moments]
    return (s.matrix @ vec).reshape(s.side, s.side)


@dataclass
class ConicProblem:
    """Linear conic problem over a moment vector y.

    minimize (or maximize)  c . y
    s.t.  eq_rows y = eq_rhs,  each block_j(y) is PSD,

    where block_j(y) reshapes ``blocks[j].matrix @ y``.  ``eq_rows`` holds
    the unit row and every nonempty localizing cell, dependent rows too;
    the solver drops those, and proves an inconsistent system infeasible
    (:mod:`sdpsolver`).  ``support`` holds the positions of the variables
    in the full moment vector of order k, every position when left out.
    ``moment_bound`` is an a priori bound on |y_alpha| over every feasible
    y, or None when none is known: 1.0 for a relaxation with the equality
    sum_i x_i^d - 1, d even (see :mod:`sdpsolver`).
    ``workspace`` holds the solver's read-only copy of this data, made from
    it on first use by ``sdpsolver.solve`` or ``sdpsolver.verify_solution``.
    ``eq_factors``, a dict shared by every relaxation of one order and sign
    invariance in one store, holds the solver's factors of ``eq_rows`` and
    their Farkas combination, if any (see ``sdpsolver._equality_factors``);
    with None each solve factors its own.
    """

    n: int
    k: int
    c: np.ndarray
    eq_rows: np.ndarray
    eq_rhs: np.ndarray
    blocks: list
    maximize: bool = False
    support: np.ndarray | None = None
    moment_bound: float | None = None
    eq_factors: dict | None = field(default=None, repr=False, compare=False)
    workspace: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.support is None:
            self.support = np.arange(self.num_vars)

    @property
    def num_vars(self):
        return self.c.shape[0]

    def lift(self, y):
        """The full moment vector of a solution y, zero outside the support."""
        values = np.zeros(basis_size(self.n, 2 * self.k))
        values[self.support] = y
        return MomentVector(self.n, self.k, values)


def _equality_system(eqs, k, num_vars, support):
    """Equality rows for <1,y>=1 and all localizing cells.

    Cell (a, b) of L_h is <x^(a+b) h, y>, and the sums of two basis
    monomials, of degree at most d = k - ceil(deg h / 2), are exactly the
    monomials of degree at most 2d: one row per such shift g gives the
    distinct cells of L_h.  With ``support``, the rows are over those
    moments, and rows with no entry there are left out.  Every other row
    is kept, a dependent one or one that two h share too: the solver
    finds the rank, and any inconsistency, in its one factorization of
    the rows (:mod:`sdpsolver`).
    """
    unit = np.zeros((1, num_vars))
    unit[0, 0] = 1.0
    eq_rows = [unit]
    for h in eqs:
        rows = _shift_rows(h, k, exponents(h.n, 2 * (k - (h.degree + 1) // 2)), support)
        eq_rows.append(rows[np.diff(rows.indptr) > 0].toarray())
    eq_rows = np.vstack(eq_rows)
    eq_rhs = np.zeros(eq_rows.shape[0])
    eq_rhs[0] = 1.0
    return eq_rows, eq_rhs


def _parity(p):
    """0 or 1 when every term of p has even or odd degree, else None.

    The zero polynomial counts as even.
    """
    parities = {sum(mono) % 2 for mono in p.terms}
    if len(parities) > 1:
        return None
    return parities.pop() if parities else 0


def sign_invariant(f, eqs, ineqs):
    """Whether minimizing f over {eqs = 0, ineqs >= 0} is unchanged under u -> -u.

    True when f and every inequality have only terms of even degree and
    every equality has terms of one degree parity (module docstring).
    """
    return _parity(f) == 0 and all(_parity(g) == 0 for g in ineqs) and \
        all(_parity(h) is not None for h in eqs)


def _even_moments(n, k):
    """Positions of the moments of even degree <= 2k in the graded order."""
    return np.flatnonzero(exponents(n, 2 * k).sum(axis=1) % 2 == 0)


def _parity_parts(q, k, support, rows):
    """q's localizing block on ``rows`` as its even- and odd-degree parts.

    Raises ValueError when a cell joining an even and an odd row may hold a
    moment: when q has a term of odd degree, or the support a moment of odd
    degree (every moment when there is no support).  The block is then not
    the direct sum of its parts.
    """
    odd_moments = support is None or \
        np.any(exponents(q.n, 2 * k)[support].sum(axis=1) % 2)
    if _parity(q) != 0 or odd_moments:
        raise ValueError(f"an order-{k} block of a degree-{q.degree} polynomial "
                         "may hold a cross-parity moment")
    odd = exponents(q.n, k - (q.degree + 1) // 2)[rows].sum(axis=1) % 2
    return [replace(localizing_structure(q, k, support, rows[odd == parity]), parity=parity)
            for parity in (0, 1)]


def _blocks(q, k, support, m0, split):
    """The PSD blocks that stand for q's localizing matrix at order k.

    With the sphere's degree m0, they keep only the rows whose monomial
    alpha has alpha_1 < m0 (module docstring).  With ``split``, a matrix
    whose whole side is at least SPLIT_MIN_SIDE enters as its even- and
    odd-degree parts.
    """
    basis = exponents(q.n, k - (q.degree + 1) // 2)
    rows = None if m0 is None else np.flatnonzero(basis[:, 0] < m0)
    if not split or len(basis) < SPLIT_MIN_SIDE:
        return [localizing_structure(q, k, support, rows)]
    return _parity_parts(q, k, support, np.arange(len(basis)) if rows is None else rows)


def _moment_bound(eqs):
    """The degree m0 of the sphere: m0 when some equality is
    sum_i x_i^m0 - 1 with m0 even, else None.  Reads the terms alone."""
    for h in eqs:
        if len(h.terms) != h.n + 1 or h.terms.get((0,) * h.n) != -1.0:
            continue
        m0 = max(sum(mono) for mono in h.terms)
        leads = [tuple(m0 if j == i else 0 for j in range(h.n)) for i in range(h.n)]
        if m0 > 0 and m0 % 2 == 0 and all(h.terms.get(lead) == 1.0 for lead in leads):
            return m0
    return None


def _build_relaxation(f, eqs, ineqs, k, maximize, store, reduce=True):
    # reduce=False keeps every moment of a sign-invariant problem and every
    # row of each block: the tests' reference for the reduced relaxation
    n = f.n
    if f.degree > 2 * k:
        raise ValueError(f"objective degree {f.degree} exceeds 2k = {2 * k}")
    for g in list(eqs) + list(ineqs):
        if g.n != n:
            raise ValueError("all polynomials must share the variable count")
        if g.degree > 2 * k:
            raise ValueError(f"constraint degree {g.degree} exceeds 2k = {2 * k}")
    invariant = reduce and sign_invariant(f, eqs, ineqs)
    support = _even_moments(n, k) if invariant else None
    c = f.coefficient_vector(2 * k)
    if invariant:
        c = c[support]
    shared = store is not None
    store = {} if store is None else store
    if "sphere" not in store:
        store["sphere"] = _moment_bound(eqs)
    m0 = store["sphere"] if reduce else None
    if (k, invariant, m0) not in store:
        moments = _blocks(Polynomial.constant(n, 1.0), k, support, m0, invariant)
        eq_system = _equality_system(eqs, k, c.shape[0], support)
        if shared:
            # every later relaxation of this order reads these arrays, so
            # no caller, nor a solver hook, may write into them
            for a in [*eq_system, *(a for s in moments for a in (
                    s.matrix.data, s.matrix.indices, s.matrix.indptr, s.support, s.rows))]:
                if a is not None:
                    a.flags.writeable = False
        store[k, invariant, m0] = moments, eq_system, {}
    moments, (eq_rows, eq_rhs), eq_factors = store[k, invariant, m0]

    blocks = list(moments)
    for g in ineqs:
        blocks.extend(_blocks(g, k, support, m0, invariant))
    return ConicProblem(n=n, k=k, c=c, eq_rows=eq_rows, eq_rhs=eq_rhs,
                        blocks=blocks, maximize=maximize, support=support,
                        moment_bound=None if store["sphere"] is None else 1.0,
                        eq_factors=eq_factors)


def build_min_relaxation(f, eqs, ineqs, k, store=None):
    """Order-k moment relaxation of minimizing f over {eqs = 0, ineqs >= 0}.

    ``store``, a dict shared only by relaxations with the same eqs, keeps
    the sphere's degree m0, which sets the moment bound and the rows each
    block keeps, and per order k (and per sign invariance, see the module
    docstring) the moment block (or its parity parts), the equality
    system and the solver's factors of it (``eq_factors``).  The arrays it
    shares are read-only; without a store, every array is the relaxation's
    own.
    """
    return _build_relaxation(f, eqs, ineqs, k, False, store)


def build_max_relaxation(f, eqs, ineqs, k, store=None):
    """Order-k moment relaxation of maximizing f over {eqs = 0, ineqs >= 0}.

    Internally minimizes <-f, y>; the bound that
    :func:`~tensorspectra.sdpsolver.verify_solution` reports is in the
    maximize sense.  An upper bound f <= B enters through ineqs as the polynomial
    B - f.  ``store`` is as for :func:`build_min_relaxation`.
    """
    return _build_relaxation(f.scale(-1.0), eqs, ineqs, k, True, store)


def dump_problem(problem):
    """Plain-text dump: objective, equality triplets, block sizes.

    A relaxation over part of the moments also lists the positions of its
    variables in the graded monomial order.  Each block shows its side,
    and each parity part also its parity (``21:even 31:odd 20``).
    """
    out = []
    sense = "max" if problem.maximize else "min"
    out.append(f"conic-problem n={problem.n} k={problem.k} vars={problem.num_vars} "
               f"sense={sense}")
    if problem.num_vars < basis_size(problem.n, 2 * problem.k):
        out.append("support " + " ".join(str(i) for i in problem.support))
    obj = problem.c if not problem.maximize else -problem.c
    nz = np.nonzero(obj)[0]
    out.append("objective " + " ".join(f"{i}:{obj[i]!r}" for i in nz))
    out.append(f"equalities {problem.eq_rows.shape[0]}")
    for r in range(problem.eq_rows.shape[0]):
        nz = np.nonzero(problem.eq_rows[r])[0]
        cells = " ".join(f"{i}:{problem.eq_rows[r, i]!r}" for i in nz)
        out.append(f"eq {r} rhs {problem.eq_rhs[r]!r} {cells}")
    out.append("blocks " + " ".join(
        str(b.side) if b.parity is None else f"{b.side}:{('even', 'odd')[b.parity]}"
        for b in problem.blocks))
    return "\n".join(out) + "\n"
