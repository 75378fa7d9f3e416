"""Dense primal-dual interior-point solver for moment relaxations.

Solves problems of the form

    min  c.y   s.t.  G y = b,  block_j(y) PSD for each j,

with y free, via a homogeneous self-dual embedding: variables
(y, mu, S_j, Z_j, tau, kappa) satisfying

    G y - b tau = 0
    block_j(y) - S_j = 0
    G^T mu + sum_j adj_j(Z_j) - c tau = 0
    c.y - b.mu + kappa = 0

with S_j, Z_j PSD and tau, kappa >= 0.  Any exact solution has
sum_j <S_j, Z_j> + tau*kappa = 0, so either tau > 0 (scaled optimum) or
kappa > 0 (infeasibility ray).  Search directions use Nesterov-Todd
scaling with a Mehrotra predictor-corrector.

Each solve eliminates every equality row exactly, through one pivoted QR
factorization of G^T.  G holds every localizing cell, dependent rows
too, and the factorization finds its rank (:func:`_equality_factors`):
it gives (G^+)^T, so y0 = G^+ b, a solution of G y0 = b, an orthonormal
basis B of the null space of G, and, when a dependent row's right-hand
side disagrees with the rows it depends on, a combination mu of the rows
that proves G y = b inconsistent, returned as a PRIMAL_INFEASIBLE ray
with every Z_j zero and no iteration.  The relaxations of one order and
sign invariance in a sweep share their equality system, and with it
these factors (``eq_factors``, see :mod:`momentsdp`), so a sweep factors
each of its systems once; each solve still forms y0 from its own b.  The
iteration starts at y = y0 with tau = 1 and takes every step as
dy = B z + dtau y0, so G y = b tau holds to rounding at every iterate;
the primal residual keeps G y - b tau only to show that rounding.  The
reduced system is the Schur matrix K = B^T Phi B of z alone, of side
m = N - rank G, assembled from each block's operator projected onto B.
K is LU-factorized densely and in place, with static regularization on
its diagonal, and each solution is one getrs.  K is symmetric positive
definite, yet a Cholesky factorization in its place ends a reduced
order-5 relaxation of ex55 H INACCURATE, where the LU converges.  When G
has rank N the rows fix every step, and nothing is factored.  The
multipliers are no iterate: each iteration reads them off the dual
equation, as its least-squares solution mu = (G^+)^T (c tau -
sum_j adj_j(Z_j)), so the dual residual is the part of the dual equation
in the null space of G, and a step needs only b.dmu = y0.(G^T dmu).
Every product with Phi v = sum_j adj_j(W_j^-1 mat_j(v) W_j^-1), W_j the
NT scaling of block j, is one adjoint through W_j^-1, formed once per
iteration; the scaled projected operators serve only to assemble the
Schur matrix B^T Phi B, one block at a time in one buffer.  Step lengths
come from the NT-scaled directions Ds = Rinv dS Rinv^T and
Dz = R^T dZ R, which the step equations already form, with no
factorization of S or Z: the corrector takes one symmetric eigenvalue
call per scaled matrix.  The predictor's right-hand side is -diag(sig),
so its Ds is -diag(sig) - Dz: one eigenvalue call per block bounds both
of its sides, and its gap is (1 - a) sig.sig + a^2 <Ds, Dz>, so the
predictor forms neither dS nor dZ.  A direction that is not finite gets
step 0, which ends the solve with its best iterate.  A relaxation over
part of the moments needs no branch here, nor does one whose blocks keep
only the sphere's standard monomials or are split by degree parity (see
:mod:`momentsdp`): the solver sees smaller blocks, each with its own NT
scaling.  A block-diagonal matrix is PSD exactly when each of its
diagonal blocks is, and, given the sphere rows, a block is PSD exactly
when its principal submatrix on the kept rows is (Theorem below), so
:func:`verify_solution` checks the same conditions on the blocks the
solver sees.  The scaling of the projected operators and the Schur
products cost in proportion to the sum of the squared block sides:
43² + 31² = 2810 for the parts of ex56 H's moment block at k = 6,
against 50² + 34² = 3656 for its parts with every row kept and
84² = 7056 for the whole block.

Every right-hand factor of the products in the Schur assembly and the
congruences is passed in NN layout, C-contiguous: R_j^T and Rinv_j^T are
made contiguous once per iteration.  numpy hands a transposed right
operand to BLAS's NT kernel, which runs at about half the NN speed at
these sides.  The two Gram products, W_j^-1 = Rinv_j^T Rinv_j and
V_j V_j^T in the Schur assembly, keep the form X.T @ X on one buffer,
which numpy runs as syrk, exactly symmetric.  The Schur assembly
(:func:`_schur`) is most of the cost of the largest relaxations.  Per
iteration and block it takes 2 m q_j^3 multiply-adds for the scaled
operators Rinv_j mat_j(B e_l) Rinv_j^T and m^2 q_j^2 / 2 for the syrk.
On the order-5 shifted relaxation of ex56 H (m = 102, sides 21, 31 and
20), one assembly takes about 0.74 ms on one core of a 2-core x86-64
machine (OpenBLAS, one thread), against 0.80 ms at sides 22, 34 and 20,
with every row kept.  At those sides an earlier measurement split it
into 0.17 ms for the left products, 0.16 ms for the right ones (0.31 ms
with Rinv_j^T a transposed view) and 0.38 ms for the syrks.

The relaxations are small (a few dozen moments on n = 2 tensors), so the
iteration is bound by per-call overhead rather than arithmetic.  All PSD
blocks of a relaxation are one flat vector, each block's matrix
row-major in its own span (:class:`_Cone`), so each elementwise step is
one numpy expression over every block: the residual, the symmetric part
as (x + x[T]) / 2 with T the transpose permutation, the right-hand sides
of the step equations and the residuals of their refinement, the
step-length scaling and the updates of S and Z.  The blocks are applied
as one ``np.bincount`` over their concatenated stored (row, column,
value) entries, which sums in the order of the sparse matrix products;
the adjoint takes one bincount per block and adds them in block order.
Only linear algebra stays per block: the NT factors, the congruences,
the Schur assembly and the step lengths' eigenvalues.  The congruences
read their inputs from, and write their results into, flat buffers whose
block views are made once per solve.  Per-block maxima come from
``np.maximum.reduceat``, which is exact, and per-block sums from
``np.sum`` over each block's span, so every iterate is bit for bit that
of a loop over separate block matrices.  The NT factors, the step
lengths, the ray test and the eigenvalues that :func:`verify_solution`
reads call LAPACK (potrf, gesdd, syevd) directly, without the
``np.linalg`` and ``scipy.linalg`` wrappers and their per-call checks.

A solve that ends without converging returns its best iterate, with
``iterations`` the steps it ran and ``best_iteration`` the step count at
that iterate.

The iteration's tolerances are module constants: EQ_RANK_TOL sets the
rank of G and EQ_GAP_TOL an inconsistent right-hand side, EPS_FEAS and
EPS_GAP define an optimum, TAU_KAPPA_TOL an infeasibility ray,
STATIC_REG regularizes the reduced system, STEP_FRAC damps each step,
and INACCURATE_TOL separates an INACCURATE best iterate from an
ITERATION_LIMIT one.  :func:`verify_solution` checks a moment vector y
with VERIFY_FEAS and VERIFY_PSD, and proves with MOMENT_MARGIN.
:class:`SolverOptions` holds only the iteration budget ``max_iter``.

Past the equalities' own certificate, the solver returns a dual ray only
once tau has collapsed against kappa, with G^T mu + sum_j adj_j(Z_j)
within EPS_FEAS of zero relative to the ray's norm, scaled to b.mu = 1.

A status is advice, not proof.  :func:`verify_solution` reads it only to
choose the check: a PRIMAL_INFEASIBLE result is checked as a dual ray,
any other as a primal-dual pair (y, mu, Z_j).  It never reads a result's
objective or metrics, and fails, rather than raising on, a result whose
arrays are missing or do not match the problem's shapes.

Every claim it accepts is proven from an a priori bound on the moments,
in the manner of the rigorous SDP bounds of Jansson, Chaykin and Keil
(SIAM J. Numer. Anal. 46, 2007).

Theorem.  Let y be feasible for an order-k relaxation that holds
y_0 = 1, every localizing row of sum_i x_i^m0 - 1, m0 even and
m0 <= 2k, and the principal submatrix of M_k(y) on the rows alpha with
alpha_1 < m0 PSD (every Z and H relaxation of the sweep).  Then
|y_alpha| <= 1 for all |alpha| <= 2k.  Proof: first, M_k(y) is PSD.
The sphere rows make it map each x^beta (sum_i x_i^m0 - 1),
|beta| <= k - m0, to zero, and these vectors, one per dropped row
alpha = beta + m0 e_1, are unit triangular on the dropped rows, so the
quadratic form of M_k(y) is that of its kept-row submatrix
(:mod:`momentsdp`).  Next, let D = y_(2 gamma) be the largest diagonal
moment, gamma of least degree among its maximizers.
(i) If gamma_i >= m0/2, the row at beta = 2 gamma - m0 e_i reads
sum_l y_(beta + m0 e_l) = y_beta, where every term on the left is
diagonal, so D <= y_beta and beta/2 is a maximizer of lower degree.
(ii) If 0 < |gamma| < k and gamma_i > 0, the minor of M_k on the rows
gamma + e_i, gamma - e_i gives D^2 <= y_(2 gamma - 2 e_i) D, so
gamma - e_i is a maximizer of lower degree.  (iii) If |gamma| = k, the
minors on the rows gamma + e_i - e_j, gamma - e_i + e_j show both their
diagonal moments to be maximizers too, so the maximum moves, at degree
k, onto a single coordinate, k e_i, and (i) applies.  So gamma = 0 and
D = y_0 = 1, and every other moment is bounded by two diagonal ones,
|y_(a+b)| <= sqrt(y_2a y_2b).  The proof reads only even moments and
rows of one degree parity, so it covers the even-support relaxations and
parity-split blocks of :mod:`momentsdp` too.  ``ConicProblem.moment_bound``
records the bound: 1.0, or None when the relaxation has no such
equality, and then nothing is proven.

Slack.  Let Y bound |y_alpha| for every feasible y.  For any mu and Z_j,
let T_j be the sum of |coefficients| on block j's diagonal cells and
lambda^-(Z_j) the negative part of the least eigenvalue of Z_j's
symmetric part.  As 0 <= tr block_j(y) <= Y T_j, every feasible y has

    y.r - sum_j <Z_j, block_j(y)>  <=  Y (||r||_1 + sum_j lambda^-(Z_j) T_j),

the slack of (r, Z_j).  With r = G^T mu + sum_j adj_j(Z_j), the left
side equals b.mu, so a ray whose b.mu exceeds its slack proves the
relaxation infeasible.  With r = c - G^T mu - sum_j adj_j(Z_j),
c.y = b.mu + sum_j <Z_j, block_j(y)> + r.y, and -r has the slack of r,
so any (mu, Z_j) proves the minimum of c.y to be at least b.mu minus the
slack.  A poor dual proves a poor bound, never a wrong one.

Rounding.  The check computes in floating point, without directed
rounding.  The r it computes differs from the exact r by at most rho in
the 1-norm, a bound from the terms' magnitudes and counts (see
:func:`_slack`), so the slack takes ||r||_1 + rho: 8.3e-8 and 2.2e-7 on
the largest certificates the sweep meets (the ex56 Z rays at k = 5 and 6,
norm 3.8e6 at k = 6), against b.mu = 1.  Y = moment_bound + MOMENT_MARGIN;
the margin stands for the rounding of the slack's own sums.  G holds
every row the relaxation states, so the proof rests on no row that the
solver drops as dependent: the check reads all of G.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.linalg
from scipy.linalg import lapack


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    PRIMAL_INFEASIBLE = "primal-infeasible"
    DUAL_INFEASIBLE = "dual-infeasible"
    INACCURATE = "inaccurate"
    ITERATION_LIMIT = "iteration-limit"


EPS_FEAS = 1e-8          # relative primal and dual residual of an optimum
EPS_GAP = 1e-8           # relative duality gap of an optimum
TAU_KAPPA_TOL = 1e-8     # tau below this times max(1, kappa) shows a ray
STATIC_REG = 1e-10       # diagonal regularization of the reduced system; it stays in
                         # each solution, as no refinement takes it back out
STEP_FRAC = 0.98         # fraction of the step to the cone boundary taken
INACCURATE_TOL = 1e-4    # merit of a best iterate still reported INACCURATE
VERIFY_FEAS = 1e-6       # verify_solution's feasibility tolerance on y
VERIFY_PSD = 1e-7        # verify_solution's eigenvalue tolerance on y
MOMENT_MARGIN = 1e-6     # added to the a priori moment bound (module docstring)
EQ_RANK_TOL = 1e-10      # |R_ll| below this times |R_00| drops row l of G as dependent
EQ_GAP_TOL = 1e-9        # relative right-hand-side gap of a dropped row that proves
                         # G y = b inconsistent (see _equality_factors)


@dataclass
class SolverOptions:
    max_iter: int = 200


@dataclass
class ConicSolution:
    status: SolveStatus
    y: np.ndarray | None = None
    objective: float | None = None
    eq_duals: np.ndarray | None = None
    block_duals: list | None = None
    certificate: dict | None = None
    metrics: dict = field(default_factory=dict)

    @property
    def iterations(self):
        return self.metrics.get("iterations", 0)


# entries of the temporary that scales a batch of operators (2 MB)
_BATCH = 1 << 18


def _nt_scaling(S, Z):
    """Nesterov-Todd factors for a PSD block.

    Returns (R, Rinv, sigma) with R^T Z R = diag(sigma) and
    R^{-1} S R^{-T} = diag(sigma); the scaling matrix is W = R R^T.
    Raises ``np.linalg.LinAlgError`` when S or Z is not positive definite.
    """
    Ls, info_s = lapack.dpotrf(S, lower=1)
    Lz, info_z = lapack.dpotrf(Z, lower=1)
    if info_s != 0 or info_z != 0:
        raise np.linalg.LinAlgError("NT scaling: block not positive definite")
    U, sig, Vt, info = lapack.dgesdd(Lz.T @ Ls)
    if info != 0:
        raise np.linalg.LinAlgError("NT scaling: SVD did not converge")
    sig = np.maximum(sig, 1e-300)
    R = Ls @ Vt.T * (sig ** -0.5)
    Rinv = (sig[:, None] ** -0.5) * (U.T @ Lz.T)
    return R, Rinv, sig


def _schur(ops, Rinvs, Rinvts, buf, out):
    """Add the Schur matrix B^T Phi B = sum_j V_j V_j^T into ``out``, where
    row l of V_j is vec(Rinv_j mat_j(B e_l) Rinv_j^T).

    ``ops[j]`` holds mat_j(B e_l) for every l as a contiguous (m, q_j, q_j)
    array and ``Rinvts[j]`` is Rinv_j^T made contiguous, so both products
    of the batch run in NN layout.  ``buf`` holds m q_j^2 entries for any
    block.  numpy runs each V_j @ V_j.T, one buffer on both sides, as syrk.
    """
    m = ops[0].shape[0]
    for op, Rinv, Rinvt in zip(ops, Rinvs, Rinvts):
        q = Rinv.shape[0]
        V = buf[:m * q * q].reshape(m, q, q)
        step = max(1, _BATCH // (q * q))
        for lo in range(0, m, step):
            np.matmul(Rinv @ op[lo:lo + step], Rinvt, out=V[lo:lo + step])
        V = V.reshape(m, q * q)
        out += V @ V.T


def _eigenvalue_range(cone, M):
    """The least and the largest eigenvalue over the blocks of M, or None
    when M is not finite or LAPACK cannot compute its eigenvalues."""
    if not np.isfinite(M).all():
        return None
    lo, hi = np.inf, -np.inf
    for Mj in cone.views(M):
        w, _v, info = lapack.dsyevd(Mj, compute_v=0, lower=1)
        if info != 0:
            return None
        lo, hi = min(lo, w[0]), max(hi, w[-1])
    return lo, hi


def _least_eigenvalue(M):
    """The least eigenvalue of the symmetric M, read from its lower triangle;
    -inf, which passes no PSD test, when M is not finite or LAPACK cannot
    compute it."""
    if not np.isfinite(M).all():
        return -np.inf
    w, _v, info = lapack.dsyevd(M, compute_v=0, lower=1)
    return float(w[0]) if info == 0 else -np.inf


def _boundary_step(lam):
    """The step a to the PSD boundary, given the least eigenvalue lam of the
    scaled direction: infinite when lam >= 0, else 1 / -lam."""
    return np.inf if lam >= 0.0 else 1.0 / (-lam)


def _scaled_step(cone, hh, Ds, Dz):
    """Largest a with S + a dS and Z + a dZ both still PSD, in every block.

    With NT factors of (S_j, Z_j), R^-1 (S + a dS) R^-T = diag(sig) + a Ds
    and R^T (Z + a dZ) R = diag(sig) + a Dz, so the step follows from the
    eigenvalues of diag(sig)^-1/2 [Ds, Dz] diag(sig)^-1/2; ``hh`` holds
    sig_i^-1/2 sig_l^-1/2 at cell (i, l) of each block.  A direction that
    is not finite, or whose eigenvalues LAPACK cannot compute, gets step 0.
    """
    ranges = [_eigenvalue_range(cone, D * hh) for D in (Ds, Dz)]
    if None in ranges:
        return 0.0
    return _boundary_step(min(lo for lo, _hi in ranges))


def _predictor_step(cone, hh, Dz):
    """:func:`_scaled_step` along the predictor, from Dz alone.

    The predictor's Ds is -diag(sig) - Dz, so its scaled form is -I - M with
    M = hh Dz, whose least eigenvalue is -1 - lambda_max(M): one eigenvalue
    call per block bounds both sides of the step.
    """
    bounds = _eigenvalue_range(cone, Dz * hh)
    if bounds is None:
        return 0.0
    lo, hi = bounds
    return _boundary_step(min(lo, -1.0 - hi))


def _predictor_gap(sig, Ds, Dz, a):
    """sum_j <S_j + a dS_j, Z_j + a dZ_j> along the predictor.

    In the NT-scaled space S and Z are both diag(sig), and the pairing is
    invariant: <S, Z> = sig.sig, <dS, dZ> = <Ds, Dz>, and <S, dZ> + <dS, Z>
    = <diag(sig), Ds + Dz> = -sig.sig, as Ds + Dz = -diag(sig).
    """
    return (1.0 - a) * (sig @ sig) + a * a * (Ds @ Dz)


class _Cone:
    """The PSD blocks of a relaxation laid out as one flat vector.

    Block j, of side q_j, occupies ``spans[j]`` as its q_j x q_j matrix in
    row-major order.  ``T`` permutes the vector to the blocks' transposes,
    ``diag`` holds the positions of the diagonal cells, and ``row`` and
    ``col`` index cell (i, l) of block j into a vector of length ``dim``
    that concatenates one value per row of each block, such as the NT
    scaling's sigma.
    """

    def __init__(self, sides):
        self.sides = list(sides)
        starts = np.cumsum([0] + [q * q for q in self.sides])
        firsts = np.cumsum([0] + self.sides)
        self.size = int(starts[-1])
        self.dim = int(firsts[-1])
        self.starts = starts[:-1]
        self.spans = [slice(a, a + q * q) for a, q in zip(starts, self.sides)]
        T, diag, row, col = [], [], [], []
        for a, d, q in zip(starts, firsts, self.sides):
            cells = np.arange(q * q).reshape(q, q)
            T.append(a + cells.T.ravel())
            diag.append(a + np.arange(q) * (q + 1))
            row.append(d + cells.ravel() // q)
            col.append(d + cells.ravel() % q)
        self.T, self.diag, self.row, self.col = map(np.concatenate, (T, diag, row, col))
        self.eye = np.zeros(self.size)
        self.eye[self.diag] = 1.0
        _read_only(self.starts, self.T, self.diag, self.row, self.col, self.eye)

    def views(self, x):
        """Block j of the flat x as a q_j x q_j view."""
        return [x[s].reshape(q, q) for s, q in zip(self.spans, self.sides)]

    def flatten(self, mats):
        """The flat vector of block matrices, one per block."""
        return np.concatenate([np.ravel(M) for M in mats])

    def sym(self, x, out=None):
        """The symmetric part (X_j + X_j^T) / 2 of every block."""
        out = np.add(x, x[self.T], out=out)
        out /= 2.0
        return out

    def block_sums(self, x):
        """The sum of x over every block, each block summed on its own and
        the block sums added in block order."""
        return sum(np.sum(x[s]) for s in self.spans)


class _Flat:
    """A flat cone vector with its block views, made once."""

    def __init__(self, cone):
        self.x = np.empty(cone.size)
        self.blocks = cone.views(self.x)


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False


class _Workspace:
    """Problem data unpacked for the interior-point iteration and the check.

    Its arrays are read-only copies, a snapshot of the problem at first
    use: once it is made, neither the solver nor a write into the problem's
    own arrays alters what :func:`verify_solution` reads.  The sweep driver
    makes it before it calls its solver hook.  A problem whose data should
    change is a new problem (``dataclasses.replace``), with no workspace.
    """

    def __init__(self, problem):
        self.G = np.array(problem.eq_rows, dtype=float)
        self.b = np.array(problem.eq_rhs, dtype=float)
        self.c = np.array(problem.c, dtype=float)
        self.sign = -1.0 if problem.maximize else 1.0
        self.moment_bound = problem.moment_bound
        self.p, self.N = self.G.shape
        self.blocks = problem.blocks
        self.cone = _Cone(blk.side for blk in problem.blocks)
        # the blocks' stored entries as (row, column, value), concatenated
        # with each row moved to its cell of the flat cone vector: a bincount
        # over them sums in the order of the csr/csc products and skips their
        # per-call dispatch.  ``entry_spans[j]`` holds block j's entries.
        rows, cols, data = [], [], []
        for blk, start in zip(problem.blocks, self.cone.starts):
            mat = blk.matrix
            rows.append(start + np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr)))
            cols.append(mat.indices)
            data.append(mat.data)
        self.rows, self.cols, self.data = map(np.concatenate, (rows, cols, data))
        ends = np.cumsum([0] + [len(d) for d in data])
        self.entry_spans = [slice(a, e) for a, e in zip(ends[:-1], ends[1:])]
        self.normb = 1.0 + np.max(np.abs(self.b))
        self.normc = 1.0 + (np.max(np.abs(self.c)) if self.c.size else 0.0)
        scale = max(np.max(np.abs(self.G)) if self.G.size else 0.0,
                    max((np.abs(blk.matrix.data).max() if blk.matrix.nnz else 0.0)
                        for blk in problem.blocks))
        self.opscale = max(1.0, scale)
        _read_only(self.G, self.b, self.c, self.rows, self.cols, self.data)

    def apply(self, v):
        """block_j(v) for each block, as one flat cone vector."""
        return np.bincount(self.rows, weights=self.data * v[self.cols],
                           minlength=self.cone.size)

    def adjoint(self, x):
        """sum_j adj_j(X_j) of the flat cone vector x, summed in block order."""
        w = self.data * x[self.rows]
        out = np.zeros(self.N)
        for s in self.entry_spans:
            out += np.bincount(self.cols[s], weights=w[s], minlength=self.N)
        return out


def _workspace(problem):
    """The problem's :class:`_Workspace`, made on first use and kept on it."""
    if problem.workspace is None:
        problem.workspace = _Workspace(problem)
    return problem.workspace


def _equality_factors(ws, shared):
    """B, an orthonormal basis of the null space of G, (G^+)^T, and a Farkas
    combination mu of the rows of G, or None when G y = b is consistent.

    One pivoted QR factorization G^T P = Q [R_11 R_12; 0 R_22] gives all
    three.  Its rank r counts the |R_ll| above EQ_RANK_TOL |R_00|: the
    first r pivots are the kept rows, and every dropped row j is the
    combination W_j = (R_11^-1 R_12)_j of them, up to the neglected R_22.
    B is Q[:, r:], and (G^+)^T is R_11^-1 Q[:, :r]^T on the kept rows and
    zero on the dropped ones.  A dropped row whose b_j differs from
    W_j.b_kept gives mu = e_j - W_j on the kept rows, over that gap:
    b.mu = 1, and G^T mu is the neglected part of row j over the gap.  The
    one of least 1-norm, (1 + |W_j|_1) / |gap|, counts when its gap
    exceeds EQ_GAP_TOL (1 + |W_j|_1) max|b|.

    ``shared`` is the problem's ``eq_factors``: a dict that every
    relaxation of one order and sign invariance of a sweep holds
    (:mod:`momentsdp`), or None.  The first solve fills it, with the G it
    factored, and a later one reuses the factors only when its own G is
    equal.  Every factor is read-only, and B is copied out of Q, so that Q
    is freed.
    """
    if shared and np.array_equal(shared["G"], ws.G):
        return shared["B"], shared["pinv_t"], shared["farkas"]
    Q, R, piv = scipy.linalg.qr(ws.G.T, pivoting=True)
    diag = np.abs(np.diag(R))
    rank = int(np.sum(diag > EQ_RANK_TOL * diag[0])) if diag.size else 0
    kept, dropped = piv[:rank], piv[rank:]
    B = np.array(Q[:, rank:], order="F")
    pinv_t = np.zeros((ws.p, ws.N))
    pinv_t[kept] = scipy.linalg.solve_triangular(R[:rank, :rank], Q[:, :rank].T)
    W = scipy.linalg.solve_triangular(R[:rank, :rank], R[:rank, rank:])
    # the strength of each dropped row's certificate: 1 / ||mu||_1
    strength = np.abs(ws.b[dropped] - ws.b[kept] @ W) / (1.0 + np.abs(W).sum(axis=0))
    farkas = None
    if dropped.size and strength.max() > EQ_GAP_TOL * np.max(np.abs(ws.b)):
        j = np.argmax(strength)
        farkas = np.zeros(ws.p)
        farkas[dropped[j]] = 1.0
        farkas[kept] = -W[:, j]
        farkas /= ws.b @ farkas
        _read_only(farkas)
    _read_only(B, pinv_t)
    if shared is not None and not shared:
        shared.update(G=ws.G, B=B, pinv_t=pinv_t, farkas=farkas)
    return B, pinv_t, farkas


def solve(problem, options=None):
    """Solve a conic problem, returning a :class:`ConicSolution`.

    The reported objective is in the problem's stated sense (max problems
    report the maximum).  Statuses follow :class:`SolveStatus`; OPTIMAL and
    PRIMAL_INFEASIBLE satisfy the invariants checked by
    :func:`verify_solution`.  ``eq_duals`` is a least-squares solution mu
    of G^T mu = c - sum_j adj_j(Z_j) for the returned ``block_duals`` Z_j,
    zero on the rows of G that depend on the others, computed from the
    iterate as (G^+)^T (c - sum_j adj_j(Z_j)), with (G^+)^T from one
    pivoted QR factorization of G^T that the relaxations sharing the
    problem's ``eq_factors`` and its G share too.  When that factorization
    shows G y = b inconsistent, the result is PRIMAL_INFEASIBLE after no
    iteration, with the combination of rows it found as ``mu`` and every
    block of the certificate zero.
    """
    opts = options or SolverOptions()
    ws = _workspace(problem)
    cone = ws.cone

    # Every equality row is eliminated exactly: y starts at y0 with G y0 = b
    # and tau = 1, every step is dy = B z + dtau y0, so G y = b tau holds to
    # rounding at every iterate, and the multipliers are a least-squares
    # solution of the dual equation.
    B, pinv_t, farkas = _equality_factors(ws, problem.eq_factors)
    if farkas is not None:
        cert = {"mu": farkas.copy(), "blocks": [np.zeros((q, q)) for q in cone.sides]}
        return ConicSolution(status=SolveStatus.PRIMAL_INFEASIBLE, certificate=cert,
                             metrics={"iterations": 0, "reason": "inconsistent-equalities"})
    m = B.shape[1]
    y0 = pinv_t.T @ ws.b                                            # G y0 = b
    Btc = B.T @ ws.c
    # contiguous, so that the batched products below run as BLAS calls
    reduced_ops = [np.ascontiguousarray((blk.matrix @ B).T).reshape(m, q, q)
                   for blk, q in zip(ws.blocks, cone.sides)]
    # the scaled operators serve only the Schur matrix, so one buffer sized
    # for the largest block holds those of each block in turn
    scaled_buf = np.empty(m * max((q * q for q in cone.sides), default=0))
    y = y0.copy()
    S = cone.eye.copy()
    Z = cone.eye.copy()
    S_blocks, Z_blocks = cone.views(S), cone.views(Z)
    # Every congruence reads its blocks from, and writes them into, flat
    # buffers whose views are made once per solve: two for its results, E
    # and F for the step equations, y0's blocks, and Ds, Dz, dS and dZ for
    # each of the two directions alive at once.
    cong = [_Flat(cone) for _ in range(2)]
    E, F, mats0 = (_Flat(cone) for _ in range(3))
    mats0.x[:] = ws.apply(y0)
    slots = [[_Flat(cone) for _ in range(4)] for _ in range(2)]
    tau, kappa = 1.0, 1.0
    nu_den = cone.dim + 1.0

    best = None
    tiny_steps = 0
    steps = 0
    for it in range(opts.max_iter):
        # the multipliers: the dual equation's least-squares solution
        adj_Z = ws.adjoint(Z)
        mu = pinv_t @ (ws.c * tau - adj_Z)
        rp = ws.G @ y - ws.b * tau       # rounding only: the steps keep G y = b tau
        Rh = ws.apply(y) - S
        rd = ws.G.T @ mu + adj_Z - ws.c * tau
        rg = ws.c @ y - ws.b @ mu + kappa
        gap_cone = cone.block_sums(S * Z)
        nu = (gap_cone + tau * kappa) / nu_den

        pres = max(np.max(np.abs(rp)) / tau / ws.normb,
                   *(np.maximum.reduceat(np.abs(Rh), cone.starts) / tau /
                     (1.0 + np.maximum.reduceat(np.abs(S), cone.starts) / tau)))
        dres = np.max(np.abs(rd)) / tau / ws.normc
        pobj = ws.c @ y / tau
        dobj = ws.b @ mu / tau
        relgap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))

        metrics = {"iterations": it, "primal_residual": float(pres),
                   "dual_residual": float(dres), "gap": float(relgap),
                   "tau": float(tau), "kappa": float(kappa)}
        merit = max(pres, dres, relgap)
        if best is None or merit < best[0]:
            best = (merit, y.copy(), mu, Z.copy(), tau, metrics)

        if pres <= EPS_FEAS and dres <= EPS_FEAS and relgap <= EPS_GAP:
            return ConicSolution(
                status=SolveStatus.OPTIMAL, y=y / tau,
                objective=float(ws.sign * pobj),
                eq_duals=mu / tau, block_duals=[Zj / tau for Zj in Z_blocks],
                metrics=metrics)

        # residual blow-up past the best point means numerics are exhausted
        if merit > 1e3 * best[0] and best[0] < INACCURATE_TOL:
            break

        # infeasibility rays become visible as tau collapses against kappa
        collapsed = tau <= TAU_KAPPA_TOL * max(1.0, kappa)
        bmu = ws.b @ mu
        if collapsed and bmu > 0.0:
            cert_scale = np.linalg.norm(mu) + sum(np.linalg.norm(Z[s]) for s in cone.spans)
            farkas = np.max(np.abs(rd + ws.c * tau))     # G^T mu + adj(Z)
            if bmu > EPS_FEAS * cert_scale and \
                    farkas <= EPS_FEAS * ws.opscale * cert_scale:
                scale = 1.0 / bmu
                cert = {"mu": mu * scale, "blocks": [Zj * scale for Zj in Z_blocks]}
                metrics["reason"] = "tau-kappa-collapse"
                return ConicSolution(status=SolveStatus.PRIMAL_INFEASIBLE,
                                     certificate=cert, metrics=metrics)
        cy = ws.c @ y
        if collapsed and cy < 0.0 and cy < -EPS_FEAS * max(1.0, np.linalg.norm(y)):
            ray = y / (-cy)
            ray_scale = max(1.0, np.max(np.abs(ray)))
            ray_eq = np.max(np.abs(ws.G @ ray))
            ray_psd = min(_least_eigenvalue(M) for M in cone.views(ws.apply(ray)))
            if ray_eq <= EPS_FEAS * ws.opscale * ray_scale and \
                    ray_psd >= -EPS_FEAS * ray_scale:
                return ConicSolution(status=SolveStatus.DUAL_INFEASIBLE,
                                     certificate={"ray": ray}, metrics=metrics)

        # Nesterov-Todd scalings and the reduced system
        #   K = B^T Phi B + STATIC_REG I,
        # where Phi v = sum_j adj_j(W_j^-1 mat_j(v) W_j^-1), W_j^-1 = Rinv^T Rinv
        try:
            scalings = [_nt_scaling(Sj, Zj) for Sj, Zj in zip(S_blocks, Z_blocks)]
        except np.linalg.LinAlgError:
            break
        Rs = [R for R, _Rinv, _sig in scalings]
        Rinvs = [Rinv for _R, Rinv, _sig in scalings]
        # right-hand factors in NN layout; numpy runs Rinv.T @ Rinv as syrk,
        # so each W_j^-1 is exactly symmetric
        Rts = [np.ascontiguousarray(R.T) for R in Rs]
        Rinvts = [np.ascontiguousarray(Rinv.T) for Rinv in Rinvs]
        Wis = [Rinv.T @ Rinv for Rinv in Rinvs]
        sig = np.concatenate([s for _R, _Rinv, s in scalings])
        h = sig ** -0.5
        hh = h[cone.row] * h[cone.col]
        if m:        # else rank G = N: the equalities fix every step, and K is empty
            # column-major, so that getrf factors it in place
            K = np.zeros((m, m), order="F")
            _schur(reduced_ops, Rinvs, Rinvts, scaled_buf, K)
            K.flat[::m + 1] += STATIC_REG
            lu, piv, info = lapack.dgetrf(K, overwrite_a=1)
            if info != 0:    # an exactly zero pivot: treat as a failed factorization
                break

        def congruence(lefts, X, rights, out=cong[0]):
            """L_j X_j R_j for every block X_j of the buffer X, written into
            the buffer out, whose flat vector it returns."""
            for L, Xj, Rt, Oj in zip(lefts, X.blocks, rights, out.blocks):
                np.matmul(L @ Xj, Rt, out=Oj)
            return out.x

        def phi(X):
            """Phi v = sum_j adj_j(W_j^-1 mat_j(v) W_j^-1), given mat_j(v) in
            the buffer X."""
            return ws.adjoint(congruence(Wis, X, Wis))

        def null_step(q, Btq):
            """dy = B z with B^T (q + Phi dy) = 0, and y0.(q + Phi dy), given q
            and B^T q.

            B^T Phi B z = -B^T q is solved regularized as in K.  As G y0 = b
            and G^T dmu = q + Phi dy up to its null-space part, the second
            value is b.dmu.
            """
            z = -Btq          # empty when m = 0
            if m:
                z = lapack.dgetrs(lu, piv, z)[0]
            return B @ z, y0 @ q + phi0 @ z

        # the tau direction: dy_t = y0 + B z_t, with c and Phi y0 as its target
        phi_y0 = phi(mats0)
        phi0 = B.T @ phi_y0
        dy_t, b_dmu_t = null_step(ws.c + phi_y0, Btc + phi0)
        dy_t += y0
        denom = ws.c @ dy_t - b_dmu_t - kappa / tau

        def directions(t2, t3, t4, E, t6, out, scaled_only=False):
            """Solve the linearized step equations for general targets.

            G dy - b dtau = 0;  mat_j(dy) - dS_j = t2_j;
            G^T dmu + adj(dZ) - c dtau = t3;  c.dy - b.dmu + dkappa = t4;
            Rinv dS Rinv^T + R^T dZ R = E_j;  kappa dtau + tau dkappa = t6,
            where t2 is a flat cone vector and E a buffer, and dmu is free:
            only b.dmu = y0.(t3 + dtau c - adj(dZ)) enters.  Returns dy, dS,
            dZ, dtau, dkappa and the scaled directions Ds = Rinv dS Rinv^T and
            Dz = R^T dZ R of each block.  Ds, Dz, dS and dZ are written into
            the buffers ``out``.  With ``scaled_only`` it stops once Ds and Dz
            are formed, and returns dtau, dkappa, Ds and Dz.
            """
            Ds, Dz, dS, dZ = out
            np.add(congruence(Rs, E, Rts), t2, out=F.x)
            q1 = t3 - phi(F)
            dy_c, b_dmu_c = null_step(q1, B.T @ q1)
            dtau = (t4 - ws.c @ dy_c + b_dmu_c - t6 / tau) / denom
            dy = dy_c + dtau * dy_t
            dkappa = (t6 - kappa * dtau) / tau
            mats_dy = ws.apply(dy)
            np.subtract(F.x, mats_dy, out=F.x)
            cone.sym(congruence(Rinvs, F, Rinvts), out=Dz.x)
            np.subtract(E.x, Dz.x, out=Ds.x)
            if scaled_only:
                return dtau, dkappa, Ds.x, Dz.x
            cone.sym(congruence(Rinvts, Dz, Rinvs), out=dZ.x)
            cone.sym(mats_dy - t2, out=dS.x)
            return [dy, dS.x, dZ.x, dtau, dkappa, Ds.x, Dz.x]

        def refine(dirs, bufs, spare, t2, t3, t4, E, t6):
            """One pass of iterative refinement on the full step equations.

            ``bufs`` holds the buffers that :func:`directions` wrote ``dirs``
            into.  The correction is solved in the buffers ``spare``, and the
            buffer E is overwritten with its residual.  The dual equation's
            residual is its null-space part: dmu absorbs the rest.
            """
            dy, dS, dZ, dtau, dkappa = dirs[:5]
            g_dmu = t3 + ws.c * dtau - ws.adjoint(dZ)      # G^T dmu + e3
            e2 = t2 - (ws.apply(dy) - dS)
            e3 = B @ (B.T @ g_dmu)
            e4 = t4 - (ws.c @ dy - y0 @ g_dmu + dkappa)
            np.subtract(E.x, congruence(Rinvs, bufs[2], Rinvts, cong[0]) +
                        congruence(Rts, bufs[3], Rs, cong[1]), out=E.x)
            e6 = t6 - (kappa * dtau + tau * dkappa)
            corr = directions(e2, e3, e4, E, e6, spare)
            return [a + b for a, b in zip(dirs, corr)]

        def max_step(a, dtau, dkappa):
            """The cone's step a, shortened to keep tau and kappa nonnegative."""
            if dtau < 0.0:
                a = min(a, tau / (-dtau))
            if dkappa < 0.0:
                a = min(a, kappa / (-dkappa))
            return a

        t2, t3, t4 = -Rh, -rd, -rg

        # predictor: E_j = -diag(sig), so its step and its gap follow from the
        # scaled directions alone
        E.x.fill(0.0)
        E.x[cone.diag] = -sig
        dtau_a, dkappa_a, Ds_a, Dz_a = directions(t2, t3, t4, E, -tau * kappa, slots[0],
                                                  scaled_only=True)
        a_aff = min(1.0, max_step(_predictor_step(cone, hh, Dz_a), dtau_a, dkappa_a))
        gap_aff = _predictor_gap(sig, Ds_a, Dz_a, a_aff) + \
            (tau + a_aff * dtau_a) * (kappa + a_aff * dkappa_a)
        sigma = float(np.clip((max(gap_aff, 0.0) / (nu * nu_den)) ** 3, 1e-8, 0.999))

        # corrector: E_j = 2 (sigma nu I - diag(sig)^2 - (Ds Dz + Dz Ds) / 2)
        # divided cellwise by sig_i + sig_l, where Dz Ds = (Ds Dz)^T
        D = sigma * nu * cone.eye
        D[cone.diag] -= sig ** 2
        for Dsj, Dzj, Pj in zip(slots[0][0].blocks, slots[0][1].blocks, cong[0].blocks):
            np.matmul(Dsj, Dzj, out=Pj)
        np.divide(2.0 * (D - cone.sym(cong[0].x, out=cong[0].x)),
                  sig[cone.row] + sig[cone.col], out=E.x)
        d_tk = sigma * nu - tau * kappa - dtau_a * dkappa_a
        dirs = directions(t2, t3, t4, E, d_tk, slots[1])
        if merit < 1e-3 or nu < 1e-4:
            # cancellation in direction recovery only matters near the end
            # the predictor's buffers are free by now
            dirs = refine(dirs, slots[1], slots[0], t2, t3, t4, E, d_tk)
        dy, dS, dZ, dtau, dkappa, Ds, Dz = dirs

        alpha = STEP_FRAC * max_step(_scaled_step(cone, hh, Ds, Dz), dtau, dkappa)
        alpha = min(alpha, 1.0)
        if not np.isfinite(alpha) or alpha <= 0.0:
            break
        y += alpha * dy
        for X, dX in ((S, dS), (Z, dZ)):
            X += alpha * dX
            X += X[cone.T]
            X /= 2.0
        tau += alpha * dtau
        kappa += alpha * dkappa
        steps += 1
        tiny_steps = tiny_steps + 1 if alpha < 1e-4 else 0
        if tiny_steps >= 3:
            break

    # no convergence: classify the best iterate seen, counting every step run
    if best is None:
        return ConicSolution(status=SolveStatus.ITERATION_LIMIT,
                             metrics={"iterations": 0})
    merit, yb, mub, Zb, taub, metrics = best
    metrics = dict(metrics, iterations=steps, best_iteration=metrics["iterations"])
    status = SolveStatus.INACCURATE if merit <= INACCURATE_TOL \
        else SolveStatus.ITERATION_LIMIT
    yb = yb / taub
    return ConicSolution(status=status, y=yb, objective=float(ws.sign * (ws.c @ yb)),
                         eq_duals=mub / taub,
                         block_duals=[Zj / taub for Zj in cone.views(Zb)],
                         metrics=metrics)


def _well_formed(ws, sol):
    """Whether sol is a ConicSolution holding every array its check reads, each
    shaped as the problem's."""
    def shaped(a, *shape):
        return isinstance(a, np.ndarray) and a.dtype.kind in "iuf" and a.shape == shape

    if not isinstance(sol, ConicSolution) or not isinstance(sol.status, SolveStatus):
        return False
    if sol.status is SolveStatus.PRIMAL_INFEASIBLE:
        cert = sol.certificate if isinstance(sol.certificate, dict) else {}
        mu, Zs = cert.get("mu"), cert.get("blocks")
    elif shaped(sol.y, ws.N):
        mu, Zs = sol.eq_duals, sol.block_duals
    else:
        return False
    sides = ws.cone.sides
    return shaped(mu, ws.p) and isinstance(Zs, (list, tuple)) and \
        len(Zs) == len(sides) and all(shaped(Z, q, q) for Z, q in zip(Zs, sides))


def verify_solution(problem, sol):
    """Recompute from the problem data what a result proves.

    Returns a dict of named boolean checks plus measured values, all plain
    Python bools, floats and strings; ``ok`` aggregates the checks.  A
    PRIMAL_INFEASIBLE result is checked as a dual ray (mu, Z_j): it passes
    only when b.mu exceeds the slack of the module docstring, which proves
    the relaxation infeasible.  Any other result is checked as a
    primal-dual pair (y, mu, Z_j): it passes when y satisfies the
    equalities within VERIFY_FEAS and its blocks are PSD within VERIFY_PSD,
    and ``bound`` reports the bound on the relaxation's optimum that
    (mu, Z_j) proves, whatever their quality: b.mu minus the slack for a
    minimization, negated for a maximization, and infinite when the
    problem has no moment bound.  A result missing an array, or holding
    one of the wrong shape, fails ``well_formed``, as does anything but a
    ConicSolution with a SolveStatus; a result holding a value that is
    not finite fails ``finite``.  Either failure ends the check.
    ``status`` is the status value, or "malformed" when there is none.
    """
    ws = _workspace(problem)
    checks = {"well_formed": _well_formed(ws, sol)}
    status = getattr(sol, "status", None)
    report = {"status": status.value if isinstance(status, SolveStatus) else "malformed",
              "checks": checks}
    if checks["well_formed"] and sol.status is SolveStatus.PRIMAL_INFEASIBLE:
        _verify_ray(ws, sol.certificate["mu"], ws.cone.flatten(sol.certificate["blocks"]),
                    checks, report)
    elif checks["well_formed"]:
        _verify_pair(ws, sol.y, sol.eq_duals, ws.cone.flatten(sol.block_duals),
                     checks, report)
    report["ok"] = all(checks.values())
    return report


def _slack(ws, mu, Z, c=0.0):
    """Upper bound on y.r - sum_j <Z_j, block_j(y)> over every feasible y,
    r = c - G^T mu - sum_j adj_j(Z_j), for the r that floating point computes.

    Returns the slack Y (||r||_1 + rho + sum_j lambda^-(Z_j) T_j) and its
    part Y rho, with Y = moment_bound + MOMENT_MARGIN, lambda^- the
    negative part of the least eigenvalue of Z_j's symmetric part (the part
    the pairing reads) and T_j the sum of |coefficients| on block j's
    diagonal cells; the slack is infinite when the problem has no moment
    bound (module docstring).  rho bounds the rounding of r: a term that
    passes k roundings is off by at most gamma_k = k u / (1 - k u) times its
    magnitude, u the unit roundoff, and component i's terms pass 2 (c_i),
    n_G + 2 (the products G_li mu_l) and n_A + 2 (the adjoint's products),
    where n_G and n_A count the nonzero coefficients in column i of G and
    of the blocks.  Z is a flat cone vector.
    """
    if ws.moment_bound is None:
        return np.inf, np.inf
    cone = ws.cone
    r = c - ws.G.T @ mu - ws.adjoint(Z)
    u = np.finfo(float).eps / 2.0

    def gamma(k):
        return k * u / (1.0 - k * u)

    rounding = gamma(2) * np.sum(np.abs(c)) + \
        gamma(np.count_nonzero(ws.G, axis=0) + 2) @ (np.abs(ws.G).T @ np.abs(mu)) + \
        gamma(np.bincount(ws.cols, minlength=ws.N) + 2) @ \
        np.bincount(ws.cols, weights=np.abs(ws.data * Z[ws.rows]), minlength=ws.N)
    on_diagonal = np.zeros(cone.size, dtype=bool)
    on_diagonal[cone.diag] = True
    on_diagonal = on_diagonal[ws.rows]
    total = np.sum(np.abs(r)) + rounding
    for s, Zj in zip(ws.entry_spans, cone.views(cone.sym(Z))):
        diagonal = np.sum(np.abs(ws.data[s][on_diagonal[s]]))
        total += max(0.0, -_least_eigenvalue(Zj)) * diagonal
    Y = ws.moment_bound + MOMENT_MARGIN
    return float(Y * total), float(Y * rounding)


def _verify_pair(ws, y, mu, Z, checks, report):
    """Feasibility of y, and the bound that (mu, Z_j) proves."""
    mats = ws.apply(y)
    checks["finite"] = all(np.isfinite(a).all() for a in [y, mats, mu, Z])
    if not checks["finite"]:
        return
    eq_res = float(np.max(np.abs(ws.G @ y - ws.b))) if ws.p else 0.0
    checks["equalities"] = bool(eq_res <= VERIFY_FEAS * ws.normb)
    report["eq_residual"] = eq_res
    min_eigs = [_least_eigenvalue(M) for M in ws.cone.views(mats)]
    report["block_min_eigs"] = min_eigs
    checks["psd"] = all(e >= -VERIFY_PSD for e in min_eigs)
    report["bound"] = float(ws.sign * (ws.b @ mu - _slack(ws, mu, Z, ws.c)[0]))


def _verify_ray(ws, mu, Z, checks, report):
    """Whether the dual ray (mu, Z_j) proves the relaxation infeasible."""
    checks["finite"] = all(np.isfinite(a).all() for a in [mu, Z])
    if not checks["finite"]:
        return
    report["farkas_bmu"] = float(ws.b @ mu)
    report["slack"], report["rounding"] = _slack(ws, mu, Z)
    checks["proven"] = report["farkas_bmu"] > report["slack"]
