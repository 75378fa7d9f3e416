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

Each solve factors the equality rows once.  The rows that touch no moment
of the top degree 2k are eliminated exactly: a QR factorization of their
transpose gives an orthonormal basis B of their null space, every step in
y is a fixed particular solution plus B z, and the Schur matrix is
assembled for z only, from each block's operator projected onto B.  The
remaining rows, those that pin top-degree moments, stay as constraints
with their multipliers.  The reduced system in (z, dmu of those rows) is
LU-factorized densely with static regularization on its diagonal, which
one step of iterative refinement takes back out of each solution
(without it, the reduced and full relaxations of ex51 H end 4.8e-7
apart).  The multipliers of the eliminated rows are recovered through
the triangular QR factor, from the dual equation and the direction's dZ.
Every product with Phi v = sum_j adj_j(W_j^-1 mat_j(v) W_j^-1), W_j the
NT scaling of block j, is one adjoint through W_j^-1, formed once per
iteration; the scaled projected operators serve only to assemble the
Schur matrix B^T Phi B, one block at a time in one buffer.  Step lengths
come from the NT-scaled directions Rinv dS Rinv^T and R^T dZ R, which the
step equations already form: one symmetric eigenvalue call per scaled
matrix, with no factorization of S or Z.  A direction that is not finite
gets step 0, which ends the solve with its best iterate.  The top-degree
moments are the problem's ``top_degree`` variables, so a relaxation over
part of the moments needs no branch here.  Nor does one whose blocks are
split by degree parity (see :mod:`momentsdp`): the solver sees more,
smaller blocks, each with its own NT scaling, and a block-diagonal matrix
is PSD exactly when each of its diagonal blocks is, so
:func:`verify_solution` checks the same conditions part by part.  The
scaling of the projected operators and the Schur products cost in
proportion to the sum of the squared block sides: 50² + 34² = 3656 for
the parts of ex56 H's moment block at k = 6, against 84² = 7056 whole.

The relaxations are small (a few dozen moments on n = 2 tensors), so the
iteration is bound by per-call overhead rather than arithmetic.  Each
block operator is applied, and its adjoint taken, as one ``np.bincount``
over the block's stored (row, column, value) entries, which sums in the
order of the sparse matrix products; the NT factors and the step lengths
call LAPACK (potrf, gesdd, syevd) directly, without the ``np.linalg``
wrappers.

A solve that ends without converging returns its best iterate, with
``iterations`` the steps it ran and ``best_iteration`` the step count at
that iterate.

The iteration's tolerances are module constants: EPS_FEAS and EPS_GAP
define an optimum, TAU_KAPPA_TOL an infeasibility ray, STATIC_REG
regularizes the reduced system, STEP_FRAC damps each step, and
INACCURATE_TOL separates an INACCURATE best iterate from an
ITERATION_LIMIT one.  :func:`verify_solution` checks with VERIFY_FEAS and
VERIFY_PSD.  :class:`SolverOptions` holds only the iteration budget
``max_iter``.

Primal infeasibility is certified, never guessed, by one rule: a dual
ray is returned only once tau has collapsed against kappa, with
G^T mu + sum_j adj_j(Z_j) within EPS_FEAS of zero relative to the ray's
norm.  Scaled to b.mu = 1, it satisfies G^T mu + sum_j adj_j(Z_j) = 0,
Z_j PSD, b.mu > 0, which is checkable from the problem data alone.

A status is advice, not proof.  :func:`verify_solution` reads it only to
choose the check: a PRIMAL_INFEASIBLE result is checked as a dual ray,
any other as a primal-dual pair (y, mu, Z_j).  It never reads a result's
objective or metrics, and fails, rather than raising on, a result whose
arrays are missing or do not match the problem's shapes.
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
STATIC_REG = 1e-10       # diagonal regularization of the reduced system
STEP_FRAC = 0.98         # fraction of the step to the cone boundary taken
INACCURATE_TOL = 1e-4    # merit of a best iterate still reported INACCURATE
VERIFY_FEAS = 1e-6       # verify_solution's feasibility tolerance
VERIFY_PSD = 1e-7        # verify_solution's eigenvalue tolerance


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


def _scaled_step(sig, Ds, Dz):
    """Largest a with S + a dS and Z + a dZ both still PSD.

    With NT factors of (S, Z), R^-1 (S + a dS) R^-T = diag(sig) + a Ds and
    R^T (Z + a dZ) R = diag(sig) + a Dz, so the step follows from the
    eigenvalues of diag(sig)^-1/2 [Ds, Dz] diag(sig)^-1/2.  A direction
    that is not finite, or whose eigenvalues LAPACK cannot compute, gets
    step 0.
    """
    h = sig ** -0.5
    hh = np.outer(h, h)
    lam = np.inf
    for D in (Ds, Dz):
        M = D * hh
        if not np.isfinite(M).all():
            return 0.0
        w, _v, info = lapack.dsyevd(M, compute_v=0, lower=1)
        if info != 0:
            return 0.0
        lam = min(lam, w[0])
    if lam >= 0.0:
        return np.inf
    return 1.0 / (-lam)


class _Workspace:
    """Problem data unpacked for the interior-point iteration."""

    def __init__(self, problem):
        self.G = np.asarray(problem.eq_rows, dtype=float)
        self.b = np.asarray(problem.eq_rhs, dtype=float)
        self.c = np.asarray(problem.c, dtype=float)
        self.p, self.N = self.G.shape
        self.blocks = problem.blocks
        self.sides = [blk.side for blk in problem.blocks]
        # each block's stored entries as (row, column, value), taken once: a
        # bincount over them sums in the order of the csr/csc products and
        # skips their per-call dispatch
        self.entries = []
        for blk in problem.blocks:
            mat = blk.matrix
            rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
            self.entries.append((rows, mat.indices, mat.data))
        self.cone_dim = sum(self.sides)
        self.normb = 1.0 + np.max(np.abs(self.b))
        self.normc = 1.0 + (np.max(np.abs(self.c)) if self.c.size else 0.0)
        scale = max(np.max(np.abs(self.G)) if self.G.size else 0.0,
                    max((np.abs(blk.matrix.data).max() if blk.matrix.nnz else 0.0)
                        for blk in problem.blocks))
        self.opscale = max(1.0, scale)

    def apply(self, v):
        """block_j(v) for each block."""
        return [np.bincount(rows, weights=data * v[cols], minlength=q * q).reshape(q, q)
                for (rows, cols, data), q in zip(self.entries, self.sides)]

    def adjoint(self, Xs):
        """sum_j adj_j(X_j), mapping block matrices back to y-space."""
        out = np.zeros(self.N)
        for (rows, cols, data), X in zip(self.entries, Xs):
            out += np.bincount(cols, weights=data * X.ravel()[rows], minlength=self.N)
        return out


def solve(problem, options=None):
    """Solve a conic problem, returning a :class:`ConicSolution`.

    The reported objective is in the problem's stated sense (max problems
    report the maximum).  Statuses follow :class:`SolveStatus`; OPTIMAL and
    PRIMAL_INFEASIBLE satisfy the invariants checked by
    :func:`verify_solution`.
    """
    opts = options or SolverOptions()
    ws = _Workspace(problem)

    if problem.farkas_mu is not None:
        cert = {"mu": problem.farkas_mu.copy(),
                "blocks": [np.zeros((q, q)) for q in ws.sides]}
        return ConicSolution(status=SolveStatus.PRIMAL_INFEASIBLE, certificate=cert,
                             metrics={"iterations": 0, "reason": "inconsistent-equalities"})

    N, p = ws.N, ws.p
    # Equality rows that touch no moment of the top degree 2k are eliminated
    # exactly: with G_h^T = [Q_h B] [R_h; 0], every step is dy = y_p + B z
    # where G_h y_p is fixed.  The rows that do touch one stay as constraints
    # whose multipliers carry STATIC_REG; at a rank-deficient optimum they
    # pin the moments the relaxation leaves free, and eliminating them too
    # stalls the iteration on ill-posed relaxations (ex55 H, k = 5).
    soft = np.any(ws.G[:, problem.top_degree] != 0, axis=1)
    hard = ~soft
    G_s = ws.G[soft]
    ph = p - G_s.shape[0]
    Q, R_h = scipy.linalg.qr(ws.G[hard].T)
    B = Q[:, ph:]
    m = N - ph
    pinv_t = scipy.linalg.solve_triangular(R_h[:ph], Q[:, :ph].T)   # (G_h^+)^T
    GsB = G_s @ B
    y0 = pinv_t.T @ ws.b[hard]                                      # G_h y0 = b_h
    b_s = ws.b[soft]
    b_dmu_s = b_s - G_s @ y0     # b.dmu = y0.(q1 + Phi dy) + b_dmu_s.dmu_s
    mats0 = ws.apply(y0)
    # contiguous, so that the batched products below run as BLAS calls
    reduced_ops = [np.ascontiguousarray((blk.matrix @ B).T).reshape(m, q, q)
                   for blk, q in zip(ws.blocks, ws.sides)]
    # the scaled operators serve only the Schur matrix, so one buffer sized
    # for the largest block holds those of each block in turn
    scaled_buf = np.empty(m * max((q * q for q in ws.sides), default=0))
    y = np.zeros(N)
    mu = np.zeros(p)
    S = [np.eye(q) for q in ws.sides]
    Z = [np.eye(q) for q in ws.sides]
    tau, kappa = 1.0, 1.0
    nu_den = ws.cone_dim + 1.0
    sign = -1.0 if problem.maximize else 1.0

    best = None
    tiny_steps = 0
    steps = 0
    for it in range(opts.max_iter):
        rp = ws.G @ y - ws.b * tau
        mats_y = ws.apply(y)
        Rh = [My - Sj for My, Sj in zip(mats_y, S)]
        rd = ws.G.T @ mu + ws.adjoint(Z) - ws.c * tau
        rg = ws.c @ y - ws.b @ mu + kappa
        gap_cone = sum(np.sum(Sj * Zj) for Sj, Zj in zip(S, Z))
        nu = (gap_cone + tau * kappa) / nu_den

        pres = np.max(np.abs(rp)) / tau / ws.normb
        for Rhj, Sj in zip(Rh, S):
            pres = max(pres, np.max(np.abs(Rhj)) / tau /
                       (1.0 + np.max(np.abs(Sj)) / tau))
        dres = np.max(np.abs(rd)) / tau / ws.normc
        pobj = ws.c @ y / tau
        dobj = ws.b @ mu / tau
        relgap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))

        metrics = {"iterations": it, "primal_residual": float(pres),
                   "dual_residual": float(dres), "gap": float(relgap),
                   "tau": float(tau), "kappa": float(kappa)}
        merit = max(pres, dres, relgap)
        if best is None or merit < best[0]:
            best = (merit, y / tau, mu / tau, [Zj / tau for Zj in Z], metrics)

        if pres <= EPS_FEAS and dres <= EPS_FEAS and relgap <= EPS_GAP:
            return ConicSolution(
                status=SolveStatus.OPTIMAL, y=y / tau,
                objective=float(sign * pobj),
                eq_duals=mu / tau, block_duals=[Zj / tau for Zj in Z],
                metrics=metrics)

        # residual blow-up past the best point means numerics are exhausted
        if merit > 1e3 * best[0] and best[0] < INACCURATE_TOL:
            break

        # infeasibility rays become visible as tau collapses against kappa
        bmu = ws.b @ mu
        cert_scale = np.linalg.norm(mu) + sum(np.linalg.norm(Zj) for Zj in Z)
        if bmu > EPS_FEAS * cert_scale:
            farkas = np.max(np.abs(rd + ws.c * tau))     # G^T mu + adj(Z)
            if tau <= TAU_KAPPA_TOL * max(1.0, kappa) and \
                    farkas <= EPS_FEAS * ws.opscale * cert_scale:
                scale = 1.0 / bmu
                cert = {"mu": mu * scale, "blocks": [Zj * scale for Zj in Z]}
                metrics["reason"] = "tau-kappa-collapse"
                return ConicSolution(status=SolveStatus.PRIMAL_INFEASIBLE,
                                     certificate=cert, metrics=metrics)
        cy = ws.c @ y
        if cy < -EPS_FEAS * max(1.0, np.linalg.norm(y)) and \
                tau <= TAU_KAPPA_TOL * max(1.0, kappa):
            ray = y / (-cy)
            ray_scale = max(1.0, np.max(np.abs(ray)))
            ray_eq = np.max(np.abs(ws.G @ ray))
            ray_psd = min(scipy.linalg.eigvalsh(M)[0] for M in ws.apply(ray))
            if ray_eq <= EPS_FEAS * ws.opscale * ray_scale and \
                    ray_psd >= -EPS_FEAS * ray_scale:
                return ConicSolution(status=SolveStatus.DUAL_INFEASIBLE,
                                     certificate={"ray": ray}, metrics=metrics)

        # Nesterov-Todd scalings and the reduced system
        #   K = [[B^T Phi B, -(G_s B)^T], [G_s B, 0]] + STATIC_REG I,
        # where Phi v = sum_j adj_j(W_j^-1 mat_j(v) W_j^-1), W_j^-1 = Rinv^T Rinv
        try:
            scalings = [_nt_scaling(Sj, Zj) for Sj, Zj in zip(S, Z)]
        except np.linalg.LinAlgError:
            break
        Wis = [Rinv.T @ Rinv for (R, Rinv, sig) in scalings]
        K = np.zeros((m + p - ph, m + p - ph))
        for (R, Rinv, sig), ops, q in zip(scalings, reduced_ops, ws.sides):
            # row l of V is vec(Rinv mat_j(B e_l) Rinv^T), so B^T Phi B = sum_j V V^T
            V = scaled_buf[:m * q * q].reshape(m, q, q)
            step = max(1, _BATCH // (q * q))
            for lo in range(0, m, step):
                np.matmul(Rinv @ ops[lo:lo + step], Rinv.T, out=V[lo:lo + step])
            V = V.reshape(m, q * q)
            K[:m, :m] += V @ V.T
        K[:m, m:] = -GsB.T
        K[m:, :m] = GsB
        K.flat[::K.shape[0] + 1] += STATIC_REG
        lu, piv, info = lapack.dgetrf(K)
        if info != 0:        # an exactly zero pivot: treat as a failed factorization
            break

        def phi(mats):
            """Phi v = sum_j adj_j(W_j^-1 mat_j(v) W_j^-1), given mat_j(v)."""
            return ws.adjoint([Wi @ M @ Wi for Wi, M in zip(Wis, mats)])

        def as_part(y_p, mats_p, t1_s):
            """The particular step y_p as null_step takes it: with B^T Phi y_p
            and y0.Phi y_p, given its block matrices mats_p."""
            phi_p = phi(mats_p)
            return y_p, B.T @ phi_p, y0 @ phi_p, t1_s

        def particular(t1):
            """The minimum-norm y_p with G_h y_p = t1_h, reduced, with t1_s."""
            y_p = pinv_t.T @ t1[hard]
            return as_part(y_p, ws.apply(y_p), t1[soft])

        def null_step(q1, part):
            """dy = y_p + B z, dmu_s and b.dmu from the reduced system.

            B^T (Phi dy - G_s^T dmu_s) = -B^T q1 and G_s dy = t1_s, each row
            regularized as in K; one refinement step takes out STATIC_REG.
            Then G_h^T dmu_h = q1 + Phi dy - G_s^T dmu_s, and as G_h y0 = b_h,
            b_h.dmu_h = y0.(q1 + Phi dy - G_s^T dmu_s).
            """
            y_p, phi_p, y0_phi_p, t1_s = part
            rhs = np.concatenate([-(B.T @ q1) - phi_p, t1_s - G_s @ y_p])
            u = lapack.dgetrs(lu, piv, rhs)[0]
            # needed: without it STATIC_REG biases each step (ex51 H's reduced and
            # full relaxations end 4.8e-7 apart, a reduced ex55 H one INACCURATE)
            u += lapack.dgetrs(lu, piv, rhs - K @ u + STATIC_REG * u)[0]
            z, dmu_s = u[:m], u[m:]
            b_dmu = y0 @ q1 + y0_phi_p + phi0 @ z + b_dmu_s @ dmu_s
            return y_p + B @ z, dmu_s, b_dmu

        # the tau direction: targets c and b in place of q1 and t1
        part0 = as_part(y0, mats0, b_s)
        phi0 = part0[1]
        dy_t, dmu_s_t, b_dmu_t = null_step(ws.c, part0)
        denom = ws.c @ dy_t - b_dmu_t - kappa / tau

        def directions(part, t2s, t3, t4, Es, t6, with_mu=True):
            """Solve the linearized step equations for general targets.

            G dy - b dtau = t1;  mat_j(dy) - dS_j = t2_j;
            G^T dmu + adj(dZ) - c dtau = t3;  c.dy - b.dmu + dkappa = t4;
            Rinv dS Rinv^T + R^T dZ R = E_j;  kappa dtau + tau dkappa = t6,
            where ``part`` is :func:`particular` of t1.  Without ``with_mu``,
            dmu is left as None.  Also returns the scaled directions
            Ds = Rinv dS Rinv^T and Dz = R^T dZ R of each block.
            """
            Fs = [R @ E @ R.T + t2 for (R, Rinv, sig), E, t2 in zip(scalings, Es, t2s)]
            q1 = t3 - phi(Fs)
            dy_c, dmu_s_c, b_dmu_c = null_step(q1, part)
            dtau = (t4 - ws.c @ dy_c + b_dmu_c - t6 / tau) / denom
            dy = dy_c + dtau * dy_t
            dkappa = (t6 - kappa * dtau) / tau
            mats_dy = ws.apply(dy)
            dS, dZ, Ds, Dz = [], [], [], []
            for (R, Rinv, sig), F, Mdy, t2, E in zip(scalings, Fs, mats_dy, t2s, Es):
                Dzj = Rinv @ (F - Mdy) @ Rinv.T
                Dzj = (Dzj + Dzj.T) / 2.0
                Dz.append(Dzj)
                Ds.append(E - Dzj)
                dZj = Rinv.T @ Dzj @ Rinv
                dZ.append((dZj + dZj.T) / 2.0)
                dSj = Mdy - t2
                dS.append((dSj + dSj.T) / 2.0)
            dmu = None
            if with_mu:
                dmu = np.empty(p)
                dmu[soft] = dmu_s_c + dtau * dmu_s_t
                # the dual equation; adj reads only dZ's symmetric part
                dmu[hard] = pinv_t @ (t3 + dtau * ws.c - ws.adjoint(dZ) - G_s.T @ dmu[soft])
            return [dy, dmu, dS, dZ, dtau, dkappa, Ds, Dz]

        def refine(dirs, t1, t2s, t3, t4, Es, t6):
            """One pass of iterative refinement on the full step equations."""
            dy, dmu, dS, dZ, dtau, dkappa, Ds, Dz = dirs
            e1 = t1 - (ws.G @ dy - ws.b * dtau)
            mats_dy = ws.apply(dy)
            e2s = [t2 - (Mdy - dSj) for t2, Mdy, dSj in zip(t2s, mats_dy, dS)]
            e3 = t3 - (ws.G.T @ dmu + ws.adjoint(dZ) - ws.c * dtau)
            e4 = t4 - (ws.c @ dy - ws.b @ dmu + dkappa)
            eEs = []
            for (R, Rinv, sig), dSj, dZj, E in zip(scalings, dS, dZ, Es):
                got = Rinv @ dSj @ Rinv.T + R.T @ dZj @ R
                eEs.append(E - got)
            e6 = t6 - (kappa * dtau + tau * dkappa)
            corr = directions(particular(e1), e2s, e3, e4, eEs, e6)
            return [
                dy + corr[0], dmu + corr[1],
                [a + b for a, b in zip(dS, corr[2])],
                [a + b for a, b in zip(dZ, corr[3])],
                dtau + corr[4], dkappa + corr[5],
                [a + b for a, b in zip(Ds, corr[6])],
                [a + b for a, b in zip(Dz, corr[7])],
            ]

        def max_step(Ds, Dz, dtau, dkappa):
            a = min((_scaled_step(sig, Dsj, Dzj) for (_R, _Ri, sig), Dsj, Dzj
                     in zip(scalings, Ds, Dz)), default=np.inf)
            if dtau < 0.0:
                a = min(a, tau / (-dtau))
            if dkappa < 0.0:
                a = min(a, kappa / (-dkappa))
            return a

        t1, t3, t4 = -rp, -rd, -rg
        t2s = [-Rhj for Rhj in Rh]

        part = particular(t1)

        # predictor
        E_aff = [np.diag(-sig) for (_R, _Ri, sig) in scalings]
        aff = directions(part, t2s, t3, t4, E_aff, -tau * kappa, with_mu=False)
        a_aff = min(1.0, max_step(aff[6], aff[7], aff[4], aff[5]))
        gap_aff = sum(np.sum((Sj + a_aff * dSj) * (Zj + a_aff * dZj))
                      for Sj, dSj, Zj, dZj in zip(S, aff[2], Z, aff[3]))
        gap_aff += (tau + a_aff * aff[4]) * (kappa + a_aff * aff[5])
        sigma = float(np.clip((max(gap_aff, 0.0) / (nu * nu_den)) ** 3, 1e-8, 0.999))

        # corrector
        Es = []
        for (R, Rinv, sig), Dsj, Dzj in zip(scalings, aff[6], aff[7]):
            D = sigma * nu * np.eye(len(sig)) - np.diag(sig ** 2) \
                - (Dsj @ Dzj + Dzj @ Dsj) / 2.0
            Es.append(2.0 * D / np.add.outer(sig, sig))
        d_tk = sigma * nu - tau * kappa - aff[4] * aff[5]
        dirs = directions(part, t2s, t3, t4, Es, d_tk)
        if merit < 1e-3 or nu < 1e-4:
            # cancellation in direction recovery only matters near the end
            dirs = refine(dirs, t1, t2s, t3, t4, Es, d_tk)
        dy, dmu, dS, dZ, dtau, dkappa, Ds, Dz = dirs

        alpha = STEP_FRAC * max_step(Ds, Dz, dtau, dkappa)
        alpha = min(alpha, 1.0)
        if not np.isfinite(alpha) or alpha <= 0.0:
            break
        y += alpha * dy
        mu += alpha * dmu
        for j in range(len(S)):
            S[j] = S[j] + alpha * dS[j]
            S[j] = (S[j] + S[j].T) / 2.0
            Z[j] = Z[j] + alpha * dZ[j]
            Z[j] = (Z[j] + Z[j].T) / 2.0
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
    merit, yb, mub, Zb, metrics = best
    metrics = dict(metrics, iterations=steps, best_iteration=metrics["iterations"])
    status = SolveStatus.INACCURATE if merit <= INACCURATE_TOL \
        else SolveStatus.ITERATION_LIMIT
    return ConicSolution(status=status, y=yb, objective=float(sign * (ws.c @ yb)),
                         eq_duals=mub, block_duals=Zb, metrics=metrics)


def _well_formed(ws, sol):
    """Whether sol holds every array its check reads, each shaped as the problem's."""
    def shaped(a, *shape):
        return isinstance(a, np.ndarray) and a.dtype.kind in "iuf" and a.shape == shape

    if sol.status is SolveStatus.PRIMAL_INFEASIBLE:
        cert = sol.certificate if isinstance(sol.certificate, dict) else {}
        mu, Zs = cert.get("mu"), cert.get("blocks")
    elif shaped(sol.y, ws.N):
        mu, Zs = sol.eq_duals, sol.block_duals
    else:
        return False
    return shaped(mu, ws.p) and isinstance(Zs, (list, tuple)) and \
        len(Zs) == len(ws.sides) and all(shaped(Z, q, q) for Z, q in zip(Zs, ws.sides))


def verify_solution(problem, sol):
    """Recompute residuals and certificate conditions from the problem data.

    Returns a dict of named boolean checks plus measured values; ``ok``
    aggregates them.  Callers should trust a result only after this
    passes.  A PRIMAL_INFEASIBLE result is checked as a dual ray, any
    other as a primal-dual pair: it passes only when y and the duals are
    feasible and the duality gap c.y - b.mu is within the tolerance on
    either side, so a feasible but suboptimal y fails.  A result missing
    an array, or holding one of the wrong shape, fails ``well_formed``;
    one holding a value that is not finite fails ``finite``.  Either
    failure ends the check.
    """
    ws = _Workspace(problem)
    checks = {"well_formed": _well_formed(ws, sol)}
    report = {"status": sol.status.value, "checks": checks}
    if checks["well_formed"] and sol.status is SolveStatus.PRIMAL_INFEASIBLE:
        _verify_ray(ws, sol.certificate["mu"], sol.certificate["blocks"], checks, report)
    elif checks["well_formed"]:
        _verify_pair(ws, sol.y, sol.eq_duals, sol.block_duals, checks, report)
    report["ok"] = all(checks.values())
    return report


def _verify_pair(ws, y, mu, Zs, checks, report):
    """Primal and dual feasibility of (y, mu, Z_j) and their duality gap."""
    mats = ws.apply(y)
    checks["finite"] = all(np.isfinite(a).all() for a in [y, *mats, mu, *Zs])
    if not checks["finite"]:
        return
    eq_res = np.max(np.abs(ws.G @ y - ws.b)) if ws.p else 0.0
    checks["equalities"] = eq_res <= VERIFY_FEAS * ws.normb
    report["eq_residual"] = float(eq_res)
    min_eigs = [float(scipy.linalg.eigvalsh(M)[0]) for M in mats]
    report["block_min_eigs"] = min_eigs
    checks["psd"] = all(e >= -VERIFY_PSD for e in min_eigs)
    dres = np.max(np.abs(ws.G.T @ mu + ws.adjoint(Zs) - ws.c))
    report["dual_residual"] = float(dres)
    checks["dual_feasibility"] = dres <= VERIFY_FEAS * ws.normc * 10
    pobj = ws.c @ y
    dobj = ws.b @ mu
    report["gap"] = float(abs(pobj - dobj))
    tol = VERIFY_FEAS * (1.0 + abs(pobj)) * 10
    checks["weak_duality"] = dobj <= pobj + tol
    checks["duality_gap"] = pobj - dobj <= tol


def _verify_ray(ws, mu, Zs, checks, report):
    """The Farkas conditions on the dual ray (mu, Z_j)."""
    checks["finite"] = all(np.isfinite(a).all() for a in [mu, *Zs])
    if not checks["finite"]:
        return
    nrm = np.linalg.norm(mu) + sum(np.linalg.norm(Zj) for Zj in Zs)
    resid = np.max(np.abs(ws.G.T @ mu + ws.adjoint(Zs)))
    bmu = ws.b @ mu
    min_eigs = [float(scipy.linalg.eigvalsh(Zj)[0]) if Zj.size else 0.0
                for Zj in Zs]
    report["farkas_residual"] = float(resid)
    report["farkas_bmu"] = float(bmu)
    report["farkas_block_min_eigs"] = min_eigs
    checks["farkas_adjoint"] = resid <= VERIFY_FEAS * ws.opscale * max(1.0, nrm)
    checks["farkas_psd"] = all(e >= -VERIFY_PSD * max(1.0, nrm) for e in min_eigs)
    checks["farkas_positive"] = bmu > VERIFY_FEAS * max(nrm, 1e-30)
