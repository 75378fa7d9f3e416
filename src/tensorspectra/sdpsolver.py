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
scaling with a Mehrotra predictor-corrector; the condensed saddle system
in (dy, dmu) is factorized densely with static regularization.

Primal infeasibility is certified, never guessed: a returned dual ray
(mu, Z_j) satisfies G^T mu + sum_j adj_j(Z_j) = 0, Z_j PSD, b.mu > 0,
which is checkable by :func:`verify_solution` from the problem data alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.linalg


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    PRIMAL_INFEASIBLE = "primal-infeasible"
    DUAL_INFEASIBLE = "dual-infeasible"
    INACCURATE = "inaccurate"
    ITERATION_LIMIT = "iteration-limit"


@dataclass
class SolverOptions:
    eps_feas: float = 1e-8
    eps_gap: float = 1e-8
    max_iter: int = 200
    tau_kappa_tol: float = 1e-8
    static_reg: float = 1e-10
    step_frac: float = 0.98
    inaccurate_tol: float = 1e-4
    verbose: bool = False


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


def _min_eig_step(M, dM):
    """Largest a with M + a*dM still PSD, for M positive definite."""
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return 0.0
    Linv = np.linalg.inv(L)
    W = Linv @ dM @ Linv.T
    lam = np.linalg.eigvalsh((W + W.T) / 2.0)[0]
    if lam >= 0.0:
        return np.inf
    return 1.0 / (-lam)


def _nt_scaling(S, Z):
    """Nesterov-Todd factors for a PSD block.

    Returns (R, Rinv, sigma) with R^T Z R = diag(sigma) and
    R^{-1} S R^{-T} = diag(sigma); the scaling matrix is W = R R^T.
    """
    Ls = np.linalg.cholesky(S)
    Lz = np.linalg.cholesky(Z)
    U, sig, Vt = np.linalg.svd(Lz.T @ Ls)
    sig = np.maximum(sig, 1e-300)
    R = Ls @ Vt.T * (sig ** -0.5)
    Rinv = (sig[:, None] ** -0.5) * (U.T @ Lz.T)
    return R, Rinv, sig


class _Workspace:
    """Problem data unpacked for the interior-point iteration."""

    def __init__(self, problem):
        self.G = np.asarray(problem.eq_rows, dtype=float)
        self.b = np.asarray(problem.eq_rhs, dtype=float)
        self.c = np.asarray(problem.c, dtype=float)
        self.p, self.N = self.G.shape
        self.blocks = problem.blocks
        self.sides = [blk.side for blk in problem.blocks]
        # views sharing each block's arrays, taken once: taking one costs more
        # than a product with it
        self.transposed = [blk.matrix.T for blk in problem.blocks]
        self.cone_dim = sum(self.sides)
        self.normb = 1.0 + np.max(np.abs(self.b))
        self.normc = 1.0 + (np.max(np.abs(self.c)) if self.c.size else 0.0)
        scale = max(np.max(np.abs(self.G)) if self.G.size else 0.0,
                    max((abs(blk.matrix).max() if blk.matrix.nnz else 0.0)
                        for blk in problem.blocks))
        self.opscale = max(1.0, scale)

    def apply(self, v):
        """block_j(v) for each block."""
        return [(blk.matrix @ v).reshape(blk.side, blk.side) for blk in self.blocks]

    def adjoint(self, Xs):
        """sum_j adj_j(X_j), mapping block matrices back to y-space."""
        out = np.zeros(self.N)
        for mt, X in zip(self.transposed, Xs):
            out += mt @ X.ravel()
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
    y = np.zeros(N)
    mu = np.zeros(p)
    S = [np.eye(q) for q in ws.sides]
    Z = [np.eye(q) for q in ws.sides]
    tau, kappa = 1.0, 1.0
    nu_den = ws.cone_dim + 1.0
    sign = -1.0 if problem.maximize else 1.0

    best = None
    tiny_steps = 0
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

        if pres <= opts.eps_feas and dres <= opts.eps_feas and relgap <= opts.eps_gap:
            return ConicSolution(
                status=SolveStatus.OPTIMAL, y=y / tau,
                objective=float(sign * pobj),
                eq_duals=mu / tau, block_duals=[Zj / tau for Zj in Z],
                metrics=metrics)

        # residual blow-up past the best point means numerics are exhausted
        if merit > 1e3 * best[0] and best[0] < opts.inaccurate_tol:
            break

        # infeasibility rays become visible as tau collapses against kappa
        bmu = ws.b @ mu
        cert_scale = np.linalg.norm(mu) + sum(np.linalg.norm(Zj) for Zj in Z)
        if bmu > opts.eps_feas * cert_scale:
            farkas = np.max(np.abs(ws.G.T @ mu + ws.adjoint(Z)))
            strong = farkas <= 1e-2 * opts.eps_feas * ws.opscale * cert_scale
            if (tau <= opts.tau_kappa_tol * max(1.0, kappa) or strong) and \
                    farkas <= opts.eps_feas * ws.opscale * cert_scale:
                scale = 1.0 / bmu
                cert = {"mu": mu * scale, "blocks": [Zj * scale for Zj in Z]}
                metrics["reason"] = "tau-kappa-collapse" if not strong else "strong-certificate"
                return ConicSolution(status=SolveStatus.PRIMAL_INFEASIBLE,
                                     certificate=cert, metrics=metrics)
        cy = ws.c @ y
        if cy < -opts.eps_feas * max(1.0, np.linalg.norm(y)) and \
                tau <= opts.tau_kappa_tol * max(1.0, kappa):
            ray = y / (-cy)
            ray_scale = max(1.0, np.max(np.abs(ray)))
            ray_eq = np.max(np.abs(ws.G @ ray))
            ray_psd = min(scipy.linalg.eigvalsh(M)[0] for M in ws.apply(ray))
            if ray_eq <= opts.eps_feas * ws.opscale * ray_scale and \
                    ray_psd >= -opts.eps_feas * ray_scale:
                return ConicSolution(status=SolveStatus.DUAL_INFEASIBLE,
                                     certificate={"ray": ray}, metrics=metrics)

        # Nesterov-Todd scalings and the condensed saddle matrix
        try:
            scalings = [_nt_scaling(Sj, Zj) for Sj, Zj in zip(S, Z)]
        except np.linalg.LinAlgError:
            break
        Phi = np.zeros((N, N))
        for (R, Rinv, sig), blk in zip(scalings, ws.blocks):
            V = Rinv @ blk.ops @ Rinv.T
            Vf = V.reshape(N, -1)
            Phi += Vf @ Vf.T
        K = np.zeros((N + p, N + p))
        K[:N, :N] = -Phi
        K[:N, N:] = ws.G.T
        K[N:, :N] = ws.G
        Kreg = K.copy()
        idx = np.arange(N + p)
        Kreg[idx[:N], idx[:N]] -= opts.static_reg
        Kreg[idx[N:], idx[N:]] += opts.static_reg
        try:
            lu = scipy.linalg.lu_factor(Kreg, check_finite=False)
        except (scipy.linalg.LinAlgError, ValueError):
            break

        def saddle_solve(q1, q2):
            rhs = np.concatenate([q1, q2])
            u = scipy.linalg.lu_solve(lu, rhs, check_finite=False)
            u += scipy.linalg.lu_solve(lu, rhs - K @ u, check_finite=False)
            return u[:N], u[N:]

        dy_t, dmu_t = saddle_solve(ws.c, ws.b)
        denom = ws.c @ dy_t - ws.b @ dmu_t - kappa / tau

        def directions(t1, t2s, t3, t4, Es, t6):
            """Solve the linearized step equations for general targets.

            G dy - b dtau = t1;  mat_j(dy) - dS_j = t2_j;
            G^T dmu + adj(dZ) - c dtau = t3;  c.dy - b.dmu + dkappa = t4;
            Rinv dS Rinv^T + R^T dZ R = E_j;  kappa dtau + tau dkappa = t6.
            """
            hterm = np.zeros(N)
            Fs = []
            for (R, Rinv, sig), mt, E, t2 in zip(scalings, ws.transposed, Es, t2s):
                F = R @ E @ R.T + t2
                Fs.append(F)
                Winv_F_Winv = Rinv.T @ (Rinv @ F @ Rinv.T) @ Rinv
                hterm += mt @ Winv_F_Winv.ravel()
            dy_c, dmu_c = saddle_solve(t3 - hterm, t1)
            dtau = (t4 - ws.c @ dy_c + ws.b @ dmu_c - t6 / tau) / denom
            dy = dy_c + dtau * dy_t
            dmu = dmu_c + dtau * dmu_t
            dkappa = (t6 - kappa * dtau) / tau
            mats_dy = ws.apply(dy)
            dS, dZ = [], []
            for (R, Rinv, sig), F, Mdy, t2 in zip(scalings, Fs, mats_dy, t2s):
                X = F - Mdy
                dZj = Rinv.T @ (Rinv @ X @ Rinv.T) @ Rinv
                dZ.append((dZj + dZj.T) / 2.0)
                dSj = Mdy - t2
                dS.append((dSj + dSj.T) / 2.0)
            return [dy, dmu, dS, dZ, dtau, dkappa]

        def refine(dirs, t1, t2s, t3, t4, Es, t6):
            """One pass of iterative refinement on the full step equations."""
            dy, dmu, dS, dZ, dtau, dkappa = dirs
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
            corr = directions(e1, e2s, e3, e4, eEs, e6)
            return [
                dy + corr[0], dmu + corr[1],
                [a + b for a, b in zip(dS, corr[2])],
                [a + b for a, b in zip(dZ, corr[3])],
                dtau + corr[4], dkappa + corr[5],
            ]

        def max_step(dS, dZ, dtau, dkappa):
            a = np.inf
            for Sj, dSj in zip(S, dS):
                a = min(a, _min_eig_step(Sj, dSj))
            for Zj, dZj in zip(Z, dZ):
                a = min(a, _min_eig_step(Zj, dZj))
            if dtau < 0.0:
                a = min(a, tau / (-dtau))
            if dkappa < 0.0:
                a = min(a, kappa / (-dkappa))
            return a

        t1, t3, t4 = -rp, -rd, -rg
        t2s = [-Rhj for Rhj in Rh]

        # predictor
        E_aff = [np.diag(-sig) for (_R, _Ri, sig) in scalings]
        aff = directions(t1, t2s, t3, t4, E_aff, -tau * kappa)
        a_aff = min(1.0, max_step(aff[2], aff[3], aff[4], aff[5]))
        gap_aff = sum(np.sum((Sj + a_aff * dSj) * (Zj + a_aff * dZj))
                      for Sj, dSj, Zj, dZj in zip(S, aff[2], Z, aff[3]))
        gap_aff += (tau + a_aff * aff[4]) * (kappa + a_aff * aff[5])
        sigma = float(np.clip((max(gap_aff, 0.0) / (nu * nu_den)) ** 3, 1e-8, 0.999))

        # corrector
        Es = []
        for (R, Rinv, sig), dSj, dZj in zip(scalings, aff[2], aff[3]):
            Ds = Rinv @ dSj @ Rinv.T
            Dz = R.T @ dZj @ R
            D = sigma * nu * np.eye(len(sig)) - np.diag(sig ** 2) \
                - (Ds @ Dz + Dz @ Ds) / 2.0
            Es.append(2.0 * D / np.add.outer(sig, sig))
        d_tk = sigma * nu - tau * kappa - aff[4] * aff[5]
        dirs = directions(t1, t2s, t3, t4, Es, d_tk)
        if merit < 1e-3 or nu < 1e-4:
            # cancellation in direction recovery only matters near the end
            dirs = refine(dirs, t1, t2s, t3, t4, Es, d_tk)
        dy, dmu, dS, dZ, dtau, dkappa = dirs

        alpha = opts.step_frac * max_step(dS, dZ, dtau, dkappa)
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
        if opts.verbose:
            print(f"  it {it:3d} pres {pres:9.2e} dres {dres:9.2e} "
                  f"gap {relgap:9.2e} tau {tau:9.2e} kappa {kappa:9.2e} a {alpha:.3f}")
        tiny_steps = tiny_steps + 1 if alpha < 1e-4 else 0
        if tiny_steps >= 3:
            break

    # no convergence: classify the best iterate seen
    if best is None:
        return ConicSolution(status=SolveStatus.ITERATION_LIMIT,
                             metrics={"iterations": 0})
    merit, yb, mub, Zb, metrics = best
    status = SolveStatus.INACCURATE if merit <= opts.inaccurate_tol \
        else SolveStatus.ITERATION_LIMIT
    return ConicSolution(status=status, y=yb, objective=float(sign * (ws.c @ yb)),
                         eq_duals=mub, block_duals=Zb, metrics=metrics)


def verify_solution(problem, sol, eps_feas=1e-6, eps_psd=1e-7):
    """Recompute residuals and certificate conditions from the problem data.

    Returns a dict of named boolean checks plus measured values; ``ok``
    aggregates them.  Callers should trust OPTIMAL / PRIMAL_INFEASIBLE
    statuses only after this passes.
    """
    ws = _Workspace(problem)
    report = {"status": sol.status.value}
    checks = {}
    if sol.status in (SolveStatus.OPTIMAL, SolveStatus.INACCURATE):
        y = sol.y
        eq_res = np.max(np.abs(ws.G @ y - ws.b)) if ws.p else 0.0
        checks["equalities"] = eq_res <= eps_feas * ws.normb
        report["eq_residual"] = float(eq_res)
        min_eigs = [float(scipy.linalg.eigvalsh(M)[0]) for M in ws.apply(y)]
        report["block_min_eigs"] = min_eigs
        checks["psd"] = all(e >= -eps_psd * max(1.0, abs(e)) for e in min_eigs) and \
            min(min_eigs) >= -eps_psd * 10
        if sol.eq_duals is not None:
            dres = np.max(np.abs(ws.G.T @ sol.eq_duals + ws.adjoint(sol.block_duals)
                                 - ws.c))
            report["dual_residual"] = float(dres)
            checks["dual_feasibility"] = dres <= eps_feas * ws.normc * 10
            pobj = ws.c @ y
            dobj = ws.b @ sol.eq_duals
            report["gap"] = float(abs(pobj - dobj))
            checks["weak_duality"] = dobj <= pobj + eps_feas * (1.0 + abs(pobj)) * 10
    elif sol.status == SolveStatus.PRIMAL_INFEASIBLE:
        cert = sol.certificate
        mu = cert["mu"]
        Zs = cert["blocks"]
        nrm = np.linalg.norm(mu) + sum(np.linalg.norm(Zj) for Zj in Zs)
        resid = np.max(np.abs(ws.G.T @ mu + ws.adjoint(Zs)))
        bmu = ws.b @ mu
        min_eigs = [float(scipy.linalg.eigvalsh(Zj)[0]) if Zj.size else 0.0
                    for Zj in Zs]
        report["farkas_residual"] = float(resid)
        report["farkas_bmu"] = float(bmu)
        report["farkas_block_min_eigs"] = min_eigs
        checks["farkas_adjoint"] = resid <= eps_feas * ws.opscale * max(1.0, nrm)
        checks["farkas_psd"] = all(e >= -eps_psd * max(1.0, nrm) for e in min_eigs)
        checks["farkas_positive"] = bmu > eps_feas * max(nrm, 1e-30)
    else:
        checks["conclusive"] = False
    report["checks"] = checks
    report["ok"] = bool(checks) and all(checks.values())
    return report
