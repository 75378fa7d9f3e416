"""Sequential computation of all real Z- and H-eigenvalues of a tensor.

Eigenvalues are found smallest to largest.  Each step solves a hierarchy
of moment relaxations: an infeasible relaxation certifies that no (further)
eigenvalue exists; an optimal one with a flat moment vector yields the
eigenvalue and its eigenvectors by atom extraction.  Between eigenvalues,
a backward maximization confirms that nothing hides inside the step gap
delta.  When the check fails by extracting a verified eigenvalue nu inside
the gap, the next gap is placed below nu: delta becomes the smaller of
the usual shrink and half the distance to nu, and the next check starts
at the order that saw nu.  Any other failure just shrinks delta.
Persistent failure of that check is the signature of a continuum of
eigenvalues, reported as such rather than as a certified complete
spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from . import sdpsolver
from .extract import ExtractionError, extract_atoms, flat_truncation
from .momentsdp import MomentVector, build_max_relaxation, build_min_relaxation
from .poly import Polynomial, tensor_to_poly, tensor_to_poly_vector
from .sdpsolver import SolveStatus, SolverOptions, verify_solution
from .tensor import contract_partial

PRE_POLISH_TOL = 1e-3    # defining-equation residual allowed into polishing
VEC_DEDUP_TOL = 1e-5     # eigenvectors closer than this are the same vector


class Kind(Enum):
    Z = "Z"
    H = "H"


class Termination(Enum):
    CERTIFIED_COMPLETE = "certified-complete"
    CONTINUUM_SUSPECTED = "continuum-suspected"
    BUDGET = "budget"
    INCONSISTENT = "inconsistent"


@dataclass
class SweepOptions:
    delta0: float = 0.05
    delta_min: float = 1e-6
    delta_shrink: float = 5.0
    kmax_offset: int = 3
    eps_res: float = 1e-7
    eps_eq: float = 1e-4
    eps_dedup: float = 1e-6
    tau_rank: float = 1e-6
    tau_jac: float = 1e-6
    seed: int = 0
    nonneg: bool = False
    max_steps: int = 64
    solver: object = None   # callable (problem, SolverOptions) -> ConicSolution
    solver_options: SolverOptions = field(default_factory=SolverOptions)

    def solve(self, problem):
        fn = self.solver or sdpsolver.solve
        return fn(problem, self.solver_options)


@dataclass
class Eigenpair:
    kind: Kind
    value: float
    vectors: list
    residual: float
    isolated: bool
    order_used: int


@dataclass
class Spectrum:
    kind: Kind
    eigenpairs: list
    termination: Termination
    log: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)

    @property
    def values(self):
        return [p.value for p in self.eigenpairs]


def h_count_bound(m, n):
    """Upper bound on the number of H-eigenvalues: n*(m-1)^(n-1)."""
    if m < 2 or n < 1:
        raise ValueError("need m >= 2 and n >= 1")
    return n * (m - 1) ** (n - 1)


def z_system(A):
    """Objective and defining equations of the Z-eigenvector variety.

    Eigenvectors are the solutions of h = 0; the eigenvalue at a solution
    u is f(u), the full contraction.
    """
    n = A.dim
    f = tensor_to_poly(A)
    Ax = tensor_to_poly_vector(A)
    h = [Ax[j] - f * Polynomial.variable(n, j) for j in range(n)]
    sphere = sum((Polynomial.variable(n, i) ** 2 for i in range(n)),
                 Polynomial.zero(n)) - 1.0
    h.append(sphere)
    return f, h


def h_system(A):
    """Objective, defining equations, and normalization power for H-pairs.

    Eigenvectors normalized by sum x_i^m0 = 1 are the solutions of h = 0,
    with eigenvalue f(u).
    """
    n, m = A.dim, A.order
    m0 = 2 * ((m - 1 + 1) // 2)
    Ax = tensor_to_poly_vector(A)
    f = Polynomial.zero(n)
    for j in range(n):
        f = f + Ax[j] * (Polynomial.variable(n, j) ** (m0 - m + 1))
    h = [Ax[j] - f * (Polynomial.variable(n, j) ** (m - 1)) for j in range(n)]
    norm = sum((Polynomial.variable(n, i) ** m0 for i in range(n)),
               Polynomial.zero(n)) - 1.0
    h.append(norm)
    return f, h, m0


class EigenSystem:
    """One tensor's eigenvalue problem in either the Z or H formulation."""

    def __init__(self, kind, A):
        self.kind = Kind(kind)
        self.A = A
        self.n, self.m = A.dim, A.order
        if self.kind is Kind.Z:
            self.f, self.h = z_system(A)
            self.m0 = None
            self.k0 = (self.m + 1 + 1) // 2          # ceil((m+1)/2)
        else:
            self.f, self.h, self.m0 = h_system(A)
            self.k0 = (self.m0 + self.m - 1 + 1) // 2  # ceil((m0+m-1)/2)
        self._jac_polys = [p.gradient() for p in tensor_to_poly_vector(A)]

    def normalize(self, u):
        u = np.asarray(u, dtype=float)
        if self.kind is Kind.Z:
            return u / np.linalg.norm(u)
        scale = float(np.sum(u ** self.m0))
        if scale <= 0.0:
            raise ValueError("cannot normalize a zero vector")
        return u / scale ** (1.0 / self.m0)

    def eigenvalue_at(self, u):
        return float(self.f.evaluate(u))

    def residual(self, lam, u):
        u = np.asarray(u, dtype=float)
        Au = contract_partial(self.A, u)
        if self.kind is Kind.Z:
            rnorm = abs(float(u @ u) - 1.0)
            req = np.max(np.abs(Au - lam * u))
        else:
            rnorm = abs(float(np.sum(u ** self.m0)) - 1.0)
            req = np.max(np.abs(Au - lam * u ** (self.m - 1)))
        return max(rnorm, float(req))

    def F(self, lam, x):
        x = np.asarray(x, dtype=float)
        Au = contract_partial(self.A, x)
        if self.kind is Kind.Z:
            top = float(x @ x) - 1.0
            rest = Au - lam * x
        else:
            top = float(np.sum(x ** self.m0)) - 1.0
            rest = Au - lam * x ** (self.m - 1)
        return np.concatenate(([top], rest))

    def jacobian(self, lam, x):
        """Jacobian of F with respect to (lam, x)."""
        x = np.asarray(x, dtype=float)
        n, m = self.n, self.m
        J = np.zeros((n + 1, n + 1))
        if self.kind is Kind.Z:
            J[0, 1:] = 2.0 * x
            J[1:, 0] = -x
        else:
            J[0, 1:] = self.m0 * x ** (self.m0 - 1)
            J[1:, 0] = -(x ** (m - 1))
        for j in range(n):
            for i in range(n):
                J[1 + j, 1 + i] = self._jac_polys[j][i].evaluate(x)
            if self.kind is Kind.Z:
                J[1 + j, 1 + j] -= lam
            else:
                J[1 + j, 1 + j] -= lam * (m - 1) * x[j] ** (m - 2)
        return J


def polish_eigenpair(kind, A, lam, u, max_iter=50, target=1e-13):
    """Newton refinement of an approximate eigenpair on F(lam, x) = 0.

    Returns (lam, u, polished).  Near-singular Jacobians fall back to
    minimum-norm least-squares steps, which still converge onto a solution
    manifold; if the iteration diverges or stalls above the target, the
    best point seen is returned with polished=False.
    """
    system = kind if isinstance(kind, EigenSystem) else EigenSystem(kind, A)
    lam = float(lam)
    x = np.asarray(u, dtype=float).copy()
    scale = 1.0 + abs(lam)
    best = (lam, x.copy(), np.max(np.abs(system.F(lam, x))))
    cur = best[2]
    for _ in range(max_iter):
        Fv = system.F(lam, x)
        nrm = np.max(np.abs(Fv))
        if nrm < best[2]:
            best = (lam, x.copy(), nrm)
        if nrm <= target * scale:
            return lam, x, True
        J = system.jacobian(lam, x)
        sv = np.linalg.svd(J, compute_uv=False)
        if sv[-1] > 1e-10 * sv[0]:
            step = np.linalg.solve(J, -Fv)
        else:
            step, *_ = np.linalg.lstsq(J, -Fv, rcond=1e-10)
        lam += step[0]
        x += step[1:]
        if np.max(np.abs(system.F(lam, x))) > 10.0 * max(cur, 1e-12):
            break
        cur = np.max(np.abs(system.F(lam, x)))
    lam, x, nrm = best
    if nrm <= target * scale:
        return lam, x, True
    return float(lam), x, False


def check_isolated(kind, A, lam, u, tau_jac=1e-6):
    """'isolated' when the eigenpair Jacobian is well-conditioned.

    One-directional: a near-singular Jacobian yields 'inconclusive', never
    a claim of non-isolation.
    """
    system = kind if isinstance(kind, EigenSystem) else EigenSystem(kind, A)
    sv = np.linalg.svd(system.jacobian(lam, np.asarray(u, dtype=float)),
                       compute_uv=False)
    if sv[0] > 0 and sv[-1] > tau_jac * sv[0]:
        return "isolated"
    return "inconclusive"


@dataclass
class StepResult:
    outcome: str                 # found | no-eigenvalue | no-more | non-isolated | unresolved
    pair: Eigenpair | None = None
    certificate: dict | None = None
    delta_used: float | None = None
    reason: str = ""
    bound: float | None = None   # best relaxation bound when unresolved


class _Driver:
    def __init__(self, system, opts):
        self.system = system
        self.opts = opts
        self.log = []
        self.sdp_solves = 0
        self.ipm_iterations = 0
        self.base_ineqs = []
        if opts.nonneg:
            self.base_ineqs = [system.f]
        # relaxation order that last certified, per problem family; later
        # steps start there (an infeasible or flat order stays so upward)
        self._warm = {}
        # per-order parts shared by this sweep's relaxations (build_min_relaxation)
        self._relaxations = {}

    def _record(self, **kw):
        self.log.append(kw)

    def _try_extract(self, y, k, weight_sum_tol):
        """Flat truncation and extraction, escalating the rank threshold.

        Clustered spectra put singular values arbitrarily close to any
        fixed rank cutoff; coarser cutoffs see the cluster as one atom.
        The reconstruction residual gate inside extraction keeps coarse
        readings honest.
        """
        tau = self.opts.tau_rank
        taus = [tau]
        while tau < 1e-3:
            tau *= 10.0
            taus.append(min(tau, 1e-3))
        for tau in taus:
            t = flat_truncation(y, self.system.k0, k, tau)
            if t is None:
                continue
            try:
                measure = extract_atoms(y, t, tau, self.opts.seed,
                                        weight_sum_tol=weight_sum_tol)
            except ExtractionError as exc:
                self._record(phase="extract", k=k, tau_rank=tau,
                             note=f"extraction failed: {exc}")
                continue
            return measure
        return None

    def _solve(self, problem, phase, k, delta=None):
        sol = self.opts.solve(problem)
        self.sdp_solves += 1
        self.ipm_iterations += sol.iterations
        entry = {"phase": phase, "k": k, "N": problem.num_vars,
                 "p": problem.eq_rows.shape[0],
                 "sides": [blk.side for blk in problem.blocks],
                 "status": sol.status.value, "iterations": sol.iterations}
        if sol.objective is not None:
            entry["value"] = float(sol.objective)
        if delta is not None:
            entry["delta"] = float(delta)
        self._record(**entry)
        return sol

    def _min_hierarchy(self, extra_ineqs, phase, delta=None):
        """Escalate the minimization relaxation until certified or exhausted.

        Returns one of
          ('infeasible', certificate)
          ('found', Eigenpair)
          ('unresolved', best_bound)
        """
        sys_, opts = self.system, self.opts
        best_bound = None
        kmax = sys_.k0 + opts.kmax_offset
        start = min(self._warm.get("min", sys_.k0), kmax)
        for k in range(start, kmax + 1):
            prob = build_min_relaxation(sys_.f, sys_.h,
                                        self.base_ineqs + extra_ineqs, k,
                                        store=self._relaxations)
            sol = self._solve(prob, phase, k, delta)
            if sol.status == SolveStatus.PRIMAL_INFEASIBLE:
                report = verify_solution(prob, sol)
                if report["ok"]:
                    return ("infeasible", {"k": k, "certificate": sol.certificate,
                                           "report": report})
                self._record(phase=phase, k=k, note="unverified infeasibility ignored")
                continue
            if sol.status in (SolveStatus.OPTIMAL, SolveStatus.INACCURATE):
                if sol.status == SolveStatus.OPTIMAL:
                    report = verify_solution(prob, sol)
                    usable = report["ok"]
                else:
                    usable = max(sol.metrics.get("primal_residual", 1.0),
                                 sol.metrics.get("dual_residual", 1.0)) <= 1e-5
                if not usable:
                    continue
                if best_bound is None or sol.objective > best_bound:
                    best_bound = sol.objective
                y = MomentVector(prob.n, k, sol.y)
                # polish + residual + value gates below do the hard
                # verification; weight sums only need to be sane
                wtol = 1e-4 if sol.status == SolveStatus.OPTIMAL else 1e-3
                measure = self._try_extract(y, k, wtol)
                if measure is None:
                    continue
                pair = self._accept_atoms(measure.points, k,
                                          self.base_ineqs + extra_ineqs,
                                          sol.objective)
                if pair is None:
                    self._record(phase=phase, k=k,
                                 note="atoms failed the residual gate")
                    continue
                self._warm["min"] = max(self.system.k0, k - 1)
                return ("found", pair)
        return ("unresolved", best_bound)

    def _backward_check(self, lam_i, delta):
        """Confirm no eigenvalue hides in (lam_i, lam_i + delta].

        Passes when either the maximization relaxation's upper bound
        collapses onto lam_i (sound on its own: the relaxation value always
        bounds the largest eigenvalue below the cap from above), or a flat
        moment vector extracts verified eigenpairs whose largest eigenvalue
        is lam_i and whose value agrees with the relaxation optimum to
        within the same threshold.
        Returns (passed, nu, atoms): nu is the best upper bound or None, or,
        with atoms, the largest verified eigenvalue at or below the cap.
        """
        sys_, opts = self.system, self.opts
        thresh = min(opts.eps_eq, 0.5 * delta)
        cap = Polynomial.constant(sys_.n, lam_i + delta) - sys_.f
        best = None
        kmax = sys_.k0 + opts.kmax_offset
        start = min(self._warm.get("max", sys_.k0), kmax)
        for k in range(start, kmax + 1):
            prob = build_max_relaxation(sys_.f, sys_.h,
                                        self.base_ineqs + [cap], k,
                                        store=self._relaxations)
            sol = self._solve(prob, "backward-max", k, delta)
            if sol.status == SolveStatus.PRIMAL_INFEASIBLE:
                # cannot happen below a cap above a true eigenvalue
                self._record(phase="backward-max", k=k,
                             note="unexpected infeasibility in backward check")
                continue
            if sol.status not in (SolveStatus.OPTIMAL, SolveStatus.INACCURATE):
                continue
            resid = max(sol.metrics.get("primal_residual", 1.0),
                        sol.metrics.get("dual_residual", 1.0),
                        sol.metrics.get("gap", 1.0))
            if sol.status == SolveStatus.INACCURATE and resid > 1e-5:
                continue
            slack = 10.0 * resid * (1.0 + abs(sol.objective))
            bound = float(sol.objective + slack)
            if best is None or bound < best:
                best = bound
            if bound <= lam_i + thresh:
                self._warm["max"] = max(self.system.k0, k - 1)
                return True, bound, False
            # flat + verified atoms pin the true maximum below the bound
            y = MomentVector(prob.n, k, sol.y)
            wtol = 1e-4 if sol.status == SolveStatus.OPTIMAL else 1e-3
            measure = self._try_extract(y, k, wtol)
            if measure is None:
                continue
            nu_atoms = None
            for u in measure.points:
                try:
                    u = sys_.normalize(u)
                except (ValueError, FloatingPointError):
                    continue
                lam, v, _ = polish_eigenpair(sys_, None, sys_.eigenvalue_at(u), u)
                if sys_.residual(lam, v) > opts.eps_res:
                    continue
                if sys_.f.evaluate(v) > lam_i + delta + 1e-6 * (1.0 + abs(lam)):
                    continue
                if nu_atoms is None or lam > nu_atoms:
                    nu_atoms = lam
            if nu_atoms is None:
                continue
            self._record(phase="backward-max", k=k, nu_atoms=float(nu_atoms))
            if abs(nu_atoms - lam_i) <= thresh and sol.objective - nu_atoms <= thresh:
                self._warm["max"] = max(self.system.k0, k - 1)
                return True, float(nu_atoms), True
            consistent = sol.objective - nu_atoms <= 1e-3 * (1.0 + abs(nu_atoms))
            if consistent and nu_atoms > lam_i + thresh:
                # a genuine eigenvalue sits inside the gap; the next gap ends
                # below it, and this order already sees it
                self._warm["max"] = k
                return False, float(nu_atoms), True
        return False, best, False

    def _accept_atoms(self, points, k, ineqs, sdp_value):
        """Polish extracted points into verified eigenpairs at one value.

        Atoms must satisfy the calling context's inequalities (otherwise
        they escaped through an unconverged relaxation), and the polished
        eigenvalue must reproduce the relaxation optimum, which flat
        truncation guarantees for a genuinely converged order.
        """
        sys_, opts = self.system, self.opts
        pairs = []
        for u in points:
            try:
                u = sys_.normalize(u)
            except (ValueError, FloatingPointError):
                continue
            lam0 = sys_.eigenvalue_at(u)
            if sys_.residual(lam0, u) > PRE_POLISH_TOL:
                self._record(phase="accept", k=k, note="atom rejected before polish",
                             residual=float(sys_.residual(lam0, u)))
                continue
            lam, v, _polished = polish_eigenpair(sys_, None, lam0, u)
            res = sys_.residual(lam, v)
            if res > opts.eps_res:
                continue
            if any(g.evaluate(v) < -1e-6 * (1.0 + abs(lam)) for g in ineqs):
                self._record(phase="accept", k=k, value=float(lam),
                             note="atom violates a context inequality")
                continue
            pairs.append((lam, v, res))
        if not pairs:
            return None
        # keep the cluster at the smallest eigenvalue; stragglers belong to
        # a nearby larger one and will be found in later steps
        lam_min = min(p[0] for p in pairs)
        cluster = [p for p in pairs if p[0] - lam_min <= opts.eps_dedup]
        value_out = float(np.median([p[0] for p in cluster]))
        if abs(value_out - sdp_value) > 2e-5 * (1.0 + abs(value_out)):
            self._record(phase="accept", k=k, value=float(value_out),
                         note=f"eigenvalue disagrees with relaxation optimum "
                              f"{sdp_value:.8f}; order not converged")
            return None
        vectors, residuals = [], []
        for lam, v, res in sorted(cluster, key=lambda p: tuple(np.round(p[1], 12))):
            if any(np.linalg.norm(v - w) <= VEC_DEDUP_TOL for w in vectors):
                continue
            vectors.append(v)
            residuals.append(res)
        isolated = all(
            check_isolated(sys_, None, value_out, v, opts.tau_jac) == "isolated"
            for v in vectors)
        return Eigenpair(kind=sys_.kind, value=value_out, vectors=vectors,
                         residual=float(max(residuals)), isolated=isolated,
                         order_used=k)

    def smallest(self):
        result = self._min_hierarchy([], "smallest-min")
        if result[0] == "infeasible":
            return StepResult(outcome="no-eigenvalue", certificate=result[1],
                              reason=f"relaxation infeasible at k={result[1]['k']}")
        if result[0] == "unresolved":
            return StepResult(outcome="unresolved", bound=result[1],
                              reason="no flat truncation or certificate within order budget")
        return StepResult(outcome="found", pair=result[1])

    def next_after(self, lam_i):
        opts = self.opts
        delta = opts.delta0
        while True:
            passed, nu, atoms = self._backward_check(lam_i, delta)
            self._record(phase="backward-check", delta=float(delta),
                         nu=None if nu is None else float(nu),
                         lam=float(lam_i), passed=passed, atoms=atoms)
            if passed:
                break
            if atoms:
                # for a continuum nu sits at the cap and the shrink decides
                delta = min(delta / opts.delta_shrink, (nu - lam_i) / 2.0)
            else:
                delta /= opts.delta_shrink
            if delta < opts.delta_min:
                return StepResult(outcome="non-isolated", delta_used=delta,
                                  reason="delta exhausted with eigenvalues still "
                                         "inside every gap")
        shift = self.system.f - (lam_i + delta)
        result = self._min_hierarchy([shift], "shifted-min", delta)
        if result[0] == "infeasible":
            return StepResult(outcome="no-more", certificate=result[1],
                              delta_used=delta,
                              reason=f"shifted relaxation infeasible at k={result[1]['k']}")
        if result[0] == "unresolved":
            return StepResult(outcome="unresolved", bound=result[1], delta_used=delta,
                              reason="no flat truncation within order budget")
        return StepResult(outcome="found", pair=result[1], delta_used=delta)


def smallest_eigenvalue(kind, A, opts=None):
    """First step of the sweep: smallest eigenvalue or a no-eigenvalue proof."""
    opts = opts or SweepOptions()
    driver = _Driver(EigenSystem(kind, A), opts)
    out = driver.smallest()
    out.reason = out.reason or ""
    return out


def next_eigenvalue(kind, A, lam_i, delta=None, opts=None):
    """Next eigenvalue above a certified one, or a proof there is none."""
    opts = opts or SweepOptions()
    if delta is not None:
        opts = replace(opts, delta0=delta)
    driver = _Driver(EigenSystem(kind, A), opts)
    return driver.next_after(float(lam_i))


def full_sweep(kind, A, opts=None):
    """All real eigenvalues of the requested kind, smallest to largest."""
    opts = opts or SweepOptions()
    system = EigenSystem(kind, A)
    driver = _Driver(system, opts)
    pairs = []
    termination = Termination.BUDGET
    final_certificate = None

    first = driver.smallest()
    if first.outcome == "no-eigenvalue":
        termination = Termination.CERTIFIED_COMPLETE
        final_certificate = first.certificate
    elif first.outcome == "unresolved":
        termination = Termination.BUDGET
        driver._record(phase="sweep", note=first.reason)
    else:
        pairs.append(first.pair)
        for _ in range(opts.max_steps):
            step = driver.next_after(pairs[-1].value)
            if step.outcome == "found":
                new = step.pair
                if new.value - pairs[-1].value <= opts.eps_dedup:
                    merged = _merge_pairs(pairs[-1], new)
                    pairs[-1] = merged
                    driver._record(phase="sweep", note="merged rediscovered eigenvalue",
                                   value=float(new.value))
                    continue
                pairs.append(new)
                continue
            if step.outcome == "no-more":
                termination = Termination.CERTIFIED_COMPLETE
                final_certificate = step.certificate
            elif step.outcome == "non-isolated":
                termination = Termination.CONTINUUM_SUSPECTED
                driver._record(phase="sweep", note=step.reason)
            else:
                termination = Termination.BUDGET
                driver._record(phase="sweep", note=step.reason)
            break
        else:
            termination = Termination.BUDGET
            driver._record(phase="sweep", note="step budget exhausted")

    if termination == Termination.CERTIFIED_COMPLETE and \
            any(not p.isolated for p in pairs):
        termination = Termination.CONTINUUM_SUSPECTED
        driver._record(phase="sweep",
                       note="isolation inconclusive for some eigenpair; "
                            "completeness not certified")

    # consistency checks end the sweep uncertified, keeping what it found
    if system.kind is Kind.H and len(pairs) > h_count_bound(system.m, system.n):
        termination = Termination.INCONSISTENT
        driver._record(phase="sweep",
                       note=f"found {len(pairs)} H-eigenvalues, more than the bound "
                            f"{h_count_bound(system.m, system.n)}; numerical inconsistency")

    values = [p.value for p in pairs]
    if any(b - a <= opts.eps_dedup for a, b in zip(values, values[1:])):
        termination = Termination.INCONSISTENT
        driver._record(phase="sweep", note="sweep produced non-increasing eigenvalues")

    counters = {"sdp_solves": driver.sdp_solves,
                "ipm_iterations": driver.ipm_iterations}
    if final_certificate is not None:
        driver._record(phase="sweep", note="termination certificate",
                       k=final_certificate.get("k"))
    return Spectrum(kind=system.kind, eigenpairs=pairs, termination=termination,
                    log=driver.log, counters=counters)


def _merge_pairs(a, b):
    vectors = list(a.vectors)
    for v in b.vectors:
        if not any(np.linalg.norm(v - w) <= VEC_DEDUP_TOL for w in vectors):
            vectors.append(v)
    vectors.sort(key=lambda v: tuple(np.round(v, 12)))
    return Eigenpair(kind=a.kind, value=a.value, vectors=vectors,
                     residual=max(a.residual, b.residual),
                     isolated=a.isolated and b.isolated,
                     order_used=max(a.order_used, b.order_used))
