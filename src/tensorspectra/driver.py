"""Sequential computation of all real Z- and H-eigenvalues of a tensor.

Eigenvalues are found smallest to largest.  Each step solves a hierarchy
of moment relaxations: an infeasible relaxation certifies that no (further)
eigenvalue exists; an optimal one with a flat moment vector yields the
eigenvalue and its eigenvectors by atom extraction.  Between eigenvalues,
a backward maximization confirms that nothing hides inside the step gap
delta; only the upper bound its duals prove collapsing onto lam_i passes
a gap.  When the check fails by extracting a verified eigenvalue nu
inside the gap, the next gap is placed below nu: delta becomes the
smaller of the usual shrink and half the distance to nu, and the next
check starts at the order that saw nu.  Any other failure just shrinks
delta.  Persistent failure of that check, with eigenvalues seen inside
the gaps, is the signature of a continuum of eigenvalues, reported as
such rather than as a certified complete spectrum; without any, no bound
came down to lam_i, and the sweep ends unresolved ("budget").

Both hierarchies run through one order loop, and every relaxation result
the sweep reads passes one gate there: :func:`verify_solution`, which
re-checks it against the problem data (shapes, finiteness and the
feasibility of y, or the proof of a dual ray).  The solver's status only
chooses that check, and its metrics are never read.  The relaxation
value is the bound on the relaxation's optimum that the result's duals
prove (verify_solution's ``bound``), so every value the sweep compares
holds for the exact relaxation, up to the margin stated in
:mod:`sdpsolver`.  A step that ends on an infeasible relaxation keeps
its order, the verified result, whose duals are the ray, and the
check's report as its ``certificate``.

Each family of hierarchies, the minimizations and the backward checks,
starts at k0 + 1, within the order budget, and then where the last one
of its family succeeded.  When that one solved lower orders before it
succeeded at order k, the next starts at k; when the first order it
tried succeeded, the next probes one order lower, max(k0, k - 1).  Once
a check passes at order k, the shifted minimization over the gap starts
at order k or above: below it, that relaxation tends to return the
gap's boundary value lam_i + delta and escalate anyway.

For the minimizations of a sign-invariant system
(:func:`momentsdp.sign_invariant`, and below) k0 + 1 is proven.  At
order k0, flat truncation needs rank M_k0(y) = rank M_0(y) = 1.  The
lifted y has every odd moment at zero, and a rank-one moment matrix with
zero first moments is the origin's, whose moments break
sum_i x_i^m0 = 1: no feasible y flattens at k0 (a numerical rank-one
reading extracts the point 0, which normalization rejects).  That solve
can only prove that no eigenvalue exists, and the relaxations are
nested, so order k0 + 1 proves it too.
For the odd-order Z systems, the others, k0 + 1 is measured, not
proven: their order-k0 minimization can extract an eigenvalue, but the
first check then fails at k0 and runs again one order up; with
``nonneg``, none of the six odd-order Z fixtures concludes at k0.  So a
budget of kmax_offset = 1 leaves an odd-order Z sweep one order for its
smallest eigenvalue; kmax_offset = 0 still solves k0.

Over the benchmark's 237 sweeps these rules take 394 solves on the Z
fixtures, 155 on the H fixtures and 1056 on random n = 2 tensors, with
the same outputs as starting the first minimization at k0 unless the
system is sign-invariant and the first check at the order that found
the smallest eigenvalue (424, 155 and 1096 solves).  Never probing
lower takes 359, 138 and 952, but a random m = 4, n = 4 H tensor then
solves 10 relaxations with N = 1036 in place of 6 and takes half as
long again.

Every H system and every even-order Z system is unchanged under u -> -u,
so its relaxations are built over the even-degree moments only, with
each large block split into its even- and odd-degree parts (see
:mod:`momentsdp`); each solution is lifted back to the full moment vector,
odd moments at zero, before flat truncation and extraction read it.

:class:`SweepOptions` holds the method's inputs: the step gap delta0 and
its floor delta_min, the order budget kmax_offset, the residual, equality,
dedup and rank tolerances, the extraction seed, ``nonneg`` and the solver
hook.  What no caller varies is a module constant: DELTA_SHRINK divides a
gap whose check failed, TAU_JAC decides isolation, MAX_STEPS caps the
eigenvalues of one sweep, VALUE_MATCH_TOL matches an extracted eigenvalue
to its relaxation value, and POLISH_MAX_ITER, POLISH_TOL, PRE_POLISH_TOL
and VEC_DEDUP_TOL bound Newton polishing and vector deduplication.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import sdpsolver
from .extract import ExtractionError, extract_atoms, flat_truncation
from .momentsdp import build_max_relaxation, build_min_relaxation
from .poly import Polynomial, tensor_to_poly_vector
from .sdpsolver import SolveStatus, SolverOptions, verify_solution
from .tensor import contract_partial

PRE_POLISH_TOL = 1e-3    # defining-equation residual allowed into polishing
POLISH_MAX_ITER = 50     # Newton steps of one polish
POLISH_TOL = 1e-13       # polished residual, relative to 1 + |lam|
VEC_DEDUP_TOL = 1e-5     # eigenvectors closer than this are the same vector
DELTA_SHRINK = 5.0       # a failed backward check divides the step gap by this
TAU_JAC = 1e-6           # least relative Jacobian singular value of an isolated pair
MAX_STEPS = 64           # eigenvalues one sweep may find before it ends "budget"
VALUE_MATCH_TOL = 2e-5   # extracted eigenvalue vs relaxation value, relative to 1 + |lam|


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
    kmax_offset: int = 3
    eps_res: float = 1e-7
    eps_eq: float = 1e-4
    eps_dedup: float = 1e-6
    tau_rank: float = 1e-6
    seed: int = 0
    nonneg: bool = False
    solver: object = None   # callable (problem, SolverOptions) -> ConicSolution

    def __post_init__(self):
        """Reject, with a ValueError, options no sweep can run with."""
        for name in ("delta0", "delta_min", "eps_res", "eps_eq", "eps_dedup", "tau_rank"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.delta0 <= self.delta_min:
            raise ValueError("delta0 must exceed delta_min")
        for name in ("kmax_offset", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer")
            if value < 0:
                raise ValueError(f"{name} must be >= 0")

    def solve(self, problem):
        return (self.solver or sdpsolver.solve)(problem, SolverOptions())


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


def _system(A, p, m0):
    """Objective and defining equations of the eigen-system with powers p, m0.

    Eigenvectors are the solutions of h = 0: (A x^{m-1})_j = f(x) x_j^p for
    every j, and sum_i x_i^m0 = 1.  The objective f = sum_j (A x^{m-1})_j
    x_j^{m0-p} equals the eigenvalue on that variety.
    """
    n = A.dim
    x = [Polynomial.variable(n, j) for j in range(n)]
    Ax = tensor_to_poly_vector(A)
    f = sum((Ax[j] * x[j] ** (m0 - p) for j in range(n)), Polynomial.zero(n))
    h = [Ax[j] - f * x[j] ** p for j in range(n)]
    h.append(sum((xi ** m0 for xi in x), Polynomial.zero(n)) - 1.0)
    return f, h


def z_system(A):
    """(f, h) of the Z-pairs A x^{m-1} = lam x, x^T x = 1: p = 1, m0 = 2."""
    return _system(A, 1, 2)


def h_system(A):
    """(f, h, m0) of the H-pairs A x^{m-1} = lam x^{[m-1]}: p = m - 1.

    They are normalized by sum x_i^m0 = 1, m0 the least even number >= m - 1.
    """
    m0 = 2 * (A.order // 2)
    return (*_system(A, A.order - 1, m0), m0)


class EigenSystem:
    """One tensor's eigenvalue problem, Z or H.

    Both kinds solve F(lam, x) = 0 with F = (sum_i x_i^m0 - 1,
    A x^{m-1} - lam x^{[p]}): Z-pairs have p = 1 and m0 = 2, H-pairs
    p = m - 1 and the even m0 of :func:`h_system`.  The relaxation
    hierarchy starts at k0 = ceil((m0 + m - 1) / 2).
    """

    def __init__(self, kind, A):
        self.kind = Kind(kind)
        self.A = A
        self.n, self.m = A.dim, A.order
        if self.kind is Kind.Z:
            self.f, self.h = z_system(A)
            self.p, self.m0 = 1, 2
        else:
            self.f, self.h, self.m0 = h_system(A)
            self.p = self.m - 1
        self.k0 = (self.m0 + self.m) // 2            # ceil((m0+m-1)/2)

    def normalize(self, u):
        u = np.asarray(u, dtype=float)
        scale = float(np.sum(u ** self.m0))
        if scale <= 0.0:
            raise ValueError("cannot normalize a zero vector")
        return u / scale ** (1.0 / self.m0)

    def eigenvalue_at(self, u):
        return float(self.f.evaluate(u))

    def residual(self, lam, u):
        return float(np.max(np.abs(self.F(lam, u))))

    def F(self, lam, x):
        x = np.asarray(x, dtype=float)
        top = float(np.sum(x ** self.m0)) - 1.0
        rest = contract_partial(self.A, x) - lam * x ** self.p
        return np.concatenate(([top], rest))

    def jacobian(self, lam, x):
        """Jacobian of F with respect to (lam, x)."""
        x = np.asarray(x, dtype=float)
        p = self.p
        J = np.zeros((self.n + 1, self.n + 1))
        J[0, 1:] = self.m0 * x ** (self.m0 - 1)
        J[1:, 0] = -(x ** p)
        # d(A x^{m-1})/dx: each trailing slot s of A in turn left free
        for s in range(1, self.m):
            slot = np.moveaxis(self.A.entries, s, 1)
            for _ in range(self.m - 2):
                slot = slot @ x
            J[1:, 1:] += slot
        J[1:, 1:] -= np.diag(lam * p * x ** (p - 1))
        return J


def polish_eigenpair(kind, A, lam, u):
    """Newton refinement of an approximate eigenpair on F(lam, x) = 0.

    Returns (lam, u, polished).  Each step is the minimum-norm least-squares
    Newton step, which still converges onto a solution manifold where the
    Jacobian is near-singular.  The iteration runs at most POLISH_MAX_ITER
    steps toward a residual of POLISH_TOL * (1 + |lam|); if it diverges or
    stalls above that target, the best point seen is returned with
    polished=False.
    """
    system = kind if isinstance(kind, EigenSystem) else EigenSystem(kind, A)
    lam = float(lam)
    x = np.asarray(u, dtype=float).copy()
    scale = 1.0 + abs(lam)
    Fv = system.F(lam, x)
    nrm = np.max(np.abs(Fv))
    best = (lam, x.copy(), nrm)
    for _ in range(POLISH_MAX_ITER):
        if nrm <= POLISH_TOL * scale:
            break
        step, *_ = np.linalg.lstsq(system.jacobian(lam, x), -Fv, rcond=1e-10)
        lam += step[0]
        x += step[1:]
        prev = nrm
        Fv = system.F(lam, x)
        nrm = np.max(np.abs(Fv))
        if nrm > 10.0 * max(prev, 1e-12):
            break
        if nrm < best[2]:
            best = (lam, x.copy(), nrm)
    lam, x, nrm = best
    return float(lam), x, bool(nrm <= POLISH_TOL * scale)


def check_isolated(kind, A, lam, u):
    """'isolated' when the eigenpair Jacobian is well-conditioned.

    Well-conditioned: its smallest singular value exceeds TAU_JAC times its
    largest.  One-directional: a near-singular Jacobian yields 'inconclusive', never
    a claim of non-isolation.
    """
    system = kind if isinstance(kind, EigenSystem) else EigenSystem(kind, A)
    sv = np.linalg.svd(system.jacobian(lam, np.asarray(u, dtype=float)),
                       compute_uv=False)
    if sv[0] > 0 and sv[-1] > TAU_JAC * sv[0]:
        return "isolated"
    return "inconclusive"


@dataclass
class StepResult:
    outcome: str                 # found | no-eigenvalue | no-more | non-isolated | unresolved
    pair: Eigenpair | None = None
    certificate: dict | None = None
    reason: str = ""


# how a sweep ends on each step outcome other than "found"
_ENDINGS = {"no-eigenvalue": Termination.CERTIFIED_COMPLETE,
            "no-more": Termination.CERTIFIED_COMPLETE,
            "non-isolated": Termination.CONTINUUM_SUSPECTED,
            "unresolved": Termination.BUDGET}


def _iterations(sol):
    """The iteration count a solver result reports, 0 unless it is an integer."""
    metrics = getattr(sol, "metrics", None)
    count = metrics.get("iterations") if isinstance(metrics, dict) else None
    return int(count) if isinstance(count, numbers.Integral) else 0


def _matches(lam, value):
    """Whether an extracted eigenvalue lam reproduces the relaxation value."""
    return abs(lam - value) <= VALUE_MATCH_TOL * (1.0 + abs(lam))


def _distinct(vectors):
    """Indices of the distinct vectors, in rounded lexicographic order.

    A vector within VEC_DEDUP_TOL of one kept before it is a duplicate.
    """
    kept = []
    for i in sorted(range(len(vectors)), key=lambda i: tuple(np.round(vectors[i], 12))):
        if all(np.linalg.norm(vectors[i] - vectors[j]) > VEC_DEDUP_TOL for j in kept):
            kept.append(i)
    return kept


class _Driver:
    def __init__(self, system, opts):
        self.system = system
        self.opts = opts
        self.log = []
        self.sdp_solves = 0
        self.ipm_iterations = 0
        self.base_ineqs = [system.f] if opts.nonneg else []
        # order at which the next hierarchy of each family ("min", "max")
        # starts (_first, _succeeded); both start at k0 + 1 (module docstring)
        self._warm = {"min": system.k0 + 1, "max": system.k0 + 1}
        # per-order parts shared by this sweep's relaxations (build_min_relaxation)
        self._relaxations = {}

    def _record(self, **kw):
        self.log.append(kw)

    def _orders(self, first, build, ineqs, phase, delta=None):
        """Solve one family's relaxations order by order; yield the verified ones.

        The orders run from ``first`` (:meth:`_first`) to k0 + kmax_offset.
        One gate decides what a caller may read: a result, whatever its
        status, only once verify_solution passes it.
        Yields (k, problem, solution, report, value): report is
        verify_solution's, value the bound on the relaxation's optimum
        that the result's duals prove, in the relaxation's own sense (None
        when infeasible).
        """
        sys_, opts = self.system, self.opts
        for k in range(first, sys_.k0 + opts.kmax_offset + 1):
            prob = build(sys_.f, sys_.h, ineqs, k, store=self._relaxations)
            # the check's read-only copy of the problem, made before the
            # solver hook can write into the problem's arrays
            sdpsolver._workspace(prob)
            sol = opts.solve(prob)
            iterations = _iterations(sol)
            self.sdp_solves += 1
            self.ipm_iterations += iterations
            report = verify_solution(prob, sol)
            value = report.get("bound")
            entry = {"phase": phase, "k": k, "N": prob.num_vars,
                     "p": prob.eq_rows.shape[0],
                     "sides": [blk.side for blk in prob.blocks],
                     "status": report["status"], "iterations": iterations}
            if value is not None:
                entry["value"] = value
            if delta is not None:
                entry["delta"] = float(delta)
            self._record(**entry)
            if not report["ok"]:
                self._record(phase=phase, k=k,
                             note=f"unverified {report['status']} result ignored")
                continue
            yield k, prob, sol, report, value

    def _first(self, family):
        """The order at which the family's next hierarchy starts."""
        return min(self._warm[family], self.system.k0 + self.opts.kmax_offset)

    def _succeeded(self, family, first, k):
        """Move the family's start after a hierarchy from ``first`` succeeded at k.

        When lower orders failed on the way, the next hierarchy starts at
        k; when the first order tried succeeded, it probes one order lower.
        """
        self._warm[family] = k if k > first else max(self.system.k0, k - 1)

    def _atoms(self, prob, sol, k, ineqs):
        """Verified eigenpairs extracted from a verified solution, or None.

        Flat truncation and extraction escalate the rank threshold:
        clustered spectra put singular values arbitrarily close to any
        fixed cutoff, and coarser cutoffs see the cluster as one atom.  The
        reconstruction residual gate inside extraction keeps coarse
        readings honest, and the polish, residual and value gates after it
        do the hard verification.  None when nothing extracts, else the
        list of :meth:`_verified_atoms`.
        """
        y = prob.lift(sol.y)
        taus = [self.opts.tau_rank]
        while taus[-1] < 1e-3:
            taus.append(min(10.0 * taus[-1], 1e-3))
        for tau in taus:
            t = flat_truncation(y, self.system.k0, k, tau)
            if t is None:
                continue
            try:
                measure = extract_atoms(y, t, tau, self.opts.seed)
            except ExtractionError as exc:
                self._record(phase="extract", k=k, tau_rank=tau,
                             note=f"extraction failed: {exc}")
                continue
            return self._verified_atoms(measure.points, k, ineqs)
        return None

    def _min_hierarchy(self, extra_ineqs, phase, infeasible, delta=None):
        """Escalate the minimization relaxation until certified or exhausted.

        The step ends "found" with an eigenpair, with the outcome
        ``infeasible`` and a certificate, or "unresolved".
        """
        ineqs = self.base_ineqs + extra_ineqs
        first = self._first("min")
        for k, prob, sol, report, value in self._orders(
                first, build_min_relaxation, ineqs, phase, delta):
            if sol.status is SolveStatus.PRIMAL_INFEASIBLE:
                return StepResult(
                    outcome=infeasible, reason=f"{phase} relaxation infeasible at k={k}",
                    certificate={"k": k, "solution": sol, "report": report})
            pair = self._accept_atoms(self._atoms(prob, sol, k, ineqs), k, value)
            if pair is None:
                continue
            self._succeeded("min", first, k)
            return StepResult(outcome="found", pair=pair)
        return StepResult(outcome="unresolved",
                          reason="no flat truncation or certificate within order budget")

    def _backward_check(self, lam_i, delta):
        """Confirm no eigenvalue hides in (lam_i, lam_i + delta].

        The maximization relaxation under the cap f <= lam_i + delta bounds
        every eigenvalue below the cap from above, so the check passes
        only when the bound its duals prove (verify_solution's ``bound``)
        is within thresh of lam_i.  Otherwise a flat moment vector may
        extract a verified eigenvalue nu inside the gap; when nu matches
        that bound (:func:`_matches`), the next gap is placed below it.
        Returns (passed, nu, atoms): nu is the best upper bound or None, or,
        with atoms, the extracted eigenvalue inside the gap.
        """
        sys_ = self.system
        thresh = min(self.opts.eps_eq, 0.5 * delta)
        ineqs = self.base_ineqs + [Polynomial.constant(sys_.n, lam_i + delta) - sys_.f]
        best = None
        first = self._first("max")
        for k, prob, sol, report, value in self._orders(
                first, build_max_relaxation, ineqs, "backward-max", delta):
            if sol.status is SolveStatus.PRIMAL_INFEASIBLE:
                # cannot happen below a cap above a true eigenvalue
                self._record(phase="backward-max", k=k,
                             note="unexpected infeasibility in backward check")
                continue
            best = value if best is None else min(best, value)
            if value <= lam_i + thresh:
                # the shifted minimization over this gap starts no lower
                # than k (module docstring)
                self._succeeded("max", first, k)
                self._warm["min"] = max(self._warm["min"], k)
                return True, value, False
            atoms = self._atoms(prob, sol, k, ineqs)
            if not atoms:
                continue
            nu_atoms = max(lam for lam, _, _ in atoms)
            self._record(phase="backward-max", k=k, nu_atoms=float(nu_atoms))
            if _matches(nu_atoms, value) and nu_atoms > lam_i + thresh:
                # a genuine eigenvalue sits inside the gap; the next gap ends
                # below it, and this order already sees it
                self._warm["max"] = k
                return False, float(nu_atoms), True
        return False, best, False

    def _verified_atoms(self, points, k, ineqs):
        """Polish extracted points into verified eigenpairs.

        Returns the (lam, v, residual) triples whose polished residual is
        within eps_res and whose vector satisfies the calling context's
        inequalities (otherwise it escaped through an unconverged
        relaxation).  Each rejected point is logged.
        """
        sys_, opts = self.system, self.opts
        pairs = []
        for u in points:
            try:
                u = sys_.normalize(u)
            except (ValueError, FloatingPointError):
                self._record(phase="accept", k=k, note="atom cannot be normalized")
                continue
            lam0 = sys_.eigenvalue_at(u)
            res0 = sys_.residual(lam0, u)
            if res0 > PRE_POLISH_TOL:
                self._record(phase="accept", k=k, note="atom rejected before polish",
                             residual=res0)
                continue
            lam, v, _polished = polish_eigenpair(sys_, None, lam0, u)
            res = sys_.residual(lam, v)
            if res > opts.eps_res:
                self._record(phase="accept", k=k, value=float(lam), residual=res,
                             note="atom failed the residual gate after polish")
                continue
            if any(g.evaluate(v) < -1e-6 * (1.0 + abs(lam)) for g in ineqs):
                self._record(phase="accept", k=k, value=float(lam),
                             note="atom violates a context inequality")
                continue
            pairs.append((lam, v, res))
        return pairs

    def _accept_atoms(self, pairs, k, sdp_value):
        """One eigenpair from the verified (lam, v, residual) pairs, or None.

        ``pairs`` is None when nothing was extracted.  The polished
        eigenvalue must reproduce the relaxation value, the lower bound its
        duals prove (:func:`_matches`): flat truncation makes the optimum an
        eigenvalue for a genuinely converged order, and a tight dual proves
        that optimum.
        """
        sys_, opts = self.system, self.opts
        if pairs is None:
            return None
        if not pairs:
            self._record(phase="accept", k=k, note="atoms failed the residual gate")
            return None
        # keep the cluster at the smallest eigenvalue; stragglers belong to
        # a nearby larger one and will be found in later steps
        lam_min = min(p[0] for p in pairs)
        cluster = [p for p in pairs if p[0] - lam_min <= opts.eps_dedup]
        value_out = float(np.median([p[0] for p in cluster]))
        if not _matches(value_out, sdp_value):
            self._record(phase="accept", k=k, value=float(value_out),
                         note=f"eigenvalue disagrees with relaxation optimum "
                              f"{sdp_value:.8f}; order not converged")
            return None
        kept = [cluster[i] for i in _distinct([v for _, v, _ in cluster])]
        vectors = [v for _, v, _ in kept]
        isolated = all(
            check_isolated(sys_, None, value_out, v) == "isolated"
            for v in vectors)
        return Eigenpair(kind=sys_.kind, value=value_out, vectors=vectors,
                         residual=float(max(res for _, _, res in kept)),
                         isolated=isolated, order_used=k)

    def smallest(self):
        return self._min_hierarchy([], "smallest-min", "no-eigenvalue")

    def next_after(self, lam_i):
        opts = self.opts
        delta = opts.delta0
        saw_atoms = False
        while True:
            passed, nu, atoms = self._backward_check(lam_i, delta)
            self._record(phase="backward-check", delta=float(delta),
                         nu=None if nu is None else float(nu),
                         lam=float(lam_i), passed=passed, atoms=atoms)
            if passed:
                break
            saw_atoms |= atoms
            if atoms:
                # for a continuum nu sits at the cap and the shrink decides
                delta = min(delta / DELTA_SHRINK, (nu - lam_i) / 2.0)
            else:
                delta /= DELTA_SHRINK
            if delta < opts.delta_min:
                # only eigenvalues seen inside the gaps suggest a continuum;
                # without any, no bound came down to lam_i
                return StepResult(outcome="non-isolated" if saw_atoms else "unresolved",
                                  reason="delta exhausted " + (
                                      "with eigenvalues inside the gaps" if saw_atoms
                                      else "before any bound came down to lam_i"))
        shift = self.system.f - (lam_i + delta)
        return self._min_hierarchy([shift], "shifted-min", "no-more", delta)


def smallest_eigenvalue(kind, A, opts=None):
    """First step of the sweep: smallest eigenvalue or a no-eigenvalue proof."""
    return _Driver(EigenSystem(kind, A), opts or SweepOptions()).smallest()


def next_eigenvalue(kind, A, lam_i, opts=None):
    """Next eigenvalue above a certified one, or a proof there is none."""
    return _Driver(EigenSystem(kind, A), opts or SweepOptions()).next_after(float(lam_i))


def full_sweep(kind, A, opts=None):
    """All real eigenvalues of the requested kind, smallest to largest."""
    opts = opts or SweepOptions()
    system = EigenSystem(kind, A)
    driver = _Driver(system, opts)
    pairs = []
    final_certificate = None

    # the first step finds the smallest eigenvalue, each later one the next
    for _ in range(MAX_STEPS + 1):
        step = driver.next_after(pairs[-1].value) if pairs else driver.smallest()
        if step.outcome != "found":
            termination = _ENDINGS[step.outcome]
            final_certificate = step.certificate
            if final_certificate is None:
                driver._record(phase="sweep", note=step.reason)
            break
        if pairs and abs(step.pair.value - pairs[-1].value) <= opts.eps_dedup:
            pairs[-1] = _merge_pairs(pairs[-1], step.pair)
            driver._record(phase="sweep", note="merged rediscovered eigenvalue",
                           value=float(step.pair.value))
        else:
            pairs.append(step.pair)
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
    vectors = a.vectors + b.vectors
    return Eigenpair(kind=a.kind, value=a.value,
                     vectors=[vectors[i] for i in _distinct(vectors)],
                     residual=max(a.residual, b.residual),
                     isolated=a.isolated and b.isolated,
                     order_used=max(a.order_used, b.order_used))
