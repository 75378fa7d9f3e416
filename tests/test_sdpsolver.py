import copy
import json
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

import fixtures
from tensorspectra.driver import EigenSystem, Termination, full_sweep, h_system, z_system
from tensorspectra.momentsdp import (ConicProblem, LocalizingStructure, _build_relaxation,
                                     build_max_relaxation,
                                     build_min_relaxation, moment_structure,
                                     moment_vector_of_point)
from tensorspectra.oracle import brute_z_n2
from tensorspectra.poly import Polynomial
from tensorspectra.sdpsolver import (EPS_FEAS, EPS_GAP, EQ_RANK_TOL, SolveStatus,
                                     SolverOptions, _Cone, _equality_factors,
                                     _nt_scaling, _predictor_gap, _predictor_step,
                                     _scaled_step, _schur, _Workspace, solve,
                                     verify_solution)
from tensorspectra.tensor import Tensor


def _toy_min():
    x = Polynomial.variable(1, 0)
    return build_min_relaxation(x * x, [x * x - 1.0], [], 1)


def test_toy_min_optimal():
    sol = solve(_toy_min())
    assert sol.status == SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(1.0, abs=1e-6)
    assert verify_solution(_toy_min(), sol)["ok"]


def test_example13_z_infeasible_with_certificate():
    f, hs = z_system(fixtures.ex13())
    hit = False
    for k in range(3, 6):
        prob = build_min_relaxation(f, hs, [], k)
        sol = solve(prob)
        if sol.status == SolveStatus.PRIMAL_INFEASIBLE:
            report = verify_solution(prob, sol)
            assert report["ok"], report
            hit = True
            break
    assert hit, "no infeasibility certificate within the order budget"


def test_example13_h_infeasible_with_certificate():
    f, hs, _m0 = h_system(fixtures.ex13())
    hit = False
    for k in range(4, 7):
        prob = build_min_relaxation(f, hs, [], k)
        sol = solve(prob)
        if sol.status == SolveStatus.PRIMAL_INFEASIBLE:
            report = verify_solution(prob, sol)
            assert report["ok"], report
            assert report["farkas_bmu"] > 0
            hit = True
            break
    assert hit


def test_example51_value_at_order3():
    f, hs = z_system(fixtures.ex51())
    prob = build_min_relaxation(f, hs, [], 3)
    sol = solve(prob)
    assert sol.status == SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(23.0, abs=5e-4)


def test_verify_rejects_corrupted_point():
    prob = _toy_min()
    sol = solve(prob)
    bad = copy.deepcopy(sol)
    bad.y = sol.y.copy()
    bad.y[prob.support == 2] += 0.1   # moment x^2: breaks the equality x^2 - 1
    report = verify_solution(prob, bad)
    assert report["eq_residual"] > 1e-6
    assert not report["checks"]["equalities"]
    assert not report["ok"]


def _ex56_z_above_the_top(k):
    # the last step of the ex56 Z sweep: the minimization above its largest
    # eigenvalue 0.4571724 plus the step gap 0.05, which is infeasible
    f, hs = z_system(fixtures.ex56())
    return build_min_relaxation(f, hs, [f - (0.4571724209083913 + 0.05)], k)


@pytest.mark.parametrize("k", [5, 6])
def test_high_order_rays_are_proven_and_scaled_ones_are_not(k):
    # the honest rays have certificate norms near 2e6 and 4e6 against
    # b.mu = 1: a proof needs no tolerance relative to that norm.  With mu
    # scaled by 1.1, b.mu is 1.1 and the slack over 100: nothing is proven
    prob = _ex56_z_above_the_top(k)
    sol = solve(prob)
    assert sol.status is SolveStatus.PRIMAL_INFEASIBLE
    report = verify_solution(prob, sol)
    assert report["ok"], report
    assert report["farkas_bmu"] == pytest.approx(1.0)
    assert report["slack"] < 1e-6
    scaled = replace(sol, certificate=dict(sol.certificate, mu=1.1 * sol.certificate["mu"]))
    report = verify_solution(prob, scaled)
    assert report["checks"]["finite"] and not report["checks"]["proven"]
    assert not report["ok"]


def test_a_ray_within_the_rounding_of_r_proves_nothing():
    # the honest ex56 Z ray at k = 5 against the right-hand side scaled by
    # beta, so that b.mu = beta lies above the slack without its rounding
    # term and below the slack with it.  The scaled relaxation is still
    # infeasible and its moments still within 1, but this ray no longer
    # proves it
    prob = _ex56_z_above_the_top(5)
    sol = solve(prob)
    report = verify_solution(prob, sol)
    assert report["ok"] and 0.0 < report["rounding"] < report["slack"]
    beta = report["slack"] - report["rounding"] / 2.0
    scaled = verify_solution(replace(prob, eq_rhs=beta * prob.eq_rhs), sol)
    assert scaled["slack"] == report["slack"]
    assert scaled["slack"] - scaled["rounding"] < scaled["farkas_bmu"] < scaled["slack"]
    assert not scaled["checks"]["proven"] and not scaled["ok"]


def test_an_indefinite_ray_block_proves_nothing():
    # a symmetric direction N in the kernel of the moment block's adjoint
    # leaves G^T mu + adj Z as it is; Z + t N with a negative eigenvalue
    # below -1 then leaves b.mu = 1 under the slack it adds to the ray's
    prob = _ex56_z_above_the_top(4)
    sol = solve(prob)
    block = prob.blocks[0]
    N = scipy.linalg.null_space(block.matrix.toarray().T)[:, 0].reshape(block.side, block.side)
    N = N + N.T
    if scipy.linalg.eigvalsh(N)[0] >= 0.0:
        N = -N
    Zs = [Z.copy() for Z in sol.certificate["blocks"]]
    Zs[0] += N * (scipy.linalg.eigvalsh(Zs[0])[-1] + 1.0) / -scipy.linalg.eigvalsh(N)[0]
    assert scipy.linalg.eigvalsh(Zs[0])[0] <= -1.0 + 1e-9
    assert np.max(np.abs(block.matrix.T @ (Zs[0] - sol.certificate["blocks"][0]).ravel())) < 1e-9
    report = verify_solution(prob, replace(sol, certificate=dict(sol.certificate, blocks=Zs)))
    assert report["farkas_bmu"] == pytest.approx(1.0) and report["slack"] > 1.0
    assert not report["checks"]["proven"]


def test_without_a_moment_bound_nothing_is_proven():
    prob = _ex56_z_above_the_top(4)
    assert prob.moment_bound == 1.0
    sol = solve(prob)
    assert verify_solution(prob, sol)["ok"]
    report = verify_solution(replace(prob, moment_bound=None), sol)
    assert report["slack"] == np.inf
    assert not report["checks"]["proven"] and not report["ok"]
    # a pair still passes on its y, and its duals prove no finite bound
    toy = _toy_min()
    pair = solve(toy)
    assert verify_solution(toy, pair)["bound"] == pytest.approx(1.0, abs=1e-6)
    report = verify_solution(replace(toy, moment_bound=None), pair)
    assert report["ok"] and report["bound"] == -np.inf


def test_pair_bound_holds_in_the_problem_sense():
    # the bound of a minimization lies below c.y, of a maximization above
    f, hs = z_system(fixtures.ex51())
    for build in (build_min_relaxation, build_max_relaxation):
        prob = build(f, hs, [], 4)
        sol = solve(prob)
        value = (-1.0 if prob.maximize else 1.0) * float(prob.c @ sol.y)
        report = verify_solution(prob, sol)
        assert report["ok"]
        assert sol.objective == pytest.approx(value)
        assert abs(report["bound"] - value) <= 1e-5
        assert (report["bound"] >= value) == prob.maximize


def test_verify_reports_survive_json():
    # checks are Python bools and values floats, for a pair, a ray and a
    # malformed result alike
    toy = _toy_min()
    ray = _ex56_z_above_the_top(4)
    for prob, sol in ((toy, solve(toy)), (ray, solve(ray)), (toy, None)):
        report = verify_solution(prob, sol)
        assert json.loads(json.dumps(report)) == report
        assert all(type(v) is bool for v in report["checks"].values())
        assert all(type(v) in (float, list) for k, v in report.items()
                   if k not in ("status", "checks", "ok"))


def test_weak_duality_on_optimal():
    f, hs = z_system(fixtures.ex51())
    prob = build_min_relaxation(f, hs, [], 3)
    sol = solve(prob)
    pobj = float(prob.c @ sol.y)
    dobj = float(prob.eq_rhs @ sol.eq_duals)
    assert dobj <= pobj + 1e-8 * (1.0 + abs(pobj))


def test_never_infeasible_with_known_feasible_point():
    # problems seeded with an oracle eigenpair must never report infeasible
    count = 0
    for seed in range(12):
        A = fixtures.random_tensor(3, 2, seed=500 + seed)
        res = brute_z_n2(A)
        if not res.eigenpairs:
            continue
        count += 1
        f, hs = z_system(A)
        for k in (2, 3):
            prob = build_min_relaxation(f, hs, [], k)
            u = res.eigenpairs[0][1][0]
            y = moment_vector_of_point(u, k)
            assert np.max(np.abs(prob.eq_rows @ y.values[prob.support] - prob.eq_rhs)) < 1e-8
            sol = solve(prob)
            assert sol.status != SolveStatus.PRIMAL_INFEASIBLE
    assert count >= 5


def test_deterministic_iterations_and_status():
    f, hs = z_system(fixtures.ex51())
    prob = build_min_relaxation(f, hs, [], 3)
    a = solve(prob)
    b = solve(prob)
    assert a.status == b.status
    assert a.iterations == b.iterations
    assert np.array_equal(a.y, b.y)


@pytest.mark.parametrize("build", [
    lambda x: build_min_relaxation(x, [], [], 1),
    lambda x: build_min_relaxation(x, [], [], 2),
    lambda x: build_max_relaxation(x * x, [], [], 2)], ids=["min-k1", "min-k2", "max-k2"])
def test_unbounded_problem_yields_dual_infeasibility_ray(build):
    # with only the moment matrix constraint, min y_x1 and max y_x1^2 are
    # unbounded; without the ray test the k = 2 minimization ends
    # INACCURATE at merit 1.3e-6 with a y that verify_solution passes, which
    # the driver, which reads no solver merit, would accept
    x = Polynomial.variable(2, 0)
    prob = build(x)
    sol = solve(prob)
    assert sol.status == SolveStatus.DUAL_INFEASIBLE
    ray = sol.certificate["ray"]
    scale = max(1.0, np.max(np.abs(ray)))
    assert prob.c @ ray == pytest.approx(-1.0)
    assert np.max(np.abs(prob.eq_rows @ ray)) <= 1e-7 * scale


def _assert_on_the_equalities(prob, sol):
    """The returned y meets G y = b to rounding, and (mu, Z_j) meets the dual
    equation up to its null-space part: G (c - G^T mu - sum_j adj_j(Z_j))
    vanishes to rounding, so mu holds the equalities' multipliers."""
    assert verify_solution(prob, sol)["eq_residual"] <= 1e-12 * (1.0 + np.max(np.abs(prob.eq_rhs)))
    adj = sum(blk.matrix.T @ Zj.ravel() for blk, Zj in zip(prob.blocks, sol.block_duals))
    r = prob.c - prob.eq_rows.T @ sol.eq_duals - adj
    assert np.max(np.abs(prob.eq_rows @ r)) <= 1e-12 * (1.0 + np.max(np.abs(prob.c)))


def test_iteration_limit_status():
    prob = _toy_min()
    sol = solve(prob, SolverOptions(max_iter=1))
    assert sol.status in (SolveStatus.ITERATION_LIMIT, SolveStatus.INACCURATE)
    _assert_on_the_equalities(prob, sol)


def test_unconverged_solve_counts_every_step():
    # the ex56 Z order-3 and ex51 H order-4 minimizations need 14 and 8 steps
    for prob in (build_min_relaxation(*z_system(fixtures.ex56()), [], 3),
                 build_min_relaxation(*h_system(fixtures.ex51())[:2], [], 4)):
        assert solve(prob).iterations > 5
        sol = solve(prob, SolverOptions(max_iter=5))
        assert sol.status in (SolveStatus.ITERATION_LIMIT, SolveStatus.INACCURATE)
        assert sol.iterations == 5
        assert 0 <= sol.metrics["best_iteration"] <= 5
        _assert_on_the_equalities(prob, sol)


def test_solution_metrics_present():
    sol = solve(_toy_min())
    for key in ("primal_residual", "dual_residual", "gap", "tau", "kappa"):
        assert key in sol.metrics


def test_equalities_pin_every_moment():
    # rank G = N: no moment is left free by the equality rows
    prob = ConicProblem(n=1, k=1, c=np.array([0.0, 0.0, 1.0]), eq_rows=np.eye(3),
                        eq_rhs=np.array([1.0, 0.5, 1.0]), blocks=[moment_structure(1, 1)])
    sol = solve(prob)
    assert sol.status == SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(1.0, abs=1e-7)
    assert verify_solution(prob, sol)["ok"]


def _assert_same_bound(*probs):
    """Each problem solves OPTIMAL, and the bounds they prove agree.

    Each OPTIMAL solve puts the optimum between its proven bound and its
    c.y, an interval no wider than the stopping rule allows (see
    test_reduced_relaxation_matches_full), so the bounds of one relaxation
    agree within the widest of the intervals."""
    bounds, widths = [], []
    for p in probs:
        sol = solve(p)
        assert sol.status is SolveStatus.OPTIMAL
        report = verify_solution(p, sol)
        assert report["ok"], report
        width = 2.0 * (EPS_GAP * (1.0 + 2.0 * abs(report["bound"])) +
                       p.num_vars * EPS_FEAS * (1.0 + np.max(np.abs(p.c))))
        assert p.c @ sol.y - report["bound"] <= width
        bounds.append(report["bound"])
        widths.append(width)
    assert max(bounds) - min(bounds) <= max(widths)


@pytest.mark.parametrize("name,kind,k", [("ex51", "H", 4), ("ex56", "H", 5), ("ex56", "Z", 4)],
                         ids=["ex51-H", "ex56-H", "ex56-Z"])
def test_permuted_and_rescaled_rows_prove_the_same_bound(name, kind, k):
    # permuting the equality rows and scaling each by a factor in [0.5, 2]
    # changes the QR factors the solver eliminates them with, but not the
    # relaxation
    A = getattr(fixtures, name)()
    f, hs = z_system(A) if kind == "Z" else h_system(A)[:2]
    prob = build_min_relaxation(f, hs, [], k)
    rng = np.random.default_rng(k)
    perm = rng.permutation(prob.eq_rows.shape[0])
    scale = rng.uniform(0.5, 2.0, perm.size)
    moved = replace(prob, eq_rows=prob.eq_rows[perm] * scale[:, None],
                    eq_rhs=prob.eq_rhs[perm] * scale)
    _assert_same_bound(prob, moved)


def test_dependent_rows_prove_the_same_bound_as_their_independent_twin():
    # the ex51 H minimization at order 4 has 10 independent equality rows;
    # a copy of row 3 and the sum of rows 1 and 2, put first, change the
    # rows the pivoted QR keeps, but not the relaxation
    f, hs = h_system(fixtures.ex51())[:2]
    twin = build_min_relaxation(f, hs, [], 4)
    G, b = twin.eq_rows, twin.eq_rhs
    assert np.linalg.matrix_rank(G) == G.shape[0] == 10
    extra = np.array([G[3], G[1] + G[2]])
    prob = replace(twin, eq_rows=np.vstack([extra, G]),
                   eq_rhs=np.concatenate([[b[3], b[1] + b[2]], b]))
    B, _pinv_t, farkas = _equality_factors(_Workspace(prob), None)
    assert farkas is None and B.shape[1] == twin.num_vars - 10
    _assert_same_bound(twin, prob)


def test_inconsistent_equalities_end_on_a_proven_ray_without_iterating():
    # over the moments (y0, y1, y2) of n = 1, k = 1: y0 = 1, y0 - y2 = 0 and
    # y2 = 0, so the unit row is the sum of the other two, and their right-
    # hand sides disagree.  The only combination is mu = (1, 1, -1), b.mu = 1
    G = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    prob = ConicProblem(n=1, k=1, c=np.array([0.0, 1.0, 0.0]), eq_rows=G,
                        eq_rhs=np.array([1.0, 0.0, 0.0]), blocks=[moment_structure(1, 1)],
                        moment_bound=1.0)
    sol = solve(prob)
    assert sol.status is SolveStatus.PRIMAL_INFEASIBLE
    assert sol.iterations == 0
    assert np.allclose(sol.certificate["mu"], [1.0, 1.0, -1.0], rtol=0.0, atol=1e-15)
    report = verify_solution(prob, sol)
    assert report["ok"], report
    assert report["farkas_bmu"] == pytest.approx(1.0)


@pytest.mark.parametrize("kind", ["Z", "H"])
@pytest.mark.parametrize("make", [c[1] for c in fixtures.SWEPT],
                         ids=[c[0] for c in fixtures.SWEPT])
def test_equality_factors_of_every_cell(make, kind):
    # at k0 and k0 + 1, over the even moments of a sign-invariant system and
    # over every moment, G holds every localizing cell, and at k0 + 1 some
    # of them depend on the others.  The kept rows are independent and span
    # every row: each row of G B is within the pivoted QR's threshold
    # EQ_RANK_TOL max_i |G_i|, B^T B = I, and (G^+)^T inverts G on the kept
    # rows and is zero on the others
    system = EigenSystem(kind, make())
    for k in (system.k0, system.k0 + 1):
        for reduce in (True, False):
            prob = _build_relaxation(system.f, system.h, [], k, False, None, reduce=reduce)
            G = prob.eq_rows
            B, pinv_t, farkas = _equality_factors(_Workspace(prob), None)
            assert farkas is None
            rank = prob.num_vars - B.shape[1]
            kept = np.flatnonzero(np.any(pinv_t != 0.0, axis=1))
            assert len(kept) == rank == np.linalg.matrix_rank(G[kept])
            assert np.linalg.matrix_rank(G) == rank
            assert np.linalg.norm(G @ B, axis=1).max() <= \
                EQ_RANK_TOL * np.linalg.norm(G, axis=1).max()
            assert np.max(np.abs(B.T @ B - np.eye(B.shape[1]))) <= 1e-13
            assert np.max(np.abs(G[kept] @ pinv_t[kept].T - np.eye(rank))) <= 1e-10
            assert np.max(np.abs(G @ (pinv_t.T @ prob.eq_rhs) - prob.eq_rhs)) <= 1e-12


def test_moment_in_no_block():
    # y2 is free of the equalities and of the only block, so the reduced
    # Schur matrix is singular up to static_reg
    block = LocalizingStructure(q=Polynomial.constant(1, 1.0), k=1, n=1, side=1,
                                num_moments=3,
                                matrix=scipy.sparse.csr_matrix([[0.0, 1.0, 0.0]]))
    prob = ConicProblem(n=1, k=1, c=np.array([0.0, 1.0, 0.0]),
                        eq_rows=np.array([[1.0, 0.0, 0.0]]), eq_rhs=np.array([1.0]),
                        blocks=[block])
    sol = solve(prob)
    assert sol.status == SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(0.0, abs=1e-7)
    assert verify_solution(prob, sol)["ok"]


def _cholesky_step(M, dM):
    """Reference: largest a with M + a*dM PSD, through a Cholesky of M."""
    Linv = np.linalg.inv(np.linalg.cholesky(M))
    W = Linv @ dM @ Linv.T
    lam = np.linalg.eigvalsh((W + W.T) / 2.0)[0]
    return np.inf if lam >= 0.0 else 1.0 / (-lam)


def _scaling_hh(cone, sig):
    # sig_i^-1/2 sig_l^-1/2 at cell (i, l) of each block, as solve forms it
    h = sig ** -0.5
    return h[cone.row] * h[cone.col]


@pytest.mark.parametrize("q", [1, 3, 8])
def test_scaled_step_matches_cholesky_reference(q):
    # a block of side q and one of side 2 in one flat cone vector: the step
    # is the least over both blocks of the Cholesky reference's
    rng = np.random.default_rng(q)
    cone = _Cone([q, 2])
    for _ in range(20):
        sigs, Ds, Dz, want = [], [], [], np.inf
        for side in cone.sides:
            A, C = rng.standard_normal((2, side, side))
            S = A @ A.T + 0.1 * np.eye(side)
            Z = C @ C.T + 0.1 * np.eye(side)
            dS, dZ = rng.standard_normal((2, side, side))
            dS, dZ = dS + dS.T, dZ + dZ.T
            R, Rinv, sig = _nt_scaling(S, Z)
            sigs.append(sig)
            Ds.append(Rinv @ dS @ Rinv.T)
            Dz.append(R.T @ dZ @ R)
            want = min(want, _cholesky_step(S, dS), _cholesky_step(Z, dZ))
        hh = _scaling_hh(cone, np.concatenate(sigs))
        got = _scaled_step(cone, hh, cone.sym(cone.flatten(Ds)), cone.sym(cone.flatten(Dz)))
        assert got == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("q", [1, 3, 8])
def test_predictor_step_and_gap_match_unscaled_references(q):
    # the predictor's E is -diag(sig) and its Ds is E - Dz: the step from
    # hh Dz alone is _scaled_step's on both sides, and the gap from
    # sig.sig and <Ds, Dz> is <S + a dS, Z + a dZ> with dS = R Ds R^T and
    # dZ = Rinv^T Dz Rinv, at the step's own length and below it
    rng = np.random.default_rng(q + 10)
    cone = _Cone([q, 3])
    for _ in range(20):
        pairs = []
        for side in cone.sides:
            A, C = rng.standard_normal((2, side, side))
            S = A @ A.T + 0.1 * np.eye(side)
            Z = C @ C.T + 0.1 * np.eye(side)
            pairs.append((S, Z, *_nt_scaling(S, Z)))
        Dz = cone.sym(rng.standard_normal(cone.size))
        sig = np.concatenate([p[4] for p in pairs])
        hh = _scaling_hh(cone, sig)
        E = np.zeros(cone.size)
        E[cone.diag] = -sig
        Ds = E - Dz
        step = _predictor_step(cone, hh, Dz)
        assert step == pytest.approx(_scaled_step(cone, hh, Ds, Dz), rel=1e-12)
        for a in (min(1.0, step), rng.uniform(0.0, min(1.0, step))):
            want = 0.0
            for (S, Z, R, Rinv, _sig), Dsj, Dzj in zip(pairs, cone.views(Ds),
                                                      cone.views(Dz)):
                dS, dZ = R @ Dsj @ R.T, Rinv.T @ Dzj @ Rinv
                want += np.sum((S + a * dS) * (Z + a * dZ))
            assert _predictor_gap(sig, Ds, Dz, a) == pytest.approx(want, rel=1e-12)


def test_non_finite_predictor_direction_gets_no_step():
    cone = _Cone([2, 3])
    hh = _scaling_hh(cone, np.ones(cone.dim))
    for Dz in (cone.flatten([np.eye(2), _nan_at(np.eye(3), 0)]),
               cone.flatten([np.full((2, 2), np.inf), np.eye(3)])):
        assert _predictor_step(cone, hh, Dz) == 0.0


def _nan_at(D, i):
    D = D.copy()
    D[i, i] = np.nan
    return D


@pytest.mark.parametrize("Ds", [_nan_at(np.eye(3), 0), _nan_at(-np.eye(3), 1),
                                np.full((3, 3), np.nan)],
                         ids=["finite-eigenvalues", "lapack-error", "all-nan"])
def test_non_finite_direction_gets_no_step(Ds):
    # LAPACK may return finite eigenvalues for a NaN matrix, or fail on it;
    # either way the solve must not move along that direction, whichever
    # block holds it
    cone = _Cone([2, 3])
    hh = _scaling_hh(cone, np.ones(cone.dim))
    bad = cone.flatten([np.eye(2), Ds])
    good = cone.flatten([np.eye(2), np.eye(3)])
    assert _scaled_step(cone, hh, bad, good) == 0.0
    assert _scaled_step(cone, hh, good, bad) == 0.0


def test_flat_symmetric_part_matches_blocks():
    # (x + x[T]) / 2 on the flat vector is (X_j + X_j^T) / 2 on every block,
    # bit for bit, and T is its own inverse
    cone = _Cone([1, 3, 8, 2])
    rng = np.random.default_rng(9)
    Xs = [rng.standard_normal((q, q)) for q in cone.sides]
    x = cone.flatten(Xs)
    for got, X in zip(cone.views(cone.sym(x)), Xs):
        assert np.array_equal(got, (X + X.T) / 2.0)
    assert np.array_equal(cone.T[cone.T], np.arange(cone.size))
    assert np.array_equal(x[cone.diag], np.concatenate([np.diag(X) for X in Xs]))


def _parity_problems():
    # ex56 H shifted relaxation at order 5 (m0 = 4: the moment block of
    # side 56 keeps 52 rows, as parity parts of 21 and 31, and the shift
    # block all 20 of its rows) and the ex53 Z nonneg max relaxation with
    # its cap (m0 = 2: sides 35, 10 and 10 keep 25, 9 and 9 rows)
    f, hs, _m0 = h_system(fixtures.ex56())
    yield build_min_relaxation(f, hs, [f - 0.05], 5)
    f, hs = z_system(fixtures.ex53())
    yield build_max_relaxation(f, hs, [f, Polynomial.constant(3, 0.6) - f], 4)


@pytest.mark.parametrize("prob", list(_parity_problems()), ids=["ex56-H", "ex53-Z"])
def test_workspace_operators_match_block_matrices(prob):
    ws = _Workspace(prob)
    cone = ws.cone
    rng = np.random.default_rng(5)
    for _ in range(5):
        v = rng.standard_normal(prob.num_vars)
        Xs = [rng.standard_normal((blk.side, blk.side)) for blk in prob.blocks]
        got = cone.views(ws.apply(v))
        for blk, M in zip(prob.blocks, got):
            want = (blk.matrix @ v).reshape(blk.side, blk.side)
            assert np.max(np.abs(M - want)) <= 1e-13 * np.max(np.abs(want))
        adj = ws.adjoint(cone.flatten(Xs))
        want = sum(blk.matrix.T @ X.ravel() for blk, X in zip(prob.blocks, Xs))
        assert np.max(np.abs(adj - want)) <= 1e-13 * np.max(np.abs(want))
        lhs = sum(np.sum(M * X) for M, X in zip(got, Xs))
        assert lhs == pytest.approx(v @ adj, rel=1e-13)
        # each block's adjoint reads only the symmetric part of its matrix
        for j, X in enumerate(Xs):
            one = [X if i == j else np.zeros_like(Y) for i, Y in enumerate(Xs)]
            a = ws.adjoint(cone.flatten(one))
            b = ws.adjoint(cone.flatten([Y.T for Y in one]))
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(a))
    assert cone.sides in ([21, 31, 20], [25, 9, 9])


def test_one_read_only_workspace_per_problem():
    # solve makes the workspace and verify_solution reads the same one; its
    # arrays are read-only copies, so a later change to the problem's own
    # arrays does not reach the check, and a replaced problem starts afresh
    prob = _toy_min()
    assert prob.workspace is None
    sol = solve(prob)
    ws = prob.workspace
    report = verify_solution(prob, sol)
    assert prob.workspace is ws and report["ok"]
    for a in (ws.G, ws.b, ws.c, ws.rows, ws.cols, ws.data, ws.cone.T, ws.cone.eye):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0
    prob.eq_rhs[0] = 2.0
    assert verify_solution(prob, sol) == report
    assert replace(prob).workspace is None
    assert not verify_solution(replace(prob), sol)["ok"]


@pytest.mark.parametrize("batch", [None, 500], ids=["one-batch", "small-batches"])
def test_schur_matches_dense_reference(batch, monkeypatch):
    # B^T sum_j A_j^T (W_j^-1 kron W_j^-1) A_j B, with A_j block j's operator
    # and W_j^-1 = Rinv_j^T Rinv_j the NT scaling of random positive definite
    # (S_j, Z_j), for a random orthonormal B, on a random m = 4, n = 3 H
    # relaxation: the parity parts, of sides 21 and 13, of its moment block
    # (x1^4, a lead of the sphere, dropped), and its localizing block of
    # side 10.  500 entries per batch split
    # every block's scaled operators into batches.
    if batch is not None:
        monkeypatch.setattr("tensorspectra.sdpsolver._BATCH", batch)
    A = Tensor(np.random.default_rng((4, 3, 5)).standard_normal((3, 3, 3, 3)))
    f, hs, _m0 = h_system(A)
    prob = build_min_relaxation(f, hs, [f - 1.0], 4)
    assert [(blk.side, blk.parity) for blk in prob.blocks] == [(21, 0), (13, 1), (10, None)]
    rng = np.random.default_rng(11)
    m = 60
    B = np.linalg.qr(rng.standard_normal((prob.num_vars, m)))[0]
    ops, Rinvs, want = [], [], np.zeros((m, m))
    for blk in prob.blocks:
        q = blk.side
        X, Y = rng.standard_normal((2, q, q))
        _R, Rinv, _sig = _nt_scaling(X @ X.T + 0.1 * np.eye(q), Y @ Y.T + 0.1 * np.eye(q))
        ops.append(np.ascontiguousarray((blk.matrix @ B).T).reshape(m, q, q))
        Rinvs.append(Rinv)
        Wi = Rinv.T @ Rinv
        AB = blk.matrix.toarray() @ B
        want += AB.T @ np.kron(Wi, Wi) @ AB
    buf = np.empty(m * 21 * 21)
    got = np.zeros((m, m))
    _schur(ops, Rinvs, [np.ascontiguousarray(Rinv.T) for Rinv in Rinvs], buf, got)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_returned_blocks_own_their_memory():
    # block duals and certificate blocks are per-block arrays of their own:
    # changing one changes no other array of any result, and a later solve
    # leaves an earlier result as it was
    pair_prob, ray_prob = _toy_min(), _ex56_z_above_the_top(4)
    pair, ray = solve(pair_prob), solve(ray_prob)
    assert ray.status is SolveStatus.PRIMAL_INFEASIBLE
    results = [pair.block_duals, ray.certificate["blocks"]]
    saved = [[Z.copy() for Z in blocks] for blocks in results]
    for blocks in results:
        assert all(Z.flags.owndata and Z.flags.c_contiguous for Z in blocks)
    solve(pair_prob)
    solve(ray_prob)
    for blocks, copies in zip(results, saved):
        assert all(np.array_equal(Z, C) for Z, C in zip(blocks, copies))
    for blocks in results:
        for Z in blocks:
            Z += 1.0
    assert all(np.array_equal(Z, C + 1.0) for blocks, copies in zip(results, saved)
               for Z, C in zip(blocks, copies))
    assert np.array_equal(pair.y, solve(pair_prob).y)


@pytest.mark.filterwarnings("error::scipy.linalg.LinAlgWarning")
def test_sweep_without_singular_factorization_warning():
    # a reduced matrix of this sweep once had an exactly zero pivot
    A = Tensor(np.random.default_rng((2015, 17)).standard_normal((2, 2, 2, 2)))
    spec = full_sweep("Z", A)
    assert spec.termination == Termination.CERTIFIED_COMPLETE
    want = sorted(value for value, _vectors in brute_z_n2(A).eigenpairs)
    assert spec.values == pytest.approx(want, abs=1e-5)
