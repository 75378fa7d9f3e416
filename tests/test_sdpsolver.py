import copy

import numpy as np
import pytest
import scipy.sparse

import fixtures
from tensorspectra.driver import Termination, full_sweep, h_system, z_system
from tensorspectra.momentsdp import (ConicProblem, LocalizingStructure,
                                     build_max_relaxation,
                                     build_min_relaxation, moment_structure,
                                     moment_vector_of_point)
from tensorspectra.oracle import brute_z_n2
from tensorspectra.poly import Polynomial
from tensorspectra.sdpsolver import (SolveStatus, SolverOptions, _nt_scaling,
                                     _scaled_step, _Workspace, solve,
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


def test_iteration_limit_status():
    prob = _toy_min()
    sol = solve(prob, SolverOptions(max_iter=1))
    assert sol.status in (SolveStatus.ITERATION_LIMIT, SolveStatus.INACCURATE)


def test_unconverged_solve_counts_every_step():
    # the ex56 Z order-3 minimization needs 14 steps
    f, hs = z_system(fixtures.ex56())
    prob = build_min_relaxation(f, hs, [], 3)
    assert solve(prob).iterations > 5
    sol = solve(prob, SolverOptions(max_iter=5))
    assert sol.status in (SolveStatus.ITERATION_LIMIT, SolveStatus.INACCURATE)
    assert sol.iterations == 5
    assert 0 <= sol.metrics["best_iteration"] <= 5


def test_solution_metrics_present():
    sol = solve(_toy_min())
    for key in ("primal_residual", "dual_residual", "gap", "tau", "kappa"):
        assert key in sol.metrics


def test_equalities_pin_every_moment():
    # N - p = 0: no moment is left free by the equality rows
    prob = ConicProblem(n=1, k=1, c=np.array([0.0, 0.0, 1.0]), eq_rows=np.eye(3),
                        eq_rhs=np.array([1.0, 0.5, 1.0]), blocks=[moment_structure(1, 1)])
    sol = solve(prob)
    assert sol.status == SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(1.0, abs=1e-7)
    assert verify_solution(prob, sol)["ok"]


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


@pytest.mark.parametrize("q", [1, 3, 8])
def test_scaled_step_matches_cholesky_reference(q):
    rng = np.random.default_rng(q)
    for _ in range(20):
        A, C = rng.standard_normal((2, q, q))
        S = A @ A.T + 0.1 * np.eye(q)
        Z = C @ C.T + 0.1 * np.eye(q)
        dS, dZ = rng.standard_normal((2, q, q))
        dS, dZ = dS + dS.T, dZ + dZ.T
        R, Rinv, sig = _nt_scaling(S, Z)
        Ds, Dz = Rinv @ dS @ Rinv.T, R.T @ dZ @ R
        got = _scaled_step(sig, (Ds + Ds.T) / 2.0, (Dz + Dz.T) / 2.0)
        want = min(_cholesky_step(S, dS), _cholesky_step(Z, dZ))
        assert got == pytest.approx(want, rel=1e-10)


def _nan_at(D, i):
    D = D.copy()
    D[i, i] = np.nan
    return D


@pytest.mark.parametrize("Ds", [_nan_at(np.eye(3), 0), _nan_at(-np.eye(3), 1),
                                np.full((3, 3), np.nan)],
                         ids=["finite-eigenvalues", "lapack-error", "all-nan"])
def test_non_finite_direction_gets_no_step(Ds):
    # LAPACK may return finite eigenvalues for a NaN matrix, or fail on it;
    # either way the solve must not move along that direction
    assert _scaled_step(np.ones(3), Ds, np.eye(3)) == 0.0
    assert _scaled_step(np.ones(3), np.eye(3), Ds) == 0.0


def _parity_problems():
    # ex56 H shifted relaxation at order 5 (the moment block of side 56 as
    # parity parts of 22 and 34, the shift block of side 20 whole) and the
    # ex53 Z nonneg max relaxation with its cap (sides 35, 10, 10)
    f, hs, _m0 = h_system(fixtures.ex56())
    yield build_min_relaxation(f, hs, [f - 0.05], 5)
    f, hs = z_system(fixtures.ex53())
    yield build_max_relaxation(f, hs, [f, Polynomial.constant(3, 0.6) - f], 4)


@pytest.mark.parametrize("prob", list(_parity_problems()), ids=["ex56-H", "ex53-Z"])
def test_workspace_operators_match_block_matrices(prob):
    ws = _Workspace(prob)
    rng = np.random.default_rng(5)
    for _ in range(5):
        v = rng.standard_normal(prob.num_vars)
        Xs = [rng.standard_normal((blk.side, blk.side)) for blk in prob.blocks]
        got = ws.apply(v)
        for blk, M in zip(prob.blocks, got):
            want = (blk.matrix @ v).reshape(blk.side, blk.side)
            assert np.max(np.abs(M - want)) <= 1e-13 * np.max(np.abs(want))
        adj = ws.adjoint(Xs)
        want = sum(blk.matrix.T @ X.ravel() for blk, X in zip(prob.blocks, Xs))
        assert np.max(np.abs(adj - want)) <= 1e-13 * np.max(np.abs(want))
        lhs = sum(np.sum(M * X) for M, X in zip(got, Xs))
        assert lhs == pytest.approx(v @ adj, rel=1e-13)
        # each block's adjoint reads only the symmetric part of its matrix
        for j, X in enumerate(Xs):
            one = [X if i == j else np.zeros_like(Y) for i, Y in enumerate(Xs)]
            a, b = ws.adjoint(one), ws.adjoint([Y.T for Y in one])
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(a))
    assert [blk.side for blk in prob.blocks] in ([22, 34, 20], [35, 10, 10])


@pytest.mark.filterwarnings("error::scipy.linalg.LinAlgWarning")
def test_sweep_without_singular_factorization_warning():
    # a reduced matrix of this sweep once had an exactly zero pivot
    A = Tensor(np.random.default_rng((2015, 17)).standard_normal((2, 2, 2, 2)))
    spec = full_sweep("Z", A)
    assert spec.termination == Termination.CERTIFIED_COMPLETE
    want = sorted(value for value, _vectors in brute_z_n2(A).eigenpairs)
    assert spec.values == pytest.approx(want, abs=1e-5)
