import gc
import itertools
import weakref
from dataclasses import replace

import numpy as np
import pytest

import fixtures
from tensorspectra.driver import (EigenSystem, Eigenpair, StepResult, SweepOptions,
                                  Termination, _Driver, check_isolated, full_sweep,
                                  h_count_bound, h_system, next_eigenvalue,
                                  polish_eigenpair, smallest_eigenvalue, z_system)
from tensorspectra.poly import Polynomial, tensor_to_poly
from tensorspectra.sdpsolver import SolveStatus, SolverOptions, solve, verify_solution
from tensorspectra.tensor import Tensor, identity_tensor


def test_z_system_shapes():
    A = fixtures.ex51()
    f, hs = z_system(A)
    assert f.degree == 4
    assert len(hs) == 3
    assert all(h.degree == 5 for h in hs[:2])
    assert hs[2].degree == 2


def test_z_system_ex14_explicit():
    A = fixtures.ex14()
    f, hs = z_system(A)
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    fx = x1 ** 4 + x1 ** 2 * x2 ** 2
    assert f == fx
    assert hs[0] == x1 ** 3 - fx * x1
    assert hs[1] == x1 ** 2 * x2 - fx * x2
    assert hs[2] == x1 ** 2 + x2 ** 2 - 1.0


def test_z_system_identity_objective():
    I = identity_tensor(3, 2)
    f, _ = z_system(I)
    assert f == tensor_to_poly(I)


def test_h_system_normalization_power():
    for m, m0 in [(2, 2), (3, 2), (4, 4), (5, 4)]:
        A = fixtures.random_tensor(m, 2, seed=m)
        f, hs, got = h_system(A)
        assert got == m0
        assert f.degree <= m0
        assert len(hs) == 3


def test_h_system_order4_objective_is_full_contraction():
    A = fixtures.ex51()
    f, _, m0 = h_system(A)
    assert m0 == 4
    assert f == tensor_to_poly(A)


def test_system_residual_identity_on_variety():
    # any solution of the defining equations is an eigenpair at value f(u)
    from tensorspectra.oracle import brute_h_n2, brute_z_n2

    # m = 3, 4, 5 give H-systems with p - 1 = 1, 2, 3 and m0 - p = 0, 1, 0
    for m, seed in itertools.product((3, 4, 5), (901, 902)):
        A = fixtures.random_tensor(m, 2, seed=seed)
        for kind, oracle in (("Z", brute_z_n2), ("H", brute_h_n2)):
            system = EigenSystem(kind, A)
            res = oracle(A)
            for lam, vecs in res.eigenpairs:
                for u in vecs:
                    assert system.eigenvalue_at(u) == pytest.approx(lam, abs=1e-9)
                    assert system.residual(lam, u) <= 1e-9


def test_jacobian_matches_finite_differences():
    for m, kind in itertools.product((3, 4, 5), ("Z", "H")):
        A = fixtures.random_tensor(m, 3, seed=42)
        system = EigenSystem(kind, A)
        rng = np.random.default_rng(5)
        lam = 0.7
        x = rng.normal(size=3)
        J = system.jacobian(lam, x)
        h = 1e-6
        for col in range(4):
            dp = np.zeros(4)
            dp[col] = h
            Fp = system.F(lam + dp[0], x + dp[1:])
            Fm = system.F(lam - dp[0], x - dp[1:])
            fd = (Fp - Fm) / (2 * h)
            assert np.max(np.abs(J[:, col] - fd)) < 1e-5


def test_h_count_bound_values():
    assert h_count_bound(4, 2) == 6
    assert h_count_bound(2, 7) == 7
    assert h_count_bound(3, 3) == 12


def test_polish_converges_from_perturbation():
    A = fixtures.ex51()
    lam, u, ok = polish_eigenpair("Z", A, 23.0 + 1e-3, np.array([1e-3, 0.9999]))
    assert ok
    assert lam == pytest.approx(23.0, abs=1e-10)
    assert abs(abs(u[1]) - 1.0) < 1e-10


def test_polish_fixed_point():
    A = fixtures.ex51()
    lam, u, ok = polish_eigenpair("Z", A, 23.0, np.array([0.0, 1.0]))
    assert ok
    assert lam == pytest.approx(23.0, abs=1e-13)
    assert np.max(np.abs(u - [0.0, 1.0])) < 1e-13


def test_polish_keeps_its_last_step(monkeypatch):
    # the one step allowed here reaches a residual of 3.6e-15 from 2.6e-8;
    # the point a polish ends on is a candidate like every earlier one
    monkeypatch.setattr("tensorspectra.driver.POLISH_MAX_ITER", 1)
    system = EigenSystem("Z", fixtures.ex51())
    u = system.normalize([1e-8, 1.0])
    assert system.residual(23.0 + 1e-8, u) > 1e-8
    lam, v, ok = polish_eigenpair(system, None, 23.0 + 1e-8, u)
    assert ok
    assert system.residual(lam, v) <= 1e-13


def test_check_isolated_ex51():
    assert check_isolated("Z", fixtures.ex51(), 23.0, [0.0, 1.0]) == "isolated"


def test_check_isolated_continuum_inconclusive():
    a = np.sqrt(0.5)
    assert check_isolated("Z", fixtures.ex14(), 0.5, [a, a]) == "inconclusive"


def test_check_isolated_diagonal_tensor():
    rng = np.random.default_rng(6)
    d = rng.uniform(1.0, 2.0, size=3)
    E = np.zeros((3, 3, 3, 3))
    for i in range(3):
        E[i, i, i, i] = d[i]
    A = Tensor(E)
    for i in range(3):
        u = np.zeros(3)
        u[i] = 1.0
        system = EigenSystem("Z", A)
        assert system.residual(d[i], u) < 1e-12
        assert check_isolated("Z", A, d[i], u) == "isolated"


def test_smallest_eigenvalue_found_ex51():
    out = smallest_eigenvalue("Z", fixtures.ex51())
    assert out.outcome == "found"
    assert out.pair.value == pytest.approx(23.0, abs=5e-4)
    vecs = sorted(tuple(np.round(np.abs(v), 4)) for v in out.pair.vectors)
    assert vecs == [(0.0, 1.0), (0.0, 1.0)]


def test_smallest_eigenvalue_none_ex13():
    for kind in ("Z", "H"):
        out = smallest_eigenvalue(kind, fixtures.ex13())
        assert out.outcome == "no-eigenvalue"
        assert out.certificate is not None
        assert out.certificate["report"]["ok"]


def test_next_eigenvalue_ex51():
    out = next_eigenvalue("Z", fixtures.ex51(), 23.0)
    assert out.outcome == "found"
    assert out.pair.value == pytest.approx(25.1, abs=5e-4)
    out = next_eigenvalue("Z", fixtures.ex51(), 25.1)
    assert out.outcome == "no-more"
    assert out.certificate["report"]["ok"]


def test_next_eigenvalue_continuum_ex14():
    out = next_eigenvalue("Z", fixtures.ex14(), 0.5)
    assert out.outcome == "non-isolated"


def test_gap_placed_below_eigenvalue_the_backward_check_found():
    # ex56 Z: the check after the first value extracts the second one, at
    # 2.06e-4; shrinking delta by 5 alone re-found it four times (21 solves)
    spec = full_sweep("Z", fixtures.ex56())
    assert spec.termination == Termination.CERTIFIED_COMPLETE
    assert spec.values == pytest.approx(
        [1.7070120288207452e-08, 0.0002062420871917647, 0.4571724209083913], abs=1e-8)
    assert spec.counters["sdp_solves"] <= 14
    checks = [e for e in spec.log if e.get("phase") == "backward-check"]
    assert all(isinstance(e["atoms"], bool) for e in checks)
    for e, after in zip(checks, checks[1:]):
        if not e["passed"] and e["atoms"]:
            assert after["lam"] == e["lam"]
            assert after["delta"] < e["nu"] - e["lam"]


def test_continuum_checks_never_pass_on_atoms_below_the_optimum():
    # ex14 Z fills [0, 1]: atoms at lam_i with the relaxation optimum at the
    # cap are no proof that the gap is empty
    spec = full_sweep("Z", fixtures.ex14())
    assert spec.termination == Termination.CONTINUUM_SUSPECTED
    first = spec.values[0]
    checks = [e for e in spec.log if e.get("phase") == "backward-check"]
    assert checks
    assert not any(e["passed"] for e in checks if e["lam"] >= first)


@pytest.mark.parametrize("kind, make, values, solves", [
    ("Z", fixtures.ex56, [1.70701285567669e-08, 0.00020624208719176345,
                          0.4571724209083913], 12),
    ("H", fixtures.ex52, [1.3585945810150037, 1.4984689230852597,
                          1.522550320217081, 4.730306524131185], 14),
])
def test_shifted_minimization_starts_at_the_passing_check_order(kind, make, values,
                                                                 solves):
    # below the order of the passed backward check, the shifted relaxation
    # returned lam_i + delta and escalated (ex56 Z 14 solves, ex52 H 17)
    spec = full_sweep(kind, make())
    assert spec.termination == Termination.CERTIFIED_COMPLETE
    assert spec.values == pytest.approx(values, abs=1e-8)
    assert spec.counters["sdp_solves"] <= solves
    check_k = check_passed = None
    shifted = 0
    for e in spec.log:
        if e.get("phase") == "backward-max" and "status" in e:
            check_k = e["k"]
        elif e.get("phase") == "backward-check":
            check_passed = e["passed"]
        elif e.get("phase") == "shifted-min" and "status" in e:
            assert check_passed and e["k"] >= check_k
            shifted += 1
    assert shifted


def test_full_sweep_ex51_z():
    spec = full_sweep("Z", fixtures.ex51())
    assert spec.termination == Termination.CERTIFIED_COMPLETE
    assert [round(v, 4) for v in spec.values] == [23.0, 25.1]
    assert all(p.isolated for p in spec.eigenpairs)
    assert all(p.residual <= 1e-7 for p in spec.eigenpairs)


def test_full_sweep_values_strictly_increasing():
    spec = full_sweep("H", fixtures.ex51())
    vals = spec.values
    assert all(b - a > 1e-6 for a, b in zip(vals, vals[1:]))


def test_full_sweep_h_count_bound():
    A = fixtures.ex51()
    spec = full_sweep("H", A)
    assert len(spec.values) <= h_count_bound(A.order, A.dim)


def test_h_count_bound_violation_ends_inconsistent(monkeypatch):
    monkeypatch.setattr("tensorspectra.driver.h_count_bound", lambda m, n: 0)
    spec = full_sweep("H", fixtures.ex51())
    assert spec.termination == Termination.INCONSISTENT
    assert spec.values == pytest.approx([23.0, 25.1, 49.2687], abs=5e-4)
    assert any("more than the bound" in e.get("note", "") for e in spec.log)


def test_solve_records_carry_relaxation_sizes():
    spec = full_sweep("Z", fixtures.ex51())
    solves = [e for e in spec.log if "status" in e]
    assert len(solves) == spec.counters["sdp_solves"]
    for e in solves:
        assert e["N"] - e["p"] >= 0
        assert e["sides"] and all(q >= 1 for q in e["sides"])


def test_full_sweep_odd_order_sign_symmetry():
    A = fixtures.random_tensor(3, 2, seed=905)
    spec = full_sweep("Z", A)
    system = EigenSystem("Z", A)
    vals = spec.values
    assert np.allclose(vals, sorted(-v for v in vals), atol=1e-6)
    for p in spec.eigenpairs:
        for v in p.vectors:
            assert system.residual(-p.value, -np.asarray(v)) <= 1e-7


def test_full_sweep_h_sign_symmetry_of_vectors():
    A = fixtures.ex51()
    spec = full_sweep("H", A)
    system = EigenSystem("H", A)
    for p in spec.eigenpairs:
        for v in p.vectors:
            assert system.residual(p.value, -np.asarray(v)) <= 1e-7


def test_full_sweep_nonneg_mode():
    A = fixtures.random_tensor(3, 2, seed=906)
    full = full_sweep("Z", A)
    nonneg = full_sweep("Z", A, SweepOptions(nonneg=True))
    want = sorted(v for v in full.values if v >= -1e-9)
    assert np.allclose(nonneg.values, want, atol=1e-6)


def test_full_sweep_monotone_hierarchy_bounds():
    spec = full_sweep("Z", fixtures.ex52(), SweepOptions(nonneg=True))
    by_phase = {}
    for e in spec.log:
        if e.get("phase") in ("smallest-min",) and "value" in e and \
                e.get("status") in ("optimal",):
            by_phase.setdefault(e["phase"], []).append((e["k"], e["value"]))
    for phase, pairs in by_phase.items():
        pairs.sort()
        for (k1, v1), (k2, v2) in zip(pairs, pairs[1:]):
            if k2 == k1 + 1:
                assert v2 >= v1 - 1e-6


def test_full_sweep_certified_requires_verified_farkas():
    spec = full_sweep("Z", fixtures.ex13())
    assert spec.termination == Termination.CERTIFIED_COMPLETE
    assert spec.eigenpairs == []


def test_certified_complete_logs_final_certificate():
    spec = full_sweep("Z", fixtures.ex51())
    assert spec.termination == Termination.CERTIFIED_COMPLETE
    assert any(e.get("note") == "termination certificate" for e in spec.log)
    assert any(e.get("status") == "primal-infeasible" for e in spec.log)


def test_eigenpair_invariants_on_sweep():
    A = fixtures.ex51()
    for kind in ("Z", "H"):
        spec = full_sweep(kind, A)
        system = EigenSystem(kind, A)
        for p in spec.eigenpairs:
            for v in p.vectors:
                assert system.residual(p.value, v) <= 1e-7


def test_matrix_case_matches_linear_algebra():
    rng = np.random.default_rng(907)
    M = rng.normal(size=(2, 2))
    M = M + M.T
    spec = full_sweep("Z", Tensor(M))
    want = sorted(np.linalg.eigvalsh(M))
    assert np.allclose(spec.values, want, atol=1e-6)


def _newton_enumerate(system, trials, seed):
    """Eigenvalues reachable by plain Newton from many random starts."""
    rng = np.random.default_rng(seed)
    vals = set()
    for _ in range(trials):
        x = rng.normal(size=system.n)
        try:
            x = system.normalize(x)
        except ValueError:
            continue
        lam = system.eigenvalue_at(x)
        for _ in range(80):
            F = system.F(lam, x)
            if np.max(np.abs(F)) < 1e-11:
                vals.add(round(lam, 7))
                break
            try:
                d = np.linalg.solve(system.jacobian(lam, x), -F)
            except np.linalg.LinAlgError:
                break
            lam += d[0]
            x += d[1:]
            if not np.isfinite(lam) or np.linalg.norm(x) > 50:
                break
    return sorted(vals)


@pytest.mark.parametrize("kind,seed", [("Z", 40000), ("H", 41002)])
def test_sweep_matches_newton_enumeration_n3(kind, seed):
    # no elimination oracle exists for n=3; multistart Newton plays its role
    A = fixtures.random_tensor(3, 3, seed=seed)
    spec = full_sweep(kind, A)
    assert spec.termination == Termination.CERTIFIED_COMPLETE
    newton = _newton_enumerate(EigenSystem(kind, A), trials=1500, seed=1)
    for v in newton:
        assert min(abs(v - w) for w in spec.values) <= 1e-4
    for w in spec.values:
        assert min(abs(w - v) for v in newton) <= 1e-4


def test_relaxation_blocks_released_after_sweep():
    # nothing of a swept tensor may outlive its sweep in a long-lived process
    refs = []

    def spy(problem, options):
        refs.extend(weakref.ref(blk) for blk in problem.blocks)
        return solve(problem, options)

    A = Tensor(np.random.default_rng(7).standard_normal((2, 2, 2, 2)))
    spec = full_sweep("Z", A, SweepOptions(solver=spy))
    assert spec.counters["sdp_solves"] > 0
    gc.collect()
    alive = sum(ref() is not None for ref in refs)
    assert refs and alive == 0, f"{alive} of {len(refs)} blocks still alive"


@pytest.mark.parametrize("bad", [
    {"delta0": float("nan")}, {"delta0": float("inf")}, {"delta_min": float("nan")},
    {"eps_res": float("inf")}, {"kmax_offset": -1}, {"seed": -1}, {"delta0": 1e-7},
    {"eps_eq": 0.0}, {"kmax_offset": 1.5}, {"seed": 0.5}, {"kmax_offset": True}])
def test_sweep_options_reject_what_no_sweep_can_run_with(bad):
    with pytest.raises(ValueError):
        SweepOptions(**bad)


def test_value_below_the_last_ends_inconsistent(monkeypatch):
    # a step that lands below the last value is no rediscovery of it: the
    # sweep keeps both and ends INCONSISTENT, not certified-complete
    steps = []

    def next_after(self, lam_i):
        steps.append(lam_i)
        if len(steps) > 1:
            return StepResult(outcome="no-more")
        return StepResult(outcome="found", pair=Eigenpair(
            kind=self.system.kind, value=lam_i - 1.0, vectors=[np.array([0.0, 1.0])],
            residual=0.0, isolated=True, order_used=self.system.k0))

    monkeypatch.setattr(_Driver, "next_after", next_after)
    spec = full_sweep("Z", fixtures.ex51())
    assert spec.termination == Termination.INCONSISTENT
    assert spec.values == pytest.approx([23.0, 22.0], abs=5e-4)


def _false_objective(problem, sol):
    return replace(sol, objective=-1e3) if problem.maximize else sol


def _off_the_equalities(problem, sol):
    if not problem.maximize or sol.status is not SolveStatus.OPTIMAL:
        return sol
    rows = problem.eq_rows
    bad = replace(sol, y=sol.y + 1e-2 * (rows.T @ np.ones(rows.shape[0])))
    assert not verify_solution(problem, bad)["checks"]["equalities"]
    return bad


def _as_inaccurate(sol):
    """sol relabelled INACCURATE, with reported residuals and gap that pass."""
    metrics = dict(sol.metrics, primal_residual=1e-9, dual_residual=1e-9, gap=1e-9)
    return replace(sol, status=SolveStatus.INACCURATE, metrics=metrics)


def _minimizer_y(problem, sol):
    # a feasible but far from optimal y, with the maximization's own duals
    if not problem.maximize or sol.status is not SolveStatus.OPTIMAL:
        return sol
    low = solve(replace(problem, c=-problem.c, maximize=False))
    return sol if low.y is None else replace(sol, y=low.y)


def _minimizer_y_inaccurate(problem, sol):
    bad = _minimizer_y(problem, sol)
    return sol if bad is sol else _as_inaccurate(bad)


def _nan_in_y(problem, sol):
    if not problem.maximize or sol.status is not SolveStatus.OPTIMAL:
        return sol
    y = sol.y.copy()
    y[-1] = np.nan
    return replace(sol, y=y)


def _nan_in_y_inaccurate(problem, sol):
    bad = _nan_in_y(problem, sol)
    return sol if bad is sol else _as_inaccurate(bad)


def _unconverged_as_optimal(problem, sol):
    # five iterations of the maximization, reported as its optimum
    if not problem.maximize:
        return sol
    early = solve(problem, SolverOptions(max_iter=5))
    return replace(early, status=SolveStatus.OPTIMAL, metrics=sol.metrics)


def _perturbed_farkas(problem, sol):
    if sol.status is not SolveStatus.PRIMAL_INFEASIBLE:
        return sol
    mu = 1.1 * sol.certificate["mu"]
    return replace(sol, certificate=dict(sol.certificate, mu=mu))


def _nan_in_farkas(problem, sol):
    # infeasible relaxations are minimizations: this fault hits the steps
    # that end the sweep
    if sol.status is not SolveStatus.PRIMAL_INFEASIBLE:
        return sol
    blocks = [Z.copy() for Z in sol.certificate["blocks"]]
    blocks[0][0, 0] = np.nan
    return replace(sol, certificate=dict(sol.certificate, blocks=blocks))


@pytest.mark.parametrize("fault", [
    _false_objective, _off_the_equalities, _minimizer_y, _minimizer_y_inaccurate,
    _unconverged_as_optimal, _perturbed_farkas, _nan_in_y, _nan_in_y_inaccurate,
    _nan_in_farkas])
def test_faulty_maximizations_never_certify_a_wrong_spectrum(fault):
    # every relaxation result the sweep reads is re-checked from the problem
    # data; a false backward bound once dropped ex56 Z's 2.06e-4 and still
    # certified the rest, and a value that is not finite raised
    def solver(problem, options):
        return fault(problem, solve(problem, options))

    A = fixtures.ex56()
    honest = full_sweep("Z", A)
    spec = full_sweep("Z", A, SweepOptions(solver=solver))
    system = EigenSystem("Z", A)
    for pair in spec.eigenpairs:
        assert all(system.residual(pair.value, v) <= 1e-7 for v in pair.vectors)
    if spec.termination == Termination.CERTIFIED_COMPLETE:
        assert spec.values == pytest.approx(honest.values, abs=1e-8)


@pytest.mark.parametrize("status, fault", [
    (SolveStatus.PRIMAL_INFEASIBLE, lambda sol: replace(sol, certificate=None)),
    (SolveStatus.OPTIMAL, lambda sol: replace(sol, y=None)),
    (SolveStatus.OPTIMAL, lambda sol: replace(sol, block_duals=None)),
    (SolveStatus.OPTIMAL, lambda sol: replace(sol, y=sol.y[:-1])),
    (SolveStatus.PRIMAL_INFEASIBLE, lambda sol: replace(
        sol, certificate=dict(sol.certificate, mu=sol.certificate["mu"][:-1]))),
], ids=["no-certificate", "no-y", "no-block-duals", "short-y", "short-farkas-mu"])
def test_malformed_results_end_the_sweep_without_raising(status, fault):
    # a result missing an array, or holding one of the wrong shape, fails
    # verify_solution's well_formed check instead of raising out of
    # full_sweep, and the sweep ends uncertified with what it found
    def solver(problem, options):
        sol = solve(problem, options)
        return fault(sol) if sol.status is status else sol

    A = Tensor(np.random.default_rng(3).standard_normal((2, 2, 2, 2)))
    honest = full_sweep("Z", A)
    spec = full_sweep("Z", A, SweepOptions(solver=solver))
    assert honest.termination == Termination.CERTIFIED_COMPLETE
    assert spec.termination == Termination.BUDGET
    assert spec.values == honest.values[:len(spec.values)]
    assert any(e.get("note", "").startswith(f"unverified {status.value}")
               for e in spec.log)


@pytest.mark.parametrize("status", [SolveStatus.INACCURATE, SolveStatus.ITERATION_LIMIT])
@pytest.mark.parametrize("make, nonneg", [
    (fixtures.ex51, False), (lambda: fixtures.ex57(2), True)], ids=["ex51", "ex57(2)"])
def test_solver_status_and_metrics_are_advisory(status, make, nonneg):
    # every honest optimum, relabelled as unconverged with residuals and a
    # gap of 1e-3 reported, is still read: the sweep trusts what
    # verify_solution recomputes, not what the solver says of itself
    def solver(problem, options):
        sol = solve(problem, options)
        if sol.status is not SolveStatus.OPTIMAL:
            return sol
        metrics = dict(sol.metrics, primal_residual=1e-3, dual_residual=1e-3, gap=1e-3)
        return replace(sol, status=status, metrics=metrics)

    A = make()
    honest = full_sweep("Z", A, SweepOptions(nonneg=nonneg))
    spec = full_sweep("Z", A, SweepOptions(nonneg=nonneg, solver=solver))
    assert honest.termination == Termination.CERTIFIED_COMPLETE
    assert spec.termination == honest.termination
    assert spec.values == honest.values
    assert spec.counters == honest.counters
