import gc
import itertools
import sys
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

import fixtures
from tensorspectra.driver import (EigenSystem, Eigenpair, StepResult, SweepOptions,
                                  Termination, _Driver, check_isolated, full_sweep,
                                  h_count_bound, h_system, next_eigenvalue,
                                  polish_eigenpair, smallest_eigenvalue, z_system)
from tensorspectra.extract import ExtractionError, extract_atoms, flat_truncation
from tensorspectra.momentsdp import build_min_relaxation, sign_invariant
from tensorspectra.poly import Polynomial, tensor_to_poly
from tensorspectra.sdpsolver import (MOMENT_MARGIN, SolveStatus, SolverOptions, solve,
                                     verify_solution)
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
    assert spec.counters["sdp_solves"] <= 9
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
                          0.4571724209083913], 9),
    ("H", fixtures.ex52, [1.3585945810150037, 1.4984689230852597,
                          1.522550320217081, 4.730306524131185], 12),
], ids=["ex56-Z", "ex52-H"])
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


def _hierarchies(log):
    """Each relaxation hierarchy of a sweep's log, in the order solved.

    A hierarchy is a dict: ``family`` ("min" or "max"), ``orders`` (the
    orders solved) and, for a backward check, ``passed`` and ``atoms``.
    """
    out = []
    for e in log:
        if "status" in e:
            family = "max" if e["phase"] == "backward-max" else "min"
            if not out or "passed" in out[-1] or out[-1]["family"] != family:
                out.append({"family": family, "orders": []})
            out[-1]["orders"].append(e["k"])
        elif e.get("phase") == "backward-check":
            out[-1].update(passed=e["passed"], atoms=e["atoms"])
    return out


def _start_rules_seen(kind, A):
    """Check every hierarchy's first order against the start rules.

    Both families, the minimizations and the backward checks, start at
    k0 + 1.  A hierarchy that succeeds at order k after solving lower
    orders sends the next one of its family to k; one that succeeds at
    the first order tried sends it to max(k0, k - 1).  A check that fails
    on an eigenvalue inside the gap sends the next one to the order that
    saw it, and a shifted minimization starts no lower than its passed
    check.  Returns the rules the sweep exercised.
    """
    spec = full_sweep(kind, A)
    k0 = EigenSystem(kind, A).k0
    kmax = k0 + SweepOptions().kmax_offset
    hierarchies = _hierarchies(spec.log)
    start, seen = {"min": k0 + 1, "max": k0 + 1}, set()
    for h, after in zip(hierarchies, hierarchies[1:] + [None]):
        family, first, k = h["family"], h["orders"][0], h["orders"][-1]
        assert first == min(start[family], kmax), (h, start)
        if h is next(g for g in hierarchies if g["family"] == family):
            seen.add(f"first {family} at k0 + 1")
        if family == "min" and after is not None:
            start["min"] = k if k > first else max(k0, k - 1)
        elif h.get("passed"):
            start["max"] = k if k > first else max(k0, k - 1)
            start["min"] = max(start["min"], k)
        elif h.get("atoms"):
            start["max"] = k
        if after is not None and (family == "min" or h.get("passed")):
            seen.add(f"{family}: " + ("lower orders failed" if k > first
                                      else "first order succeeded"))
    return seen


def test_hierarchies_start_where_they_last_succeeded():
    rules = {"first min at k0 + 1", "first max at k0 + 1",
             "min: lower orders failed", "min: first order succeeded",
             "max: lower orders failed", "max: first order succeeded"}
    # every minimization of ex56 Z and of the random H tensor that finds an
    # eigenvalue succeeds at the first order it solves; ex54(3) Z, of odd
    # order, is not sign-invariant and starts at k0 + 1 all the same
    for label, kind, A, unused in [
            ("ex56", "Z", fixtures.ex56(), {"min: lower orders failed"}),
            ("random(4, 2, 7)", "H", fixtures.random_tensor(4, 2, seed=7),
             {"min: lower orders failed"}),
            ("ex51", "H", fixtures.ex51(), set()),
            ("ex54(3)", "Z", fixtures.ex54(3), set())]:
        assert _start_rules_seen(kind, A) == rules - unused, (label, kind)


# _atoms' rank thresholds from the default tau_rank: 1e-6 escalated tenfold to 1e-3
_RANK_THRESHOLDS = (1e-6, 1e-5, 1e-4, 1e-3)


def _normalizable_atoms_at_k0(system, ineqs):
    """Normalizable atoms the order-k0 min relaxation yields, per rank threshold."""
    prob = build_min_relaxation(system.f, system.h, ineqs, system.k0)
    sol = solve(prob)
    assert verify_solution(prob, sol)["ok"] and sol.y is not None
    y = prob.lift(sol.y)
    found = []
    for tau in _RANK_THRESHOLDS:
        t = flat_truncation(y, system.k0, system.k0, tau)
        try:
            points = [] if t is None else extract_atoms(y, t, tau, SweepOptions().seed).points
        except ExtractionError:
            points = []
        count = 0
        for u in points:
            try:
                system.normalize(u)
                count += 1
            except ValueError:
                pass
        found.append(count)
    return found


@pytest.mark.parametrize("nonneg", [False, True])
@pytest.mark.parametrize("kind, make", [
    ("H", fixtures.ex51), ("H", fixtures.ex56), ("H", lambda: fixtures.ex54(4)),
    ("Z", lambda: fixtures.random_tensor(4, 2, seed=7)),
], ids=["ex51-H", "ex56-H", "ex54(4)-H", "random-m4-n2-Z"])
def test_sign_invariant_min_relaxation_never_flattens_at_k0(kind, make, nonneg):
    # a rank-one M_k0(y) with zero odd moments is the origin's, which the
    # normalization sum x_i^m0 = 1 excludes; no threshold reads one either
    system = EigenSystem(kind, make())
    ineqs = [system.f] if nonneg else []
    assert sign_invariant(system.f, system.h, ineqs)
    assert _normalizable_atoms_at_k0(system, ineqs) == [0] * len(_RANK_THRESHOLDS)


@pytest.mark.parametrize("make", [
    fixtures.ex52, lambda: fixtures.random_tensor(3, 2, seed=905),
], ids=["ex52-Z", "random-m3-n2-Z"])
def test_odd_order_z_min_relaxation_extracts_at_k0(make):
    system = EigenSystem("Z", make())
    assert not sign_invariant(system.f, system.h, [])
    assert all(_normalizable_atoms_at_k0(system, []))


def _first_smallest_order(spec):
    return next(e["k"] for e in spec.log if e.get("phase") == "smallest-min" and "status" in e)


def test_smallest_hierarchy_starts_above_k0():
    # odd-order Z too: its order-k0 relaxation can extract (above), but the
    # first check then fails at k0 and runs again one order up
    for kind, A in [("H", fixtures.ex51()), ("Z", fixtures.ex56()),
                    ("Z", fixtures.random_tensor(3, 2, seed=905))]:
        spec = full_sweep(kind, A)
        assert spec.termination == Termination.CERTIFIED_COMPLETE
        assert _first_smallest_order(spec) == EigenSystem(kind, A).k0 + 1
    # without a budget above k0, k0 is still solved
    spec = full_sweep("H", fixtures.ex51(), SweepOptions(kmax_offset=0))
    assert _first_smallest_order(spec) == EigenSystem("H", fixtures.ex51()).k0
    # a later hierarchy still probes down to k0: this m = 3, n = 2 H sweep
    # closes with an infeasibility certificate at k0 = 2
    A = Tensor(np.random.default_rng((2015, 6)).standard_normal((2, 2, 2)))
    spec = full_sweep("H", A)
    assert spec.termination == Termination.CERTIFIED_COMPLETE and len(spec.values) == 2
    assert [e["k"] for e in spec.log if e.get("note") == "termination certificate"] \
        == [EigenSystem("H", A).k0] == [2]


def test_empty_spectra_still_certified_above_k0():
    # m = 3, n = 2: this tensor has no real H-eigenvalue; the order-k0 + 1
    # relaxation is infeasible, proven by a verified ray
    A = Tensor(np.random.default_rng((2015, 2)).standard_normal((2, 2, 2)))
    k0 = EigenSystem("H", A).k0
    spec = full_sweep("H", A)
    assert spec.termination == Termination.CERTIFIED_COMPLETE and spec.values == []
    out = smallest_eigenvalue("H", A)
    assert out.outcome == "no-eigenvalue" and out.certificate["k"] == k0 + 1
    assert out.certificate["report"]["ok"]
    assert spec.counters["sdp_solves"] == 1 and spec.counters["ipm_iterations"] > 0
    # ex13 Z ends on the inconsistency of its equality system alone
    k0 = EigenSystem("Z", fixtures.ex13()).k0
    out = smallest_eigenvalue("Z", fixtures.ex13())
    assert out.outcome == "no-eigenvalue" and out.certificate["k"] == k0 + 1
    assert out.certificate["report"]["ok"]
    assert out.certificate["solution"].eq_duals is not None
    assert not any(b.any() for b in out.certificate["solution"].block_duals)
    assert full_sweep("Z", fixtures.ex13()).counters == {"sdp_solves": 1, "ipm_iterations": 0}


def test_full_sweep_ex51_z():
    spec = full_sweep("Z", fixtures.ex51())
    assert spec.termination == Termination.CERTIFIED_COMPLETE
    assert [round(v, 4) for v in spec.values] == [23.0, 25.1]
    assert all(p.isolated for p in spec.eigenpairs)
    assert all(p.residual <= 1e-7 for p in spec.eigenpairs)


def test_close_pair_never_certified_with_one_value():
    # the H-eigenvalues of diag(1, 1 + 5e-6) are its two diagonal entries;
    # the backward check after 1 passes within tol_eq of it, so the second
    # value may be skipped, and such a sweep must not end certified-complete
    E = np.zeros((2,) * 4)
    E[0, 0, 0, 0], E[1, 1, 1, 1] = 1.0, 1.0 + 5e-6
    spec = full_sweep("H", Tensor(E))
    assert spec.termination != Termination.CERTIFIED_COMPLETE or \
        np.allclose(spec.values, [1.0, 1.0 + 5e-6], rtol=0.0, atol=1e-8)


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


def _newton_spectrum(kind, E, starts=1500, seed=1):
    """Real Z- or H-eigenvalues of the tensor entries E that Newton reaches.

    Independent of the program's eigen-systems: plain Newton on
    A x^{m-1} = lam x^[p] with |x| = 1 (p = 1 for Z, m - 1 for H; H
    eigenvalues do not depend on the normalization), written out with
    einsum and run from every random start at once.
    """
    m, n = E.ndim, E.shape[0]
    p = 1 if kind == "Z" else m - 1
    ax = "abcdefgh"[:m]
    # A x^{m-1}, and its derivative with each trailing slot left free in turn
    contract = f"{ax},{','.join('s' + a for a in ax[1:])}->s{ax[0]}"
    slots = [f"{ax},{','.join('s' + a for a in ax[1:] if a != t)}->s{ax[0]}{t}"
             for t in ax[1:]]
    x = np.random.default_rng(seed).standard_normal((starts, n))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    lam = np.sum(x * np.einsum(contract, E, *[x] * (m - 1)), axis=1)
    for _ in range(60):
        F = np.concatenate([np.einsum(contract, E, *[x] * (m - 1)) - lam[:, None] * x ** p,
                            0.5 * (np.sum(x * x, axis=1, keepdims=True) - 1.0)], axis=1)
        J = np.zeros((starts, n + 1, n + 1))
        J[:, :n, :n] = sum(np.einsum(slot, E, *[x] * (m - 2)) for slot in slots)
        J[:, :n, :n] -= np.einsum("s,si,ij->sij", lam * p, x ** (p - 1), np.eye(n))
        J[:, :n, n] = -x ** p
        J[:, n, :n] = x
        try:
            step = np.linalg.solve(J, -F[..., None])[..., 0]
        except np.linalg.LinAlgError:
            step = np.einsum("sij,sj->si", np.linalg.pinv(J), -F)
        x, lam = x + step[:, :n], lam + step[:, n]
        lost = ~np.isfinite(lam) | ~(np.abs(x).max(axis=1) < 1e3)
        x[lost], lam[lost] = 1.0, 0.0
    res = np.abs(np.einsum(contract, E, *[x] * (m - 1)) - lam[:, None] * x ** p).max(axis=1)
    res = np.maximum(res, np.abs(np.sum(x * x, axis=1) - 1.0))
    values = []
    for v in np.sort(lam[res < 1e-12]):
        if not values or v - values[-1] > 1e-8:
            values.append(float(v))
    return values


def _assert_sweep_matches_newton(kind, A, nonneg=False):
    spec = full_sweep(kind, A, SweepOptions(nonneg=nonneg))
    assert spec.termination == Termination.CERTIFIED_COMPLETE
    newton = [v for v in _newton_spectrum(kind, A.entries) if v >= 0 or not nonneg]
    missed = [v for v in newton if min((abs(v - w) for w in spec.values), default=1) > 1e-6]
    unmatched = [w for w in spec.values if min((abs(w - v) for v in newton), default=1) > 1e-6]
    assert not missed and not unmatched, f"missed {missed}, unmatched {unmatched}"
    return spec


@pytest.mark.parametrize("kind,seed", [("Z", 40000), ("H", 41002)])
def test_sweep_matches_newton_enumeration_n3(kind, seed):
    # no elimination oracle exists for n=3; multistart Newton plays its role
    _assert_sweep_matches_newton(kind, fixtures.random_tensor(3, 3, seed=seed))


def test_sweep_matches_newton_enumeration_n4():
    spec = _assert_sweep_matches_newton(
        "Z", Tensor(np.random.default_rng((4, 4, 5)).standard_normal((4,) * 4)))
    assert spec.counters["sdp_solves"] <= 12


_GAP_THRESH = pytest.mark.xfail(
    strict=True, reason="a gap passes once its bound is within eps_eq = 1e-4 of lam_i, "
                        "so eigenvalues less than 1e-4 above it are skipped (ROADMAP item 1)")


@pytest.mark.parametrize("kind, name, nonneg", [
    ("Z", "ex52", True), ("H", "ex52", False), ("Z", "ex56", False),
    pytest.param("Z", "ex53", True, marks=_GAP_THRESH),
    pytest.param("H", "ex53", False, marks=_GAP_THRESH),
], ids=["ex52-Z", "ex52-H", "ex56-Z", "ex53-Z", "ex53-H"])
def test_fixture_sweep_matches_newton_enumeration(kind, name, nonneg):
    _assert_sweep_matches_newton(kind, getattr(fixtures, name)(), nonneg)


def test_relaxation_blocks_released_after_sweep():
    # nothing of a swept tensor may outlive its sweep in a long-lived process
    refs = []

    def spy(problem, options):
        refs.extend(weakref.ref(blk) for blk in problem.blocks)
        sol = solve(problem, options)
        # each equality factor that the sweep's relaxations of one order share
        refs.extend(weakref.ref(a) for a in problem.eq_factors.values()
                    if isinstance(a, np.ndarray))
        return sol

    A = Tensor(np.random.default_rng(7).standard_normal((2, 2, 2, 2)))
    spec = full_sweep("Z", A, SweepOptions(solver=spy))
    assert spec.counters["sdp_solves"] > 0
    gc.collect()
    alive = sum(ref() is not None for ref in refs)
    assert refs and alive == 0, f"{alive} of {len(refs)} blocks and factors still alive"


def test_one_equality_qr_per_system_of_a_sweep(monkeypatch):
    # every relaxation of one order and sign invariance shares its equality
    # system, and the solver factors each system the sweep builds once;
    # the build factors none
    qr = scipy.linalg.qr
    factored = []

    def counting_qr(a, *args, **kwargs):
        factored.append(sys._getframe(1).f_globals["__name__"])
        return qr(a, *args, **kwargs)

    solved = []

    def spy(problem, options):
        solved.append((problem.eq_rows.shape, problem.eq_rows.tobytes()))
        return solve(problem, options)

    monkeypatch.setattr(scipy.linalg, "qr", counting_qr)
    spec = full_sweep("Z", fixtures.ex56(), SweepOptions(solver=spy))
    assert spec.termination == Termination.CERTIFIED_COMPLETE
    assert len(solved) > len(set(solved)) > 1
    assert factored.count("tensorspectra.sdpsolver") == len(set(solved))
    assert "tensorspectra.momentsdp" not in factored


@pytest.mark.parametrize("write", [
    lambda problem: problem.eq_rhs.__setitem__(slice(1, None), 1.0),
    lambda problem: problem.eq_rows.__setitem__(slice(1, None), 0.0),
    lambda problem: problem.blocks[0].matrix.data.__setitem__(slice(None), 0.0),
], ids=["eq_rhs", "eq_rows", "moment-block"])
def test_a_solver_hook_cannot_write_into_shared_relaxation_data(write):
    # every later relaxation of an order reads the arrays its store shares.
    # A hook that wrote eq_rhs[1:] = 1 after its first solve once ended this
    # sweep certified-complete without 0.26696, and one that zeroed
    # eq_rows[1:] raised LinAlgError out of full_sweep.  Each write now fails
    # in the hook itself, and a hook that swallows the failure changes
    # nothing the sweep reports
    A = Tensor(np.random.default_rng(3).standard_normal((2, 2, 2, 2)))
    clean = full_sweep("Z", A)
    assert clean.termination == Termination.CERTIFIED_COMPLETE
    assert clean.values == pytest.approx([-0.15462271, 0.26695706], abs=1e-7)

    def writing(problem, options):
        sol = solve(problem, options)
        write(problem)
        return sol

    with pytest.raises(ValueError, match="read-only"):
        full_sweep("Z", A, SweepOptions(solver=writing))

    def swallowing(problem, options):
        sol = solve(problem, options)
        with pytest.raises(ValueError, match="read-only"):
            write(problem)
        return sol

    spec = full_sweep("Z", A, SweepOptions(solver=swallowing))
    assert spec.termination == clean.termination
    assert spec.values == clean.values
    assert spec.counters == clean.counters


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
    return replace(sol, eq_duals=1.1 * sol.eq_duals)


def _nan_in_farkas(problem, sol):
    # infeasible relaxations are minimizations: this fault hits the steps
    # that end the sweep
    if sol.status is not SolveStatus.PRIMAL_INFEASIBLE:
        return sol
    blocks = [Z.copy() for Z in sol.block_duals]
    blocks[0][0, 0] = np.nan
    return replace(sol, block_duals=blocks)


@pytest.mark.parametrize("fault", [
    _off_the_equalities, _minimizer_y, _minimizer_y_inaccurate, _unconverged_as_optimal,
    _perturbed_farkas, _nan_in_y, _nan_in_y_inaccurate, _nan_in_farkas])
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
    (SolveStatus.PRIMAL_INFEASIBLE, lambda sol: replace(sol, eq_duals=None, block_duals=None)),
    (SolveStatus.OPTIMAL, lambda sol: replace(sol, y=None)),
    (SolveStatus.OPTIMAL, lambda sol: replace(sol, block_duals=None)),
    (SolveStatus.OPTIMAL, lambda sol: replace(sol, y=sol.y[:-1])),
    (SolveStatus.PRIMAL_INFEASIBLE, lambda sol: replace(sol, eq_duals=sol.eq_duals[:-1])),
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


def test_a_hook_cannot_change_the_data_the_check_reads():
    # the solver's read-only copy of each relaxation is made before the hook
    # runs, so a hook that rebinds the problem's equality data to zeros
    # (then y = 0 is feasible) still solves, and is checked on, the problem
    # as built
    def solver(problem, options):
        problem.eq_rows = np.zeros_like(problem.eq_rows)
        problem.eq_rhs = np.zeros_like(problem.eq_rhs)
        return solve(problem, options)

    A = Tensor(np.random.default_rng(3).standard_normal((2, 2, 2, 2)))
    honest = full_sweep("Z", A)
    spec = full_sweep("Z", A, SweepOptions(solver=solver))
    assert honest.termination == Termination.CERTIFIED_COMPLETE
    assert spec.termination == honest.termination
    assert spec.values == honest.values
    assert spec.counters == honest.counters


@pytest.mark.parametrize("fault, verified", [
    (lambda sol: replace(sol, metrics=None), True),
    (lambda sol: replace(sol, metrics={"iterations": "x"}), True),
    (lambda sol: replace(sol, status="optimal"), False),
    (lambda sol: None, False),
], ids=["no-metrics", "text-iterations", "text-status", "no-result"])
def test_hook_faults_end_the_sweep_without_raising(fault, verified):
    # whatever a solver hook returns, full_sweep does not raise: a result
    # with no usable iteration count counts 0 iterations and is read as
    # usual, and anything but a ConicSolution with a SolveStatus fails
    # verify_solution, so the sweep ends uncertified with what it found
    def solver(problem, options):
        return fault(solve(problem, options))

    A = Tensor(np.random.default_rng(3).standard_normal((2, 2, 2, 2)))
    honest = full_sweep("Z", A)
    spec = full_sweep("Z", A, SweepOptions(solver=solver))
    assert spec.values == honest.values[:len(spec.values)]
    if verified:
        assert spec.termination == honest.termination
        assert spec.values == honest.values
        assert spec.counters == dict(honest.counters, ipm_iterations=0)
    else:
        assert spec.termination == Termination.BUDGET
        assert any(e.get("note") == "unverified malformed result ignored" for e in spec.log)


def _loose_dual(problem, options, verified):
    """The honest result, with each OPTIMAL maximization's dual loosened.

    One equality dual, of the row j >= 1 with the largest l1 norm, moves
    by 1.5e-4 / ||G_j||_1.  b.mu stays, and c - G^T mu - adj Z grows by
    1.5e-4 in l1, so the proven bound moves about 1.5e-4 up, past the
    1e-4 within which a gap passes.  Each loosened result's
    verify_solution check, which reads the duals only for the bound, is
    appended to ``verified``.
    """
    sol = solve(problem, options)
    if not problem.maximize or sol.status is not SolveStatus.OPTIMAL:
        return sol
    norms = np.sum(np.abs(problem.eq_rows[1:]), axis=1)
    j = 1 + int(np.argmax(norms))
    mu = sol.eq_duals.copy()
    mu[j] += 1.5e-4 / norms[j - 1]
    loose = replace(sol, eq_duals=mu)
    verified.append(verify_solution(problem, loose)["ok"])
    return loose


def test_only_the_bound_passes_a_gap():
    # a loose dual still proves a bound, only a useless one: no gap passes,
    # no check sees an eigenvalue inside its gap, and the sweep ends
    # unresolved with the first value, neither certified nor a continuum
    verified = []
    spec = full_sweep("Z", fixtures.ex51(), SweepOptions(
        solver=lambda problem, options: _loose_dual(problem, options, verified)))
    checks = [e for e in spec.log if e.get("phase") == "backward-check"]
    assert verified and all(verified)
    assert checks and not any(e["passed"] or e["atoms"] for e in checks)
    assert all(e["nu"] - e["lam"] > 1e-4 for e in checks)
    assert spec.termination == Termination.BUDGET
    assert spec.values == pytest.approx([23.0], abs=5e-4)


def _order4_rays_unusable(problem, options):
    sol = solve(problem, options)
    if problem.k == 4 and sol.status is SolveStatus.PRIMAL_INFEASIBLE:
        return replace(sol, status=SolveStatus.ITERATION_LIMIT)
    return sol


def test_a_high_order_ray_certifies_the_sweep():
    # with its order-4 rays unusable, ex56 Z ends on the order-5 ray, whose
    # certificate norm is near 2e6 against b.mu = 1: proven all the same
    honest = full_sweep("Z", fixtures.ex56())
    spec = full_sweep("Z", fixtures.ex56(), SweepOptions(solver=_order4_rays_unusable))
    assert honest.termination == spec.termination == Termination.CERTIFIED_COMPLETE
    assert spec.values == honest.values
    assert spec.counters["sdp_solves"] == honest.counters["sdp_solves"] + 1
    last = [e for e in spec.log if "status" in e][-1]
    assert (last["k"], last["status"]) == (5, "primal-infeasible")


@pytest.mark.parametrize("kind", ["Z", "H"])
@pytest.mark.parametrize("make", [fixtures.ex51, fixtures.ex52, fixtures.ex56,
                                  lambda: fixtures.ex57(2)],
                         ids=["ex51", "ex52", "ex56", "ex57(2)"])
def test_verified_moments_obey_the_moment_bound(kind, make):
    # a falsifier of the theorem every proof rests on (sdpsolver): no
    # verified moment vector of a sweep leaves [-1, 1], with m0 = 2 (Z, and
    # H of ex52) and m0 = 4 (H of ex51, ex56 and ex57(2))
    largest = []

    def solver(problem, options):
        sol = solve(problem, options)
        if sol.status is not SolveStatus.PRIMAL_INFEASIBLE and \
                verify_solution(problem, sol)["ok"]:
            assert problem.moment_bound == 1.0
            largest.append(float(np.max(np.abs(sol.y))))
        return sol

    spec = full_sweep(kind, make(), SweepOptions(solver=solver))
    assert spec.termination == Termination.CERTIFIED_COMPLETE
    assert largest and max(largest) <= 1.0 + MOMENT_MARGIN


def test_every_passed_gap_is_certified_by_its_bound():
    opts = SweepOptions()
    spec = full_sweep("Z", fixtures.ex51(), opts)
    passed = [e for e in spec.log if e.get("phase") == "backward-check" and e["passed"]]
    assert spec.termination == Termination.CERTIFIED_COMPLETE and passed
    for e in passed:
        assert not e["atoms"]
        assert e["nu"] <= e["lam"] + min(opts.eps_eq, e["delta"] / 2)
