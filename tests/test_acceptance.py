"""Acceptance criteria, one test per criterion, each printing a verdict line.

Eigenvalue sets are compared by two-sided Hausdorff distance at the stated
tolerance (5e-3 absolute unless noted): every expected value must be hit
and no computed value may sit away from every expected one.  Run with
``pytest -s tests/test_acceptance.py`` to see the verdict lines inline.
"""

import json

import numpy as np
import pytest

import fixtures
from tensorspectra.cli import run
from tensorspectra.driver import (EigenSystem, SweepOptions, Termination,
                                  full_sweep, h_count_bound)
from tensorspectra.momentsdp import (MomentVector, assemble_matrix,
                                     build_min_relaxation,
                                     moment_structure,
                                     moment_vector_of_point)
from tensorspectra.oracle import brute_h_n2, brute_z_n2
from tensorspectra.poly import Polynomial, basis_size, monomials_upto
from tensorspectra.sdpsolver import SolveStatus, solve
from tensorspectra.tensor import serialize_tensor

TOL = 5e-3

_sweep_cache = {}


def sweep(kind, name, nonneg=False, **kw):
    key = (kind, name, nonneg)
    if key not in _sweep_cache:
        A = getattr(fixtures, name)() if not name.startswith("ex5_") else None
        _sweep_cache[key] = full_sweep(kind, A, SweepOptions(nonneg=nonneg, **kw))
    return _sweep_cache[key]


def sweep_tensor(kind, A, nonneg=False):
    return full_sweep(kind, A, SweepOptions(nonneg=nonneg))


def hausdorff(computed, expected):
    if not computed and not expected:
        return 0.0
    if not computed or not expected:
        return float("inf")
    a, b = np.asarray(computed), np.asarray(expected)
    d1 = max(min(abs(x - y) for y in b) for x in a)
    d2 = max(min(abs(x - y) for y in a) for x in b)
    return max(d1, d2)


def report(criterion, ok, detail=""):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def check_values(criterion, spectrum, expected, tol=TOL):
    d = hausdorff(spectrum.values, expected)
    detail = (f"values={[round(v, 4) for v in spectrum.values]} "
              f"expected={expected} hausdorff={d:.2e} "
              f"termination={spectrum.termination.value}")
    return d <= tol, detail


def _vector_set_matches(vectors, expected, tol=1e-4):
    for v in vectors:
        if not any(np.max(np.abs(np.asarray(v) - np.asarray(e))) <= tol
                   for e in expected):
            return False
    for e in expected:
        if not any(np.max(np.abs(np.asarray(v) - np.asarray(e))) <= tol
                   for v in vectors):
            return False
    return True


def test_criterion_1_example51():
    z = sweep_tensor("Z", fixtures.ex51())
    okz, dz = check_values("1/Z", z, [23.0, 25.1])
    ok_vec = _vector_set_matches(z.eigenpairs[0].vectors, [(0, 1), (0, -1)]) and \
        _vector_set_matches(z.eigenpairs[1].vectors, [(1, 0), (-1, 0)])
    h = sweep_tensor("H", fixtures.ex51())
    okh, dh = check_values("1/H", h, [23.0, 25.1, 49.2687])
    ok_term = (z.termination == Termination.CERTIFIED_COMPLETE and
               h.termination == Termination.CERTIFIED_COMPLETE)
    report(1, okz and okh and ok_vec and ok_term, dz + " | " + dh)
    _sweep_cache[("Z", "ex51")] = z
    _sweep_cache[("H", "ex51")] = h


def test_criterion_2_example13():
    for kind in ("Z", "H"):
        system = EigenSystem(kind, fixtures.ex13())
        spec = sweep_tensor(kind, fixtures.ex13())
        assert spec.eigenpairs == []
        assert spec.termination == Termination.CERTIFIED_COMPLETE
        cert_entries = [e for e in spec.log if e.get("status") == "primal-infeasible"]
        assert cert_entries, "no infeasibility event logged"
        assert min(e["k"] for e in cert_entries) <= system.k0 + 2
    report(2, True, "both kinds certified empty within k0+2")


def test_criterion_3_example14():
    z = sweep_tensor("Z", fixtures.ex14())
    okz = z.termination == Termination.CONTINUUM_SUSPECTED
    h = sweep_tensor("H", fixtures.ex14())
    okh, dh = check_values("3/H", h, [0.0, 1.0])
    report(3, okz and okh,
           f"Z termination={z.termination.value} | " + dh)


def test_criterion_4_example52():
    z = sweep_tensor("Z", fixtures.ex52(), nonneg=True)
    okz, dz = check_values("4/Z", z, [0.2331, 0.4869, 2.7418])
    h = sweep_tensor("H", fixtures.ex52())
    expected = [1.3586, 1.4985, 1.5226, 4.7303]
    tols = [TOL, TOL, 5e-2, TOL]   # third reference value is only sure to 5e-2
    okh = len(h.values) == 4 and all(
        abs(v - e) <= t for v, e, t in zip(sorted(h.values), expected, tols))
    dh = f"H values={[round(v, 4) for v in h.values]} expected={expected}"
    third = sorted(h.values)[2]
    print(f"[criterion 4] third H value {third:.4f}: off reference 1.5226 by "
          f"{abs(third - 1.5226):.1e}, off variant 1.5526 by "
          f"{abs(third - 1.5526):.1e}")
    report(4, okz and okh, dz + " | " + dh)


def test_criterion_5_example53():
    z = sweep_tensor("Z", fixtures.ex53(), nonneg=True)
    okz, dz = check_values("5/Z", z, [0.0, 0.5774])
    h = sweep_tensor("H", fixtures.ex53())
    okh, dh = check_values("5/H", h, [0.0, 0.7875])
    report(5, okz and okh, dz + " | " + dh)


def test_criterion_6_example54():
    z2 = sweep_tensor("Z", fixtures.ex54(2), nonneg=True)
    ok1, d1 = check_values("6/Z2", z2, [10.5518])
    h2 = sweep_tensor("H", fixtures.ex54(2))
    ok2 = h2.eigenpairs == [] and h2.termination == Termination.CERTIFIED_COMPLETE
    z3 = sweep_tensor("Z", fixtures.ex54(3), nonneg=True)
    ok3, d3 = check_values("6/Z3", z3, [0.2336, 1.6614, 10.5063])
    h3 = sweep_tensor("H", fixtures.ex54(3))
    ok4, d4 = check_values("6/H3", h3, [-2.5615, 0.3456])
    report(6, ok1 and ok2 and ok3 and ok4, " | ".join((d1, "H2 empty", d3, d4)))


def test_criterion_6_example54_n4_optional():
    # time-boxed optional row
    opts = dict(nonneg=True, kmax_offset=2)
    z4 = full_sweep("Z", fixtures.ex54(4), SweepOptions(**opts))
    ok1, d1 = check_values("6opt/Z4", z4, [3.3651, 8.8507, 10.4981])
    h4 = full_sweep("H", fixtures.ex54(4), SweepOptions(kmax_offset=2))
    ok2, d2 = check_values("6opt/H4", h4, [-6.2888, -0.7048, 2.8947, 5.9245])
    report("6-optional", ok1 and ok2, d1 + " | " + d2)


def test_criterion_7_example55():
    z = sweep_tensor("Z", fixtures.ex55())
    okz, dz = check_values("7/Z", z, [-0.27, 0.0003, 13.8286])
    h = sweep_tensor("H", fixtures.ex55())
    okh, dh = check_values("7/H", h, [-0.3662, 0.0005, 41.4705])
    report(7, okz and okh, dz + " | " + dh)


def test_criterion_8_example56():
    z = sweep_tensor("Z", fixtures.ex56())
    okz, dz = check_values("8/Z", z, [0.0, 0.0002, 0.4572])
    h = sweep_tensor("H", fixtures.ex56())
    okh, dh = check_values("8/H", h, [0.0, 0.0005, 1.3581])
    report(8, okz and okh, dz + " | " + dh)


def test_criterion_9_example57():
    z = sweep_tensor("Z", fixtures.ex57(2), nonneg=True)
    okz, dz = check_values("9/Z", z, [0.4721])
    h = sweep_tensor("H", fixtures.ex57(2))
    okh, dh = check_values("9/H", h, [0.5138, 1.2654])
    report(9, okz and okh, dz + " | " + dh)


def test_criterion_10_oracle_equivalence():
    disagreements = []
    skipped = 0
    for i in range(200):
        m = 3 if i % 2 == 0 else 4
        kind = "Z" if i % 4 < 2 else "H"
        A = fixtures.random_tensor(m, 2, seed=20000 + i)
        oracle = brute_z_n2(A) if kind == "Z" else brute_h_n2(A)
        if not oracle.complete:
            skipped += 1
            continue
        spec = full_sweep(kind, A)
        d = hausdorff(spec.values, oracle.values)
        if d > 1e-5:
            disagreements.append((i, m, kind, d, oracle.values, spec.values))
    report(10, not disagreements,
           f"200 tensors, {skipped} incomplete-oracle skips, "
           f"{len(disagreements)} disagreements")


# --- criterion 11: invariant and property checks ---------------------------

def test_criterion_11a_localizing_identity():
    rng = np.random.default_rng(301)
    from tensorspectra.momentsdp import localizing_structure

    worst = 0.0
    for _ in range(25):
        n = int(rng.integers(2, 4))
        k = int(rng.integers(1, 4))
        monos = monomials_upto(n, 2)
        q = Polynomial(n, {monos[rng.integers(len(monos))]: rng.normal()
                           for _ in range(3)})
        if not q.terms:
            continue
        s = localizing_structure(q, k)
        y = MomentVector(n, k, rng.normal(size=basis_size(n, 2 * k)))
        L = assemble_matrix(s, y)
        pm = monomials_upto(n, k - (q.degree + 1) // 2)
        vec_p = rng.normal(size=len(pm))
        p = Polynomial(n, dict(zip(pm, vec_p)))
        err = abs(vec_p @ L @ vec_p - y.pair(q * p * p))
        worst = max(worst, err / (1.0 + abs(vec_p @ L @ vec_p)))
    report("11a", worst <= 1e-10, f"localizing identity worst rel err {worst:.2e}")


def test_criterion_11b_documented_matrix_structures():
    from tensorspectra.momentsdp import localizing_structure

    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    s = localizing_structure(x1 * x2 - x1 ** 2 - x2 ** 2, 2)
    sm = moment_structure(2, 2)
    rng = np.random.default_rng(302)
    y = rng.normal(size=basis_size(2, 4))
    monos = monomials_upto(2, 4)
    idx = {m: i for i, m in enumerate(monos)}
    L = assemble_matrix(s, y)
    want_11 = y[idx[(1, 1)]] - y[idx[(2, 0)]] - y[idx[(0, 2)]]
    want_12 = y[idx[(2, 1)]] - y[idx[(3, 0)]] - y[idx[(1, 2)]]
    M = assemble_matrix(sm, y)
    first_row = [y[idx[m]] for m in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]]
    ok = (L[0, 0] == pytest.approx(want_11, abs=1e-14)
          and L[0, 1] == pytest.approx(want_12, abs=1e-14)
          and np.allclose(M[0], first_row)
          and np.allclose(M, M.T) and np.allclose(L, L.T))
    report("11b", ok, "displayed matrix layouts reproduced")


def test_criterion_11c_residual_gates_on_emitted_pairs():
    worst = 0.0
    for kind, name, nonneg in [("Z", "ex51", False), ("H", "ex51", False),
                               ("Z", "ex52", True), ("H", "ex52", False)]:
        A = getattr(fixtures, name)()
        spec = _sweep_cache.get((kind, name)) or sweep_tensor(kind, A, nonneg)
        system = EigenSystem(kind, A)
        for p in spec.eigenpairs:
            for v in p.vectors:
                worst = max(worst, system.residual(p.value, v))
    report("11c", worst <= 1e-7, f"worst emitted residual {worst:.2e}")


def test_criterion_11d_h_count_bound():
    for name, n in [("ex51", 2), ("ex52", 3), ("ex53", 3)]:
        A = getattr(fixtures, name)()
        spec = _sweep_cache.get(("H", name)) or sweep_tensor("H", A)
        assert len(spec.values) <= h_count_bound(A.order, A.dim)
    report("11d", True, "H spectrum sizes within n(m-1)^(n-1)")


def test_criterion_11e_odd_order_sign_symmetry():
    ok = True
    for seed in (303, 304):
        A = fixtures.random_tensor(3, 2, seed=seed)
        spec = full_sweep("Z", A)
        vals = spec.values
        ok = ok and np.allclose(vals, sorted(-v for v in vals), atol=1e-6)
    report("11e", ok, "odd-order Z spectra symmetric about zero")


def test_criterion_11f_monotone_hierarchy():
    from tensorspectra.driver import z_system

    f, hs = z_system(fixtures.ex52())
    vals = []
    for k in (2, 3, 4):
        sol = solve(build_min_relaxation(f, hs, [], k))
        vals.append(sol.objective)
    ok = all(b >= a - 1e-6 for a, b in zip(vals, vals[1:]))
    report("11f", ok, f"hierarchy bounds {['%.6f' % v for v in vals]}")


def test_criterion_11g_jacobian_finite_differences():
    worst = 0.0
    for kind in ("Z", "H"):
        A = fixtures.random_tensor(4, 3, seed=305)
        system = EigenSystem(kind, A)
        rng = np.random.default_rng(306)
        lam, x = 0.3, rng.normal(size=3)
        J = system.jacobian(lam, x)
        h = 1e-6
        for col in range(4):
            dp = np.zeros(4)
            dp[col] = h
            fd = (system.F(lam + dp[0], x + dp[1:]) -
                  system.F(lam - dp[0], x - dp[1:])) / (2 * h)
            worst = max(worst, float(np.max(np.abs(J[:, col] - fd))))
    report("11g", worst <= 1e-5, f"jacobian vs differences, worst {worst:.2e}")


def test_criterion_11h_extraction_reconstruction():
    from tensorspectra.extract import extract_atoms, flat_truncation

    rng = np.random.default_rng(307)
    worst = 0.0
    for r in (1, 2, 3, 4):
        pts = rng.normal(size=(r, 2))
        w = rng.random(r) + 0.3
        w /= w.sum()
        vals = sum(wi * moment_vector_of_point(p, 3).values
                   for wi, p in zip(w, pts))
        y = MomentVector(2, 3, vals)
        t = flat_truncation(y, 1, 3)
        meas = extract_atoms(y, t)
        worst = max(worst, meas.residual)
    report("11h", worst <= 1e-4, f"worst reconstruction residual {worst:.2e}")


def test_criterion_11i_no_false_infeasibility():
    from tensorspectra.driver import z_system

    checked = 0
    for seed in range(10):
        A = fixtures.random_tensor(3, 2, seed=30800 + seed)
        res = brute_z_n2(A)
        if not res.eigenpairs:
            continue
        f, hs = z_system(A)
        for k in (2, 3):
            prob = build_min_relaxation(f, hs, [], k)
            u = res.eigenpairs[0][1][0]
            y = moment_vector_of_point(u, k)
            assert np.max(np.abs(prob.eq_rows @ y.values[prob.support] - prob.eq_rhs)) < 1e-8
            sol = solve(prob)
            assert sol.status != SolveStatus.PRIMAL_INFEASIBLE
            checked += 1
    report("11i", checked >= 10,
           f"{checked} relaxations with injected feasible points, none infeasible")


def test_criterion_12_determinism(tmp_path, capsys):
    path = tmp_path / "ex51.tsr"
    path.write_text(serialize_tensor(fixtures.ex51()))
    outputs = []
    for _ in range(2):
        rc = run(["both", str(path), "--json", "--seed", "1"])
        assert rc == 0
        outputs.append(capsys.readouterr().out)
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    json.loads("[" + outputs[0].replace("}\n{", "},\n{") + "]")
    report(12, ok, f"{len(outputs[0])} bytes, byte-identical across runs")
