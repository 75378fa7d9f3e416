import numpy as np
import pytest

import fixtures
from tensorspectra.driver import EigenSystem
from tensorspectra.momentsdp import build_min_relaxation, moment_vector_of_point
from tensorspectra.oracle import (IdenticallyZeroError, brute_h_n2,
                                  brute_z_n2, companion_roots)


def test_companion_roots_quadratics():
    assert companion_roots([-1.0, 0.0, 1.0]) == [-1.0, 1.0]
    assert companion_roots([1.0, 0.0, 1.0]) == []


def test_companion_roots_identically_zero():
    with pytest.raises(IdenticallyZeroError):
        companion_roots([0.0, 0.0, 0.0])
    with pytest.raises(IdenticallyZeroError):
        companion_roots([])


def test_companion_roots_trims_tiny_leading():
    roots = companion_roots([-2.0, 1.0, 1e-15])
    assert roots == pytest.approx([2.0])


def test_companion_roots_polish():
    # (t - 1)^3 has a badly conditioned triple root; polish keeps it close
    roots = companion_roots([-1.0, 3.0, -3.0, 1.0])
    for r in roots:
        assert abs(r - 1.0) < 1e-4


def test_oracle_z_ex51():
    res = brute_z_n2(fixtures.ex51())
    assert res.complete
    assert [round(v, 4) for v in res.values] == [23.0, 25.1]
    by_val = dict(res.eigenpairs)
    vecs23 = sorted(tuple(np.round(v, 4)) for v in by_val[res.values[0]])
    assert vecs23 == [(-0.0, -1.0), (0.0, 1.0)] or vecs23 == [(0.0, -1.0), (0.0, 1.0)]


def test_oracle_h_ex51():
    res = brute_h_n2(fixtures.ex51())
    assert [round(v, 4) for v in res.values] == [23.0, 25.1, 49.2687]
    top_vecs = res.eigenpairs[-1][1]
    assert len(top_vecs) == 4
    mags = {tuple(np.round(np.abs(v), 4)) for v in top_vecs}
    assert mags == {(0.8527, 0.8285)}


def test_oracle_empty_ex13():
    assert brute_z_n2(fixtures.ex13()).eigenpairs == []
    assert brute_h_n2(fixtures.ex13()).eigenpairs == []


def test_oracle_continuum_flag_ex14():
    res = brute_z_n2(fixtures.ex14())
    assert not res.complete
    assert "identically zero" in res.note


def test_oracle_h_ex14():
    res = brute_h_n2(fixtures.ex14())
    assert res.complete
    assert [round(v, 9) for v in res.values] == [0.0, 1.0]


def test_oracle_dimension_guard():
    with pytest.raises(ValueError):
        brute_z_n2(fixtures.ex52())
    with pytest.raises(ValueError):
        brute_h_n2(fixtures.ex52())


def test_oracle_residuals_tight():
    for seed in range(6):
        A = fixtures.random_tensor(3, 2, seed=600 + seed)
        for res, kind in ((brute_z_n2(A), "Z"), (brute_h_n2(A), "H")):
            system = EigenSystem(kind, A)
            for lam, vecs in res.eigenpairs:
                for v in vecs:
                    assert system.residual(lam, v) <= 1e-9


def test_oracle_z_odd_order_sign_symmetric():
    for seed in range(8):
        A = fixtures.random_tensor(3, 2, seed=700 + seed)
        vals = brute_z_n2(A).values
        negated = sorted(-v for v in vals)
        assert np.allclose(vals, negated, atol=1e-9)


def test_oracle_pairs_feasible_for_relaxation():
    from tensorspectra.driver import z_system

    for seed in range(4):
        A = fixtures.random_tensor(4, 2, seed=800 + seed)
        res = brute_z_n2(A)
        if not res.eigenpairs:
            continue
        f, hs = z_system(A)
        prob = build_min_relaxation(f, hs, [], 3)
        for lam, vecs in res.eigenpairs:
            y = moment_vector_of_point(vecs[0], 3)
            v = y.values[prob.support]
            assert np.max(np.abs(prob.eq_rows @ v - prob.eq_rhs)) < 1e-8
            assert prob.c @ v == pytest.approx(lam, abs=1e-9)


def test_oracle_identity_tensor_h_continuum():
    from tensorspectra.tensor import identity_tensor

    res = brute_h_n2(identity_tensor(4, 2))
    # every direction is an eigenvector at value 1: eliminant vanishes
    assert not res.complete


def test_oracle_matrix_case():
    from tensorspectra.tensor import Tensor

    M = np.array([[2.0, 1.0], [1.0, 3.0]])
    res = brute_z_n2(Tensor(M))
    want = sorted(np.linalg.eigvalsh(M))
    assert np.allclose(res.values, want, atol=1e-9)
