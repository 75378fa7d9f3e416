import numpy as np
import pytest

import fixtures
from tensorspectra.driver import z_system
from tensorspectra.extract import (ExtractionError, extract_atoms,
                                   flat_truncation, numerical_rank)
from tensorspectra.momentsdp import (MomentVector, build_min_relaxation,
                                     moment_vector_of_point)
from tensorspectra.poly import basis_size
from tensorspectra.sdpsolver import SolveStatus, solve


def test_numerical_rank_rank_one():
    rng = np.random.default_rng(20)
    v = rng.normal(size=8)
    assert numerical_rank(np.outer(v, v), 1e-6) == 1


def test_numerical_rank_zero_matrix():
    assert numerical_rank(np.zeros((5, 5)), 1e-6) == 0
    assert numerical_rank(1e-13 * np.eye(3), 1e-6) == 0


def test_numerical_rank_two_atoms():
    rng = np.random.default_rng(21)
    u = rng.normal(size=6)
    v = rng.normal(size=6)
    M = 0.5 * np.outer(u, u) + 0.5 * np.outer(v, v)
    assert numerical_rank(M, 1e-6) == 2


def test_numerical_rank_monotone_in_threshold():
    rng = np.random.default_rng(22)
    M = rng.normal(size=(7, 7))
    M = M @ M.T
    ranks = [numerical_rank(M, tau) for tau in (1e-12, 1e-8, 1e-4, 1e-1, 1.0)]
    assert ranks == sorted(ranks, reverse=True)


def test_flat_truncation_on_point_moments():
    rng = np.random.default_rng(23)
    u = rng.normal(size=2)
    for k0, k in [(1, 2), (2, 3), (3, 3)]:
        y = moment_vector_of_point(u, k)
        assert flat_truncation(y, k0, k) == k0


def test_flat_truncation_absent_before_convergence():
    # a rank-2 measure cannot look flat when t - k0 = 0 is forced
    y1 = moment_vector_of_point([1.0, 0.0], 2)
    y2 = moment_vector_of_point([0.0, 1.0], 2)
    y = MomentVector(2, 2, 0.5 * y1.values + 0.5 * y2.values)
    assert flat_truncation(y, 2, 2) is None
    assert flat_truncation(y, 1, 2) == 2


def test_flat_truncation_requires_order():
    y = moment_vector_of_point([1.0, 2.0], 2)
    with pytest.raises(ValueError):
        flat_truncation(y, 3, 2)


def test_extract_two_axis_atoms():
    y1 = moment_vector_of_point([1.0, 0.0], 3)
    y2 = moment_vector_of_point([0.0, 1.0], 3)
    y = MomentVector(2, 3, 0.5 * y1.values + 0.5 * y2.values)
    t = flat_truncation(y, 1, 3)
    meas = extract_atoms(y, t)
    pts = sorted(tuple(np.round(u, 9)) for u in meas.points)
    assert pts == [(0.0, 1.0), (1.0, 0.0)]
    assert np.allclose(meas.weights, 0.5, atol=1e-9)
    assert meas.residual <= 1e-8


def test_extract_single_random_atom():
    rng = np.random.default_rng(24)
    u = rng.normal(size=3)
    y = moment_vector_of_point(u, 2)
    meas = extract_atoms(y, flat_truncation(y, 2, 2))
    assert len(meas.atoms) == 1
    assert np.max(np.abs(meas.points[0] - u)) < 1e-8
    assert meas.weights[0] == pytest.approx(1.0, abs=1e-9)
    assert meas.residual < 1e-8


@pytest.mark.parametrize("r", [2, 3, 4])
def test_extract_random_atom_mixtures(r):
    rng = np.random.default_rng(100 + r)
    pts = rng.normal(size=(r, 2))
    w = rng.random(r) + 0.2
    w /= w.sum()
    vals = sum(wi * moment_vector_of_point(p, 3).values
               for wi, p in zip(w, pts))
    y = MomentVector(2, 3, vals)
    t = flat_truncation(y, 1, 3)
    assert t is not None
    meas = extract_atoms(y, t)
    assert len(meas.atoms) == r
    got = sorted(map(tuple, np.round(meas.points, 8)))
    want = sorted(map(tuple, np.round(pts, 8)))
    for g, wv in zip(got, want):
        assert np.max(np.abs(np.array(g) - np.array(wv))) < 1e-6
    assert meas.residual <= 1e-4
    assert np.all(meas.weights > 0)
    assert meas.weights.sum() == pytest.approx(1.0, abs=1e-6)


def test_extract_weights_match_mixture():
    rng = np.random.default_rng(25)
    pts = np.array([[0.3, -1.2], [1.1, 0.4], [-0.6, 0.8]])
    w = np.array([0.2, 0.5, 0.3])
    vals = sum(wi * moment_vector_of_point(p, 3).values
               for wi, p in zip(w, pts))
    y = MomentVector(2, 3, vals)
    meas = extract_atoms(y, flat_truncation(y, 1, 3))
    order = np.argsort([p[0] for p in meas.points])
    got_w = meas.weights[order]
    want_order = np.argsort(pts[:, 0])
    assert np.allclose(got_w, w[want_order], atol=1e-8)


def test_extraction_from_solved_relaxation_ex51():
    f, hs = z_system(fixtures.ex51())
    prob = build_min_relaxation(f, hs, [], 4)
    sol = solve(prob)
    assert sol.status == SolveStatus.OPTIMAL
    y = prob.lift(sol.y)
    t = flat_truncation(y, 3, 4)
    assert t is not None
    meas = extract_atoms(y, t)
    pts = sorted(tuple(np.round(u, 4)) for u in meas.points)
    assert pts == [(-0.0, -1.0), (0.0, 1.0)] or pts == [(0.0, -1.0), (0.0, 1.0)]
    assert meas.residual <= 1e-4


def test_extraction_reports_failure_on_garbage():
    rng = np.random.default_rng(26)
    # random non-moment data cannot reconstruct
    vals = rng.normal(size=basis_size(2, 6))
    vals[0] = 1.0
    y = MomentVector(2, 3, vals)
    with pytest.raises(ExtractionError):
        extract_atoms(y, 3)


def test_extracted_atoms_near_variety_before_polish():
    # atoms from a solved relaxation satisfy its defining equations already
    from tensorspectra.driver import EigenSystem

    A = fixtures.ex51()
    system = EigenSystem("Z", A)
    f, hs = z_system(A)
    prob = build_min_relaxation(f, hs, [], 4)
    sol = solve(prob)
    y = prob.lift(sol.y)
    meas = extract_atoms(y, flat_truncation(y, 3, 4))
    for u in meas.points:
        u = system.normalize(u)
        assert max(abs(h.evaluate(u)) for h in hs) <= 1e-5


def test_extraction_deterministic():
    y1 = moment_vector_of_point([1.0, 0.0], 3)
    y2 = moment_vector_of_point([0.0, 1.0], 3)
    y = MomentVector(2, 3, 0.4 * y1.values + 0.6 * y2.values)
    a = extract_atoms(y, 2, seed=7)
    b = extract_atoms(y, 2, seed=7)
    assert np.array_equal(np.array(a.points), np.array(b.points))
    assert np.array_equal(a.weights, b.weights)
