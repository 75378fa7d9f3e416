import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixtures
from tensorspectra.poly import (Polynomial, basis_size, exponents, moment_index_table,
                                monomial_rank, monomial_unrank, monomials_upto,
                                positions, tensor_to_poly, tensor_to_poly_vector)
from tensorspectra.tensor import contract_full, contract_partial, identity_tensor


def test_basis_size_values():
    assert basis_size(2, 2) == 6      # the 6x6 order-2 moment matrix side
    assert basis_size(5, 0) == 1
    assert basis_size(3, 4) == 35
    assert basis_size(1, 7) == 8


def test_rank_of_first_monomials_n2():
    assert monomial_rank((0, 0)) == 0
    assert monomial_rank((1, 0)) == 1
    assert monomial_rank((0, 1)) == 2
    assert monomial_rank((2, 0)) == 3
    assert monomial_rank((1, 1)) == 4
    assert monomial_rank((0, 2)) == 5


def test_constant_monomial_rank_any_n():
    for n in range(1, 6):
        assert monomial_rank((0,) * n) == 0


def test_unrank_last_degree2_n2():
    assert monomial_unrank(2, 2, 5) == (0, 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_rank_unrank_bijection_exhaustive(n):
    d = 10
    monos = monomials_upto(n, d)
    assert len(monos) == basis_size(n, d)
    for r, mono in enumerate(monos):
        assert monomial_rank(mono) == r
        assert monomial_unrank(n, d, r) == mono


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(0, 8))
def test_order_arrays_match_the_combinatorial_rank(n, d):
    # monomial_rank needs no table, so it checks the shared arrays independently
    monos = monomials_upto(n, d)
    E = exponents(n, d)
    assert E.tolist() == [list(m) for m in monos]
    assert positions(n, d, E).tolist() == [monomial_rank(m) for m in monos]
    grid = np.array(list(itertools.product(range(d + 1), repeat=n)))
    outside = grid.sum(axis=1) > d
    assert np.all(positions(n, d, grid[outside]) == -1)
    t = d // 2
    basis = monomials_upto(n, t)
    want = [[monomial_rank(tuple(x + y for x, y in zip(a, b))) for b in basis] for a in basis]
    assert moment_index_table(n, t).tolist() == want


def test_rank_monotone_in_degree():
    for n in (2, 3):
        prev_max = -1
        for d in range(6):
            ranks = [monomial_rank(m) for m in monomials_upto(n, d)
                     if sum(m) == d]
            assert min(ranks) > prev_max
            prev_max = max(ranks)


def test_unrank_out_of_range():
    with pytest.raises(ValueError):
        monomial_unrank(2, 2, 6)
    with pytest.raises(ValueError):
        monomial_unrank(2, 2, -1)


def test_multiply_difference_of_squares():
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    p = (x1 + x2) * (x1 - x2)
    assert p == x1 * x1 - x2 * x2


def test_evaluate_example():
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    p = x1 * x2 - x1 ** 2 - x2 ** 2
    assert p.evaluate([1.0, 1.0]) == pytest.approx(-1.0)


def test_gradient_example():
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    g = (x1 ** 2 * x2).gradient()
    assert g[0] == 2.0 * x1 * x2
    assert g[1] == x1 ** 2


def test_mismatched_variables_raise():
    with pytest.raises(ValueError):
        Polynomial.variable(2, 0) + Polynomial.variable(3, 0)


def _random_poly(rng, n, deg, terms=6):
    monos = monomials_upto(n, deg)
    out = {}
    for _ in range(terms):
        out[monos[rng.integers(len(monos))]] = rng.normal()
    return Polynomial(n, out)


def test_evaluate_distributes_over_ring_ops():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        p = _random_poly(rng, n, 3)
        q = _random_poly(rng, n, 3)
        x = rng.normal(size=n)
        ref = p.evaluate(x)
        assert (p + q).evaluate(x) == pytest.approx(ref + q.evaluate(x), rel=1e-10, abs=1e-10)
        assert p.scale(2.5).evaluate(x) == pytest.approx(2.5 * ref, rel=1e-10, abs=1e-10)
        assert (p * q).evaluate(x) == pytest.approx(ref * q.evaluate(x), rel=1e-10, abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 3), st.integers(0, 60), st.integers(0, 60))
def test_product_evaluation_property(n, seed_p, seed_q):
    rng_p = np.random.default_rng(seed_p)
    rng_q = np.random.default_rng(1000 + seed_q)
    p = _random_poly(rng_p, n, 2)
    q = _random_poly(rng_q, n, 2)
    x = np.random.default_rng(seed_p + seed_q).normal(size=n)
    lhs = (p * q).evaluate(x)
    rhs = p.evaluate(x) * q.evaluate(x)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-9)


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(12)
    h = 1e-6
    for _ in range(10):
        n = int(rng.integers(1, 4))
        p = _random_poly(rng, n, 3)
        grads = p.gradient()
        x = rng.normal(size=n)
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            fd = (p.evaluate(x + e) - p.evaluate(x - e)) / (2 * h)
            assert abs(grads[i].evaluate(x) - fd) < 1e-5


def test_tensor_to_poly_identity_order3():
    I = identity_tensor(3, 2)
    f = tensor_to_poly(I)
    assert f.terms == {(3, 0): 1.0, (0, 3): 1.0}
    parts = tensor_to_poly_vector(I)
    assert parts[0].terms == {(2, 0): 1.0}
    assert parts[1].terms == {(0, 2): 1.0}


def test_tensor_to_poly_ex14():
    A = fixtures.ex14()
    f = tensor_to_poly(A)
    assert f.terms == {(4, 0): 1.0, (2, 2): 1.0}
    parts = tensor_to_poly_vector(A)
    assert parts[0].terms == {(3, 0): 1.0}
    assert parts[1].terms == {(2, 1): 1.0}


def test_tensor_polys_match_contractions():
    rng = np.random.default_rng(13)
    for m, n in [(3, 2), (3, 3), (4, 2)]:
        A = fixtures.random_tensor(m, n, seed=int(rng.integers(1 << 30)))
        f = tensor_to_poly(A)
        parts = tensor_to_poly_vector(A)
        for _ in range(100 // (m * n)):
            x = rng.normal(size=n)
            assert f.evaluate(x) == pytest.approx(contract_full(A, x), rel=1e-12, abs=1e-12)
            want = contract_partial(A, x)
            got = np.array([p.evaluate(x) for p in parts])
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_degree_of_zero_polynomial():
    assert Polynomial.zero(3).degree == 0
    assert Polynomial.zero(3).evaluate([1.0, 2.0, 3.0]) == 0.0
