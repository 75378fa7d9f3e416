import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse

import fixtures
from tensorspectra import Tensor, momentsdp
from tensorspectra.driver import EigenSystem, h_system, z_system
from tensorspectra.momentsdp import (SPLIT_MIN_SIDE, MomentVector,
                                     _build_relaxation, _moment_bound,
                                     _parity, _parity_parts, assemble_matrix,
                                     build_max_relaxation, build_min_relaxation,
                                     dump_problem, localizing_structure,
                                     moment_structure, moment_vector_of_point)
from tensorspectra.poly import (Polynomial, basis_size, exponents, moment_index_table,
                                monomials_upto, positions)
from tensorspectra.sdpsolver import (EPS_FEAS, EPS_GAP, EQ_RANK_TOL, ConicSolution,
                                     SolveStatus, solve, verify_solution)


def _unit_moment(n, k, alpha):
    vals = np.zeros(basis_size(n, 2 * k))
    monos = monomials_upto(n, 2 * k)
    vals[monos.index(alpha)] = 1.0
    return MomentVector(n, k, vals)


def _cell_pattern(s, i, j):
    """Moment exponents and coefficients read from one matrix cell."""
    n = s.q.n
    monos = monomials_upto(n, 2 * s.k)
    row = s.matrix[i * s.side + j].toarray().ravel()
    return {monos[idx]: row[idx] for idx in np.nonzero(row)[0]}


def test_localizing_structure_matches_displayed_3x3():
    # q = x1*x2 - x1^2 - x2^2 at order 2: 3x3 with documented cells
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    q = x1 * x2 - x1 ** 2 - x2 ** 2
    s = localizing_structure(q, 2)
    assert s.side == 3
    assert _cell_pattern(s, 0, 0) == {(1, 1): 1.0, (2, 0): -1.0, (0, 2): -1.0}
    assert _cell_pattern(s, 0, 1) == {(2, 1): 1.0, (3, 0): -1.0, (1, 2): -1.0}
    assert _cell_pattern(s, 0, 2) == {(1, 2): 1.0, (2, 1): -1.0, (0, 3): -1.0}
    assert _cell_pattern(s, 1, 1) == {(3, 1): 1.0, (4, 0): -1.0, (2, 2): -1.0}
    assert _cell_pattern(s, 1, 2) == {(2, 2): 1.0, (3, 1): -1.0, (1, 3): -1.0}
    assert _cell_pattern(s, 2, 2) == {(1, 3): 1.0, (2, 2): -1.0, (0, 4): -1.0}
    # symmetry of off-diagonal cells
    assert _cell_pattern(s, 1, 0) == _cell_pattern(s, 0, 1)


def test_moment_matrix_structure_matches_displayed_6x6():
    s = moment_structure(2, 2)
    assert s.side == 6
    first_row = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    for j, alpha in enumerate(first_row):
        assert _cell_pattern(s, 0, j) == {alpha: 1.0}
    # cell (i, j) holds the exponent sum of the i-th and j-th basis monomials
    monos = monomials_upto(2, 2)
    for i in range(6):
        for j in range(6):
            alpha = tuple(a + b for a, b in zip(monos[i], monos[j]))
            assert _cell_pattern(s, i, j) == {alpha: 1.0}


def test_moment_index_table_matches_moment_structure():
    rng = np.random.default_rng(9)
    for n in (1, 2, 3):
        for t in range(5):
            y = rng.normal(size=basis_size(n, 2 * t))
            want = assemble_matrix(moment_structure(n, t), y)
            assert np.array_equal(y[moment_index_table(n, t)], want)


def _loop_localizing_matrix(q, k):
    """Reference: the localizing operator built cell by cell and term by term."""
    n = q.n
    side = basis_size(n, k - (q.degree + 1) // 2)
    basis = monomials_upto(n, k - (q.degree + 1) // 2)
    table = {mono: i for i, mono in enumerate(monomials_upto(n, 2 * k))}
    rows, cols, data = [], [], []
    for a in range(side):
        for b in range(a, side):
            for cell in {a * side + b, b * side + a}:
                for mono, c in q.terms.items():
                    rows.append(cell)
                    cols.append(table[tuple(x + y + z for x, y, z
                                            in zip(mono, basis[a], basis[b]))])
                    data.append(c)
    return scipy.sparse.csr_matrix((data, (rows, cols)),
                                   shape=(side * side, basis_size(n, 2 * k)))


def _structure_polynomials():
    rng = np.random.default_rng(11)
    for n in range(1, 5):
        for k in range(1, 5):
            for terms in (1, 2, 5, 10):
                monos = monomials_upto(n, int(rng.integers(0, 2 * k + 1)))
                pick = rng.choice(len(monos), size=min(terms, len(monos)), replace=False)
                yield Polynomial(n, {monos[i]: rng.standard_normal() for i in pick}), k
    for make in (fixtures.ex51, fixtures.ex52, fixtures.ex55, lambda: fixtures.ex54(4)):
        A = make()
        f, hs = z_system(A)
        fh, hhs, _m0 = h_system(A)
        for q in [f, fh] + hs + hhs:
            for k in range((q.degree + 1) // 2, 5):
                yield q, k


def test_localizing_structure_matches_loop_reference():
    count = 0
    for q, k in _structure_polynomials():
        got = localizing_structure(q, k).matrix
        want = _loop_localizing_matrix(q, k)
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)
        count += 1
    assert count > 100


def test_moment_matrix_of_point_is_rank_one():
    rng = np.random.default_rng(5)
    u = rng.normal(size=2)
    y = moment_vector_of_point(u, 2)
    M = assemble_matrix(moment_structure(2, 2), y)
    v = np.array([np.prod(u ** np.array(m)) for m in monomials_upto(2, 2)])
    assert np.allclose(M, np.outer(v, v), atol=1e-12)
    assert np.linalg.matrix_rank(M, tol=1e-8) == 1


def test_assemble_unit_constant_moment():
    s = moment_structure(2, 2)
    y = _unit_moment(2, 2, (0, 0))
    M = assemble_matrix(s, y)
    expected = np.zeros((6, 6))
    expected[0, 0] = 1.0
    assert np.array_equal(M, expected)


def test_assemble_is_linear():
    rng = np.random.default_rng(6)
    s = localizing_structure(Polynomial.variable(3, 0), 2)
    N = basis_size(3, 4)
    y = rng.normal(size=N)
    z = rng.normal(size=N)
    a, b = 1.3, -0.7
    lhs = assemble_matrix(s, a * y + b * z)
    rhs = a * assemble_matrix(s, y) + b * assemble_matrix(s, z)
    assert np.array_equal(lhs, rhs)


def test_localizing_quadratic_form_identity():
    # vec(p)^T L_q(y) vec(p) = <q p^2, y> for random data
    rng = np.random.default_rng(7)
    for trial in range(20):
        n = int(rng.integers(2, 4))
        k = int(rng.integers(1, 4))
        dq = int(rng.integers(0, 2 * k + 1))
        monos_q = monomials_upto(n, dq)
        q = Polynomial(n, {monos_q[rng.integers(len(monos_q))]: rng.normal()
                           for _ in range(3)})
        if q.degree > 2 * k or not q.terms:
            continue
        s = localizing_structure(q, k)
        y = MomentVector(n, k, rng.normal(size=basis_size(n, 2 * k)))
        L = assemble_matrix(s, y)
        pm = monomials_upto(n, s.k - (q.degree + 1) // 2)
        vec_p = rng.normal(size=len(pm))
        p = Polynomial(n, dict(zip(pm, vec_p)))
        lhs = vec_p @ L @ vec_p
        rhs = y.pair(q * p * p)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-9)


def test_quadratic_form_on_point_moments():
    rng = np.random.default_rng(8)
    u = rng.normal(size=2)
    k = 3
    y = moment_vector_of_point(u, k)
    q = Polynomial(2, {(1, 0): 0.5, (0, 2): -1.2, (0, 0): 0.3})
    s = localizing_structure(q, k)
    L = assemble_matrix(s, y)
    pm = monomials_upto(2, s.side and (k - 1))
    for _ in range(5):
        vec_p = rng.normal(size=s.side)
        p = Polynomial(2, dict(zip(monomials_upto(2, k - 1), vec_p)))
        want = q.evaluate(u) * p.evaluate(u) ** 2
        assert vec_p @ L @ vec_p == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_degree_overflow_rejected():
    q = Polynomial.variable(2, 0) ** 5
    with pytest.raises(ValueError):
        localizing_structure(q, 2)
    f = Polynomial.variable(2, 0)
    with pytest.raises(ValueError):
        build_min_relaxation(f, [q], [], 2)


def test_min_relaxation_unit_row_and_blocks():
    f, hs = z_system(fixtures.ex51())
    prob = build_min_relaxation(f, hs, [], 3)
    assert prob.eq_rhs[0] == 1.0
    assert np.all(prob.eq_rhs[1:] == 0.0)
    unit = np.zeros(prob.num_vars)
    unit[0] = 1.0
    assert np.array_equal(prob.eq_rows[0], unit)
    # m0 = 2: the moment block keeps its 7 rows with alpha_1 < 2 of 10, and
    # the shift's localizing block, of degree at most 1, all 3 of its rows
    assert [b.side for b in prob.blocks] == [7]
    prob_shift = build_min_relaxation(f, hs, [f - 23.05], 3)
    assert len(prob_shift.blocks) == 2
    assert prob_shift.blocks[1].side == basis_size(2, 3 - 2)


def test_equality_rows_independent():
    f, hs = z_system(fixtures.ex51())
    prob = build_min_relaxation(f, hs, [], 3)
    ranks = np.linalg.matrix_rank(prob.eq_rows, tol=1e-9)
    assert ranks == prob.eq_rows.shape[0]


def test_point_moments_feasible_with_objective_value():
    # eigenpair moment vectors satisfy the built constraints exactly
    A = fixtures.ex51()
    f, hs = z_system(A)
    for k in (3, 4):
        prob = build_min_relaxation(f, hs, [], k)
        for u in ([0.0, 1.0], [1.0, 0.0], [0.0, -1.0]):
            y = moment_vector_of_point(u, k)
            v = y.values[prob.support]
            assert np.max(np.abs(prob.eq_rows @ v - prob.eq_rhs)) < 1e-10
            assert prob.c @ v == pytest.approx(f.evaluate(u), rel=1e-12)
            for blk in prob.blocks:
                M = assemble_matrix(blk, y)
                assert np.linalg.eigvalsh(M)[0] >= -1e-10


def test_relaxation_n1_toy_solves_to_one():
    x = Polynomial.variable(1, 0)
    prob = build_min_relaxation(x * x, [x * x - 1.0], [], 1)
    sol = solve(prob)
    assert sol.status == SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(1.0, abs=1e-6)


def test_max_relaxation_bounded_toy():
    x = Polynomial.variable(1, 0)
    prob = build_max_relaxation(x, [x * x - 1.0], [0.5 - x], 2)
    sol = solve(prob)
    assert sol.status == SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(-1.0, abs=1e-6)


def test_max_relaxation_example51_bound():
    A = fixtures.ex51()
    f, hs = z_system(A)
    prob = build_max_relaxation(f, hs, [23.05 - f], 4)
    sol = solve(prob)
    assert sol.status == SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(23.0, abs=5e-4)


def test_max_relaxation_infeasible_below_minimum():
    A = fixtures.ex51()
    f, hs = z_system(A)
    # no eigenvalue is <= 20, so the capped system is empty
    prob = build_max_relaxation(f, hs, [20.0 - f], 4)
    sol = solve(prob)
    assert sol.status == SolveStatus.PRIMAL_INFEASIBLE


def test_hierarchy_bounds_monotone():
    A = fixtures.ex52()
    f, hs = z_system(A)
    values = []
    for k in (2, 3, 4):
        sol = solve(build_min_relaxation(f, hs, [], k))
        assert sol.status in (SolveStatus.OPTIMAL, SolveStatus.INACCURATE)
        values.append(sol.objective)
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - 1e-6


def test_feasible_y_blocks_psd():
    A = fixtures.ex51()
    f, hs = z_system(A)
    prob = build_min_relaxation(f, hs, [], 3)
    sol = solve(prob)
    assert sol.status == SolveStatus.OPTIMAL
    for blk in prob.blocks:
        M = assemble_matrix(blk, prob.lift(sol.y))
        assert np.linalg.eigvalsh(M)[0] >= -1e-7


def test_truncation_is_prefix():
    rng = np.random.default_rng(9)
    u = rng.normal(size=3)
    y = moment_vector_of_point(u, 3)
    y2 = moment_vector_of_point(u, 2)
    assert np.allclose(y.truncate(4), y2.values)


# the eigen-systems of the reduction tests: (tensor, kind, order, the shift
# and the cap, each between two eigenvalues, and the largest eigenvalue).
# ex55 H is capped below its eigenvalue 5.5e-4: OPTIMAL solves of the order-5
# relaxation capped above it spread by 1.5e-7, full or reduced alike.
_INVARIANT = [
    ("ex51", "Z", 4, 24.0, 24.0, 25.1),
    ("ex55", "Z", 4, 5.0, 5.0, 13.8286),
    ("ex56", "Z", 4, 0.1, 0.1, 0.4572),
    ("ex51", "H", 4, 24.05, 24.05, 49.2687),
    ("ex55", "H", 5, 1.0, -0.1, 41.4705),
    ("ex56", "H", 5, 0.1, 0.1, 1.3581),
]


def _system(name, kind):
    """(f, hs, m0) of a fixture's eigen-system."""
    system = EigenSystem(kind, getattr(fixtures, name)())
    return system.f, system.h, system.m0


def _both(f, hs, ineqs, k, maximize):
    """The reduced relaxation and its full reference."""
    return (_build_relaxation(f, hs, ineqs, k, maximize, None),
            _build_relaxation(f, hs, ineqs, k, maximize, None, reduce=False))


def _rows(blk):
    """The rows of the whole basis that a block holds."""
    return np.arange(blk.side) if blk.rows is None else blk.rows


def _parts_of(red, full, m0):
    """Each block of ``full``, with the reduced blocks it became, and each
    reduced block's rows as positions among the rows of that block.

    The reduced blocks come in order: one block, or the even and the odd
    part of one.  Their rows partition the rows of the full block except
    exactly the sphere's leads, the monomials alpha with alpha_1 >= m0.
    """
    blocks = iter(red.blocks)
    for whole in full.blocks:
        parts = [next(blocks)]
        if parts[0].parity is not None:
            parts.append(next(blocks))
        rows = np.sort(np.concatenate([_rows(part) for part in parts]))
        assert np.array_equal(rows, _rows(whole)[whole.basis[:, 0] < m0])
        yield whole, [(part, np.searchsorted(_rows(whole), _rows(part))) for part in parts]
    assert next(blocks, None) is None


def _assert_parts_embed(red, full, m0):
    """Each reduced block is the principal submatrix of its full block on
    its rows, with the columns of the support.  A parity part holds no odd
    moment, and the cells of a split block outside its parts and outside
    the rows of the sphere's leads hold only odd ones."""
    kept = np.isin(full.support, red.support)
    for whole, parts in _parts_of(red, full, m0):
        covered = np.zeros((whole.side, whole.side), dtype=bool)
        for part, rows in parts:
            cells = (rows[:, None] * whole.side + rows).ravel()
            sub = whole.matrix[cells]
            assert (sub[:, kept] != part.matrix).nnz == 0
            if part.parity is not None:
                assert np.all(part.basis.sum(axis=1) % 2 == part.parity)
                assert sub[:, ~kept].nnz == 0
            covered[np.ix_(rows, rows)] = True
        held = whole.basis[:, 0] < m0
        assert np.array_equal(covered.diagonal(), held)
        between = (held[:, None] & held[None, :] & ~covered).ravel()
        assert whole.matrix[np.flatnonzero(between)][:, kept].nnz == 0


def _assert_lift_proves_the_same(red, full, sol, m0):
    """The OPTIMAL primal-dual result ``sol`` of ``red``, lifted, passes the
    check of ``full`` and proves there the bound it proves for ``red``, at
    the same c.y.  So the optima of both relaxations lie between that bound
    and c.y: the comparison reads one solve, through exact maps, and no
    second solve's rounding.  The interval is as narrow as the solver's
    stopping rule makes it: the duality gap is within EPS_GAP, and each of
    the N entries of the dual residual r within EPS_FEAS (1 + max|c|), so
    the slack, which reads ||r||_1, adds at most N times that."""
    assert sol.status is SolveStatus.OPTIMAL
    report = verify_solution(red, sol)
    assert report["ok"], report
    sign = -1.0 if red.maximize else 1.0
    width = EPS_GAP * (1.0 + 2.0 * abs(report["bound"])) + \
        red.num_vars * EPS_FEAS * (1.0 + np.max(np.abs(red.c)))
    assert math.fsum(red.c * sol.y) - sign * report["bound"] <= 2.0 * width
    lifted = _lift_pair(red, full, sol, m0)
    lifted_report = verify_solution(full, lifted)
    assert lifted_report["ok"], lifted_report
    assert abs(lifted_report["bound"] - report["bound"]) <= 1e-10 * (1.0 + abs(report["bound"]))
    # the same products, and zeros: correctly rounded sums agree exactly
    assert math.fsum(full.c * lifted.y) == math.fsum(red.c * sol.y)


@pytest.mark.parametrize("name,kind,k,shift,cap,top", _INVARIANT,
                         ids=[f"{c[0]}-{c[1]}" for c in _INVARIANT])
def test_reduced_relaxation_matches_full(name, kind, k, shift, cap, top):
    f, hs, m0 = _system(name, kind)
    capped = Polynomial.constant(f.n, cap) - f
    for ineqs, maximize in (([], False), ([f - shift], False), ([capped], True)):
        red, full = _both(f if not maximize else f.scale(-1.0), hs, ineqs, k, maximize)
        assert red.num_vars < full.num_vars
        assert np.array_equal(red.support, _even_positions(f.n, k))
        _assert_parts_embed(red, full, m0)
        _assert_lift_proves_the_same(red, full, solve(red), m0)


def _even_positions(n, k):
    return [i for i, m in enumerate(monomials_upto(n, 2 * k)) if sum(m) % 2 == 0]


def _lift_certificate(red, full, cert, m0):
    """A reduced Farkas certificate as one of the full relaxation.

    The unit row <1, y> = 1 keeps its multiplier, the localizing rows of
    odd support get zero, and those of even support reproduce the reduced
    localizing rows' combination (both sets span the same rows).  The
    duals of the reduced blocks are re-embedded at their rows of the full
    block, with zeros on the rows of the sphere's leads; over the even
    moments, a whole block's dual loses its cross-parity cells.  Both are
    pinchings of a PSD matrix, so they stay PSD, and the zero rows add
    nothing to the adjoint.  ``full`` may hold the same moments as
    ``red``, with its blocks whole, and may keep only the sphere's
    standard monomials too.
    """
    kept = np.isin(full.support, red.support)
    even_loc = ~np.any(full.eq_rows[:, ~kept] != 0, axis=1)
    even_loc[0] = False
    mu = np.zeros(full.eq_rows.shape[0])
    mu[0] = cert["mu"][0]
    mu[even_loc] = np.linalg.lstsq(full.eq_rows[even_loc][:, kept].T,
                                   red.eq_rows[1:].T @ cert["mu"][1:], rcond=None)[0]
    return {"mu": mu, "blocks": _embed_duals(red, full, cert["blocks"], m0)}


def _lift_pair(red, full, sol, m0):
    """A primal-dual result of ``red`` as one of ``full``: y through
    ``red.lift``, the duals as :func:`_lift_certificate` maps a ray's."""
    cert = _lift_certificate(red, full, {"mu": sol.eq_duals, "blocks": sol.block_duals}, m0)
    return ConicSolution(status=sol.status, y=red.lift(sol.y).values[full.support],
                         eq_duals=cert["mu"], block_duals=cert["blocks"])


def _embed_duals(red, full, duals, m0):
    """The block duals of ``red`` as duals of the blocks of ``full``."""
    duals = iter(duals)
    pinch = red.num_vars < full.num_vars   # cross-parity cells hold odd moments only
    embedded = []
    for whole, parts in _parts_of(red, full, m0):
        parity = whole.basis.sum(axis=1) % 2
        Z = np.zeros((whole.side, whole.side))
        for _part, rows in parts:
            Z[np.ix_(rows, rows)] = next(duals)
        embedded.append(Z * (parity[:, None] == parity[None, :]) if pinch else Z)
    return embedded


@pytest.mark.parametrize("name,kind,k,shift,cap,top", _INVARIANT + [
    ("ex13", "Z", 3, None, None, None), ("ex13", "H", 4, None, None, None)],
    ids=[f"{c[0]}-{c[1]}" for c in _INVARIANT] + ["ex13-Z", "ex13-H"])
def test_reduced_certificates_lift_to_full(name, kind, k, shift, cap, top):
    # shifted minimizations above the largest eigenvalue, and ex13's
    # minimizations (no real eigenvalue), are infeasible
    f, hs, m0 = _system(name, kind)
    ineqs = [] if top is None else [f - (top + 0.1)]
    for order in range(k, k + 3):
        red, full = _both(f, hs, ineqs, order, False)
        sol = solve(red)
        if sol.status == SolveStatus.PRIMAL_INFEASIBLE:
            break
    assert sol.status == SolveStatus.PRIMAL_INFEASIBLE
    assert verify_solution(red, sol)["ok"]
    lifted = ConicSolution(status=SolveStatus.PRIMAL_INFEASIBLE,
                           certificate=_lift_certificate(red, full, sol.certificate, m0))
    report = verify_solution(full, lifted)
    assert report["ok"], report


def _full_reference(f, hs, ineqs, k):
    """The parent's layout: every moment, blocks over the full vector."""
    return f.coefficient_vector(2 * k), [localizing_structure(g, k).matrix
                                         for g in [Polynomial.constant(f.n, 1.0)] + ineqs]


def _non_invariant_relaxations():
    # odd-order Z, with and without nonneg, and a mixed-parity system
    for make in (fixtures.ex52, fixtures.ex53):
        f, hs = z_system(make())
        for ineqs in ([], [f], [f, Polynomial.constant(3, 0.6) - f]):
            yield f, hs, ineqs, 3
    f, hs = z_system(fixtures.ex51())
    x1 = Polynomial.variable(2, 0)
    yield f, hs, [x1], 3                               # odd inequality
    yield f, hs + [x1 * x1 + x1 - 0.5], [], 3          # mixed-parity equality
    yield f + x1, hs, [], 3                            # mixed-parity objective


def test_non_invariant_relaxations_keep_every_moment():
    # every moment, and in each block the rows with alpha_1 < 2 (m0 = 2)
    for f, hs, ineqs, k in _non_invariant_relaxations():
        prob = build_min_relaxation(f, hs, ineqs, k)
        ref = _build_relaxation(f, hs, ineqs, k, False, None, reduce=False)
        c, mats = _full_reference(f, hs, ineqs, k)
        assert prob.num_vars == basis_size(f.n, 2 * k)
        assert np.array_equal(prob.support, np.arange(prob.num_vars))
        assert np.array_equal(prob.c, c)
        assert np.array_equal(prob.eq_rows, ref.eq_rows)
        assert np.array_equal(prob.eq_rhs, ref.eq_rhs)
        for blk, whole, want in zip(prob.blocks, ref.blocks, mats, strict=True):
            assert blk.support is None and blk.parity is None
            assert whole.rows is None and (whole.matrix != want).nnz == 0
            rows = np.flatnonzero(whole.basis[:, 0] < 2)
            assert np.array_equal(blk.rows, rows)
            assert (blk.matrix != want[(rows[:, None] * whole.side + rows).ravel()]).nnz == 0
        assert "support" not in dump_problem(prob)


def test_parity_detection():
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    assert _parity(Polynomial.zero(2)) == 0
    assert _parity(Polynomial.constant(2, 3.0)) == 0
    assert _parity(x * y - 1.0) == 0
    assert _parity(x + x * y * y) == 1
    assert _parity(x * y + x) is None
    assert _parity(x * 0.0) == 0
    # zero and constant polynomials keep a system sign-invariant
    f = x * x + y * y
    for eqs, ineqs in (([Polynomial.zero(2)], []), ([f - 1.0], [Polynomial.zero(2)]),
                       ([f - 1.0], [Polynomial.constant(2, 2.0)]),
                       ([f - 1.0, x * f], [])):
        prob = build_min_relaxation(f, eqs, ineqs, 2)
        assert list(prob.support) == _even_positions(2, 2)
    prob = build_min_relaxation(Polynomial.zero(2), [f - 1.0], [], 2)
    assert list(prob.support) == _even_positions(2, 2)
    assert build_min_relaxation(f, [f - 1.0], [x], 2).num_vars == 15


def test_moment_bound_needs_an_even_sphere():
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    f = x * y
    for eqs, m0 in (([x * x + y * y - 1.0], 2), ([x * y, x ** 4 + y ** 4 - 1.0], 4)):
        assert _moment_bound(eqs) == m0
        assert build_min_relaxation(f, eqs, [], 2).moment_bound == 1.0
        assert build_max_relaxation(f, eqs, [f], 2).moment_bound == 1.0
    for eqs in ([], [x * x + y * y - 2.0], [x * x - 1.0], [x ** 3 + y ** 3 - 1.0],
                [x * x + y * y + x - 1.0], [x * x + 2.0 * y * y - 1.0]):
        assert _moment_bound(eqs) is None
        assert build_min_relaxation(f, eqs, [], 2).moment_bound is None
    # every Z and H system of the sweep carries the bound
    for A in (fixtures.ex51(), fixtures.ex52(), fixtures.ex57(2)):
        for kind in ("Z", "H"):
            system = EigenSystem(kind, A)
            prob = build_min_relaxation(system.f, system.h, [], system.k0)
            assert prob.moment_bound == 1.0


def test_lift_follows_the_support():
    f, hs = z_system(fixtures.ex51())
    prob = build_min_relaxation(f, hs, [], 3)
    y = np.arange(1.0, prob.num_vars + 1.0)
    full = prob.lift(y)
    assert full.values.shape == (basis_size(2, 6),)
    assert np.array_equal(full.values[prob.support], y)
    odd = np.setdiff1d(np.arange(basis_size(2, 6)), prob.support)
    assert not full.values[odd].any()
    # a reduced block reads a full moment vector through its support
    for blk in prob.blocks:
        assert np.array_equal(assemble_matrix(blk, full), assemble_matrix(blk, y))


@pytest.mark.parametrize("kind", ["Z", "H"])
@pytest.mark.parametrize("make", [c[1] for c in fixtures.SWEPT],
                         ids=[c[0] for c in fixtures.SWEPT])
def test_blocks_keep_exactly_the_rows_below_the_sphere_degree(make, kind):
    # at k0 and k0 + 1, the minimization with a shift and the maximization
    # with a cap: the rows of each block of the full relaxation with
    # alpha_1 < m0, and no other, appear in its reduced blocks
    system = EigenSystem(kind, make())
    f, hs, m0 = system.f, system.h, system.m0
    for k in (system.k0, system.k0 + 1):
        for ineqs, maximize in (([f - 0.5], False), ([f, 1.0 - f], True)):
            red, full = _both(f if not maximize else f.scale(-1.0), hs, ineqs, k, maximize)
            for _whole, parts in _parts_of(red, full, m0):
                assert all(np.all(part.basis[:, 0] < m0) for part, _rows in parts)


def _equality_cells(hs, k, support):
    """The distinct non-empty upper-triangle cells of each L_h, read from its
    matrix, as row bytes: a cell two h share appears once for each."""
    cells = []
    for h in hs:
        s = localizing_structure(h, k, support)
        dense = s.matrix.toarray().reshape(s.side, s.side, s.num_moments)
        upper = dense[np.triu_indices(s.side)]
        cells.extend({row.tobytes() for row in upper[upper.any(axis=1)]})
    return sorted(cells)


@pytest.mark.parametrize("kind", ["Z", "H"])
@pytest.mark.parametrize("make", [c[1] for c in fixtures.SWEPT],
                         ids=[c[0] for c in fixtures.SWEPT])
def test_equality_rows_span_every_localizing_cell(make, kind):
    # at k0 and k0 + 1, over the even moments of a sign-invariant system and
    # over every moment: after the unit row, the rows built from the shifts
    # are the distinct cells of each L_h, every one of them and no other
    # row.  The solver finds their rank (test_sdpsolver)
    system = EigenSystem(kind, make())
    f, hs = system.f, system.h
    for k in (system.k0, system.k0 + 1):
        for reduce in (True, False):
            prob = _build_relaxation(f, hs, [], k, False, None, reduce=reduce)
            whole = prob.num_vars == basis_size(f.n, 2 * k)
            cells = _equality_cells(hs, k, None if whole else prob.support)
            assert sorted(row.tobytes() for row in prob.eq_rows[1:]) == cells


def test_equality_system_build_memory_is_bounded():
    # the order-5 relaxation of an m = 4, n = 5 Z system holds 1792 moments
    # and six equality matrices, the sphere's of side 126: a dense
    # (side, side, N) array of it alone is 228 MB
    f, hs = z_system(fixtures.random_tensor(4, 5, (4, 5, 5)))
    tracemalloc.start()
    try:
        prob = build_min_relaxation(f, hs, [], 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert prob.num_vars == 1792
    assert peak < 100e6


def _sphere_multiples(n, d, m0):
    """The coefficient vectors, over the basis of degree at most d, of
    x^beta (sum_i x_i^m0 - 1) for every |beta| <= d - m0, as columns."""
    basis = exponents(n, d - m0)
    V = np.zeros((basis_size(n, d), len(basis)))
    columns = np.arange(len(basis))
    for i in range(n):
        V[positions(n, d, basis + m0 * np.eye(n, dtype=np.intp)[i]), columns] += 1.0
    V[positions(n, d, basis), columns] -= 1.0
    return V


@pytest.mark.parametrize("name,kind,k,shift", [
    ("ex51", "Z", 3, None), ("ex52", "Z", 3, None), ("ex55", "Z", 4, 5.0),
    ("ex56", "Z", 5, 0.1), ("ex55", "H", 5, 1.0), ("ex56", "H", 6, 0.1)])
def test_feasible_blocks_annihilate_the_sphere_multiples(name, kind, k, shift):
    # for y of an OPTIMAL solve, the whole moment matrix and localizing
    # matrix map every multiple x^beta (sum_i x_i^m0 - 1) they can hold to
    # zero, up to the rows the solver drops as dependent (EQ_RANK_TOL): the
    # rows with alpha_1 >= m0 that the blocks drop are needed for no PSD test.
    # A localizing matrix of basis degree below m0 holds no multiple.
    f, hs, m0 = _system(name, kind)
    ineqs = [] if shift is None else [f - shift]
    prob = build_min_relaxation(f, hs, ineqs, k)
    sol = solve(prob)
    assert sol.status is SolveStatus.OPTIMAL
    y = prob.lift(sol.y)
    for q in [Polynomial.constant(f.n, 1.0)] + ineqs:
        d = k - (q.degree + 1) // 2
        if d < m0:
            continue
        M = assemble_matrix(localizing_structure(q, k), y)
        V = _sphere_multiples(f.n, d, m0)
        assert np.max(np.abs(M @ V)) <= EQ_RANK_TOL * np.max(np.abs(M))


def test_sphere_reduced_relaxation_matches_full_rows():
    # odd-order Z keeps every moment, and only the sphere rule reduces its
    # blocks: OPTIMAL results and a Farkas certificate of ex52 Z, lifted
    # with zeros on the dropped rows, prove the same on every row
    f, hs = z_system(fixtures.ex52())
    two = Polynomial.constant(3, 2.0)
    for ineqs, maximize in (([], False), ([f - 0.3], False), ([f, two - f], True)):
        red, full = _both(f if not maximize else f.scale(-1.0), hs, ineqs, 3, maximize)
        assert red.num_vars == full.num_vars
        _assert_parts_embed(red, full, 2)
        _assert_lift_proves_the_same(red, full, solve(red), 2)
    for order in (3, 4, 5):
        red, full = _both(f, hs, [f - 2.85], order, False)
        sol = solve(red)
        if sol.status is SolveStatus.PRIMAL_INFEASIBLE:
            break
    assert verify_solution(red, sol)["ok"]
    lifted = ConicSolution(status=SolveStatus.PRIMAL_INFEASIBLE,
                           certificate=_lift_certificate(red, full, sol.certificate, 2))
    report = verify_solution(full, lifted)
    assert report["ok"], report


def _random_h43():
    return Tensor(np.random.default_rng((4, 3, 5)).standard_normal((3, 3, 3, 3)))


# H systems whose moment block is split: ex54(4) (whole side 35 at k = 3)
# and a random m = 4, n = 3 tensor (35 at k = 4, 56 at k = 5), each with
# its largest H-eigenvalue
_SPLIT = [("ex54(4)", lambda: fixtures.ex54(4), 3, 5.9245),
          ("random-m4-n3", _random_h43, 4, 4.0258)]


@pytest.mark.parametrize("make,k,top", [c[1:] for c in _SPLIT], ids=[c[0] for c in _SPLIT])
def test_split_relaxation_matches_whole_blocks(make, k, top, monkeypatch):
    # the minimization, then the shift above the largest eigenvalue order by
    # order until infeasible: each with its moment block split and whole
    f, hs, m0 = h_system(make())
    for ineqs in ([], [f - (top + 0.1)]):
        for order in range(k, k + 3):
            split = build_min_relaxation(f, hs, ineqs, order)
            with monkeypatch.context() as patch:
                patch.setattr(momentsdp, "SPLIT_MIN_SIDE", math.inf)
                whole = build_min_relaxation(f, hs, ineqs, order)
            assert split.blocks[0].parity is not None
            assert all(blk.parity is None for blk in whole.blocks)
            assert np.array_equal(split.support, whole.support)
            _assert_parts_embed(split, whole, m0)
            a = solve(split)
            if a.status is SolveStatus.PRIMAL_INFEASIBLE:
                break
            _assert_lift_proves_the_same(split, whole, a, m0)
            if not ineqs:
                break
    assert a.status is SolveStatus.PRIMAL_INFEASIBLE
    assert verify_solution(split, a)["ok"]
    cert = {"mu": a.certificate["mu"],
            "blocks": _embed_duals(split, whole, a.certificate["blocks"], m0)}
    report = verify_solution(whole, ConicSolution(status=SolveStatus.PRIMAL_INFEASIBLE,
                                                  certificate=cert))
    assert report["ok"], report


def test_split_only_large_blocks_of_invariant_relaxations():
    # the n = 2 relaxations of random tensors up to three orders above the
    # base order, shifted, and odd-order Z with a moment block of whole
    # side 35, which keeps its 25 rows with alpha_1 < 2 and stays whole
    cases = []
    for m in (3, 4):
        A = fixtures.random_tensor(m, 2, seed=7)
        for kind in ("Z", "H"):
            system = EigenSystem(kind, A)
            cases += [(system.f, system.h, [system.f - 0.5], k, system.m0)
                      for k in range(system.k0, system.k0 + 4)]
    f, hs = z_system(fixtures.ex53())
    cases.append((f, hs, [f], 4, 2))
    split = 0
    for f, hs, ineqs, k, m0 in cases:
        prob = build_min_relaxation(f, hs, ineqs, k)
        invariant = prob.num_vars < basis_size(f.n, 2 * k)
        for whole, parts in _parts_of(prob, _build_relaxation(f, hs, ineqs, k, False, None,
                                                             reduce=False), m0):
            assert len(parts) == (2 if invariant and whole.side >= SPLIT_MIN_SIDE else 1)
            split += len(parts) == 2
    assert prob.blocks[0].side == 25 and prob.blocks[0].parity is None
    assert split


def test_split_refuses_a_block_with_cross_parity_moments():
    # over every moment, or for an odd q, the cells joining even and odd rows
    # may hold odd moments
    one, x1 = Polynomial.constant(3, 1.0), Polynomial.variable(3, 0)
    even = np.array(_even_positions(3, 4))
    for q, support in ((one, None), (x1, even), (x1 * x1 + x1, even)):
        with pytest.raises(ValueError, match="cross-parity"):
            _parity_parts(q, 4, support, np.arange(basis_size(3, 4 - (q.degree + 1) // 2)))
    parts = _parity_parts(one, 4, even, np.arange(35))
    assert [(part.side, part.parity) for part in parts] == [(22, 0), (13, 1)]


def _shared_arrays(prob):
    """The arrays of a relaxation that its store shares with every other
    relaxation of its order: the equality system and the moment parts."""
    arrays = [prob.eq_rows, prob.eq_rhs]
    moment_parts = prob.blocks[:2 if prob.blocks[0].parity is not None else 1]
    for s in moment_parts:
        arrays += [s.matrix.data, s.matrix.indices, s.matrix.indptr]
    return arrays


def test_store_shares_read_only_arrays_and_no_product_writes_them():
    # ex56 H at k = 6, shifted: the moment block as parity parts of 43 and
    # 31.  A second relaxation of the order reads the same arrays, so none
    # may be written; without a store every array is the relaxation's own
    f, hs, _m0 = h_system(fixtures.ex56())
    store = {}
    prob = build_min_relaxation(f, hs, [f - 0.05], 6, store)
    other = build_max_relaxation(f, hs, [f, 1.0 - f], 6, store)
    assert [blk.side for blk in prob.blocks[:2]] == [43, 31]
    for a, b in zip(_shared_arrays(prob), _shared_arrays(other)):
        assert a is b and not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[:1] = 0
    own = build_min_relaxation(f, hs, [f - 0.05], 6)
    assert all(a.flags.writeable for a in _shared_arrays(own))
    # the products the build and the solver run on a shared block leave
    # every one of its arrays as it was
    before = [a.copy() for a in _shared_arrays(prob)]
    rng = np.random.default_rng(2)
    B = np.asfortranarray(rng.standard_normal((prob.num_vars, 7)))
    for blk in prob.blocks[:2]:
        mat = blk.matrix
        X = rng.standard_normal(blk.side * blk.side)
        assert np.allclose(mat @ B, mat.toarray() @ B)
        assert np.allclose(mat.T @ X, mat.toarray().T @ X)
        assert np.allclose(mat @ B[:, 0], mat.toarray() @ B[:, 0])
        assert mat[:3].shape == (3, prob.num_vars) and abs(mat).sum() > 0
    assert solve(prob).status is SolveStatus.OPTIMAL
    assert all(np.array_equal(a, b) for a, b in zip(_shared_arrays(prob), before))


def test_moment_bound_is_computed_once_per_store(monkeypatch):
    calls = []

    def counting(eqs):
        calls.append(eqs)
        return 2

    monkeypatch.setattr(momentsdp, "_moment_bound", counting)
    f, hs = z_system(fixtures.ex51())
    store = {}
    for k in (3, 4, 5):
        assert build_min_relaxation(f, hs, [], k, store).moment_bound == 1.0
        assert build_max_relaxation(f, hs, [f], k, store).moment_bound == 1.0
    assert len(calls) == 1
