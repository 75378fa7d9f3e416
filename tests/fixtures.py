"""Benchmark tensors, and a helper on solver results, used across the test suite.

The ex52 entries A_312 and A_332 are 0.6780 and 0.1325; the reference
eigenvalues reproduce to all four digits only with those values (the
variants 0.6708 and 0.125 seen elsewhere give spectra off by up to 6e-3).
"""

import itertools

import numpy as np

from tensorspectra.tensor import Tensor


def ex51():
    """Order 4, dimension 2; four nonzero entries."""
    E = np.zeros((2, 2, 2, 2))
    E[0, 0, 0, 0] = 25.1
    E[0, 1, 0, 1] = 25.6
    E[1, 0, 1, 0] = 24.8
    E[1, 1, 1, 1] = 23.0
    return Tensor(E)


def ex13():
    """Order 4, dimension 2; no real eigenpairs of either kind."""
    E = np.zeros((2, 2, 2, 2))
    E[0, 0, 0, 1] = 1.0
    E[0, 1, 1, 1] = 1.0
    E[1, 0, 0, 0] = -1.0
    E[1, 0, 1, 1] = -1.0
    return Tensor(E)


def ex14():
    """Order 4, dimension 2; every value in [0,1] is a Z-eigenvalue."""
    E = np.zeros((2, 2, 2, 2))
    E[0, 0, 0, 0] = 1.0
    E[1, 0, 0, 1] = 1.0
    return Tensor(E)


_E52 = {
    (1, 1, 1): 0.4333, (1, 2, 1): 0.4278, (1, 3, 1): 0.4140,
    (2, 1, 1): 0.8154, (2, 2, 1): 0.0199, (2, 3, 1): 0.5598,
    (3, 1, 1): 0.0643, (3, 2, 1): 0.3815, (3, 3, 1): 0.8834,
    (1, 1, 2): 0.4866, (1, 2, 2): 0.8087, (1, 3, 2): 0.2073,
    (2, 1, 2): 0.7641, (2, 2, 2): 0.9924, (2, 3, 2): 0.8752,
    (3, 1, 2): 0.6780, (3, 2, 2): 0.8296, (3, 3, 2): 0.1325,
    (1, 1, 3): 0.3871, (1, 2, 3): 0.0769, (1, 3, 3): 0.3151,
    (2, 1, 3): 0.1355, (2, 2, 3): 0.7727, (2, 3, 3): 0.4089,
    (3, 1, 3): 0.9715, (3, 2, 3): 0.7726, (3, 3, 3): 0.5526,
}

_E53 = {
    (1, 1, 1): 0.0072, (1, 2, 1): -0.4413, (1, 3, 1): 0.1941,
    (2, 1, 1): -0.4413, (2, 2, 1): 0.0940, (2, 3, 1): 0.5901,
    (3, 1, 1): 0.1941, (3, 2, 1): -0.4099, (3, 3, 1): -0.1012,
    (1, 1, 2): -0.4413, (1, 2, 2): 0.0940, (1, 3, 2): -0.4099,
    (2, 1, 2): 0.0940, (2, 2, 2): 0.2183, (2, 3, 2): 0.2950,
    (3, 1, 2): 0.5901, (3, 2, 2): 0.2950, (3, 3, 2): 0.2229,
    (1, 1, 3): 0.1941, (1, 2, 3): 0.5901, (1, 3, 3): -0.1012,
    (2, 1, 3): -0.4099, (2, 2, 3): 0.2950, (2, 3, 3): 0.2229,
    (3, 1, 3): -0.1012, (3, 2, 3): 0.2229, (3, 3, 3): -0.4891,
}


def _from_sparse(n, m, entries):
    E = np.zeros((n,) * m)
    for idx, v in entries.items():
        E[tuple(i - 1 for i in idx)] = v
    return Tensor(E)


def ex52():
    """Order 3, dimension 3; dense positive entries."""
    return _from_sparse(3, 3, _E52)


def ex53():
    """Order 3, dimension 3; mixed-sign entries."""
    return _from_sparse(3, 3, _E53)


def ex54(n):
    """Order 3, dimension n; entries tan(i1 - i2/2 + i3/3)."""
    E = np.zeros((n, n, n))
    for i, j, k in itertools.product(range(n), repeat=3):
        E[i, j, k] = np.tan((i + 1) - (j + 1) / 2.0 + (k + 1) / 3.0)
    return Tensor(E)


def ex55():
    """Order 4, dimension 3; entries arctan(i1 * i2^2 * i3^3 * i4^4)."""
    E = np.zeros((3, 3, 3, 3))
    for idx in itertools.product(range(3), repeat=4):
        i1, i2, i3, i4 = (i + 1 for i in idx)
        E[idx] = np.arctan(i1 * i2 ** 2 * i3 ** 3 * i4 ** 4)
    return Tensor(E)


def ex56():
    """Order 4, dimension 3; entries 1/(1 + i1 + 2 i2 + 3 i3 + 4 i4)."""
    E = np.zeros((3, 3, 3, 3))
    for idx in itertools.product(range(3), repeat=4):
        i1, i2, i3, i4 = (i + 1 for i in idx)
        E[idx] = 1.0 / (1 + i1 + 2 * i2 + 3 * i3 + 4 * i4)
    return Tensor(E)


def ex57(n):
    """Order 5, dimension n; entries 1/sum_j (-1)^(j-1) exp(i_j)."""
    E = np.zeros((n,) * 5)
    for idx in itertools.product(range(n), repeat=5):
        s = sum((-1) ** j * np.exp(idx[j] + 1) for j in range(5))
        E[idx] = 1.0 / s
    return Tensor(E)


# (label, maker) of every fixture of the paper's examples 5.1 to 5.7 that
# the sweeps run
SWEPT = [("ex51", ex51), ("ex52", ex52), ("ex53", ex53),
         ("ex54(2)", lambda: ex54(2)), ("ex54(3)", lambda: ex54(3)),
         ("ex54(4)", lambda: ex54(4)), ("ex55", ex55),
         ("ex56", ex56), ("ex57(2)", lambda: ex57(2))]


def random_tensor(m, n, seed):
    """Standard normal entries from a fixed-seed generator."""
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal((n,) * m))


def objective(problem, sol):
    """c.y of a result's y in the problem's stated sense: a maximization's
    c is its objective negated, so its value is -c.y."""
    return (-1.0 if problem.maximize else 1.0) * float(problem.c @ sol.y)
