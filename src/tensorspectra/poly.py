"""Sparse multivariate polynomials and the graded monomial order.

Monomials are exponent tuples alpha of length n.  The global order is
degree-major, then lexicographic within each degree with x1 > x2 > ...,
i.e. 1, x1, ..., xn, x1^2, x1*x2, ..., xn^2, ...  All moment and
localizing matrix indexing relies on this single order, and only this
module holds it: :func:`exponents` lists the exponent rows of degree at
most d in order, and :func:`positions` maps rows back to their places
through one dense lookup, both read-only and cached per (n, d).
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb

import numpy as np

COEF_CLEANUP = 1e-14  # coefficients below this magnitude are dropped


def basis_size(n, d):
    """Number of monomials in n variables of total degree at most d."""
    if n < 1 or d < 0:
        raise ValueError("need n >= 1 and d >= 0")
    return comb(n + d, d)


@lru_cache(maxsize=None)
def monomials_exact(n, d):
    """All exponent tuples of total degree exactly d, in graded-lex order."""
    if n == 1:
        return ((d,),)
    out = []
    for first in range(d, -1, -1):
        for rest in monomials_exact(n - 1, d - first):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def monomials_upto(n, d):
    """All exponent tuples of total degree at most d, in graded-lex order."""
    out = []
    for deg in range(d + 1):
        out.extend(monomials_exact(n, deg))
    return tuple(out)


@lru_cache(maxsize=None)
def exponents(n, d):
    """Read-only array of the exponent rows of degree <= d, in graded-lex order."""
    E = np.array(monomials_upto(n, d), dtype=np.intp).reshape(-1, n)
    E.flags.writeable = False
    return E


@lru_cache(maxsize=None)
def _position_table(n, d):
    """Read-only dense lookup: exponent tuple -> position, -1 past degree d."""
    table = np.full((d + 1,) * n, -1, dtype=np.intp)
    table[tuple(exponents(n, d).T)] = np.arange(basis_size(n, d))
    table.flags.writeable = False
    return table


def positions(n, d, rows):
    """Graded-lex positions of integer exponent rows (last axis n) of degree <= d."""
    rows = np.asarray(rows, dtype=np.intp)
    return _position_table(n, d)[tuple(np.moveaxis(rows, -1, 0))]


@lru_cache(maxsize=None)
def moment_index_table(n, t):
    """Read-only index array with M_t(y) = y[idx] for any moment values y."""
    E = exponents(n, t)
    idx = positions(n, 2 * t, E[:, None] + E[None, :])
    idx.flags.writeable = False
    return idx


def monomial_rank(alpha):
    """Position of an exponent tuple in the graded-lex order."""
    alpha = tuple(int(a) for a in alpha)
    n = len(alpha)
    if n < 1 or any(a < 0 for a in alpha):
        raise ValueError(f"invalid exponent tuple {alpha}")
    d = sum(alpha)
    rank = basis_size(n, d - 1) if d > 0 else 0
    # count degree-d tuples that precede alpha: those sharing a prefix and
    # carrying a larger exponent at the first differing position
    rem = d
    for i in range(n - 1):
        vars_after = n - 1 - i
        if rem - alpha[i] - 1 >= 0:
            rank += comb(rem - alpha[i] - 1 + vars_after, vars_after)
        rem -= alpha[i]
    return rank


def monomial_unrank(n, d, r):
    """Inverse of :func:`monomial_rank` over the n-variable degree-<=d basis."""
    if not 0 <= r < basis_size(n, d):
        raise ValueError(f"rank {r} out of range for n={n}, d={d}")
    return monomials_upto(n, d)[r]


class Polynomial:
    """Sparse real polynomial over exponent tuples.

    Immutable value type; arithmetic returns new instances and drops
    coefficients below COEF_CLEANUP.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        if n < 1:
            raise ValueError("need at least one variable")
        clean = {}
        for mono, c in (terms or {}).items():
            mono = tuple(int(a) for a in mono)
            if len(mono) != n or any(a < 0 for a in mono):
                raise ValueError(f"bad exponent tuple {mono} for n={n}")
            c = float(c)
            if abs(c) > COEF_CLEANUP:
                clean[mono] = clean.get(mono, 0.0) + c
        clean = {m: c for m, c in clean.items() if abs(c) > COEF_CLEANUP}
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @staticmethod
    def zero(n):
        return Polynomial(n, {})

    @staticmethod
    def constant(n, c):
        return Polynomial(n, {(0,) * n: c})

    @staticmethod
    def variable(n, i):
        """The monomial x_{i+1} (0-based variable index)."""
        if not 0 <= i < n:
            raise ValueError(f"variable index {i} out of range")
        exps = [0] * n
        exps[i] = 1
        return Polynomial(n, {tuple(exps): 1.0})

    @property
    def degree(self):
        if not self.terms:
            return 0
        return max(sum(m) for m in self.terms)

    def _check(self, other):
        if self.n != other.n:
            raise ValueError(f"mismatched variable counts {self.n} and {other.n}")

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = Polynomial.constant(self.n, other)
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0.0) + c
        return Polynomial(self.n, terms)

    def __neg__(self):
        return self.scale(-1.0)

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            other = Polynomial.constant(self.n, other)
        return self + other.scale(-1.0)

    def __rsub__(self, other):
        return Polynomial.constant(self.n, other) - self

    __radd__ = __add__

    def scale(self, c):
        return Polynomial(self.n, {m: c * v for m, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return self.scale(other)
        self._check(other)
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                terms[m] = terms.get(m, 0.0) + c1 * c2
        return Polynomial(self.n, terms)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        out = Polynomial.constant(self.n, 1.0)
        for _ in range(k):
            out = out * self
        return out

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"point has shape {x.shape}, expected ({self.n},)")
        total = 0.0
        for mono, c in self.terms.items():
            v = c
            for xi, a in zip(x, mono):
                if a:
                    v *= xi ** a
            total += v
        return total

    def gradient(self):
        """Partial derivatives as a list of n polynomials."""
        grads = []
        for i in range(self.n):
            terms = {}
            for mono, c in self.terms.items():
                if mono[i] == 0:
                    continue
                m = list(mono)
                m[i] -= 1
                terms[tuple(m)] = terms.get(tuple(m), 0.0) + c * mono[i]
            grads.append(Polynomial(self.n, terms))
        return grads

    def coefficient_vector(self, d):
        """Coefficients laid out over the degree-<=d graded basis."""
        if self.degree > d:
            raise ValueError(f"degree {self.degree} exceeds basis degree {d}")
        vec = np.zeros(basis_size(self.n, d))
        rows = np.array(list(self.terms), dtype=np.intp).reshape(-1, self.n)
        vec[positions(self.n, d, rows)] = list(self.terms.values())
        return vec

    def __repr__(self):
        if not self.terms:
            return "Polynomial(0)"
        bits = []
        for mono in sorted(self.terms, key=monomial_rank):
            c = self.terms[mono]
            mstr = "*".join(f"x{i+1}^{a}" if a > 1 else f"x{i+1}"
                            for i, a in enumerate(mono) if a)
            bits.append(f"{c:g}*{mstr}" if mstr else f"{c:g}")
        return "Polynomial(" + " + ".join(bits) + ")"

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.terms.items()))))


def _form(n, entries):
    """The form sum_idx entries[idx] * x_idx1 * x_idx2 * ..., its terms
    placed and summed in the row-major order of the multi-indices idx."""
    terms = {}
    for c, idx in zip(entries.reshape(-1), itertools.product(range(n), repeat=entries.ndim)):
        if c == 0.0:
            continue
        mono = [0] * n
        for j in idx:
            mono[j] += 1
        mono = tuple(mono)
        terms[mono] = terms.get(mono, 0.0) + c
    return Polynomial(n, terms)


def tensor_to_poly(A):
    """The degree-m form built by contracting every tensor index with x."""
    return _form(A.dim, A.entries)


def tensor_to_poly_vector(A):
    """The n degree-(m-1) forms from contracting all but the first index."""
    return [_form(A.dim, A.entries[j]) for j in range(A.dim)]
