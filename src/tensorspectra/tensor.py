"""Dense real tensors of uniform dimension, their contractions, and text file I/O.

A tensor of order m and dimension n is stored as a dense numpy array of
shape (n,)*m.  External indices are 1-based; internal layout is row-major
with the last index fastest.
"""

from __future__ import annotations

import numpy as np


class TensorFormatError(ValueError):
    """Raised on malformed tensor files; message carries the line number."""


class Tensor:
    """Immutable m-order n-dimensional real array.

    Entries must be finite; order and dimension are fixed at construction.
    """

    __slots__ = ("order", "dim", "entries")

    def __init__(self, entries):
        arr = np.asarray(entries, dtype=float)
        if arr.ndim < 2:
            raise ValueError("tensor order must be at least 2")
        n = arr.shape[0]
        if n < 1 or any(s != n for s in arr.shape):
            raise ValueError(f"tensor must be cubical, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor entries must be finite")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "order", arr.ndim)
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "entries", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Tensor is immutable")

    def __repr__(self):
        return f"Tensor(order={self.order}, dim={self.dim})"

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return (self.order == other.order and self.dim == other.dim
                and np.array_equal(self.entries, other.entries))

    def __hash__(self):
        return hash((self.order, self.dim, self.entries.tobytes()))


def identity_tensor(m, n):
    """Diagonal tensor with 1 at (i,...,i) for each i and 0 elsewhere."""
    if m < 2 or n < 1:
        raise ValueError("need order >= 2 and dimension >= 1")
    arr = np.zeros((n,) * m)
    idx = np.arange(n)
    arr[(idx,) * m] = 1.0
    return Tensor(arr)


def _check_vector(A, x):
    x = np.asarray(x, dtype=float)
    if x.shape != (A.dim,):
        raise ValueError(f"vector length {x.shape} does not match tensor dimension {A.dim}")
    return x


def contract_partial(A, x):
    """Contract all but the first index against x, giving an n-vector."""
    x = _check_vector(A, x)
    out = A.entries
    for _ in range(A.order - 1):
        out = out @ x
    return out


def contract_full(A, x):
    """Contract every index against x, giving a scalar."""
    x = _check_vector(A, x)
    return float(x @ contract_partial(A, x))


def _parse_value(tok, lineno):
    try:
        v = float(tok)
    except ValueError:
        raise TensorFormatError(f"line {lineno}: non-numeric value {tok!r}") from None
    if not np.isfinite(v):
        raise TensorFormatError(f"line {lineno}: non-finite value {tok!r}")
    return v


def parse_tensor(text):
    """Parse the text tensor format.

    First non-comment line is ``m n [dense|sparse]`` (sparse by default).
    Sparse lines are ``i1 ... im value`` with 1-based indices; unlisted
    entries are zero.  Dense data is n^m whitespace-separated values in
    row-major order, last index fastest.  Comments start with '#'.
    """
    lines = text.splitlines()
    # (line number, tokens) of every line with data left once its comment is cut
    rows = [(i, toks) for i, raw in enumerate(lines, 1)
            if (toks := raw.split("#", 1)[0].split())]
    if not rows:
        raise TensorFormatError("line 1: missing header line")
    (h, parts), body = rows[0], rows[1:]
    if len(parts) not in (2, 3):
        raise TensorFormatError(f"line {h}: header must be 'm n [dense|sparse]'")
    try:
        m, n = int(parts[0]), int(parts[1])
    except ValueError:
        raise TensorFormatError(f"line {h}: non-integer order/dimension") from None
    if m < 2 or n < 1:
        raise TensorFormatError(f"line {h}: need m >= 2 and n >= 1, got m={m} n={n}")
    fmt = parts[2] if len(parts) == 3 else "sparse"
    if fmt not in ("dense", "sparse"):
        raise TensorFormatError(f"line {h}: unknown format {fmt!r}")

    if fmt == "dense":
        values = [_parse_value(tok, i) for i, toks in body for tok in toks]
        if len(values) != n ** m:
            raise TensorFormatError(
                f"line {len(lines)}: dense format needs {n ** m} values, got {len(values)}")
        return Tensor(np.array(values).reshape((n,) * m))

    try:
        arr = np.zeros((n,) * m)
    except (ValueError, MemoryError):
        raise TensorFormatError(
            f"line {h}: a tensor of order {m} and dimension {n} is too large") from None
    seen = set()
    for i, toks in body:
        if len(toks) != m + 1:
            raise TensorFormatError(
                f"line {i}: expected {m} indices and a value, got {len(toks)} tokens")
        try:
            idx = tuple(int(t) for t in toks[:m])
        except ValueError:
            raise TensorFormatError(f"line {i}: non-integer index") from None
        for j in idx:
            if j < 1 or j > n:
                raise TensorFormatError(f"line {i}: index out of range (got {j}, dim {n})")
        if idx in seen:
            raise TensorFormatError(f"line {i}: duplicate sparse entry {idx}")
        seen.add(idx)
        arr[tuple(j - 1 for j in idx)] = _parse_value(toks[m], i)
    return Tensor(arr)


def serialize_tensor(A, fmt=None):
    """Serialize to the text format parsed by :func:`parse_tensor`.

    With ``fmt=None``, sparse is chosen when at most half of the entries
    are nonzero.  Values use shortest round-trip decimal text, so
    parse-serialize-parse is exact.
    """
    nnz = int(np.count_nonzero(A.entries))
    if fmt is None:
        fmt = "sparse" if 2 * nnz <= A.entries.size else "dense"
    if fmt == "sparse":
        out = [f"{A.order} {A.dim} sparse"]
        for idx in np.argwhere(A.entries != 0.0):
            key = " ".join(str(j + 1) for j in idx)
            out.append(f"{key} {float(A.entries[tuple(idx)])!r}")
        return "\n".join(out) + "\n"
    if fmt == "dense":
        out = [f"{A.order} {A.dim} dense"]
        flat = A.entries.reshape(-1)
        out.extend(repr(float(v)) for v in flat)
        return "\n".join(out) + "\n"
    raise ValueError(f"unknown format {fmt!r}")
