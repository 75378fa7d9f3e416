import numpy as np
import pytest

import fixtures
from tensorspectra.tensor import (Tensor, TensorFormatError, contract_full,
                                  contract_partial, identity_tensor,
                                  parse_tensor, serialize_tensor)


def test_identity_tensor_matrix_case():
    I = identity_tensor(2, 3)
    assert np.array_equal(I.entries, np.eye(3))


def test_identity_tensor_order3():
    I = identity_tensor(3, 2)
    expected = {(0, 0, 0), (1, 1, 1)}
    assert set(map(tuple, np.argwhere(I.entries == 1.0))) == expected
    assert np.count_nonzero(I.entries) == 2


def test_identity_contraction_is_componentwise_power():
    rng = np.random.default_rng(0)
    for m in (2, 3, 4, 5):
        I = identity_tensor(m, 3)
        x = rng.normal(size=3)
        assert np.allclose(contract_partial(I, x), x ** (m - 1))


def test_full_contraction_identity_order3():
    I = identity_tensor(3, 2)
    a, b = 1.7, -0.4
    assert contract_full(I, [a, b]) == pytest.approx(a ** 3 + b ** 3)


def test_full_contraction_single_term():
    A = fixtures.ex51()
    assert contract_full(A, [1.0, 0.0]) == pytest.approx(25.1)


def test_contractions_on_ex13():
    A = fixtures.ex13()
    # (x1^2+x2^2)x2 and -(x1^2+x2^2)x1 evaluated at (1, 0)
    assert np.allclose(contract_partial(A, [1.0, 0.0]), [0.0, -1.0])
    assert contract_full(A, [1.0, 0.0]) == pytest.approx(0.0)


def test_partial_contracts_to_full():
    rng = np.random.default_rng(1)
    for m, n in [(2, 4), (3, 3), (4, 2), (5, 2)]:
        A = Tensor(rng.normal(size=(n,) * m))
        for _ in range(5):
            x = rng.normal(size=n)
            full = contract_full(A, x)
            assert x @ contract_partial(A, x) == pytest.approx(full, rel=1e-12, abs=1e-12)


def test_full_contraction_homogeneous():
    rng = np.random.default_rng(2)
    for m, n in [(3, 3), (4, 2)]:
        A = Tensor(rng.normal(size=(n,) * m))
        x = rng.normal(size=n)
        t = rng.uniform(0.2, 2.5)
        assert contract_full(A, t * x) == pytest.approx(
            t ** m * contract_full(A, x), rel=1e-10)


def test_dimension_mismatch_raises():
    A = identity_tensor(3, 2)
    with pytest.raises(ValueError):
        contract_full(A, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        contract_partial(A, [1.0])


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        Tensor(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        Tensor(np.array([[np.nan, 0], [0, 0]]))
    with pytest.raises(ValueError):
        Tensor(np.zeros(4))
    with pytest.raises(ValueError):
        identity_tensor(1, 2)


def test_tensor_immutable():
    A = identity_tensor(2, 2)
    with pytest.raises(ValueError):
        A.entries[0, 0] = 5.0
    with pytest.raises(AttributeError):
        A.dim = 7


def test_parse_sparse_ex51():
    text = "# comment\n4 2\n1 1 1 1 25.1\n1 2 1 2 25.6\n2 1 2 1 24.8\n2 2 2 2 23.0\n"
    A = parse_tensor(text)
    assert A.order == 4 and A.dim == 2
    assert np.count_nonzero(A.entries) == 4
    assert A.entries[0, 0, 0, 0] == 25.1
    assert A.entries[0, 1, 0, 1] == 25.6


def test_parse_dense_matches_sparse():
    sparse = "3 2 sparse\n1 1 1 2.0\n2 2 2 -1.5\n"
    A = parse_tensor(sparse)
    dense_vals = " ".join(repr(float(v)) for v in A.entries.reshape(-1))
    B = parse_tensor(f"3 2 dense\n{dense_vals}\n")
    assert A == B


def test_parse_errors_name_line_numbers():
    with pytest.raises(TensorFormatError, match="line 2.*out of range"):
        parse_tensor("4 2\n1 3 1 1 5.0\n")
    with pytest.raises(TensorFormatError, match="line 3.*duplicate"):
        parse_tensor("3 2\n1 1 1 1.0\n1 1 1 2.0\n")
    with pytest.raises(TensorFormatError, match="line 2.*non-numeric"):
        parse_tensor("2 2\n1 1 abc\n")
    with pytest.raises(TensorFormatError, match="line 1"):
        parse_tensor("x y\n")
    with pytest.raises(TensorFormatError, match="needs 4 values"):
        parse_tensor("2 2 dense\n1.0 2.0 3.0\n")


# Every message parse_tensor raises, with the line it cites.  Comments and
# blank lines sit above and between the data so that a miscounted line shows.
@pytest.mark.parametrize("text, message", [
    ("# only\n\n  # comments\n", "line 1: missing header line"),
    ("", "line 1: missing header line"),
    ("# c\n4\n", "line 2: header must be 'm n [dense|sparse]'"),
    ("# c\n\n4 2 dense extra\n", "line 3: header must be 'm n [dense|sparse]'"),
    ("# c\nx y\n", "line 2: non-integer order/dimension"),
    ("# c\n4 2.5\n", "line 2: non-integer order/dimension"),
    ("# c\n1 2\n", "line 2: need m >= 2 and n >= 1, got m=1 n=2"),
    ("# c\n3 0 # none\n", "line 2: need m >= 2 and n >= 1, got m=3 n=0"),
    ("# c\n3 2 csv\n", "line 2: unknown format 'csv'"),
    ("3 2\n# c\n1 1 5.0\n", "line 3: expected 3 indices and a value, got 3 tokens"),
    ("3 2\n\n1 1 1 1 5.0 # c\n", "line 3: expected 3 indices and a value, got 5 tokens"),
    ("3 2\n1 1 1 1.0\n# c\n1 a 1 2.0\n", "line 4: non-integer index"),
    ("3 2\n1 1 1.5 2.0\n", "line 2: non-integer index"),
    ("3 2\n# c\n1 3 1 2.0\n", "line 3: index out of range (got 3, dim 2)"),
    ("3 2\n1 0 1 2.0\n", "line 2: index out of range (got 0, dim 2)"),
    ("3 2\n1 1 1 1.0\n\n1 1 1 2.0\n", "line 4: duplicate sparse entry (1, 1, 1)"),
    ("2 2\n# c\n1 1 abc\n", "line 3: non-numeric value 'abc'"),
    ("2 2\n# c\n1 1 inf\n", "line 3: non-finite value 'inf'"),
    ("2 2 dense\n1 2\n# c\n3 nan\n", "line 4: non-finite value 'nan'"),
    ("2 2 dense\n1 2\n3 x4\n", "line 3: non-numeric value 'x4'"),
    # the dense count error cites the text's last line, comment or not
    ("2 2 dense\n1.0 2.0 3.0\n", "line 2: dense format needs 4 values, got 3"),
    ("2 2 dense\n1 2 3\n4 5\n# end\n\n", "line 5: dense format needs 4 values, got 5"),
])
def test_every_parse_error_names_its_line(text, message):
    with pytest.raises(TensorFormatError) as info:
        parse_tensor(text)
    assert str(info.value) == message


# numpy refuses both shapes before it touches memory: 40^40 entries overflow
# the size of an array, and 10^12 entries (7.3 TiB) cannot be allocated
@pytest.mark.parametrize("header, m, n", [("40 40", 40, 40), ("12 10", 12, 10)])
def test_oversized_header_names_its_line(header, m, n):
    with pytest.raises(TensorFormatError) as info:
        parse_tensor(f"# too large\n{header}\n1 1 1.0\n")
    assert str(info.value) == f"line 2: a tensor of order {m} and dimension {n} is too large"


def test_roundtrip_sparse_and_dense():
    rng = np.random.default_rng(3)
    A = Tensor(rng.normal(size=(2, 2, 2)))
    for fmt in ("sparse", "dense"):
        text = serialize_tensor(A, fmt)
        B = parse_tensor(text)
        assert np.array_equal(A.entries, B.entries)


def test_roundtrip_idempotent_text():
    A = fixtures.ex51()
    text1 = serialize_tensor(A)
    text2 = serialize_tensor(parse_tensor(text1))
    assert text1 == text2


def test_serialize_picks_sparse_for_sparse_tensors():
    assert serialize_tensor(fixtures.ex51()).startswith("4 2 sparse")
    dense = Tensor(np.ones((2, 2)))
    assert serialize_tensor(dense).startswith("2 2 dense")
