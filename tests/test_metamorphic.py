"""Metamorphic checks: spectra of transformed tensors, predicted from the original's.

- lam(-A) = -lam(A) for both kinds (sweeps without ``nonneg``);
- relabeling the coordinates, the same permutation in every mode, keeps
  both spectra;
- an orthogonal change of basis in every mode keeps the Z spectrum;
- scaling the tensor by c scales both spectra by c: a sweep of c·A that
  ends certified-complete holds c times the n = 2 oracle's values.

Each transformed sweep must end as the original does, with as many
values, each within 1e-6 (1 + |lam|) of its prediction.  The random
tensors are the first 24 of acceptance criterion 10; ex52 and ex54(3)
cover n = 3, which the n = 2 oracle cannot check.
"""

import functools

import numpy as np
import pytest

import fixtures
from tensorspectra.driver import SweepOptions, Termination, full_sweep
from tensorspectra.oracle import brute_h_n2, brute_z_n2
from tensorspectra.tensor import Tensor

SEEDS = range(24)


@functools.cache
def _random(i):
    """Criterion 10's tensor i, its kind and its spectrum (swept once)."""
    m = 3 if i % 2 == 0 else 4
    kind = "Z" if i % 4 < 2 else "H"
    A = fixtures.random_tensor(m, 2, seed=20000 + i)
    return kind, A, full_sweep(kind, A)


def _in_every_mode(A, Q):
    """The tensor with Q applied to each of its indices."""
    E = A.entries
    for axis in range(E.ndim):
        E = np.moveaxis(np.tensordot(Q, E, axes=(1, axis)), 0, axis)
    return Tensor(E)


def _assert_same(spec, want, got_spec):
    assert got_spec.termination == spec.termination
    want = sorted(want)
    assert len(got_spec.values) == len(want)
    for lam, got in zip(want, got_spec.values):
        assert abs(got - lam) <= 1e-6 * (1.0 + abs(lam))


@pytest.mark.parametrize("i", SEEDS)
def test_negated_tensor_negates_the_spectrum(i):
    kind, A, spec = _random(i)
    got = full_sweep(kind, Tensor(-A.entries))
    _assert_same(spec, [-lam for lam in spec.values], got)


@pytest.mark.parametrize("i", SEEDS)
def test_swapped_coordinates_keep_the_spectrum(i):
    kind, A, spec = _random(i)
    got = full_sweep(kind, _in_every_mode(A, np.array([[0.0, 1.0], [1.0, 0.0]])))
    _assert_same(spec, spec.values, got)


@pytest.mark.parametrize("i", [i for i in SEEDS if i % 4 < 2])
def test_rotated_basis_keeps_the_z_spectrum(i):
    kind, A, spec = _random(i)
    c, s = np.cos(0.7), np.sin(0.7)
    got = full_sweep(kind, _in_every_mode(A, np.array([[c, -s], [s, c]])))
    _assert_same(spec, spec.values, got)


@pytest.mark.parametrize("name", ["ex52", "ex54(3)"])
@pytest.mark.parametrize("kind", ["Z", "H"])
def test_cycled_coordinates_keep_the_spectrum(kind, name):
    # odd-order Z spectra are symmetric, so those sweeps take the nonnegative half
    nonneg = kind == "Z"
    A = {"ex52": fixtures.ex52(), "ex54(3)": fixtures.ex54(3)}[name]
    spec = full_sweep(kind, A, SweepOptions(nonneg=nonneg))
    cycle = np.eye(3)[[1, 2, 0]]
    got = full_sweep(kind, _in_every_mode(A, cycle), SweepOptions(nonneg=nonneg))
    _assert_same(spec, spec.values, got)


# Z: an m = 3 tensor with 6 real Z-eigenvalues; H: an m = 4 tensor with 2
_SCALED = {"Z": ((77, 5), 3, brute_z_n2), "H": ((77, 3), 4, brute_h_n2)}
_ABSOLUTE_TOLERANCES = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 1: absolute tolerances")


@pytest.mark.parametrize("kind, c", [
    pytest.param("Z", 1e-6, marks=_ABSOLUTE_TOLERANCES),
    pytest.param("Z", 1e-4, marks=_ABSOLUTE_TOLERANCES),
    ("Z", 1.0), ("Z", 1e4), ("Z", 1e6),
    pytest.param("H", 1e-6, marks=_ABSOLUTE_TOLERANCES),
    ("H", 1e-4), ("H", 1.0), ("H", 1e4), ("H", 1e6)])
def test_a_certified_sweep_of_a_scaled_tensor_scales_the_spectrum(kind, c):
    seed, m, oracle = _SCALED[kind]
    E = np.random.default_rng(seed).standard_normal((2,) * m)
    want = oracle(Tensor(E))
    assert want.complete
    spec = full_sweep(kind, Tensor(c * E))
    if spec.termination == Termination.CERTIFIED_COMPLETE:
        assert len(spec.values) == len(want.values)
        np.testing.assert_allclose(spec.values, c * np.array(want.values), rtol=1e-5, atol=0)
