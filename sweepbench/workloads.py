"""Inputs and reference results of the three benchmark workloads.

The fixture tensors and their reference values are the paper's examples as
the acceptance suite states them.  They are written out here again so that
a change to the test suite cannot move the benchmark's inputs.

One operation is one ``full_sweep``.  A round is a list of sweeps: the
whole fixture set for ``fixtures-z`` and ``fixtures-h``, and a fixed pool
of ``ORACLE_BATCH`` random n = 2 tensors for ``oracle-n2``.  The seed only
orders the oracle-n2 pool.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from checks import CERTIFIED, CONTINUUM, REF_TOL, n2_eigenvalues

WORKLOADS = ("fixtures-z", "fixtures-h", "oracle-n2")

# Seconds one round takes on the reference machine (2 cores, OpenBLAS, one
# BLAS thread).  A run does the fewest whole rounds that fill --seconds
# there, so every run of a workload does the same sweeps whatever the
# program's speed: a faster program must not sweep more oracle tensors and
# so grow its caches further.
ROUND_SECONDS = {"fixtures-z": 4.9, "fixtures-h": 10.5, "oracle-n2": 2.6}
ORACLE_BATCH = 20
ORACLE_POOL_SEED = 2015

# Tensors whose eigenvalues of the swept kind come closer than this are
# redrawn: on such a pair the sweep can skip the upper value and still claim
# certified-complete (CHANGES.md, FOUND), which would fail an operation on
# some seeds and not on others.
MIN_GAP = 1e-3


@dataclass
class Sweep:
    """One operation: a sweep of one tensor and what its output must show."""

    label: str
    kind: str
    entries: np.ndarray
    options: dict = field(default_factory=dict)
    reference: list | None = None       # paper values; None: not pinned
    per_value_tol: list | None = None   # sorted, one tolerance per value
    termination: str | None = None      # required termination, if pinned

    @property
    def order(self):
        return self.entries.ndim

    @property
    def dim(self):
        return self.entries.shape[0]


def _sparse(n, m, entries):
    E = np.zeros((n,) * m)
    for idx, v in entries.items():
        E[tuple(i - 1 for i in idx)] = v
    return E


def ex51():
    return _sparse(2, 4, {(1, 1, 1, 1): 25.1, (1, 2, 1, 2): 25.6,
                          (2, 1, 2, 1): 24.8, (2, 2, 2, 2): 23.0})


def ex13():
    return _sparse(2, 4, {(1, 1, 1, 2): 1.0, (1, 2, 2, 2): 1.0,
                          (2, 1, 1, 1): -1.0, (2, 1, 2, 2): -1.0})


def ex14():
    return _sparse(2, 4, {(1, 1, 1, 1): 1.0, (2, 1, 1, 2): 1.0})


def _slices(rows):
    """Order-3, n = 3 tensor from rows 'i j: A_ij1 A_ij2 A_ij3'."""
    E = np.zeros((3, 3, 3))
    for i, j in itertools.product(range(3), repeat=2):
        E[i, j, :] = rows[3 * i + j]
    return E


def ex52():
    return _slices([
        (0.4333, 0.4866, 0.3871), (0.4278, 0.8087, 0.0769), (0.4140, 0.2073, 0.3151),
        (0.8154, 0.7641, 0.1355), (0.0199, 0.9924, 0.7727), (0.5598, 0.8752, 0.4089),
        (0.0643, 0.6780, 0.9715), (0.3815, 0.8296, 0.7726), (0.8834, 0.1325, 0.5526),
    ])


def ex53():
    return _slices([
        (0.0072, -0.4413, 0.1941), (-0.4413, 0.0940, 0.5901), (0.1941, -0.4099, -0.1012),
        (-0.4413, 0.0940, -0.4099), (0.0940, 0.2183, 0.2950), (0.5901, 0.2950, 0.2229),
        (0.1941, 0.5901, -0.1012), (-0.4099, 0.2950, 0.2229), (-0.1012, 0.2229, -0.4891),
    ])


def _indexed(n, m, fn):
    E = np.zeros((n,) * m)
    for idx in itertools.product(range(n), repeat=m):
        E[idx] = fn(*(i + 1 for i in idx))
    return E


def ex54(n):
    return _indexed(n, 3, lambda i, j, k: np.tan(i - j / 2.0 + k / 3.0))


def ex55():
    return _indexed(3, 4, lambda a, b, c, d: np.arctan(a * b ** 2 * c ** 3 * d ** 4))


def ex56():
    return _indexed(3, 4, lambda a, b, c, d: 1.0 / (1 + a + 2 * b + 3 * c + 4 * d))


def ex57(n):
    return _indexed(n, 5, lambda *i: 1.0 / sum((-1) ** j * np.exp(i[j])
                                               for j in range(5)))


# (label, tensor, Z reference, H reference); None leaves values unpinned.
_FIXTURES = [
    ("ex51", ex51, [23.0, 25.1], [23.0, 25.1, 49.2687]),
    ("ex13", ex13, [], []),
    ("ex14", ex14, None, [0.0, 1.0]),
    ("ex52", ex52, [0.2331, 0.4869, 2.7418], [1.3586, 1.4985, 1.5226, 4.7303]),
    ("ex53", ex53, [0.0, 0.5774], [0.0, 0.7875]),
    ("ex54(2)", lambda: ex54(2), [10.5518], []),
    ("ex54(3)", lambda: ex54(3), [0.2336, 1.6614, 10.5063], [-2.5615, 0.3456]),
    ("ex55", ex55, [-0.27, 0.0003, 13.8286], [-0.3662, 0.0005, 41.4705]),
    ("ex56", ex56, [0.0, 0.0002, 0.4572], [0.0, 0.0005, 1.3581]),
    ("ex57(2)", lambda: ex57(2), [0.4721], [0.5138, 1.2654]),
    ("ex54(4)", lambda: ex54(4), [3.3651, 8.8507, 10.4981],
     [-6.2888, -0.7048, 2.8947, 5.9245]),
]


def fixture_sweeps(kind):
    """The fixture set for one kind."""
    sweeps = []
    for label, make, zref, href in _FIXTURES:
        E = make()
        options = {}
        if kind == "Z" and E.ndim % 2 == 1:
            options["nonneg"] = True   # odd-order Z spectra are symmetric
        if label == "ex54(4)":
            options["kmax_offset"] = 2
        s = Sweep(label=f"{label} {kind}", kind=kind, entries=E, options=options,
                  reference=zref if kind == "Z" else href)
        if label == "ex52" and kind == "H":
            s.per_value_tol = [REF_TOL, REF_TOL, 5e-2, REF_TOL]
        if label == "ex14":
            s.termination = CONTINUUM if kind == "Z" else None
        else:
            s.termination = CERTIFIED
        sweeps.append(s)
    return sweeps


def oracle_sweep(pool_seed, j):
    """Tensor j of the oracle-n2 pool: order 3, 4, 3, 4, ... and kinds
    Z, Z, H, H, ..., so each group of four holds every (order, kind) pair."""
    m = 3 if j % 2 == 0 else 4
    kind = "Z" if j % 4 < 2 else "H"
    rng = np.random.default_rng((pool_seed, j))
    while True:
        E = rng.standard_normal((2,) * m)
        if np.all(np.diff(n2_eigenvalues(kind, E)) >= MIN_GAP):
            break
    return Sweep(label=f"random[{pool_seed},{j}] m={m} {kind}", kind=kind, entries=E,
                 termination=CERTIFIED)


def rounds_for(workload, seconds, least=1):
    return max(least, math.ceil(seconds / ROUND_SECONDS[workload]))


def make_rounds(workload, seed, seconds, least=1):
    """Every round of one run: a list of rounds, each a list of sweeps.

    Round r sweeps the workload's tensors scaled by 1 + r * 2**-30.  The
    scaling changes every coefficient the program's module caches are keyed
    on, so each round meets the caches as new tensors would, as one sweep
    of a tensor does, and the caches grow as over that many distinct
    tensors.  It changes a sweep's steps at most by a stray one, so every
    round does the same work and the median round sheds a slow spell of
    the machine.

    The fixtures run in a fixed order: the module caches pin every operator
    array built before ex56 H, so the order moved the peak RSS of
    fixtures-h by 6%.  The oracle-n2 pool is fixed too, since rounds of
    different random tensors differ in work, which no median can shed
    (README); the seed draws the order of the pool.
    """
    if workload == "oracle-n2":
        sweeps = [oracle_sweep(ORACLE_POOL_SEED, j) for j in range(ORACLE_BATCH)]
        sweeps = [sweeps[i] for i in np.random.default_rng(seed).permutation(len(sweeps))]
    else:
        sweeps = fixture_sweeps({"fixtures-z": "Z", "fixtures-h": "H"}[workload])
    return [[replace(s, label=f"{s.label} x(1+{r}/2^30)",
                     entries=s.entries * (1 + r * 2.0 ** -30)) for s in sweeps]
            for r in range(rounds_for(workload, seconds, least))]
