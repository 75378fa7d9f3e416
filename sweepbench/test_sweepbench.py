"""Tests of the benchmark's checks and of its layer tracing, on quick sweeps."""

import importlib.util
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import tensorspectra.driver as driver  # noqa: E402
from tensorspectra import SweepOptions, Tensor, brute_h_n2, brute_z_n2, full_sweep  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from layers import DRIVER_CALLS, LayerTrace  # noqa: E402

# The fixture sweeps that take well under a second each.
QUICK = {"ex51 Z", "ex51 H", "ex13 Z", "ex13 H", "ex54(2) Z", "ex54(2) H",
         "ex57(2) Z", "ex57(2) H", "ex52 Z", "ex52 H", "ex53 H", "ex54(3) H"}


def _oracle(sweep, tensor):
    if sweep.dim != 2:
        return None
    return (brute_z_n2 if sweep.kind == "Z" else brute_h_n2)(tensor)


def _swept(sweeps):
    out = []
    for s in sweeps:
        tensor = Tensor(s.entries)
        out.append((s, full_sweep(s.kind, tensor, SweepOptions(**s.options)),
                    _oracle(s, tensor)))
    return out


@pytest.fixture(scope="module")
def fixture_spectra():
    sweeps = [s for kind in "ZH" for s in workloads.fixture_sweeps(kind)
              if s.label in QUICK]
    assert len(sweeps) == len(QUICK)
    return _swept(sweeps)


@pytest.fixture(scope="module")
def oracle_spectra():
    return _swept([workloads.oracle_sweep(workloads.ORACLE_POOL_SEED, j) for j in range(8)])


def _without(spectrum, i):
    pairs = spectrum.eigenpairs[:i] + spectrum.eigenpairs[i + 1:]
    return replace(spectrum, eigenpairs=pairs)


def _shifted(spectrum, i, by):
    pairs = list(spectrum.eigenpairs)
    pairs[i] = replace(pairs[i], value=pairs[i].value + by)
    return replace(spectrum, eigenpairs=pairs)


def test_fixture_copies_match_the_test_suite():
    spec = importlib.util.spec_from_file_location(
        "suite_fixtures", os.path.join(ROOT, "tests", "fixtures.py"))
    suite = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(suite)
    for name, args in [("ex51", ()), ("ex13", ()), ("ex14", ()), ("ex52", ()),
                       ("ex53", ()), ("ex54", (2,)), ("ex54", (3,)), ("ex54", (4,)),
                       ("ex55", ()), ("ex56", ()), ("ex57", (2,))]:
        ours = getattr(workloads, name)(*args)
        assert np.array_equal(ours, getattr(suite, name)(*args).entries), name


@pytest.mark.parametrize("spectra", ["fixture_spectra", "oracle_spectra"])
def test_correct_spectra_pass(spectra, request):
    for sweep, spectrum, oracle in request.getfixturevalue(spectra):
        assert checks.check_sweep(sweep, spectrum, oracle) == [], sweep.label


@pytest.mark.parametrize("spectra", ["fixture_spectra", "oracle_spectra"])
def test_dropped_value_is_flagged(spectra, request):
    dropped = 0
    for sweep, spectrum, oracle in request.getfixturevalue(spectra):
        for i in range(len(spectrum.eigenpairs)):
            assert checks.check_sweep(sweep, _without(spectrum, i), oracle), \
                (sweep.label, i)
            dropped += 1
    assert dropped >= 8


@pytest.mark.parametrize("spectra", ["fixture_spectra", "oracle_spectra"])
@pytest.mark.parametrize("by", [1e-3, -1e-3])
def test_shifted_value_is_flagged(spectra, by, request):
    for sweep, spectrum, oracle in request.getfixturevalue(spectra):
        for i in range(len(spectrum.eigenpairs)):
            bad = _shifted(spectrum, i, by)
            assert checks.check_sweep(sweep, bad, oracle), (sweep.label, i)
            # the numpy residual alone sees the shift, with no reference at all
            bare = replace(sweep, reference=None, per_value_tol=None)
            assert checks.check_sweep(bare, bad), (sweep.label, i)


def test_wrong_termination_is_flagged(fixture_spectra):
    sweep, spectrum, oracle = next(x for x in fixture_spectra if x[0].label == "ex13 H")
    assert checks.check_sweep(replace(sweep, termination=workloads.CONTINUUM),
                              spectrum, oracle)


def test_unmatched_allows_clusters_below_the_reference_rounding():
    assert checks.unmatched([0.5773, 0.57736, 0.57745], [0.5774], 5e-3) == ([], [])
    assert checks.unmatched([0.0, 0.00021], [0.0, 0.0002], 5e-3) == ([], [])
    assert checks.unmatched([0.0], [0.0, 0.0002], 5e-3) == ([0.0002], [])
    assert checks.unmatched([0.0, 0.1], [0.0], 5e-3) == ([], [0.1])


def test_numpy_n2_eigenvalues_equal_the_oracle(oracle_spectra):
    for sweep, _, oracle in oracle_spectra:
        mine = checks.n2_eigenvalues(sweep.kind, sweep.entries)
        assert np.allclose(mine, oracle.values, rtol=0, atol=1e-9), sweep.label


def test_near_double_eigenvalues_are_redrawn():
    # drawn as is, tensor (102, 100) has Z-eigenvalues 1.65285 and 1.65291
    # and its sweep misses one of them while claiming certified-complete
    raw = np.random.default_rng((102, 100)).standard_normal((2, 2, 2))
    assert np.min(np.diff(checks.n2_eigenvalues("Z", raw))) < workloads.MIN_GAP
    sweep = workloads.oracle_sweep(102, 100)
    assert not np.array_equal(sweep.entries, raw)
    assert np.min(np.diff(checks.n2_eigenvalues("Z", sweep.entries))) >= workloads.MIN_GAP


def test_rounds_come_from_the_seed():
    for w in workloads.WORKLOADS:
        a, b = (workloads.make_rounds(w, seed, 25) for seed in (1, 1))
        assert [[s.label for s in r] for r in a] == [[s.label for s in r] for r in b]
    pool = [s.label for r in workloads.make_rounds("oracle-n2", 3, 25) for s in r]
    assert len(set(pool)) == len(pool) == workloads.rounds_for("oracle-n2", 25) * 20


@pytest.mark.parametrize("label", ["ex51 H", "ex54(3) H"])
def test_traced_counts_equal_spectrum_counters(label):
    sweep = next(s for s in workloads.fixture_sweeps(label[-1])
                 if s.label == label)
    originals = {name: getattr(driver, name) for name in DRIVER_CALLS}
    trace = LayerTrace()
    tensor = Tensor(sweep.entries)
    spectrum = trace.sweep(sweep.kind, tensor, SweepOptions(**sweep.options))
    assert trace.calls["sdpsolver.solve"] == spectrum.counters["sdp_solves"] > 0
    assert trace.iterations == spectrum.counters["ipm_iterations"] > 0
    assert trace.counts_agree()
    assert all(getattr(driver, name) is fn for name, fn in originals.items())
    metrics = trace.metrics(rounds=1)
    assert metrics["sdpsolver.solves"][0] == spectrum.counters["sdp_solves"]
    assert metrics["momentsdp.builds"][0] == spectrum.counters["sdp_solves"]
    assert metrics["driver.self_s"][0] > 0
    plain = full_sweep(sweep.kind, tensor, SweepOptions(**sweep.options))
    assert plain.values == spectrum.values


def test_run_without_the_program_fails_without_a_result(tmp_path):
    bench = tmp_path / "sweepbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    proc = subprocess.run(
        [sys.executable, "sweepbench/run.py", "--workload", "fixtures-z",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
