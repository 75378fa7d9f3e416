import json
import os
import subprocess
import sys

import numpy as np
import pytest

import fixtures
import tensorspectra
from tensorspectra.cli import build_parser, emit_json, run
from tensorspectra.driver import full_sweep
from tensorspectra.poly import monomials_upto
from tensorspectra.tensor import serialize_tensor


@pytest.fixture
def ex51_file(tmp_path):
    path = tmp_path / "ex51.tsr"
    path.write_text(serialize_tensor(fixtures.ex51()))
    return str(path)


@pytest.fixture
def ex13_file(tmp_path):
    path = tmp_path / "ex13.tsr"
    path.write_text(serialize_tensor(fixtures.ex13()))
    return str(path)


@pytest.fixture
def ex14_file(tmp_path):
    path = tmp_path / "ex14.tsr"
    path.write_text(serialize_tensor(fixtures.ex14()))
    return str(path)


def test_zeig_ex51_text(ex51_file, capsys):
    assert run(["zeig", ex51_file]) == 0
    out = capsys.readouterr().out
    assert "23.0000" in out
    assert "25.1000" in out
    assert "termination: certified-complete" in out


def test_heig_ex13_certified_empty(ex13_file, capsys):
    assert run(["heig", ex13_file]) == 0
    out = capsys.readouterr().out
    assert "no real H-eigenvalues (certified)" in out


def test_zeig_ex14_partial_exit3(ex14_file, capsys):
    assert run(["zeig", ex14_file]) == 3
    out = capsys.readouterr().out
    assert "continuum-suspected" in out


def test_json_output_schema(ex51_file, capsys):
    assert run(["zeig", ex51_file, "--json"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert list(doc.keys()) == ["kind", "eigenvalues", "termination",
                                "config", "timings"]
    assert doc["kind"] == "Z"
    assert len(doc["eigenvalues"]) == 2
    row = doc["eigenvalues"][0]
    assert list(row.keys()) == ["value", "vectors", "residual", "isolated", "order"]
    assert row["value"] == pytest.approx(23.0, abs=5e-4)
    assert doc["termination"] == "certified-complete"


def test_json_empty_spectrum(ex13_file, capsys):
    assert run(["zeig", ex13_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["eigenvalues"] == []
    assert doc["termination"] == "certified-complete"


def test_json_roundtrip_reemission():
    spec = full_sweep("Z", fixtures.ex51())
    text = emit_json(spec)
    doc = json.loads(text)
    for row, pair in zip(doc["eigenvalues"], spec.eigenpairs):
        # 12 significant digits survive a decimal round trip
        assert float(f"{pair.value:.12g}") == row["value"]
        assert float(f"{pair.residual:.12g}") == row["residual"]


def test_json_deterministic(ex51_file, capsys):
    rc1 = run(["zeig", ex51_file, "--json", "--seed", "3"])
    out1 = capsys.readouterr().out
    rc2 = run(["zeig", ex51_file, "--json", "--seed", "3"])
    out2 = capsys.readouterr().out
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_text_and_json_agree(ex51_file, capsys):
    run(["zeig", ex51_file])
    text = capsys.readouterr().out
    run(["zeig", ex51_file, "--json"])
    doc = json.loads(capsys.readouterr().out)
    json_vals = sorted(round(r["value"], 4) for r in doc["eigenvalues"])
    text_vals = sorted(float(line.split()[0]) for line in text.splitlines()
                       if line.strip() and line.lstrip()[0].isdigit() and "." in line.split()[0])
    assert np.allclose(text_vals, json_vals, atol=1e-4)


def test_parse_error_exit2(tmp_path, capsys):
    bad = tmp_path / "bad.tsr"
    bad.write_text("4 2\n1 9 1 1 5.0\n")
    assert run(["zeig", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "out of range" in err


def test_missing_file_exit2(capsys):
    assert run(["zeig", "/nonexistent/file.tsr"]) == 2


def test_bad_config_exit2(ex51_file, capsys):
    assert run(["zeig", ex51_file, "--delta", "1e-9"]) == 2


def _no_sweep(*args):
    pytest.fail("a sweep started with invalid options")


@pytest.mark.parametrize("flags", [["--seed", "-1"], ["--kmax-offset", "-1"],
                                   ["--delta", "nan"], ["--delta", "inf"]])
def test_invalid_option_exit2_before_any_sweep(ex51_file, capsys, monkeypatch, flags):
    # at delta = nan a sweep never ends, so the test must not start one
    monkeypatch.setattr("tensorspectra.cli.full_sweep", _no_sweep)
    assert run(["zeig", ex51_file, *flags]) == 2
    assert "must be" in capsys.readouterr().err


def test_negative_env_seed_exit2(ex51_file, capsys, monkeypatch):
    monkeypatch.setenv("TENSOR_SPECTRA_SEED", "-1")
    monkeypatch.setattr("tensorspectra.cli.full_sweep", _no_sweep)
    assert run(["zeig", ex51_file]) == 2
    assert "seed must be" in capsys.readouterr().err


def test_env_seed_override(ex51_file, capsys, monkeypatch):
    monkeypatch.setenv("TENSOR_SPECTRA_SEED", "11")
    assert run(["zeig", ex51_file, "--json", "--seed", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["seed"] == 11
    assert doc["config"]["tol_eq"] == 1e-4
    assert doc["config"]["tol_dedup"] == 1e-6


def test_inconsistent_sweep_exit3(ex51_file, capsys, monkeypatch):
    monkeypatch.setattr("tensorspectra.driver.h_count_bound", lambda m, n: 0)
    assert run(["heig", ex51_file]) == 3
    assert "termination: inconsistent" in capsys.readouterr().out


def test_both_mode_runs_two_sweeps(ex13_file, capsys):
    assert run(["both", ex13_file]) == 0
    out = capsys.readouterr().out
    assert "no real Z-eigenvalues (certified)" in out
    assert "no real H-eigenvalues (certified)" in out


def test_dump_sdp_writes_files(ex13_file, tmp_path, capsys):
    dump_dir = tmp_path / "dumps"
    assert run(["zeig", ex13_file, "--dump-sdp", str(dump_dir)]) == 0
    capsys.readouterr()
    files = sorted(os.listdir(dump_dir))
    assert files
    content = (dump_dir / files[0]).read_text()
    assert content.startswith("conic-problem")
    assert "objective" in content and "blocks" in content
    # ex13 Z is order 4, so its relaxations are over the even-degree moments;
    # the dump lists their positions in the graded monomial order
    header, support = content.splitlines()[:2]
    fields = dict(item.split("=") for item in header.split()[1:])
    n, k = int(fields["n"]), int(fields["k"])
    want = [i for i, mono in enumerate(monomials_upto(n, 2 * k)) if sum(mono) % 2 == 0]
    assert support.split() == ["support"] + [str(i) for i in want]
    assert int(fields["vars"]) == len(want)


def test_parser_rejects_unknown_mode():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate", "x.tsr"])


@pytest.mark.parametrize("module", ["tensorspectra", "tensorspectra.cli"])
def test_python_m_entry_point(ex13_file, module):
    src = os.path.dirname(os.path.dirname(tensorspectra.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", module, "zeig", ex13_file, "--json"],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["kind"] == "Z"
    assert doc["termination"] == "certified-complete"
