import json
import os
import subprocess
import sys

import numpy as np
import pytest

from dataclasses import fields

import fixtures
import tensorspectra
from tensorspectra.cli import (_OPTIONS, _config_echo, _sweep_options, build_parser,
                               emit_json, run)
from tensorspectra.driver import SweepOptions, full_sweep
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
    # every option a flag sets, under the flag's name
    assert list(doc["config"]) == ["delta", "delta_min", "kmax_offset", "nonneg",
                                   "tol_res", "tol_eq", "tol_dedup", "rank_tol", "seed"]
    assert doc["config"]["delta"] == 0.05 and doc["config"]["nonneg"] is False


def test_cli_table_covers_every_sweep_option():
    # one row per SweepOptions field but the solver hook, which no flag sets
    names = sorted(name for name, _, _, _ in _OPTIONS)
    assert names == sorted(f.name for f in fields(SweepOptions) if f.name != "solver")


def test_config_echo_keys_are_the_table_flags():
    keys = [flag[2:].replace("-", "_") for _, flag, _, _ in _OPTIONS]
    assert list(_config_echo(SweepOptions())) == keys


def test_no_flags_give_the_default_options():
    assert _sweep_options(build_parser().parse_args(["zeig", "x.tsr"])) == SweepOptions()


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


@pytest.mark.parametrize("flags,message", [
    (["--tol-res", "0"], "--tol-res must be positive"),
    (["--delta", "1e-9"], "--delta must exceed --delta-min")])
def test_invalid_option_error_names_the_flag(ex51_file, capsys, monkeypatch, flags, message):
    monkeypatch.setattr("tensorspectra.cli.full_sweep", _no_sweep)
    assert run(["zeig", ex51_file, *flags]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def _no_sweep(*args):
    pytest.fail("a sweep started with invalid options")


@pytest.mark.parametrize("flags", [["--seed", "-1"], ["--kmax-offset", "-1"],
                                   ["--delta", "nan"], ["--delta", "inf"]])
def test_invalid_option_exit2_before_any_sweep(ex51_file, capsys, monkeypatch, flags):
    # at delta = nan a sweep never ends, so the test must not start one
    monkeypatch.setattr("tensorspectra.cli.full_sweep", _no_sweep)
    assert run(["zeig", ex51_file, *flags]) == 2
    assert "must be" in capsys.readouterr().err


def test_seed_flag_in_config_echo(ex51_file, capsys):
    assert run(["zeig", ex51_file, "--json", "--seed", "11"]) == 0
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


def test_dump_sdp_at_an_existing_file_exit2(ex51_file, tmp_path, capsys, monkeypatch):
    afile = tmp_path / "afile"
    afile.write_text("")
    monkeypatch.setattr("tensorspectra.cli.full_sweep", _no_sweep)
    assert run(["zeig", ex51_file, "--dump-sdp", str(afile)]) == 2
    assert capsys.readouterr().err.startswith(f"error: --dump-sdp {afile}: ")


def test_dump_sdp_tags_parity_parts(tmp_path, capsys):
    # ex54(4) H (m = 3, so m0 = 2): every block keeps its rows with
    # alpha_1 < 2.  The moment block of side 35 at k = 3 keeps 30 rows and
    # enters as its even and odd parts (10 and 20 rows); the smaller blocks
    # print their bare sides, whether the sphere rule dropped rows (the
    # k = 2 moment block, 15 -> 14) or none (a cap's localizing block of 5)
    path = tmp_path / "ex54.tsr"
    path.write_text(serialize_tensor(fixtures.ex54(4)))
    dump_dir = tmp_path / "dumps"
    assert run(["heig", str(path), "--dump-sdp", str(dump_dir)]) == 0
    capsys.readouterr()
    lines = set()
    for name in sorted(os.listdir(dump_dir)):
        text = (dump_dir / name).read_text()
        lines.update(line for line in text.splitlines() if line.startswith("blocks "))
    assert "blocks 10:even 20:odd 14" in lines
    assert "blocks 14 5" in lines


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
