import json
import os
import subprocess
import sys
from pathlib import Path

from click.testing import CliRunner

from orbitlab.cli import main


def test_help_lists_subcommands():
    result = CliRunner().invoke(main, ["--help"])
    assert result.exit_code == 0
    for name in ("germ-verify", "nilpotent-identity", "descent-verify",
                 "descent-fourier", "fl-check", "weil-sign", "hilbert",
                 "classify-hermitian", "match-orbit", "zeta"):
        assert name in result.output
    assert "--max-level" not in result.output


def test_runtime_does_not_import_sympy():
    # a fresh interpreter: the test modules import sympy themselves
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    code = ("import orbitlab.cli, orbitlab.harness, sys; "
            "assert 'sympy' not in sys.modules")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_hilbert_subcommand():
    result = CliRunner().invoke(main, ["--p", "3", "hilbert"])
    assert result.exit_code == 0
    assert result.output.startswith("PASS hilbert-oracle")


def test_classify_hermitian():
    result = CliRunner().invoke(
        main, ["--p", "3", "--tau", "2", "classify-hermitian",
               "[[1, 0], [0, 3]]"])
    assert result.exit_code == 0
    assert "class bit: 1" in result.output


def test_match_orbit():
    result = CliRunner().invoke(
        main, ["match-orbit", "--gamma", "[[0, -1], [1, 0]]",
               "--v", "[1, 0]", "--vstar", "[0, 1]"])
    assert result.exit_code == 0
    assert "re-verified: True" in result.output


def test_zeta_of_unit_lattice():
    result = CliRunner().invoke(main, ["zeta", "--roots", "[0]"])
    assert result.exit_code == 0
    assert "value: Cyc(1*1)" in result.output


def test_orbit_value():
    result = CliRunner().invoke(
        main, ["orbit", "--gamma", "1", "--v", "1", "--vstar", "1"])
    assert result.exit_code == 0
    assert "value: Cyc(1*1)" in result.output


def test_report_file(tmp_path):
    out = tmp_path / "report.json"
    result = CliRunner().invoke(
        main, ["--p", "3", "--out", str(out), "hilbert"])
    assert result.exit_code == 0
    data = json.loads(out.read_text())
    assert data[0]["name"] == "hilbert-oracle" and data[0]["passed"]


def test_failing_stretch_is_nonblocking():
    result = CliRunner().invoke(main, ["fl-check", "--n", "2"])
    assert result.exit_code == 0
    assert "non-blocking" in result.output
