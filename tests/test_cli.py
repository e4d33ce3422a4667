import functools
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from click.testing import CliRunner

from orbitlab import harness
from orbitlab.cli import main

ROOT = Path(__file__).parents[1]


def test_help_lists_subcommands():
    result = CliRunner().invoke(main, ["--help"])
    assert result.exit_code == 0
    for name in ("run", "all", "classify-hermitian", "match-orbit", "zeta",
                 "orbit"):
        assert name in result.output
    assert "--max-level" not in result.output
    result = CliRunner().invoke(main, ["run", "--help"])
    assert result.exit_code == 0
    unwrapped = "".join(result.output.split())
    for name in harness.SUITES:
        assert name in unwrapped


def _usage_lines():
    """The orbitlab command lines of the README's Usage section."""
    readme = (ROOT / "README.md").read_text()
    usage = readme.split("## Usage", 1)[1].split("\n## ", 1)[0]
    return [line for line in usage.splitlines()
            if line.startswith("orbitlab ")]


def test_readme_usage_lines_parse():
    lines = _usage_lines()
    assert any(" run " in line for line in lines)
    for line in lines:
        args = shlex.split(line)[1:]
        result = CliRunner().invoke(main, args + ["--help"])
        assert result.exit_code == 0, (line, result.output)
        if "run" in args:
            # --help exits before the suite names are checked
            names = args[args.index("run") + 1:]
            assert names and set(names) <= set(harness.SUITES), line


def test_runtime_does_not_import_sympy():
    # a fresh interpreter: the test modules import sympy themselves
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = ("import orbitlab.cli, orbitlab.harness, sys; "
            "assert 'sympy' not in sys.modules")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_hilbert_subcommand():
    result = CliRunner().invoke(main, ["--p", "3", "run", "hilbert-oracle"])
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
        main, ["--p", "5", "--out", str(out), "run", "hilbert-oracle"])
    assert result.exit_code == 0
    data = json.loads(out.read_text())
    assert data[0]["name"] == "hilbert-oracle" and data[0]["passed"]
    # --p replaces the suite's default primes
    assert all(r["detail"].startswith("p=5 ") for r in data[0]["instances"])


def test_failing_stretch_is_nonblocking():
    result = CliRunner().invoke(main, ["run", "rank2-anisotropic-stretch"])
    assert result.exit_code == 0
    assert "non-blocking" in result.output


def _recording_registry(calls):
    """Stub suites under real registry keys; each records the keyword
    arguments it was called with and passes."""
    def recording(fn):
        @functools.wraps(fn)
        def stub(**kwargs):
            calls[fn.__name__] = kwargs
            rep = harness.VerificationReport(fn.__name__)
            rep.add(True)
            return rep
        return stub

    @recording
    def every_option(instances, p_list=(3,), seed=0, tau=None, ledger=None):
        pass

    @recording
    def primes_only(p_list=(3,)):
        pass

    @recording
    def no_options():
        pass

    return {"torus-germ": (every_option, 50),
            "hilbert-oracle": (primes_only, None),
            "rank2-anisotropic-stretch": (no_options, None)}


def test_all_hands_each_suite_only_its_options(monkeypatch):
    calls = {}
    monkeypatch.setattr(harness, "SUITES", _recording_registry(calls))
    result = CliRunner().invoke(
        main, ["--p", "5", "--tau", "3", "--instances", "4", "all"])
    assert result.exit_code == 0, result.output
    ledger = calls["every_option"].pop("ledger")
    assert isinstance(ledger, harness.NormalizationLedger)
    assert calls == {
        "every_option": {"p_list": (5,), "tau": Fraction(3), "instances": 4},
        "primes_only": {"p_list": (5,)},
        "no_options": {}}
    # without --instances, quick takes a tenth of the registered count
    result = CliRunner().invoke(main, ["--seed", "2", "all", "--quick"])
    assert result.exit_code == 0, result.output
    assert calls["every_option"]["instances"] == 5
    assert calls["every_option"]["seed"] == 2
    assert calls["primes_only"] == {}


def test_run_rejects_an_option_the_suite_does_not_take(monkeypatch):
    calls = {}
    monkeypatch.setattr(harness, "SUITES", _recording_registry(calls))
    result = CliRunner().invoke(main, ["--tau", "3", "run", "hilbert-oracle"])
    assert result.exit_code == 2
    assert "--tau" in result.output and "hilbert-oracle" in result.output
    assert not calls
    result = CliRunner().invoke(main, ["--tau", "3", "run", "torus-germ"])
    assert result.exit_code == 0, result.output
    assert calls["every_option"]["tau"] == Fraction(3)


def test_scripts_parse_their_options():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for script in ("bench.py", "build_transfer_pair.py",
                   "explore_germ_expansion.py"):
        result = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / script), "--help"],
            env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, (script, result.stderr)
    # the two example scripts also run at their defaults and re-verify
    # their own results
    for script in ("build_transfer_pair.py", "explore_germ_expansion.py"):
        result = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / script)],
            env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, (script, result.stderr)
        assert "[ok]" in result.stdout, (script, result.stdout)
        assert "MISMATCH" not in result.stdout, (script, result.stdout)
