import json
import os
import re
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from spectral_tau.cli import JobSpec, main, run
from spectral_tau.serialize import ParseError, parse_matrix_polynomial

from conftest import random_matrix_polynomial

DOCS = Path(__file__).resolve().parent.parent / "docs"
SRC = DOCS.parent / "src"
G1 = DOCS / "examples" / "hyperelliptic-g1.json"
THREE = DOCS / "examples" / "three-sheet-m1.json"


def write_instance(w, path):
    """Write w in the CLI input schema (coefficients of z^m first)."""
    coeffs = [[[str(Fraction(x)) for x in row] for row in w.coefficient_of_power(k)]
              for k in range(w.m, -1, -1)]
    path.write_text(json.dumps({"n": w.n, "m": w.m, "coefficients": coeffs}))
    return path


def run_python(code):
    """Run code in a fresh interpreter that imports spectral_tau from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          capture_output=True, text=True, env=env, timeout=300)


class TestParsing:
    def test_valid_instance(self):
        with open(G1) as fh:
            w = parse_matrix_polynomial(json.load(fh))
        assert (w.n, w.m) == (2, 2)

    def test_float_entry_rejected(self):
        data = {"n": 2, "m": 1, "coefficients": [[["1", "0"], ["0", "-1"]], [["0.5", "0"], ["0", "0"]]]}
        with pytest.raises(ParseError, match="floats rejected"):
            parse_matrix_polynomial(data)

    def test_nondiagonal_leading_rejected(self):
        data = {"n": 2, "m": 1, "coefficients": [[["1", "1"], ["0", "2"]], [["0", "0"], ["0", "0"]]]}
        with pytest.raises(ParseError, match="diagonal"):
            parse_matrix_polynomial(data)

    def test_shape_mismatch_rejected(self):
        data = {"n": 2, "m": 1, "coefficients": [[["1", "0"], ["0", "-1"]]]}
        with pytest.raises(ParseError, match="m\\+1"):
            parse_matrix_polynomial(data)


class TestRun:
    def test_curve_info(self):
        status, report = run(JobSpec("curve-info", str(G1)))
        assert status == 0
        assert report["genus"] == 1
        assert all(d["passed"] for d in report["diagnostics"])

    def test_correlators_single_index(self):
        status, report = run(JobSpec("correlators", str(THREE), indices="1,0;2,0"))
        assert status == 0
        assert report["value"] == "10"

    def test_correlators_tables(self):
        status, report = run(JobSpec("correlators", str(G1), kmax=1, max_n=3))
        assert status == 0
        assert any(t["N"] == 3 for t in report["tables"])

    def test_divisor(self):
        status, report = run(JobSpec("divisor", str(G1)))
        assert status == 0
        assert report["d_degree"] == report["expected_degree"] == 2
        assert len(report["points"]) == 2

    def test_jet(self):
        status, report = run(JobSpec("jet", str(THREE)))
        assert status == 0
        assert report["constraints_failed"] == []

    def test_missing_file_is_input_error(self):
        status, report = run(JobSpec("curve-info", "no-such-file.json"))
        assert status == 2
        assert report["errors"]

    @pytest.mark.parametrize("field, value", [("m", True), ("n", True), ("n", False)])
    def test_boolean_size_is_input_error(self, tmp_path, capsys, field, value):
        """JSON true equals 1 as a Python int; a boolean n or m still exits 2."""
        data = json.loads(THREE.read_text())  # n = 3, m = 1: "m": true used to parse as m = 1
        data[field] = value
        path = tmp_path / "w.json"
        path.write_text(json.dumps(data))
        assert main(["curve-info", "--input", str(path)]) == 2
        assert "need integer n >= 2 and m >= 1" in json.loads(capsys.readouterr().out)["errors"][0]

    def test_kmax_cap_enforced(self):
        status, report = run(JobSpec("correlators", str(G1), kmax=99))
        assert status == 2
        assert "caps" in report["errors"][0]

    @pytest.mark.parametrize("command, kwargs, flag", [
        ("correlators", {"indices": "5,0;1,0"}, "--indices: sheet 5"),
        ("correlators", {"indices": "1,-1;2,0"}, "--indices: order k: -1"),
        ("correlators", {"indices": "1,17;2,0"}, "caps"),
        ("correlators", {"indices": "1,0;2,0;1,0;2,0;1,0;2,0;1,0"}, "caps"),
        ("correlators", {"kmax": -1}, "--kmax: -1"),
        ("correlators", {"max_n": 7}, "caps"),
        ("verify-theta", {"kmax": -1}, "--kmax: -1"),
        ("verify-theta", {"kmax": 17}, "caps"),
    ])
    def test_range_checked(self, command, kwargs, flag):
        status, report = run(JobSpec(command, str(G1), **kwargs))
        assert status == 2
        assert flag in report["errors"][0]
        assert report["errors"][0].startswith("--")

    def test_verify_theta_success(self):
        status, report = run(JobSpec("verify-theta", str(G1), kmax=1, tol=1e-6))
        assert status == 0
        assert report["success"] is True
        assert report["shift_used"] is not None
        assert len(report["identities"]) == 9   # kmax 1 for N = 3 and 4

    def test_verify_theta_max_n(self, capsys):
        # --max-n raises the top order past the default N = 3, 4
        status = main(["verify-theta", "--input", str(G1), "--max-n", "6", "--kmax", "0"])
        report = json.loads(capsys.readouterr().out)
        assert status == 0
        assert report["success"] is True
        assert [r["N"] for r in report["identities"]] == [3, 4, 5, 6]
        assert all(r["passed"] for r in report["identities"])


class TestStageErrors:
    """Failed numerical stages exit with status 1 and an errors report."""

    def test_divisor_error(self, tmp_path):
        # conftest n=4 m=2 seed 101: a divisor point fails the residual check
        path = write_instance(random_matrix_polynomial(101, 4, 2), tmp_path / "w.json")
        status, report = run(JobSpec("divisor", str(path)))
        assert status == 1
        assert list(report) == ["errors"]
        assert "residuals" in report["errors"][0]

    @pytest.mark.parametrize("module, target, error", [
        ("periods", "period_matrix", "PeriodError"),
        ("theta", "log_derivatives", "ThetaError"),
    ])
    def test_verify_theta_stage_error(self, monkeypatch, module, target, error):
        import importlib

        import spectral_tau.verify

        exc_type = getattr(importlib.import_module(f"spectral_tau.{module}"), error)

        def fail(*args, **kwargs):
            raise exc_type(f"injected {error}")

        monkeypatch.setattr(spectral_tau.verify, target, fail)
        job = JobSpec("verify-theta", str(G1), kmax=1, tol=1e-6)
        assert run(job) == (1, {"errors": [f"injected {error}"]})


class TestImports:
    def test_exact_commands_skip_numerical_modules(self):
        """curve-info, jet and correlators import neither numpy nor the numerical modules."""
        proc = run_python(f"""
            import contextlib, io, sys

            import spectral_tau.cli as cli

            HEAVY = ("numpy", "spectral_tau.periods", "spectral_tau.theta",
                     "spectral_tau.verify", "spectral_tau.divisor")

            def call(*argv):
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.main(list(argv)) == 0, argv

            def check(when):
                loaded = [m for m in HEAVY if m in sys.modules]
                assert not loaded, (when, loaded)

            check("import spectral_tau.cli")
            for argv in (["curve-info", "--input", {str(G1)!r}],
                         ["jet", "--input", {str(THREE)!r}],
                         ["correlators", "--input", {str(THREE)!r}, "--kmax", "1", "--max-n", "3"],
                         ["correlators", "--input", {str(THREE)!r}, "--indices", "1,0;2,0"]):
                call(*argv)
                check(argv[0])
            call("divisor", "--input", {str(G1)!r})
            call("verify-theta", "--input", {str(G1)!r}, "--kmax", "1")
            assert "numpy" in sys.modules
            print("ok")
        """)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "ok"


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for out in (out1, out2):
            status, report = run(JobSpec("correlators", str(G1), output_path=None, kmax=1))
            text = json.dumps(report, indent=2, sort_keys=True)
            out.write_text(text)
        assert out1.read_bytes() == out2.read_bytes()

    def test_cli_process_determinism(self, tmp_path):
        cmd = [sys.executable, "-m", "spectral_tau.cli", "divisor", "--input", str(G1)]
        r1 = subprocess.run(cmd, capture_output=True, text=True)
        r2 = subprocess.run(cmd, capture_output=True, text=True)
        assert r1.returncode == 0
        assert r1.stdout == r2.stdout


class TestDocsExamples:
    def test_usage_commands_run(self):
        """Every CLI invocation in docs/USAGE.md must execute successfully."""
        text = (DOCS / "USAGE.md").read_text()
        cmds = re.findall(r"^spectral-tau (.+)$", text, flags=re.M)
        assert cmds
        for cmd in cmds:
            argv = cmd.replace("docs/", str(DOCS) + "/").split()
            # shell-quoted index argument
            argv = [a.strip('"') for a in argv]
            proc = subprocess.run(
                [sys.executable, "-m", "spectral_tau.cli", *argv],
                capture_output=True, text=True, cwd=str(DOCS.parent),
            )
            assert proc.returncode == 0, f"{cmd!r} failed: {proc.stderr}"
            json.loads(proc.stdout)


class TestScripts:
    def test_verify_theta_script(self):
        script = DOCS.parent / "scripts" / "verify_theta.py"
        proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        verdicts = [line for line in proc.stdout.splitlines() if line.startswith("== ")]
        assert len(verdicts) == 2 and all(": PASS in " in line for line in verdicts)

    def test_run_examples(self):
        script = DOCS.parent / "scripts" / "run_examples.py"
        proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "done"
