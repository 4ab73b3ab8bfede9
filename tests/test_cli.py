import argparse
import json
import math
import os
import re
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from spectral_tau.cli import _COMMANDS, JobSpec, build_parser, main, run
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

    def test_unreadable_input_is_input_error(self, tmp_path, capsys):
        # a directory: open() raises IsADirectoryError
        assert main(["curve-info", "--input", str(tmp_path)]) == 2
        report = json.loads(capsys.readouterr().out)
        assert list(report) == ["errors"] and str(tmp_path) in report["errors"][0]

    def test_unwritable_output_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "r.json"
        assert main(["curve-info", "--input", str(G1), "--output", str(out)]) == 2
        report = json.loads(capsys.readouterr().out)
        assert list(report) == ["errors"] and str(out) in report["errors"][0]
        assert not out.exists()

    @pytest.mark.parametrize("command", list(_COMMANDS))
    @pytest.mark.parametrize("lead, message", [
        ([["1", "1"], ["0", "2"]], "leading coefficient must be diagonal"),
        ([["1", "0"], ["0", "1"]], "leading diagonal entries must be pairwise distinct"),
    ], ids=["lead-not-diagonal", "lead-repeated"])
    def test_w_outside_the_domain_is_input_error(self, tmp_path, capsys, command, lead, message):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"n": 2, "m": 1,
                                    "coefficients": [lead, [["0", "1"], ["2", "0"]]]}))
        assert main([command, "--input", str(path)]) == 2
        assert json.loads(capsys.readouterr().out) == {"errors": [message]}

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
        ("divisor", {"tol": math.nan}, "--tol: nan"),
        ("divisor", {"tol": -1.0}, "--tol: -1.0"),
        ("divisor", {"tol": math.inf}, "--tol: inf"),
        ("divisor", {"tol": 0.0}, "--tol: 0.0"),
        ("verify-theta", {"tol": math.nan}, "--tol: nan"),
        ("correlators", {"indices": "1,2,3;1,0"}, "--indices: '1,2,3' is not a pair"),
        ("correlators", {"indices": "a,0;1,0"}, "--indices: 'a,0' is not a pair"),
        ("correlators", {"indices": "1;2"}, "--indices: '1' is not a pair"),
        ("correlators", {"indices": ";"}, "--indices: number of pairs: 0 is below 2"),
        ("correlators", {"indices": ""}, "--indices: number of pairs: 0 is below 2"),
    ])
    def test_range_checked(self, command, kwargs, flag):
        status, report = run(JobSpec(command, str(G1), **kwargs))
        assert status == 2
        assert flag in report["errors"][0]
        assert report["errors"][0].startswith("--")

    def test_empty_indices_is_rejected_not_ignored(self, capsys):
        assert main(["correlators", "--input", str(G1), "--indices", ""]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report == {"errors": ["--indices: number of pairs: 0 is below 2"]}

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

    @pytest.mark.parametrize("lead, rest, message", [
        (["1", "-1"], [[["1", "1"], ["2", "0"]], [["0", "1"], ["0", "0"]]],
         "hyperelliptic pipeline needs tr W = 0"),
        (["2", "-2"], [[["0", "1"], ["2", "0"]], [["0", "1"], ["0", "0"]]],
         "curve must be w^2 = monic Q of degree 2m (normalize the leading entries to (1, -1))"),
        (["1", "-1"], [[["0", "1"], ["2", "0"]]], "Q must have even degree >= 4"),
        (None, None, "hyperelliptic pipeline needs n = 2"),
    ], ids=["not-traceless", "lead-2", "genus-0", "three-sheet"])
    def test_verify_theta_input_it_does_not_take(self, tmp_path, lead, rest, message):
        # a W the hyperelliptic pipeline does not take is an input error
        path = THREE
        if lead is not None:
            path = tmp_path / "w.json"
            coeffs = [[[lead[0], "0"], ["0", lead[1]]]] + rest
            path.write_text(json.dumps({"n": 2, "m": len(rest), "coefficients": coeffs}))
        assert run(JobSpec("verify-theta", str(path))) == (2, {"errors": [message]})


class TestFlags:
    def test_flags_are_pinned(self):
        """Each subcommand takes only the flags its handler reads: adding one edits this table."""
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        flags = {name: sorted(o for a in p._actions for o in a.option_strings
                              if o not in ("-h", "--help"))
                 for name, p in sub.choices.items()}
        assert flags == {
            "curve-info": ["--input", "--output"],
            "correlators": ["--indices", "--input", "--kmax", "--max-n", "--output"],
            "divisor": ["--input", "--output", "--tol"],
            "jet": ["--input", "--output"],
            "verify-theta": ["--input", "--kmax", "--max-n", "--output", "--tol"],
        }

    def test_flag_the_subcommand_does_not_read_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["curve-info", "--input", str(G1), "--kmax", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --kmax 1" in capsys.readouterr().err


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
        assert len(verdicts) == 2
        assert all(re.search(r": PASS in \d+\.\d ms, ", line) for line in verdicts), verdicts

    def test_bench_snapshot_copies_the_latest_records(self, tmp_path):
        script = DOCS.parent / "scripts" / "bench_snapshot.py"
        workloads = ("exact-npoint", "cli-exact", "theta-g2")

        def records(tag):
            return [{"workload": w, "trace": t, "tag": f"{tag}-{w}-{t}", "passes": [0.5, 0.25],
                     "metrics": {"wall_s": {"value": 0.5, "unit": "s"}}}
                    for w in workloads + ("theta-g3",) for t in (0, 1)]

        def run(label, lines):
            results = tmp_path / f"{label}.jsonl"
            results.write_text("".join(json.dumps(r) + "\n" for r in lines))
            return subprocess.run([sys.executable, str(script), str(tmp_path / "BENCH.json"),
                                   label, str(results)], capture_output=True, text=True,
                                  timeout=60)

        assert run("parent", records("old") + records("new")).returncode == 0
        assert run("change", records("mine")).returncode == 0
        text = (tmp_path / "BENCH.json").read_text()
        snap = json.loads(text)
        for label, tag in (("parent", "new"), ("change", "mine")):
            assert list(snap[label]) == list(workloads)
            for w in workloads:
                assert snap[label][w] == {t: r for t, r in zip(
                    ("untraced", "traced"), records(tag)[2 * workloads.index(w):])}
        # one line per record field
        assert text.count('    "passes": [0.5,0.25],\n') == 12
        assert text.count('    "metrics": {"wall_s": {"value": 0.5,"unit": "s"}}\n') == 12
        untraced_only = [r for r in records("new") if not r["trace"]]
        proc = run("partial", untraced_only)
        assert proc.returncode != 0 and "exact-npoint traced" in proc.stderr
        assert "partial" not in json.loads((tmp_path / "BENCH.json").read_text())

    def test_run_examples(self):
        script = DOCS.parent / "scripts" / "run_examples.py"
        proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "done"
