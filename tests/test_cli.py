"""Golden-file tests: every command, byte-exact output, exit codes.

Regenerate with CROSSFIELD_REGEN=1 after an intentional format change and
review the diff; the mathematical values inside are pinned independently by
the module tests.
"""

import argparse
import dataclasses
import gc
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossfield import LaurentPoly, MonomialIndex, VectorField, cli, lie
from crossfield.cli import MAX_MONOMIALS, main

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"

REGEN = os.environ.get("CROSSFIELD_REGEN") == "1"


def doc(name: str) -> str:
    return str(DATA / name)


CASES = [
    # (golden name, argv, expected exit code, check stderr)
    ("normalize_resonant", ["normalize", "--field", doc("resonant.vf"), "--json"], 0, False),
    ("normalize_linearizable", ["normalize", "--field", doc("linearizable.vf"), "--json"], 0, False),
    ("normalize_twovar", ["normalize", "--field", doc("twovar.vf"), "--json"], 0, False),
    ("holonomy_twovar", ["holonomy", "--field", doc("twovar.vf"), "--degree", "2", "--json"], 0, False),
    ("resonances_neg1", ["resonances", "--mu=-1", "--degree", "3", "--json"], 0, False),
    ("resonances_witness", ["resonances", "--mu=1/2,-3", "--degree", "5", "--json"], 0, False),
    ("resonances_text", ["resonances", "--mu=-1", "--degree", "3"], 0, False),
    ("classify2_neg", ["classify2", "--lambda=-1", "--json"], 0, False),
    ("classify2_text", ["classify2", "--lambda=2"], 0, False),
    ("classify3_3b", ["classify3", "--lambda=1/2", "--mu=-3", "--json"], 0, False),
    ("classify3_nonreal", ["classify3", "--lambda=i", "--mu=-1-i", "--json"], 0, False),
    ("centralizer_i", ["centralizer", "--mu=i", "--degree", "4", "--json"], 0, False),
    ("centralizer_negative", ["centralizer", "--mu=1/2,-3", "--degree", "5", "--x-window=-5,5", "--json"], 0, False),
    ("commute_pair", ["check-commute", "--field", doc("euler.vf"), "--field2", doc("diag.vf"), "--json"], 0, False),
    ("noncommute", ["check-commute", "--field", doc("resonant.vf"), "--field2", doc("nilpotent.vf"), "--json"], 1, True),
    ("exp_nilpotent", ["exp", "--field", doc("nilpotent.vf"), "--json"], 0, False),
    ("exp_window", ["exp", "--field", doc("xlin.vf"), "--x-cap", "4", "--json"], 0, False),
    ("exp_window_dx", ["exp", "--field", doc("exp_dx.vf"), "--x-cap", "2", "--json"], 0, False),
    ("exp_window_laurent", ["exp", "--field", doc("exp_laurent.vf"), "--x-cap", "2", "--json"], 0, False),
    ("exp_halftime", ["exp", "--field", doc("nilpotent.vf"), "--time", "1/2", "--json"], 0, False),
    ("log_map", ["log", "--map", doc("tangent.map"), "--json"], 0, False),
    ("holonomy_resonant", ["holonomy", "--field", doc("resonant.vf"), "--degree", "2", "--tol", "1e-10", "--json"], 0, False),
    ("conjugacy_scale", ["conjugacy-check", "--field", doc("resonant.vf"), "--map", doc("scale.map"), "--degree", "2", "--json"], 0, False),
    ("holonomy_twovar_d3_w3", ["holonomy", "--field", doc("twovar.vf"), "--degree", "3", "--windings", "3", "--json"], 0, False),
    ("holonomy_resonant_d4_wm2", ["holonomy", "--field", doc("resonant.vf"), "--degree", "4", "--windings", "-2", "--json"], 0, False),
    ("conjugacy_scale_d4", ["conjugacy-check", "--field", doc("resonant.vf"), "--map", doc("scale.map"), "--degree", "4", "--json"], 0, False),
    ("conjugacy_too_strict", ["conjugacy-check", "--field", doc("resonant.vf"), "--map", doc("scale.map"), "--degree", "2", "--max-residual", "1e-20", "--json"], 1, True),
    ("parse_error_position", ["normalize", "--field", doc("bad.vf"), "--json"], 2, True),
    ("reject_not_normalized", ["holonomy", "--field", doc("notnorm.vf"), "--json"], 2, True),
    ("require_flag_rejects", ["normalize", "--field", doc("notnorm.vf"), "--require-x-normalized"], 2, True),
    ("missing_mu", ["resonances", "--json"], 2, True),
    # help texts
    ("help", ["--help"], 0, False),
    *[
        (f"help_{command.replace('-', '_')}", [command, "--help"], 0, False)
        for command in ("normalize", "resonances", "classify2", "classify3", "centralizer",
                        "check-commute", "exp", "log", "holonomy", "conjugacy-check")
    ],
    # usage errors: missing or unreadable documents, bad flag values
    ("missing_field", ["normalize", "--json"], 2, True),
    ("missing_map", ["log", "--json"], 2, True),
    ("missing_field2", ["check-commute", "--field", doc("euler.vf"), "--json"], 2, True),
    ("unreadable_path", ["normalize", "--field", doc("missing.vf"), "--json"], 2, True),
    ("bad_x_window", ["centralizer", "--mu=i", "--x-window=1", "--json"], 2, True),
    ("bad_lambda", ["classify2", "--lambda=1//2", "--json"], 2, True),
    ("bad_mu", ["resonances", "--mu=1,x", "--json"], 2, True),
    ("bad_mu_classify3", ["classify3", "--lambda=1", "--mu=x", "--json"], 2, True),
    ("classify3_without_mu", ["classify3", "--lambda=1", "--json"], 2, True),
    ("too_many_mu", ["resonances", "--mu=1,2,3,4,5,6,7", "--json"], 2, True),
    ("degree_over_bound", ["resonances", "--mu=-1", "--degree", "13", "--json"], 2, True),
    # header errors
    ("header_missing_n", ["normalize", "--field", doc("broken/no_n.vf"), "--json"], 2, True),
    ("header_n_not_int", ["normalize", "--field", doc("broken/n_not_int.vf"), "--json"], 2, True),
    ("header_n_too_big", ["normalize", "--field", doc("broken/n_too_big.vf"), "--json"], 2, True),
    ("header_slot_budget", ["normalize", "--field", doc("broken/slot_budget.vf"), "--json"], 2, True),
    ("header_missing_field", ["normalize", "--field", doc("broken/no_field.vf"), "--json"], 2, True),
    ("header_no_colon", ["normalize", "--field", doc("broken/no_colon.vf"), "--json"], 2, True),
    # map errors
    ("map_unknown_target", ["log", "--map", doc("broken/unknown_target.map"), "--json"], 2, True),
    ("map_target_range", ["log", "--map", doc("broken/target_range.map"), "--json"], 2, True),
    ("map_x_not_x", ["log", "--map", doc("broken/map_x.map"), "--json"], 2, True),
    ("map_missing_target", ["log", "--map", doc("broken/missing_target.map"), "--json"], 2, True),
]


def golden_run(argv, capsys, monkeypatch):
    """(exit code, stdout, stderr) of main(argv) as the goldens hold them:
    help wrapped to 80 columns, documents named data/<file>."""
    monkeypatch.setenv("COLUMNS", "80")
    rc = main(argv)
    out, err = (s.replace(str(DATA), "data") for s in capsys.readouterr())
    return rc, out, err


@pytest.mark.parametrize("name,argv,code,check_err", CASES, ids=[c[0] for c in CASES])
def test_golden(name, argv, code, check_err, capsys, monkeypatch):
    rc, out, err = golden_run(argv, capsys, monkeypatch)
    assert rc == code, err
    out_path = GOLDEN / f"{name}.out"
    err_path = GOLDEN / f"{name}.err"
    if REGEN:
        out_path.write_text(out, encoding="utf-8")
        if check_err:
            err_path.write_text(err, encoding="utf-8")
        pytest.skip("regenerated golden files")
    assert out == out_path.read_text(encoding="utf-8")
    if check_err:
        assert err == err_path.read_text(encoding="utf-8")


def test_every_command_has_a_golden():
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    commands = set(subparsers.choices)
    assert len(commands) == 10
    run = {argv[0] for _, argv, _, _ in CASES if "--help" not in argv}
    helped = {argv[0] for _, argv, _, _ in CASES if argv[1:] == ["--help"]}
    assert commands <= run
    assert commands <= helped


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_parse_error_names_document_position(capsys):
    rc = main(["normalize", "--field", doc("bad.vf"), "--json"])
    out, err = capsys.readouterr()
    assert rc == 2
    # the field expression starts on line 5 of bad.vf, after "field:"
    assert "line 5 col 15" in err


def test_reports_are_deterministic(capsys):
    argv = ["holonomy", "--field", doc("resonant.vf"), "--degree", "2", "--json"]
    assert main(argv) == 0
    first, _ = capsys.readouterr()
    assert main(argv) == 0
    second, _ = capsys.readouterr()
    assert first == second


def test_declared_mu_mismatch_rejected(tmp_path, capsys):
    p = tmp_path / "mismatch.vf"
    p.write_text("n: 1\ndegree: 3\nmu: 2\nfield: x*dx - z1*dz1\n", encoding="utf-8")
    rc = main(["normalize", "--field", str(p), "--json"])
    _, err = capsys.readouterr()
    assert rc == 2
    assert err == "error: diagonal entry 1 is -1, declared mu is 2\n"


# --mu that disagrees with the document's mu: is rejected whatever the
# linear part; with an x-dependent diagonal a wrong mu: used to pass unread
@pytest.mark.parametrize("field", ["x*dx - z1*dz1", "x*dx - z1*dz1 + x*z1*dz1"])
def test_mu_flag_disagreeing_with_document_rejected(field, tmp_path, capsys):
    p = tmp_path / "declared.vf"
    p.write_text(f"n: 1\ndegree: 3\nx-cap: 2\nmu: 2\nfield: {field}\n", encoding="utf-8")
    rc = main(["normalize", "--field", str(p), "--mu=-1", "--json"])
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert err == "error: --mu=-1 differs from the document's mu: 2\n"
    p.write_text(f"n: 1\ndegree: 3\nx-cap: 2\nmu: -1\nfield: {field}\n", encoding="utf-8")
    assert main(["normalize", "--field", str(p), "--mu=-1", "--json"]) == 0
    capsys.readouterr()


# resonances and centralizer used to let --mu override the document's mu:,
# and every command took a --mu with another count than the document's n
@pytest.mark.parametrize("command", ["normalize", "resonances", "centralizer"])
@pytest.mark.parametrize("header,mu,message", [
    ("mu: 1/2\n", "-1", "--mu=-1 differs from the document's mu: 1/2"),
    ("mu: 1/2\n", "1,2", "--mu lists 2 values for n = 1"),
    ("", "1/2,1/2", "--mu lists 2 values for n = 1"),
])
def test_mu_flag_checked_against_the_document(command, header, mu, message, tmp_path):
    p = tmp_path / "declared.vf"
    p.write_text(f"n: 1\ndegree: 3\n{header}field: x*dx + 1/2*z1*dz1\n", encoding="utf-8")
    assert call([command, "--field", str(p), f"--mu={mu}", "--json"]) == (2, "", f"error: {message}\n")
    agreeing = call([command, "--field", str(p), "--mu=1/2", "--json"])
    assert agreeing[0] == 0
    if header:
        assert agreeing == call([command, "--field", str(p), "--json"])


# check-commute used to read --field2 at --field's degree, so its answer
# turned on the order of the arguments; conjugacy-check reported another n
# only through the library's shape check
@pytest.mark.parametrize("argv,message", [
    (["check-commute", "--field", "A.vf", "--field2", "B.vf"],
     "--field2 degree 2 does not match field degree 5"),
    (["check-commute", "--field", "B.vf", "--field2", "A.vf"],
     "--field2 degree 5 does not match field degree 2"),
    (["check-commute", "--field", "A.vf", "--field2", doc("twovar.vf")],
     "--field2 n 2 does not match field n 1"),
    (["conjugacy-check", "--field", doc("resonant.vf"), "--map", "two.map"],
     "map n 2 does not match field n 1"),
    (["conjugacy-check", "--field", doc("resonant.vf"), "--map", doc("tangent.map")],
     "map degree 3 does not match field degree 4"),
])
def test_second_document_of_another_shape_is_usage_error(argv, message, tmp_path):
    docs = {
        "A.vf": "n: 1\ndegree: 5\nfield: x*dx + 1/2*z1*dz1\n",
        "B.vf": "n: 1\ndegree: 2\nfield: z1^4*dz1\n",
        "two.map": "n: 2\ndegree: 4\nmap z1: z1\nmap z2: z2\n",
    }
    for name, text in docs.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    argv = [str(tmp_path / a) if a in docs else a for a in argv]
    assert call(argv + ["--json"]) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("text,message", [
    ("n: 1\ndegree: 3\nmu: 1/2,\nfield: x*dx\n", ":3: bad mu value: bad coefficient syntax: ''"),
    ("n: 2\ndegree: 3\nmu: 1/2\nfield: x*dx\n", ":3: mu lists 1 values for n = 2"),
])
def test_bad_mu_header_is_usage_error(text, message, tmp_path, capsys):
    p = tmp_path / "mu.vf"
    p.write_text(text, encoding="utf-8")
    rc = main(["normalize", "--field", str(p), "--json"])
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert err == f"error: {p}{message}\n"


# a repeated header key used to override the first silently
@pytest.mark.parametrize("name,text,argv,message", [
    ("n.vf", "n: 1\nn: 2\ndegree: 3\nfield: x*dx - z1*dz1\n", ["normalize", "--field"],
     ":2: repeated 'n:' entry, first given on line 1"),
    ("mu.vf", "n: 1\ndegree: 3\nmu: -1\n\nmu: 2\nfield: x*dx - z1*dz1\n", ["normalize", "--field"],
     ":5: repeated 'mu:' entry, first given on line 3"),
    ("z1.map", "n: 1\ndegree: 3\nmap z1: z1 + z1^2\nmap  z1: z1 + z1^3\n", ["log", "--map"],
     ":4: repeated 'map z1:' entry, first given on line 3"),
    # the same target under another spelling used to keep only its last image
    ("z01.map", "n: 1\ndegree: 3\nmap z1: z1 + z1^2\nmap z01: z1 + z1^3\n", ["log", "--map"],
     ":4: repeated target z1, first given on line 3"),
], ids=["n", "mu", "map-z1", "map-z01"])
def test_repeated_header_key_is_usage_error(name, text, argv, message, tmp_path, capsys):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    rc = main([*argv, str(p), "--json"])
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert err == f"error: {p}{message}\n"


# a non-decimal digit in a map target used to end in an unpositioned int() error
def test_map_target_with_a_superscript_digit_is_usage_error(tmp_path, capsys):
    p = tmp_path / "sup.map"
    p.write_text("n: 1\ndegree: 3\nmap z\u00b9: z1 + z1^2\n", encoding="utf-8")
    rc = main(["log", "--map", str(p), "--json"])
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert err == f"error: {p}:3: unknown map target 'z\u00b9'\n"


def test_byte_order_mark_is_not_part_of_the_header(tmp_path, capsys):
    plain = (DATA / "resonant.vf").read_bytes()
    p = tmp_path / "bom.vf"
    p.write_bytes(b"\xef\xbb\xbf" + plain)
    rc = main(["normalize", "--field", str(p), "--json"])
    out, _ = capsys.readouterr()
    assert rc == 0
    assert out == (GOLDEN / "normalize_resonant.out").read_text(encoding="utf-8")


# The holonomy and conjugacy goldens hold floats whose last bits depend on
# the interpreter's complex arithmetic.  Each interpreter replays them in a
# child process: this one always, and every path in CROSSFIELD_PYTHONS
# (os.pathsep-separated), such as other CPython versions.
FLOAT_CASES = [c for c in CASES if c[0].startswith(("holonomy_", "conjugacy_"))]
REPLAY = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
from crossfield.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    runs.append([rc, out.getvalue(), err.getvalue()])
sys.stdout.write(json.dumps(runs))
"""
PYTHONS = [sys.executable] + [
    p for p in os.environ.get("CROSSFIELD_PYTHONS", "").split(os.pathsep) if p
]


@pytest.mark.parametrize("python", PYTHONS, ids=["running"] + PYTHONS[1:])
def test_float_goldens_replay_in_a_child_interpreter(python):
    src = str(Path(__file__).parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    argvs = [argv for _, argv, _, _ in FLOAT_CASES]
    proc = subprocess.run([python, "-c", REPLAY, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout)
    assert len(FLOAT_CASES) >= 7
    for (name, _, code, check_err), (rc, out, err) in zip(FLOAT_CASES, runs):
        assert rc == code, (name, err)
        assert out.replace(str(DATA), "data") == (GOLDEN / f"{name}.out").read_text(encoding="utf-8"), name
        if check_err:
            assert err == (GOLDEN / f"{name}.err").read_text(encoding="utf-8"), name


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("command,extra", [
    ("holonomy", []),
    ("conjugacy-check", ["--map", doc("scale.map")]),
])
def test_invalid_tol_is_usage_error(command, extra, tol, capsys):
    argv = [command, "--field", doc("resonant.vf"), *extra, "--degree", "2",
            "--tol", tol, "--json"]
    rc = main(argv)
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err.startswith("error: tol must be finite and > 0")
    assert "Traceback" not in err


@pytest.mark.parametrize("windings", ["0", "65", "-65", str(10**6)])
def test_out_of_range_windings_is_usage_error(windings, capsys):
    argv = ["holonomy", "--field", doc("resonant.vf"), "--degree", "2",
            "--windings", windings, "--json"]
    rc = main(argv)
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err.startswith("error: windings must be a nonzero integer")
    assert "Traceback" not in err


OVERSIZED_DOCS = {
    "n": "n: 40\ndegree: 3\nfield: x*dx\n",
    "degree": "n: 1\ndegree: 100000\nfield: x*dx + z1^2*dz1\n",
    "x-cap": "n: 1\ndegree: 3\nx-cap: 100000\nfield: x*dx - z1*dz1 + x*z1*dz1\n",
}


@pytest.mark.parametrize("key", sorted(OVERSIZED_DOCS))
def test_oversized_document_header_is_usage_error(key, tmp_path, capsys):
    p = tmp_path / "big.vf"
    p.write_text(OVERSIZED_DOCS[key], encoding="utf-8")
    for command in ("normalize", "exp"):
        rc = main([command, "--field", str(p), "--json"])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and f"'{key}' must be at most" in err
        assert "Traceback" not in err


def test_oversized_map_document_is_usage_error(tmp_path, capsys):
    p = tmp_path / "big.map"
    p.write_text("n: 1\ndegree: 100000\nmap x: x\nmap z1: z1 + z1^2\n", encoding="utf-8")
    rc = main(["log", "--map", str(p), "--json"])
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and "'degree' must be at most" in err


@pytest.mark.parametrize("argv", [
    ["normalize", "--field", doc("twovar.vf"), "--degree", "5000"],
    ["normalize", "--field", doc("resonant.vf"), "--x-cap", "100000"],
    ["exp", "--field", doc("xlin.vf"), "--x-cap", "65"],
    ["centralizer", "--mu=i", "--degree", "100000"],
    ["resonances", "--mu=-1", "--degree", "13"],
    ["resonances", "--mu=1,2,3,4,5,6,7", "--degree", "3"],
])
def test_oversized_flag_is_usage_error(argv, capsys):
    rc = main(argv + ["--json"])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and "at most" in err
    assert "Traceback" not in err


# 16 terms at n = 6: each header is in bounds, but degree 12 spans
# 6*C(18, 6) = 111,384 monomial slots; normalize ran past 60 s before the
# combined budget
WIDE_FIELD = (
    "x*dx + 1/2*z1*dz1 - 3*z2*dz2 + i*z3*dz3 + 5/3*z4*dz4 - 2/7*z5*dz5 + 7/5*z6*dz6"
    " + z1^2*dz2 + z2*z3*dz1 + z4^2*dz5 + z5*z6*dz4 + z1*z6*dz3 + z3^3*dz6"
    " + x*z2^2*dz2 + z4*z5*z6*dz1 + z6^2*dz6"
)


@pytest.mark.parametrize("degree,flags", [("12", []), ("2", ["--degree", "12"])])
def test_monomial_budget_is_usage_error(degree, flags, tmp_path, capsys):
    p = tmp_path / "wide.vf"
    p.write_text(f"n: 6\ndegree: {degree}\nfield: {WIDE_FIELD}\n", encoding="utf-8")
    t0 = time.perf_counter()
    rc = main(["normalize", "--field", str(p), *flags, "--json"])
    elapsed = time.perf_counter() - t0
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and "111384 monomial slots" in err
    assert f"at most {MAX_MONOMIALS}" in err
    assert "Traceback" not in err
    assert elapsed < 5


@pytest.mark.parametrize("argv", [
    ["exp", "--field", doc("nilpotent.vf"), "--degree", "12"],
    ["normalize", "--field", doc("resonant.vf"), "--x-cap", "64"],
    ["normalize", "--field", doc("resonant.vf"), "--x-cap", "1"],
    ["exp", "--field", doc("nilpotent.vf"), "--x-cap", "0"],
])
def test_flags_at_the_bound_run(argv, capsys):
    assert main(argv + ["--json"]) == 0
    capsys.readouterr()


# below the lower bounds the commands used to exit 0 with garbage: a negative
# x-cap dropped every Taylor term, degree 0 sent z1 to 0; normalize's x-cap 0
# used to blame the support of the d/dx component x
@pytest.mark.parametrize("argv,message", [
    (["exp", "--field", doc("nilpotent.vf"), "--x-cap", "-2"], "--x-cap must be at least 0, got -2"),
    (["exp", "--field", doc("nilpotent.vf"), "--degree", "0"], "--degree must be at least 1, got 0"),
    (["normalize", "--field", doc("resonant.vf"), "--x-cap", "-1"], "--x-cap must be at least 0"),
    (["normalize", "--field", doc("resonant.vf"), "--x-cap", "0"],
     "x_cap must be at least 1, the x-degree of the d/dx component x; got 0"),
])
def test_undersized_flag_is_usage_error(argv, message, capsys):
    rc = main(argv + ["--json"])
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and message in err


UNDERSIZED_DOCS = {
    "n": "n: 0\ndegree: 3\nfield: x*dx\n",
    "degree": "n: 1\ndegree: 0\nfield: x*dx + z1*dz1\n",
    "x-cap": "n: 1\ndegree: 3\nx-cap: -1\nfield: x*dx - z1*dz1 + x*z1*dz1\n",
}


@pytest.mark.parametrize("key", sorted(UNDERSIZED_DOCS))
def test_undersized_document_header_is_usage_error(key, tmp_path, capsys):
    p = tmp_path / "small.vf"
    p.write_text(UNDERSIZED_DOCS[key], encoding="utf-8")
    for command in ("normalize", "exp"):
        rc = main([command, "--field", str(p), "--json"])
        out, err = capsys.readouterr()
        assert (rc, out) == (2, "")
        assert err.startswith("error: ") and f"'{key}' must be at least" in err


def test_degree_zero_map_document_is_usage_error(tmp_path, capsys):
    p = tmp_path / "d0.map"
    p.write_text("n: 1\ndegree: 0\nmap x: x\nmap z1: 2*z1 + z1^2\n", encoding="utf-8")
    rc = main(["log", "--map", str(p), "--json"])
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert err == f"error: {p}:2: 'degree' must be at least 1, got 0\n"


# one coefficient grammar: stray text the regex reader used to accept
@pytest.mark.parametrize("argv", [
    ["classify2", "--lambda=1/2 3"],
    ["classify2", "--lambda=*i"],
    ["resonances", "--mu=2i"],
])
def test_stray_coefficient_text_is_usage_error(argv, capsys):
    rc = main(argv + ["--json"])
    out, err = capsys.readouterr()
    flag, _, value = argv[1].partition("=")
    assert (rc, out) == (2, "")
    assert err == f"error: bad {flag} value: bad coefficient syntax: {value!r}\n"


def test_two_real_parts_in_a_field_is_usage_error(tmp_path, capsys):
    # the field reader used to sum any number of parts: this was 2*z1*dz1
    p = tmp_path / "sum.vf"
    p.write_text("n: 1\ndegree: 3\nfield: x*dx + (1+1)*z1*dz1\n", encoding="utf-8")
    rc = main(["normalize", "--field", str(p), "--json"])
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert err == "error: line 3 col 17: two real parts\n"


# resonances and centralizer read only the document's header; they used to
# take --require-x-normalized and ignore it
@pytest.mark.parametrize("command", ["resonances", "centralizer"])
def test_require_x_normalized_on_header_commands(command, capsys):
    rejected = ["--field", doc("notnorm.vf"), "--require-x-normalized", "--mu=1/2"]
    rc = main([command, *rejected, "--json"])
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert err == (GOLDEN / "require_flag_rejects.err").read_text(encoding="utf-8")
    rc = main([command, "--require-x-normalized", "--mu=1/2", "--json"])
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert err == (GOLDEN / "missing_field.err").read_text(encoding="utf-8")
    plain = [command, "--field", doc("resonant.vf"), "--json"]
    assert main(plain) == 0
    want = capsys.readouterr()
    assert main(plain + ["--require-x-normalized"]) == 0
    assert capsys.readouterr() == want


# the column of an error in a header line's value counts every blank before it
@pytest.mark.parametrize("name,text,argv,col", [
    ("cols.vf", "n: 2\ndegree: 3\nfield:    x*dx + z1*dz1 + ?\n", ["normalize", "--field"], 27),
    ("cols.map", "n: 1\ndegree: 3\nmap  z1: 2*z1 + ?\n", ["log", "--map"], 17),
])
def test_error_column_after_extra_blanks(name, text, argv, col, tmp_path, capsys):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    assert text.splitlines()[2].index("?") + 1 == col
    rc = main([*argv, str(p), "--json"])
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert err == f"error: line 3 col {col}: unexpected character '?'\n"


# a digit run past the interpreter's int-string limit (4,300 digits by
# default) used to escape as a bare ValueError with no position
def test_overlong_number_is_positioned_usage_error(tmp_path, capsys):
    ones = "1" * 5000
    p = tmp_path / "long.vf"
    p.write_text(f"n: 1\ndegree: 3\nfield: x*dx + {ones}*z1*dz1\n", encoding="utf-8")
    rc = main(["normalize", "--field", str(p), "--json"])
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert err == "error: line 3 col 15: number of 5000 digits is too long\n"
    rc = main(["classify2", f"--lambda={ones}", "--json"])
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert err == f"error: bad --lambda value: bad coefficient syntax: {ones!r}\n"


# --- one parser per process ----------------------------------------------------


def call(argv):
    """(exit code, stdout, stderr) of main(argv) on the process's parser."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def call_fresh(argv):
    """The same on a freshly built parser; the shared one is restored."""
    shared = cli._PARSER
    cli._PARSER = None
    try:
        return call(argv)
    finally:
        cli._PARSER = shared


def twovar_holonomy(*flags):
    return ["holonomy", "--field", doc("twovar.vf"), *flags, "--json"]


CENTRALIZER = ["centralizer", "--mu=1/2,-3", "--degree", "5", "--json"]
EXP = ["exp", "--field", doc("nilpotent.vf"), "--json"]

# every golden argv, then help, usage errors, and each default right after an
# override of it
SEQUENCE = [argv for _, argv, _, _ in CASES] + [
    ["--help"],
    ["centralizer", "--help"],
    ["frobnicate"],
    ["classify2", "--json"],
    twovar_holonomy("--windings", "3"),
    twovar_holonomy(),
    CENTRALIZER + ["--x-window=-5,5"],
    CENTRALIZER,
    EXP + ["--time", "1/2"],
    EXP,
]


def test_shared_parser_leaks_nothing_between_calls():
    call(["classify2", "--lambda=2"])
    shared = cli._PARSER
    assert shared is not None
    results = {}
    for argv in SEQUENCE:
        results[tuple(argv)] = call(argv)
        assert cli._PARSER is shared
    for argv in SEQUENCE:
        assert results[tuple(argv)] == call_fresh(argv), argv
    assert results[("--help",)][0] == 0
    assert results[("frobnicate",)][0] == 2
    assert results[("classify2", "--json")][0] == 2
    # the plain calls really ran on their defaults
    assert '"windings": 1,' in results[tuple(twovar_holonomy())][1]
    assert '"x_window": [\n    -6,\n    6\n  ]' in results[tuple(CENTRALIZER)][1]
    assert '"time": "1",' in results[tuple(EXP)][1]


def test_import_builds_no_parser():
    """A fresh interpreter: importing the CLI constructs no ArgumentParser;
    two main() calls construct exactly one tree, the one build_parser()
    makes."""
    script = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *a, **k):\n"
        "    built.append(1)\n"
        "    init(self, *a, **k)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import crossfield.cli as cli\n"
        "print(len(built), cli._PARSER is None)\n"
        "cli.main(['classify2', '--lambda=2'])\n"
        "cli.main(['classify2', '--lambda=-1'])\n"
        "once = len(built)\n"
        "cli.build_parser()\n"
        "print(once, len(built) - once)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "0 True"
    built_by_main, built_by_build = lines[-1].split()
    assert built_by_main == built_by_build != "0"


# --- argv fuzz -----------------------------------------------------------------

# sizes like the benchmark corpus: n <= 3, degree <= 4, denominators <= 7
COEFFS = st.one_of(
    st.builds(
        lambda a, b, c, d: f"{a}/{b}{c:+d}/{d}*i",
        st.integers(-3, 3), st.integers(1, 3), st.sampled_from([-1, 0, 1]),
        st.integers(1, 7),
    ),
    st.sampled_from(["0", "1", "-1", "i", "1/2", "-3", "2-i"]),
)
GARBAGE = st.sampled_from(["", "x", "1/0", "i*i", "1//2", "--", "nan", "1e400", "3,", "é"])
FIELDS = sorted(p.name for p in DATA.glob("*.vf"))
MAPS = sorted(p.name for p in DATA.glob("*.map"))
VALUES = {
    "--field": st.sampled_from(FIELDS).map(doc),
    "--field2": st.sampled_from(FIELDS).map(doc),
    "--map": st.sampled_from(MAPS).map(doc),
    "--mu": st.lists(COEFFS, min_size=1, max_size=3).map(",".join),
    "--lambda": COEFFS,
    "--degree": st.integers(-1, 4).map(str),
    "--x-cap": st.integers(-1, 4).map(str),
    "--x-window": st.tuples(st.integers(-4, 4), st.integers(-4, 4)).map(
        lambda w: f"{w[0]},{w[1]}"),
    "--tol": st.sampled_from(["1e-6", "1e-8", "0", "-1", "inf"]),
    "--time": COEFFS,
    "--windings": st.integers(-2, 3).map(str),
    "--max-residual": st.sampled_from(["1e-3", "1e-20", "0"]),
}
BAD_VALUES = {
    "--field": st.sampled_from([doc("missing.vf"), str(DATA)] + [doc(m) for m in MAPS]),
    "--field2": st.sampled_from([doc("missing.vf"), doc("twovar.vf")]),
    "--map": st.sampled_from([doc("missing.map"), doc("resonant.vf")]),
}
FLAGS = {
    "normalize": ["--field", "--mu", "--degree", "--x-cap"],
    "resonances": ["--field", "--mu", "--degree"],
    "classify2": ["--lambda"],
    "classify3": ["--lambda", "--mu"],
    "centralizer": ["--field", "--mu", "--degree", "--x-window"],
    "check-commute": ["--field", "--field2"],
    "exp": ["--field", "--time", "--x-cap", "--degree"],
    "log": ["--map"],
    "holonomy": ["--field", "--degree", "--tol", "--windings"],
    "conjugacy-check": ["--field", "--map", "--degree", "--tol", "--max-residual"],
    "frobnicate": [],
}
SWITCHES = ["--json", "--require-x-normalized", "--help"]


@st.composite
def argvs(draw):
    """Mostly the command's own flags with valid values; now and then a
    garbage value, a foreign flag or a missing required one."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = [f for f in FLAGS[command] if draw(st.integers(0, 3))]
    flags += draw(st.lists(st.sampled_from(SWITCHES[:2]), max_size=2))
    if not draw(st.integers(0, 7)):
        flags.append(draw(st.sampled_from(sorted(VALUES) + SWITCHES[2:])))
    argv = [command]
    for flag in draw(st.permutations(flags)):
        if flag in SWITCHES:
            argv.append(flag)
            continue
        if draw(st.integers(0, 9)):
            value = draw(VALUES[flag])
        else:
            value = draw(st.one_of(BAD_VALUES.get(flag, GARBAGE), GARBAGE))
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv


@settings(max_examples=1000, derandomize=True, database=None, deadline=None)
@given(argvs())
def test_argv_fuzz(argv):
    got = call(argv)
    rc, _, err = got
    assert rc in (0, 1, 2), (argv, got)
    assert "Traceback" not in err, argv
    assert got == call_fresh(argv), argv


@pytest.mark.parametrize("argv,flag", [
    (["centralizer", "--mu=i", "--degree=--"], "--degree"),
    (["resonances", "--field", doc("resonant.vf"), "--mu=--"], "--mu"),
    (["normalize", "--field=--"], "--field"),
    (["classify2", "--lambda=--"], "--lambda"),
    (["centralizer", "--mu=i", "--x-window=--"], "--x-window"),
])
def test_option_given_double_dash_is_usage_error(argv, flag):
    rc, out, err = call(argv)
    assert (rc, out) == (2, "")
    assert flag in err and "Traceback" not in err


def test_resonances_counterexample_is_bounded():
    """About 7.2e10 box points: the decision falls back to bounded
    enumeration instead of scanning."""
    argv = ["resonances", "--mu=1/31*i,-1/37*i+1/2,1/41*i", "--degree", "3", "--json"]
    t0 = time.perf_counter()
    rc, out, err = call(argv)
    assert (rc, err) == (0, "")
    assert time.perf_counter() - t0 < 5
    assert '"exact": false' in out


@pytest.mark.parametrize("degree,holds", [(8, True), (10, False)])
def test_resonances_bounded_verdict_reaches_the_listed_degree(degree, holds):
    """Past the box budget (S = (11, 39, 0, 1), 56,769,073 points) the
    verdict is enumerated to max(--degree, 8), so it never says "ntnr"
    beside a listed negative hit: the first, 11*mu_4 - mu_1 = 1, has degree
    10.  A hit found that way is a witness, so the failure is exact."""
    mu = "--mu=1/10+11/40*i,1/10+39/40*i,1/10,1/10+1/40*i"
    rc, out, err = call(["resonances", mu, "--degree", str(degree), "--json"])
    assert (rc, err) == (0, "")
    doc = json.loads(out)
    assert doc["exact"] is not holds and doc["bound"] == degree
    assert doc["ntnr"] is holds and doc["ntnr"] is not bool(doc["negative"])
    assert (doc["witness"] and doc["witness"]["K"]) == (None if holds else [-1, 0, 0, 11])


def test_resonances_exact_for_four_eigenvalues():
    """The exact decision has no limit on n: with S = 0 the degree-10
    witness 11*mu_4 - mu_1 = 1 is found past the listed degree."""
    argv = ["resonances", "--mu=1/10,1/10,1/10,1/10", "--degree", "8", "--json"]
    rc, out, err = call(argv)
    assert (rc, err) == (0, "")
    assert '"ntnr": false,\n  "exact": true' in out
    doc = json.loads(out)
    assert doc["negative"] == [] and doc["witness"]["K"] == [-1, 0, 0, 11]


@pytest.mark.parametrize("argv,witness_K", [
    # n = 1: the first witness of a/b is K = (b,), past the old degree-256 cap
    (["resonances", "--mu=1/300", "--json"], [300]),
    (["centralizer", "--mu=1/300", "--degree", "3", "--json"], None),
    # witness degree 300
    (["resonances", "--mu=2/301,-3", "--json"], [301, -1]),
    # n = 3: the first witness lies past the walk's budget
    (["resonances", "--mu=1/301,1/307,1/311", "--json"], None),
])
def test_far_witnesses_answer_quickly(argv, witness_K):
    """An exact failure whose first witness is far out answers in seconds,
    with the witness when the walk reaches it and null otherwise."""
    t0 = time.perf_counter()
    rc, out, err = call(argv)
    assert time.perf_counter() - t0 < 5
    assert (rc, err) == (0, "") and "Traceback" not in out
    doc = json.loads(out)
    assert doc["ntnr"] is False and doc["ntnr_exact" if argv[0] == "centralizer" else "exact"]
    if argv[0] == "resonances":
        assert (doc["witness"] and doc["witness"]["K"]) == witness_K


# --- document fuzz -------------------------------------------------------------

# small documents: n <= 2, degree <= 4, denominators <= 7, x-exponents -2..2
DOC_COEFFS = st.one_of(
    st.builds(
        lambda a, b, c, d: f"({a}/{b}{c:+d}/{d}*i)",
        st.integers(-3, 3), st.integers(1, 7), st.integers(-2, 2), st.integers(1, 7),
    ),
    st.sampled_from(["1", "-1", "i", "1/2", "-3", "2/7"]),
)


@st.composite
def exponents(draw, n, low, degree):
    """A z-exponent of total degree in low..degree (None if there is none)."""
    if low > degree:
        return None
    total = draw(st.integers(low, degree))
    first = draw(st.integers(0, total)) if n == 2 else total
    return (first, total - first)[:n]


@st.composite
def terms(draw, n, degree, low, dvars):
    """coefficient * x^e * z^K * dvar, with |K| >= low."""
    K = draw(exponents(n, low, degree))
    if K is None:
        return None
    e = draw(st.integers(-2, 2))
    parts = [draw(DOC_COEFFS)] + ([f"x^{e}"] if e else [])
    parts += [f"z{i}" + (f"^{k}" if k > 1 else "") for i, k in enumerate(K, 1) if k]
    dvar = draw(st.sampled_from(dvars))
    return "*".join(parts + ([dvar] if dvar else []))


@st.composite
def documents(draw):
    """A field document and a map document of the same n and degree.

    The field is x-normalized, 1-flat or arbitrary; the map is tangent to
    the identity or has a random (possibly singular) constant linear part,
    plus terms of z-degree >= 2.  Coefficients carry x^-2 .. x^2.
    """
    n = draw(st.integers(1, 2))
    degree = draw(st.integers(0, 4))
    header = [f"n: {n}", f"degree: {degree}"]
    x_cap = draw(st.one_of(st.none(), st.integers(0, 4)))
    dz = [f"dz{j}" for j in range(1, n + 1)]
    kind = draw(st.sampled_from(["normalized", "flat", "any"]))

    def extra(low, dvars):
        return draw(st.lists(terms(n, degree, low, dvars), max_size=4))

    if kind == "normalized":
        mu = [draw(DOC_COEFFS) for _ in range(n)]
        if draw(st.booleans()):
            header.append("mu: " + ",".join(m.strip("()") for m in mu))
        body = ["x*dx"] + [f"{m}*z{j}*{d}" for j, (m, d) in enumerate(zip(mu, dz), 1)]
        body += extra(2, dz)
    elif kind == "flat":
        body = extra(1, ["dx"]) + extra(2, dz)
    else:
        body = extra(0, ["dx"] + dz)
    field = header + ([f"x-cap: {x_cap}"] if x_cap is not None else [])
    field.append("field: " + (" + ".join(t for t in body if t) or "0"))
    tangent = draw(st.booleans())
    lines = [f"n: {n}", f"degree: {degree}", "map x: x"]
    for i in range(1, n + 1):
        if tangent:
            image = [f"z{i}"]
        else:
            image = [f"{draw(DOC_COEFFS)}*z{j}" for j in range(1, n + 1)]
        image += extra(2, [""])
        lines.append(f"map z{i}: " + (" + ".join(t for t in image if t) or "0"))
    return "\n".join(field) + "\n", "\n".join(lines) + "\n", draw(st.integers(1, 3))


@pytest.fixture(scope="module")
def doc_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("docs")


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(docs=documents())
def test_document_fuzz(doc_dir, docs):
    field_text, map_text, jet_degree = docs
    field, mapdoc = doc_dir / "fuzz.vf", doc_dir / "fuzz.map"
    field.write_text(field_text)
    mapdoc.write_text(map_text)
    for argv in (
        ["normalize", "--field", str(field), "--json"],
        ["exp", "--field", str(field), "--json"],
        ["log", "--map", str(mapdoc), "--json"],
        ["conjugacy-check", "--field", str(field), "--map", str(mapdoc),
         "--degree", str(jet_degree), "--json"],
    ):
        t0 = time.perf_counter()
        rc, out, err = call(argv)
        elapsed = time.perf_counter() - t0
        case = (argv[0], field_text, map_text)
        assert rc in (0, 1, 2), case
        assert "Traceback" not in err, case
        assert elapsed < 5, (elapsed, case)
        if rc == 0:
            assert all(math.isfinite(v) for v in printed_floats(json.loads(out))), case


def printed_floats(report):
    """Every number in a JSON report, and every string that reads as a float."""
    if isinstance(report, dict):
        report = list(report.values())
    if isinstance(report, list):
        for item in report:
            yield from printed_floats(item)
    elif isinstance(report, (int, float)) and not isinstance(report, bool):
        yield float(report)
    elif isinstance(report, str):
        try:
            yield float(report)
        except ValueError:
            pass


def test_zero_field_document(tmp_path):
    # the zero field as the printers write it: exp(0) is the identity
    path = tmp_path / "zero.vf"
    path.write_text("n: 2\ndegree: 3\nfield: 0\n")
    rc, out, err = call(["exp", "--field", str(path), "--json"])
    assert (rc, err) == (0, "")
    report = json.loads(out)
    assert (report["x"], report["z"]) == ("x", ["z1", "z2"])


# |e^{2 pi i w mu}| = e^{-2 pi w Im mu} = e^{240 pi} is past the largest float:
# the one-turn jet overflows in the integrator
OVERFLOW_DOCS = {
    "negative-im": ("n: 1\ndegree: 4\nmu: -120*i\n"
                    "field: x*dx - 120*i*z1*dz1 + x*z1^2*dz1\n", "1"),
    # positive Im mu contracts forward, so the backward turn overflows
    "positive-im": ("n: 1\ndegree: 4\nmu: 120*i\n"
                    "field: x*dx + 120*i*z1*dz1 + x*z1^2*dz1\n", "-1"),
}


@pytest.mark.parametrize("key", sorted(OVERFLOW_DOCS))
def test_overflowing_holonomy_is_an_error(tmp_path, key):
    text, windings = OVERFLOW_DOCS[key]
    path = tmp_path / "overflow.vf"
    path.write_text(text)
    argv = ["holonomy", "--field", str(path), "--degree", "2", "--json"]
    rc, out, err = call(argv + ["--windings", windings])
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and "not finite" in err
    # the predicted cut-off: 240 pi / ln 10 = 327.4 decades
    assert "z1's linear entry" in err and "about 10^327 for w = " in err
    # the other direction contracts and prints a finite jet
    rc, out, _ = call(argv + ["--windings", str(-int(windings))])
    assert rc == 0
    assert all(math.isfinite(v) for v in printed_floats(json.loads(out)))


def test_overflowing_conjugacy_check_is_an_error(tmp_path):
    path = tmp_path / "overflow.vf"
    path.write_text(OVERFLOW_DOCS["negative-im"][0])
    rc, out, err = call(["conjugacy-check", "--field", str(path), "--map", doc("scale.map"),
                         "--degree", "2", "--max-residual", "1e-9", "--json"])
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and "not finite" in err


CONJUGACY_SCALE = ["conjugacy-check", "--field", doc("resonant.vf"), "--map", doc("scale.map"),
                   "--degree", "2", "--json"]


def test_failed_map_inversion_is_a_finding(monkeypatch):
    # a wrong logarithm splits the bare map into factors whose fold is not
    # its inverse; the inverse's own check reports it
    one_flat = VectorField.monomial(1, 4, MonomialIndex((1,), 1), LaurentPoly.one())
    real_log = lie.log
    monkeypatch.setattr(lie, "log", lambda phi: real_log(phi) + one_flat)
    rc, out, err = call(CONJUGACY_SCALE)
    assert (rc, out) == (1, "")
    assert err == "finding: inversion failed at the cap\n"


def test_centralizer_counterexample_is_a_finding(monkeypatch):
    real = cli.centralizer_check
    monkeypatch.setattr(cli, "centralizer_check",
                        lambda *a: dataclasses.replace(real(*a), ok=False))
    rc, out, err = call(CENTRALIZER)
    assert rc == 1
    assert json.loads(out)["taylor_centralizer_ok"] is False
    assert err == ("finding: no-negative-resonance holds but the centralizer has "
                   "negative x-exponents\n")


@pytest.mark.parametrize("bound", ["nan", "-1", "-inf"])
def test_max_residual_that_bounds_nothing_is_usage_error(bound):
    rc, out, err = call(CONJUGACY_SCALE + [f"--max-residual={bound}"])
    assert (rc, out) == (2, "")
    assert err.startswith("error: --max-residual must be a number >= 0")


@pytest.mark.parametrize("bound,code", [("0", 1), ("1e-20", 1), ("inf", 0)])
def test_max_residual_bounds_stay_valid(bound, code):
    rc, out, _ = call(CONJUGACY_SCALE + [f"--max-residual={bound}"])
    assert rc == code
    assert json.loads(out)["ok"] is (code == 0)


@pytest.mark.parametrize("command,extra", [
    ("holonomy", []),
    ("conjugacy-check", ["--map", doc("scale.map")]),
])
def test_jet_degree_past_the_truncation_degree_is_usage_error(command, extra):
    rc, out, err = call([command, "--field", doc("resonant.vf"), *extra, "--degree", "5", "--json"])
    assert (rc, out) == (2, "")
    assert err == "error: jet degree 5 exceeds the field's truncation degree 4\n"


def test_emit_leaves_no_cyclic_garbage():
    call(["classify2", "--lambda=-1", "--json"])
    gc.collect()
    gc.disable()
    try:
        rc, out, _ = call(["classify2", "--lambda=-1", "--json"])
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert rc == 0 and json.loads(out)["case"] == "ClassifiedByHolonomy"


def test_failed_certificate_is_a_finding(monkeypatch):
    from crossfield import normalform

    monkeypatch.setattr(normalform, "_intertwines", lambda *args: False)
    assert call(["normalize", "--field", doc("resonant.vf"), "--json"]) == (
        1, "", "finding: conjugation certificate failed\n")


@pytest.mark.parametrize("argv,message", [
    (["exp", "--field", doc("nilpotent.vf")], "Lie series failed to terminate; nilpotency is violated"),
    (["log", "--map", doc("tangent.map")], "log failed to terminate"),
])
def test_series_guard_is_a_finding(monkeypatch, argv, message):
    from crossfield import lie

    monkeypatch.setattr(lie, "_GUARD", 0)
    assert call(argv) == (1, "", f"finding: {message}\n")
    assert issubclass(lie.CertificateError, AssertionError)


# --- the JSON writer against json.dumps(value, indent=2) ----------------------

JSON_TEXT = ["", "z1", "x^-2", "1/2*i", "\u00e9", "\u2028", "\U0001f600", "\x00", "\x1f",
             "\x7f", '"', "\\", "/", "\n\t\r\b\f", "\ud800"]
JSON_NUMBERS = [0, -1, 7, 2**70, -(3**50), 0.0, -0.0, 1.5, -2.25e-300, 1e300,
                math.inf, -math.inf, math.nan]


def rand_json(rng, depth=3):
    kind = rng.random() if depth else 0.0
    if kind < 0.45:
        return rng.choice([
            lambda: "".join(rng.choice(JSON_TEXT) for _ in range(rng.randint(0, 3))),
            lambda: rng.choice([True, False, None]),
            lambda: rng.choice(JSON_NUMBERS),
            lambda: rng.randint(-10**6, 10**6),
            lambda: rng.random(),
        ])()
    size = rng.randint(0, 4)
    if kind < 0.6:
        return [rand_json(rng, depth - 1) for _ in range(size)]
    if kind < 0.7:
        return tuple(rand_json(rng, depth - 1) for _ in range(size))
    if kind < 0.8:  # a list of dicts, as the reports' "resonant" and "jet"
        return [{"K": [rng.randint(0, 3)], "re": rand_json(rng, 0)} for _ in range(size)]
    return {rng.choice(JSON_TEXT) + str(k): rand_json(rng, depth - 1) for k in range(size)}


def test_json_writer_matches_indented_dumps():
    rng = random.Random(71)
    values = [{}, [], (), [{}], {"a": []}, {"a": {}}, [[], [[]]], ("t", (1,)),
              {"\u00e9\x00": None}, *(rand_json(rng) for _ in range(600))]
    for value in values:
        assert cli._json(value) == json.dumps(value, indent=2), value
    assert {type(v) for v in values} >= {dict, list, tuple, str, bool, int, float, type(None)}


# --- direct subcommand dispatch against the full two-level parse -------------

FLAG_VALUES = {"--field": doc("resonant.vf"), "--field2": doc("diag.vf"),
               "--map": doc("scale.map"), "--lambda": "-1", "--degree": "3",
               "--x-cap": "4", "--x-window": "-5,5", "--tol": "1e-9", "--time": "1/2",
               "--windings": "-2", "--max-residual": "1e-6"}


def dispatch_argvs():
    """Every command with all of its flags, in both spellings and orders,
    with none of them, and with bad or extra arguments; then argvs that do
    not start with a command."""
    for name, (_, keys, _) in cli._COMMANDS.items():
        taken = {"json", *keys.split()}
        flags = [option for key, option, _ in cli._FLAGS if key in taken]
        values = {**FLAG_VALUES, "--mu": "-3" if "mu1" in taken else "1/2,-3"}
        spaced = [[f] if f not in values else [f, values[f]] for f in flags]
        yield [name, *(a for pair in spaced for a in pair)]
        yield [name, *(f if f not in values else f"{f}={values[f]}" for f in reversed(flags))]
        yield [name]
        yield [name, "-h"]
        yield [name, "--json", "extra", "more"]
        yield [name, "--bogus", "--json"]
        yield [name, "--degree", "three"]
    yield from ([], ["frobnicate"], ["--json", "classify2", "--lambda=1"],
                ["classify2", "--lambda=1", "extra"], ["classify2"], ["-h"], ["normalize", "-h"],
                ["classify2", "--lam=1"], ["classify2", "--lambda=--"],
                ["classify2", "--", "--lambda=1"], ["--help"], ["--he"], ["Classify2"])


def parse_outcome(parse, argv):
    """(Namespace or None, its attribute order, SystemExit code or None,
    stdout, stderr) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    args = code = None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            args = parse(list(argv))
        except SystemExit as e:
            code = e.code
    order = list(vars(args)) if args is not None else None
    return args, order, code, out.getvalue(), err.getvalue()


def test_direct_dispatch_parses_as_the_full_parser(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    parsed = exits = 0
    for argv in dispatch_argvs():
        got = parse_outcome(cli._parse, argv)
        assert got == parse_outcome(cli.build_parser().parse_args, argv), argv
        parsed += got[0] is not None
        exits += got[2] is not None
    assert parsed >= 20 and exits >= 40, (parsed, exits)
