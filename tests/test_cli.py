"""Golden-file tests: every command, byte-exact output, exit codes.

Regenerate with CROSSFIELD_REGEN=1 after an intentional format change and
review the diff; the mathematical values inside are pinned independently by
the module tests.
"""

import os
import time
from pathlib import Path

import pytest

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
]


@pytest.mark.parametrize("name,argv,code,check_err", CASES, ids=[c[0] for c in CASES])
def test_golden(name, argv, code, check_err, capsys):
    rc = main(argv)
    out, err = capsys.readouterr()
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
    assert "does not match" in err


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
])
def test_flags_at_the_bound_run(argv, capsys):
    assert main(argv + ["--json"]) == 0
    capsys.readouterr()
