"""End-to-end command-line flows, exercised in process through run_cli."""
import argparse
import json
import os
import subprocess
import sys
import textwrap
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import pytest

import eisenlab
from eisenlab.cli import (
    parse_rational,
    parse_torsion,
    report_payload,
    run_cli,
    status_exit,
)
from eisenlab.cyclotomic import Cyclotomic
from eisenlab.eisenstein import EisIndex
from eisenlab.hull import sublattice_points
from eisenlab import quasiforms, ratfunc
from eisenlab.quasiforms import eis_series
from eisenlab.verifiers import TorsionPoint, verify_two_term


# -- argument parsing ------------------------------------------------------


def test_parse_torsion():
    assert parse_torsion("1,2@5") == TorsionPoint(5, 1, 2)
    assert parse_torsion("7,-2@5") == TorsionPoint(5, 2, 3)
    for bad in ("1@5", "1,2", "a,b@5", "1,2@x", ""):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_torsion(bad)


def test_parse_rational():
    assert parse_rational("2/3") == Fraction(2, 3)
    assert parse_rational("-4") == Fraction(-4)
    for bad in ("x", "1/0", "2.5.1"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_rational(bad)


def test_status_exit_map():
    assert status_exit("VERIFIED") == 0
    assert status_exit("INCONCLUSIVE") == 3


def test_usage_errors_exit_one(capsys):
    assert run_cli(["bogus"]) == 1
    assert run_cli([]) == 1
    assert run_cli(["hull", "--sub-level", "5"]) == 1  # missing --shear
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert run_cli(["--help"]) == 0
    assert "symbolic" in capsys.readouterr().out


# -- hull subcommand -------------------------------------------------------


def test_hull_prints_chain(capsys):
    assert run_cli(["hull", "--sub-level", "5", "--shear", "3"]) == 0
    assert capsys.readouterr().out == "[(5,0),(3,1),(1,2),(0,5)]\n"


def test_hull_noncoprime_is_usage_error(capsys):
    assert run_cli(["hull", "--sub-level", "4", "--shear", "2"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_hull_json_out(tmp_path, capsys):
    out = tmp_path / "chain.json"
    assert run_cli(["hull", "--sub-level", "5", "--shear", "3",
                    "--out", str(out)]) == 0
    capsys.readouterr()
    text = out.read_text()
    assert text.endswith("\n")
    assert json.loads(text) == [[5, 0], [3, 1], [1, 2], [0, 5]]


def test_hull_svg_figure(tmp_path, capsys):
    fig = tmp_path / "chain.svg"
    assert run_cli(["hull", "--sub-level", "5", "--shear", "3",
                    "--figure", str(fig)]) == 0
    capsys.readouterr()
    root = ET.fromstring(fig.read_text())
    tags = {}
    for el in root.iter():
        tag = el.tag.rsplit("}", 1)[-1]
        tags.setdefault(tag, []).append(el)
    polylines = tags["polyline"]
    assert len(polylines) == 1
    points = polylines[0].get("points").split()
    assert len(points) == 4  # one vertex per chain member
    circles = tags["circle"]
    assert sum(c.get("fill") == "crimson" for c in circles) == 4
    n_lattice = len(sublattice_points(5, 3))
    assert sum(c.get("fill") == "steelblue" for c in circles) == n_lattice


# -- expand subcommand -----------------------------------------------------


def test_expand_csv_level_one(capsys):
    assert run_cli(["expand", "--weight", "2", "--lam", "0,0@1",
                    "--prec", "8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "level,weight,c1,c2,truncation,Ydepth"
    assert lines[1] == "1,2,0,0,8,1"
    series = eis_series(EisIndex(2, 1, 0, 0), 8).component(0)
    rows = {}
    for line in lines[2:]:
        n_text, value_text = line.split(", ", 1)
        rows[int(n_text)] = Cyclotomic.from_string(value_text)
    assert sorted(rows) == list(series.nonzero_exponents())
    assert rows == series.coeffs
    assert rows[0] == Fraction(-1, 12)
    assert rows[1] == Fraction(2)


def test_expand_out_file_matches_stdout(tmp_path, capsys):
    args = ["expand", "--weight", "1", "--lam", "1,2@5", "--prec", "10"]
    assert run_cli(args) == 0
    streamed = capsys.readouterr().out
    out = tmp_path / "series.csv"
    assert run_cli(args + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == streamed


def test_expand_negative_prec_is_a_usage_error(capsys):
    assert run_cli(["expand", "--weight", "1", "--lam", "1,2@5",
                    "--prec", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: truncation must be >= 0\n"


# -- verification subcommands ----------------------------------------------


def test_two_term_cli(capsys):
    assert run_cli(["two-term", "--lam", "1,0@3", "--mu", "0,1@3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("two_term: VERIFIED")
    assert "level 3" in out


@pytest.mark.parametrize("prec, status, rc", [(9, "INCONCLUSIVE", 3),
                                              (10, "VERIFIED", 0)])
def test_three_term_below_the_proven_truncation(prec, status, rc, capsys):
    # proven_truncation(2, 5) = 10: the exponents 0..9 prove nothing
    assert run_cli(["three-term", "--lam", "1,0@5", "--mu", "0,1@5",
                    "--prec", str(prec)]) == rc
    assert capsys.readouterr().out.startswith(f"three_term_w2: {status}")


def test_level_flag_is_gone(capsys):
    assert run_cli(["two-term", "--lam", "1,0@5", "--mu", "0,1@5",
                    "--level", "5"]) == 1
    assert "--level" in capsys.readouterr().err


def test_three_term_degenerate_exits_three(capsys):
    assert run_cli(["three-term", "--lam", "0,0@5", "--mu", "1,0@5"]) == 3
    assert "INCONCLUSIVE" in capsys.readouterr().out


def test_prop21_weight2_runs_default_samples(capsys):
    rc = run_cli(["prop21", "--weight", "2", "--lam", "1,0@3",
                  "--mu", "0,1@3"])
    assert rc == 0
    # at k = 2 both sides are constant in (p, q): one sample proves all
    assert capsys.readouterr().out == (
        "three_term_w2: VERIFIED  (level 3, truncation 9, defect coefficients"
        " 4, residual entries 0)  at (p, q) = (1, 1)\n")


def test_prop21_default_samples_prove_every_pair(capsys):
    rc = run_cli(["prop21", "--weight", "5", "--lam", "1,0@3",
                  "--mu", "0,1@3"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    # k - 1 = 4 samples, each naming its pair
    assert all(line.startswith("prop21: VERIFIED") for line in lines)
    assert [line.rsplit("  at ", 1)[1] for line in lines] == [
        "(p, q) = (1, 1)", "(p, q) = (2, -1)", "(p, q) = (3, 5)",
        "(p, q) = (1, 2)"]


def test_explicit_pair_line_names_no_pair(capsys):
    rc = run_cli(["prop21", "--weight", "5", "--lam", "1,0@3",
                  "--mu", "0,1@3", "--p", "2", "--q", "-1"])
    assert rc == 0
    assert capsys.readouterr().out == (
        "prop21: VERIFIED  (level 3, truncation 18, defect coefficients 0,"
        " residual entries 0)\n")


def test_prop21_out_needs_explicit_pq(tmp_path, capsys):
    out = tmp_path / "r.json"
    rc = run_cli(["prop21", "--weight", "3", "--lam", "1,0@3",
                  "--mu", "0,1@3", "--out", str(out)])
    assert rc == 1
    assert "--p" in capsys.readouterr().err
    assert not out.exists()


def test_prop21_half_pq_pair_rejected(capsys):
    rc = run_cli(["prop21", "--weight", "3", "--lam", "1,0@3",
                  "--mu", "0,1@3", "--p", "1"])
    assert rc == 1
    assert "both --p and --q" in capsys.readouterr().err


def test_hecke_cli(capsys):
    rc = run_cli(["hecke", "--sub-level", "2", "--shear", "1",
                  "--weight", "2", "--lam", "0,0@1", "--mu", "0,0@1",
                  "--p", "1", "--q", "1"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("hecke_trace: VERIFIED")


def test_symbolic_k16(capsys):
    assert run_cli(["symbolic", "--identity", "K16"]) == 0
    assert capsys.readouterr().out == "K16: PASS (1 instance)\n"


def test_symbolic_k23_weight_sweep(capsys):
    assert run_cli(["symbolic", "--identity", "K23", "--weight", "3"]) == 0
    assert capsys.readouterr().out == "K23: PASS (1 instance)\n"
    assert run_cli(["symbolic", "--identity", "K23"]) == 0
    assert capsys.readouterr().out == "K23: PASS (11 instances)\n"


def test_symbolic_k24_is_one_instance(capsys):
    assert run_cli(["symbolic", "--identity", "K24"]) == 0
    assert capsys.readouterr().out == "K24: PASS (1 instance)\n"


@pytest.mark.parametrize("args", [
    ["--identity", "K23", "--weight", "0"],
    ["--identity", "K34", "--weight", "0", "--sub-level", "5", "--shear", "3"],
])
def test_symbolic_weight_zero_is_rejected(args, capsys):
    assert run_cli(["symbolic"] + args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "needs k >= 2" in captured.err


@pytest.mark.parametrize("args, option", [
    (["--identity", "K32", "--shear", "3"], "--shear"),
    (["--identity", "K16", "--weight", "7"], "--weight"),
    (["--identity", "K24", "--weight", "3"], "--weight"),
    (["--identity", "K32", "--weight", "3", "--sub-level", "5",
      "--shear", "3"], "--weight"),
    (["--identity", "K33", "--weight", "3"], "--weight"),
    (["--identity", "K16", "--sub-level", "5"], "--sub-level"),
    (["--identity", "K23", "--sub-level", "5", "--shear", "3"], "--sub-level"),
    (["--identity", "K24", "--sub-level", "7"], "--sub-level"),
])
def test_symbolic_unread_option_is_a_usage_error(args, option, capsys):
    assert run_cli(["symbolic"] + args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {option} ")


def test_symbolic_fail_prints_the_polynomial_witness(monkeypatch, capsys):
    # det + 1 as the coefficient of B in K33's cleared numerator
    numerator = ratfunc._k33_numerator
    monkeypatch.setattr(ratfunc, "_k33_numerator",
                        lambda a, b, c, d, det: numerator(a, b, c, d, det + 1))
    assert run_cli(["symbolic", "--identity", "K33"]) == 2
    assert capsys.readouterr().out == (
        "K33: FAIL at (a,b,c,d)=(6, -3, -4, 0); witness = B\n")


def test_symbolic_chain_kernel_single(capsys):
    assert run_cli(["symbolic", "--identity", "K32", "--sub-level", "5",
                    "--shear", "3"]) == 0
    assert capsys.readouterr().out == "K32: PASS (1 instance)\n"


# -- report files ----------------------------------------------------------


def test_report_payload_shape():
    report = verify_two_term(TorsionPoint(3, 1, 0), TorsionPoint(3, 0, 1), 3)
    payload = report_payload(report)
    assert list(payload) == ["claim_id", "parameters", "status", "defect",
                             "truncation", "level", "elapsed_ms"]
    assert list(payload["defect"]) == ["coefficients", "certificate",
                                       "residual_nonzero_exponents"]
    assert payload["elapsed_ms"] == 0
    assert payload["status"] == "VERIFIED"
    # a zero-defect payload survives a JSON round trip unchanged
    assert json.loads(json.dumps(payload)) == payload


def test_report_files_byte_identical(tmp_path, capsys):
    args = ["three-term", "--lam", "1,0@5", "--mu", "0,1@5"]
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert payload["claim_id"] == "three_term_w2"
    assert payload["status"] == "VERIFIED"
    assert payload["defect"]["residual_nonzero_exponents"] == []
    coeffs = payload["defect"]["coefficients"]
    assert coeffs
    for entry in coeffs:
        assert entry["weight"] == 2
        value = Cyclotomic.from_string(entry["value"])
        assert value.to_string() == entry["value"]
        assert not value.is_zero()


def test_report_inconclusive_path(tmp_path, capsys):
    out = tmp_path / "r.json"
    rc = run_cli(["three-term", "--lam", "0,0@3", "--mu", "1,0@3",
                  "--out", str(out)])
    assert rc == 3
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert payload["status"] == "INCONCLUSIVE"
    assert payload["defect"]["coefficients"] == []


def _peel_nothing(peel, f, values):
    return []


def _peel_half(peel, f, values):
    return [(idx, scale / 2) for idx, scale in peel(f, values)]


# the two ways a certificate can fail to explain the Y-part: delta terms
# that leave part of the top component, and no delta terms at all
@pytest.mark.parametrize("wrong_peel", [
    pytest.param(_peel_half, id="TopComponentNotEisenstein"),
    pytest.param(_peel_nothing, id="UnsupportedWeight"),
])
def test_certifier_failure_is_inconclusive(wrong_peel, tmp_path, monkeypatch,
                                           capsys):
    # a certificate that does not explain the claim's Y-part leaves it in
    # the residual: INCONCLUSIVE with its Y-exponents listed, not a usage
    # error
    seen = []
    peel = quasiforms.peel

    def patched(f, values):
        cert = wrong_peel(peel, f, values)
        seen.append((f, cert))
        return cert

    monkeypatch.setattr(quasiforms, "peel", patched)
    out = tmp_path / "r.json"
    rc = run_cli(["prop21", "--weight", "3", "--lam", "1,0@3",
                  "--mu", "0,1@3", "--p", "1", "--q", "1", "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err == ""
    ((form, cert),) = seen
    assert bool(cert) == (wrong_peel is _peel_half)
    payload = json.loads(out.read_text())
    assert payload["status"] == "INCONCLUSIVE"
    assert len(payload["defect"]["certificate"]) == len(cert)
    exponents = payload["defect"]["residual_nonzero_exponents"]
    # half the Y-part stays, or all of it: the same Y^1 exponents
    assert form.depth == 1
    assert [e for j, e in exponents if j == 1] == sorted(
        form.components[1].vecs)
    assert form.components[1].vecs
    if not cert:
        assert payload["defect"]["coefficients"] == []
        assert exponents == sorted(
            [j, e] for j, h in enumerate(form.components) for e in h.vecs)


@pytest.mark.parametrize("args", [
    ["hull", "--sub-level", "5", "--shear", "3"],
    ["expand", "--weight", "1", "--lam", "1,2@5", "--prec", "10"],
    ["three-term", "--lam", "1,0@5", "--mu", "0,1@5"],
])
def test_out_into_missing_directory_is_a_write_error(args, tmp_path, capsys):
    out = tmp_path / "missing" / "out.txt"
    assert run_cli(args + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")


# -- imports ---------------------------------------------------------------


def test_exact_paths_do_not_import_mpmath():
    """Only the numeric checks import mpmath: a fresh interpreter that
    loads the CLI, verifies a two-term claim and proves a K34 chain
    never loads it."""
    code = textwrap.dedent("""
        import sys
        import eisenlab, eisenlab.cli
        from eisenlab import (TorsionPoint, check_kernel, hull_chain,
                              verify_two_term)
        report = verify_two_term(TorsionPoint(3, 1, 0), TorsionPoint(3, 0, 1), 3)
        ok, _ = check_kernel("K34", k=3, chain=hull_chain(5, 3))
        print(report.status, ok, "mpmath" in sys.modules)
    """)
    src = str(Path(eisenlab.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["VERIFIED", "True", "False"]


def test_import_loads_no_dataclasses_inspect_or_typing():
    """Importing the package and its CLI loads none of `dataclasses`,
    `inspect` or `typing`, which would add to every process start.  The
    interpreter runs with -S, since site files may preload `typing`."""
    code = textwrap.dedent("""
        import sys
        import eisenlab, eisenlab.cli
        print(*sorted({"dataclasses", "inspect", "typing"} & set(sys.modules)))
    """)
    src = str(Path(eisenlab.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-S", "-c", code],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == []
