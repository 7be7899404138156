import argparse
import contextlib
import functools
import io
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zonalpd
from conftest import exact_fraction, riesz_chordal_exact
from zonalpd import __version__, cli, transform
from zonalpd.cli import _KERNEL_HELP, main
from zonalpd.energy import energy_uniform_detail
from zonalpd.kernels import FAMILIES, parse_kernel
from zonalpd.spaces import make_rng, make_space, sample_uniform_points, save_points
from zonalpd.transform import CoefficientReport, poisson_kernel


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_coeffs_chordal_sphere(capsys):
    code, out, err = run(
        capsys, "coeffs", "--space", "S2", "--kernel", "riesz-chordal:s=1",
        "--nmax", "8", "--digits", "25",
    )
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["version"] == __version__
    assert doc["config"]["command"] == "coeffs"
    assert doc["config"]["digits"] == 25
    assert "out" not in doc["config"]
    assert len(doc["entries"]) == 9
    for e in doc["entries"]:
        assert float(e["value"]) == pytest.approx(2.0, abs=1e-10)
        assert e["sign"] == "+"


def test_coeffs_log_rp2_all_positive(capsys):
    code, out, _ = run(
        capsys, "coeffs", "--space", "RP2", "--kernel", "log-geodesic",
        "--nmax", "32", "--format", "csv", "--verify",
    )
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    assert lines[0] == "n,value,error,m_n,lambda_n,sign"
    assert len(lines) == 34
    assert all(ln.rsplit(",", 1)[1] == "+" for ln in lines[1:])


def test_polynomial_kernel_below_degree_is_certified(capsys):
    """A coefficient of a polynomial kernel at n <= deg is computed, not
    assumed: ((1+t)/2)^200 on S2 has a_0 = 1/201 and a_1 = 300/20301, both
    positive, and their first quadrature values sit inside large errors."""
    code, out, _ = run(
        capsys, "coeffs", "--space", "S2", "--kernel", "cospow:n=200",
        "--nmax", "1", "--digits", "15",
    )
    assert code == 0
    entries = json.loads(out)["entries"]
    assert [e["sign"] for e in entries] == ["+", "+"]
    for e, exact in zip(entries, (mp.mpf(1) / 201, mp.mpf(300) / 20301)):
        assert abs(mp.mpf(e["value"]) - exact) <= mp.mpf(e["error"])


def test_huge_power_takes_the_quadrature_route(capsys):
    """cospow of degree 10^17 is certified by quadrature, as ever: the exact
    route refuses it by its degree, without expanding ((1+t)/2)^n."""
    code, out, _ = run(
        capsys, "coeffs", "--space", "S2", "--kernel", "cospow:n=100000000000000000",
        "--nmax", "2", "--digits", "15", "--verify",
    )
    assert code == 2 and json.loads(out)["method"] == "both"


def test_coeffs_rejects_non_integrable(capsys):
    code, out, err = run(
        capsys, "coeffs", "--space", "S2", "--kernel", "riesz-geodesic:s=2.5",
    )
    assert code == 1 and out == ""
    assert "zonalpd: error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("coeffs", "--space", "QP2", "--kernel", "log-geodesic"),
        ("coeffs", "--space", "S2", "--kernel", "riesz:s=1"),
        ("coeffs", "--space", "custom:alpha=1", "--kernel", "log-geodesic"),
        ("scan", "--space", "RP2", "--kernel", "gauss-chordal:lambda=1",
         "--s-min", "0", "--s-max", "1", "--step", "0.5"),
        ("energy", "--space", "S2", "--kernel", "log-chordal",
         "--points", "/nonexistent/pts.txt"),
    ],
)
def test_usage_errors_exit_1(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert "zonalpd: error" in err


def test_classify_cp3_log(capsys):
    code, out, _ = run(
        capsys, "classify", "--space", "CP3", "--kernel", "log-geodesic",
        "--nmax", "8", "--digits", "40",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"]["classification"] == "not-CPD"
    assert doc["verdict"]["witness"] == 6
    assert doc["verdict"]["mode"] == "cpd"
    assert "n <= 8" in doc["verdict"]["caveat"]


def test_classify_pd_undecided_exit_2(capsys):
    # the constant term is exactly 2 - 2 = 0; no finite precision can sign it
    code, out, _ = run(
        capsys, "classify", "--space", "S2",
        "--kernel", "lincomb(1*riesz-chordal:s=1+-2*cospow:n=0)",
        "--nmax", "4", "--mode", "pd", "--digits", "25",
    )
    assert code == 2
    doc = json.loads(out)
    assert doc["verdict"]["classification"] == "undecided"
    assert doc["verdict"]["witness"] == 0


def test_classify_cpd_ignores_undecided_constant(capsys):
    code, out, _ = run(
        capsys, "classify", "--space", "S2",
        "--kernel", "lincomb(1*riesz-chordal:s=1+-2*cospow:n=0)",
        "--nmax", "4", "--mode", "cpd", "--digits", "25",
    )
    assert code == 0
    assert json.loads(out)["verdict"]["classification"] == "strictly-CPD-only"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_classify_negative_outranks_undecided_degrees(capsys, fmt):
    """a_5 = -1 is certified negative while the exact zeros below degree 4
    are undecided: one negative coefficient decides not-CPD, exit 0."""
    code, out, err = run(
        capsys, "classify", "--space", "CP2", "--kernel", "lincomb(1*jacobi:n=4+-1*jacobi:n=5)",
        "--nmax", "6", "--digits", "15", "--format", fmt, "--verify",
    )
    assert (code, err) == (0, "")
    if fmt == "json":
        verdict = json.loads(out)["verdict"]
        assert (verdict["classification"], verdict["witness"]) == ("not-CPD", 5)
    else:
        assert out.splitlines()[-1] == "not-CPD,5,6,cpd"


def test_scan_refuses_a_step_below_the_grid_resolution(monkeypatch, capsys):
    """Grid points are rounded to 12 decimals; a step that leaves them
    repeated is refused by name before any certification."""
    from zonalpd import posdef

    def certify(*args, **kwargs):
        raise AssertionError("a certification ran")

    monkeypatch.setattr(posdef, "certify_coefficients", certify)
    code, out, err = run(
        capsys, "scan", "--space", "S2", "--kernel", "riesz-chordal", "--s-min", "0.5",
        "--s-max", "0.5000000000002", "--step", "4e-14", "--nmax", "1", "--digits", "5",
    )
    assert (code, out) == (1, "")
    assert err.startswith("zonalpd: error: step=4e-14 ")


def test_scan_refuses_a_grid_above_the_cap(monkeypatch, capsys):
    """`--step 1e-9` on [0, 1] asks for about 1e9 grid points: the count is
    refused against `posdef.SCAN_MAX_POINTS` before the grid is built and
    before any point is certified."""
    from zonalpd import posdef

    def certify(*args, **kwargs):
        raise AssertionError("a certification ran")

    monkeypatch.setattr(posdef, "_certify_cpd", certify)
    code, out, err = run(capsys, "scan", "--space", "RP2", "--kernel", "riesz-geodesic",
                         "--s-min", "0", "--s-max", "1", "--step", "1e-9")
    assert (code, out) == (1, "")
    assert err.startswith("zonalpd: error: the grid has 1e+09 points") and err.count("\n") == 1


def test_scan_csv_shape(capsys):
    code, out, _ = run(
        capsys, "scan", "--space", "S2", "--kernel", "riesz-geodesic",
        "--s-min", "-1", "--s-max", "0", "--step", "0.5",
        "--nmax", "12", "--digits", "25", "--format", "csv", "--verify",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# version=")
    data = [ln for ln in lines if ln and not ln.startswith("#")]
    assert data[0] == "s,verdict,first_negative_n"
    assert len(data) == 4
    assert any(ln.startswith("# transition=") for ln in lines)


def test_scan_json(capsys):
    code, out, _ = run(
        capsys, "scan", "--space", "RP2", "--kernel", "riesz-geodesic",
        "--s-min", "-0.9", "--s-max", "-0.3", "--step", "0.3",
        "--nmax", "24", "--digits", "25", "--bisect", "0.1",
    )
    assert code == 0
    doc = json.loads(out)
    assert [g["verdict"]["classification"] for g in doc["grid"]] == [
        "not-CPD", "strictly-CPD-only", "strictly-CPD-only",
    ]
    assert doc["transition"]["estimate"] == pytest.approx(-0.675)
    assert doc["transition"]["bracket"][1] == pytest.approx(-0.6)


def test_table1_small(capsys):
    code, out, _ = run(
        capsys, "table1", "--nmax", "10", "--digits", "40", "--format", "csv",
    )
    assert code == 0
    data = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    assert data[0] == "space,alpha,beta,first_negative_n,verdict"
    rows = {ln.split(",")[0]: ln for ln in data[1:]}
    assert rows["RP4"].endswith("8,not-CPD")
    assert rows["CP3"].endswith("6,not-CPD")
    assert rows["HP2"].endswith("10,not-CPD")
    assert rows["RP2"].endswith(",consistent-with-PD")


def test_energy_uniform_cli(capsys):
    code, out, _ = run(
        capsys, "energy", "--space", "S2", "--kernel", "riesz-chordal:s=1",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "quadrature"
    assert doc["energy"] == pytest.approx(2.0, abs=1e-10)
    assert doc["stderr"] == 0.0
    assert abs(doc["quadrature_value"] - 2.0) <= 1e-10


@pytest.mark.parametrize("space,kernel,digits", [
    ("CP2", "riesz-chordal:s=1", "20"), ("S2", "riesz-chordal:s=1", "30"),
    ("RP3", "log-geodesic", "25"),
])
def test_energy_uniform_intervals_hold_their_values(capsys, space, kernel, digits):
    """The printed energy and quadrature value, each +- its printed error,
    contain the mpf values they round, on exact Fractions: the error covers
    the float rounding of its value too."""
    code, out, _ = run(capsys, "energy", "--space", space, "--kernel", kernel,
                       "--digits", digits)
    assert code == 0
    doc = json.loads(out)
    sp = make_space(space)
    value, _, qv, _ = energy_uniform_detail(sp, parse_kernel(kernel, sp), int(digits))
    for key, error, exact in (("energy", "expansion_error", value),
                              ("quadrature_value", "quadrature_error", qv)):
        assert abs(Fraction(doc[key]) - exact_fraction(exact)) <= Fraction(doc[error]), key


def test_energy_discrete_cli(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    rows = ["# space=RP2 field=R d=3"]
    for k in range(4):
        a = k * math.pi / 4
        rows.append(f"{math.cos(a)},{math.sin(a)},0.0")
    pts.write_text("\n".join(rows) + "\n")
    wts = tmp_path / "w.txt"
    wts.write_text("0.25\n-0.25\n0.25\n-0.25\n")
    code, out, _ = run(
        capsys, "energy", "--space", "RP2", "--kernel", "riesz-geodesic:s=-2",
        "--points", str(pts), "--weights", str(wts),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "closed-form"
    assert doc["points"] == 4
    assert doc["energy"] == pytest.approx(-math.pi**2 / 32, rel=1e-12)


def test_energy_perturbed_cli(capsys):
    code, out, _ = run(
        capsys, "energy", "--space", "S2", "--kernel", "jacobi:n=1",
        "--perturb", "n=1,eps=0.1", "--samples", "50000", "--seed", "3",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "mc"
    assert doc["closed_form"] == pytest.approx(1 / 900, rel=1e-12)
    assert abs(doc["energy"] - doc["closed_form"]) <= 4 * doc["stderr"]
    assert doc["samples"] == 50000


def test_energy_flag_conflicts(tmp_path, capsys):
    pts = tmp_path / "p.txt"
    pts.write_text("# space=S2 field=R d=3\n0,0,1\n")
    code, _, err = run(
        capsys, "energy", "--space", "S2", "--kernel", "log-chordal",
        "--points", str(pts), "--perturb", "n=1,eps=0.1",
    )
    assert code == 1
    assert "mutually exclusive" in err


def test_poisson_cli(capsys):
    code, out, _ = run(
        capsys, "poisson", "--space", "CP2", "--r", "0.5", "--theta", "0.7",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["diff"] <= 1e-10
    want = poisson_kernel(make_space("CP2"), 0.5, 0.7)
    assert doc["value"] == pytest.approx(want, rel=1e-12)

    code, out, _ = run(capsys, "poisson", "--space", "S2", "--r", "0", "--theta", "1.0")
    assert code == 0
    assert json.loads(out)["value"] == 1.0

    code, _, err = run(capsys, "poisson", "--space", "S2", "--r", "1.5", "--theta", "1.0")
    assert code == 1 and "r must lie" in err
    code, _, err = run(capsys, "poisson", "--space", "RP2", "--r", "0.5", "--theta", "3.0")
    assert code == 1 and "theta" in err


def test_runtime_error_exits_1(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError("hypergeometric series did not converge")

    monkeypatch.setattr("zonalpd.transform.poisson_kernel", fail)
    code, out, err = run(capsys, "poisson", "--space", "RP2", "--r", "0.5", "--theta", "0")
    assert code == 1 and out == ""
    assert "zonalpd: error" in err
    assert "Traceback" not in err


def test_poisson_near_r_one_prints_closed_form(capsys):
    """Near r = 1 the series cannot converge within its cap: the closed form
    is printed with the series marked unavailable, and the exit code is 0."""
    argv = ["poisson", "--space", "RP2", "--r", "0.9999999", "--theta", "0", "--verify"]
    r = 0.9999999
    want = (1 + 3 * r) / (1 - r) ** 2
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["value"] == doc["closed"] == pytest.approx(want, rel=1e-9)
    assert doc["series"] is None and doc["diff"] is None
    assert doc["note"].startswith("series unavailable: Poisson series did not converge")
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert code == 0 and err == ""
    lines = out.splitlines()
    row = lines[lines.index("value,closed,series,diff") + 1].split(",")
    assert float(row[0]) == float(row[1]) == doc["value"] and row[2:] == ["", ""]
    assert lines[-1] == f"# note={doc['note']}"


@pytest.mark.parametrize("r, space", [
    pytest.param("0.9999999", "RP2", id="0.9999999"),
    pytest.param(repr(1 - 2.0**-53), "RP2", id=repr(1 - 2.0**-53)),
    # beta < -1/2 <= alpha: |P_n| <= P_n(1) still holds (Szego, Thm 7.32.1)
    ("0.9999999", "custom:alpha=1,beta=-0.9"),
])
def test_poisson_near_r_one_refuses_the_series_at_once(capsys, r, space):
    """At 5 digits the series cannot converge within its cap: the pre-scan
    says so before summing, well under the 18-31 s a full sum takes."""
    start = time.perf_counter()
    code, out, err = run(capsys, "poisson", "--space", space, "--r", r, "--theta", "0",
                         "--digits", "5")
    assert time.perf_counter() - start < 3
    assert code == 0 and err == ""
    assert json.loads(out)["note"].startswith("series unavailable: Poisson series did not")


def test_subnormal_riesz_chordal_exponent_is_no_polynomial(capsys):
    """-chi^(5e-324) is no polynomial: no n >= 1 coefficient is an exact 0,
    and the table passes --verify."""
    for fmt in ("json", "csv"):
        code, out, err = run(capsys, "coeffs", "--space", "S2", "--kernel",
                             "riesz-chordal:s=-5e-324", "--nmax", "2", "--digits", "15",
                             "--format", fmt, "--verify")
        assert code in (0, 2) and err == "", err
        if fmt == "json":
            assert [e["sign"] for e in json.loads(out)["entries"][1:]].count("0") == 0
        else:
            assert [ln.rsplit(",", 1)[1] for ln in out.splitlines()[-2:]].count("0") == 0


def test_printed_intervals_contain_closed_form(capsys):
    """The printed value +- error holds the exact coefficient, in both formats."""
    argv = ["coeffs", "--space", "CP2", "--kernel", "riesz-chordal:s=1",
            "--nmax", "8", "--digits", "30"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    printed = [(e["n"], e["value"], e["error"]) for e in json.loads(out)["entries"]]
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    rows = [ln.split(",") for ln in out.splitlines() if ln and not ln.startswith(("#", "n,"))]
    assert [(int(r[0]), r[1], r[2]) for r in rows] == printed
    with mp.workdps(60):
        for n, value, error in printed:
            exact = riesz_chordal_exact(make_space("CP2"), 1.0, n)
            assert abs(mp.mpf(value) - exact) <= mp.mpf(error), n


def test_verify_flag_all_formats(capsys):
    for fmt in ("json", "csv"):
        code, _, err = run(
            capsys, "classify", "--space", "S2", "--kernel", "gauss-chordal:lambda=1",
            "--nmax", "4", "--format", fmt, "--verify",
        )
        assert code == 0 and err == ""


def _corrupt_m4(doc):
    doc["entries"][4]["m_n"] = 999.0


def _corrupt_lambda4(doc):
    doc["entries"][4]["lambda_n"] = -5


def _swap_entries(doc):
    entries = doc["entries"]
    entries[2], entries[3] = entries[3], entries[2]


def _drop_last_entry(doc):
    doc["entries"].pop()


def _renumber_entry(doc):
    doc["entries"][3]["n"] = 4


def _fractional_n_max(doc):
    doc["N"] = 6.5


def _unknown_sign(doc):
    doc["entries"][2]["sign"] = "positive"


def _minus_on_positive(doc):
    # entry 2 is printed as a positive interval
    doc["entries"][2]["sign"] = "-"


def _wide_error_under_plus(doc):
    # the interval now contains 0, but the sign stays `+`
    doc["entries"][3]["error"] = "1e+5"


def _unknown_method(doc):
    doc["method"] = "anything"


def _de_method_for_power_kernel(doc):
    # riesz-geodesic is certified by both routes
    doc["method"] = "de"


def _unknown_levels_key(doc):
    doc["levels"]["rung"] = 1


def _float_level(doc):
    doc["levels"]["de_level"] = 6.0


def _text_level(doc):
    doc["levels"]["gj_nodes"] = str(doc["levels"]["gj_nodes"])


def _digits_off_the_ladder(doc):
    # the config asks for 20 digits: the rungs are 20, 40 and 60
    doc["levels"]["digits"] = 30


def _unknown_kernel(doc):
    doc["kernel"] = "no-such-kernel"


def _kernel_without_its_argument(doc):
    doc["kernel"] = "riesz-geodesic"


@pytest.mark.parametrize("command", ("coeffs", "classify"))
@pytest.mark.parametrize("corrupt", (_corrupt_m4, _corrupt_lambda4, _swap_entries,
                                     _drop_last_entry, _renumber_entry, _fractional_n_max,
                                     _unknown_sign, _minus_on_positive,
                                     _wide_error_under_plus, _unknown_method,
                                     _de_method_for_power_kernel, _unknown_levels_key,
                                     _float_level, _text_level, _digits_off_the_ladder,
                                     _unknown_kernel, _kernel_without_its_argument))
def test_verify_refuses_wrong_m_n_lambda_n_or_order(monkeypatch, capsys, command, corrupt):
    """`--verify` compares n, m_n and lambda_n with the values for (space,
    n) as printed, wants n = 0..N in order, a known sign and a sign that
    agrees with its printed interval, a known method and levels, the route
    and precision rung the kernel and the config give, and a kernel that
    parses on the space: a report whose rendering is corrupted exits 1, and
    the same document passes once left intact."""
    argv = [command, "--space", "RP2", "--kernel", "riesz-geodesic:s=-0.6",
            "--nmax", "6", "--digits", "20"]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and cli._verify_output(command, "json", out) is None
    doc = json.loads(out)
    corrupt(doc)
    assert cli._verify_output(command, "json", json.dumps(doc)) is not None

    render = transform.CoefficientReport.to_json_dict

    def corrupted(report):
        payload = render(report)
        corrupt(payload)
        return payload

    monkeypatch.setattr(transform.CoefficientReport, "to_json_dict", corrupted)
    code, out, err = run(capsys, *argv, "--verify")
    assert code == 1 and out == "" and "verification failed" in err


@pytest.mark.parametrize("method", ("both", "gj"))
def test_verify_refuses_a_log_kernel_off_the_de_route(monkeypatch, capsys, method):
    """A log kernel is certified by DE alone, so its report says `de`."""
    argv = ["coeffs", "--space", "RP2", "--kernel", "log-geodesic", "--nmax", "4",
            "--digits", "15", "--verify"]
    assert run(capsys, *argv)[0] == 0
    render = transform.CoefficientReport.to_json_dict

    def corrupted(report):
        return {**render(report), "method": method}

    monkeypatch.setattr(transform.CoefficientReport, "to_json_dict", corrupted)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and "verification failed" in err


@pytest.mark.parametrize("argv,method", [
    (["coeffs", "--space", "HP2", "--kernel", "riesz-chordal:s=0.7"], "both"),
    (["coeffs", "--space", "RP2", "--kernel", "riesz-geodesic:s=-0.6"], "exact"),
    (["coeffs", "--space", "S2", "--kernel", "cospow:n=40"], "exact"),
], ids=["chordal-as-both", "geodesic-as-exact", "cancelling-power-as-exact"])
def test_verify_refuses_a_method_off_the_kernels_route(monkeypatch, capsys, argv, method):
    """A kernel that `coefficients_exact` covers is reported `exact`, and no
    other kernel is: not a geodesic one, nor a power whose expansion in
    x = (1-t)/2 would cancel more than a rung's guard digits.  The relabelled
    report keeps only the `levels` keys its new method writes, so the reader
    takes it and the route check refuses it."""
    argv = argv + ["--nmax", "4", "--digits", "15", "--verify"]
    assert run(capsys, *argv)[0] == 0
    render = transform.CoefficientReport.to_json_dict

    def relabelled(report):
        doc = render(report)
        levels = {k: v for k, v in doc["levels"].items() if k in transform._LEVELS[method]}
        return {**doc, "method": method, "levels": levels}

    monkeypatch.setattr(transform.CoefficientReport, "to_json_dict", relabelled)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and "is not the route of kernel" in err


@pytest.mark.parametrize("row", ["strictly-PD,,6,pd", "not-CPD,5,7,cpd", "not-CPD,,6,cpd",
                                 "not-CPD,0,6,cpd", "not-CPD,7,6,cpd", "undecided,x,6,cpd",
                                 "maybe,,6,cpd"])
def test_verify_reads_a_classify_csv_row_against_its_config(monkeypatch, capsys, row):
    """The classify CSV prints no signs, so `--verify` checks its row
    against the config: the mode, N_checked = --nmax, a witness that is an
    index 0..N, and one in 1..N on a not-CPD verdict."""
    argv = ["classify", "--space", "CP2", "--kernel", "lincomb(1*jacobi:n=4+-1*jacobi:n=5)",
            "--nmax", "6", "--digits", "20", "--format", "csv", "--verify"]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.splitlines()[-1] == "not-CPD,5,6,cpd"
    render = cli._render

    def edited(*args):
        return render(*args).replace("not-CPD,5,6,cpd", row)

    monkeypatch.setattr(cli, "_render", edited)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "") and "verification failed" in err, row


def test_verify_reads_a_classify_json_verdict_in_the_configs_mode(capsys):
    """The printed verdict is recomputed in the mode of `--mode`: a cpd run
    whose verdict is replaced by the pd verdict of the same signs exits 1."""
    from zonalpd.posdef import classify

    code, out, _ = run(capsys, "classify", "--space", "CP2", "--kernel", "riesz-chordal:s=0.5",
                       "--nmax", "4", "--digits", "15", "--mode", "cpd")
    assert code == 0 and cli._verify_output("classify", "json", out) is None
    doc = json.loads(out)
    doc["verdict"] = classify(CoefficientReport.from_json_dict(doc), mode="pd").to_json_dict()
    assert doc["verdict"]["classification"] == "strictly-PD"
    assert cli._verify_output("classify", "json", json.dumps(doc)) is not None


def _append_entry(doc):
    doc["entries"].append({"n": 9, "value": "1", "error": "1", "m_n": 1, "lambda_n": 1,
                           "sign": "+"})


@pytest.mark.parametrize("corrupt", (_corrupt_m4, _corrupt_lambda4, _swap_entries,
                                     _drop_last_entry, _append_entry, _unknown_sign,
                                     _minus_on_positive, _wide_error_under_plus))
def test_verify_refuses_wrong_coeffs_csv_rows(monkeypatch, capsys, corrupt):
    """The CSV rows of `coeffs` get the checks of the JSON report: n over
    0..N in order, N and the space read from the config line, the printed
    m_n and lambda_n of (space, n), and a known sign that agrees with its
    printed interval."""
    argv = ["coeffs", "--space", "RP2", "--kernel", "riesz-geodesic:s=-0.6",
            "--nmax", "6", "--digits", "20", "--format", "csv", "--verify"]
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    render = transform.CoefficientReport.to_json_dict

    def corrupted(report):
        payload = render(report)
        corrupt(payload)
        return payload

    monkeypatch.setattr(transform.CoefficientReport, "to_json_dict", corrupted)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and "verification failed" in err


def test_verify_reads_space_and_nmax_from_csv_config(capsys):
    argv = ["coeffs", "--space", "CP2", "--kernel", "cospow:n=2", "--nmax", "4",
            "--digits", "20", "--format", "csv"]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and cli._verify_output("coeffs", "csv", out) is None
    # the same rows under another space or N no longer match
    for edit in (("space=CP2", "space=HP2"), ("nmax=4", "nmax=5"), ("nmax=4", f"nmax={10**12}"),
                 ("kernel=cospow:n=2", "kernel=no-such-kernel")):
        assert cli._verify_output("coeffs", "csv", out.replace(*edit)) is not None
    config = next(ln for ln in out.splitlines() if ln.startswith("# config: "))
    assert cli._verify_output("coeffs", "csv", out.replace(config + "\n", "")) is not None


@pytest.mark.parametrize("space, kernel", [
    ("custom:alpha=1, beta=0", "cospow:n=1"),
    ("S2", "lincomb(1*cospow:n=1 + 1*cospow:n=2)"),
])
def test_verify_reads_csv_config_values_with_spaces(capsys, space, kernel):
    """The config line quotes nothing: a custom space or a lincomb kernel
    with spaces is read back whole, as in JSON."""
    argv = ["coeffs", "--space", space, "--kernel", kernel, "--nmax", "2", "--digits", "15",
            "--verify"]
    for fmt in ("json", "csv"):
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert code == 0 and err == "", (fmt, err)


_QUARTERS = st.integers(-12, 3).map(lambda k: k / 4)
_READ_BACK_KERNELS = st.one_of(
    st.builds("riesz-chordal:s={}".format, _QUARTERS),
    st.builds("riesz-geodesic:s={}".format, _QUARTERS),
    st.builds("gauss-chordal:lambda={}".format, st.integers(1, 12).map(lambda k: k / 4)),
    st.builds("cospow:n={}".format, st.integers(0, 4)),
)


@settings(max_examples=40, deadline=None)
@given(space=st.sampled_from(["S1", "S2", "S3", "RP2", "RP3", "CP2", "CP3", "HP2", "OP2"]),
       kernel=_READ_BACK_KERNELS, nmax=st.integers(0, 6), digits=st.integers(15, 20))
def test_verify_reads_back_both_renderings(space, kernel, nmax, digits):
    """Both renderings of a certified table pass the reader, and every read
    interval contains its printed value."""
    args = cli._build_parser().parse_args(["coeffs", "--space", space, "--kernel", kernel,
                                           "--nmax", str(nmax), "--digits", str(digits)])
    payload, rows, _ = cli._cmd_coeffs(args)
    for fmt in ("csv", "json"):
        args.format = fmt
        text = cli._render(args, payload, rows)
        assert cli._verify_output("coeffs", fmt, text) is None, (fmt, text)
    doc = json.loads(text)
    back = CoefficientReport.from_json_dict(doc)
    with mp.workdps(200):
        for e, b in zip(doc["entries"], back.entries):
            assert abs(b.value - mp.mpf(e["value"])) <= b.error, e


_HP2_CHORDAL = ["coeffs", "--space", "HP2", "--kernel", "riesz-chordal:s=0.7", "--nmax", "3",
                "--digits", "20"]


def _kernel_swapped(doc):
    doc["kernel"] = "riesz-chordal:s=0.8"


def _kernel_rewritten(doc):
    # the same kernel, but not in the form of the descriptor writer
    doc["kernel"] = "riesz-chordal:s=0.70"


def _truncated(doc):
    doc["N"] = 2
    doc["entries"].pop()


def _config_space_edited(doc):
    doc["config"]["space"] = "CP2"


@pytest.mark.parametrize("corrupt", (_kernel_swapped, _kernel_rewritten, _truncated,
                                     _config_space_edited))
def test_verify_ties_a_json_report_to_its_config(monkeypatch, capsys, corrupt):
    """In JSON the report's space, N and kernel are those of its config, the
    kernel as the descriptor writer prints it: each edit exits 1."""
    code, out, _ = run(capsys, *_HP2_CHORDAL, "--verify")
    assert code == 0
    doc = json.loads(out)
    corrupt(doc)
    assert cli._verify_output("coeffs", "json", json.dumps(doc)) is not None

    render = cli._render

    def corrupted(args, payload, rows):
        doc = json.loads(render(args, payload, rows))
        corrupt(doc)
        return json.dumps(doc)

    monkeypatch.setattr(cli, "_render", corrupted)
    code, out, err = run(capsys, *_HP2_CHORDAL, "--verify")
    assert code == 1 and out == "" and "verification failed" in err


def test_verify_reads_a_non_canonical_config_kernel(capsys):
    """A kernel typed unlike the descriptor writer still verifies: the report
    prints the writer's form, the config what was typed."""
    for fmt in ("csv", "json"):
        code, out, err = run(capsys, "classify", "--space", "HP2", "--kernel",
                             "riesz-chordal:s=0.70", "--nmax", "3", "--digits", "20",
                             "--format", fmt, "--verify")
        assert code == 0 and err == "", (fmt, err)
    doc = json.loads(out)
    assert (doc["kernel"], doc["config"]["kernel"]) == ("riesz-chordal:s=0.7",
                                                        "riesz-chordal:s=0.70")


def _zero_below_degree(doc):
    # cospow:n=2 has degree 2: its n = 1 coefficient is certified positive
    assert doc["entries"][1]["sign"] == "+"
    doc["entries"][1]["sign"] = "0"


def _plus_above_degree(doc):
    # a positive interval, but n = 3 is above the degree of cospow:n=2
    assert doc["entries"][3]["sign"] == "0"
    doc["entries"][3].update(value="1", error="0.5", sign="+")


def _parity_zero_off_alpha_beta(doc):
    # RP2 has alpha != beta: no parity zeros, so a value inside its error is
    # undecided, not 0
    doc["entries"][2].update(value="8.9e-31", error="1e-26", sign="0")


@pytest.mark.parametrize("fmt", ("json", "csv"))
@pytest.mark.parametrize("kernel, corrupt", [
    ("cospow:n=2", _zero_below_degree),
    ("cospow:n=2", _plus_above_degree),
    ("riesz-geodesic:s=-1", _parity_zero_off_alpha_beta),
], ids=["zero-below-degree", "plus-above-degree", "parity-zero-on-RP2"])
def test_verify_rederives_every_sign(monkeypatch, capsys, fmt, kernel, corrupt):
    """Every printed sign, 0 included, is the one `_sign_for` gives the printed
    value and error for the kernel's degree and parity on the space."""
    space = "RP2" if kernel.startswith("riesz") else "CP2"
    argv = ["coeffs", "--space", space, "--kernel", kernel, "--nmax", "4", "--digits", "20",
            "--format", fmt, "--verify"]
    assert run(capsys, *argv)[0] == 0
    render = transform.CoefficientReport.to_json_dict

    def corrupted(report):
        payload = render(report)
        corrupt(payload)
        return payload

    monkeypatch.setattr(transform.CoefficientReport, "to_json_dict", corrupted)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and "verification failed" in err


def test_verify_keeps_parity_zeros_where_alpha_equals_beta(capsys):
    code, out, err = run(capsys, "coeffs", "--space", "S2", "--kernel", "riesz-geodesic:s=-1",
                         "--nmax", "4", "--digits", "20", "--verify")
    assert code == 0 and err == ""
    assert [e["sign"] for e in json.loads(out)["entries"]] == ["-", "+", "0", "+", "0"]


def test_verify_refuses_a_verdict_its_signs_do_not_give(monkeypatch, capsys):
    argv = ["classify", "--space", "RP2", "--kernel", "riesz-geodesic:s=-0.6",
            "--nmax", "6", "--digits", "20"]
    code, out, _ = run(capsys, *argv)
    doc = json.loads(out)
    assert code == 0 and doc["verdict"]["classification"] == "strictly-CPD-only"
    doc["verdict"]["classification"] = "strictly-PD"
    assert cli._verify_output("classify", "json", json.dumps(doc)) is not None

    render = cli._render

    def corrupted(args, payload, rows):
        payload["verdict"]["classification"] = "strictly-PD"
        return render(args, payload, rows)

    monkeypatch.setattr(cli, "_render", corrupted)
    code, out, err = run(capsys, *argv, "--verify")
    assert code == 1 and out == "" and "verification failed" in err


_SCAN_JOB = ("scan", "--space", "RP2", "--kernel", "riesz-geodesic", "--s-min", "-0.7",
             "--s-max", "-0.5", "--step", "0.1", "--nmax", "4", "--digits", "20")
_TABLE1_JOB = ("table1", "--nmax", "4", "--digits", "20")


@functools.lru_cache(maxsize=None)
def _printed(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


def _edit(path, value):
    """Set the entry of a JSON document at a path of keys and indices."""
    def corrupt(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return corrupt


def _edits(*edits):
    def corrupt(doc):
        for edit in edits:
            edit(doc)
    return corrupt


# the golden scan: not-CPD at s = -0.7 (witness 4), nonnegative at -0.6 and
# -0.5, bracket (-0.7, -0.6875) within bisect_tol 0.02, empty note
_SCAN_CORRUPTIONS = {
    "s-repeated": (_edit(("grid", 1, "s"), -0.7), "do not increase"),
    "pd-verdict": (_edit(("grid", 0, "verdict", "mode"), "pd"), "not a cpd verdict"),
    "N-checked": (_edit(("grid", 2, "verdict", "N_checked"), 3), "not a cpd verdict"),
    "not-the-witness": (_edit(("grid", 0, "first_negative_n"), 3), "first_negative_n"),
    "negative-n-on-cpd": (_edit(("grid", 1, "first_negative_n"), 2), "first_negative_n"),
    "estimate-off-bracket": (_edit(("transition", "estimate"), -0.69), "the bracket"),
    "bracket-below-last-not-cpd": (
        _edits(_edit(("transition", "bracket"), [-0.75, -0.6875]),
               _edit(("transition", "estimate"), -0.75)), "the bracket"),
    "empty-bracket": (_edit(("transition", "bracket"), [-0.7, -0.7]), "the bracket"),
    "bracket-past-nonnegative-s": (
        _edits(_edit(("transition", "bracket"), [-0.7, -0.55]),
               _edit(("transition", "note"), "bisection stopped")), "the bracket"),
    "wide-bracket-without-note": (_edit(("transition", "bisect_tol"), 0.01), "without a note"),
    "no-bracket-without-note": (_edit(("transition", "bracket"), None), "without a note"),
    # each value the config gives, edited alone (N with every N_checked)
    "config-space": (_edit(("space",), "CP2"), "its config gives"),
    "config-metric": (_edit(("metric",), "chordal"), "its config gives"),
    "config-N": (_edits(_edit(("N",), 5),
                        *(_edit(("grid", i, "verdict", "N_checked"), 5) for i in range(3))),
                 "its config gives"),
    "config-digits": (_edit(("digits",), 25), "its config gives"),
    "config-bisect-tol": (_edit(("transition", "bisect_tol"), 0.05), "its config gives"),
}
# the golden table 1: every row consistent-with-PD at N = 4
_TABLE1_CORRUPTIONS = {
    "rows-swapped": (lambda doc: doc["rows"].reverse(), "not the spaces"),
    "row-missing": (lambda doc: doc["rows"].pop(), "not the spaces"),
    "alpha": (_edit(("rows", 3, "alpha"), 2.0), "not the spaces"),
    "not-cpd-without-n": (_edit(("rows", 0, "verdict"), "not-CPD"), "'not-CPD'"),
    "not-cpd-past-N": (_edits(_edit(("rows", 0, "verdict"), "not-CPD"),
                              _edit(("rows", 0, "first_negative_n"), 5)), "'not-CPD'"),
    "not-cpd-at-0": (_edits(_edit(("rows", 0, "verdict"), "not-CPD"),
                            _edit(("rows", 0, "first_negative_n"), 0)), "'not-CPD'"),
    "not-cpd-at-true": (_edits(_edit(("rows", 0, "verdict"), "not-CPD"),
                               _edit(("rows", 0, "first_negative_n"), True)), "'not-CPD'"),
    "consistent-with-n": (_edit(("rows", 2, "first_negative_n"), 2), "'consistent-with-PD'"),
    "undecided-with-n": (_edits(_edit(("rows", 1, "verdict"), "undecided"),
                                _edit(("rows", 1, "first_negative_n"), 3)), "'undecided'"),
    "config-table1-N": (_edit(("N",), 5), "its config gives"),
    "config-table1-digits": (_edit(("digits",), 25), "its config gives"),
}


@pytest.mark.parametrize("job,corrupt,why", [
    *((_SCAN_JOB, *c) for c in _SCAN_CORRUPTIONS.values()),
    *((_TABLE1_JOB, *c) for c in _TABLE1_CORRUPTIONS.values()),
], ids=[*_SCAN_CORRUPTIONS, *_TABLE1_CORRUPTIONS])
def test_verify_refuses_a_scan_or_table1_that_disagrees_with_itself(
        monkeypatch, capsys, job, corrupt, why):
    """Each rule `--verify` applies to scan and table1 JSON refuses its
    corruption of the golden output, which passes intact, and the job
    exits 1."""
    text = _printed(job)
    assert cli._verify_output(job[0], "json", text) is None
    doc = json.loads(text)
    corrupt(doc)
    problem = cli._verify_output(job[0], "json", json.dumps(doc))
    assert problem is not None and why in problem, problem

    monkeypatch.setitem(cli._COMMANDS, job[0], lambda args: ({}, [], False))
    monkeypatch.setattr(cli, "_render", lambda args, payload, rows: json.dumps(doc))
    code, out, err = run(capsys, *job, "--verify")
    assert code == 1 and out == "" and "verification failed" in err


def test_verify_accepts_a_wide_scan_bracket_with_a_note():
    doc = json.loads(_printed(_SCAN_JOB))
    doc["transition"].update(bisect_tol=0.01, note="bisection stopped at undecided midpoint")
    doc["config"]["bisect"] = 0.01
    assert cli._verify_output("scan", "json", json.dumps(doc)) is None


@pytest.mark.parametrize("argv", [
    ["scan", "--space", "RP2", "--kernel", "riesz-geodesic", "--s-min", "-0.7",
     "--s-max", "-0.5", "--step", "0.1", "--nmax", "0"],
    ["classify", "--space", "S2", "--kernel", "log-geodesic", "--nmax", "0"],
    ["classify", "--space", "S2", "--kernel", "log-geodesic", "--nmax", "0", "--mode", "cpd"],
    ["table1", "--nmax", "0"],
], ids=["scan", "classify", "classify-cpd", "table1"])
def test_cpd_verdict_refuses_nmax_0_before_certifying(monkeypatch, capsys, argv):
    """A cpd verdict reads n >= 1 only, so --nmax 0 is refused by name
    before any certification runs."""
    from zonalpd import posdef

    def certify(*args, **kwargs):
        raise AssertionError("a certification ran")

    for module in (transform, posdef):
        monkeypatch.setattr(module, "certify_coefficients", certify)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("zonalpd: error: --nmax ") and err.count("\n") == 1, err


def test_pd_verdict_reads_nmax_0(capsys):
    code, out, _ = run(capsys, "classify", "--space", "S2", "--kernel", "log-geodesic",
                       "--nmax", "0", "--mode", "pd", "--digits", "15", "--verify")
    assert code == 0 and json.loads(out)["verdict"]["N_checked"] == 0


def test_out_writes_file_byte_identical(tmp_path, capsys):
    argv = ["coeffs", "--space", "CP2", "--kernel", "riesz-geodesic:s=0.5",
            "--nmax", "4", "--digits", "25"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.encode() == a.read_bytes()


def test_energy_threads_byte_identical(capsys):
    # 3 batches of Monte Carlo samples, reduced in batch order
    argv = ["energy", "--space", "S2", "--kernel", "riesz-chordal:s=0.5",
            "--perturb", "n=1,eps=0.1", "--samples", "300000", "--seed", "4"]
    code, one, _ = run(capsys, *argv)
    assert code == 0
    code, four, _ = run(capsys, *argv, "--threads", "4")
    assert code == 0
    assert four == one
    assert "threads" not in json.loads(one)["config"]


def test_perturb_keys_in_any_order(capsys):
    argv = ["energy", "--space", "S2", "--kernel", "riesz-chordal:s=0.5",
            "--samples", "2000", "--seed", "4", "--perturb"]
    code, one, _ = run(capsys, *argv, "n=1,eps=0.1")
    assert code == 0
    assert run(capsys, *argv, "eps=0.1,n=1") == (0, one, "")


def test_kernel_families_in_help_and_readme():
    """Every family that `parse_kernel` reads is listed in the --kernel help
    and in README's kernel grammar block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Kernel grammar", 1)[1].split("```")[1]
    in_readme = {line.split()[0].split(":")[0] for line in block.strip().splitlines()}
    in_help = {alt.split(":")[0] for alt in _KERNEL_HELP.split(" | ")}
    for name in FAMILIES:
        assert name in in_help and name in in_readme, name


_BASE_ARGV = {
    "coeffs": ["coeffs", "--space", "S2", "--kernel", "cospow:n=1", "--nmax", "2"],
    "classify": ["classify", "--space", "S2", "--kernel", "cospow:n=1", "--nmax", "2"],
    "scan": ["scan", "--space", "RP2", "--kernel", "riesz-geodesic", "--s-min", "-0.7",
             "--s-max", "-0.5", "--step", "0.1", "--nmax", "4"],
    "table1": ["table1", "--nmax", "2"],
    "energy": ["energy", "--space", "S2", "--kernel", "riesz-chordal:s=1"],
    "poisson": ["poisson", "--space", "S2", "--r", "0.5", "--theta", "0.3"],
}


def test_command_tables_agree():
    """The parser's subcommands, the dispatch table and both `--verify`
    tables name the same six commands, and every command's output passes
    `--verify` in both formats."""
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    names = set(sub.choices)
    assert len(names) == 6
    for table in (cli._COMMANDS, cli._CSV_HEADERS, cli._JSON_REQUIRED, _BASE_ARGV):
        assert set(table) == names
    for name, argv in _BASE_ARGV.items():
        for fmt in ("json", "csv"):
            assert main(argv + ["--format", fmt, "--verify"]) == 0, (name, fmt)

MALFORMED = (
    [(name, argv + ["--digits", d]) for name, argv in _BASE_ARGV.items()
     for d in ("-5", "0", "4", "201", "ten")]
    + [(name, _BASE_ARGV[name][:-1] + ["-1"]) for name in ("coeffs", "classify", "scan")]
    + [
        ("table1", ["table1", "--nmax", "-1"]),
        ("scan", _BASE_ARGV["scan"] + ["--bisect", "0"]),
        ("scan", _BASE_ARGV["scan"] + ["--bisect", "-0.1"]),
        ("scan", _BASE_ARGV["scan"] + ["--bisect", "inf"]),
        ("energy", _BASE_ARGV["energy"] + ["--perturb", "n=1,eps=0.1", "--samples", "1"]),
        ("energy", _BASE_ARGV["energy"] + ["--perturb", "n=1,eps=0.1", "--threads", "0"]),
        ("energy", _BASE_ARGV["energy"] + ["--perturb", "n=1,eps=0.1", "--threads", "-5"]),
        ("coeffs", _BASE_ARGV["coeffs"] + ["--threads", "2"]),
        ("coeffs", _BASE_ARGV["coeffs"] + ["--method", "de"]),
        ("classify", _BASE_ARGV["classify"] + ["--threads", "2"]),
        ("poisson", _BASE_ARGV["poisson"] + ["--threads", "2"]),
        ("coeffs", ["coeffs", "--space", "S2", "--kernel", "no-such-kernel"]),
        ("classify", ["classify", "--space", "S2", "--kernel", "no-such-kernel"]),
        ("energy", ["energy", "--space", "S2", "--kernel", "no-such-kernel"]),
        ("scan", ["scan", "--space", "RP2", "--s-min", "-0.7", "--s-max", "-0.5",
                  "--step", "0.1", "--kernel", "no-such-kernel"]),
        ("energy", _BASE_ARGV["energy"] + ["--weights", "/nonexistent/weights.txt"]),
        # the output file is written inside the same error handling
        ("coeffs", _BASE_ARGV["coeffs"] + ["--out", "/nonexistent/dir/out.json"]),
    ]
    # non-finite kernel arguments; nan ones used to run without end
    + [("coeffs", ["coeffs", "--space", "S2", "--nmax", "2", "--kernel", k])
       for k in ("gauss-chordal:lambda=nan", "gauss-geodesic:lambda=nan",
                 "lincomb(nan*cospow:n=1)", "lincomb(inf*cospow:n=1)",
                 "riesz-chordal:s=-inf", "riesz-geodesic:s=nan")]
    # unknown, repeated, missing or non-finite descriptor arguments; each one
    # used to be dropped, overwritten or read as another space or kernel
    + [("coeffs", ["coeffs", "--kernel", "cospow:n=1", "--nmax", "2", "--space", sp])
       for sp in ("custom:alpha=1,beta=0,kapa=0.5", "custom:alpha=1,beta=0,alpha=3",
                  "custom:alpha=nan,beta=0", "custom:alpha=inf,beta=0")]
    + [("coeffs", ["coeffs", "--space", "S2", "--nmax", "2", "--kernel", k])
       for k in ("riesz-chordal:s=0.5,s=1", "cospow:n=2,x=1", "log-chordal:s=1",
                 "riesz-geodesic")]
    + [
        ("energy", _BASE_ARGV["energy"] + ["--perturb", "n=1,eps=inf"]),
        ("scan", _BASE_ARGV["scan"] + ["--s-min", "nan"]),
        ("scan", _BASE_ARGV["scan"] + ["--s-min=-inf"]),
    ]
    # a stray or missing separator leaves an empty factor or term
    + [("coeffs", ["coeffs", "--space", "S2", "--nmax", "1", "--kernel", k])
       for k in ("lincomb(1*cospow:n=1+)", "lincomb(2*cospow:n=1++1*cospow:n=2)",
                 "product(cospow:n=1,cospow:n=2,)", "product()", "lincomb()")]
)


@pytest.mark.parametrize("argv", [a for _, a in MALFORMED],
                         ids=[f"{n}-{'_'.join(a[-2:])}" for n, a in MALFORMED])
def test_malformed_argv_exits_1_without_traceback(argv, capsys):
    """Every malformed command line ends in exit 1 and one error line; no
    exception escapes `main`."""
    try:
        code = main(list(argv))
    except BaseException as exc:  # SystemExit included
        pytest.fail(f"{type(exc).__name__} escaped main: {exc}")
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("zonalpd: error: "), captured.err
    assert lines[0][len("zonalpd: error: "):].strip(), captured.err


def test_error_without_text_names_its_type(monkeypatch, capsys):
    """An exception with an empty message (mpmath raises ZeroDivisionError()
    that way) still leaves a readable error line."""
    def fail(*args, **kwargs):
        raise ZeroDivisionError()

    monkeypatch.setattr(transform, "poisson_kernel", fail)
    code, out, err = run(capsys, *_BASE_ARGV["poisson"])
    assert (code, out, err) == (1, "", "zonalpd: error: ZeroDivisionError\n")


def _child_env():
    # the child imports the package under test, also when pytest alone put
    # it on sys.path
    src = str(Path(zonalpd.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def _run_proc(argv):
    return subprocess.run(
        [sys.executable, "-m", "zonalpd", *argv],
        capture_output=True, text=True, env=_child_env(), timeout=300,
    )


def test_version_flag():
    r = _run_proc(["--version"])
    assert r.returncode == 0
    assert r.stdout.strip() == f"zonalpd {__version__}"


# the jobs of perfbench/run.py: its certify, scan and energy workloads
_BENCH_ARGV = [
    ["coeffs", "--space", "RP2", "--kernel", "riesz-geodesic:s=-0.6", "--nmax", "24",
     "--digits", "30"],
    ["coeffs", "--space", "HP2", "--kernel", "riesz-chordal:s=0.7", "--nmax", "12",
     "--digits", "30"],
    ["table1", "--nmax", "10", "--digits", "30"],
    ["scan", "--space", "RP2", "--kernel", "riesz-geodesic", "--s-min", "-0.7",
     "--s-max", "-0.5", "--step", "0.1", "--bisect", "0.05", "--nmax", "16", "--digits", "20"],
    ["energy", "--space", "S2", "--kernel", "riesz-chordal:s=0.5", "--perturb", "n=1,eps=0.1",
     "--samples", "250000", "--seed", "3"],
    ["energy", "--space", "CP2", "--kernel", "gauss-chordal:lambda=1", "--perturb",
     "n=2,eps=0.1", "--samples", "250000", "--seed", "3"],
]
_BENCH_POINTS = (("RP2", "gauss-chordal:lambda=1", 150), ("CP2", "riesz-chordal:s=1", 150),
                 ("HP2", "log-geodesic", 100))


def test_cli_output_equals_in_process_main(tmp_path, capsys):
    """On the benchmark's jobs, `python -m zonalpd`, which ends with
    `os._exit` once its output is flushed, prints what `main` prints and
    exits with its code."""
    jobs = [argv + ["--verify"] for argv in _BENCH_ARGV]
    for task, (name, kernel, count) in enumerate(_BENCH_POINTS, start=1):
        sp = make_space(name)
        path = tmp_path / f"{name}.pts"
        save_points(str(path), sp, sample_uniform_points(sp, make_rng(3, task), count))
        jobs.append(["energy", "--space", name, "--kernel", kernel, "--points", str(path),
                     "--verify"])
    for argv in jobs:
        child = _run_proc(argv)
        code, out, err = run(capsys, *argv)
        assert (child.returncode, child.stdout, child.stderr) == (code, out, err), argv


def test_cli_exit_codes_equal_in_process_main(monkeypatch, capsys):
    """Exit codes 0, 1 and 2, and usage errors, which exit 1 here, are those
    `main` returns; --help and --version exit 0 with argparse's text."""
    # argparse wraps help to the terminal width; give both sides one width
    monkeypatch.setenv("COLUMNS", "80")
    codes = set()
    for argv in (
        ["coeffs", "--space", "S2", "--kernel", "cospow:n=1", "--nmax", "2"],
        ["coeffs", "--space", "S2", "--kernel", "no-such-kernel"],
        ["classify", "--space", "CP2", "--kernel", "jacobi:n=4", "--nmax", "5",
         "--digits", "15", "--mode", "pd"],
        ["coeffs", "--space", "S2", "--no-such-option"],
        ["coeffs", "--space", "S2"],
        [],
    ):
        child = _run_proc(argv)
        code, out, err = run(capsys, *argv)
        assert (child.returncode, child.stdout, child.stderr) == (code, out, err), argv
        codes.add(code)
    assert codes == {0, 1, 2}
    for argv in (["--help"], ["coeffs", "--help"], ["--version"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out = capsys.readouterr().out
        child = _run_proc(argv)
        assert exc.value.code == 0
        assert (child.returncode, child.stdout, child.stderr) == (0, out, ""), argv


def test_cli_runs_atexit_handlers_once_and_skips_teardown(tmp_path):
    """A handler registered before the CLI starts runs exactly once, and
    `--out` is written whole; a module global's finalizer, which the
    interpreter's teardown would run, does not."""
    out = tmp_path / "out.json"
    argv = ["coeffs", "--space", "S2", "--kernel", "cospow:n=1", "--nmax", "2", "--out",
            str(out)]
    code = "\n".join([
        "import atexit, runpy, sys",
        "atexit.register(lambda: print('atexit', file=sys.stderr))",
        "class Late:",
        "    def __del__(self):",
        "        print('teardown', file=sys.stderr)",
        "late = Late()",
        "runpy.run_module('zonalpd', run_name='__main__', alter_sys=True)",
    ])
    for args in (argv, ["--version"]):
        r = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                           env=_child_env(), timeout=300)
        assert r.returncode == 0 and r.stderr == "atexit\n", r.stderr
    assert out.read_text() == _run_proc(argv[:-2]).stdout


def test_cli_threads_print_what_one_thread_prints():
    argv = ["energy", "--space", "S2", "--kernel", "riesz-chordal:s=0.5", "--perturb",
            "n=1,eps=0.1", "--samples", "140000", "--seed", "4"]
    one, two = _run_proc(argv + ["--threads", "1"]), _run_proc(argv + ["--threads", "2"])
    assert one.returncode == two.returncode == 0
    assert two.stdout == one.stdout


@pytest.mark.parametrize("argv", [
    ["--version"],
    ["coeffs", "--space", "S2", "--kernel", "cospow:n=1", "--nmax", "2", "--digits", "15"],
    ["coeffs", "--space", "S2", "--kernel", "cospow:n=1", "--nmax", "40", "--digits", "15"],
], ids=["version", "small", "over-a-pipe-buffer"])
@pytest.mark.parametrize("unbuffered", (False, True))
def test_cli_reader_closing_early(argv, unbuffered):
    """When the reader closes the pipe before the output comes, the exit
    status and stderr are the interpreter's: a failed flush of buffered
    stdout is reported as teardown reports it, with status 120, and a
    failed write inside `main` is a clean exit 1."""
    env = {k: v for k, v in _child_env().items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-m", "zonalpd", *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, text=True)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    code = proc.wait(timeout=300)
    if argv == ["--version"] and unbuffered:
        # argparse drops the failed write of its version text
        assert (code, err) == (0, "")
    elif unbuffered:
        assert (code, err) == (1, "zonalpd: error: [Errno 32] Broken pipe\n")
    else:
        lines = err.splitlines()
        assert code == 120 and len(lines) == 2, err
        assert lines[0].startswith("Exception ignored in: <_io.TextIOWrapper name='<stdout>'")
        assert lines[1] == "BrokenPipeError: [Errno 32] Broken pipe"


def test_traced_job_matches_plain_run(tmp_path):
    """perfbench/traced_job.py patches the functions that perfbench/tracer.py
    names and rebuilds each kernel with `dataclasses.replace`; the traced
    job prints what the plain CLI prints and writes its spans.  The kernel
    takes the quadrature route, which evaluates its envelope."""
    import numpy as np

    argv = ["coeffs", "--space", "S2", "--kernel", "riesz-geodesic:s=1",
            "--nmax", "2", "--digits", "15"]
    plain = _run_proc(argv)
    spans = tmp_path / "spans.npz"
    script = Path(__file__).resolve().parents[1] / "perfbench" / "traced_job.py"
    traced = subprocess.run(
        [sys.executable, str(script), str(spans), "0", "--", *argv],
        capture_output=True, text=True, env=_child_env(), timeout=300,
    )
    assert plain.returncode == 0 and traced.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    with np.load(spans) as z:
        names = [str(n) for n in z["names"]]
        seen = {names[int(row[0])] for row in z["spans"]}
    assert {"cli.main", "transform.certify", "kernels.eval_g"} <= seen


def _run_child(argv, block=(), probes=("numpy",)):
    """`zonalpd argv` in a fresh interpreter where the modules of `block`
    cannot be imported; the last stderr lines, one per module of `probes`
    and printed by an atexit handler (the CLI ends with `os._exit` after
    running those), say whether that module was loaded."""
    code = "\n".join([
        "import atexit, runpy, sys",
        *(f"sys.modules[{name!r}] = None" for name in block),
        f"atexit.register(lambda: print(*(f'{{m}} {{sys.modules.get(m) is not None}}'",
        f"                                for m in {list(probes)!r}), sep='\\n', file=sys.stderr))",
        "runpy.run_module('zonalpd', run_name='__main__', alter_sys=True)",
    ])
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, env=_child_env(), timeout=300,
    )


CERTIFYING = [
    ["coeffs", "--space", "RP2", "--kernel", "riesz-geodesic:s=-0.6", "--nmax", "8",
     "--digits", "20", "--verify"],
    ["classify", "--space", "S2", "--kernel", "log-geodesic", "--nmax", "6"],
    ["scan", "--space", "RP2", "--kernel", "riesz-geodesic", "--s-min", "-0.7",
     "--s-max", "-0.5", "--step", "0.1", "--bisect", "0.05", "--nmax", "8", "--digits", "20"],
    ["table1", "--nmax", "4", "--digits", "20"],
    ["poisson", "--space", "RP2", "--r", "0.5", "--theta", "0.3"],
]


@pytest.mark.parametrize("argv", CERTIFYING, ids=lambda a: a[0])
def test_certifying_commands_run_without_numpy(argv, capsys):
    """The certifying commands run on mpmath and the standard library alone,
    with the output they give where numpy is present."""
    r = _run_child(argv, block=["numpy"])
    assert r.returncode == 0, r.stderr
    assert r.stderr.splitlines()[-1] == "numpy False"
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert r.stdout == out


def test_version_runs_without_numpy():
    r = _run_child(["--version"], block=["numpy"])
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == f"zonalpd {__version__}"


def test_energy_still_imports_numpy(capsys):
    argv = ["energy", "--space", "S2", "--kernel", "riesz-chordal:s=1"]
    r = _run_child(argv)
    assert r.returncode == 0, r.stderr
    assert r.stderr.splitlines()[-1] == "numpy True"
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert r.stdout == out


def test_discrete_energy_leaves_numpy_random_unloaded(tmp_path, capsys):
    """A discrete energy samples nothing, so numpy.random stays unloaded;
    a perturbed energy loads it and runs as before."""
    sp = make_space("CP2")
    path = tmp_path / "cp2.pts"
    save_points(str(path), sp, sample_uniform_points(sp, make_rng(5), 40))
    base = ["energy", "--space", "CP2", "--kernel", "riesz-chordal:s=1"]
    for extra, loaded in (
        (["--points", str(path)], False),
        (["--perturb", "n=1,eps=0.1", "--samples", "20000"], True),
    ):
        r = _run_child(base + extra, probes=["numpy.random"])
        assert r.returncode == 0, r.stderr
        assert r.stderr.splitlines()[-1] == f"numpy.random {loaded}"
        code, out, _ = run(capsys, *base, *extra)
        assert code == 0
        assert r.stdout == out


def test_posdef_loads_only_for_verdict_commands(tmp_path, capsys):
    """Only classify, scan and table1 run the verdicts, so the other
    commands and --version leave `zonalpd.posdef` unloaded; each child
    prints what the in-process run prints."""
    sp = make_space("S2")
    path = tmp_path / "s2.pts"
    save_points(str(path), sp, sample_uniform_points(sp, make_rng(5), 20))
    for argv, loaded in (
        (["coeffs", "--space", "RP2", "--kernel", "riesz-geodesic:s=-0.6", "--nmax", "4",
          "--digits", "20"], False),
        (["energy", "--space", "S2", "--kernel", "riesz-chordal:s=1", "--points", str(path)],
         False),
        (["poisson", "--space", "RP2", "--r", "0.5", "--theta", "0.3"], False),
        (["--version"], False),
        (["classify", "--space", "S2", "--kernel", "log-geodesic", "--nmax", "4",
          "--digits", "20"], True),
    ):
        r = _run_child(argv, probes=["zonalpd.posdef"])
        assert r.returncode == 0, r.stderr
        assert r.stderr.splitlines()[-1] == f"zonalpd.posdef {loaded}"
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's --version action
            code = exc.code
        assert code == 0
        assert r.stdout == capsys.readouterr().out


# the modules that only the mpf arithmetic needs
ARITHMETIC = ("mpmath", "zonalpd.transform", "zonalpd.jacobi", "zonalpd.posdef")
_CERTIFIER = {"mpmath", "zonalpd.transform", "zonalpd.jacobi"}
_ENERGY = ["energy", "--space", "S2", "--kernel", "riesz-chordal:s=1", "--digits", "15"]
# every family but jacobi, whose float evaluator runs the mpmath-side
# recurrence, with each argument 1, plus a product and a lincomb
_POINT_KERNELS = [name + (":" + ",".join(f"{k}=1" for k in kinds) if kinds else "")
                  for name, (kinds, _) in FAMILIES.items() if name != "jacobi"] + [
    "product(cospow:n=2,log-chordal)",
    "lincomb(2*gauss-geodesic:lambda=1+-1*riesz-chordal:s=0.5)"]
LOADS = [
    (["--version"], set()),
    (["--help"], set()),
    *[(["energy", "--space", "S2", "--kernel", kernel, "--points", "s2.pts", "--verify"], set())
      for kernel in _POINT_KERNELS],
    (["energy", "--space", "S2", "--kernel", "riesz-chordal:s=1", "--points", "s2.pts",
      "--format", "csv", "--verify"], set()),
    (_ENERGY + ["--verify"], _CERTIFIER),
    (_ENERGY + ["--perturb", "n=1,eps=0.1", "--samples", "20000", "--verify"], _CERTIFIER),
    (CERTIFYING[-1], _CERTIFIER),
    (CERTIFYING[0], _CERTIFIER),
    *[(argv, set(ARITHMETIC)) for argv in CERTIFYING[1:4]],
]


def _load_id(argv):
    kernel = [argv[argv.index("--kernel") + 1]] if "--kernel" in argv else []
    flags = [f[2:] for f in ("--points", "--perturb", "--format") if f in argv]
    return "-".join([argv[0], *kernel, *flags])


@pytest.mark.parametrize("argv,loaded", LOADS, ids=[_load_id(a) for a, _ in LOADS])
def test_each_command_loads_only_the_arithmetic_it_runs(tmp_path, monkeypatch, capsys,
                                                        argv, loaded):
    """`--version`, `--help` and a discrete energy (with `--verify`) load
    none of mpmath, `transform`, `jacobi` and `posdef`; the uniform and
    perturbed energies, poisson and the certifying commands load mpmath and
    the certification modules, and only the verdict commands `posdef`.  Each
    child prints what the in-process run prints."""
    monkeypatch.chdir(tmp_path)
    sp = make_space("S2")
    save_points("s2.pts", sp, sample_uniform_points(sp, make_rng(5), 20))
    r = _run_child(argv, probes=ARITHMETIC)
    assert r.returncode == 0, r.stderr
    assert r.stderr.splitlines()[-len(ARITHMETIC):] == [
        f"{name} {name in loaded}" for name in ARITHMETIC]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's --help and --version actions
        code = exc.code
    assert code == 0
    assert r.stdout == capsys.readouterr().out


def test_points_energy_and_version_run_without_mpmath(tmp_path, monkeypatch, capsys):
    """Where mpmath cannot be imported, each of the benchmark's discrete
    energy jobs and `--version` print what the in-process run prints."""
    monkeypatch.chdir(tmp_path)
    jobs = [["--version"]]
    for task, (space, kernel, count) in enumerate(
            (("RP2", "gauss-chordal:lambda=1", 150), ("CP2", "riesz-chordal:s=1", 150),
             ("HP2", "log-geodesic", 100)), start=1):
        sp = make_space(space)
        save_points(f"{space}.pts", sp, sample_uniform_points(sp, make_rng(0, task), count))
        jobs.append(["energy", "--space", space, "--kernel", kernel, "--points", f"{space}.pts"])
    for argv in jobs:
        r = _run_child(argv, block=["mpmath"], probes=["mpmath"])
        assert r.returncode == 0, r.stderr
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 0
        assert r.stdout == capsys.readouterr().out


# one run of each energy method and of poisson, each with --verify
_VERIFY_ARGV = {
    "points": ["energy", "--space", "S2", "--kernel", "riesz-chordal:s=1", "--points", "s2.pts"],
    "mc": _ENERGY + ["--perturb", "n=1,eps=0.1", "--samples", "20000"],
    "quadrature": _ENERGY,
    "poisson": ["poisson", "--space", "RP2", "--r", "0.5", "--theta", "0.3"],
}


def _bump_quadrature_value(doc):
    errors = Fraction(doc["expansion_error"]) + Fraction(doc["quadrature_error"])
    doc["quadrature_value"] = float(Fraction(doc["energy"]) + 4 * errors)
    assert abs(Fraction(doc["quadrature_value"]) - Fraction(doc["energy"])) > errors


@pytest.mark.parametrize("run_kind,edit,problem", [
    ("points", lambda d: d.update(method="quadrature"), "method 'quadrature'"),
    ("mc", lambda d: d.update(method="closed-form"), "method 'closed-form'"),
    ("quadrature", lambda d: d.update(method="mc"), "method 'mc'"),
    ("points", lambda d: d.update(stderr=0.5), "stderr 0.5"),
    ("quadrature", lambda d: d.update(stderr=1e-12), "stderr 1e-12"),
    ("mc", lambda d: d.update(n=2), "n, epsilon or samples"),
    ("mc", lambda d: d.update(epsilon=0.2), "n, epsilon or samples"),
    ("mc", lambda d: d.update(samples=10000), "n, epsilon or samples"),
    ("quadrature", _bump_quadrature_value, "differ by more than their printed errors"),
    ("poisson", lambda d: d.update(r=0.25), "r or theta"),
    ("poisson", lambda d: d.update(theta=0.1), "r or theta"),
    ("poisson", lambda d: d.update(value=d["closed"] + 1e-9), "or value is not closed"),
], ids=["points-method", "mc-method", "quadrature-method", "points-stderr",
        "quadrature-stderr", "mc-n", "mc-epsilon", "mc-samples", "quadrature-gap", "poisson-r",
        "poisson-theta", "poisson-value"])
def test_verify_ties_energy_and_poisson_json_to_the_config(tmp_path, monkeypatch, capsys,
                                                          run_kind, edit, problem):
    """`--verify` on energy: the method the options pick, a stderr of 0 off
    Monte Carlo, the Monte Carlo n, epsilon and samples of the config, and a
    uniform energy within the sum of its printed errors of its quadrature
    value; on poisson the config's r and theta and a value equal to the
    closed form.  Each of these edits of the printed JSON exits 1, on the
    rule it breaks."""
    monkeypatch.chdir(tmp_path)
    sp = make_space("S2")
    save_points("s2.pts", sp, sample_uniform_points(sp, make_rng(5), 20))
    argv = _VERIFY_ARGV[run_kind] + ["--verify"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    render = cli._render

    def edited(args, payload, rows):
        doc = json.loads(render(args, payload, rows))
        edit(doc)
        return json.dumps(doc)

    monkeypatch.setattr(cli, "_render", edited)
    code, out, err = run(capsys, *argv)
    assert (code, out, err.startswith("zonalpd: verification failed: ")) == (1, "", True)
    assert problem in err, err


@pytest.mark.parametrize("run_kind,method", [
    ("points", "quadrature"), ("mc", "closed-form"), ("quadrature", "mc")])
def test_verify_reads_the_energy_csv_method_against_its_config(tmp_path, monkeypatch, capsys,
                                                                run_kind, method):
    """The energy CSV row's method is the one its config line picks."""
    monkeypatch.chdir(tmp_path)
    sp = make_space("S2")
    save_points("s2.pts", sp, sample_uniform_points(sp, make_rng(5), 20))
    argv = _VERIFY_ARGV[run_kind] + ["--format", "csv", "--verify"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    printed = out.splitlines()[-1].split(",")[-1]
    render = cli._render
    monkeypatch.setattr(cli, "_render", lambda *args: render(*args).replace(
        f",{printed}\n", f",{method}\n"))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "") and "does not follow from its config" in err, err


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_verify_takes_a_point_file_named_none(tmp_path, monkeypatch, capsys, fmt):
    """A CSV config line prints `points=None` both without --points and for
    a point file named None; `--verify` takes the discrete energy of such a
    file, as it does in JSON."""
    monkeypatch.chdir(tmp_path)
    sp = make_space("S2")
    save_points("None", sp, sample_uniform_points(sp, make_rng(5), 20))
    code, out, err = run(capsys, "energy", "--space", "S2", "--kernel", "riesz-chordal:s=1",
                         "--points", "None", "--format", fmt, "--verify")
    assert (code, err) == (0, "") and "closed-form" in out
