import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest

import zonalpd
from conftest import riesz_chordal_exact
from zonalpd import __version__
from zonalpd.cli import main
from zonalpd.spaces import make_space
from zonalpd.transform import poisson_kernel


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

    monkeypatch.setattr("zonalpd.cli.poisson_kernel", fail)
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


def test_out_writes_file_byte_identical(tmp_path, capsys):
    argv = ["coeffs", "--space", "CP2", "--kernel", "riesz-geodesic:s=0.5",
            "--nmax", "4", "--digits", "25"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b), "--threads", "4"]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.encode() == a.read_bytes()


def _run_proc(argv, env_extra=None):
    # the child imports the package under test, also when pytest alone put
    # it on sys.path
    src = str(Path(zonalpd.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "-m", "zonalpd", *argv],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_env_default_digits():
    r = _run_proc(
        ["coeffs", "--space", "S2", "--kernel", "cospow:n=1", "--nmax", "2"],
        {"ZONALPD_DEFAULT_DIGITS": "30"},
    )
    assert r.returncode == 0
    assert json.loads(r.stdout)["config"]["digits"] == 30

    r = _run_proc(
        ["coeffs", "--space", "S2", "--kernel", "cospow:n=1", "--nmax", "2"],
        {"ZONALPD_DEFAULT_DIGITS": "banana"},
    )
    assert r.returncode == 1
    assert "ZONALPD_DEFAULT_DIGITS" in r.stderr

    r = _run_proc(
        ["coeffs", "--space", "S2", "--kernel", "cospow:n=1", "--nmax", "2"],
        {"ZONALPD_DEFAULT_DIGITS": "3"},
    )
    assert r.returncode == 1


def test_version_flag():
    r = _run_proc(["--version"])
    assert r.returncode == 0
    assert r.stdout.strip() == f"zonalpd {__version__}"
