import json
import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CATALOG, exact_fraction, synthetic_report
from zonalpd import cli, posdef, transform
from zonalpd.kernels import parse_kernel, riesz_chordal
from zonalpd.posdef import (
    PDVerdict,
    all_spaces_check,
    classify,
    scan_riesz,
    table1,
)
from zonalpd.spaces import make_space
from zonalpd.transform import CoefficientReport, certify_coefficients

S2 = make_space("S2")
RP2 = make_space("RP2")
CP2 = make_space("CP2")
CP3 = make_space("CP3")


# ---------------------------------------------------------------------------
# classify: the verdict is a pure function of the sign vector


def test_classify_strictly_pd():
    rep = synthetic_report("S2", [1.0, 0.5, 0.25])
    v = classify(rep, mode="pd")
    assert v.classification == "strictly-PD"
    assert v.witness is None
    assert v.N_checked == 2
    assert "n <= 2" in v.caveat


def test_classify_pd_not_strict():
    rep = synthetic_report("S2", [1.0, 0.5, 0.25], signs=["+", "0", "+"])
    v = classify(rep, mode="pd")
    assert v.classification == "PD-not-strict"
    assert v.witness == 1


def test_classify_zero_constant_pd_vs_cpd():
    rep = synthetic_report("S2", [0.0, 0.5, 0.25], signs=["0", "+", "+"])
    assert classify(rep, mode="pd").classification == "PD-not-strict"
    assert classify(rep, mode="pd").witness == 0
    assert classify(rep, mode="cpd").classification == "strictly-CPD-only"


def test_classify_negative_constant_is_cpd_only():
    # a negative n = 0 coefficient blocks PD but is invisible to CPD
    rep = synthetic_report("S2", [-3.0, 0.5, 0.25], signs=["-", "+", "+"])
    assert classify(rep, mode="pd").classification == "strictly-CPD-only"
    assert classify(rep, mode="pd").witness == 0
    assert classify(rep, mode="cpd").classification == "strictly-CPD-only"
    assert classify(rep, mode="cpd").witness is None


def test_classify_not_cpd_witness():
    rep = synthetic_report("S2", [1.0, 0.5, -0.1, 0.2], signs=["+", "+", "-", "+"])
    for mode in ("pd", "cpd"):
        v = classify(rep, mode=mode)
        assert v.classification == "not-CPD"
        assert v.witness == 2


def test_classify_negative_beats_undecided():
    # one certified negative at n >= 1 decides, before or after an undecided degree
    for signs in (["+", "undecided", "-"], ["undecided", "-", "undecided"]):
        rep = synthetic_report("S2", [0.0] * 3, signs=signs)
        for mode in ("pd", "cpd"):
            v = classify(rep, mode=mode)
            assert (v.classification, v.witness) == ("not-CPD", signs.index("-"))


def _reference_verdict(signs, mode):
    """The sign rule, read off the paper's characterisation case by case."""
    tail = signs[1:]
    if "-" in tail:  # one negative coefficient of degree n >= 1 disproves CPD
        return "not-CPD", 1 + tail.index("-")
    used = signs if mode == "pd" else tail
    if "undecided" in used:
        return "undecided", signs.index("undecided", len(signs) - len(used))
    zero = 1 + tail.index("0") if "0" in tail else None
    if mode == "cpd":
        return ("strictly-CPD-only", None) if zero is None else ("CPD-not-strict", zero)
    if signs[0] == "-":
        return ("strictly-CPD-only", 0) if zero is None else ("CPD-not-strict", zero)
    if signs[0] == "0":
        return "PD-not-strict", 0
    return ("strictly-PD", None) if zero is None else ("PD-not-strict", zero)


@settings(max_examples=300, deadline=None)
@given(signs=st.lists(st.sampled_from(["+", "-", "0", "undecided"]), min_size=1, max_size=6),
       mode=st.sampled_from(["pd", "cpd"]))
def test_classify_matches_the_reference_rule(signs, mode):
    """Over sign vectors of length 1-6, `classify` gives the reference
    rule's (classification, witness) in both modes."""
    rep = synthetic_report("S2", [0.0] * len(signs), signs=signs)
    if mode == "cpd" and len(signs) == 1:
        with pytest.raises(ValueError, match="no entries"):
            classify(rep, mode=mode)
        return
    v = classify(rep, mode=mode)
    assert (v.classification, v.witness) == _reference_verdict(signs, mode)
    assert (v.N_checked, v.mode) == (len(signs) - 1, mode)


def test_classify_cpd_not_strict():
    rep = synthetic_report("S2", [1.0, 0.5, 0.0, 0.2], signs=["+", "+", "0", "+"])
    v = classify(rep, mode="cpd")
    assert v.classification == "CPD-not-strict"
    assert v.witness == 2


def test_classify_bad_mode():
    rep = synthetic_report("S2", [1.0, 0.5])
    with pytest.raises(ValueError):
        classify(rep, mode="positive")


def test_verdict_rejects_unknown_class():
    with pytest.raises(ValueError):
        PDVerdict("sort-of-PD", None, 4, "cpd", "")


def test_is_nonnegative_property():
    rep = synthetic_report("S2", [1.0, 0.5])
    assert classify(rep, "pd").is_nonnegative
    rep = synthetic_report("S2", [1.0, -0.5], signs=["+", "-"])
    assert not classify(rep, "cpd").is_nonnegative
    # in pd mode a negative constant term is no nonnegative verdict, though
    # the n >= 1 signs give strictly-CPD-only
    rep = synthetic_report("S2", [-1.0, 0.5], signs=["-", "+"])
    v = classify(rep, "pd")
    assert (v.classification, v.witness) == ("strictly-CPD-only", 0)
    assert not v.is_nonnegative


# ---------------------------------------------------------------------------
# classify on real kernels


def test_cp3_log_geodesic_not_cpd():
    rep = certify_coefficients(CP3, parse_kernel("log-geodesic", CP3), N=8, target_digits=40)
    v = classify(rep, mode="cpd")
    assert v.classification == "not-CPD"
    assert v.witness == 6


def test_scaling_leaves_signs_alone():
    base = certify_coefficients(S2, riesz_chordal(S2, 1.0), N=8, target_digits=25)
    scaled = certify_coefficients(
        S2, parse_kernel("lincomb(7.5*riesz-chordal:s=1)", S2), N=8, target_digits=25
    )
    assert scaled.signs() == base.signs()
    assert classify(scaled, "cpd").classification == classify(base, "cpd").classification


def test_cpd_ignores_added_constant():
    base = certify_coefficients(CP2, riesz_chordal(CP2, 1.0), N=6, target_digits=25)
    shifted = certify_coefficients(
        CP2, parse_kernel("lincomb(1*riesz-chordal:s=1+-50*cospow:n=0)", CP2),
        N=6, target_digits=25,
    )
    assert classify(shifted, "cpd").classification == classify(base, "cpd").classification
    assert shifted.signs()[1:] == base.signs()[1:]
    assert shifted.entries[0].sign == "-"


@pytest.mark.parametrize(
    "space,text",
    [
        (S2, "product(riesz-chordal:s=1,cospow:n=2)"),
        (CP2, "product(riesz-chordal:s=0.5,riesz-chordal:s=0.5)"),
    ],
)
def test_schur_products_stay_nonnegative(space, text):
    # products of kernels with nonnegative coefficients keep nonnegative
    # coefficients; certify the factors, then the product
    rep = certify_coefficients(space, parse_kernel(text, space), N=16, target_digits=30)
    assert all(e.sign in ("+", "0") for e in rep.entries)
    assert classify(rep, "cpd").is_nonnegative


# ---------------------------------------------------------------------------
# scan_riesz


def test_scan_argument_validation():
    with pytest.raises(ValueError):
        scan_riesz(RP2, "geodesic", -0.5, -0.2, step=0.0, N=8)
    with pytest.raises(ValueError):
        scan_riesz(RP2, "geodesic", 0.0, -0.5, step=0.1, N=8)
    with pytest.raises(ValueError):
        scan_riesz(RP2, "geodesic", 0.0, 2.5, step=0.5, N=8)  # s_max >= d
    with pytest.raises(ValueError):
        scan_riesz(RP2, "euclidean", -0.5, 0.0, step=0.25, N=8)


def test_scan_grid_cap_admits_exactly_its_count(monkeypatch):
    """A grid of SCAN_MAX_POINTS points is certified point by point; one
    more point is refused before any certification."""
    calls = []

    def certify(space, metric, s, N, digits):
        calls.append(s)
        return PDVerdict("strictly-CPD-only", None, N, "cpd", "")

    monkeypatch.setattr(posdef, "_certify_cpd", certify)
    step, s_min = 2.0 ** -10, -20.0
    s_max = s_min + (posdef.SCAN_MAX_POINTS - 1) * step
    result = scan_riesz(RP2, "geodesic", s_min, s_max, step=step, N=1)
    assert len(result.s_values) == len(calls) == posdef.SCAN_MAX_POINTS
    calls.clear()
    with pytest.raises(ValueError, match="over the cap of"):
        scan_riesz(RP2, "geodesic", s_min, s_max + step, step=step, N=1)
    assert calls == []


@pytest.mark.parametrize("tol", [0.0, -0.1, float("nan")])
def test_scan_rejects_nonpositive_bisect_tol(tol, monkeypatch):
    # rejected before the grid is certified
    def no_certification(*args):
        raise AssertionError("certified despite an invalid tolerance")

    monkeypatch.setattr(posdef, "_certify_cpd", no_certification)
    with pytest.raises(ValueError, match="bisection tolerance must be positive"):
        scan_riesz(RP2, "geodesic", -0.7, -0.5, step=0.1, N=8, bisect_tol=tol)


def test_scan_bisection_stops_at_float_resolution(monkeypatch):
    # a tolerance below the float spacing used to re-certify one midpoint
    # forever; a threshold verdict stands in for the certification
    edge, calls = -0.6523364481765591, []

    def verdict(space, metric, s, N, digits):
        calls.append(s)
        assert len(calls) < 200, "bisection does not terminate"
        if s < edge:
            return PDVerdict("not-CPD", 2, N, "cpd", "")
        return PDVerdict("strictly-CPD-only", None, N, "cpd", "")

    monkeypatch.setattr(posdef, "_certify_cpd", verdict)
    res = scan_riesz(RP2, "geodesic", -0.7, -0.5, step=0.1, N=8, bisect_tol=1e-300)
    lo, hi = res.bracket
    assert lo < edge <= hi and math.nextafter(lo, hi) == hi
    assert res.transition_estimate == lo
    assert "float resolution" in res.note and "undecided" not in res.note
    # the grid's three points plus one certification per halving
    assert len(calls) == len(set(calls)) < 3 + 60


def test_scan_all_cpd_grid():
    res = scan_riesz(S2, "geodesic", -1.0, 0.0, step=0.5, N=12, digits=25)
    assert res.s_values == (-1.0, -0.5, 0.0)
    assert [v.classification for v in res.verdicts] == [
        "CPD-not-strict", "strictly-CPD-only", "strictly-CPD-only",
    ]
    assert res.transition_estimate is None
    assert res.bracket is None
    assert "no not-CPD exponent on the grid" in res.note


def test_scan_rp2_coarse_bracket():
    res = scan_riesz(RP2, "geodesic", -0.9, -0.3, step=0.3, N=24, bisect_tol=0.1, digits=25)
    assert [v.classification for v in res.verdicts] == [
        "not-CPD", "strictly-CPD-only", "strictly-CPD-only",
    ]
    assert res.first_negatives[0] == 2
    assert res.transition_estimate == pytest.approx(-0.675)
    lo, hi = res.bracket
    assert (lo, hi) == (pytest.approx(-0.675), pytest.approx(-0.6))
    assert hi - lo <= res.bisect_tol + 1e-12
    assert res.cpd_onset == pytest.approx(-0.6)


def test_scan_chordal_all_nonneg():
    res = scan_riesz(S2, "chordal", 0.5, 1.5, step=0.5, N=12, digits=25)
    assert all(v.is_nonnegative for v in res.verdicts)
    assert res.bracket is None


def test_scan_serialization_round_trip():
    res = scan_riesz(S2, "geodesic", -0.5, 0.0, step=0.5, N=8, digits=25)
    d = res.to_json_dict()
    json.dumps(d)  # must be plain data
    assert d["space"] == "S2"
    assert len(d["grid"]) == 2
    assert d["transition"]["depends_on_N"] == 8
    csv = res.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "s,verdict,first_negative_n"
    assert len(lines) == 3


# ---------------------------------------------------------------------------
# all_spaces_check


def test_all_spaces_cospow_consistent():
    res = all_spaces_check("cospow:n=1", beta=0.0, alpha_list=(2.0, 4.0, 8.0), N=4)
    assert res.verdict == "consistent-with-all-spaces-PD"
    assert res.witness is None
    # t has a_1 > 0 and all other a_n = 0 at every alpha
    for al in res.alphas:
        assert res.reports[al].entry(1).sign == "+"


def test_all_spaces_undecided_without_witness():
    """No negative witness but undecided signs: the sweep says so instead of
    reporting consistency.  jacobi:n=2 has exact zeros below its degree that
    the angle-variable routes cannot decide."""
    res = all_spaces_check("jacobi:n=2", beta=0.0, alpha_list=(2.0, 4.0), N=3, digits=15)
    assert res.witness is None
    assert sum(e.sign == "undecided" for al in res.alphas for e in res.reports[al].entries) == 4
    assert res.verdict == "undecided"


def test_all_spaces_riesz_geodesic_witness():
    res = all_spaces_check(
        "riesz-geodesic:s=1",
        beta=-0.5,
        alpha_list=(2.0, 4.0, 8.0, 16.0),
        N=10,
    )
    assert res.verdict == "not-PD-for-large-alpha"
    assert res.witness == (4.0, 4)


def test_all_spaces_gauss_chordal_nonneg():
    res = all_spaces_check(
        "gauss-chordal:lambda=1",
        beta=0.0,
        alpha_list=(1.0, 2.0, 4.0, 8.0),
        N=8,
    )
    assert res.verdict == "consistent-with-all-spaces-PD"
    for al in res.alphas:
        assert all(e.sign in ("+", "0") for e in res.reports[al].entries)
    assert json.dumps(res.to_json_dict())


@pytest.fixture(scope="module")
def chordal_sweep():
    """riesz-chordal s=1 at beta = -1/2: at alpha = 16 the float copies this
    sweep once printed missed their own certified values."""
    return all_spaces_check("riesz-chordal:s=1.0", beta=-0.5,
                            alpha_list=(2.0, 4.0, 8.0, 16.0), N=6, digits=30)


def test_all_spaces_reports_read_back(chordal_sweep):
    doc = json.loads(json.dumps(chordal_sweep.to_json_dict()))
    assert doc["alphas"] == [2.0, 4.0, 8.0, 16.0]
    assert len(doc["reports"]) == 4
    for al, printed in zip(chordal_sweep.alphas, doc["reports"]):
        back = CoefficientReport.from_json_dict(printed)
        assert back.space == make_space(alpha=al, beta=-0.5)
        assert (back.kernel, back.N) == (chordal_sweep.kernel, 6)
        assert back.signs() == chordal_sweep.reports[al].signs()


def test_all_spaces_printed_intervals_hold_their_values(chordal_sweep):
    doc = chordal_sweep.to_json_dict()
    for al, printed in zip(chordal_sweep.alphas, doc["reports"]):
        for e, p in zip(chordal_sweep.reports[al].entries, printed["entries"]):
            value, error = Fraction(p["value"]), Fraction(p["error"])
            assert abs(exact_fraction(e.value) - value) <= error, (al, e.n)


def test_all_spaces_kernel_is_the_written_descriptor(chordal_sweep):
    assert chordal_sweep.kernel == "riesz-chordal:s=1"
    assert chordal_sweep.verdict == "consistent-with-all-spaces-PD"
    assert chordal_sweep.witness is None


def test_all_spaces_refuses_a_non_integrable_alpha_before_certifying(monkeypatch):
    """s = 3 is integrable at alpha = 4 (D = 10) but not at alpha = 0.5
    (D = 3): the sweep refuses before it certifies the first alpha."""
    calls = []
    monkeypatch.setattr(posdef, "certify_coefficients", lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match="integrab"):
        all_spaces_check("riesz-chordal:s=3", beta=-0.5, alpha_list=(4.0, 0.5), N=2)
    assert calls == []


# ---------------------------------------------------------------------------
# table1


def test_table1_rows():
    res = table1(N=10, digits=40)
    assert [r[0] for r in res.rows] == ["RP2", "RP3", "RP4", "CP2", "CP3", "HP2", "OP2"]
    rows = {r[0]: r for r in res.rows}
    for name in ("RP2", "RP3", "CP2"):
        assert rows[name][3] is None
        assert rows[name][4] == "consistent-with-PD"
    assert rows["RP4"][3] == 8
    assert rows["RP4"][4] == "not-CPD"
    assert rows["CP3"][3] == 6
    assert rows["HP2"][3] == 10
    assert rows["OP2"][3] == 6
    csv = res.to_csv()
    assert csv.splitlines()[0] == "space,alpha,beta,first_negative_n,verdict"
    assert "RP4,1,-0.5,8,not-CPD" in csv
    d = res.to_json_dict()
    json.dumps(d)
    assert d["rows"][3]["space"] == "CP2"


@pytest.mark.parametrize("N", (0, -1))
@pytest.mark.parametrize("driver", [
    lambda N: table1(N=N, digits=20),
    lambda N: scan_riesz(RP2, "geodesic", -0.7, -0.5, step=0.1, N=N, digits=20),
], ids=["table1", "scan_riesz"])
def test_cpd_drivers_refuse_N_below_1_before_certifying(monkeypatch, driver, N):
    """A cpd verdict reads n >= 1 only: the library drivers name N and run
    no certification."""
    calls = []
    monkeypatch.setattr(posdef, "certify_coefficients", lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match=f"N must be >= 1 .* N = {N}$"):
        driver(N)
    assert calls == []


# ---------------------------------------------------------------------------
# the sign-first ladder of scan_riesz and table1

# the argvs of the benchmark's scan and table1 jobs
BENCH_SCAN = ["scan", "--space", "RP2", "--kernel", "riesz-geodesic", "--s-min", "-0.7",
              "--s-max", "-0.5", "--step", "0.1", "--bisect", "0.05", "--nmax", "16",
              "--digits", "20"]
BENCH_TABLE1 = ["table1", "--nmax", "10", "--digits", "30"]


def _recorded_reports(monkeypatch) -> list:
    """Every report the posdef drivers certify from here on, in order."""
    reports = []
    certify = posdef.certify_coefficients

    def recording(*args, **kwargs):
        reports.append(certify(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(posdef, "certify_coefficients", recording)
    return reports


@pytest.mark.parametrize("argv", [BENCH_SCAN, BENCH_TABLE1], ids=["scan", "table1"])
def test_bench_verdicts_decide_on_the_sign_rung(monkeypatch, capsys, argv):
    """Every certification of the benchmark's scan and table1 jobs decides
    every sign on the 12-digit rung."""
    reports = _recorded_reports(monkeypatch)
    assert cli.main(argv) == 0
    assert len(reports) >= 4
    assert [r.digits() for r in reports] == [12] * len(reports)


# the sign-first ladder at each --digits: the 12-digit rung, then the rungs
# of the ladder above it
SIGN_LADDERS = {5: (12, 25, 45), 11: (12, 31, 51), 12: (12, 32, 52), 13: (12, 13, 33, 53)}


@pytest.mark.parametrize("digits", (5, 11, 12, 13))
def test_sign_rung_runs_only_below_the_target(monkeypatch, digits):
    """The sign-first ladder starts at 12 digits whatever --digits is: below
    12 the 12-digit rung replaces the target's own, above it runs first.
    Every DE rung table1 runs is on it."""
    ladder = (digits, digits + 20, digits + 40)
    assert transform._precision_ladder(digits) == ladder
    assert transform._precision_ladder(digits, signs_only=True) == SIGN_LADDERS[digits]
    rungs = []
    de = transform.coefficients_de

    def recording(space, kernel, N, digits):
        rungs.append(digits)
        return de(space, kernel, N, digits=digits)

    monkeypatch.setattr(transform, "coefficients_de", recording)
    table1(N=4, digits=digits)
    assert len(rungs) >= 7
    assert set(rungs) <= set(transform._precision_ladder(digits, signs_only=True))
    assert min(rungs) == 12


def test_an_undecided_sign_rung_climbs_to_digits(monkeypatch):
    """With a 5-digit first rung every table1 sign at N = 10 stays undecided
    there, so each certification climbs to --digits, and the rows are those
    of the 12-digit rung."""
    rows = table1(N=10, digits=30).rows
    monkeypatch.setattr(transform, "_SIGN_DIGITS", 5)
    climbed = table1(N=10, digits=30)
    assert climbed.rows == rows
    assert [r.digits() for r in climbed.reports.values()] == [30] * len(rows)


_SIGN_KERNELS = st.one_of(
    st.integers(-170, 130).map(lambda k: f"riesz-geodesic:s={k / 100}"),
    st.just("log-geodesic"),
    st.floats(0.25, 4.0).map(lambda lam: f"gauss-geodesic:lambda={round(lam, 2)}"),
    st.just("product(riesz-geodesic:s=-0.6,gauss-geodesic:lambda=1)"),
)


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(CATALOG), text=_SIGN_KERNELS, N=st.integers(1, 24),
       digits=st.integers(13, 30))
def test_sign_first_ladder_keeps_the_verdict(name, text, N, digits):
    """Whenever both ladders decide, the sign-first ladder gives the full
    ladder's verdict in both modes; every sign decided on a lower rung comes
    from an interval that holds the value of the full ladder's rung."""
    sp = make_space(name)
    kernel = parse_kernel(text, sp)
    low = certify_coefficients(sp, kernel, N=N, target_digits=digits, signs_only=True)
    full = certify_coefficients(sp, kernel, N=N, target_digits=digits)
    for mode in ("pd", "cpd"):
        verdicts = {classify(low, mode).classification, classify(full, mode).classification}
        assert len(verdicts) == 1 or "undecided" in verdicts, (mode, verdicts)
    if low.digits() < full.digits():
        with mp.workdps(2 * full.digits()):
            for e, f in zip(low.entries, full.entries):
                if e.sign in ("+", "-"):
                    assert abs(e.value - f.value) <= e.error, e.n


def test_package_resolves_posdef_names_on_demand():
    import zonalpd
    from zonalpd import posdef

    for name in ("PDVerdict", "ScanResult", "classify", "scan_riesz",
                 "all_spaces_check", "table1"):
        assert name in zonalpd.__all__
        assert getattr(zonalpd, name) is getattr(posdef, name)
