import dataclasses
import json
import math
import sys
import time
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import CATALOG, exact_fraction, riesz_chordal_exact, synthetic_report
from zonalpd import transform
from zonalpd.jacobi import dim_m_n, jacobi_eval, jacobi_eval_all, jacobi_value_at_one
from zonalpd.kernels import (
    cos_power_kernel,
    gaussian_kernel,
    jacobi_unit_kernel,
    linear_combination,
    parse_kernel,
    riesz_chordal,
    riesz_geodesic,
)
from zonalpd.spaces import make_space
from zonalpd.transform import (
    CoefficientReport,
    _hyp2f1,
    certify_coefficients,
    coefficients_de,
    coefficients_exact,
    coefficients_gj,
    poisson_kernel,
    synthesize,
)

S2 = make_space("S2")
RP2 = make_space("RP2")
CP2 = make_space("CP2")


def test_constant_kernel_coefficients():
    rep = coefficients_de(S2, cos_power_kernel(0), N=6, digits=25)
    assert float(rep.entries[0].value) == pytest.approx(1.0, abs=1e-20)
    for e in rep.entries[1:]:
        assert abs(e.value) < 1e-20
        assert e.sign == "0"


@pytest.mark.parametrize("space,k", [(CP2, 3), (RP2, 2)])
def test_jacobi_unit_is_delta(space, k):
    rep = coefficients_de(space, jacobi_unit_kernel(space, k), N=6, digits=25)
    for e in rep.entries:
        if e.n == k:
            assert abs(e.value - 1) < 1e-12
        else:
            assert abs(e.value) < 1e-12


def test_chordal_s1_sphere_is_two():
    """1/chi on S^2 has every coefficient equal to 2 (generating function)."""
    rep = certify_coefficients(S2, riesz_chordal(S2, 1.0), N=20, target_digits=30)
    for e in rep.entries:
        assert abs(e.value - 2) < 1e-10
        assert e.sign == "+"


def test_gj_polynomial_degree_cutoff():
    rep = coefficients_gj(CP2, cos_power_kernel(2), N=8, digits=25)
    for e in rep.entries:
        if e.n >= 3:
            assert abs(e.value) < 1e-14
            assert e.sign == "0"


def test_de_gj_cross_agreement_cp2():
    ker = riesz_geodesic(CP2, 1.0)
    de = coefficients_de(CP2, ker, N=16, digits=30)
    gj = coefficients_gj(CP2, ker, N=16, digits=30)
    for a, b in zip(de.entries, gj.entries):
        assert abs(a.value - b.value) < 1e-9
        assert abs(a.value - b.value) <= a.error + b.error


def test_certify_folds_cross_error():
    ker = riesz_geodesic(CP2, 0.5)
    rep = certify_coefficients(CP2, ker, N=8, target_digits=25)
    de = coefficients_de(CP2, ker, N=8, digits=rep.digits())
    gj = coefficients_gj(CP2, ker, N=8, digits=rep.digits())
    for e, a, b in zip(rep.entries, de.entries, gj.entries):
        assert e.error >= abs(a.value - b.value)


def test_certify_table_anchors():
    rep = certify_coefficients(RP2, parse_kernel("log-geodesic", RP2), N=32, target_digits=40)
    assert all(e.sign == "+" for e in rep.entries)

    rp4 = make_space("RP4")
    rep = certify_coefficients(rp4, parse_kernel("log-geodesic", rp4), N=10, target_digits=40)
    assert rep.entry(8).sign == "-"

    hp2 = make_space("HP2")
    rep = certify_coefficients(hp2, parse_kernel("log-geodesic", hp2), N=12, target_digits=40)
    assert rep.entry(10).sign == "-"


def test_geodesic_minus_one_structural_zeros():
    rep = certify_coefficients(S2, riesz_geodesic(S2, -1.0), N=10, target_digits=25)
    for e in rep.entries[1:]:
        assert e.sign == ("0" if e.n % 2 == 0 else "+")
    # on RP2 the same kernel has genuinely negative even coefficients
    rep = certify_coefficients(RP2, riesz_geodesic(RP2, -1.0), N=6, target_digits=25)
    assert rep.entry(2).sign == "-"


def test_synthesize_single_term():
    rep = certify_coefficients(CP2, jacobi_unit_kernel(CP2, 2), N=6, target_digits=25)
    assert synthesize(rep, 0.5, 1.0) == pytest.approx(jacobi_eval(CP2, 2, 0.5), rel=1e-12)
    assert synthesize(rep, 0.5, 0.0) == pytest.approx(float(rep.entries[0].value), abs=1e-12)


def test_synthesize_generating_function():
    # hat F(n) = r^n on the sphere sums to (1 - 2rt + r^2)^(-1/2)
    N = 400
    r, t = 0.9, 0.0
    rep = synthetic_report("S2", [1.0] * (N + 1))
    got = synthesize(rep, t, r)
    assert got == pytest.approx(1 / math.sqrt(1 - 2 * r * t + r * r), rel=1e-12)
    # doubled coefficients: the 1/chi expansion at r < 1
    rep2 = synthetic_report("S2", [2.0] * (N + 1))
    assert synthesize(rep2, 0.0, 0.9) == pytest.approx(2 / math.sqrt(1.81), rel=1e-12)


def test_synthesize_r1_divergence_guard():
    rep = synthetic_report("S2", [2.0] * 50)  # constant coefficients: divergent at r=1
    with pytest.raises(ValueError):
        synthesize(rep, 0.3, 1.0)


def test_hyp2f1_basics():
    assert _hyp2f1(0.3, 1.7, 2.2, 0.0, 25) == 1.0
    for z in (0.1, 0.5, 0.9):
        assert _hyp2f1(1.25, 0.7, 0.7, z, 25) == pytest.approx(
            (1 - z) ** -1.25, rel=1e-12
        )
    assert _hyp2f1(1, 1, 2, 0.5, 25) == pytest.approx(2 * math.log(2), rel=1e-12)
    with pytest.raises(ValueError):
        _hyp2f1(1, 1, 2, 1.0, 25)


def test_hyp2f1_against_mpmath():
    rng = np.random.default_rng(4)
    for _ in range(40):
        a, b = rng.uniform(-2, 4, size=2)
        c = rng.uniform(0.5, 5)
        z = rng.uniform(0, 0.99)
        want = float(mp.hyp2f1(a, b, c, z))
        assert _hyp2f1(a, b, c, z, 25) == pytest.approx(want, rel=1e-11, abs=1e-11)


def test_poisson_kernel_basics():
    assert poisson_kernel(CP2, 0.0, 0.7) == 1.0
    with pytest.raises(ValueError):
        poisson_kernel(CP2, 1.0, 0.3)
    v1 = poisson_kernel((1.0, 0.0), 0.5, math.pi / 4, method="closed")
    v2 = poisson_kernel((1.0, 0.0), 0.5, math.pi / 4, method="series")
    assert v1 == pytest.approx(v2, abs=1e-10)


@pytest.mark.parametrize("name", ("S2", "RP2", "CP2", "HP2"))
@pytest.mark.parametrize("r", (0.3, 0.7))
def test_poisson_unit_mass(name, r):
    """The smoothing kernel integrates to 1: only the n = 0 term survives."""
    sp = make_space(name)
    from zonalpd.jacobi import gauss_jacobi_rule

    nodes, w = gauss_jacobi_rule(sp, 60)
    w = w / w.sum()
    vals = [
        poisson_kernel(sp, r, math.acos(t) / (2 * sp.kappa)) for t in nodes
    ]
    assert float(np.dot(w, vals)) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("r", (0.9999999, 1 - 2**-53))
@pytest.mark.parametrize("digits", (5, 15, 20, 30))
def test_poisson_closed_form_near_r_one_at_low_digits(digits, r):
    """1 - z of the closed form is a few ulps of z near r = 1 and theta = 0:
    the value `poisson --digits` prints as closed holds (1+3r)/(1-r)^2 on
    RP2 at every precision."""
    got = poisson_kernel(make_space("RP2"), r, 0.0, method="closed", digits=digits)
    with mp.workdps(60):
        want = (1 + 3 * mp.mpf(r)) / (1 - mp.mpf(r)) ** 2
        assert abs(got / want - 1) <= 1e-9


def test_poisson_series_closed_mutual(subtests=None):
    for params in ((0.0, 0.0), (1.0, 0.0), (3.0, 1.0), (7.0, 3.0), (1.0, -0.5)):
        for r in (0.3, 0.5, 0.9):
            for theta in np.linspace(0.05, math.pi / 2 - 0.05, 7):
                a = poisson_kernel(params, r, theta, method="closed")
                b = poisson_kernel(params, r, theta, method="series")
                assert a == pytest.approx(b, abs=1e-10 * max(1, abs(a)))


@pytest.mark.parametrize("name", ("S1", "RP1"))
@pytest.mark.parametrize("r", (0.3, 0.9))
def test_poisson_circle_closed_and_series(name, r):
    """On the circle (alpha = beta = -1/2) both forms equal the classical
    Poisson kernel (1 - r^2) / (1 - 2 r cos 2 kappa theta + r^2); the series
    used to divide by alpha + beta + 1 = 0."""
    sp = make_space(name)
    for theta in (0.0, 0.4 * sp.diameter, sp.diameter):
        want = (1 - r * r) / (1 - 2 * r * math.cos(2 * sp.kappa * theta) + r * r)
        for method in ("closed", "series"):
            got = poisson_kernel(sp, r, theta, method=method)
            assert got == pytest.approx(want, rel=1e-12), (method, theta)


def test_poisson_closed_near_z_one():
    """r = 0.99 puts z within 3e-5 of 1, where summing the 2F1 series would
    take millions of terms; the closed form must still answer, fast."""
    t0 = time.perf_counter()
    closed = poisson_kernel(RP2, 0.99, 0.0, method="closed")
    elapsed = time.perf_counter() - t0
    series = poisson_kernel(RP2, 0.99, 0.0, method="series")
    assert closed == pytest.approx(series, abs=1e-9 * max(1, abs(series)))
    assert elapsed < 1.0


def test_poisson_closed_at_r_near_one():
    """At theta = 0 the RP2 Poisson kernel is (1+3r)/(1-r)^2; with r one
    step of 1e-7 from 1, z must be formed beyond float64 to get it right."""
    r = 0.9999999
    want = (1 + 3 * r) / (1 - r) ** 2
    assert poisson_kernel(RP2, r, 0.0, method="closed") == pytest.approx(want, rel=1e-9)


def test_poisson_series_raises_at_term_cap(monkeypatch):
    import zonalpd.transform as transform

    assert poisson_kernel(RP2, 0.99, 0.3, method="series") == pytest.approx(
        poisson_kernel(RP2, 0.99, 0.3, method="closed"), rel=1e-9
    )
    monkeypatch.setattr(transform, "POISSON_SERIES_MAX_TERMS", 100)
    assert poisson_kernel(RP2, 0.3, 0.3, method="series") == pytest.approx(
        poisson_kernel(RP2, 0.3, 0.3, method="closed"), rel=1e-12
    )
    with pytest.raises(RuntimeError, match="100 terms"):
        poisson_kernel(RP2, 0.9, 0.3, method="series")


def test_poisson_series_refuses_before_summing(monkeypatch):
    """RP2 at theta = 0 and r one step of 1e-7 from 1 needs far more terms
    than the cap; the series must say so before one recurrence step."""
    import zonalpd.transform as transform

    calls = []
    steps = transform._jacobi_steps

    def counted(*args):
        calls.append(args)
        return steps(*args)

    monkeypatch.setattr(transform, "_jacobi_steps", counted)
    with pytest.raises(RuntimeError, match="did not converge in 200000 terms"):
        poisson_kernel(RP2, 0.9999999, 0.0, method="series")
    assert calls == []
    # a series that converges within the cap still runs the recurrence
    poisson_kernel(RP2, 0.5, 0.3, method="series")
    assert calls


class _Summing(Exception):
    pass


@pytest.mark.parametrize("r,digits,sums", [
    (0.9999999, 5, False), (1 - 2.0**-53, 5, False), (0.9999, 30, False),
    (0.9999, 5, True),
])
def test_poisson_series_prescan(monkeypatch, r, digits, sums):
    """The pre-scan refuses exactly when no n up to the cap can meet the
    stopping test: r = 0.9999 converges within the cap at 5 digits, so it
    reaches the recurrence, but not at 30."""
    import zonalpd.transform as transform

    def summing(*args):
        raise _Summing

    monkeypatch.setattr(transform, "_jacobi_steps", summing)
    with pytest.raises(_Summing if sums else RuntimeError):
        poisson_kernel(RP2, r, 0.0, method="series", digits=digits)


def triple_quadrature_energy(kernel, n, m=80, n_phi=256):
    """E pairing of F with P_n(t(x,z)) P_n(t(y,z)) on S^2 by direct 3-fold quadrature."""
    x, w = np.polynomial.legendre.leggauss(m)
    P = np.array([jacobi_eval(S2, n, xi) for xi in x])
    tx, ty = np.meshgrid(x, x, indexing="ij")
    sx = np.sqrt(1 - tx**2) * np.sqrt(1 - ty**2)
    acc = 0.0
    for p in (np.arange(n_phi) + 0.5) * (2 * np.pi / n_phi):
        txy = np.clip(tx * ty + sx * np.cos(p), -1.0, 1.0)
        acc += float((kernel.f_t(txy) * np.outer(P * w, P * w)).sum())
    return acc / n_phi / 4  # two sigma densities of 1/2


@pytest.mark.parametrize("text", ["gauss-chordal:lambda=1", "cospow:n=3"])
def test_coefficient_energy_identity(text):
    # hat F(n) = (m_n^2 / P_n(1)^3) * E_F(mu_n) with mu_n the P_n-weighted
    # signed measure; the right side is an independent 3-fold quadrature
    ker = parse_kernel(text, S2)
    rep = coefficients_de(S2, ker, N=8, digits=30)
    for n in range(1, 9):
        e = triple_quadrature_energy(ker, n)
        mn = dim_m_n(S2, n)
        fhat = e * mn**2 / jacobi_value_at_one(S2, n) ** 3
        assert fhat == pytest.approx(float(rep.entries[n].value), abs=1e-9)


def test_poisson_smoothing_positivity_and_monotonicity():
    rep = certify_coefficients(CP2, gaussian_kernel(CP2, "chordal", 1.0), N=16, target_digits=25)
    assert all(e.sign == "+" for e in rep.entries)
    for t in np.linspace(-1, 1, 41):
        assert synthesize(rep, float(t), 0.9) >= -1e-12
    # sum of hat F(n) r^n P_n(1) grows with r for nonnegative coefficients
    vals = [synthesize(rep, 1.0, r) for r in np.arange(0.1, 0.95, 0.1)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_report_json_round_trip():
    rep = certify_coefficients(S2, riesz_chordal(S2, 1.0), N=4, target_digits=30)
    text = json.dumps(rep.to_json_dict(), indent=2)
    back = CoefficientReport.from_json_dict(json.loads(text))
    assert back.N == rep.N
    assert back.kernel == rep.kernel
    assert [e.sign for e in back.entries] == [e.sign for e in rep.entries]
    # decimal strings preserve extended precision beyond float64
    with mp.workdps(40):
        for a, b in zip(rep.entries, back.entries):
            assert abs(a.value - b.value) < mp.mpf("1e-25")
    d = json.loads(text)
    assert {"space", "kernel", "N", "entries", "method", "levels"} <= set(d)


def test_report_json_round_trip_keeps_printed_digits():
    # none of these values is a short binary fraction: read at 53 bits they
    # would move by up to 5e-17, far outside errors of 1e-33 to 1e-28
    rep = certify_coefficients(RP2, riesz_geodesic(RP2, -0.6), N=6, target_digits=30)
    doc = json.loads(json.dumps(rep.to_json_dict()))
    back = CoefficientReport.from_json_dict(doc)
    with mp.workdps(60):
        for e, b in zip(doc["entries"], back.entries):
            assert abs(b.value - mp.mpf(e["value"])) < mp.mpf("1e-40")
            assert b.error >= mp.mpf(e["error"])


def test_report_reader_refuses_an_unknown_sign():
    # read back as an unknown sign, the `-` at n = 8 would let `classify`
    # call this not-CPD kernel strictly-CPD-only
    rp4 = make_space("RP4")
    rep = certify_coefficients(rp4, parse_kernel("log-geodesic", rp4), N=10, target_digits=30)
    doc = rep.to_json_dict()
    assert doc["entries"][8]["sign"] == "-"
    doc["entries"][8]["sign"] = "negative"
    with pytest.raises(ValueError, match="negative"):
        CoefficientReport.from_json_dict(doc)


@pytest.mark.parametrize("n, key, text, ok", [
    (2, "sign", "0", False),  # a `0` is checked like any other sign
    (2, "error", "1e-21", True),  # a wider error that still decides keeps the sign
    (2, "sign", "undecided", False),
    (2, "sign", "-", False),
    (2, "error", "-1e-40", False),
    (2, "value", "nan", False),
    (2, "n", "2.0", False),
    (0, "sign", "+", False),
])
def test_report_reader_checks_signs_on_printed_decimals(n, key, text, ok):
    doc = certify_coefficients(RP2, riesz_geodesic(RP2, -0.6), N=3, target_digits=20).to_json_dict()
    assert [e["sign"] for e in doc["entries"]] == ["-", "+", "+", "+"]
    doc["entries"][n][key] = text
    if ok:
        CoefficientReport.from_json_dict(doc)
    else:
        with pytest.raises(ValueError):
            CoefficientReport.from_json_dict(doc)


def test_sign_rule_negates_the_error_exactly():
    """`-` needs value < -error exactly.  An error with more bits than the
    ambient 53 is negated without rounding, so minus the error itself stays
    undecided.  The reader reads value and error at one precision, so an
    interval whose printed value is plus or minus its printed error, written
    to different lengths, is undecided too."""
    kernel = riesz_geodesic(RP2, -0.6)
    with mp.workprec(200):
        error = 1 + mp.mpf(2) ** -80
        value = -error
    assert transform._sign_for(value, error, 1, kernel, RP2) == "undecided"
    doc = certify_coefficients(RP2, kernel, N=3, target_digits=20).to_json_dict()
    for text, sign in (("-7e-199", "-"), ("7e-199", "+")):
        doc["entries"][1].update(value=text, error="7." + "0" * 20 + "e-199", sign=sign)
        with pytest.raises(ValueError, match="entry 1"):
            CoefficientReport.from_json_dict(doc)
        doc["entries"][1]["sign"] = "undecided"
        CoefficientReport.from_json_dict(doc)


def test_report_reader_refuses_a_forged_zero():
    """A `0` on an interval that decides `+` is refused: read back, it would
    turn this kernel's strictly-CPD-only verdict into CPD-not-strict."""
    from zonalpd.posdef import classify

    doc = certify_coefficients(RP2, riesz_geodesic(RP2, -0.6), N=6, target_digits=20).to_json_dict()
    back = CoefficientReport.from_json_dict(doc)
    assert classify(back, mode="cpd").classification == "strictly-CPD-only"
    assert doc["entries"][3]["sign"] == "+"
    doc["entries"][3]["sign"] = "0"
    with pytest.raises(ValueError, match="entry 3: sign '0'"):
        CoefficientReport.from_json_dict(doc)


@pytest.mark.parametrize("space, text", [
    ("RP2", "no-such-kernel"), ("S2", "riesz-geodesic:s=9"),
], ids=["unparsable", "not-integrable-on-S2"])
def test_report_reader_refuses_a_kernel_its_space_cannot_build(space, text):
    """The reader parses the report's own kernel on its space, as the signs
    it checks depend on the kernel's degree and parity."""
    sp = make_space(space)
    doc = certify_coefficients(sp, riesz_geodesic(sp, -0.6), N=2, target_digits=15).to_json_dict()
    CoefficientReport.from_json_dict(doc)
    doc["kernel"] = text
    with pytest.raises(ValueError):
        CoefficientReport.from_json_dict(doc)


@pytest.mark.parametrize("make", [
    lambda sp=make_space("HP2"): certify_coefficients(sp, riesz_chordal(sp, 0.7), N=2,
                                                      target_digits=15),
    lambda: certify_coefficients(RP2, parse_kernel("log-geodesic", RP2), N=2, target_digits=15),
    lambda: coefficients_de(RP2, riesz_geodesic(RP2, -0.6), N=2, digits=15),
    lambda: coefficients_gj(RP2, riesz_geodesic(RP2, -0.6), N=2, digits=15),
    lambda: certify_coefficients(RP2, riesz_geodesic(RP2, -0.6), N=2, target_digits=15),
], ids=["exact", "certified-de", "de", "gj", "both"])
def test_report_reader_takes_only_the_levels_its_method_writes(make):
    """Each producer writes exactly the `levels` keys of its method in
    `_LEVELS`, and the reader refuses every other key."""
    doc = make().to_json_dict()
    written = transform._LEVELS[doc["method"]]
    assert sorted(doc["levels"]) == sorted(written)
    CoefficientReport.from_json_dict(doc)
    for key in {k for keys in transform._LEVELS.values() for k in keys} - set(written):
        with pytest.raises(ValueError, match=key):
            CoefficientReport.from_json_dict({**doc, "levels": {**doc["levels"], key: 1}})


def test_refused_product_forms_no_pair_products(monkeypatch):
    """product(cospow:n=20,cospow:n=20) loses about 12 digits, over the
    exact route's 10: it is refused on the factors' bounds, before any pair
    of their terms is multiplied (their term tables cannot be read here)."""
    class Unread(dict):
        def items(self):
            raise AssertionError("a pair product was formed")

    power_terms = transform._power_terms

    def sealed(kernel):
        out = power_terms(kernel)
        return out if out is None or kernel.family == "product" else (Unread(out[0]), out[1])

    monkeypatch.setattr(transform, "_power_terms", sealed)
    assert transform._power_terms(parse_kernel("product(cospow:n=20,cospow:n=20)", S2)) is None
    assert transform._route(parse_kernel("product(cospow:n=20,cospow:n=20)", S2))[0] == "both"


def test_reports_deterministic():
    a = json.dumps(coefficients_de(CP2, riesz_geodesic(CP2, 0.5), N=6, digits=25).to_json_dict(),
                   indent=2)
    b = json.dumps(coefficients_de(CP2, riesz_geodesic(CP2, 0.5), N=6, digits=25).to_json_dict(),
                   indent=2)
    assert a == b


def test_non_integrable_rejected():
    ker = riesz_chordal(make_space("S4"), 3.0)  # sigma = 1.5 >= alpha+1 on S2
    with pytest.raises(ValueError):
        coefficients_de(S2, ker, N=4)
    with pytest.raises(ValueError):
        coefficients_gj(S2, ker, N=4)


def test_nested_product_uses_its_net_exponent():
    # chi^-2.5 * chi^-2.5 * (-chi^2) = -chi^-3: the exponents add to 1.5 <
    # alpha + 1 = 2 on RP4, although the two singular factors alone sum to 2.5
    rp4 = make_space("RP4")
    text = "product(product(riesz-chordal:s=2.5,riesz-chordal:s=2.5),riesz-chordal:s=-2)"
    ker = parse_kernel(text, rp4)
    assert ker.gj_shift == ker.sing_exponent == 1.5 and ker.integrable_on(rp4)
    rep = certify_coefficients(rp4, ker, N=6, target_digits=30)
    ref = certify_coefficients(rp4, riesz_chordal(rp4, 3.0), N=6, target_digits=30)
    for e, r in zip(rep.entries, ref.entries):
        assert e.sign == "-"
        assert abs(e.value + r.value) <= e.error + r.error


def test_gj_rejects_log_kernels():
    with pytest.raises(ValueError):
        coefficients_gj(S2, parse_kernel("log-chordal", S2), N=4)


def test_certified_intervals_contain_closed_form():
    """Non-dyadic exponents: every in-memory interval holds the exact value."""
    for name, s in (("HP2", 0.7), ("RP3", -0.6), ("S4", 1.3), ("OP2", 0.9)):
        sp = make_space(name)
        rep = certify_coefficients(sp, riesz_chordal(sp, s), N=8, target_digits=30)
        with mp.workdps(60):
            for e in rep.entries:
                exact = riesz_chordal_exact(sp, s, e.n)
                assert abs(e.value - exact) <= e.error, (name, s, e.n)


# the catalog, the circle (alpha + beta + 1 = 0) and a space off the catalog
_EXACT_SPACES = CATALOG + ("S1", "custom:alpha=2.5,beta=0.5,kappa=0.5")


def _non_dyadic(lo, hi):
    return st.floats(lo, hi).filter(lambda s: (s * 1024) % 1 != 0)


def _ends(x):
    """The endpoints of an `mpmath.iv` interval as mpf."""
    return tuple(map(mp.make_mpf, x._mpi_))


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(_EXACT_SPACES), s=_non_dyadic(-4.0, 5.9), N=st.integers(0, 64),
       dps=st.integers(15, 40))
def test_exact_intervals_contain_the_askey_oracle(name, s, N, dps):
    """Every interval of `coefficients_exact` holds the mpf Askey value of
    the test oracle, computed at 60 digits."""
    sp = make_space(name)
    assume(s < sp.dim_D)
    prec = mp.iv.prec
    mp.iv.dps = dps
    try:
        intervals = coefficients_exact(sp, riesz_chordal(sp, s), N)
    finally:
        mp.iv.prec = prec
    assert len(intervals) == N + 1
    with mp.workdps(60):
        for n, x in enumerate(intervals):
            lo, hi = _ends(x)
            assert lo <= riesz_chordal_exact(sp, s, n) <= hi, (name, s, n)


@settings(max_examples=15, deadline=None)
@given(name=st.sampled_from(_EXACT_SPACES), s=_non_dyadic(-4.0, 5.9), N=st.integers(0, 40),
       digits=st.integers(15, 25))
def test_each_quadrature_route_contains_the_exact_chordal_value(name, s, N, digits):
    """On riesz-chordal, which certification now takes exactly, each
    quadrature route on its own still holds the exact value within its own
    error estimate."""
    sp = make_space(name)
    assume(s < sp.dim_D)
    kernel = riesz_chordal(sp, s)
    for route in (coefficients_de, coefficients_gj):
        rep = route(sp, kernel, N, digits=digits)
        with mp.workdps(60):
            for e in rep.entries:
                assert abs(e.value - riesz_chordal_exact(sp, s, e.n)) <= e.error, (
                    route.__name__, name, s, e.n)


def test_exact_route_covers_the_chordal_algebra_only():
    """Finite sums of c x^mu get intervals; a log, gauss-* or geodesic kernel,
    or a product or lincomb holding one, gets None, and so does a sum whose
    rounding would cost more than the guard digits (cospow:n=34 on, a
    product of two cospow:n=20) or that has more than 64 terms."""
    # eight powers x^mu: a product of two has 36 distinct exponents, of three 99
    eight = "lincomb(" + "+".join(f"1*riesz-chordal:s={-0.1 * 2**k:g}" for k in range(8)) + ")"
    covered = ("riesz-chordal:s=-1.5", "cospow:n=3", "jacobi:n=2", "cospow:n=33",
               "product(riesz-chordal:s=0.5,cospow:n=2)",
               "lincomb(2*jacobi:n=1+-0.5*riesz-chordal:s=1.25)", f"product({eight},{eight})")
    other = ("log-chordal", "log-geodesic", "riesz-geodesic:s=0.5", "gauss-chordal:lambda=1",
             "gauss-geodesic:lambda=1", "product(cospow:n=1,gauss-chordal:lambda=1)",
             "lincomb(1*riesz-chordal:s=0.5+1*log-chordal)", "cospow:n=34", "jacobi:n=40",
             "product(cospow:n=20,cospow:n=20)", f"product({eight},product({eight},{eight}))")
    for text in covered:
        assert len(coefficients_exact(CP2, parse_kernel(text, CP2), 3)) == 4, text
    for text in other:
        assert coefficients_exact(CP2, parse_kernel(text, CP2), 3) is None, text


def test_exact_polynomial_kernels_are_their_own_expansions():
    """P_3 of CP2 has the coefficients (0, 0, 0, 1); cos^4(kappa theta) =
    ((1+t)/2)^2 on S2 is 1/3 P_0 + 1/2 P_1 + 1/6 P_2.  Each interval holds
    the exact value, and above the degree every interval is [0, 0]."""
    for sp, text, exact in ((CP2, "jacobi:n=3", (0, 0, 0, 1)),
                            (S2, "cospow:n=2", (Fraction(1, 3), Fraction(1, 2), Fraction(1, 6)))):
        intervals = coefficients_exact(sp, parse_kernel(text, sp), 5)
        for x, value in zip(intervals, exact):
            lo, hi = map(exact_fraction, _ends(x))
            assert lo <= value <= hi, (text, lo, hi)
        assert all(_ends(x) == (0, 0) for x in intervals[len(exact):])


@pytest.mark.parametrize("name,text,calls", [
    ("HP2", "riesz-chordal:s=0.7", ()),
    ("CP2", "product(riesz-chordal:s=0.5,cospow:n=2)", ()),
    ("RP2", "riesz-geodesic:s=-0.6", ("_de_sums", "gauss_jacobi_rule_mp")),
    ("S2", "log-chordal", ("_de_sums",)),
    ("S4", "gauss-chordal:lambda=0.5", ("_de_sums", "gauss_jacobi_rule_mp")),
    ("S2", "cospow:n=40", ("_de_sums", "gauss_jacobi_rule_mp")),
], ids=["riesz-chordal", "product", "riesz-geodesic", "log-chordal", "gauss-chordal",
        "cospow-over-the-guard-digits"])
def test_quadrature_runs_only_off_the_exact_route(monkeypatch, name, text, calls):
    """A covered kernel is certified without DE sums or a Gauss-Jacobi rule;
    every other kernel still runs the routes it ran before."""
    sp = make_space(name)
    kernel = parse_kernel(text, sp)
    for fn in ("_de_sums", "gauss_jacobi_rule_mp"):
        def refuse(*args, **kwargs):
            raise LookupError(fn)

        with monkeypatch.context() as m:
            m.setattr(transform, fn, refuse)
            if fn in calls:
                with pytest.raises(LookupError):
                    certify_coefficients(sp, kernel, N=4, target_digits=15)
            else:
                report = certify_coefficients(sp, kernel, N=4, target_digits=15)
                assert (report.method == "exact") == (not calls)


@pytest.mark.parametrize("name,text,rungs", [
    ("HP2", "riesz-chordal:s=0.7", 1),
    ("S2", "product(cospow:n=16,cospow:n=16)", 1),
    ("CP2", "jacobi:n=4", 3),
], ids=["riesz-chordal", "product", "undecided-on-every-rung"])
def test_certification_expands_its_kernel_once(monkeypatch, name, text, rungs):
    """`_route` expands an exact-route kernel, and every rung sums that one
    expansion: `_power_terms` sees the kernel once however many rungs run
    (the zeros of jacobi:n=4 below its degree stay undecided on all three)."""
    sp = make_space(name)
    kernel = parse_kernel(text, sp)
    seen = []
    power_terms = transform._power_terms

    def counted(k):
        seen.append(k)
        return power_terms(k)

    monkeypatch.setattr(transform, "_power_terms", counted)
    report = certify_coefficients(sp, kernel, N=5, target_digits=15)
    assert report.method == "exact"
    assert report.digits() == transform._precision_ladder(15)[rungs - 1]
    assert [k for k in seen if k is kernel] == [kernel]


def test_jacobi_leaf_is_expanded_with_its_own_parameters():
    """A jacobi leaf built on S2 is the Legendre P_3 wherever it is certified:
    on CP2 the exact route reports the coefficients of that P_3 (with 0.1
    added at n = 0, and a_2 = -3/7), as the DE route does, not those of
    CP2's own P_3, (0, 0, 0, 1)."""
    kernel = linear_combination([(1, jacobi_unit_kernel(S2, 3)), (0.1, cos_power_kernel(0))])
    exact = certify_coefficients(CP2, kernel, N=4, target_digits=15)
    de = coefficients_de(CP2, kernel, N=4, digits=15)
    assert exact.method == "exact"
    assert exact.signs() == ["+", "undecided", "-", "+", "0"]
    for e, d in zip(exact.entries, de.entries):
        assert abs(e.value - d.value) <= e.error + d.error, e.n
    a2 = exact.entries[2]
    assert abs(exact_fraction(a2.value) + Fraction(3, 7)) <= exact_fraction(a2.error)
    # a jacobi leaf whose (alpha, beta) is unknown is not expanded at all
    assert transform._power_terms(dataclasses.replace(jacobi_unit_kernel(S2, 3), ab=())) is None


def test_exact_route_never_expands_a_huge_power():
    """cospow and jacobi of degree 10^17 are refused by their degree alone,
    before a term is built: n log10 2 is a floor on the digits they lose."""
    for kernel in (cos_power_kernel(10**17), jacobi_unit_kernel(S2, 10**17)):
        assert transform._power_terms(kernel) is None
        assert coefficients_exact(S2, kernel, 2) is None


def test_cancelling_power_takes_the_quadrature_route():
    """cospow:n=250 on S2 at 15 digits would lose 75 digits to the binomial
    expansion of ((1+t)/2)^250 in x, more than a rung's guard digits, so it
    is certified by quadrature, whose intervals hold the exact
    a_n = (2n+1) 250!^2 / ((250-n)! (251+n)!)."""
    rep = certify_coefficients(S2, cos_power_kernel(250), N=2, target_digits=15)
    assert rep.method == "both"
    f = math.factorial
    for e in rep.entries:
        exact = Fraction((2 * e.n + 1) * f(250) ** 2, f(250 - e.n) * f(251 + e.n))
        assert abs(exact_fraction(e.value) - exact) <= exact_fraction(e.error), e.n


def test_certify_without_scipy(monkeypatch):
    """scipy is a test extra only: certification must not import it."""
    # an already imported submodule would be found without its parent
    for mod in ["scipy"] + [m for m in sys.modules if m.startswith("scipy.")]:
        monkeypatch.setitem(sys.modules, mod, None)
    rep = certify_coefficients(CP2, riesz_chordal(CP2, 1.0), N=4, target_digits=20)
    assert rep.method == "exact"
    assert all(e.sign == "+" for e in rep.entries)
    # and the quadrature route, which the chordal Riesz kernel no longer takes
    rep = certify_coefficients(CP2, riesz_geodesic(CP2, 1.0), N=4, target_digits=20)
    assert rep.method == "both"
