import json
import math
import sys
import time

import mpmath as mp
import numpy as np
import pytest

from conftest import riesz_chordal_exact, synthetic_report
from zonalpd.jacobi import dim_m_n, jacobi_eval, jacobi_eval_all, jacobi_value_at_one
from zonalpd.kernels import (
    cos_power_kernel,
    gaussian_kernel,
    jacobi_unit_kernel,
    parse_kernel,
    riesz_chordal,
    riesz_geodesic,
)
from zonalpd.spaces import make_space
from zonalpd.transform import (
    CoefficientReport,
    Hyp2F1Args,
    certify_coefficients,
    coefficients_de,
    coefficients_gj,
    hyp2f1,
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
    assert hyp2f1(Hyp2F1Args(0.3, 1.7, 2.2, 0.0)) == 1.0
    for z in (0.1, 0.5, 0.9):
        assert hyp2f1(Hyp2F1Args(1.25, 0.7, 0.7, z)) == pytest.approx(
            (1 - z) ** -1.25, rel=1e-12
        )
    assert hyp2f1(Hyp2F1Args(1, 1, 2, 0.5)) == pytest.approx(2 * math.log(2), rel=1e-12)
    with pytest.raises(ValueError):
        hyp2f1(Hyp2F1Args(1, 1, 2, 1.0))
    with pytest.raises(ValueError):
        hyp2f1(Hyp2F1Args(1, 1, -2.0, 0.5))


def test_hyp2f1_against_mpmath():
    rng = np.random.default_rng(4)
    for _ in range(40):
        a, b = rng.uniform(-2, 4, size=2)
        c = rng.uniform(0.5, 5)
        z = rng.uniform(0, 0.99)
        want = float(mp.hyp2f1(a, b, c, z))
        assert hyp2f1(Hyp2F1Args(a, b, c, z)) == pytest.approx(want, rel=1e-11, abs=1e-11)


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

    rule = gauss_jacobi_rule(sp, 60)
    w = np.asarray(rule.weights) / rule.total_mass()
    vals = [
        poisson_kernel(sp, r, math.acos(t) / (2 * sp.kappa)) for t in rule.nodes
    ]
    assert float(np.dot(w, vals)) == pytest.approx(1.0, abs=1e-10)


def test_poisson_series_closed_mutual(subtests=None):
    for params in ((0.0, 0.0), (1.0, 0.0), (3.0, 1.0), (7.0, 3.0), (1.0, -0.5)):
        for r in (0.3, 0.5, 0.9):
            for theta in np.linspace(0.05, math.pi / 2 - 0.05, 7):
                a = poisson_kernel(params, r, theta, method="closed")
                b = poisson_kernel(params, r, theta, method="series")
                assert a == pytest.approx(b, abs=1e-10 * max(1, abs(a)))


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
    coeffs = transform._recurrence_coeffs

    def counted(*args):
        calls.append(args)
        return coeffs(*args)

    monkeypatch.setattr(transform, "_recurrence_coeffs", counted)
    with pytest.raises(RuntimeError, match="did not converge in 200000 terms"):
        poisson_kernel(RP2, 0.9999999, 0.0, method="series")
    assert calls == []
    # a series that converges within the cap still runs the recurrence
    poisson_kernel(RP2, 0.5, 0.3, method="series")
    assert calls


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
    text = rep.to_json()
    back = CoefficientReport.from_json(text)
    assert back.N == rep.N
    assert back.kernel == rep.kernel
    assert [e.sign for e in back.entries] == [e.sign for e in rep.entries]
    # decimal strings preserve extended precision beyond float64
    with mp.workdps(40):
        for a, b in zip(rep.entries, back.entries):
            assert abs(a.value - b.value) < mp.mpf("1e-25")
    d = json.loads(text)
    assert {"space", "kernel", "N", "entries", "method", "levels"} <= set(d)


def test_reports_deterministic():
    a = coefficients_de(CP2, riesz_geodesic(CP2, 0.5), N=6, digits=25).to_json()
    b = coefficients_de(CP2, riesz_geodesic(CP2, 0.5), N=6, digits=25).to_json()
    assert a == b


def test_non_integrable_rejected():
    ker = riesz_chordal(make_space("S4"), 3.0)  # sigma = 1.5 >= alpha+1 on S2
    with pytest.raises(ValueError):
        coefficients_de(S2, ker, N=4)
    with pytest.raises(ValueError):
        coefficients_gj(S2, ker, N=4)


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


def test_certify_without_scipy(monkeypatch):
    """scipy is a test extra only: certification must not import it."""
    # an already imported submodule would be found without its parent
    for mod in ["scipy"] + [m for m in sys.modules if m.startswith("scipy.")]:
        monkeypatch.setitem(sys.modules, mod, None)
    rep = certify_coefficients(CP2, riesz_chordal(CP2, 1.0), N=4, target_digits=20)
    assert rep.method == "both"
    assert all(e.sign == "+" for e in rep.entries)
