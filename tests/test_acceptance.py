"""End-to-end pins for the package's headline results.

Each test states the number it reproduces and the tolerance it is held to.
Sign statements are finite-degree certificates: a truncation bound N is part
of every claim, standing in for the all-n statements that no floating
computation can certify.
"""

import math
import time

import mpmath as mp
import numpy as np
import pytest

from conftest import funk_hecke_mc, integrate, jacobi_norm_sq, jacobi_normalized
from zonalpd.energy import (
    DiscreteMeasure,
    PerturbedMeasureSpec,
    energy_perturbed,
    energy_uniform,
)
from zonalpd.jacobi import (
    dim_m_n,
    gauss_jacobi_rule,
    jacobi_eval,
    jacobi_eval_all,
    jacobi_value_at_one,
)
from zonalpd.kernels import jacobi_unit_kernel, parse_kernel, riesz_chordal
from zonalpd.posdef import classify, scan_riesz, table1
from zonalpd.spaces import Point, make_rng, make_space, sample_uniform_points
from zonalpd.transform import (
    certify_coefficients,
    coefficients_de,
    coefficients_gj,
    poisson_kernel,
)

CATALOG = ("S2", "S4", "RP2", "RP3", "RP4", "CP2", "CP3", "HP2", "OP2")


# ---------------------------------------------------------------------------
# 1. the -log(theta) sign table on the small projective spaces


def test_log_kernel_sign_table():
    t0 = time.monotonic()
    res = table1(N=16, digits=50)
    elapsed = time.monotonic() - t0
    verdicts = {r[0]: r[4] for r in res.rows}

    for name in ("RP2", "RP3", "CP2"):
        rep = res.reports[name]
        assert all(rep.entry(n).sign == "+" for n in range(1, 17)), name
        assert verdicts[name] == "consistent-with-PD"

    # one certified negative coefficient disproves positive definiteness
    assert res.reports["RP4"].entry(8).sign == "-"
    assert res.reports["CP3"].entry(6).sign == "-"
    assert res.reports["HP2"].entry(10).sign == "-"
    assert res.reports["OP2"].entry(8).sign == "-"
    for name in ("RP4", "CP3", "HP2", "OP2"):
        assert verdicts[name] == "not-CPD"
    # the printed first negative degree of every row; on OP2, n = 8 is
    # negative as well, but n = 6 comes first
    first_negative = {"RP2": None, "RP3": None, "RP4": 8, "CP2": None,
                      "CP3": 6, "HP2": 10, "OP2": 6}
    assert {r[0]: r[3] for r in res.rows} == first_negative

    assert elapsed < 120, f"sign table took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. Riesz phase transition on the projective plane and 3-space


def test_riesz_transition_brackets():
    t0 = time.monotonic()

    rp2 = scan_riesz(make_space("RP2"), "geodesic", -0.9, -0.3, step=0.1,
                     N=48, bisect_tol=0.02, digits=30)
    lo, hi = rp2.bracket
    assert -0.64 <= lo <= -0.54
    assert -0.64 <= hi <= -0.54

    rp3 = scan_riesz(make_space("RP3"), "geodesic", -0.5, 0.0, step=0.125,
                     N=48, bisect_tol=0.125, digits=30)
    assert -0.175 <= rp3.cpd_onset <= -0.075

    elapsed = time.monotonic() - t0
    assert elapsed < 600, f"scans took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 3. chordal Riesz kernels certify nonnegative on every catalog space


@pytest.mark.parametrize("name", CATALOG)
def test_chordal_riesz_nonnegative(name):
    sp = make_space(name)
    for s in (-2.0, -1.0, 0.0, 1.0, min(sp.dim_D - 0.5, 4.0)):
        ker = riesz_chordal(sp, s)
        rep = certify_coefficients(sp, ker, N=32, target_digits=30)
        bad = [e.n for e in rep.entries if e.n >= 1 and e.sign not in ("+", "0")]
        assert not bad, f"{name} s={s}: uncertified signs at {bad}"


# ---------------------------------------------------------------------------
# 4. geodesic Riesz kernels: positive on the spheres, not on CP2


@pytest.mark.parametrize("name", ("S2", "S4"))
def test_geodesic_riesz_spheres_nonnegative(name):
    sp = make_space(name)
    for s in (-1.0, 0.0, 0.5, sp.dim_D - 0.1):
        rep = certify_coefficients(sp, parse_kernel(f"riesz-geodesic:s={s}", sp),
                                   N=16, target_digits=30)
        bad = [e.n for e in rep.entries if e.n >= 1 and e.sign not in ("+", "0")]
        assert not bad, f"{name} s={s}: uncertified signs at {bad}"


def test_geodesic_riesz_fails_on_cp2():
    sp = make_space("CP2")
    rep = certify_coefficients(sp, parse_kernel("riesz-geodesic:s=-1", sp),
                               N=16, target_digits=30)
    assert any(e.sign == "-" for e in rep.entries if e.n >= 1)


# ---------------------------------------------------------------------------
# 5. the inverse-chordal kernel on the sphere has all coefficients 2


def test_inverse_chordal_sphere_constants():
    sp = make_space("S2")
    ker = riesz_chordal(sp, 1.0)
    rep = certify_coefficients(sp, ker, N=20, target_digits=30)
    for e in rep.entries:
        assert abs(e.value - 2) < 1e-10, f"n={e.n}"
    assert abs(energy_uniform(sp, ker) - 2.0) < 1e-10


# ---------------------------------------------------------------------------
# 6. the two quadrature routes agree everywhere they both run


@pytest.mark.parametrize("name", CATALOG)
def test_quadrature_routes_agree(name):
    sp = make_space(name)
    for metric in ("geodesic", "chordal"):
        for s in (0.5, 1.0, 1.5):
            ker = parse_kernel(f"riesz-{metric}:s={s}", sp)
            de = coefficients_de(sp, ker, N=16, digits=30)
            gj = coefficients_gj(sp, ker, N=16, digits=30)
            for a, b in zip(de.entries, gj.entries):
                gap = abs(a.value - b.value)
                assert gap <= a.error + b.error, (metric, s, a.n)
                assert gap <= 1e-9, (metric, s, a.n)


# ---------------------------------------------------------------------------
# 7. the reproducing identity, checked by Monte Carlo


@pytest.mark.parametrize("name", ("S2", "RP2", "CP2", "HP2"))
def test_reproducing_identity_mc(name):
    sp = make_space(name)
    rng = make_rng(101)
    c = sample_uniform_points(sp, rng, 2)
    x, y = Point(sp, c[0]), Point(sp, c[1])
    for n in range(1, 9):
        out = funk_hecke_mc(sp, n, x, y, samples=10**6, seed=0)
        assert abs(out["lhs_mc"] - out["rhs"]) <= 3 * out["stderr"], (name, n)


def test_reproducing_identity_exact_values():
    sp = make_space("S2")
    north = Point(sp, np.array([0.0, 0.0, 1.0]))
    east = Point(sp, np.array([1.0, 0.0, 0.0]))
    out = funk_hecke_mc(sp, 1, north, east, samples=10**6, seed=0)
    assert out["rhs"] == 0.0
    assert abs(out["lhs_mc"]) <= 3 * out["stderr"]
    out = funk_hecke_mc(sp, 1, north, north, samples=10**6, seed=0)
    assert out["rhs"] == pytest.approx(1 / 3, rel=1e-14)
    assert abs(out["lhs_mc"] - 1 / 3) <= 3 * out["stderr"]


# ---------------------------------------------------------------------------
# 8. perturbed-measure energies: closed form against Monte Carlo


def test_perturbed_energy_sphere_exact():
    sp = make_space("S2")
    out = energy_perturbed(sp, jacobi_unit_kernel(sp, 1), PerturbedMeasureSpec(1, 0.1),
                           samples=10**6, seed=0)
    assert out["closed_form"] == pytest.approx(1 / 900, rel=1e-12)
    assert abs(out["mc_estimate"] - out["closed_form"]) <= 3 * out["stderr"]


def test_perturbed_energy_cp2_chordal():
    sp = make_space("CP2")
    out = energy_perturbed(sp, riesz_chordal(sp, 1.0), PerturbedMeasureSpec(2, 0.05),
                           samples=10**6, seed=0)
    assert abs(out["mc_estimate"] - out["closed_form"]) <= 3 * out["stderr"]


# ---------------------------------------------------------------------------
# 9. smoothing kernel: spectral series equals the hypergeometric closed form


@pytest.mark.parametrize("params", [(0.0, 0.0), (1.0, 0.0), (3.0, 1.0),
                                    (7.0, 3.0), (1.0, -0.5)])
def test_poisson_series_equals_closed_form(params):
    thetas = np.linspace(0.02, math.pi / 2 - 0.02, 20)
    for r in (0.3, 0.5, 0.9):
        for th in thetas:
            a = poisson_kernel(params, r, float(th), method="closed")
            b = poisson_kernel(params, r, float(th), method="series")
            assert abs(a - b) <= 1e-10 * max(1.0, abs(a)), (params, r, th)


@pytest.mark.parametrize("params", [(0.0, 0.0), (1.0, 0.0), (3.0, 1.0),
                                    (7.0, 3.0), (1.0, -0.5)])
def test_poisson_unit_mass(params):
    nodes, w = gauss_jacobi_rule(params, 60)
    w = w / w.sum()
    for r in (0.3, 0.7):
        vals = [poisson_kernel(params, r, math.acos(t) / 2) for t in nodes]
        assert abs(float(np.dot(w, vals)) - 1.0) <= 1e-10, (params, r)


# ---------------------------------------------------------------------------
# 10. structural properties the whole pipeline rests on


def test_quadrature_exactness():
    for params in ((0.0, 0.0), (2.0, 0.0), (3.0, 1.0), (1.0, -0.5)):
        rule = gauss_jacobi_rule(params, 14)
        mass = rule[1].sum()
        for k in range(1, 28):
            val = integrate(rule, lambda t, k=k: jacobi_eval(params, k, t))
            assert abs(val) <= 1e-13 * mass, (params, k)


@pytest.mark.parametrize("name", ("S2", "RP4", "CP2", "HP2"))
def test_orthonormality_scaling(name):
    # the expansion convention requires (m_n / P_n(1)^2) * ||P_n||^2 = 1
    sp = make_space(name)
    jp = (sp.alpha, sp.beta)
    for n in range(25):
        lhs = dim_m_n(sp, n) / jacobi_value_at_one(jp, n) ** 2 * jacobi_norm_sq(jp, n)
        assert abs(lhs - 1) <= 1e-10, n


def test_normalized_polynomial_decay_bound():
    # |p_n(cos 2 theta)| <= G(a+1)/G(b+1) / (n sin^2 theta_0)^(a-b)
    # uniformly on theta_0 <= theta <= pi/2
    a, b = 5.0, 0.0
    theta0 = 0.3
    cap = math.gamma(a + 1) / math.gamma(b + 1)
    for n in range(1, 41):
        bound = cap / (n * math.sin(theta0) ** 2) ** (a - b)
        thetas = np.linspace(theta0, math.pi / 2, 120)
        vals = jacobi_normalized((a, b), n, np.cos(2 * thetas))[n]
        assert np.max(np.abs(vals)) <= min(1.0, bound) + 1e-12, n


def test_normalized_polynomial_alpha_limit():
    # p_n^{(alpha,beta)}(cos 2 theta) -> cos^{2n} theta uniformly as alpha
    # grows; the sup-gap shrinks monotonically along a doubling ladder
    thetas = np.linspace(0.0, math.pi / 2, 181)
    target = np.cos(thetas) ** 2
    for n in (1, 3, 5):
        gaps = []
        for alpha in (10.0, 20.0, 40.0, 80.0, 160.0):
            vals = np.array(
                [jacobi_normalized((alpha, 0.0), n, math.cos(2 * th))[n]
                 for th in thetas]
            )
            gaps.append(float(np.max(np.abs(vals - target**n))))
        assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
        assert gaps[-1] < 0.02


@pytest.mark.parametrize(
    "name,text",
    [
        ("S2", "product(riesz-chordal:s=1,cospow:n=2)"),
        ("CP2", "product(riesz-chordal:s=0.5,riesz-chordal:s=0.5)"),
    ],
)
def test_products_of_nonnegative_kernels(name, text):
    sp = make_space(name)
    rep = certify_coefficients(sp, parse_kernel(text, sp), N=16, target_digits=30)
    for e in rep.entries:
        assert e.sign in ("+", "0") or e.value >= -e.error, e.n
    assert classify(rep, "cpd").is_nonnegative


def test_four_point_obstruction():
    # alternating weights on four coplanar lines: squared geodesic distance
    # fails conditional positive definiteness with energy exactly -pi^2/32
    sp = make_space("RP2")
    rows = [[math.cos(k * math.pi / 4), math.sin(k * math.pi / 4), 0.0] for k in range(4)]
    m = DiscreteMeasure(sp, [Point(sp, np.asarray(r)) for r in rows],
                        weights=[0.25, -0.25, 0.25, -0.25])
    from zonalpd.energy import energy_discrete
    from zonalpd.kernels import riesz_geodesic

    e = energy_discrete(m, riesz_geodesic(sp, -2.0), include_diagonal=True)
    assert e == pytest.approx(-math.pi**2 / 32, rel=1e-12)
    assert e < 0
