import math

import numpy as np
import pytest

from zonalpd.jacobi import jacobi_eval
from zonalpd.kernels import (
    EvalEnv,
    cos_power_kernel,
    env_from_theta,
    gaussian_kernel,
    jacobi_unit_kernel,
    linear_combination,
    log_chordal,
    log_geodesic,
    parse_kernel,
    product_kernel,
    riesz_chordal,
    riesz_geodesic,
)
from zonalpd.spaces import make_space



def env_from_t(space_kappa, t):
    """EvalEnv at zonal variable t strictly inside (-1,1)."""
    import mpmath as mp

    if isinstance(t, mp.mpf):
        theta = mp.acos(t) / (2 * space_kappa)
    else:
        theta = math.acos(t) / (2 * space_kappa)
    return EvalEnv(
        t=t,
        one_minus_t=1 - t,
        one_plus_t=1 + t,
        theta=theta,
        kappa=t * 0 + space_kappa,
    )


S2 = make_space("S2")
RP2 = make_space("RP2")
CP2 = make_space("CP2")

GRAMMAR_CASES = [
    "riesz-geodesic:s=1",
    "riesz-geodesic:s=-0.5",
    "riesz-chordal:s=1.5",
    "log-geodesic",
    "log-chordal",
    "gauss-geodesic:lambda=2",
    "gauss-chordal:lambda=0.5",
    "cospow:n=3",
    "jacobi:n=4",
    "product(riesz-chordal:s=0.5,cospow:n=2)",
    "lincomb(2*cospow:n=0+3*jacobi:n=1)",
]


@pytest.mark.parametrize("text", GRAMMAR_CASES)
def test_grammar_round_trip(text):
    k = parse_kernel(text, S2)
    assert k.descriptor == text
    k2 = parse_kernel(k.descriptor, S2)
    t = np.linspace(-1, 0.9, 40)
    assert np.allclose(k.f_t(t), k2.f_t(t), rtol=0, atol=0)


@pytest.mark.parametrize(
    "bad",
    ["riesz:s=1", "gauss-chordal:lambda=", "cospow:n=1.5", "product(cospow:n=1)", "noise", ""],
)
def test_grammar_rejects(bad):
    with pytest.raises(ValueError):
        parse_kernel(bad, S2)


def test_riesz_geodesic_values():
    k = riesz_geodesic(S2, -1.0)
    assert k.f_t(np.array([-1.0]))[0] == pytest.approx(-math.pi, rel=1e-15)
    k = riesz_geodesic(RP2, 1.0)
    # theta = arccos(1/2)/2 = pi/6
    assert k.f_t(np.array([0.5]))[0] == pytest.approx(6 / math.pi, rel=1e-13)
    assert k.sing_exponent == 0.5
    assert riesz_geodesic(S2, -1.0).sing_exponent == 0.0


def test_riesz_geodesic_s_zero_is_log():
    k = riesz_geodesic(S2, 0)
    assert k.log_flag and k.descriptor == "log-geodesic"
    assert riesz_chordal(S2, 0).descriptor == "log-chordal"


def log_envelope_at(kernel, kappa, exp10):
    # (1-t)^0.01 F(t) with theta = 10^-exp10; the power only wins around
    # 1-t ~ 1e-40, far outside float64 range, hence the mpf route
    import mpmath as mp

    env = env_from_theta(kappa, mp.mpf(10) ** -exp10)
    return float(env.one_minus_t**mp.mpf("0.01") * kernel.eval_g(env))


@pytest.mark.parametrize("make", [log_geodesic, log_chordal])
def test_log_envelope_limit(make):
    k = make(S2)
    vals = [abs(log_envelope_at(k, S2.kappa, e)) for e in (10, 100, 1000, 5000)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-30


def test_riesz_chordal_values():
    k = riesz_chordal(S2, 1.0)
    assert k.f_t(np.array([-1.0]))[0] == pytest.approx(1.0, rel=1e-15)
    # sqrt(2/(1-t)) = 2/|x-y| on the sphere
    t = np.linspace(-1, 0.99, 50)
    assert np.allclose(k.f_t(t), np.sqrt(2 / (1 - t)), rtol=1e-14)

    k2 = riesz_chordal(CP2, -2.0)
    assert k2.poly_degree == 1
    assert np.allclose(k2.f_t(t), -(1 - t) / 2, rtol=0, atol=1e-14)


def test_riesz_integrability_guard():
    with pytest.raises(ValueError):
        riesz_geodesic(S2, 2.0)  # s >= D = 2
    with pytest.raises(ValueError):
        riesz_chordal(CP2, 4.0)
    k = riesz_chordal(S2, 1.5)
    assert k.integrable_on(S2)  # sigma = 0.75 < alpha+1 = 1
    assert not riesz_chordal(make_space("S4"), 3.9).integrable_on(S2)


def test_gaussian_values():
    for metric in ("geodesic", "chordal"):
        k = gaussian_kernel(CP2, metric, 0.7)
        assert k.f_t(np.array([1.0]))[0] == pytest.approx(1.0, abs=1e-15)
    assert gaussian_kernel(S2, "chordal", 1.0).f_t(np.array([-1.0]))[0] == pytest.approx(
        math.exp(-1), rel=1e-14
    )
    assert gaussian_kernel(S2, "geodesic", 1.0).f_t(np.array([0.0]))[0] == pytest.approx(
        math.exp(-((math.pi / 2) ** 2)), rel=1e-13
    )
    with pytest.raises(ValueError):
        gaussian_kernel(S2, "chordal", 0.0)
    with pytest.raises(ValueError):
        gaussian_kernel(S2, "euclid", 1.0)


def test_cospow_and_jacobi_unit():
    assert cos_power_kernel(0).f_t(np.array([0.33]))[0] == 1.0
    assert cos_power_kernel(1).f_t(np.array([0.0]))[0] == pytest.approx(0.5, rel=1e-15)
    assert cos_power_kernel(3).poly_degree == 3
    k = jacobi_unit_kernel(S2, 1)
    t = np.linspace(-1, 1, 21)
    assert np.allclose(k.f_t(t), t, atol=1e-15)
    k2 = jacobi_unit_kernel(CP2, 2)
    assert k2.f_t(np.array([0.4]))[0] == pytest.approx(jacobi_eval(CP2, 2, 0.4), rel=1e-14)


def test_product_kernel():
    f = riesz_chordal(S2, 1.0)
    one = cos_power_kernel(0)
    prod = product_kernel(f, one)
    t = np.linspace(-1, 0.9, 30)
    assert np.allclose(prod.f_t(t), f.f_t(t), rtol=1e-15)
    assert prod.sing_exponent == f.sing_exponent

    sq = product_kernel(f, f)
    assert sq.sing_exponent == 1.0
    assert np.allclose(sq.f_t(t), 2 / (1 - t), rtol=1e-13)


def test_linear_combination():
    k = linear_combination([(2.0, jacobi_unit_kernel(S2, 0)), (3.0, jacobi_unit_kernel(S2, 1))])
    assert k.f_t(np.array([0.4]))[0] == pytest.approx(3.2, rel=1e-15)
    assert k.poly_degree == 1
    mixed = linear_combination([(1.0, riesz_chordal(S2, 1.0)), (1.0, log_chordal(S2))])
    assert mixed.log_flag
    assert mixed.sing_exponent == 0.5


ZOO = [
    ("riesz-geodesic:s=1", S2),
    ("riesz-geodesic:s=0.5", CP2),
    ("riesz-chordal:s=1.5", CP2),
    ("log-geodesic", RP2),
    ("log-chordal", S2),
    ("gauss-chordal:lambda=1", CP2),
    ("cospow:n=2", S2),
    ("product(riesz-chordal:s=0.5,riesz-chordal:s=0.5)", CP2),
]


@pytest.mark.parametrize("text,space", ZOO, ids=[c[0] for c in ZOO])
def test_envelope_limit(text, space):
    """(1-t)^sigma F(t) settles to a finite limit approaching the diagonal."""
    k = parse_kernel(text, space)
    if k.log_flag:
        assert abs(log_envelope_at(k, space.kappa, 2000)) < 1e-15
        return
    ks = np.arange(2, 13)
    t = 1 - 10.0 ** (-ks.astype(float))
    vals = (1 - t) ** k.sing_exponent * k.f_t(t)
    diffs = np.abs(np.diff(vals))
    assert np.all(diffs[6:] < 1e-6)


@pytest.mark.parametrize("text,space", ZOO, ids=[c[0] for c in ZOO])
def test_eval_g_matches_f_t(text, space):
    # eval_g carries (1-t)^gj_shift * F; the float path must agree with f_t
    k = parse_kernel(text, space)
    for t in np.linspace(-0.95, 0.95, 41):
        env = env_from_t(space.kappa, float(t))
        g = k.eval_g(env)
        assert float(g) == pytest.approx(
            float(k.f_t(np.array([t]))[0]) * (1 - t) ** k.gj_shift, rel=1e-12
        )


@pytest.mark.parametrize("name", ("S2", "RP2", "CP2", "HP2"))
def test_metric_equivalence(name):
    # chi <= kappa * theta <= (pi/2) chi
    sp = make_space(name)
    thetas = np.linspace(1e-6, sp.diameter, 200)
    chi = np.sin(sp.kappa * thetas)
    kth = sp.kappa * thetas
    assert np.all(chi <= kth + 1e-15)
    assert np.all(kth <= math.pi / 2 * chi + 1e-15)


def test_known_zero_declaration():
    k = riesz_geodesic(S2, -1.0)
    assert k.known_zero is not None
    assert k.known_zero(S2, 2) and k.known_zero(S2, 40)
    assert not k.known_zero(S2, 3)
    assert not k.known_zero(S2, 0)
    assert not k.known_zero(RP2, 2)  # alpha != beta: no parity zeros
    assert riesz_geodesic(S2, -0.5).known_zero is None
    assert riesz_geodesic(RP2, 1.0).known_zero is None
