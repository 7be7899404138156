import math
import sys
import threading

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_jacobi

from mpmath import libmp

from conftest import CATALOG, integrate, jacobi_norm_sq, jacobi_normalized
from zonalpd.jacobi import (
    _fixed_recurrence,
    _fixed_rounding,
    dim_m_n,
    eigenvalue_lambda_n,
    gauss_jacobi_rule,
    gauss_jacobi_rule_mp,
    jacobi_eval,
    jacobi_eval_all,
    jacobi_value_at_one,
    pochhammer,
    weight_total_mass,
)
from zonalpd.spaces import make_space

CATALOG_PARAMS = [make_space(name) for name in CATALOG]


def msum_normalized(a, b, n, t):
    """Finite-sum form of p_n(cos 2 theta) with t = cos 2 theta.

    Term m carries (b+m+1)...(b+n) over (a+1)...(a+n-m) against
    ((1+t)/2)^m ((1-t)/2)^(n-m); the alternating sign makes it an
    independent route to the recurrence values.
    """
    total = 0.0
    for m in range(n + 1):
        num = 1.0
        for j in range(m + 1, n + 1):
            num *= b + j
        den = 1.0
        for j in range(1, n - m + 1):
            den *= a + j
        total += (
            (-1) ** (n - m)
            * math.comb(n, m)
            * (num / den)
            * ((1 + t) / 2) ** m
            * ((1 - t) / 2) ** (n - m)
        )
    return total


def test_legendre_values():
    vals = jacobi_eval_all((0.0, 0.0), 4, 0.0)
    assert vals[0] == 1.0
    assert vals[2] == pytest.approx(-0.5, abs=1e-15)
    assert jacobi_eval((0.0, 0.0), 1, 0.7) == pytest.approx(0.7, abs=1e-15)


def test_value_at_one():
    assert jacobi_value_at_one((2.0, 0.0), 1) == pytest.approx(3.0, rel=1e-14)
    for params in ((0.0, 0.0), (2.0, 0.0), (3.0, 1.0), (0.5, -0.5)):
        for n in range(11):
            direct = jacobi_eval(params, n, 1.0)
            assert jacobi_value_at_one(params, n) == pytest.approx(direct, rel=1e-12)
    # closed form survives n large enough to overflow naive factorial ratios
    big = jacobi_value_at_one((7.0, 3.0), 240)
    assert math.isfinite(big) and big > 0


def test_msum_oracle():
    a, b = 1.0, 0.5
    t = 0.3
    p5 = jacobi_normalized((a, b), 5, t)[5]
    assert p5 == pytest.approx(msum_normalized(a, b, 5, t), abs=1e-12)
    P5 = jacobi_eval((a, b), 5, t)
    assert P5 == pytest.approx(p5 * jacobi_value_at_one((a, b), 5), rel=1e-12)


@settings(max_examples=60)
@given(
    st.floats(min_value=-0.9, max_value=9.0),
    st.floats(min_value=-0.9, max_value=9.0),
    st.integers(min_value=0, max_value=25),
    st.floats(min_value=-1.0, max_value=1.0),
)
def test_recurrence_against_scipy(a, b, n, t):
    ours = jacobi_eval((a, b), n, t)
    ref = eval_jacobi(n, a, b, t)
    assert ours == pytest.approx(ref, rel=1e-9, abs=1e-9)


def test_normalized_basics():
    params = (3.0, 1.0)
    p = jacobi_normalized(params, 6, -0.37)
    assert p[0] == 1.0
    assert jacobi_normalized(params, 6, 1.0)[6] == pytest.approx(1.0, abs=1e-13)
    # |p_n| <= 1 on [-1,1] when beta >= -1/2 and alpha >= beta
    for a, b in ((0.0, 0.0), (2.0, 0.0), (3.0, 1.0), (1.0, -0.5)):
        for t in np.linspace(-1, 1, 101):
            vals = jacobi_normalized((a, b), 12, t)
            assert np.all(np.abs(vals) <= 1 + 1e-12)


def test_symmetry_oracle():
    # P_n^{(a,b)}(-t) = (-1)^n P_n^{(b,a)}(t)
    for a, b in ((3.0, 1.0), (2.0, 0.0), (0.5, -0.5)):
        for n in range(9):
            for t in (-1.0, -0.3, 0.5, 0.9):
                lhs = jacobi_eval((a, b), n, -t)
                rhs = (-1) ** n * jacobi_eval((b, a), n, t)
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
    p2 = jacobi_normalized((3.0, 1.0), 2, -1.0)[2]
    assert p2 == pytest.approx(
        jacobi_eval((1.0, 3.0), 2, 1.0) / jacobi_value_at_one((3.0, 1.0), 2), rel=1e-12
    )


def test_dim_m_n_values():
    assert dim_m_n((0.0, 0.0), 0) == 1.0
    assert dim_m_n((0.0, 0.0), 1) == pytest.approx(3.0, rel=1e-14)
    assert dim_m_n((1.0, 0.0), 1) == pytest.approx(8.0, rel=1e-14)
    # CP^2 eigenspace dimensions are the cubes (n+1)^3
    for n in range(7):
        assert dim_m_n((1.0, 0.0), n) == pytest.approx((n + 1) ** 3, rel=1e-12)
    # circle: alpha + beta + 1 = 0 is the regularized case, m_n = 2 for n >= 1
    for n in range(1, 6):
        assert dim_m_n((-0.5, -0.5), n) == pytest.approx(2.0, rel=1e-13)


@pytest.mark.parametrize("space", CATALOG_PARAMS, ids=CATALOG)
def test_dim_m_n_integer_on_catalog(space):
    for n in range(21):
        m = dim_m_n(space, n)
        assert m > 0
        assert abs(m - round(m)) < 1e-9 * max(1.0, m)


def test_eigenvalues():
    for space in CATALOG_PARAMS:
        assert eigenvalue_lambda_n(space, 0) == 0.0
    s2 = make_space("S2")
    assert eigenvalue_lambda_n(s2, 1) == pytest.approx(2.0, rel=1e-15)
    assert eigenvalue_lambda_n(make_space("CP2"), 1) == pytest.approx(12.0, rel=1e-15)
    # spheres: 4 kappa^2 n (n + alpha + beta + 1) = l(l+1)
    for n in range(1, 9):
        assert eigenvalue_lambda_n(s2, n) == pytest.approx(n * (n + 1), rel=1e-14)


def test_gauss_legendre_two_point():
    rule = gauss_jacobi_rule((0.0, 0.0), 2)
    assert rule.nodes == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)], rel=1e-14)
    assert rule.weights == pytest.approx([1.0, 1.0], rel=1e-14)


def test_gauss_odd_symmetry():
    rule = gauss_jacobi_rule((0.0, 0.0), 8)
    assert abs(integrate(rule, lambda t: t**15)) < 1e-14


def test_gauss_norm_h5():
    rule = gauss_jacobi_rule((2.0, 0.0), 16)
    val = integrate(rule, lambda t: jacobi_eval((2.0, 0.0), 5, t) ** 2)
    h5 = (
        2**3
        / (2 * 5 + 3)
        * math.gamma(5 + 3)
        * math.gamma(5 + 1)
        / (math.gamma(5 + 3) * math.factorial(5))
    )
    assert h5 == pytest.approx(8 / 13, rel=1e-15)
    assert val == pytest.approx(h5, rel=1e-12)
    # norm_sq is against the probability measure, i.e. divided by the mass
    assert jacobi_norm_sq((2.0, 0.0), 5) == pytest.approx(
        h5 / weight_total_mass((2.0, 0.0)), rel=1e-12
    )


def jacobi_h(a, b, k):
    return (
        2 ** (a + b + 1)
        / (2 * k + a + b + 1)
        * math.gamma(k + a + 1)
        * math.gamma(k + b + 1)
        / (math.gamma(k + a + b + 1) * math.factorial(k))
    )


@pytest.mark.parametrize("params", [(0.0, 0.0), (2.0, 0.0), (3.0, 1.0), (0.5, -0.5), (7.0, 3.0)])
def test_quadrature_rule_invariants(params):
    m = 14
    rule = gauss_jacobi_rule(params, m)
    nodes = np.asarray(rule.nodes)
    assert np.all(np.diff(nodes) > 0)
    assert nodes[0] > -1 and nodes[-1] < 1
    assert np.all(np.asarray(rule.weights) > 0)
    assert rule.total_mass() == pytest.approx(weight_total_mass(params), rel=1e-13)
    # exact for every polynomial of degree <= 2m-1: the Jacobi basis suffices
    for k in range(1, 2 * m):
        val = integrate(rule, lambda t, k=k: jacobi_eval(params, k, t))
        assert abs(val) < 1e-13 * rule.total_mass()
    for k in range(m):
        val = integrate(rule, lambda t, k=k: jacobi_eval(params, k, t) ** 2)
        assert val == pytest.approx(jacobi_h(*params, k), rel=1e-13)
    val = integrate(rule, lambda t: jacobi_eval(params, 3, t) * jacobi_eval(params, 8, t))
    assert abs(val) < 1e-13 * rule.total_mass()


def test_rule_mp_matches_float():
    nodes, weights = gauss_jacobi_rule_mp((1.0, -0.5), 10)
    rule = gauss_jacobi_rule((1.0, -0.5), 10)
    for i in range(10):
        assert float(nodes[i]) == pytest.approx(rule.nodes[i], abs=1e-13)
        assert float(weights[i]) == pytest.approx(rule.weights[i], rel=1e-13)


@pytest.mark.parametrize("space", CATALOG_PARAMS, ids=CATALOG)
def test_orthogonality_property(space):
    """Quadrature of P_n P_k against the normalized weight vanishes off the diagonal."""
    rule = gauss_jacobi_rule(space, 26)
    t = np.asarray(rule.nodes)
    w = np.asarray(rule.weights) / rule.total_mass()
    table = np.array([jacobi_eval_all(space, 24, ti) for ti in t])
    gram = table.T * w @ table
    off = gram - np.diag(np.diag(gram))
    scale = np.sqrt(np.outer(np.diag(gram), np.diag(gram)))
    assert np.max(np.abs(off) / scale) < 1e-11


@pytest.mark.parametrize("space", CATALOG_PARAMS, ids=CATALOG)
def test_normalization_consistency(space):
    # (m_n / P_n(1)^2) * integral of P_n^2 dmu = 1: the coefficient map
    # applied to P_n itself returns exactly 1
    rule = gauss_jacobi_rule(space, 30)
    t = np.asarray(rule.nodes)
    w = np.asarray(rule.weights) / rule.total_mass()
    for n in range(25):
        pn = np.array([jacobi_eval(space, n, ti) for ti in t])
        val = dim_m_n(space, n) / jacobi_value_at_one(space, n) ** 2 * float(np.dot(w, pn**2))
        assert val == pytest.approx(1.0, rel=1e-10)


# ---------------------------------------------------------------------------
# integral representation of the normalized polynomials (independent oracle)


def koornwinder_p_n(params, n: int, theta: float) -> float:
    """p_n(cos 2*theta) through its addition-type integral representation.

    For beta >= 0 the representation is a double average of
    (cos^2 th - r^2 sin^2 th + i r cos(phi) sin 2th)^n over r in [0,1] with
    density ~ (1-r^2)^(a-b-1) r^(2b+1) and phi in [0,pi] with density
    ~ sin^(2b) phi.  For beta = -1/2 the phi average degenerates and a single
    average over x in [-1,1] with density ~ (1-x^2)^(a-1/2) remains.

    Written with probability-normalized Gauss rules the constants cancel and
    the value is a plain weighted mean, exact up to rounding for each fixed n
    once the rule order exceeds the polynomial degree.  Oracle-quality only:
    intended for n <= 20 cross-checks against the recurrence.
    """
    a, b = map(float, params)
    if b < -0.5 or (-0.5 < b < 0):
        raise ValueError("integral representation needs beta >= 0 or beta == -1/2")
    c, s = math.cos(theta), math.sin(theta)
    m = n + 2

    if b == -0.5:
        rule = gauss_jacobi_rule((a - 0.5, a - 0.5), m)
        x = rule.nodes
        w = rule.weights / rule.total_mass()
        vals = (c * c - x * x * s * s + 2j * x * c * s) ** n
        return float(np.dot(w, vals.real))

    if a - b - 1 <= -1:
        # alpha = beta: radial density degenerates to the endpoint r = 1
        r = np.array([1.0])
        wr = np.array([1.0])
    else:
        # u = r^2 ~ Jacobi weight (a-b-1, b) on [-1,1] after u = (1+x)/2
        ru = gauss_jacobi_rule((a - b - 1, b), m)
        r = np.sqrt((1 + ru.nodes) / 2)
        wr = ru.weights / ru.total_mass()
    rphi = gauss_jacobi_rule((b - 0.5, b - 0.5), m)
    cphi = rphi.nodes
    wphi = rphi.weights / rphi.total_mass()

    R, CP = np.meshgrid(r, cphi, indexing="ij")
    W = np.outer(wr, wphi)
    vals = (c * c - R * R * s * s + 1j * R * CP * 2 * s * c) ** n
    return float((W * vals.real).sum())


KOORNWINDER_CASES = [
    (2.0, 0.0),
    (3.0, 1.0),
    (7.0, 3.0),
    (1.0, -0.5),
    (6.0, -0.5),
]


@pytest.mark.parametrize("params", KOORNWINDER_CASES)
def test_koornwinder_against_recurrence(params):
    for theta in (0.01, 0.2, math.pi / 6, math.pi / 4, 1.0, 1.5):
        assert koornwinder_p_n(params, 0, theta) == pytest.approx(1.0, abs=1e-12)
        for n in (1, 2, 3, 5, 8, 12, 20):
            want = jacobi_normalized(params, n, math.cos(2 * theta))[n]
            assert koornwinder_p_n(params, n, theta) == pytest.approx(want, abs=1e-8)


def test_koornwinder_named_examples():
    got = koornwinder_p_n((2.0, 0.0), 3, math.pi / 6)
    assert got == pytest.approx(jacobi_normalized((2.0, 0.0), 3, math.cos(math.pi / 3))[3], abs=1e-8)
    got = koornwinder_p_n((1.0, -0.5), 2, math.pi / 4)
    assert got == pytest.approx(jacobi_normalized((1.0, -0.5), 2, 0.0)[2], abs=1e-8)
    with pytest.raises(ValueError):
        koornwinder_p_n((2.0, -0.3), 2, 0.5)


PN_BOUND_PARAMS = [(5.0, 0.0), (8.0, 1.0), (10.0, 3.0), (6.0, -0.5)]


@pytest.mark.parametrize("params", PN_BOUND_PARAMS)
def test_pn_bounds(params):
    """Decay bounds for normalized values away from theta = 0."""
    a, b = params
    theta0 = 0.3
    thetas = np.arange(theta0, math.pi / 2 + 1e-12, 0.05)
    for n in range(1, 41):
        bound1 = math.gamma(a + 1) / (math.gamma(b + 1) * (n * math.sin(theta0) ** 2) ** (a - b))
        cond2 = n * math.tan(theta0) ** 2 < a - b - 1
        if cond2:
            bound2 = (
                math.gamma(a + 1)
                / math.gamma(a - b)
                * math.cos(theta0) ** (2 * n)
                / (a - b - 1 - n * math.tan(theta0) ** 2) ** (b + 1)
            )
        for th in thetas:
            val = abs(jacobi_normalized(params, n, math.cos(2 * th))[n])
            assert val <= bound1 * (1 + 1e-12)
            if cond2:
                assert val <= bound2 * (1 + 1e-12)


def test_uniform_limit_property():
    # p_n^{(alpha,-1/2)}(cos 2 theta) -> cos^{2n} theta as alpha grows;
    # the sup-gap shrinks monotonically along a doubling alpha ladder
    thetas = np.linspace(0.0, math.pi / 2, 181)
    for n in range(1, 7):  # n = 0 is identically zero gap
        gaps = []
        for a in (10.0, 20.0, 40.0, 80.0, 160.0):
            vals = np.array(
                [jacobi_normalized((a, -0.5), n, math.cos(2 * th))[n] for th in thetas]
            )
            gaps.append(np.max(np.abs(vals - np.cos(thetas) ** (2 * n))))
        assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
        assert gaps[-1] < 0.02


def test_pochhammer():
    assert pochhammer(3.0, 0) == 1.0
    assert pochhammer(3.0, 4) == pytest.approx(3 * 4 * 5 * 6, rel=1e-15)
    assert float(pochhammer(mp.mpf(2), 3)) == 24.0


def eval_all_uncached(a, b, n_max, t):
    """The three-term recurrence with its coefficients rebuilt at every call."""
    values = [t * 0 + 1]
    if n_max == 0:
        return values
    values.append((a + 1) + (a + b + 2) * (t - 1) / 2)
    for n in range(2, n_max + 1):
        c1 = 2 * n * (n + a + b) * (2 * n + a + b - 2)
        c2 = (2 * n + a + b - 1) * (a * a - b * b)
        c3 = (2 * n + a + b - 2) * (2 * n + a + b - 1) * (2 * n + a + b)
        c4 = 2 * (n + a - 1) * (n + b - 1) * (2 * n + a + b)
        values.append(((c2 + c3 * t) * values[n - 1] - c4 * values[n - 2]) / c1)
    return values


def test_cached_recurrence_bit_identical_across_precisions():
    # the same mpf (alpha, beta) at dps 20, 60, then 20 again: a table built
    # at one precision must not serve another
    a, b = mp.mpf(0.3), mp.mpf(-0.45)
    for dps in (20, 60, 20):
        with mp.workdps(dps):
            for t in (mp.mpf(1) / 3, mp.mpf("-0.77")):
                got = jacobi_eval_all((a, b), 30, t)
                want = eval_all_uncached(a, b, 30, t)
                assert all(g == w for g, w in zip(got, want)), dps
                assert len(got) == len(want) == 31


def test_cached_recurrence_keeps_float_type():
    # mpf(0.5) == 0.5 and both hash alike; a float call after an mpf call
    # with equal values must still run in float arithmetic
    mp_vals = jacobi_eval_all((mp.mpf(0.5), mp.mpf(-0.5)), 20, mp.mpf(0.3))
    assert all(isinstance(v, mp.mpf) for v in mp_vals)
    got = jacobi_eval_all((0.5, -0.5), 20, 0.3)
    assert all(type(v) is float for v in got)
    assert got == eval_all_uncached(0.5, -0.5, 20, 0.3)


def test_cached_recurrence_numpy_elementwise():
    t = np.linspace(-1.0, 1.0, 41)
    jacobi_eval_all((1.5, 0.5), 25, 0.1)
    got = jacobi_eval_all((1.5, 0.5), 25, t)
    want = eval_all_uncached(1.5, 0.5, 25, t)
    for g, w in zip(got, want):
        assert isinstance(g, np.ndarray) and np.array_equal(g, w)


def test_cached_recurrence_under_threads():
    # more threads than cores, with frequent switches, over a shared mix of
    # parameter pairs and types; every result must equal the uncached one
    pairs = [(0.5 + 0.25 * k, -0.5) for k in range(6)]
    failures = []

    def work(seed):
        for i in range(40):
            a, b = pairs[(seed + i) % len(pairs)]
            if i % 2:
                a, b = mp.mpf(a), mp.mpf(b)
            n_max = 10 + (seed + i) % 5
            if jacobi_eval_all((a, b), n_max, 0.2) != eval_all_uncached(a, b, n_max, 0.2):
                failures.append((seed, i))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert failures == []


# ---------------------------------------------------------------------------
# the fixed-point Newton polish of gauss_jacobi_rule_mp against an mpf one


def norm_sq_mp(a, b, n):
    """h_n against the probability-normalized weight, from gamma functions."""
    if n == 0:
        return mp.mpf(1)
    return (
        mp.gamma(n + a + 1)
        * mp.gamma(n + b + 1)
        * mp.gamma(a + b + 2)
        / (
            mp.factorial(n)
            * mp.gamma(n + a + b + 1)
            * mp.gamma(a + 1)
            * mp.gamma(b + 1)
            * (2 * n + a + b + 1)
        )
    )


def rule_mp_mpf_polish(params, m):
    """The former mpf polish: the same float seeds and derivative identity,
    one mpf recurrence pass per Newton step, weights mass / sum P_k^2/h_k."""
    am, bm = mp.mpf(params[0]), mp.mpf(params[1])
    seeds = gauss_jacobi_rule((float(params[0]), float(params[1])), m).nodes
    tol = mp.mpf(10) ** (-(mp.mp.dps - 2))
    hs = [norm_sq_mp(am, bm, n) for n in range(m)]
    mass = mp.power(2, am + bm + 1) * mp.beta(am + 1, bm + 1)
    nodes, weights = [], []
    for seed in seeds:
        x = mp.mpf(float(seed))
        for _ in range(12):
            vals = jacobi_eval_all((am, bm), m, x)
            p, p_prev = vals[m], vals[m - 1]
            dp = (
                m * (am - bm - (2 * m + am + bm) * x) * p + 2 * (m + am) * (m + bm) * p_prev
            ) / ((2 * m + am + bm) * (1 - x * x))
            step = p / dp
            if abs(step) < tol:
                break
            x -= step
        else:
            raise RuntimeError("mpf Newton polish did not converge")
        nodes.append(x)
        weights.append(mass / mp.fsum(vals[n] ** 2 / hs[n] for n in range(m)))
    return nodes, weights


POLISH_PARAMS = [(7, 15.6), (7, 16.4), (1, -0.8), (3, 0.2), (0, 0.4), (2, 9.3)]
POLISH_DPS = (30, 40, 70, 100)


@pytest.mark.parametrize("m", (12, 45, 90))
@pytest.mark.parametrize("params", POLISH_PARAMS, ids=str)
def test_rule_mp_fixed_point_polish(params, m):
    # one oracle at 20 digits beyond the largest dps serves every dps
    with mp.workdps(max(POLISH_DPS) + 20):
        want_nodes, want_weights = rule_mp_mpf_polish(params, m)
        mass = mp.power(2, params[0] + params[1] + 1) * mp.beta(params[0] + 1, params[1] + 1)
    for dps in POLISH_DPS:
        with mp.workdps(dps):
            nodes, weights = gauss_jacobi_rule_mp(params, m)
            again = gauss_jacobi_rule_mp(params, m)
            assert len(nodes) == len(weights) == m
            # mpf values already rounded to the ambient precision
            assert all(isinstance(v, mp.mpf) and +v == v for v in nodes + weights)
            # bit-identical rebuild: integer arithmetic end to end
            assert (nodes, weights) == again
            # exact for every polynomial of degree <= 2m-1: P_1..P_{2m-1}
            # integrate to zero against the weight
            exact = (mp.mpf(params[0]), mp.mpf(params[1]))
            cols = [jacobi_eval_all(exact, 2 * m - 1, x) for x in nodes]
            for k in range(1, 2 * m):
                total = mp.fsum(w * col[k] for w, col in zip(weights, cols))
                assert abs(total) <= mp.mpf(10) ** (3 - dps) * mass, (dps, k)
        with mp.workdps(max(POLISH_DPS) + 20):
            node_tol = mp.mpf(10) ** -(dps + 1)
            weight_tol = mp.mpf(10) ** -dps
            for x, y in zip(nodes, want_nodes):
                assert abs(x - y) <= node_tol, dps
            for w, v in zip(weights, want_weights):
                assert abs(w / v - 1) <= weight_tol, dps


# ---------------------------------------------------------------------------
# the fixed-point recurrence shared by the rule polish and the coefficient sums


@pytest.mark.parametrize("n_max", (0, 1, 2, 12, 48))
@pytest.mark.parametrize("space", CATALOG_PARAMS + [make_space(alpha=32.0, beta=0.0)],
                         ids=lambda sp: sp.name)
def test_fixed_rounding_bounds_the_recurrence(space, n_max):
    a, b = space.alpha, space.beta
    bound, growth = _fixed_rounding(a, b, n_max)
    with mp.workdps(30):
        prec = mp.mp.prec
        wbits, ratios, (const, slope) = _fixed_recurrence(a, b, n_max, prec)
        nodes = [-1, 1, "0.9999999", "-0.99999", "1e-9"] + [f"{k / 7 - 1:.17f}" for k in range(15)]
        for t in map(mp.mpf, nodes):
            x = libmp.to_fixed(t._mpf_, wbits)
            one = 1 << wbits
            fixed = [one, const + (slope * (x - one) >> wbits)][: n_max + 1]
            for r2, r3, r4 in ratios:
                fixed.append(((r2 + (r3 * x >> wbits)) * fixed[-1] - r4 * fixed[-2]) >> wbits)
            with mp.workdps(80):
                exact = jacobi_eval_all((mp.mpf(a), mp.mpf(b)), n_max, t)
                for n in range(n_max + 1):
                    assert abs(exact[n]) <= bound[n], (t, n)
                    err = abs(mp.mpf((fixed[n], -wbits)) - exact[n])
                    assert err <= mp.ldexp(growth[n], -wbits), (t, n)
    # the guard bits keep the bound far below the working precision
    assert growth[-1] < 2.0 ** (wbits - prec - 16)
