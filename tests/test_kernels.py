import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zonalpd.jacobi import jacobi_eval
from zonalpd.kernels import (
    cos_power_kernel,
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
from zonalpd.transform import _sign_for



def node_from_t(t):
    """The angle node (u, sin u, cos u), t = cos(2u), at zonal variable t
    strictly inside (-1,1), in the arithmetic of t."""
    if isinstance(t, mp.mpf):
        u = mp.acos(t) / 2
        return u, mp.sin(u), mp.cos(u)
    u = math.acos(t) / 2
    return u, math.sin(u), math.cos(u)


S2 = make_space("S2")
RP2 = make_space("RP2")
CP2 = make_space("CP2")
HP2 = make_space("HP2")

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
    u = kappa * mp.mpf(10) ** -exp10
    sin_u, cos_u = mp.sin(u), mp.cos(u)
    return float((2 * sin_u * sin_u) ** mp.mpf("0.01") * kernel.eval_g(u, sin_u, cos_u))


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


@pytest.mark.parametrize("s,degree", ((-2, 1), (-4, 2), (-6.0, 3), (-3, None),
                                      (-5e-324, None), (-2.5, None)))
def test_riesz_chordal_poly_degree_reads_s_itself(s, degree):
    # halving the subnormal s = -5e-324 rounds it to 0, a degree it lacks
    assert parse_kernel(f"riesz-chordal:s={s!r}", S2).poly_degree == degree


@pytest.mark.parametrize("s", (0.7, 1.5, -1.3, -2.0))
def test_riesz_chordal_constant_reused_per_precision(s):
    """eval_g raises sgn(s) 2^(s/2) once per arithmetic and precision, with
    the bits of the uncached expression; a constant kept from another
    precision would fail the `==`."""
    import mpmath as mp

    k = riesz_chordal(HP2, s)
    sign = 1 if s > 0 else -1
    for dps in (20, 30, 50, 20, 50):
        with mp.workdps(dps):
            for t in (mp.mpf("-0.3"), mp.mpf("0.9")):
                assert k.eval_g(*node_from_t(t)) == sign * (t * 0 + 2) ** (s / 2)
    for t in (-0.3, 0.9):
        assert k.eval_g(*node_from_t(t)) == sign * (t * 0 + 2) ** (s / 2)


ENVELOPE_CONSTANTS = ["riesz-geodesic:s=-0.6", "riesz-geodesic:s=0.7", "log-geodesic",
                      "gauss-geodesic:lambda=0.3", "gauss-chordal:lambda=0.3"]


def _exact(x):
    return mp.make_mpf(mp.libmp.from_float(x))


@pytest.mark.parametrize("text", ENVELOPE_CONSTANTS)
def test_envelope_converts_its_constants_once_and_exactly(monkeypatch, text):
    """Building a kernel converts nothing; its envelope converts the
    builder's floats on the first call and never again, over many nodes and
    precisions, and exactly: at 12 digits (under 53 bits) a float such as
    s/2 = -0.3 is not rounded."""
    from zonalpd import kernels

    calls = []
    convert = kernels._mpf_consts
    monkeypatch.setattr(kernels, "_mpf_consts", lambda *a: calls.append(a) or convert(*a))
    k = parse_kernel(text, RP2)
    assert calls == []
    for dps in (12, 30, 12):
        with mp.workdps(dps):
            for t in ("-0.7", "0.2", "0.95"):
                u, su, cu = node_from_t(mp.mpf(t))
                got = k.eval_g(u, su, cu)
                if k.family == "riesz-geodesic":
                    s = dict(k.args)["s"]
                    r = su / (u / _exact(RP2.kappa))
                    want = (1 if s > 0 else -1) * (2 * r * r) ** _exact(s / 2)
                elif k.family == "log-geodesic":
                    want = -mp.log(u / _exact(RP2.kappa))
                else:
                    d2 = (u / _exact(RP2.kappa)) ** 2 if k.family == "gauss-geodesic" else su * su
                    want = mp.exp(_exact(-0.3) * d2)
                assert got == want
    assert len(calls) == 1


@pytest.mark.parametrize("text", ENVELOPE_CONSTANTS)
def test_envelope_constants_under_threads(text):
    """Threads that race on a fresh kernel's first envelope calls all get
    the values of a kernel converted on one thread."""
    import sys
    import threading

    nodes = [node_from_t(mp.mpf(t) / 8) for t in range(-7, 8)]
    want = [parse_kernel(text, CP2).eval_g(*node) for node in nodes]
    for _ in range(5):
        k, failures = parse_kernel(text, CP2), []

        def work(seed):
            for i in range(len(nodes)):
                j = (seed + i) % len(nodes)
                if k.eval_g(*nodes[j]) != want[j]:
                    failures.append((seed, j))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(s,)) for s in range(6)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(th.is_alive() for th in threads)
        assert failures == []


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
        g = k.eval_g(*node_from_t(float(t)))
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
    # -theta(t) - theta(-t) = -pi/(2 kappa): odd up to a constant, so the
    # even n >= 2 coefficients vanish where alpha == beta
    k = riesz_geodesic(S2, -1.0)
    assert k.odd_up_to_constant
    t = np.linspace(-1, 1, 41)
    assert np.allclose(k.f_t(t) + k.f_t(-t), -math.pi / (2 * S2.kappa), rtol=1e-14)
    assert not riesz_geodesic(S2, -0.5).odd_up_to_constant
    assert not riesz_geodesic(RP2, 1.0).odd_up_to_constant
    # the parity zero is read only when the value sits inside its error
    zero, unit = mp.mpf(0), mp.mpf(1)
    assert _sign_for(zero, unit, 2, k, S2) == _sign_for(zero, unit, 40, k, S2) == "0"
    assert _sign_for(zero, unit, 3, k, S2) == "undecided"
    assert _sign_for(zero, unit, 0, k, S2) == "undecided"
    assert _sign_for(zero, unit, 2, k, RP2) == "undecided"  # alpha != beta: no parity zeros
    assert _sign_for(2 * unit, unit, 2, k, S2) == "+"


# ---------------------------------------------------------------------------
# kernels as data: the descriptor and the metadata are read off
# (family, args, parts), and the descriptor parses back into the same data


def _data(k):
    """family, args and parts, recursively; repr keeps -0.0 apart from 0.0
    and an int apart from a float."""
    parts = [_data(p) if k.family == "product" else (repr(p[0]), _data(p[1]))
             for p in k.parts]
    return k.family, repr(k.args), parts


def _metadata(k):
    return (k.descriptor, k.log_flag, k.poly_degree, repr(k.gj_shift), k.odd_up_to_constant)


_SPECIAL_FLOATS = st.sampled_from([1e+20, 2.5e-05, -0.0, 1.0, -1.0, -2.0, 0.5, 1e-300])
_FLOATS = st.one_of(_SPECIAL_FLOATS,
                    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))
_DEGREES = st.one_of(st.integers(0, 6), st.integers(0, 10**18), st.just(10**17))


def _leaves(sp):
    D = sp.dim_D
    exponents = st.one_of(_FLOATS.filter(lambda s: s < D),
                          st.just(math.nextafter(D, -math.inf)), st.just(-D))
    lams = _FLOATS.map(abs).filter(lambda x: x > 0)
    return st.one_of(
        st.builds(riesz_geodesic, st.just(sp), exponents),
        st.builds(riesz_chordal, st.just(sp), exponents),
        st.just(log_geodesic(sp)),
        st.just(log_chordal(sp)),
        st.builds(gaussian_kernel, st.just(sp), st.sampled_from(["geodesic", "chordal"]), lams),
        st.builds(cos_power_kernel, _DEGREES),
        st.builds(jacobi_unit_kernel, st.just(sp), _DEGREES),
    )


def _trees(sp, depth):
    leaves = _leaves(sp)
    if depth == 0:
        return leaves
    sub = _trees(sp, depth - 1)
    return st.one_of(
        leaves,
        st.builds(product_kernel, sub, sub),
        st.builds(linear_combination, st.lists(st.tuples(_FLOATS, sub), min_size=1, max_size=3)),
    )


_SPACES = [S2, RP2, CP2, HP2, make_space("custom:alpha=2.5,beta=0.5,kappa=0.5")]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_SPACES).flatmap(lambda sp: st.tuples(st.just(sp), _trees(sp, 3))))
def test_descriptor_round_trips_the_data(case):
    """Every kernel of the grammar, up to depth 3, parses back from its
    descriptor into the same family, args and parts with the same metadata,
    and its descriptor is a fixed point of parse-then-write."""
    sp, k = case
    back = parse_kernel(k.descriptor, sp)
    assert _data(back) == _data(k)
    assert _metadata(back) == _metadata(k)
    assert back.descriptor == k.descriptor
    assert parse_kernel(back.descriptor, sp).descriptor == k.descriptor


def test_int_arguments_print_as_ints():
    k = parse_kernel(f"product(cospow:n={10**17},jacobi:n={10**18})", S2)
    assert k.descriptor == f"product(cospow:n={10**17},jacobi:n={10**18})"
    assert k.parts[0].args == (("n", 10**17),) and k.poly_degree == 10**17 + 10**18


def test_kernels_are_data():
    k = parse_kernel("lincomb(2*riesz-chordal:s=0.5+-1*product(log-chordal,cospow:n=2))", S2)
    assert (k.family, k.args, [c for c, _ in k.parts]) == ("lincomb", (), [2.0, -1.0])
    chordal, prod = (p for _, p in k.parts)
    assert (chordal.family, chordal.args, chordal.parts) == ("riesz-chordal", (("s", 0.5),), ())
    assert prod.family == "product" and [p.family for p in prod.parts] == ["log-chordal", "cospow"]
    assert (k.log_flag, k.poly_degree, k.gj_shift, k.odd_up_to_constant) == (True, None, 0.25,
                                                                             False)


def test_metadata_is_computed_once_per_kernel():
    """A lincomb envelope reads its terms' gj_shift at every node: the
    metadata are cached on the kernel object, replaced kernels included."""
    import dataclasses

    k = parse_kernel("lincomb(1*riesz-chordal:s=0.5+1*cospow:n=1)", S2)
    for name in ("descriptor", "log_flag", "poly_degree", "gj_shift", "odd_up_to_constant"):
        first = getattr(k, name)
        assert name in vars(k) and getattr(k, name) is first
    twin = dataclasses.replace(k, eval_g=k.eval_g, f_t=k.f_t)
    assert _metadata(twin) == _metadata(k) and _data(twin) == _data(k)
