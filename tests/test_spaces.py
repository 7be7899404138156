import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CATALOG, SAMPLED, total_mass
from zonalpd.spaces import (
    _CLAMP_TOL,
    FAMILY_CP,
    FAMILY_HP,
    FAMILY_RP,
    FAMILY_SPHERE,
    Point,
    BLOCK,
    Space,
    _coords_per_point,
    _inner_abs2,
    distance_t,
    distance_t_arrays,
    load_points,
    make_rng,
    make_space,
    parse_args,
    sample_uniform_points,
    save_points,
)



# test-only helpers: variable conversions, single points and quaternion
# products


def clamp_t(t: float) -> float:
    """Clamp floating-point t into [-1,1]; excursions beyond 1e-15 are errors."""
    if t > 1.0:
        if t - 1.0 > _CLAMP_TOL * max(1.0, abs(t)):
            raise ValueError(f"t={t!r} outside [-1,1]")
        return 1.0
    if t < -1.0:
        if -1.0 - t > _CLAMP_TOL * max(1.0, abs(t)):
            raise ValueError(f"t={t!r} outside [-1,1]")
        return -1.0
    return float(t)


def t_from_theta(space: Space, theta: float) -> float:
    """Zonal variable t = cos(2*kappa*theta)."""
    if theta < -1e-15 or theta > space.diameter * (1 + 1e-12) + 1e-15:
        raise ValueError(f"theta={theta} outside [0, {space.diameter}]")
    return clamp_t(math.cos(2 * space.kappa * theta))


def theta_from_t(space: Space, t: float) -> float:
    t = clamp_t(t)
    return math.acos(t) / (2 * space.kappa)


def chi_from_t(t):
    """Chordal distance chi = sin(kappa*theta) = sqrt((1-t)/2)."""
    if isinstance(t, np.ndarray):
        return np.sqrt((1 - np.clip(t, -1.0, 1.0)) / 2)
    return math.sqrt((1 - clamp_t(t)) / 2)


def sample_uniform_point(space: Space, rng: np.random.Generator) -> Point:
    return Point(space, sample_uniform_points(space, rng, 1)[0])


def _quat_conj(q):
    out = q.copy()
    out[..., 1:] *= -1
    return out


def _quat_mul(q1, q2):
    """Hamilton product on (...,4) arrays."""
    a1, b1, c1, d1 = (q1[..., i] for i in range(4))
    a2, b2, c2, d2 = (q2[..., i] for i in range(4))
    return np.stack(
        [
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        ],
        axis=-1,
    )


# name -> (alpha, beta, kappa, D)
CATALOG_PARAMS = {
    "S2": (0.0, 0.0, 0.5, 2.0),
    "S4": (1.0, 1.0, 0.5, 4.0),
    "RP2": (0.0, -0.5, 1.0, 2.0),
    "RP3": (0.5, -0.5, 1.0, 3.0),
    "RP4": (1.0, -0.5, 1.0, 4.0),
    "CP2": (1.0, 0.0, 1.0, 4.0),
    "CP3": (2.0, 0.0, 1.0, 6.0),
    "HP2": (3.0, 1.0, 1.0, 8.0),
    "OP2": (7.0, 3.0, 1.0, 16.0),
}


@pytest.mark.parametrize("name", CATALOG)
def test_catalog_parameters(name):
    sp = make_space(name)
    alpha, beta, kappa, dim = CATALOG_PARAMS[name]
    assert (sp.alpha, sp.beta, sp.kappa) == (alpha, beta, kappa)
    assert sp.dim_D == dim
    assert sp.name == name


def test_make_space_custom_and_errors():
    sp = make_space("custom:alpha=2.5,beta=0.5,kappa=1")
    assert (sp.alpha, sp.beta, sp.kappa) == (2.5, 0.5, 1.0)
    with pytest.raises(ValueError):
        make_space("QP2")
    with pytest.raises(ValueError):
        make_space("RP0")  # d < 2
    for bad in ("custom:alpha=-1.5,beta=0,kappa=1", "custom:alpha=1,beta=-1,kappa=1",
                # unknown, repeated, missing and non-finite arguments
                "custom:alpha=1,beta=0,kapa=0.5", "custom:alpha=1,beta=0,alpha=3",
                "custom:beta=0", "custom:alpha=nan,beta=0", "custom:alpha=inf,beta=0",
                "custom:alpha=1,beta=-inf",
                "custom:alpha=0,beta=1", "custom:alpha=1,beta=0,kappa=0.7"):
        with pytest.raises(ValueError):
            make_space(bad)


def test_make_space_custom_kappa_defaults_to_one():
    sp = make_space("custom:alpha=1,beta=0")
    assert sp == make_space(alpha=1, beta=0)
    assert sp.kappa == 1.0
    assert make_space(sp.name) == sp
    with pytest.raises(ValueError):
        make_space("custom:alpha=1")


def test_parse_args_reads_any_order_and_refuses_by_name():
    kinds = {"n": int, "eps": float, "kappa": float}
    want = {"n": 2, "eps": 0.25, "kappa": 0.5}
    assert parse_args("n=2,eps=0.25,kappa=0.5", kinds) == want
    assert parse_args(" kappa = 0.5 , eps=0.25,n=2", kinds) == want
    got = parse_args("eps=1e-1,n=3", kinds, optional=("kappa",))
    assert got == {"eps": 0.1, "n": 3} and type(got["n"]) is int
    assert parse_args("", {}) == {}
    for text, named in [
        ("n=2,eps=0.25,kappa=0.5,kapa=1", "'kapa'"),   # unknown key
        ("n=2,eps=0.25,n=3,kappa=1", "'n'"),           # repeated key
        ("n=2,kappa=1", "'eps'"),                      # missing key
        ("n=2.5,eps=0.25,kappa=1", "n=2.5"),           # int that does not convert
        ("n=2,eps=x,kappa=1", "eps=x"),                # float that does not convert
        ("n=2,eps=nan,kappa=1", "eps=nan"),            # non-finite floats
        ("n=2,eps=-inf,kappa=1", "eps=-inf"),
        ("n=2,eps=0.25,kappa=inf", "kappa=inf"),
        ("n=2,eps,kappa=1", "'eps'"),                  # not key=value
        ("n=2,eps=0.25,kappa=1,", "''"),               # empty field
    ]:
        with pytest.raises(ValueError, match=named):
            parse_args(text, kinds)


def test_custom_keywords_check_finite_alpha_and_beta():
    for alpha, beta in [(math.inf, 0), (math.nan, 0), (1, math.nan), (1, -1), (0, 1)]:
        with pytest.raises(ValueError, match="finite alpha >= beta > -1"):
            make_space(alpha=alpha, beta=beta)


@pytest.mark.parametrize("name", CATALOG)
def test_theta_t_round_trip(name):
    sp = make_space(name)
    thetas = np.linspace(0.0, sp.diameter, 1000)
    for th in thetas:
        t = t_from_theta(sp, th)
        assert -1.0 <= t <= 1.0
        assert abs(theta_from_t(sp, t) - th) < 1e-12


def test_theta_t_endpoints():
    assert t_from_theta(make_space("CP3"), 0.0) == 1.0
    assert t_from_theta(make_space("S2"), math.pi) == pytest.approx(-1.0, abs=1e-15)
    assert t_from_theta(make_space("RP2"), math.pi / 2) == pytest.approx(-1.0, abs=1e-15)
    with pytest.raises(ValueError):
        t_from_theta(make_space("RP2"), 2.0)  # beyond the diameter pi/2
    with pytest.raises(ValueError):
        theta_from_t(make_space("S2"), 1.5)


def test_chi_from_t():
    assert chi_from_t(1.0) == 0.0
    assert chi_from_t(-1.0) == 1.0
    assert chi_from_t(0.0) == pytest.approx(math.sqrt(0.5), rel=1e-15)
    # chi = sin(kappa theta) for every space
    for name in ("S2", "CP2", "HP2"):
        sp = make_space(name)
        for th in np.linspace(0.01, sp.diameter, 25):
            t = t_from_theta(sp, th)
            assert chi_from_t(t) == pytest.approx(math.sin(sp.kappa * th), abs=1e-13)


# below ~1e-3 the arccos round trip is limited by ulp(1) in t, not by the
# implementation; the grid test covers theta = 0 exactly
@given(st.floats(min_value=1e-3, max_value=math.pi / 2))
def test_round_trip_rp3_hypothesis(theta):
    sp = make_space("RP3")
    assert abs(theta_from_t(sp, t_from_theta(sp, theta)) - theta) < 1e-12


def measure_density(space: Space, t):
    """Density of mu_{alpha,beta} at t (scalar or array), probability-normalized."""
    a, b = space.alpha, space.beta
    Z = total_mass((a, b))
    arr = np.asarray(t, dtype=float)
    if np.any(arr < -1) or np.any(arr > 1):
        raise ValueError("t outside [-1,1]")
    at_lo = arr == -1.0
    at_hi = arr == 1.0
    if (a < 0 and np.any(at_hi)) or (b < 0 and np.any(at_lo)):
        raise ValueError("density diverges at an endpoint with negative exponent")
    with np.errstate(divide="ignore"):
        out = (1 - arr) ** a * (1 + arr) ** b / Z
    return float(out) if np.isscalar(t) or arr.ndim == 0 else out


@pytest.mark.parametrize("name", CATALOG)
def test_measure_density_normalized(name):
    sp = make_space(name)
    nodes, weights = np.polynomial.legendre.leggauss(220)
    # substitute t = cos(u) to keep the beta = -1/2 endpoint integrable
    u = math.pi / 2 * (nodes + 1)
    vals = measure_density(sp, np.cos(u)) * np.sin(u)
    total = math.pi / 2 * float(np.dot(weights, vals))
    assert total == pytest.approx(1.0, rel=5e-11)


def test_measure_density_values():
    s2 = make_space("S2")
    assert measure_density(s2, 0.3) == pytest.approx(0.5, rel=1e-15)
    assert measure_density(s2, -0.9) == pytest.approx(0.5, rel=1e-15)
    # (1-t)^1 (1+t)^0 / Z at t=0 with Z = 4 Gamma(2)Gamma(1)/Gamma(3) = 2
    assert measure_density(make_space("CP2"), 0.0) == pytest.approx(0.5, rel=1e-14)
    with pytest.raises(ValueError):
        measure_density(make_space("RP2"), -1.0)  # (1+t)^(-1/2) blows up


def test_sample_mean_of_t():
    # E[t] = (beta - alpha)/(alpha + beta + 2); -1/3 for both CP2 and RP2
    cases = {"S2": 0.0, "CP2": -1.0 / 3.0, "RP2": -1.0 / 3.0}
    n = 200_000
    for name, mean in cases.items():
        sp = make_space(name)
        X = sample_uniform_points(sp, make_rng(101, 0), n)
        Y = sample_uniform_points(sp, make_rng(101, 1), n)
        t = distance_t_arrays(sp, X, Y)
        stderr = t.std(ddof=1) / math.sqrt(n)
        assert abs(t.mean() - mean) < 3 * stderr + 1e-6, name


def measure_cdf(space, t):
    """CDF of mu_{alpha,beta}: regularized incomplete beta in u = (1+t)/2."""
    from scipy.special import betainc

    u = (1 + np.asarray(t, dtype=float)) / 2
    return betainc(space.beta + 1, space.alpha + 1, u)


@pytest.mark.parametrize("name", SAMPLED)
def test_sample_distribution_ks(name):
    """Empirical t-distribution against the CDF of the weight measure."""
    sp = make_space(name)
    n = 10_000
    X = sample_uniform_points(sp, make_rng(55, 0), n)
    y = sample_uniform_point(sp, make_rng(55, 1))
    t = np.sort(distance_t_arrays(sp, X, np.tile(y.coords, (n, 1))))
    cdf = measure_cdf(sp, t)
    i = np.arange(1, n + 1)
    ks = max(np.max(cdf - (i - 1) / n), np.max(i / n - cdf))
    assert ks < 1.6276 / math.sqrt(n)  # 1% critical value


def test_sampling_unsupported_space():
    with pytest.raises(ValueError):
        sample_uniform_point(make_space("OP2"), make_rng(0, 0))


@pytest.mark.parametrize("name", SAMPLED)
def test_points_unit_norm(name):
    sp = make_space(name)
    X = sample_uniform_points(sp, make_rng(9, 0), 200)
    assert np.allclose(np.linalg.norm(X, axis=1), 1.0, atol=1e-12)


def test_distance_examples():
    s2 = make_space("S2")
    rng = make_rng(3, 0)
    x = sample_uniform_point(s2, rng)
    assert distance_t(x, x) == pytest.approx(1.0, abs=1e-14)

    cp2 = make_space("CP2")
    e0 = Point(cp2, np.array([1.0, 0, 0, 0, 0, 0]))
    e1 = Point(cp2, np.array([0, 0, 1.0, 0, 0, 0]))
    assert distance_t(e0, e1) == pytest.approx(-1.0, abs=1e-14)

    with pytest.raises(ValueError):
        distance_t(x, e0)


def _as_complex(coords: np.ndarray, d: int) -> np.ndarray:
    c = coords.reshape(-1, d, 2)
    return c[..., 0] + 1j * c[..., 1]


def _inner_abs2_complex(space: Space, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Reference |<x,y>|^2 on CP: complex einsum of conj(x) and y."""
    xc = _as_complex(X, space.d)
    yc = _as_complex(Y, space.d)
    return np.abs(np.einsum("ij,ij->i", xc.conj(), yc)) ** 2


# ---------------------------------------------------------------------------
# isometries of the point models (test-only helpers)


def rephase_point(p: Point, rng: np.random.Generator) -> Point:
    """Multiply by a random unit field scalar; a projective no-op."""
    sp = p.space
    if sp.family == FAMILY_RP:
        return Point(sp, p.coords * rng.choice([-1.0, 1.0]))
    if sp.family == FAMILY_CP:
        phi = rng.uniform(0, 2 * math.pi)
        z = _as_complex(p.coords, sp.d)[0] * np.exp(1j * phi)
        return Point(sp, np.stack([z.real, z.imag], axis=-1).ravel())
    if sp.family == FAMILY_HP:
        lam = rng.normal(size=4)
        lam /= np.linalg.norm(lam)
        q = p.coords.reshape(sp.d, 4)
        return Point(sp, _quat_mul(q, lam[None, :]).ravel())
    raise ValueError(f"{sp.name} is not projective")


def random_isometry(space: Space, rng: np.random.Generator) -> np.ndarray:
    """A random orthogonal/unitary/quaternion-unitary matrix for the model.

    Returned in a form `apply_isometry` understands; used for invariance tests.
    """
    if space.family in (FAMILY_SPHERE, FAMILY_RP):
        n = space.d
        q, r = np.linalg.qr(rng.normal(size=(n, n)))
        return q * np.sign(np.diag(r))
    if space.family == FAMILY_CP:
        n = space.d
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        q, r = np.linalg.qr(g)
        return q * (np.diag(r) / np.abs(np.diag(r))).conj()
    if space.family == FAMILY_HP:
        n = space.d
        g = rng.normal(size=(n, n, 4))
        # Gram-Schmidt over H with right coefficients: v <- v - u <u,v>
        for i in range(n):
            for j in range(i):
                u = g[j]
                ip = _quat_mul(_quat_conj(u), g[i]).sum(axis=0)
                g[i] = g[i] - _quat_mul(u, np.broadcast_to(ip, u.shape))
            nrm = math.sqrt((g[i] ** 2).sum())
            g[i] = g[i] / nrm
        return g
    raise ValueError(f"{space.name} has no point model")


def apply_isometry(space: Space, M, p: Point) -> Point:
    if space.family in (FAMILY_SPHERE, FAMILY_RP):
        return Point(space, M @ p.coords)
    if space.family == FAMILY_CP:
        z = _as_complex(p.coords, space.d)[0]
        w = M @ z
        return Point(space, np.stack([w.real, w.imag], axis=-1).ravel())
    if space.family == FAMILY_HP:
        # rows of M are orthonormal under sum_k conj(u_k) v_k, which over H
        # makes x -> M^T x (not M x) the inner-product preserving map
        x = p.coords.reshape(space.d, 4)
        out = np.zeros_like(x)
        for i in range(space.d):
            out[i] = _quat_mul(M[:, i], x).sum(axis=0)
        return Point(space, out.ravel())
    raise ValueError(f"{space.name} has no point model")


@pytest.mark.parametrize("name", ("RP3", "CP2", "HP2"))
def test_rephase_invariance(name):
    sp = make_space(name)
    rng = make_rng(17, 0)
    for _ in range(50):
        x = sample_uniform_point(sp, rng)
        y = sample_uniform_point(sp, rng)
        t0 = distance_t(x, y)
        t1 = distance_t(rephase_point(x, rng), rephase_point(y, rng))
        assert abs(t1 - t0) < 1e-12


@pytest.mark.parametrize("name", SAMPLED)
def test_isometry_invariance(name):
    sp = make_space(name)
    rng = make_rng(23, 0)
    for _ in range(10):
        x = sample_uniform_point(sp, rng)
        y = sample_uniform_point(sp, rng)
        M = random_isometry(sp, rng)
        t0 = distance_t(x, y)
        t1 = distance_t(apply_isometry(sp, M, x), apply_isometry(sp, M, y))
        assert abs(t1 - t0) <= 1e-10 * max(1.0, abs(t0))


def test_clamp_t():
    assert clamp_t(1.0 + 5e-16) == 1.0
    assert clamp_t(-1.0 - 5e-16) == -1.0
    assert clamp_t(0.25) == 0.25
    with pytest.raises(ValueError):
        clamp_t(1.0 + 1e-12)


def test_point_file_round_trip(tmp_path):
    sp = make_space("CP2")
    X = sample_uniform_points(sp, make_rng(31, 0), 12)
    path = tmp_path / "pts.csv"
    save_points(str(path), sp, X)
    header = path.read_text().splitlines()[0]
    assert header == "# space=CP2 field=C d=3"
    loaded_space, Y = load_points(str(path))
    assert loaded_space == sp
    assert np.allclose(X, Y, atol=0)
    with pytest.raises(ValueError):
        load_points(str(path), make_space("S2"))


def test_point_file_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,0.0,0.0\n")
    with pytest.raises(ValueError):
        load_points(str(path))


def test_rng_streams():
    a = make_rng(42, 0).normal(size=5)
    b = make_rng(42, 0).normal(size=5)
    c = make_rng(42, 1).normal(size=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=0, max_value=1000))
def test_rng_stream_determinism(seed, task):
    assert np.array_equal(make_rng(seed, task).normal(size=3), make_rng(seed, task).normal(size=3))


@pytest.mark.parametrize("d", range(2, 10))
def test_cp_inner_product_matches_complex_einsum(d):
    """The real-component sums give the bits of a complex einsum, for paired
    rows and for a base point broadcast to every row."""
    sp = make_space(f"CP{d - 1}")
    rng = make_rng(707, sp.d)
    X = sample_uniform_points(sp, rng, 20_000)
    Y = sample_uniform_points(sp, rng, 20_000)
    assert np.array_equal(_inner_abs2(sp, X, Y), _inner_abs2_complex(sp, X, Y))
    Z = np.broadcast_to(X[0], Y.shape)
    assert np.array_equal(_inner_abs2(sp, Z, Y), _inner_abs2_complex(sp, Z, Y))
    assert np.array_equal(_inner_abs2(sp, X, X), _inner_abs2_complex(sp, X, X))


@pytest.mark.parametrize("name", ("S2", "RP3", "CP2", "HP2"))
@pytest.mark.parametrize("count", (1, BLOCK - 1, BLOCK + 1, 2 * BLOCK))
def test_sampling_normalises_by_block(name, count):
    """Normalising BLOCK rows at a time gives the bits of one whole-array
    normalisation of the same normal draws."""
    sp = make_space(name)
    g = make_rng(808, count).normal(size=(count, _coords_per_point(sp)))
    want = g / np.linalg.norm(g, axis=1, keepdims=True)
    assert np.array_equal(sample_uniform_points(sp, make_rng(808, count), count), want)


@pytest.mark.parametrize("name", ("S2", "CP2", "HP2"))
@pytest.mark.parametrize("count", (1, BLOCK - 1, BLOCK + 1, 2 * BLOCK + 3, 118928))
def test_sampling_in_consecutive_blocks_matches_one_draw(name, count):
    """The Monte Carlo batches draw Y one block at a time after X: drawing
    `count` rows in consecutive calls of at most BLOCK rows gives the array
    of one call, and leaves the stream where one call leaves it."""
    sp = make_space(name)
    whole_rng, block_rng = make_rng(313, count), make_rng(313, count)
    whole = sample_uniform_points(sp, whole_rng, count)
    parts = [sample_uniform_points(sp, block_rng, min(BLOCK, count - k))
             for k in range(0, count, BLOCK)]
    assert (np.concatenate(parts) == whole).all()
    assert (block_rng.normal(size=5) == whole_rng.normal(size=5)).all()


@pytest.mark.parametrize("name", ("HP2", "HP3", "HP5"))
def test_hp_inner_product_matches_quaternion_products(name):
    """The component formulas give the same bits as the former path, which
    conjugated a copy of x and stacked the Hamilton product."""
    sp = make_space(name)
    rng = make_rng(606, sp.d)
    X = sample_uniform_points(sp, rng, 500)
    Y = sample_uniform_points(sp, rng, 500)
    xq, yq = X.reshape(-1, sp.d, 4), Y.reshape(-1, sp.d, 4)
    ip = _quat_mul(_quat_conj(xq), yq).sum(axis=1)
    want = (ip**2).sum(axis=-1)
    assert np.array_equal(_inner_abs2(sp, X, Y), want)
    # rows that share a point, where |<x,y>|^2 is 1 up to rounding
    same = _quat_mul(_quat_conj(xq), xq).sum(axis=1)
    assert np.array_equal(_inner_abs2(sp, X, X), (same**2).sum(axis=-1))
