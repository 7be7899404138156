import math

import numpy as np
import pytest

from zonalpd import energy as energy_mod
from zonalpd.energy import (
    MC_BATCH,
    DiscreteMeasure,
    PerturbedMeasureSpec,
    canonical_point,
    energy_discrete,
    energy_perturbed,
    energy_uniform,
    energy_uniform_detail,
    funk_hecke_mc,
)
from zonalpd.kernels import (
    cos_power_kernel,
    jacobi_unit_kernel,
    gaussian_kernel,
    parse_kernel,
    riesz_chordal,
    riesz_geodesic,
)
from zonalpd.spaces import Point, distance_t, make_rng, make_space, sample_uniform_points
from zonalpd.transform import coefficients_de

S2 = make_space("S2")
RP2 = make_space("RP2")
CP2 = make_space("CP2")


def pts(space, rows):
    return [Point(space, np.asarray(r, dtype=float)) for r in rows]


# ---------------------------------------------------------------------------
# DiscreteMeasure


def test_measure_defaults_and_validation():
    m = DiscreteMeasure(S2, pts(S2, [[0, 0, 1], [1, 0, 0]]))
    assert m.weights == (0.5, 0.5)
    assert m.total_mass() == 1.0
    m.require_probability()
    with pytest.raises(ValueError):
        DiscreteMeasure(S2, [])
    with pytest.raises(ValueError):
        DiscreteMeasure(S2, pts(S2, [[0, 0, 1]]), weights=[0.5, 0.5])
    with pytest.raises(ValueError):
        DiscreteMeasure(S2, pts(S2, [[0, 0, 1]]), weights=[float("nan")])
    with pytest.raises(ValueError):
        DiscreteMeasure(RP2, pts(S2, [[0, 0, 1]]))
    signed = DiscreteMeasure(S2, pts(S2, [[0, 0, 1], [1, 0, 0]]), weights=[1, -1])
    with pytest.raises(ValueError):
        signed.require_probability()


def test_energy_single_point():
    m = DiscreteMeasure(S2, pts(S2, [[0, 0, 1]]))
    assert energy_discrete(m, gaussian_kernel(S2, "chordal", 1.0), include_diagonal=True) == 1.0
    # off-diagonal sum over one point is empty
    assert energy_discrete(m, riesz_geodesic(S2, 1.0)) == 0.0


def test_energy_antipodal_cancellation():
    m = DiscreteMeasure(S2, pts(S2, [[0, 0, 1], [0, 0, -1]]))
    e = energy_discrete(m, jacobi_unit_kernel(S2, 1), include_diagonal=True)
    assert e == pytest.approx(0.0, abs=1e-15)


def test_singular_kernel_rejects_diagonal():
    m = DiscreteMeasure(S2, pts(S2, [[0, 0, 1], [1, 0, 0]]))
    with pytest.raises(ValueError):
        energy_discrete(m, riesz_geodesic(S2, 0.5), include_diagonal=True)
    with pytest.raises(ValueError):
        energy_discrete(m, parse_kernel("log-chordal", S2), include_diagonal=True)
    assert math.isfinite(energy_discrete(m, riesz_geodesic(S2, 0.5)))


def test_four_point_signed_energy():
    # lines through the origin at multiples of pi/4; alternating weights.
    # For F = -theta^2 the signed energy is exactly -pi^2/32: the squared
    # geodesic distance is not conditionally positive definite here.
    rows = [
        [math.cos(k * math.pi / 4), math.sin(k * math.pi / 4), 0.0] for k in range(4)
    ]
    m = DiscreteMeasure(RP2, pts(RP2, rows), weights=[0.25, -0.25, 0.25, -0.25])
    e = energy_discrete(m, riesz_geodesic(RP2, -2.0), include_diagonal=True)
    assert e == pytest.approx(-math.pi**2 / 32, rel=1e-12)
    # the same configuration under F = -theta sits exactly at the boundary
    e1 = energy_discrete(m, riesz_geodesic(RP2, -1.0), include_diagonal=True)
    assert e1 == pytest.approx(0.0, abs=1e-15)


def test_energy_permutation_invariant():
    rng = make_rng(7)
    coords = sample_uniform_points(CP2, rng, 6)
    w = [0.3, -0.2, 0.1, 0.4, -0.3, -0.3]
    points = [Point(CP2, c) for c in coords]
    ker = gaussian_kernel(CP2, "chordal", 0.7)
    e = energy_discrete(DiscreteMeasure(CP2, points, weights=w), ker, include_diagonal=True)
    perm = [4, 2, 0, 5, 1, 3]
    e2 = energy_discrete(
        DiscreteMeasure(CP2, [points[i] for i in perm], weights=[w[i] for i in perm]),
        ker,
        include_diagonal=True,
    )
    assert e == e2


@pytest.mark.parametrize("name", ("S2", "CP2"))
def test_gaussian_zero_sum_energies_nonnegative(name):
    # heat-type kernels have nonnegative coefficients, so every zero-sum
    # configuration has nonnegative energy with the diagonal included
    sp = make_space(name)
    ker = gaussian_kernel(sp, "chordal", 1.0)
    rng = make_rng(11)
    for _ in range(200 if name == "S2" else 50):
        k = int(rng.integers(2, 13))
        coords = sample_uniform_points(sp, rng, k)
        w = rng.normal(size=k)
        w -= w.mean()
        m = DiscreteMeasure(sp, [Point(sp, c) for c in coords], weights=w)
        assert energy_discrete(m, ker, include_diagonal=True) >= -1e-10


def _pair_loop_terms(measure, kernel, include_diagonal=False, scalar_f=False):
    """Terms of the per-pair double loop that the vectorized pass replaced.

    Kept as an oracle.  The loop evaluated F on a 0-d np.float64; numpy
    sends such scalars through libm but arrays through its SIMD routines,
    which may round pow and arccos differently in the last bit.  So by
    default F is evaluated on a one-element array, the form that the
    vectorized pass must match bit for bit; `scalar_f` restores the old
    scalar call.
    """
    pts = measure.points
    w = measure.weights
    terms = []
    for i in range(len(pts)):
        for j in range(len(pts)):
            if i == j and not include_diagonal:
                continue
            t = distance_t(pts[i], pts[j]) if i != j else 1.0
            f = kernel.f_t(np.float64(t)) if scalar_f else kernel.f_t(np.array([t]))[0]
            terms.append(w[i] * w[j] * float(f))
    return terms


ORACLE_KERNELS = (
    "riesz-chordal:s=1",
    "riesz-geodesic:s=-0.6",
    "log-geodesic",
    "gauss-geodesic:lambda=2",
    "jacobi:n=3",
)


@pytest.mark.parametrize("text", ORACLE_KERNELS)
@pytest.mark.parametrize("name", ("S2", "RP2", "CP2", "HP2"))
def test_energy_discrete_matches_pair_loop(name, text):
    sp = make_space(name)
    ker = parse_kernel(text, sp)
    rng = make_rng(31, 0)
    points = [Point(sp, c) for c in sample_uniform_points(sp, rng, 30)]
    singular = ker.sing_exponent > 0 or ker.log_flag
    for weights in (None, rng.normal(size=30)):
        m = DiscreteMeasure(sp, points, weights=weights)
        for diag in (False, True):
            if diag and singular:
                with pytest.raises(ValueError):
                    energy_discrete(m, ker, include_diagonal=True)
                continue
            got = energy_discrete(m, ker, include_diagonal=diag)
            assert got == math.fsum(_pair_loop_terms(m, ker, diag))
            # the old scalar evaluation differs by at most a few ulps a term
            old = _pair_loop_terms(m, ker, diag, scalar_f=True)
            bound = 4 * np.finfo(float).eps * math.fsum(abs(x) for x in old)
            assert abs(got - math.fsum(old)) <= bound


def test_energy_discrete_blocks_bounded(monkeypatch):
    # 400 points on HP2 give 159600 ordered pairs, more than one MC_BATCH
    sp = make_space("HP2")
    rng = make_rng(37, 0)
    points = [Point(sp, c) for c in sample_uniform_points(sp, rng, 400)]
    m = DiscreteMeasure(sp, points, weights=rng.normal(size=400))
    ker = parse_kernel("riesz-chordal:s=1", sp)
    sizes = []
    real = energy_mod.distance_t_arrays

    def spy(space, X, Y):
        sizes.append(len(X))
        return real(space, X, Y)

    monkeypatch.setattr(energy_mod, "distance_t_arrays", spy)
    got = energy_discrete(m, ker)
    assert len(sizes) >= 2 and max(sizes) <= MC_BATCH
    assert sum(sizes) == 400 * 399
    assert got == math.fsum(_pair_loop_terms(m, ker))


def test_energy_discrete_keeps_clamp_check():
    # two copies of a point whose norm is 1 + 1e-13 (within Point's 1e-12)
    # give t = 1 + 2e-13, far beyond the clamp tolerance
    row = [1.0 + 1e-13, 0.0, 0.0]
    m = DiscreteMeasure(S2, pts(S2, [row, row]))
    with pytest.raises(ValueError, match="clamping"):
        energy_discrete(m, gaussian_kernel(S2, "chordal", 1.0))


# ---------------------------------------------------------------------------
# uniform energy


def test_energy_uniform_is_mean():
    assert energy_uniform(S2, cos_power_kernel(0)) == 1.0
    assert energy_uniform(S2, jacobi_unit_kernel(S2, 1)) == pytest.approx(0.0, abs=1e-20)
    # mean of (1+t)/2 picks up the first moment of t, which is -1/3 here
    assert energy_uniform(RP2, cos_power_kernel(1)) == pytest.approx(1 / 3, rel=1e-12)
    assert energy_uniform(S2, riesz_chordal(S2, 1.0)) == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize(
    "name,text",
    [
        ("RP2", "riesz-geodesic:s=0.5"),
        ("CP2", "log-geodesic"),
        ("S4", "riesz-chordal:s=1"),
        ("HP2", "log-chordal"),
    ],
)
def test_energy_uniform_dual_route(name, text):
    sp = make_space(name)
    ker = parse_kernel(text, sp)
    value, exp_v, exp_e, quad_v, quad_e = energy_uniform_detail(sp, ker, digits=30)
    assert abs(exp_v - quad_v) <= exp_e + quad_e
    assert float(value) == pytest.approx(
        float(coefficients_de(sp, ker, N=0, digits=30).entry(0).value), rel=1e-20
    )


def test_energy_uniform_rejects_non_integrable():
    with pytest.raises(ValueError):
        energy_uniform(S2, riesz_geodesic(make_space("S4"), 2.5))


# ---------------------------------------------------------------------------
# perturbed measures


def test_perturbed_spec_validation():
    with pytest.raises(ValueError):
        PerturbedMeasureSpec(0, 0.1)
    with pytest.raises(ValueError):
        PerturbedMeasureSpec(1, -0.1)
    with pytest.raises(ValueError):
        PerturbedMeasureSpec(1, 0.1, z="north")
    spec = PerturbedMeasureSpec(1, 2.0)  # density 1 + 2 P_1 goes negative
    with pytest.raises(ValueError):
        spec.validate(S2)
    spec = PerturbedMeasureSpec(1, 0.1, z=canonical_point(S2))
    with pytest.raises(ValueError):
        spec.validate(CP2)


def test_perturbed_closed_form_exact():
    # F = P_1 on the sphere: only the epsilon^2 term survives and equals
    # eps^2 P_1(1)^3 / m_1^2 = 0.01 / 9
    out = energy_perturbed(
        S2, jacobi_unit_kernel(S2, 1), PerturbedMeasureSpec(1, 0.1), run_mc=False
    )
    assert out["closed_form"] == pytest.approx(1 / 900, rel=1e-12)
    assert out["uniform_energy"] == pytest.approx(0.0, abs=1e-15)
    assert out["coefficient_n"] == pytest.approx(1.0, rel=1e-12)


def test_perturbed_direction_tracks_coefficient_sign():
    # CP3 log kernel: hat F(6) < 0, so the perturbation lowers the energy
    cp3 = make_space("CP3")
    out = energy_perturbed(
        cp3, parse_kernel("log-geodesic", cp3), PerturbedMeasureSpec(6, 0.03),
        run_mc=False, digits=40,
    )
    assert out["coefficient_n"] < 0
    assert out["closed_form"] < out["uniform_energy"]
    # chordal s = 1 on the sphere: every coefficient positive, energy rises
    for n in (1, 2, 3):
        out = energy_perturbed(
            S2, riesz_chordal(S2, 1.0), PerturbedMeasureSpec(n, 0.1), run_mc=False
        )
        assert out["closed_form"] > out["uniform_energy"]


def test_perturbed_mc_agreement():
    out = energy_perturbed(
        S2, jacobi_unit_kernel(S2, 1), PerturbedMeasureSpec(1, 0.1), samples=200_000, seed=3
    )
    assert abs(out["mc_estimate"] - out["closed_form"]) <= 3 * out["stderr"]
    out = energy_perturbed(
        CP2, riesz_chordal(CP2, 1.0), PerturbedMeasureSpec(2, 0.05),
        samples=100_000, seed=5,
    )
    assert abs(out["mc_estimate"] - out["closed_form"]) <= 3 * out["stderr"]


def test_perturbed_mc_deterministic_across_threads():
    kw = dict(samples=50_000, seed=9)
    a = energy_perturbed(S2, jacobi_unit_kernel(S2, 1), PerturbedMeasureSpec(1, 0.1), **kw)
    b = energy_perturbed(S2, jacobi_unit_kernel(S2, 1), PerturbedMeasureSpec(1, 0.1), **kw)
    c = energy_perturbed(
        S2, jacobi_unit_kernel(S2, 1), PerturbedMeasureSpec(1, 0.1), threads=3, **kw
    )
    assert a["mc_estimate"] == b["mc_estimate"] == c["mc_estimate"]


# ---------------------------------------------------------------------------
# reproducing identity by Monte Carlo


def test_funk_hecke_orthogonal_points():
    x = Point(S2, np.array([0.0, 0.0, 1.0]))
    y = Point(S2, np.array([1.0, 0.0, 0.0]))
    out = funk_hecke_mc(S2, 1, x, y, samples=200_000, seed=1)
    assert out["rhs"] == pytest.approx(0.0, abs=1e-15)
    assert abs(out["lhs_mc"]) <= 3 * out["stderr"]


def test_funk_hecke_coincident_points():
    x = Point(S2, np.array([0.0, 0.0, 1.0]))
    out = funk_hecke_mc(S2, 1, x, x, samples=200_000, seed=2)
    assert out["rhs"] == pytest.approx(1 / 3, rel=1e-12)
    assert abs(out["lhs_mc"] - 1 / 3) <= 3 * out["stderr"]


def test_funk_hecke_random_cp2():
    rng = make_rng(21)
    coords = sample_uniform_points(CP2, rng, 2)
    x, y = Point(CP2, coords[0]), Point(CP2, coords[1])
    out = funk_hecke_mc(CP2, 2, x, y, samples=100_000, seed=4)
    assert abs(out["lhs_mc"] - out["rhs"]) <= 3 * out["stderr"]


def test_funk_hecke_validation():
    x = Point(S2, np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        funk_hecke_mc(S2, 13, x, x)
    with pytest.raises(ValueError):
        funk_hecke_mc(CP2, 2, x, x)


def test_funk_hecke_seed_determinism():
    x = Point(S2, np.array([0.0, 0.0, 1.0]))
    y = Point(S2, np.array([1.0, 0.0, 0.0]))
    a = funk_hecke_mc(S2, 2, x, y, samples=40_000, seed=6)
    b = funk_hecke_mc(S2, 2, x, y, samples=40_000, seed=6)
    c = funk_hecke_mc(S2, 2, x, y, samples=40_000, seed=6, threads=4)
    d = funk_hecke_mc(S2, 2, x, y, samples=40_000, seed=7)
    assert a["lhs_mc"] == b["lhs_mc"] == c["lhs_mc"]
    assert d["lhs_mc"] != a["lhs_mc"]
