"""Energy functionals for the uniform, discrete, and perturbed measures.

The uniform energy of a kernel is its mean value over the space, which the
expansion machinery identifies with the degree-0 coefficient; it is computed
both ways and cross-checked.  Discrete energies are double sums over
weighted point sets, evaluated as one vectorized pass over the pairs.  The
perturbed-measure energy compares the closed form

    E_F(mu) = E_F(sigma) + eps^2 * P_n(1)^3 / m_n^2 * F^(n)

for the density (1 + eps P_n(t(. , z))) d sigma against an importance-sampled
Monte Carlo estimate; a negative coefficient at degree n makes the perturbed
energy drop below the uniform one, which is the quantitative sense in which
such kernels fail to be minimized by the uniform measure.

Monte Carlo runs are deterministic: samples come from counter-based
Philox streams keyed (seed, batch index), and batch results are reduced
with exact compensated summation in batch order, so the estimate is
independent of batch scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

import mpmath as mp
import numpy as np

from .jacobi import JacobiParams, dim_m_n, jacobi_eval_all, jacobi_value_at_one
from .kernels import ZonalKernel, env_from_theta
from .spaces import (
    Point,
    Space,
    _coords_per_point,
    distance_t,
    distance_t_arrays,
    make_rng,
    sample_uniform_points,
)
from .transform import certify_coefficients, coefficients_de

__all__ = [
    "DiscreteMeasure",
    "PerturbedMeasureSpec",
    "energy_uniform",
    "energy_uniform_detail",
    "energy_discrete",
    "energy_perturbed",
    "funk_hecke_mc",
    "canonical_point",
]

MC_BATCH = 1 << 17
PROBABILITY_TOL = 1e-12


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely many weighted atoms on one space.

    Weights default to uniform 1/N.  Signed weights are allowed (zero-sum
    measures are how conditional positive definiteness is probed);
    operations that need a probability measure call `require_probability`.
    """

    space: Space
    points: Tuple[Point, ...]
    weights: Tuple[float, ...]

    def __init__(
        self,
        space: Space,
        points: Sequence[Point],
        weights: Optional[Sequence[float]] = None,
    ):
        pts = tuple(points)
        if not pts:
            raise ValueError("measure needs at least one point")
        for p in pts:
            if p.space != space:
                raise ValueError("point does not live on the measure's space")
        if weights is None:
            w = tuple(1.0 / len(pts) for _ in pts)
        else:
            w = tuple(float(x) for x in weights)
        if len(w) != len(pts):
            raise ValueError("weights and points differ in length")
        if not all(math.isfinite(x) for x in w):
            raise ValueError("weights must be finite")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return len(self.points)

    def total_mass(self) -> float:
        return math.fsum(self.weights)

    def require_probability(self) -> None:
        if abs(self.total_mass() - 1.0) > PROBABILITY_TOL:
            raise ValueError(
                f"weights sum to {self.total_mass()}, not a probability measure"
            )

    def coords(self) -> np.ndarray:
        return np.stack([p.coords for p in self.points])


@dataclass(frozen=True)
class PerturbedMeasureSpec:
    """Density perturbation (1 + epsilon P_n(t(., z))) of the uniform measure.

    The energy does not depend on the base point z (two-point homogeneity),
    so z may be the string "any"; a canonical point is used for sampling.
    epsilon must keep the density nonnegative, i.e. epsilon <= 1/max|P_n|;
    `validate` checks this on a fine grid for the space at hand.
    """

    n: int
    epsilon: float
    z: Union[Point, str] = "any"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("perturbation degree n must be >= 1")
        if not (self.epsilon > 0):
            raise ValueError("epsilon must be positive")
        if isinstance(self.z, str) and self.z != "any":
            raise ValueError("z must be a Point or the string 'any'")

    def validate(self, space: Space) -> None:
        if isinstance(self.z, Point) and self.z.space != space:
            raise ValueError("base point z lives on a different space")
        params = JacobiParams(space.alpha, space.beta)
        grid = np.linspace(-1.0, 1.0, 4001)
        pn = jacobi_eval_all(params, self.n, grid)[self.n]
        peak = float(np.max(np.abs(pn)))
        if self.epsilon * peak > 1.0 + 1e-9:
            raise ValueError(
                f"epsilon={self.epsilon} too large: density 1 + eps*P_{self.n} "
                f"dips negative (needs eps <= {1.0 / peak:.6g})"
            )

    def base_coords(self, space: Space) -> np.ndarray:
        if isinstance(self.z, Point):
            return self.z.coords
        return canonical_point(space).coords


def canonical_point(space: Space) -> Point:
    """A fixed reference point (first coordinate vector)."""
    c = np.zeros(_coords_per_point(space))
    c[0] = 1.0
    return Point(space, c)


# ---------------------------------------------------------------------------
# uniform measure


def _quad_theta_integral(space: Space, kernel: ZonalKernel, dps: int):
    """Mean of F over the space by adaptive quadrature in the angle variable.

    Independent of the expansion pipeline: different algorithm
    (Gauss-Legendre adaptive vs tanh-sinh levels) and different variable
    splits.  Returns (value, error_estimate) as mpf.
    """
    with mp.workdps(dps):
        a = mp.mpf(space.alpha)
        b = mp.mpf(space.beta)
        k = mp.mpf(space.kappa)
        C = 2 * mp.gamma(a + b + 2) / (mp.gamma(a + 1) * mp.gamma(b + 1))
        shift = mp.mpf(kernel.gj_shift)

        def f(u):
            if u <= 0 or u >= mp.pi / 2:
                return mp.mpf(0)
            env = env_from_theta(k, u / k)
            g = kernel.eval_g(env)
            F = g * env.one_minus_t ** (-shift) if shift else g
            return F * mp.sin(u) ** (2 * a + 1) * mp.cos(u) ** (2 * b + 1)

        pts = [0, mp.pi / 8, mp.pi / 4, 3 * mp.pi / 8, mp.pi / 2]
        val, err = mp.quad(f, pts, error=True)
        return C * val, C * err + mp.mpf(10) ** (-(dps - 4))


def energy_uniform_detail(space: Space, kernel: ZonalKernel, digits: int = 30):
    """Both routes to the uniform energy plus their error estimates.

    Returns (value, expansion_value, expansion_err, quad_value, quad_err)
    with `value` the adopted result.  Raises ArithmeticError when the two
    routes disagree beyond combined error.
    """
    kernel.require_integrable(space)
    rep = coefficients_de(space, kernel, N=0, digits=digits)
    e0 = rep.entry(0)
    qv, qe = _quad_theta_integral(space, kernel, digits)
    tol = abs(e0.error) + abs(qe)
    if abs(e0.value - qv) > tol:
        raise ArithmeticError(
            f"uniform-energy routes disagree: expansion {mp.nstr(e0.value, 12)} "
            f"vs quadrature {mp.nstr(qv, 12)} (combined error {mp.nstr(tol, 4)})"
        )
    return e0.value, e0.value, e0.error, qv, qe


def energy_uniform(space: Space, kernel: ZonalKernel, digits: int = 30) -> float:
    """Mean of the kernel over the space (equals its degree-0 coefficient)."""
    value, *_ = energy_uniform_detail(space, kernel, digits)
    return float(value)


# ---------------------------------------------------------------------------
# discrete measures


def energy_discrete(
    measure: DiscreteMeasure,
    kernel: ZonalKernel,
    include_diagonal: bool = False,
) -> float:
    """Double sum  sum_i sum_j w_i w_j F(t(x_i, x_j)).

    The ordered pairs i != j go row-major in blocks of whole rows, at most
    MC_BATCH pairs each (one row if a row alone is longer); each block makes
    one `distance_t_arrays` and one `f_t` call, so memory stays bounded and
    no Python loop runs over pairs.  Kernels unbounded at the diagonal
    (positive singularity exponent or a log term) admit only the
    off-diagonal sum; asking for the diagonal raises.  The reduction is one
    exact compensated summation, so permuting the points changes nothing.
    """
    if include_diagonal and (kernel.sing_exponent > 0 or kernel.log_flag):
        raise ValueError(
            f"kernel {kernel.descriptor} is singular at the diagonal; "
            "include_diagonal must be False"
        )
    X = measure.coords()
    w = np.asarray(measure.weights)
    n = len(w)
    rows = max(1, MC_BATCH // max(n - 1, 1))
    terms = []
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        i = np.repeat(np.arange(start, stop), n - 1)
        j = np.tile(np.arange(n - 1), stop - start)
        j += j >= i
        t = distance_t_arrays(measure.space, X[i], X[j])
        terms += (w[i] * w[j] * kernel.f_t(t)).tolist()
    if include_diagonal:
        terms += (w * w * float(kernel.f_t(np.float64(1.0)))).tolist()
    return math.fsum(terms)


# ---------------------------------------------------------------------------
# Monte Carlo

BatchFn = Callable[[np.random.Generator, int], np.ndarray]


def _mc_mean(
    batch_fn: BatchFn, samples: int, seed: int, threads: int = 1
) -> Tuple[float, float]:
    """Mean and standard error of batch_fn values over `samples` draws.

    Batch i draws from the Philox stream keyed (seed, i); the sums are
    reduced in batch order with math.fsum, so the result is identical no
    matter how batches are scheduled.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    counts = [MC_BATCH] * (samples // MC_BATCH)
    if samples % MC_BATCH:
        counts.append(samples % MC_BATCH)

    def run(i: int) -> Tuple[float, float]:
        vals = np.asarray(batch_fn(make_rng(seed, i), counts[i]), dtype=float)
        return math.fsum(vals.tolist()), math.fsum((vals * vals).tolist())

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as ex:
            results = list(ex.map(run, range(len(counts))))
    else:
        results = [run(i) for i in range(len(counts))]

    s1 = math.fsum(r[0] for r in results)
    s2 = math.fsum(r[1] for r in results)
    mean = s1 / samples
    var = max(0.0, (s2 - s1 * s1 / samples) / (samples - 1))
    return mean, math.sqrt(var / samples)


def energy_perturbed(
    space: Space,
    kernel: ZonalKernel,
    spec: PerturbedMeasureSpec,
    *,
    samples: int = 10**6,
    seed: int = 0,
    digits: int = 30,
    threads: int = 1,
    run_mc: bool = True,
) -> dict:
    """Energy of the perturbed measure: closed form and MC estimate.

    Closed form from the certified coefficients; the MC part importance-
    samples pairs (x, y) from the uniform product measure, weighting each by
    (1 + eps P_n(t(x,z)))(1 + eps P_n(t(y,z))).  The two agree within a few
    standard errors when the pipeline is healthy.
    """
    spec.validate(space)
    kernel.require_integrable(space)
    n, eps = spec.n, spec.epsilon
    params = JacobiParams(space.alpha, space.beta)

    report = certify_coefficients(space, kernel, N=n, target_digits=digits)
    e0 = report.entry(0).value
    en = report.entry(n).value
    p1 = jacobi_value_at_one(params, n)
    m_n = dim_m_n(params, n)
    closed = float(e0 + mp.mpf(eps) ** 2 * mp.mpf(p1) ** 3 / mp.mpf(m_n) ** 2 * en)

    out = {
        "closed_form": closed,
        "uniform_energy": float(e0),
        "coefficient_n": float(en),
        "n": n,
        "epsilon": eps,
    }
    if not run_mc:
        return out

    z = spec.base_coords(space)

    def batch(rng: np.random.Generator, m: int) -> np.ndarray:
        X = sample_uniform_points(space, rng, m)
        Y = sample_uniform_points(space, rng, m)
        Z = np.broadcast_to(z, X.shape)
        t_xz = distance_t_arrays(space, X, Z)
        t_yz = distance_t_arrays(space, Y, Z)
        t_xy = distance_t_arrays(space, X, Y)
        w = (1 + eps * jacobi_eval_all(params, n, t_xz)[n]) * (
            1 + eps * jacobi_eval_all(params, n, t_yz)[n]
        )
        return w * kernel.f_t(t_xy)

    mean, stderr = _mc_mean(batch, samples, seed, threads)
    out.update({"mc_estimate": mean, "stderr": stderr, "samples": samples})
    return out


def funk_hecke_mc(
    space: Space,
    n: int,
    x: Point,
    y: Point,
    samples: int = 10**6,
    *,
    seed: int = 0,
    threads: int = 1,
) -> dict:
    """MC check of the reproducing identity for the normalized eigenfunctions.

    Averages P_n(t(x,z)) P_n(t(y,z)) over uniform z and compares with
    (P_n(1)/m_n) P_n(t(x,y)).
    """
    if n < 0 or n > 12:
        raise ValueError("n must be between 0 and 12 for the MC check")
    if x.space != space or y.space != space:
        raise ValueError("x and y must live on the given space")
    params = JacobiParams(space.alpha, space.beta)
    rhs = (
        jacobi_value_at_one(params, n)
        / dim_m_n(params, n)
        * jacobi_eval_all(params, n, distance_t(x, y))[n]
    )

    xc, yc = x.coords, y.coords

    def batch(rng: np.random.Generator, m: int) -> np.ndarray:
        Z = sample_uniform_points(space, rng, m)
        t_xz = distance_t_arrays(space, np.broadcast_to(xc, Z.shape), Z)
        t_yz = distance_t_arrays(space, np.broadcast_to(yc, Z.shape), Z)
        return jacobi_eval_all(params, n, t_xz)[n] * jacobi_eval_all(params, n, t_yz)[n]

    mean, stderr = _mc_mean(batch, samples, seed, threads)
    return {
        "lhs_mc": mean,
        "stderr": stderr,
        "rhs": float(rhs),
        "samples": samples,
        "n": n,
    }
