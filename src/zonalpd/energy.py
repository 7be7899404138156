"""Energy functionals for the uniform, discrete, and perturbed measures.

The uniform energy of a kernel is its mean value over the space, which the
expansion machinery identifies with the degree-0 coefficient; it is computed
both ways and cross-checked.  Discrete energies are double sums over
weighted point sets, evaluated as vectorized passes over blocks of pairs.
The perturbed-measure energy compares the closed form

    E_F(mu) = E_F(sigma) + eps^2 * P_n(1)^3 / m_n^2 * F^(n)

for the density (1 + eps P_n(t(. , z))) d sigma against an importance-sampled
Monte Carlo estimate; a negative coefficient at degree n makes the perturbed
energy drop below the uniform one, which is the quantitative sense in which
such kernels fail to be minimized by the uniform measure.

Monte Carlo runs are deterministic: samples come from counter-based
Philox streams keyed (seed, batch index), and batch results are reduced
with exact compensated summation in batch order, so the estimate is
independent of batch scheduling.

Two sizes govern the array work.  MC_BATCH (2^17 samples) fixes the layout
of the random streams, so changing it changes the estimates.  BLOCK (2^14
rows or pairs, from `spaces`) only bounds memory: distances, kernel values
and sums go through blocks of at most BLOCK, with the same values and sums
as one whole-array pass.  A batch holds its X sample plus a few MiB; Y is
drawn block by block from the same stream, which gives the same rows as one
whole draw.  A discrete energy holds a few MiB whatever its point count.

numpy is the one third-party module imported with this module; the uniform
and perturbed energies import mpmath, `jacobi` and `transform`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .kernels import ZonalKernel
from .spaces import (
    BLOCK,
    Point,
    Space,
    _coords_per_point,
    distance_t_arrays,
    make_rng,
    sample_uniform_points,
)

__all__ = [
    "DiscreteMeasure",
    "PerturbedMeasureSpec",
    "energy_uniform",
    "energy_uniform_detail",
    "energy_discrete",
    "energy_perturbed",
    "canonical_point",
]

MC_BATCH = 1 << 17


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely many weighted atoms on one space.

    Weights default to uniform 1/N.  Signed weights are allowed: zero-sum
    measures are how conditional positive definiteness is probed.
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

    def coords(self) -> np.ndarray:
        return np.stack([p.coords for p in self.points])


@dataclass(frozen=True)
class PerturbedMeasureSpec:
    """Density perturbation (1 + epsilon P_n(t(., z))) of the uniform measure.

    The energy does not depend on the base point z (two-point homogeneity),
    so sampling uses `canonical_point`.  epsilon must keep the density
    nonnegative, i.e. epsilon <= 1/max|P_n|; `validate` checks this on a
    fine grid for the space at hand.
    """

    n: int
    epsilon: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("perturbation degree n must be >= 1")
        if not (self.epsilon > 0):
            raise ValueError("epsilon must be positive")

    def validate(self, space: Space) -> None:
        from .jacobi import jacobi_eval_all
        grid = np.linspace(-1.0, 1.0, 4001)
        pn = jacobi_eval_all(space, self.n, grid)[self.n]
        peak = float(np.max(np.abs(pn)))
        if self.epsilon * peak > 1.0 + 1e-9:
            raise ValueError(
                f"epsilon={self.epsilon} too large: density 1 + eps*P_{self.n} "
                f"dips negative (needs eps <= {1.0 / peak:.6g})"
            )


def canonical_point(space: Space) -> Point:
    """A fixed reference point (first coordinate vector)."""
    c = np.zeros(_coords_per_point(space))
    c[0] = 1.0
    return Point(space, c)


# ---------------------------------------------------------------------------
# uniform measure


def _quad_theta_integral(space: Space, kernel: ZonalKernel, dps: int):
    """Mean of F over the space by adaptive quadrature in the angle variable.

    Independent of the expansion pipeline: mpmath's own `quad` (tanh-sinh,
    its default, with its own degree doubling and error estimate) over four
    pieces split at multiples of pi/8, integrating F itself in mpf, where the
    expansion runs one tanh-sinh level ladder over [0, pi/2] with the
    singular power in the measure and sums in fixed point.  Returns
    (value, error_estimate) as mpf.
    """
    import mpmath as mp
    with mp.workdps(dps):
        a = mp.mpf(space.alpha)
        b = mp.mpf(space.beta)
        C = 2 * mp.gamma(a + b + 2) / (mp.gamma(a + 1) * mp.gamma(b + 1))
        shift = mp.mpf(kernel.gj_shift)

        def f(u):
            if u <= 0 or u >= mp.pi / 2:
                return mp.mpf(0)
            su, cu = mp.sin(u), mp.cos(u)
            g = kernel.eval_g(u, su, cu)
            F = g * (2 * su * su) ** (-shift) if shift else g
            return F * su ** (2 * a + 1) * cu ** (2 * b + 1)

        pts = [0, mp.pi / 8, mp.pi / 4, 3 * mp.pi / 8, mp.pi / 2]
        val, err = mp.quad(f, pts, error=True)
        return C * val, C * err + mp.mpf(10) ** (-(dps - 4))


def energy_uniform_detail(space: Space, kernel: ZonalKernel, digits: int = 30):
    """Both routes to the uniform energy plus their error estimates.

    Returns (value, expansion_err, quad_value, quad_err) with `value` the
    adopted result, the expansion's.  Raises ArithmeticError when the two
    routes disagree beyond combined error.
    """
    import mpmath as mp
    from .transform import coefficients_de
    rep = coefficients_de(space, kernel, N=0, digits=digits)
    e0 = rep.entry(0)
    qv, qe = _quad_theta_integral(space, kernel, digits)
    tol = abs(e0.error) + abs(qe)
    if abs(e0.value - qv) > tol:
        raise ArithmeticError(
            f"uniform-energy routes disagree: expansion {mp.nstr(e0.value, 12)} "
            f"vs quadrature {mp.nstr(qv, 12)} (combined error {mp.nstr(tol, 4)})"
        )
    return e0.value, e0.error, qv, qe


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

    The ordered pairs i != j go row-major in blocks of at most BLOCK
    pairs; each block makes one `distance_t_arrays` and one `f_t` call and
    hands its terms straight to one exact compensated summation, so no
    Python loop runs over pairs and memory stays a few MiB whatever the
    point count (1000 points on HP2: about 5 MiB traced).  Kernels with no
    finite value F(1) at the diagonal admit only the off-diagonal sum;
    asking for the diagonal raises, and so does a pair of coincident points
    under such a kernel, whose energy is not finite.  The sum is correctly
    rounded, so permuting the points changes nothing.
    """
    if include_diagonal:
        with np.errstate(divide="ignore", invalid="ignore"):
            f_diag = float(kernel.f_t(np.float64(1.0)))
        if not math.isfinite(f_diag):
            raise ValueError(
                f"kernel {kernel.descriptor} is singular at the diagonal; "
                "include_diagonal must be False"
            )
    X = measure.coords()
    w = np.asarray(measure.weights)
    n = len(w)
    pairs = n * (n - 1)

    def blocks():
        for start in range(0, pairs, BLOCK):
            i, j = np.divmod(np.arange(start, min(start + BLOCK, pairs)), n - 1)
            j += j >= i
            t = distance_t_arrays(measure.space, X[i], X[j])
            terms = w[i] * w[j] * kernel.f_t(t)
            if not np.isfinite(terms).all():
                raise ValueError(f"discrete energy of {kernel.descriptor} is not finite: two "
                                 "points coincide and the kernel is singular at the diagonal")
            yield terms.tolist()
        if include_diagonal:
            yield (w * w * f_diag).tolist()

    return math.fsum(chain.from_iterable(blocks()))


# ---------------------------------------------------------------------------
# Monte Carlo

# quoted so that importing this module does not load numpy.random
BatchFn = Callable[["np.random.Generator", int], np.ndarray]


def _mc_mean(
    batch_fn: BatchFn, samples: int, seed: int, threads: int = 1
) -> Tuple[float, float]:
    """Mean and standard error of batch_fn values over `samples` draws.

    Batch i draws from the Philox stream keyed (seed, i), so MC_BATCH fixes
    which draws a sample uses.  Each batch's sums are math.fsum over its
    values in BLOCK-size chunks, and the batch sums are reduced in batch
    order with math.fsum, so the result is identical no matter how batches
    are scheduled.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    counts = [MC_BATCH] * (samples // MC_BATCH)
    if samples % MC_BATCH:
        counts.append(samples % MC_BATCH)

    def run(i: int) -> Tuple[float, float]:
        vals = np.asarray(batch_fn(make_rng(seed, i), counts[i]), dtype=float)
        chunks = [vals[k:k + BLOCK] for k in range(0, len(vals), BLOCK)]
        return (
            math.fsum(chain.from_iterable(c.tolist() for c in chunks)),
            math.fsum(chain.from_iterable((c * c).tolist() for c in chunks)),
        )

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

    Each batch draws its X sample whole and then the Y rows of each block
    just before their distances, from the same generator; the stream gives
    all of X before any of Y, so this matches one whole draw of Y, and the
    estimate does not depend on BLOCK.  A batch of m samples thus holds
    m rows of X, m values and one block: on HP2 one full batch peaks near
    17 MiB (tracemalloc), 12 of them X.
    """
    # bound before the batches start, so no worker thread imports
    import mpmath as mp
    from .jacobi import dim_m_n, jacobi_eval_all, jacobi_value_at_one
    from .transform import certify_coefficients
    if run_mc and samples < 2:
        raise ValueError("need at least 2 samples")
    # a space without points is refused before its coefficients are certified
    z = canonical_point(space).coords if run_mc else None
    spec.validate(space)
    n, eps = spec.n, spec.epsilon

    report = certify_coefficients(space, kernel, N=n, target_digits=digits)
    e0 = report.entry(0).value
    en = report.entry(n).value
    p1 = jacobi_value_at_one(space, n)
    m_n = dim_m_n(space, n)
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

    def block(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        Z = np.broadcast_to(z, x.shape)
        t_xz = distance_t_arrays(space, x, Z)
        t_yz = distance_t_arrays(space, y, Z)
        t_xy = distance_t_arrays(space, x, y)
        w = (1 + eps * jacobi_eval_all(space, n, t_xz)[n]) * (
            1 + eps * jacobi_eval_all(space, n, t_yz)[n]
        )
        return w * kernel.f_t(t_xy)

    def batch(rng: np.random.Generator, m: int) -> np.ndarray:
        # all of X comes first in the stream; `block` has freed the previous
        # block's temporaries by the time the next y rows are drawn
        X = sample_uniform_points(space, rng, m)
        out = np.empty(m)
        for k in range(0, m, BLOCK):
            x = X[k:k + BLOCK]
            out[k:k + BLOCK] = block(x, sample_uniform_points(space, rng, len(x)))
        return out

    mean, stderr = _mc_mean(batch, samples, seed, threads)
    out.update({"mc_estimate": mean, "stderr": stderr, "samples": samples})
    return out

