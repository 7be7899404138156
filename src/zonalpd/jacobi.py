"""Jacobi polynomials, spectral multiplicities, and Gauss-Jacobi rules.

Everything is parametrized by a weight pair (alpha, beta), alpha, beta > -1.
The three-term recurrence is written once and serves floats, numpy arrays,
and mpmath scalars alike, so high-precision paths never round-trip through
doubles.  Its coefficients depend only on (alpha, beta) and the degree, so
they are built once per (type, alpha, beta, N, mpmath precision) and cached;
the cache changes no value, it only skips rebuilding the same numbers at
every node and every Newton step.  Rules carry unnormalized weights (they
sum to the weight's total mass Z); probability-normalized variants divide by
Z at the call site.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from math import lgamma
from typing import Sequence

import mpmath as mp
import numpy as np

__all__ = [
    "JacobiParams",
    "QuadratureRule",
    "jacobi_eval_all",
    "jacobi_eval",
    "jacobi_normalized",
    "jacobi_value_at_one",
    "jacobi_norm_sq",
    "dim_m_n",
    "eigenvalue_lambda_n",
    "gauss_jacobi_rule",
    "gauss_jacobi_rule_mp",
    "pochhammer",
]


@dataclass(frozen=True)
class JacobiParams:
    alpha: float
    beta: float

    def __post_init__(self):
        if self.alpha <= -1 or self.beta <= -1:
            raise ValueError("Jacobi weight needs alpha > -1 and beta > -1")


def _ab(obj) -> tuple:
    """Extract (alpha, beta) from JacobiParams, Space, or a plain pair."""
    if hasattr(obj, "alpha"):
        return obj.alpha, obj.beta
    a, b = obj
    return a, b


def pochhammer(x, n: int):
    """Rising factorial (x)_n; exact for ints, works for floats and mpf."""
    out = x * 0 + 1
    for k in range(n):
        out = out * (x + k)
    return out


# Tables held at once.  A scan builds rules for a fresh (alpha, beta) at each
# exponent, so old tables must age out; one table is 4(N-1) scalars, about
# 44 KiB in mpf at N=48, dps 40.  Counted per CLI job: the RP2 scan at N=16
# asks for 9 distinct tables, table1 for 7, a coeffs job for 3, a perturbed
# energy for 4, so no table is built twice.
_RECURRENCE_CACHE_SIZE = 32


def _recurrence_coeffs(n: int, a, b) -> tuple:
    """(c1, c2, c3, c4) of c1 P_n = (c2 + c3 t) P_{n-1} - c4 P_{n-2}, n >= 2,
    in the arithmetic of a and b (float, numpy scalar or mpf at the ambient
    precision)."""
    c1 = 2 * n * (n + a + b) * (2 * n + a + b - 2)
    c2 = (2 * n + a + b - 1) * (a * a - b * b)
    c3 = (2 * n + a + b - 2) * (2 * n + a + b - 1) * (2 * n + a + b)
    c4 = 2 * (n + a - 1) * (n + b - 1) * (2 * n + a + b)
    return c1, c2, c3, c4


@functools.lru_cache(maxsize=_RECURRENCE_CACHE_SIZE, typed=True)
def _recurrence_table(a, b, n_max: int, prec: int) -> tuple:
    """_recurrence_coeffs for n = 2..n_max.

    The precision serves only as key, so a table built at low precision is
    never reused at a higher one.
    """
    return tuple(_recurrence_coeffs(n, a, b) for n in range(2, n_max + 1))


def jacobi_eval_all(params, n_max: int, t):
    """P_0..P_{n_max} at t by the standard three-term recurrence.

    t may be a float, an mpf, or a numpy array; the returned list holds values
    of the same kind.  n=1 is seeded directly because the generic recurrence
    coefficients degenerate there.  The coefficients come from a table cached
    per (type, alpha, beta, n_max, mpmath precision), formed by the same
    expressions at the same precision as without the cache, so every value
    is bit-identical to an uncached evaluation.
    """
    a, b = _ab(params)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    one = t * 0 + 1
    values = [one]
    if n_max == 0:
        return values
    values.append((a + 1) + (a + b + 2) * (t - 1) / 2)
    table = _recurrence_table(a, b, n_max, mp.mp.prec)
    for n, (c1, c2, c3, c4) in enumerate(table, start=2):
        values.append(((c2 + c3 * t) * values[n - 1] - c4 * values[n - 2]) / c1)
    return values


def jacobi_eval(params, n: int, t):
    return jacobi_eval_all(params, n, t)[n]


def jacobi_value_at_one(params, n: int):
    """P_n(1) = (alpha+1)_n / n!."""
    a, _ = _ab(params)
    if isinstance(a, mp.mpf):
        return pochhammer(a + 1, n) / mp.factorial(n)
    # ratio of huge gammas; do it in log space
    return math.exp(math.lgamma(a + 1 + n) - math.lgamma(a + 1) - math.lgamma(n + 1))


def jacobi_normalized(params, n_max: int, t):
    """p_n = P_n / P_n(1), so p_n(1) = 1; |p_n| <= 1 on [-1,1] for the
    geometric parameter range (alpha >= beta >= -1/2)."""
    vals = jacobi_eval_all(params, n_max, t)
    return [v / jacobi_value_at_one(params, n) for n, v in enumerate(vals)]


def jacobi_norm_sq(params, n: int) -> float:
    """h_n = int P_n^2 dmu against the probability-normalized weight mu."""
    a, b = _ab(params)
    if n == 0:
        return 1.0
    log_h = (
        lgamma(n + a + 1)
        + lgamma(n + b + 1)
        + lgamma(a + b + 2)
        - lgamma(n + 1)
        - lgamma(n + a + b + 1)
        - lgamma(a + 1)
        - lgamma(b + 1)
        - math.log(2 * n + a + b + 1)
    )
    return math.exp(log_h)


def dim_m_n(params, n: int):
    """Multiplicity of the n-th eigenspace:

        m_0 = 1,
        m_n = (2n+a+b+1)/(a+b+1) * (a+b+1)_n (a+1)_n / (n! (b+1)_n).

    Integer-valued on the catalog spaces (a consistency test elsewhere).
    """
    a, b = _ab(params)
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 1.0
    # (a+b+1)_n / (a+b+1) = (a+b+2)_{n-1}, which stays regular at a+b+1 = 0
    # (the circle case, where m_n = 2)
    if isinstance(a, mp.mpf):
        num = (2 * n + a + b + 1) * pochhammer(a + b + 2, n - 1) * pochhammer(a + 1, n)
        return num / (mp.factorial(n) * pochhammer(b + 1, n))
    # interleaved ratio product: every partial product stays O(m_n), so no
    # overflow for any n a float can express m_n at, and the small integer
    # catalog values come out exact
    m = float(2 * n + a + b + 1)
    for j in range(n - 1):
        m *= (a + b + 2 + j) / (b + 1 + j)
    for j in range(n):
        m *= (a + 1 + j) / (1 + j)
    return m / (b + n)


def eigenvalue_lambda_n(space, n: int) -> float:
    """Laplace-Beltrami eigenvalue 4*kappa^2*n*(n+alpha+beta+1); 0 at n=0."""
    kappa = getattr(space, "kappa", 1.0)
    a, b = _ab(space)
    return 4 * kappa * kappa * n * (n + a + b + 1)


# ---------------------------------------------------------------------------
# Gauss-Jacobi rules


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights for int f(t)(1-t)^a(1+t)^b dt over [-1,1], unnormalized."""

    nodes: np.ndarray
    weights: np.ndarray
    params: JacobiParams
    order: int

    def __post_init__(self):
        n = np.asarray(self.nodes, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", n)
        object.__setattr__(self, "weights", w)
        if not (np.all(np.diff(n) > 0) and n[0] > -1 and n[-1] < 1):
            raise ValueError("nodes must be strictly increasing inside (-1,1)")
        if np.any(w <= 0):
            raise ValueError("weights must be positive")

    def integrate(self, f) -> float:
        return float(np.dot(self.weights, f(self.nodes)))

    def total_mass(self) -> float:
        return float(self.weights.sum())


def weight_total_mass(params) -> float:
    """Z = int (1-t)^a (1+t)^b dt = 2^(a+b+1) B(a+1, b+1)."""
    a, b = _ab(params)
    return math.exp(
        (a + b + 1) * math.log(2) + lgamma(a + 1) + lgamma(b + 1) - lgamma(a + b + 2)
    )


def gauss_jacobi_rule(params, m: int) -> QuadratureRule:
    """Golub-Welsch rule: eigen-solve of the symmetrized recurrence matrix.

    Exact for polynomials of degree <= 2m-1 against the weight.
    """
    a, b = map(float, _ab(params))
    if m < 1:
        raise ValueError("need at least one node")
    diag = np.empty(m)
    diag[0] = (b - a) / (a + b + 2)
    if m > 1:
        kk = np.arange(1, m, dtype=float)
        diag[1:] = (b * b - a * a) / ((2 * kk + a + b) * (2 * kk + a + b + 2))
        num = 4 * kk * (kk + a) * (kk + b) * (kk + a + b)
        den = (2 * kk + a + b) ** 2 * (2 * kk + a + b + 1) * (2 * kk + a + b - 1)
        with np.errstate(invalid="ignore"):
            off = np.sqrt(num / den)
        # k=1 entry of the general formula is 0/0 when a+b = -1; its
        # cancelled form 4(1+a)(1+b)/((2+a+b)^2 (3+a+b)) is regular
        off[0] = math.sqrt(4 * (1 + a) * (1 + b) / ((2 + a + b) ** 2 * (3 + a + b)))
    else:
        off = np.empty(0)
    # a dense eigen-solve: m is at most a few hundred here
    try:
        nodes, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise RuntimeError(f"Jacobi-matrix eigen-solve failed for m={m}") from exc
    weights = vecs[0, :] ** 2 * weight_total_mass((a, b))
    return QuadratureRule(nodes, weights, JacobiParams(a, b), m)


_MP_RULE_CACHE: dict = {}


def gauss_jacobi_rule_mp(params, m: int) -> tuple[list, list]:
    """High-precision rule at the ambient mp.mp.dps; weights unnormalized.

    Double-precision nodes seed Newton iterations on P_m (derivative from
    the same-parameter identity, so each iteration is one recurrence pass);
    weights come from the Christoffel function 1/sum_k phat_k(x)^2 using the
    values of the final pass, scaled by the weight's total mass.  Results
    are cached per exact (alpha, beta) in mpf, m and dps; identical inputs
    always reproduce identical rules.
    """
    a, b = _ab(params)
    am, bm = mp.mpf(a), mp.mpf(b)
    key = (am, bm, m, mp.mp.dps)
    hit = _MP_RULE_CACHE.get(key)
    if hit is not None:
        return hit
    seed_rule = gauss_jacobi_rule((float(a), float(b)), m)
    tol = mp.mpf(10) ** (-(mp.mp.dps - 2))
    hs = [_norm_sq_mp(am, bm, n) for n in range(m)]
    mass = _total_mass_mp(am, bm)
    s_ab = am + bm
    nodes, weights = [], []
    for seed in seed_rule.nodes:
        x = mp.mpf(float(seed))
        vals = None
        for _ in range(12):
            vals = jacobi_eval_all((am, bm), m, x)
            p, p_prev = vals[m], vals[m - 1]
            # (2m+a+b)(1-x^2) P_m' = m(a-b-(2m+a+b)x) P_m + 2(m+a)(m+b) P_{m-1}
            dp = (
                m * (am - bm - (2 * m + s_ab) * x) * p + 2 * (m + am) * (m + bm) * p_prev
            ) / ((2 * m + s_ab) * (1 - x * x))
            step = p / dp
            if abs(step) < tol:
                break
            x -= step
        else:  # pragma: no cover
            raise RuntimeError("Newton polish of quadrature node did not converge")
        nodes.append(x)
        chr_sum = mp.mpf(0)
        for n in range(m):
            chr_sum += vals[n] ** 2 / hs[n]
        weights.append(mass / chr_sum)
    _MP_RULE_CACHE[key] = (nodes, weights)
    return nodes, weights


def _norm_sq_mp(a, b, n):
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


def _total_mass_mp(a, b):
    return mp.power(2, a + b + 1) * mp.gamma(a + 1) * mp.gamma(b + 1) / mp.gamma(a + b + 2)
