"""Jacobi polynomials, spectral multiplicities, and Gauss-Jacobi rules.

Everything is parametrized by a weight pair (alpha, beta), alpha, beta > -1.
The three-term recurrence is written once and serves floats, numpy arrays,
and mpmath scalars alike, so high-precision paths never round-trip through
doubles.  Its coefficients depend only on (alpha, beta) and the degree, so
they are built once per (type, alpha, beta, N, mpmath precision) and cached;
the cache changes no value.  The high-precision paths, the Newton polish of
`gauss_jacobi_rule_mp` and the coefficient sums of `transform`, step one
fixed-point copy of the recurrence, `_fixed_recurrence`: ratios c2/c1,
c3/c1, c4/c1 scaled by 2^W, W a few dozen bits above the working precision,
so a degree costs integer products and shifts, with the rounding bounded by
`_fixed_rounding`.  Rules carry unnormalized weights (they sum to the
weight's total mass Z); probability-normalized variants divide by Z at the
call site.
"""
from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from math import lgamma
from typing import Sequence

import mpmath as mp
import numpy as np
from mpmath import libmp

__all__ = [
    "JacobiParams",
    "QuadratureRule",
    "jacobi_eval_all",
    "jacobi_eval",
    "jacobi_value_at_one",
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


def _guard_bits(a: float, b: float, m: int) -> int:
    """Bits below the ambient precision that the fixed-point recurrence
    carries: log2 of the largest |P_k|, k <= m, that the recurrence can reach,
    max(1, (a+1)_m / m!, (b+1)_m / m!), plus 3 log2 m + 24.  The polish stops
    2 log2 m + 8 bits below the precision, which leaves log2 m + 16 bits
    between that bound and the rounding error of m recurrence steps."""
    lg_m = math.lgamma(m + 1)
    peak = max(0.0, *(math.lgamma(e + 1 + m) - math.lgamma(e + 1) - lg_m for e in (a, b)))
    return math.ceil(peak / math.log(2)) + 3 * m.bit_length() + 24


@functools.lru_cache(maxsize=4)
def _fixed_recurrence(a, b, n_max: int, prec: int) -> tuple:
    """(W, ratios, seed): the recurrence at W = prec + `_guard_bits` bits.

    ratios are c2/c1, c3/c1, c4/c1 for n = 2..n_max and seed the P_1
    constant a+1 and slope (a+b+2)/2, formed in mpf at W bits (in a private
    context, so the global precision is never touched) and truncated to
    integers times 2^W.  With X = t 2^W, P_0 = 2^W, P_1 = const + (slope
    (X - 2^W) >> W) and P_n = ((r2 + (r3 X >> W)) P_{n-1} - r4 P_{n-2}) >> W.
    a and b are floats or mpf at the precision prec.  Four tables suffice:
    a rung reads the table of its sums three times, a rule's serves one rule.
    """
    wbits = prec + _guard_bits(float(a), float(b), n_max)
    ctx = _context(wbits)

    def fix(v):
        return libmp.to_fixed(ctx.mpf(v)._mpf_, wbits)

    am, bm = ctx.mpf(a), ctx.mpf(b)
    ratios = []
    for n in range(2, n_max + 1):
        c1, c2, c3, c4 = _recurrence_coeffs(n, am, bm)
        ratios.append((fix(c2 / c1), fix(c3 / c1), fix(c4 / c1)))
    return wbits, tuple(ratios), (fix(am + 1), fix((am + bm + 2) / 2))


_LOCAL = threading.local()


def _context(prec: int):
    """This thread's private mpmath context, set to prec bits; the process-
    global precision, which concurrent certifications share, stays as is."""
    if not hasattr(_LOCAL, "ctx"):
        _LOCAL.ctx = mp.MPContext()
    _LOCAL.ctx.prec = prec
    return _LOCAL.ctx


@functools.lru_cache(maxsize=_RECURRENCE_CACHE_SIZE)
def _fixed_rounding(a: float, b: float, n_max: int) -> tuple:
    """(B, E), n = 0..n_max: B[n] >= |P_n(t)| and 2^-W E[n] >= |p_n - P_n(t)|
    on [-1, 1], p_n the `_fixed_recurrence` value at X = t 2^W truncated.

    Truncation errs by less than u = 2^-W, so with ratios r + rho and
    X = (t + xi) 2^W, |rho|, |xi| < u, each step is exact up to d_n:
        p_n = (r2 + r3 t) p_{n-1} - r4 p_{n-2} + d_n,
        |d_n| < u ((4 + |r3|) |p_{n-1}| + |p_{n-2}| + 1),  |d_1| < u (5 + |slope|),
    with |p_k| <= B[k] + u E[k] <= B[k] + 1.  The error recurrence is linear:
    p_n - P_n(t) = sum_k G(n, k)(t) d_k, G(n, k) its solution from
    G(k-1, k) = 0, G(k, k) = 1.  P_n and G(n, k) are polynomials, bounded on
    [-1, 1] by the sum of their absolute Chebyshev coefficients; doubling
    covers carrying those in float64.  E[n] is about B[n] n^2, 2^24 n below
    the 2^(W - prec) that `_guard_bits` leaves.
    """
    size = n_max + 1
    # row 0 holds P_n, row k >= 1 holds G(n, k); columns are Chebyshev terms
    prev, cur = np.zeros((size, size)), np.zeros((size, size))
    slope = (a + b + 2) / 2
    prev[0, 0] = 1.0
    if n_max:
        cur[0, :2] = (a + 1 - slope, slope)
        cur[1, 0] = 1.0
    local, B, E = [0.0, 5 + abs(slope)], [1.0], [0.0]
    for n in range(1, size):
        if n > 1:
            c1, c2, c3, c4 = _recurrence_coeffs(n, a, b)
            # t T_0 = T_1, t T_j = (T_{j-1} + T_{j+1}) / 2
            tc = np.zeros((size, size))
            tc[:, 1:] = cur[:, :-1] / 2
            tc[:, 1] += cur[:, 0] / 2
            tc[:, :-1] += cur[:, 1:] / 2
            prev, cur = cur, (c2 * cur + c3 * tc - c4 * prev) / c1
            cur[n, 0] = 1.0
            local.append((4 + abs(c3 / c1)) * (B[n - 1] + 1) + B[n - 2] + 2)
        norms = np.abs(cur).sum(axis=1)
        B.append(2 * float(norms[0]))
        E.append(2 * float((norms[1 : n + 1] * local[1:]).sum()))
    return tuple(B), tuple(E)


def gauss_jacobi_rule_mp(params, m: int) -> tuple[list, list]:
    """High-precision rule at the ambient mp.mp.prec; weights unnormalized.

    Double-precision nodes from `gauss_jacobi_rule` seed Newton iterations
    on P_m that step `_fixed_recurrence` in integers scaled by 2^W, W =
    prec + `_guard_bits`, so a pass costs three integer products and shifts
    per degree; P_m' comes from the same-parameter identity.  Once a
    step predicts that the next one is below 2^-(prec + 2 log2 m + 8), that
    next pass also sums the Christoffel function sum_k P_k^2/h_k (1/h_k in
    fixed point), and a step below that bound ends the node.  The weight is
    the total mass over that sum, divided in mpf at W bits.  Nodes and
    weights are rounded to the ambient precision once, at the end.

    Against an mpf polish at 20 more digits, nodes agree to half an ulp and
    weights to one ulp relative (dps 30-100, m <= 90; at dps 40, 5.7e-42 and
    1.1e-41).  The arithmetic is integer, so equal inputs give bit-identical
    rules.
    """
    a, b = _ab(params)
    seeds = gauss_jacobi_rule((float(a), float(b)), m).nodes
    prec = mp.mp.prec
    tol_bits = prec + 2 * m.bit_length() + 8
    wbits, table, (p1_const, p1_slope) = _fixed_recurrence(mp.mpf(a), mp.mpf(b), m, prec)
    one = 1 << wbits
    # a step below tol finishes the node; one below near predicts that the
    # next Newton step is below tol, so the next pass also forms the weight
    tol = 1 << (wbits - tol_bits)
    near = 1 << (wbits - tol_bits // 2 - m.bit_length())

    ctx = _context(wbits)

    def fix(v):
        return libmp.to_fixed(ctx.mpf(v)._mpf_, wbits)

    am, bm = ctx.mpf(mp.mpf(a)), ctx.mpf(mp.mpf(b))
    # (2m+a+b)(1-x^2) P_m' = m(a-b-(2m+a+b)x) P_m + 2(m+a)(m+b) P_{m-1}
    k_ab, k_x = fix(m * (am - bm)), fix(m * (2 * m + am + bm))
    k_prev, k_lhs = fix(2 * (m + am) * (m + bm)), fix(2 * m + am + bm)
    # 1/h_n = (2n+a+b+1) n! (a+b+2)_{n-1} / ((a+1)_n (b+1)_n), n >= 1
    inv_h = [one]
    inv_r = 1 / ((am + 1) * (bm + 1))
    for n in range(1, m):
        if n > 1:
            inv_r = inv_r * n * (am + bm + n) / ((am + n) * (bm + n))
        inv_h.append(fix((2 * n + am + bm + 1) * inv_r))
    # Z = int (1-t)^a (1+t)^b dt = 2^(a+b+1) G(a+1) G(b+1) / G(a+b+2)
    mass = ctx.power(2, am + bm + 1) * ctx.gamma(am + 1) * ctx.gamma(bm + 1)
    mass /= ctx.gamma(am + bm + 2)

    nodes, weights = [], []
    for seed in seeds:
        num, den = float(seed).as_integer_ratio()
        x = (num << wbits) // den
        step = None
        for _ in range(12):
            final = step is not None and abs(step) < near
            p_prev, p = one, p1_const + (p1_slope * (x - one) >> wbits)
            if final:
                acc = one * one * one
                for (r2, r3, r4), ih in zip(table, inv_h[1:]):
                    acc += p * p * ih
                    p_prev, p = p, ((r2 + (r3 * x >> wbits)) * p - r4 * p_prev) >> wbits
            else:
                for r2, r3, r4 in table:
                    p_prev, p = p, ((r2 + (r3 * x >> wbits)) * p - r4 * p_prev) >> wbits
            dp = ((k_ab - (k_x * x >> wbits)) * p + k_prev * p_prev) >> wbits
            step = p * (k_lhs * (one - (x * x >> wbits)) >> wbits) // dp
            x -= step
            if final and abs(step) < tol:
                break
        else:  # pragma: no cover
            raise RuntimeError("Newton polish of quadrature node did not converge")
        nodes.append(mp.mpf((x, -wbits)))
        weights.append(mp.mpf(mass / ctx.mpf((acc, -3 * wbits))))
    return nodes, weights
