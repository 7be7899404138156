"""Jacobi polynomials, spectral multiplicities, and Gauss-Jacobi rules.

Everything is parametrized by a weight pair (alpha, beta), alpha, beta > -1.
The three-term recurrence is written once, `_jacobi_steps`, for floats,
numpy arrays and mpmath scalars alike (the Poisson series reads it too), so
high-precision paths never round-trip through doubles.  The high-precision paths, the Halley polish of
`gauss_jacobi_rule_mp` and the coefficient sums of `transform`, step one
fixed-point copy of the recurrence, `_fixed_recurrence`: ratios c2/c1,
c3/c1, c4/c1 scaled by 2^W, W a few dozen bits above the working precision,
each the exact floor formed in integers from the binary alpha and beta, so
a degree costs integer products and shifts, with the rounding bounded by
`_fixed_rounding`; the sums read both from `_plan`, one per (alpha, beta,
N, precision), and every precision shares the rounding bounds.  Both
Gauss-Jacobi rules start from one pure-Python Golub-Welsch solve,
`_golub_welsch` (implicit QL on the tridiagonal Jacobi matrix), so the
module runs on mpmath and the standard library.  `gauss_jacobi_rule_mp`
returns mpf lists and the float rule `gauss_jacobi_rule` numpy arrays
(numpy is imported only there), both as a (nodes, weights) pair.  Rules
carry unnormalized weights (they sum to the weight's total mass Z);
probability-normalized variants divide by Z at the call site.  The plan,
the Poisson series and `dim_m_n` read one normalisation, `_prefactors`;
float inputs of `dim_m_n` are exact Fractions, rounded once.
"""
from __future__ import annotations

import functools
import itertools
import math
import threading
from fractions import Fraction

import mpmath as mp
from mpmath import libmp

__all__ = [
    "jacobi_eval_all",
    "jacobi_eval",
    "jacobi_value_at_one",
    "dim_m_n",
    "eigenvalue_lambda_n",
    "gauss_jacobi_rule",
    "gauss_jacobi_rule_mp",
    "pochhammer",
]


def _ab(obj) -> tuple:
    """Extract (alpha, beta) from a Space or a plain pair."""
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


def _recurrence_coeffs(n: int, a, b, unit=1) -> tuple:
    """(c1, c2, c3, c4) of c1 P_n = (c2 + c3 t) P_{n-1} - c4 P_{n-2}, n >= 2,
    in the arithmetic of a and b (float, numpy scalar or mpf at the ambient
    precision).  Each c_i is homogeneous of degree 3 in (n, a, b, unit), so
    integers n D, A, B and unit D give D^3 c_i exactly for a = A/D, b = B/D."""
    c1 = 2 * n * (n + a + b) * (2 * n + a + b - 2 * unit)
    c2 = (2 * n + a + b - unit) * (a * a - b * b)
    c3 = (2 * n + a + b - 2 * unit) * (2 * n + a + b - unit) * (2 * n + a + b)
    c4 = 2 * (n + a - unit) * (n + b - unit) * (2 * n + a + b)
    return c1, c2, c3, c4


def _jacobi_steps(a, b, t):
    """P_0, P_1, ... at t by the standard three-term recurrence, without end,
    in the arithmetic of a, b and t.  n=1 is seeded directly because the
    generic recurrence coefficients degenerate there."""
    p_prev, p = t * 0 + 1, (a + 1) + (a + b + 2) * (t - 1) / 2
    yield p_prev
    for n in itertools.count(2):
        yield p
        c1, c2, c3, c4 = _recurrence_coeffs(n, a, b)
        p_prev, p = p, ((c2 + c3 * t) * p - c4 * p_prev) / c1


def jacobi_eval_all(params, n_max: int, t):
    """P_0..P_{n_max} at t, the first n_max + 1 values of `_jacobi_steps`.

    t may be a float, an mpf, or a numpy array; the returned list holds values
    of the same kind.
    """
    a, b = _ab(params)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return list(itertools.islice(_jacobi_steps(a, b, t), n_max + 1))


def jacobi_eval(params, n: int, t):
    return jacobi_eval_all(params, n, t)[n]


def _prefactors(a, b):
    """m_n / P_n(1)^2 = Z/h_n, n = 0, 1, ..., in the arithmetic of a and b:
    1, then (2n+a+b+1) r_n with r_1 = 1/((a+1)(b+1)) and r_n = r_{n-1}
    n(a+b+n)/((a+n)(b+n)).  Nothing divides by a+b+1: the circle is regular."""
    yield a * 0 + 1
    r, n = 1 / ((a + 1) * (b + 1)), 1
    while True:
        yield (2 * n + a + b + 1) * r
        n += 1
        r = r * n * (a + b + n) / ((a + n) * (b + n))


def _exact(params) -> tuple:
    """(a, b, out): mpf inputs stay mpf at the ambient precision; others become
    the exact Fractions of their binary values, and out rounds to float once."""
    a, b = _ab(params)
    if isinstance(a, mp.mpf) or isinstance(b, mp.mpf):
        return mp.mpf(a), mp.mpf(b), mp.mpf
    return Fraction(a), Fraction(b), float


def jacobi_value_at_one(params, n: int):
    """P_n(1) = (alpha+1)_n / n!, in the arithmetic of `_exact`."""
    a, _, out = _exact(params)
    return out(pochhammer(a + 1, n) / math.factorial(n))


def _multiplicities(params, n_max: int) -> list:
    """m_0..m_{n_max}, each pref_n P_n(1)^2, in one pass of `_prefactors`."""
    a, b, out = _exact(params)
    dims, p1 = [], 1
    for n, pref in zip(range(n_max + 1), _prefactors(a, b)):
        dims.append(out(pref * p1 * p1))
        p1 = p1 * (a + n + 1) / (n + 1)
    return dims


def dim_m_n(params, n: int):
    """Multiplicity m_n = (2n+a+b+1) (a+b+2)_{n-1} (a+1)_n / (n! (b+1)_n) of the
    n-th eigenspace, m_0 = 1 (2 for n >= 1 on the circle); exact integers on
    the catalog spaces."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _multiplicities(params, n)[n]


def eigenvalue_lambda_n(space, n: int) -> float:
    """Laplace-Beltrami eigenvalue 4*kappa^2*n*(n+alpha+beta+1); 0 at n=0."""
    kappa = getattr(space, "kappa", 1.0)
    a, b = _ab(space)
    return 4 * kappa * kappa * n * (n + a + b + 1)


# ---------------------------------------------------------------------------
# Gauss-Jacobi rules


def _golub_welsch(a: float, b: float, m: int) -> tuple[list, list]:
    """(nodes, first components squared) of the order-m rule in float64.

    The eigenvalues of the Jacobi matrix, ascending, and the squared first
    components of its unit eigenvectors, so weight = mass * component.
    Implicit QL with Wilkinson shifts that rotates only the first row of the
    eigenvector matrix (Golub and Welsch 1969, after EISPACK imtql2): O(m^2)
    float operations on three lists, no matrix.
    """
    if m < 1:
        raise ValueError("need at least one node")
    # the symmetric tridiagonal Jacobi matrix: diagonal d, off-diagonal e
    d, e = [(b - a) / (a + b + 2)], []
    for k in range(1, m):
        d.append((b * b - a * a) / ((2 * k + a + b) * (2 * k + a + b + 2)))
        if k == 1:
            # the general formula is 0/0 when a+b = -1; its cancelled
            # form 4(1+a)(1+b)/((2+a+b)^2 (3+a+b)) is regular
            e.append(math.sqrt(4 * (1 + a) * (1 + b) / ((2 + a + b) ** 2 * (3 + a + b))))
        else:
            num = 4 * k * (k + a) * (k + b) * (k + a + b)
            den = (2 * k + a + b) ** 2 * (2 * k + a + b + 1) * (2 * k + a + b - 1)
            e.append(math.sqrt(num / den))
    e.append(0.0)
    z = [1.0] + [0.0] * (m - 1)
    for l in range(m):
        for _ in range(30):
            # the first negligible off-diagonal entry at or after l splits
            # off the block l..k
            k = l
            while k < m - 1:
                dd = abs(d[k]) + abs(d[k + 1])
                if abs(e[k]) + dd == dd:
                    break
                k += 1
            if k == l:
                break
            g = (d[l + 1] - d[l]) / (2 * e[l])
            g = d[k] - d[l] + e[l] / (g + math.copysign(math.hypot(g, 1.0), g))
            s = c = 1.0
            p = 0.0
            for i in range(k - 1, l - 1, -1):
                # e[i] is not negligible inside the block, so r > 0
                f, h = s * e[i], c * e[i]
                r = e[i + 1] = math.hypot(f, g)
                s, c = f / r, g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2 * c * h
                p = s * r
                d[i + 1] = g + p
                g = c * r - h
                z[i], z[i + 1] = c * z[i] - s * z[i + 1], s * z[i] + c * z[i + 1]
            d[l] -= p
            e[l] = g
            e[k] = 0.0
        else:  # pragma: no cover
            raise RuntimeError(f"Jacobi-matrix eigen-solve failed for m={m}")
    order = sorted(range(m), key=d.__getitem__)
    return [d[i] for i in order], [z[i] * z[i] for i in order]


def gauss_jacobi_rule(params, m: int) -> tuple:
    """(nodes, weights) numpy arrays of the order-m rule in float64, from the
    QL solve of `_golub_welsch`, the one that seeds `gauss_jacobi_rule_mp`
    (numpy is imported here, not with the module).  Nodes ascend inside
    (-1, 1); the weights are positive and sum to the total mass
    Z = 2^(a+b+1) B(a+1, b+1).  Exact for polynomials of degree <= 2m-1
    against the weight.
    """
    import numpy as np
    a, b = map(float, _ab(params))
    nodes, first = _golub_welsch(a, b, m)
    lg = math.lgamma
    mass = math.exp((a + b + 1) * math.log(2) + lg(a + 1) + lg(b + 1) - lg(a + b + 2))
    return np.array(nodes), np.array(first) * mass


def _guard_bits(a: float, b: float, m: int) -> int:
    """Bits below the ambient precision that the fixed-point recurrence
    carries: log2 of the largest |P_k|, k <= m, that the recurrence can reach,
    max(1, (a+1)_m / m!, (b+1)_m / m!), plus 3 log2 m + 24.  The polish
    stops once its error and the weight's Taylor remainder are below
    2^-(prec + 2 log2 m + 8), which leaves log2 m + 16 bits between that
    bound and the rounding error of m recurrence steps."""
    lg_m = math.lgamma(m + 1)
    peak = max(0.0, *(math.lgamma(e + 1 + m) - math.lgamma(e + 1) - lg_m for e in (a, b)))
    return math.ceil(peak / math.log(2)) + 3 * m.bit_length() + 24


def _dyadic(x) -> tuple:
    """(m, k), k >= 0, with x = m / 2^k exactly, for a float or an mpf x."""
    if hasattr(x, "_mpf_"):
        sign, man, exp, _ = x._mpf_
        m = -man if sign else man
        return (m << exp, 0) if exp >= 0 else (m, -exp)
    num, den = float(x).as_integer_ratio()
    return num, den.bit_length() - 1


def _fixed_recurrence(a, b, n_max: int, prec: int) -> tuple:
    """(W, ratios, seed): the recurrence at W = prec + `_guard_bits` bits.

    ratios are c2/c1, c3/c1, c4/c1 for n = 2..n_max and seed the P_1
    constant a+1 and slope (a+b+2)/2, each the exact floor of the value
    times 2^W: with a = A/D and b = B/D, D = 2^k, `_recurrence_coeffs` of the
    integers (n D, A, B, D) is D^3 (c1, c2, c3, c4), and a ratio is
    (D^3 c_i 2^W) // (D^3 c1), so it errs by rho with -2^-W < rho <= 0.
    With X = t 2^W, P_0 = 2^W, P_1 = const + (slope (X - 2^W) >> W) and
    P_n = ((r2 + (r3 X >> W)) P_{n-1} - r4 P_{n-2}) >> W.  a and b are floats
    or mpf, read exactly.
    """
    wbits = prec + _guard_bits(float(a), float(b), n_max)
    (A, ka), (B, kb) = _dyadic(a), _dyadic(b)
    k = max(ka, kb)
    A, B, D = A << (k - ka), B << (k - kb), 1 << k
    ratios = []
    for n in range(2, n_max + 1):
        # c1 > 0 for n >= 2 and a, b > -1
        c1, c2, c3, c4 = _recurrence_coeffs(n * D, A, B, D)
        ratios.append(((c2 << wbits) // c1, (c3 << wbits) // c1, (c4 << wbits) // c1))
    seed = ((A + D) << wbits) >> k, ((A + B + 2 * D) << wbits) >> (k + 1)
    return wbits, tuple(ratios), seed


_LOCAL = threading.local()


def _context(prec: int):
    """This thread's private mpmath context, set to prec bits; the process-
    global precision, which concurrent certifications share, stays as is."""
    if not hasattr(_LOCAL, "ctx"):
        _LOCAL.ctx = mp.MPContext()
    _LOCAL.ctx.prec = prec
    return _LOCAL.ctx


@functools.lru_cache(maxsize=4)
def _fixed_rounding(a: float, b: float, n_max: int) -> tuple:
    """(B, E), n = 0..n_max: B[n] >= |P_n(t)| and 2^-W E[n] >= |p_n - P_n(t)|
    on [-1, 1], p_n the `_fixed_recurrence` value at X = t 2^W truncated.

    Truncation errs by less than u = 2^-W, so with ratios r + rho and
    X = (t + xi) 2^W, |rho|, |xi| < u (the ratios are exact floors,
    -u < rho <= 0), each step is exact up to d_n:
        p_n = (r2 + r3 t) p_{n-1} - r4 p_{n-2} + d_n,
        |d_n| < u ((4 + |r3|) |p_{n-1}| + |p_{n-2}| + 1),  |d_1| < u (5 + |slope|),
    with |p_k| <= B[k] + u E[k] <= B[k] + 1.  The error recurrence is linear:
    p_n - P_n(t) = sum_k G(n, k)(t) d_k, G(n, k) its solution from
    G(k-1, k) = 0, G(k, k) = 1.  P_n and G(n, k) are polynomials, bounded on
    [-1, 1] by the sum of their absolute Chebyshev coefficients; doubling
    covers carrying those in float64.  E[n] is about B[n] n^2, 2^24 n below
    the 2^(W - prec) that `_guard_bits` leaves.  B and E do not depend on W,
    so they are cached per (a, b, n_max) and the precisions of a
    certification ladder share one O(n_max^3) build.
    """
    # row 0 holds P_n, row k >= 1 holds G(n, k), of degree n - k; entries
    # are Chebyshev coefficients
    slope = (a + b + 2) / 2
    prev, cur = [[1.0]], [[a + 1 - slope, slope], [1.0]]
    local, B, E = [0.0, 5 + abs(slope)], [1.0], [0.0]
    for n in range(1, n_max + 1):
        if n > 1:
            c1, c2, c3, c4 = _recurrence_coeffs(n, a, b)
            nxt = []
            # G(n-2, n-1) = 0 is the empty row
            for row, old in zip(cur, prev + [[]]):
                # t T_0 = T_1, t T_j = (T_{j-1} + T_{j+1}) / 2
                half = [v / 2 for v in row[1:]]
                tc = [x + y for x, y in zip([0.0, row[0]] + half, half + [0.0, 0.0])]
                nxt.append([(c2 * x + c3 * y - c4 * z) / c1
                            for x, y, z in zip(row + [0.0], tc, old + [0.0, 0.0])])
            prev, cur = cur, nxt + [[1.0]]
            local.append((4 + abs(c3 / c1)) * (B[n - 1] + 1) + B[n - 2] + 2)
        norms = [math.fsum(map(abs, row)) for row in cur]
        B.append(2 * norms[0])
        E.append(2 * math.fsum(x * y for x, y in zip(norms[1:], local[1:])))
    return tuple(B), tuple(E)


@functools.lru_cache(maxsize=4)
def _plan(alpha: float, beta: float, N: int, prec: int) -> tuple:
    """(C, m_n / P_n(1)^2 for n <= N, max(1, |P_N(1)|), `_fixed_recurrence`,
    `_fixed_rounding`): the kernel-independent part of the coefficient sums,
    in mpf at prec, the caller's ambient precision.  C sin(u)^(2a+1)
    cos(u)^(2b+1) du is a probability measure; the third entry scales the DE
    tail test.  A certification ladder reads up to three precisions, four on
    the sign-first ladder, as many as the store holds; a scan mostly one.
    All of them share one `_fixed_rounding`."""
    a, b = mp.mpf(alpha), mp.mpf(beta)
    C = 2 * mp.gamma(a + b + 2) / (mp.gamma(a + 1) * mp.gamma(b + 1))
    pref = tuple(itertools.islice(_prefactors(a, b), N + 1))
    tail = max(1.0, abs(jacobi_value_at_one((alpha, beta), N)))
    return C, pref, tail, _fixed_recurrence(alpha, beta, N, prec), _fixed_rounding(alpha, beta, N)


def gauss_jacobi_rule_mp(params, m: int) -> tuple[list, list]:
    """High-precision rule at the ambient mp.mp.prec; weights unnormalized.

    Double-precision nodes from `_golub_welsch`, the QL solve that also
    serves `gauss_jacobi_rule`, seed Halley iterations on P_m that step
    `_fixed_recurrence` in integers scaled by 2^W, W = prec + `_guard_bits`,
    so a pass costs three integer products and shifts per degree; P_m'
    comes from the same-parameter identity and P_m'' from the Jacobi ODE.
    A step below 2^-(tol/2 + 2 log2 m), tol = prec + 2 log2 m + 8, ends
    the node: Halley's cubic error and the Taylor remainder of the weight
    are then both below 2^-tol.  The weight is c / ((1-x^2) P_m'(x)^2),
    c = 2^(a+b+1) G(m+a+1) G(m+b+1) / (G(m+a+b+1) m!), with P_m' moved to
    the final x by one Taylor term, divided in mpf at W bits.  Nodes and
    weights are rounded to the ambient precision once, at the end.

    Against an mpf polish at 20 more digits, nodes and weights both agree to
    half an ulp (dps 30-100, m <= 90; at dps 40, 5.7e-42 absolute and 1.1e-41
    relative).  The arithmetic is integer, so equal inputs give bit-identical
    rules.
    """
    a, b = _ab(params)
    seeds = _golub_welsch(float(a), float(b), m)[0]
    prec = mp.mp.prec
    tol_bits = prec + 2 * m.bit_length() + 8
    wbits, table, (p1_const, p1_slope) = _fixed_recurrence(mp.mpf(a), mp.mpf(b), m, prec)
    one = 1 << wbits
    tol = 1 << (wbits - tol_bits // 2 - 2 * m.bit_length())

    ctx = _context(wbits)

    def fix(v):
        return libmp.to_fixed(ctx.mpf(v)._mpf_, wbits)

    am, bm = ctx.mpf(mp.mpf(a)), ctx.mpf(mp.mpf(b))
    # (2m+a+b)(1-x^2) P_m' = m(a-b-(2m+a+b)x) P_m + 2(m+a)(m+b) P_{m-1}
    k_ab, k_x = fix(m * (am - bm)), fix(m * (2 * m + am + bm))
    k_prev, k_lhs = fix(2 * (m + am) * (m + bm)), fix(2 * m + am + bm)
    # (1-x^2) P_m'' = (a-b+(a+b+2)x) P_m' - m(m+a+b+1) P_m
    g_ab, g_x, g_p = fix(am - bm), fix(am + bm + 2), fix(m * (m + am + bm + 1))
    # w = c / ((1-x^2) P_m'^2), c = 2^(a+b+1) G(m+a+1) G(m+b+1) / (G(m+a+b+1) m!)
    c = ctx.power(2, am + bm + 1) * ctx.gamma(m + am + 1) * ctx.gamma(m + bm + 1)
    c /= ctx.gamma(m + am + bm + 1) * ctx.factorial(m)

    nodes, weights = [], []
    for seed in seeds:
        num, den = float(seed).as_integer_ratio()
        x = (num << wbits) // den
        for _ in range(12):
            p_prev, p = one, p1_const + (p1_slope * (x - one) >> wbits)
            for r2, r3, r4 in table:
                p_prev, p = p, ((r2 + (r3 * x >> wbits)) * p - r4 * p_prev) >> wbits
            lhs = one - (x * x >> wbits)
            dp = ((k_ab - (k_x * x >> wbits)) * p + k_prev * p_prev) // (k_lhs * lhs >> wbits)
            ddp = ((g_ab + (g_x * x >> wbits)) * dp - g_p * p) // lhs
            # Halley: P / P' over 1 - P P'' / (2 P'^2)
            step = (2 * p * dp << wbits) // (2 * dp * dp - p * ddp)
            x -= step
            if abs(step) < tol:
                break
        else:  # pragma: no cover
            raise RuntimeError("Halley polish of quadrature node did not converge")
        # P_m' at the final x, by one Taylor term
        dp -= step * ddp >> wbits
        nodes.append(mp.mpf((x, -wbits)))
        weights.append(mp.mpf(c / ctx.mpf(((one - (x * x >> wbits)) * dp * dp, -3 * wbits))))
    return nodes, weights
