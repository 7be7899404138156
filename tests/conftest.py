import math
from fractions import Fraction

import mpmath as mp
import numpy as np

from zonalpd.energy import _mc_mean
from zonalpd.jacobi import (
    _ab,
    dim_m_n,
    jacobi_eval_all,
    jacobi_value_at_one,
)
from zonalpd.spaces import BLOCK, distance_t, distance_t_arrays, make_space, sample_uniform_points
from zonalpd.transform import CoefficientEntry, CoefficientReport

# every space with a named catalog entry
CATALOG = ("S2", "S4", "RP2", "RP3", "RP4", "CP2", "CP3", "HP2", "OP2")
# the ones with a concrete point model (OP2 is zonal-only)
SAMPLED = ("S2", "S4", "RP2", "RP3", "RP4", "CP2", "CP3", "HP2")


def exact_fraction(x) -> Fraction:
    """The exact binary value of a float or an mpf."""
    if isinstance(x, mp.mpf):
        sign, man, exp, _ = x._mpf_
        return (-1) ** sign * Fraction(man) * Fraction(2) ** exp
    return Fraction(x)


def jacobi_normalized(params, n_max, t):
    """p_n = P_n / P_n(1), so p_n(1) = 1; |p_n| <= 1 on [-1,1] for the
    geometric parameter range (alpha >= beta >= -1/2)."""
    vals = jacobi_eval_all(params, n_max, t)
    return [v / jacobi_value_at_one(params, n) for n, v in enumerate(vals)]


def jacobi_norm_sq(params, n):
    """h_n = int P_n^2 dmu against the probability-normalized weight mu."""
    a, b = _ab(params)
    if n == 0:
        return 1.0
    lg = math.lgamma
    log_h = (
        lg(n + a + 1)
        + lg(n + b + 1)
        + lg(a + b + 2)
        - lg(n + 1)
        - lg(n + a + b + 1)
        - lg(a + 1)
        - lg(b + 1)
        - math.log(2 * n + a + b + 1)
    )
    return math.exp(log_h)


def total_mass(params):
    """Z = int (1-t)^a (1+t)^b dt = 2^(a+b+1) B(a+1, b+1)."""
    a, b = _ab(params)
    lg = math.lgamma
    return math.exp((a + b + 1) * math.log(2) + lg(a + 1) + lg(b + 1) - lg(a + b + 2))


def integrate(rule, f):
    """A (nodes, weights) rule applied to f: sum_k w_k f(x_k)."""
    nodes, weights = rule
    return float(np.dot(weights, f(nodes)))


def synthetic_report(space_name, values, errors=None, signs=None, kernel="synthetic"):
    """Assemble a CoefficientReport by hand for classifier and synthesis tests."""
    space = make_space(space_name)
    n_max = len(values) - 1
    entries = []
    for n, v in enumerate(values):
        e = mp.mpf(errors[n]) if errors is not None else mp.mpf("1e-30")
        if signs is not None:
            sgn = signs[n]
        else:
            v = mp.mpf(v)
            sgn = "+" if v > e else ("-" if v < -e else "0")
        entries.append(
            CoefficientEntry(
                n=n,
                value=mp.mpf(v),
                error=e,
                sign=sgn,
            )
        )
    return CoefficientReport(
        space=space,
        kernel=kernel,
        N=n_max,
        entries=tuple(entries),
        method="both",
        levels={"digits": 30},
    )


def p_at_one(space_name, n):
    return float(jacobi_value_at_one(make_space(space_name), n))


def riesz_chordal_exact(space, s, n):
    """Closed-form n-th coefficient of riesz-chordal:s at the ambient mp precision.

    F = sgn(s) chi^(-s) = sgn(s) 2^(s/2) (1-t)^(-s/2).  With rho = alpha - s/2,
        int (1-t)^rho (1+t)^beta P_n dt
            = 2^(rho+beta+1) G(rho+1) G(beta+n+1) (alpha-rho)_n / (n! G(rho+beta+n+2))
    (Askey, Orthogonal Polynomials and Special Functions, 1975), and the
    coefficient of P_n is that integral over the unnormalized norm
        H_n = 2^(a+b+1) G(n+a+1) G(n+b+1) / ((2n+a+b+1) n! G(n+a+b+1)).
    alpha - rho is taken as s/2, exact for any s, where a - rho would round
    a tiny s away.  At n = 0, (2n+a+b+1) G(n+a+b+1) is G(a+b+2), which stays
    finite on the circle, a+b+1 = 0.  The exponent s is taken as the exact
    binary double.
    """
    a, b, s = mp.mpf(space.alpha), mp.mpf(space.beta), mp.mpf(s)
    rho = a - s / 2
    integral = (
        mp.power(2, rho + b + 1) * mp.gamma(rho + 1) * mp.gamma(b + n + 1)
        * mp.rf(s / 2, n) / (mp.factorial(n) * mp.gamma(rho + b + n + 2))
    )
    grow = mp.gamma(a + b + 2) if n == 0 else (2 * n + a + b + 1) * mp.gamma(n + a + b + 1)
    norm = (
        mp.power(2, a + b + 1) * mp.gamma(n + a + 1) * mp.gamma(n + b + 1)
        / (mp.factorial(n) * grow)
    )
    return mp.sign(s) * mp.power(2, s / 2) * integral / norm


def funk_hecke_mc(space, n, x, y, samples=10**6, *, seed=0, threads=1):
    """MC check of the reproducing identity for the normalized eigenfunctions.

    Averages P_n(t(x,z)) P_n(t(y,z)) over uniform z and compares with
    (P_n(1)/m_n) P_n(t(x,y)).
    """
    if n < 0 or n > 12:
        raise ValueError("n must be between 0 and 12 for the MC check")
    if x.space != space or y.space != space:
        raise ValueError("x and y must live on the given space")
    params = (space.alpha, space.beta)
    rhs = (
        jacobi_value_at_one(params, n)
        / dim_m_n(params, n)
        * jacobi_eval_all(params, n, distance_t(x, y))[n]
    )

    xc, yc = x.coords, y.coords

    def batch(rng, m):
        Z = sample_uniform_points(space, rng, m)
        out = np.empty(m)
        for k in range(0, m, BLOCK):
            z = Z[k:k + BLOCK]
            t_xz = distance_t_arrays(space, np.broadcast_to(xc, z.shape), z)
            t_yz = distance_t_arrays(space, np.broadcast_to(yc, z.shape), z)
            out[k:k + BLOCK] = (
                jacobi_eval_all(params, n, t_xz)[n] * jacobi_eval_all(params, n, t_yz)[n]
            )
        return out

    mean, stderr = _mc_mean(batch, samples, seed, threads)
    return {
        "lhs_mc": mean,
        "stderr": stderr,
        "rhs": float(rhs),
        "samples": samples,
        "n": n,
    }
