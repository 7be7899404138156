import math

import mpmath as mp
import numpy as np

from zonalpd.jacobi import _ab, dim_m_n, eigenvalue_lambda_n, jacobi_eval_all, jacobi_value_at_one
from zonalpd.spaces import make_space
from zonalpd.transform import CoefficientEntry, CoefficientReport

# every space with a named catalog entry
CATALOG = ("S2", "S4", "RP2", "RP3", "RP4", "CP2", "CP3", "HP2", "OP2")
# the ones with a concrete point model (OP2 is zonal-only)
SAMPLED = ("S2", "S4", "RP2", "RP3", "RP4", "CP2", "CP3", "HP2")


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


def integrate(rule, f):
    """A QuadratureRule applied to f: sum_k w_k f(x_k)."""
    return float(np.dot(rule.weights, f(rule.nodes)))


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
                m_n=float(dim_m_n(space, n)),
                lambda_n=eigenvalue_lambda_n(space, n),
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
    The exponent s is taken as the exact binary double.
    """
    a, b, s = mp.mpf(space.alpha), mp.mpf(space.beta), mp.mpf(s)
    rho = a - s / 2
    integral = (
        mp.power(2, rho + b + 1) * mp.gamma(rho + 1) * mp.gamma(b + n + 1)
        * mp.rf(a - rho, n) / (mp.factorial(n) * mp.gamma(rho + b + n + 2))
    )
    norm = (
        mp.power(2, a + b + 1) * mp.gamma(n + a + 1) * mp.gamma(n + b + 1)
        / ((2 * n + a + b + 1) * mp.factorial(n) * mp.gamma(n + a + b + 1))
    )
    return mp.sign(s) * mp.power(2, s / 2) * integral / norm
