"""Coefficient transforms, certification, and the Poisson kernel.

The n-th coefficient of a zonal kernel F on X_{alpha,beta} is

    Fhat(n) = (m_n / P_n(1)^2) * int F(t) P_n(t) dmu(t),

with dmu the probability Jacobi measure.  Both integrators work in the
angle u = kappa*theta, where dmu = C sin(u)^(2a+1) cos(u)^(2b+1) du, and
share one node evaluation and accumulation step:

  * a double-exponential (tanh-sinh) rule, which tolerates endpoint
    singularities of any integrable strength and logarithms, and

  * a Gauss-Jacobi rule in v = 4u/pi - 1 whose weight absorbs the powers of
    sin and cos, including the algebraic singularity (1-t)^{-sigma}; the
    residual is analytic in the angle for every non-logarithmic kernel,
    geodesic ones included, whose arccos branch at t=-1 is smooth in u.

Weight exponents are formed in mpf from the binary inputs, never in float64.
Certification runs both, folds the cross-method discrepancy into the error
bound, and escalates precision until every requested sign is decided or a
cap is reached.  Nodes, weights and the integrand run in mpmath; the sums
f P_n run in fixed-point integers on the recurrence of
`jacobi._fixed_recurrence`, with their rounding bound folded into the error.
What does not depend on the kernel is built once and shared: DE node
geometry per working precision, and the measure constant, prefactors and
fixed-point tables per (space, N, precision).  The mpmath context is
process-global, so concurrent certifications must share one precision
setting (the scan drivers do).
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

import mpmath as mp
from mpmath import libmp

from .jacobi import (
    _fixed_recurrence,
    _fixed_rounding,
    _recurrence_coeffs,
    dim_m_n,
    eigenvalue_lambda_n,
    gauss_jacobi_rule_mp,
    jacobi_eval_all,
    jacobi_value_at_one,
)
from .kernels import EvalEnv, ZonalKernel
from .spaces import Space, make_space

__all__ = [
    "CoefficientEntry",
    "CoefficientReport",
    "Hyp2F1Args",
    "coefficients_de",
    "coefficients_gj",
    "certify_coefficients",
    "synthesize",
    "hyp2f1",
    "poisson_kernel",
    "DEFAULT_DIGITS",
    "DEFAULT_N",
    "DE_MAX_LEVEL",
]

DEFAULT_DIGITS = 50
DEFAULT_N = 32
DE_MAX_LEVEL = 12
# term cap of the spectral Poisson series; reaching it raises
POISSON_SERIES_MAX_TERMS = 200000

SIGN_POS = "+"
SIGN_NEG = "-"
SIGN_ZERO = "0"
SIGN_UNDECIDED = "undecided"


@dataclass(frozen=True)
class CoefficientEntry:
    n: int
    value: mp.mpf
    error: mp.mpf
    m_n: float
    lambda_n: float
    sign: str


@dataclass
class CoefficientReport:
    space: Space
    kernel: str
    N: int
    entries: list[CoefficientEntry]
    method: str
    levels: dict = field(default_factory=dict)

    def entry(self, n: int) -> CoefficientEntry:
        return self.entries[n]

    def signs(self) -> list[str]:
        return [e.sign for e in self.entries]

    def digits(self) -> int:
        return int(self.levels.get("digits", DEFAULT_DIGITS))

    def to_json_dict(self) -> dict:
        """Printed values carry `digits` significant digits; each printed
        error adds the rounding of its value and is rounded up, so the
        printed interval contains the computed one."""
        d = self.digits()
        entries = []
        with mp.workdps(d + 20):
            for e in self.entries:
                value = mp.nstr(e.value, d, strip_zeros=False)
                error = e.error + abs(mp.mpf(value) - e.value)
                entries.append(
                    {
                        "n": e.n,
                        "value": value,
                        "error": _nstr_up(error, 8),
                        "m_n": e.m_n,
                        "lambda_n": e.lambda_n,
                        "sign": e.sign,
                    }
                )
        return {
            "space": self.space.descriptor(),
            "kernel": self.kernel,
            "N": self.N,
            "entries": entries,
            "method": self.method,
            "levels": self.levels,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)

    @staticmethod
    def from_json_dict(data: dict) -> "CoefficientReport":
        sp = data["space"]
        space = make_space(sp["name"])
        if not (
            abs(space.alpha - sp["alpha"]) < 1e-12
            and abs(space.beta - sp["beta"]) < 1e-12
            and abs(space.kappa - sp["kappa"]) < 1e-12
        ):
            raise ValueError("space descriptor inconsistent with its name")
        entries = [
            CoefficientEntry(
                n=int(e["n"]),
                value=mp.mpf(e["value"]),
                error=mp.mpf(e["error"]),
                m_n=float(e["m_n"]),
                lambda_n=float(e["lambda_n"]),
                sign=str(e["sign"]),
            )
            for e in data["entries"]
        ]
        return CoefficientReport(
            space=space,
            kernel=str(data["kernel"]),
            N=int(data["N"]),
            entries=entries,
            method=str(data["method"]),
            levels=dict(data.get("levels", {})),
        )

    @staticmethod
    def from_json(text: str) -> "CoefficientReport":
        return CoefficientReport.from_json_dict(json.loads(text))


def _nstr_up(x: mp.mpf, sig: int) -> str:
    """Decimal string of x >= 0 with at most sig+1 significant digits that is
    never below x (mp.nstr rounds to nearest)."""
    if x == 0 or not mp.isfinite(x):
        return mp.nstr(x, sig)
    k = int(mp.floor(mp.log10(x))) + 1 - sig
    # x / 10^k rounded up; 10^|k| is an exact integer
    y = mp.fmul(x, 10**-k, rounding="u") if k < 0 else mp.fdiv(x, 10**k, rounding="u")
    return mp.nstr(mp.mpf(f"{int(mp.ceil(y))}e{k}"), sig + 1)


def _sign_for(
    value: mp.mpf, error: mp.mpf, n: int, kernel: Optional[ZonalKernel], space: Space
) -> str:
    deg = kernel.poly_degree if kernel is not None else None
    if deg is not None and n > deg:
        return SIGN_ZERO
    if value > error:
        return SIGN_POS
    if value < -error:
        return SIGN_NEG
    if deg is not None:
        # polynomial kernels have exactly computable coefficients: a value
        # below the rounding-level bound is an exact structural zero
        return SIGN_ZERO
    if kernel is not None and kernel.known_zero is not None and kernel.known_zero(space, n):
        return SIGN_ZERO
    return SIGN_UNDECIDED


@functools.lru_cache(maxsize=8)
def _rung_constants(alpha: float, beta: float, N: int, prec: int) -> tuple:
    """(C, m_n / P_n(1)^2 for n <= N) in mpf at prec, the caller's ambient
    precision, with C sin(u)^(2a+1) cos(u)^(2b+1) du a probability measure."""
    ab = a, b = mp.mpf(alpha), mp.mpf(beta)
    C = 2 * mp.gamma(a + b + 2) / (mp.gamma(a + 1) * mp.gamma(b + 1))
    return C, tuple(dim_m_n(ab, n) / jacobi_value_at_one(ab, n) ** 2 for n in range(N + 1))


def _pow(base: mp.mpf, expo: mp.mpf) -> mp.mpf:
    if expo == int(expo):
        return base ** int(expo)
    return base ** expo


def _report(
    space: Space, kernel: ZonalKernel, values, errors, method: str, levels: dict
) -> CoefficientReport:
    entries = [
        CoefficientEntry(
            n=n,
            value=v,
            error=e,
            m_n=float(dim_m_n(space, n)),
            lambda_n=eigenvalue_lambda_n(space, n),
            sign=_sign_for(v, e, n, kernel, space),
        )
        for n, (v, e) in enumerate(zip(values, errors))
    ]
    return CoefficientReport(
        space=space,
        kernel=kernel.descriptor,
        N=len(entries) - 1,
        entries=entries,
        method=method,
        levels=levels,
    )


class _AngleSums:
    """Running sums S[n] of f * P_n(t) over nodes in the angle u = kappa*theta.

    With g = (1-t)^sigma F and 1-t = 2 sin(u)^2,
        int F P_n dnu = C 2^-sigma int sin(u)^e_sin cos(u)^e_cos g P_n du,
    e_sin = 2a+1-2sigma, e_cos = 2b+1.  The exponents and the constant are
    formed once, in mpf from the binary inputs.  With sinc=True the nodes
    come from a Gauss-Jacobi rule in v, u = (pi/4)(1+v), whose weight
    (1-v)^e_cos (1+v)^e_sin already carries the powers of u and pi/2-u: the
    powers are then taken of sin(u)/u and cos(u)/(pi/2-u), and the constant
    gains the (pi/4)^(e_sin+e_cos+1) of the substitution.

    t and f become integers at the W bits of `_fixed_recurrence` for (a, b,
    N), and f P_n adds exactly into S[n] at scale 2^(2W); `values` converts.
    """

    def __init__(self, space: Space, kernel: ZonalKernel, N: int, sinc: bool = False):
        a, b = mp.mpf(space.alpha), mp.mpf(space.beta)
        shift = mp.mpf(kernel.gj_shift)
        self.ab = (space.alpha, space.beta)
        self.kernel, self.sinc, self.kappa = kernel, sinc, mp.mpf(space.kappa)
        self.e_sin, self.e_cos = 2 * a + 1 - 2 * shift, 2 * b + 1
        C = _rung_constants(space.alpha, space.beta, N, mp.mp.prec)[0]
        self.const = C * _pow(mp.mpf(2), -shift)
        if sinc:
            self.const *= _pow(mp.pi / 4, self.e_sin + self.e_cos + 1)
        self.wbits, self.ratios, self.seed = _fixed_recurrence(*self.ab, N, mp.mp.prec)
        self.S = [0] * (N + 1)
        # node count, sum of |f| in units of 2^-W, and whether every f was finite
        self.count, self.abs_f, self.finite = 0, 0, True

    def add(self, u: mp.mpf, sinu: mp.mpf, cosu: mp.mpf, factor: mp.mpf, comp=None):
        """Add the node u, with its sine and cosine, and rule weight `factor`
        (comp = pi/2 - u free of cancellation, needed with sinc=True);
        returns |f| for the caller's tail test."""
        one_minus_t = 2 * sinu * sinu
        t = 1 - one_minus_t
        env = EvalEnv(t, one_minus_t, 2 * cosu * cosu, u / self.kappa, self.kappa)
        s, c = (sinu / u, cosu / comp) if self.sinc else (sinu, cosu)
        f = self.const * factor * _pow(s, self.e_sin) * _pow(c, self.e_cos)
        f *= self.kernel.eval_g(env)
        self.finite = self.finite and mp.isfinite(f)
        W, S = self.wbits, self.S
        x, F = libmp.to_fixed(t._mpf_, W), libmp.to_fixed(f._mpf_, W)
        self.count += 1
        self.abs_f += abs(F)
        S[0] += F << W
        if len(S) > 1:
            one, (const, slope) = 1 << W, self.seed
            p_prev, p = one, const + (slope * (x - one) >> W)
            S[1] += F * p
            for n, (r2, r3, r4) in enumerate(self.ratios, start=2):
                p_prev, p = p, ((r2 + (r3 * x >> W)) * p - r4 * p_prev) >> W
                S[n] += F * p
        return abs(f)

    def values(self) -> list:
        """S[n] in mpf at the ambient precision (nan once an f was not finite)."""
        return [mp.mpf((s, -2 * self.wbits)) if self.finite else mp.nan for s in self.S]

    def rounding(self) -> list:
        """Bound per n on |values() - sum_j f_j P_n(t_j)|, the exact sums
        over the same mpf nodes, short of the final rounding to mpf.

        Truncating f_j errs by less than u = 2^-W; by `_fixed_rounding` the
        integer P_n errs by at most u E[n] and is at most B[n] + 1.  Products
        and sums are exact, so K nodes add at most sum_j u (B[n] + 1) +
        (|f_j| + u) u E[n].  With W = prec + `_guard_bits` that is about
        2^-(prec+20) sum_j |f_j|, far below the routes' floors.
        """
        B, E = _fixed_rounding(*self.ab, len(self.S) - 1)
        u, k = mp.mpf((1, -self.wbits)), self.count
        mass = mp.mpf((self.abs_f, -self.wbits)) + k * u
        return [u * (k * (bn + 1) + en * mass) for bn, en in zip(B, E)]


# ---------------------------------------------------------------------------
# double-exponential engine


def _de_node(tau: mp.mpf):
    """tanh-sinh node geometry at abscissa tau.

    Returns (u, comp, w) with u in (0, pi/2), comp = pi/2 - u computed
    without cancellation, and w = du/dtau.
    """
    half_pi = mp.pi / 2
    y = half_pi * mp.sinh(tau)
    # 1 -+ tanh(y) = 2/(1+exp(+-2y))
    one_plus_x = 2 / (1 + mp.exp(-2 * y))
    one_minus_x = 2 / (1 + mp.exp(2 * y))
    u = mp.pi / 4 * one_plus_x
    comp = mp.pi / 4 * one_minus_x
    w = (mp.pi / 4) * half_pi * mp.cosh(tau) / mp.cosh(y) ** 2
    return u, comp, w


# DE node geometry depends only on the working precision, so every route at
# one precision shares it: one dict {(level, i): node at tau = i 2^-level}
# per precision, for the four most recent; a certification ladder uses three.
_DE_NODE_PRECISIONS = 4


@functools.lru_cache(maxsize=_DE_NODE_PRECISIONS)
def _de_nodes_at(prec: int) -> dict:
    return {}


def _de_geometry(nodes: dict, level: int, i: int) -> tuple:
    """(u, sin u, cos u, w) at tau = i 2^-level, built on first use (threads
    racing on a node build equal values; setdefault keeps one).  All four
    are positive, so a node is held as its mantissas and exponents only."""
    packed = nodes.get((level, i))
    if packed is None:
        u, comp, w = _de_node(mp.ldexp(i, -level))
        values = (u, mp.sin(u), mp.sin(comp), w)
        packed = nodes.setdefault((level, i), tuple(x for v in values for x in v._mpf_[1:3]))
    pairs = zip(packed[::2], packed[1::2])
    return tuple(mp.make_mpf((0, m, e, m.bit_length())) for m, e in pairs)


def _de_sums(space: Space, kernel: ZonalKernel, N: int, max_level: int, dps: int):
    """Raw tanh-sinh accumulation of int F P_n dnu for n = 0..N.

    Returns (I, err, level_used) with I, err lists of mpf.  Levels are
    cumulative; the error per n is the last level-to-level difference plus
    a rounding floor and the rounding bound of the fixed-point sums.
    """
    sums = _AngleSums(space, kernel, N)
    nodes = _de_nodes_at(mp.mp.prec)
    pmax = float(jacobi_value_at_one((space.alpha, space.beta), N)) if N else 1.0
    pmax = max(1.0, abs(pmax))
    floor = mp.mpf(10) ** (-(dps + 8))
    scale = mp.mpf(1)

    I_prev = None
    I_cur = None
    err = [mp.mpf("inf")] * (N + 1)
    level_used = 0
    for level in range(max_level + 1):
        h = mp.ldexp(1, -level)
        # level 0 takes tau = 0, +-1, +-2, ...; level L the odd multiples of h
        if level == 0:
            sums.add(*_de_geometry(nodes, 0, 0))
        step, cap = (1, 199) if level == 0 else (2, 200000)
        for direction in (1, -1):
            j, quiet = 0, 0
            while quiet < 3 and j < cap:
                sz = sums.add(*_de_geometry(nodes, level, direction * (step * j + 1)))
                quiet = quiet + 1 if sz * pmax < floor * scale else 0
                j += 1
        I_prev = I_cur
        I_cur = [h * s for s in sums.values()]
        scale = max(mp.mpf(1), abs(I_cur[0]))
        level_used = level
        if I_prev is not None:
            err = [
                abs(cur - prev) + floor * (1 + abs(cur)) + h * r
                for cur, prev, r in zip(I_cur, I_prev, sums.rounding())
            ]
            tol = mp.mpf(10) ** (-(dps - 6))
            if all(err[n] <= tol * (1 + abs(I_cur[n])) for n in range(N + 1)):
                break
    return I_cur, err, level_used


def coefficients_de(
    space: Space,
    kernel: ZonalKernel,
    N: int = DEFAULT_N,
    level: int = DE_MAX_LEVEL,
    digits: int = DEFAULT_DIGITS,
) -> CoefficientReport:
    """Coefficients by tanh-sinh quadrature in the angle variable."""
    kernel.require_integrable(space)
    if N < 0:
        raise ValueError("N must be >= 0")
    with mp.workdps(digits + 10):
        I, raw_err, level_used = _de_sums(space, kernel, N, level, digits)
        pref = _rung_constants(space.alpha, space.beta, N, mp.mp.prec)[1]
        return _report(
            space,
            kernel,
            [p * i for p, i in zip(pref, I)],
            [p * e for p, e in zip(pref, raw_err)],
            "de",
            {"digits": digits, "de_level": level_used, "de_max_level": level},
        )


# ---------------------------------------------------------------------------
# Gauss-Jacobi engine


def _gj_once_u(space: Space, kernel: ZonalKernel, N: int, m: int):
    """m-node Gauss-Jacobi sums of int F P_n dnu in the angle variable.

    With u = (pi/4)(1+v) the integral becomes a Jacobi-weight integral in v
    with weight (2b+1, 2a+1-2sigma); the residual factor uses sin(u)/u and
    cos(u)/(pi/2-u) forms so nothing cancels at the endpoints.  Returns
    the sums and their fixed-point rounding bounds.
    """
    sums = _AngleSums(space, kernel, N, sinc=True)
    nodes, weights = gauss_jacobi_rule_mp((sums.e_cos, sums.e_sin), m)
    quarter_pi = mp.pi / 4
    for v, w in zip(nodes, weights):
        u, comp = quarter_pi * (1 + v), quarter_pi * (1 - v)
        sums.add(u, mp.sin(u), mp.sin(comp), w, comp)
    return sums.values(), sums.rounding()


def coefficients_gj(
    space: Space,
    kernel: ZonalKernel,
    N: int = DEFAULT_N,
    m_nodes: Optional[int] = None,
    digits: int = DEFAULT_DIGITS,
) -> CoefficientReport:
    """Coefficients by singularity-absorbing Gauss-Jacobi quadrature.

    The rule works in the angle variable: its weight carries the powers of
    sin and cos of the measure and the kernel's (1-t)^{-sigma}, leaving an
    analytic residual for every non-logarithmic kernel.  Logarithmic kernels
    are excluded (their singularity is not a power of 1-t); use the
    tanh-sinh engine for those.  The error bound comes from comparing rules
    of order m and m + max(10, m/4).
    """
    kernel.require_integrable(space)
    if kernel.log_flag:
        raise ValueError("Gauss-Jacobi path cannot absorb a logarithmic singularity")
    if space.alpha - kernel.gj_shift <= -1:
        raise ValueError("alpha - sigma must exceed -1 for the split weight")
    if N < 0:
        raise ValueError("N must be >= 0")
    if m_nodes is None:
        # enough nodes for the analytic residual (geometric decay, rate set
        # by the sinc factors) plus the oscillation of P_N
        m_nodes = int(0.7 * digits) + int(0.8 * N) + 12
    m2 = m_nodes + max(10, m_nodes // 4)
    with mp.workdps(digits + 10):
        I_lo, _ = _gj_once_u(space, kernel, N, m_nodes)
        I_hi, rounding = _gj_once_u(space, kernel, N, m2)
        pref = _rung_constants(space.alpha, space.beta, N, mp.mp.prec)[1]
        floor = mp.mpf(10) ** (-(digits + 6))
        values = [p * i for p, i in zip(pref, I_hi)]
        errors = [
            p * (abs(hi - lo) + r) + floor * (1 + abs(v))
            for p, hi, lo, r, v in zip(pref, I_hi, I_lo, rounding, values)
        ]
        return _report(
            space,
            kernel,
            values,
            errors,
            "gj",
            {"digits": digits, "gj_nodes": m_nodes, "gj_nodes_check": m2},
        )


# ---------------------------------------------------------------------------
# certification


def certify_coefficients(
    space: Space,
    kernel: ZonalKernel,
    N: int = DEFAULT_N,
    target_digits: int = DEFAULT_DIGITS,
) -> CoefficientReport:
    """Run both engines, fold their discrepancy into the error bound, and
    escalate precision until every sign is decided or the cap is reached.

    Deterministic for fixed inputs.  Undecided entries in the returned
    report mean the precision ladder was exhausted, never that a stage was
    skipped.
    """
    kernel.require_integrable(space)
    ladder = [target_digits, target_digits + 20, target_digits + 40]
    use_gj = not kernel.log_flag and space.alpha - kernel.gj_shift > -1
    report = None
    for digits in ladder:
        de = coefficients_de(space, kernel, N, level=DE_MAX_LEVEL, digits=digits)
        levels = {"digits": digits, "de_level": de.levels["de_level"]}
        values = [e.value for e in de.entries]
        errors = [e.error for e in de.entries]
        if use_gj:
            gj = coefficients_gj(space, kernel, N, digits=digits)
            levels.update(
                gj_nodes=gj.levels["gj_nodes"], gj_nodes_check=gj.levels["gj_nodes_check"]
            )
            with mp.workdps(digits + 10):
                errors = [
                    e + g.error + abs(v - g.value)
                    for v, e, g in zip(values, errors, gj.entries)
                ]
        report = _report(space, kernel, values, errors, "both" if use_gj else "de", levels)
        if all(e.sign != SIGN_UNDECIDED for e in report.entries):
            break
    return report


# ---------------------------------------------------------------------------
# synthesis and Poisson smoothing


def synthesize(report: CoefficientReport, t: float, r: float = 1.0) -> float:
    """Evaluate the (Poisson-damped) partial sum  sum_n Fhat(n) r^n P_n(t).

    r < 1 always converges.  At r = 1 the truncated tail is estimated by a
    ratio test on |Fhat(n)| P_n(1); a non-decaying tail raises instead of
    summing a series the report cannot support.
    """
    if not 0 <= r <= 1:
        raise ValueError("r must lie in [0,1]")
    space = report.space
    N = report.N
    a, b = space.alpha, space.beta
    if r == 1.0 and N >= 6:
        tail = [
            abs(float(e.value)) * float(jacobi_value_at_one((a, b), e.n))
            for e in report.entries[-5:]
        ]
        head = max(tail[:2])
        if head > 0 and tail[-1] > 0 and tail[-1] >= head and tail[-1] > 1e-12:
            raise ValueError("series tail shows no decay at r=1; refusing to sum")
    P = jacobi_eval_all((a, b), N, float(t))
    total = 0.0
    rn = 1.0
    for n in range(N + 1):
        total += float(report.entries[n].value) * rn * P[n]
        rn *= r
    return total


@dataclass(frozen=True)
class Hyp2F1Args:
    a: float
    b: float
    c: float
    z: float

    def __post_init__(self):
        if self.c <= 0 and self.c == int(self.c):
            raise ValueError("c must not be a non-positive integer")
        if not 0 <= self.z < 1:
            raise ValueError("z must lie in [0,1)")


def hyp2f1(args: Hyp2F1Args, digits: int = 25) -> float:
    """Gauss hypergeometric 2F1(a,b;c;z) on [0,1).

    When c-a (or c-b) is a non-positive integer the Euler transformation
    (1-z)^(c-a-b) 2F1(c-a, c-b; c; z) terminates and is summed exactly.
    Otherwise mpmath's hyp2f1, which transforms z -> 1-z near z=1, gives the
    value at the same elevated working precision.
    """
    if not isinstance(args, Hyp2F1Args):
        args = Hyp2F1Args(*args)
    a, b, c, z = args.a, args.b, args.c, args.z
    if z == 0:
        return 1.0
    with mp.workdps(digits + 10):
        za = mp.mpf(z)
        ca, cb = c - a, c - b
        if (ca == int(ca) and ca <= 0) or (cb == int(cb) and cb <= 0):
            return float(mp.power(1 - za, c - a - b) * _terminating_2f1(ca, cb, c, za))
        return float(mp.hyp2f1(a, b, c, za))


def _terminating_2f1(a, b, c, z):
    """2F1(a, b; c; z) with a or b a non-positive integer: a polynomial,
    summed up to its first zero term."""
    a, b, c = mp.mpf(a), mp.mpf(b), mp.mpf(c)
    term = mp.mpf(1)
    total = mp.mpf(1)
    k = 0
    while term != 0:
        term = term * (a + k) * (b + k) / ((c + k) * (k + 1)) * z
        total += term
        k += 1
    return total


def poisson_kernel(
    space_or_params,
    r: float,
    theta: float,
    method: str = "closed",
    digits: int = 30,
) -> float:
    """The Poisson kernel P_r at geodesic angle theta.

    Closed form: (1-r)/(1+r)^(a+b+2) * 2F1((a+b+2)/2, (a+b+3)/2; b+1; z)
    with z = 4 r cos^2(kappa theta)/(1+r)^2.  Series: the spectral sum
    sum_n (m_n / P_n(1)) r^n P_n(cos 2 kappa theta), which the closed form
    must match; both are exposed so they can police each other.
    """
    if isinstance(space_or_params, tuple):
        a, b = space_or_params
        kappa = 1.0
    else:
        a = space_or_params.alpha
        b = space_or_params.beta
        kappa = space_or_params.kappa
    if not 0 <= r < 1:
        raise ValueError("r must lie in [0,1)")
    if r == 0:
        return 1.0
    if method == "closed":
        # z in mpf: near r = 1 and theta = 0, 1 - z is a few float64 ulps
        with mp.workdps(digits + 10):
            rm = mp.mpf(r)
            z = 4 * rm * mp.cos(mp.mpf(kappa) * mp.mpf(theta)) ** 2 / (1 + rm) ** 2
        pref = (1 - r) / (1 + r) ** (a + b + 2)
        val = hyp2f1(Hyp2F1Args((a + b + 2) / 2, (a + b + 3) / 2, b + 1, z), digits=digits)
        return pref * val
    if method == "series":
        capped = RuntimeError(
            f"Poisson series did not converge in {POISSON_SERIES_MAX_TERMS} terms (r={r!r})"
        )
        with mp.workdps(digits + 10):
            am, bm = mp.mpf(a), mp.mpf(b)
            t = mp.cos(2 * kappa * mp.mpf(theta))
            rm = mp.mpf(r)
            total = mp.mpf(1)
            eps = mp.mpf(10) ** (-(digits + 5))
            # The stopping test compares m_n r^n with eps * max(1, |total|).
            # For a >= b >= -1/2, m_n >= 1, and |total| never exceeds
            # sum_n m_n r^n, the kernel at theta = 0.  So if r^cap is still
            # at least eps * max(1, that sum), no n up to the cap can stop
            # the series: refuse before summing.  The factor 2 covers the
            # float rounding of the closed form.
            far = rm ** POISSON_SERIES_MAX_TERMS
            if a >= b >= -0.5 and far >= 2 * eps:
                peak = poisson_kernel(space_or_params, r, 0.0, "closed", digits)
                if far >= 2 * eps * peak:
                    raise capped
            # incremental state: poch = (a+b+1)_n/(b+1)_n, p1 = P_n(1), r^n,
            # and the last two recurrence values
            poch = mp.mpf(1)
            p1 = mp.mpf(1)
            rn = mp.mpf(1)
            p_prev2 = None
            p_prev = mp.mpf(1)
            for n in range(1, POISSON_SERIES_MAX_TERMS + 1):
                poch *= (am + bm + n) / (bm + n)
                p1 *= (am + n) / n
                rn *= rm
                coef_n = (2 * n + am + bm + 1) / (am + bm + 1) * poch
                if n == 1:
                    p_cur = (am + 1) + (am + bm + 2) * (t - 1) / 2
                else:
                    c1, c2, c3, c4 = _recurrence_coeffs(n, am, bm)
                    p_cur = ((c2 + c3 * t) * p_prev - c4 * p_prev2) / c1
                p_prev2, p_prev = p_prev, p_cur
                total += coef_n * rn * p_cur
                # |P_n| <= P_n(1) on the geometric parameter range
                if coef_n * rn * p1 < eps * max(1, abs(total)):
                    return float(total)
        raise capped
    raise ValueError(f"unknown poisson method {method!r}")
