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

Each node is the mpf triple (u, sin u, cos u), with cos u formed as
sin(pi/2 - u) so it keeps its relative accuracy near u = pi/2; the kernel
envelope `eval_g` reads that triple directly.  Weight exponents are
formed in mpf from the binary inputs, never in float64.
Certification takes the route `_route` picks: a sum of c x^mu, x = (1-t)/2,
exactly in `mpmath.iv`; DE alone for a log kernel; both for the rest, with
the cross-method gap folded into the error bound.  Each escalates precision
until every sign is decided or a cap is reached; for a caller that reads
only signs (`scan_riesz`, `table1`) the ladder starts at 12 digits.
Nodes, weights and the integrand run in mpmath.  The
per-node and per-level steps (DE node geometry and its sines, the
Gauss-Jacobi angle nodes and their sines, the integrand, and the DE level
sums, errors and stop test) call `mpmath.libmp` on raw mpf values, without
operator dispatch, in the order of the operator form and at the ambient
precision and rounding, so every bit equals the operator form's; the sums
f P_n run in fixed-point integers, with their rounding bound folded into
the error.  What does not
depend on the kernel is built once and shared: DE node geometry per working
precision, one node per +-tau pair (the map is odd in tau), and one plan,
`jacobi._plan` (measure constant, prefactors, fixed-point recurrence and
its rounding bounds), per (space, N, precision), the bounds per (space, N).
Gauss-Jacobi rules are not shared: their weight
exponent 2a+1-2sigma depends on the kernel.  The mpmath context is
process-global, so concurrent certifications must share one precision
setting (the scan drivers do).  The Poisson kernel's closed form calls the
private 2F1 helper `_hyp2f1` at a precision sized to its 1 - z.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath as mp
from mpmath.libmp import (
    finf, fnan, fninf, fone, from_float, from_int, from_man_exp, mpf_abs, mpf_add, mpf_cosh,
    mpf_cosh_sinh, mpf_div, mpf_exp, mpf_gt, mpf_le, mpf_lt, mpf_mul, mpf_mul_int, mpf_pi,
    mpf_pow, mpf_pow_int, mpf_rdiv_int, mpf_shift, mpf_sin, mpf_sub, to_fixed,
)

from .jacobi import (
    _jacobi_steps,
    _multiplicities,
    _plan,
    _prefactors,
    eigenvalue_lambda_n,
    gauss_jacobi_rule_mp,
    jacobi_eval_all,
    jacobi_value_at_one,
    pochhammer,
)
from .kernels import ZonalKernel, parse_kernel
from .spaces import Space, make_space

__all__ = [
    "CoefficientEntry",
    "CoefficientReport",
    "coefficients_de",
    "coefficients_gj",
    "coefficients_exact",
    "certify_coefficients",
    "synthesize",
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

# the `levels` keys each report `method` writes: the working digits, the DE
# level and the two Gauss-Jacobi orders of the routes it ran
_LEVELS = {"exact": ("digits",), "de": ("digits", "de_level"),
           "gj": ("digits", "gj_nodes", "gj_nodes_check"),
           "both": ("digits", "de_level", "gj_nodes", "gj_nodes_check")}


@dataclass(frozen=True)
class CoefficientEntry:
    n: int
    value: mp.mpf
    error: mp.mpf
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
        printed interval contains the computed one.  m_n and lambda_n are
        functions of (space, n), formed here in one pass."""
        d = self.digits()
        entries = []
        dims = _multiplicities(self.space, len(self.entries) - 1)
        with mp.workdps(d + 20):
            for e, m_n in zip(self.entries, dims):
                value = mp.nstr(e.value, d, strip_zeros=False)
                error = e.error + abs(mp.mpf(value) - e.value)
                entries.append({"n": e.n, "value": value, "error": _nstr_up(error, 8),
                                "m_n": m_n, "lambda_n": eigenvalue_lambda_n(self.space, e.n),
                                "sign": e.sign})
        return {
            "space": self.space.descriptor(),
            "kernel": self.kernel,
            "N": self.N,
            "entries": entries,
            "method": self.method,
            "levels": self.levels,
        }

    @staticmethod
    def from_json_dict(data: dict) -> "CoefficientReport":
        """Read a printed table back: a JSON report, or `coeffs` CSV as the same
        document with text cells.  Refused: a descriptor unlike its name, a
        kernel that does not parse on the space, an N or rows other than
        n = 0..N, and n, m_n or lambda_n printed unlike (space, n); a value or
        error that is not finite, an error < 0, and a sign other than the one
        `_sign_for` gives the printed value and error; a `method` outside
        `_LEVELS`, and a `levels` key its method does not write or a value
        that is not an integer.  Value and error are read 20 digits past the
        longer of the two, the error rounded up."""
        method, levels = data.get("method", ""), data.get("levels", {})
        if "method" in data and method not in _LEVELS:
            raise ValueError(f"method {method!r} is not one of {tuple(_LEVELS)}")
        for key, v in levels.items():
            if key not in _LEVELS.get(method, ()) or type(v) is not int:
                raise ValueError(f"levels entry {key!r}: {v!r} is not a key that method "
                                 f"{method!r} writes with an integer value")
        sp = data["space"]
        space = make_space(sp["name"])
        if not all(abs(getattr(space, k) - sp[k]) < 1e-12 for k in ("alpha", "beta", "kappa")):
            raise ValueError("space descriptor inconsistent with its name")
        kernel = parse_kernel(str(data["kernel"]), space)
        N, rows = int(data["N"]), data["entries"]
        if str(data["N"]) != str(N) or len(rows) != N + 1:
            raise ValueError(f"N = {data['N']} needs the entries n = 0..N, got {len(rows)}")
        entries = []
        # n, m_n and lambda_n follow from (space, n): checked as printed, not kept
        for n, (e, m_n) in enumerate(zip(rows, _multiplicities(space, N))):
            printed = [str(e[k]) for k in ("n", "m_n", "lambda_n")]
            if printed != [str(n), str(m_n), str(eigenvalue_lambda_n(space, n))]:
                raise ValueError(f"entry {n}: n, m_n or lambda_n is not the value for "
                                 f"{space.name} at n = {n}")
            value, error, sign = str(e["value"]), str(e["error"]), e["sign"]
            dps = max(len(value), len(error)) + 20  # one precision: equal decimals compare equal
            v, r = mp.mpf(value, dps=dps), mp.mpf(error, dps=dps, rounding="u")
            if not (r >= 0 and mp.isfinite(v + r)) or sign != _sign_for(v, r, n, kernel, space):
                raise ValueError(f"entry {n}: sign {sign!r} with error {error} does not "
                                 f"follow from value {value}")
            entries.append(CoefficientEntry(n, v, r, sign))
        return CoefficientReport(
            space=space,
            kernel=str(data["kernel"]),
            N=N,
            entries=entries,
            method=method,
            levels=dict(levels),
        )


def _nstr_up(x: mp.mpf, sig: int) -> str:
    """Decimal string of x >= 0 with at most sig+1 significant digits that is
    never below x (mp.nstr rounds to nearest)."""
    if x == 0 or not mp.isfinite(x):
        return mp.nstr(x, sig)
    k = int(mp.floor(mp.log10(x))) + 1 - sig
    # x / 10^k rounded up; 10^|k| is an exact integer
    y = mp.fmul(x, 10**-k, rounding="u") if k < 0 else mp.fdiv(x, 10**k, rounding="u")
    return mp.nstr(mp.mpf(f"{int(mp.ceil(y))}e{k}"), sig + 1)


def _sign_for(value: mp.mpf, error: mp.mpf, n: int, kernel: ZonalKernel, space: Space) -> str:
    deg = kernel.poly_degree
    if deg is not None and n > deg:
        return SIGN_ZERO
    if value > error:
        return SIGN_POS
    if value < mp.fneg(error, exact=True):  # -error would round to the ambient precision
        return SIGN_NEG
    # an even n >= 2 of a kernel odd up to a constant is an exact zero by
    # t -> -t parity when alpha == beta.  Below its degree a polynomial
    # kernel gets no such rule: its exact interval is a sum of rounded
    # terms, so a true zero there straddles 0 and stays undecided
    if kernel.odd_up_to_constant and space.alpha == space.beta and n >= 2 and n % 2 == 0:
        return SIGN_ZERO
    return SIGN_UNDECIDED


def _report(
    space: Space, kernel: ZonalKernel, values, errors, method: str, levels: dict
) -> CoefficientReport:
    entries = [CoefficientEntry(n, v, e, _sign_for(v, e, n, kernel, space))
               for n, (v, e) in enumerate(zip(values, errors))]
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

    Each node arrives as (u, sin u, cos u), which `eval_g` takes as it is;
    t = 1 - 2 sin(u)^2 is formed once, for the recurrence.
    With g = (1-t)^sigma F and 1-t = 2 sin(u)^2,
        int F P_n dnu = C 2^-sigma int sin(u)^e_sin cos(u)^e_cos g P_n du,
    e_sin = 2a+1-2sigma, e_cos = 2b+1.  The exponents and the constant are
    formed once, in mpf from the binary inputs.  With sinc=True the nodes
    come from a Gauss-Jacobi rule in v, u = (pi/4)(1+v), whose weight
    (1-v)^e_cos (1+v)^e_sin already carries the powers of u and pi/2-u: the
    powers are then taken of sin(u)/u and cos(u)/(pi/2-u), and the constant
    gains the (pi/4)^(e_sin+e_cos+1) of the substitution.

    t and f become integers at the W bits of the plan's recurrence for (a, b,
    N), and f P_n adds exactly into S[n] at scale 2^(2W); `values` converts.
    """

    def __init__(self, space: Space, kernel: ZonalKernel, N: int, sinc: bool = False):
        a, b = mp.mpf(space.alpha), mp.mpf(space.beta)
        shift = mp.mpf(kernel.gj_shift)
        self.kernel, self.sinc = kernel, sinc
        self.e_sin, self.e_cos = 2 * a + 1 - 2 * shift, 2 * b + 1
        C, _, _, recurrence, self.bounds = _plan(space.alpha, space.beta, N, mp.mp.prec)
        self.const = C * mp.mpf(2) ** -shift
        if sinc:
            self.const *= (mp.pi / 4) ** (self.e_sin + self.e_cos + 1)
        self.wbits, self.ratios, self.seed = recurrence
        self.S = [0] * (N + 1)
        # node count, sum of |f| in units of 2^-W, and whether every f was finite
        self.count, self.abs_f, self.finite = 0, 0, True

    def add(self, u: mp.mpf, sinu: mp.mpf, cosu: mp.mpf, factor: mp.mpf, comp=None):
        """Add the node u, with its sine and cosine, and rule weight `factor`
        (comp = pi/2 - u free of cancellation, needed with sinc=True);
        returns |f| as a raw mpf value for the caller's tail test.

        The mpf steps are those of the operator form
            t = 1 - 2 sinu sinu,  f = const factor s^e_sin c^e_cos g,
        in that order and at the ambient precision and rounding, called
        through `mpmath.libmp` without operator dispatch; the results are
        bit-identical."""
        prec, rnd = mp.mp._prec_rounding
        su, cu = sinu._mpf_, cosu._mpf_
        t = mpf_sub(fone, mpf_mul(mpf_mul_int(su, 2, prec, rnd), su, prec, rnd), prec, rnd)
        s, c = su, cu
        if self.sinc:
            s, c = mpf_div(su, u._mpf_, prec, rnd), mpf_div(cu, comp._mpf_, prec, rnd)
        f = mpf_mul(self.const._mpf_, factor._mpf_, prec, rnd)
        f = mpf_mul(f, mpf_pow(s, self.e_sin._mpf_, prec, rnd), prec, rnd)
        f = mpf_mul(f, mpf_pow(c, self.e_cos._mpf_, prec, rnd), prec, rnd)
        f = mpf_mul(f, self.kernel.eval_g(u, sinu, cosu)._mpf_, prec, rnd)
        self.finite = self.finite and f not in (finf, fninf, fnan)
        W, S = self.wbits, self.S
        x, F = to_fixed(t, W), to_fixed(f, W)
        self.count += 1
        self.abs_f += abs(F)
        S[0] += F << W
        if len(S) > 1:
            one, (const, slope) = 1 << W, self.seed
            p_prev, p = one, const + (slope * (x - one) >> W)
            S[1] += F * p
            n = 2
            for r2, r3, r4 in self.ratios:
                p_prev, p = p, ((r2 + (r3 * x >> W)) * p - r4 * p_prev) >> W
                S[n] += F * p
                n += 1
        return mpf_abs(f)

    def values(self) -> list:
        """S[n] as raw mpf values at the ambient precision (nan once an f was
        not finite)."""
        prec, rnd = mp.mp._prec_rounding
        scale = -2 * self.wbits
        return [from_man_exp(s, scale, prec, rnd) if self.finite else fnan for s in self.S]

    def rounding(self) -> list:
        """Bound per n, as raw mpf values, on |values() - sum_j f_j P_n(t_j)|,
        the exact sums over the same mpf nodes, short of the final rounding
        to mpf.

        Truncating f_j errs by less than u = 2^-W; by the plan's rounding
        bounds the integer P_n errs by at most u E[n] and is at most B[n] + 1.
        Products and sums are exact, so K nodes add at most sum_j u (B[n] + 1) +
        (|f_j| + u) u E[n].  With W = prec + `_guard_bits` that is about
        2^-(prec+20) sum_j |f_j|, far below the routes' floors.  The mpf steps
        are those of u * (k * (B[n] + 1) + E[n] * mass), with float B and E.
        """
        prec, rnd = mp.mp._prec_rounding
        B, E = self.bounds
        u, k = from_man_exp(1, -self.wbits, prec, rnd), self.count
        mass = mpf_add(from_man_exp(self.abs_f, -self.wbits, prec, rnd),
                       mpf_mul_int(u, k, prec, rnd), prec, rnd)
        return [mpf_mul(u, mpf_add(mpf_mul(mass, from_float(en), prec, rnd),
                                   from_float(k * (bn + 1)), prec, rnd), prec, rnd)
                for bn, en in zip(B, E)]


# ---------------------------------------------------------------------------
# double-exponential engine


def _de_node(tau: tuple) -> tuple:
    """tanh-sinh node geometry at the raw mpf abscissa tau.

    Returns raw mpf values (u, comp, w) with u in (0, pi/2), comp = pi/2 - u
    computed without cancellation, and w = du/dtau.  Every step is odd or
    even in tau, so the node at -tau is (comp, u, w) bit for bit.  The steps
    are those of the operator form
        y = (pi/2) sinh(tau),  1 -+ tanh(y) = 2/(1+exp(+-2y)),
        u = pi/4 (1+x),  comp = pi/4 (1-x),
        w = (pi/4) (pi/2) cosh(tau) / cosh(y)^2,
    at the ambient precision and rounding, through `mpmath.libmp`; cosh tau
    and sinh tau come from the one call behind both mp.cosh and mp.sinh.
    """
    prec, rnd = mp.mp._prec_rounding
    cosh_tau, sinh_tau = mpf_cosh_sinh(tau, prec, rnd)
    pi = mpf_pi(prec, rnd)
    half_pi, quarter_pi = mpf_div(pi, from_int(2), prec, rnd), mpf_div(pi, from_int(4), prec, rnd)
    y = mpf_mul(half_pi, sinh_tau, prec, rnd)
    one_plus_x = mpf_rdiv_int(
        2, mpf_add(mpf_exp(mpf_mul_int(y, -2, prec, rnd), prec, rnd), fone, prec, rnd), prec, rnd)
    one_minus_x = mpf_rdiv_int(
        2, mpf_add(mpf_exp(mpf_mul_int(y, 2, prec, rnd), prec, rnd), fone, prec, rnd), prec, rnd)
    u = mpf_mul(quarter_pi, one_plus_x, prec, rnd)
    comp = mpf_mul(quarter_pi, one_minus_x, prec, rnd)
    w = mpf_mul(mpf_mul(quarter_pi, half_pi, prec, rnd), cosh_tau, prec, rnd)
    w = mpf_div(w, mpf_pow_int(mpf_cosh(y, prec, rnd), 2, prec, rnd), prec, rnd)
    return u, comp, w


# DE node geometry depends only on the working precision, so every route at
# one precision shares it: one dict {(level, |i|): node at tau = |i| 2^-level}
# per precision, for the four most recent; a ladder uses three, a sign-first one four.
_DE_NODE_PRECISIONS = 4


@functools.lru_cache(maxsize=_DE_NODE_PRECISIONS)
def _de_nodes_at(prec: int) -> dict:
    return {}


def _de_geometry(nodes: dict, level: int, i: int) -> tuple:
    """(u, sin u, cos u, w) at tau = i 2^-level for i >= 0, and for i < 0 the
    same node of |i| swapped, (comp, cos u, sin u, w) with comp = pi/2 - u:
    the tanh-sinh map is odd in tau.  Built on first use (threads racing on
    a node build equal values; setdefault keeps one) and held as the mpf
    values themselves, which no caller mutates."""
    key = (level, abs(i))
    node = nodes.get(key)
    if node is None:
        prec, rnd = mp.mp._prec_rounding
        u, comp, w = _de_node(mpf_shift(from_int(abs(i)), -level))
        node = (u, comp, mpf_sin(u, prec, rnd), mpf_sin(comp, prec, rnd), w)
        node = nodes.setdefault(key, tuple(map(mp.make_mpf, node)))
    u, comp, sinu, cosu, w = node
    return (u, sinu, cosu, w) if i >= 0 else (comp, cosu, sinu, w)


def _de_sums(space: Space, kernel: ZonalKernel, N: int, dps: int):
    """Raw tanh-sinh accumulation of int F P_n dnu for n = 0..N.

    Returns (I, err, level_used) with I, err lists of mpf.  Levels are
    cumulative, up to DE_MAX_LEVEL; the error per n is the last level-to-level difference plus
    a rounding floor and the rounding bound of the fixed-point sums.  A side
    stops after three nodes in a row with |f| pmax < floor scale.  Per level,
        I = h S,  scale = max(1, |I[0]|),
        err = |I - I_prev| + floor (1 + |I|) + h rounding,
    and the refinement stops once err <= tol (1 + |I|) for every n; these
    steps run on raw mpf values through `mpmath.libmp`, bit-identical to the
    operator forms.
    """
    sums = _AngleSums(space, kernel, N)
    nodes = _de_nodes_at(mp.mp.prec)
    prec, rnd = mp.mp._prec_rounding
    pmax = from_float(_plan(space.alpha, space.beta, N, mp.mp.prec)[2])
    floor = (mp.mpf(10) ** (-(dps + 8)))._mpf_
    tol = (mp.mpf(10) ** (-(dps - 6)))._mpf_
    scale = fone

    I_cur = None
    err = [finf] * (N + 1)
    level_used = 0
    for level in range(DE_MAX_LEVEL + 1):
        h = mpf_shift(fone, -level)
        # level 0 takes tau = 0, +-1, +-2, ...; level L the odd multiples of h
        if level == 0:
            sums.add(*_de_geometry(nodes, 0, 0))
        step, cap = (1, 199) if level == 0 else (2, 200000)
        quiet_below = mpf_mul(floor, scale, prec, rnd)
        for direction in (1, -1):
            j, quiet = 0, 0
            while quiet < 3 and j < cap:
                sz = sums.add(*_de_geometry(nodes, level, direction * (step * j + 1)))
                quiet = quiet + 1 if mpf_lt(mpf_mul(sz, pmax, prec, rnd), quiet_below) else 0
                j += 1
        I_prev = I_cur
        I_cur = [mpf_mul(h, v, prec, rnd) for v in sums.values()]
        size0 = mpf_abs(I_cur[0], prec, rnd)
        scale = size0 if mpf_gt(size0, fone) else fone
        level_used = level
        if I_prev is not None:
            # 1 + |I[n]|, read by the floor term and the stop test
            sizes = [mpf_add(mpf_abs(cur, prec, rnd), fone, prec, rnd) for cur in I_cur]
            err = [
                mpf_add(mpf_add(mpf_abs(mpf_sub(cur, prev, prec, rnd), prec, rnd),
                                mpf_mul(floor, size, prec, rnd), prec, rnd),
                        mpf_mul(h, r, prec, rnd), prec, rnd)
                for cur, prev, size, r in zip(I_cur, I_prev, sizes, sums.rounding())
            ]
            if all(mpf_le(e, mpf_mul(tol, size, prec, rnd)) for e, size in zip(err, sizes)):
                break
    return list(map(mp.make_mpf, I_cur)), list(map(mp.make_mpf, err)), level_used


def coefficients_de(
    space: Space,
    kernel: ZonalKernel,
    N: int = DEFAULT_N,
    digits: int = DEFAULT_DIGITS,
) -> CoefficientReport:
    """Coefficients by tanh-sinh quadrature in the angle variable, refined
    level by level up to DE_MAX_LEVEL."""
    kernel.require_integrable(space)
    if N < 0:
        raise ValueError("N must be >= 0")
    with mp.workdps(digits + 10):
        I, raw_err, level_used = _de_sums(space, kernel, N, digits)
        pref = _plan(space.alpha, space.beta, N, mp.mp.prec)[1]
        return _report(
            space,
            kernel,
            [p * i for p, i in zip(pref, I)],
            [p * e for p, e in zip(pref, raw_err)],
            "de",
            {"digits": digits, "de_level": level_used},
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
    prec, rnd = mp.mp._prec_rounding
    # the steps of u, comp = pi/4 (1 + v), pi/4 (1 - v) and their sines in
    # the operator form, through `mpmath.libmp`
    quarter_pi = mpf_div(mpf_pi(prec, rnd), from_int(4), prec, rnd)
    for v, w in zip(nodes, weights):
        u = mpf_mul(quarter_pi, mpf_add(v._mpf_, fone, prec, rnd), prec, rnd)
        comp = mpf_mul(quarter_pi, mpf_sub(fone, v._mpf_, prec, rnd), prec, rnd)
        u, sinu, cosu, comp = map(mp.make_mpf, (u, mpf_sin(u, prec, rnd),
                                                mpf_sin(comp, prec, rnd), comp))
        sums.add(u, sinu, cosu, w, comp)
    return list(map(mp.make_mpf, sums.values())), list(map(mp.make_mpf, sums.rounding()))


def coefficients_gj(
    space: Space,
    kernel: ZonalKernel,
    N: int = DEFAULT_N,
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
        raise ValueError("Gauss-Jacobi path needs a power singularity, not a logarithm")
    if N < 0:
        raise ValueError("N must be >= 0")
    # enough nodes for the analytic residual (geometric decay, rate set by
    # the sinc factors) plus the oscillation of P_N
    m_nodes = int(0.7 * digits) + int(0.8 * N) + 12
    m2 = m_nodes + max(10, m_nodes // 4)
    with mp.workdps(digits + 10):
        I_lo, _ = _gj_once_u(space, kernel, N, m_nodes)
        I_hi, rounding = _gj_once_u(space, kernel, N, m2)
        pref = _plan(space.alpha, space.beta, N, mp.mp.prec)[1]
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
# certification: the exact route, then both quadrature routes


# `coefficients_exact` expands F into at most this many terms c x^mu, and only
# while rounding them loses at most the 10 guard digits of a rung: log10 of
# sum |c| / F(t = 1) for a cospow or jacobi leaf (at least n log10 2), added
# over a product's factors, the largest over a lincomb's terms
_EXACT_MAX_TERMS, _EXACT_MAX_LOSS = 64, 10


def _power_terms(kernel: ZonalKernel) -> tuple | None:
    """F = sum c x^mu, x = (1-t)/2, as ({mu: c} in exact Fractions, loss), or
    None.  A jacobi leaf is P_n of the (a, b) it was built with, None if
    unknown: (a+1)_n/n! 2F1(-n, n+a+b+1; a+1; x)."""
    args = dict(kernel.args)
    if kernel.family == "riesz-chordal":
        pairs, loss = [(-Fraction(args["s"]) / 2, Fraction(1 if args["s"] > 0 else -1))], 0
    elif kernel.family in ("cospow", "jacobi"):
        n, jacobi, pairs = args["n"], kernel.family == "jacobi", []
        if n * math.log10(2) > _EXACT_MAX_LOSS or (jacobi and not kernel.ab):
            return None
        a, b = map(Fraction, kernel.ab or (0, 0))
        c = pochhammer(a + 1, n) / math.factorial(n) if jacobi else Fraction(1)
        for k in range(n + 1):
            pairs.append((Fraction(k), c))
            c = c * (k - n) / (k + 1) * ((n + a + b + 1 + k) / (a + 1 + k) if jacobi else 1)
        loss = math.log10(sum(abs(c) for _, c in pairs) / pairs[0][1])
    elif kernel.family in ("product", "lincomb"):
        parts = [_power_terms(k) for k in kernel._kernels]
        if None in parts:
            return None
        loss = (sum if kernel.family == "product" else max)(l for _, l in parts)
        if loss > _EXACT_MAX_LOSS:
            return None
        if kernel.family == "product":
            (t1, _), (t2, _) = parts
            pairs = [(m1 + m2, c1 * c2) for m1, c1 in t1.items() for m2, c2 in t2.items()]
        else:
            pairs = [(m, Fraction(w) * c) for (w, _), (t, _) in zip(kernel.parts, parts)
                     for m, c in t.items()]
    else:
        return None
    terms = {}
    for m, c in pairs:
        terms[m] = terms.get(m, 0) + c
    return (terms, loss) if len(terms) <= _EXACT_MAX_TERMS and loss <= _EXACT_MAX_LOSS else None


def coefficients_exact(space: Space, kernel: ZonalKernel, N: int = DEFAULT_N) -> list | None:
    """Coefficients n = 0..N as `mpmath.iv` intervals at its ambient precision
    when F is a finite sum of c x^mu, x = (1-t)/2, within `_EXACT_MAX_TERMS`
    and `_EXACT_MAX_LOSS` (riesz-chordal, cospow and jacobi leaves and their
    products and lincombs), else None.  By Askey,
        int x^mu P_n dw  = G(a+mu+1) G(a+b+2) / (G(a+1) G(a+b+mu+2))
                           * (b+1)_n (-mu)_n / (n! (a+b+mu+2)_n),
    w the probability measure, Pochhammer symbols as running products in n
    (`iv.rf` fails in mpmath 1.3.0), times m_n / P_n(1)^2 from `_prefactors`,
    which is regular on the circle."""
    expansion = _power_terms(kernel)
    return None if expansion is None else _exact_intervals(space, kernel, N, expansion[0])


def _exact_intervals(space: Space, kernel: ZonalKernel, N: int, terms: dict) -> list:
    """The body of `coefficients_exact`, given the terms {mu: c} of F."""
    kernel.require_integrable(space)
    if N < 0:
        raise ValueError("N must be >= 0")
    iv = mp.iv
    a, b = iv.mpf(space.alpha), iv.mpf(space.beta)
    base = iv.gamma(a + b + 2) / iv.gamma(a + 1)
    sums = [iv.mpf(0)] * (N + 1)
    for mu, c in terms.items():
        m = iv.mpf(mu.numerator) / mu.denominator
        term = (iv.mpf(c.numerator) / c.denominator * base
                * iv.gamma(a + m + 1) / iv.gamma(a + b + m + 2))
        for n in range(N + 1):
            sums[n] += term
            term *= (b + 1 + n) * (n - m) / ((n + 1) * (a + b + m + 2 + n))
    return [p * total for p, total in zip(_prefactors(a, b), sums)]


# the first rung of a ladder whose caller reads only signs: the coefficients
# that decide a verdict sit far above a 12-digit rung's error
_SIGN_DIGITS = 12


def _precision_ladder(target_digits: int, signs_only: bool = False) -> tuple:
    """The working digits of the certification rungs, in the order they run;
    with `signs_only`, `_SIGN_DIGITS` first when it is below the target."""
    first = (_SIGN_DIGITS,) if signs_only and target_digits > _SIGN_DIGITS else ()
    return first + (target_digits, target_digits + 20, target_digits + 40)


def _route(kernel: ZonalKernel) -> tuple:
    """(route, terms): the route of a kernel, its report's `method`, and the
    {mu: c} it sums.  `exact` when `_power_terms` expands it, else `de` for a
    log kernel, which Gauss-Jacobi refuses, else `both`, with terms None."""
    expansion = _power_terms(kernel)
    if expansion is not None:
        return "exact", expansion[0]
    # an integrable power singularity leaves the split weight exponent
    # 2a+1-2sigma above -1, so Gauss-Jacobi applies to every non-log kernel
    return ("de" if kernel.log_flag else "both"), None


def certify_coefficients(
    space: Space,
    kernel: ZonalKernel,
    N: int = DEFAULT_N,
    target_digits: int = DEFAULT_DIGITS,
    *,
    signs_only: bool = False,
) -> CoefficientReport:
    """Certify by the kernel's `_route`: the intervals of `coefficients_exact`,
    or DE, and on route `both` Gauss-Jacobi with the discrepancy folded into
    the error bound; climb the precision ladder until every sign is decided.
    A caller that reads only signs passes `signs_only`, whose ladder starts
    at `_SIGN_DIGITS`; the report's `levels["digits"]` names the rung.

    Deterministic for fixed inputs.  Undecided entries in the returned
    report mean the precision ladder was exhausted, never that a stage was
    skipped.
    """
    route, terms = _route(kernel)
    for digits in _precision_ladder(target_digits, signs_only):
        if route == "exact":  # as midpoints and radii, rounded up
            prec, mp.iv.dps = mp.iv.prec, digits + 10
            try:
                intervals = _exact_intervals(space, kernel, N, terms)
            finally:
                mp.iv.prec = prec
            with mp.workdps(digits + 10):
                ends = [tuple(map(mp.make_mpf, x._mpi_)) for x in intervals]
                values = [(lo + hi) / 2 for lo, hi in ends]
                errors = [max(mp.fsub(hi, v, rounding="u"), mp.fsub(v, lo, rounding="u"))
                          for (lo, hi), v in zip(ends, values)]
            levels = {"digits": digits}
        else:
            de = coefficients_de(space, kernel, N, digits=digits)
            levels = {"digits": digits, "de_level": de.levels["de_level"]}
            values = [e.value for e in de.entries]
            errors = [e.error for e in de.entries]
            if route == "both":
                gj = coefficients_gj(space, kernel, N, digits=digits)
                levels.update(gj_nodes=gj.levels["gj_nodes"],
                              gj_nodes_check=gj.levels["gj_nodes_check"])
                with mp.workdps(digits + 10):
                    errors = [e + g.error + abs(v - g.value)
                              for v, e, g in zip(values, errors, gj.entries)]
        report = _report(space, kernel, values, errors, route, levels)
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


def _hyp2f1(a, b, c, z, digits: int) -> float:
    """Gauss hypergeometric 2F1(a,b;c;z) on [0,1), at digits + 10 digits.

    When c-a (or c-b) is a non-positive integer the Euler transformation
    (1-z)^(c-a-b) 2F1(c-a, c-b; c; z) terminates and is summed exactly.
    Otherwise mpmath's hyp2f1, which transforms z -> 1-z near z=1, gives the
    value at the same elevated working precision.  Each path wins on some
    input: the Euler sum is far faster at high precision, and mpmath's value
    differs from it in the last bit at the lowest precisions.
    """
    if not 0 <= z < 1:
        raise ValueError("z must lie in [0,1)")
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
    if method == "closed":
        # near r = 1 and theta = 0, 1 - z is tiny: w = 1 - z has no
        # cancellation here, and z carries -log10(w) more digits; rm and u
        # are exact (a double, times 1/2 or 1), so both precisions share them
        with mp.workdps(digits + 10):
            rm, u = mp.mpf(r), mp.mpf(kappa) * mp.mpf(theta)
            w = ((1 - rm) ** 2 + 4 * rm * mp.sin(u) ** 2) / (1 + rm) ** 2
        digits += max(0, math.ceil(-math.log10(w)))
        with mp.workdps(digits + 10):
            z = 4 * rm * mp.cos(u) ** 2 / (1 + rm) ** 2
        pref = (1 - r) / (1 + r) ** (a + b + 2)
        return pref * _hyp2f1((a + b + 2) / 2, (a + b + 3) / 2, b + 1, z, digits)
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
            # For a >= b, a >= -1/2, |P_k| <= P_k(1) (Szego, Thm 7.32.1), so
            # after n terms |total| is at most S_n = sum_{k <= n} m_k r^k, and
            # the loop can stop at n only if m_n r^n < eps * max(1, S_n).
            # On that range one float pass refuses
            # before summing when no n up to the cap passes that test with a
            # factor 2 of slack for its rounding; it stops at the first n
            # that passes, and an overflow or underflow refuses nothing.
            eps2 = 2 * 10.0 ** -(digits + 5)
            if a >= max(b, -0.5) and eps2 > 0:
                prefs, p1, rn, s_n = _prefactors(float(a), float(b)), 1.0, 1.0, 1.0
                next(prefs)
                for n, pref in zip(range(1, POISSON_SERIES_MAX_TERMS + 1), prefs):
                    p1, rn = p1 * (a + n) / n, rn * r
                    term = pref * p1 * p1 * rn  # m_n r^n
                    s_n += term
                    if not term >= eps2 * max(1.0, s_n) or s_n == math.inf:
                        break
                else:
                    raise capped
            # incremental state: p1 = P_n(1), r^n and the recurrence at t;
            # coef_n = (m_n / P_n(1)^2) P_n(1), regular on the circle
            p1 = rn = mp.mpf(1)
            prefs, steps = _prefactors(am, bm), _jacobi_steps(am, bm, t)
            next(prefs)
            next(steps)
            for n, pref, p_cur in zip(range(1, POISSON_SERIES_MAX_TERMS + 1), prefs, steps):
                p1 *= (am + n) / n
                rn *= rm
                coef_n = pref * p1
                total += coef_n * rn * p_cur
                # |P_n| <= P_n(1) for a >= b, a >= -1/2 (Szego, Thm 7.32.1)
                if coef_n * rn * p1 < eps * max(1, abs(total)):
                    return float(total)
        raise capped
    raise ValueError(f"unknown poisson method {method!r}")
