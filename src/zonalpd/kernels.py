"""Zonal kernels F(t) with singularity metadata.

A kernel is a function of the zonal variable t = cos(2*kappa*theta),
continuous on [-1, 1) and possibly singular at t = 1 (the diagonal).  The
metadata drives the quadrature engines:

  sing_exponent   sigma >= 0 with (1-t)^sigma F(t) continuous up to t = 1
  log_flag        True when the diagonal singularity is logarithmic
  poly_degree     degree when F is a genuine polynomial in t, else None

Evaluation comes in two flavors: `f_t` is a fast double-precision numpy
evaluator of F itself (diverges at t=1 when singular), while `eval_g` takes
an EvalEnv of precomputed trig quantities (float or mpf) and returns the
envelope G stably, which is what the integrators consume.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import mpmath as mp
import numpy as np

from .jacobi import jacobi_eval, jacobi_eval_all
from .spaces import Space

__all__ = [
    "EvalEnv",
    "ZonalKernel",
    "riesz_geodesic",
    "riesz_chordal",
    "log_geodesic",
    "log_chordal",
    "gaussian_kernel",
    "cos_power_kernel",
    "jacobi_unit_kernel",
    "product_kernel",
    "linear_combination",
    "parse_kernel",
]


@dataclass(frozen=True)
class EvalEnv:
    """Precomputed node quantities handed to kernel envelope evaluators.

    All fields share one arithmetic (float or mpmath.mpf).  one_minus_t and
    one_plus_t are computed from half-angle forms upstream, so they stay
    accurate near the endpoints where 1-t would cancel.
    """

    t: object
    one_minus_t: object
    one_plus_t: object
    theta: object
    kappa: object

    @property
    def sin_ktheta_over_theta(self):
        """sin(kappa*theta)/theta, stable as theta -> 0."""
        x = self.kappa * self.theta
        if x == 0:
            return self.kappa
        s = mp.sin(x) if isinstance(x, mp.mpf) else math.sin(x)
        return s / self.theta


def env_from_theta(space_kappa, theta):
    """EvalEnv at geodesic angle theta, in theta's own arithmetic."""
    k = theta * 0 + space_kappa
    u = k * theta
    if isinstance(theta, mp.mpf):
        su, cu = mp.sin(u), mp.cos(u)
    else:
        su, cu = math.sin(u), math.cos(u)
    return EvalEnv(
        t=1 - 2 * su * su,
        one_minus_t=2 * su * su,
        one_plus_t=2 * cu * cu,
        theta=theta,
        kappa=k,
    )


@dataclass(frozen=True)
class ZonalKernel:
    descriptor: str
    sing_exponent: float
    log_flag: bool
    poly_degree: Optional[int]
    eval_g: Callable[[EvalEnv], object]
    f_t: Callable[[np.ndarray], np.ndarray]
    # exponent actually absorbed into quadrature weights; equals
    # sing_exponent for singular kernels but may be negative when a factor
    # (1-t)^(+p) can be pulled out (Riesz with s < 0), which keeps the
    # Gauss-Jacobi residual analytic.  eval_g returns (1-t)^gj_shift * F.
    gj_shift: Optional[float] = None
    # predicate marking coefficients that vanish identically, e.g. by
    # t -> -t parity on alpha == beta spaces.  Consulted only when the
    # computed value sits inside its error bound, so numerics still win
    # whenever they can decide a sign on their own.
    known_zero: Optional[Callable[[object, int], bool]] = None

    def __post_init__(self):
        if self.sing_exponent < 0:
            raise ValueError("sing_exponent must be >= 0")
        if self.gj_shift is None:
            object.__setattr__(self, "gj_shift", self.sing_exponent)

    def integrable_on(self, space: Space) -> bool:
        """F in L1(mu) iff sigma < alpha+1 (log singularities always are)."""
        return self.sing_exponent < space.alpha + 1

    def require_integrable(self, space: Space) -> None:
        if not self.integrable_on(space):
            raise ValueError(
                f"kernel {self.descriptor} with singularity exponent "
                f"{self.sing_exponent} is not integrable on {space.name} "
                f"(needs < alpha+1 = {space.alpha + 1})"
            )

    def __call__(self, t):
        return self.f_t(np.asarray(t, dtype=float))


def _sgn(s: float) -> float:
    return 1.0 if s > 0 else -1.0


def _fmt(v: float) -> str:
    """Shortest round-trip repr of a float, without a trailing ".0"."""
    r = repr(float(v))
    return r[:-2] if r.endswith(".0") else r


# ---------------------------------------------------------------------------
# Riesz and logarithmic kernels


def riesz_geodesic(space: Space, s: float) -> ZonalKernel:
    """sgn(s) * theta^(-s) on the geodesic metric; s = 0 gives -log theta.

    Singular with exponent s/2 for s > 0 (theta ~ sqrt(2(1-t))/(2 kappa) at
    the diagonal); integrable iff s < D = 2 alpha + 2.
    """
    if s == 0:
        return log_geodesic(space)
    s = float(s)
    if s >= space.dim_D:
        raise ValueError(f"s={s} >= D={space.dim_D}: Riesz kernel not integrable")
    kappa = space.kappa
    sign = _sgn(s)
    sigma = max(s, 0.0) / 2

    def eval_g(env: EvalEnv):
        # (1-t)^{s/2} theta^{-s} = (2 r^2)^{s/2} with r = sin(k theta)/theta;
        # valid for either sign of s
        r = env.sin_ktheta_over_theta
        return sign * (2 * r * r) ** (s / 2)

    def f_t(t: np.ndarray) -> np.ndarray:
        theta = np.arccos(np.clip(t, -1.0, 1.0)) / (2 * kappa)
        with np.errstate(divide="ignore"):
            return sign * theta ** (-s)

    # -theta differs from an odd function of t by a constant
    # (theta(-t) = pi/(2 kappa) - theta(t)), so on alpha == beta spaces
    # every even-n coefficient with n >= 2 vanishes identically
    known_zero = None
    if s == -1.0:

        def known_zero(sp, n: int) -> bool:
            return sp.alpha == sp.beta and n >= 2 and n % 2 == 0

    return ZonalKernel(
        descriptor=f"riesz-geodesic:s={_fmt(s)}",
        sing_exponent=sigma,
        log_flag=False,
        poly_degree=None,
        eval_g=eval_g,
        f_t=f_t,
        gj_shift=s / 2,
        known_zero=known_zero,
    )


def riesz_chordal(space: Space, s: float) -> ZonalKernel:
    """sgn(s) * chi^(-s) with chi = sin(kappa theta) = sqrt((1-t)/2).

    The envelope (1-t)^{s/2} F is the constant sgn(s) 2^{s/2}.  For negative
    even s the kernel is a polynomial in t of degree -s/2.
    """
    if s == 0:
        return log_chordal(space)
    s = float(s)
    if s >= space.dim_D:
        raise ValueError(f"s={s} >= D={space.dim_D}: Riesz kernel not integrable")
    sign = _sgn(s)
    sigma = max(s, 0.0) / 2

    def eval_g(env: EvalEnv):
        # constant sgn(s) 2^{s/2}, raised in the caller's arithmetic so an
        # mpf evaluation is not stuck with a float64-rounded constant
        two = env.t * 0 + 2
        return sign * two ** (s / 2)

    def f_t(t: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return sign * ((1 - t) / 2) ** (-s / 2)

    deg = int(-s / 2) if s < 0 and (-s / 2) == int(-s / 2) else None
    return ZonalKernel(
        descriptor=f"riesz-chordal:s={_fmt(s)}",
        sing_exponent=sigma,
        log_flag=False,
        poly_degree=deg,
        eval_g=eval_g,
        f_t=f_t,
        gj_shift=s / 2,
    )


def log_geodesic(space: Space) -> ZonalKernel:
    kappa = space.kappa

    def eval_g(env: EvalEnv):
        th = env.theta
        return -(mp.log(th) if isinstance(th, mp.mpf) else math.log(th))

    def f_t(t: np.ndarray) -> np.ndarray:
        theta = np.arccos(np.clip(t, -1.0, 1.0)) / (2 * kappa)
        with np.errstate(divide="ignore"):
            return -np.log(theta)

    return ZonalKernel(
        descriptor="log-geodesic",
        sing_exponent=0.0,
        log_flag=True,
        poly_degree=None,
        eval_g=eval_g,
        f_t=f_t,
    )


def log_chordal(space: Space) -> ZonalKernel:
    def eval_g(env: EvalEnv):
        x = env.one_minus_t / 2
        return -(mp.log(x) if isinstance(x, mp.mpf) else math.log(x)) / 2

    def f_t(t: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return -np.log((1 - t) / 2) / 2

    return ZonalKernel(
        descriptor="log-chordal",
        sing_exponent=0.0,
        log_flag=True,
        poly_degree=None,
        eval_g=eval_g,
        f_t=f_t,
    )


# ---------------------------------------------------------------------------
# bounded kernels


def gaussian_kernel(space: Space, metric: str, lam: float) -> ZonalKernel:
    """exp(-lambda d^2) with d the geodesic or chordal distance."""
    lam = float(lam)
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if metric not in ("geodesic", "chordal"):
        raise ValueError(f"unknown metric {metric!r}")
    kappa = space.kappa

    if metric == "geodesic":

        def eval_g(env: EvalEnv):
            x = -lam * env.theta**2
            return mp.exp(x) if isinstance(x, mp.mpf) else math.exp(x)

        def f_t(t: np.ndarray) -> np.ndarray:
            theta = np.arccos(np.clip(t, -1.0, 1.0)) / (2 * kappa)
            return np.exp(-lam * theta**2)

    else:

        def eval_g(env: EvalEnv):
            x = -lam * env.one_minus_t / 2
            return mp.exp(x) if isinstance(x, mp.mpf) else math.exp(x)

        def f_t(t: np.ndarray) -> np.ndarray:
            return np.exp(-lam * (1 - t) / 2)

    return ZonalKernel(
        descriptor=f"gauss-{metric}:lambda={_fmt(lam)}",
        sing_exponent=0.0,
        log_flag=False,
        poly_degree=None,
        eval_g=eval_g,
        f_t=f_t,
    )


def cos_power_kernel(n: int) -> ZonalKernel:
    """cos^(2n)(kappa theta) = ((1+t)/2)^n, a polynomial kernel."""
    n = int(n)
    if n < 0:
        raise ValueError("power must be >= 0")

    def eval_g(env: EvalEnv):
        return (env.one_plus_t / 2) ** n

    def f_t(t: np.ndarray) -> np.ndarray:
        return ((1 + t) / 2) ** n

    return ZonalKernel(
        descriptor=f"cospow:n={n}",
        sing_exponent=0.0,
        log_flag=False,
        poly_degree=n,
        eval_g=eval_g,
        f_t=f_t,
    )


def jacobi_unit_kernel(params, n: int) -> ZonalKernel:
    """The pure eigenfunction kernel F = P_n^{(alpha,beta)}."""
    n = int(n)
    if n < 0:
        raise ValueError("degree must be >= 0")
    a, b = params.alpha, params.beta

    def eval_g(env: EvalEnv):
        return jacobi_eval((a, b), n, env.t)

    def f_t(t: np.ndarray) -> np.ndarray:
        return np.asarray(jacobi_eval((a, b), n, np.asarray(t, dtype=float)))

    return ZonalKernel(
        descriptor=f"jacobi:n={n}",
        sing_exponent=0.0,
        log_flag=False,
        poly_degree=n,
        eval_g=eval_g,
        f_t=f_t,
    )


# ---------------------------------------------------------------------------
# combinators


def product_kernel(k1: ZonalKernel, k2: ZonalKernel) -> ZonalKernel:
    """Pointwise product; envelope exponents add, so G = G1 * G2."""
    log_flag = k1.log_flag or k2.log_flag
    sigma = k1.sing_exponent + k2.sing_exponent
    deg = None
    if k1.poly_degree is not None and k2.poly_degree is not None:
        deg = k1.poly_degree + k2.poly_degree

    def eval_g(env: EvalEnv):
        return k1.eval_g(env) * k2.eval_g(env)

    def f_t(t: np.ndarray) -> np.ndarray:
        return k1.f_t(t) * k2.f_t(t)

    return ZonalKernel(
        descriptor=f"product({k1.descriptor},{k2.descriptor})",
        sing_exponent=sigma,
        log_flag=log_flag,
        poly_degree=deg,
        eval_g=eval_g,
        f_t=f_t,
        gj_shift=k1.gj_shift + k2.gj_shift,
    )


def linear_combination(terms: Sequence[tuple[float, ZonalKernel]]) -> ZonalKernel:
    """sum_i c_i K_i; the envelope exponent is the worst (max) of the terms."""
    if not terms:
        raise ValueError("need at least one term")
    terms = [(float(c), k) for c, k in terms]
    sigma = max(k.sing_exponent for _, k in terms)
    shift = max(k.gj_shift for _, k in terms)
    log_flag = any(k.log_flag for _, k in terms)
    degs = [k.poly_degree for _, k in terms]
    deg = max(degs) if all(d is not None for d in degs) else None

    def eval_g(env: EvalEnv):
        total = None
        for c, k in terms:
            # in the env's arithmetic, so an mpf exponent is not float64-rounded
            gap = env.t * 0 + shift - k.gj_shift
            part = c * k.eval_g(env)
            if gap > 0:
                part = part * env.one_minus_t**gap
            total = part if total is None else total + part
        return total

    def f_t(t: np.ndarray) -> np.ndarray:
        out = terms[0][0] * terms[0][1].f_t(t)
        for c, k in terms[1:]:
            out = out + c * k.f_t(t)
        return out

    desc = "+".join(f"{_fmt(c)}*{k.descriptor}" for c, k in terms)
    return ZonalKernel(
        descriptor=f"lincomb({desc})",
        sing_exponent=sigma,
        log_flag=log_flag,
        poly_degree=deg,
        eval_g=eval_g,
        f_t=f_t,
        gj_shift=shift,
    )


# ---------------------------------------------------------------------------
# descriptor grammar


_SIMPLE_RE = re.compile(r"^([a-z0-9-]+)(?::(.*))?$")


def parse_kernel(text: str, space: Space) -> ZonalKernel:
    """Parse a kernel descriptor.

    Grammar: riesz-geodesic:s=<f>, riesz-chordal:s=<f>, log-geodesic,
    log-chordal, gauss-geodesic:lambda=<f>, gauss-chordal:lambda=<f>,
    cospow:n=<i>, jacobi:n=<i>, product(<spec>,<spec>),
    lincomb(<f>*<spec>[+<f>*<spec>]...).
    """
    text = text.strip()
    if text.startswith("product(") and text.endswith(")"):
        inner = text[len("product(") : -1]
        parts = _split_top(inner, ",")
        if len(parts) != 2:
            raise ValueError(f"product needs exactly two factors: {text!r}")
        return product_kernel(parse_kernel(parts[0], space), parse_kernel(parts[1], space))
    if text.startswith("lincomb(") and text.endswith(")"):
        inner = text[len("lincomb(") : -1]
        terms = []
        for part in _split_top(inner, "+"):
            if "*" not in part:
                raise ValueError(f"lincomb term {part!r} needs <coeff>*<kernel>")
            c, spec = part.split("*", 1)
            terms.append((float(c), parse_kernel(spec, space)))
        return linear_combination(terms)

    m = _SIMPLE_RE.match(text)
    if not m:
        raise ValueError(f"unrecognized kernel descriptor {text!r}")
    name, argstr = m.group(1), m.group(2)
    args = {}
    if argstr:
        for field in argstr.split(","):
            if "=" not in field:
                raise ValueError(f"bad kernel argument {field!r}")
            k, v = field.split("=", 1)
            args[k.strip()] = v.strip()

    if name == "riesz-geodesic":
        return riesz_geodesic(space, float(args["s"]))
    if name == "riesz-chordal":
        return riesz_chordal(space, float(args["s"]))
    if name == "log-geodesic":
        return log_geodesic(space)
    if name == "log-chordal":
        return log_chordal(space)
    if name == "gauss-geodesic":
        return gaussian_kernel(space, "geodesic", float(args["lambda"]))
    if name == "gauss-chordal":
        return gaussian_kernel(space, "chordal", float(args["lambda"]))
    if name == "cospow":
        return cos_power_kernel(int(args["n"]))
    if name == "jacobi":
        return jacobi_unit_kernel(space, int(args["n"]))
    raise ValueError(f"unknown kernel name {name!r}")


def _split_top(text: str, sep: str) -> list[str]:
    """Split on sep at parenthesis depth 0, ignoring exponent signs like 1e+3."""
    parts = []
    depth = 0
    cur = []
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            if sep == "+" and i > 0 and text[i - 1] in "eE":
                cur.append(ch)
                continue
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]
