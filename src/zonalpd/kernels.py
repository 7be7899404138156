"""Zonal kernels F(t) as data.

A kernel is a function of the zonal variable t = cos(2*kappa*theta),
continuous on [-1, 1) and possibly singular at t = 1 (the diagonal).  A
`ZonalKernel` is (family, args, parts): a family of `FAMILIES` with its
arguments (and, for `jacobi`, the alpha, beta of its P_n), a `product` of
two kernels or a `lincomb` of (coefficient, kernel) terms.  The rest is read
off that data, each item by one function that dispatches on the family and
recurses on the parts:

  descriptor          the text `parse_kernel` reads back into the same data
  gj_shift            signed exponent p with (1-t)^p F(t) continuous at t = 1
  sing_exponent       max(gj_shift, 0); F is in L1 iff < alpha + 1
  log_flag            True when the diagonal singularity is logarithmic
  poly_degree         degree when F is a genuine polynomial in t, else None
  odd_up_to_constant  True when F(t) + F(-t) is constant

Evaluation comes in two flavors: `f_t` is a fast double-precision numpy
evaluator of F itself (diverges at t=1 when singular), while `eval_g` takes
a quadrature node in the angle u = kappa*theta, as the mpf triple
(u, sin u, cos u), and returns the envelope G stably, at the ambient
mpmath precision, which is what the integrators consume.  Both distances
are functions of u: the chordal one is sin u, the geodesic one u/kappa.
The half-angle forms 1-t = 2 sin(u)^2 and 1+t = 2 cos(u)^2 stay accurate
at both endpoints, because the certifying routes form cos u as
sin(pi/2 - u).  mpmath is imported by the envelopes only and numpy by the
array evaluators only, so building a kernel needs neither: an envelope
loads mpmath and converts its builder's float constants on its first call.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from .spaces import Space, parse_args, read_value

if TYPE_CHECKING:
    import numpy as np

__all__ = [
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
class ZonalKernel:
    family: str  # a name of FAMILIES, "product" or "lincomb"
    args: tuple  # the (key, value) pairs of a family, in FAMILIES order
    # takes the angle node (u, sin u, cos u) in mpf
    eval_g: Callable[[object, object, object], object]
    f_t: Callable[[np.ndarray], np.ndarray]
    # the two factors of a product, the (coefficient, kernel) terms of a lincomb
    parts: tuple = ()
    ab: tuple = ()  # the (alpha, beta) of a jacobi leaf's P_n

    @property
    def _kernels(self) -> tuple:
        return self.parts if self.family == "product" else tuple(k for _, k in self.parts)

    @cached_property
    def descriptor(self) -> str:
        """The one writer of the grammar that `parse_kernel` reads."""
        if self.family == "product":
            return "product({},{})".format(*(k.descriptor for k in self.parts))
        if self.family == "lincomb":
            terms = "+".join(f"{_fmt(c)}*{k.descriptor}" for c, k in self.parts)
            return f"lincomb({terms})"
        items = ",".join(f"{key}={_fmt(v)}" for key, v in self.args)
        return f"{self.family}:{items}" if items else self.family

    @cached_property
    def log_flag(self) -> bool:
        return self.family.startswith("log-") or any(k.log_flag for k in self._kernels)

    @cached_property
    def poly_degree(self) -> Optional[int]:
        args = dict(self.args)
        if self.family in ("cospow", "jacobi"):
            return args["n"]
        if self.family == "riesz-chordal":
            # ((1-t)/2)^(-s/2) is a polynomial for negative even s; s is
            # tested itself, since halving a subnormal s rounds it to 0
            s = args["s"]
            return int(-s) // 2 if s < 0 and s % 2 == 0 else None
        degs = [k.poly_degree for k in self._kernels]
        if not degs or None in degs:
            return None
        return sum(degs) if self.family == "product" else max(degs)

    @cached_property
    def gj_shift(self) -> float:
        """The exponent absorbed into the quadrature weights: eval_g returns
        (1-t)^gj_shift * F.  Negative when a factor (1-t)^(+p) can be pulled
        out (Riesz with s < 0), which keeps the Gauss-Jacobi residual
        analytic.  Factors add their exponents; terms take the worst."""
        if self.family == "product":
            return self.parts[0].gj_shift + self.parts[1].gj_shift
        if self.family == "lincomb":
            return max(k.gj_shift for _, k in self.parts)
        return dict(self.args)["s"] / 2 if self.family.startswith("riesz-") else 0.0

    @cached_property
    def odd_up_to_constant(self) -> bool:
        """F(t) + F(-t) is constant, so on alpha == beta spaces every even-n
        coefficient with n >= 2 vanishes identically.  Consulted only when the
        computed value sits inside its error bound, so numerics still win
        whenever they can decide a sign on their own.  theta(-t) =
        pi/(2 kappa) - theta(t), so -theta is odd up to a constant."""
        return self.family == "riesz-geodesic" and self.args == (("s", -1.0),)

    @property
    def sing_exponent(self) -> float:
        """Power of the diagonal singularity; 0 when F has none or a log."""
        return max(self.gj_shift, 0.0)

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


def _mpf_consts(cell: list, *xs: float) -> list:
    """Fill an envelope's closure cell with mpmath and the floats xs as mpf,
    exact at any precision, and return it: an envelope reads `cell or
    _mpf_consts(cell, ...)`, and threads that race fill equal values."""
    import mpmath
    from mpmath import libmp
    cell[:] = [mpmath, *(mpmath.make_mpf(libmp.from_float(float(x))) for x in xs)]
    return cell


def _fmt(v) -> str:
    """An int as an int; a float by its shortest round-trip repr, without a
    trailing ".0"."""
    if isinstance(v, int):
        return str(v)
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
    kappa, cell = space.kappa, []
    sign = 1.0 if s > 0 else -1.0

    def eval_g(u, sin_u, cos_u):
        # (1-t)^{s/2} theta^{-s} = (2 r^2)^{s/2} with r = sin(k theta)/theta;
        # valid for either sign of s
        _, kappa_m, sign_m, half_s = cell or _mpf_consts(cell, kappa, sign, s / 2)
        r = sin_u / (u / kappa_m)
        return sign_m * (2 * r * r) ** half_s

    def f_t(t: np.ndarray) -> np.ndarray:
        import numpy as np
        theta = np.arccos(np.clip(t, -1.0, 1.0)) / (2 * kappa)
        with np.errstate(divide="ignore"):
            return sign * theta ** (-s)

    return ZonalKernel("riesz-geodesic", (("s", s),), eval_g, f_t)


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
    sign = 1.0 if s > 0 else -1.0
    consts = {}

    def eval_g(u, sin_u, cos_u):
        # constant sgn(s) 2^{s/2}, raised in mpf so it is not stuck with a
        # float64-rounded value; it depends only on the working precision
        import mpmath as mp
        prec = mp.mp.prec
        if prec not in consts:
            consts[prec] = sign * mp.mpf(2) ** (s / 2)
        return consts[prec]

    def f_t(t: np.ndarray) -> np.ndarray:
        import numpy as np
        with np.errstate(divide="ignore"):
            return sign * ((1 - t) / 2) ** (-s / 2)

    return ZonalKernel("riesz-chordal", (("s", s),), eval_g, f_t)


def log_geodesic(space: Space) -> ZonalKernel:
    kappa, cell = space.kappa, []

    def eval_g(u, sin_u, cos_u):
        mp, kappa_m = cell or _mpf_consts(cell, kappa)
        return -mp.log(u / kappa_m)

    def f_t(t: np.ndarray) -> np.ndarray:
        import numpy as np
        theta = np.arccos(np.clip(t, -1.0, 1.0)) / (2 * kappa)
        with np.errstate(divide="ignore"):
            return -np.log(theta)

    return ZonalKernel("log-geodesic", (), eval_g, f_t)


def log_chordal(space: Space) -> ZonalKernel:
    def eval_g(u, sin_u, cos_u):
        import mpmath as mp
        # (1-t)/2 = sin(u)^2
        return -mp.log(sin_u * sin_u) / 2

    def f_t(t: np.ndarray) -> np.ndarray:
        import numpy as np
        with np.errstate(divide="ignore"):
            return -np.log((1 - t) / 2) / 2

    return ZonalKernel("log-chordal", (), eval_g, f_t)


# ---------------------------------------------------------------------------
# bounded kernels


def gaussian_kernel(space: Space, metric: str, lam: float) -> ZonalKernel:
    """exp(-lambda d^2) with d the geodesic or chordal distance."""
    lam = float(lam)
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if metric not in ("geodesic", "chordal"):
        raise ValueError(f"unknown metric {metric!r}")
    kappa, cell = space.kappa, []

    if metric == "geodesic":

        def eval_g(u, sin_u, cos_u):
            mp, kappa_m, neg_lam = cell or _mpf_consts(cell, kappa, -lam)
            return mp.exp(neg_lam * (u / kappa_m) ** 2)

        def f_t(t: np.ndarray) -> np.ndarray:
            import numpy as np
            theta = np.arccos(np.clip(t, -1.0, 1.0)) / (2 * kappa)
            return np.exp(-lam * theta**2)

    else:

        def eval_g(u, sin_u, cos_u):
            mp, neg_lam = cell or _mpf_consts(cell, -lam)
            return mp.exp(neg_lam * (sin_u * sin_u))

        def f_t(t: np.ndarray) -> np.ndarray:
            import numpy as np
            return np.exp(-lam * (1 - t) / 2)

    return ZonalKernel(f"gauss-{metric}", (("lambda", lam),), eval_g, f_t)


def cos_power_kernel(n: int) -> ZonalKernel:
    """cos^(2n)(kappa theta) = ((1+t)/2)^n, a polynomial kernel."""
    n = int(n)
    if n < 0:
        raise ValueError("power must be >= 0")

    def eval_g(u, sin_u, cos_u):
        # (1+t)/2 = cos(u)^2
        return (cos_u * cos_u) ** n

    def f_t(t: np.ndarray) -> np.ndarray:
        return ((1 + t) / 2) ** n

    return ZonalKernel("cospow", (("n", n),), eval_g, f_t)


def jacobi_unit_kernel(params, n: int) -> ZonalKernel:
    """The pure eigenfunction kernel F = P_n^{(alpha,beta)}."""
    n = int(n)
    if n < 0:
        raise ValueError("degree must be >= 0")
    a, b = params.alpha, params.beta

    def eval_g(u, sin_u, cos_u):
        from .jacobi import jacobi_eval
        return jacobi_eval((a, b), n, 1 - 2 * sin_u * sin_u)

    def f_t(t: np.ndarray) -> np.ndarray:
        import numpy as np
        from .jacobi import jacobi_eval
        return np.asarray(jacobi_eval((a, b), n, np.asarray(t, dtype=float)))

    return ZonalKernel("jacobi", (("n", n),), eval_g, f_t, ab=(a, b))


# ---------------------------------------------------------------------------
# combinators


def product_kernel(k1: ZonalKernel, k2: ZonalKernel) -> ZonalKernel:
    """Pointwise product; envelope exponents add, so G = G1 * G2."""
    def eval_g(u, sin_u, cos_u):
        return k1.eval_g(u, sin_u, cos_u) * k2.eval_g(u, sin_u, cos_u)

    def f_t(t: np.ndarray) -> np.ndarray:
        return k1.f_t(t) * k2.f_t(t)

    return ZonalKernel("product", (), eval_g, f_t, (k1, k2))


def linear_combination(terms: Sequence[tuple[float, ZonalKernel]]) -> ZonalKernel:
    """sum_i c_i K_i; the envelope exponent is the worst (max) of the terms."""
    if not terms:
        raise ValueError("need at least one term")
    terms = tuple((float(c), k) for c, k in terms)

    def eval_g(u, sin_u, cos_u):
        import mpmath as mp
        # in mpf, so the exponent is not float64-rounded
        shift = mp.mpf(kernel.gj_shift)
        total = None
        for c, k in terms:
            gap = shift - k.gj_shift
            part = c * k.eval_g(u, sin_u, cos_u)
            if gap > 0:
                part = part * (2 * sin_u * sin_u) ** gap
            total = part if total is None else total + part
        return total

    def f_t(t: np.ndarray) -> np.ndarray:
        out = terms[0][0] * terms[0][1].f_t(t)
        for c, k in terms[1:]:
            out = out + c * k.f_t(t)
        return out

    kernel = ZonalKernel("lincomb", (), eval_g, f_t, terms)
    return kernel


# ---------------------------------------------------------------------------
# descriptor grammar


# family name -> (argument kinds in order, builder taking the space and then
# the arguments); the CLI's --kernel help is built from this table
FAMILIES = {
    "riesz-geodesic": ({"s": float}, riesz_geodesic),
    "riesz-chordal": ({"s": float}, riesz_chordal),
    "log-geodesic": ({}, log_geodesic),
    "log-chordal": ({}, log_chordal),
    "gauss-geodesic": ({"lambda": float}, lambda sp, lam: gaussian_kernel(sp, "geodesic", lam)),
    "gauss-chordal": ({"lambda": float}, lambda sp, lam: gaussian_kernel(sp, "chordal", lam)),
    "cospow": ({"n": int}, lambda sp, n: cos_power_kernel(n)),
    "jacobi": ({"n": int}, jacobi_unit_kernel),
}


def parse_kernel(text: str, space: Space) -> ZonalKernel:
    """Parse a kernel descriptor: <family>[:<key>=<value>,...] for a family
    of FAMILIES, product(<spec>,<spec>) or lincomb(<f>*<spec>[+<f>*<spec>]...).

    Arguments are read by `spaces.parse_args`, so an unknown, repeated,
    missing or non-finite argument is refused, as is a non-finite lincomb
    coefficient.
    """
    text = text.strip()
    if text.startswith("product(") and text.endswith(")"):
        parts = _split_top(text[len("product(") : -1], ",")
        if len(parts) != 2:
            raise ValueError(f"product needs exactly two factors: {text!r}")
        return product_kernel(parse_kernel(parts[0], space), parse_kernel(parts[1], space))
    if text.startswith("lincomb(") and text.endswith(")"):
        terms = []
        for part in _split_top(text[len("lincomb(") : -1], "+"):
            if "*" not in part:
                raise ValueError(f"lincomb term {part!r} needs <coeff>*<kernel>")
            c, spec = part.split("*", 1)
            terms.append((read_value("coefficient", c.strip()), parse_kernel(spec, space)))
        return linear_combination(terms)

    name, _, argtext = text.partition(":")
    if name not in FAMILIES:
        raise ValueError(f"unrecognized kernel descriptor {text!r}")
    kinds, build = FAMILIES[name]
    args = parse_args(argtext, kinds)
    return build(space, *(args[k] for k in kinds))


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
    return [p.strip() for p in parts]
