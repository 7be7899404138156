"""Compact two-point homogeneous spaces and their distance measures.

Every space here is described by a Jacobi weight pair (alpha, beta) together
with a distance scale kappa: geodesic distances theta live in [0, pi/(2*kappa)]
and the zonal variable is t = cos(2*kappa*theta).  The catalog covers the
round spheres S^(d-1) and the projective spaces RP/CP/HP^(d-1) and OP^2;
custom (alpha, beta) pairs are accepted for weight-level computations.

Point models (unit vectors over R/C/H, projective points modulo unit scalars)
support uniform sampling and pairwise t-distances for Monte Carlo work.
OP^2 and custom spaces are zonal-only: no point model.  The point model
imports numpy where it makes or takes arrays; `Space` and `make_space` run
without it.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from math import isfinite, pi
from typing import TYPE_CHECKING, Iterable, Optional

if TYPE_CHECKING:
    import numpy as np

__all__ = ["Space", "Point", "make_space", "parse_args", "read_value", "make_rng",
           "sample_uniform_points", "distance_t_arrays", "distance_t", "save_points",
           "load_points"]

FAMILY_SPHERE = "Sphere"
FAMILY_RP = "RP"
FAMILY_CP = "CP"
FAMILY_HP = "HP"
FAMILY_OP = "OP"
FAMILY_CUSTOM = "Custom"

# field tag and real dimension of the base field for each family with a
# point model; OP^2 and custom spaces have none
_POINT_FIELD = {FAMILY_SPHERE: ("R", 1), FAMILY_RP: ("R", 1), FAMILY_CP: ("C", 2),
                FAMILY_HP: ("H", 4)}

_CLAMP_TOL = 1e-15

# Row (or pair) count of one block of array work: sampling, distances and
# the energy sums go through blocks of at most this many, so their
# temporaries stay a few MiB whatever the sample or point count.
BLOCK = 1 << 14


@dataclass(frozen=True)
class Space:
    """Parameter bundle (family, d, alpha, beta, kappa) for one space."""

    family: str
    d: int
    alpha: float
    beta: float
    kappa: float

    @property
    def dim_D(self) -> float:
        return 2 * self.alpha + 2

    @property
    def diameter(self) -> float:
        return pi / (2 * self.kappa)

    @property
    def field(self) -> Optional[str]:
        """Field tag R/C/H for spaces with a point model, else None."""
        return _POINT_FIELD.get(self.family, (None,))[0]

    @property
    def name(self) -> str:
        if self.family == FAMILY_SPHERE:
            return f"S{self.d - 1}"
        if self.family in (FAMILY_RP, FAMILY_CP, FAMILY_HP, FAMILY_OP):
            return f"{self.family}{self.d - 1}"
        return f"custom:alpha={self.alpha},beta={self.beta},kappa={self.kappa}"

    def descriptor(self) -> dict:
        return {
            "name": self.name,
            "alpha": self.alpha,
            "beta": self.beta,
            "kappa": self.kappa,
            "dim": self.dim_D,
        }


_SPEC_RE = re.compile(r"^(S|RP|CP|HP|OP)([1-9]\d*)$")

# (alpha, beta) of each catalog family as a function of d, and its kappa
_CATALOG = {
    "S": (lambda d: ((d - 3) / 2, (d - 3) / 2), 0.5),
    "RP": (lambda d: ((d - 3) / 2, -0.5), 1.0),
    "CP": (lambda d: (float(d - 2), 0.0), 1.0),
    "HP": (lambda d: (float(2 * d - 3), 1.0), 1.0),
    "OP": (lambda d: (7.0, 3.0), 1.0),
}


def make_space(spec=None, *, alpha=None, beta=None, kappa=None) -> Space:
    """Build a Space from a spec ("S2", "RP3", "custom:alpha=<a>,beta=<b>[,kappa=<k>]",
    read by `parse_args`) or from the keywords alpha, beta and kappa (default 1).
    A custom space needs finite alpha >= beta > -1 and kappa 1/2 or 1.
    """
    if spec is None:
        if alpha is None or beta is None:
            raise ValueError("need a space spec or custom alpha and beta")
        alpha, beta = float(alpha), float(beta)
        kappa = 1.0 if kappa is None else float(kappa)
        if not (isfinite(alpha) and alpha >= beta > -1):
            raise ValueError(
                f"custom space needs finite alpha >= beta > -1, got alpha={alpha}, beta={beta}"
            )
        if kappa not in (0.5, 1.0):
            raise ValueError("kappa must be 1/2 or 1")
        return Space(FAMILY_CUSTOM, 2, alpha, beta, kappa)
    if not isinstance(spec, str):
        raise ValueError(f"space spec must be a string, got {type(spec).__name__}")
    text = spec.strip()
    if text.startswith("custom:"):
        kinds = {"alpha": float, "beta": float, "kappa": float}
        return make_space(**parse_args(text[len("custom:"):], kinds, optional=("kappa",)))
    m = _SPEC_RE.match(text)
    if not m:
        raise ValueError(f"unrecognized space spec {spec!r}")
    tag, d = m.group(1), int(m.group(2)) + 1
    if tag == "OP" and d != 3:
        raise ValueError("the octonionic plane exists only for d=3 (OP2)")
    pair, kappa = _CATALOG[tag]
    return Space(FAMILY_SPHERE if tag == "S" else tag, d, *pair(d), kappa)


def parse_args(text: str, kinds: dict, optional=()) -> dict:
    """Read `key=value[,key=value]...` into {key: kinds[key](value)}.

    Keys may come in any order.  Every key of `kinds` must appear exactly
    once, except those in `optional`, which may be left out.  An unknown,
    repeated or missing key, a value that does not convert and a non-finite
    float are refused with a ValueError that names the argument.
    """
    out = {}
    for field in text.split(",") if text.strip() else ():
        key, eq, value = (part.strip() for part in field.partition("="))
        if not eq:
            raise ValueError(f"argument {field.strip()!r} is not key=value")
        if key not in kinds:
            raise ValueError(f"unknown argument {key!r} (takes {', '.join(kinds) or 'none'})")
        if key in out:
            raise ValueError(f"argument {key!r} given twice")
        out[key] = read_value(key, value, kinds[key])
    missing = [k for k in kinds if k not in out and k not in optional]
    if missing:
        raise ValueError(f"missing argument {missing[0]!r}")
    return out


def read_value(name: str, text: str, kind=float):
    """One argument value as `kind`; nan and infinities are refused."""
    try:
        v = kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"argument {name}={text} is not {what}") from None
    if not isfinite(v):
        raise ValueError(f"argument {name}={text} is not finite")
    return v


# ---------------------------------------------------------------------------
# point models


@dataclass(frozen=True)
class Point:
    """A point stored as real coordinates: d reals (sphere/RP), 2d (CP), 4d (HP).

    Complex and quaternionic coordinates are interleaved per field coordinate,
    matching the point-file layout (re0, im0, re1, im1, ...).
    """

    space: Space
    coords: np.ndarray

    def __post_init__(self):
        import numpy as np
        expected = _coords_per_point(self.space)
        c = np.asarray(self.coords, dtype=float)
        object.__setattr__(self, "coords", c)
        nrm = np.linalg.norm(c)
        if abs(nrm - 1.0) > 1e-12:
            raise ValueError(f"point norm {nrm!r} is not 1 within 1e-12")
        if c.shape != (expected,):
            raise ValueError(f"expected {expected} real coordinates, got {c.shape}")


def make_rng(seed: int, task: int = 0) -> np.random.Generator:
    """Counter-based generator; independent streams come from (seed, task)."""
    import numpy as np
    key = np.array([seed % 2**64, task % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _coords_per_point(space: Space) -> int:
    """Real coordinates per point; the one check for a point model."""
    if space.family not in _POINT_FIELD:
        raise ValueError(f"{space.name} has no point model")
    return space.d * _POINT_FIELD[space.family][1]


def sample_uniform_points(space: Space, rng: np.random.Generator, count: int) -> np.ndarray:
    """Uniform sample of `count` points, one row of real coordinates each.

    The rows come from one `rng.normal` draw in row order, so drawing
    `count` rows in consecutive calls of any sizes that add up to `count`
    gives the same array as one call; callers may draw block by block.
    """
    import numpy as np
    m = _coords_per_point(space)
    g = rng.normal(size=(count, m))
    for k in range(0, count, BLOCK):
        rows = g[k:k + BLOCK]
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return g


def _inner_abs2(space: Space, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """|<x,y>|^2 rowwise for the field inner product sum_i conj(x_i) y_i."""
    import numpy as np
    if space.family == FAMILY_RP:
        return np.einsum("ij,ij->i", X, Y) ** 2
    if space.family == FAMILY_CP:
        a1, b1 = (X.reshape(-1, space.d, 2)[..., k] for k in range(2))
        a2, b2 = (Y.reshape(-1, space.d, 2)[..., k] for k in range(2))
        # conj(x_i) y_i in real arithmetic, summed over i in order; np.abs of
        # the complex sum (not np.hypot, which rounds differently) keeps the
        # values of a complex einsum
        ip = np.empty(len(a1), dtype=complex)
        ip.real = _sum_over_i(a1 * a2 + b1 * b2)
        ip.imag = _sum_over_i(a1 * b2 - b1 * a2)
        return np.abs(ip) ** 2
    if space.family == FAMILY_HP:
        # components of sum_i conj(x_i) y_i by the Hamilton product, with the
        # conjugate's signs folded in
        a1, b1, c1, d1 = (X.reshape(-1, space.d, 4)[..., k] for k in range(4))
        a2, b2, c2, d2 = (Y.reshape(-1, space.d, 4)[..., k] for k in range(4))
        out = 0
        for part in (
            a1 * a2 + b1 * b2 + c1 * c2 + d1 * d2,
            a1 * b2 - b1 * a2 - c1 * d2 + d1 * c2,
            a1 * c2 + b1 * d2 - c1 * a2 - d1 * b2,
            a1 * d2 - b1 * c2 + c1 * b2 - d1 * a2,
        ):
            ip = _sum_over_i(part)
            out = out + ip * ip
        return out
    raise ValueError(f"{space.name} has no point model")


def _sum_over_i(part: np.ndarray) -> np.ndarray:
    """Row sums of part[:, i], added in order of i."""
    ip = part[:, 0]
    for i in range(1, part.shape[1]):
        ip = ip + part[:, i]
    return ip


def distance_t_arrays(space: Space, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """t(x_i, y_i) for paired rows of coordinates."""
    import numpy as np
    X = np.atleast_2d(X)
    Y = np.atleast_2d(Y)
    if space.family == FAMILY_SPHERE:
        t = np.einsum("ij,ij->i", X, Y)
    else:
        t = 2 * _inner_abs2(space, X, Y) - 1
    bad = np.maximum(t - 1, -1 - t)
    if np.any(bad > _CLAMP_TOL * 4):
        raise ValueError("computed t outside [-1,1] beyond clamping tolerance")
    return np.clip(t, -1.0, 1.0)


def distance_t(x: Point, y: Point) -> float:
    if x.space != y.space:
        raise ValueError("points live on different spaces")
    return float(distance_t_arrays(x.space, x.coords[None, :], y.coords[None, :])[0])


# ---------------------------------------------------------------------------
# point files: `# space=<name> field=<R|C|H> d=<int>` then one point per row


def save_points(path: str, space: Space, points: Iterable[Point] | np.ndarray) -> None:
    import numpy as np
    _coords_per_point(space)  # refuses a space without a point model
    rows = points if isinstance(points, np.ndarray) else np.array([p.coords for p in points])
    with open(path, "w") as fh:
        fh.write(f"# space={space.name} field={space.field} d={space.d}\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def load_points(path: str, space: Optional[Space] = None) -> tuple[Space, np.ndarray]:
    import numpy as np
    with open(path) as fh:
        header = fh.readline().strip()
        m = re.match(r"#\s*space=(\S+)\s+field=([RCH])\s+d=(\d+)", header)
        if not m:
            raise ValueError(f"bad point-file header {header!r}")
        file_space = make_space(m.group(1))
        if file_space.field != m.group(2) or file_space.d != int(m.group(3)):
            raise ValueError("point-file header inconsistent with its space name")
        if space is not None and space != file_space:
            raise ValueError(f"point file is for {file_space.name}, expected {space.name}")
        rows = []
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rows.append([float(v) for v in line.split(",")])
    coords = np.array(rows, dtype=float)
    expected = _coords_per_point(file_space)
    if coords.ndim != 2 or coords.shape[1] != expected:
        raise ValueError(f"expected {expected} columns for {file_space.name}")
    return file_space, coords
