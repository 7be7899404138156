"""Compact two-point homogeneous spaces and their distance measures.

Every space here is described by a Jacobi weight pair (alpha, beta) together
with a distance scale kappa: geodesic distances theta live in [0, pi/(2*kappa)]
and the zonal variable is t = cos(2*kappa*theta).  The catalog covers the
round spheres S^(d-1) and the projective spaces RP/CP/HP^(d-1) and OP^2;
custom (alpha, beta) pairs are accepted for weight-level computations.

Point models (unit vectors over R/C/H, projective points modulo unit scalars)
support uniform sampling and pairwise t-distances for Monte Carlo work.
OP^2 and custom spaces are zonal-only: no point model.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from math import pi
from typing import Iterable, Optional

import numpy as np

FAMILY_SPHERE = "Sphere"
FAMILY_RP = "RP"
FAMILY_CP = "CP"
FAMILY_HP = "HP"
FAMILY_OP = "OP"
FAMILY_CUSTOM = "Custom"

# real dimension of the base field for each projective family
_FIELD_DIM = {FAMILY_RP: 1, FAMILY_CP: 2, FAMILY_HP: 4, FAMILY_OP: 8}
_FIELD_TAG = {FAMILY_SPHERE: "R", FAMILY_RP: "R", FAMILY_CP: "C", FAMILY_HP: "H"}

_CLAMP_TOL = 1e-15


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
        return _FIELD_TAG.get(self.family)

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


_SPEC_RE = re.compile(r"^(S|RP|CP|HP|OP)(\d+)$")


def make_space(spec=None, *, family=None, d=None, alpha=None, beta=None, kappa=None) -> Space:
    """Build a Space from a spec string ("S2", "RP3", "custom:alpha=..,beta=..[,kappa=..]")
    or from explicit keyword parameters; a custom kappa defaults to 1.
    """
    if spec is not None:
        if not isinstance(spec, str):
            raise ValueError(f"space spec must be a string, got {type(spec).__name__}")
        text = spec.strip()
        if text.startswith("custom:"):
            params = _parse_kv(text[len("custom:"):])
            missing = {"alpha", "beta"} - params.keys()
            if missing:
                raise ValueError(f"custom space spec missing {sorted(missing)}")
            return make_space(alpha=params["alpha"], beta=params["beta"], kappa=params.get("kappa"))
        m = _SPEC_RE.match(text)
        if not m:
            raise ValueError(f"unrecognized space spec {spec!r}")
        tag, k = m.group(1), int(m.group(2))
        family = FAMILY_SPHERE if tag == "S" else tag
        return make_space(family=family, d=k + 1)

    if family is None:
        if alpha is None or beta is None:
            raise ValueError("need a family name or custom (alpha, beta, kappa)")
        family = FAMILY_CUSTOM

    if family == FAMILY_CUSTOM:
        alpha = float(alpha)
        beta = float(beta)
        kappa = 1.0 if kappa is None else float(kappa)
        if alpha <= -1 or beta <= -1:
            raise ValueError("custom space needs alpha > -1 and beta > -1")
        if alpha < beta:
            raise ValueError("custom space needs alpha >= beta")
        if kappa not in (0.5, 1.0):
            raise ValueError("kappa must be 1/2 or 1")
        return Space(FAMILY_CUSTOM, 2, alpha, beta, kappa)

    if d is None or d < 2:
        raise ValueError(f"family {family!r} needs integer d >= 2")
    d = int(d)
    if family == FAMILY_SPHERE:
        a = (d - 3) / 2
        return Space(family, d, a, a, 0.5)
    if family == FAMILY_RP:
        return Space(family, d, (d - 3) / 2, -0.5, 1.0)
    if family == FAMILY_CP:
        return Space(family, d, float(d - 2), 0.0, 1.0)
    if family == FAMILY_HP:
        return Space(family, d, float(2 * (d - 1) - 1), 1.0, 1.0)
    if family == FAMILY_OP:
        if d != 3:
            raise ValueError("the octonionic plane exists only for d=3 (OP2)")
        return Space(family, 3, 7.0, 3.0, 1.0)
    raise ValueError(f"unknown family {family!r}")


def _parse_kv(text: str) -> dict:
    out = {}
    for part in text.split(","):
        if "=" not in part:
            raise ValueError(f"bad key=value field {part!r}")
        k, v = part.split("=", 1)
        out[k.strip()] = float(v)
    return out


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
        if self.space.field is None:
            raise ValueError(f"{self.space.name} has no point model")
        c = np.asarray(self.coords, dtype=float)
        object.__setattr__(self, "coords", c)
        nrm = np.linalg.norm(c)
        if abs(nrm - 1.0) > 1e-12:
            raise ValueError(f"point norm {nrm!r} is not 1 within 1e-12")
        expected = _coords_per_point(self.space)
        if c.shape != (expected,):
            raise ValueError(f"expected {expected} real coordinates, got {c.shape}")


def make_rng(seed: int, task: int = 0) -> np.random.Generator:
    """Counter-based generator; independent streams come from (seed, task)."""
    key = np.array([seed % 2**64, task % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _coords_per_point(space: Space) -> int:
    if space.family == FAMILY_SPHERE:
        return space.d
    if space.family in _FIELD_DIM:
        return space.d * _FIELD_DIM[space.family]
    raise ValueError(f"{space.name} has no point model")


def sample_uniform_points(space: Space, rng: np.random.Generator, count: int) -> np.ndarray:
    """Uniform sample of `count` points, one row of real coordinates each."""
    if space.family not in (FAMILY_SPHERE, FAMILY_RP, FAMILY_CP, FAMILY_HP):
        raise ValueError(f"uniform sampling unsupported on {space.name}")
    m = _coords_per_point(space)
    g = rng.normal(size=(count, m))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return g


def _as_complex(coords: np.ndarray, d: int) -> np.ndarray:
    c = coords.reshape(-1, d, 2)
    return c[..., 0] + 1j * c[..., 1]


def _inner_abs2(space: Space, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """|<x,y>|^2 rowwise for the field inner product sum_i conj(x_i) y_i."""
    if space.family == FAMILY_RP:
        return np.einsum("ij,ij->i", X, Y) ** 2
    if space.family == FAMILY_CP:
        xc = _as_complex(X, space.d)
        yc = _as_complex(Y, space.d)
        ip = np.einsum("ij,ij->i", xc.conj(), yc)
        return np.abs(ip) ** 2
    if space.family == FAMILY_HP:
        # components of sum_i conj(x_i) y_i by the Hamilton product, with the
        # conjugate's signs folded in; summed over i in order
        a1, b1, c1, d1 = (X.reshape(-1, space.d, 4)[..., k] for k in range(4))
        a2, b2, c2, d2 = (Y.reshape(-1, space.d, 4)[..., k] for k in range(4))
        out = 0
        for part in (
            a1 * a2 + b1 * b2 + c1 * c2 + d1 * d2,
            a1 * b2 - b1 * a2 - c1 * d2 + d1 * c2,
            a1 * c2 + b1 * d2 - c1 * a2 - d1 * b2,
            a1 * d2 - b1 * c2 + c1 * b2 - d1 * a2,
        ):
            ip = part[:, 0]
            for i in range(1, space.d):
                ip = ip + part[:, i]
            out = out + ip * ip
        return out
    raise ValueError(f"{space.name} has no point model")


def distance_t_arrays(space: Space, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """t(x_i, y_i) for paired rows of coordinates."""
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
    if space.field is None:
        raise ValueError(f"{space.name} has no point model")
    rows = points if isinstance(points, np.ndarray) else np.array([p.coords for p in points])
    with open(path, "w") as fh:
        fh.write(f"# space={space.name} field={space.field} d={space.d}\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def load_points(path: str, space: Optional[Space] = None) -> tuple[Space, np.ndarray]:
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
