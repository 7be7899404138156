"""Output checks and independent oracles for the benchmark's CLI jobs.

Checks look at certified content (signs, first negative indices, brackets,
statistical agreement), never at printed digits, so a change that moves
digits for a good reason still passes.  Each check returns None when the
output is right and a one-line problem otherwise.
"""
from __future__ import annotations

import hashlib
import math
from typing import Optional

import mpmath as mp
import numpy as np


def sign_digest(doc: dict) -> str:
    """sha256 of the certified sign vector of a `coeffs` report."""
    signs = "".join(e["sign"] for e in doc["entries"])
    return hashlib.sha256(signs.encode()).hexdigest()


def check_coeffs(doc: dict, n_max: int, digest: str) -> Optional[str]:
    if doc.get("N") != n_max or len(doc.get("entries", ())) != n_max + 1:
        return f"expected {n_max + 1} coefficients"
    got = sign_digest(doc)
    if got != digest:
        return f"sign vector digest {got[:12]} differs from the pinned {digest[:12]}"
    return None


def check_table1(doc: dict, first_negative: dict) -> Optional[str]:
    rows = {r["space"]: r["first_negative_n"] for r in doc.get("rows", ())}
    if rows != first_negative:
        return f"first negative indices {rows} differ from {first_negative}"
    return None


def check_scan(doc: dict, lo: float, hi: float) -> Optional[str]:
    tr = doc.get("transition", {})
    bracket = tr.get("bracket")
    if not bracket or not (lo <= bracket[0] <= bracket[1] <= hi):
        return f"transition bracket {bracket} not inside [{lo}, {hi}]"
    if bracket[1] - bracket[0] > tr["bisect_tol"] + 1e-12:
        return f"transition bracket {bracket} wider than the bisection tolerance"
    return None


def scan_certifications(doc: dict) -> int:
    """Certifications a scan ran: one per grid point plus one per midpoint.

    Bisection halves the bracket from the grid spacing down to its final
    width, so the midpoint count is log2 of the width ratio.
    """
    tr = doc["transition"]
    grid = [g["s"] for g in doc["grid"]]
    bracket = tr.get("bracket")
    if not bracket:
        return len(grid)
    verdict = {g["s"]: g["verdict"]["classification"] for g in doc["grid"]}
    lo0 = max(s for s in grid if verdict[s] == "not-CPD")
    hi0 = min(s for s in grid if s > lo0 and verdict[s] != "undecided")
    halvings = math.log2((hi0 - lo0) / (bracket[1] - bracket[0]))
    return len(grid) + round(halvings)


def check_mc(doc: dict, z_max: float = 4.0) -> Optional[str]:
    est, se, closed = doc["energy"], doc["stderr"], doc["closed_form"]
    if not (se > 0 and abs(est - closed) <= z_max * se):
        return f"MC estimate {est} is not within {z_max} stderr ({se}) of {closed}"
    return None


# ---------------------------------------------------------------------------
# discrete energy: an independent dense double sum


def _field_inner_abs2(family: str, X: np.ndarray) -> np.ndarray:
    """|<x_i, x_j>|^2 for all pairs of rows, by plain matrix products.

    Quaternion coordinates (a, b, c, d) become the complex pair
    z1 = a + ib, z2 = c + id with q = z1 + z2 j; then
    conj(x) y = (conj(x1) y1 + x2 conj(y2)) + (conj(x1) y2 - x2 conj(y1)) j.
    """
    if family == "RP":
        return (X @ X.T) ** 2
    if family == "CP":
        Z = X[:, 0::2] + 1j * X[:, 1::2]
        return np.abs(Z.conj() @ Z.T) ** 2
    if family == "HP":
        Z1 = X[:, 0::4] + 1j * X[:, 1::4]
        Z2 = X[:, 2::4] + 1j * X[:, 3::4]
        G1 = Z1.conj() @ Z1.T + Z2 @ Z2.conj().T
        G2 = Z1.conj() @ Z2.T - Z2 @ Z1.conj().T
        return np.abs(G1) ** 2 + np.abs(G2) ** 2
    raise ValueError(f"no reference distance for {family}")


KERNELS = {
    "gauss-chordal:lambda=1": lambda t, kappa: np.exp(-(1 - t) / 2),
    "riesz-chordal:s=1": lambda t, kappa: ((1 - t) / 2) ** -0.5,
    "log-geodesic": lambda t, kappa: -np.log(np.arccos(t) / (2 * kappa)),
}


def reference_discrete_energy(path: str, family: str, kernel: str, kappa: float) -> float:
    """Off-diagonal uniform-weight energy of a point file, summed densely."""
    X = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    n = len(X)
    t = np.clip(2 * _field_inner_abs2(family, X) - 1, -1.0, 1.0)
    off = ~np.eye(n, dtype=bool)
    return math.fsum(KERNELS[kernel](t[off], kappa).tolist()) / (n * n)


def check_discrete(doc: dict, reference: float, rel: float = 1e-9) -> Optional[str]:
    got = doc["energy"]
    if not abs(got - reference) <= rel * abs(reference):
        return f"discrete energy {got} differs from the dense sum {reference} beyond {rel:g}"
    return None


# ---------------------------------------------------------------------------
# closed-form oracle for riesz-chordal coefficients


def riesz_chordal_exact(alpha, beta, s, n: int):
    """Exact n-th coefficient of sgn(s) chi^(-s) at the ambient precision.

    With rho = alpha - s/2,
      int (1-t)^rho (1+t)^beta P_n dt
        = 2^(rho+beta+1) G(rho+1) G(beta+n+1) (alpha-rho)_n / (n! G(rho+beta+n+2)),
    and the coefficient is (m_n / P_n(1)^2) sgn(s) 2^(s/2) times that over
    Z = 2^(alpha+beta+1) B(alpha+1, beta+1).  Arguments are exact mpf.
    """
    a, b = alpha, beta
    rho = a - s / 2
    integral = (
        mp.power(2, rho + b + 1) * mp.gamma(rho + 1) * mp.gamma(b + n + 1)
        * mp.rf(a - rho, n) / (mp.factorial(n) * mp.gamma(rho + b + n + 2))
    )
    Z = mp.power(2, a + b + 1) * mp.beta(a + 1, b + 1)
    p1 = mp.rf(a + 1, n) / mp.factorial(n)
    if n == 0:
        m_n = mp.mpf(1)
    else:
        m_n = ((2 * n + a + b + 1) * mp.rf(a + b + 1, n) * mp.rf(a + 1, n)
               / ((a + b + 1) * mp.factorial(n) * mp.rf(b + 1, n)))
    return m_n / (p1 * p1) * mp.sign(s) * mp.power(2, s / 2) * integral / Z


def interval_misses(doc: dict, alpha: float, beta: float, s: float, digits: int) -> int:
    """Reported intervals value +- error that exclude the exact coefficient.

    The exponent is the binary double the CLI parsed, taken exactly.
    """
    misses = 0
    with mp.workdps(digits + 30):
        a, b, sm = mp.mpf(alpha), mp.mpf(beta), mp.mpf(s)
        for e in doc["entries"]:
            exact = riesz_chordal_exact(a, b, sm, int(e["n"]))
            if abs(mp.mpf(e["value"]) - exact) > mp.mpf(e["error"]):
                misses += 1
    return misses
