"""Sign-based definiteness classification and Riesz exponent scans.

A kernel with expansion F = sum F^(n) P_n is positive definite exactly when
every coefficient is nonnegative, strictly so when they are positive, and
conditionally positive definite when the n >= 1 coefficients are nonnegative
(the constant term is irrelevant for signed measures of total mass zero).
Numerics can certify a negative coefficient rigorously, but a clean sweep of
positive signs up to degree N is evidence only; every verdict produced here
carries that finite-degree caveat.

Three drivers sit on top of `classify`:

* `scan_riesz` walks a grid of Riesz exponents, classifies each one, and
  refines the sign-change location by bisection.
* `all_spaces_check` sweeps the weight parameter alpha at fixed beta and
  watches the normalized coefficients a_n = F^(n) P_n(1), whose large-alpha
  limits decide definiteness simultaneously on the whole family of spaces.
* `table1` runs the -log(theta) kernel over the small projective spaces and
  tabulates the first certified-negative index per space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

from .spaces import Space, make_space
from .jacobi import JacobiParams, jacobi_value_at_one
from .kernels import ZonalKernel, _fmt, riesz_chordal, riesz_geodesic, log_geodesic
from .transform import (
    SIGN_NEG,
    SIGN_POS,
    SIGN_UNDECIDED,
    SIGN_ZERO,
    CoefficientReport,
    certify_coefficients,
)

__all__ = [
    "PDVerdict",
    "ScanResult",
    "AllSpacesResult",
    "Table1Result",
    "classify",
    "scan_riesz",
    "all_spaces_check",
    "table1",
    "TABLE1_SPACES",
]

CLASSIFICATIONS = (
    "strictly-PD",
    "PD-not-strict",
    "strictly-CPD-only",
    "CPD-not-strict",
    "not-CPD",
    "undecided",
)


@dataclass(frozen=True)
class PDVerdict:
    """Outcome of a sign-based definiteness check, valid up to degree N only."""

    classification: str
    witness: Optional[int]
    N_checked: int
    mode: str
    caveat: str

    def __post_init__(self):
        if self.classification not in CLASSIFICATIONS:
            raise ValueError(f"unknown classification {self.classification!r}")

    @property
    def is_nonnegative(self) -> bool:
        """True when every coefficient used by the mode is certified >= 0."""
        return self.classification in (
            "strictly-PD",
            "PD-not-strict",
            "strictly-CPD-only",
            "CPD-not-strict",
        )

    def to_json_dict(self) -> dict:
        return {
            "classification": self.classification,
            "witness": self.witness,
            "N_checked": self.N_checked,
            "mode": self.mode,
            "caveat": self.caveat,
        }


def _caveat(N: int) -> str:
    return (
        f"signs certified for n <= {N} only; a positive verdict is "
        "finite-degree evidence, not a proof for all n"
    )


def classify(report: CoefficientReport, mode: str = "cpd") -> PDVerdict:
    """Map certified coefficient signs to a definiteness class.

    mode "pd" uses all degrees including n = 0; mode "cpd" ignores n = 0.
    An undecided sign among the degrees the mode looks at yields the
    verdict "undecided" with the offending index as witness; it is a
    verdict, not an error.
    """
    if mode not in ("pd", "cpd"):
        raise ValueError(f"mode must be 'pd' or 'cpd', got {mode!r}")
    entries = sorted(report.entries, key=lambda e: e.n)
    n_lo = 1 if mode == "cpd" else 0
    used = [e for e in entries if e.n >= n_lo]
    if not used:
        raise ValueError("report has no entries in the range the mode uses")

    def verdict(cls, witness):
        return PDVerdict(cls, witness, report.N, mode, _caveat(report.N))

    for e in used:
        if e.sign == SIGN_UNDECIDED:
            return verdict("undecided", e.n)

    tail = [e for e in used if e.n >= 1]
    neg = next((e for e in tail if e.sign == SIGN_NEG), None)
    if neg is not None:
        return verdict("not-CPD", neg.n)
    first_zero = next((e.n for e in tail if e.sign == SIGN_ZERO), None)
    tail_strict = first_zero is None

    if mode == "cpd":
        if tail_strict:
            return verdict("strictly-CPD-only", None)
        return verdict("CPD-not-strict", first_zero)

    e0 = next(e for e in used if e.n == 0)
    if e0.sign == SIGN_NEG:
        # constant term blocks PD but not CPD
        if tail_strict:
            return verdict("strictly-CPD-only", 0)
        return verdict("CPD-not-strict", first_zero)
    if e0.sign == SIGN_POS and tail_strict:
        return verdict("strictly-PD", None)
    return verdict("PD-not-strict", 0 if e0.sign == SIGN_ZERO else first_zero)


def _first_negative(report: CoefficientReport) -> Optional[int]:
    for e in sorted(report.entries, key=lambda e: e.n):
        if e.n >= 1 and e.sign == SIGN_NEG:
            return e.n
    return None


# ---------------------------------------------------------------------------
# Riesz exponent scan


@dataclass(frozen=True)
class ScanResult:
    """Per-exponent verdicts on a grid plus a bisected transition bracket.

    Grid verdicts are recorded exactly as certified; monotonicity along the
    grid is an empirical observation, never an assumption.  The transition
    estimate is the largest exponent certified not-CPD after refinement, and
    `bracket` pairs it with the smallest exponent above it whose n >= 1
    coefficients all came out nonnegative.  Both refer to the truncated
    expansion: they depend on N and the result says so.
    """

    space_name: str
    metric: str
    N: int
    digits: int
    s_values: Tuple[float, ...]
    verdicts: Tuple[PDVerdict, ...]
    first_negatives: Tuple[Optional[int], ...]
    transition_estimate: Optional[float]
    bracket: Optional[Tuple[float, float]]
    bisect_tol: float
    note: str = ""

    @property
    def cpd_onset(self) -> Optional[float]:
        """Smallest exponent certified all-nonnegative above the last failure.

        This is the bound a coarse scan quotes for the transition ("CPD holds
        from here on, up to degree N"); the truncated flip itself lies inside
        `bracket`, and grows toward its N -> infinity limit from below as N
        increases.
        """
        return self.bracket[1] if self.bracket else None

    def to_json_dict(self) -> dict:
        return {
            "space": self.space_name,
            "metric": self.metric,
            "N": self.N,
            "digits": self.digits,
            "grid": [
                {
                    "s": s,
                    "verdict": v.to_json_dict(),
                    "first_negative_n": fn,
                }
                for s, v, fn in zip(self.s_values, self.verdicts, self.first_negatives)
            ],
            "transition": {
                "estimate": self.transition_estimate,
                "bracket": list(self.bracket) if self.bracket else None,
                "bisect_tol": self.bisect_tol,
                "depends_on_N": self.N,
                "note": self.note,
            },
        }

    def to_csv(self) -> str:
        lines = ["s,verdict,first_negative_n"]
        for s, v, fn in zip(self.s_values, self.verdicts, self.first_negatives):
            lines.append(f"{_fmt(s)},{v.classification},{'' if fn is None else fn}")
        return "\n".join(lines) + "\n"


def _riesz_kernel(space: Space, metric: str, s: float) -> ZonalKernel:
    if metric == "geodesic":
        return riesz_geodesic(space, s)
    if metric == "chordal":
        return riesz_chordal(space, s)
    raise ValueError(f"metric must be 'geodesic' or 'chordal', got {metric!r}")


def _certify_cpd(space: Space, metric: str, s: float, N: int, digits: int) -> PDVerdict:
    kernel = _riesz_kernel(space, metric, s)
    report = certify_coefficients(space, kernel, N=N, target_digits=digits)
    return classify(report, mode="cpd")


def scan_riesz(
    space: Space,
    metric: str,
    s_min: float,
    s_max: float,
    step: float,
    N: int = 48,
    bisect_tol: float = 0.02,
    *,
    digits: int = 30,
) -> ScanResult:
    """Classify Riesz kernels on an exponent grid and bisect the transition.

    Exponents below the transition give a certified negative coefficient
    (not-CPD); above it the truncated expansion is nonnegative.  Bisection
    refines the bracket between the largest not-CPD grid point and the
    smallest nonnegative point above it until its width is at most
    bisect_tol or a midpoint comes back undecided.

    Grid points certify independently of each other; they are evaluated
    sequentially in grid order so repeated runs are bit-identical.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if s_max < s_min:
        raise ValueError("empty grid: s_max < s_min")
    if s_max >= space.dim_D:
        raise ValueError(
            f"s_max={s_max} is not integrable on {space.name} (needs s < D={space.dim_D})"
        )
    count = int(math.floor((s_max - s_min) / step + 1e-9)) + 1
    grid = [round(s_min + i * step, 12) for i in range(count)]

    verdicts = [_certify_cpd(space, metric, s, N, digits) for s in grid]

    if all(v.classification == "undecided" for v in verdicts):
        raise ValueError(
            "every grid point came back undecided at the precision cap; "
            "raise digits or lower N"
        )

    first_negs = [v.witness if v.classification == "not-CPD" else None for v in verdicts]
    neg_ss = [s for s, v in zip(grid, verdicts) if v.classification == "not-CPD"]
    note, transition, bracket = "", None, None
    if neg_ss:
        lo = max(neg_ss)
        ok_above = [s for s, v in zip(grid, verdicts) if v.is_nonnegative and s > lo]
        if ok_above:
            hi = min(ok_above)
            # midpoints of (lo, hi): lo stays certified not-CPD, hi nonnegative
            while hi - lo > bisect_tol:
                mid = 0.5 * (lo + hi)
                v = _certify_cpd(space, metric, mid, N, digits)
                if v.classification == "not-CPD":
                    lo = mid
                elif v.is_nonnegative:
                    hi = mid
                else:
                    note = (
                        f"bisection stopped at undecided midpoint s={mid}; "
                        f"bracket width {hi - lo}"
                    )
                    break
            transition = lo
            bracket = (lo, hi)
        else:
            note = "no nonnegative grid point above the last not-CPD exponent"
            transition = max(neg_ss)
    else:
        note = "no not-CPD exponent on the grid"

    return ScanResult(
        space_name=space.name,
        metric=metric,
        N=N,
        digits=digits,
        s_values=tuple(grid),
        verdicts=tuple(verdicts),
        first_negatives=tuple(first_negs),
        transition_estimate=transition,
        bracket=bracket,
        bisect_tol=bisect_tol,
        note=note,
    )


# ---------------------------------------------------------------------------
# alpha sweep at fixed beta


DEFAULT_ALPHAS = (2.0, 4.0, 8.0, 16.0, 32.0)


@dataclass(frozen=True)
class AllSpacesResult:
    """Normalized coefficients a_n = F^(n) P_n(1) across an alpha sweep.

    The limit estimates use one Richardson step on the last two alphas of a
    geometric list (error ~ 1/alpha, so the doubled point cancels the
    leading term: b_n = 2 a_last - a_prev).  A single certified-negative a_n
    at any swept alpha witnesses failure of simultaneous positive
    definiteness over the family.
    """

    kernel: str
    beta: float
    kappa: float
    alphas: Tuple[float, ...]
    N: int
    digits: int
    # values[alpha][n], errors[alpha][n], signs[alpha][n]
    values: Dict[float, Tuple[float, ...]]
    errors: Dict[float, Tuple[float, ...]]
    signs: Dict[float, Tuple[str, ...]]
    limits: Tuple[Optional[float], ...]
    verdict: str
    witness: Optional[Tuple[float, int]]

    def to_json_dict(self) -> dict:
        return {
            "kernel": self.kernel,
            "beta": self.beta,
            "kappa": self.kappa,
            "alphas": list(self.alphas),
            "N": self.N,
            "digits": self.digits,
            "a_n": {
                _fmt(al): [
                    {"n": n, "value": v, "error": e, "sign": s}
                    for n, (v, e, s) in enumerate(
                        zip(self.values[al], self.errors[al], self.signs[al])
                    )
                ]
                for al in self.alphas
            },
            "limit_estimates": list(self.limits),
            "verdict": self.verdict,
            "witness": list(self.witness) if self.witness else None,
        }


def all_spaces_check(
    kernel_factory: Callable[[Space], ZonalKernel],
    beta: float,
    alpha_list: Sequence[float] = DEFAULT_ALPHAS,
    N: int = 16,
    *,
    kappa: float = 1.0,
    digits: int = 30,
) -> AllSpacesResult:
    """Sweep alpha at fixed beta and certify the normalized coefficients.

    `kernel_factory` builds the kernel for each synthetic space in the
    sweep, so the same kernel definition (same exponent, same metric) is
    compared across weights.  Raises if the kernel fails integrability at
    the smallest alpha.
    """
    alphas = tuple(float(a) for a in alpha_list)
    if not alphas:
        raise ValueError("alpha_list is empty")

    spaces = [
        make_space(alpha=al, beta=float(beta), kappa=float(kappa)) for al in alphas
    ]
    kernels = [kernel_factory(sp) for sp in spaces]
    for sp, ker in zip(spaces, kernels):
        ker.require_integrable(sp)

    values: Dict[float, Tuple[float, ...]] = {}
    errors: Dict[float, Tuple[float, ...]] = {}
    signs: Dict[float, Tuple[str, ...]] = {}
    witness = None
    descriptor = kernels[0].descriptor
    for al, sp, ker in zip(alphas, spaces, kernels):
        report = certify_coefficients(sp, ker, N=N, target_digits=digits)
        params = JacobiParams(sp.alpha, sp.beta)
        vs, es, ss = [], [], []
        for e in report.entries:
            p1 = jacobi_value_at_one(params, e.n)
            vs.append(float(e.value) * p1)
            es.append(float(e.error) * p1)
            ss.append(e.sign)
            if e.sign == SIGN_NEG and witness is None:
                witness = (al, e.n)
        values[al] = tuple(vs)
        errors[al] = tuple(es)
        signs[al] = tuple(ss)

    limits = [None] * (N + 1)
    if len(alphas) >= 2:
        limits = [2.0 * last - prev for prev, last in zip(*(values[al] for al in alphas[-2:]))]

    verdict = "not-PD-for-large-alpha" if witness else "consistent-with-all-spaces-PD"
    return AllSpacesResult(
        kernel=descriptor,
        beta=float(beta),
        kappa=float(kappa),
        alphas=alphas,
        N=N,
        digits=digits,
        values=values,
        errors=errors,
        signs=signs,
        limits=tuple(limits),
        verdict=verdict,
        witness=witness,
    )


# ---------------------------------------------------------------------------
# -log(theta) table over the small projective spaces


TABLE1_SPACES = ("RP2", "RP3", "RP4", "CP2", "CP3", "HP2", "OP2")


@dataclass(frozen=True)
class Table1Result:
    N: int
    digits: int
    rows: Tuple[Tuple[str, float, float, Optional[int], str], ...]
    reports: Dict[str, CoefficientReport] = field(repr=False, default_factory=dict)

    def to_csv(self) -> str:
        lines = ["space,alpha,beta,first_negative_n,verdict"]
        for name, alpha, beta, first_neg, verdict in self.rows:
            fn = "" if first_neg is None else str(first_neg)
            lines.append(f"{name},{_fmt(alpha)},{_fmt(beta)},{fn},{verdict}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "N": self.N,
            "digits": self.digits,
            "rows": [
                {
                    "space": name,
                    "alpha": alpha,
                    "beta": beta,
                    "first_negative_n": first_neg,
                    "verdict": verdict,
                }
                for name, alpha, beta, first_neg, verdict in self.rows
            ],
        }

    def row(self, space_name: str) -> Tuple[str, float, float, Optional[int], str]:
        for r in self.rows:
            if r[0] == space_name:
                return r
        raise KeyError(space_name)


def table1(N: int = 16, digits: int = 50) -> Table1Result:
    """Certify -log(theta) on the small projective spaces and tabulate signs.

    Per space the row records the first index n >= 1 with a certified
    negative coefficient (the constant term is ignored: it only shifts the
    kernel).  Verdict "not-CPD" when such an index exists, otherwise
    "consistent-with-PD" up to degree N.  Precision escalates inside the
    certification ladder if signs come back undecided.
    """
    rows = []
    reports: Dict[str, CoefficientReport] = {}
    for name in TABLE1_SPACES:
        sp = make_space(name)
        report = certify_coefficients(sp, log_geodesic(sp), N=N, target_digits=digits)
        reports[name] = report
        first_neg = _first_negative(report)
        v = classify(report, mode="cpd")
        if v.classification == "not-CPD":
            verdict = "not-CPD"
        elif v.classification == "undecided":
            verdict = "undecided"
        else:
            verdict = "consistent-with-PD"
        rows.append((name, sp.alpha, sp.beta, first_neg, verdict))
    return Table1Result(N=N, digits=digits, rows=tuple(rows), reports=reports)
