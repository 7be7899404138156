"""Sign-based definiteness classification and Riesz exponent scans.

A kernel with expansion F = sum F^(n) P_n is positive definite exactly when
every coefficient is nonnegative, strictly so when they are positive, and
conditionally positive definite when the n >= 1 coefficients are nonnegative
(the constant term is irrelevant for signed measures of total mass zero).
A sign is reported only when the coefficient's interval excludes zero, but
every reported error except the derived fixed-point rounding term is an
estimate, not a proven bound, so a negative sign is as sound as that
estimate; a clean sweep of positive signs up to degree N is evidence
only, and every verdict produced here carries that finite-degree caveat.

One rule maps signs to verdicts, through `_first`: a certified negative at
n >= 1 gives "not-CPD", even beside an undecided degree, since one negative
coefficient is enough; else an undecided degree gives "undecided"; only then
do zero and positive signs decide.  Three drivers sit on top of `classify`;
`scan_riesz` and `table1` print verdicts only, so they certify on the
sign-first ladder, a 12-digit rung and then the rungs of `digits` above it:

* `scan_riesz` walks a grid of Riesz exponents, classifies each one, and
  refines the sign-change location by bisection.
* `all_spaces_check` sweeps the weight parameter alpha at fixed beta and
  certifies the kernel's coefficients at each alpha; the large-alpha limits
  of the normalized a_n = F^(n) P_n(1), which decide definiteness on the
  whole family at once, wait for exact limit coefficients (ROADMAP A).
  Its witness is the first certified negative at any n >= 0.
* `table1` runs the -log(theta) kernel over the small projective spaces and
  tabulates the first certified-negative index per space.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from .spaces import Space, make_space
from .kernels import ZonalKernel, _fmt, log_geodesic, parse_kernel, riesz_chordal, riesz_geodesic
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
        if self.mode == "pd":
            return self.classification in ("strictly-PD", "PD-not-strict")
        return self.classification not in ("not-CPD", "undecided")

    def to_json_dict(self) -> dict:
        return asdict(self)


def _caveat(N: int) -> str:
    return (
        f"signs certified for n <= {N} only; a positive verdict is "
        "finite-degree evidence, not a proof for all n"
    )


def _first(report: CoefficientReport, sign: str, n_lo: int) -> Optional[int]:
    """The first degree n >= n_lo certified with `sign`, or None."""
    return next((e.n for e in report.entries[n_lo:] if e.sign == sign), None)


def classify(report: CoefficientReport, mode: str = "cpd") -> PDVerdict:
    """Map certified coefficient signs to a definiteness class.

    mode "pd" uses all degrees including n = 0; mode "cpd" ignores n = 0.
    In order: the first certified negative at n >= 1 gives "not-CPD" with
    that witness, whatever else is undecided; then the first undecided sign
    the mode looks at gives "undecided" (a verdict, not an error); then the
    zero and positive cases.
    """
    if mode not in ("pd", "cpd"):
        raise ValueError(f"mode must be 'pd' or 'cpd', got {mode!r}")
    n_lo = 1 if mode == "cpd" else 0
    if len(report.entries) <= n_lo:
        raise ValueError("report has no entries in the range the mode uses")

    def verdict(cls, witness):
        return PDVerdict(cls, witness, report.N, mode, _caveat(report.N))

    neg = _first(report, SIGN_NEG, 1)
    if neg is not None:
        return verdict("not-CPD", neg)
    undecided = _first(report, SIGN_UNDECIDED, n_lo)
    if undecided is not None:
        return verdict("undecided", undecided)
    first_zero = _first(report, SIGN_ZERO, 1)
    tail_strict = first_zero is None

    if mode == "cpd":
        if tail_strict:
            return verdict("strictly-CPD-only", None)
        return verdict("CPD-not-strict", first_zero)

    sign0 = report.entry(0).sign
    if sign0 == SIGN_NEG:
        # constant term blocks PD but not CPD
        if tail_strict:
            return verdict("strictly-CPD-only", 0)
        return verdict("CPD-not-strict", first_zero)
    if sign0 == SIGN_POS and tail_strict:
        return verdict("strictly-PD", None)
    return verdict("PD-not-strict", 0 if sign0 == SIGN_ZERO else first_zero)


# ---------------------------------------------------------------------------
# Riesz exponent scan

SCAN_MAX_POINTS = 10_000  # a larger grid is refused before it is built


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
    report = certify_coefficients(space, kernel, N=N, target_digits=digits, signs_only=True)
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
    bisect_tol (positive and finite), a midpoint comes back undecided, or no
    double lies strictly inside the bracket.

    Grid points certify independently of each other; they are evaluated
    sequentially in grid order so repeated runs are bit-identical.
    """
    for name, v in (("s_min", s_min), ("s_max", s_max), ("step", step)):
        if not math.isfinite(v):
            raise ValueError(f"{name}={v} is not finite")
    if step <= 0:
        raise ValueError("step must be positive")
    if N < 1:  # a cpd verdict reads the degrees n >= 1
        raise ValueError(f"N must be >= 1 for a cpd verdict, got N = {N}")
    if not 0 < bisect_tol < math.inf:
        raise ValueError(f"bisection tolerance must be positive and finite, got {bisect_tol}")
    if s_max < s_min:
        raise ValueError("empty grid: s_max < s_min")
    if s_max >= space.dim_D:
        raise ValueError(
            f"s_max={s_max} is not integrable on {space.name} (needs s < D={space.dim_D})"
        )
    span = (s_max - s_min) / step + 1e-9
    if span >= SCAN_MAX_POINTS:
        raise ValueError(f"the grid has {span + 1:.4g} points, over the cap of {SCAN_MAX_POINTS}")
    grid = [round(s_min + i * step, 12) for i in range(int(span) + 1)]
    if any(a >= b for a, b in zip(grid, grid[1:])):
        raise ValueError(f"step={step} is below the grid resolution: the s values, "
                         "rounded to 12 decimals, do not strictly increase")

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
                if not lo < mid < hi:
                    note = (
                        f"bisection stopped at float resolution: no double strictly "
                        f"inside ({lo}, {hi})"
                    )
                    break
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
    """The certified coefficient report of one kernel at each swept alpha.

    A certified-negative coefficient at any alpha (the normalized a_n =
    F^(n) P_n(1) has its sign) witnesses failure of simultaneous positive
    definiteness over the family; `witness` is the first (alpha, n) in sweep
    order.  `verdict` is "not-PD-for-large-alpha" with a witness, else
    "undecided" when some sign is, else "consistent-with-all-spaces-PD".
    """

    kernel: str
    beta: float
    kappa: float
    alphas: Tuple[float, ...]
    N: int
    digits: int
    reports: Dict[float, CoefficientReport]
    verdict: str
    witness: Optional[Tuple[float, int]]

    def to_json_dict(self) -> dict:
        """Every field, each report as `CoefficientReport.to_json_dict` prints it."""
        return dict(vars(self), alphas=list(self.alphas),
                    witness=list(self.witness) if self.witness else None,
                    reports=[self.reports[al].to_json_dict() for al in self.alphas])


def all_spaces_check(
    kernel: str,
    beta: float,
    alpha_list: Sequence[float] = DEFAULT_ALPHAS,
    N: int = 16,
    *,
    kappa: float = 1.0,
    digits: int = 30,
) -> AllSpacesResult:
    """Sweep alpha at fixed beta and certify the kernel at each alpha.

    The descriptor `kernel` is parsed on each swept space, so one definition
    is compared across weights.  Integrability is checked at every alpha
    before any certification.
    """
    alphas = tuple(float(a) for a in alpha_list)
    if not alphas:
        raise ValueError("alpha_list is empty")

    spaces = [make_space(alpha=al, beta=float(beta), kappa=float(kappa)) for al in alphas]
    kernels = [parse_kernel(kernel, sp) for sp in spaces]
    for sp, ker in zip(spaces, kernels):
        ker.require_integrable(sp)

    reports = {al: certify_coefficients(sp, ker, N=N, target_digits=digits)
               for al, sp, ker in zip(alphas, spaces, kernels)}
    negs = [(al, _first(reports[al], SIGN_NEG, 0)) for al in alphas]
    witness = next(((al, n) for al, n in negs if n is not None), None)
    undecided = any(_first(reports[al], SIGN_UNDECIDED, 0) is not None for al in alphas)
    verdict = ("not-PD-for-large-alpha" if witness
               else "undecided" if undecided else "consistent-with-all-spaces-PD")
    return AllSpacesResult(kernel=kernels[0].descriptor, beta=float(beta), kappa=float(kappa),
                           alphas=alphas, N=N, digits=digits, reports=reports,
                           verdict=verdict, witness=witness)


# ---------------------------------------------------------------------------
# -log(theta) table over the small projective spaces


TABLE1_SPACES = ("RP2", "RP3", "RP4", "CP2", "CP3", "HP2", "OP2")
# the fields of a row, in the order of the tuple and of the CSV columns
TABLE1_COLUMNS = ("space", "alpha", "beta", "first_negative_n", "verdict")


@dataclass(frozen=True)
class Table1Result:
    """The rows of `table1` and, per space, the report that decided its row.
    Each report carries its own `levels["digits"]`, the rung of the
    sign-first ladder that decided it, which may differ from `digits`."""

    N: int
    digits: int
    rows: Tuple[Tuple[str, float, float, Optional[int], str], ...]
    reports: Dict[str, CoefficientReport] = field(repr=False, default_factory=dict)

    def to_csv(self) -> str:
        lines = [",".join(TABLE1_COLUMNS)]
        for name, alpha, beta, first_neg, verdict in self.rows:
            fn = "" if first_neg is None else str(first_neg)
            lines.append(f"{name},{_fmt(alpha)},{_fmt(beta)},{fn},{verdict}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {"N": self.N, "digits": self.digits,
                "rows": [dict(zip(TABLE1_COLUMNS, row)) for row in self.rows]}


def table1(N: int = 16, digits: int = 50) -> Table1Result:
    """Certify -log(theta) on the small projective spaces and tabulate signs.

    Per space the row records the cpd verdict of `classify`: "not-CPD"
    with its witness, the first index n >= 1 with a certified negative
    coefficient (the constant term is ignored: it only shifts the kernel),
    else "undecided" when an n >= 1 sign is, else "consistent-with-PD" up
    to degree N.  Each certification starts on the sign-first ladder's
    12-digit rung and climbs toward `digits` only while a sign is undecided.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1 for a cpd verdict, got N = {N}")
    rows = []
    reports: Dict[str, CoefficientReport] = {}
    for name in TABLE1_SPACES:
        sp = make_space(name)
        report = certify_coefficients(sp, log_geodesic(sp), N=N, target_digits=digits,
                                      signs_only=True)
        reports[name] = report
        v = classify(report, mode="cpd")
        verdict = v.classification
        if verdict not in ("not-CPD", "undecided"):
            verdict = "consistent-with-PD"
        rows.append((name, sp.alpha, sp.beta, v.witness if verdict == "not-CPD" else None,
                     verdict))
    return Table1Result(N=N, digits=digits, rows=tuple(rows), reports=reports)
