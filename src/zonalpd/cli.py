"""Command-line front end.

Subcommands: coeffs, classify, scan, table1, energy, poisson.  Every output
embeds the run configuration and the tool version; JSON output is
byte-identical for identical (config, seed, version) regardless of thread
count, so runs can be diffed.  Exit codes: 0 success, 1 usage or domain
error, 2 at least one sign undecided at the requested precision (so
pipelines can tell "inconclusive" from "wrong").
"""

from __future__ import annotations

import json
import os
import re
import sys
from typing import List, Optional, Tuple

import argparse

from . import __version__
from .spaces import Point, make_space, load_points
from .kernels import parse_kernel
from .transform import (
    SIGN_UNDECIDED,
    CoefficientReport,
    certify_coefficients,
    coefficients_de,
    coefficients_gj,
    poisson_kernel,
)
from .posdef import classify, scan_riesz, table1
from .energy import (
    DiscreteMeasure,
    PerturbedMeasureSpec,
    energy_discrete,
    energy_perturbed,
    energy_uniform_detail,
)

DIGITS_ENV = "ZONALPD_DEFAULT_DIGITS"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; here 2 means "undecided",
    # so route usage problems through an exception and exit 1 instead
    def error(self, message):
        raise _UsageError(message)


def _default_digits(fallback: int) -> int:
    raw = os.environ.get(DIGITS_ENV)
    if raw is None:
        return fallback
    try:
        v = int(raw)
    except ValueError:
        raise _UsageError(f"{DIGITS_ENV} must be an integer, got {raw!r}")
    if v < 5 or v > 200:
        raise _UsageError(f"{DIGITS_ENV} out of range [5, 200]: {v}")
    return v


def _seed_type(text: str) -> int:
    v = int(text)
    if v < 0 or v >= 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit int")
    return v


def _perturb_type(text: str) -> Tuple[int, float]:
    m = re.fullmatch(r"n=(\d+),eps=([0-9.eE+-]+)", text.strip())
    if not m:
        raise argparse.ArgumentTypeError(
            "perturbation must look like n=<int>,eps=<float>"
        )
    return int(m.group(1)), float(m.group(2))


def _add_common(p: _Parser, digits_default: int) -> None:
    p.add_argument("--digits", type=int, default=None,
                   help=f"decimal digits of working precision "
                        f"(default {digits_default}, env {DIGITS_ENV})")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="output format")
    p.add_argument("--out", default=None, help="write output to this path")
    p.add_argument("--verify", action="store_true",
                   help="re-parse the produced output against its schema")
    p.add_argument("--threads", type=int, default=1,
                   help="worker threads for Monte Carlo batches; "
                        "certifications always run sequentially, so results "
                        "do not depend on this")
    p.set_defaults(_digits_default=digits_default)


def _build_parser() -> _Parser:
    top = _Parser(prog="zonalpd",
                  description="Expansion coefficients, definiteness "
                              "certificates, and energies of zonal kernels "
                              "on compact two-point homogeneous spaces.")
    top.add_argument("--version", action="version", version=f"zonalpd {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    space_help = "S<k> | RP<k> | CP<k> | HP<k> | OP2 | custom:alpha=<f>,beta=<f>[,kappa=<0.5|1>]"
    kernel_help = ("riesz-geodesic:s=<f> | riesz-chordal:s=<f> | log-geodesic | "
                   "log-chordal | gauss-geodesic:lambda=<f> | gauss-chordal:lambda=<f> | "
                   "cospow:n=<i> | jacobi:n=<i> | product(k1,k2) | lincomb(c1*k1+c2*k2)")

    p = sub.add_parser("coeffs", help="expansion coefficients with certified signs")
    p.add_argument("--space", required=True, help=space_help)
    p.add_argument("--kernel", required=True, help=kernel_help)
    p.add_argument("--nmax", type=int, default=32)
    p.add_argument("--method", choices=("de", "gj", "both"), default="both",
                   help="quadrature pipeline; 'both' cross-checks and "
                        "combines error bounds")
    _add_common(p, 50)

    p = sub.add_parser("classify", help="definiteness verdict from certified signs")
    p.add_argument("--space", required=True, help=space_help)
    p.add_argument("--kernel", required=True, help=kernel_help)
    p.add_argument("--nmax", type=int, default=32)
    p.add_argument("--mode", choices=("pd", "cpd"), default="cpd")
    _add_common(p, 50)

    p = sub.add_parser("scan", help="Riesz exponent scan with transition bisection")
    p.add_argument("--space", required=True, help=space_help)
    p.add_argument("--kernel", required=True,
                   help="riesz-geodesic or riesz-chordal (exponent comes from the grid)")
    p.add_argument("--s-min", type=float, required=True, dest="s_min")
    p.add_argument("--s-max", type=float, required=True, dest="s_max")
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--bisect", type=float, default=0.02,
                   help="bisection tolerance for the transition bracket")
    p.add_argument("--nmax", type=int, default=48)
    _add_common(p, 30)

    p = sub.add_parser("table1", help="-log(theta) verdicts on the small projective spaces")
    p.add_argument("--nmax", type=int, default=16)
    _add_common(p, 50)

    p = sub.add_parser("energy", help="uniform, discrete, or perturbed-measure energy")
    p.add_argument("--space", required=True, help=space_help)
    p.add_argument("--kernel", required=True, help=kernel_help)
    p.add_argument("--points", default=None,
                   help="point file (as written by the point saver); "
                        "switches to the discrete double-sum energy")
    p.add_argument("--weights", default=None,
                   help="optional weight file, one float per line")
    p.add_argument("--perturb", type=_perturb_type, default=None, metavar="n=<int>,eps=<float>",
                   help="perturbed-measure energy: closed form plus MC estimate")
    p.add_argument("--samples", type=int, default=10**6)
    p.add_argument("--seed", type=_seed_type, default=0)
    _add_common(p, 30)

    p = sub.add_parser("poisson", help="smoothing kernel value, series vs closed form")
    p.add_argument("--space", required=True, help=space_help)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--theta", type=float, required=True)
    _add_common(p, 30)

    return top


# ---------------------------------------------------------------------------
# config echo


# --out and --threads are deliberately absent: one names a destination, the
# other a worker count, and neither changes a single output byte (the MC
# reduction is thread-invariant).  The echo records what determines the
# result, so identical configs must mean identical output.
_CONFIG_KEYS = ("space", "kernel", "nmax", "digits", "method", "mode",
                "s_min", "s_max", "step", "bisect", "points", "weights",
                "perturb", "samples", "seed", "format", "r", "theta")


def _config_dict(args) -> dict:
    cfg = {"command": args.command}
    for k in _CONFIG_KEYS:
        if hasattr(args, k):
            v = getattr(args, k)
            if isinstance(v, tuple):
                v = list(v)
            cfg[k] = v
    return cfg


def _render_json(payload: dict, args) -> str:
    doc = dict(payload)
    doc["version"] = __version__
    doc["config"] = _config_dict(args)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _csv_preamble(args) -> List[str]:
    cfg = _config_dict(args)
    items = " ".join(f"{k}={cfg[k]}" for k in sorted(cfg))
    return [f"# version={__version__}", f"# config: {items}"]


def _render_csv(rows: List[str], args) -> str:
    return "\n".join(_csv_preamble(args) + rows) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def _resolve_digits(args) -> int:
    return args.digits if args.digits is not None else _default_digits(args._digits_default)


def _report_csv_rows(report: CoefficientReport) -> List[str]:
    rows = ["n,value,error,m_n,lambda_n,sign"]
    for d in report.to_json_dict()["entries"]:
        rows.append(f"{d['n']},{d['value']},{d['error']},{d['m_n']},{d['lambda_n']},{d['sign']}")
    return rows


def _compute_report(args, digits: int) -> CoefficientReport:
    space = make_space(args.space)
    kernel = parse_kernel(args.kernel, space)
    kernel.require_integrable(space)
    method = getattr(args, "method", "both")
    if method == "de":
        return coefficients_de(space, kernel, N=args.nmax, digits=digits)
    if method == "gj":
        return coefficients_gj(space, kernel, N=args.nmax, digits=digits)
    return certify_coefficients(space, kernel, N=args.nmax, target_digits=digits)


def _cmd_coeffs(args) -> Tuple[str, int]:
    report = _compute_report(args, args.digits)
    code = 2 if any(e.sign == SIGN_UNDECIDED for e in report.entries) else 0
    if args.format == "csv":
        return _render_csv(_report_csv_rows(report), args), code
    return _render_json(report.to_json_dict(), args), code


def _cmd_classify(args) -> Tuple[str, int]:
    report = _compute_report(args, args.digits)
    verdict = classify(report, mode=args.mode)
    code = 2 if verdict.classification == "undecided" else 0
    if args.format == "csv":
        rows = ["classification,witness,N_checked,mode",
                f"{verdict.classification},"
                f"{'' if verdict.witness is None else verdict.witness},"
                f"{verdict.N_checked},{verdict.mode}"]
        return _render_csv(rows, args), code
    payload = report.to_json_dict()
    payload["verdict"] = verdict.to_json_dict()
    return _render_json(payload, args), code


_SCAN_KERNELS = {"riesz-geodesic": "geodesic", "riesz-chordal": "chordal"}


def _cmd_scan(args) -> Tuple[str, int]:
    metric = _SCAN_KERNELS.get(args.kernel)
    if metric is None:
        raise _UsageError(
            f"scan kernel must be one of {sorted(_SCAN_KERNELS)}, got {args.kernel!r}"
        )
    space = make_space(args.space)
    result = scan_riesz(space, metric, args.s_min, args.s_max, args.step,
                        N=args.nmax, bisect_tol=args.bisect, digits=args.digits)
    undecided = any(v.classification == "undecided" for v in result.verdicts)
    undecided = undecided or "undecided" in result.note
    code = 2 if undecided else 0
    if args.format == "csv":
        rows = result.to_csv().rstrip("\n").split("\n")
        tr = result.transition_estimate
        rows.append(f"# transition={'' if tr is None else tr} "
                    f"bracket={result.bracket} note={result.note!r}")
        return _render_csv(rows, args), code
    return _render_json(result.to_json_dict(), args), code


def _cmd_table1(args) -> Tuple[str, int]:
    result = table1(N=args.nmax, digits=args.digits)
    code = 2 if any(r[4] == "undecided" for r in result.rows) else 0
    if args.format == "csv":
        return _render_csv(result.to_csv().rstrip("\n").split("\n"), args), code
    return _render_json(result.to_json_dict(), args), code


def _load_weights(path: str, count: int) -> Optional[List[float]]:
    with open(path) as fh:
        vals = [float(line) for line in fh if line.strip() and not line.startswith("#")]
    if len(vals) != count:
        raise ValueError(f"weight file has {len(vals)} entries for {count} points")
    return vals


def _cmd_energy(args) -> Tuple[str, int]:
    digits = args.digits
    space = make_space(args.space)
    kernel = parse_kernel(args.kernel, space)

    if args.points is not None and args.perturb is not None:
        raise _UsageError("--points and --perturb are mutually exclusive")

    if args.points is not None:
        fspace, coords = load_points(args.points, space)
        weights = _load_weights(args.weights, len(coords)) if args.weights else None
        measure = DiscreteMeasure(fspace, [Point(fspace, c) for c in coords], weights)
        value = energy_discrete(measure, kernel, include_diagonal=False)
        payload = {"energy": value, "stderr": 0.0, "method": "closed-form",
                   "points": len(coords)}
    elif args.perturb is not None:
        n, eps = args.perturb
        res = energy_perturbed(space, kernel, PerturbedMeasureSpec(n, eps),
                               samples=args.samples, seed=args.seed,
                               digits=digits, threads=max(1, args.threads))
        payload = {"energy": res["mc_estimate"], "stderr": res["stderr"],
                   "method": "mc", "closed_form": res["closed_form"],
                   "uniform_energy": res["uniform_energy"],
                   "coefficient_n": res["coefficient_n"],
                   "n": n, "epsilon": eps, "samples": res["samples"]}
    else:
        kernel.require_integrable(space)
        value, _, err, qv, qe = energy_uniform_detail(space, kernel, digits)
        payload = {"energy": float(value), "stderr": 0.0, "method": "quadrature",
                   "expansion_error": float(err),
                   "quadrature_value": float(qv), "quadrature_error": float(qe)}

    if args.format == "csv":
        rows = ["energy,stderr,method",
                f"{payload['energy']!r},{payload['stderr']!r},{payload['method']}"]
        return _render_csv(rows, args), 0
    return _render_json(payload, args), 0


def _cmd_poisson(args) -> Tuple[str, int]:
    digits = args.digits
    space = make_space(args.space)
    if not (0 <= args.r < 1):
        raise ValueError(f"r must lie in [0, 1), got {args.r}")
    if not (0 <= args.theta <= space.diameter):
        raise ValueError(
            f"theta must lie in [0, {space.diameter:.6g}] on {space.name}"
        )
    closed = poisson_kernel(space, args.r, args.theta, method="closed", digits=digits)
    payload = {"value": float(closed), "closed": float(closed), "r": args.r, "theta": args.theta}
    try:
        series = poisson_kernel(space, args.r, args.theta, method="series", digits=digits)
        payload.update(series=float(series), diff=float(abs(closed - series)))
    except RuntimeError as exc:
        # near r = 1 the series cannot converge within its term cap, but the
        # closed form stands: print it and say why the check is missing
        payload.update(series=None, diff=None, note=f"series unavailable: {exc}")
    if args.format == "csv":
        cells = ["" if payload[k] is None else repr(payload[k]) for k in ("series", "diff")]
        rows = ["value,closed,series,diff",
                f"{payload['value']!r},{payload['closed']!r},{cells[0]},{cells[1]}"]
        if "note" in payload:
            rows.append(f"# note={payload['note']}")
        return _render_csv(rows, args), 0
    return _render_json(payload, args), 0


_COMMANDS = {
    "coeffs": _cmd_coeffs,
    "classify": _cmd_classify,
    "scan": _cmd_scan,
    "table1": _cmd_table1,
    "energy": _cmd_energy,
    "poisson": _cmd_poisson,
}


# ---------------------------------------------------------------------------
# output verification


_CSV_HEADERS = {
    "coeffs": "n,value,error,m_n,lambda_n,sign",
    "classify": "classification,witness,N_checked,mode",
    "scan": "s,verdict,first_negative_n",
    "table1": "space,alpha,beta,first_negative_n,verdict",
    "energy": "energy,stderr,method",
    "poisson": "value,closed,series,diff",
}

_JSON_REQUIRED = {
    "coeffs": ("space", "kernel", "N", "entries", "method", "levels"),
    "classify": ("space", "kernel", "N", "entries", "verdict"),
    "scan": ("space", "metric", "N", "grid", "transition"),
    "table1": ("N", "rows"),
    "energy": ("energy", "stderr", "method"),
    "poisson": ("value", "closed", "series"),
}


def _verify_output(command: str, fmt: str, text: str) -> Optional[str]:
    """Re-parse rendered output; returns an error message or None."""
    if fmt == "json":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            return f"output is not valid JSON: {e}"
        for key in _JSON_REQUIRED[command] + ("version", "config"):
            if key not in doc:
                return f"output JSON is missing {key!r}"
        if command in ("coeffs", "classify"):
            try:
                CoefficientReport.from_json_dict(doc)
            except Exception as e:
                return f"report schema check failed: {e}"
        return None
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines or lines[0] != _CSV_HEADERS[command]:
        return f"CSV header mismatch: expected {_CSV_HEADERS[command]!r}"
    width = len(lines[0].split(","))
    for ln in lines[1:]:
        if len(ln.split(",")) != width:
            return f"CSV row has wrong arity: {ln!r}"
    if not any(ln.startswith("# version=") for ln in text.splitlines()):
        return "CSV output is missing the version line"
    return None


# ---------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # resolve precision up front so the config echo shows the value
        # actually used, independent of the caller's environment
        args.digits = _resolve_digits(args)
    except _UsageError as e:
        print(f"zonalpd: error: {e}", file=sys.stderr)
        return 1

    try:
        text, code = _COMMANDS[args.command](args)
    except _UsageError as e:
        print(f"zonalpd: error: {e}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, OSError, KeyError, RuntimeError) as e:
        print(f"zonalpd: error: {e}", file=sys.stderr)
        return 1

    if args.verify:
        problem = _verify_output(args.command, args.format, text)
        if problem is not None:
            print(f"zonalpd: verification failed: {problem}", file=sys.stderr)
            return 1

    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
