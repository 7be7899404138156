"""Command-line front end.

Subcommands: coeffs, classify, scan, table1, energy, poisson.  Each one is a
function from the parsed arguments to (payload, rows, undecided); `main`
renders that once, as JSON or CSV, checks it with `--verify`, writes it and
picks the exit code.  Every output embeds the run configuration and the tool
version; output is byte-identical for identical (config, version), so runs
can be diffed, and `energy --perturb` gives the same bytes for every
`--threads`.  Exit codes: 0 success, 1 usage or domain error, 2 the result
is inconclusive at the requested precision (so pipelines can tell
"inconclusive" from "wrong"): an undecided sign (coeffs), verdict
(classify), grid verdict or transition (scan) or table row (table1);
energy and poisson never exit 2.  Each command imports only the arithmetic
it runs: `--version`, `--help` and `energy --points` load no mpmath.
"""

from __future__ import annotations

import atexit
import json
import math
import os
import re
import sys
import threading
from fractions import Fraction
from typing import List, Optional, Tuple

import argparse

from . import __version__
from .spaces import Point, make_space, load_points, parse_args
from .kernels import FAMILIES, parse_kernel


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; here 2 means "undecided",
    # so route usage problems through an exception and exit 1 instead
    def error(self, message):
        raise _UsageError(message)


def _digits_type(text: str) -> int:
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"digits must be an integer, got {text!r}")
    if v < 5 or v > 200:
        raise argparse.ArgumentTypeError(f"digits out of range [5, 200]: {v}")
    return v


def _seed_type(text: str) -> int:
    v = int(text)
    if v < 0 or v >= 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit int")
    return v


def _threads_type(text: str) -> int:
    v = int(text)
    if v < 1:
        raise argparse.ArgumentTypeError(f"threads must be a positive integer, got {v}")
    return v


def _perturb_type(text: str) -> Tuple[int, float]:
    try:
        args = parse_args(text, {"n": int, "eps": float})
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"perturbation n=<int>,eps=<float>: {e}") from None
    return args["n"], args["eps"]


def _add_common(p: _Parser, digits_default: int) -> None:
    p.add_argument("--digits", type=_digits_type, default=digits_default,
                   help=f"decimal digits of working precision, 5 to 200 "
                        f"(default {digits_default})")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="output format")
    p.add_argument("--out", default=None, help="write output to this path")
    p.add_argument("--verify", action="store_true",
                   help="re-parse the produced output against its schema")


_KERNEL_HELP = " | ".join(
    [f"{name}:" + ",".join(f"{k}=<{'i' if kind is int else 'f'}>" for k, kind in kinds.items())
     if kinds else name for name, (kinds, _) in FAMILIES.items()]
    + ["product(k1,k2)", "lincomb(c1*k1+c2*k2)"])


def _build_parser() -> _Parser:
    top = _Parser(prog="zonalpd",
                  description="Expansion coefficients, definiteness "
                              "certificates, and energies of zonal kernels "
                              "on compact two-point homogeneous spaces.")
    top.add_argument("--version", action="version", version=f"zonalpd {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    space_help = "S<k> | RP<k> | CP<k> | HP<k> | OP2 | custom:alpha=<f>,beta=<f>[,kappa=<0.5|1>]"

    p = sub.add_parser("coeffs", help="expansion coefficients with certified signs")
    p.add_argument("--space", required=True, help=space_help)
    p.add_argument("--kernel", required=True, help=_KERNEL_HELP)
    p.add_argument("--nmax", type=int, default=32)
    _add_common(p, 50)

    p = sub.add_parser("classify", help="definiteness verdict from certified signs")
    p.add_argument("--space", required=True, help=space_help)
    p.add_argument("--kernel", required=True, help=_KERNEL_HELP)
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
                   help="bisection tolerance for the transition bracket, > 0")
    p.add_argument("--nmax", type=int, default=48)
    _add_common(p, 30)

    p = sub.add_parser("table1", help="-log(theta) verdicts on the small projective spaces")
    p.add_argument("--nmax", type=int, default=16)
    _add_common(p, 50)

    p = sub.add_parser("energy", help="uniform, discrete, or perturbed-measure energy")
    p.add_argument("--space", required=True, help=space_help)
    p.add_argument("--kernel", required=True, help=_KERNEL_HELP)
    p.add_argument("--points", default=None,
                   help="point file (as written by the point saver); "
                        "switches to the discrete double-sum energy")
    p.add_argument("--weights", default=None,
                   help="optional weight file for --points, one float per line")
    p.add_argument("--perturb", type=_perturb_type, default=None, metavar="n=<int>,eps=<float>",
                   help="perturbed-measure energy: closed form plus MC estimate")
    p.add_argument("--samples", type=int, default=10**6)
    p.add_argument("--seed", type=_seed_type, default=0)
    p.add_argument("--threads", type=_threads_type, default=1,
                   help="worker threads for the Monte Carlo batches of --perturb; "
                        "the result does not depend on this")
    _add_common(p, 30)

    p = sub.add_parser("poisson", help="smoothing kernel value, series vs closed form")
    p.add_argument("--space", required=True, help=space_help)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--theta", type=float, required=True)
    _add_common(p, 30)

    return top


# ---------------------------------------------------------------------------
# config echo and rendering


# --out, --verify and energy's --threads are deliberately absent: one names a
# destination, one checks what is printed, the last a worker count, and none
# changes a single output byte (Monte Carlo batches are reduced in batch
# order).  The echo records what determines the result, so identical configs
# must mean identical output.
_NOT_ECHOED = {"out", "threads", "verify"}


def _config_dict(args) -> dict:
    return {k: list(v) if isinstance(v, tuple) else v
            for k, v in vars(args).items() if k not in _NOT_ECHOED}


def _render(args, payload: dict, rows: List[str]) -> str:
    config = _config_dict(args)
    if args.format == "json":
        doc = {**payload, "version": __version__, "config": config}
        return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    items = " ".join(f"{k}={config[k]}" for k in sorted(config))
    return "\n".join([f"# version={__version__}", f"# config: {items}", *rows]) + "\n"


# ---------------------------------------------------------------------------
# subcommands: each returns (payload, rows, undecided).  `payload` is the JSON
# document without version and config, `rows` the CSV lines after the
# preamble, header first, and `undecided` asks for exit code 2.


def _compute_report(args):
    from .transform import certify_coefficients
    space = make_space(args.space)
    kernel = parse_kernel(args.kernel, space)
    return certify_coefficients(space, kernel, N=args.nmax, target_digits=args.digits)


def _require_cpd_degree(args) -> None:
    # a cpd verdict reads the degrees n >= 1; refuse before any certification
    if args.nmax < 1:
        raise _UsageError(f"--nmax must be >= 1 for a cpd verdict, got {args.nmax}")


def _cmd_coeffs(args):
    from .transform import SIGN_UNDECIDED
    payload = _compute_report(args).to_json_dict()
    entries = payload["entries"]
    rows = ["n,value,error,m_n,lambda_n,sign"] + [
        f"{d['n']},{d['value']},{d['error']},{d['m_n']},{d['lambda_n']},{d['sign']}"
        for d in entries]
    return payload, rows, any(d["sign"] == SIGN_UNDECIDED for d in entries)


def _cmd_classify(args):
    from .posdef import classify

    if args.mode == "cpd":
        _require_cpd_degree(args)
    report = _compute_report(args)
    verdict = classify(report, mode=args.mode)
    payload = report.to_json_dict()
    payload["verdict"] = verdict.to_json_dict()
    rows = ["classification,witness,N_checked,mode",
            f"{verdict.classification},"
            f"{'' if verdict.witness is None else verdict.witness},"
            f"{verdict.N_checked},{verdict.mode}"]
    return payload, rows, verdict.classification == "undecided"


_SCAN_KERNELS = {"riesz-geodesic": "geodesic", "riesz-chordal": "chordal"}


def _cmd_scan(args):
    metric = _SCAN_KERNELS.get(args.kernel)
    if metric is None:
        raise _UsageError(
            f"scan kernel must be one of {sorted(_SCAN_KERNELS)}, got {args.kernel!r}"
        )
    _require_cpd_degree(args)
    from .posdef import scan_riesz

    space = make_space(args.space)
    result = scan_riesz(space, metric, args.s_min, args.s_max, args.step,
                        N=args.nmax, bisect_tol=args.bisect, digits=args.digits)
    tr = result.transition_estimate
    rows = result.to_csv().splitlines() + [
        f"# transition={'' if tr is None else tr} bracket={result.bracket} note={result.note!r}"]
    undecided = any(v.classification == "undecided" for v in result.verdicts)
    return result.to_json_dict(), rows, undecided or "undecided" in result.note


def _cmd_table1(args):
    _require_cpd_degree(args)
    from .posdef import table1

    result = table1(N=args.nmax, digits=args.digits)
    undecided = any(r[4] == "undecided" for r in result.rows)
    return result.to_json_dict(), result.to_csv().splitlines(), undecided


def _load_weights(path: str, count: int) -> Optional[List[float]]:
    with open(path) as fh:
        vals = [float(line) for line in fh if line.strip() and not line.startswith("#")]
    if len(vals) != count:
        raise ValueError(f"weight file has {len(vals)} entries for {count} points")
    return vals


def _cmd_energy(args):
    if args.points is None:  # certifying: load transform before numpy, for a lower peak RSS
        from . import transform  # noqa: F401
    # the energy module brings numpy; the certifying commands run without it
    from .energy import (DiscreteMeasure, PerturbedMeasureSpec, energy_discrete, energy_perturbed,
                         energy_uniform_detail)

    space = make_space(args.space)
    kernel = parse_kernel(args.kernel, space)

    if args.points is not None and args.perturb is not None:
        raise _UsageError("--points and --perturb are mutually exclusive")
    if args.weights is not None and args.points is None:
        raise _UsageError("--weights needs --points")

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
                               digits=args.digits, threads=args.threads)
        payload = {"energy": res["mc_estimate"], "stderr": res["stderr"],
                   "method": "mc", "closed_form": res["closed_form"],
                   "uniform_energy": res["uniform_energy"],
                   "coefficient_n": res["coefficient_n"],
                   "n": n, "epsilon": eps, "samples": res["samples"]}
    else:
        value, err, qv, qe = energy_uniform_detail(space, kernel, args.digits)
        payload = {"energy": float(value), "stderr": 0.0, "method": "quadrature",
                   "expansion_error": _float_error(value, err),
                   "quadrature_value": float(qv), "quadrature_error": _float_error(qv, qe)}

    rows = ["energy,stderr,method",
            f"{payload['energy']!r},{payload['stderr']!r},{payload['method']}"]
    return payload, rows, False


def _float_error(value, error) -> float:
    """A float never below error + |float(value) - value|, so the printed
    float(value) +- it contains the mpf value."""
    import mpmath as mp
    bound = mp.fadd(error, abs(mp.fsub(float(value), value, exact=True)), rounding="u")
    f = float(bound)
    return f if f >= bound else math.nextafter(f, math.inf)


def _cmd_poisson(args):
    from .transform import poisson_kernel
    space = make_space(args.space)
    if not (0 <= args.r < 1):
        raise ValueError(f"r must lie in [0, 1), got {args.r}")
    if not (0 <= args.theta <= space.diameter):
        raise ValueError(
            f"theta must lie in [0, {space.diameter:.6g}] on {space.name}"
        )
    closed = poisson_kernel(space, args.r, args.theta, method="closed", digits=args.digits)
    payload = {"value": float(closed), "closed": float(closed), "r": args.r, "theta": args.theta}
    try:
        series = poisson_kernel(space, args.r, args.theta, method="series", digits=args.digits)
        payload.update(series=float(series), diff=float(abs(closed - series)))
    except RuntimeError as exc:
        # near r = 1 the series cannot converge within its term cap, but the
        # closed form stands: print it and say why the check is missing
        payload.update(series=None, diff=None, note=f"series unavailable: {exc}")
    cells = ["" if payload[k] is None else repr(payload[k]) for k in ("series", "diff")]
    rows = ["value,closed,series,diff",
            f"{payload['value']!r},{payload['closed']!r},{cells[0]},{cells[1]}"]
    if "note" in payload:
        rows.append(f"# note={payload['note']}")
    return payload, rows, False


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
    "classify": ("space", "kernel", "N", "entries", "method", "verdict"),
    "scan": ("space", "metric", "N", "grid", "transition"),
    "table1": ("N", "rows"),
    "energy": ("energy", "stderr", "method"),
    "poisson": ("value", "closed", "series"),
}


def _check_scan(doc) -> Optional[str]:
    """A printed scan agrees with itself, as `posdef.scan_riesz` builds it,
    and with its config."""
    grid, tr, N = doc["grid"], doc["transition"], doc["N"]
    ss = [g["s"] for g in grid]
    if any(a >= b for a, b in zip(ss, ss[1:])):
        return "the grid s values do not increase"
    for g in grid:
        v = g["verdict"]
        if (v["mode"], v["N_checked"]) != ("cpd", N):
            return f"s={g['s']}: the verdict is not a cpd verdict up to N = {N}"
        if g["first_negative_n"] != (v["witness"] if v["classification"] == "not-CPD" else None):
            return f"s={g['s']}: first_negative_n is not the witness of a not-CPD verdict"
    neg = [g["s"] for g in grid if g["verdict"]["classification"] == "not-CPD"]
    ok = [g["s"] for g in grid if neg and g["s"] > max(neg)
          and g["verdict"]["classification"] not in ("not-CPD", "undecided")]
    bracket = tr["bracket"]
    if bracket is not None and not (ok and tr["estimate"] == bracket[0] < bracket[1]
                                    and max(neg) <= bracket[0] and bracket[1] <= min(ok)):
        return ("the bracket is not (estimate, hi) from the last not-CPD s to the first "
                "nonnegative s past it")
    if (bracket is None or bracket[1] - bracket[0] > tr["bisect_tol"]) and not tr["note"]:
        return "a bracket wider than bisect_tol, or none, comes without a note"
    config = doc["config"]
    if (doc["space"], doc["metric"], N, doc["digits"], tr["bisect_tol"]) != (
            make_space(config["space"]).name, _SCAN_KERNELS.get(config["kernel"]),
            config["nmax"], config["digits"], config["bisect"]):
        return "space, metric, N, digits or bisect_tol is not the one its config gives"
    return None


def _check_table1(doc) -> Optional[str]:
    """The rows of a printed table 1 are its spaces, a first negative index
    1 <= n <= N sits exactly on the not-CPD rows, and N and digits are its
    config's."""
    from .posdef import TABLE1_SPACES

    if [(r["space"], r["alpha"], r["beta"]) for r in doc["rows"]] != [
            (sp.name, sp.alpha, sp.beta) for sp in map(make_space, TABLE1_SPACES)]:
        return "the rows are not the spaces of table 1 in order, with their (alpha, beta)"
    for r in doc["rows"]:
        fn, verdict = r["first_negative_n"], r["verdict"]
        if not (type(fn) is int and 1 <= fn <= doc["N"] if verdict == "not-CPD" else fn is None):
            return f"{r['space']}: first_negative_n {fn!r} does not fit the verdict {verdict!r}"
    if (doc["N"], doc["digits"]) != (doc["config"]["nmax"], doc["config"]["digits"]):
        return "N or digits is not the one its config gives"
    return None


def _check_energy(doc) -> Optional[str]:
    """An energy against its config: its method, stderr 0 off `mc`, the `mc` n, epsilon and
    samples, and a uniform energy within the sum of its printed errors of quadrature_value."""
    config, method = doc["config"], doc["method"]
    if method != ("mc" if config["perturb"] else "closed-form" if config["points"]
                  else "quadrature"):
        return f"method {method!r} is not the one its config gives"
    if method == "mc":
        if [doc["n"], doc["epsilon"], doc["samples"]] != [*config["perturb"], config["samples"]]:
            return "n, epsilon or samples is not the one its config gives"
    elif doc["stderr"] != 0:
        return f"stderr {doc['stderr']!r} is not 0 under {method}"
    if method == "quadrature":
        errors = Fraction(doc["expansion_error"]) + Fraction(doc["quadrature_error"])
        if abs(Fraction(doc["energy"]) - Fraction(doc["quadrature_value"])) > errors:
            return "energy and quadrature_value differ by more than their printed errors"
    return None


def _check_poisson(doc) -> Optional[str]:
    """A printed Poisson value is its closed form, at its config's r and theta."""
    config = doc["config"]
    if (doc["r"], doc["theta"], doc["value"]) != (config["r"], config["theta"], doc["closed"]):
        return "r or theta is not the one its config gives, or value is not closed"
    return None


# a coeffs, classify or energy config line: its keys are sorted, so kernel, mode, nmax
# and space come last, and points follows perturb; a kernel, space or file may hold spaces
_COEFFS_CONFIG = re.compile(r"# config: .* kernel=(.*) nmax=(\d+) space=(.*)")
_CLASSIFY_CONFIG = re.compile(r"# config: .* mode=(\w+) nmax=(\d+) space=.*")
_ENERGY_CONFIG = re.compile(r"# config: .* perturb=(None|\[.*\]) points=(.*) samples=.*")


def _check_classify_csv(text: str, lines: List[str]) -> Optional[str]:
    """The one row of a classify CSV, which prints no signs, against its config:
    its mode and N_checked, a witness in 0..N if any, in 1..N on not-CPD."""
    from .posdef import CLASSIFICATIONS

    match = next(filter(None, map(_CLASSIFY_CONFIG.fullmatch, text.splitlines())), None)
    verdict, witness, n_checked, mode = lines[-1].split(",")
    low = 1 if verdict == "not-CPD" else 0
    in_range = witness.isdecimal() and low <= int(witness) <= int(n_checked)
    if (match is None or len(lines) != 2 or (mode, n_checked) != match.groups()
            or verdict not in CLASSIFICATIONS or not (in_range if witness else low == 0)):
        return f"the classify row {lines[-1]!r} does not follow from its config"
    return None


def _check_energy_csv(text: str, lines: List[str]) -> Optional[str]:
    """The method of the one energy row against the config line."""
    match = next(filter(None, map(_ENERGY_CONFIG.fullmatch, text.splitlines())), None)
    # a point file named None prints `points=None`, as no point file does
    methods = (set() if match is None else {"mc"} if match[1] != "None"
               else {"closed-form"} if match[2] != "None" else {"closed-form", "quadrature"})
    if len(lines) != 2 or lines[1].split(",")[-1] not in methods:
        return f"the energy row {lines[-1]!r} does not follow from its config"
    return None


def _verify_output(command: str, fmt: str, text: str) -> Optional[str]:
    """Re-parse rendered output; returns an error message or None.  Coefficient
    tables, JSON or CSV, are read back by `CoefficientReport.from_json_dict`,
    which re-derives every sign, and a printed verdict must be the one its
    signs give.  In JSON the space, N and kernel (as the descriptor writer
    prints it) are the config's, the method is the kernel's `_route`, and
    `levels.digits` a rung of the precision ladder of the config's digits; a
    scan, a table 1, an energy, a Poisson value or a classify or energy CSV
    must agree with itself and its config (the `_check_*` functions: they
    certify nothing and load no mpmath)."""
    if fmt == "json":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            return f"output is not valid JSON: {e}"
        for key in _JSON_REQUIRED[command] + ("version", "config"):
            if key not in doc:
                return f"output JSON is missing {key!r}"
    else:
        lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        if not lines or lines[0] != _CSV_HEADERS[command]:
            return f"CSV header mismatch: expected {_CSV_HEADERS[command]!r}"
        header = lines[0].split(",")
        for ln in lines[1:]:
            if len(ln.split(",")) != len(header):
                return f"CSV row has wrong arity: {ln!r}"
        if not any(ln.startswith("# version=") for ln in text.splitlines()):
            return "CSV output is missing the version line"
        if command == "classify":
            return _check_classify_csv(text, lines)
        if command == "energy":
            return _check_energy_csv(text, lines)
        if command != "coeffs":
            return None
        match = next(filter(None, map(_COEFFS_CONFIG.fullmatch, text.splitlines())), None)
        if match is None:
            return "CSV output is missing the coeffs config line"
        doc = dict(zip(("kernel", "N", "space"), match.groups()),
                   entries=[dict(zip(header, ln.split(","))) for ln in lines[1:]])
    try:
        if command in ("scan", "table1", "energy", "poisson"):
            return {"scan": _check_scan, "table1": _check_table1, "energy": _check_energy,
                    "poisson": _check_poisson}[command](doc)
        from .transform import CoefficientReport, _precision_ladder, _route
        if fmt == "csv":
            doc["space"] = make_space(doc["space"]).descriptor()
        report = CoefficientReport.from_json_dict(doc)
        if fmt == "json":
            config = doc["config"]
            kernel = parse_kernel(config["kernel"], report.space)
            if (report.space, report.N, report.kernel) != (
                    make_space(config["space"]), config["nmax"], kernel.descriptor):
                return f"space, N or kernel {report.kernel!r} is not the one its config gives"
            if report.method != _route(kernel)[0]:
                return f"method {report.method!r} is not the route of kernel {report.kernel!r}"
            if report.levels.get("digits") not in _precision_ladder(config["digits"]):
                return (f"levels.digits {report.levels.get('digits')!r} is not a rung of the "
                        f"precision ladder of digits {config['digits']!r}")
        if command == "classify":
            from .posdef import classify

            verdict = doc["verdict"]
            if classify(report, mode=config["mode"]).to_json_dict() != verdict:
                return "the printed verdict is not the one its signs give"
    except Exception as e:
        return f"report schema check failed: {e}"
    return None


# ---------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        payload, rows, undecided = _COMMANDS[args.command](args)
        text = _render(args, payload, rows)
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
    except (_UsageError, ValueError, ArithmeticError, OSError, KeyError, RuntimeError) as e:
        print(f"zonalpd: error: {str(e) or type(e).__name__}", file=sys.stderr)
        return 1
    return 2 if undecided else 0


def _flush_std_files() -> bool:
    """Flush stdout, then stderr, as the interpreter's teardown does, and
    return whether both flushes succeeded.  A failed stdout flush is
    reported in the teardown's words (its data is gone, so a second flush
    at teardown would pass in silence); a failed stderr flush is dropped."""
    ok = True
    for stream in (sys.stdout, sys.stderr):
        if stream is None or stream.closed:
            continue
        try:
            stream.flush()
        except Exception as exc:
            ok = False
            if stream is sys.stdout and sys.stderr is not None:
                import traceback

                lines = [f"Exception ignored in: {stream!r}\n",
                         *traceback.format_exception_only(exc)]
                try:
                    sys.stderr.write("".join(lines))
                except Exception:
                    pass
    return ok


def run() -> None:
    """Entry point of `python -m zonalpd` and the `zonalpd` script: `main`,
    then the end of the process.

    Once the output is flushed the process has nothing left to do.  So when
    no other thread is alive, it runs the atexit handlers once, flushes
    stdout and stderr, and ends with `os._exit`: with main's code, or with
    120, the teardown's code, when a flush failed.  That skips the
    interpreter's teardown (module clearing and collections over objects
    the OS frees anyway), which took 24-34 ms of each benchmark job on a
    2-vCPU x86-64 VM.  A live thread
    or an exit code that is not an int takes the normal exit, `sys.exit`.
    Library callers of `main` are unaffected."""
    try:
        code = main()
    except SystemExit as exc:  # argparse's --help and --version
        code = 0 if exc.code is None else exc.code
    if isinstance(code, int) and threading.enumerate() == [threading.main_thread()]:
        atexit._run_exitfuncs()  # runs each handler once and unregisters it
        os._exit(code if _flush_std_files() else 120)
    sys.exit(code)


if __name__ == "__main__":
    run()
