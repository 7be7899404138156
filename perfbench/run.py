#!/usr/bin/env python3
"""Benchmark of the zonalpd command line: certification, scan and energy jobs.

    python3 perfbench/run.py --workload certify|scan|energy|all \\
        --seed N --seconds S --trace 0|1

Every job is a fresh single-threaded `python3 -m zonalpd ...` process, run
one after another from this one client (a closed loop).  A pass runs every
job of the workload once; passes repeat while the next one should end within
--seconds (at least one pass), and each job's time is its median over the
passes, in reference seconds (see ReferenceClock).  Every job's
output is checked (see checks.py); a job with a wrong exit code or a failed
check counts as failed.

--trace 0 reports the end-to-end metrics.  --trace 1 follows each plain
pass with a traced pass, where the span tracer of tracer.py is installed in
every job, and reports the per-layer metrics (medians over traced passes)
together with trace.overhead_s, the traced minus the plain wall time.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it are a readable report.  Inputs,
outputs, spans and a result file with the environment go to
.perfbench-work/ in the checkout.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import mpmath

import checks
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

# `zonalpd --version` runs before the first pass; one more runs before each pass
SETUP_REPEATS = 3
# a run ends within 180 s: passes stop by RUN_BUDGET_S and a hung job is
# killed after JOB_TIMEOUT_S
JOB_TIMEOUT_S = 100.0
RUN_BUDGET_S = 60.0

# Time of ReferenceClock's loop on the machine the benchmark was tuned on
# (2-vCPU x86-64 VM, mpmath python backend, quiet period)
REFERENCE_S = 0.11
# a loop that ended less than this long before a child starts is reused as
# the child's loop before
REUSE_LOOP_S = 0.5

# Pinned from the seed program.  The sign vectors are certified content, so
# a change that moves digits keeps them.  OP2's first negative coefficient
# is n=6 (n=8 is negative as well); an independent mpmath quadrature of
# -log(theta) against P_6^(7,3) gives -3.86e-4.  At N=16 the scan brackets
# the transition in [-0.65, -0.6].
COEFFS_DIGESTS = {
    "RP2": "36c07b198050e9e2deee04f5a040efe03f980dba07f9ec915f58268e76ad4bbf",
    "HP2": "e376401cbef80a63dfb19eb6f069e352d9c3058aa3fe6e0ab6ea1b09c9be14d8",
}
TABLE1_FIRST_NEGATIVE = {
    "RP2": None, "RP3": None, "RP4": 8, "CP2": None, "CP3": 6, "HP2": 10, "OP2": 6,
}
SCAN_BRACKET_WITHIN = (-0.66, -0.59)
MC_SAMPLES = 250_000


@dataclass
class Job:
    kind: str  # coeffs | table1 | scan | energy_mc | energy_discrete
    args: list
    check: Callable[[dict], Optional[str]]
    # certified coefficients in the output of a certifying job (CERTIFYING),
    # the sum of N+1 over its certifications
    coefficients: Callable[[dict], int] = lambda doc: 0
    # coefficients whose interval excludes a closed-form value, where one exists
    misses: Optional[Callable[[dict], int]] = None


@dataclass
class JobRun:
    job: Job
    wall: float
    ref: float  # wall in reference seconds
    rss_mb: float
    code: int
    problem: Optional[str]
    doc: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# workloads


def certify_jobs(seed: int, work: Path) -> list[Job]:
    """Three cold certifying jobs; no rule or node is shared between them."""
    def coeffs(space, kernel, n_max, digits, misses=None):
        return Job(
            "coeffs",
            ["coeffs", "--space", space, "--kernel", kernel,
             "--nmax", str(n_max), "--digits", str(digits)],
            lambda d: checks.check_coeffs(d, n_max, COEFFS_DIGESTS[space]),
            lambda d: len(d["entries"]),
            misses,
        )

    return [
        # DE plus Gauss-Jacobi in the angle variable
        coeffs("RP2", "riesz-geodesic:s=-0.6", 24, 30),
        # DE plus Gauss-Jacobi in t, at a non-dyadic exponent with a closed form
        coeffs("HP2", "riesz-chordal:s=0.7", 12, 30,
               lambda d: checks.interval_misses(d, 3.0, 1.0, 0.7, 30)),
        # DE only (log kernel), 7 spaces
        Job("table1", ["table1", "--nmax", "10", "--digits", "30"],
            lambda d: checks.check_table1(d, TABLE1_FIRST_NEGATIVE),
            lambda d: len(d["rows"]) * (d["N"] + 1)),
    ]


def scan_jobs(seed: int, work: Path) -> list[Job]:
    """One scan: space, N and digits fixed, only the exponent changes."""
    args = ["scan", "--space", "RP2", "--kernel", "riesz-geodesic",
            "--s-min", "-0.7", "--s-max", "-0.5", "--step", "0.1",
            "--bisect", "0.05", "--nmax", "16", "--digits", "20"]
    return [Job("scan", args, lambda d: checks.check_scan(d, *SCAN_BRACKET_WITHIN),
                lambda d: checks.scan_certifications(d) * (d["N"] + 1))]


# (space, kernel, points, kappa) of the discrete jobs
DISCRETE = (
    ("RP2", "gauss-chordal:lambda=1", 150, 1.0),
    ("CP2", "riesz-chordal:s=1", 150, 1.0),
    ("HP2", "log-geodesic", 100, 1.0),
)


def energy_jobs(seed: int, work: Path) -> list[Job]:
    """Perturbed MC and discrete energies; quadrature only at N <= 2."""
    from zonalpd.spaces import make_rng, make_space, sample_uniform_points, save_points

    jobs = []
    # s=0.5, not s=1: on S2 the s=1 kernel has infinite variance, and its MC
    # estimate fell outside 4 standard errors for 1 seed in 1200
    for space, kernel, perturb in (("S2", "riesz-chordal:s=0.5", "n=1,eps=0.1"),
                                   ("CP2", "gauss-chordal:lambda=1", "n=2,eps=0.1")):
        jobs.append(Job(
            "energy_mc",
            ["energy", "--space", space, "--kernel", kernel, "--perturb", perturb,
             "--samples", str(MC_SAMPLES), "--seed", str(seed)],
            checks.check_mc,
        ))
    for task, (space, kernel, count, kappa) in enumerate(DISCRETE, start=1):
        sp = make_space(space)
        path = work / f"{space}-{count}.pts"
        save_points(str(path), sp, sample_uniform_points(sp, make_rng(seed, task), count))
        ref = checks.reference_discrete_energy(str(path), sp.family, kernel, kappa)
        jobs.append(Job(
            "energy_discrete",
            ["energy", "--space", space, "--kernel", kernel,
             "--points", str(path.relative_to(ROOT))],
            lambda d, ref=ref: checks.check_discrete(d, ref),
        ))
    return jobs


WORKLOADS = {
    "certify": (certify_jobs,
                "cold per-node arithmetic; nothing shared between certifications"),
    "scan": (scan_jobs,
             "fixed space, N and digits, only the exponent varies: reuse pays off"),
    "energy": (energy_jobs,
               "numpy sampling, distances and reductions; quadrature only at N <= 2"),
}

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
CERTIFYING = ("coeffs", "table1", "scan")

# the report's metrics that apply to each workload, with units
REPORT = {
    "certify": ("coeffs_s", "table1_s", "coeffs_per_s", "interval_misses"),
    "scan": ("scan_s", "coeffs_per_s"),
    "energy": ("energy_mc_s", "energy_discrete_s"),
}
UNITS = {"coeffs_s": "s", "table1_s": "s", "scan_s": "s", "energy_mc_s": "s",
         "energy_discrete_s": "s", "coeffs_per_s": "1/s", "peak_rss_mb": "MB",
         "failed_frac": "ratio", "interval_misses": "count", "setup_s": "s",
         "wall_s": "s", "trace.overhead_s": "s", **tracer.LAYER_METRICS}


# ---------------------------------------------------------------------------
# processes


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "ZONALPD_DEFAULT_DIGITS"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


class ReferenceClock:
    """Converts a child's wall time into reference seconds.

    The shared host this runs on changes speed by 20 % to 2x for seconds or
    minutes at a time.  So each child is timed between two runs of a fixed
    mpmath loop in this process, which calls no zonalpd code, on the one CPU
    that this process and its children are pinned to (pin_to_one_cpu), and
    its wall time is scaled by REFERENCE_S over the mean of the two loop
    times: a reference second is a second of a machine on which the loop
    takes REFERENCE_S.
    """

    def __init__(self) -> None:
        self.ctx = mpmath.MPContext()
        self.ctx.dps = 30
        self.loops: list[float] = []
        self.ended = -float("inf")

    def loop(self) -> float:
        ctx = self.ctx
        t0 = time.perf_counter()
        x = ctx.mpf(0)
        for i in range(1, 15000):
            x += ctx.sqrt(ctx.mpf(i)) / i
        self.ended = time.perf_counter()
        self.loops.append(self.ended - t0)
        return self.loops[-1]

    def before(self) -> float:
        """The loop time just before a child starts."""
        if time.perf_counter() - self.ended < REUSE_LOOP_S:
            return self.loops[-1]
        return self.loop()


CLOCK = ReferenceClock()


def pin_to_one_cpu() -> int:
    """Pin this process, and so every child it starts, to one usable CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_child(cmd: list, out_path: Path, env: dict) -> tuple[float, float, float, int]:
    """Run cmd with stdout to out_path.

    Returns (wall s, wall in reference s, peak RSS MB, exit code).
    """
    box = []
    before = CLOCK.before()
    with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        waiter = threading.Thread(target=lambda: box.append(os.wait4(proc.pid, 0)))
        waiter.start()
        try:
            waiter.join(JOB_TIMEOUT_S)
        finally:  # on a timeout, or when this process is told to stop
            if waiter.is_alive():
                proc.kill()
                waiter.join()
        wall = time.perf_counter() - t0
    ref = wall * REFERENCE_S * 2 / (before + CLOCK.loop())
    _, status, usage = box[0]
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, ref, usage.ru_maxrss / 1024.0, proc.returncode


def run_job(job: Job, index: int, work: Path, env: dict, traced: bool) -> JobRun:
    tag = f"job{index}{'-traced' if traced else ''}"
    out = work / f"{tag}.out"
    if traced:
        cmd = [sys.executable, str(HERE / "traced_job.py"), str(work / f"{tag}.npz"),
               str(index), "--"]
    else:
        cmd = [sys.executable, "-m", "zonalpd"]
    wall, ref, rss, code = run_child(cmd + job.args + ["--verify"], out, env)
    problem, doc = None, {}
    if code != 0:
        problem = f"exit code {code}: {out.with_suffix('.err').read_text()[-300:]!r}"
    else:
        try:
            doc = json.loads(out.read_text())
            problem = job.check(doc)
        except (ValueError, KeyError, TypeError) as exc:
            problem = f"unreadable output: {exc!r}"
    return JobRun(job, wall, ref, rss, code, problem, doc)


def measure_setup(work: Path, env: dict) -> tuple[float, float]:
    """(wall s, reference s) of a fresh interpreter running `zonalpd --version`."""
    out = work / "version.out"
    wall, ref, _, code = run_child([sys.executable, "-m", "zonalpd", "--version"], out, env)
    if code != 0 or not out.read_text().startswith("zonalpd "):
        raise RuntimeError(f"`zonalpd --version` failed with exit code {code}")
    return wall, ref


# ---------------------------------------------------------------------------
# metrics


def summarize(passes: list[list[JobRun]]) -> dict:
    """Report metrics of several passes over the same jobs.

    Each job's time is its median over the passes in reference seconds; the
    workload and per-kind times are sums of those medians.  wall_raw_s sums
    the medians of the measured wall times instead.
    """
    runs = [r for p in passes for r in p]
    jobs = range(len(passes[0]))
    med = [statistics.median(p[i].ref for p in passes) for i in jobs]
    m: dict = {}
    for r, t in zip(passes[0], med):
        key = f"{r.job.kind}_s"
        m[key] = m.get(key, 0.0) + t
    m["wall_s"] = sum(med)
    m["wall_raw_s"] = sum(statistics.median(p[i].wall for p in passes) for i in jobs)
    m["peak_rss_mb"] = max(r.rss_mb for r in runs)
    m["failed_frac"] = sum(r.problem is not None for r in runs) / len(runs)
    m["interval_misses"] = statistics.median(
        sum(r.job.misses(r.doc) for r in p if r.job.misses is not None and r.problem is None)
        for p in passes)
    cert_time = sum(m.get(f"{k}_s", 0.0) for k in CERTIFYING)
    if cert_time:
        coefficients = statistics.median(
            sum(r.job.coefficients(r.doc) for r in p
                if r.problem is None and r.job.kind in CERTIFYING)
            for p in passes)
        m["coeffs_per_s"] = coefficients / cert_time
    return m


def environment() -> dict:
    import mpmath
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "scipy": importlib.util.find_spec("scipy") is not None,
        "machine": platform.machine(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, env_info: dict) -> dict:
    build, why = WORKLOADS[name]
    work = WORK / f"{name}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env()
    jobs = build(seed, work)  # inputs are made before any timing

    # untimed warm-up: bytecode of the package (and the tracer) compiles here
    run_child([sys.executable, "-m", "zonalpd", "--version"], work / "warm.out", env)
    if trace:
        run_child([sys.executable, str(HERE / "traced_job.py"), str(work / "warm.npz"),
                   "0", "--", "--version"], work / "warm-traced.out", env)
    setup_times = [measure_setup(work, env) for _ in range(SETUP_REPEATS)]

    plain_passes, traced_passes, layer_passes = [], [], []
    budget = min(seconds, RUN_BUDGET_S)
    start = time.perf_counter()
    while True:
        setup_times.append(measure_setup(work, env))
        plain_passes.append([run_job(j, i, work, env, False) for i, j in enumerate(jobs)])
        if trace:
            traced_passes.append([run_job(j, i, work, env, True) for i, j in enumerate(jobs)])
            layers, per_job = tracer.layer_metrics(
                [work / f"job{i}-traced.npz" for i in range(len(jobs))])
            layer_passes.append(layers)
        elapsed = time.perf_counter() - start
        # start another pass only if it should end within the budget
        if elapsed * (len(plain_passes) + 1) / len(plain_passes) > budget:
            break

    e2e = summarize(plain_passes)
    e2e["setup_s"] = statistics.median(ref for _, ref in setup_times)
    e2e["setup_raw_s"] = statistics.median(wall for wall, _ in setup_times)
    e2e["reference_loop_s"] = statistics.median(CLOCK.loops)
    per_layer = None
    if trace:
        per_layer = {k: statistics.median(p[k] for p in layer_passes) for k in layer_passes[0]}
        per_layer["trace.overhead_s"] = summarize(traced_passes)["wall_s"] - e2e["wall_s"]
    runs = [r for p in plain_passes + traced_passes for r in p]
    failed = sum(r.problem is not None for r in runs)
    result = {
        "workload": name,
        "why": why,
        "seed": seed,
        "seconds": seconds,
        "passes": len(plain_passes),
        "environment": env_info,
        "end_to_end": e2e,
        "per_layer": per_layer,
        "per_job_layers": per_job if trace else None,
        "jobs": [{"args": r.job.args, "wall_s": r.wall, "ref_s": r.ref, "rss_mb": r.rss_mb,
                  "exit": r.code, "problem": r.problem} for r in runs],
        "attempted": len(runs),
        "failed": failed,
    }
    (work / "result.json").write_text(json.dumps(result, indent=2) + "\n")
    return result


def report(result: dict) -> None:
    name = result["workload"]
    print(f"workload {name} (seed {result['seed']}, {result['passes']} pass(es), "
          f"{result['attempted']} jobs, {result['failed']} failed): {result['why']}")
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    e2e = result["end_to_end"]
    for key in ("setup_s", "wall_s") + REPORT[name] + ("peak_rss_mb", "failed_frac"):
        print(f"  {key:<22} {e2e.get(key, 0.0):>14.6g} {UNITS[key]}")
    print(f"  measured: setup {e2e['setup_raw_s']:.6g} s, wall {e2e['wall_raw_s']:.6g} s; "
          f"reference loop median {e2e['reference_loop_s']:.6g} s (REFERENCE_S {REFERENCE_S})")
    if result["per_layer"]:
        for key, value in result["per_layer"].items():
            print(f"  {key:<30} {value:>14.6g}")
        for i, job in enumerate(result["per_job_layers"]):
            print(f"  job {i}: distance calls {job['spaces.distance.calls']:.0f}, "
                  f"pairs {job['spaces.distance.pairs']:.0f}; "
                  f"certify calls {job['transform.certify.calls']:.0f}")
    for job in result["jobs"]:
        if job["problem"]:
            print(f"  FAILED {' '.join(job['args'])}: {job['problem']}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # turn SIGTERM into SystemExit so a running job is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (SRC / "zonalpd" / "__init__.py").is_file():
        print(f"run.py: no zonalpd sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env_info = environment()
    env_info["pinned_cpu"] = pin_to_one_cpu()

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), env_info)
        report(result)
        if args.trace:
            metrics = {k: {"value": v, "unit": UNITS[k]}
                       for k, v in result["per_layer"].items()}
        else:
            metrics = {k: {"value": result["end_to_end"][k], "unit": u}
                       for k, u in END_TO_END.items()}
        print(json.dumps({"correct": result["failed"] == 0,
                          "attempted": result["attempted"],
                          "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
