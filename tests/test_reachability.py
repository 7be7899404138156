"""Every function and method defined in `src/zonalpd` is reached by some CLI
job, or is on ALLOWED with the reason no job reaches it.

The jobs are the golden argvs, each with `--verify`, plus the paths they
leave out: discrete energies on a point file with weights, a perturbed
Monte Carlo energy and a usage error.  They run once, in-process, through
`cli.main` under `sys.setprofile`, which records the code object of every
Python function entered.  A new function must be reached by a job or be
added to ALLOWED, with a reason; an allowed name that a job reaches, or
that no longer exists, fails the test too.
"""
import contextlib
import inspect
import io
import sys

import zonalpd
from test_golden import GOLDEN
from zonalpd import cli, energy, jacobi, kernels, posdef, spaces, transform
from zonalpd.spaces import make_rng, make_space, sample_uniform_points, save_points

MODULES = (zonalpd, cli, energy, jacobi, kernels, posdef, spaces, transform)

ALLOWED = {
    "zonalpd.__getattr__": "serves the package names on first use for library callers",
    "zonalpd.cli.run": "the process entry point: it ends the process, so jobs call main",
    "zonalpd.cli._flush_std_files": "the exit path of run",
    "zonalpd.energy.energy_uniform": "library API (demos/energies.py); the CLI prints "
                                     "energy_uniform_detail",
    "zonalpd.jacobi.gauss_jacobi_rule": "wrapped by name by perfbench/tracer.py until ROADMAP F",
    "zonalpd.posdef.all_spaces_check": "the all-spaces sweep has no command yet "
                                       "(demos/alpha_sweep.py runs it)",
    "zonalpd.posdef.AllSpacesResult.to_json_dict": "the result of all_spaces_check",
    "zonalpd.posdef.ScanResult.cpd_onset": "library API (demos/phase_transition.py)",
    "zonalpd.spaces.distance_t": "the scalar distance, wrapped by perfbench/tracer.py; the "
                                 "CLI uses distance_t_arrays",
    "zonalpd.spaces.save_points": "writes the point files that energy --points reads",
    "zonalpd.transform.CoefficientReport.signs": "library API (README library sketch)",
    "zonalpd.transform.coefficients_exact": "library API (README); a certification sums the "
                                            "expansion `_route` made, through its private body",
    "zonalpd.transform.synthesize": "library API (README, demos/poisson_smoothing.py)",
}


def _defined():
    """{module.qualname: code} of every function and method whose source is
    in the package: module functions, and the methods, properties, cached
    properties and static methods of its classes."""
    out = {}
    for mod in MODULES:
        def add(name, fn):
            code = getattr(fn, "__code__", None)
            if code is not None and code.co_filename == mod.__file__:
                out[f"{mod.__name__}.{name}"] = code

        for name, obj in vars(mod).items():
            if inspect.isfunction(obj):
                add(name, obj)
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for attr, member in vars(obj).items():
                    for fn in (member, getattr(member, "__func__", None),
                               getattr(member, "fget", None), getattr(member, "func", None)):
                        if inspect.isfunction(fn):
                            add(f"{obj.__name__}.{attr}", fn)
                            break
    return out


def _jobs(tmp_path):
    jobs = [(argv + ["--verify"], code) for argv, code, _ in GOLDEN]
    for name, kernel in (("RP2", "riesz-geodesic:s=-2"), ("CP2", "gauss-chordal:lambda=1"),
                         ("HP2", "log-chordal")):
        space = make_space(name)
        points, weights = tmp_path / f"{name}.txt", tmp_path / f"{name}-w.txt"
        save_points(str(points), space, sample_uniform_points(space, make_rng(1), 5))
        weights.write_text("0.2\n0.2\n0.2\n0.2\n0.2\n")
        jobs.append((["energy", "--space", name, "--kernel", kernel, "--points", str(points),
                      "--weights", str(weights), "--verify"], 0))
    jobs.append((["energy", "--space", "S2", "--kernel", "jacobi:n=1", "--perturb",
                  "n=1,eps=0.1", "--samples", "2000", "--seed", "3", "--threads", "1",
                  "--format", "csv", "--verify"], 0))
    jobs.append((["coeffs", "--space", "S2"], 1))
    return jobs


def test_cli_jobs_reach_all_of_src(tmp_path):
    # the stores kept between certifications start empty, so a function
    # that fills one is reached whatever ran earlier in the process
    for cache in (transform._de_nodes_at, jacobi._plan, jacobi._fixed_rounding):
        cache.cache_clear()
    jobs = _jobs(tmp_path)
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    codes = []
    for argv, _ in jobs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            sys.setprofile(profile)
            try:
                codes.append(cli.main(argv))
            finally:
                sys.setprofile(None)
    assert codes == [code for _, code in jobs]

    defined = _defined()
    unreached = sorted(name for name, code in defined.items() if code not in seen)
    assert [name for name in unreached if name not in ALLOWED] == []
    assert sorted(set(ALLOWED) - set(unreached)) == []
