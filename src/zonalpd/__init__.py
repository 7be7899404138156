"""Jacobi-coefficient certification for zonal kernels on compact two-point
homogeneous spaces: coefficient transforms, positive-definiteness verdicts,
Riesz phase-transition scans, Poisson smoothing, and energy functionals.

Every public name below is served on first use from its module (PEP 562),
so `import zonalpd` loads no submodule, and neither mpmath nor numpy.
"""

__version__ = "0.1.0"

# public name -> the module that defines it, and lists it in its __all__
_MODULE_OF = {
    **dict.fromkeys(("Space", "make_space"), "spaces"),
    **dict.fromkeys(("jacobi_eval_all", "dim_m_n", "eigenvalue_lambda_n"), "jacobi"),
    **dict.fromkeys(("ZonalKernel", "riesz_geodesic", "riesz_chordal", "log_geodesic",
                     "log_chordal", "gaussian_kernel", "cos_power_kernel",
                     "jacobi_unit_kernel", "product_kernel", "linear_combination",
                     "parse_kernel"), "kernels"),
    **dict.fromkeys(("CoefficientReport", "coefficients_de", "coefficients_gj",
                     "certify_coefficients", "synthesize", "poisson_kernel"), "transform"),
    **dict.fromkeys(("PDVerdict", "ScanResult", "classify", "scan_riesz",
                     "all_spaces_check", "table1"), "posdef"),
    **dict.fromkeys(("DiscreteMeasure", "PerturbedMeasureSpec", "energy_uniform",
                     "energy_discrete", "energy_perturbed"), "energy"),
}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    if name in _MODULE_OF:
        from importlib import import_module

        return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
