"""Jacobi-coefficient certification for zonal kernels on compact two-point
homogeneous spaces: coefficient transforms, positive-definiteness verdicts,
Riesz phase-transition scans, Poisson smoothing, and energy functionals.
"""
from .spaces import Space, make_space
from .jacobi import (
    JacobiParams,
    QuadratureRule,
    jacobi_eval_all,
    dim_m_n,
    eigenvalue_lambda_n,
    gauss_jacobi_rule,
)
from .kernels import (
    ZonalKernel,
    riesz_geodesic,
    riesz_chordal,
    log_geodesic,
    log_chordal,
    gaussian_kernel,
    cos_power_kernel,
    jacobi_unit_kernel,
    product_kernel,
    linear_combination,
    parse_kernel,
)
from .transform import (
    CoefficientReport,
    Hyp2F1Args,
    coefficients_de,
    coefficients_gj,
    certify_coefficients,
    synthesize,
    hyp2f1,
    poisson_kernel,
)

__version__ = "0.1.0"

__all__ = [
    "Space",
    "make_space",
    "JacobiParams",
    "QuadratureRule",
    "jacobi_eval_all",
    "dim_m_n",
    "eigenvalue_lambda_n",
    "gauss_jacobi_rule",
    "ZonalKernel",
    "riesz_geodesic",
    "riesz_chordal",
    "log_geodesic",
    "log_chordal",
    "gaussian_kernel",
    "cos_power_kernel",
    "jacobi_unit_kernel",
    "product_kernel",
    "linear_combination",
    "parse_kernel",
    "CoefficientReport",
    "Hyp2F1Args",
    "coefficients_de",
    "coefficients_gj",
    "certify_coefficients",
    "synthesize",
    "hyp2f1",
    "poisson_kernel",
    "PDVerdict",
    "ScanResult",
    "classify",
    "scan_riesz",
    "all_spaces_check",
    "table1",
    "DiscreteMeasure",
    "PerturbedMeasureSpec",
    "energy_uniform",
    "energy_discrete",
    "energy_perturbed",
    "__version__",
]

# modules imported on first use of one of their names (PEP 562): the energy
# functions need numpy, which the rest of the package does without, and only
# classify, scan and table1 run the verdicts
_LAZY = {
    **dict.fromkeys(("PDVerdict", "ScanResult", "classify", "scan_riesz",
                     "all_spaces_check", "table1"), "posdef"),
    **dict.fromkeys(("DiscreteMeasure", "PerturbedMeasureSpec", "energy_uniform",
                     "energy_discrete", "energy_perturbed"), "energy"),
}


def __getattr__(name):
    if name in _LAZY:
        from importlib import import_module

        return getattr(import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
