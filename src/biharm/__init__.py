"""biharm: radial variational solver and diagnostics for bi-harmonic
ground states with critical exponential nonlinearities (and the 2-D
Laplacian analogue).

The public names and the submodules load on first access (PEP 562), so
``import biharm`` loads no numpy and a CLI command loads only its layers.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it exports
_EXPORTS = {
    "grid": ("RadialField", "RadialGrid", "build_grid", "default_grid"),
    "model": ("ConditionReport", "ConstantPotential", "NonlinearitySpec", "OverflowCapError",
              "ProblemConfig", "RadialPotential", "check_conditions", "exact_growth_family",
              "exp_critical", "exp_critical_config", "radial_potential", "user_nonlinearity"),
    "functionals": ("AdamsRatioReport", "FunctionalReport", "MassTerms",
                    "adams_ratio_search", "evaluate_all", "nehari_energy_identity_gap"),
    "rearrangement": ("RearrangementReport", "fourier_rearrange", "hankel_transform"),
    "sequences": ("moser_estimates", "moser_field"),
    "solvers": ("GapReport", "SolveReport", "gradient_action", "gradient_quadratic",
                "limiting_gap", "minimize_nehari", "minimize_pohozaev", "nehari_sign_scan",
                "project_nehari", "project_pohozaev", "recover_solution", "residual_weak"),
    "diagnostics": ("GrowthClassification", "classify_growth"),
    "expressions": ("ParseError", "parse_expression"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "banded", "cli")

__all__ = sorted([*_HOME, *_EXPORTS, "banded"])


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
