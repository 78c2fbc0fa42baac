"""biharm: radial variational solver and diagnostics for bi-harmonic
ground states with critical exponential nonlinearities (and the 2-D
Laplacian analogue)."""

__version__ = "0.1.0"

from .grid import (RadialField, RadialGrid, bilaplacian, build_grid,
                   default_grid, h_norms, integrate, radial_laplacian)
from .model import (ConditionReport, ConstantPotential, NonlinearitySpec,
                    OverflowCapError, ProblemConfig, RadialPotential,
                    check_conditions, eval_f, eval_g_lambda, eval_potential,
                    exact_growth_family, exp_critical, exp_critical_config,
                    radial_potential, user_nonlinearity)
from .functionals import (AdamsRatioReport, FunctionalReport, MassTerms,
                          adams_ratio_search, evaluate_all,
                          nehari_energy_identity_gap)
from .rearrangement import (RearrangementReport, SpectralProfile,
                            fourier_radial, fourier_rearrange,
                            inverse_fourier_radial, schwarz_profile)
from .sequences import (MoserParams, WitnessReport, moser_estimates, moser_field,
                        necessity_witness, plateau_field)
from .solvers import (GapReport, SolveReport, SolverOptions, gradient_action,
                      gradient_quadratic, limiting_gap, minimize_nehari,
                      minimize_pohozaev, nehari_sign_scan, project_nehari,
                      project_pohozaev, recover_solution, residual_weak)
from .diagnostics import (GrowthClassification, bounded_functional_probe,
                          classify_growth)
from .expressions import ParseError, parse_expression

__all__ = [name for name in dir() if not name.startswith("_")]
