"""Reflected weakly interacting diffusions: simulation, distances,
Laplace/variational estimation, rate upper bounds, and submartingale
diagnostics."""

from .controls import (ConstantPolicy, ControlPolicy, FeedbackPolicy,
                       PiecewiseConstantPolicy, PolicyFamily, ZeroPolicy,
                       constant_family, ensemble_cost, feedback_family)
from .diagnostics import (SubmartingaleReport, TestFunction,
                          boundary_condition_check, calibrate_bias_allowance,
                          generator_apply, mf_process,
                          standard_test_functions, submartingale_test)
from .ensemble import (Ensemble, empirical_measure_at, marginal_flow,
                       simulate_particle_system,
                       solve_mckean_vlasov_reference, write_paths_csv)
from .errors import (BudgetError, ConfigError, InputError, ModelError,
                     PreconditionError)
from .geometry import ConvexDomain, skorokhod_1d
from .integrator import (TimeGrid, brownian_increments, coarsen_increments,
                         simulate_reflected_path)
from .ldp import (Functional, LaplaceEstimate, OptimizationResult,
                  RateEstimate, VariationalEstimate, constant_functional,
                  distance_to_target_functional, estimate_rate,
                  laplace_functional_mc, optimize_controls,
                  terminal_mean_functional, variational_objective)
from .measures import BLEstimate, bl_distance
from .model import (MeasureSummary, ModelSpec, eval_coefficients, make_m1,
                    make_m2, make_m3, make_drifted, model_from_config)
from .rng import substream

__version__ = "0.1.0"
