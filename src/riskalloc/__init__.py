"""Dynamic convex risk measures and capital allocation on lattices and paths."""

from .allocation import (CarRule, QuadratureSpec, SolveCache, averaged_density,
                         car_aumann_shapley, car_from_alloc_driver,
                         car_gradient, car_marginal, car_penalized_as,
                         car_subdifferential, make_rule)
from .drivers import (AllocDriver, Driver, alloc_driver_entropic_drift,
                      alloc_driver_entropic_two_level, alloc_driver_f_family,
                      alloc_driver_gradient, alloc_driver_marginal,
                      alloc_driver_subdiff, driver_entropic, driver_scaled_norm,
                      driver_zero, make_driver)
from .engine import (BasisSpec, BsdeSolution, RevealedClaim, TerminalClaim,
                     combine_claims, lsmc_block_estimate, lsmc_standard_error,
                     solve_alloc_lsmc, solve_alloc_tree, solve_lsmc,
                     solve_stack, solve_tree)
from .errors import (ConfigError, InadmissibleKernelError, InvalidArgumentError,
                     NotApplicableError, NumericalFailureError,
                     PayoffEvaluationError, PayoffSyntaxError,
                     RejectedConfigurationError, RiskAllocError)
from .grid import (PathEnsemble, TimeGrid, TreeModel, build_grid, build_tree,
                   sample_paths)
from .measure import (GirsanovKernel, constant_kernel, dual_value,
                      expectation_under_Q, kernel_from_subgradient, penalty, rho)
from .oracles import (entropic_drift_car, entropic_gradient_car, entropic_rho,
                      entropic_two_level_car, worst_case_drift_rho)
from .payoff import PayoffExpr, evaluate, parse_payoff, to_string

__version__ = "0.1.0"
