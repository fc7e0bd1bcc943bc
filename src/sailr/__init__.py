"""SAILR epidemic model toolkit.

Simulation of the five-compartment (S, A, I, L, R) transmission model,
adjoint-based identification of unobserved parameters from isolated/
recovered observations, state-constrained optimal testing/isolation
control via penalty continuation, and stability / reproduction-number
analysis.  All public types are immutable after construction and all
solvers are deterministic.
"""

from .control import (ControlPair, ControlResult, PenaltyConfig, StageResult,
                      constraint_violation, cost_p, cost_p_eps, default_eps_schedule,
                      solve_p, solve_p_eps, update_controls_eps)
from .errors import (BlowupError, FeasibilityError, GridMismatchError, SailrError,
                     TimeDomainError, ValidationError)
from .identify import (GAMMA, IdentCandidate, IdentConfig, IdentResult, Observations,
                       cost_p0, gradient_p0, n0_of, optimality_residual_p0,
                       project_k0, resolve_k0, solve_p0)
from .integrate import Grid, Trajectory, half_samples, integrate_forward, trapezoid
from .linearize import (AdjointTrajectory, TangentTrajectory, adjoint_p0, adjoint_p_eps,
                        duality_residual_p, duality_residual_p0, tangent_p, tangent_p0)
from .model import (CoefficientTable, ModelParams, State, TOL_NEG, param_errors, rhs,
                    simulate, total_population, validate_params)
from .scenario import (Scenario, SynthSpec, load_scenario, read_csv_columns,
                       scenario_from_dict, synth_observations, write_adjoint_csv,
                       write_summary_json, write_trajectory_csv)
from .stability import (HurwitzCheck, StabilityConfig, StabilityReport, compute_t_loc,
                        hurwitz_check, infected_jacobian, r0, s_threshold,
                        simulate_extinction)

__version__ = "0.1.0"
