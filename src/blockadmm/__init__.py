"""Block-splitting solvers for linearly coupled separable convex programs,
with per-iteration descent and duality-gap diagnostics."""

from .diagnostics import (
    DiagnosticsReport,
    Reference,
    alpha_bound_estimate,
    check_descent_lemma,
    check_dual_lipschitz,
    check_function_value_convergence,
    check_gap_decrease,
    compute_gaps,
    constructive_sigma,
    estimate_error_bound_constants,
    estimate_rate,
    gamma_value,
    reference_solution,
    run_diagnostics,
)
from .generators import gen_consensus, gen_group_l2, gen_l1_kblock, gen_lasso
from .lagrangian import (
    ConvergenceError,
    InnerSolveResult,
    augmented_lagrangian,
    minimize_lagrangian,
    proximal_gradient,
)
from .problem import (
    AssumptionReport,
    Block,
    Problem,
    SmoothTerm,
    add_slack_block,
    build_problem,
    check_assumptions,
    feasibility_residual,
    load_problem,
    objective,
    problem_from_doc,
    problem_to_doc,
    save_problem,
)
from .prox import (
    L1,
    BoxIndicator,
    GroupL2,
    Linear,
    NonnegIndicator,
    SparseGroup,
    Sum,
    Zero,
    prox,
)
from .solvers import (
    RunResult,
    SolverConfig,
    default_beta,
    nu_constant,
    run,
    solve_block,
    step,
)
from .trace import TraceRecord, read_trace_csv, records_equal, write_trace_csv

__version__ = "0.1.0"
