"""The package's public surface: one exported name per concept."""

import importlib
import types

import blockadmm

# the names ``import blockadmm`` exports besides its submodules
_PUBLIC = {
    # problems and terms
    "AssumptionReport", "Block", "Problem", "SmoothTerm", "add_slack_block",
    "build_problem", "check_assumptions", "feasibility_residual",
    "load_problem", "objective", "problem_from_doc", "problem_to_doc",
    "save_problem",
    "BoxIndicator", "GroupL2", "L1", "Linear", "NonnegIndicator",
    "SparseGroup", "Sum", "Zero", "prox",
    # inner minimization
    "ConvergenceError", "InnerSolveResult", "augmented_lagrangian",
    "minimize_lagrangian", "proximal_gradient", "solve_block",
    # solvers
    "RunResult", "SolverConfig", "default_beta", "nu_constant", "run",
    "step",
    # diagnostics
    "DiagnosticsReport", "Reference", "alpha_bound_estimate",
    "check_descent_lemma", "check_dual_lipschitz",
    "check_function_value_convergence", "check_gap_decrease",
    "compute_gaps", "constructive_sigma", "estimate_error_bound_constants",
    "estimate_rate", "gamma_value", "reference_solution", "run_diagnostics",
    # instances and traces
    "gen_consensus", "gen_group_l2", "gen_l1_kblock", "gen_lasso",
    "TraceRecord", "read_trace_csv", "records_equal", "write_trace_csv",
}

_MODULES = ("cli", "diagnostics", "generators", "lagrangian", "problem",
            "prox", "solvers", "trace")


def test_public_surface_is_pinned():
    # a removed name that comes back, a new one, or an __all__ entry that
    # names nothing fails here
    exported = {name for name, value in vars(blockadmm).items()
                if not name.startswith("_")
                and not isinstance(value, types.ModuleType)}
    assert exported == _PUBLIC
    for module_name in _MODULES:
        # importlib: the ``prox`` function shadows the ``prox`` module
        module = importlib.import_module("blockadmm." + module_name)
        stale = [name for name in getattr(module, "__all__", ())
                 if not hasattr(module, name)]
        assert not stale, (module_name, stale)
