"""Command-line interface: gen, solve, sweep, diagnose.

Exit codes: 0 success; 1 usage or input error, an output path that
cannot be written included; 2 solver failure (divergence, an iteration
cap, or a runtime error during the solve, the reference solve or the
diagnosis); 3 diagnostics violation (at least one per-iteration check
failed).
"""

from __future__ import annotations

import argparse
import sys

from .diagnostics import (
    _combined_summary,
    _tol_ref,
    compute_gaps,
    reference_solution,
    run_diagnostics,
)
from .generators import FAMILIES
from .lagrangian import ConvergenceError
from .problem import load_problem, save_problem
from .solvers import SolverConfig, _resolve, run
from .trace import (
    attach_states,
    read_states,
    read_trace_csv,
    states_path_for,
    write_checks_csv,
    write_csv,
    write_json,
    write_states,
    write_trace_csv,
)

VARIANT_NAMES = {
    "gs": "gauss_seidel",
    "prox": "proximal",
    "jacobi": "jacobi",
    "jacobi-unsafe": "jacobi_unsafe",
}


# The generator keywords gen passes on when given, as (name, type); the
# flag of n_k is --n-k.
_GEN_FLAGS = (("m", int), ("K", int), ("n_k", int), ("n_obs", int),
              ("n_feat", int), ("rows", int), ("cols", int), ("a", float),
              ("b", float), ("lam", float), ("w", float), ("noise", float))


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors reported on stderr and exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def build_parser():
    parser = _Parser(prog="blockadmm",
                     description="Block-splitting solvers and diagnostics")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p_gen = sub.add_parser("gen", help="generate a benchmark instance")
    p_gen.add_argument("--family", required=True, choices=sorted(FAMILIES))
    for name, kind in _GEN_FLAGS:
        p_gen.add_argument("--" + name.replace("_", "-"), type=kind,
                           default=None)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default=None,
                       help="output path (default: stdout)")

    p_solve = sub.add_parser("solve", help="run a solver on an instance")
    p_solve.add_argument("--problem", required=True)
    p_solve.add_argument("--variant", default="gs",
                         choices=sorted(VARIANT_NAMES))
    p_solve.add_argument("--rho", type=float, default=1.0)
    p_solve.add_argument("--alpha", default="auto",
                         help="dual stepsize, a float or 'auto'")
    p_solve.add_argument("--beta", default="auto",
                         help="proximal stepsize parameter, float or 'auto'")
    p_solve.add_argument("--tol", type=float, default=1e-8)
    p_solve.add_argument("--max-iters", type=int, default=1000)
    p_solve.add_argument("--trace", default=None,
                         help="write the iteration trace CSV here (a "
                              ".states.json sidecar is written next to it)")
    p_solve.add_argument("--report", default=None,
                         help="result JSON path (default: stdout)")

    p_sweep = sub.add_parser("sweep",
                             help="grid of dual stepsizes and variants")
    p_sweep.add_argument("--problem", required=True)
    p_sweep.add_argument("--alpha-grid", required=True,
                         help="comma-separated dual stepsizes")
    p_sweep.add_argument("--variants", default="gs",
                         help="comma-separated variant names")
    p_sweep.add_argument("--rho", type=float, default=1.0)
    p_sweep.add_argument("--tol", type=float, default=1e-8)
    p_sweep.add_argument("--max-iters", type=int, default=1000)
    p_sweep.add_argument("--tol-ref", type=float, default=1e-10)
    p_sweep.add_argument("--out", default=None,
                         help="summary CSV path (default: stdout)")

    p_diag = sub.add_parser("diagnose",
                            help="verify a recorded run against the "
                                 "descent and gap inequalities")
    p_diag.add_argument("--problem", required=True)
    p_diag.add_argument("--trace", required=True)
    p_diag.add_argument("--tol-ref", type=float, default=1e-10)
    p_diag.add_argument("--report", default=None,
                        help="report JSON path (default: stdout)")
    p_diag.add_argument("--checks", default=None,
                        help="per-iteration check CSV path")
    return parser


def _gen_kwargs(args):
    return {name: getattr(args, name) for name, _ in _GEN_FLAGS
            if getattr(args, name) is not None}


def _checked(parser, prefix, check, *args, **kwargs):
    """``check(*args, **kwargs)``, with an OSError, TypeError or
    ValueError it raises turned into a usage error (exit 1) whose message
    follows ``prefix``: the one rule for every file the CLI reads or
    writes and every setting it checks."""
    try:
        return check(*args, **kwargs)
    except (OSError, TypeError, ValueError) as e:
        parser.error(prefix + str(e))


def _cmd_gen(args, parser):
    problem = _checked(parser, "", FAMILIES[args.family], seed=args.seed,
                       **_gen_kwargs(args))
    _checked(parser, "cannot write --out: ", save_problem, problem, args.out)
    return 0


def _parse_float_or_auto(text, name, parser):
    return text if text == "auto" else _checked(
        parser, "%s must be a float or 'auto': " % name, float, text)


def _cmd_solve(args, parser):
    problem = _checked(parser, "cannot load problem from %s: "
                       % args.problem, load_problem, args.problem)
    config = SolverConfig(
        variant=VARIANT_NAMES[args.variant],
        rho=args.rho,
        alpha=_parse_float_or_auto(args.alpha, "alpha", parser),
        beta=_parse_float_or_auto(args.beta, "beta", parser),
        tol_outer=args.tol,
        max_iters=args.max_iters,
    )
    _checked(parser, "", _resolve, problem, config)
    try:
        result = run(problem, config)
    except ValueError as e:
        print("solver failed: %s" % e, file=sys.stderr)
        return 2
    if args.trace:
        _checked(parser, "cannot write --trace: ", write_trace_csv,
                 result.records, args.trace)
        _checked(parser, "cannot write --trace: ", write_states,
                 result.records, states_path_for(args.trace), meta={
                     "rho": config.rho,
                     "variant": config.variant,
                     "beta": result.beta,
                     "alpha": config.alpha,
                     "tol_outer": config.tol_outer,
                     "tol_block": result.tol_block,
                 })
    _checked(parser, "cannot write --report: ", write_json, {
        "final_alpha": result.final_alpha,
        "iterations": result.iterations,
        "termination": result.termination,
        "objective": result.objective,
        "feas": result.feas,
    }, args.report)
    for note in result.warnings:
        print("warning: %s" % note, file=sys.stderr)
    if result.termination == "diverged":
        print("solver diverged: iterates became non-finite after %d "
              "iterations" % result.iterations, file=sys.stderr)
    return 0 if result.termination == "converged" else 2


_SWEEP_COLUMNS = ("variant", "alpha", "rho", "termination", "iterations",
                  "objective", "feas", "monotone_combined", "rate_mu",
                  "rate_r2")


def _cmd_sweep(args, parser):
    _checked(parser, "", _tol_ref, args.tol_ref, "--tol-ref")
    problem = _checked(parser, "cannot load problem from %s: "
                       % args.problem, load_problem, args.problem)
    alphas = _checked(parser, "bad --alpha-grid %r: " % args.alpha_grid,
                      lambda: [float(tok) for tok in
                               args.alpha_grid.split(",") if tok])
    if not alphas:
        parser.error("--alpha-grid is empty")
    variant_keys = [tok.strip() for tok in args.variants.split(",") if tok]
    for key in variant_keys:
        if key not in VARIANT_NAMES:
            parser.error("unknown variant %r" % key)
    # the settings every cell shares; each cell's alpha is its own
    _checked(parser, "", _resolve, problem, SolverConfig(
        rho=args.rho, tol_outer=args.tol, max_iters=args.max_iters))
    try:
        reference = reference_solution(problem, args.rho,
                                       tol_ref=args.tol_ref)
    except (ValueError, RuntimeError) as e:
        print("sweep failed: %s" % e, file=sys.stderr)
        return 2
    rows = []
    for key in variant_keys:
        for alpha in alphas:
            config = SolverConfig(
                variant=VARIANT_NAMES[key], rho=args.rho, alpha=alpha,
                tol_outer=args.tol, max_iters=args.max_iters,
            )
            entry = dict.fromkeys(_SWEEP_COLUMNS, "")
            entry.update(variant=key, alpha=alpha, rho=args.rho,
                         termination="error")
            try:
                result = run(problem, config)
                records, _ = compute_gaps(problem, result.records,
                                          reference, args.rho)
                _, mono, mu, r2, _ = _combined_summary(records, args.tol_ref)
                entry.update({
                    "termination": result.termination,
                    "iterations": result.iterations,
                    "objective": repr(result.objective),
                    "feas": repr(result.feas),
                    "monotone_combined": "true" if mono else "false",
                    "rate_mu": repr(mu), "rate_r2": repr(r2),
                })
            except (ConvergenceError, ValueError) as e:
                print("sweep cell variant=%s alpha=%g failed: %s"
                      % (key, alpha, e), file=sys.stderr)
            rows.append(entry)
    _checked(parser, "cannot write --out: ", write_csv, args.out,
             _SWEEP_COLUMNS, ([entry[c] for c in _SWEEP_COLUMNS]
                              for entry in rows))
    return 0


def _cmd_diagnose(args, parser):
    _checked(parser, "", _tol_ref, args.tol_ref, "--tol-ref")
    problem = _checked(parser, "cannot load problem from %s: "
                       % args.problem, load_problem, args.problem)
    records = _checked(parser, "cannot read trace %s: " % args.trace,
                       read_trace_csv, args.trace)
    sidecar = states_path_for(args.trace)
    unread = ("cannot read iterate states %s (produced by solve --trace): "
              % sidecar)
    meta, states = _checked(parser, unread, read_states, sidecar)
    _checked(parser, unread, attach_states, records, states, problem.n,
             problem.m)
    if not records:
        parser.error("trace %s holds no records" % args.trace)
    for key in ("rho", "variant"):
        if key not in meta:
            parser.error("iterate states %s hold no %r in their meta; "
                         "solve --trace writes it" % (sidecar, key))
    beta = _checked(
        parser, "iterate states %s hold a bad setting in their meta: "
        % sidecar, _resolve, problem, SolverConfig(
            variant=meta["variant"], rho=meta["rho"],
            beta=meta.get("beta")))[3]
    try:
        report, rows, _ = run_diagnostics(
            problem, records, float(meta["rho"]), variant=meta["variant"],
            beta=beta, tol_ref=args.tol_ref,
        )
    except (ValueError, RuntimeError) as e:
        print("diagnosis failed: %s" % e, file=sys.stderr)
        return 2
    if args.checks:
        _checked(parser, "cannot write --checks: ", write_checks_csv, rows,
                 args.checks)
    _checked(parser, "cannot write --report: ", write_json, report.to_doc(),
             args.report)
    failed = [row for row in rows if not row.passed]
    if failed:
        print("%d check rows failed (first: %s at r=%d)"
              % (len(failed), failed[0].check_name, failed[0].r),
              file=sys.stderr)
        return 3
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "gen":
        return _cmd_gen(args, parser)
    if args.command == "solve":
        return _cmd_solve(args, parser)
    if args.command == "sweep":
        return _cmd_sweep(args, parser)
    return _cmd_diagnose(args, parser)


if __name__ == "__main__":
    sys.exit(main())
