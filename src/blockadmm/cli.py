"""Command-line interface: gen, solve, sweep, diagnose.

Exit codes: 0 success; 1 usage or input error; 2 solver failure
(divergence, iteration cap, or runtime error during the solve);
3 diagnostics violation (at least one per-iteration check failed).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .diagnostics import (
    compute_gaps,
    estimate_rate,
    reference_solution,
    run_diagnostics,
)
from .generators import FAMILIES
from .lagrangian import ConvergenceError
from .problem import load_problem, save_problem, problem_to_doc
from .solvers import SolverConfig, run
from .trace import (
    attach_states,
    read_states,
    read_trace_csv,
    states_path_for,
    write_checks_csv,
    write_states,
    write_trace_csv,
)

VARIANT_NAMES = {
    "gs": "gauss_seidel",
    "prox": "proximal",
    "jacobi": "jacobi",
    "jacobi-unsafe": "jacobi_unsafe",
}


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
    p_gen.add_argument("--m", type=int, default=None)
    p_gen.add_argument("--K", type=int, default=None)
    p_gen.add_argument("--n-k", type=int, default=None)
    p_gen.add_argument("--n-obs", type=int, default=None)
    p_gen.add_argument("--n-feat", type=int, default=None)
    p_gen.add_argument("--rows", type=int, default=None)
    p_gen.add_argument("--cols", type=int, default=None)
    p_gen.add_argument("--a", type=float, default=None)
    p_gen.add_argument("--b", type=float, default=None)
    p_gen.add_argument("--lam", type=float, default=None)
    p_gen.add_argument("--w", type=float, default=None)
    p_gen.add_argument("--noise", type=float, default=None)
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
    p_solve.add_argument("--trace-every", type=int, default=1)
    p_solve.add_argument("--report", default=None,
                         help="result JSON path (default: stdout)")
    p_solve.add_argument("--seed", type=int, default=0)

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
    p_diag.add_argument("--seed", type=int, default=0)
    return parser


def _gen_kwargs(args):
    mapping = {
        "m": args.m, "K": args.K, "n_k": args.n_k, "n_obs": args.n_obs,
        "n_feat": args.n_feat, "rows": args.rows, "cols": args.cols,
        "a": args.a, "b": args.b, "lam": args.lam, "w": args.w,
        "noise": args.noise,
    }
    return {k: v for k, v in mapping.items() if v is not None}


def _cmd_gen(args, parser):
    gen = FAMILIES[args.family]
    try:
        problem = gen(seed=args.seed, **_gen_kwargs(args))
    except (TypeError, ValueError) as e:
        parser.error(str(e))
    if args.out:
        save_problem(problem, args.out)
    else:
        json.dump(problem_to_doc(problem), sys.stdout, indent=2)
        sys.stdout.write("\n")
    return 0


def _load_problem(path, parser):
    try:
        return load_problem(path)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
        parser.error("cannot load problem from %s: %s" % (path, e))


def _parse_alpha(text, parser):
    if text == "auto":
        return "auto"
    try:
        value = float(text)
    except ValueError:
        parser.error("alpha must be a float or 'auto', got %r" % text)
    return value


def _cmd_solve(args, parser):
    problem = _load_problem(args.problem, parser)
    alpha = _parse_alpha(args.alpha, parser)
    if args.beta == "auto":
        beta = None
    else:
        try:
            beta = float(args.beta)
        except ValueError:
            parser.error("beta must be a float or 'auto', got %r" % args.beta)
    config = SolverConfig(
        variant=VARIANT_NAMES[args.variant],
        rho=args.rho,
        alpha=alpha,
        beta=beta,
        tol_outer=args.tol,
        max_iters=args.max_iters,
        trace_every=args.trace_every,
        seed=args.seed,
    )
    try:
        result = run(problem, config)
    except ValueError as e:
        parser.error(str(e))
    except ConvergenceError as e:
        print("solver failed: %s" % e, file=sys.stderr)
        return 2
    if args.trace:
        write_trace_csv(result.records, args.trace)
        write_states(result.records, states_path_for(args.trace), meta={
            "rho": config.rho,
            "variant": config.variant,
            "beta": result.beta,
            "alpha": "auto" if alpha == "auto" else alpha,
            "tol_outer": config.tol_outer,
            "tol_block": result.tol_block,
            "seed": config.seed,
        })
    doc = {
        "final_alpha": result.final_alpha,
        "iterations": result.iterations,
        "termination": result.termination,
        "objective": result.objective,
        "feas": result.feas,
    }
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    else:
        json.dump(doc, sys.stdout, indent=2)
        sys.stdout.write("\n")
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
    problem = _load_problem(args.problem, parser)
    try:
        alphas = [float(tok) for tok in args.alpha_grid.split(",") if tok]
    except ValueError:
        parser.error("bad --alpha-grid %r" % args.alpha_grid)
    if not alphas:
        parser.error("--alpha-grid is empty")
    variant_keys = [tok.strip() for tok in args.variants.split(",") if tok]
    for key in variant_keys:
        if key not in VARIANT_NAMES:
            parser.error("unknown variant %r" % key)
    reference = reference_solution(problem, args.rho, tol_ref=args.tol_ref)
    rows = []
    for key in variant_keys:
        for alpha in alphas:
            config = SolverConfig(
                variant=VARIANT_NAMES[key], rho=args.rho, alpha=alpha,
                tol_outer=args.tol, max_iters=args.max_iters,
            )
            entry = {
                "variant": key, "alpha": alpha, "rho": args.rho,
                "termination": "error", "iterations": "",
                "objective": "", "feas": "", "monotone_combined": "",
                "rate_mu": "", "rate_r2": "",
            }
            try:
                result = run(problem, config)
                records, _ = compute_gaps(problem, result.records,
                                          reference, args.rho)
                mono = all(
                    cur.combined - prev.combined <= 10.0 * args.tol_ref
                    for prev, cur in zip(records, records[1:])
                    if cur.r == prev.r + 1
                )
                try:
                    fit = estimate_rate(records,
                                        noise_floor=100.0 * args.tol_ref)
                    mu, r2 = repr(fit.mu), repr(fit.r2)
                except ValueError:
                    mu, r2 = "nan", "nan"
                entry.update({
                    "termination": result.termination,
                    "iterations": result.iterations,
                    "objective": repr(result.objective),
                    "feas": repr(result.feas),
                    "monotone_combined": "true" if mono else "false",
                    "rate_mu": mu, "rate_r2": r2,
                })
            except (ConvergenceError, ValueError) as e:
                print("sweep cell variant=%s alpha=%g failed: %s"
                      % (key, alpha, e), file=sys.stderr)
            rows.append(entry)
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(_SWEEP_COLUMNS)
        for entry in rows:
            writer.writerow([entry[c] for c in _SWEEP_COLUMNS])
    finally:
        if args.out:
            out.close()
    return 0


def _cmd_diagnose(args, parser):
    problem = _load_problem(args.problem, parser)
    try:
        records = read_trace_csv(args.trace)
    except (OSError, ValueError) as e:
        parser.error("cannot read trace %s: %s" % (args.trace, e))
    sidecar = states_path_for(args.trace)
    try:
        meta, states = read_states(sidecar)
    except OSError as e:
        parser.error(
            "cannot read iterate states %s (produced by solve --trace): %s"
            % (sidecar, e))
    attach_states(records, states)
    if not records:
        parser.error("trace %s holds no records" % args.trace)
    rho = float(meta.get("rho", 1.0))
    variant = meta.get("variant", "gauss_seidel")
    beta = meta.get("beta")
    report, rows, _ = run_diagnostics(
        problem, records, rho, variant=variant, beta=beta,
        tol_ref=args.tol_ref, seed=args.seed,
    )
    if args.checks:
        write_checks_csv(rows, args.checks)
    doc = report.to_doc()
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    else:
        json.dump(doc, sys.stdout, indent=2)
        sys.stdout.write("\n")
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
