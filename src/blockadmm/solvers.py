"""Dual-ascent solvers over exact or linearized block sweeps.

All variants share the same outer structure: a primal pass over the
blocks at fixed multiplier y, then the dual ascent step

    y^{r+1} = y^r + alpha * (q - E x^{r+1}) .

Primal passes:

* ``gauss_seidel``  — cyclic exact minimization: block k is minimized
  with blocks j < k at their new values and blocks j > k at their old
  values.
* ``proximal``      — one linearized (prox-gradient) step per block with
  step 1/beta, beta above the curvature bound nu; exact block solves are
  not required, so this variant works without full-rank coupling blocks.
* ``jacobi``        — every block minimized against the old iterate,
  giving a direction w, then the damped update x + (w - x) / K.
* ``jacobi_unsafe`` — the undamped Jacobi sweep x <- w. May increase the
  augmented Lagrangian; kept as a demonstrator, with the increase
  detected and flagged.

One function, ``_primal_pass``, takes the pass of any variant; ``run``
and the public ``step_*`` functions both call it, and the inner
minimization of :mod:`blockadmm.lagrangian` repeats the Gauss-Seidel
pass to evaluate d(y). Block solves read their per-rho constants from
the block (``_BuiltBlock.constants``).

With alpha="auto" the driver starts at alpha = 0.1 * rho and enforces
monotonicity of the combined optimality gap via a lookahead: a candidate
dual step is committed only if the monitored quantity
L(x^{r+2}; y^{r+1}) - 2 d(y^{r+1}), whose decrease is equivalent to the
decrease of the combined primal-dual gap, does not increase. Otherwise
alpha is halved (at most 6 times per iteration) and the candidate is
discarded, i.e. the run restarts from the last monotone iterate.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .lagrangian import (
    ConvergenceError,
    augmented_lagrangian,
    minimize_lagrangian,
    proximal_gradient,
)
from .problem import check_assumptions, objective
from .trace import TraceRecord

__all__ = [
    "VARIANTS",
    "SolverConfig",
    "RunResult",
    "solve_block",
    "nu_constant",
    "default_beta",
    "step_gauss_seidel",
    "step_proximal",
    "step_jacobi",
    "step_jacobi_unsafe",
    "run",
]

VARIANTS = ("gauss_seidel", "proximal", "jacobi", "jacobi_unsafe")

# Slack for the combined-gap monotonicity monitor in auto-alpha mode.
# Kept tighter than the slack used when traces are re-checked offline so
# that accepted runs also pass diagnosis.
_MONITOR_SLACK = 5e-10


@dataclass
class SolverConfig:
    """Configuration of one solver run.

    variant : one of VARIANTS.
    rho : augmented Lagrangian penalty, positive.
    alpha : dual stepsize; a nonnegative float, or "auto" for the
        monitored adaptive scheme starting at 0.1 * rho.
    beta : proximal-variant stepsize parameter; must exceed the curvature
        bound nu. None selects 1.01 * nu.
    tol_outer : outer stopping tolerance on max(prox-gradient norm,
        feasibility residual).
    tol_block : tolerance for exact block subproblem solves; None selects
        min(1e-10, tol_outer / 100).
    max_iters : cap on outer iterations.
    trace_every : record every this-many iterations.
    seed : recorded with the run for reproducibility bookkeeping.
    """

    variant: str = "gauss_seidel"
    rho: float = 1.0
    alpha: object = "auto"
    beta: float | None = None
    tol_outer: float = 1e-8
    tol_block: float | None = None
    max_iters: int = 1000
    trace_every: int = 1
    seed: int = 0


@dataclass
class RunResult:
    """Final state and per-iteration records of a solver run; ``beta``
    and ``tol_block`` are the resolved settings it ran with."""

    x: np.ndarray
    y: np.ndarray
    iterations: int
    termination: str  # converged | max_iters | non_monotone_warning | diverged
    records: list
    final_alpha: float
    objective: float
    feas: float
    config: SolverConfig
    beta: float | None = None
    tol_block: float | None = None
    warnings: list = field(default_factory=list)


def nu_constant(problem, rho):
    """Curvature bound nu = max_k (L_k + rho * ||E_k||^2), where L_k is
    the composed-gradient Lipschitz constant of block k. rho = 0 yields
    the bare smooth curvature (zero when no smooth terms are present)."""
    if rho < 0:
        raise ValueError("rho must be nonnegative, got %g" % rho)
    return max(b.lipschitz + rho * b.norm_E ** 2 for b in problem.blocks)


def default_beta(problem, rho):
    """Default proximal stepsize parameter 1.01 * nu."""
    nu = nu_constant(problem, rho)
    if nu <= 0:
        raise ValueError(
            "curvature bound nu is zero; the proximal variant needs a "
            "positive curvature bound"
        )
    return 1.01 * nu


def solve_block(problem, k, x, y, rho, tol_block, coupling=None,
                max_iter=50000):
    """Exactly minimize block k of the augmented Lagrangian with every
    other block fixed at its value in x.

    The block subproblem is

        min_u  h_k(u) + g_k(A_k u) - <y, E_k u>
               + (rho/2) * ||E_k u + c||^2 ,

    with c the coupling residual sum_{j != k} E_j x_j - q (precompute and
    pass it as ``coupling`` to skip a matrix-vector product). The solve
    stops when the block prox-gradient residual is at most ``tol_block``;
    a warm start that already satisfies the tolerance returns
    immediately. Scalar-curvature blocks are solved in closed form via a
    single prox; unconstrained quadratic blocks by a linear solve; the
    rest by an accelerated prox-gradient loop with adaptive restart.
    """
    if rho <= 0:
        raise ValueError("rho must be positive, got %g" % rho)
    b = problem.blocks[k]
    x = np.asarray(x, dtype=float)
    xk0 = x[b.sl].astype(float).copy()
    if coupling is None:
        coupling = problem.apply_E(x) - b.E @ xk0 - problem.q
    Ety = b.E.T @ y
    lin0 = rho * (b.E.T @ coupling) - Ety
    H, eta, Hinv, step_L = b.constants(rho)
    if H is not None:
        g0 = lin0 - b.lin_smooth

        def grad_phi(u):
            return H @ u + g0
    else:
        def grad_phi(u):
            return b.smooth_grad(u) + rho * (b.EtE @ u) + lin0

    if eta is not None:
        return b.h.prox(-g0 / eta, 1.0 / eta)
    if H is not None and b.h.kind == "zero":
        if Hinv is not None:
            u = Hinv @ (-g0)
            if float(np.linalg.norm(H @ u + g0)) <= max(tol_block, 1e-12) * (
                    1.0 + float(np.linalg.norm(g0))):
                return u
            return np.linalg.solve(H, -g0)
        u, *_ = np.linalg.lstsq(H, -g0, rcond=None)
        if float(np.linalg.norm(H @ u + g0)) <= max(tol_block, 1e-10) * (
                1.0 + float(np.linalg.norm(g0))):
            return u
        # inconsistent system: fall through to the iterative path, which
        # will fail to converge and report the best iterate.

    if step_L <= 0:
        raise ValueError(
            "block %d has no curvature; its subproblem is unbounded or "
            "degenerate" % k
        )
    step = 1.0 / step_L

    u = xk0
    if not np.isfinite(b.h.value(u)):
        u = b.h.project_domain(u)
    gu = grad_phi(u)
    res = u - b.h.prox(u - gu, 1.0)
    best = (float(np.linalg.norm(res)), u)
    if best[0] <= tol_block:
        return u
    z = u.copy()
    t_mom = 1.0
    gate = 4.0 * step * tol_block
    for it in range(max_iter):
        u_new = b.h.prox(z - step * grad_phi(z), step)
        du = u_new - u
        # The exit residual is verified at unit prox step; evaluating it
        # costs a gradient and a prox, so check only when the raw step is
        # already small, plus periodically as a safety net.
        if float(np.linalg.norm(u_new - z)) <= gate or it % 8 == 7:
            res = u_new - b.h.prox(u_new - grad_phi(u_new), 1.0)
            res_norm = float(np.linalg.norm(res))
            if res_norm < best[0]:
                best = (res_norm, u_new)
            if res_norm <= tol_block:
                return u_new
        # momentum restart on the gradient-mapping test: the latest step
        # points against the travel direction, so the momentum is stale
        if t_mom > 1.0 and float((z - u_new) @ du) > 0.0:
            t_mom = 1.0
            z = u_new
            u = u_new
            continue
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom * t_mom))
        z = u_new + ((t_mom - 1.0) / t_next) * du
        u = u_new
        t_mom = t_next
    raise ConvergenceError(
        "block %d subproblem did not reach tol=%g in %d iterations "
        "(best residual %g)" % (k, tol_block, max_iter, best[0]),
        best_x=best[1], best_value=best[0],
    )


def _primal_gauss_seidel(problem, x, y, rho, tol_block):
    """One cyclic exact sweep; returns the new iterate."""
    x_new = x.copy()
    Ex = problem.apply_E(x_new)
    for k, b in enumerate(problem.blocks):
        xk_old = x_new[b.sl].copy()
        coupling = Ex - b.E @ xk_old - problem.q
        xk = solve_block(problem, k, x_new, y, rho, tol_block,
                         coupling=coupling)
        x_new[b.sl] = xk
        Ex = Ex + b.E @ (xk - xk_old)
    return x_new


def _primal_proximal(problem, x, y, rho, beta):
    """One linearized sweep: each block takes a single prox-gradient step
    with step 1/beta, using fresh values for blocks already updated."""
    x_new = x.copy()
    Ex = problem.apply_E(x_new)
    for b in problem.blocks:
        xk_old = x_new[b.sl].copy()
        grad = (b.smooth_grad(xk_old) - b.E.T @ y
                + rho * (b.E.T @ (Ex - problem.q)))
        xk = b.h.prox(xk_old - grad / beta, 1.0 / beta)
        x_new[b.sl] = xk
        Ex = Ex + b.E @ (xk - xk_old)
    return x_new


def _jacobi_direction(problem, x, y, rho, tol_block):
    """w with every block minimized against the old iterate x."""
    w = x.copy()
    Ex = problem.apply_E(x)
    for k, b in enumerate(problem.blocks):
        coupling = Ex - b.E @ x[b.sl] - problem.q
        w[b.sl] = solve_block(problem, k, x, y, rho, tol_block,
                              coupling=coupling)
    return w


def _primal_pass(problem, variant, x, y, rho, tol_block, beta):
    """One primal pass of ``variant`` at fixed y; returns (x_next, w),
    with w the Jacobi direction (None for the cyclic sweeps). The damped
    Jacobi update x + (w - x) / K is x_next = w exactly when K = 1."""
    if variant == "gauss_seidel":
        return _primal_gauss_seidel(problem, x, y, rho, tol_block), None
    if variant == "proximal":
        return _primal_proximal(problem, x, y, rho, beta), None
    w = _jacobi_direction(problem, x, y, rho, tol_block)
    if variant == "jacobi" and problem.K > 1:
        return x + (w - x) / problem.K, w
    return w.copy(), w


def _dual_ascent(y, alpha, res):
    """The dual step y + alpha * (q - E x_next), given res = E x_next - q."""
    return y - alpha * res


def _step(problem, variant, x, y, rho, alpha, tol_block=None, beta=None):
    x_next, w = _primal_pass(problem, variant, x, y, rho, tol_block, beta)
    res = problem.apply_E(x_next) - problem.q
    return x_next, _dual_ascent(y, alpha, res), w


def step_gauss_seidel(problem, x, y, rho, alpha, tol_block=1e-12):
    """One full iteration: cyclic exact sweep, then dual ascent."""
    return _step(problem, "gauss_seidel", x, y, rho, alpha, tol_block)[:2]


def step_proximal(problem, x, y, rho, alpha, beta):
    """One full iteration: linearized sweep with step 1/beta, then dual
    ascent. beta must exceed the curvature bound nu."""
    nu = nu_constant(problem, rho)
    if beta <= nu:
        raise ValueError(
            "proximal stepsize parameter beta=%g must exceed the "
            "curvature bound nu=%g" % (beta, nu)
        )
    return _step(problem, "proximal", x, y, rho, alpha, beta=beta)[:2]


def step_jacobi(problem, x, y, rho, alpha, tol_block=1e-12):
    """One damped Jacobi iteration; returns (x_next, y_next, w) with
    x_next = x + (w - x) / K (and x_next = w exactly when K = 1)."""
    return _step(problem, "jacobi", x, y, rho, alpha, tol_block)


def step_jacobi_unsafe(problem, x, y, rho, alpha, tol_block=1e-12):
    """One undamped Jacobi iteration (x_next = w). No descent guarantee;
    the augmented Lagrangian may increase."""
    return _step(problem, "jacobi_unsafe", x, y, rho, alpha, tol_block)


def _resolve(problem, config):
    if config.variant not in VARIANTS:
        raise ValueError(
            "unknown variant %r; expected one of %s"
            % (config.variant, ", ".join(VARIANTS))
        )
    if config.rho <= 0:
        raise ValueError("rho must be positive, got %g" % config.rho)
    if config.tol_outer <= 0:
        raise ValueError("tol_outer must be positive")
    if config.max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    if config.trace_every < 1:
        raise ValueError("trace_every must be at least 1")
    auto = isinstance(config.alpha, str)
    if auto:
        if config.alpha != "auto":
            raise ValueError("alpha must be a nonnegative float or 'auto'")
        alpha = 0.1 * config.rho
    else:
        alpha = float(config.alpha)
        if alpha < 0:
            raise ValueError("alpha must be nonnegative, got %g" % alpha)
    tol_block = config.tol_block
    if tol_block is None:
        tol_block = min(1e-10, config.tol_outer / 100.0)
    beta = None
    if config.variant == "proximal":
        nu = nu_constant(problem, config.rho)
        if config.beta is None or config.beta == "auto":
            beta = default_beta(problem, config.rho)
        elif isinstance(config.beta, str):
            raise ValueError("beta must be a positive float or 'auto'")
        else:
            beta = float(config.beta)
        if beta <= nu:
            raise ValueError(
                "beta=%g must exceed the curvature bound nu=%g" % (beta, nu)
            )
    return auto, alpha, tol_block, beta


def run(problem, config=None, init=None, **overrides):
    """Drive a solver variant to convergence, recording a trace.

    Starts from x = 0 projected onto each block's domain and y = 0
    (or from ``init=(x0, y0)`` when given; x0 is projected onto the
    domains), stops when max(prox-gradient norm, feasibility residual)
    falls below ``tol_outer``, and returns a RunResult whose records
    carry the full iterate states (one record per dual transition).

    With alpha="auto" the lookahead monitor solves d(y^r) to
    max(10 * tol_block, 1e-11) anyway, so each record also carries that
    value as ``d_y`` and its inner minimizer x(y^r) as ``xbar``;
    :func:`blockadmm.diagnostics.compute_gaps` polishes both instead of
    solving again. Fixed-alpha records leave them NaN and None.
    """
    if config is None:
        config = SolverConfig(**overrides)
    elif overrides:
        config = replace(config, **overrides)
    auto, alpha, tol_block, beta = _resolve(problem, config)
    rho = config.rho
    variant = config.variant
    warnings = []
    report = check_assumptions(problem)
    if variant in ("gauss_seidel", "jacobi") and \
            not report.ok_for_variant[variant]:
        warnings.append(
            "some coupling blocks lack full column rank; the descent "
            "constant for %s is not available on this problem" % variant
        )
    if variant == "jacobi_unsafe":
        warnings.append(
            "undamped Jacobi sweeps have no descent guarantee"
        )

    def dual_eval(yc, warm):
        return minimize_lagrangian(problem, yc, rho,
                                   tol=max(tol_block * 10.0, 1e-11),
                                   warm_start=warm)

    x = problem.project_domains(np.zeros(problem.n))
    y = np.zeros(problem.m)
    if init is not None:
        x0, y0 = init
        x0 = np.asarray(x0, dtype=float)
        y0 = np.asarray(y0, dtype=float)
        if x0.shape != (problem.n,) or y0.shape != (problem.m,):
            raise ValueError(
                "init shapes %s, %s do not match problem dimensions "
                "(%d, %d)" % (x0.shape, y0.shape, problem.n, problem.m)
            )
        x = problem.project_domains(x0)
        y = y0.copy()
    records = []
    non_monotone = False
    mu_prev = None
    d_cur, xbar_cur = float("nan"), None
    pending = None
    termination = "max_iters"
    r = 0
    # the finiteness check below reports a diverging run's overflow
    with np.errstate(all="ignore"):
        while True:
            pg_norm = float(np.linalg.norm(
                proximal_gradient(problem, x, y, rho)))
            feas = float(np.linalg.norm(problem.apply_E(x) - problem.q))
            if max(pg_norm, feas) <= config.tol_outer:
                termination = "converged"
                break
            if r >= config.max_iters:
                break
            if pending is not None:
                x_next, w = pending
                pending = None
            else:
                x_next, w = _primal_pass(problem, variant, x, y, rho,
                                         tol_block, beta)
            L_val = augmented_lagrangian(problem, x_next, y, rho)
            if variant == "jacobi_unsafe":
                L_at_x = augmented_lagrangian(problem, x, y, rho)
                if L_val > L_at_x + 1e-12 * (1.0 + abs(L_at_x)):
                    if not non_monotone:
                        warnings.append(
                            "augmented Lagrangian increased at iteration %d "
                            "(undamped Jacobi)" % r
                        )
                    non_monotone = True
            res_next = problem.apply_E(x_next) - problem.q
            if auto:
                if mu_prev is None:
                    inner = dual_eval(y, x_next)
                    d_cur, xbar_cur = inner.d_value, inner.x_of_y
                    mu_prev = L_val - 2.0 * d_cur
                used_alpha = alpha
                accepted = False
                for attempt in range(7):
                    y_cand = _dual_ascent(y, used_alpha, res_next)
                    x_next2, w2 = _primal_pass(problem, variant, x_next,
                                               y_cand, rho, tol_block, beta)
                    cand = dual_eval(y_cand, x_next2)
                    mu_cand = (augmented_lagrangian(problem, x_next2, y_cand,
                                                    rho) - 2.0 * cand.d_value)
                    if mu_cand <= mu_prev + _MONITOR_SLACK:
                        accepted = True
                        break
                    if attempt < 6:
                        used_alpha *= 0.5
                if not accepted:
                    if not non_monotone:
                        warnings.append(
                            "combined gap still increased after 6 stepsize "
                            "halvings at iteration %d" % r
                        )
                    non_monotone = True
                alpha = used_alpha
                y_next = y_cand
                pending = (x_next2, w2)
                record_d, record_xbar = d_cur, xbar_cur
                mu_prev = mu_cand
                d_cur, xbar_cur = cand.d_value, cand.x_of_y
            else:
                used_alpha = alpha
                y_next = _dual_ascent(y, used_alpha, res_next)
                record_d, record_xbar = float("nan"), None
            if not np.isfinite(x_next).all() or not np.isfinite(y_next).all():
                termination = "diverged"
                warnings.append("iterates became non-finite at iteration %d; "
                                "the result holds the last finite one" % r)
                break
            if r % config.trace_every == 0:
                records.append(TraceRecord(
                    r=r,
                    L_val=L_val,
                    feas=feas,
                    step=float(np.linalg.norm(x_next - x)),
                    pg=pg_norm,
                    d_y=record_d,
                    f_val=objective(problem, x_next),
                    alpha=used_alpha,
                    x=x.copy(),
                    y=y.copy(),
                    x_next=x_next.copy(),
                    w=None if w is None else w.copy(),
                    xbar=record_xbar,
                ))
            x, y = x_next, y_next
            r += 1
        if termination == "max_iters" and non_monotone:
            termination = "non_monotone_warning"
        return RunResult(
            x=x,
            y=y,
            iterations=r,
            termination=termination,
            records=records,
            final_alpha=alpha,
            objective=objective(problem, x),
            feas=float(np.linalg.norm(problem.apply_E(x) - problem.q)),
            config=config,
            beta=beta,
            tol_block=tol_block,
            warnings=warnings,
        )
