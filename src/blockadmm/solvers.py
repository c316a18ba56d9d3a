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
and the public ``step`` both call it. An exact block solve is
:func:`blockadmm.lagrangian.solve_block`, imported here: the module that
evaluates d(y) on the whole vector decides how every inner minimization
is done, and the primal passes call it through this module's
``solve_block``.

With alpha="auto" the driver starts at alpha = 0.1 * rho and enforces
monotonicity of the combined optimality gap via a lookahead: a candidate
dual step is committed only if the monitored quantity
L(x^{r+2}; y^{r+1}) - 2 d(y^{r+1}), whose decrease is equivalent to the
decrease of the combined primal-dual gap, does not increase. Otherwise
alpha is halved (at most 6 times per iteration) and the candidate is
discarded, i.e. the run restarts from the last monotone iterate. Each
dual point is visited once: the primal pass there, its Lagrangian parts
and d(y), and the committed candidate is the next iteration's pass. If
an inner solve hits its cap, in a primal pass or in d(y), the run ends
with termination "inner_cap", keeping its records and the last accepted
iterate.

``run`` records every iteration, consecutively whatever the termination:
an iteration that diverges or hits a cap ends the run before its record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .lagrangian import (
    ConvergenceError,
    _lagrangian_parts,
    augmented_lagrangian,
    minimize_lagrangian,
    proximal_gradient,
    solve_block,
)
from .problem import _objective, check_assumptions
from .prox import _distance, _setting, _vector
from .trace import TraceRecord

__all__ = [
    "VARIANTS",
    "SolverConfig",
    "RunResult",
    "solve_block",
    "nu_constant",
    "default_beta",
    "step",
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
    rho : augmented Lagrangian penalty, positive and finite.
    alpha : dual stepsize; a nonnegative finite float, or "auto" for the
        monitored adaptive scheme starting at 0.1 * rho.
    beta : proximal-variant stepsize parameter; a finite float above the
        curvature bound nu. None selects 1.01 * nu.
    tol_outer : outer stopping tolerance on max(prox-gradient norm,
        feasibility residual). Exact block solves run to
        min(1e-10, tol_outer / 100).
    max_iters : cap on outer iterations.
    """

    variant: str = "gauss_seidel"
    rho: float = 1.0
    alpha: object = "auto"
    beta: float | None = None
    tol_outer: float = 1e-8
    max_iters: int = 1000


@dataclass
class RunResult:
    """Final state (x and y, read-only) and per-iteration records of a
    solver run; ``beta`` and ``tol_block`` are its resolved settings."""

    x: np.ndarray
    y: np.ndarray
    iterations: int
    # converged | max_iters | non_monotone_warning | diverged | inner_cap
    termination: str
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
    rho = _setting(rho, "rho", nonnegative=True)
    return max(b.nu(rho) for b in problem.blocks)


def default_beta(problem, rho):
    """Default proximal stepsize parameter 1.01 * nu."""
    nu = nu_constant(problem, rho)
    if nu <= 0:
        raise ValueError(
            "curvature bound nu is zero; the proximal variant needs a "
            "positive curvature bound"
        )
    return 1.01 * nu


def _primal_gauss_seidel(problem, x, y, rho, tol_block):
    """One cyclic exact sweep; returns the new iterate."""
    x_new = x.copy()
    Ex = problem.apply_E(x_new)
    for k, b in enumerate(problem.blocks):
        xk_old = x_new[b.sl].copy()
        coupling = Ex - b.E.dot(xk_old) - problem.q
        xk = solve_block(problem, k, x_new, y, rho, tol_block,
                         coupling=coupling)
        x_new[b.sl] = xk
        Ex = Ex + b.E.dot(xk - xk_old)
    return x_new


def _primal_proximal(problem, x, y, rho, beta):
    """One linearized sweep: each block takes a single prox-gradient step
    with step 1/beta, using fresh values for blocks already updated."""
    x_new = x.copy()
    Ex = problem.apply_E(x_new)
    for b in problem.blocks:
        xk_old = x_new[b.sl].copy()
        grad = (b.smooth_grad(xk_old) - b.E.T.dot(y)
                + rho * b.E.T.dot(Ex - problem.q))
        xk = b.form.prox(xk_old - grad / beta, 1.0 / beta)
        x_new[b.sl] = xk
        Ex = Ex + b.E.dot(xk - xk_old)
    return x_new


def _jacobi_direction(problem, x, y, rho, tol_block):
    """w with every block minimized against the old iterate x."""
    w = x.copy()
    Ex = problem.apply_E(x)
    for k, b in enumerate(problem.blocks):
        coupling = Ex - b.E.dot(x[b.sl]) - problem.q
        w[b.sl] = solve_block(problem, k, x, y, rho, tol_block,
                              coupling=coupling)
    return w


def _primal_pass(problem, variant, x, y, rho, tol_block, beta):
    """One primal pass of ``variant`` at fixed y; returns (x_next, w),
    with w the Jacobi direction (None for the cyclic sweeps). The damped
    Jacobi update x + (w - x) / K is w itself when K = 1."""
    if variant == "gauss_seidel":
        return _primal_gauss_seidel(problem, x, y, rho, tol_block), None
    if variant == "proximal":
        return _primal_proximal(problem, x, y, rho, beta), None
    w = _jacobi_direction(problem, x, y, rho, tol_block)
    if variant == "jacobi" and problem.K > 1:
        return x + (w - x) / problem.K, w
    return w, w


def _frozen(a):
    """``a``, marked read-only: a run's records and result share arrays."""
    a.setflags(write=False)
    return a


def _dual_ascent(y, alpha, res):
    """The dual step y + alpha * (q - E x_next), given res = E x_next - q."""
    return y - alpha * res


def _check_variant(variant):
    if variant not in VARIANTS:
        raise ValueError("unknown variant %r; expected one of %s"
                         % (variant, ", ".join(VARIANTS)))


def _resolve(problem, config):
    """The checked settings of ``config``: (auto, alpha, tol_block, beta).

    rho and tol_outer must be positive and finite, max_iters an integer
    of at least 1 (not a bool), alpha "auto" or a nonnegative finite
    number, and the proximal variant's beta None, "auto" (both 1.01 *
    nu) or a finite float above the curvature bound nu. ``run``,
    ``step`` and the CLI's solve, sweep and diagnose all check their
    settings here.
    """
    _check_variant(config.variant)
    rho = _setting(config.rho, "rho")
    tol_outer = _setting(config.tol_outer, "tol_outer")
    if not (isinstance(config.max_iters, (int, np.integer))
            and not isinstance(config.max_iters, bool)
            and config.max_iters >= 1):
        raise ValueError("max_iters must be at least 1 and an integer, got "
                         "%r" % (config.max_iters,))
    auto = isinstance(config.alpha, str) and config.alpha == "auto"
    alpha = 0.1 * rho if auto else _setting(config.alpha, "alpha",
                                            nonnegative=True)
    tol_block = min(1e-10, tol_outer / 100.0)
    beta = None
    if config.variant == "proximal":
        if config.beta is None or (isinstance(config.beta, str)
                                   and config.beta == "auto"):
            beta = default_beta(problem, rho)
        else:
            beta = _beta(problem, rho, config.beta)
    return auto, alpha, tol_block, beta


def _beta(problem, rho, beta):
    """``beta`` as a finite float above the curvature bound nu at a
    checked rho, else a ValueError naming it: the one rule for the
    proximal variant's stepsize parameter."""
    beta = _setting(beta, "beta")
    nu = nu_constant(problem, rho)
    if beta <= nu:
        raise ValueError("proximal stepsize parameter beta=%g must exceed "
                         "the curvature bound nu=%g" % (beta, nu))
    return beta


def step(problem, variant, x, y, rho, alpha, beta=None):
    """One iteration of ``variant`` from (x, y): its primal pass at fixed
    y, then the dual step y + alpha * (q - E x_next).

    Returns (x_next, y_next, w), with w the Jacobi direction (None for
    the cyclic passes; x_next itself where the pass sets x_next = w). The
    settings are checked as ``run`` checks them; alpha is a nonnegative
    float, since the monitor of alpha="auto" belongs to ``run``. Block
    solves run to the tolerance ``run`` uses at its default tol_outer,
    and beta=None selects 1.01 * nu. x and y must hold finite entries,
    as ``run``'s ``init`` must.
    """
    auto, alpha, tol_block, beta = _resolve(problem, SolverConfig(
        variant=variant, rho=rho, alpha=alpha, beta=beta))
    if auto:
        raise ValueError("step takes a nonnegative float alpha; "
                         "alpha='auto' is run's monitored scheme")
    x, y = _vector(x, problem.n, "x"), _vector(y, problem.m, "y")
    for name, v in (("x", x), ("y", y)):
        if not np.isfinite(v).all():
            raise ValueError("%s must hold finite entries" % name)
    x_next, w = _primal_pass(problem, variant, x, y, rho, tol_block, beta)
    res = problem.apply_E(x_next) - problem.q
    return x_next, _dual_ascent(y, alpha, res), w


def run(problem, config=None, init=None, **overrides):
    """Drive a solver variant to convergence, recording a trace.

    Starts from x = 0 projected onto each block's domain and y = 0
    (or from ``init=(x0, y0)`` when given; x0 is projected onto the
    domains), stops when max(prox-gradient norm, feasibility residual)
    falls below ``tol_outer``, and returns a RunResult whose records
    carry the full iterate states (one record per dual transition) as
    one chain of read-only arrays: record r+1's x is record r's x_next.

    Each dual point y is visited once (``visit``): the primal pass at y,
    the Lagrangian parts of its iterate and, with alpha="auto", d(y)
    solved from that iterate to max(10 * tol_block, 1e-11). A fixed-alpha
    run makes one visit per iteration. The monitor compares candidate
    visits by L - 2 d, and the committed one is the next iteration's
    pass: its L(x^{r+2}; y^{r+1}) and f(x^{r+2}) become the next
    record's ``L_val`` and ``f_val``, and its d(y^{r+1}) and inner
    minimizer x(y^{r+1}) the next record's ``d_y`` and ``xbar``, which
    :func:`blockadmm.diagnostics.compute_gaps` polishes instead of
    solving again. Fixed-alpha records leave them NaN and None.

    A pass that leaves a non-finite iterate gets no inner solve, and the
    run ends with termination "diverged". A ConvergenceError from any
    inner solve ends it with termination "inner_cap" and one warning
    naming the iteration; the records so far are kept. ``init`` must
    hold finite entries.
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

    tol_dual = max(tol_block * 10.0, 1e-11)

    def visit(x_from, y):
        """The primal pass at y from x_from: (x_next, w, its Lagrangian
        parts, d(y)'s inner solve). d(y) is solved with alpha="auto",
        warm-started at x_next, unless x_next is not finite."""
        x_next, w = _primal_pass(problem, variant, x_from, y, rho,
                                 tol_block, beta)
        inner = None
        if auto and np.isfinite(x_next).all():
            inner = minimize_lagrangian(problem, y, rho, tol=tol_dual,
                                        warm_start=x_next)
        return x_next, w, _lagrangian_parts(problem, x_next, y, rho), inner

    x = problem.project_domains(np.zeros(problem.n))
    y = np.zeros(problem.m)
    if init is not None:
        x0, y0 = init
        x0 = _vector(x0, problem.n, "init x")
        y = _vector(y0, problem.m, "init y").copy()
        if not (np.isfinite(x0).all() and np.isfinite(y).all()):
            raise ValueError("init must hold finite entries")
        x = problem.project_domains(x0)
    res = problem.apply_E(x) - problem.q
    records = []
    non_monotone = False
    state = None        # the visit at (x, y) when the monitor made it
    termination = "max_iters"
    r = 0
    # the finiteness check below reports a diverging run's overflow
    with np.errstate(all="ignore"):
        while True:
            pg = proximal_gradient(problem, x, y, rho)
            pg_norm = math.sqrt(pg.dot(pg))
            feas = math.sqrt(res.dot(res))
            if max(pg_norm, feas) <= config.tol_outer:
                termination = "converged"
                break
            if r >= config.max_iters:
                break
            try:
                x_next, w, (f_val, res_next, L_val), inner = \
                    state or visit(x, y)
                if variant == "jacobi_unsafe":
                    L_at_x = augmented_lagrangian(problem, x, y, rho)
                    if L_val > L_at_x + 1e-12 * (1.0 + abs(L_at_x)):
                        if not non_monotone:
                            warnings.append(
                                "augmented Lagrangian increased at "
                                "iteration %d (undamped Jacobi)" % r)
                        non_monotone = True
                y_next, state = _dual_ascent(y, alpha, res_next), None
                if inner is not None:       # the monitor of alpha="auto"
                    mu, used_alpha = L_val - 2.0 * inner.d_value, alpha
                    for attempt in range(7):
                        state = visit(x_next, y_next)
                        _, _, (_, _, L_cand), cand = state
                        if cand is None or (L_cand - 2.0 * cand.d_value
                                            <= mu + _MONITOR_SLACK):
                            break
                        if attempt < 6:
                            used_alpha *= 0.5
                            y_next = _dual_ascent(y, used_alpha, res_next)
                    else:
                        if not non_monotone:
                            warnings.append(
                                "combined gap still increased after 6 "
                                "stepsize halvings at iteration %d" % r)
                        non_monotone = True
                    alpha = used_alpha
            except ConvergenceError as e:
                termination = "inner_cap"
                warnings.append(
                    "an inner solve hit its cap at iteration %d; the result "
                    "holds the last accepted iterate (%s)" % (r, e))
                break
            if not np.isfinite(x_next).all() or not np.isfinite(y_next).all():
                termination = "diverged"
                warnings.append("iterates became non-finite at iteration %d; "
                                "the result holds the last finite one" % r)
                break
            records.append(TraceRecord(
                r=r, L_val=L_val, feas=feas, step=_distance(x_next, x),
                pg=pg_norm, f_val=f_val, alpha=alpha,
                d_y=float("nan") if inner is None else inner.d_value,
                xbar=None if inner is None else inner.x_of_y,
                x=_frozen(x), y=_frozen(y), x_next=_frozen(x_next),
                w=None if w is None else _frozen(w)))
            x, y, res = x_next, y_next, res_next
            r += 1
        if termination == "max_iters" and non_monotone:
            termination = "non_monotone_warning"
        return RunResult(
            x=_frozen(x),
            y=_frozen(y),
            iterations=r,
            termination=termination,
            records=records,
            final_alpha=alpha,
            objective=_objective(problem, x),
            feas=feas,
            config=config,
            beta=beta,
            tol_block=tol_block,
            warnings=warnings,
        )
