"""Augmented Lagrangian, its prox-gradient residual, and the dual function.

For the block problem

    min  f(x) = sum_k g_k(A_k x_k) + h_k(x_k)   s.t.  E x = q,

the augmented Lagrangian with penalty rho > 0 is

    L(x; y) = f(x) + <y, q - E x> + (rho / 2) * ||q - E x||^2 ,

the dual function is d(y) = min_x L(x; y), and the dual gradient is
grad d(y) = q - E x(y) for any inner minimizer x(y); the constraint image
E x(y) is the same for every inner minimizer, which is what makes the
gradient well defined, and grad d is Lipschitz with constant 1 / rho.

The inner minimization iterates the cyclic block coordinate descent
sweep x -> S(x), which is the solver's own Gauss-Seidel primal pass
(``blockadmm.solvers._primal_gauss_seidel``: each block subproblem is
solved to high accuracy by :func:`blockadmm.solvers.solve_block`). It
speeds the sweep up with safeguarded Anderson acceleration (Walker & Ni,
SIAM J. Numer. Anal. 49, 2011; Zhang, O'Donoghue & Boyd, "Globally
convergent type-I Anderson acceleration for nonsmooth fixed-point
iterations", arXiv:1808.03971):
after each sweep the last few sweep residuals S(x) - x are combined into
an extrapolated point, which replaces S(x) only when its prox-gradient
residual is smaller. Sweeps repeat until the prox-gradient residual of
the whole iterate is below tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problem import objective, residual_vector

__all__ = [
    "ConvergenceError",
    "InnerSolveResult",
    "augmented_lagrangian",
    "smooth_gradient",
    "proximal_gradient",
    "minimize_lagrangian",
    "dual_value",
    "dual_gradient",
]


class ConvergenceError(RuntimeError):
    """An iterative solve hit its iteration cap.

    Carries the best iterate seen so far in ``best_x`` (and, for outer
    loops, ``best_value``) so callers can inspect or resume.
    """

    def __init__(self, message, best_x=None, best_value=None):
        super().__init__(message)
        self.best_x = best_x
        self.best_value = best_value


def _check_xy(problem, x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (problem.n,):
        raise ValueError("x has shape %s, expected (%d,)" % (x.shape, problem.n))
    if y.shape != (problem.m,):
        raise ValueError("y has shape %s, expected (%d,)" % (y.shape, problem.m))
    return x, y


def augmented_lagrangian(problem, x, y, rho):
    """L(x; y) = f(x) + <y, q - E x> + (rho/2) * ||q - E x||^2."""
    if rho <= 0:
        raise ValueError("rho must be positive, got %g" % rho)
    x, y = _check_xy(problem, x, y)
    res = residual_vector(problem, x)          # E x - q
    f = objective(problem, x)
    return f - float(np.dot(y, res)) + 0.5 * rho * float(np.dot(res, res))


def smooth_gradient(problem, x, y, rho):
    """Gradient of the smooth part of L(.; y): per block,

        A_k^T grad g_k(A_k x_k) - E_k^T y + rho * E_k^T (E x - q).

    rho = 0 is allowed here (plain Lagrangian gradient); the augmented
    value and the dual function still require rho > 0.
    """
    if rho < 0:
        raise ValueError("rho must be nonnegative, got %g" % rho)
    x, y = _check_xy(problem, x, y)
    w = rho * residual_vector(problem, x) - y
    out = np.empty(problem.n)
    for b in problem.blocks:
        out[b.sl] = b.smooth_grad(x[b.sl]) + b.E.T @ w
    return out


def proximal_gradient(problem, x, y, rho):
    """Prox-gradient residual of L(.; y) at x with unit step, blockwise:

        x_k - prox_{h_k}(x_k - [smooth gradient]_k) .

    Zero exactly at inner minimizers; its norm is the inner stopping
    criterion everywhere in this package.
    """
    g = smooth_gradient(problem, x, y, rho)
    x = np.asarray(x, dtype=float)
    out = np.empty(problem.n)
    for b in problem.blocks:
        xk = x[b.sl]
        out[b.sl] = xk - b.h.prox(xk - g[b.sl], 1.0)
    return out


@dataclass
class InnerSolveResult:
    """Result of minimizing L(.; y).

    x_of_y : an inner minimizer.
    d_value : d(y) = L(x_of_y; y).
    dual_grad : q - E x_of_y.
    prox_grad_norm_at_exit : residual norm at the returned iterate.
    iterations : number of full block sweeps performed.
    """

    x_of_y: np.ndarray
    d_value: float
    dual_grad: np.ndarray
    prox_grad_norm_at_exit: float
    iterations: int


# Number of past sweep residuals the Anderson extrapolation combines.
_ANDERSON_MEMORY = 5


def minimize_lagrangian(problem, y, rho, tol=1e-10, warm_start=None,
                        max_sweeps=None):
    """Minimize L(.; y) by Anderson-accelerated cyclic block coordinate
    descent.

    Each sweep S is the Gauss-Seidel primal pass of the solver: it
    solves every block subproblem exactly (to a tolerance well below
    ``tol``, loosened while the iterate is still far from the
    minimizer). After the sweep, the recent residuals f = S(x) - x give
    the Anderson extrapolation (Walker & Ni 2011): with the columns of dF
    and dG the last (at most five) successive differences of f and of
    S(x) over the iterates, and gamma
    the least-squares solution of dF gamma = f, the candidate is S(x) -
    dG gamma projected onto the block domains. The candidate replaces
    S(x) only if its prox-gradient residual norm is finite and smaller
    than that of S(x); otherwise the history is cleared and S(x) is kept
    (the safeguard of Zhang, O'Donoghue & Boyd, arXiv:1808.03971), so
    no step ends with a larger residual than the plain sweep from the
    same iterate would have.

    The solve stops once the full prox-gradient residual norm is at most
    ``tol``; ``iterations`` in the result counts sweeps, and a warm start
    that already meets ``tol`` returns after none. Raises
    ConvergenceError (carrying the best iterate seen, swept or
    extrapolated) if the sweep cap is reached.
    """
    from .solvers import _primal_gauss_seidel

    if rho <= 0:
        raise ValueError("rho must be positive, got %g" % rho)
    y = np.asarray(y, dtype=float)
    if y.shape != (problem.m,):
        raise ValueError("y has shape %s, expected (%d,)" % (y.shape, problem.m))
    if warm_start is None:
        x = problem.project_domains(np.zeros(problem.n))
    else:
        x = np.asarray(warm_start, dtype=float).copy()
        if x.shape != (problem.n,):
            raise ValueError("warm_start has wrong shape")
    if max_sweeps is None:
        max_sweeps = 100 * problem.K * max(problem.n, 1)
    block_tol = tol / (10.0 * np.sqrt(problem.K))

    def pg_norm(z):
        return float(np.linalg.norm(proximal_gradient(problem, z, y, rho)))

    npg = pg_norm(x)
    best_norm = npg
    best_x = x.copy()
    sweeps = 0
    dF, dG = [], []          # differences of residuals and of sweep images
    f_prev = g_prev = None
    while not npg <= tol:    # a NaN residual keeps sweeping to the cap
        if sweeps >= max_sweeps:
            raise ConvergenceError(
                "inner minimization did not reach tol=%g in %d sweeps "
                "(best residual %g)" % (tol, max_sweeps, best_norm),
                best_x=best_x, best_value=best_norm,
            )
        # Blocks far from the joint fixed point need not be polished to
        # the final tolerance; tighten as the full residual shrinks.
        sweep_tol = max(block_tol, min(1e-4, 0.01 * npg))
        g = _primal_gauss_seidel(problem, x, y, rho, sweep_tol)
        sweeps += 1
        f = g - x
        x, npg = g, pg_norm(g)
        if not np.isfinite(npg):
            dF, dG, f_prev = [], [], None
        else:
            if f_prev is not None:
                dF.append(f - f_prev)
                dG.append(g - g_prev)
                del dF[:-_ANDERSON_MEMORY], dG[:-_ANDERSON_MEMORY]
                gamma = np.linalg.lstsq(np.column_stack(dF), f,
                                        rcond=None)[0]
                xa = problem.project_domains(g - np.column_stack(dG) @ gamma)
                npg_a = pg_norm(xa)
                if npg_a < npg:
                    x, npg = xa, npg_a
                else:
                    dF, dG = [], []
            f_prev, g_prev = f, g
        if npg < best_norm:
            best_norm = npg
            best_x = x.copy()
    d_val = augmented_lagrangian(problem, x, y, rho)
    dual_grad = problem.q - problem.apply_E(x)
    return InnerSolveResult(
        x_of_y=x,
        d_value=d_val,
        dual_grad=dual_grad,
        prox_grad_norm_at_exit=npg,
        iterations=sweeps,
    )


def dual_value(problem, y, rho, tol=1e-10, warm_start=None):
    """d(y) = min_x L(x; y)."""
    return minimize_lagrangian(problem, y, rho, tol=tol,
                               warm_start=warm_start).d_value


def dual_gradient(problem, y, rho, tol=1e-10, warm_start=None):
    """grad d(y) = q - E x(y)."""
    return minimize_lagrangian(problem, y, rho, tol=tol,
                               warm_start=warm_start).dual_grad
