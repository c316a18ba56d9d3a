"""Augmented Lagrangian, its prox-gradient residual, and the dual function.

For the block problem

    min  f(x) = sum_k g_k(A_k x_k) + h_k(x_k)   s.t.  E x = q,

the augmented Lagrangian with penalty rho > 0 is

    L(x; y) = f(x) + <y, q - E x> + (rho / 2) * ||q - E x||^2 ,

the dual function is d(y) = min_x L(x; y), and the dual gradient is
grad d(y) = q - E x(y) for any inner minimizer x(y); the constraint image
E x(y) is the same for every inner minimizer, which is what makes the
gradient well defined, and grad d is Lipschitz with constant 1 / rho.

When every block's smooth gradient is affine, L(.; y) is 1/2 x^T H x +
c^T x + h(x) with H = blockdiag(hess_smooth_k) + rho E^T E and c =
-E^T (y + rho q) - lin_smooth, and h is the separable form of
:mod:`blockadmm.prox` (l1, box, nonneg, linear, group-l2 and
sparse-group terms). The inner minimization then first runs the
safeguarded semismooth Newton kernel of the form
(:meth:`blockadmm.prox._Separable.newton`; Hintermueller, Ito & Kunisch,
SIAM J. Optim. 13, 2002; Li, Sun & Toh, arXiv:1607.05428), whose steps
are accepted only while the prox-gradient residual below falls. The
residual at a point x comes from one smooth gradient and one prox,
v = x - grad and p = prox_h(v, 1); the solve keeps (v, p) with its
iterate and hands it to Newton, which linearizes there and returns the
(v, p) of its own point, so no point is evaluated twice. Without
groups the function is polyhedral-quadratic and a finite number of
active-set steps minimize it exactly; a group adds the curvature of its
norm to each step.

Otherwise, or when Newton stops short of the tolerance, the inner
minimization iterates the cyclic block coordinate descent
sweep x -> S(x), which is the solver's own Gauss-Seidel primal pass
(``blockadmm.solvers._primal_gauss_seidel``: each block subproblem is
solved to high accuracy by :func:`blockadmm.solvers.solve_block`). It
speeds the sweep up with safeguarded Anderson acceleration (Walker & Ni,
SIAM J. Numer. Anal. 49, 2011; Zhang, O'Donoghue & Boyd, "Globally
convergent type-I Anderson acceleration for nonsmooth fixed-point
iterations", arXiv:1808.03971):
after each sweep the last few sweep residuals S(x) - x are combined into
an extrapolated point, which replaces S(x) only when its prox-gradient
residual is smaller, it lies near S(x) and L(.; y) does not rise. After
each sweep Newton is retried from the current iterate, and its point is
kept when its residual is smaller and L(.; y) does not rise. Sweeps
repeat until the prox-gradient residual of the whole iterate is below
tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problem import objective, residual_vector
from .prox import _distance

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


def _lagrangian_parts(problem, x, y, rho):
    """(f(x), E x - q, L(x; y)) for a checked x and y."""
    res = residual_vector(problem, x)
    f = objective(problem, x)
    return f, res, (f - float(np.dot(y, res))
                    + 0.5 * rho * float(np.dot(res, res)))


def augmented_lagrangian(problem, x, y, rho):
    """L(x; y) = f(x) + <y, q - E x> + (rho/2) * ||q - E x||^2."""
    if rho <= 0:
        raise ValueError("rho must be positive, got %g" % rho)
    x, y = _check_xy(problem, x, y)
    return _lagrangian_parts(problem, x, y, rho)[2]


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
    out = problem.E_mat.T @ w
    for b in problem.blocks:
        if b.smooth is not None:
            out[b.sl] += b.smooth_grad(x[b.sl])
    return out


def _gradient_and_prox(problem, x, y, rho):
    """(v, p) at x, with v = x - [smooth gradient of L(.; y)] and
    p = prox_h(v, 1): one smooth gradient and one prox of the whole
    vector (h is separable across blocks)."""
    v = x - smooth_gradient(problem, x, y, rho)
    return v, problem.form.prox(v, 1.0)


def proximal_gradient(problem, x, y, rho):
    """Prox-gradient residual of L(.; y) at x with unit step,

        x - prox_h(x - [smooth gradient]) ,

    one prox of the whole vector (h is separable across blocks). Zero
    exactly at inner minimizers; its norm is the inner stopping criterion
    everywhere in this package.
    """
    x = np.asarray(x, dtype=float)
    return x - _gradient_and_prox(problem, x, y, rho)[1]


@dataclass
class InnerSolveResult:
    """Result of minimizing L(.; y).

    x_of_y : an inner minimizer.
    d_value : d(y) = L(x_of_y; y).
    dual_grad : q - E x_of_y.
    prox_grad_norm_at_exit : residual norm at the returned iterate.
    iterations : number of full block sweeps performed (0 when the
        Newton kernel alone met the tolerance).
    newton_steps : number of whole-problem Newton steps solved.
    """

    x_of_y: np.ndarray
    d_value: float
    dual_grad: np.ndarray
    prox_grad_norm_at_exit: float
    iterations: int
    newton_steps: int


_NO_CURVATURE = ("block %d has no curvature; its subproblem is unbounded or "
                 "degenerate")

# Number of past sweep residuals the Anderson extrapolation combines.
_ANDERSON_MEMORY = 5
# An extrapolated point may lie at most this many sweep residuals
# ||S(x) - x|| from the sweep image S(x).
_ANDERSON_REACH = 100.0


def minimize_lagrangian(problem, y, rho, tol=1e-10, warm_start=None,
                        max_sweeps=None):
    """Minimize L(.; y) by an active-set Newton solve where every smooth
    gradient is affine, else (or when Newton stops short) by
    Anderson-accelerated cyclic block coordinate descent, with a Newton
    retry after each sweep.

    The Newton kernel runs first when every block has an affine smooth
    gradient (``problem.hessian(rho)`` is not None), for every term kind,
    groups included. Each step fixes the coordinates the prox zeroes or
    clamps, and the groups it zeroes, and solves for the rest with H =
    ``problem.hessian(rho)`` plus the curvature of each nonzero group's
    norm; it is taken only if its linear solve is accurate to ``tol``
    and the full prox-gradient residual falls. A Newton point that meets
    ``tol`` is the result. One that stops short is kept only if its
    residual fell and L(.; y) did not rise (up to 1e-12 (1 + |L|)); then
    the sweeps start from it, else from the point Newton started from.
    ``newton_steps`` in the result counts every Newton step solved. A
    block without curvature raises the ValueError of
    :func:`blockadmm.solvers.solve_block` before Newton runs. Every
    point the solve visits (the warm start, each Newton point, each
    sweep image and Anderson candidate) costs one smooth gradient and
    one prox: the iterate's (v, p) is kept with it and is each Newton
    call's start, so a solve that ends on Newton after k steps and no
    sweep makes k + 1 prox calls.

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
    than that of S(x), it lies within 100 ||f|| of S(x), and L(.; y) is
    not larger there; otherwise the history is cleared and S(x) is kept
    (the safeguard of Zhang, O'Donoghue & Boyd, arXiv:1808.03971), so
    no step ends with a larger residual than the plain sweep from the
    same iterate would have. While the residual is above ``tol``, Newton
    is then retried from the current iterate on the terms above, and a
    kept retry clears the history too.

    The solve stops once the full prox-gradient residual norm is at most
    ``tol``; ``iterations`` in the result counts sweeps, and a warm start
    that already meets ``tol``, or a Newton solve that does, returns
    after none. Raises
    ConvergenceError (carrying the best iterate seen, swept,
    extrapolated or from Newton) if the sweep cap is reached.
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

    def evaluate(z):
        return _gradient_and_prox(problem, z, y, rho)

    def no_rise(z, z_new):
        """L(z_new; y) <= L(z; y), up to rounding."""
        L_z = augmented_lagrangian(problem, z, y, rho)
        return (augmented_lagrangian(problem, z_new, y, rho)
                <= L_z + 1e-12 * (1.0 + abs(L_z)))

    ex = evaluate(x)          # (v, p) at x, kept in step with x
    npg = _distance(x, ex[1])
    H = problem.hessian(rho)
    if H is not None and not npg <= tol:
        for k, b in enumerate(problem.blocks):
            if b.constants(rho)[2] <= 0:
                raise ValueError(_NO_CURVATURE % k)
        c = -(problem.E_mat.T @ (y + rho * problem.q)) - problem.lin_smooth
    best_norm = npg
    best_x = x.copy()
    sweeps = newton_steps = 0
    dF, dG = [], []          # differences of residuals and of sweep images
    f_prev = g_prev = None
    while not npg <= tol:    # a NaN residual keeps sweeping to the cap
        if H is not None:
            # a Newton point is kept if its residual fell and either meets
            # tol or L(.; y) did not rise
            xn, npg_n, steps, en = problem.form.newton(H, c, x, tol,
                                                       evaluate, ex)
            newton_steps += steps
            if npg_n < npg and (npg_n <= tol or no_rise(x, xn)):
                x, npg, ex = xn, npg_n, en
                if npg <= tol:
                    break
                dF, dG, f_prev = [], [], None
        if npg < best_norm:
            best_norm = npg
            best_x = x.copy()
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
        ex = evaluate(g)
        x, npg = g, _distance(g, ex[1])
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
                ea = evaluate(xa)
                npg_a = _distance(xa, ea[1])
                if (npg_a < npg and np.linalg.norm(xa - g)
                        <= _ANDERSON_REACH * np.linalg.norm(f)
                        and no_rise(g, xa)):
                    x, npg, ex = xa, npg_a, ea
                else:
                    dF, dG = [], []
            f_prev, g_prev = f, g
    d_val = augmented_lagrangian(problem, x, y, rho)
    dual_grad = problem.q - problem.apply_E(x)
    return InnerSolveResult(
        x_of_y=x,
        d_value=d_val,
        dual_grad=dual_grad,
        prox_grad_norm_at_exit=npg,
        iterations=sweeps,
        newton_steps=newton_steps,
    )


def dual_value(problem, y, rho, tol=1e-10, warm_start=None):
    """d(y) = min_x L(x; y)."""
    return minimize_lagrangian(problem, y, rho, tol=tol,
                               warm_start=warm_start).d_value


def dual_gradient(problem, y, rho, tol=1e-10, warm_start=None):
    """grad d(y) = q - E x(y)."""
    return minimize_lagrangian(problem, y, rho, tol=tol,
                               warm_start=warm_start).dual_grad
