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
minimization runs restarted FISTA on the whole vector (Beck & Teboulle,
SIAM J. Imaging Sci. 2, 2009; O'Donoghue & Candes, Found. Comput. Math.
15, 2015) from Newton's best point, retrying Newton at each residual
test, until the prox-gradient residual of the whole iterate is below
tolerance. The exact block solve of the primal pass, :func:`solve_block`,
is the same routine on one block's subproblem, or one prox when the
block's subproblem Hessian is a positive multiple of I.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problem import _objective
from .prox import _distance, _setting, _vector

__all__ = [
    "ConvergenceError",
    "InnerSolveResult",
    "augmented_lagrangian",
    "proximal_gradient",
    "minimize_lagrangian",
    "solve_block",
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


def _lagrangian_parts(problem, x, y, rho):
    """(f(x), E x - q, L(x; y)) for a checked x and y."""
    res = problem.apply_E(x) - problem.q
    f = _objective(problem, x)
    return f, res, (f - float(np.dot(y, res))
                    + 0.5 * rho * float(np.dot(res, res)))


def augmented_lagrangian(problem, x, y, rho):
    """L(x; y) = f(x) + <y, q - E x> + (rho/2) * ||q - E x||^2."""
    rho = _setting(rho, "rho")
    return _lagrangian_parts(problem, _vector(x, problem.n, "x"),
                             _vector(y, problem.m, "y"), rho)[2]


def _smooth_gradient(problem, x, y, rho):
    """Gradient of the smooth part of L(.; y) at a checked x and y: per
    block,

        A_k^T grad g_k(A_k x_k) - E_k^T y + rho * E_k^T (E x - q).
    """
    w = rho * (problem.apply_E(x) - problem.q) - y
    out = problem.E_mat.T.dot(w)
    for b in problem._smooth_blocks:
        out[b.sl] += b.smooth_grad(x[b.sl])
    return out


def _gradient_and_prox(problem, x, y, rho):
    """(v, p) at x, with v = x - [smooth gradient of L(.; y)] and
    p = prox_h(v, 1): one smooth gradient and one prox of the whole
    vector (h is separable across blocks)."""
    v = x - _smooth_gradient(problem, x, y, rho)
    return v, problem.form.prox(v, 1.0)


def proximal_gradient(problem, x, y, rho):
    """Prox-gradient residual of L(.; y) at x with unit step,

        x - prox_h(x - [smooth gradient]) ,

    one prox of the whole vector (h is separable across blocks). Zero
    exactly at inner minimizers; its norm is the inner stopping criterion
    everywhere in this package. rho = 0 gives the residual of f alone.
    """
    x = _vector(x, problem.n, "x")
    return x - _gradient_and_prox(problem, x, _vector(y, problem.m, "y"),
                                  _setting(rho, "rho", nonnegative=True))[1]


@dataclass
class InnerSolveResult:
    """Result of minimizing L(.; y).

    x_of_y : an inner minimizer.
    d_value : d(y) = L(x_of_y; y).
    dual_grad : q - E x_of_y.
    prox_grad_norm_at_exit : residual norm at the returned iterate.
    iterations : number of FISTA iterations performed (0 when the warm
        start or the Newton kernel alone met the tolerance).
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

# Default cap on the prox-gradient iterations of one inner solve, for the
# whole vector and for one block alike.
_MAX_ITER = 50000


def _newton_fista(form, H, c, grad, step, u, tol, max_iter, what,
                  start=None, inverses=None):
    """Minimize phi(u) + h(u), with ``grad`` the gradient of the smooth
    convex phi, 1/``step`` a bound on its Lipschitz constant and h the
    separable ``form``; when phi is the quadratic 1/2 u^T H u + c^T u,
    ``H`` is given, else it is None.

    Every point the solve tests costs one gradient and one prox, v = z -
    grad(z) and p = prox_h(v, 1), and its residual is ||z - p||;
    ``start`` is that evaluation at ``u`` when the caller already has it.
    With H, the active-set Newton kernel (``_Separable.newton``) runs
    first, from ``u``, with ``inverses`` its memo of free-set inverses of
    H when the caller keeps one. A start or Newton point that meets
    ``tol`` is the result. Otherwise restarted FISTA (Beck & Teboulle,
    SIAM J. Imaging Sci. 2, 2009; restart on the gradient-mapping test of
    O'Donoghue & Candes, Found. Comput. Math. 15, 2015) runs from the
    best point so far. It tests the residual when its step is small and
    at every 8th iteration; there, with H, Newton is retried from the new
    point, and a retried point whose residual is below the best seen
    replaces the iterate and resets the momentum.

    Returns (point, its residual, FISTA iterations, Newton steps); the
    iterations are 0 when the start or Newton met ``tol``. After
    ``max_iter`` iterations, or at once when the residual FISTA would
    start from is NaN, raises ConvergenceError, naming ``what`` and
    carrying the best point and residual.
    """
    def evaluate(z):
        v = z - grad(z)
        return v, form.prox(v, 1.0)

    if start is None:
        start = evaluate(u)
    newton_steps = 0
    if H is not None:        # a start that meets tol takes no step
        u, res_norm, newton_steps = form.newton(H, c, u, tol, evaluate,
                                                start, inverses)
    else:
        res_norm = _distance(u, start[1])
    if res_norm <= tol:
        return u, res_norm, 0, newton_steps
    if np.isnan(res_norm):   # FISTA would run all max_iter iterations
        raise ConvergenceError("%s starts at a NaN residual" % what,
                               best_x=u, best_value=res_norm)
    best = (res_norm, u)
    z = u
    t_mom = 1.0
    gate = 4.0 * step * tol
    for it in range(max_iter):
        u_new = form.prox(z - step * grad(z), step)
        du = u_new - u
        # The exit residual is verified at unit prox step; evaluating it
        # costs a gradient and a prox, so check only when the raw step is
        # already small, plus periodically as a safety net.
        if _distance(u_new, z) <= gate or it % 8 == 7:
            e = evaluate(u_new)
            res_norm = _distance(u_new, e[1])
            if res_norm < best[0]:
                best = (res_norm, u_new)
            if res_norm <= tol:
                return u_new, res_norm, it + 1, newton_steps
            if H is not None:
                u_n, res_n, steps = form.newton(H, c, u_new, tol, evaluate,
                                                e, inverses)
                newton_steps += steps
                if res_n < best[0]:
                    best = (res_n, u_n)
                    if res_n <= tol:
                        return u_n, res_n, it + 1, newton_steps
                    u = z = u_n
                    t_mom = 1.0
                    continue
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
        "%s did not reach tol=%g in %d iterations (best residual %g)"
        % (what, tol, max_iter, best[0]),
        best_x=best[1], best_value=best[0],
    )


def minimize_lagrangian(problem, y, rho, tol=1e-10, warm_start=None,
                        max_iter=_MAX_ITER):
    """Minimize L(.; y) over the whole vector by an active-set Newton
    solve where every smooth gradient is affine, then, when Newton stops
    short, restarted FISTA with Newton retries (``_newton_fista``).

    The Newton kernel runs first when every block has an affine smooth
    gradient (``problem.hessian(rho)`` is not None), for every term kind,
    groups included. Each step fixes the coordinates the prox zeroes or
    clamps, and the groups it zeroes, and solves for the rest with H =
    ``problem.hessian(rho)`` plus the curvature of each nonzero group's
    norm; without groups it multiplies by the inverse of H's free-set
    submatrix, which the problem keeps beside H while the free set holds
    (an LU solve where the inverse fails). A step is taken only if its
    linear solve is accurate to ``tol`` and the full prox-gradient
    residual falls. A Newton point that meets ``tol`` is the result.
    Otherwise FISTA runs from Newton's best point with step
    1 / (max_k L_k + rho ||E||^2), a bound on the Lipschitz constant of
    the smooth gradient, and retries Newton at each residual test.
    ``newton_steps`` in the result counts every Newton step solved and
    ``iterations`` the FISTA iterations. A block without curvature
    (``_BuiltBlock.nu(rho)`` zero) raises the ValueError of
    :func:`solve_block` once the start misses ``tol``. Every point the
    solve tests (the warm start, each Newton point, each FISTA point whose
    residual is tested) costs one smooth gradient and one prox, so a
    solve that ends on Newton after k steps makes k + 1 prox calls.

    The solve stops once the full prox-gradient residual norm is at most
    ``tol``; a warm start that already meets it returns after no
    iteration. Raises ConvergenceError (carrying the best iterate seen)
    after ``max_iter`` FISTA iterations.
    """
    rho = _setting(rho, "rho")
    tol = _setting(tol, "tol")
    y = _vector(y, problem.m, "y")
    if warm_start is None:
        x = problem.project_domains(np.zeros(problem.n))
    else:
        x = _vector(warm_start, problem.n, "warm_start").copy()
    start = _gradient_and_prox(problem, x, y, rho)
    npg = _distance(x, start[1])
    iterations = newton_steps = 0
    if not npg <= tol:
        for k, b in enumerate(problem.blocks):
            if b.nu(rho) <= 0:
                raise ValueError(_NO_CURVATURE % k)
        H, inverses = problem._hessian_and_inverses(rho)
        c = None if H is None else \
            -problem.E_mat.T.dot(y + rho * problem.q) - problem.lin_smooth
        step_L = (max(b.lipschitz for b in problem.blocks)
                  + rho * problem.norm_E ** 2)
        x, npg, iterations, newton_steps = _newton_fista(
            problem.form, H, c, lambda z: _smooth_gradient(problem, z, y, rho),
            1.0 / step_L, x, tol, max_iter, "inner minimization", start,
            inverses)
    _, res, d_value = _lagrangian_parts(problem, x, y, rho)
    return InnerSolveResult(
        x_of_y=x,
        d_value=d_value,
        dual_grad=-res,
        prox_grad_norm_at_exit=npg,
        iterations=iterations,
        newton_steps=newton_steps,
    )


def solve_block(problem, k, x, y, rho, tol_block, coupling=None,
                max_iter=_MAX_ITER):
    """Exactly minimize block k of the augmented Lagrangian with every
    other block fixed at its value in x.

    The block subproblem is

        min_u  h_k(u) + g_k(A_k u) - <y, E_k u>
               + (rho/2) * ||E_k u + c||^2 ,

    with c the coupling residual sum_{j != k} E_j x_j - q (precompute and
    pass it as ``coupling`` to skip a matrix-vector product). The solve
    stops when the block prox-gradient residual is at most ``tol_block``;
    a warm start that already satisfies the tolerance returns
    immediately. A block whose subproblem Hessian is (a + rho e) * I
    with a + rho e > 0 (``scalar_curvature`` = (a, e), fixed at build) is
    solved in closed form by a single prox. Every other block goes to
    ``_newton_fista`` on the subproblem: with an affine smooth gradient,
    whatever the term (none, l1, box, nonneg, linear, group-l2 with or
    without a box, sparse-group), the safeguarded active-set Newton
    kernel of the separable form runs first on the subproblem Hessian
    H = hess_smooth + rho E_k^T E_k, built at the call (with no term its
    first step is the linear solve H u = -g0, kept only when it is
    accurate to ``tol_block``); then, or with a non-affine smooth
    gradient, restarted FISTA with step 1 / nu_k, nu_k = L_k +
    rho ||E_k||^2 the block's curvature bound (``_BuiltBlock.nu``), runs
    from the best point, with a Newton retry at each residual test. The
    warm start's gradient and prox are the kernel's start, and every
    point is evaluated once, so a Newton solve of k steps that meets
    ``tol_block`` makes k + 1 prox calls in all. A block without
    curvature (nu_k zero) raises ValueError, and so do a block index k
    outside [0, K) and a ``coupling`` that is not an m-vector.
    """
    rho = _setting(rho, "rho")
    tol_block = _setting(tol_block, "tol_block")
    if not 0 <= k < problem.K:
        raise ValueError("block k=%r is not in [0, K=%d)" % (k, problem.K))
    b = problem.blocks[k]
    x, y = _vector(x, problem.n, "x"), _vector(y, problem.m, "y")
    xk0 = x[b.sl]
    if coupling is None:
        coupling = problem.apply_E(x) - b.E.dot(xk0) - problem.q
    else:
        coupling = _vector(coupling, problem.m, "coupling")
    lin0 = rho * b.E.T.dot(coupling) - b.E.T.dot(y)
    if b.scalar_curvature is not None:
        a, e = b.scalar_curvature
        eta = a + rho * e
        if eta > 0:
            return b.form.prox(-(lin0 - b.lin_smooth) / eta, 1.0 / eta)
    nu = b.nu(rho)
    if nu <= 0:
        raise ValueError(_NO_CURVATURE % k)
    if b.hess_smooth is not None:
        H = b.hess_smooth + rho * b.EtE
        g0 = lin0 - b.lin_smooth

        def grad_phi(u):
            return H.dot(u) + g0
    else:
        H = g0 = None

        def grad_phi(u):
            return b.smooth_grad(u) + rho * (b.EtE @ u) + lin0

    return _newton_fista(b.form, H, g0, grad_phi, 1.0 / nu,
                         b.form.project_domain(xk0), tol_block, max_iter,
                         "block %d subproblem" % k)[0]
