"""Independent brute-force references used by the test suite.

Nothing here calls the library's closed-form prox rules: minimizers are
found by scanning dense grids of candidate points, so agreement between
a grid result and a library result is evidence for the closed form, not
a restatement of it.

The target problem everywhere is

    minimize_u  t * h(u) + (1/2) * ||u - v||^2 ,

which is 1-strongly convex, so the minimizer is unique and a grid of
step s locates it to within a few multiples of s (the refinement loop
in grid_prox_2d re-expands its window whenever the incumbent lands on a
window edge, so a shallow valley cannot push the true minimizer outside
the searched region).

``newton_reference`` is of another kind: the active-set Newton step of
the separable form written the plain way, with ``np.diag``, ``np.where``
and one loop over the groups, against which the kernel's bookkeeping is
checked. So is ``monitored_run``: the auto-alpha rule of ``run`` as a
plain loop that recomputes every quantity it compares, against which
the run's carried lookahead is checked.
"""

import numpy as np

from blockadmm import augmented_lagrangian, minimize_lagrangian, step


def _axis(lo, hi, step):
    """Uniform grid on [lo, hi] that always contains both endpoints.

    Including the endpoints exactly matters for box-constrained terms,
    whose minimizers frequently sit exactly on a bound.
    """
    g = np.arange(lo, hi + 0.25 * step, step)
    if g.size == 0 or g[-1] < hi - 1e-12:
        g = np.append(g, hi)
    return g


def grid_prox_1d(h, v, t, lo, hi, step=1e-5):
    """Brute-force scalar prox: scan t*h(u) + (u-v)^2/2 on a grid.

    h must accept a 1-d array of candidates and return their values
    elementwise (+inf marks infeasible candidates). The window [lo, hi]
    must contain the true minimizer.
    """
    grid = _axis(lo, hi, step)
    vals = t * h(grid) + 0.5 * (grid - v) ** 2
    return float(grid[int(np.argmin(vals))])


def _grid_min_2d(h, v, t, lo_w, hi_w, step):
    g0 = _axis(lo_w[0], hi_w[0], step)
    g1 = _axis(lo_w[1], hi_w[1], step)
    U0, U1 = np.meshgrid(g0, g1, indexing="ij")
    cand = np.stack([U0.ravel(), U1.ravel()], axis=1)
    vals = t * h(cand) + 0.5 * np.sum((cand - v) ** 2, axis=1)
    return cand[int(np.argmin(vals))]


def grid_prox_2d(h, v, t, lo, hi, step=1e-4, coarse=2e-2):
    """Brute-force planar prox by coarse-to-fine grid search.

    h maps an (N, 2) array of candidates to N values (+inf allowed).
    The outer window [lo, hi] per axis must contain the minimizer; the
    search starts on the full window at the coarse step and then
    repeatedly recenters a finer grid on the incumbent. If a refined
    incumbent lands on the edge of its (interior) search window, the
    window is doubled and rescanned, so narrow curved valleys are
    followed rather than cut off.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    v = np.asarray(v, dtype=float)
    s = coarse
    best = _grid_min_2d(h, v, t, lo, hi, s)
    while s > step:
        s_next = max(s / 5.0, step)
        half = 5.0 * s
        while True:
            lo_w = np.maximum(lo, best - half)
            hi_w = np.minimum(hi, best + half)
            cand = _grid_min_2d(h, v, t, lo_w, hi_w, s_next)
            on_inner_edge = False
            for i in range(2):
                near_lo = cand[i] - lo_w[i] < 0.75 * s_next
                near_hi = hi_w[i] - cand[i] < 0.75 * s_next
                if (near_lo and lo_w[i] > lo[i] + 1e-12) or \
                        (near_hi and hi_w[i] < hi[i] - 1e-12):
                    on_inner_edge = True
            if not on_inner_edge or (np.all(lo_w <= lo + 1e-12)
                                     and np.all(hi_w >= hi - 1e-12)):
                break
            half *= 2.0
        best = cand
        s = s_next
    return best


def fd_gradient(f, x, step):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros(x.size)
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = step
        g[i] = (f(x + e) - f(x - e)) / (2.0 * step)
    return g


def bisection_ball_box_prox(v, t, lo, hi, groups, weights, iters=200):
    """Prox of t * sum_J w_J * ||u_J||_2 + indicator of [lo, hi] at v.

    Plain bisection, group by group, with no closed form, zero test or
    Newton step: for u != 0 the prox is the fixed point
    u = clip(v_J * s / (s + t * w_J)) with s = ||u||, and
    phi(s) = ||clip(v_J * s / (s + t * w_J))|| - s is >= 0 at s = 0 and
    <= 0 at the norm of the farthest box corner, with one sign change in
    between. When the prox is 0 the sign change sits at s = 0 and the
    bisection shrinks s towards it. Coordinates outside every group are
    clipped. The box must be bounded.
    """
    v = np.asarray(v, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    out = np.clip(v, lo, hi)
    for J, w in zip(groups, weights):
        J = np.asarray(J, dtype=int)
        vj, lj, hj, tw = v[J], lo[J], hi[J], t * w

        def clipped(s):
            return np.clip(vj * (s / (s + tw)), lj, hj)

        s_lo = 0.0
        s_hi = float(np.linalg.norm(np.maximum(np.abs(lj), np.abs(hj))))
        if s_hi == 0.0:
            out[J] = 0.0
            continue
        for _ in range(iters):
            mid = 0.5 * (s_lo + s_hi)
            if np.linalg.norm(clipped(mid)) > mid:
                s_lo = mid
            else:
                s_hi = mid
        out[J] = clipped(0.5 * (s_lo + s_hi))
    return out


def newton_reference(form, H, c, u, tol, evaluate, start, max_steps=50):
    """The safeguarded active-set Newton loop of ``_Separable.newton`` in
    its plain formulation, from the form's public arrays ``b``, ``lam``,
    ``lo``, ``hi``, ``groups`` and ``weights``.

    Each step fixes every coordinate the prox point p clamps, zeroes with
    an l1 weight, or zeroes with its group, and solves
    (H_FF + D_FF) u_F = -(c + b + lam * sign(v - b))_F - H_FA p_A
    - (w_J p_J / ||p_J||)_F + D_FF p_F on the free set F, with
    D = diag(a) - same * (a r)(r)^T, a_i = w_J / ||p_J|| and
    r_i = p_i / ||p_J|| on each free coordinate of a group J (0 off the
    groups). A step needs a linear residual at most ``tol`` and a
    smaller prox-gradient residual. Returns (point, residual, steps).
    """
    lo, hi, b, lam = form.lo, form.hi, form.b, form.lam
    n = lo.size
    group = np.full(n, -1)
    for j, J in enumerate(form.groups):
        group[J] = j
    v, p = start
    norm = np.linalg.norm(u - p)
    steps = 0
    while norm > tol and steps < max_steps:
        s = np.sign(v - b)
        nrm = np.array([np.sqrt(np.sum(p[J] * p[J])) for J in form.groups]
                       + [1.0])         # the last entry: no group
        free = (lo < p) & (p < hi) & ((p != 0.0) | (lam == 0.0))
        free &= nrm[group] > 0.0
        F = np.flatnonzero(free)
        u_new = np.where(free, 0.0, p)
        if F.size:
            rhs = -(c[F] + b[F] + lam[F] * s[F] + H[F] @ u_new)
            M = H[np.ix_(F, F)]
            gF = group[F]
            inF = gF >= 0
            nF = nrm[gF]
            aF = np.where(inF, np.append(form.weights, 0.0)[gF] / nF, 0.0)
            rF = np.where(inF, p[F] / nF, 0.0)
            same = (gF[:, None] == gF) & inF[:, None]
            D = np.diag(aF) - same * np.outer(aF * rF, rF)
            M = M + D
            rhs += D @ p[F] - aF * p[F]
            try:
                u_F = np.linalg.solve(M, rhs)
            except np.linalg.LinAlgError:
                break
            if not np.linalg.norm(M @ u_F - rhs) <= tol:
                break
            u_new[F] = u_F
            u_new = np.clip(u_new, lo, hi)
        steps += 1
        v_new, p_new = evaluate(u_new)
        norm_new = np.linalg.norm(u_new - p_new)
        if not norm_new < norm:
            break
        u, norm, v, p = u_new, norm_new, v_new, p_new
    return u, norm, steps


def monitored_run(problem, variant, rho, iterations, lowered=frozenset()):
    """The alpha="auto" rule of ``run`` (default settings) as a plain
    loop from x = 0 projected onto the domains and y = 0, for
    ``iterations`` iterations.

    Each iteration runs its primal pass x1 at (x, y), then tries the dual
    steps y1 = y + a * (q - E x1) for a = alpha, alpha/2, ..., alpha/64,
    with x2 the pass at (x1, y1). It commits the first candidate whose
    L(x2; y1) - 2 d(y1) is at most L(x1; y) - 2 d(y) + 5e-10, or the
    last one if none is, and keeps its a as alpha. d(y) is solved to the
    monitor's tolerance from the pass at y, and taken 1 lower at the
    dual points whose ``tobytes()`` are in ``lowered``.

    Returns one (x, y, x1, a, L(x1; y), d(y), x(y)) per iteration.
    """
    tol = max(min(1e-10, 1e-8 / 100.0) * 10.0, 1e-11)

    def dual(y, warm):
        inner = minimize_lagrangian(problem, y, rho, tol=tol,
                                    warm_start=warm)
        return inner.d_value - (y.tobytes() in lowered), inner.x_of_y

    def primal_pass(x, y):
        return step(problem, variant, x, y, rho, 0.0)[0]

    x = problem.project_domains(np.zeros(problem.n))
    y = np.zeros(problem.m)
    alpha = 0.1 * rho
    out = []
    for _ in range(iterations):
        x1 = primal_pass(x, y)
        L_val = augmented_lagrangian(problem, x1, y, rho)
        d, xbar = dual(y, x1)
        res = problem.apply_E(x1) - problem.q
        for k in range(7):
            a = alpha / 2 ** k
            y1 = y - a * res
            x2 = primal_pass(x1, y1)
            if (augmented_lagrangian(problem, x2, y1, rho)
                    - 2.0 * dual(y1, x2)[0] <= L_val - 2.0 * d + 5e-10):
                break
        alpha = a
        out.append((x, y, x1, a, L_val, d, xbar))
        x, y = x1, y1
    return out
