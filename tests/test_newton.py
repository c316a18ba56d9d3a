"""The active-set Newton kernel against the iterative paths it shortcuts.

``_Separable.newton`` solves polyhedral-quadratic problems exactly when
it can and otherwise hands its best point back to the caller; on a
group-l2 term it steps with the group's curvature. On random problems
(l1, boxes that may exclude 0, a linear shift, nonneg, group-l2 with or
without a box and over all or part of the coordinates, sparse-group;
coupling matrices that may be rank deficient) the block solve must
agree with the restarted FISTA loop alone, also on blocks with no term,
where Newton's first step is the plain linear solve; and so must the
dual function, whose whole-vector solve is the same routine. The kernel
is switched off by replacing it with one that returns its starting
point and evaluation, which also switches off its retries inside the
loop. Every point the kernel visits costs one prox, evaluated once by
its caller: prox calls are counted against the Newton steps solved.
Step by step, the kernel must also match the plain formulation of
``oracles.newton_reference`` from the same start, and it must never
divide by the norm of a group its prox point zeroes. On a group-free
d(y) the kernel multiplies by the inverse of the free-set submatrix that
the problem keeps beside its Hessian: a result must not depend on what
that memo held before, also with threads sharing one problem; an inexact
or singular inverse must fall back to the LU solve bit for bit; and
group runs and block solves must never invert.
"""

import sys
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockadmm.diagnostics import reference_solution, run_diagnostics
from blockadmm.generators import gen_group_l2, gen_lasso
from blockadmm.lagrangian import minimize_lagrangian, proximal_gradient
from blockadmm.problem import (Block, Problem, SmoothTerm, build_problem,
                               objective)
from blockadmm.prox import (L1, GroupL2, Linear, NonnegIndicator,
                            SparseGroup, _Separable)
from blockadmm import solvers

from oracles import newton_reference

TOL = 1e-10

_KINDS = ("l1", "l1_box", "box", "nonneg", "linear_box")
_GROUP_KINDS = ("group", "group_box", "group_part_box", "sparse_group")


def _no_newton(self, H, c, u, tol, evaluate, start, inverses=None):
    return u, float(np.linalg.norm(u - start[1])), 0


@st.composite
def problems(draw, kinds):
    """A random problem: K blocks, each one term kind drawn from
    ``kinds``, with coupling matrices that often lack full column rank
    (more columns than rows, or a repeated column). Group kinds split a
    random permutation of the coordinates into groups; "group_part_box"
    leaves its first coordinate out of every group."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    K = draw(st.integers(1, 3))
    m = draw(st.integers(1, 4))
    blocks = []
    for _ in range(K):
        if draw(st.booleans()):
            n_k = m + draw(st.integers(1, 3))
        else:
            n_k = draw(st.integers(1, m))
        kind = draw(st.sampled_from(kinds))
        E = rng.standard_normal((m, n_k))
        if n_k > 1 and draw(st.booleans()):
            E[:, -1] = E[:, 0]
        smooth = A = None
        if draw(st.booleans()):
            A = rng.standard_normal((draw(st.integers(1, 3)), n_k))
            smooth = SmoothTerm(b=rng.standard_normal(A.shape[0]))
        lo = rng.uniform(-2.0, 1.0, n_k)
        box = (lo, lo + rng.uniform(0.2, 2.0, n_k))
        groups = weights = None
        if "group" in kind:
            perm = rng.permutation(n_k)[int(kind == "group_part_box"):]
            cuts = np.flatnonzero(rng.random(perm.size) < 0.4)
            groups = [J for J in np.split(perm, cuts) if J.size]
            weights = rng.uniform(0.1, 1.0, len(groups))
        nonsmooth = {
            "l1": L1(rng.uniform(0.1, 1.0)),
            "l1_box": L1(rng.uniform(0.1, 1.0)),
            "box": None,
            "nonneg": NonnegIndicator(),
            "linear_box": Linear(rng.standard_normal(n_k)),
            "zero": None,
        }.get(kind)
        if kind == "sparse_group":
            nonsmooth = SparseGroup(rng.uniform(0.1, 1.0), groups, weights)
        elif groups is not None:
            nonsmooth = GroupL2(groups, weights)
        blocks.append(Block(E=E, A=A, smooth=smooth, nonsmooth=nonsmooth,
                            box=box if kind.endswith("box") else None))
    p = build_problem(blocks, rng.standard_normal(m))
    y = rng.normal(scale=3.0, size=m)
    x = rng.normal(scale=3.0, size=p.n)
    return p, y, x


def _block_value(p, k, x, y, rho, u):
    """The block subproblem's objective at u, others fixed at x."""
    x = x.copy()
    x[p.blocks[k].sl] = u
    res = p.apply_E(x) - p.q
    b = p.blocks[k]
    return (b.smooth_value(u) + b.form.value(u) - float(y @ res)
            + 0.5 * rho * float(res @ res))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(problems(_KINDS + _GROUP_KINDS + ("zero",)),
       st.sampled_from([0.5, 1.0, 2.0]))
def test_block_newton_agrees_with_prox_gradient_loop(case, rho):
    p, y, x = case
    for k, b in enumerate(p.blocks):
        u_newton = solvers.solve_block(p, k, x, y, rho, TOL)
        with mock.patch.object(_Separable, "newton", _no_newton):
            u_loop = solvers.solve_block(p, k, x, y, rho, TOL)
        for u in (u_newton, u_loop):
            xu = x.copy()
            xu[b.sl] = u
            assert np.all(b.form.lo <= u) and np.all(u <= b.form.hi)
            assert np.linalg.norm(
                proximal_gradient(p, xu, y, rho)[b.sl]) <= TOL
        v_newton = _block_value(p, k, x, y, rho, u_newton)
        v_loop = _block_value(p, k, x, y, rho, u_loop)
        assert abs(v_newton - v_loop) <= 10 * TOL * (1.0 + abs(v_loop))


def _dual_agreement(case):
    p, y, x = case
    rho = 1.0
    exact = minimize_lagrangian(p, y, rho, tol=TOL, warm_start=x)
    with mock.patch.object(_Separable, "newton", _no_newton):
        swept = minimize_lagrangian(p, y, rho, tol=TOL, warm_start=x)
    assert swept.newton_steps == 0
    for res in (exact, swept):
        assert res.prox_grad_norm_at_exit <= TOL
        assert np.isfinite(objective(p, res.x_of_y))
    assert abs(exact.d_value - swept.d_value) <= \
        10 * TOL * (1.0 + abs(swept.d_value))
    assert np.linalg.norm(p.apply_E(exact.x_of_y)
                          - p.apply_E(swept.x_of_y)) < 1e-8


@settings(max_examples=40, deadline=None, derandomize=True)
@given(problems(_KINDS + _GROUP_KINDS))
def test_dual_function_newton_agrees_with_block_sweeps(case):
    _dual_agreement(case)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(problems(("l1", "zero")))
def test_dual_function_newton_agrees_with_block_sweeps_on_zero_blocks(case):
    # zero-term blocks, often with rank-deficient coupling, where the
    # Newton system is often singular and FISTA does most of the work
    _dual_agreement(case)


@st.composite
def newton_cases(draw):
    """A form on at most 6 coordinates with l1 weights, a shift b, finite
    or partly infinite bounds and groups over all or part of the
    coordinates, each drawn on or off (grouped coordinates carry no bound
    when there are l1 weights, as in every admitted term); heavy group
    weights make the prox zero whole groups. With the form come a
    positive semidefinite H, often singular, a linear term c, a start u
    in the domain and a tolerance."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 6))
    l1, shift = draw(st.booleans()), draw(st.booleans())
    bounds = draw(st.sampled_from(("none", "finite", "part")))
    cover = draw(st.sampled_from(("none", "all", "part")))
    groups, weights = [], []
    if cover != "none":
        perm = rng.permutation(n)[int(cover == "part"):]
        groups = [J for J in np.split(
            perm, np.flatnonzero(rng.random(perm.size) < 0.4)) if J.size]
        weights = rng.uniform(0.1, 1.0, len(groups)) * (
            10.0 if draw(st.booleans()) else 1.0)
    lo, hi = np.full(n, -np.inf), np.full(n, np.inf)
    if bounds != "none":
        lo = rng.uniform(-2.0, 0.5, n)
        hi = lo + rng.uniform(0.1, 2.0, n)
        if bounds == "part":
            lo[rng.random(n) < 0.4] = -np.inf
            hi[rng.random(n) < 0.4] = np.inf
    if l1 and groups:
        grouped = np.concatenate(groups)
        lo[grouped], hi[grouped] = -np.inf, np.inf
    form = _Separable.of(
        n, b=rng.standard_normal(n) if shift else 0.0,
        lam=rng.uniform(0.1, 1.0, n) * (rng.random(n) < 0.7) if l1 else 0.0,
        lo=lo, hi=hi, groups=groups, weights=weights)
    A = rng.standard_normal((draw(st.integers(1, n + 2)), n))
    u = form.project_domain(rng.normal(scale=3.0, size=n))
    return (form, A.T @ A, rng.normal(scale=3.0, size=n), u,
            10.0 ** rng.uniform(-10.0, -7.0))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(newton_cases())
def test_newton_kernel_matches_the_plain_reference_step(case):
    # the kernel's bookkeeping (one c + b, the l1 sign only with l1
    # weights, views when every coordinate is free, the group curvature
    # from per-coordinate weights and a same-group mask, a direct clip)
    # against the textbook formulation, from the same start
    form, H, c, u, tol = case

    def evaluate(z):
        v = z - (H @ z + c)
        return v, form.prox(v, 1.0)

    got = form.newton(H, c, u, tol, evaluate, evaluate(u))
    ref = newton_reference(form, H, c, u, tol, evaluate, evaluate(u))
    assert got[2] == ref[2]
    assert np.linalg.norm(got[0] - ref[0]) <= \
        1e-13 * (1.0 + np.linalg.norm(ref[0]))
    assert abs(got[1] - ref[1]) <= 1e-13 * (1.0 + ref[1])


def test_newton_kernel_never_divides_by_a_zero_group_norm():
    # the curvature divides by each free group's norm; a group the prox
    # zeroes is never free, and an ungrouped coordinate reads a norm of 1
    rng = np.random.default_rng(0)
    blocks = [Block(E=rng.standard_normal((4, 2)),
                    nonsmooth=GroupL2([[0, 1]], [w]), box=(-1.0, 1.0))
              for w in (50.0, 0.1, 0.1)]
    p = build_problem(blocks, rng.standard_normal(4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = minimize_lagrangian(p, rng.standard_normal(4), 1.0, tol=TOL,
                                  warm_start=np.full(p.n, 1.0))
        assert res.newton_steps > 0 and res.prox_grad_norm_at_exit <= TOL
        assert np.all(res.x_of_y[:2] == 0.0) and np.any(res.x_of_y[2:])
        q = gen_group_l2(30, 3, 2, seed=0)
        result = solvers.run(q, variant="gauss_seidel", rho=1.0,
                             alpha="auto")
        run_diagnostics(q, result.records, 1.0)


def _monitor_solves(monkeypatch, problem, **config):
    """Every d(y) result the auto-alpha monitor of ``run`` computes."""
    results = []
    original = solvers.minimize_lagrangian

    def spy(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(solvers, "minimize_lagrangian", spy)
    res = solvers.run(problem, alpha="auto", **config)
    return res, results


def test_monitor_solves_finish_on_the_newton_path(monkeypatch):
    res, inner = _monitor_solves(
        monkeypatch, gen_lasso(n_obs=40, n_feat=16, seed=0),
        variant="proximal", rho=0.2, max_iters=5000)
    assert res.termination == "converged"
    newton_only = sum(1 for r in inner if r.iterations == 0)
    assert newton_only >= 0.99 * len(inner)


def test_group_monitor_solves_finish_on_the_newton_path(monkeypatch):
    res, inner = _monitor_solves(
        monkeypatch, gen_group_l2(m=30, K=3, n_k=2, seed=0),
        variant="gauss_seidel", rho=1.0, max_iters=5000)
    assert res.termination == "converged"
    newton_only = sum(1 for r in inner if r.iterations == 0)
    assert newton_only >= 0.95 * len(inner)


def test_group_retry_keeps_the_lagrangian_from_rising():
    # The second error-bound sample of ``estimate_error_bound_constants``
    # on this instance: a sweep and a Newton retry that lowered the
    # residual but raised L(.; y) took turns there until the sweep cap.
    p = gen_group_l2(m=30, K=3, n_k=2, seed=3665467466)
    ref = reference_solution(p, 1.0)
    rng = np.random.default_rng(0)
    rng.standard_normal(p.n)
    xs = p.project_domains(ref.x + rng.standard_normal(p.n))
    res = minimize_lagrangian(p, ref.y, 1.0, tol=TOL, warm_start=xs)
    assert res.prox_grad_norm_at_exit <= TOL
    assert res.newton_steps > 0


def _count_prox_and_newton(monkeypatch):
    """Count ``_Separable.prox`` calls in ``counts["prox"]`` and record
    (residual, steps) of every Newton solve in ``counts["newton"]``."""
    counts = {"prox": 0, "newton": []}
    prox, newton = _Separable.prox, _Separable.newton

    def counted_prox(self, v, t):
        counts["prox"] += 1
        return prox(self, v, t)

    def recorded_newton(self, *args):
        out = newton(self, *args)
        counts["newton"].append(out[1:3])
        return out

    monkeypatch.setattr(_Separable, "prox", counted_prox)
    monkeypatch.setattr(_Separable, "newton", recorded_newton)
    return counts


_RUN_STATES = (
    (lambda: gen_group_l2(m=30, K=3, n_k=2, seed=0), 1.0),
    (lambda: gen_lasso(n_obs=40, n_feat=16, seed=0), 0.2),
)


@pytest.mark.parametrize("make, rho", _RUN_STATES)
def test_block_newton_costs_one_prox_per_point(monkeypatch, make, rho):
    # the block solves of a fixed-alpha Gauss-Seidel run: a Newton solve
    # of k steps that meets the tolerance makes k + 1 prox calls, one
    # for the warm start and one for each point it visits
    p = make()
    records = solvers.run(p, variant="gauss_seidel", rho=rho, alpha=0.1,
                          max_iters=30).records
    counts = _count_prox_and_newton(monkeypatch)
    steps_seen = []
    for rec in records:
        for k in range(p.K):
            counts["prox"], counts["newton"] = 0, []
            solvers.solve_block(p, k, rec.x, rec.y, rho, TOL)
            if len(counts["newton"]) == 1 and counts["newton"][0][0] <= TOL:
                steps = counts["newton"][0][1]
                assert counts["prox"] == steps + 1
                steps_seen.append(steps)
    assert len(steps_seen) >= len(records) and max(steps_seen) >= 2


@pytest.mark.parametrize("make, rho", _RUN_STATES)
def test_dual_newton_costs_one_prox_per_point(monkeypatch, make, rho):
    # d(y) from the run's own iterates: a solve that ends on Newton after
    # k steps and no FISTA iteration makes at most k + 2 prox calls
    p = make()
    records = solvers.run(p, variant="gauss_seidel", rho=rho, alpha=0.1,
                          max_iters=30).records
    counts = _count_prox_and_newton(monkeypatch)
    newton_only = 0
    for rec in records:
        counts["prox"] = 0
        res = minimize_lagrangian(p, rec.y, rho, tol=TOL,
                                  warm_start=rec.x_next)
        if res.iterations == 0 and res.newton_steps > 0:
            assert counts["prox"] <= res.newton_steps + 2
            newton_only += 1
    assert newton_only >= len(records) // 2


# ---------------------------------------------------------------------------
# The inverse memo of a group-free d(y)
# ---------------------------------------------------------------------------

def _count_calls(monkeypatch, name, replacement=None):
    """Count the calls of ``np.linalg.<name>``, which returns what
    ``replacement`` (default: the original) returns."""
    calls = []
    call = replacement or getattr(np.linalg, name)

    def counted(*args):
        calls.append(name)
        return call(*args)

    monkeypatch.setattr(np.linalg, name, counted)
    return calls


def _lasso():
    return gen_lasso(n_obs=20, n_feat=10, seed=3)


def _memo_key(problem):
    return problem._hessian_and_inverses(1.0)[1][0][0]


def _same_bits(a, b):
    return (np.array_equal(a.x_of_y, b.x_of_y) and a.d_value == b.d_value
            and np.array_equal(a.dual_grad, b.dual_grad)
            and a.newton_steps == b.newton_steps)


def test_dual_value_does_not_depend_on_the_inverse_memo(monkeypatch):
    # d(y) from a warm start one Newton step from the minimizer, on the
    # minimizer's free set: on a fresh build, after the memo holds
    # another free set (a new inverse), and after it holds this one (the
    # kept inverse); all three give the same bits
    y, y_other = np.random.default_rng(0).standard_normal((2, 20))
    exact = minimize_lagrangian(_lasso(), y, 1.0, tol=TOL)
    start = exact.x_of_y + 1e-3 * (exact.x_of_y != 0.0)
    inv = _count_calls(monkeypatch, "inv")
    fresh = _lasso()
    first = minimize_lagrangian(fresh, y, 1.0, tol=TOL, warm_start=start)
    assert first.newton_steps == 1 and len(inv) == 1
    shared = _lasso()
    minimize_lagrangian(shared, 10.0 * y_other, 1.0, tol=TOL)
    assert _memo_key(shared) != _memo_key(fresh)
    del inv[:]
    after_other = minimize_lagrangian(shared, y, 1.0, tol=TOL,
                                      warm_start=start)
    after_same = minimize_lagrangian(shared, y, 1.0, tol=TOL,
                                     warm_start=start)
    assert len(inv) == 1 and _memo_key(shared) == _memo_key(fresh)
    assert _same_bits(first, after_other) and _same_bits(first, after_same)


def test_an_inexact_or_singular_inverse_falls_back_to_the_lu_solve(
        monkeypatch):
    # the LU path is the kernel without a memo; an inverse that misses
    # tol (2 I) or raises gives its bits, with one LU solve per step
    y = np.random.default_rng(1).standard_normal(20)
    hessian_and_inverses = Problem._hessian_and_inverses
    with mock.patch.object(Problem, "_hessian_and_inverses",
                           lambda self, rho: (
                               hessian_and_inverses(self, rho)[0], None)):
        lu = minimize_lagrangian(_lasso(), y, 1.0, tol=TOL)
    assert lu.newton_steps >= 2

    def singular(M):
        raise np.linalg.LinAlgError("singular matrix")

    for inverse in (lambda M: 2.0 * np.eye(len(M)), singular):
        with monkeypatch.context() as patched:
            inv = _count_calls(patched, "inv", inverse)
            solve = _count_calls(patched, "solve")
            got = minimize_lagrangian(_lasso(), y, 1.0, tol=TOL)
        assert inv and len(solve) == lu.newton_steps
        assert _same_bits(got, lu)


def test_group_runs_and_block_solves_never_invert(monkeypatch):
    inv = _count_calls(monkeypatch, "inv")
    solve = _count_calls(monkeypatch, "solve")
    q = gen_group_l2(30, 3, 2, seed=0)
    result = solvers.run(q, variant="gauss_seidel", rho=1.0, alpha="auto")
    run_diagnostics(q, result.records, 1.0)
    p = _lasso()
    x = np.zeros(p.n)
    for y in np.random.default_rng(2).standard_normal((5, p.m)):
        x[p.blocks[0].sl] = solvers.solve_block(p, 0, x, y, 1.0, TOL)
    assert solve and not inv


def test_threads_sharing_one_problem_get_the_bits_of_fresh_builds():
    # d(y) at different y on one problem from more threads than cores,
    # switching often: each entry of the inverse memo is read whole, so
    # every result equals the one of a fresh build
    ys = np.random.default_rng(4).standard_normal((6, 20))
    expected = [minimize_lagrangian(_lasso(), y, 1.0, tol=TOL) for y in ys]
    shared = _lasso()
    results, errors = {}, []

    def work(i):
        try:
            for _ in range(20):
                for j, y in enumerate(ys):
                    res = minimize_lagrangian(shared, y, 1.0, tol=TOL)
                    results.setdefault((i, j), []).append(res)
        except Exception as e:       # reported by the main thread
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not errors
    assert len(results) == 4 * len(ys)
    for (_, j), got in results.items():
        assert all(_same_bits(res, expected[j]) for res in got)
