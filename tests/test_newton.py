"""The active-set Newton kernel against the iterative paths it shortcuts.

``_Separable.newton`` solves polyhedral-quadratic problems exactly when
it can and otherwise hands its best point back to the caller; on a
group-l2 term it steps with the group's curvature. On random problems
(l1, boxes that may exclude 0, a linear shift, nonneg, group-l2 with or
without a box and over all or part of the coordinates, sparse-group;
coupling matrices that may be rank deficient) the block solve must
agree with the accelerated prox-gradient loop, also on blocks with no
term, where Newton's first step is the plain linear solve; and the dual
function must agree with the Anderson-accelerated sweeps, which retry
Newton after each sweep. The kernel is switched off by replacing it
with one that returns its starting point and evaluation. Every point
the kernel visits costs one prox, evaluated once by its caller: prox
calls are counted against the Newton steps solved.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockadmm.diagnostics import reference_solution
from blockadmm.generators import gen_group_l2, gen_lasso
from blockadmm.lagrangian import minimize_lagrangian, proximal_gradient
from blockadmm.problem import Block, SmoothTerm, build_problem, objective
from blockadmm.prox import (L1, GroupL2, Linear, NonnegIndicator,
                            SparseGroup, _Separable)
from blockadmm import solvers

TOL = 1e-10

_KINDS = ("l1", "l1_box", "box", "nonneg", "linear_box")
_GROUP_KINDS = ("group", "group_box", "group_part_box", "sparse_group")


def _no_newton(self, H, c, u, tol, evaluate, start):
    return u, float(np.linalg.norm(u - start[1])), 0, start


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
    # zero-term blocks, often with rank-deficient coupling: neither an
    # Anderson step nor a Newton point may carry the iterate far off
    _dual_agreement(case)


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
    # k steps and no sweep makes at most k + 2 prox calls
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
