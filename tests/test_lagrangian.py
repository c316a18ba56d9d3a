"""Augmented Lagrangian, prox-gradient residual, and the inner dual solver."""

import numpy as np
import pytest

from blockadmm.generators import gen_group_l2
from blockadmm.lagrangian import (
    ConvergenceError,
    _smooth_gradient,
    augmented_lagrangian,
    minimize_lagrangian,
    proximal_gradient,
)
from blockadmm.problem import Block, SmoothTerm, build_problem, objective
from blockadmm.prox import L1, GroupL2, Zero

from oracles import fd_gradient


def _two_block_problem(seed=0):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((3, 2))
    blocks = [
        Block(E=rng.standard_normal((2, 2)), A=A,
              smooth=SmoothTerm(b=rng.standard_normal(3)),
              nonsmooth=L1(0.5), box=(-2.0, 2.0)),
        Block(E=rng.standard_normal((2, 2)),
              smooth=SmoothTerm(b=rng.standard_normal(2))),
    ]
    return build_problem(blocks, rng.standard_normal(2))


# ---------------------------------------------------------------------------
# augmented Lagrangian values
# ---------------------------------------------------------------------------

def test_lagrangian_feasible_equals_objective():
    rng = np.random.default_rng(0)
    E = rng.standard_normal((2, 3))
    x = rng.standard_normal(3)
    p = build_problem([Block(E=E, nonsmooth=L1(1.0))], E @ x)
    for _ in range(5):
        y = rng.standard_normal(2)
        L = augmented_lagrangian(p, x, y, 1.7)
        assert abs(L - objective(p, x)) < 1e-12


def test_lagrangian_known_value():
    p = build_problem([Block(E=np.eye(2))], np.zeros(2))
    x = np.array([1.0, 0.0])
    y = np.array([2.0, 0.0])
    assert augmented_lagrangian(p, x, y, 2.0) == -1.0


def test_lagrangian_rho_shift():
    rng = np.random.default_rng(1)
    p = _two_block_problem()
    for _ in range(10):
        x = p.project_domains(rng.standard_normal(p.n))
        y = rng.standard_normal(p.m)
        res = p.apply_E(x) - p.q
        l1v = augmented_lagrangian(p, x, y, 1.0)
        l2v = augmented_lagrangian(p, x, y, 2.0)
        expected = 0.5 * float(res @ res)
        assert abs((l2v - l1v) - expected) < 1e-12 * (1 + abs(l1v))


def test_lagrangian_sentinel_and_errors():
    p = build_problem([Block(E=np.eye(2), box=(-1.0, 1.0))], np.zeros(2))
    assert np.isinf(augmented_lagrangian(p, np.array([3.0, 0.0]),
                                         np.zeros(2), 1.0))
    with pytest.raises(ValueError):
        augmented_lagrangian(p, np.zeros(3), np.zeros(2), 1.0)
    with pytest.raises(ValueError):
        augmented_lagrangian(p, np.zeros(2), np.zeros(3), 1.0)
    with pytest.raises(ValueError):
        augmented_lagrangian(p, np.zeros(2), np.zeros(2), 0.0)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_smooth_gradient_feasible_no_smooth():
    rng = np.random.default_rng(2)
    E = rng.standard_normal((2, 3))
    x = rng.standard_normal(3)
    p = build_problem([Block(E=E, nonsmooth=L1(1.0))], E @ x)
    y = rng.standard_normal(2)
    g = _smooth_gradient(p, x, y, 1.0)
    err = np.linalg.norm(g - (-E.T @ y))
    assert err < 1e-12


def test_smooth_gradient_rho_zero_least_squares():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((4, 3))
    b = rng.standard_normal(4)
    p = build_problem([Block(E=rng.standard_normal((2, 3)), A=A,
                             smooth=SmoothTerm(b=b))], np.zeros(2))
    x = rng.standard_normal(3)
    # h = 0, so the prox-gradient residual is the smooth gradient
    g = proximal_gradient(p, x, np.zeros(2), 0.0)
    err = np.linalg.norm(g - A.T @ (A @ x - b))
    assert err < 1e-12
    with pytest.raises(ValueError):
        proximal_gradient(p, x, np.zeros(2), -1.0)


def test_smooth_gradient_matches_finite_differences():
    p = _two_block_problem(seed=4)
    rng = np.random.default_rng(5)
    rho = 1.3
    for _ in range(5):
        # stay strictly inside the box so L - h is smooth at x
        x = np.clip(rng.standard_normal(p.n), -1.5, 1.5)
        y = rng.standard_normal(p.m)

        def smooth_part(z):
            val = 0.5 * rho * np.sum((p.apply_E(z) - p.q) ** 2)
            val -= float(y @ (p.apply_E(z) - p.q))
            for blk in p.blocks:
                val += blk.smooth_value(z[blk.sl])
            return val

        g = _smooth_gradient(p, x, y, rho)
        fd = fd_gradient(smooth_part, x, 1e-6 * (1 + np.linalg.norm(x)))
        err = np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1e-8)
        assert err < 1e-5


def test_proximal_gradient_zero_at_smooth_minimum():
    # h = 0 everywhere, so L(.; y) is a strongly convex quadratic whose
    # minimizer satisfies (x - b) - y + rho (x - q) = 0.
    rng = np.random.default_rng(6)
    b = rng.standard_normal(3)
    q = rng.standard_normal(3)
    y = rng.standard_normal(3)
    rho = 2.0
    p = build_problem([Block(E=np.eye(3), smooth=SmoothTerm(b=b))], q)
    x_star = (b + y + rho * q) / (1.0 + rho)
    pg = proximal_gradient(p, x_star, y, rho)
    assert np.linalg.norm(pg) < 1e-14


def test_proximal_gradient_equals_smooth_gradient_without_h():
    p = build_problem(
        [Block(E=np.eye(3), smooth=SmoothTerm(b=np.array([1.0, -2.0, 0.5]))),
         Block(E=np.eye(3), nonsmooth=Zero())],
        np.zeros(3))
    rng = np.random.default_rng(7)
    for _ in range(10):
        x = rng.standard_normal(p.n)
        y = rng.standard_normal(p.m)
        pg = proximal_gradient(p, x, y, 1.5)
        sg = _smooth_gradient(p, x, y, 1.5)
        err = np.linalg.norm(pg - sg)
        assert err < 1e-13 * (1 + np.linalg.norm(x))


def test_proximal_gradient_small_at_inner_solution():
    p = _two_block_problem(seed=8)
    y = np.array([0.3, -0.8])
    res = minimize_lagrangian(p, y, 1.0, tol=1e-10)
    npg = np.linalg.norm(proximal_gradient(p, res.x_of_y, y, 1.0))
    assert npg <= 1e-10
    assert res.prox_grad_norm_at_exit <= 1e-10


# ---------------------------------------------------------------------------
# inner minimizer and the dual function
# ---------------------------------------------------------------------------

def test_minimize_lagrangian_closed_form():
    p = build_problem([Block(E=np.eye(3))], np.zeros(3))
    rng = np.random.default_rng(9)
    for rho in (0.5, 1.0, 2.0):
        y = rng.standard_normal(3)
        res = minimize_lagrangian(p, y, rho, tol=1e-10)
        err = np.linalg.norm(res.x_of_y - y / rho)
        assert err < 1e-9
        d_expected = -float(y @ y) / (2.0 * rho)
        assert abs(res.d_value - d_expected) < 1e-10 * (1 + abs(d_expected))
        err = np.linalg.norm(res.dual_grad - (-y / rho))
        assert err < 1e-9


def test_minimize_lagrangian_warm_start_at_solution():
    p = _two_block_problem(seed=10)
    y = np.array([0.1, 0.4])
    first = minimize_lagrangian(p, y, 1.0, tol=1e-10)
    again = minimize_lagrangian(p, y, 1.0, tol=1e-10,
                                warm_start=first.x_of_y)
    assert again.iterations <= p.K
    err = np.linalg.norm(again.x_of_y - first.x_of_y)
    assert err < 1e-9


def test_minimize_lagrangian_gradient_zero_at_dual_optimum():
    # q = 0 with l1 terms: x = 0 and y = 0 are optimal, so the dual
    # gradient at y = 0 vanishes.
    p = build_problem([Block(E=np.eye(2), nonsmooth=L1(1.0))], np.zeros(2))
    res = minimize_lagrangian(p, np.zeros(2), 1.0, tol=1e-10)
    assert np.linalg.norm(res.dual_grad) <= 1e-10
    assert res.d_value == 0.0


def test_minimize_lagrangian_cap_error_carries_best():
    p = _two_block_problem(seed=11)
    y = np.array([1.0, -1.0])
    with pytest.raises(ConvergenceError) as info:
        minimize_lagrangian(p, y, 1.0, tol=1e-14, max_iter=1)
    err = info.value
    assert err.best_x is not None and err.best_x.shape == (p.n,)
    assert np.isfinite(err.best_value)
    with pytest.raises(ValueError):
        minimize_lagrangian(p, y, 0.0)


def test_minimize_lagrangian_meets_tol_on_rank_one_coupling():
    # m = 1 and two 1-d l1 blocks: H = rho E^T E has rank 1, so the
    # Newton kernel stops at its first step on a singular system and the
    # fallback must finish the solve (cyclic sweeps stalled here at a
    # residual of 3.3e-3)
    p = build_problem([Block(E=[[0.471]], nonsmooth=L1(0.397)),
                       Block(E=[[0.865]], nonsmooth=L1(0.723))], [0.0])
    res = minimize_lagrangian(p, np.array([4.40]), 1.0, tol=1e-10,
                              warm_start=np.array([5.17, 0.78]))
    assert res.prox_grad_norm_at_exit <= 1e-10
    assert np.linalg.norm(
        proximal_gradient(p, res.x_of_y, np.array([4.40]), 1.0)) <= 1e-10


def test_minimize_lagrangian_sweep_count_on_group_l2():
    # The dual-Lipschitz workload of acceptance criterion 4: warm-started
    # solves on a 5-block ball-box instance at rho = 2, where plain
    # cyclic sweeps need about 95 per solve. The FISTA iterations that
    # follow the Newton solve (about 13 per solve) must stay below half
    # that, and the solve must meet tol at exit.
    p = gen_group_l2(m=15, K=5, n_k=3, seed=0)
    rng = np.random.default_rng(0)
    tol = 1e-5
    sweeps = []
    warm = None
    for _ in range(20):
        y = rng.standard_normal(p.m)
        res = minimize_lagrangian(p, y, 2.0, tol=tol, warm_start=warm)
        assert res.prox_grad_norm_at_exit <= tol
        sweeps.append(res.iterations)
        warm = res.x_of_y
    assert np.mean(sweeps) <= 45


def test_dual_concavity():
    p = _two_block_problem(seed=12)
    rng = np.random.default_rng(13)
    tol = 1e-10
    for _ in range(10):
        y1 = rng.normal(scale=2.0, size=p.m)
        y2 = rng.normal(scale=2.0, size=p.m)
        t = float(rng.uniform())
        d1, d2, dm = (minimize_lagrangian(p, yy, 1.0, tol=tol).d_value
                      for yy in (y1, y2, t * y1 + (1 - t) * y2))
        assert dm >= t * d1 + (1 - t) * d2 - 2 * tol


def test_dual_gradient_directional_finite_difference():
    p = _two_block_problem(seed=14)
    rng = np.random.default_rng(15)
    rho = 1.0
    for _ in range(5):
        y = rng.normal(scale=1.0, size=p.m)
        direction = rng.standard_normal(p.m)
        direction /= np.linalg.norm(direction)
        g = minimize_lagrangian(p, y, rho, tol=1e-10).dual_grad
        step = 1e-4
        d_plus, d_minus = (
            minimize_lagrangian(p, y + sign * step * direction, rho,
                                tol=1e-10).d_value for sign in (1, -1))
        fd = (d_plus - d_minus) / (2 * step)
        assert abs(fd - float(g @ direction)) < 1e-4


def test_dual_gradient_lipschitz():
    p = _two_block_problem(seed=16)
    rng = np.random.default_rng(17)
    tol = 1e-10
    for rho in (0.5, 2.0):
        for _ in range(100):
            y1 = rng.normal(scale=2.0, size=p.m)
            y2 = rng.normal(scale=2.0, size=p.m)
            g1, g2 = (minimize_lagrangian(p, yy, rho, tol=tol).dual_grad
                      for yy in (y1, y2))
            lhs = np.linalg.norm(g1 - g2)
            rhs = np.linalg.norm(y1 - y2) / rho + 10 * tol
            assert lhs <= rhs


def test_inner_minimizer_invariance_across_warm_starts():
    # |x1| + |x2| with x1 + x2 pinned by the penalty has a whole segment
    # of minimizers, so x(y) depends on the warm start; E x(y) and
    # A_k x_k(y) must not.
    A = np.array([[1.0]])
    p = build_problem(
        [Block(E=np.array([[1.0, 1.0]]), nonsmooth=L1(0.2)),
         Block(E=np.array([[0.5]]), A=A,
               smooth=SmoothTerm(b=np.array([0.7])))],
        np.array([0.3]))
    y = np.array([0.9])
    rng = np.random.default_rng(18)
    tol = 1e-10
    xs = []
    for i in range(5):
        warm = None if i == 0 else rng.normal(scale=3.0, size=p.n)
        res = minimize_lagrangian(p, y, 1.0, tol=tol, warm_start=warm)
        xs.append(res.x_of_y)
    images_E = [p.apply_E(x) for x in xs]
    images_A = [A @ x[2:] for x in xs]
    for i in range(5):
        for j in range(i + 1, 5):
            assert np.linalg.norm(images_E[i] - images_E[j]) <= 10 * tol
            assert np.linalg.norm(images_A[i] - images_A[j]) <= 10 * tol
    spread = max(np.linalg.norm(xs[i] - xs[j])
                 for i in range(5) for j in range(i + 1, 5))
    assert spread > 1e-6      # the minimizer set really is a continuum


def test_weak_duality_at_fixed_y():
    p = _two_block_problem(seed=19)
    rng = np.random.default_rng(20)
    for _ in range(5):
        y = rng.normal(scale=1.5, size=p.m)
        d = minimize_lagrangian(p, y, 1.0, tol=1e-10).d_value
        for _ in range(20):
            x = rng.normal(scale=2.0, size=p.n)
            assert d <= augmented_lagrangian(p, x, y, 1.0) + 1e-9
