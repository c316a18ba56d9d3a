"""Solver variants: block solves, sweep steps, descent margins, run()."""

import warnings

import numpy as np
import pytest

from blockadmm.generators import gen_lasso
from blockadmm.lagrangian import (
    ConvergenceError,
    augmented_lagrangian,
    minimize_lagrangian,
    proximal_gradient,
)
from blockadmm.problem import Block, SmoothTerm, build_problem, objective
from blockadmm.prox import L1, BoxIndicator, GroupL2
from blockadmm.diagnostics import reference_solution
from blockadmm.solvers import (
    SolverConfig,
    default_beta,
    nu_constant,
    run,
    solve_block,
    step_gauss_seidel,
    step_jacobi,
    step_jacobi_unsafe,
    step_proximal,
)
from blockadmm.trace import records_equal


def _mixed_problem(seed=0, m=3):
    """Three blocks: smooth+l1, box, group; all E full column rank."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((4, 2))
    blocks = [
        Block(E=rng.standard_normal((m, 2)), A=A,
              smooth=SmoothTerm(b=rng.standard_normal(4)),
              nonsmooth=L1(0.4)),
        Block(E=rng.standard_normal((m, 2)), box=(-1.5, 1.5)),
        Block(E=rng.standard_normal((m, 2)),
              nonsmooth=GroupL2([[0, 1]], [0.8])),
    ]
    return build_problem(blocks, rng.standard_normal(m))


def _dual_identity_max_rel_err(problem, records, rho):
    """Worst relative error of L(x^{r+1}; y^{r+1}) =
    L(x^{r+1}; y^r) + alpha * ||E x^{r+1} - q||^2 over a trace."""
    worst = 0.0
    for prev, cur in zip(records, records[1:]):
        if cur.r != prev.r + 1 or prev.x_next is None:
            continue
        res = problem.apply_E(prev.x_next) - problem.q
        lhs = augmented_lagrangian(problem, prev.x_next, cur.y, rho)
        rhs = (augmented_lagrangian(problem, prev.x_next, prev.y, rho)
               + prev.alpha * float(res @ res))
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    return worst


# ---------------------------------------------------------------------------
# block subproblem solver
# ---------------------------------------------------------------------------

def test_solve_block_closed_form():
    # free quadratic block with E_k = I: minimizer is c + y/rho where
    # c = q - (other blocks' contribution)
    rng = np.random.default_rng(0)
    E2 = rng.standard_normal((2, 2))
    p = build_problem([Block(E=np.eye(2)), Block(E=E2)],
                      rng.standard_normal(2))
    x = rng.standard_normal(4)
    y = rng.standard_normal(2)
    for rho in (0.5, 1.0, 2.0):
        u = solve_block(p, 0, x, y, rho, 1e-12)
        c = p.q - E2 @ x[2:]
        err = np.linalg.norm(u - (c + y / rho))
        assert err < 1e-10


def test_solve_block_fixed_point_certificate():
    p = _mixed_problem(seed=1)
    rng = np.random.default_rng(2)
    tol_block = 1e-11
    for k in range(p.K):
        for _ in range(5):
            x = p.project_domains(rng.normal(scale=1.5, size=p.n))
            y = rng.standard_normal(p.m)
            u = solve_block(p, k, x, y, 1.0, tol_block)
            x_ins = x.copy()
            x_ins[p.blocks[k].sl] = u
            pg = proximal_gradient(p, x_ins, y, 1.0)
            assert np.linalg.norm(pg[p.blocks[k].sl]) <= tol_block


def test_solve_block_warm_start_returns_immediately():
    p = _mixed_problem(seed=3)
    rng = np.random.default_rng(4)
    x = p.project_domains(rng.standard_normal(p.n))
    y = rng.standard_normal(p.m)
    for k in range(p.K):
        u = solve_block(p, k, x, y, 1.0, 1e-11)
        x2 = x.copy()
        x2[p.blocks[k].sl] = u
        u2 = solve_block(p, k, x2, y, 1.0, 1e-11)
        assert np.array_equal(u2, u)


def test_solve_block_cap_error_carries_best():
    p = _mixed_problem(seed=5)
    rng = np.random.default_rng(6)
    x = p.project_domains(rng.standard_normal(p.n))
    y = rng.standard_normal(p.m)
    with pytest.raises(ConvergenceError) as info:
        solve_block(p, 2, x, y, 1.0, 1e-15, max_iter=1)
    assert info.value.best_x is not None
    with pytest.raises(ValueError):
        solve_block(p, 0, x, y, 0.0, 1e-10)


# ---------------------------------------------------------------------------
# Gauss-Seidel steps
# ---------------------------------------------------------------------------

def test_gauss_seidel_alpha_zero_keeps_y():
    p = _mixed_problem(seed=7)
    rng = np.random.default_rng(8)
    x = p.project_domains(rng.standard_normal(p.n))
    y = rng.standard_normal(p.m)
    L_prev = augmented_lagrangian(p, x, y, 1.0)
    for _ in range(5):
        x, y_new = step_gauss_seidel(p, x, y, 1.0, alpha=0.0)
        assert np.array_equal(y_new, y)
        L_cur = augmented_lagrangian(p, x, y, 1.0)
        assert L_cur <= L_prev + 1e-12
        L_prev = L_cur


def test_gauss_seidel_single_block_is_method_of_multipliers():
    rng = np.random.default_rng(9)
    p = build_problem([Block(E=np.eye(3), nonsmooth=L1(0.3))],
                      rng.standard_normal(3))
    x = np.zeros(3)
    y = rng.standard_normal(3)
    alpha = 0.4
    x_next, y_next = step_gauss_seidel(p, x, y, 1.0, alpha=alpha,
                                       tol_block=1e-12)
    inner = minimize_lagrangian(p, y, 1.0, tol=1e-11)
    err = np.linalg.norm(x_next - inner.x_of_y)
    assert err < 1e-9
    expected_y = y + alpha * (p.q - p.apply_E(x_next))
    assert np.linalg.norm(y_next - expected_y) < 1e-14


def test_gauss_seidel_sweep_descent():
    # one full sweep decreases L by at least half the nominal constant
    # gamma = rho * min_k lambda_min(E_k^T E_k) times the squared step
    for seed in range(3):
        p = _mixed_problem(seed=seed)
        rng = np.random.default_rng(100 + seed)
        rho = 1.0
        gamma = rho * min(b.lambda_min for b in p.blocks)
        x = p.project_domains(rng.normal(scale=2.0, size=p.n))
        y = rng.standard_normal(p.m)
        for _ in range(8):
            L_before = augmented_lagrangian(p, x, y, rho)
            x_next, y_next = step_gauss_seidel(p, x, y, rho, alpha=0.05)
            L_after = augmented_lagrangian(p, x_next, y, rho)
            step_sq = float(np.sum((x_next - x) ** 2))
            assert L_before - L_after >= 0.5 * gamma * step_sq - 1e-9
            x, y = x_next, y_next


def test_gauss_seidel_per_block_descent():
    # each individual block update decreases L by at least
    # (rho * lambda_min_k / 2) * ||delta_k||^2
    p = _mixed_problem(seed=11)
    rng = np.random.default_rng(12)
    rho = 1.3
    x = p.project_domains(rng.normal(scale=2.0, size=p.n))
    y = rng.standard_normal(p.m)
    for _ in range(5):
        for k, b in enumerate(p.blocks):
            L_before = augmented_lagrangian(p, x, y, rho)
            u = solve_block(p, k, x, y, rho, 1e-12)
            x_new = x.copy()
            x_new[b.sl] = u
            L_after = augmented_lagrangian(p, x_new, y, rho)
            d_sq = float(np.sum((u - x[b.sl]) ** 2))
            assert L_before - L_after >= 0.5 * rho * b.lambda_min * d_sq - 1e-9
            x = x_new
        y = y + 0.05 * (p.q - p.apply_E(x))


# ---------------------------------------------------------------------------
# proximal (linearized) steps
# ---------------------------------------------------------------------------

def test_proximal_step_is_gradient_step_when_h_zero():
    rng = np.random.default_rng(13)
    q = rng.standard_normal(2)
    p = build_problem([Block(E=np.eye(2))], q)
    x = rng.standard_normal(2)
    y = rng.standard_normal(2)
    rho, beta, alpha = 2.0, 3.0, 0.1
    x_next, y_next = step_proximal(p, x, y, rho, alpha=alpha, beta=beta)
    expected = x - (rho * (x - q) - y) / beta
    assert np.linalg.norm(x_next - expected) < 1e-14
    expected_y = y + alpha * (q - x_next)
    assert np.linalg.norm(y_next - expected_y) < 1e-14


def test_proximal_descent_constant():
    for seed in range(3):
        p = _mixed_problem(seed=20 + seed)
        rng = np.random.default_rng(30 + seed)
        rho = 1.0
        nu = nu_constant(p, rho)
        beta = 1.5 * nu
        gamma = 0.5 * (beta - nu)
        x = p.project_domains(rng.normal(scale=2.0, size=p.n))
        y = rng.standard_normal(p.m)
        for _ in range(10):
            L_before = augmented_lagrangian(p, x, y, rho)
            x_next, y_next = step_proximal(p, x, y, rho, alpha=0.05,
                                           beta=beta)
            L_after = augmented_lagrangian(p, x_next, y, rho)
            step_sq = float(np.sum((x_next - x) ** 2))
            assert L_before - L_after >= gamma * step_sq - 1e-9
            x, y = x_next, y_next


def test_proximal_beta_validation():
    p = _mixed_problem(seed=14)
    nu = nu_constant(p, 1.0)
    x = np.zeros(p.n)
    y = np.zeros(p.m)
    with pytest.raises(ValueError, match="nu"):
        step_proximal(p, x, y, 1.0, alpha=0.1, beta=nu)
    step_proximal(p, x, y, 1.0, alpha=0.1, beta=1.01 * nu)


def test_proximal_allows_rank_deficient_blocks():
    # a block whose E has dependent columns: barred for Gauss-Seidel
    # descent accounting, fine for the linearized variant
    rng = np.random.default_rng(15)
    col = rng.standard_normal((3, 1))
    E1 = np.hstack([col, col])           # rank 1
    p = build_problem(
        [Block(E=E1, nonsmooth=L1(0.5)),
         Block(E=np.eye(3), smooth=SmoothTerm(b=rng.standard_normal(3)))],
        rng.standard_normal(3))
    res = run(p, variant="proximal", rho=1.0, alpha=0.05, beta="auto",
              tol_outer=1e-7, max_iters=20000)
    assert res.termination == "converged"
    assert res.feas <= 1e-7
    gs = run(p, variant="gauss_seidel", rho=1.0, alpha=0.05,
             tol_outer=1e-7, max_iters=50)
    assert any("full column rank" in w for w in gs.warnings)


def test_nu_constant_and_default_beta():
    p = build_problem([Block(E=np.eye(2))], np.zeros(2))
    assert nu_constant(p, 2.0) == 2.0
    assert nu_constant(p, 1.0) * 2 == nu_constant(p, 2.0)
    assert nu_constant(p, 0.0) == 0.0
    assert abs(default_beta(p, 2.0) - 1.01 * 2.0) < 1e-14
    with pytest.raises(ValueError):
        default_beta(p, 0.0)
    with pytest.raises(ValueError):
        nu_constant(p, -1.0)


# ---------------------------------------------------------------------------
# Jacobi steps
# ---------------------------------------------------------------------------

def test_jacobi_single_block_equals_gauss_seidel():
    rng = np.random.default_rng(16)
    p = build_problem([Block(E=np.eye(2), nonsmooth=L1(0.5))],
                      rng.standard_normal(2))
    x = np.zeros(2)
    y = rng.standard_normal(2)
    gs = step_gauss_seidel(p, x, y, 1.0, alpha=0.1)
    jx, jy, _ = step_jacobi(p, x, y, 1.0, alpha=0.1)
    ux, uy, _ = step_jacobi_unsafe(p, x, y, 1.0, alpha=0.1)
    assert np.array_equal(gs[0], jx) and np.array_equal(gs[1], jy)
    assert np.array_equal(gs[0], ux) and np.array_equal(gs[1], uy)


def test_jacobi_update_identity_exact():
    p = _mixed_problem(seed=17)          # K = 3 blocks
    rng = np.random.default_rng(18)
    x = p.project_domains(rng.standard_normal(p.n))
    y = rng.standard_normal(p.m)
    x_next, y_next, w = step_jacobi(p, x, y, 1.0, alpha=0.1)
    # the damped update satisfies K (x+ - x) = (w - x) up to one rounding
    # of the x + d round trip per coordinate
    scale = np.maximum(np.abs(x), np.abs(w)) + np.abs(w - x)
    lhs = p.K * (x_next - x)
    rhs = w - x
    assert np.all(np.abs(lhs - rhs) <= 4 * np.finfo(float).eps * p.K * scale)

    for K in (2, 4):
        rng = np.random.default_rng(19 + K)
        blocks = [Block(E=rng.standard_normal((3, 1)), nonsmooth=L1(0.3))
                  for _ in range(K)]
        p2 = build_problem(blocks, rng.standard_normal(3))
        x = rng.standard_normal(K)
        y = rng.standard_normal(3)
        x_next, y_next, w = step_jacobi(p2, x, y, 1.0, alpha=0.1)
        scale = np.maximum(np.abs(x), np.abs(w)) + np.abs(w - x)
        lhs = K * (x_next - x)
        assert np.all(np.abs(lhs - (w - x))
                      <= 4 * np.finfo(float).eps * K * scale)


def test_jacobi_descent_gamma_k():
    for seed in range(3):
        p = _mixed_problem(seed=40 + seed)
        rng = np.random.default_rng(50 + seed)
        rho = 1.0
        gamma_k = rho * min(b.lambda_min for b in p.blocks) * p.K
        x = p.project_domains(rng.normal(scale=2.0, size=p.n))
        y = rng.standard_normal(p.m)
        for _ in range(8):
            L_before = augmented_lagrangian(p, x, y, rho)
            x_next, y_next, _ = step_jacobi(p, x, y, rho, alpha=0.05)
            L_after = augmented_lagrangian(p, x_next, y, rho)
            step_sq = float(np.sum((x_next - x) ** 2))
            assert L_before - L_after >= gamma_k * step_sq - 1e-8
            x, y = x_next, y_next


def test_jacobi_unsafe_can_increase_and_is_detected():
    # three identical scalar blocks coupled through a single constraint:
    # the undamped sweep overshoots (s -> 3q - 2s), the damped one does
    # not. Two blocks can never exhibit this: exact blockwise descent
    # plus PSD coupling bounds the cross term.
    p = build_problem([Block(E=np.array([[1.0]])) for _ in range(3)],
                      np.array([1.0]))
    x = np.array([1.0, 1.0, 1.0])
    y = np.zeros(1)
    L0 = augmented_lagrangian(p, x, y, 1.0)
    x_up, _, w = step_jacobi_unsafe(p, x, y, 1.0, alpha=0.0)
    L1_ = augmented_lagrangian(p, x_up, y, 1.0)
    assert L1_ > L0 + 1.0

    res = run(p, variant="jacobi_unsafe", rho=1.0, alpha=0.1, max_iters=40)
    assert res.termination == "non_monotone_warning"
    assert any("increased" in msg for msg in res.warnings)

    # externally damped unsafe direction reproduces the safe variant
    xs, _, ws = step_jacobi(p, x, y, 1.0, alpha=0.1)
    assert np.array_equal(x + (w - x) / p.K, xs)
    assert np.array_equal(w, ws)

    safe = run(p, variant="jacobi", rho=1.0, alpha=0.1, max_iters=2000,
               tol_outer=1e-8)
    assert safe.termination == "converged"


# ---------------------------------------------------------------------------
# run()
# ---------------------------------------------------------------------------

def test_run_converges_at_zero_when_start_is_optimal():
    p = build_problem([Block(E=np.eye(2), nonsmooth=L1(1.0))], np.zeros(2))
    res = run(p, variant="gauss_seidel", rho=1.0, alpha=0.1)
    assert res.termination == "converged"
    assert res.iterations == 0
    assert np.array_equal(res.x, np.zeros(2))


def test_run_accepts_optimal_init():
    p = _mixed_problem(seed=21)
    first = run(p, variant="gauss_seidel", rho=1.0, alpha=0.1,
                tol_outer=1e-8, max_iters=20000)
    assert first.termination == "converged"
    again = run(p, variant="gauss_seidel", rho=1.0, alpha=0.1,
                tol_outer=1e-8, max_iters=20000,
                init=(first.x, first.y))
    assert again.termination == "converged"
    assert again.iterations == 0
    with pytest.raises(ValueError):
        run(p, variant="gauss_seidel", rho=1.0, alpha=0.1,
            init=(np.zeros(3), np.zeros(p.m)))


def test_run_lasso_reaches_reference_objective():
    p = gen_lasso(n_obs=30, n_feat=20, lam=0.5, seed=0)
    res = run(p, variant="gauss_seidel", rho=1.0, alpha="auto",
              tol_outer=1e-8, max_iters=20000)
    assert res.termination == "converged"
    ref = reference_solution(p, rho=1.0, tol_ref=1e-10)
    assert abs(res.objective - ref.f_star) <= 1e-5 * (1 + abs(ref.f_star))


def test_run_dual_update_identity_along_traces():
    p = _mixed_problem(seed=22)
    for variant in ("gauss_seidel", "proximal", "jacobi"):
        res = run(p, variant=variant, rho=1.0, alpha=0.05, beta="auto",
                  tol_outer=1e-8, max_iters=4000, trace_every=1)
        assert res.termination == "converged"
        assert len(res.records) >= 3
        worst = _dual_identity_max_rel_err(p, res.records, 1.0)
        assert worst <= 1e-10


def test_run_determinism_bitwise():
    p = _mixed_problem(seed=23)
    a = run(p, variant="gauss_seidel", rho=1.0, alpha="auto",
            tol_outer=1e-8, max_iters=4000, seed=0)
    b = run(p, variant="gauss_seidel", rho=1.0, alpha="auto",
            tol_outer=1e-8, max_iters=4000, seed=0)
    assert a.iterations == b.iterations
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    assert records_equal(a.records, b.records)
    for ra, rb in zip(a.records, b.records):
        assert np.array_equal(ra.x_next, rb.x_next)


def test_run_records_match_the_public_steps_bitwise():
    # run and the step_* functions take the same primal pass and dual
    # step, so each recorded transition is one public step, bit for bit.
    p = _mixed_problem(seed=26)
    tol_outer = 1e-8
    tol_block = min(1e-10, tol_outer / 100.0)
    for variant in ("gauss_seidel", "proximal", "jacobi", "jacobi_unsafe"):
        res = run(p, variant=variant, rho=1.0, alpha=0.05,
                  tol_outer=tol_outer, max_iters=30)
        assert res.tol_block == tol_block
        assert len(res.records) == res.iterations >= 3
        next_ys = [rec.y for rec in res.records[1:]] + [res.y]
        for rec, y_next in zip(res.records, next_ys):
            if variant == "gauss_seidel":
                out = step_gauss_seidel(p, rec.x, rec.y, 1.0, rec.alpha,
                                        tol_block=tol_block)
            elif variant == "proximal":
                out = step_proximal(p, rec.x, rec.y, 1.0, rec.alpha,
                                    res.beta)
            else:
                step = step_jacobi if variant == "jacobi" \
                    else step_jacobi_unsafe
                out = step(p, rec.x, rec.y, 1.0, rec.alpha,
                           tol_block=tol_block)
                assert np.array_equal(out[2], rec.w)
            assert np.array_equal(out[0], rec.x_next)
            assert np.array_equal(out[1], y_next)


def test_runs_over_several_rho_on_one_problem_match_fresh_builds():
    # Each block keeps the solve constants of the last rho only; going
    # back to an earlier rho recomputes them and gives the same bits.
    shared = _mixed_problem(seed=27)
    for rho in (1.0, 0.5, 1.0):
        a = run(shared, variant="gauss_seidel", rho=rho, alpha="auto",
                tol_outer=1e-8, max_iters=15)
        b = run(_mixed_problem(seed=27), variant="gauss_seidel", rho=rho,
                alpha="auto", tol_outer=1e-8, max_iters=15)
        assert a.iterations == b.iterations
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
        for ra, rb in zip(a.records, b.records):
            assert np.array_equal(ra.x_next, rb.x_next)
            assert np.array_equal(ra.xbar, rb.xbar)
            assert ra.d_y == rb.d_y and ra.alpha == rb.alpha
        assert all(blk._constants[0] == rho for blk in shared.blocks)


def test_run_keeps_the_monitors_inner_minimizer():
    # With alpha="auto" each record carries x(y^r) as the monitor solved
    # it, at the monitor tolerance max(10 * tol_block, 1e-11) = 1e-9;
    # fixed-alpha records carry none.
    p = _mixed_problem(seed=25)
    auto = run(p, variant="gauss_seidel", rho=1.0, alpha="auto",
               tol_outer=1e-8, max_iters=4000)
    assert auto.termination == "converged" and len(auto.records) >= 3
    for rec in auto.records:
        assert rec.xbar is not None
        pg = np.linalg.norm(proximal_gradient(p, rec.xbar, rec.y, 1.0))
        assert pg <= 1e-9
        assert rec.d_y == augmented_lagrangian(p, rec.xbar, rec.y, 1.0)
    fixed = run(p, variant="gauss_seidel", rho=1.0, alpha=0.1,
                tol_outer=1e-8, max_iters=4000)
    assert fixed.records
    assert all(rec.xbar is None and np.isnan(rec.d_y)
               for rec in fixed.records)


def test_run_reports_divergence_with_last_finite_iterate():
    # Undamped Jacobi on three copies of one scalar block overshoots by a
    # growing factor; the iterates overflow after a few hundred steps.
    p = build_problem([Block(E=[[1.0]])] * 3, q=[1.0])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = run(p, variant="jacobi_unsafe", alpha=0.1, max_iters=3000)
    assert res.termination == "diverged"
    assert res.iterations < 1000
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert np.all(np.isfinite(res.x)) and np.all(np.isfinite(res.y))
    assert len(res.records) == res.iterations
    assert np.array_equal(res.x, res.records[-1].x_next)
    assert any("non-finite at iteration %d" % res.iterations in note
               for note in res.warnings)


def test_run_config_validation():
    p = _mixed_problem(seed=24)
    with pytest.raises(ValueError):
        run(p, variant="sor", rho=1.0)
    with pytest.raises(ValueError):
        run(p, variant="gauss_seidel", rho=-1.0)
    with pytest.raises(ValueError):
        run(p, variant="gauss_seidel", rho=1.0, alpha=-0.1)
    with pytest.raises(ValueError, match="nu"):
        run(p, variant="proximal", rho=1.0, beta=0.01)
    cfg = SolverConfig(variant="gauss_seidel", rho=2.0, alpha="auto")
    res = run(p, config=cfg, max_iters=1)
    assert res.config.rho == 2.0
