"""Solver variants: block solves, sweep steps, descent margins, run()."""

import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockadmm.generators import (
    FAMILIES,
    gen_consensus,
    gen_group_l2,
    gen_l1_kblock,
    gen_lasso,
)
from blockadmm.lagrangian import (
    ConvergenceError,
    augmented_lagrangian,
    minimize_lagrangian,
    proximal_gradient,
)
from blockadmm.problem import (
    Block,
    SmoothTerm,
    add_slack_block,
    build_problem,
    objective,
)
from blockadmm.prox import L1, BoxIndicator, GroupL2, _Separable
from blockadmm.diagnostics import reference_solution
from blockadmm.solvers import (
    SolverConfig,
    default_beta,
    nu_constant,
    run,
    solve_block,
    step,
)
from blockadmm.trace import records_equal
from blockadmm import lagrangian, solvers
from oracles import monitored_run


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


def _no_newton(self, H, c, u, tol, evaluate, start, inverses=None):
    return u, float(np.linalg.norm(u - start[1])), 0


def test_solve_block_cap_error_carries_best():
    p = _mixed_problem(seed=5)
    rng = np.random.default_rng(6)
    x = p.project_domains(rng.standard_normal(p.n))
    y = rng.standard_normal(p.m)
    # Newton off: the prox-gradient loop's cap is what is under test
    with mock.patch.object(_Separable, "newton", _no_newton), \
            pytest.raises(ConvergenceError) as info:
        solve_block(p, 2, x, y, 1.0, 1e-15, max_iter=1)
    assert info.value.best_x is not None
    with pytest.raises(ValueError):
        solve_block(p, 0, x, y, 0.0, 1e-10)


def test_block_index_and_iterate_lengths_are_checked():
    # k = -1 used to solve the last block, k = K to raise a bare IndexError,
    # and a wrong length to fail inside NumPy's matmul
    p = gen_group_l2(10, 3, 2, seed=0)
    x, y = np.zeros(p.n), np.zeros(p.m)
    for k in (-1, 3):
        with pytest.raises(ValueError, match=r"block k=%d is not in \[0, K=3\)"
                           % k):
            solve_block(p, k, x, y, 1.0, 1e-10)
    for xy, msg in (
            ((x[1:], y), r"x has shape \(5,\), expected \(6,\)"),
            ((x, np.zeros(11)), r"y has shape \(11,\), expected \(10,\)")):
        with pytest.raises(ValueError, match=msg):
            solve_block(p, 0, *xy, 1.0, 1e-10)
        with pytest.raises(ValueError, match=msg):
            step(p, "gauss_seidel", *xy, 1.0, 0.1)
    # a short coupling residual used to fail inside NumPy's matmul
    with pytest.raises(ValueError,
                       match=r"coupling has shape \(3,\), expected \(10,\)"):
        solve_block(p, 0, x, y, 1.0, 1e-10, coupling=np.zeros(3))


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
        x, y_new, _ = step(p, "gauss_seidel", x, y, 1.0, alpha=0.0)
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
    x_next, y_next, _ = step(p, "gauss_seidel", x, y, 1.0, alpha=alpha)
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
            x_next, y_next, _ = step(p, "gauss_seidel", x, y, rho, alpha=0.05)
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
    x_next, y_next, _ = step(p, "proximal", x, y, rho, alpha=alpha,
                             beta=beta)
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
            x_next, y_next, _ = step(p, "proximal", x, y, rho, alpha=0.05,
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
        step(p, "proximal", x, y, 1.0, alpha=0.1, beta=nu)
    step(p, "proximal", x, y, 1.0, alpha=0.1, beta=1.01 * nu)


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
    gs = step(p, "gauss_seidel", x, y, 1.0, alpha=0.1)
    jx, jy, _ = step(p, "jacobi", x, y, 1.0, alpha=0.1)
    ux, uy, _ = step(p, "jacobi_unsafe", x, y, 1.0, alpha=0.1)
    assert np.array_equal(gs[0], jx) and np.array_equal(gs[1], jy)
    assert np.array_equal(gs[0], ux) and np.array_equal(gs[1], uy)


def test_jacobi_update_identity_exact():
    p = _mixed_problem(seed=17)          # K = 3 blocks
    rng = np.random.default_rng(18)
    x = p.project_domains(rng.standard_normal(p.n))
    y = rng.standard_normal(p.m)
    x_next, y_next, w = step(p, "jacobi", x, y, 1.0, alpha=0.1)
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
        x_next, y_next, w = step(p2, "jacobi", x, y, 1.0, alpha=0.1)
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
            x_next, y_next, _ = step(p, "jacobi", x, y, rho, alpha=0.05)
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
    x_up, _, w = step(p, "jacobi_unsafe", x, y, 1.0, alpha=0.0)
    L1_ = augmented_lagrangian(p, x_up, y, 1.0)
    assert L1_ > L0 + 1.0

    res = run(p, variant="jacobi_unsafe", rho=1.0, alpha=0.1, max_iters=40)
    assert res.termination == "non_monotone_warning"
    assert any("increased" in msg for msg in res.warnings)

    # externally damped unsafe direction reproduces the safe variant
    xs, _, ws = step(p, "jacobi", x, y, 1.0, alpha=0.1)
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
                  tol_outer=1e-8, max_iters=4000)
        assert res.termination == "converged"
        assert len(res.records) >= 3
        worst = _dual_identity_max_rel_err(p, res.records, 1.0)
        assert worst <= 1e-10


def test_run_determinism_bitwise():
    # the group-free lasso reaches d(y)'s inverse memo, which the second
    # run finds filled by the first
    for p, max_iters in ((_mixed_problem(seed=23), 4000),
                         (gen_lasso(n_obs=20, n_feat=10, seed=23), 300)):
        a = run(p, variant="gauss_seidel", rho=1.0, alpha="auto",
                tol_outer=1e-8, max_iters=max_iters)
        b = run(p, variant="gauss_seidel", rho=1.0, alpha="auto",
                tol_outer=1e-8, max_iters=max_iters)
        assert a.iterations == b.iterations
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
        assert records_equal(a.records, b.records)
        for ra, rb in zip(a.records, b.records):
            assert np.array_equal(ra.x_next, rb.x_next)
            assert np.array_equal(ra.xbar, rb.xbar)


def test_run_records_match_the_public_steps_bitwise():
    # run and step take the same primal pass and dual step, and step's
    # block solves run to run's tolerance at the default tol_outer, so
    # each recorded transition is one public step, bit for bit.
    p = _mixed_problem(seed=26)
    tol_outer = SolverConfig().tol_outer
    for variant in ("gauss_seidel", "proximal", "jacobi", "jacobi_unsafe"):
        res = run(p, variant=variant, rho=1.0, alpha=0.05,
                  tol_outer=tol_outer, max_iters=30)
        assert res.tol_block == min(1e-10, tol_outer / 100.0)
        assert len(res.records) == res.iterations >= 3
        next_ys = [rec.y for rec in res.records[1:]] + [res.y]
        for rec, y_next in zip(res.records, next_ys):
            out = step(p, variant, rec.x, rec.y, 1.0, rec.alpha, res.beta)
            if variant in ("jacobi", "jacobi_unsafe"):
                assert np.array_equal(out[2], rec.w)
            else:
                assert out[2] is None
            assert np.array_equal(out[0], rec.x_next)
            assert np.array_equal(out[1], y_next)


_SMALL_SHAPES = {
    "l1_kblock": {"m": 4, "K": 3},
    "group_l2": {"m": 6, "K": 3, "n_k": 2},
    "lasso": {"n_obs": 8, "n_feat": 5},
    "consensus": {"K": 3, "rows": 6, "cols": 4},
}


@settings(max_examples=30, deadline=None, derandomize=True)
@given(family=st.sampled_from(sorted(_SMALL_SHAPES)),
       seed=st.integers(0, 3),
       variant=st.sampled_from(solvers.VARIANTS),
       alpha=st.one_of(st.just("auto"), st.floats(0.01, 0.5)),
       tol_outer=st.sampled_from([1e-8, 1e-2]),
       max_iters=st.integers(1, 40),
       fault=st.sampled_from([None, "cap", "overflow"]),
       fault_at=st.integers(1, 30))
def test_run_records_every_iteration_as_one_chain(
        family, seed, variant, alpha, tol_outer, max_iters, fault,
        fault_at):
    # The diagnostics pair consecutive records: record i is iteration i,
    # and each record starts where the one before it ended, whatever the
    # termination. A fault in the fault_at-th primal pass (the run's own
    # or the monitor's lookahead) ends the run with "inner_cap" or
    # "diverged", and neither appends the failed iteration's record.
    p = FAMILIES[family](seed=seed, **_SMALL_SHAPES[family])
    calls = []
    original = solvers._primal_pass

    def faulty(*args):
        calls.append(None)
        x_next, w = original(*args)
        if fault and len(calls) == fault_at:
            if fault == "cap":
                raise ConvergenceError("block subproblem hit its cap")
            x_next = np.full_like(x_next, np.inf)
        return x_next, w

    with mock.patch.object(solvers, "_primal_pass", faulty):
        res = run(p, variant=variant, rho=1.0, alpha=alpha,
                  tol_outer=tol_outer, max_iters=max_iters)
    assert len(res.records) == res.iterations
    assert [rec.r for rec in res.records] == list(range(res.iterations))
    starts = [(rec.x, rec.y) for rec in res.records[1:]] + [(res.x, res.y)]
    for rec, (x, y) in zip(res.records, starts):
        assert np.array_equal(x, rec.x_next)
        assert np.array_equal(
            y, rec.y - rec.alpha * (p.apply_E(rec.x_next) - p.q))


@pytest.mark.parametrize("variant, alpha", [
    ("gauss_seidel", "auto"), ("proximal", 0.05), ("jacobi", 0.05),
    ("jacobi_unsafe", 0.05)])
def test_run_holds_each_iterate_once_and_read_only(variant, alpha):
    # Record r + 1 starts from record r's own x_next array, and the
    # result's x is the last one; a write into any of them would change
    # a neighbour, so it raises.
    p = gen_group_l2(seed=0, **_SMALL_SHAPES["group_l2"])
    res = run(p, variant=variant, rho=1.0, alpha=alpha, max_iters=10)
    assert res.iterations == 10
    for rec, nxt in zip(res.records, res.records[1:]):
        assert nxt.x is rec.x_next
    assert res.x is res.records[-1].x_next
    held = [res.x, res.y] + [a for rec in res.records
                             for a in (rec.x, rec.y, rec.x_next, rec.w)
                             if a is not None]
    assert len(held) == 2 + (4 if "jacobi" in variant else 3) * 10
    for a in held:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0


def test_runs_over_several_rho_on_one_problem_match_fresh_builds():
    # A block holds no per-rho state: runs at rho = 1, 0.5, 1 on one
    # problem give the bits of fresh builds and add or rebind no
    # attribute of any block. The group-free lasso also carries d(y)'s
    # inverse memo from one run to the next.
    for make in (lambda: _mixed_problem(seed=27),
                 lambda: gen_lasso(n_obs=20, n_feat=10, seed=27)):
        shared = make()
        built = [dict(vars(blk)) for blk in shared.blocks]
        for rho in (1.0, 0.5, 1.0):
            a = run(shared, variant="gauss_seidel", rho=rho, alpha="auto",
                    tol_outer=1e-8, max_iters=15)
            b = run(make(), variant="gauss_seidel", rho=rho, alpha="auto",
                    tol_outer=1e-8, max_iters=15)
            assert a.iterations == b.iterations
            assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
            for ra, rb in zip(a.records, b.records):
                assert np.array_equal(ra.x_next, rb.x_next)
                assert np.array_equal(ra.xbar, rb.xbar)
                assert ra.d_y == rb.d_y and ra.alpha == rb.alpha
            for blk, attrs in zip(shared.blocks, built):
                assert vars(blk).keys() == attrs.keys()
                assert all(vars(blk)[name] is value
                           for name, value in attrs.items())


def _closed_form_cases():
    """(problem, block index, whether its subproblem Hessian is a
    multiple of I at every rho)."""
    lasso = gen_lasso(n_obs=8, n_feat=5, seed=0)
    consensus = gen_consensus(K=3, rows=6, cols=4, seed=0)
    slack = add_slack_block(gen_lasso(n_obs=6, n_feat=4, seed=1), "ge")
    kblock = gen_l1_kblock(m=6, K=4, seed=0)
    group = gen_group_l2(m=8, K=3, n_k=2, seed=0)
    return ([(kblock, k, True) for k in range(kblock.K)]
            + [(lasso, 0, False), (lasso, 1, True)]
            + [(consensus, k, False) for k in range(3)]
            + [(consensus, 3, True), (slack, slack.K - 1, True)]
            + [(group, k, False) for k in range(group.K)])


@pytest.mark.parametrize("rho", [0.2, 1.0, 3.0])
def test_closed_form_block_solve_fires_exactly_on_scalar_curvature(
        monkeypatch, rho):
    calls = []
    newton_fista = lagrangian._newton_fista

    def counted(*args, **kwargs):
        calls.append(1)
        return newton_fista(*args, **kwargs)

    monkeypatch.setattr(lagrangian, "_newton_fista", counted)
    rng = np.random.default_rng(5)
    for p, k, scalar in _closed_form_cases():
        assert (p.blocks[k].scalar_curvature is not None) == scalar
        x = p.project_domains(rng.standard_normal(p.n))
        y = rng.standard_normal(p.m)
        calls.clear()
        solve_block(p, k, x, y, rho, 1e-10)
        assert len(calls) == (0 if scalar else 1), (k, scalar)


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


def test_run_names_an_inner_solve_cap(monkeypatch):
    # the monitor's fifth d(y) solve is the lookahead of iteration 3
    # (iteration 0 also solves d(y^0)); make it hit its cap
    calls = []
    original = solvers.minimize_lagrangian

    def capped(*args, **kwargs):
        calls.append(args)
        if len(calls) == 5:
            raise ConvergenceError("inner minimization hit its cap")
        return original(*args, **kwargs)

    monkeypatch.setattr(solvers, "minimize_lagrangian", capped)
    p = gen_lasso(n_obs=20, n_feat=8, seed=0)
    res = run(p, variant="proximal", rho=0.2, alpha="auto", max_iters=50)
    assert res.termination == "inner_cap"
    assert res.iterations == 3 and len(res.records) == 3
    assert np.array_equal(res.x, res.records[-1].x_next)
    assert any("cap at iteration 3" in note for note in res.warnings)


def test_run_names_a_block_solve_cap_in_the_primal_pass(monkeypatch):
    # a fixed-alpha Gauss-Seidel pass makes K block solves, so the
    # (2K + 1)-th is the first of iteration 2; make it hit its cap
    p = _mixed_problem(seed=25)
    calls = []
    original = solvers.solve_block

    def capped(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2 * p.K + 1:
            raise ConvergenceError("block subproblem hit its cap")
        return original(*args, **kwargs)

    monkeypatch.setattr(solvers, "solve_block", capped)
    res = run(p, variant="gauss_seidel", rho=1.0, alpha=0.1, max_iters=50)
    assert res.termination == "inner_cap"
    assert res.iterations == 2 and len(res.records) == 2
    assert np.array_equal(res.x, res.records[-1].x_next)
    assert any("cap at iteration 2" in note for note in res.warnings)


def _lower_lookaheads(monkeypatch, lowered, seen=None):
    """Lower d(y) by 1 in the monitor's d(y) solves whose 1-based call
    numbers are in ``lowered``, which raises the monitored gap there,
    and append their dual points to ``seen``. Call 1 solves d(y^0); with
    no rejection before it, call k >= 2 is the first lookahead of
    iteration k - 2."""
    calls = []
    original = solvers.minimize_lagrangian

    def lowered_d(*args, **kwargs):
        inner = original(*args, **kwargs)
        calls.append(args)
        if len(calls) in lowered:
            inner = replace(inner, d_value=inner.d_value - 1.0)
            if seen is not None:
                seen.append(args[1])
        return inner

    monkeypatch.setattr(solvers, "minimize_lagrangian", lowered_d)


def test_run_halves_alpha_on_a_rejected_lookahead(monkeypatch):
    # iteration 3's first lookahead is rejected; its second, at half the
    # step, is accepted, and the halved step is kept from there on
    _lower_lookaheads(monkeypatch, {5})
    p = _mixed_problem(seed=26)
    res = run(p, variant="gauss_seidel", rho=1.0, alpha="auto",
              max_iters=2000)
    assert res.termination == "converged"
    alphas = [rec.alpha for rec in res.records]
    assert alphas[:3] == [0.1] * 3
    assert alphas[3:] == [0.1 * 0.5] * (len(alphas) - 3)
    assert res.warnings == []


def test_run_flags_a_gap_that_rises_after_six_halvings(monkeypatch):
    # all seven tries of iteration 3 are rejected: the seventh is
    # committed at alpha / 64, with a warning and the non-monotone flag
    _lower_lookaheads(monkeypatch, set(range(5, 12)))
    p = _mixed_problem(seed=26)
    res = run(p, variant="gauss_seidel", rho=1.0, alpha="auto",
              max_iters=10)
    assert res.termination == "non_monotone_warning"
    assert [rec.alpha for rec in res.records[3:]] == [0.1 / 64] * 7
    assert res.warnings == ["combined gap still increased after 6 stepsize "
                            "halvings at iteration 3"]


def _assert_records_follow_the_plain_rule(res, plain):
    assert len(plain) == res.iterations == len(res.records)
    for rec, (x, y, x_next, alpha, L_val, d, xbar) in zip(res.records,
                                                          plain):
        for got, want in ((rec.x, x), (rec.y, y), (rec.x_next, x_next),
                          (rec.xbar, xbar)):
            assert np.array_equal(got, want)
        assert (rec.alpha, rec.L_val, rec.d_y) == (alpha, L_val, d)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("make, variant, rho", [
    (lambda seed: gen_group_l2(m=30, K=3, n_k=2, seed=seed),
     "gauss_seidel", 1.0),
    (lambda seed: gen_lasso(n_obs=40, n_feat=16, seed=seed), "proximal",
     0.2),
    (lambda seed: gen_consensus(seed=seed), "jacobi", 1.0),
], ids=["group_l2-gs", "lasso-prox", "consensus-jacobi"])
def test_monitor_matches_a_plain_loop_of_its_rule(make, variant, rho, seed):
    # run carries the committed lookahead into the next iteration; the
    # plain loop recomputes every pass and d(y) it compares, bit for bit
    p = make(seed)
    res = run(p, variant=variant, rho=rho, alpha="auto", max_iters=25)
    _assert_records_follow_the_plain_rule(
        res, monitored_run(p, variant, rho, res.iterations))


def test_monitor_matches_a_plain_loop_of_its_rule_with_rejections(
        monkeypatch):
    # iteration 3's first four lookaheads are rejected, at the dual
    # points of the run's 5th to 8th d(y) solves; the plain loop lowers
    # d(y) at the same points
    seen = []
    _lower_lookaheads(monkeypatch, {5, 6, 7, 8}, seen)
    p = _mixed_problem(seed=26)
    res = run(p, variant="gauss_seidel", rho=1.0, alpha="auto",
              max_iters=12)
    assert [rec.alpha for rec in res.records[2:4]] == [0.1, 0.1 / 16]
    _assert_records_follow_the_plain_rule(res, monitored_run(
        p, "gauss_seidel", 1.0, 12, lowered={y.tobytes() for y in seen}))


def test_run_ends_diverged_without_an_inner_solve_at_a_non_finite_pass(
        monkeypatch):
    # from the 6th primal pass on (iteration 4's first lookahead) every
    # pass is non-finite: that candidate gets no d(y) solve, is committed
    # and ends the run at iteration 5, whose pass it is
    passes, d_points = [], []
    original_pass, original_d = solvers._primal_pass, \
        solvers.minimize_lagrangian

    def overflowing(*args):
        passes.append(None)
        x_next, w = original_pass(*args)
        return (np.full_like(x_next, np.inf) if len(passes) >= 6
                else x_next), w

    def recorded(problem, y, rho, **kwargs):
        d_points.append((y, kwargs["warm_start"]))
        return original_d(problem, y, rho, **kwargs)

    monkeypatch.setattr(solvers, "_primal_pass", overflowing)
    monkeypatch.setattr(solvers, "minimize_lagrangian", recorded)
    p = _mixed_problem(seed=26)
    res = run(p, variant="gauss_seidel", rho=1.0, alpha="auto",
              max_iters=50)
    assert res.termination == "diverged"
    assert res.iterations == 5 and len(passes) == 6 and len(d_points) == 5
    assert all(np.isfinite(y).all() and np.isfinite(warm).all()
               for y, warm in d_points)
    assert np.isfinite(res.x).all() and np.isfinite(res.y).all()
    assert "non-finite at iteration 5" in res.warnings[-1]


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
    # NaN fails every comparison, so each setting is checked to be finite;
    # step takes the same checks
    x, y = np.zeros(p.n), np.zeros(p.m)
    for bad in (float("nan"), float("inf")):
        for setting in ({"rho": bad}, {"alpha": bad}, {"tol_outer": bad},
                        {"variant": "proximal", "beta": bad}):
            with pytest.raises(ValueError, match="finite"):
                run(p, **{"variant": "gauss_seidel", **setting})
        for rho, alpha, beta in ((bad, 0.1, None), (1.0, bad, None),
                                 (1.0, 0.1, bad)):
            with pytest.raises(ValueError, match="finite"):
                step(p, "proximal", x, y, rho, alpha, beta)
    with pytest.raises(ValueError, match="unknown variant"):
        step(p, "sor", x, y, 1.0, 0.1)
    with pytest.raises(ValueError, match="auto"):
        step(p, "gauss_seidel", x, y, 1.0, "auto")
    # max_iters is an integer of at least 1, alpha and beta "auto" or a
    # number, and init holds finite entries
    for setting, pattern in (({"max_iters": "5"}, "max_iters"),
                             ({"max_iters": 2.5}, "max_iters"),
                             ({"max_iters": True}, "max_iters"),
                             ({"max_iters": 0}, "max_iters"),
                             ({"alpha": np.array([0.1, 0.2])}, "alpha"),
                             ({"alpha": "fast"}, "alpha"),
                             ({"variant": "proximal",
                               "beta": np.array([1.0, 2.0])}, "beta"),
                             ({"init": (np.full(p.n, np.nan), y)}, "init"),
                             ({"init": (x, np.full(p.m, np.inf))}, "init")):
        with pytest.raises(ValueError, match=pattern):
            run(p, **setting)
    assert run(p, max_iters=np.int64(2)).iterations == 2
    cfg = SolverConfig(variant="gauss_seidel", rho=2.0, alpha="auto")
    res = run(p, config=cfg, max_iters=1)
    assert res.config.rho == 2.0
