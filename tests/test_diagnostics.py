"""Diagnostics: reference solves, gap accounting, inequality checks, fits."""

from dataclasses import replace

import numpy as np
import pytest

from blockadmm import diagnostics
from blockadmm.diagnostics import (
    alpha_bound_estimate,
    check_descent_lemma,
    check_dual_lipschitz,
    check_function_value_convergence,
    check_gap_decrease,
    compute_gaps,
    constructive_sigma,
    estimate_error_bound_constants,
    estimate_rate,
    gamma_value,
    reference_solution,
    run_diagnostics,
)
from blockadmm.generators import gen_group_l2, gen_l1_kblock, gen_lasso
from blockadmm.lagrangian import augmented_lagrangian, minimize_lagrangian
from blockadmm.problem import Block, SmoothTerm, build_problem, objective
from blockadmm.prox import L1
from blockadmm.solvers import nu_constant, run
from blockadmm.trace import TraceRecord

# shared instances are built once; reference solves are the slow part
_cache = {}


def _kb():
    """Small box-constrained l1 instance plus its reference solution."""
    if "kb" not in _cache:
        p = gen_l1_kblock(m=6, K=4, seed=0)
        _cache["kb"] = (p, reference_solution(p, rho=1.0))
    return _cache["kb"]


def _strongly_convex():
    """Two smooth least-squares blocks, E with full row and column rank."""
    if "sc" not in _cache:
        rng = np.random.default_rng(7)
        p = build_problem(
            [Block(E=rng.standard_normal((2, 2)),
                   A=rng.standard_normal((3, 2)),
                   smooth=SmoothTerm(b=rng.standard_normal(3))),
             Block(E=rng.standard_normal((2, 2)),
                   A=rng.standard_normal((4, 2)),
                   smooth=SmoothTerm(b=rng.standard_normal(4)))],
            rng.standard_normal(2))
        _cache["sc"] = (p, reference_solution(p, rho=1.0))
    return _cache["sc"]


def _consensus_1d():
    """min 0.5*(u - 1.3)^2 + 0.4*|z| subject to u = z."""
    if "cons" not in _cache:
        p = build_problem(
            [Block(E=np.array([[1.0]]), A=np.array([[1.0]]),
                   smooth=SmoothTerm(b=np.array([1.3]))),
             Block(E=np.array([[-1.0]]), nonsmooth=L1(0.4))],
            np.zeros(1))
        _cache["cons"] = (p, reference_solution(p, rho=1.0))
    return _cache["cons"]


def _lasso_diagnosed():
    """A diagnosed sweep trace on a tall lasso instance."""
    if "lasso" not in _cache:
        p = gen_lasso(n_obs=30, n_feat=20, K=2, lam=0.5, noise=0.1, seed=0)
        ref = reference_solution(p, rho=1.0)
        res = run(p, variant="gauss_seidel", rho=1.0, alpha="auto",
                  tol_outer=1e-12, max_iters=150)
        report, rows, recs = run_diagnostics(p, res.records, 1.0,
                                             reference=ref)
        _cache["lasso"] = (p, ref, report, rows, recs)
    return _cache["lasso"]


def _fails(rows):
    return [row for row in rows if not row.passed]


def _monotone_combined(records):
    return all(cur.combined <= prev.combined
               + 1e-9 * (1.0 + abs(prev.combined))
               for prev, cur in zip(records, records[1:]))


# ---------------------------------------------------------------------------
# reference solutions
# ---------------------------------------------------------------------------

def test_reference_trivial_instance_is_zero():
    # pure l1 with E = I and q = 0: the origin is primal and dual optimal
    p = build_problem([Block(E=np.eye(2), nonsmooth=L1(1.0))], np.zeros(2))
    ref = reference_solution(p, rho=1.0)
    assert np.linalg.norm(ref.x) == 0.0
    assert np.linalg.norm(ref.y) == 0.0
    assert ref.d_star == 0.0
    assert ref.f_star == 0.0
    assert ref.tol_ref == 1e-10


def test_reference_dual_value_agrees_across_inits():
    p, _ = _strongly_convex()
    inits = [None, 0.7 * np.ones(2),
             np.random.default_rng(5).standard_normal(2)]
    ds = [reference_solution(p, rho=1.0, y0=y0).d_star for y0 in inits]
    assert max(ds) - min(ds) < 1e-9


def test_reference_consensus_soft_threshold():
    # the coupled optimum is the soft-thresholded data value 1.3 -> 0.9
    p, ref = _consensus_1d()
    assert abs(ref.x[0] - 0.9) < 1e-9
    assert abs(ref.x[1] - 0.9) < 1e-9
    assert abs(ref.y[0] + 0.4) < 1e-9
    assert abs(ref.d_star - 0.44) < 1e-9
    assert abs(ref.f_star - ref.d_star) < 1e-9
    # brute-force scan of the reduced one-variable objective
    ts = np.arange(-2.0, 2.0, 1e-4)
    vals = 0.5 * (ts - 1.3) ** 2 + 0.4 * np.abs(ts)
    assert abs(ts[np.argmin(vals)] - ref.x[0]) < 2e-4


def test_reference_validation_and_iteration_cap():
    p, _ = _kb()
    with pytest.raises(ValueError, match="rho"):
        reference_solution(p, rho=0.0)
    for bad in (0.0, -1e-12, 1e-9):
        with pytest.raises(ValueError, match="tol_ref"):
            reference_solution(p, rho=1.0, tol_ref=bad)
    p_sc, _ = _strongly_convex()
    with pytest.raises(RuntimeError, match="did not reach"):
        reference_solution(p_sc, rho=1.0, y0=5.0 * np.ones(2), max_outer=1)


# ---------------------------------------------------------------------------
# gap computation
# ---------------------------------------------------------------------------

def test_gaps_vanish_at_reference():
    p, ref = _consensus_1d()
    rec = TraceRecord(
        r=0,
        L_val=augmented_lagrangian(p, ref.x, ref.y, 1.0),
        f_val=objective(p, ref.x),
        step=0.0,
        alpha=0.1,
        x=ref.x.copy(), y=ref.y.copy(), x_next=ref.x.copy())
    _, rows = compute_gaps(p, [rec], ref, 1.0)
    assert _fails(rows) == []
    assert abs(rec.delta_p) <= 1e-9
    assert abs(rec.delta_d) <= 1e-9
    assert rec.xbar is not None


def test_gap_identity_and_nonnegativity_along_run():
    p, ref = _kb()
    res = run(p, variant="gauss_seidel", rho=1.0, alpha=0.1,
              tol_outer=1e-13, max_iters=40)
    _, rows = compute_gaps(p, res.records, ref, 1.0)
    assert _fails(rows) == []
    assert {row.check_name for row in rows} == {
        "gap_identity", "primal_gap_nonneg", "dual_gap_nonneg"}
    assert len(rows) == 3 * len(res.records)
    for rec in res.records:
        assert np.isfinite(rec.delta_p) and np.isfinite(rec.delta_d)
        assert rec.xbar is not None


def test_gaps_polish_the_monitors_inner_minimizer(monkeypatch):
    # compute_gaps warm-starts from the xbar an auto-alpha run stored, so
    # it only polishes from the monitor's 1e-9 to tol_ref; a copy with
    # xbar cleared chains from the previous record's minimizer instead.
    p = gen_group_l2(m=30, K=3, n_k=2, seed=0)
    res = run(p, variant="gauss_seidel", rho=1.0, alpha="auto",
              tol_outer=1e-8, max_iters=1000)
    assert res.termination == "converged"
    ref = reference_solution(p, rho=1.0)
    cleared = [replace(rec, xbar=None) for rec in res.records]
    sweeps = []
    solve = diagnostics.minimize_lagrangian

    def counted(*args, **kwargs):
        inner = solve(*args, **kwargs)
        sweeps.append(inner.iterations + inner.newton_steps)
        return inner

    monkeypatch.setattr(diagnostics, "minimize_lagrangian", counted)
    _, rows = compute_gaps(p, res.records, ref, 1.0)
    kept = np.mean(sweeps)
    sweeps.clear()
    _, rows_cleared = compute_gaps(p, cleared, ref, 1.0)
    chained = np.mean(sweeps)
    assert kept <= 0.5 < chained
    for a, b in zip(res.records, cleared):
        tol = 10.0 * ref.tol_ref * (1.0 + abs(a.L_val))
        for name in ("d_y", "delta_p", "delta_d"):
            assert abs(getattr(a, name) - getattr(b, name)) <= tol
    gamma = gamma_value(p, 1.0)
    rows += check_gap_decrease(p, res.records, ref, gamma)
    rows_cleared += check_gap_decrease(p, cleared, ref, gamma)
    assert len(rows) == len(rows_cleared) > 3 * len(res.records)
    assert [(row.r, row.check_name, row.passed) for row in rows] == \
        [(row.r, row.check_name, row.passed) for row in rows_cleared]


def test_gap_decrease_skips_records_without_gaps():
    # A solved auto-alpha run carries xbar and d_y but no gaps yet; gaps
    # read back from a trace CSV come without xbar.
    p, ref = _kb()
    gamma = gamma_value(p, 1.0)
    res = run(p, variant="gauss_seidel", rho=1.0, alpha="auto",
              tol_outer=1e-13, max_iters=20)
    assert all(rec.xbar is not None for rec in res.records)
    assert check_gap_decrease(p, res.records, ref, gamma) == []
    compute_gaps(p, res.records, ref, 1.0)
    assert check_gap_decrease(p, res.records, ref, gamma)
    unfilled = [replace(rec, xbar=None) for rec in res.records]
    assert check_gap_decrease(p, unfilled, ref, gamma) == []


def test_gap_computation_requires_iterate_states():
    p, ref = _kb()
    with pytest.raises(ValueError, match="no iterate states"):
        compute_gaps(p, [TraceRecord(r=0)], ref, 1.0)


# ---------------------------------------------------------------------------
# descent constant and descent check
# ---------------------------------------------------------------------------

def test_gamma_value_by_variant():
    p = build_problem([Block(E=np.eye(2), nonsmooth=L1(1.0)),
                       Block(E=2.0 * np.eye(2))], np.zeros(2))
    # smallest block eigenvalue is 1 (the identity block)
    assert gamma_value(p, 2.0) == pytest.approx(2.0)
    assert gamma_value(p, 2.0, variant="jacobi") == pytest.approx(2.0)
    nu = nu_constant(p, 1.0)
    got = gamma_value(p, 1.0, variant="proximal", beta=1.5 * nu)
    assert got == pytest.approx(0.25 * nu)
    with pytest.raises(ValueError, match="beta"):
        gamma_value(p, 1.0, variant="proximal")
    with pytest.raises(ValueError, match="unknown variant 'bogus'"):
        gamma_value(p, 1.0, variant="bogus")


def test_gamma_value_checks_beta_as_run_does():
    # an unchecked beta gave NaN, or a negative descent constant (-8.159
    # for beta = 0.001 here) that every descent and gap row then used
    p = gen_group_l2(10, 3, 2, seed=0)
    nu = nu_constant(p, 1.0)
    for beta in (float("nan"), float("inf"), -float("inf"), 0.001, nu):
        with pytest.raises(ValueError, match=r"\bbeta\b"):
            gamma_value(p, 1.0, variant="proximal", beta=beta)
        with pytest.raises(ValueError, match=r"\bbeta\b"):
            run(p, variant="proximal", beta=beta, alpha=0.1, max_iters=1)
    assert gamma_value(p, 1.0, variant="proximal", beta=2.0 * nu) == \
        pytest.approx(0.5 * nu)


def test_descent_ratio_on_exact_quadratic_block():
    # one free quadratic block with E = I: each sweep lands on the exact
    # minimizer, so the drop is exactly (rho/2) * step^2
    rng = np.random.default_rng(3)
    p = build_problem([Block(E=np.eye(2))], rng.standard_normal(2))
    res = run(p, variant="gauss_seidel", rho=2.0, alpha=0.3,
              tol_outer=1e-16, max_iters=12,
              init=(rng.standard_normal(2), rng.standard_normal(2)))
    rows, gamma_observed = check_descent_lemma(p, res.records, 2.0, 1.0)
    assert rows and _fails(rows) == []
    assert gamma_observed == pytest.approx(1.0, abs=1e-10)
    # at the full modulus rho the same trace violates every row
    rows_nom, _ = check_descent_lemma(p, res.records, 2.0, 2.0)
    assert rows_nom and all(not row.passed for row in rows_nom)


def test_descent_check_skips_zero_steps():
    p, ref = _kb()
    rec = TraceRecord(r=0,
                      L_val=augmented_lagrangian(p, ref.x, ref.y, 1.0),
                      step=0.0, x=ref.x.copy(), y=ref.y.copy(),
                      x_next=ref.x.copy())
    rows, gamma_observed = check_descent_lemma(p, [rec], 1.0, 1.0)
    assert rows == []
    assert gamma_observed == float("inf")


def test_descent_threshold_scales_with_block_count_for_jacobi():
    p, _ = _kb()
    res = run(p, variant="jacobi", rho=1.0, alpha=0.1,
              tol_outer=1e-13, max_iters=30)
    gamma = gamma_value(p, 1.0)
    rows_j, gamma_observed = check_descent_lemma(p, res.records, 1.0, gamma,
                                                 variant="jacobi")
    assert rows_j and _fails(rows_j) == []
    assert gamma_observed >= gamma * p.K
    # same records, same gamma: the jacobi threshold is K times larger
    rows_gs, _ = check_descent_lemma(p, res.records, 1.0, gamma)
    for row_j, row_gs in zip(rows_j, rows_gs):
        assert row_j.rhs == pytest.approx(p.K * row_gs.rhs, rel=1e-12)


# ---------------------------------------------------------------------------
# gap decrease estimates
# ---------------------------------------------------------------------------

def test_gap_decrease_alpha_zero_reduces_to_descent():
    p, ref = _kb()
    res = run(p, variant="gauss_seidel", rho=1.0, alpha=0.0,
              tol_outer=1e-13, max_iters=25)
    compute_gaps(p, res.records, ref, 1.0)
    gamma_half = 0.5 * gamma_value(p, 1.0)
    rows = check_gap_decrease(p, res.records, ref, gamma_half)
    assert rows and _fails(rows) == []
    assert len(rows) == 3 * (len(res.records) - 1)
    for row in rows:
        if row.check_name == "dual_gap_decrease":
            # y never moves, so the dual gap is frozen
            assert abs(row.lhs) <= 1e-12
            assert row.rhs == 0.0
        elif row.check_name == "primal_gap_decrease":
            # the estimate degenerates to plain sufficient descent
            assert row.rhs <= 0.0


def test_gap_decrease_estimates_hold_for_any_stepsize():
    # the three estimates are consequences of convexity and sufficient
    # descent alone; they hold even for stepsizes that destroy
    # monotonicity of the combined gap
    p, ref = _kb()
    gamma_half = 0.5 * gamma_value(p, 1.0)
    for alpha in (2.0, 5.0):
        res = run(p, variant="gauss_seidel", rho=1.0, alpha=alpha,
                  tol_outer=1e-13, max_iters=20)
        compute_gaps(p, res.records, ref, 1.0)
        rows = check_gap_decrease(p, res.records, ref, gamma_half)
        assert rows and _fails(rows) == []
    # alpha = 5 does break monotonicity, which the monitor must flag
    assert not _monotone_combined(res.records)


def test_gap_decrease_adaptive_alpha_keeps_combined_monotone():
    _, _, report, rows, recs = _lasso_diagnosed()
    assert report.monotone_combined is True
    mono_rows = [row for row in rows if row.check_name == "combined_monotone"]
    assert mono_rows and _fails(mono_rows) == []
    assert _monotone_combined(recs)


def test_run_diagnostics_flags_oversized_stepsize():
    p, ref = _kb()
    res = run(p, variant="gauss_seidel", rho=1.0, alpha=5.0,
              tol_outer=1e-13, max_iters=20)
    report, rows, _ = run_diagnostics(p, res.records, 1.0, reference=ref)
    assert report.monotone_combined is False
    bad = [row for row in rows
           if row.check_name == "combined_monotone" and not row.passed]
    assert bad


# ---------------------------------------------------------------------------
# rate fits
# ---------------------------------------------------------------------------

def test_rate_fit_recovers_exact_geometric_decay():
    records = [TraceRecord(r=r, delta_p=0.5 * 0.9 ** r,
                           delta_d=0.5 * 0.9 ** r) for r in range(80)]
    fit = estimate_rate(records)
    assert abs(fit.mu - 0.9) < 1e-12
    assert abs(fit.r2 - 1.0) < 1e-12
    assert fit.n_points == 48
    assert fit.flag is None
    # explicit values override the stored gaps
    fit_v = estimate_rate(records, values=[2.0 * 0.8 ** r for r in range(80)])
    assert abs(fit_v.mu - 0.8) < 1e-12


def test_rate_fit_flags_constant_sequence():
    records = [TraceRecord(r=r, delta_p=0.25, delta_d=0.25)
               for r in range(60)]
    fit = estimate_rate(records)
    assert fit.mu == pytest.approx(1.0, abs=1e-12)
    assert fit.flag == "no decrease"


def test_rate_fit_rejects_insufficient_points():
    records = [TraceRecord(r=r, delta_p=0.5 * 0.9 ** r, delta_d=0.0)
               for r in range(12)]
    with pytest.raises(ValueError, match="insufficient points"):
        estimate_rate(records)


def test_rate_fit_on_lasso_sweep_trace():
    _, _, report, _, recs = _lasso_diagnosed()
    fit = estimate_rate(recs, noise_floor=1e-8)
    assert 0.5 < fit.mu < 1.0
    assert fit.r2 >= 0.98
    assert fit.n_points >= 20
    assert report.rate_mu == pytest.approx(fit.mu, rel=1e-12)
    # the fitted rate is insensitive to the burn-in choice
    fit_late = estimate_rate(recs, burn_in_fraction=0.6, noise_floor=1e-8)
    assert abs(fit.mu - fit_late.mu) < 0.05


# ---------------------------------------------------------------------------
# dual gradient Lipschitz bound
# ---------------------------------------------------------------------------

def test_dual_lipschitz_ratio_closed_form():
    # f = 0 and E = I make the dual gradient -y/rho: the ratio is exactly
    # 1/rho, and doubling rho halves it
    p = build_problem([Block(E=np.eye(2))], np.array([0.4, -0.2]))
    checks = {}
    for rho in (1.0, 2.0):
        lip = check_dual_lipschitz(p, rho, n_pairs=30, tol=1e-10, seed=1)
        assert lip.passed
        assert lip.max_ratio == pytest.approx(1.0 / rho, abs=1e-9)
        assert lip.n_pairs > 0
        assert lip.min_distance > 0.0
        checks[rho] = lip.max_ratio
    assert checks[2.0] == pytest.approx(0.5 * checks[1.0], rel=1e-9)


def test_dual_lipschitz_bound_on_generated_instance():
    p, _ = _kb()
    for rho in (1.0, 2.0):
        lip = check_dual_lipschitz(p, rho, n_pairs=30, tol=1e-9, seed=1)
        assert lip.passed
        assert lip.max_ratio <= 1.0 / rho + 1e-6


def test_dual_lipschitz_needs_distinct_pairs():
    p, _ = _kb()
    with pytest.raises(ValueError, match="no usable dual pairs"):
        check_dual_lipschitz(p, 1.0, n_pairs=5, radius=0.0, seed=0)


# ---------------------------------------------------------------------------
# empirical error-bound constants
# ---------------------------------------------------------------------------

def test_error_bound_skips_samples_below_noise_floor():
    # radius 0 keeps every sample at the reference, where both sides of
    # the bound vanish; nothing is usable
    p, ref = _kb()
    est = estimate_error_bound_constants(p, 1.0, ref, n_samples=5,
                                         radius=0.0, tol=1e-10, seed=0)
    assert est.tau_primal == 0.0
    assert est.tau_dual == 0.0
    assert est.n_primal_used == 0
    assert est.n_dual_used == 0


def test_error_bound_dual_constant_matches_definition():
    p, ref = _strongly_convex()
    n_samples, radius, tol, seed = 8, 1.0, 1e-10, 3
    est = estimate_error_bound_constants(p, 1.0, ref, n_samples=n_samples,
                                         radius=radius, tol=tol, seed=seed)
    # replay the sampling protocol: primal draws come first
    rng = np.random.default_rng(seed)
    for _ in range(n_samples):
        rng.standard_normal(p.n)
    dists, gnorms = [], []
    warm = None
    for _ in range(n_samples):
        ys = ref.y + radius * rng.standard_normal(p.m)
        inner = minimize_lagrangian(p, ys, 1.0, tol=tol, warm_start=warm)
        warm = inner.x_of_y
        gnorm = float(np.linalg.norm(inner.dual_grad))
        if gnorm <= 100.0 * tol:
            continue
        dists.append(float(np.linalg.norm(ys - ref.y)))
        gnorms.append(gnorm)
    assert est.n_dual_used == len(dists)
    assert est.tau_dual == pytest.approx(
        max(d / g for d, g in zip(dists, gnorms)), rel=1e-9)
    # the reported constant covers every sampled point by construction
    assert est.tau_dual * max(gnorms) >= max(dists) - 1e-12


def test_error_bound_stable_on_strongly_convex_instance():
    p, ref = _strongly_convex()
    est_50 = estimate_error_bound_constants(p, 1.0, ref, n_samples=50,
                                            tol=1e-10, seed=0)
    est_200 = estimate_error_bound_constants(p, 1.0, ref, n_samples=200,
                                             tol=1e-10, seed=0)
    assert np.isfinite(est_50.tau_primal) and est_50.tau_primal > 0.0
    ratio = est_200.tau_primal / est_50.tau_primal
    assert 1.0 / 1.2 <= ratio <= 1.2
    assert est_50.dual_upper_bound_only is False


def test_error_bound_flags_nonunique_dual_set():
    # duplicated constraint rows leave E^T with a kernel: the distance to
    # the reference dual point only upper-bounds the true dual distance
    p = build_problem([Block(E=np.array([[1.0], [1.0]]), nonsmooth=L1(0.5))],
                      np.zeros(2))
    ref = reference_solution(p, rho=1.0)
    est = estimate_error_bound_constants(p, 1.0, ref, n_samples=4,
                                         tol=1e-10, seed=0)
    assert est.dual_upper_bound_only is True


# ---------------------------------------------------------------------------
# stepsize bound assembly
# ---------------------------------------------------------------------------

def test_alpha_bound_estimate_values_and_validation():
    assert alpha_bound_estimate(1.0, 1.0, 1.0, 1.0) == 1.0
    base = alpha_bound_estimate(2.0, 3.0, 0.5, 1.5)
    assert alpha_bound_estimate(2.0, 3.0, 1.0, 1.5) == \
        pytest.approx(base / 4.0, rel=1e-12)
    for args in ((0.0, 1.0, 1.0, 1.0), (1.0, -1.0, 1.0, 1.0),
                 (1.0, 1.0, 0.0, 1.0), (1.0, 1.0, 1.0, 0.0),
                 (float("inf"), 1.0, 1.0, 1.0)):
        with pytest.raises(ValueError, match="must be positive"):
            alpha_bound_estimate(*args)


def test_alpha_bound_half_estimate_keeps_gap_monotone():
    p, ref, report, _, _ = _lasso_diagnosed()
    assert np.isfinite(report.alpha_bound_estimate)
    assert report.alpha_bound_estimate > 0.0
    res = run(p, variant="gauss_seidel", rho=1.0,
              alpha=0.5 * report.alpha_bound_estimate,
              tol_outer=1e-12, max_iters=120)
    compute_gaps(p, res.records, ref, 1.0)
    assert _monotone_combined(res.records)


# ---------------------------------------------------------------------------
# function-value convergence
# ---------------------------------------------------------------------------

def test_function_value_identity_and_decay_fit():
    p, ref, _, _, recs = _lasso_diagnosed()
    rows, fit = check_function_value_convergence(p, recs, ref, 1.0)
    assert rows and _fails(rows) == []
    assert fit is not None
    assert fit.mu < 1.0
    assert fit.r2 >= 0.95


def test_function_value_identity_at_reference():
    p, ref = _consensus_1d()
    rec = TraceRecord(
        r=0,
        L_val=augmented_lagrangian(p, ref.x, ref.y, 1.0),
        f_val=objective(p, ref.x),
        step=0.0, alpha=0.1,
        x=ref.x.copy(), y=ref.y.copy(), x_next=ref.x.copy())
    compute_gaps(p, [rec], ref, 1.0)
    rows, fit = check_function_value_convergence(p, [rec], ref, 1.0)
    assert len(rows) == 1
    assert rows[0].passed
    assert abs(rows[0].lhs) <= 1e-9
    assert fit is None


# ---------------------------------------------------------------------------
# prox-gradient-to-step constant
# ---------------------------------------------------------------------------

def test_constructive_sigma_value_and_empirical_bound():
    p_simple = build_problem([Block(E=np.eye(2), nonsmooth=L1(1.0))],
                             np.zeros(2))
    assert constructive_sigma(p_simple, 2.0) == pytest.approx(4.0)
    assert constructive_sigma(p_simple, 2.0) > constructive_sigma(
        p_simple, 1.0)
    p, _ = _kb()
    sigma = constructive_sigma(p, 1.0)
    res = run(p, variant="gauss_seidel", rho=1.0, alpha=0.1,
              tol_outer=1e-13, max_iters=40)
    checked = 0
    for rec in res.records:
        if rec.step > 1e-8:
            assert rec.pg / rec.step <= sigma
            checked += 1
    assert checked > 0


# ---------------------------------------------------------------------------
# full report
# ---------------------------------------------------------------------------

def test_run_diagnostics_report_on_group_instance():
    p = gen_group_l2(m=10, K=4, n_k=2, seed=0)
    res = run(p, variant="gauss_seidel", rho=1.0, alpha="auto",
              tol_outer=1e-12, max_iters=60)
    report, rows, recs = run_diagnostics(p, res.records, 1.0)
    assert _fails(rows) == []
    assert report.monotone_combined is True
    assert 0.0 < report.rate_mu < 1.0
    assert report.fit_r2 > 0.95
    assert report.gamma_observed > 0.0
    assert report.sigma_emp > 0.0
    assert report.lipschitz_ratio_max <= 1.0 + 1e-6
    assert report.tau_primal_emp > 0.0
    assert report.tau_dual_emp > 0.0
    assert 0.0 < report.alpha_bound_estimate < float("inf")
    # E is wide here, so the dual set may be non-unique and is flagged
    assert any("non-unique" in w for w in report.warnings)
    doc = report.to_doc()
    assert doc["monotone_combined"] is True
    assert doc["rate_mu"] == report.rate_mu
    assert len(recs) == len(res.records)


def test_run_diagnostics_warns_when_the_gap_does_not_decrease():
    # alpha = 0 never moves y, so the dual gap, and with it the combined
    # gap, stays put
    p, _ = _kb()
    res = run(p, variant="gauss_seidel", rho=1.0, alpha=0.0,
              tol_outer=1e-8, max_iters=40)
    report, _, _ = run_diagnostics(p, res.records, 1.0)
    assert "rate fit: no decrease" in report.warnings


def test_run_diagnostics_warns_when_the_stepsize_bound_degenerates():
    p = gen_lasso(n_obs=4, n_feat=8)
    res = run(p, variant="gauss_seidel", rho=1.0, alpha=0.1,
              tol_outer=1e-8, max_iters=50)
    report, _, _ = run_diagnostics(p, res.records, 1.0)
    assert report.alpha_bound_estimate == float("inf")
    assert any(w.startswith("stepsize bound not estimable")
               for w in report.warnings)


def test_run_diagnostics_requires_iterate_states():
    p, ref = _kb()
    with pytest.raises(ValueError, match="no iterate states"):
        run_diagnostics(p, [TraceRecord(r=0, L_val=1.0)], 1.0, reference=ref)


def test_run_diagnostics_rejects_an_unknown_variant():
    # a variant outside solvers.VARIANTS has no descent constant; it is
    # not diagnosed as Gauss-Seidel
    p, ref = _kb()
    res = run(p, variant="gauss_seidel", rho=1.0, alpha=0.1,
              tol_outer=1e-13, max_iters=8)
    with pytest.raises(ValueError, match="unknown variant 'bogus'"):
        run_diagnostics(p, res.records, 1.0, variant="bogus", reference=ref)


def test_run_diagnostics_requires_consecutive_records():
    # every check pairs iteration r with r - 1; a missing record stops
    # the diagnosis instead of silently dropping its pairs
    p, ref = _kb()
    res = run(p, variant="gauss_seidel", rho=1.0, alpha=0.1,
              tol_outer=1e-13, max_iters=8)
    del res.records[4]
    with pytest.raises(ValueError, match="record 5 follows record 3"):
        run_diagnostics(p, res.records, 1.0, reference=ref)


def test_run_diagnostics_takes_its_accuracy_from_the_reference():
    # a reference solved to 1e-12 sets every slack, whatever tol_ref says
    p, _ = _strongly_convex()
    ref = reference_solution(p, rho=1.0, tol_ref=1e-12)
    res = run(p, variant="gauss_seidel", rho=1.0, alpha="auto",
              tol_outer=1e-13, max_iters=30)
    _, rows, _ = run_diagnostics(p, res.records, 1.0, reference=ref,
                                 lipschitz_pairs=2, error_bound_samples=2)
    for name in ("combined_monotone", "primal_gap_nonneg"):
        slacks = {row.slack for row in rows if row.check_name == name}
        assert slacks == {10.0 * 1e-12}
