"""Benchmark-family generators: structure, determinism, recoverability."""

import json

import numpy as np
import pytest

from blockadmm.diagnostics import reference_solution
from blockadmm.generators import (
    FAMILIES,
    gen_consensus,
    gen_group_l2,
    gen_l1_kblock,
    gen_lasso,
)
from blockadmm.problem import (
    Block,
    build_problem,
    check_assumptions,
    feasibility_residual,
    objective,
    problem_to_doc,
)
from blockadmm.prox import L1
from blockadmm.solvers import run


# ---------------------------------------------------------------------------
# l1 K-block family
# ---------------------------------------------------------------------------

def test_l1_kblock_shapes_and_seed_variation():
    p0 = gen_l1_kblock(m=6, K=4, seed=0)
    p1 = gen_l1_kblock(m=6, K=4, seed=1)
    assert p0.m == 6 and p0.K == 4 and p0.n == 4
    assert p1.m == 6 and p1.K == 4 and p1.n == 4
    assert not np.array_equal(p0.E_mat, p1.E_mat)
    for b in p0.blocks:
        assert b.E.shape == (6, 1)
        # the box folded into the l1 term
        assert b.form.lo[0] == -1.0 and b.form.hi[0] == 1.0
        assert b.form.lam[0] == 1.0


def test_l1_kblock_feasible_interior_point():
    for seed in range(3):
        m, K, a, b = 5, 7, -1.0, 1.0
        p = gen_l1_kblock(m=m, K=K, a=a, b=b, seed=seed)
        # replay the generator's stream: E first, then the interior point
        rng = np.random.default_rng(seed)
        E = rng.standard_normal((m, K))
        x0 = rng.uniform(a, b, size=K)
        assert np.array_equal(E, p.E_mat)
        assert np.all(x0 >= a) and np.all(x0 <= b)
        assert feasibility_residual(p, x0) < 1e-12
        assert np.isfinite(objective(p, x0))


def test_l1_kblock_single_block_structure_optimum():
    # the K=1 member of the family with q=0: the origin is feasible and
    # the l1 term makes it the unique optimum
    p = build_problem([Block(E=np.array([[1.0]]), nonsmooth=L1(1.0),
                             box=(-1.0, 1.0))], np.zeros(1))
    res = run(p, variant="gauss_seidel", rho=1.0, alpha=0.1)
    assert res.termination == "converged"
    assert res.objective == 0.0
    assert np.array_equal(res.x, np.zeros(1))


def test_l1_kblock_validation():
    with pytest.raises(ValueError):
        gen_l1_kblock(m=0, K=3)
    with pytest.raises(ValueError):
        gen_l1_kblock(m=3, K=0)
    with pytest.raises(ValueError):
        gen_l1_kblock(m=3, K=3, a=1.0, b=-1.0)


# ---------------------------------------------------------------------------
# group l2 family
# ---------------------------------------------------------------------------

def test_group_l2_scalar_blocks_reduce_to_l1():
    p = gen_group_l2(m=4, K=3, n_k=1, seed=2)
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.uniform(-1.0, 1.0, size=3)
        assert abs(objective(p, x) - np.sum(np.abs(x))) < 1e-14


def test_group_l2_assumption_flags():
    p = gen_group_l2(m=6, K=3, n_k=2, seed=3)
    rep = check_assumptions(p)
    assert all(rep.full_rank)
    assert all(rep.compact)
    assert rep.ok_for_variant["gauss_seidel"] is True
    with pytest.raises(ValueError):
        gen_group_l2(m=2, K=3, n_k=3)
    with pytest.raises(ValueError, match="need a < b"):
        gen_group_l2(a=1.0, b=-1.0)


def test_group_l2_names_a_block_it_cannot_draw_with_full_rank(monkeypatch):
    # every draw reads as rank deficient: after four the block is named
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda M: np.zeros(len(M)))
    with pytest.raises(ValueError, match="block 0: could not draw"):
        gen_group_l2(m=4, K=2, n_k=2, seed=0)


# ---------------------------------------------------------------------------
# lasso family
# ---------------------------------------------------------------------------

def test_lasso_structure():
    p = gen_lasso(n_obs=8, n_feat=5, lam=0.3, seed=0)
    assert p.K == 2
    assert p.blocks[0].E.shape == (8, 5)
    assert np.array_equal(p.blocks[1].E, np.eye(8))
    assert p.blocks[1].lambda_min == 1.0
    assert np.all(p.blocks[0].form.lam == 0.3)
    assert np.all(np.isinf(p.blocks[0].form.lo))
    assert np.all(np.isinf(p.blocks[0].form.hi))
    with pytest.raises(ValueError):
        gen_lasso(K=3)
    with pytest.raises(ValueError):
        gen_lasso(lam=-0.1)


def test_lasso_huge_lambda_zeroes_coefficients():
    p = gen_lasso(n_obs=12, n_feat=6, lam=100.0, seed=3)
    ref = reference_solution(p, rho=1.0, tol_ref=1e-10)
    x_feat = ref.x[:6]
    r_block = ref.x[6:]
    assert np.linalg.norm(x_feat) < 1e-6
    err = np.linalg.norm(r_block - p.q)
    assert err < 1e-6 * (1 + np.linalg.norm(p.q))


def test_lasso_small_lambda_recovers_sparse_signal():
    n_obs, n_feat, seed = 40, 12, 4
    p = gen_lasso(n_obs=n_obs, n_feat=n_feat, lam=1e-6, noise=0.0, seed=seed)
    # replay the stream to recover the planted signal
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n_obs, n_feat))
    support = rng.choice(n_feat, size=max(1, n_feat // 10), replace=False)
    x_sparse = np.zeros(n_feat)
    x_sparse[support] = rng.choice([-1.0, 1.0], size=support.size)
    assert np.array_equal(A, p.blocks[0].E)

    res = run(p, variant="gauss_seidel", rho=1.0, alpha="auto",
              tol_outer=1e-8, max_iters=20000)
    assert res.termination == "converged"
    err = np.linalg.norm(res.x[:n_feat] - x_sparse)
    assert err < 1e-4


# ---------------------------------------------------------------------------
# consensus family
# ---------------------------------------------------------------------------

def test_consensus_structure():
    K, rows, cols = 3, 5, 4
    p = gen_consensus(K=K, rows=rows, cols=cols, w=0.5, seed=0)
    assert p.K == K + 1
    assert p.m == K * cols
    assert np.array_equal(p.q, np.zeros(K * cols))
    z_block = p.blocks[-1]
    assert np.allclose(z_block.EtE, K * np.eye(cols))
    assert abs(z_block.lambda_min - K) < 1e-12
    rep = check_assumptions(p)
    assert all(rep.full_rank)
    assert rep.ok_for_variant["gauss_seidel"] is True
    with pytest.raises(ValueError):
        gen_consensus(K=1)
    with pytest.raises(ValueError):
        gen_consensus(w=-0.5)
    with pytest.raises(ValueError, match="rows and cols must be positive"):
        gen_consensus(rows=0)


def test_consensus_feasibility_iff_blocks_agree():
    K, rows, cols = 3, 5, 4
    p = gen_consensus(K=K, rows=rows, cols=cols, seed=1)
    rng = np.random.default_rng(5)
    z = rng.standard_normal(cols)
    agree = np.concatenate([z] * K + [z])
    assert feasibility_residual(p, agree) < 1e-14
    off = agree.copy()
    off[0] += 0.5
    assert feasibility_residual(p, off) > 0.4


def test_consensus_no_penalty_reaches_shared_least_squares():
    K, rows, cols, seed = 3, 10, 6, 6
    p = gen_consensus(K=K, rows=rows, cols=cols, w=0.0, noise=0.0, seed=seed)
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((rows, cols))
    support = rng.choice(cols, size=max(1, cols // 10), replace=False)
    x_sparse = np.zeros(cols)
    x_sparse[support] = rng.choice([-1.0, 1.0], size=support.size)
    # noiseless target: the shared least-squares fit is the planted signal
    ref = reference_solution(p, rho=1.0, tol_ref=1e-10)
    z_hat = ref.x[K * cols:]
    assert np.linalg.norm(z_hat - x_sparse) < 1e-6
    for k in range(K):
        xk = ref.x[k * cols:(k + 1) * cols]
        assert np.linalg.norm(xk - z_hat) < 1e-7


# ---------------------------------------------------------------------------
# cross-family contracts
# ---------------------------------------------------------------------------

def test_generator_determinism_bytes():
    calls = {
        "l1_kblock": lambda: gen_l1_kblock(m=5, K=4, seed=7),
        "group_l2": lambda: gen_group_l2(m=4, K=2, n_k=2, seed=7),
        "lasso": lambda: gen_lasso(n_obs=6, n_feat=4, seed=7),
        "consensus": lambda: gen_consensus(K=2, rows=4, cols=3, seed=7),
    }
    assert set(calls) == set(FAMILIES)
    for name, make in calls.items():
        doc_a = json.dumps(problem_to_doc(make()), sort_keys=True)
        doc_b = json.dumps(problem_to_doc(make()), sort_keys=True)
        assert doc_a == doc_b


def test_generators_pass_assumptions_for_intended_variant():
    assert check_assumptions(
        gen_l1_kblock(m=5, K=4, seed=0)).ok_for_variant["gauss_seidel"]
    assert check_assumptions(
        gen_group_l2(m=4, K=2, n_k=2, seed=0)).ok_for_variant["gauss_seidel"]
    assert check_assumptions(
        gen_consensus(K=2, rows=4, cols=3, seed=0)
    ).ok_for_variant["gauss_seidel"]
    # wide lasso: coefficient block is rank-deficient by design, which is
    # exactly the case the proximal variant exists for
    wide = gen_lasso(n_obs=4, n_feat=6, seed=0)
    rep = check_assumptions(wide)
    assert rep.ok_for_variant["proximal"] is True
    assert rep.ok_for_variant["gauss_seidel"] is False
    tall = gen_lasso(n_obs=8, n_feat=4, seed=0)
    assert check_assumptions(tall).ok_for_variant["gauss_seidel"] is True
