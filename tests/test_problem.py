"""Problem construction, evaluation, assumption checks, serialization."""

import os
import tempfile

import numpy as np
import pytest

from blockadmm.problem import (
    Block,
    SmoothTerm,
    add_slack_block,
    build_problem,
    check_assumptions,
    check_gradient_consistency,
    feasibility_residual,
    load_problem,
    objective,
    problem_from_doc,
    problem_to_doc,
    residual_vector,
    save_problem,
)
from blockadmm.prox import L1, BoxIndicator, GroupL2, Linear, NonnegIndicator
from blockadmm.diagnostics import reference_solution


# ---------------------------------------------------------------------------
# construction and metadata
# ---------------------------------------------------------------------------

def test_build_identity_block_metadata():
    p = build_problem([Block(E=np.eye(2))], np.zeros(2))
    assert p.m == 2 and p.n == 2 and p.K == 1
    assert abs(p.norm_E - 1.0) < 1e-12
    assert p.blocks[0].lambda_min == 1.0


def test_build_single_column_lambda_min():
    p = build_problem([Block(E=np.array([[1.0], [1.0]]))], np.zeros(2))
    assert abs(p.blocks[0].lambda_min - 2.0) < 1e-12


def test_build_row_mismatch_names_block():
    blocks = [Block(E=np.ones((3, 1))), Block(E=np.ones((4, 1)))]
    with pytest.raises(ValueError, match="block 1"):
        build_problem(blocks, np.zeros(3))


def test_build_validation_errors():
    with pytest.raises(ValueError):
        build_problem([], np.zeros(2))
    with pytest.raises(ValueError):
        build_problem([Block(E=np.eye(2), A=np.eye(2))], np.zeros(2))
    with pytest.raises(ValueError, match="block 0"):
        build_problem([Block(E=np.eye(2), box=(1.0, -1.0))], np.zeros(2))
    with pytest.raises(ValueError):
        build_problem([Block(E=np.eye(2), nonsmooth=L1(1.0))],
                      np.array([np.nan, 0.0]))
    # declared curvature bound below the true one is rejected
    A = np.array([[2.0, 0.0], [0.0, 1.0]])
    sm = SmoothTerm(b=np.zeros(2), lipschitz_L=1.0)
    with pytest.raises(ValueError, match="undercuts"):
        build_problem([Block(E=np.eye(2), A=A, smooth=sm)], np.zeros(2))
    # at or above it is accepted
    sm = SmoothTerm(b=np.zeros(2), lipschitz_L=4.0)
    p = build_problem([Block(E=np.eye(2), A=A, smooth=sm)], np.zeros(2))
    assert p.blocks[0].lipschitz == 4.0


def test_smooth_term_validation():
    with pytest.raises(ValueError):
        SmoothTerm(kind="cubic", b=np.zeros(2))
    with pytest.raises(ValueError):
        SmoothTerm(kind="quadratic")
    with pytest.raises(ValueError):
        SmoothTerm(kind="oracle", value_fn=lambda z: 0.0)
    with pytest.raises(ValueError):
        SmoothTerm(kind="oracle", value_fn=lambda z: 0.0,
                   grad_fn=lambda z: z * 0)
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="lipschitz_L"):
            SmoothTerm(b=np.zeros(2), lipschitz_L=bad)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="quadratic target b"):
            SmoothTerm(b=[0.0, bad])
        with pytest.raises(ValueError, match=r"\bq\b"):
            build_problem([Block(E=np.eye(2))], [bad, 0.0])


@pytest.mark.parametrize("block, named", [
    (dict(E=np.ones(2)), "E must be a matrix"),
    (dict(E=[[1.0, 0.0], [0.0, np.inf]]), "E contains non-finite entries"),
    (dict(E=np.ones((2, 0))), "E has no columns"),
    (dict(E=np.eye(2), A=np.ones(2), smooth=SmoothTerm(b=np.zeros(2))),
     "A must be a matrix"),
    (dict(E=np.eye(2), A=[[np.nan, 0.0]], smooth=SmoothTerm(b=np.zeros(1))),
     "A contains non-finite entries"),
    (dict(E=np.eye(2), A=np.ones((2, 3)), smooth=SmoothTerm(b=np.zeros(2))),
     "A has 3 columns, block dimension is 2"),
    (dict(E=np.eye(2), smooth="quadratic"), "smooth must be a SmoothTerm"),
    (dict(E=np.eye(2), smooth=SmoothTerm(b=np.zeros(3))),
     "quadratic target has length 3, expected 2"),
    (dict(E={}), "E is not a matrix of numbers"),
    (dict(E=np.eye(2), A={}, smooth=SmoothTerm(b=np.zeros(2))),
     "A is not a matrix of numbers"),
], ids=["E_vector", "E_inf", "E_no_columns", "A_vector", "A_nan",
        "A_columns", "smooth_not_a_term", "target_length", "E_not_numbers",
        "A_not_numbers"])
def test_build_rejects_a_malformed_block(block, named):
    with pytest.raises(ValueError, match="block 1: " + named):
        build_problem([Block(E=np.eye(2)), Block(**block)], np.zeros(2))


def test_problem_arrays_are_read_only():
    p = build_problem([Block(E=np.eye(2))], np.zeros(2))
    with pytest.raises(ValueError):
        p.q[0] = 1.0
    with pytest.raises(ValueError):
        p.E_mat[0, 0] = 5.0


def test_norm_E_matches_svd():
    rng = np.random.default_rng(0)
    for _ in range(10):
        M = rng.standard_normal((rng.integers(2, 8), rng.integers(2, 8)))
        p = build_problem([Block(E=M)], np.zeros(M.shape[0]))
        ref = np.linalg.norm(M, 2)
        assert abs(p.norm_E - ref) < 1e-12 * (1 + ref)


# ---------------------------------------------------------------------------
# slack blocks
# ---------------------------------------------------------------------------

def test_add_slack_block_shape():
    E = np.array([[2.0, 0.0], [1.0, 1.0]])
    p = build_problem([Block(E=E, nonsmooth=L1(1.0))], np.array([1.0, 0.0]))
    p_ge = add_slack_block(p, "ge")
    assert p_ge.K == 2
    assert np.array_equal(p_ge.blocks[1].E, -np.eye(2))
    slack = p_ge.blocks[1].form        # the nonnegative orthant
    assert np.all(slack.lo == 0.0) and np.all(slack.hi == np.inf)
    assert not slack.lam.any()
    p_le = add_slack_block(p, "le")
    assert np.array_equal(p_le.blocks[1].E, np.eye(2))
    # applying twice keeps stacking independent slack blocks
    p_two = add_slack_block(p_ge, "le")
    assert p_two.K == 3
    assert np.array_equal(p_two.blocks[1].E, -np.eye(2))
    assert np.array_equal(p_two.blocks[2].E, np.eye(2))
    with pytest.raises(ValueError):
        add_slack_block(p, "eq")


def test_add_slack_block_feasible_point():
    E = np.array([[2.0, 0.0], [1.0, 1.0]])
    q = np.array([1.0, 0.0])
    p = build_problem([Block(E=E)], q)
    p_ge = add_slack_block(p, "ge")
    x = np.array([1.0, 0.0])
    slack = E @ x - q
    assert np.all(slack >= 0)
    z = np.concatenate([x, slack])
    assert feasibility_residual(p_ge, z) < 1e-14


def test_add_slack_block_preserves_inactive_optimum():
    # f(x) = sum_k 0.5 ||x_k - b_k||^2 has unconstrained minimum 0 at
    # x = b. With q chosen strictly below E b, the relaxed problem
    # E x >= q leaves the constraint inactive, so the slack form must
    # recover the unconstrained value.
    for seed in range(3):
        rng = np.random.default_rng(seed)
        m = 3
        E1 = rng.standard_normal((m, 2))
        E2 = rng.standard_normal((m, 2))
        b1 = rng.standard_normal(2)
        b2 = rng.standard_normal(2)
        blocks = [
            Block(E=E1, smooth=SmoothTerm(b=b1)),
            Block(E=E2, smooth=SmoothTerm(b=b2)),
        ]
        b_all = np.concatenate([b1, b2])
        margin = rng.uniform(0.5, 1.5, size=m)
        q = E1 @ b1 + E2 @ b2 - margin
        p = build_problem(blocks, q)
        p_slack = add_slack_block(p, "ge")
        ref = reference_solution(p_slack, rho=1.0, tol_ref=1e-10)
        assert abs(ref.f_star) < 1e-6
        assert abs(ref.d_star) < 1e-6
        x_part = ref.x[: b_all.size]
        err = np.linalg.norm(x_part - b_all)
        assert err < 1e-3
        # the slack really is strictly positive at the solution
        s_part = ref.x[b_all.size:]
        assert np.all(s_part > 0.1)


# ---------------------------------------------------------------------------
# objective and feasibility
# ---------------------------------------------------------------------------

def test_objective_values():
    blocks = [Block(E=np.eye(2), nonsmooth=L1(1.0)),
              Block(E=np.eye(2), nonsmooth=L1(1.0))]
    p = build_problem(blocks, np.zeros(2))
    assert objective(p, np.zeros(4)) == 0.0

    p = build_problem([Block(E=np.eye(2), nonsmooth=L1(2.0))], np.zeros(2))
    assert objective(p, np.array([1.0, -3.0])) == 8.0

    p = build_problem([Block(E=np.eye(2), box=(-1.0, 1.0))], np.zeros(2))
    assert np.isinf(objective(p, np.array([2.0, 0.0])))
    assert objective(p, np.array([0.5, -0.5])) == 0.0

    with pytest.raises(ValueError):
        objective(p, np.zeros(3))


def test_objective_includes_smooth_part():
    A = np.array([[1.0, 2.0], [0.0, 1.0], [1.0, 0.0]])
    b = np.array([1.0, -1.0, 0.5])
    p = build_problem(
        [Block(E=np.eye(2), A=A, smooth=SmoothTerm(b=b), nonsmooth=L1(0.5))],
        np.zeros(2))
    x = np.array([0.3, -0.7])
    expected = 0.5 * np.sum((A @ x - b) ** 2) + 0.5 * (abs(0.3) + abs(0.7))
    assert abs(objective(p, x) - expected) < 1e-14


def test_feasibility_residual_values():
    p = build_problem([Block(E=np.eye(2))], np.array([1.0, 1.0]))
    assert abs(feasibility_residual(p, np.zeros(2)) - np.sqrt(2.0)) < 1e-14
    assert feasibility_residual(p, np.array([1.0, 1.0])) == 0.0
    assert np.array_equal(residual_vector(p, np.zeros(2)),
                          np.array([-1.0, -1.0]))
    for check in (feasibility_residual, residual_vector):
        with pytest.raises(ValueError,
                           match=r"x has shape \(5,\), expected \(2,\)"):
            check(p, np.zeros(5))
    # residual moves continuously under scaling
    rng = np.random.default_rng(1)
    x = rng.standard_normal(2)
    vals = [feasibility_residual(p, t * x) for t in np.linspace(0.0, 2.0, 21)]
    diffs = np.abs(np.diff(vals))
    assert np.max(diffs) < 0.1 * np.linalg.norm(x) + 1e-12


# ---------------------------------------------------------------------------
# assumption report
# ---------------------------------------------------------------------------

def test_check_assumptions_flags():
    p = build_problem([Block(E=np.eye(2), box=(-1.0, 1.0))], np.zeros(2))
    rep = check_assumptions(p)
    assert rep.full_rank == [True]
    assert rep.compact == [True]
    assert rep.ok_for_variant["gauss_seidel"] is True
    assert rep.ok_for_variant["jacobi"] is True
    assert rep.ok_for_variant["proximal"] is True
    assert rep.ok_for_variant["jacobi_unsafe"] is False

    p = build_problem([Block(E=np.array([[1.0, 1.0], [1.0, 1.0]]))],
                      np.zeros(2))
    rep = check_assumptions(p)
    assert rep.full_rank == [False]
    assert rep.compact == [False]
    assert rep.ok_for_variant["gauss_seidel"] is False
    assert rep.ok_for_variant["proximal"] is True

    doc = rep.to_doc()
    assert doc["full_rank"] == [False]
    assert doc["ok_for_variant"]["jacobi_unsafe"] is False


def test_check_assumptions_oracle_not_strongly_convex():
    sm = SmoothTerm(kind="oracle",
                    value_fn=lambda z: float(np.sum(np.log(np.cosh(z)))),
                    grad_fn=lambda z: np.tanh(z),
                    lipschitz_L=1.0)
    p = build_problem([Block(E=np.eye(2), smooth=sm)], np.zeros(2))
    rep = check_assumptions(p)
    assert rep.strongly_convex_g is False
    p = build_problem([Block(E=np.eye(2), smooth=SmoothTerm(b=np.zeros(2)))],
                      np.zeros(2))
    assert check_assumptions(p).strongly_convex_g is True


# ---------------------------------------------------------------------------
# gradients and convexity
# ---------------------------------------------------------------------------

def test_gradient_consistency_quadratic_and_oracle():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((4, 3))
    sm_q = SmoothTerm(b=rng.standard_normal(4))
    sm_o = SmoothTerm(kind="oracle",
                      value_fn=lambda z: float(np.sum(np.log(np.cosh(z)))),
                      grad_fn=lambda z: np.tanh(z),
                      lipschitz_L=1.0)
    p = build_problem(
        [Block(E=rng.standard_normal((2, 3)), A=A, smooth=sm_q),
         Block(E=rng.standard_normal((2, 2)), smooth=sm_o)],
        np.zeros(2))
    worst = check_gradient_consistency(p, rel_tol=1e-5)
    assert worst < 1e-5


def test_bad_oracle_gradient_rejected_at_build():
    sm = SmoothTerm(kind="oracle",
                    value_fn=lambda z: 0.5 * float(z @ z),
                    grad_fn=lambda z: 1.1 * z,
                    lipschitz_L=1.1)
    with pytest.raises(ValueError, match="finite"):
        build_problem([Block(E=np.eye(2), smooth=sm)], np.zeros(2))


def test_objective_convex_along_segments():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((3, 2))
    problems = [
        build_problem(
            [Block(E=rng.standard_normal((2, 2)), A=A,
                   smooth=SmoothTerm(b=rng.standard_normal(3)),
                   nonsmooth=L1(0.7), box=(-2.0, 2.0)),
             Block(E=rng.standard_normal((2, 3)),
                   nonsmooth=GroupL2([[0, 1, 2]], [1.2]))],
            np.zeros(2)),
        build_problem(
            [Block(E=rng.standard_normal((2, 2)),
                   nonsmooth=Linear(rng.standard_normal(2))),
             Block(E=rng.standard_normal((2, 2)),
                   nonsmooth=NonnegIndicator())],
            np.zeros(2)),
    ]
    for p in problems:
        for _ in range(30):
            x1 = p.project_domains(rng.normal(scale=1.5, size=p.n))
            x2 = p.project_domains(rng.normal(scale=1.5, size=p.n))
            f1 = objective(p, x1)
            f2 = objective(p, x2)
            for t in np.linspace(0.0, 1.0, 7):
                mid = objective(p, t * x1 + (1 - t) * x2)
                assert mid <= t * f1 + (1 - t) * f2 + 1e-9


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _sample_problem():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((3, 2))
    blocks = [
        Block(E=rng.standard_normal((2, 2)), A=A,
              smooth=SmoothTerm(b=rng.standard_normal(3)),
              nonsmooth=L1(0.5), box=(-1.5, 1.5)),
        Block(E=rng.standard_normal((2, 3)),
              nonsmooth=GroupL2([[0, 1], [2]], [1.0, 0.5])),
    ]
    return build_problem(blocks, rng.standard_normal(2))


def test_problem_doc_roundtrip():
    p = _sample_problem()
    doc = problem_to_doc(p)
    assert set(doc.keys()) == {"q", "blocks"}
    blk = doc["blocks"][0]
    assert set(blk.keys()) == {"E", "A", "smooth", "nonsmooth", "box"}
    assert blk["E"] == p.blocks[0].E.tolist()          # row-major
    assert blk["smooth"]["kind"] == "quadratic"
    assert doc["blocks"][1]["A"] is None

    back = problem_from_doc(doc)
    assert back.m == p.m and back.n == p.n and back.K == p.K
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = p.project_domains(rng.standard_normal(p.n))
        assert abs(objective(p, x) - objective(back, x)) < 1e-12
        assert abs(feasibility_residual(p, x)
                   - feasibility_residual(back, x)) < 1e-12
    with pytest.raises(ValueError):
        problem_from_doc({"q": [0.0]})


def test_problem_file_roundtrip():
    p = _sample_problem()
    fd, path = tempfile.mkstemp(suffix=".json")
    os.close(fd)
    try:
        save_problem(p, path)
        with open(path) as fh:
            text = fh.read()
        assert text.endswith("\n")
        back = load_problem(path)
        assert back.n == p.n
        assert np.allclose(back.E_mat, p.E_mat)
        assert np.allclose(back.q, p.q)
    finally:
        os.unlink(path)


def test_oracle_smooth_not_serializable():
    sm = SmoothTerm(kind="oracle",
                    value_fn=lambda z: 0.0 * float(z[0]),
                    grad_fn=lambda z: np.zeros_like(z),
                    lipschitz_L=1.0)
    p = build_problem([Block(E=np.eye(2), smooth=sm)], np.zeros(2))
    with pytest.raises(ValueError):
        problem_to_doc(p)
