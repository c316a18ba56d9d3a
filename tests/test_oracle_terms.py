"""Oracle smooth terms through the solver and the diagnostics.

An oracle term supplies only a value and a gradient, so
``Problem.hessian`` is None, the Newton kernel never runs and every
inner solve, block and whole vector alike, is restarted FISTA.
"""

import time

import numpy as np

from blockadmm.diagnostics import run_diagnostics
from blockadmm.lagrangian import minimize_lagrangian
from blockadmm.problem import Block, SmoothTerm, build_problem
from blockadmm.prox import L1
from blockadmm.solvers import run

TOL = 1e-10


def _logistic_problem(seed, K=4, n_k=3, n_samples=8, m=6, lam=0.1):
    """Sparse logistic regression split into K blocks: on each block,
    g(z) = sum_i log(1 + exp(-l_i z_i)) of z = A_k x_k, with labels
    l = +-1 and Lipschitz constant 0.25 ||A_k||^2, plus lam ||x_k||_1."""
    rng = np.random.default_rng(seed)
    blocks = []
    for _ in range(K):
        A = rng.standard_normal((n_samples, n_k))
        labels = rng.choice([-1.0, 1.0], n_samples)
        smooth = SmoothTerm(
            kind="oracle",
            value_fn=lambda z, l=labels: float(np.sum(np.logaddexp(0.0,
                                                                   -l * z))),
            grad_fn=lambda z, l=labels: -l / (1.0 + np.exp(l * z)),
            lipschitz_L=0.25 * float(np.linalg.eigvalsh(A.T @ A)[-1]))
        blocks.append(Block(E=rng.standard_normal((m, n_k)), A=A,
                            smooth=smooth, nonsmooth=L1(lam)))
    return build_problem(blocks, rng.standard_normal(m))


def test_logistic_oracle_run_converges_with_monotone_gap():
    t0 = time.monotonic()
    p = _logistic_problem(seed=3)
    assert p.hessian(1.0) is None
    res = run(p, variant="gauss_seidel", rho=1.0, alpha="auto",
              max_iters=2000)
    assert res.termination == "converged"
    report, _, _ = run_diagnostics(p, res.records, 1.0, lipschitz_pairs=5,
                                   error_bound_samples=5)
    assert report.monotone_combined
    assert time.monotonic() - t0 < 10.0


def test_quadratic_posed_as_oracle_matches_the_newton_path():
    rng = np.random.default_rng(5)
    quadratic, oracle = [], []
    for k in range(3):
        E = rng.standard_normal((4, 2))
        A = rng.standard_normal((3, 2))
        b = rng.standard_normal(3)
        terms = {"nonsmooth": L1(0.3), "box": (-1.0, 1.0) if k else None}
        quadratic.append(Block(E=E, A=A, smooth=SmoothTerm(b=b), **terms))
        oracle.append(Block(E=E, A=A, **terms, smooth=SmoothTerm(
            kind="oracle",
            value_fn=lambda z, b=b: 0.5 * float((z - b) @ (z - b)),
            grad_fn=lambda z, b=b: z - b,
            lipschitz_L=float(np.linalg.eigvalsh(A.T @ A)[-1]))))
    q = rng.standard_normal(4)
    p_newton, p_oracle = build_problem(quadratic, q), build_problem(oracle, q)
    assert p_newton.hessian(1.0) is not None and p_oracle.hessian(1.0) is None
    for _ in range(5):
        y = rng.normal(scale=2.0, size=4)
        exact = minimize_lagrangian(p_newton, y, 1.0, tol=TOL)
        fista = minimize_lagrangian(p_oracle, y, 1.0, tol=TOL)
        assert exact.newton_steps > 0 and fista.newton_steps == 0
        assert fista.iterations > 0
        assert abs(exact.d_value - fista.d_value) <= \
            10 * TOL * (1.0 + abs(exact.d_value))
        assert np.linalg.norm(p_newton.apply_E(exact.x_of_y)
                              - p_oracle.apply_E(fista.x_of_y)) < 1e-8
