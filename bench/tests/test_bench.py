"""Tests of the benchmark's own code, on instances small enough that the
whole file runs in seconds:

    python -m pytest bench/tests -q
"""

import numpy as np
import pytest

import checks
import tracing
import workloads
from blockadmm import problem_to_doc, run, run_diagnostics
from blockadmm.generators import gen_group_l2, gen_l1_kblock, gen_lasso

SMALL = {
    "group_l2_auto": workloads.InProcess(
        "group_l2", {"m": 10, "K": 2, "n_k": 2},
        variant="gauss_seidel", alpha="auto", rho=1.0),
    "l1_kblock": workloads.InProcess(
        "l1_kblock", {"m": 10, "K": 4},
        variant="gauss_seidel", alpha=0.1, rho=1.0),
    "lasso_cli": workloads.Cli(
        "lasso", ["--n-obs", "16", "--n-feat", "4"],
        ["--variant", "prox", "--alpha", "auto"], variant="proximal",
        rho=0.2),
}


def _traced_round(workload, workdir):
    tracer = tracing.Tracer()
    tracer.begin_round()
    with tracing.installed(tracer):
        timings, failures = workloads.run_round(workload, 3, str(workdir))
    assert failures == []
    return tracer.round_metrics()


@pytest.mark.parametrize("name", sorted(SMALL))
def test_two_traced_runs_give_identical_counts(name, workdir):
    first = _traced_round(SMALL[name], workdir)
    second = _traced_round(SMALL[name], workdir)
    counts = [key for key in first if not key.endswith(("_s", "us_per_call"))]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["solve_block.calls"] > 0 or name == "lasso_cli"
    assert first["lagrangian.sweeps"] > 0
    assert first["diagnostics.check_rows"] > 0
    if name == "lasso_cli":
        assert first["trace.states_bytes"] > 0
        assert first["cli.self_s"] > 0.0


def test_wrappers_are_removed_after_the_traced_round(workdir):
    from blockadmm import cli, solvers
    from blockadmm.prox import Sum
    before = (solvers.run, solvers.solve_block, Sum.prox, cli.main)
    _traced_round(SMALL["l1_kblock"], workdir)
    assert (solvers.run, solvers.solve_block, Sum.prox, cli.main) == before


def test_self_time_excludes_child_spans():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("solve_block", lambda: None)
    outer = tracer.wrap("run", lambda: inner() or inner())
    tracer.begin_round()
    outer()                     # run: 0..5, its two children 1..2, 3..4
    metrics = tracer.round_metrics()
    assert metrics["run.self_s"] == 3.0
    assert metrics["solve_block.self_s"] == 2.0
    assert metrics["solve_block.calls"] == 2


@pytest.mark.parametrize("make", [
    lambda: gen_l1_kblock(m=10, K=4, seed=1),
    lambda: gen_group_l2(m=12, K=3, n_k=2, seed=1),
    lambda: gen_lasso(n_obs=12, n_feat=4, seed=1),
])
def test_certificate_rejects_a_perturbed_solution(make):
    p = make()
    res = run(p, variant="gauss_seidel", alpha=0.1, max_iters=5000)
    assert res.termination == "converged"
    data = checks.ProblemData(problem_to_doc(p))
    assert checks.solution_failures(data, res.x, res.y) == []
    rng = np.random.default_rng(0)
    dx = 1e-4 * rng.standard_normal(p.n)
    dy = 1e-4 * rng.standard_normal(p.m)
    assert checks.solution_failures(data, res.x + dx, res.y) != []
    assert checks.solution_failures(data, res.x, res.y + dy) != []


def test_certificate_rejects_a_point_outside_the_box():
    p = gen_l1_kblock(m=10, K=4, seed=1)
    res = run(p, variant="gauss_seidel", alpha=0.1, max_iters=5000)
    data = checks.ProblemData(problem_to_doc(p))
    x = res.x.copy()
    x[0] = 1.0 + 1e-9
    assert any("box" in f for f in checks.solution_failures(data, x, res.y))


def test_group_prox_matches_a_direct_minimization():
    rng = np.random.default_rng(0)
    lo, hi = np.array([-1.0, -0.2, -1.0]), np.array([1.0, 1.0, 0.3])
    for _ in range(20):
        v = 2.0 * rng.standard_normal(3)
        u = checks._prox_group_in_box(v, 0.7, lo, hi)

        def phi(z):
            return 0.7 * np.linalg.norm(z) + 0.5 * np.sum((z - v) ** 2)

        # projected subgradient descent from u cannot improve on it
        z = u.copy()
        for _ in range(2000):
            g = 0.7 * z / max(np.linalg.norm(z), 1e-12) + (z - v)
            z = np.clip(z - 1e-3 * g, lo, hi)
        assert phi(u) <= phi(z) + 1e-9
        assert np.all(u >= lo) and np.all(u <= hi)


@pytest.fixture(scope="module")
def diagnosed():
    p = gen_l1_kblock(m=10, K=4, seed=1)
    res = run(p, variant="gauss_seidel", alpha=0.1, max_iters=5000)
    report, rows, records = run_diagnostics(p, res.records, 1.0)
    data = checks.ProblemData(problem_to_doc(p))
    states = {rec.r: (rec.x, rec.y, rec.x_next) for rec in records}
    rows = [(row.r, row.check_name, row.lhs, row.rhs, row.slack, row.passed)
            for row in rows]
    gamma = data.descent_constant(1.0, "gauss_seidel")
    return data, states, rows, report, gamma


def _diagnosis_failures(diagnosed, rows=None, mu=None, ratio=None):
    data, states, good_rows, report, gamma = diagnosed
    lip = report.lipschitz_ratio_max if ratio is None else ratio
    return checks.diagnosis_failures(
        data, states, good_rows if rows is None else rows,
        report.rate_mu if mu is None else mu, lip, 1.0, gamma)


def test_diagnosis_checks_pass_on_the_package_output(diagnosed):
    assert _diagnosis_failures(diagnosed) == []


def test_diagnosis_checks_reject_tampered_output(diagnosed):
    rows = diagnosed[2]
    i = next(i for i, row in enumerate(rows) if row[1] == "descent")
    r, name, lhs, rhs, slack, ok = rows[i]
    shifted = rows[:i] + [(r, name, lhs + 1e-6, rhs, slack, ok)] + rows[i + 1:]
    assert _diagnosis_failures(diagnosed, rows=shifted) != []
    assert _diagnosis_failures(diagnosed, mu=1.0) != []
    j = next(j for j, row in enumerate(rows) if row[1] == "dual_lipschitz")
    r, name, lhs, rhs, slack, ok = rows[j]
    over = rows[:j] + [(r, name, 2.0 * rhs, rhs, slack, ok)] + rows[j + 1:]
    assert _diagnosis_failures(diagnosed, rows=over, ratio=2.0 * rhs) != []
    dropped = [row for row in rows if row[1] != "descent"]
    assert _diagnosis_failures(diagnosed, rows=dropped) != []


def test_provable_descent_bound_is_checked(diagnosed):
    data, states, rows, report, gamma = diagnosed
    # ten times the provable constant is more than any sweep guarantees
    assert checks.diagnosis_failures(
        data, states, rows, report.rate_mu, report.lipschitz_ratio_max,
        1.0, 10.0 * gamma) != []


def test_linearized_descent_bound_is_checked():
    p = gen_lasso(n_obs=16, n_feat=4, seed=1)
    res = run(p, variant="proximal", rho=0.2, alpha="auto", max_iters=5000)
    assert res.termination == "converged"
    report, rows, records = run_diagnostics(p, res.records, 0.2,
                                            variant="proximal",
                                            beta=res.beta)
    data = checks.ProblemData(problem_to_doc(p))
    states = {rec.r: (rec.x, rec.y, rec.x_next) for rec in records}
    rows = [(row.r, row.check_name, row.lhs, row.rhs, row.slack, row.passed)
            for row in rows]
    c = data.descent_constant(0.2, "proximal", res.beta)
    assert c > 0.5 * res.beta          # beta - nu / 2 with beta = 1.01 nu

    def failures(constant):
        return checks.diagnosis_failures(
            data, states, rows, report.rate_mu, report.lipschitz_ratio_max,
            0.2, constant)

    assert failures(c) == []
    assert failures(10.0 * c) != []


class _CorruptTrace(workloads.Cli):
    """lasso_cli that garbles the trace between solve and diagnose."""

    def diagnose(self, inst):
        with open(inst["paths"]["trace"], "w") as fh:
            fh.write("not a trace\n")
        super().diagnose(inst)


def test_rejected_cli_input_is_one_failed_operation(workdir):
    small = SMALL["lasso_cli"]
    corrupt = _CorruptTrace(small.family, small.gen_args, small.solve_args,
                            small.variant, small.rho)
    timings, failures = workloads.run_round(corrupt, 3, str(workdir))
    assert "solve_s" in timings and "diagnose_s" not in timings
    assert len(failures) == 1 and failures[0].startswith("diagnose:")


def test_lasso_optimum_solves_an_orthogonal_design():
    # with A = I the minimizer is the soft threshold of b
    b = np.array([2.0, -0.3, 0.9, -1.5])
    lam = 0.5
    x = np.sign(b) * np.maximum(np.abs(b) - lam, 0.0)
    expected = 0.5 * np.sum((x - b) ** 2) + lam * np.sum(np.abs(x))
    assert checks.lasso_optimum(np.eye(4), b, lam) == pytest.approx(
        expected, abs=1e-12)
