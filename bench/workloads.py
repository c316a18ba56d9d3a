"""The benchmark's workloads and the round each run repeats.

A round builds one instance, solves it and diagnoses the recorded run:
two operations, the solve and the diagnosis. Every round builds its own
``Problem``, so no per-problem solver constants carry over from one
round to the next.

The package is called through module attributes (``solvers.run``, not a
name imported once), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import csv
import json
import os
import time

import numpy as np

import checks

TOL = 1e-8           # tol_outer of every solve
MAX_ITERS = 5000     # far above what any seed needs; see README


class OperationFailed(Exception):
    """The program's output was rejected by a correctness check."""


def _require(failures, what):
    if failures:
        raise OperationFailed("%s: %s" % (what, "; ".join(failures)))


class InProcess:
    """Generator call, ``solvers.run`` and ``run_diagnostics`` in this
    process, on the generator's ``Problem`` object."""

    def __init__(self, family, shape, variant, alpha, rho):
        self.family = family
        self.shape = dict(shape)
        self.variant = variant
        self.alpha = alpha
        self.rho = rho

    def build(self, seed, workdir):
        from blockadmm import generators
        return {"problem":
                generators.FAMILIES[self.family](seed=seed, **self.shape)}

    def solve(self, inst):
        from blockadmm import solvers
        res = solvers.run(inst["problem"], variant=self.variant,
                          rho=self.rho, alpha=self.alpha, tol_outer=TOL,
                          max_iters=MAX_ITERS)
        inst["result"] = res

    def check_solve(self, inst):
        from blockadmm import problem
        inst["data"] = checks.ProblemData(
            problem.problem_to_doc(inst["problem"]))
        res = inst["result"]
        if res.termination != "converged":
            raise OperationFailed("solve ended %s after %d iterations"
                                  % (res.termination, res.iterations))
        _require(checks.solution_failures(inst["data"], res.x, res.y),
                 "solution")

    def iterations(self, inst):
        return inst["result"].iterations

    def diagnose(self, inst):
        from blockadmm import diagnostics
        res = inst["result"]
        inst["diagnosis"] = diagnostics.run_diagnostics(
            inst["problem"], res.records, self.rho, variant=self.variant,
            beta=res.beta)

    def check_diagnosis(self, inst):
        report, rows, records = inst["diagnosis"]
        data = inst["data"]
        states = {rec.r: (rec.x, rec.y, rec.x_next) for rec in records}
        rows = [(row.r, row.check_name, row.lhs, row.rhs, row.slack,
                 row.passed) for row in rows]
        gamma = data.descent_constant(self.rho, self.variant,
                                      inst["result"].beta)
        _require(checks.diagnosis_failures(
            data, states, rows, report.rate_mu, report.lipschitz_ratio_max,
            self.rho, gamma), "diagnosis")


class Cli:
    """``blockadmm gen``, ``solve --trace`` and ``diagnose --report
    --checks`` through ``cli.main``, with every file in ``workdir``."""

    def __init__(self, family, gen_args, solve_args, variant, rho):
        self.family = family
        self.gen_args = list(gen_args)
        self.solve_args = list(solve_args)
        self.variant = variant
        self.rho = rho

    def _main(self, argv, allowed=(0,)):
        from blockadmm import cli
        try:
            code = cli.main(argv)
        except SystemExit as e:      # argparse's error(): input rejected
            raise OperationFailed("blockadmm %s exited %r"
                                  % (argv[0], e.code)) from None
        if code not in allowed:
            raise OperationFailed("blockadmm %s exited %r" % (argv[0], code))

    def build(self, seed, workdir):
        paths = {key: os.path.join(workdir, name) for key, name in (
            ("problem", "problem.json"), ("trace", "trace.csv"),
            ("result", "result.json"), ("report", "report.json"),
            ("checks", "checks.csv"))}
        for path in paths.values():
            if os.path.exists(path):
                os.remove(path)
        self._main(["gen", "--family", self.family, "--seed", str(seed),
                    "--out", paths["problem"]] + self.gen_args)
        return {"paths": paths}

    def solve(self, inst):
        p = inst["paths"]
        self._main(["solve", "--problem", p["problem"], "--rho",
                    repr(self.rho), "--tol", repr(TOL), "--max-iters",
                    str(MAX_ITERS), "--trace", p["trace"], "--report",
                    p["result"]] + self.solve_args, allowed=(0, 2))

    def _states(self, inst):
        with open(inst["paths"]["trace"] + ".states.json") as fh:
            doc = json.load(fh)
        return doc["meta"], {
            s["r"]: (np.asarray(s["x"]), np.asarray(s["y"]),
                     np.asarray(s["x_next"]), s["alpha"])
            for s in doc["records"]}

    def check_solve(self, inst):
        p = inst["paths"]
        with open(p["problem"]) as fh:
            inst["data"] = data = checks.ProblemData(json.load(fh))
        with open(p["result"]) as fh:
            inst["result"] = result = json.load(fh)
        if result["termination"] != "converged":
            raise OperationFailed("solve ended %s after %d iterations"
                                  % (result["termination"],
                                     result["iterations"]))
        _, states = self._states(inst)
        if sorted(states) != list(range(result["iterations"])):
            raise OperationFailed("trace holds records %d..%d for %d "
                                  "iterations" % (min(states), max(states),
                                                  result["iterations"]))
        # The final iterate is the last record's x_next and its dual
        # update y + alpha (q - E x_next).
        _, y, x_fin, alpha = states[result["iterations"] - 1]
        y_fin = y + alpha * (data.q - data.E @ x_fin)
        failures = checks.solution_failures(data, x_fin, y_fin)
        coef = data.blocks[0]
        optimum = checks.lasso_optimum(coef.E, data.q, coef.term["lam"])
        x_coef = x_fin[coef.sl]
        eliminated = 0.5 * float(np.sum((coef.E @ x_coef - data.q) ** 2)) \
            + coef.nonsmooth_value(x_coef)
        for what, value in (("eliminated objective", eliminated),
                            ("reported objective", result["objective"])):
            if abs(value - optimum) > checks.SOLUTION_TOL * (1.0 + optimum):
                failures.append("%s %r, proximal-gradient optimum %r"
                                % (what, value, optimum))
        _require(failures, "solution")

    def iterations(self, inst):
        return inst["result"]["iterations"]

    def diagnose(self, inst):
        p = inst["paths"]
        # exit code 3 reports failing check rows, which are output here
        self._main(["diagnose", "--problem", p["problem"], "--trace",
                    p["trace"], "--report", p["report"], "--checks",
                    p["checks"]], allowed=(0, 3))

    def check_diagnosis(self, inst):
        p = inst["paths"]
        meta, states = self._states(inst)
        with open(p["report"]) as fh:
            report = json.load(fh)
        with open(p["checks"], newline="") as fh:
            rows = [(int(row["r"]), row["check_name"], float(row["lhs"]),
                     float(row["rhs"]), float(row["slack"]),
                     row["pass"] == "true") for row in csv.DictReader(fh)]
        data = inst["data"]
        gamma = data.descent_constant(self.rho, self.variant,
                                      meta.get("beta"))
        _require(checks.diagnosis_failures(
            data, {r: s[:3] for r, s in states.items()}, rows,
            report["rate_mu"], report["lipschitz_ratio_max"], self.rho,
            gamma), "diagnosis")


# Why each workload exists, why its shape differs from the acceptance-test
# shapes, and why the l1_kblock family has no workload, is in README.md.
WORKLOADS = {
    "group_l2_auto": InProcess(
        "group_l2", {"m": 30, "K": 3, "n_k": 2},
        variant="gauss_seidel", alpha="auto", rho=1.0),
    "lasso_cli": Cli(
        "lasso", ["--n-obs", "40", "--n-feat", "16"],
        ["--variant", "prox", "--alpha", "auto"], variant="proximal",
        rho=0.2),
}


def run_round(workload, seed, workdir):
    """One round on the instance of generator seed ``seed``: build,
    solve, check, diagnose, check.

    Returns (timings, failures): timings holds build_s, solve_s,
    diagnose_s and the solve's iterations for the steps that ran;
    failures lists one message per failed operation (of two).
    """
    timings = {}
    t = time.perf_counter()
    try:
        inst = workload.build(seed, workdir)
    except Exception as e:                    # the round cannot go on
        return timings, ["build: %r" % e] * 2
    timings["build_s"] = time.perf_counter() - t
    t = time.perf_counter()
    try:
        workload.solve(inst)
        timings["solve_s"] = time.perf_counter() - t
        workload.check_solve(inst)
    except Exception as e:                    # solve raised or was rejected
        return timings, ["solve: %r" % e, "diagnose: no solved run"]
    timings["iterations"] = workload.iterations(inst)
    failures = []
    t = time.perf_counter()
    try:
        workload.diagnose(inst)
        timings["diagnose_s"] = time.perf_counter() - t
        workload.check_diagnosis(inst)
    except Exception as e:                    # diagnosis raised or rejected
        failures.append("diagnose: %r" % e)
    return timings, failures
