"""Command-line interface: gen, solve, sweep, diagnose, and file formats."""

import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from blockadmm import solvers
from blockadmm.cli import main
from blockadmm.diagnostics import run_diagnostics
from blockadmm.generators import gen_l1_kblock
from blockadmm.lagrangian import ConvergenceError
from blockadmm.prox import L1, GroupL2
from blockadmm.problem import (
    Block,
    build_problem,
    problem_from_doc,
    save_problem,
)
from blockadmm.solvers import run
from blockadmm.trace import (
    CSV_COLUMNS,
    attach_states,
    read_states,
    read_trace_csv,
    records_equal,
    states_path_for,
    write_states,
    write_trace_csv,
)


def _gen_kblock(tmp_path, name="p.json"):
    path = tmp_path / name
    rc = main(["gen", "--family", "l1_kblock", "--m", "6", "--K", "4",
               "--seed", "0", "--out", str(path)])
    assert rc == 0
    return path


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def test_gen_writes_loadable_problem_json(tmp_path, capsys):
    path = _gen_kblock(tmp_path)
    doc = json.loads(path.read_text())
    assert set(doc) == {"q", "blocks"}
    assert len(doc["q"]) == 6
    assert len(doc["blocks"]) == 4
    problem = problem_from_doc(doc)
    assert problem.m == 6
    assert problem.K == 4
    # without --out the same document goes to stdout
    rc = main(["gen", "--family", "l1_kblock", "--m", "6", "--K", "4",
               "--seed", "0"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out) == doc


def test_gen_is_deterministic_per_seed(tmp_path):
    a = _gen_kblock(tmp_path, "a.json")
    b = _gen_kblock(tmp_path, "b.json")
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.json"
    main(["gen", "--family", "l1_kblock", "--m", "6", "--K", "4",
          "--seed", "1", "--out", str(c)])
    assert c.read_bytes() != a.read_bytes()


def test_gen_rejects_bad_dimensions(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["gen", "--family", "l1_kblock", "--m", "0", "--K", "4",
              "--out", str(tmp_path / "x.json")])
    assert info.value.code == 1
    err = capsys.readouterr().err
    assert "usage" in err
    assert "error" in err


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_writes_trace_sidecar_and_result(tmp_path):
    prob = _gen_kblock(tmp_path)
    trace = tmp_path / "t.csv"
    report = tmp_path / "r.json"
    rc = main(["solve", "--problem", str(prob), "--variant", "gs",
               "--alpha", "auto", "--trace", str(trace),
               "--report", str(report)])
    assert rc == 0
    doc = json.loads(report.read_text())
    assert set(doc) == {"final_alpha", "iterations", "termination",
                        "objective", "feas"}
    assert doc["termination"] == "converged"
    assert doc["iterations"] > 0
    assert doc["feas"] <= 1e-8
    records = read_trace_csv(str(trace))
    assert len(records) == doc["iterations"]
    with open(trace) as fh:
        assert fh.readline().strip() == ",".join(CSV_COLUMNS)
    meta, states = read_states(states_path_for(str(trace)))
    assert meta["variant"] == "gauss_seidel"
    assert meta["rho"] == 1.0
    assert len(states) == len(records)


def test_solve_exit_code_on_iteration_cap(tmp_path):
    prob = _gen_kblock(tmp_path)
    report = tmp_path / "r.json"
    rc = main(["solve", "--problem", str(prob), "--max-iters", "5",
               "--report", str(report)])
    assert rc == 2
    assert json.loads(report.read_text())["termination"] == "max_iters"


def test_solve_names_divergence(tmp_path, capsys):
    prob = tmp_path / "d.json"
    save_problem(build_problem([Block(E=[[1.0]])] * 3, q=[1.0]), str(prob))
    report = tmp_path / "r.json"
    rc = main(["solve", "--problem", str(prob), "--variant", "jacobi-unsafe",
               "--alpha", "0.1", "--max-iters", "3000",
               "--report", str(report)])
    assert rc == 2
    assert json.loads(report.read_text())["termination"] == "diverged"
    assert "solver diverged" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["0.1", "auto"])
def test_solve_reports_a_degenerate_block_as_a_solver_failure(
        tmp_path, capsys, alpha):
    # E_1 = 0 leaves block 1's subproblem without curvature, with or
    # without a term, which only the solve finds: exit 2 with the
    # reason, not a usage error
    prob = tmp_path / "p.json"
    for block_1 in (Block(E=np.zeros((2, 1)), nonsmooth=L1(1.0)),
                    Block(E=np.zeros((2, 1)))):
        save_problem(build_problem(
            [Block(E=[[1.0], [0.0]], nonsmooth=L1(1.0)), block_1],
            [1.0, 0.0]), str(prob))
        rc = main(["solve", "--problem", str(prob), "--alpha", alpha])
        err = capsys.readouterr().err
        assert rc == 2
        assert "solver failed: block 1 has no curvature" in err
        assert "usage" not in err
    # a bad setting is still a usage error
    with pytest.raises(SystemExit) as info:
        main(["solve", "--problem", str(prob), "--rho", "-1"])
    assert info.value.code == 1
    assert "rho must be positive" in capsys.readouterr().err


def test_solve_keeps_the_trace_when_an_inner_solve_hits_its_cap(
        tmp_path, monkeypatch, capsys):
    # the monitor's fifth d(y) solve is the lookahead of iteration 3
    calls = []
    original = solvers.minimize_lagrangian

    def capped(*args, **kwargs):
        calls.append(args)
        if len(calls) == 5:
            raise ConvergenceError("inner minimization hit its cap")
        return original(*args, **kwargs)

    monkeypatch.setattr(solvers, "minimize_lagrangian", capped)
    prob = _gen_kblock(tmp_path)
    trace = tmp_path / "t.csv"
    report = tmp_path / "r.json"
    rc = main(["solve", "--problem", str(prob), "--alpha", "auto",
               "--trace", str(trace), "--report", str(report)])
    assert rc == 2
    doc = json.loads(report.read_text())
    assert doc["termination"] == "inner_cap" and doc["iterations"] == 3
    assert len(read_trace_csv(str(trace))) == 3
    assert len(read_states(states_path_for(str(trace)))[1]) == 3
    assert "cap at iteration 3" in capsys.readouterr().err


def test_solve_keeps_the_trace_when_a_block_solve_hits_its_cap(
        tmp_path, monkeypatch, capsys):
    # four blocks, fixed alpha: the ninth block solve is the first of the
    # primal pass of iteration 2
    calls = []
    original = solvers.solve_block

    def capped(*args, **kwargs):
        calls.append(args)
        if len(calls) == 9:
            raise ConvergenceError("block subproblem hit its cap")
        return original(*args, **kwargs)

    monkeypatch.setattr(solvers, "solve_block", capped)
    prob = _gen_kblock(tmp_path)
    trace = tmp_path / "t.csv"
    report = tmp_path / "r.json"
    rc = main(["solve", "--problem", str(prob), "--variant", "gs",
               "--alpha", "0.1", "--trace", str(trace),
               "--report", str(report)])
    assert rc == 2
    doc = json.loads(report.read_text())
    assert doc["termination"] == "inner_cap" and doc["iterations"] == 2
    assert len(read_trace_csv(str(trace))) == 2
    assert len(read_states(states_path_for(str(trace)))[1]) == 2
    assert "cap at iteration 2" in capsys.readouterr().err


def _degenerate_group_problem(tmp_path):
    """E_1 = 0 under a group-l2 term: the reference solve's block sweep
    finds block 1 without curvature. Also returns a well-posed problem
    of the same shape for a trace to diagnose against it."""
    paths = []
    for name, e1 in (("bad.json", 0.0), ("ok.json", 1.0)):
        save_problem(build_problem(
            [Block(E=[[1.0], [0.0]], nonsmooth=L1(1.0)),
             Block(E=[[0.0], [e1]], nonsmooth=GroupL2([[0]], [1.0]))],
            [1.0, 0.0]), str(tmp_path / name))
        paths.append(str(tmp_path / name))
    return paths


def test_diagnose_and_sweep_name_a_failed_reference_solve(tmp_path, capsys):
    bad, ok = _degenerate_group_problem(tmp_path)
    trace = str(tmp_path / "t.csv")
    assert main(["solve", "--problem", ok, "--alpha", "0.1",
                 "--max-iters", "5", "--trace", trace, "--report",
                 str(tmp_path / "r.json")]) == 2
    capsys.readouterr()
    rc = main(["diagnose", "--problem", bad, "--trace", trace])
    err = capsys.readouterr().err
    assert rc == 2
    assert "diagnosis failed: block 1 has no curvature" in err
    rc = main(["sweep", "--problem", bad, "--alpha-grid", "0.1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "sweep failed: block 1 has no curvature" in err


@pytest.mark.parametrize("command", ["diagnose", "sweep"])
def test_out_of_range_tol_ref_is_a_usage_error(tmp_path, capsys, command):
    prob = str(_gen_kblock(tmp_path))
    extra = (["--trace", str(tmp_path / "t.csv")] if command == "diagnose"
             else ["--alpha-grid", "0.1"])
    with pytest.raises(SystemExit) as info:
        main([command, "--problem", prob, "--tol-ref", "1e-3"] + extra)
    assert info.value.code == 1
    assert "--tol-ref must be in (0, 1e-10]" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("--alpha", "xyz", "alpha must be a float or 'auto'"),
    ("--alpha", "nan", "alpha must be nonnegative and finite, got nan"),
    ("--alpha", "inf", "alpha must be nonnegative and finite, got inf"),
    ("--rho", "nan", "rho must be positive and finite, got nan"),
    ("--rho", "inf", "rho must be positive and finite, got inf"),
    ("--tol", "nan", "tol_outer must be positive and finite, got nan"),
    ("--tol", "inf", "tol_outer must be positive and finite, got inf"),
    ("--max-iters", "0", "max_iters must be at least 1"),
], ids=["alpha-xyz", "alpha-nan", "alpha-inf", "rho-nan", "rho-inf",
        "tol-nan", "tol-inf", "max-iters-0"])
def test_solve_rejects_bad_alpha(tmp_path, capsys, flag, value, message):
    # NaN passes every comparison test, so a non-finite setting would run
    # to a cap and write NaN into the result
    prob = _gen_kblock(tmp_path)
    report = tmp_path / "r.json"
    with pytest.raises(SystemExit) as info:
        main(["solve", "--problem", str(prob), flag, value,
              "--report", str(report)])
    assert info.value.code == 1
    assert message in capsys.readouterr().err
    assert not report.exists()


def _set_in_block_1(key, value):
    """A problem-document edit that sets block 1's ``key``."""
    return lambda doc: doc["blocks"][1].__setitem__(key, value)


@pytest.mark.parametrize("edit, named", [
    (lambda doc: doc.__setitem__("blocks", [[1]]), "block 0 is malformed"),
    (lambda doc: doc.__setitem__("blocks", 3), "a list of 'blocks'"),
    (_set_in_block_1("nonsmooth", "l1"), "block 1 is malformed"),
    (_set_in_block_1("smooth", [1]), "block 1 is malformed"),
    (_set_in_block_1("box", [0, 1]), "block 1 is malformed"),
    (_set_in_block_1("smooth", {"kind": "oracle"}),
     "block 1: only quadratic smooth terms"),
    (_set_in_block_1("box", {"lo": [float("nan")], "hi": [1.0]}),
     "block 1: box bounds need lo <= hi"),
    (_set_in_block_1("box", {"lo": {}, "hi": [1.0]}), "block 1: float()"),
    (_set_in_block_1("nonsmooth", {"type": "group_l2", "groups": [[0]],
                                   "weights": [float("nan")]}),
     "block 1: group weights must be a 1-d list of finite"),
    # a misspelled key would drop what it holds
    (lambda doc: doc["blocks"][1].__setitem__(
        "Box", doc["blocks"][1].pop("box")),
     "block 1: unknown block key 'Box'"),
    (lambda doc: doc["blocks"][1]["box"].__setitem__("mid", [0.0]),
     "block 1: unknown box key 'mid'"),
    (_set_in_block_1("smooth", {"kind": "quadratic", "b": [0.0], "B": 1}),
     "block 1: unknown smooth term key 'B'"),
    (lambda doc: doc.__setitem__("Q", doc["q"]),
     "unknown problem document key 'Q'"),
], ids=["block_not_an_object", "blocks_not_a_list", "term_not_an_object",
        "smooth_not_an_object", "box_not_an_object", "smooth_oracle",
        "box_nan", "box_lo_not_a_number", "weight_nan", "block_key_unknown",
        "box_key_unknown", "smooth_key_unknown", "document_key_unknown"])
def test_solve_rejects_a_malformed_problem_document(tmp_path, capsys, edit,
                                                    named):
    # a document that does not describe a problem is an input error
    # (exit 1), never a traceback; json reads NaN, so it is checked too
    doc = json.loads(_gen_kblock(tmp_path).read_text())
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    report = tmp_path / "r.json"
    with pytest.raises(SystemExit) as info:
        main(["solve", "--problem", str(path), "--report", str(report)])
    assert info.value.code == 1
    err = capsys.readouterr().err
    assert "cannot load problem from %s" % path in err
    assert named in err
    assert not report.exists()


def test_unknown_flag_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["solve", "--bogus", "1"])
    assert info.value.code == 1
    assert "usage" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# trace file round-trips
# ---------------------------------------------------------------------------

def test_trace_csv_round_trip(tmp_path):
    p = gen_l1_kblock(m=6, K=4, seed=0)
    res = run(p, variant="gauss_seidel", rho=1.0, alpha=0.1,
              tol_outer=1e-13, max_iters=25)
    path = tmp_path / "t.csv"
    write_trace_csv(res.records, str(path))
    back = read_trace_csv(str(path))
    assert records_equal(res.records, back)


def test_states_sidecar_round_trip(tmp_path):
    p = gen_l1_kblock(m=6, K=4, seed=0)
    res = run(p, variant="jacobi", rho=1.0, alpha=0.1,
              tol_outer=1e-13, max_iters=10)
    trace = tmp_path / "t.csv"
    write_trace_csv(res.records, str(trace))
    write_states(res.records, states_path_for(str(trace)),
                 meta={"rho": 1.0, "variant": "jacobi"})
    meta, states = read_states(states_path_for(str(trace)))
    assert meta == {"rho": 1.0, "variant": "jacobi"}
    fresh = read_trace_csv(str(trace))
    attach_states(fresh, states, p.n, p.m)
    for orig, got in zip(res.records, fresh):
        assert np.array_equal(orig.x, got.x)
        assert np.array_equal(orig.y, got.y)
        assert np.array_equal(orig.x_next, got.x_next)
        assert np.array_equal(orig.w, got.w)
        assert orig.alpha == got.alpha


def test_states_sidecar_bytes_match_streamed_json(tmp_path):
    # The sidecar format is json.dump of float lists plus a newline;
    # readers outside the package parse exactly these bytes.
    p = gen_l1_kblock(m=6, K=4, seed=0)
    res = run(p, variant="jacobi", rho=1.0, alpha=0.1,
              tol_outer=1e-13, max_iters=10)
    res.records[0].x = res.records[0].x.astype(int)
    res.records[1].w = None
    meta = {"rho": 1.0, "variant": "jacobi", "beta": None}
    path = tmp_path / "s.json"
    write_states(res.records, str(path), meta=meta)

    def vec(a):
        return None if a is None else [float(v) for v in np.asarray(a)]

    expected = tmp_path / "expected.json"
    with open(expected, "w") as fh:
        json.dump({"meta": meta, "records": [
            {"r": rec.r, "alpha": float(rec.alpha), "x": vec(rec.x),
             "y": vec(rec.y), "x_next": vec(rec.x_next), "w": vec(rec.w)}
            for rec in res.records]}, fh)
        fh.write("\n")
    assert path.read_bytes() == expected.read_bytes()


def test_states_sidecar_carries_the_monitors_inner_minimizer(tmp_path):
    # An auto-alpha solve stores each record's inner minimizer xbar in
    # the sidecar, and diagnosing from the files (which warm-starts the
    # gap solves from it) reports what diagnosing in process does.
    prob = _gen_kblock(tmp_path)
    trace = tmp_path / "t.csv"
    main(["solve", "--problem", str(prob), "--alpha", "auto",
          "--trace", str(trace), "--report", str(tmp_path / "r.json")])
    p = problem_from_doc(json.loads(prob.read_text()))
    res = run(p, variant="gauss_seidel", rho=1.0, alpha="auto",
              tol_outer=1e-8, max_iters=1000)
    _, states = read_states(states_path_for(str(trace)))
    assert len(states) == len(res.records)
    for rec, state in zip(res.records, states):
        assert rec.xbar is not None
        assert np.array_equal(state["xbar"], rec.xbar)
    report = tmp_path / "d.json"
    main(["diagnose", "--problem", str(prob), "--trace", str(trace),
          "--report", str(report)])
    in_process, _, _ = run_diagnostics(p, res.records, 1.0)
    assert report.read_text() == json.dumps(in_process.to_doc(),
                                            indent=2) + "\n"


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------

def test_solve_then_diagnose_clean_instance(tmp_path):
    prob = tmp_path / "g.json"
    rc = main(["gen", "--family", "group_l2", "--m", "10", "--K", "4",
               "--n-k", "2", "--seed", "0", "--out", str(prob)])
    assert rc == 0
    trace = tmp_path / "g.csv"
    main(["solve", "--problem", str(prob), "--alpha", "auto",
          "--tol", "1e-12", "--max-iters", "60", "--trace", str(trace),
          "--report", str(tmp_path / "r.json")])
    report = tmp_path / "d.json"
    checks = tmp_path / "checks.csv"
    rc = main(["diagnose", "--problem", str(prob), "--trace", str(trace),
               "--report", str(report), "--checks", str(checks)])
    assert rc == 0
    doc = json.loads(report.read_text())
    assert doc["monotone_combined"] is True
    assert 0.0 < doc["rate_mu"] < 1.0
    with open(checks, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["r", "check_name", "lhs", "rhs", "slack", "pass"]
    assert len(rows) > 1
    assert all(row[5] == "true" for row in rows[1:])


def test_diagnose_reports_violations_with_exit_3(tmp_path, capsys):
    # the descent threshold is optimistic on this instance, and the
    # checker is required to say so rather than smooth it over
    prob = _gen_kblock(tmp_path)
    trace = tmp_path / "t.csv"
    main(["solve", "--problem", str(prob), "--alpha", "auto",
          "--trace", str(trace), "--report", str(tmp_path / "r.json")])
    report = tmp_path / "d.json"
    rc = main(["diagnose", "--problem", str(prob), "--trace", str(trace),
               "--report", str(report)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "check rows failed" in err
    assert "descent" in err
    # the report is still produced for inspection
    doc = json.loads(report.read_text())
    assert doc["monotone_combined"] is True


def test_diagnose_requires_states_sidecar(tmp_path, capsys):
    prob = _gen_kblock(tmp_path)
    p = gen_l1_kblock(m=6, K=4, seed=0)
    res = run(p, variant="gauss_seidel", rho=1.0, alpha=0.1,
              tol_outer=1e-13, max_iters=5)
    trace = tmp_path / "bare.csv"
    write_trace_csv(res.records, str(trace))
    with pytest.raises(SystemExit) as info:
        main(["diagnose", "--problem", str(prob), "--trace", str(trace)])
    assert info.value.code == 1
    assert "iterate states" in capsys.readouterr().err


def _solve_kblock_trace(tmp_path):
    """A fixed-alpha Gauss-Seidel solve with its trace; (problem, trace)."""
    prob = _gen_kblock(tmp_path)
    trace = tmp_path / "t.csv"
    main(["solve", "--problem", str(prob), "--alpha", "0.1",
          "--max-iters", "10", "--trace", str(trace),
          "--report", str(tmp_path / "r.json")])
    return prob, trace


def test_diagnose_rejects_a_trace_with_a_missing_row(tmp_path, capsys):
    prob, trace = _solve_kblock_trace(tmp_path)
    lines = trace.read_text().splitlines(keepends=True)
    assert lines[4].startswith("3,")
    trace.write_text("".join(lines[:4] + lines[5:]))
    with pytest.raises(SystemExit) as info:
        main(["diagnose", "--problem", str(prob), "--trace", str(trace)])
    assert info.value.code == 1
    assert "trace row r=4 follows r=2" in capsys.readouterr().err


def _edit_records(edit):
    """A sidecar edit that applies edit to the decoded record list."""
    def apply(text):
        doc = json.loads(text)
        edit(doc["records"])
        return json.dumps(doc)
    return apply


@pytest.mark.parametrize("edit, named", [
    (lambda text: text[:-10], "Expecting"),
    (lambda text: "[1, 2]", "'meta' and 'records'"),
    (_edit_records(lambda recs: recs[3].pop("alpha")),
     "record r=3 has no 'alpha'"),
    (_edit_records(lambda recs: recs.pop(3)),
     "entry 3: the trace has r=3, the sidecar has r=4"),
    (_edit_records(lambda recs: recs.append(dict(recs[-1], r=99))),
     "entry 10: the trace has no record, the sidecar has r=99"),
    (_edit_records(lambda recs: recs[3]["x"].pop()),
     "record r=3: x has shape (3,), expected (4,)"),
    (_edit_records(lambda recs: recs[3]["x"].__setitem__(1, None)),
     "record r=3: x is not a list of numbers"),
    (_edit_records(lambda recs: recs.__setitem__(3, [1, 2])),
     "record [1, 2] is not an object"),
    (_edit_records(lambda recs: recs[3].pop("x_next")),
     "record r=3 has no 'x_next'"),
    # json.dumps spells these NaN and Infinity, which the writer never does
    (_edit_records(lambda recs: recs[3]["y"].__setitem__(0, float("nan"))),
     "NaN is not a finite number"),
    (_edit_records(lambda recs: recs[3]["x"].__setitem__(1, float("nan"))),
     "NaN is not a finite number"),
    (_edit_records(lambda recs: recs[3]["x"].__setitem__(1, -float("inf"))),
     "-Infinity is not a finite number"),
], ids=["malformed", "not_an_object", "no_alpha", "missing_record",
        "extra_record", "short_x", "null_in_x", "record_not_an_object",
        "no_x_next", "nan_in_y", "nan_in_x", "infinity_in_x"])
def test_diagnose_rejects_a_defective_sidecar(tmp_path, capsys, edit, named):
    # a sidecar that does not match its trace and problem is an input
    # error (exit 1), never a traceback or a solver failure (exit 2)
    prob, trace = _solve_kblock_trace(tmp_path)
    sidecar = tmp_path / "t.csv.states.json"
    sidecar.write_text(edit(sidecar.read_text()))
    with pytest.raises(SystemExit) as info:
        main(["diagnose", "--problem", str(prob), "--trace", str(trace)])
    assert info.value.code == 1
    err = capsys.readouterr().err
    assert str(sidecar) in err
    assert named in err


def test_diagnose_rejects_a_trace_without_records(tmp_path, capsys):
    prob = _gen_kblock(tmp_path)
    trace = tmp_path / "t.csv"
    write_trace_csv([], str(trace))
    write_states([], states_path_for(str(trace)),
                 meta={"rho": 1.0, "variant": "gauss_seidel"})
    with pytest.raises(SystemExit) as info:
        main(["diagnose", "--problem", str(prob), "--trace", str(trace)])
    assert info.value.code == 1
    assert "holds no records" in capsys.readouterr().err


@pytest.mark.parametrize("change, message", [
    ({"rho": None}, "no 'rho'"),
    ({"variant": None}, "no 'variant'"),
    ({"rho": "abc"}, "rho must be positive and finite, got 'abc'"),
    ({"rho": -1.0}, "rho must be positive and finite, got -1.0"),
    # the sidecar's reader rejects a NaN literal before the meta check
    ({"rho": float("nan")}, "NaN is not a finite number"),
    ({"variant": "bogus"}, "unknown variant 'bogus'"),
    ({"variant": "proximal", "beta": "abc"},
     "beta must be positive and finite, got 'abc'"),
], ids=["rho", "variant", "rho-abc", "rho-negative", "rho-nan",
        "variant-bogus", "beta-abc"])
def test_diagnose_requires_the_solve_settings(tmp_path, capsys, change,
                                              message):
    # diagnosing at a guessed or malformed rho, variant or beta checks the
    # wrong inequalities; the meta is input, checked as solve checks it
    prob, trace = _solve_kblock_trace(tmp_path)
    sidecar = tmp_path / "t.csv.states.json"
    doc = json.loads(sidecar.read_text())
    for key, value in change.items():
        if value is None:
            del doc["meta"][key]
        else:
            doc["meta"][key] = value
    sidecar.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as info:
        main(["diagnose", "--problem", str(prob), "--trace", str(trace)])
    assert info.value.code == 1
    err = capsys.readouterr().err
    assert message in err
    assert str(sidecar) in err


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_grid_shape_and_monotone_flags(tmp_path):
    prob = _gen_kblock(tmp_path)
    out = tmp_path / "s.csv"
    rc = main(["sweep", "--problem", str(prob),
               "--alpha-grid", "0.01,0.1,1,10", "--variants", "gs",
               "--max-iters", "25", "--tol", "1e-12", "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["variant", "alpha", "rho", "termination",
                       "iterations", "objective", "feas",
                       "monotone_combined", "rate_mu", "rate_r2"]
    assert len(rows) == 5
    assert [row[0] for row in rows[1:]] == ["gs"] * 4
    assert [float(row[1]) for row in rows[1:]] == [0.01, 0.1, 1.0, 10.0]
    # moderate stepsizes keep the combined gap monotone; the largest does not
    assert [row[7] for row in rows[1:]] == ["true", "true", "true", "false"]


def test_sweep_orders_rows_by_grid_index(tmp_path):
    prob = _gen_kblock(tmp_path)
    out = tmp_path / "s.csv"
    rc = main(["sweep", "--problem", str(prob), "--alpha-grid", "0.1,1",
               "--variants", "gs,jacobi", "--max-iters", "15",
               "--tol", "1e-12", "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [(row[0], float(row[1])) for row in rows] == [
        ("gs", 0.1), ("gs", 1.0), ("jacobi", 0.1), ("jacobi", 1.0)]


def test_sweep_rate_fit_matches_the_diagnosis(tmp_path):
    # long enough runs for the rate fit to succeed: each cell reports what
    # run_diagnostics reports on the same run
    prob = _gen_kblock(tmp_path)
    out = tmp_path / "s.csv"
    rc = main(["sweep", "--problem", str(prob), "--alpha-grid", "0.05,0.1",
               "--variants", "gs,jacobi", "--max-iters", "300",
               "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    p = problem_from_doc(json.loads(prob.read_text()))
    for row in rows:
        variant = {"gs": "gauss_seidel", "jacobi": "jacobi"}[row["variant"]]
        res = run(p, variant=variant, rho=1.0, alpha=float(row["alpha"]),
                  tol_outer=1e-8, max_iters=300)
        report, _, _ = run_diagnostics(p, res.records, 1.0, variant=variant)
        assert row["rate_mu"] == repr(report.rate_mu) != "nan"
        assert row["rate_r2"] == repr(report.fit_r2)
        assert row["monotone_combined"] == (
            "true" if report.monotone_combined else "false")


def test_sweep_rejects_bad_grid_and_variant(tmp_path, capsys):
    prob = _gen_kblock(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--problem", str(prob), "--alpha-grid", "a,b"])
    assert info.value.code == 1
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--problem", str(prob), "--alpha-grid", ","])
    assert info.value.code == 1
    assert "--alpha-grid is empty" in capsys.readouterr().err
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--problem", str(prob), "--alpha-grid", "0.1",
              "--variants", "gs,bogus"])
    assert info.value.code == 1
    assert "unknown variant" in capsys.readouterr().err
    # the shared settings are checked as solve checks them, before the
    # reference solve
    for flag, message in (("--rho", "rho must be positive and finite"),
                          ("--tol", "tol_outer must be positive and finite")):
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--problem", str(prob), "--alpha-grid", "0.1",
                  flag, "nan"])
        assert info.value.code == 1
        assert message in capsys.readouterr().err


# ---------------------------------------------------------------------------
# module entry point
# ---------------------------------------------------------------------------

def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "blockadmm.cli", "gen", "--family",
         "l1_kblock", "--m", "3", "--K", "2", "--seed", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert len(doc["blocks"]) == 2
