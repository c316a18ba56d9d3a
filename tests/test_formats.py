"""Golden tests of the file formats that pass between solve and diagnose.

Round trips pass even when a document's shape drifts (a float in a group
list still loads, a reordered key still reads back), so these tests pin
the exact text of every file the command line writes (trace CSV, states
sidecar, checks CSV, sweep CSV and indented JSON), the JSON form of every
term kind, and the key order of the reports.
"""

import json

import numpy as np
import pytest

from blockadmm.cli import main
from blockadmm.diagnostics import DiagnosticsReport
from blockadmm.problem import (
    AssumptionReport,
    Block,
    build_problem,
    save_problem,
)
from blockadmm.prox import (
    BoxIndicator,
    GroupL2,
    L1,
    Linear,
    NonnegIndicator,
    SparseGroup,
    Zero,
    term_from_doc,
)
from blockadmm.trace import (
    CheckRow,
    TraceRecord,
    attach_states,
    read_states,
    read_trace_csv,
    records_equal,
    write_checks_csv,
    write_states,
    write_trace_csv,
)

_NAN = float("nan")


def _records():
    """Two transitions: the first carries w, xbar and a NaN gap; the
    second has neither w nor xbar."""
    return [
        TraceRecord(r=0, L_val=1.5, delta_p=0.25, delta_d=_NAN, feas=0.001,
                    step=0.1, pg=0.2, d_y=-0.75, f_val=-2.0, alpha=0.1,
                    x=np.array([1.0, 2.0]), y=np.array([0.5]),
                    x_next=np.array([1.5, -0.25]), w=np.array([0.1, 0.2]),
                    xbar=np.array([1.25, 0.0])),
        TraceRecord(r=1, L_val=1.25, delta_p=0.125, delta_d=0.0625,
                    feas=1e-12, step=0.05, pg=0.3, d_y=-0.5, f_val=-1.0,
                    alpha=0.05, x=np.array([1.5, -0.25]),
                    y=np.array([0.4]), x_next=np.array([3.0, 0.0])),
    ]


_TRACE_CSV = (
    "r,L_val,delta_p,delta_d,combined,feas,step,pg,d_y,f_val\r\n"
    "0,1.5,0.25,nan,nan,0.001,0.1,0.2,-0.75,-2.0\r\n"
    "1,1.25,0.125,0.0625,0.1875,1e-12,0.05,0.3,-0.5,-1.0\r\n"
)

_STATES_JSON = (
    '{"meta": {"rho": 0.5, "variant": "jacobi", "beta": null}, '
    '"records": ['
    '{"r": 0, "alpha": 0.1, "x": [1.0, 2.0], "y": [0.5], '
    '"x_next": [1.5, -0.25], "w": [0.1, 0.2], "xbar": [1.25, 0.0]}, '
    '{"r": 1, "alpha": 0.05, "x": [1.5, -0.25], "y": [0.4], '
    '"x_next": [3.0, 0.0], "w": null}'
    ']}\n'
)


def test_trace_csv_text_is_pinned(tmp_path):
    path = tmp_path / "t.csv"
    write_trace_csv(_records(), str(path))
    assert path.read_bytes().decode() == _TRACE_CSV
    assert records_equal(read_trace_csv(str(path)), _records())
    # the reader skips blank rows
    path.write_text(_TRACE_CSV.replace("\r\n1,", "\r\n\r\n1,") + "\r\n")
    assert records_equal(read_trace_csv(str(path)), _records())


def test_trace_row_of_the_wrong_length_is_rejected(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(_TRACE_CSV.replace(",-0.75,-2.0\r\n", "\r\n"))
    with pytest.raises(ValueError, match="has 8 fields, expected 10"):
        read_trace_csv(str(path))


def test_states_sidecar_text_is_pinned(tmp_path):
    path = tmp_path / "t.csv.states.json"
    write_states(_records(), str(path),
                 meta={"rho": 0.5, "variant": "jacobi", "beta": None})
    assert path.read_text() == _STATES_JSON
    meta, states = read_states(str(path))
    assert meta == {"rho": 0.5, "variant": "jacobi", "beta": None}
    back = attach_states([TraceRecord(r=0), TraceRecord(r=1)], states,
                         2, 1)
    for orig, got in zip(_records(), back):
        assert got.alpha == orig.alpha
        for name in ("x", "y", "x_next", "w", "xbar"):
            want = getattr(orig, name)
            if want is None:
                assert getattr(got, name) is None
            else:
                assert np.array_equal(getattr(got, name), want)


@pytest.mark.parametrize("key, size", [
    ("x", 3), ("y", 2), ("x_next", 1), ("w", 3), ("xbar", 1)])
def test_attached_states_must_have_the_problems_sizes(tmp_path, key, size):
    path = tmp_path / "t.csv.states.json"
    write_states(_records(), str(path))
    _, states = read_states(str(path))
    states[1][key] = np.zeros(size)
    with pytest.raises(ValueError, match=r"record r=1: %s has shape \(%d,\)"
                       % (key, size)):
        attach_states([TraceRecord(r=0), TraceRecord(r=1)], states, 2, 1)


@pytest.mark.parametrize("order, named", [
    ([1, 0], "entry 0: the trace has r=0, the sidecar has r=1"),
    ([0, 0], "entry 1: the trace has r=1, the sidecar has r=0"),
    ([0, 1, 1], "entry 2: the trace has no record, the sidecar has r=1"),
], ids=["swapped", "duplicated", "repeated_last"])
def test_attached_states_must_follow_the_trace(tmp_path, order, named):
    path = tmp_path / "t.csv.states.json"
    write_states(_records(), str(path))
    _, states = read_states(str(path))
    with pytest.raises(ValueError, match=named):
        attach_states([TraceRecord(r=0), TraceRecord(r=1)],
                      [states[i] for i in order], 2, 1)


_CHECKS_CSV = (
    "r,check_name,lhs,rhs,slack,pass\r\n"
    "0,descent,1.5,0.25,1e-08,true\r\n"
    "-1,dual_lipschitz,nan,2.0,0.0,false\r\n"
)


def test_checks_csv_text_is_pinned(tmp_path):
    # NumPy scalars are written as plain floats, not as np.float64(...)
    path = tmp_path / "checks.csv"
    write_checks_csv([
        CheckRow(0, "descent", np.float64(1.5), 0.25, 1e-8, np.True_),
        CheckRow(-1, "dual_lipschitz", _NAN, np.float64(2.0), 0.0, False),
    ], str(path))
    assert path.read_bytes().decode() == _CHECKS_CSV


def _unit_problem(tmp_path):
    """min 0 s.t. x = 1: one Gauss-Seidel step solves it exactly."""
    path = tmp_path / "p.json"
    save_problem(build_problem([Block(E=[[1.0]])], q=[1.0]), str(path))
    return path


_UNIT_PROBLEM_JSON = """{
  "q": [
    1.0
  ],
  "blocks": [
    {
      "E": [
        [
          1.0
        ]
      ],
      "A": null,
      "smooth": null,
      "nonsmooth": {
        "type": "zero"
      },
      "box": null
    }
  ]
}
"""

_UNIT_RESULT_JSON = """{
  "final_alpha": 0.5,
  "iterations": 1,
  "termination": "converged",
  "objective": 0.0,
  "feas": 0.0
}
"""


def test_indented_json_text_is_pinned(tmp_path, capsys):
    prob = _unit_problem(tmp_path)
    assert prob.read_text() == _UNIT_PROBLEM_JSON
    report = tmp_path / "r.json"
    solve = ["solve", "--problem", str(prob), "--alpha", "0.5"]
    assert main(solve + ["--report", str(report)]) == 0
    assert main(solve) == 0
    assert capsys.readouterr().out == report.read_text() == _UNIT_RESULT_JSON


_UNIT_SWEEP_CSV = (
    "variant,alpha,rho,termination,iterations,objective,feas,"
    "monotone_combined,rate_mu,rate_r2\r\n"
    "gs,0.5,1.0,converged,1,0.0,0.0,true,nan,nan\r\n"
    "gs,-1.0,1.0,error,,,,,,\r\n"
)


def test_sweep_csv_text_is_pinned(tmp_path, capsys):
    # a converged cell and a failed one, whose fields stay empty
    prob = _unit_problem(tmp_path)
    out = tmp_path / "s.csv"
    sweep = ["sweep", "--problem", str(prob), "--alpha-grid", "0.5,-1"]
    assert main(sweep + ["--out", str(out)]) == 0
    assert out.read_bytes().decode() == _UNIT_SWEEP_CSV
    capsys.readouterr()
    assert main(sweep) == 0
    assert capsys.readouterr().out == _UNIT_SWEEP_CSV


def test_records_equal_compares_every_csv_scalar():
    for name in ("r", "L_val", "delta_p", "delta_d", "feas", "step", "pg",
                 "d_y", "f_val"):
        changed = _records()
        setattr(changed[1], name, getattr(changed[1], name) + 1)
        assert not records_equal(_records(), changed), name
    assert records_equal(_records(), _records())
    assert not records_equal(_records(), _records()[:1])


_TERM_DOCS = [
    (Zero(), {"type": "zero"}),
    (L1(0.5), {"type": "l1", "lam": 0.5}),
    (GroupL2([[0, 1], [2]], [1, 0.5]),
     {"type": "group_l2", "groups": [[0, 1], [2]], "weights": [1.0, 0.5]}),
    (SparseGroup(0.25, [[2], [0, 1]], [2, 1]),
     {"type": "sparse_group", "lam": 0.25, "groups": [[2], [0, 1]],
      "weights": [2.0, 1.0]}),
    (BoxIndicator([-1, 0], [1, 2]),
     {"type": "box", "lo": [-1.0, 0.0], "hi": [1.0, 2.0]}),
    (NonnegIndicator(), {"type": "nonneg"}),
    (Linear([1, -2.5]), {"type": "linear", "b": [1.0, -2.5]}),
]


def test_term_docs_are_pinned():
    # json.dumps pins key order and int-versus-float spelling as well
    for term, expected in _TERM_DOCS:
        doc = term.to_doc()
        assert json.dumps(doc) == json.dumps(expected), term.kind
        assert json.dumps(term_from_doc(doc).to_doc()) == json.dumps(doc)


def test_report_docs_keep_their_key_order():
    report = DiagnosticsReport(
        gamma_observed=1.0, sigma_emp=2.0, lipschitz_ratio_max=0.5,
        rate_mu=0.9, fit_r2=0.99, tau_primal_emp=3.0, tau_dual_emp=4.0,
        monotone_combined=True, alpha_bound_estimate=0.25,
        warnings=["w"])
    assert report.to_doc()["warnings"] is not report.warnings
    assert json.dumps(report.to_doc()) == (
        '{"gamma_observed": 1.0, "sigma_emp": 2.0, '
        '"lipschitz_ratio_max": 0.5, "rate_mu": 0.9, "fit_r2": 0.99, '
        '"tau_primal_emp": 3.0, "tau_dual_emp": 4.0, '
        '"monotone_combined": true, "alpha_bound_estimate": 0.25, '
        '"warnings": ["w"]}')
    assumptions = AssumptionReport(
        full_rank=[True, False], compact=[False, False],
        strongly_convex_g=False, ok_for_variant={"gauss_seidel": True})
    assert json.dumps(assumptions.to_doc()) == (
        '{"full_rank": [true, false], "compact": [false, false], '
        '"strongly_convex_g": false, "ok_for_variant": '
        '{"gauss_seidel": true}}')
