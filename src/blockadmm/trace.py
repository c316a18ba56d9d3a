"""Per-iteration records, their CSV form, and the iterate-state sidecar.

One record describes one dual transition r -> r+1: the pre-step state
(x^r, y^r), the swept iterate x^{r+1}, and the scalars derived from
them. The CSV serialization carries the fixed scalar columns

    r,L_val,delta_p,delta_d,combined,feas,step,pg,d_y,f_val

with full-precision floats (NaN spelled ``nan``), where

    L_val = L(x^{r+1}; y^r)          combined = delta_p + delta_d
    feas  = ||E x^r - q||            step = ||x^{r+1} - x^r||
    pg    = ||prox-gradient at (x^r, y^r)||
    d_y   = d(y^r)                   f_val = f(x^{r+1}) .

Gap columns are NaN until they are filled in. The solver fills d_y, and
the inner minimizer xbar = x(y^r) it was computed at, only when its
auto-alpha monitor computes them anyway; diagnostics polish those and
fill the rest.

The iterate states needed to re-verify descent and gap inequalities
offline do not fit the scalar CSV, so they are written to a JSON sidecar
(``<trace>.states.json``) holding x, y, x_next, the per-iteration dual
stepsize, the Jacobi direction w when applicable, xbar for the records
that carry one, and the run's solver settings.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TraceRecord",
    "CSV_COLUMNS",
    "write_trace_csv",
    "read_trace_csv",
    "records_equal",
    "write_states",
    "read_states",
    "attach_states",
    "states_path_for",
    "CheckRow",
    "CHECK_COLUMNS",
    "write_checks_csv",
]

CSV_COLUMNS = ("r", "L_val", "delta_p", "delta_d", "combined", "feas",
               "step", "pg", "d_y", "f_val")

_NAN = float("nan")


@dataclass
class TraceRecord:
    """Scalars and (optionally) full iterate states of one transition."""

    r: int
    L_val: float = _NAN
    delta_p: float = _NAN
    delta_d: float = _NAN
    feas: float = _NAN
    step: float = _NAN
    pg: float = _NAN
    d_y: float = _NAN
    f_val: float = _NAN
    alpha: float = _NAN
    x: np.ndarray | None = None
    y: np.ndarray | None = None
    x_next: np.ndarray | None = None
    w: np.ndarray | None = None
    xbar: np.ndarray | None = None

    @property
    def combined(self):
        return self.delta_p + self.delta_d

    def csv_row(self):
        return [
            str(self.r),
            repr(float(self.L_val)),
            repr(float(self.delta_p)),
            repr(float(self.delta_d)),
            repr(float(self.combined)),
            repr(float(self.feas)),
            repr(float(self.step)),
            repr(float(self.pg)),
            repr(float(self.d_y)),
            repr(float(self.f_val)),
        ]


def write_trace_csv(records, path):
    """Write records to CSV with the fixed column set."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow(rec.csv_row())


def read_trace_csv(path):
    """Read a trace CSV back into records (scalar fields only)."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != CSV_COLUMNS:
            raise ValueError(
                "unexpected trace header %r; expected %r"
                % (header, list(CSV_COLUMNS))
            )
        for row in reader:
            if not row:
                continue
            records.append(TraceRecord(
                r=int(row[0]),
                L_val=float(row[1]),
                delta_p=float(row[2]),
                delta_d=float(row[3]),
                # row[4] is the derived combined column
                feas=float(row[5]),
                step=float(row[6]),
                pg=float(row[7]),
                d_y=float(row[8]),
                f_val=float(row[9]),
            ))
    return records


def _scalar_eq(a, b):
    if math.isnan(a) and math.isnan(b):
        return True
    return a == b


def records_equal(recs_a, recs_b):
    """NaN-aware equality of the CSV scalar fields of two record lists."""
    if len(recs_a) != len(recs_b):
        return False
    for a, b in zip(recs_a, recs_b):
        if a.r != b.r:
            return False
        for name in ("L_val", "delta_p", "delta_d", "feas", "step",
                     "pg", "d_y", "f_val"):
            if not _scalar_eq(getattr(a, name), getattr(b, name)):
                return False
    return True


def states_path_for(trace_path):
    return str(trace_path) + ".states.json"


def _vec(a):
    return None if a is None else np.asarray(a, dtype=float).tolist()


def write_states(records, path, meta=None):
    """Write the iterate-state sidecar for a trace.

    The bytes are those of ``json.dump({"meta": ..., "records": [...]})``
    plus a newline, but each record is encoded and written on its own, so
    the whole document is never held in memory. An ``"xbar"`` key follows
    ``"w"`` only in records that carry an inner minimizer.
    """
    with open(path, "w") as fh:
        fh.write('{"meta": %s, "records": [' % json.dumps(dict(meta or {})))
        sep = ""
        for rec in records:
            entry = {
                "r": rec.r,
                "alpha": float(rec.alpha),
                "x": _vec(rec.x),
                "y": _vec(rec.y),
                "x_next": _vec(rec.x_next),
                "w": _vec(rec.w),
            }
            if rec.xbar is not None:
                entry["xbar"] = _vec(rec.xbar)
            fh.write(sep)
            fh.write(json.dumps(entry))
            sep = ", "
        fh.write("]}\n")


def _state_from_entry(entry):
    """A decoded JSON object; sidecar records (the objects with an
    ``"x_next"`` key) become state dicts of arrays."""
    if "x_next" not in entry:
        return entry
    state = {"r": int(entry["r"]), "alpha": float(entry["alpha"])}
    for key in ("x", "y", "x_next", "w", "xbar"):
        vec = entry.get(key)
        state[key] = None if vec is None else np.asarray(vec)
    return state


def read_states(path):
    """Read a sidecar; returns (meta, list of per-record state dicts).

    Each record becomes arrays as soon as it is decoded, so the float
    lists of only one record are alive at a time."""
    with open(path) as fh:
        doc = json.load(fh, object_hook=_state_from_entry)
    return doc.get("meta", {}), doc["records"]


def attach_states(records, states):
    """Merge sidecar states into records by iteration index, in place."""
    by_r = {s["r"]: s for s in states}
    for rec in records:
        s = by_r.get(rec.r)
        if s is None:
            continue
        rec.alpha = s["alpha"]
        rec.x = s["x"]
        rec.y = s["y"]
        rec.x_next = s["x_next"]
        rec.w = s["w"]
        rec.xbar = s["xbar"]
    return records


CHECK_COLUMNS = ("r", "check_name", "lhs", "rhs", "slack", "pass")


@dataclass
class CheckRow:
    """One verified inequality (or identity) at one iteration."""

    r: int
    check_name: str
    lhs: float
    rhs: float
    slack: float
    passed: bool


def write_checks_csv(rows, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CHECK_COLUMNS)
        for row in rows:
            writer.writerow([
                str(row.r),
                row.check_name,
                repr(float(row.lhs)),
                repr(float(row.rhs)),
                repr(float(row.slack)),
                "true" if row.passed else "false",
            ])
