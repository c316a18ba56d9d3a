"""Per-iteration records, their CSV form, the iterate-state sidecar, and
the CSV and JSON writers behind every file the command line writes.

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
that carry one, and the run's solver settings. Read back, the sidecar is
taken whole or rejected with ValueError.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "write_csv",
    "write_json",
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
# the stored float columns: all but the index r and the derived combined
_FLOATS = tuple(c for c in CSV_COLUMNS if c not in ("r", "combined"))
# a record's values of the columns after r
_row_floats = operator.attrgetter(*CSV_COLUMNS[1:])
# the iterate arrays of a sidecar record, after its r and alpha
_STATES = ("x", "y", "x_next", "w", "xbar")
# the arrays every record carries; w and xbar may be absent or null
_REQUIRED = ("x", "y", "x_next")

_NAN = float("nan")


def _output(path, **kwargs):
    """path opened for writing, or standard output when path is None."""
    return (open(path, "w", **kwargs) if path
            else contextlib.nullcontext(sys.stdout))


def write_csv(path, columns, rows):
    """Write a header and rows as CSV to path (None: stdout).

    The bytes are those of ``csv.writer``'s default dialect (``\\r\\n``
    line ends) for fields that need no quoting: ints, floats (a float's
    str is its repr) and strings without commas, quotes or line breaks,
    which are all this package writes. Each row is formatted by one
    ``%`` and written in one call."""
    row_format = ",".join(["%s"] * len(columns)) + "\r\n"
    with _output(path, newline="") as fh:
        fh.write(row_format % tuple(columns))
        for row in rows:
            fh.write(row_format % tuple(row))


def write_json(doc, path):
    """Write doc as indented JSON plus a newline to path (None: stdout)."""
    with _output(path) as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


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
        """The values of CSV_COLUMNS, r and then Python floats."""
        return (self.r, *map(float, _row_floats(self)))


def write_trace_csv(records, path):
    """Write records to CSV with the fixed column set."""
    write_csv(path, CSV_COLUMNS, (rec.csv_row() for rec in records))


def read_trace_csv(path):
    """Read a trace CSV, one row per iteration, back into records (scalar
    fields only); a row whose r skips raises ValueError."""
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
            if len(row) != len(CSV_COLUMNS):
                raise ValueError("trace row %r has %d fields, expected %d"
                                 % (row, len(row), len(CSV_COLUMNS)))
            fields = dict(zip(CSV_COLUMNS, row))
            r = int(fields["r"])
            if records and r != records[-1].r + 1:
                raise ValueError("trace row r=%d follows r=%d"
                                 % (r, records[-1].r))
            records.append(TraceRecord(
                r, **{c: float(fields[c]) for c in _FLOATS}))
    return records


def _scalar_eq(a, b):
    if math.isnan(a) and math.isnan(b):
        return True
    return a == b


def records_equal(recs_a, recs_b):
    """NaN-aware equality of the CSV scalar fields of two record lists."""
    if len(recs_a) != len(recs_b):
        return False
    return all(a.r == b.r and all(_scalar_eq(getattr(a, c), getattr(b, c))
                                  for c in _FLOATS)
               for a, b in zip(recs_a, recs_b))


def states_path_for(trace_path):
    return str(trace_path) + ".states.json"


def write_states(records, path, meta=None):
    """Write the iterate-state sidecar for a trace.

    The bytes are those of ``json.dump({"meta": ..., "records": [...]})``
    plus a newline, but each record is encoded and written on its own, so
    the whole document is never held in memory. An ``"xbar"`` key follows
    ``"w"`` only in records that carry an inner minimizer. A record's
    ``"x"`` reuses the text of the previous record's ``"x_next"`` when it
    is the same array, as in the records of one run.
    """
    with open(path, "w") as fh:
        fh.write('{"meta": %s, "records": [' % json.dumps(dict(meta or {})))
        sep = ""
        last = (None, None)       # (array, text) of the last x_next
        for rec in records:
            parts = ['"r": %s' % json.dumps(rec.r),
                     '"alpha": %s' % json.dumps(float(rec.alpha))]
            for key in _STATES:
                vec = getattr(rec, key)
                if vec is None:
                    if key != "xbar":
                        parts.append('"%s": null' % key)
                    continue
                text = (last[1] if key == "x" and vec is last[0]
                        else json.dumps(np.asarray(vec, dtype=float).tolist()))
                if key == "x_next":
                    last = (vec, text)
                parts.append('"%s": %s' % (key, text))
            fh.write(sep + "{" + ", ".join(parts) + "}")
            sep = ", "
        fh.write("]}\n")


def _state_from_entry(entry):
    """A decoded JSON object; sidecar records (the objects with an
    ``"x_next"`` key) become state dicts of float arrays."""
    if "x_next" not in entry:
        return entry
    try:
        state = {"r": int(entry["r"]), "alpha": float(entry["alpha"])}
        for key in _STATES:
            vec = entry[key] if key in _REQUIRED else entry.get(key)
            if vec is not None:
                vec = np.asarray(vec)
                if vec.dtype.kind not in "fiu":  # a null makes an object
                    raise ValueError("%s is not a list of numbers" % key)
                vec = vec.astype(float, copy=False)
            state[key] = vec
    except KeyError as e:
        raise ValueError("record r=%s has no %s"
                         % (entry.get("r"), e)) from None
    except (TypeError, ValueError) as e:
        raise ValueError("record r=%s: %s" % (entry.get("r"), e)) from None
    return state


def _not_a_number(literal):
    """Reject the NaN, Infinity and -Infinity literals, which the writer
    never emits."""
    raise ValueError("%s is not a finite number" % literal)


def read_states(path):
    """Read a sidecar; returns (meta, list of per-record state dicts).

    Each record becomes arrays as soon as it is decoded, so the float
    lists of only one record are alive at a time. A document that is not
    an object with ``meta`` and ``records``, or a record without r,
    alpha, x, y or x_next or with an array of non-numbers, or a NaN or
    infinite literal anywhere, raises ValueError."""
    with open(path) as fh:
        doc = json.load(fh, object_hook=_state_from_entry,
                        parse_constant=_not_a_number)
    if not (isinstance(doc, dict) and isinstance(doc.get("meta"), dict)
            and isinstance(doc.get("records"), list)):
        raise ValueError("not an object with 'meta' and 'records'")
    for state in doc["records"]:
        if not isinstance(state, dict):
            raise ValueError("record %r is not an object" % (state,))
        if "x_next" not in state:
            raise ValueError("record r=%s has no 'x_next'" % state.get("r"))
    return doc["meta"], doc["records"]


def _r_or_none(r):
    return "no record" if r is None else "r=%d" % r


def attach_states(records, states, n, m):
    """Merge sidecar states into records, in place.

    The two must list the same r in the same order; otherwise ValueError
    names the first entry where they differ. y must have length m and
    the other iterates length n."""
    pairs = itertools.zip_longest([rec.r for rec in records],
                                  [s["r"] for s in states])
    for i, (trace_r, state_r) in enumerate(pairs):
        if trace_r != state_r:
            raise ValueError("entry %d: the trace has %s, the sidecar has %s"
                             % (i, _r_or_none(trace_r), _r_or_none(state_r)))
    for rec, s in zip(records, states):
        rec.alpha = s["alpha"]
        for key in _STATES:
            vec, want = s[key], (m if key == "y" else n,)
            if ((vec is not None or key in _REQUIRED)
                    and np.shape(vec) != want):
                raise ValueError("record r=%d: %s has shape %s, expected %s"
                                 % (rec.r, key, np.shape(vec), want))
            setattr(rec, key, vec)
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

    def csv_row(self):
        """The values of CHECK_COLUMNS."""
        return (self.r, self.check_name, float(self.lhs), float(self.rhs),
                float(self.slack), "true" if self.passed else "false")


def write_checks_csv(rows, path):
    write_csv(path, CHECK_COLUMNS, (row.csv_row() for row in rows))
