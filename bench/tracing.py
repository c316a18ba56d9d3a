"""Spans and counts at the layer boundaries of ``blockadmm``, recorded
from outside the package.

``installed(tracer)`` replaces the public entry points of each layer
(the ``prox`` methods of the term classes, ``solvers.solve_block``, the
primal-pass functions, ``lagrangian.minimize_lagrangian`` and
``proximal_gradient``, ``solvers.run``, the diagnostics phases, the
trace-file readers and writers, ``cli.main``, the generators,
``build_problem`` and ``load_problem``) with wrappers, in every module
namespace that calls them, and restores the originals on exit. It is
only used in the traced run; untraced runs call the package unchanged.

Each call records a span (name, parent span, start, end) in flat
arrays that stay in memory until ``save`` writes them, and increments a
call count keyed by (layer, calling layer). A few wrappers also read
work counts off the return value (inner sweeps, check rows, records,
sidecar bytes). A call into a layer from inside the same layer group
(``Sum.prox`` calling ``L1.prox``; ``load_problem`` calling
``build_problem``) is part of the outer span and records nothing.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import os
import time
from array import array
from collections import Counter

import numpy as np


class Tracer:
    """In-memory span and count recorder."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []               # span-name table; spans store ids
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")  # index of the parent span, -1 if none
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_child = array("d")   # time covered by direct children
        self.round_starts = []         # first span index of each round
        self.calls = Counter()         # (layer, calling layer) -> calls
        self.work = Counter()          # work counts read off results
        self._stack = []               # (span index, name id, group)

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, group=None, on_result=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``on_result(tracer, caller, args, kwargs, result)`` runs after
        the span closes, with ``caller`` the calling layer's name.
        """
        nid = self.name_id(name)
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            top = stack[-1] if stack else None
            if group is not None and top is not None and top[2] == group:
                return fn(*args, **kwargs)
            parent = -1 if top is None else top[0]
            caller = None if top is None else self.names[top[1]]
            self.calls[name, caller] += 1
            sid = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(parent)
            self.span_end.append(0.0)
            self.span_child.append(0.0)
            stack.append((sid, nid, group))
            self.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.span_end[sid] = end
                if parent >= 0:
                    self.span_child[parent] += end - self.span_start[sid]
            if on_result is not None:
                on_result(self, caller, args, kwargs, result)
            return result

        return traced

    def begin_round(self):
        """Start a traced round: counts restart, spans keep accumulating."""
        self.round_starts.append(len(self.span_start))
        self.calls.clear()
        self.work.clear()

    def round_metrics(self):
        """Per-layer metrics of the round begun last."""
        i0 = self.round_starts[-1]
        names = np.array(self.span_name[i0:], dtype=np.int64)
        start = np.array(self.span_start[i0:])
        dur = np.array(self.span_end[i0:]) - start
        self_time = dur - np.array(self.span_child[i0:])

        def total(name, of=dur):
            if name not in self._ids:
                return 0.0
            return float(np.sum(of[names == self._ids[name]]))

        def calls(name, caller=None):
            return sum(n for (layer, by), n in self.calls.items()
                       if layer == name and (caller is None or by == caller))

        def ratio(a, b):
            return a / b if b else 0.0

        work = self.work
        prox_calls = calls("prox")
        block_calls = calls("solve_block")
        dual_evals = calls("minimize_lagrangian")
        sweeps = work["sweeps"]
        return {
            "prox.calls": prox_calls,
            "prox.self_s": total("prox", self_time),
            "prox.us_per_call":
                1e6 * ratio(total("prox", self_time), prox_calls),
            "solve_block.calls": block_calls,
            "solve_block.self_s": total("solve_block", self_time),
            "solve_block.prox_per_call":
                ratio(calls("prox", "solve_block"), block_calls),
            "primal_pass.calls": calls("primal_pass"),
            "primal_pass.self_s": total("primal_pass", self_time),
            "lagrangian.dual_evals": dual_evals,
            "lagrangian.sweeps": sweeps,
            "lagrangian.sweeps_per_eval": ratio(sweeps, dual_evals),
            "lagrangian.self_s": total("minimize_lagrangian", self_time),
            "lagrangian.prox_grad_calls": calls("proximal_gradient"),
            "lagrangian.prox_grad_self_s":
                total("proximal_gradient", self_time),
            "run.self_s": total("run", self_time),
            "run.dual_evals_per_iter": ratio(
                calls("minimize_lagrangian", "run"), work["run_iterations"]),
            "run.alpha_halvings": work["alpha_halvings"],
            "diagnostics.reference_s": total("reference_solution"),
            "diagnostics.reference_sweeps":
                work["sweeps", "reference_solution"],
            "diagnostics.gaps_s": total("compute_gaps"),
            "diagnostics.gaps_sweeps_per_record": ratio(
                work["sweeps", "compute_gaps"], work["gap_records"]),
            "diagnostics.lipschitz_s": total("check_dual_lipschitz"),
            "diagnostics.error_bound_s":
                total("estimate_error_bound_constants"),
            "diagnostics.check_rows": work["check_rows"],
            "diagnostics.failing_rows": work["failing_rows"],
            "trace.write_s": total("trace.write"),
            "trace.read_s": total("trace.read"),
            "trace.states_bytes": work["states_bytes"],
            "cli.self_s": total("cli", self_time),
            "problem.build_s": total("problem.build"),
            "problem.load_s": total("problem.load"),
        }

    def save(self, path):
        """Write every span recorded so far as a compressed NumPy archive:
        parallel arrays ``name`` (index into ``names``), ``parent`` (span
        index, -1 at the top), ``start`` and ``end`` (perf_counter
        seconds), and ``round_starts``."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.array(self.span_name, dtype=np.int32),
            parent=np.array(self.span_parent, dtype=np.int32),
            start=np.array(self.span_start),
            end=np.array(self.span_end),
            round_starts=np.array(self.round_starts, dtype=np.int64),
        )


def _count_sweeps(tracer, caller, args, kwargs, result):
    tracer.work["sweeps"] += result.iterations
    tracer.work["sweeps", caller] += result.iterations


def _count_run(tracer, caller, args, kwargs, result):
    tracer.work["run_iterations"] += result.iterations
    config = result.config
    alpha = 0.1 * config.rho if config.alpha == "auto" else float(
        config.alpha)
    for rec in result.records:
        if 0.0 < rec.alpha < alpha:
            tracer.work["alpha_halvings"] += round(
                math.log2(alpha / rec.alpha))
        alpha = rec.alpha


def _count_rows(tracer, caller, args, kwargs, result):
    rows = result[1]
    tracer.work["check_rows"] += len(rows)
    tracer.work["failing_rows"] += sum(1 for row in rows if not row.passed)


def _count_gap_records(tracer, caller, args, kwargs, result):
    tracer.work["gap_records"] += len(result[0])


def _count_states_bytes(tracer, caller, args, kwargs, result):
    tracer.work["states_bytes"] += os.path.getsize(args[1])


@contextlib.contextmanager
def installed(tracer):
    """Route the package's layer entry points through ``tracer``."""
    # importlib, because the package's ``prox`` function shadows the
    # ``blockadmm.prox`` module as an attribute of the package.
    cli, diagnostics, generators, lagrangian, problem, prox, solvers, \
        trace = (importlib.import_module("blockadmm." + name) for name in (
            "cli", "diagnostics", "generators", "lagrangian", "problem",
            "prox", "solvers", "trace"))

    saved = []

    def patch(owners, attr, name, group=None, on_result=None):
        original = getattr(owners[0], attr)
        wrapped = tracer.wrap(name, original, group, on_result)
        for owner in owners:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapped)

    try:
        for cls in vars(prox).values():
            if isinstance(cls, type) and issubclass(cls, prox.ProxTerm) \
                    and cls is not prox.ProxTerm and "prox" in vars(cls):
                patch([cls], "prox", "prox", group="prox")
        patch([solvers], "solve_block", "solve_block")
        for attr in ("_primal_gauss_seidel", "_primal_proximal",
                     "_jacobi_direction"):
            patch([solvers], attr, "primal_pass")
        patch([lagrangian, solvers, diagnostics], "minimize_lagrangian",
              "minimize_lagrangian", on_result=_count_sweeps)
        patch([lagrangian, solvers], "proximal_gradient",
              "proximal_gradient")
        patch([solvers, cli], "run", "run", on_result=_count_run)
        patch([diagnostics, cli], "run_diagnostics", "run_diagnostics",
              on_result=_count_rows)
        patch([diagnostics, cli], "reference_solution", "reference_solution")
        patch([diagnostics, cli], "compute_gaps", "compute_gaps",
              on_result=_count_gap_records)
        patch([diagnostics], "check_dual_lipschitz", "check_dual_lipschitz")
        patch([diagnostics], "estimate_error_bound_constants",
              "estimate_error_bound_constants")
        patch([trace, cli], "write_trace_csv", "trace.write")
        patch([trace, cli], "write_states", "trace.write",
              on_result=_count_states_bytes)
        patch([trace, cli], "read_trace_csv", "trace.read")
        patch([trace, cli], "read_states", "trace.read")
        patch([cli], "main", "cli")
        for family, gen in list(generators.FAMILIES.items()):
            wrapped = tracer.wrap("problem.build", gen, group="problem")
            saved.append((generators.FAMILIES, family, gen))
            generators.FAMILIES[family] = wrapped
            saved.append((generators, gen.__name__, gen))
            setattr(generators, gen.__name__, wrapped)
        patch([problem, generators], "build_problem", "problem.build",
              group="problem")
        patch([problem, cli], "load_problem", "problem.load",
              group="problem")
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
