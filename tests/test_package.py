"""The package's public surface: one exported name per concept, one rule
for every setting it takes and one for every input of a nonsmooth term."""

import importlib
import inspect
import re
import time
import types
import warnings

import numpy as np
import pytest

import blockadmm
from blockadmm.solvers import VARIANTS

# the names ``import blockadmm`` exports besides its submodules
_PUBLIC = {
    # problems and terms
    "AssumptionReport", "Block", "Problem", "SmoothTerm", "add_slack_block",
    "build_problem", "check_assumptions", "feasibility_residual",
    "load_problem", "objective", "problem_from_doc", "problem_to_doc",
    "save_problem",
    "BoxIndicator", "GroupL2", "L1", "Linear", "NonnegIndicator",
    "SparseGroup", "Sum", "Zero", "prox",
    # inner minimization
    "ConvergenceError", "InnerSolveResult", "augmented_lagrangian",
    "minimize_lagrangian", "proximal_gradient", "solve_block",
    # solvers
    "RunResult", "SolverConfig", "default_beta", "nu_constant", "run",
    "step",
    # diagnostics
    "DiagnosticsReport", "Reference", "alpha_bound_estimate",
    "check_descent_lemma", "check_dual_lipschitz",
    "check_function_value_convergence", "check_gap_decrease",
    "compute_gaps", "constructive_sigma", "estimate_error_bound_constants",
    "estimate_rate", "gamma_value", "reference_solution", "run_diagnostics",
    # instances and traces
    "gen_consensus", "gen_group_l2", "gen_l1_kblock", "gen_lasso",
    "TraceRecord", "read_trace_csv", "records_equal", "write_trace_csv",
}

_MODULES = ("cli", "diagnostics", "generators", "lagrangian", "problem",
            "prox", "solvers", "trace")


def test_public_surface_is_pinned():
    # a removed name that comes back, a new one, or an __all__ entry that
    # names nothing fails here
    exported = {name for name, value in vars(blockadmm).items()
                if not name.startswith("_")
                and not isinstance(value, types.ModuleType)}
    assert exported == _PUBLIC
    for module_name in _MODULES:
        # importlib: the ``prox`` function shadows the ``prox`` module
        module = importlib.import_module("blockadmm." + module_name)
        stale = [name for name in getattr(module, "__all__", ())
                 if not hasattr(module, name)]
        assert not stale, (module_name, stale)



# the parameter names that carry rho, a tolerance, the prox step or a
# sampling radius
_SETTINGS = {"rho", "tol", "tol_block", "tol_ref", "t", "radius"}


def _setting_calls():
    """Per exported function that takes a setting: a call whose keywords
    are those settings, with valid defaults, and the settings for which
    0 is in range."""
    b = blockadmm
    p = b.build_problem([b.Block(E=np.eye(2), nonsmooth=b.L1(0.5))],
                        np.ones(2))
    x, y = np.zeros(2), np.zeros(2)
    ref = b.Reference(x=x, y=y, d_star=0.0, f_star=0.0, tol_ref=1e-10)
    return {
        "prox": (lambda t=1.0: b.prox(b.L1(1.0), x, t), ()),
        "augmented_lagrangian": (
            lambda rho=1.0: b.augmented_lagrangian(p, x, y, rho), ()),
        "proximal_gradient": (
            lambda rho=1.0: b.proximal_gradient(p, x, y, rho), ("rho",)),
        "minimize_lagrangian": (
            lambda rho=1.0, tol=1e-10: b.minimize_lagrangian(
                p, y, rho, tol=tol), ()),
        "solve_block": (
            lambda rho=1.0, tol_block=1e-10: b.solve_block(
                p, 0, x, y, rho, tol_block), ()),
        "nu_constant": (lambda rho=1.0: b.nu_constant(p, rho), ("rho",)),
        # rho = 0 leaves the smooth curvature, positive on smooth problems
        "default_beta": (lambda rho=1.0: b.default_beta(p, rho), ("rho",)),
        "step": (lambda rho=1.0: b.step(p, "gauss_seidel", x, y, rho, 0.1),
                 ()),
        "gamma_value": (lambda rho=1.0: b.gamma_value(p, rho), ()),
        "constructive_sigma": (
            lambda rho=1.0: b.constructive_sigma(p, rho), ()),
        "compute_gaps": (
            lambda rho=1.0: b.compute_gaps(p, [], ref, rho), ()),
        "check_descent_lemma": (
            lambda rho=1.0: b.check_descent_lemma(p, [], rho, 1.0), ()),
        "check_function_value_convergence": (
            lambda rho=1.0: b.check_function_value_convergence(
                p, [], ref, rho), ()),
        "check_dual_lipschitz": (
            lambda rho=1.0, tol=1e-8, radius=1.0: b.check_dual_lipschitz(
                p, rho, n_pairs=1, radius=radius, tol=tol), ("radius",)),
        "estimate_error_bound_constants": (
            lambda rho=1.0, tol=1e-10, radius=1.0:
            b.estimate_error_bound_constants(
                p, rho, ref, n_samples=1, radius=radius, tol=tol),
            ("radius",)),
        "reference_solution": (
            lambda rho=1.0, tol_ref=1e-10: b.reference_solution(
                p, rho, tol_ref=tol_ref), ()),
        "run_diagnostics": (
            lambda rho=1.0, tol_ref=1e-10: b.run_diagnostics(
                p, [], rho, tol_ref=tol_ref), ()),
    }


def _rejection(fn, pattern):
    """None when ``fn()`` raises a ValueError whose message matches
    ``pattern``, else what it did instead."""
    try:
        out = fn()
    except ValueError as e:
        if re.search(pattern, str(e)):
            return None
        return "ValueError not naming it: %s" % e
    except Exception as e:    # reported below, with the call that raised
        return "%s: %s" % (type(e).__name__, e)
    return "returned %r" % (out,)


def _misses(call, name, value):
    """None when ``call`` rejects ``value`` for setting ``name`` with a
    ValueError that names it, else what it did instead."""
    return _rejection(lambda: call(**{name: value}),
                      r"\b%s\b" % re.escape(name))


def test_every_setting_is_rejected_when_nan_infinite_or_out_of_range():
    # NaN fails every comparison: a hand-written `rho <= 0` lets it through
    # to a NaN result or to an inner solve that runs to its 50,000 cap
    calls = _setting_calls()
    takes = {}
    for name, fn in vars(blockadmm).items():
        if inspect.isfunction(fn):
            params = _SETTINGS & set(inspect.signature(fn).parameters)
            if params:
                takes[name] = params
    assert {name: set(inspect.signature(call).parameters)
            for name, (call, _) in calls.items()} == takes
    misses = []
    for fname, (call, zero_ok) in calls.items():
        for name in inspect.signature(call).parameters:
            bad = [float("nan"), float("inf"), -float("inf"), "abc", -1.0]
            if name not in zero_ok:
                bad.append(0.0)
            for value in bad:
                miss = _misses(call, name, value)
                if miss:
                    misses.append("%s(%s=%r): %s" % (fname, name, value,
                                                      miss))
    assert not misses, "\n".join(misses)


# the parameter names that carry an iterate
_ITERATES = {"x", "y", "warm_start", "init", "y0", "coupling"}
# exports that evaluate at an iterate argument but start no inner solve
_EVALUATE_ONLY = {"augmented_lagrangian", "proximal_gradient",
                  "feasibility_residual", "objective"}


def _iterate_calls():
    """Per exported function that starts an inner solve from an iterate
    argument: calls whose keywords are those arguments, with valid
    defaults, labelled by the function's name first. The group-l2 blocks
    have no closed-form solve; the l1 k-block ones have one, which
    starts no inner solve, so it checks its y and coupling residual
    itself, and ``step`` checks its x and y for every variant."""
    b = blockadmm
    p = b.gen_group_l2(10, 3, 2, seed=0)
    x, y = np.zeros(p.n), np.zeros(p.m)
    c = b.gen_l1_kblock(6, 4, seed=0)
    xc, yc = np.zeros(c.n), np.zeros(c.m)

    def step_on_c(variant):
        return lambda x=xc, y=yc: b.step(c, variant, x, y, 1.0, 0.1)

    calls = {
        "minimize_lagrangian": lambda y=y, warm_start=x:
            b.minimize_lagrangian(p, y, 1.0, warm_start=warm_start),
        "solve_block": lambda x=x, y=y, coupling=-p.q:
            b.solve_block(p, 0, x, y, 1.0, 1e-10, coupling=coupling),
        "step": lambda x=x, y=y: b.step(p, "gauss_seidel", x, y, 1.0, 0.1),
        "run": lambda init=(x, y): b.run(p, init=init, max_iters=5),
        "reference_solution": lambda y0=y: b.reference_solution(p, 1.0,
                                                                 y0=y0),
        # block 1's coupling residual reads x at block 0's entry
        "solve_block closed form": lambda x=xc, y=yc:
            b.solve_block(c, 1, x, y, 1.0, 1e-10),
        "solve_block closed form, given coupling": lambda coupling=-c.q:
            b.solve_block(c, 1, xc, yc, 1.0, 1e-10, coupling=coupling),
    }
    calls.update(("step %s on l1 k-blocks" % variant, step_on_c(variant))
                 for variant in VARIANTS)
    return calls


def _with_one_nan(value):
    """Each way to put one NaN entry, the first, into an iterate
    argument: into the array, or into either array of an (x0, y0)
    pair. (Block 0 of ``solve_block`` reads x at its own entries.)"""
    if isinstance(value, tuple):
        return [tuple(_with_one_nan(v)[0] if i == j else v
                      for j, v in enumerate(value))
                for i in range(len(value))]
    bad = np.array(value, dtype=float)
    bad[0] = np.nan
    return [bad]


def test_every_iterate_with_a_nan_entry_fails_at_once():
    # an inner solve that starts at a NaN residual would run all 50,000
    # FISTA iterations before its ConvergenceError, and a closed-form
    # block solve would return NaN
    calls = _iterate_calls()
    takes = {name for name, fn in vars(blockadmm).items()
             if inspect.isfunction(fn)
             and _ITERATES & set(inspect.signature(fn).parameters)}
    assert {label.split()[0] for label in calls} | _EVALUATE_ONLY == takes
    misses = []
    for fname, call in calls.items():
        call()
        for name, param in inspect.signature(call).parameters.items():
            for bad in _with_one_nan(param.default):
                start = time.perf_counter()
                try:
                    call(**{name: bad})
                    outcome = "returned"
                except (ValueError, blockadmm.ConvergenceError):
                    outcome = None
                except Exception as e:
                    outcome = "%s: %s" % (type(e).__name__, e)
                took = time.perf_counter() - start
                if outcome or took > 0.1:
                    misses.append("%s(%s with a NaN): %s after %.3f s"
                                  % (fname, name, outcome, took))
    assert not misses, "\n".join(misses)


_NAN, _INF = float("nan"), float("inf")
_WEIGHT_BAD = (_NAN, _INF, -_INF, -1.0)
# a group of indices that are not integers (NumPy would truncate them)
_INDEX_BAD = ([0.5, 1.7], [True, False])

# per term kind, valid constructor arguments on three coordinates and, for
# each number or array of numbers among them, the entries it must reject
# (an array gets the entry in its first place)
_TERM_INPUTS = {
    "zero": {},
    "l1": {"lam": (0.5, _WEIGHT_BAD)},
    "group_l2": {"groups": ([[0, 1], [2]], _INDEX_BAD),
                 "weights": ([1.0, 0.5], _WEIGHT_BAD)},
    "sparse_group": {"lam": (0.5, _WEIGHT_BAD),
                     "groups": ([[0, 1], [2]], _INDEX_BAD),
                     "weights": ([1.0, 0.5], _WEIGHT_BAD)},
    # lo > hi, lo = +inf or hi = -inf leaves the box without a point, and
    # its indicator would not be proper
    "box": {"lo": ([-1.0, -_INF, 0.0], (_NAN, _INF, 2.0)),
            "hi": ([1.0, 2.0, 0.0], (_NAN, -_INF, -2.0))},
    "nonneg": {},
    "linear": {"b": ([1.0, -2.0, 0.5], (_NAN, _INF, -_INF, "abc"))},
}


def _compile_cases(valid):
    """(arguments, n, parts named) for which compiling on n coordinates
    meets an array part of the wrong length or a group index outside
    [0, n)."""
    # the per-coordinate arrays are those of length 3
    arrays = [name for name, value in valid.items()
              if isinstance(value, list) and len(value) == 3
              and name != "groups"]
    if arrays:
        yield valid, 2, arrays
        yield valid, 4, arrays
    if "groups" in valid:
        for groups in ([[0, -1], [2]], [[0, 1], [3]]):
            yield dict(valid, groups=groups), 3, ["groups"]


def test_every_term_input_is_rejected_when_nan_infinite_or_out_of_range():
    # values are checked where a term is made, lengths and group indices
    # where it is compiled: by the public prox, the term's own value and
    # prox, and build_problem, whose error names the block
    types_ = importlib.import_module("blockadmm.prox")._TERM_TYPES
    assert set(_TERM_INPUTS) == set(types_)
    b = blockadmm
    misses = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind, inputs in _TERM_INPUTS.items():
            cls = types_[kind]
            assert set(inputs) == set(inspect.signature(cls).parameters)
            valid = {name: value for name, (value, _) in inputs.items()}
            cls(**valid)
            for name, (value, bad) in inputs.items():
                for entry in bad:
                    arg = [entry] + value[1:] if isinstance(value, list) \
                        else entry
                    miss = _misses(lambda **kw: cls(**dict(valid, **kw)),
                                   name, arg)
                    if miss:
                        misses.append("%s(%s=%r): %s" % (kind, name, arg,
                                                         miss))
                    if kind == "box":
                        # a block's declared box follows the same rule
                        box = dict(valid, **{name: arg})
                        miss = _rejection(lambda: b.build_problem(
                            [b.Block(E=np.eye(3)),
                             b.Block(E=np.eye(3), box=(box["lo"],
                                                       box["hi"]))],
                            np.zeros(3)), r"^block 1: .*\b%s\b" % name)
                        if miss:
                            misses.append("Block(box=%r): %s" % (box, miss))
            for args, n, parts in _compile_cases(valid):
                term, v = cls(**args), np.zeros(n)
                named = r"\b(%s)\b" % "|".join(parts)
                for path, fn, pattern in (
                        ("prox", lambda: b.prox(term, v, 1.0), named),
                        ("value", lambda: term.value(v), named),
                        ("term prox", lambda: term.prox(v, 1.0), named),
                        ("build_problem", lambda: b.build_problem(
                            [b.Block(E=np.eye(n)),
                             b.Block(E=np.eye(n), nonsmooth=term)],
                            np.zeros(n)), r"^block 1: .*" + named)):
                    miss = _rejection(fn, pattern)
                    if miss:
                        misses.append("%s(%r) on %d coordinates, %s: %s"
                                      % (kind, args, n, path, miss))
    # a term is a ProxTerm: in a block and in a sum
    for call, pattern in (
            (lambda: b.build_problem(
                [b.Block(E=np.eye(1), nonsmooth="l1")], [0.0]),
             r"^block 0: nonsmooth must be a ProxTerm"),
            (lambda: b.Sum([1]), r"^Sum terms must be ProxTerms, got 1$"),
            (lambda: b.Sum([b.L1(1.0), "x"]),
             r"^Sum terms must be ProxTerms, got 'x'$")):
        miss = _rejection(call, pattern)
        if miss:
            misses.append("%s: %s" % (pattern, miss))
    assert not misses, "\n".join(misses)
