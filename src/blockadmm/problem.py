"""Block-structured problem model.

A problem couples K blocks through a single linear constraint:

    minimize    sum_k  g_k(A_k x_k) + h_k(x_k)
    subject to  sum_k  E_k x_k = q ,

where each ``g_k`` is a smooth convex function with Lipschitz composed
gradient ``A_k^T grad g_k(A_k x_k)``, each ``h_k`` is a nonsmooth term
with an exact proximal operator (see :mod:`blockadmm.prox`), and box
bounds on a block are folded into ``h_k`` when the problem is built.

All matrices are dense; the model targets small and medium instances
(total dimension up to a few thousand).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .prox import (
    BoxIndicator,
    ProxTerm,
    Sum,
    Zero,
    NonnegIndicator,
    _Separable,
    _setting,
    _values,
    _vector,
    term_from_doc,
)
from .trace import write_json

__all__ = [
    "SmoothTerm",
    "Block",
    "Problem",
    "AssumptionReport",
    "build_problem",
    "add_slack_block",
    "objective",
    "feasibility_residual",
    "residual_vector",
    "check_assumptions",
    "check_gradient_consistency",
    "problem_to_doc",
    "problem_from_doc",
    "save_problem",
    "load_problem",
]


class SmoothTerm:
    """Smooth convex part of one block, evaluated as g(A_k x_k).

    Parameters
    ----------
    kind : {"quadratic", "oracle"}
        ``"quadratic"`` means g(z) = (1/2) * ||z - b||^2 with target b.
        ``"oracle"`` supplies callables for g and its gradient.
    b : array_like, required for kind="quadratic".
    value_fn, grad_fn : callables z -> float, z -> array, required for
        kind="oracle".
    lipschitz_L : float, optional
        Lipschitz constant of the composed gradient
        x_k -> A_k^T grad g(A_k x_k). For quadratic terms it defaults to
        ||A_k||^2 at build time; a supplied value must not undercut that
        bound (relative slack 1e-8). Required for oracle terms.
    """

    def __init__(self, kind="quadratic", b=None, value_fn=None, grad_fn=None,
                 lipschitz_L=None):
        if kind not in ("quadratic", "oracle"):
            raise ValueError("smooth term kind must be quadratic or oracle")
        self.kind = kind
        if kind == "quadratic":
            self.b = _values(b, "quadratic target b")
            self.value_fn = None
            self.grad_fn = None
        else:
            if value_fn is None or grad_fn is None:
                raise ValueError("oracle smooth term needs value_fn and grad_fn")
            if lipschitz_L is None:
                raise ValueError("oracle smooth term needs lipschitz_L")
            self.b = None
            self.value_fn = value_fn
            self.grad_fn = grad_fn
        self.lipschitz_L = None if lipschitz_L is None else _setting(
            lipschitz_L, "lipschitz_L", nonnegative=True)

    def g_value(self, z):
        if self.kind == "quadratic":
            d = z - self.b
            return 0.5 * float(np.dot(d, d))
        return float(self.value_fn(z))

    def g_grad(self, z):
        if self.kind == "quadratic":
            return z - self.b
        return np.asarray(self.grad_fn(z), dtype=float)

    def to_doc(self):
        if self.kind != "quadratic":
            raise ValueError("oracle smooth terms are not serializable")
        return {"kind": "quadratic", "b": [float(v) for v in self.b]}


@dataclass
class Block:
    """Declared data of one block, before any validation.

    E : (m, n_k) coupling matrix, required.
    A : optional (p, n_k) design matrix inside the smooth term.
    smooth : optional SmoothTerm.
    nonsmooth : optional ProxTerm (defaults to the zero term).
    box : optional (lo, hi) bounds, folded into the nonsmooth term at
        build time.
    """

    E: np.ndarray
    A: np.ndarray | None = None
    smooth: SmoothTerm | None = None
    nonsmooth: ProxTerm | None = None
    box: tuple | None = None


def _scalar_multiple(M):
    """s when the symmetric M is s * I to 1e-10 relative, else None."""
    s = float(np.trace(M)) / M.shape[0]
    off = M - s * np.eye(M.shape[0])
    return s if float(np.linalg.norm(off)) <= 1e-10 * max(1.0, s) else None


class _BuiltBlock:
    """A validated block with precomputed solver constants; ``form`` is
    its effective nonsmooth term (box folded in) compiled into the
    separable form."""

    def __init__(self, k, E, A, smooth, form, nonsmooth, box, sl):
        self.k = k
        self.E = E
        self.A = A
        self.smooth = smooth
        self.nonsmooth = nonsmooth    # declared term, for serialization
        self.box = box                # declared (lo, hi) or None
        self.sl = sl                  # slice of this block in the flat vector
        self.n_k = E.shape[1]
        self.form = form
        self.EtE = E.T @ E
        evals = np.linalg.eigvalsh(self.EtE)
        self.lambda_min = float(max(evals[0], 0.0))
        self.norm_E = float(np.sqrt(max(evals[-1], 0.0)))
        if smooth is None:
            self.lipschitz = 0.0
            self.hess_smooth = np.zeros((self.n_k, self.n_k))
            self.lin_smooth = np.zeros(self.n_k)
        elif smooth.kind == "quadratic":
            if A is None:
                self.hess_smooth = np.eye(self.n_k)
                self.lin_smooth = smooth.b.copy()
                norm_A_sq = 1.0
            else:
                self.hess_smooth = A.T @ A
                self.lin_smooth = A.T @ smooth.b
                norm_A_sq = float(
                    max(np.linalg.eigvalsh(self.hess_smooth)[-1], 0.0)
                )
            if smooth.lipschitz_L is None:
                self.lipschitz = norm_A_sq
            else:
                if smooth.lipschitz_L < norm_A_sq * (1.0 - 1e-8):
                    raise ValueError(
                        "block %d: lipschitz_L=%g undercuts the quadratic "
                        "bound %g" % (k, smooth.lipschitz_L, norm_A_sq)
                    )
                self.lipschitz = smooth.lipschitz_L
        else:
            self.lipschitz = smooth.lipschitz_L
            self.hess_smooth = None   # gradient is not affine
            self.lin_smooth = None
        # (a, e) when hess_smooth = a * I and E^T E = e * I, so that the
        # subproblem Hessian is (a + rho * e) * I at every rho; else None
        self.scalar_curvature = None
        if self.hess_smooth is not None:
            a = _scalar_multiple(self.hess_smooth)
            e = _scalar_multiple(self.EtE)
            if a is not None and e is not None:
                self.scalar_curvature = (a, e)

    def nu(self, rho):
        """Curvature bound L_k + rho * ||E_k||^2 of the block subproblem,
        zero on a block without curvature."""
        return self.lipschitz + rho * self.norm_E ** 2

    def smooth_value(self, xk):
        if self.smooth is None:
            return 0.0
        z = xk if self.A is None else self.A @ xk
        return self.smooth.g_value(z)

    def smooth_grad(self, xk):
        """Composed gradient A_k^T grad g_k(A_k x_k)."""
        if self.smooth is None:
            return np.zeros(self.n_k)
        z = xk if self.A is None else self.A @ xk
        g = self.smooth.g_grad(z)
        return g if self.A is None else self.A.T @ g


class Problem:
    """A validated block problem. Its data are immutable after build and
    safe to share. The one per-rho state is one tuple for the last rho:
    ``hessian(rho)`` and, beside it, the Newton kernel's one-entry memo
    of the inverse of its free-set submatrix (``_Separable.newton``),
    replaced together when rho changes. Neither changes a result: the
    kernel uses the inverse whether it is new or kept. Each block's
    curvature facts (``scalar_curvature``, the bound ``nu(rho)``) are
    fixed at build.

    Attributes
    ----------
    blocks : list of built blocks with precomputed constants.
    q : (m,) right-hand side of the coupling constraint.
    m, n, K : constraint dimension, total variable dimension, block count.
    E_mat : (m, n) assembled coupling matrix.
    norm_E : spectral norm of E_mat.
    dual_nonunique : whether E^T has a nontrivial kernel (m > n, or
        lambda_min(E E^T) <= 1e-10 lambda_max), so that the dual solution
        need not be unique. Both come from one eigvalsh of the smaller
        Gram matrix of E_mat.
    form : the block forms concatenated, so that the prox, value and
        domain projection of a flat iterate are one call each.
    lin_smooth : the blocks' lin_smooth concatenated, so that the smooth
        gradient is hessian(0) x - lin_smooth; None when some block's
        smooth gradient is not affine.
    """

    def __init__(self, blocks, q, E_mat):
        self.blocks = blocks
        self.q = q
        self.m = q.size
        self.K = len(blocks)
        self.n = sum(b.n_k for b in blocks)
        self.E_mat = E_mat
        evals = np.linalg.eigvalsh(E_mat @ E_mat.T if 0 < self.m <= self.n
                                   else E_mat.T @ E_mat)
        self.norm_E = float(np.sqrt(max(evals[-1], 0.0)))
        self.dual_nonunique = bool(
            self.m > self.n or evals[0] <= 1e-10 * max(evals[-1], 1e-300))
        self.form = _Separable.concat([b.form for b in blocks])
        affine = all(b.hess_smooth is not None for b in blocks)
        self.lin_smooth = np.concatenate(
            [b.lin_smooth for b in blocks]) if affine else None
        # (rho, hessian(rho), its inverse memo) of the last rho
        self._hessian = None
        self._smooth_blocks = [b for b in blocks if b.smooth is not None]
        for arr in (self.q, self.E_mat):
            arr.setflags(write=False)
        for b in blocks:
            b.E.setflags(write=False)
            if b.A is not None:
                b.A.setflags(write=False)

    def hessian(self, rho):
        """Hessian of the smooth part of L(.; y), the block diagonal of
        the blocks' hess_smooth plus rho * E^T E, or None when some
        block's smooth gradient is not affine (then ``lin_smooth`` is
        None too). Only the last rho is kept."""
        return self._hessian_and_inverses(rho)[0]

    def _hessian_and_inverses(self, rho):
        """(hessian(rho), the one-entry memo of the Newton kernel's
        free-set inverses of it), or (None, None); both are replaced
        together when rho changes."""
        if self.lin_smooth is None:
            return None, None
        memo = self._hessian
        if memo is None or memo[0] != rho:
            H = rho * (self.E_mat.T @ self.E_mat)
            for b in self.blocks:
                H[b.sl, b.sl] += b.hess_smooth
            memo = self._hessian = (rho, H, [None])
        return memo[1], memo[2]

    def apply_E(self, x):
        """E x for a flat iterate x."""
        return self.E_mat.dot(x)

    def project_domains(self, x):
        """Project each block of x onto the domain of its nonsmooth term."""
        return self.form.project_domain(x)


def _as_matrix(M, name, k):
    try:
        M = np.asarray(M, dtype=float)
    except (TypeError, ValueError) as e:
        raise ValueError("block %d: %s is not a matrix of numbers (%s)"
                         % (k, name, e)) from None
    if M.ndim != 2:
        raise ValueError("block %d: %s must be a matrix, got ndim=%d"
                         % (k, name, M.ndim))
    if not np.all(np.isfinite(M)):
        raise ValueError("block %d: %s contains non-finite entries" % (k, name))
    return M.copy()


def _normalize_box(box, n_k):
    """The declared (lo, hi) as arrays; a scalar bound fills the block."""
    lo, hi = (np.full(n_k, bound, dtype=float) if np.ndim(bound) == 0
              else np.array(bound, dtype=float) for bound in box)
    return lo, hi


def build_problem(blocks, q):
    """Validate declared blocks against a right-hand side, returning a
    Problem with all solver constants precomputed.

    Raises ValueError (naming the offending block) on dimension
    mismatches, non-finite data, or nonsmooth/box combinations without an
    exact prox.
    """
    q = _values(q, "q")
    if len(blocks) == 0:
        raise ValueError("a problem needs at least one block")
    m = q.size
    built = []
    offset = 0
    for k, blk in enumerate(blocks):
        E = _as_matrix(blk.E, "E", k)
        if E.shape[0] != m:
            raise ValueError(
                "block %d: E has %d rows but the constraint has %d"
                % (k, E.shape[0], m)
            )
        n_k = E.shape[1]
        if n_k == 0:
            raise ValueError("block %d: E has no columns" % k)
        A = None
        if blk.A is not None:
            A = _as_matrix(blk.A, "A", k)
            if A.shape[1] != n_k:
                raise ValueError(
                    "block %d: A has %d columns, block dimension is %d"
                    % (k, A.shape[1], n_k)
                )
        smooth = blk.smooth
        if smooth is not None:
            if not isinstance(smooth, SmoothTerm):
                raise ValueError("block %d: smooth must be a SmoothTerm" % k)
            if smooth.kind == "quadratic":
                p = n_k if A is None else A.shape[0]
                if smooth.b.size != p:
                    raise ValueError(
                        "block %d: quadratic target has length %d, expected %d"
                        % (k, smooth.b.size, p)
                    )
        if blk.A is not None and smooth is None:
            raise ValueError("block %d: A is given but there is no smooth term" % k)
        nonsmooth = blk.nonsmooth if blk.nonsmooth is not None else Zero()
        if not isinstance(nonsmooth, ProxTerm):
            raise ValueError("block %d: nonsmooth must be a ProxTerm" % k)
        try:
            box = None if blk.box is None else _normalize_box(blk.box, n_k)
            h = (nonsmooth if box is None
                 else Sum([nonsmooth, BoxIndicator(*box)]))
            form = h._form(n_k)
        except (TypeError, ValueError) as e:
            raise ValueError("block %d: %s" % (k, e)) from None
        sl = slice(offset, offset + n_k)
        offset += n_k
        built.append(_BuiltBlock(k, E, A, smooth, form, nonsmooth, box, sl))
    E_mat = np.hstack([b.E for b in built])
    prob = Problem(built, q, E_mat)
    check_gradient_consistency(prob, only_oracles=True)
    return prob


def add_slack_block(problem, sign):
    """Turn the equality constraint into an inequality via a slack block.

    sign="ge" relaxes E x = q to E x >= q by appending a block with
    coupling matrix -I and nonnegative slack; sign="le" relaxes to
    E x <= q with coupling +I. Returns a new problem; the original is
    unchanged.
    """
    if sign not in ("ge", "le"):
        raise ValueError("sign must be 'ge' or 'le', got %r" % (sign,))
    m = problem.m
    Es = -np.eye(m) if sign == "ge" else np.eye(m)
    slack = Block(E=Es, nonsmooth=NonnegIndicator())
    decl = [Block(E=b.E, A=b.A, smooth=b.smooth, nonsmooth=b.nonsmooth,
                  box=b.box) for b in problem.blocks]
    return build_problem(decl + [slack], problem.q)


def objective(problem, x):
    """f(x) = sum_k g_k(A_k x_k) + h_k(x_k); +inf when x violates a
    domain constraint, never an exception."""
    return _objective(problem, _vector(x, problem.n, "x"))


def _objective(problem, x):
    """:func:`objective` at a checked x."""
    hv = problem.form.value(x)
    if not math.isfinite(hv):
        return float("inf")
    return float(sum(b.smooth_value(x[b.sl])
                     for b in problem._smooth_blocks) + hv)


def residual_vector(problem, x):
    """E x - q."""
    return problem.apply_E(_vector(x, problem.n, "x")) - problem.q


def feasibility_residual(problem, x):
    """||E x - q||_2."""
    return float(np.linalg.norm(residual_vector(problem, x)))


@dataclass
class AssumptionReport:
    """Structural checks that decide which solver variants are covered by
    the descent theory.

    full_rank : per block, whether E_k has full column rank
        (lambda_min(E_k^T E_k) > 1e-10 * ||E_k||^2).
    compact : per block, whether the effective nonsmooth domain is a
        bounded box.
    strongly_convex_g : whether every present smooth term is a strictly
        convex quadratic (oracle terms cannot be verified and report
        False).
    ok_for_variant : which solver variants have their descent constants
        available on this problem. The unsafe Jacobi sweep carries no
        guarantee and always reports False.
    """

    full_rank: list = field(default_factory=list)
    compact: list = field(default_factory=list)
    strongly_convex_g: bool = True
    ok_for_variant: dict = field(default_factory=dict)

    def to_doc(self):
        return asdict(self)


def check_assumptions(problem):
    """Classify the problem against the structural assumptions used by
    the convergence analysis; see AssumptionReport."""
    full_rank = [
        b.lambda_min > 1e-10 * b.norm_E ** 2 if b.norm_E > 0 else False
        for b in problem.blocks
    ]
    compact = [bool(np.isfinite(b.form.lo).all() and
                    np.isfinite(b.form.hi).all()) for b in problem.blocks]
    strongly_convex = all(
        b.smooth is None or b.smooth.kind == "quadratic"
        for b in problem.blocks
    )
    all_rank = all(full_rank)
    return AssumptionReport(
        full_rank=full_rank,
        compact=compact,
        strongly_convex_g=strongly_convex,
        ok_for_variant={
            "gauss_seidel": all_rank,
            "proximal": True,
            "jacobi": all_rank,
            "jacobi_unsafe": False,
        },
    )


def check_gradient_consistency(problem, rel_tol=1e-5, only_oracles=False):
    """Central finite differences of g_k(A_k .) against the supplied
    composed gradient, at three standard normal points per block (drawn
    from seed 0), step 1e-6 * (1 + ||x_k||).

    Returns the worst relative error; raises ValueError when a gradient
    is inconsistent beyond ``rel_tol``.
    """
    rng = np.random.default_rng(0)
    worst = 0.0
    for b in problem.blocks:
        if b.smooth is None:
            continue
        if only_oracles and b.smooth.kind == "quadratic":
            continue
        for _ in range(3):
            xk = rng.standard_normal(b.n_k)
            grad = b.smooth_grad(xk)
            step = 1e-6 * (1.0 + float(np.linalg.norm(xk)))
            fd = np.zeros(b.n_k)
            for i in range(b.n_k):
                e = np.zeros(b.n_k)
                e[i] = step
                fd[i] = (b.smooth_value(xk + e) - b.smooth_value(xk - e)) / (2 * step)
            denom = max(float(np.linalg.norm(grad)), 1e-8)
            err = float(np.linalg.norm(fd - grad)) / denom
            worst = max(worst, err)
            if err > rel_tol:
                raise ValueError(
                    "block %d: smooth gradient disagrees with finite "
                    "differences (relative error %.3e)" % (b.k, err)
                )
    return worst


def _rows(M):
    """A matrix, or a pair of vectors, as lists of floats; None stays."""
    return None if M is None else [[float(v) for v in row] for row in M]


def problem_to_doc(problem):
    """JSON-ready dict in the block-problem interchange schema; a block's
    entry holds the fields of :class:`Block`."""
    return {"q": [float(v) for v in problem.q], "blocks": [{
        "E": _rows(b.E),
        "A": _rows(b.A),
        "smooth": None if b.smooth is None else b.smooth.to_doc(),
        "nonsmooth": b.nonsmooth.to_doc(),
        "box": None if b.box is None else dict(zip(("lo", "hi"),
                                                   _rows(b.box))),
    } for b in problem.blocks]}


def _known_keys(doc, keys, level):
    """A ValueError naming a key of the dict ``doc`` outside ``keys``:
    each level of a document holds only the keys its writer emits."""
    unknown = sorted(set(doc.keys()) - set(keys))
    if unknown:
        raise ValueError("unknown %s key %r" % (level, unknown[0]))


def problem_from_doc(doc):
    """Build a problem from its JSON dict form."""
    try:
        q = doc["q"]
        raw_blocks = list(doc["blocks"])
    except (KeyError, TypeError):
        raise ValueError(
            "problem document needs 'q' and a list of 'blocks'") from None
    _known_keys(doc, ("q", "blocks"), "problem document")
    blocks = []
    for k, entry in enumerate(raw_blocks):
        try:
            _known_keys(entry, [f.name for f in fields(Block)], "block")
            smooth, box = entry.get("smooth"), entry.get("box")
            if smooth is not None:
                if smooth.get("kind") != "quadratic":
                    raise ValueError(
                        "only quadratic smooth terms can be loaded from JSON")
                _known_keys(smooth, ("kind", "b"), "smooth term")
                smooth = SmoothTerm(kind="quadratic", b=smooth["b"])
            if box is not None:
                _known_keys(box, ("lo", "hi"), "box")
                box = (box["lo"], box["hi"])
            blocks.append(Block(
                E=entry["E"],
                A=entry.get("A"),
                smooth=smooth,
                nonsmooth=term_from_doc(entry["nonsmooth"]),
                box=box,
            ))
        except ValueError as e:
            raise ValueError("block %d: %s" % (k, e)) from None
        except (KeyError, TypeError, AttributeError) as e:
            raise ValueError("block %d is malformed (%s: %s)"
                             % (k, type(e).__name__, e)) from None
    return build_problem(blocks, q)


def save_problem(problem, path):
    """Write the problem as deterministic, indented JSON to path or stdout."""
    write_json(problem_to_doc(problem), path)


def load_problem(path):
    with open(path) as fh:
        return problem_from_doc(json.load(fh))
