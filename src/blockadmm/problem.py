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
from dataclasses import dataclass, field

import numpy as np

from .prox import (
    BoxIndicator,
    ProxTerm,
    Zero,
    NonnegIndicator,
    merge_box,
    term_from_doc,
    term_to_doc,
)

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
    "spectral_norm_power",
    "problem_to_doc",
    "problem_from_doc",
    "save_problem",
    "load_problem",
]


def spectral_norm_power(M, tol=1e-10, max_iter=200000, seed=0):
    """Largest singular value of M by power iteration on its Gram matrix.

    Iterates v <- G v / ||G v|| on the smaller of M^T M and M M^T with a
    fixed internal seed, tracking the Rayleigh quotient v^T G v, and stops
    when the quotient's relative change drops below ``tol``.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError("spectral norm expects a matrix")
    if M.size == 0 or not np.any(M):
        return 0.0
    m, n = M.shape
    G = M.T @ M if n <= m else M @ M.T
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(G.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iter):
        w = G @ v
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return 0.0
        v = w / nw
        lam_new = float(v @ (G @ v))
        done = abs(lam_new - lam) <= tol * max(abs(lam_new), 1e-300)
        lam = lam_new
        if done:
            break
    return float(np.sqrt(max(lam, 0.0)))


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
            if b is None:
                raise ValueError("quadratic smooth term needs a target b")
            self.b = np.atleast_1d(np.asarray(b, dtype=float))
            if not np.all(np.isfinite(self.b)):
                raise ValueError("quadratic target b must be finite")
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
        self.lipschitz_L = None if lipschitz_L is None else float(lipschitz_L)
        if self.lipschitz_L is not None and self.lipschitz_L < 0:
            raise ValueError("lipschitz_L must be nonnegative")

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


class _BuiltBlock:
    """A validated block with precomputed solver constants."""

    def __init__(self, k, E, A, smooth, h, nonsmooth, box, sl):
        self.k = k
        self.E = E
        self.A = A
        self.smooth = smooth
        self.h = h                    # effective nonsmooth term (box folded in)
        self.nonsmooth = nonsmooth    # declared term, for serialization
        self.box = box                # declared (lo, hi) or None
        self.sl = sl                  # slice of this block in the flat vector
        self.n_k = E.shape[1]
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
        self._constants = None        # (rho, constants(rho)) of the last rho

    def constants(self, rho):
        """Block-solve constants at penalty rho, as (H, scalar_eta, H_inv,
        step_L).

        H = hess_smooth + rho * EtE is the subproblem Hessian (None when
        the smooth gradient is not affine); scalar_eta is eta when H is
        eta * I with eta > 0, else None; H_inv is the inverse of a
        positive definite H on a block with no nonsmooth term, else None;
        step_L is the curvature bound of the prox-gradient loop. Only the
        last rho is kept, so a sweep over rho holds one entry.
        """
        memo = self._constants
        if memo is not None and memo[0] == rho:
            return memo[1]
        H = scalar_eta = H_inv = None
        if self.hess_smooth is not None:
            H = self.hess_smooth + rho * self.EtE
            eta = float(np.trace(H)) / self.n_k
            off = H - eta * np.eye(self.n_k)
            if eta > 0 and float(np.linalg.norm(off)) <= 1e-10 * max(1.0, eta):
                scalar_eta = eta
            evals = np.linalg.eigvalsh(H)
            step_L = float(max(evals[-1], 0.0))
            posdef = evals[0] > 1e-14 * max(evals[-1], 1.0)
            if posdef and self.h.kind == "zero":
                H_inv = np.linalg.inv(H)
        else:
            step_L = self.lipschitz + rho * self.norm_E ** 2
        constants = (H, scalar_eta, H_inv, step_L)
        self._constants = (rho, constants)
        return constants

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
    safe to share; each block memoizes its block-solve constants for the
    last rho it was solved at (``_BuiltBlock.constants``), which changes
    no result.

    Attributes
    ----------
    blocks : list of built blocks with precomputed constants.
    q : (m,) right-hand side of the coupling constraint.
    m, n, K : constraint dimension, total variable dimension, block count.
    E_mat : (m, n) assembled coupling matrix.
    norm_E : spectral norm of E_mat (power iteration, relative tol 1e-10).
    metadata : dict with per-block lambda_min(E_k^T E_k), ||E_k||, and
        the global ||E||.
    """

    def __init__(self, blocks, q, E_mat, norm_E, declared):
        self.blocks = blocks
        self.q = q
        self.m = q.size
        self.K = len(blocks)
        self.n = sum(b.n_k for b in blocks)
        self.E_mat = E_mat
        self.norm_E = norm_E
        self._declared = declared
        self.metadata = {
            "norm_E": norm_E,
            "lambda_min_blocks": [b.lambda_min for b in blocks],
            "norm_E_blocks": [b.norm_E for b in blocks],
        }
        for arr in (self.q, self.E_mat):
            arr.setflags(write=False)
        for b in blocks:
            b.E.setflags(write=False)
            if b.A is not None:
                b.A.setflags(write=False)

    def apply_E(self, x):
        """E x for a flat iterate x."""
        return self.E_mat @ x

    def project_domains(self, x):
        """Project each block of x onto the domain of its nonsmooth term."""
        x = np.asarray(x, dtype=float)
        out = x.copy()
        for b in self.blocks:
            out[b.sl] = b.h.project_domain(x[b.sl])
        return out


def _as_matrix(M, name, k):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError("block %d: %s must be a matrix, got ndim=%d"
                         % (k, name, M.ndim))
    if not np.all(np.isfinite(M)):
        raise ValueError("block %d: %s contains non-finite entries" % (k, name))
    return M.copy()


def _normalize_box(box, n_k, k):
    lo, hi = box
    lo = np.broadcast_to(np.asarray(lo, dtype=float), (n_k,)).copy()
    hi = np.broadcast_to(np.asarray(hi, dtype=float), (n_k,)).copy()
    if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
        raise ValueError("block %d: box bounds contain NaN" % k)
    if np.any(lo > hi):
        raise ValueError("block %d: empty box, lo exceeds hi" % k)
    return lo, hi


def build_problem(blocks, q):
    """Validate declared blocks against a right-hand side, returning a
    Problem with all solver constants precomputed.

    Raises ValueError (naming the offending block) on dimension
    mismatches, non-finite data, or nonsmooth/box combinations without an
    exact prox.
    """
    q = np.atleast_1d(np.asarray(q, dtype=float)).copy()
    if q.ndim != 1:
        raise ValueError("q must be a vector")
    if not np.all(np.isfinite(q)):
        raise ValueError("q contains non-finite entries")
    if len(blocks) == 0:
        raise ValueError("a problem needs at least one block")
    m = q.size
    built = []
    declared = []
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
        try:
            nonsmooth.validate_dim(n_k)
        except ValueError as e:
            raise ValueError("block %d: %s" % (k, e)) from None
        box = None
        h = nonsmooth
        if blk.box is not None:
            lo, hi = _normalize_box(blk.box, n_k, k)
            box = (lo, hi)
            try:
                h = merge_box(nonsmooth, lo, hi)
            except ValueError as e:
                raise ValueError("block %d: %s" % (k, e)) from None
        sl = slice(offset, offset + n_k)
        offset += n_k
        built.append(_BuiltBlock(k, E, A, smooth, h, nonsmooth, box, sl))
        declared.append(Block(E=E, A=A, smooth=smooth, nonsmooth=nonsmooth,
                              box=box))
    E_mat = np.hstack([b.E for b in built])
    norm_E = spectral_norm_power(E_mat)
    prob = Problem(built, q, E_mat, norm_E, declared)
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
                  box=b.box) for b in problem._declared]
    return build_problem(decl + [slack], problem.q)


def objective(problem, x):
    """f(x) = sum_k g_k(A_k x_k) + h_k(x_k); +inf when x violates a
    domain constraint, never an exception."""
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.n,):
        raise ValueError("x has shape %s, expected (%d,)" % (x.shape, problem.n))
    total = 0.0
    for b in problem.blocks:
        xk = x[b.sl]
        hv = b.h.value(xk)
        if not np.isfinite(hv):
            return float("inf")
        total += b.smooth_value(xk) + hv
    return float(total)


def residual_vector(problem, x):
    """E x - q."""
    return problem.apply_E(np.asarray(x, dtype=float)) - problem.q


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
        return {
            "full_rank": list(self.full_rank),
            "compact": list(self.compact),
            "strongly_convex_g": self.strongly_convex_g,
            "ok_for_variant": dict(self.ok_for_variant),
        }


def check_assumptions(problem):
    """Classify the problem against the structural assumptions used by
    the convergence analysis; see AssumptionReport."""
    full_rank = [
        b.lambda_min > 1e-10 * b.norm_E ** 2 if b.norm_E > 0 else False
        for b in problem.blocks
    ]
    compact = []
    for b in problem.blocks:
        h = b.h
        bounded = False
        boxes = []
        if h.kind == "box":
            boxes = [h]
        elif h.kind == "sum":
            boxes = [t for t in h.terms if t.kind == "box"]
        for bx in boxes:
            if np.all(np.isfinite(bx.lo)) and np.all(np.isfinite(bx.hi)):
                bounded = True
        compact.append(bounded)
    strongly_convex = all(
        b.smooth is None or b.smooth.kind == "quadratic"
        for b in problem.blocks
    )
    all_rank = all(full_rank)
    report = AssumptionReport(
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
    return report


def check_gradient_consistency(problem, seed=0, n_points=3, rel_tol=1e-5,
                               only_oracles=False):
    """Central finite differences of g_k(A_k .) against the supplied
    composed gradient, at random points, step 1e-6 * (1 + ||x_k||).

    Returns the worst relative error; raises ValueError when a gradient
    is inconsistent beyond ``rel_tol``.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for b in problem.blocks:
        if b.smooth is None:
            continue
        if only_oracles and b.smooth.kind == "quadratic":
            continue
        for _ in range(n_points):
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


def problem_to_doc(problem):
    """JSON-ready dict in the block-problem interchange schema."""
    blocks = []
    for b in problem._declared:
        entry = {
            "E": [[float(v) for v in row] for row in b.E],
            "A": None if b.A is None else
                 [[float(v) for v in row] for row in b.A],
            "smooth": None if b.smooth is None else b.smooth.to_doc(),
            "nonsmooth": term_to_doc(b.nonsmooth),
            "box": None if b.box is None else {
                "lo": [float(v) for v in b.box[0]],
                "hi": [float(v) for v in b.box[1]],
            },
        }
        blocks.append(entry)
    return {"q": [float(v) for v in problem.q], "blocks": blocks}


def problem_from_doc(doc):
    """Build a problem from its JSON dict form."""
    try:
        q = doc["q"]
        raw_blocks = doc["blocks"]
    except (KeyError, TypeError):
        raise ValueError("problem document needs 'q' and 'blocks'") from None
    blocks = []
    for entry in raw_blocks:
        smooth_doc = entry.get("smooth")
        smooth = None
        if smooth_doc is not None:
            if smooth_doc.get("kind") != "quadratic":
                raise ValueError(
                    "only quadratic smooth terms can be loaded from JSON"
                )
            smooth = SmoothTerm(kind="quadratic", b=smooth_doc["b"])
        box_doc = entry.get("box")
        box = None if box_doc is None else (box_doc["lo"], box_doc["hi"])
        blocks.append(Block(
            E=np.asarray(entry["E"], dtype=float),
            A=None if entry.get("A") is None else
              np.asarray(entry["A"], dtype=float),
            smooth=smooth,
            nonsmooth=term_from_doc(entry["nonsmooth"]),
            box=box,
        ))
    return build_problem(blocks, np.asarray(q, dtype=float))


def save_problem(problem, path):
    """Write the problem as deterministic, indented JSON."""
    with open(path, "w") as fh:
        json.dump(problem_to_doc(problem), fh, indent=2)
        fh.write("\n")


def load_problem(path):
    with open(path) as fh:
        return problem_from_doc(json.load(fh))
