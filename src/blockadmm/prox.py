"""Proximal operators for the nonsmooth terms attached to blocks.

The proximal operator of a closed convex function ``h`` with step ``t > 0``
is

    prox_{t h}(v) = argmin_u  t * h(u) + (1/2) * ||u - v||^2 .

Every term below states its part of one separable form over disjoint
groups J,

    h(x) = <b, x> + sum_i lam_i |x_i| + sum_J w_J ||x_J||_2
           + indicator of {lo <= x <= hi} ,

whose prox shifts by t * b, soft-thresholds at t * lam, clips the
ungrouped coordinates and makes one ``_prox_ball_box`` call on the groups
(exact: no admitted term puts an l1 weight and a finite bound on one
grouped coordinate). A block compiles its term into the form when the
problem is built, and the problem concatenates the block forms, so the
prox, value and domain projection of a whole iterate are one call each.
Every form also carries ``newton``, the safeguarded active-set Newton
kernel that minimizes a convex quadratic plus the form exactly; on a
group it steps with the curvature of w_J ||x_J||_2 at the prox point.

Supported terms
---------------
Zero            h(x) = 0
L1              h(x) = lam * ||x||_1
GroupL2         h(x) = sum_J w_J * ||x_J||_2 over disjoint index groups
SparseGroup     h(x) = lam * ||x||_1 + sum_J w_J * ||x_J||_2
BoxIndicator    h(x) = 0 if lo <= x <= hi else +inf
NonnegIndicator h(x) = 0 if x >= 0 else +inf
Linear          h(x) = <b, x>
Sum             an admitted combination of the above (see class docstring)
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ProxTerm",
    "Zero",
    "L1",
    "GroupL2",
    "SparseGroup",
    "BoxIndicator",
    "NonnegIndicator",
    "Linear",
    "Sum",
    "prox",
    "prox_sparse_group",
    "moreau_value",
    "soft_threshold",
    "group_shrink",
    "term_to_doc",
    "term_from_doc",
    "merge_box",
]


def soft_threshold(v, t):
    """Elementwise soft-thresholding, the prox of t * ||.||_1.

    Returns sign(v) * max(|v| - t, 0), computed as v - clip(v, -t, t):
    exact, and +0 inside the dead zone.
    """
    v = np.asarray(v, dtype=float)
    return v - np.minimum(np.maximum(v, -t), t)


def group_shrink(v, t):
    """Block soft-thresholding, the prox of t * ||.||_2 on a whole vector.

    Returns max(0, 1 - t / ||v||) * v, with the convention 0 when v = 0.
    """
    v = np.asarray(v, dtype=float)
    nrm = float(np.linalg.norm(v))
    if nrm <= t:
        return np.zeros_like(v)
    return (1.0 - t / nrm) * v


def _check_groups(groups, weights):
    """Normalize groups to index arrays and check disjointness."""
    if len(groups) != len(weights):
        raise ValueError(
            "need one weight per group, got %d groups and %d weights"
            % (len(groups), len(weights))
        )
    norm_groups = []
    seen = set()
    for J in groups:
        idx = np.asarray(J, dtype=int)
        if idx.ndim != 1 or idx.size == 0:
            raise ValueError("each group must be a nonempty 1-d index list")
        for i in idx:
            if int(i) in seen:
                raise ValueError("groups must be disjoint; index %d repeated" % i)
            seen.add(int(i))
        norm_groups.append(idx)
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0):
        raise ValueError("group weights must be nonnegative")
    return norm_groups, w


_TINY = np.finfo(float).tiny


def _prox_ball_box(v, wt, lo, hi, starts, gid):
    """Exact prox of sum_J wt_J * ||u_J||_2 + indicator of [lo, hi] at v.

    Coordinates are laid out group by group: group J starts at
    ``starts[J]`` and ``gid`` maps each coordinate to its group. Stage 1,
    vectorised over all groups, takes the group shrinkage
    v_J * max(0, 1 - wt_J / ||v_J||) wherever it lies in the box: a
    feasible unconstrained minimizer is the constrained one. The groups
    left go to :func:`_ball_box_group` in scalar arithmetic: they are few
    and short, and on them NumPy's per-call overhead would cost several
    times the arithmetic.
    """
    nrm = np.sqrt(np.add.reduceat(v * v, starts))
    # max(nrm, wt, tiny) keeps the ratio exact where nrm > wt, equal to 1
    # (the zero shrinkage) where nrm <= wt, and never divides by zero.
    u = v * (1.0 - wt / np.maximum(nrm, np.maximum(wt, _TINY)))[gid]
    inside = (lo <= u) & (u <= hi)
    if np.count_nonzero(inside) == inside.size:
        return u
    left = np.flatnonzero(~np.logical_and.reduceat(inside, starts))
    bounds = starts.tolist() + [v.size]
    v, lo, hi, shrink, wt, nrm = (
        x.tolist() for x in (v, lo, hi, u, wt, nrm))
    for J in left.tolist():
        a, b = bounds[J], bounds[J + 1]
        u[a:b] = _ball_box_group(v[a:b], lo[a:b], hi[a:b], shrink[a:b],
                                 wt[J], nrm[J])
    return u


def _ball_box_group(v, lo, hi, shrink, wt, nrm):
    """Stages 2 and 3 of :func:`_prox_ball_box` for one group (lists)
    whose shrinkage, of norm max(0, nrm - wt), left the box.

    2. u = 0 iff 0 is in the box and the distance from v to the normal
       cone of the box at 0 is at most wt.
    3. Otherwise u = clip(v * s / (s + wt)) with s = ||u|| the single root
       of phi(s) = ||clip(v * s / (s + wt))|| - s on [0, s_hi]:
       s_hi = nrm - wt (the shrinkage norm, which clipping cannot
       lengthen) when 0 is in the box, else nrm + ||clip(0)||. Newton
       steps that leave the bracket fall back to its midpoint.
    """
    if all(l <= 0.0 <= h for l, h in zip(lo, hi)):
        # distance to the normal cone at 0: |v_i| where 0 is inside,
        # max(+-v_i, 0) at a bound 0, nothing where pinned at 0
        dist2 = 0.0
        for x, l, h in zip(v, lo, hi):
            if l == 0.0:
                x = 0.0 if h == 0.0 else max(x, 0.0)
            elif h == 0.0:
                x = min(x, 0.0)
            dist2 += x * x
        if dist2 <= wt * wt:
            return [0.0] * len(v)
        s_hi = nrm - wt
    else:
        s_hi = nrm + math.sqrt(
            sum(min(max(0.0, l), h) ** 2 for l, h in zip(lo, hi)))
    # Newton starts from the norm of the clipped shrinkage, which lies in
    # the bracket and is the root when every coordinate ends up clipped.
    s = math.sqrt(sum(min(max(x, l), h) ** 2
                      for x, l, h in zip(shrink, lo, hi)))
    s_lo = 0.0
    # phi(s_lo) >= 0 >= phi(s_hi) throughout
    for _ in range(200):
        sw = s + wt
        f = s / sw if sw > 0.0 else 1.0
        acc = dacc = 0.0
        for x, l, h in zip(v, lo, hi):
            c = x * f
            if c < l:
                c = l
            elif c > h:
                c = h
            else:
                dacc += c * x
            acc += c * c
        norm_c = math.sqrt(acc)
        phi = norm_c - s
        if phi > 0.0:
            s_lo = s
        else:
            s_hi = s
        if s_hi - s_lo <= 1e-16 * (1.0 + s_hi):
            break
        # d||c||/ds sums over the unclipped coordinates only
        dphi = (dacc * wt / (sw * sw * norm_c) if norm_c > 0.0 and sw > 0.0
                else 0.0) - 1.0
        s_new = s - phi / dphi if dphi != 0.0 else -1.0
        if abs(s_new - s) <= 5e-16 * (1.0 + s) and s_lo <= s_new <= s_hi:
            break
        s = s_new if s_lo < s_new < s_hi else 0.5 * (s_lo + s_hi)
    # s is within the stopping tolerance of the root
    return [min(max(x * f, l), h) for x, l, h in zip(v, lo, hi)]


# Cap on the steps of one ``_Separable.newton`` call; each accepted step
# lowers the residual and visits a new active set, so the cap only bounds
# the work spent before a hand-over.
_NEWTON_MAX_STEPS = 50


def _distance(a, b):
    """||a - b||_2 for flat arrays, in the arithmetic of np.linalg.norm
    (the square root of the dot product) without its overhead."""
    r = a - b
    return math.sqrt(r.dot(r))


def _index(idx):
    """An index array as a slice when it is one contiguous run (basic
    slicing is cheaper than fancy indexing), or None when it is empty."""
    if idx.size == 0:
        return None
    start = int(idx[0])
    if np.array_equal(idx, np.arange(start, start + idx.size)):
        return slice(start, start + idx.size)
    return idx


class ProxTerm:
    """Base class for nonsmooth terms. A subclass states its part of the
    separable form (``_part``); its prox, value and domain projection are
    those of the compiled form."""

    kind = "abstract"

    def _part(self):
        """The keyword arguments of :meth:`_Separable.of` this term sets."""
        raise NotImplementedError

    def _form(self, n):
        """The term compiled on n coordinates."""
        return _Separable.of(n, **self._part())

    def value(self, x):
        return self._form(np.size(x)).value(x)

    def prox(self, v, t):
        return self._form(np.size(v)).prox(v, t)

    def project_domain(self, v):
        """Project v onto the term's domain (identity if real-valued)."""
        return self._form(np.size(v)).project_domain(v)

    def validate_dim(self, n):
        """Raise ValueError if the term is inconsistent with dimension n."""

    def to_doc(self):
        raise NotImplementedError


class _Separable(ProxTerm):
    """The separable form of the module docstring, held as per-coordinate
    arrays b, lam, lo, hi and disjoint index groups with their weights.
    The prox soft-thresholds only where lam_i > 0 and clips only ungrouped
    coordinates with a finite bound; the groups' bounds are gathered once.
    """

    kind = "separable"

    def __init__(self, b, lam, lo, hi, groups, weights):
        self.b, self.lam, self.lo, self.hi = b, lam, lo, hi
        self.groups, self.weights = groups, weights
        order = np.concatenate(groups) if groups else np.zeros(0, dtype=int)
        ungrouped = np.ones(lo.size, dtype=bool)
        ungrouped[order] = False
        l1 = np.flatnonzero(lam > 0.0)
        clip = np.flatnonzero(ungrouped & (np.isfinite(lo) | np.isfinite(hi)))
        sizes = np.array([J.size for J in groups], dtype=int)
        self._shift = b if np.any(b) else None
        # a single l1 weight is kept as a float, which is cheaper to scale
        self._l1, self._lam = _index(l1), lam[l1]
        if l1.size and np.all(self._lam == self._lam[0]):
            self._lam = float(self._lam[0])
        self._clip, self._clip_lo, self._clip_hi = (
            _index(clip), lo[clip], hi[clip])
        self._order, self._group_lo, self._group_hi = (
            _index(order), lo[order], hi[order])
        self._starts = np.cumsum(sizes) - sizes
        self._gid = np.repeat(np.arange(sizes.size), sizes)
        # for the Newton kernel: each coordinate's group (-1: in no group)
        # and the coordinates without an l1 weight
        self._group_of = np.full(lo.size, -1)
        self._group_of[order] = self._gid
        self._lam_zero = lam == 0.0

    @classmethod
    def of(cls, n, b=0.0, lam=0.0, lo=-np.inf, hi=np.inf, groups=(),
           weights=()):
        """The form on n coordinates; scalar parts apply to every one."""
        b, lam, lo, hi = (np.broadcast_to(np.asarray(a, dtype=float), (n,))
                          for a in (b, lam, lo, hi))
        return cls(b, lam, lo, hi, list(groups),
                   np.asarray(weights, dtype=float))

    @classmethod
    def concat(cls, forms):
        """The form of the stacked vector (x_1, ..., x_K)."""
        offsets = np.cumsum([0] + [f.lo.size for f in forms])
        b, lam, lo, hi = (np.concatenate([getattr(f, a) for f in forms])
                          for a in ("b", "lam", "lo", "hi"))
        groups = [J + off for f, off in zip(forms, offsets) for J in f.groups]
        return cls(b, lam, lo, hi, groups,
                   np.concatenate([f.weights for f in forms]))

    def value(self, x):
        x = np.asarray(x, dtype=float)
        if not (np.all(self.lo <= x) and np.all(x <= self.hi)):
            return float("inf")
        val = float(self.b @ x + self.lam @ np.abs(x))
        if self._order is not None:
            xg = x[self._order]
            val += float(self.weights @ np.sqrt(
                np.add.reduceat(xg * xg, self._starts)))
        return val

    def prox(self, v, t):
        u = np.array(v, dtype=float)
        if self._shift is not None:
            u -= t * self._shift
        if self._l1 is not None:
            u[self._l1] = soft_threshold(u[self._l1], t * self._lam)
        if self._clip is not None:
            u[self._clip] = np.minimum(
                np.maximum(u[self._clip], self._clip_lo), self._clip_hi)
        if self._order is not None:
            u[self._order] = _prox_ball_box(
                u[self._order], t * self.weights, self._group_lo,
                self._group_hi, self._starts, self._gid)
        return u

    def project_domain(self, v):
        return np.minimum(np.maximum(np.asarray(v, dtype=float), self.lo),
                          self.hi)

    def newton(self, H, c, u, tol, evaluate, start):
        """Safeguarded active-set Newton for min_u 1/2 u^T H u + c^T u + h(u)
        with H positive semidefinite and h this form.

        The natural residual R(u) = u - prox(u - (H u + c), 1) is
        semismooth (Hintermueller, Ito & Kunisch, SIAM J. Optim. 13, 2002;
        Li, Sun & Toh, SIAM J. Optim. 28, 2018), so one Newton step fixes
        every coordinate the prox zeroes or clamps, and every coordinate
        of a group the prox zeroes, at that value, and solves

            (H_FF + D_FF) u_F = -(c + b + lam * sign)_F - H_FA u_A
                                - (w_J p_J / ||p_J||)_F + D_FF p_F

        on the free set F, where p is the prox point and D is the
        curvature of w_J ||u_J|| at p on each nonzero group J,
        D_J = (w_J / ||p_J||) (I - p_J p_J^T / ||p_J||^2); the new point is
        projected onto the domain. With no free grouped coordinate D
        vanishes, and with no l1 weights, bounds or groups every coordinate
        is free and the first step is the linear solve H u = -(c + b).

        ``evaluate(z)`` is the caller's (v, p) at z, with v = z - (H z + c)
        in the caller's own arithmetic and p = prox(v, 1), and ``start``
        is its value at u. The kernel makes no other prox call: it reads
        the residual ||z - p|| off each evaluation and linearizes the next
        step at the (v, p) it holds, so every point costs one evaluation.
        A step is taken only if the linear residual of its solve is at
        most ``tol`` and the residual falls; a singular or inexact solve,
        a residual that does not fall, the step cap, or (while no grouped
        coordinate is free, the one case where an active set fixes the
        step) a repeated active set ends the loop.
        Returns (point, its residual norm, steps solved, its evaluation):
        the best point seen, which meets ``tol`` or goes to the caller's
        fallback.
        """
        v, p = start
        norm = _distance(u, p)
        seen = set()
        steps = 0
        order = self._order
        while norm > tol and steps < _NEWTON_MAX_STEPS:
            s = np.sign(v if self._shift is None else v - self.b)
            free = (self.lo < p) & (p < self.hi) & ((p != 0.0)
                                                    | self._lam_zero)
            grouped = False
            if order is not None:
                pg = p[order]
                nrm = np.sqrt(np.add.reduceat(pg * pg, self._starts))
                free[order] &= (nrm > 0.0)[self._gid]
                grouped = bool(free[order].any())
            if not grouped:
                key = free.tobytes() + np.where(free, s, p).tobytes()
                if key in seen:
                    break
                seen.add(key)
            F = free.nonzero()[0]
            u_new = np.where(free, 0.0, p)
            if F.size:
                rhs = -(c[F] + self.b[F] + self.lam[F] * s[F]
                        + H[F] @ u_new)
                M = H[F[:, None], F]
                if grouped:
                    # D_J = a_J (I - r_J r_J^T) with a_J = w_J / ||p_J||
                    # and r_J = p_J / ||p_J||, on the free coordinates
                    gF = self._group_of[F]
                    inF = gF >= 0
                    nF = np.where(inF, nrm[gF], 1.0)
                    aF = np.where(inF, self.weights[gF] / nF, 0.0)
                    rF = np.where(inF, p[F] / nF, 0.0)
                    same = (gF[:, None] == gF) & inF[:, None]
                    D = np.diag(aF)
                    D -= same * ((aF * rF)[:, None] * rF)
                    M = M + D
                    rhs += D @ p[F] - aF * p[F]
                try:
                    u_F = np.linalg.solve(M, rhs)
                except np.linalg.LinAlgError:
                    break
                if not _distance(M @ u_F, rhs) <= tol:
                    break
                u_new[F] = u_F
                u_new = self.project_domain(u_new)
            steps += 1
            v_new, p_new = evaluate(u_new)
            norm_new = _distance(u_new, p_new)
            if not norm_new < norm:
                break
            u, norm, v, p = u_new, norm_new, v_new, p_new
        return u, norm, steps, (v, p)


class Zero(ProxTerm):
    """The identically-zero term; its prox is the identity."""

    kind = "zero"

    def _part(self):
        return {}

    def to_doc(self):
        return {"type": "zero"}


class L1(ProxTerm):
    """h(x) = lam * ||x||_1 with prox the soft threshold at t * lam."""

    kind = "l1"

    def __init__(self, lam):
        lam = float(lam)
        if lam < 0:
            raise ValueError("l1 weight must be nonnegative, got %g" % lam)
        self.lam = lam

    def _part(self):
        return {"lam": self.lam}

    def to_doc(self):
        return {"type": "l1", "lam": self.lam}


class GroupL2(ProxTerm):
    """h(x) = sum_J w_J * ||x_J||_2 over disjoint groups.

    Coordinates not covered by any group are unpenalized. The prox acts
    groupwise by block soft-thresholding; groups with ||v_J|| <= t * w_J
    map to exactly zero.
    """

    kind = "group_l2"

    def __init__(self, groups, weights):
        self.groups, self.weights = _check_groups(groups, weights)

    def _part(self):
        return {"groups": self.groups, "weights": self.weights}

    def validate_dim(self, n):
        for J in self.groups:
            if np.any(J < 0) or np.any(J >= n):
                raise ValueError(
                    "group index out of range for dimension %d" % n
                )

    def to_doc(self):
        return {
            "type": "group_l2",
            "groups": [[int(i) for i in J] for J in self.groups],
            "weights": [float(w) for w in self.weights],
        }


class SparseGroup(GroupL2):
    """h(x) = lam * ||x||_1 + sum_J w_J * ||x_J||_2.

    The prox composes the two shrinkages: soft-threshold every coordinate
    at t * lam, then block soft-threshold each group at t * w_J. For
    disjoint groups this composition is the exact proximal map.
    """

    kind = "sparse_group"

    def __init__(self, lam, groups, weights):
        lam = float(lam)
        if lam < 0:
            raise ValueError("l1 weight must be nonnegative, got %g" % lam)
        self.lam = lam
        super().__init__(groups, weights)

    def _part(self):
        return {"lam": self.lam, **super()._part()}

    def to_doc(self):
        doc = super().to_doc()
        return {"type": self.kind, "lam": self.lam, "groups": doc["groups"],
                "weights": doc["weights"]}


class BoxIndicator(ProxTerm):
    """Indicator of the box {x : lo <= x <= hi}; prox is the clamp."""

    kind = "box"

    def __init__(self, lo, hi):
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if lo.shape != hi.shape:
            raise ValueError("box bounds must have matching shapes")
        if np.any(lo > hi):
            raise ValueError("empty box: some lo exceeds hi")
        self.lo = lo
        self.hi = hi

    def _part(self):
        return {"lo": self.lo, "hi": self.hi}

    def validate_dim(self, n):
        if self.lo.size != n:
            raise ValueError(
                "box bounds have length %d, block has dimension %d"
                % (self.lo.size, n)
            )

    def to_doc(self):
        return {
            "type": "box",
            "lo": [float(a) for a in self.lo],
            "hi": [float(b) for b in self.hi],
        }


class NonnegIndicator(ProxTerm):
    """Indicator of the nonnegative orthant; prox is max(v, 0)."""

    kind = "nonneg"

    def _part(self):
        return {"lo": 0.0}

    def to_doc(self):
        return {"type": "nonneg"}


class Linear(ProxTerm):
    """h(x) = <b, x>, with prox_{t h}(v) = v - t * b."""

    kind = "linear"

    def __init__(self, b):
        self.b = np.atleast_1d(np.asarray(b, dtype=float))

    def _part(self):
        return {"b": self.b}

    def validate_dim(self, n):
        if self.b.size != n:
            raise ValueError(
                "linear term has length %d, block has dimension %d"
                % (self.b.size, n)
            )

    def to_doc(self):
        return {"type": "linear", "b": [float(a) for a in self.b]}


# Combinations of terms whose sum still has an exactly computable prox.
# Key: frozenset of the two kinds involved.
_SUM_RULES = {
    frozenset(("box", "l1")),
    frozenset(("box", "group_l2")),
}


class Sum(ProxTerm):
    """Sum of two terms whose joint prox is still exact.

    Admitted combinations:

    * ``Linear`` plus any single non-sum term: the linear part shifts the
      argument, prox_{t(h + <b,.>)}(v) = prox_{t h}(v - t b).
    * ``BoxIndicator`` plus ``L1``: clamp the soft threshold. Each
      coordinate problem is one-dimensional and convex, so clamping the
      unconstrained minimizer into the interval is exact.
    * ``BoxIndicator`` plus ``GroupL2``: the ball-box prox of each group
      (``_prox_ball_box``); coordinates no group covers are clipped.

    Any other combination is rejected at construction; the two terms of
    an admitted one set disjoint parts of the separable form.
    """

    kind = "sum"

    def __init__(self, terms):
        terms = list(terms)
        if len(terms) != 2:
            raise ValueError("Sum supports exactly two terms")
        kinds = [t.kind for t in terms]
        if "sum" in kinds:
            raise ValueError("nested sums of terms are not supported")
        if "linear" in kinds:
            terms.sort(key=lambda t: t.kind != "linear")
            if terms[1].kind == "linear":
                raise ValueError("sum of two linear terms; merge them instead")
        elif frozenset(kinds) in _SUM_RULES:
            terms.sort(key=lambda t: t.kind != "box")
        else:
            raise ValueError(
                "no exact prox for the combination %s + %s"
                % (kinds[0], kinds[1])
            )
        self.terms = terms

    def _part(self):
        return dict(**self.terms[0]._part(), **self.terms[1]._part())

    def validate_dim(self, n):
        for t in self.terms:
            t.validate_dim(n)

    def to_doc(self):
        raise ValueError(
            "sum terms are built from a declared term plus box bounds and "
            "are not serialized directly"
        )


def prox(term, v, t):
    """Evaluate prox_{t * term}(v).

    Parameters
    ----------
    term : ProxTerm
    v : array_like
    t : float, must be positive.
    """
    if t <= 0:
        raise ValueError("prox step must be positive, got %g" % t)
    v = np.atleast_1d(np.asarray(v, dtype=float))
    term.validate_dim(v.size)
    return term.prox(v, t)


def prox_sparse_group(v, lam, groups, weights, t):
    """Prox of t * (lam * ||.||_1 + sum_J w_J ||._J||_2) at v."""
    return prox(SparseGroup(lam, groups, weights), v, t)


def moreau_value(term, v, t):
    """Moreau envelope value: t * h(p) + (1/2) * ||v - p||^2 at p = prox."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    p = prox(term, v, t)
    return t * term.value(p) + 0.5 * float(np.dot(v - p, v - p))


def merge_box(term, lo, hi):
    """Fold box bounds into a nonsmooth term, returning an exact-prox term.

    Used when building problems: declared box constraints become part of
    the block's nonsmooth term. A box or nonneg term is intersected with
    the box; any other term is summed with it, and ``Sum`` rejects the
    combinations without an exact joint prox.
    """
    box = BoxIndicator(lo, hi)
    if term.kind == "zero":
        return box
    if term.kind in ("box", "nonneg"):
        part = term._part()
        return BoxIndicator(np.maximum(box.lo, part["lo"]),
                            np.minimum(box.hi, part.get("hi", np.inf)))
    return Sum([box, term])


_TERM_TYPES = {
    "zero": Zero,
    "l1": L1,
    "group_l2": GroupL2,
    "sparse_group": SparseGroup,
    "box": BoxIndicator,
    "nonneg": NonnegIndicator,
    "linear": Linear,
}


def term_to_doc(term):
    """JSON-ready dict for a term (sums are not serializable)."""
    return term.to_doc()


def term_from_doc(doc):
    """Rebuild a term from its JSON dict form, whose fields besides
    "type" are the constructor's arguments."""
    kind = doc.get("type")
    if kind not in _TERM_TYPES:
        raise ValueError("unknown nonsmooth term type %r" % kind)
    try:
        return _TERM_TYPES[kind](**{k: v for k, v in doc.items()
                                    if k != "type"})
    except TypeError as e:
        raise ValueError("bad %s term: %s" % (kind, e)) from None
