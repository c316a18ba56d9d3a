"""Proximal operators for the nonsmooth terms attached to blocks.

The proximal operator of a closed convex function ``h`` with step ``t > 0``
is

    prox_{t h}(v) = argmin_u  t * h(u) + (1/2) * ||u - v||^2 .

Every prox here is exact: a closed form, except for the groups of a
group-l2-in-a-box term whose shrinkage leaves the box, which take a
one-dimensional root-find (``_prox_ball_box``).

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

    Returns sign(v) * max(|v| - t, 0).
    """
    v = np.asarray(v, dtype=float)
    return np.maximum(0.0, v - t) + np.minimum(0.0, v + t)


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


def _group_layout(box, group_l2):
    """(order, inverse, starts, gid, weights, lo, hi) for
    :func:`_prox_ball_box`: the coordinates group by group, then each
    uncovered one as a singleton group of weight 0, whose prox is the clip.
    """
    n = box.lo.size
    group_l2.validate_dim(n)
    groups = group_l2.groups
    covered = np.array([i for J in groups for i in J], dtype=int)
    uncovered = np.flatnonzero(np.bincount(covered, minlength=n) == 0)
    order = np.concatenate([covered, uncovered])
    sizes = np.array([J.size for J in groups] + [1] * uncovered.size)
    return (
        order,
        np.argsort(order),
        np.cumsum(sizes) - sizes,
        np.repeat(np.arange(sizes.size), sizes),
        np.concatenate([group_l2.weights, np.zeros(uncovered.size)]),
        box.lo[order],
        box.hi[order],
    )


class ProxTerm:
    """Base class for nonsmooth terms; subclasses define value and prox."""

    kind = "abstract"

    def value(self, x):
        raise NotImplementedError

    def prox(self, v, t):
        raise NotImplementedError

    def project_domain(self, v):
        """Project v onto the effective domain of the term (identity for
        real-valued terms)."""
        return np.asarray(v, dtype=float).copy()

    def validate_dim(self, n):
        """Raise ValueError if the term is inconsistent with dimension n."""

    def to_doc(self):
        raise NotImplementedError


class Zero(ProxTerm):
    """The identically-zero term; its prox is the identity."""

    kind = "zero"

    def value(self, x):
        return 0.0

    def prox(self, v, t):
        return np.asarray(v, dtype=float).copy()

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

    def value(self, x):
        return self.lam * float(np.sum(np.abs(x)))

    def prox(self, v, t):
        return soft_threshold(v, t * self.lam)

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

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return float(
            sum(
                w * np.linalg.norm(x[J])
                for J, w in zip(self.groups, self.weights)
            )
        )

    def prox(self, v, t):
        out = np.asarray(v, dtype=float).copy()
        for J, w in zip(self.groups, self.weights):
            out[J] = group_shrink(out[J], t * w)
        return out

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


class SparseGroup(ProxTerm):
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
        self.groups, self.weights = _check_groups(groups, weights)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        val = self.lam * float(np.sum(np.abs(x)))
        for J, w in zip(self.groups, self.weights):
            val += w * float(np.linalg.norm(x[J]))
        return val

    def prox(self, v, t):
        out = soft_threshold(v, t * self.lam)
        for J, w in zip(self.groups, self.weights):
            out[J] = group_shrink(out[J], t * w)
        return out

    def validate_dim(self, n):
        for J in self.groups:
            if np.any(J < 0) or np.any(J >= n):
                raise ValueError(
                    "group index out of range for dimension %d" % n
                )

    def to_doc(self):
        return {
            "type": "sparse_group",
            "lam": self.lam,
            "groups": [[int(i) for i in J] for J in self.groups],
            "weights": [float(w) for w in self.weights],
        }


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

    def value(self, x):
        x = np.asarray(x, dtype=float)
        if np.all(x >= self.lo) and np.all(x <= self.hi):
            return 0.0
        return float("inf")

    def prox(self, v, t):
        return np.clip(np.asarray(v, dtype=float), self.lo, self.hi)

    def project_domain(self, v):
        return self.prox(v, 1.0)

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

    def value(self, x):
        if np.all(np.asarray(x, dtype=float) >= 0.0):
            return 0.0
        return float("inf")

    def prox(self, v, t):
        return np.maximum(np.asarray(v, dtype=float), 0.0)

    def project_domain(self, v):
        return self.prox(v, 1.0)

    def to_doc(self):
        return {"type": "nonneg"}


class Linear(ProxTerm):
    """h(x) = <b, x>, with prox_{t h}(v) = v - t * b."""

    kind = "linear"

    def __init__(self, b):
        self.b = np.atleast_1d(np.asarray(b, dtype=float))

    def value(self, x):
        return float(np.dot(self.b, np.asarray(x, dtype=float)))

    def prox(self, v, t):
        return np.asarray(v, dtype=float) - t * self.b

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
    * ``BoxIndicator`` plus ``GroupL2``: one ``_prox_ball_box`` call for
      all groups: the group shrinkage where it lies in the box, else a
      zero test, else a safeguarded Newton root-find on the shrinkage
      scale. Coordinates no group covers are clipped.

    Any other combination is rejected at construction.
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
        if terms[0].kind == "box" and terms[1].kind == "group_l2":
            self._layout = _group_layout(*terms)

    def value(self, x):
        return sum(t.value(x) for t in self.terms)

    def prox(self, v, t):
        first, second = self.terms
        v = np.asarray(v, dtype=float)
        if first.kind == "linear":
            return second.prox(v - t * first.b, t)
        # first is the box
        if second.kind == "l1":
            return np.clip(second.prox(v, t), first.lo, first.hi)
        # group_l2: one kernel call over every group, in group order
        order, inverse, starts, gid, weights, lo, hi = self._layout
        return _prox_ball_box(v[order], t * weights, lo, hi, starts,
                              gid)[inverse]

    def project_domain(self, v):
        out = np.asarray(v, dtype=float).copy()
        for t in self.terms:
            out = t.project_domain(out)
        return out

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
    the block's nonsmooth term. Combinations without an exact joint prox
    are rejected.
    """
    box = BoxIndicator(lo, hi)
    kind = term.kind
    if kind == "zero":
        return box
    if kind == "box":
        new_lo = np.maximum(box.lo, term.lo)
        new_hi = np.minimum(box.hi, term.hi)
        return BoxIndicator(new_lo, new_hi)
    if kind == "nonneg":
        new_lo = np.maximum(box.lo, 0.0)
        return BoxIndicator(new_lo, box.hi)
    if kind in ("l1", "group_l2"):
        return Sum([box, term])
    if kind == "linear":
        return Sum([term, box])
    raise ValueError(
        "cannot combine box bounds with a %r term and keep an exact prox"
        % kind
    )


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
    """Rebuild a term from its JSON dict form."""
    kind = doc.get("type")
    if kind not in _TERM_TYPES:
        raise ValueError("unknown nonsmooth term type %r" % kind)
    if kind == "zero":
        return Zero()
    if kind == "l1":
        return L1(doc["lam"])
    if kind == "group_l2":
        return GroupL2(doc["groups"], doc["weights"])
    if kind == "sparse_group":
        return SparseGroup(doc["lam"], doc["groups"], doc["weights"])
    if kind == "box":
        return BoxIndicator(doc["lo"], doc["hi"])
    if kind == "nonneg":
        return NonnegIndicator()
    return Linear(doc["b"])
