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
(exact: :meth:`_Separable.of`, where every form is compiled, rejects a
grouped coordinate with both an l1 weight and a finite bound). Terms add
as functions do: shifts and l1 weights add, bounds intersect and groups
join. A block compiles its term into the form when the problem is
built, and the problem concatenates the block forms, so the
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
Sum             h(x) = sum of its terms, compiled into one form
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
    "soft_threshold",
    "group_shrink",
    "term_from_doc",
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
    """Normalize groups to disjoint integer index arrays (across terms,
    ``_Separable.of`` checks); one finite nonnegative weight per group."""
    weights = _values(weights, "group weights", nonnegative=True)
    if len(groups) != weights.size:
        raise ValueError(
            "need one weight per group, got %d groups and %d weights"
            % (len(groups), weights.size)
        )
    norm_groups = [np.asarray(J) for J in groups]
    for j, J in enumerate(norm_groups):
        if not (J.ndim == 1 and J.size and J.dtype.kind in "iu"):
            raise ValueError("groups must be nonempty 1-d lists of integer "
                             "indices; group %d is %r" % (j, groups[j]))
    index, count = np.unique(np.concatenate(norm_groups or [[]]),
                             return_counts=True)
    if (count > 1).any():
        raise ValueError("groups must be disjoint; index %d repeated"
                         % index[count > 1][0])
    return [J.astype(int) for J in norm_groups], weights


_TINY = np.finfo(float).tiny

# per coordinate part: how two terms' parts add, and its value in no term
_PARTS = {"b": (np.add, 0.0), "lam": (np.add, 0.0),
          "lo": (np.maximum, -np.inf), "hi": (np.minimum, np.inf)}


def _prox_ball_box(v, wt, floor, lo, hi, starts, gid):
    """Exact prox of sum_J wt_J * ||u_J||_2 + indicator of [lo, hi] at v,
    with ``floor`` = max(wt, tiny).

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
    u = v * (1.0 - wt / np.maximum(nrm, floor))[gid]
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


def _setting(value, name, nonnegative=False):
    """``value`` as a finite float above zero (or at least zero), else a
    ValueError naming it: the one rule for every numeric setting."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = float("nan")
    if not (math.isfinite(number)
            and (number >= 0 if nonnegative else number > 0)):
        raise ValueError("%s must be %s and finite, got %r" % (
            name, "nonnegative" if nonnegative else "positive", value))
    return number


def _vector(value, n, name):
    """``value`` as a float array of shape (n,), else a ValueError naming
    it and both shapes: the one check of every iterate argument."""
    v = np.asarray(value, dtype=float)
    if v.shape != (n,):
        raise ValueError("%s has shape %s, expected (%d,)"
                         % (name, v.shape, n))
    return v


def _values(value, name, nonnegative=False):
    """``value`` as a new 1-d array of finite floats, at least zero when
    ``nonnegative`` is set, else a ValueError naming it: the one rule for
    the numbers a term, a quadratic target and q hold."""
    try:
        v = np.array(value, dtype=float, ndmin=1)
    except (TypeError, ValueError):
        v = np.full((1, 1), np.nan)
    ok = np.isfinite(v) & ((v >= 0.0) | (not nonnegative))
    if v.ndim != 1 or not ok.all():
        raise ValueError("%s must be a 1-d list of %s numbers, got %r" % (
            name, "finite nonnegative" if nonnegative else "finite", value))
    return v


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
    separable form (``_part``); its prox and value are those of the
    compiled form, which checks the parts (``_Separable.of``)."""

    kind = "abstract"

    def _part(self):
        """The keyword arguments of :meth:`_Separable.of` this term sets."""
        raise NotImplementedError

    def _parts(self):
        """The parts of the terms this term adds up."""
        return [self._part()]

    def _form(self, n):
        """The term compiled on n coordinates."""
        return _Separable.of(n, *self._parts())

    def value(self, x):
        return self._form(np.size(x)).value(x)

    def prox(self, v, t):
        return self._form(np.size(v)).prox(v, t)

    def to_doc(self):
        """JSON-ready dict: the type, then the fields of ``_part``, which
        are the constructor's arguments; arrays become float lists and
        groups lists of ints."""
        return {"type": self.kind,
                **{k: [J.tolist() for J in v] if k == "groups"
                   else np.asarray(v).tolist()
                   for k, v in self._part().items()}}


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
        # the group weights' floor at the inner solve's prox step t = 1
        self._weight_floor = np.maximum(weights, _TINY)
        # without a finite bound the Newton kernel skips its bound test
        # and its clip, which change no finite point
        self._bounded = bool(np.isfinite(lo).any() or np.isfinite(hi).any())
        # every coordinate in a group, in order, and no shift or l1 weight:
        # the prox is one ball-box call on v itself
        self._groups_only = (bool(groups) and self._shift is None
                             and self._l1 is None
                             and np.array_equal(order, np.arange(lo.size)))
        # for the Newton kernel: the coordinates without an l1 weight and,
        # with groups, each coordinate's group (-1: in no group) and its
        # group's weight negated (-0 in no group)
        self._lam_zero = lam == 0.0
        if groups:
            self._group_of = np.full(lo.size, -1)
            self._group_of[order] = self._gid
            self._neg_weight = -np.append(weights, 0.0)[self._group_of]

    @classmethod
    def of(cls, n, *parts, **one):
        """The form on n coordinates of the sum of terms with these parts
        (dicts of optional b, lam, lo, hi, groups and weights, the keywords
        one more; a scalar fills every coordinate). The one check of a
        form: array parts have length n, groups are disjoint in [0, n),
        bounds hold a point, and no grouped coordinate has an l1 weight
        and a finite bound."""
        arrays, groups, weights = {}, [], []
        for part in parts + (one,):
            groups += part.get("groups", [])
            weights += list(part.get("weights", []))
            for name in _PARTS:
                if name in part:
                    a = np.asarray(part[name], dtype=float)
                    if a.ndim and a.shape != (n,):
                        raise ValueError(
                            "term part %s has shape %s, expected (%d,)"
                            % (name, a.shape, n))
                    # (a, earlier): a tie of bounds keeps the earlier zero
                    arrays[name] = (_PARTS[name][0](a, arrays[name])
                                    if name in arrays else a)
        b, lam, lo, hi = (np.broadcast_to(arrays.get(name, none), (n,))
                          for name, (_, none) in _PARTS.items())
        if not (lo <= hi).all():
            raise ValueError("the bounds hold no point at index %d"
                             % np.argmin(lo <= hi))
        if groups:
            order = np.concatenate(groups)
            if order.min() < 0 or order.max() >= n:
                raise ValueError(
                    "term part groups has an index outside [0, %d)" % n)
            count = np.bincount(order)
            if count.max() > 1:
                raise ValueError("groups must be disjoint; index %d repeated"
                                 % count.argmax())
            both = order[(lam[order] > 0.0)
                         & (np.isfinite(lo[order]) | np.isfinite(hi[order]))]
            if both.size:
                raise ValueError(
                    "no exact prox: index %d is in a group and has both an "
                    "l1 weight and a finite bound" % both[0])
        return cls(b, lam, lo, hi, groups, np.asarray(weights, dtype=float))

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
        if np.count_nonzero((self.lo <= x) & (x <= self.hi)) < x.size:
            return float("inf")
        val = 0.0
        if self._l1 is not None:
            val = float(self.lam @ np.abs(x))
        if self._shift is not None:
            val += float(self.b @ x)
        if self._order is not None:
            xg = x[self._order]
            val += float(self.weights @ np.sqrt(
                np.add.reduceat(xg * xg, self._starts)))
        return val

    def prox(self, v, t):
        if self._order is not None:
            if t == 1.0:
                wt, floor = self.weights, self._weight_floor
            else:
                wt = t * self.weights
                floor = np.maximum(wt, _TINY)
            if self._groups_only:
                # stage 1 of the ball-box prox writes a new vector
                return _prox_ball_box(np.asarray(v, dtype=float), wt, floor,
                                      self.lo, self.hi, self._starts,
                                      self._gid)
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
                u[self._order], wt, floor, self._group_lo, self._group_hi,
                self._starts, self._gid)
        return u

    def project_domain(self, v):
        return np.minimum(np.maximum(np.asarray(v, dtype=float), self.lo),
                          self.hi)

    def newton(self, H, c, u, tol, evaluate, start, inverses=None):
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
        a residual that does not fall or the step cap ends the loop. (A
        repeated active set rebuilds an earlier, worse point, so the
        residual test ends the loop there too.)

        A step solves by LU, except on a group-free form given
        ``inverses``: a one-entry list the caller keeps with H, holding
        (free mask bytes, H_F, H_FF, inverse of H_FF or None) of the last
        free set. There the step's matrix is H_FF alone, and u_F is the
        inverse times the right-hand side; the entry is replaced when the
        free set changes. The inverse serves new and kept free sets alike,
        so a step's bits depend on H, F and the right-hand side only, never
        on earlier calls; a singular inverse, or one whose solve misses
        ``tol``, falls back to the LU solve.
        Returns (point, its residual norm, steps solved): the best point
        seen, which meets ``tol`` or goes to the caller's fallback.
        """
        v, p = start
        norm = _distance(u, p)
        steps = 0
        lo, hi, order = self.lo, self.hi, self._order
        n = lo.size
        cb = c if self._shift is None else c + self.b
        if order is not None:
            # the group norms and a trailing 1, which ``_group_of`` = -1
            # reads for an ungrouped coordinate: no division meets a zero
            nrm_ext = np.empty(self.weights.size + 1)
            nrm_ext[-1] = 1.0
            nrm = nrm_ext[:-1]
        memo = inverses if order is None else None
        inv = None
        while norm > tol and steps < _NEWTON_MAX_STEPS:
            free = ((lo < p) & (p < hi) if self._bounded
                    else np.ones(n, dtype=bool))
            g = cb
            if self._l1 is not None:
                free &= (p != 0.0) | self._lam_zero
                g = g + self.lam * np.sign(
                    v if self._shift is None else v - self.b)
            if order is not None:
                pg = p[order]
                np.sqrt(np.add.reduceat(pg * pg, self._starts), out=nrm)
                nrm_of = nrm_ext[self._group_of]
                free &= nrm_of > 0.0
            F = free.nonzero()[0]
            u_new = p
            if F.size:
                # every coordinate free: views instead of copies, and no
                # fixed coordinate moves to the right-hand side
                whole = F.size == n
                if whole:
                    F = slice(None)
                else:
                    u_new = np.where(free, 0.0, p)
                # the entry is read once, so a caller on another thread
                # can only replace it whole
                entry = key = None
                if memo is not None:
                    entry, key = memo[0], free.tobytes()
                if entry is not None and entry[0] == key:
                    _, HF, M, inv = entry
                else:
                    HF = H[F]
                    M = HF[:, F]
                    if memo is not None:
                        try:
                            inv = np.linalg.inv(M)
                        except np.linalg.LinAlgError:
                            inv = None
                        memo[0] = (key, HF, M, inv)
                rhs = -g if whole else -(g[F] + HF.dot(u_new))
                if order is not None:
                    # D_J = a_J (I - r_J r_J^T) on F, naF = -a_J (-0 in no
                    # group), r_J = p_J / ||p_J||; no mask if one group is all
                    nF, pF, gF = nrm_of[F], p[F], self._group_of[F]
                    naF, rF = self._neg_weight[F] / nF, pF / nF
                    D = np.multiply.outer(naF * rF, rF)
                    if self._starts.size > 1 or self._gid.size < n:
                        D *= gF[:, None] == gF
                    D.reshape(-1)[::naF.size + 1] -= naF
                    M = M + D
                    rhs += D.dot(pF) + naF * pF
                u_F = None if inv is None else inv.dot(rhs)
                if u_F is None or not _distance(M.dot(u_F), rhs) <= tol:
                    # no inverse, or a singular or inexact one: LU
                    try:
                        u_F = np.linalg.solve(M, rhs)
                    except np.linalg.LinAlgError:
                        break
                    if not _distance(M.dot(u_F), rhs) <= tol:
                        break
                if whole:
                    u_new = u_F
                else:
                    u_new[F] = u_F
                if self._bounded:
                    u_new = np.minimum(np.maximum(u_new, lo), hi)
            steps += 1
            v_new, p_new = evaluate(u_new)
            norm_new = _distance(u_new, p_new)
            if not norm_new < norm:
                break
            u, norm, v, p = u_new, norm_new, v_new, p_new
        return u, norm, steps


class Zero(ProxTerm):
    """The identically-zero term; its prox is the identity."""

    kind = "zero"

    def _part(self):
        return {}


class L1(ProxTerm):
    """h(x) = lam * ||x||_1 with prox the soft threshold at t * lam."""

    kind = "l1"

    def __init__(self, lam):
        self.lam = _setting(lam, "l1 weight lam", nonnegative=True)

    def _part(self):
        return {"lam": self.lam}


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


class SparseGroup(GroupL2):
    """h(x) = lam * ||x||_1 + sum_J w_J * ||x_J||_2.

    The prox composes the two shrinkages: soft-threshold every coordinate
    at t * lam, then block soft-threshold each group at t * w_J. For
    disjoint groups this composition is the exact proximal map.
    """

    kind = "sparse_group"

    def __init__(self, lam, groups, weights):
        self.lam = _setting(lam, "l1 weight lam", nonnegative=True)
        super().__init__(groups, weights)

    def _part(self):
        return {"lam": self.lam, **super()._part()}


class BoxIndicator(ProxTerm):
    """Indicator of the box {x : lo <= x <= hi}; prox is the clamp."""

    kind = "box"

    def __init__(self, lo, hi):
        lo = np.array(lo, dtype=float, ndmin=1)
        hi = np.array(hi, dtype=float, ndmin=1)
        if lo.shape != hi.shape:
            raise ValueError("box bounds must have matching shapes")
        # NaN fails every comparison; lo = +inf or hi = -inf holds no point
        if not ((lo <= hi) & (lo < np.inf) & (hi > -np.inf)).all():
            raise ValueError("box bounds need lo <= hi, lo < inf and hi > "
                             "-inf, got lo=%s, hi=%s" % (lo, hi))
        self.lo = lo
        self.hi = hi

    def _part(self):
        return {"lo": self.lo, "hi": self.hi}


class NonnegIndicator(ProxTerm):
    """Indicator of the nonnegative orthant; prox is max(v, 0)."""

    kind = "nonneg"

    def _part(self):
        return {"lo": 0.0}

    def to_doc(self):
        # lo = 0 is the term itself, not a constructor argument
        return {"type": "nonneg"}


class Linear(ProxTerm):
    """h(x) = <b, x>, with prox_{t h}(v) = v - t * b."""

    kind = "linear"

    def __init__(self, b):
        self.b = _values(b, "linear term b")

    def _part(self):
        return {"b": self.b}


class Sum(ProxTerm):
    """h(x) = the sum of the terms, which may be sums themselves: their
    parts add, and the compiled form rejects a sum without an exact prox."""

    kind = "sum"

    def __init__(self, terms):
        self.terms = list(terms)
        if not self.terms:
            raise ValueError("Sum needs at least one term")
        for term in self.terms:
            if not isinstance(term, ProxTerm):
                raise ValueError("Sum terms must be ProxTerms, got %r"
                                 % (term,))

    def _parts(self):
        return [part for term in self.terms for part in term._parts()]

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
    t : float, positive and finite.
    """
    t = _setting(t, "prox step t")
    return term.prox(np.atleast_1d(np.asarray(v, dtype=float)), t)


_TERM_TYPES = {
    "zero": Zero,
    "l1": L1,
    "group_l2": GroupL2,
    "sparse_group": SparseGroup,
    "box": BoxIndicator,
    "nonneg": NonnegIndicator,
    "linear": Linear,
}


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
