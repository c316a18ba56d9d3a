"""Proximal operators against brute-force grid oracles and known values."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from blockadmm.generators import gen_group_l2
from blockadmm.prox import (
    L1,
    BoxIndicator,
    GroupL2,
    Linear,
    NonnegIndicator,
    ProxTerm,
    SparseGroup,
    Sum,
    Zero,
    group_shrink,
    prox,
    soft_threshold,
    term_from_doc,
)

from oracles import bisection_ball_box_prox, grid_prox_1d, grid_prox_2d


# ---------------------------------------------------------------------------
# frozen scalar values
# ---------------------------------------------------------------------------

def _moreau_value(term, v, t):
    """Moreau envelope value t * h(p) + (1/2) * ||v - p||^2 at p = prox."""
    p = prox(term, v, t)
    return t * term.value(p) + 0.5 * float(np.dot(v - p, v - p))


def test_l1_prox_known_values():
    assert prox(L1(1.0), np.array([3.0]), 1.0)[0] == 2.0
    assert prox(L1(1.0), np.array([0.0]), 1.0)[0] == 0.0
    assert prox(L1(1.0), np.array([-3.0]), 1.0)[0] == -2.0
    # inside the dead zone
    assert prox(L1(2.0), np.array([1.5]), 1.0)[0] == 0.0
    # moreau envelope at v=3, t=1: |2| + (3-2)^2/2 = 2.5
    assert _moreau_value(L1(1.0), np.array([3.0]), 1.0) == 2.5


def test_group_l2_prox_known_values():
    term = GroupL2([[0, 1]], [1.0])
    p = prox(term, np.array([3.0, 4.0]), 1.0)
    err = np.linalg.norm(p - np.array([2.4, 3.2]))
    assert err < 1e-12
    # at or below the threshold the group maps to exactly zero
    p = prox(term, np.array([0.6, 0.8]), 1.0)
    assert p[0] == 0.0 and p[1] == 0.0
    p = prox(term, np.array([0.3, 0.4]), 1.0)
    assert p[0] == 0.0 and p[1] == 0.0


def test_sparse_group_prox_known_value():
    # soft((3,4), 1) = (2,3), norm sqrt(13), shrink by (1 - 1/sqrt(13))
    expected = np.array([2.0 - 2.0 / np.sqrt(13.0),
                         3.0 - 3.0 / np.sqrt(13.0)])
    p = prox(SparseGroup(1.0, [[0, 1]], [1.0]), np.array([3.0, 4.0]), 1.0)
    err = np.linalg.norm(p - expected)
    assert err < 1e-12


def test_box_nonneg_linear_known_values():
    box = BoxIndicator(-np.ones(3), np.ones(3))
    p = prox(box, np.array([2.0, -3.0, 0.5]), 1.0)
    assert np.array_equal(p, np.array([1.0, -1.0, 0.5]))
    p = prox(NonnegIndicator(), np.array([-2.0, 3.0]), 5.0)
    assert np.array_equal(p, np.array([0.0, 3.0]))
    p = prox(Linear(np.array([2.0, -1.0])), np.array([1.0, 1.0]), 0.5)
    assert np.array_equal(p, np.array([0.0, 1.5]))


def test_moreau_values():
    assert _moreau_value(Zero(), np.array([5.0, -1.0]), 2.0) == 0.0
    box = BoxIndicator(-np.ones(2), np.ones(2))
    assert _moreau_value(box, np.array([0.5, -0.5]), 1.0) == 0.0
    # outside the box the value is the squared projection distance / 2
    assert _moreau_value(box, np.array([3.0, 0.0]), 1.0) == 2.0


def test_zero_prox_is_identity():
    rng = np.random.default_rng(0)
    for _ in range(20):
        v = rng.standard_normal(4) * 3
        assert np.array_equal(prox(Zero(), v, 0.7), v)


# ---------------------------------------------------------------------------
# grid-oracle agreement, one-dimensional terms
# ---------------------------------------------------------------------------

def test_l1_prox_matches_grid():
    rng = np.random.default_rng(1)
    tol = 1e-4
    for _ in range(60):
        v = float(rng.normal(scale=2.0))
        t = float(rng.uniform(0.05, 2.0))
        lam = float(rng.uniform(0.0, 2.0))
        ref = grid_prox_1d(lambda u: lam * np.abs(u), v, t,
                           min(0.0, v) - 0.1, max(0.0, v) + 0.1)
        got = prox(L1(lam), np.array([v]), t)[0]
        assert abs(got - ref) < tol


def test_linear_prox_matches_grid():
    rng = np.random.default_rng(2)
    tol = 1e-4
    for _ in range(60):
        v = float(rng.normal(scale=2.0))
        t = float(rng.uniform(0.05, 2.0))
        b = float(rng.normal(scale=1.5))
        center = v - t * b
        ref = grid_prox_1d(lambda u: b * u, v, t, center - 0.5, center + 0.5)
        got = prox(Linear(np.array([b])), np.array([v]), t)[0]
        assert abs(got - ref) < tol


def test_box_and_nonneg_prox_match_grid():
    rng = np.random.default_rng(3)
    tol = 1e-4
    for _ in range(60):
        v = float(rng.normal(scale=2.0))
        t = float(rng.uniform(0.05, 2.0))
        lo = float(rng.uniform(-2.0, 0.0))
        hi = float(rng.uniform(0.1, 2.0))

        def h_box(u):
            return np.where((u >= lo) & (u <= hi), 0.0, np.inf)

        ref = grid_prox_1d(h_box, v, t, lo, hi)
        got = prox(BoxIndicator(np.array([lo]), np.array([hi])),
                   np.array([v]), t)[0]
        assert abs(got - ref) < tol

        def h_nn(u):
            return np.where(u >= 0, 0.0, np.inf)

        ref = grid_prox_1d(h_nn, v, t, 0.0, abs(v) + 0.1)
        got = prox(NonnegIndicator(), np.array([v]), t)[0]
        assert abs(got - ref) < tol


def test_box_plus_l1_prox_matches_grid():
    rng = np.random.default_rng(4)
    tol = 1e-4
    for _ in range(60):
        v = float(rng.normal(scale=2.0))
        t = float(rng.uniform(0.05, 2.0))
        lam = float(rng.uniform(0.0, 2.0))
        lo = float(rng.uniform(-1.5, -0.1))
        hi = float(rng.uniform(0.1, 1.5))
        term = Sum([BoxIndicator(np.array([lo]), np.array([hi])), L1(lam)])

        def h(u):
            return np.where((u >= lo) & (u <= hi), lam * np.abs(u), np.inf)

        ref = grid_prox_1d(h, v, t, lo, hi)
        got = prox(term, np.array([v]), t)[0]
        assert abs(got - ref) < tol


def test_linear_plus_l1_prox_matches_grid():
    rng = np.random.default_rng(5)
    tol = 1e-4
    for _ in range(40):
        v = float(rng.normal(scale=2.0))
        t = float(rng.uniform(0.05, 2.0))
        lam = float(rng.uniform(0.0, 2.0))
        b = float(rng.normal())
        term = Sum([Linear(np.array([b])), L1(lam)])
        lo = min(0.0, v - t * abs(b)) - 0.5
        hi = max(0.0, v + t * abs(b)) + 0.5
        ref = grid_prox_1d(lambda u: b * u + lam * np.abs(u), v, t, lo, hi)
        got = prox(term, np.array([v]), t)[0]
        assert abs(got - ref) < tol


# ---------------------------------------------------------------------------
# grid-oracle agreement, two-dimensional terms
# ---------------------------------------------------------------------------

def test_group_l2_prox_matches_grid():
    rng = np.random.default_rng(6)
    tol = 5e-4
    term_groups = [[0, 1]]
    for _ in range(40):
        v = rng.normal(scale=1.5, size=2)
        t = float(rng.uniform(0.05, 2.0))
        w = float(rng.uniform(0.0, 2.0))

        def h(U):
            return w * np.linalg.norm(U, axis=1)

        lim = np.abs(v) + 0.2
        ref = grid_prox_2d(h, v, t, -lim, lim)
        got = prox(GroupL2(term_groups, [w]), v, t)
        err = np.linalg.norm(got - ref)
        assert err < tol


def test_group_l2_multiple_groups_and_uncovered():
    # groups {0} and {2}; coordinate 1 is unpenalized -> identity there
    rng = np.random.default_rng(7)
    term = GroupL2([[0], [2]], [0.8, 1.3])
    tol = 1e-4
    for _ in range(30):
        v = rng.normal(scale=1.5, size=3)
        t = float(rng.uniform(0.05, 2.0))
        got = prox(term, v, t)
        assert got[1] == v[1]
        # a singleton l2 group is an absolute value
        for idx, w in ((0, 0.8), (2, 1.3)):
            ref = grid_prox_1d(lambda u: w * np.abs(u), v[idx], t,
                               min(0.0, v[idx]) - 0.1,
                               max(0.0, v[idx]) + 0.1)
            assert abs(got[idx] - ref) < tol


def test_sparse_group_prox_matches_grid():
    rng = np.random.default_rng(8)
    tol = 5e-4
    for _ in range(30):
        v = rng.normal(scale=1.5, size=2)
        t = float(rng.uniform(0.05, 1.5))
        lam = float(rng.uniform(0.0, 1.5))
        w = float(rng.uniform(0.0, 1.5))

        def h(U):
            return (lam * np.sum(np.abs(U), axis=1)
                    + w * np.linalg.norm(U, axis=1))

        lim = np.abs(v) + 0.2
        ref = grid_prox_2d(h, v, t, -lim, lim)
        got = prox(SparseGroup(lam, [[0, 1]], [w]), v, t)
        err = np.linalg.norm(got - ref)
        assert err < tol


def test_sparse_group_degenerate_parameters():
    rng = np.random.default_rng(9)
    for _ in range(20):
        v = rng.normal(scale=2.0, size=4)
        t = float(rng.uniform(0.1, 2.0))
        # lam = 0 reduces to the group prox
        a = prox(SparseGroup(0.0, [[0, 1], [2, 3]], [0.7, 1.1]), v, t)
        b = prox(GroupL2([[0, 1], [2, 3]], [0.7, 1.1]), v, t)
        assert np.array_equal(a, b)
        # zero weights reduce to the l1 prox
        a = prox(SparseGroup(0.9, [[0, 1], [2, 3]], [0.0, 0.0]), v, t)
        b = prox(L1(0.9), v, t)
        assert np.array_equal(a, b)


def test_ball_box_prox_matches_grid():
    rng = np.random.default_rng(10)
    tol = 5e-4
    for _ in range(40):
        v = rng.normal(scale=2.0, size=2)
        t = float(rng.uniform(0.05, 2.0))
        w = float(rng.uniform(0.0, 2.0))
        lo = rng.uniform(-2.0, -0.1, size=2)
        hi = rng.uniform(0.1, 2.0, size=2)
        term = Sum([BoxIndicator(lo, hi), GroupL2([[0, 1]], [w])])

        def h(U):
            vals = w * np.linalg.norm(U, axis=1)
            bad = np.any((U < lo - 1e-15) | (U > hi + 1e-15), axis=1)
            return np.where(bad, np.inf, vals)

        ref = grid_prox_2d(h, v, t, lo, hi)
        got = prox(term, v, t)
        err = np.linalg.norm(got - ref)
        assert err < tol


def test_ball_box_prox_differs_from_naive_clipping():
    # v far outside the box in one coordinate: clipping the plain group
    # shrinkage is NOT the prox; the correct scale solves
    # || clip(v * s / (s + t*w)) || = s.
    v = np.array([10.0, 0.5])
    lo = np.array([-1.0, -1.0])
    hi = np.array([1.0, 1.0])
    term = Sum([BoxIndicator(lo, hi), GroupL2([[0, 1]], [1.0])])
    got = prox(term, v, 1.0)

    # independent scalar bisection on the shrinkage scale
    def norm_clipped(s):
        u = np.clip(v * (s / (s + 1.0)), lo, hi)
        return float(np.linalg.norm(u))

    s_lo, s_hi = 0.0, float(np.linalg.norm(v))
    for _ in range(200):
        mid = 0.5 * (s_lo + s_hi)
        if norm_clipped(mid) > mid:
            s_lo = mid
        else:
            s_hi = mid
    s = 0.5 * (s_lo + s_hi)
    expected = np.clip(v * (s / (s + 1.0)), lo, hi)
    assert np.linalg.norm(got - expected) < 1e-10

    naive = np.clip((1.0 - 1.0 / np.linalg.norm(v)) * v, lo, hi)
    assert np.linalg.norm(got - naive) > 0.1

    def h(U):
        vals = np.linalg.norm(U, axis=1)
        bad = np.any((U < lo - 1e-15) | (U > hi + 1e-15), axis=1)
        return np.where(bad, np.inf, vals)

    ref = grid_prox_2d(h, v, 1.0, lo, hi)
    assert np.linalg.norm(got - ref) < 5e-4


def test_ball_prox_near_threshold_radial():
    # the radial reduction min_s t*w*s + (s - ||v||)^2 / 2 over s >= 0 is
    # an independent scalar oracle; scan it finely around the threshold
    # where the group switches between zero and a short nonzero vector.
    tw = 1.0
    direction = np.array([0.6, 0.8])
    for margin in (-5e-2, -1e-3, 0.0, 1e-3, 1e-2, 5e-2):
        r = tw + margin
        v = r * direction
        got = prox(GroupL2([[0, 1]], [1.0]), v, 1.0)
        s_grid = np.arange(0.0, r + 0.2, 1e-7)
        vals = tw * s_grid + 0.5 * (s_grid - r) ** 2
        s_best = s_grid[int(np.argmin(vals))]
        expected = s_best * direction
        err = np.linalg.norm(got - expected)
        assert err < 1e-6
        if margin <= 0.0:
            assert got[0] == 0.0 and got[1] == 0.0


# ---------------------------------------------------------------------------
# ball-box kernel against a bisection oracle, on drawn instances
# ---------------------------------------------------------------------------

_BOUND_KINDS = {
    "straddle": lambda a, b: (-a, b),
    "zero_at_lower": lambda a, b: (0.0, b),
    "zero_at_upper": lambda a, b: (-a, 0.0),
    "pinned_at_zero": lambda a, b: (0.0, 0.0),
    "pinned": lambda a, b: (a - 1.0, a - 1.0),
    "above_zero": lambda a, b: (a, a + b),
    "below_zero": lambda a, b: (-a - b, -a),
}

# No magnitudes below 1e-3: the bisection oracle cannot tell a zero prox
# from one below its resolution.
_coord = st.one_of(st.just(0.0), st.floats(1e-3, 3.0), st.floats(-3.0, -1e-3))


@st.composite
def ball_box_cases(draw):
    """(v, t, lo, hi, groups, weights): groups are disjoint, usually not
    contiguous, and may leave coordinates uncovered."""
    n = draw(st.integers(1, 7))
    perm = draw(st.permutations(range(n)))
    n_cov = draw(st.integers(0, n))
    cuts = sorted(draw(st.sets(st.integers(1, n_cov - 1), max_size=3))) \
        if n_cov > 1 else []
    bounds = [0] + cuts + [n_cov]
    groups = [list(perm[a:b]) for a, b in zip(bounds, bounds[1:]) if b > a]
    weights = [draw(st.one_of(st.just(0.0), st.floats(0.05, 2.0)))
               for _ in groups]
    lo, hi = np.empty(n), np.empty(n)
    for i in range(n):
        kind = draw(st.sampled_from(sorted(_BOUND_KINDS)))
        a, b = draw(st.floats(0.05, 2.0)), draw(st.floats(0.05, 2.0))
        lo[i], hi[i] = _BOUND_KINDS[kind](a, b)
    v = np.array(draw(st.lists(_coord, min_size=n, max_size=n)))
    if draw(st.booleans()) and draw(st.booleans()):
        v[:] = 0.0
    t = draw(st.floats(0.05, 3.0))
    return v, t, lo, hi, groups, weights


def _ball_box_term(lo, hi, groups, weights):
    return Sum([BoxIndicator(lo, hi), GroupL2(groups, weights)])


_PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                     database=None)


@_PROPERTY
@given(ball_box_cases())
# a box away from 0 with ||v|| < t * w: the root lies above ||v|| - t * w
@example((np.array([0.0, -2.0, 0.0]), 1.0, np.array([1.0, -2.0, 1.0]),
          np.array([2.0, -1.0, 2.0]), [[0, 1]], [1.0]))
# 0 on a face: the shrinkage leaves the box, yet the prox is 0
@example((np.array([-1.0, 0.5]), 1.0, np.array([0.0, -1.0]),
          np.array([1.0, 1.0]), [[0, 1]], [1.0]))
# ||v|| exceeds t * w by less than the root tolerance, and the second
# coordinate's shrinkage leaves the box: the bracket of the scale is
# closed before any Newton step
@example((np.array([0.5, 1e-9]), 1.0, np.array([-1.0, -1.0]),
          np.array([1.0, 0.0]), [[0, 1]], [np.nextafter(0.5, 0.0)]))
def test_ball_box_kernel_matches_bisection_oracle(case):
    v, t, lo, hi, groups, weights = case
    got = prox(_ball_box_term(lo, hi, groups, weights), v, t)
    ref = bisection_ball_box_prox(v, t, lo, hi, groups, weights)
    assert np.max(np.abs(got - ref)) <= 1e-10
    assert np.all(got >= lo) and np.all(got <= hi)
    # the bisection only approaches a zero prox; the kernel returns it
    for J in groups:
        if np.max(np.abs(ref[J])) <= 1e-30 * np.max(np.abs(v[J])):
            assert np.all(got[J] == 0.0)


@_PROPERTY
@given(ball_box_cases(), st.lists(_coord, min_size=7, max_size=7))
def test_ball_box_kernel_nonexpansive(case, other):
    v, t, lo, hi, groups, weights = case
    term = _ball_box_term(lo, hi, groups, weights)
    v2 = np.array(other[:v.size])
    p1, p2 = prox(term, v, t), prox(term, v2, t)
    assert np.linalg.norm(p1 - p2) <= np.linalg.norm(v - v2) + 1e-12


@_PROPERTY
@given(ball_box_cases())
def test_ball_box_kernel_keeps_group_shrink_inside_box(case):
    # a feasible unconstrained minimizer is the constrained one, so the
    # kernel returns the plain group shrinkage there; uncovered
    # coordinates are clipped
    v, t, lo, hi, groups, weights = case
    got = prox(_ball_box_term(lo, hi, groups, weights), v, t)
    covered = set()
    for J, w in zip(groups, weights):
        covered.update(J)
        shrink = group_shrink(v[J], t * w)
        if np.all(shrink >= lo[J]) and np.all(shrink <= hi[J]):
            assert np.allclose(got[J], shrink, rtol=1e-14, atol=1e-15)
    rest = [i for i in range(v.size) if i not in covered]
    assert np.array_equal(got[rest], np.clip(v[rest], lo[rest], hi[rest]))


# ---------------------------------------------------------------------------
# operator properties
# ---------------------------------------------------------------------------

def _term_zoo(n):
    rng = np.random.default_rng(123)
    lo = -np.abs(rng.normal(size=n)) - 0.1
    hi = np.abs(rng.normal(size=n)) + 0.1
    groups = [[0, 1], [2, 3]] if n >= 4 else [[i] for i in range(n)]
    weights = [0.9] * len(groups)
    return [
        Zero(),
        L1(0.8),
        GroupL2(groups, weights),
        SparseGroup(0.5, groups, weights),
        BoxIndicator(lo, hi),
        NonnegIndicator(),
        Linear(rng.normal(size=n)),
        Sum([BoxIndicator(lo, hi), L1(0.7)]),
        Sum([BoxIndicator(lo, hi), GroupL2(groups, weights)]),
        Sum([Linear(rng.normal(size=n)), L1(0.6)]),
        Sum([L1(0.4), GroupL2(groups, weights)]),
        Sum([NonnegIndicator(), GroupL2(groups, weights)]),
        Sum([Linear(rng.normal(size=n)), Linear(rng.normal(size=n))]),
        Sum([Linear(rng.normal(size=n)), BoxIndicator(lo, hi), L1(0.5)]),
        Sum([Linear(rng.normal(size=n)),
             Sum([BoxIndicator(lo, hi), GroupL2(groups, weights)])]),
    ]


def test_prox_nonexpansive():
    n = 4
    rng = np.random.default_rng(11)
    for term in _term_zoo(n):
        for _ in range(200):
            v1 = rng.normal(scale=2.0, size=n)
            v2 = rng.normal(scale=2.0, size=n)
            t = float(rng.uniform(0.05, 3.0))
            p1 = prox(term, v1, t)
            p2 = prox(term, v2, t)
            assert (np.linalg.norm(p1 - p2)
                    <= np.linalg.norm(v1 - v2) + 1e-12)


def test_prox_firmly_nonexpansive():
    n = 4
    rng = np.random.default_rng(12)
    for term in _term_zoo(n):
        for _ in range(50):
            v1 = rng.normal(scale=2.0, size=n)
            v2 = rng.normal(scale=2.0, size=n)
            t = float(rng.uniform(0.05, 3.0))
            p1 = prox(term, v1, t)
            p2 = prox(term, v2, t)
            inner = float(np.dot(p1 - p2, v1 - v2))
            assert inner >= float(np.dot(p1 - p2, p1 - p2)) - 1e-10


def test_prox_optimality_certificate():
    # the prox value never loses to a random candidate
    n = 4
    rng = np.random.default_rng(13)
    for term in _term_zoo(n):
        for _ in range(100):
            v = rng.normal(scale=2.0, size=n)
            t = float(rng.uniform(0.05, 3.0))
            p = prox(term, v, t)
            fp = t * term.value(p) + 0.5 * float(np.dot(v - p, v - p))
            u = rng.normal(scale=2.0, size=n)
            fu = t * term.value(u) + 0.5 * float(np.dot(v - u, v - u))
            assert fp <= fu + 1e-10


def test_a_compiled_form_holds_no_array_longer_than_its_coordinates():
    # a form keeps per-coordinate and per-group arrays only, never an
    # n x n one: the Newton step masks its curvature on the free set
    p = gen_group_l2(m=6, K=3, n_k=4, seed=0)
    forms = [term._form(4) for term in _term_zoo(4)]
    for form in forms + [p.form] + [b.form for b in p.blocks]:
        for name, value in vars(form).items():
            if isinstance(value, np.ndarray):
                assert value.size <= form.lo.size, name


# ---------------------------------------------------------------------------
# construction rules, merging, serialization
# ---------------------------------------------------------------------------

def test_term_validation_errors():
    for lam in (-0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="l1 weight lam"):
            L1(lam)
        with pytest.raises(ValueError, match="l1 weight lam"):
            SparseGroup(lam, [[0, 1]], [1.0])
    with pytest.raises(ValueError):
        GroupL2([[0, 1], [1, 2]], [1.0, 1.0])     # overlapping groups
    with pytest.raises(ValueError):
        GroupL2([[0]], [-1.0])                     # negative weight
    with pytest.raises(ValueError):
        GroupL2([[0], [1]], [1.0])                 # weight count mismatch
    with pytest.raises(ValueError, match="nonempty"):
        GroupL2([[0], []], [1.0, 1.0])             # empty group
    with pytest.raises(ValueError):
        BoxIndicator(np.array([1.0]), np.array([0.0]))
    with pytest.raises(ValueError, match="matching shapes"):
        BoxIndicator(np.zeros(2), np.ones(3))
    with pytest.raises(ValueError):
        prox(L1(1.0), np.array([1.0]), 0.0)        # nonpositive step
    with pytest.raises(ValueError):
        prox(Linear(np.array([1.0, 2.0])), np.array([1.0]), 1.0)
    with pytest.raises(NotImplementedError):
        ProxTerm().value(np.zeros(2))             # a term states its part


def test_sum_combination_rules():
    # terms add: a sum is admitted when its compiled form has an exact
    # prox, so l1 + group_l2 is the sparse-group form, bit for bit
    lam, groups, weights = 0.7, [[0, 1], [3]], [0.9, 1.3]
    got = Sum([L1(lam), GroupL2(groups, weights)])._form(4)
    want = SparseGroup(lam, groups, weights)._form(4)
    for name in ("b", "lam", "lo", "hi", "weights"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert [J.tobytes() for J in got.groups] == [
        J.tobytes() for J in want.groups]
    # no grouped coordinate may carry both an l1 weight and a finite bound;
    # an ungrouped one may, and so may a grouped one whose bounds are
    # infinite
    v = np.array([2.0, -1.5, 0.3, -3.0])
    box = BoxIndicator(-np.ones(4), np.ones(4))
    part_box = BoxIndicator([-np.inf, -np.inf, -1.0, -1.0],
                            [np.inf, np.inf, 1.0, np.inf])
    for term in (Sum([L1(lam), GroupL2([[0, 1]], [1.0]), part_box]),
                 Sum([SparseGroup(0.0, groups, weights), box])):
        assert np.all(np.isfinite(prox(term, v, 0.8)))
    for term, index in (
            (Sum([SparseGroup(lam, groups, weights), box]), 0),
            (Sum([L1(lam), Sum([GroupL2(groups, weights), part_box])]), 3)):
        with pytest.raises(ValueError, match="no exact prox: index %d is "
                           "in a group" % index):
            prox(term, v, 1.0)
    from blockadmm.problem import Block, build_problem
    with pytest.raises(ValueError, match="^block 1: no exact prox"):
        build_problem([Block(E=np.eye(4)),
                       Block(E=np.eye(4), box=(-1.0, 1.0),
                             nonsmooth=SparseGroup(lam, groups, weights))],
                      np.zeros(4))
    # groups of different terms must be disjoint, and the bounds must
    # leave a point
    with pytest.raises(ValueError, match="disjoint; index 1 repeated"):
        prox(Sum([GroupL2([[0, 1]], [1.0]), GroupL2([[1, 2]], [1.0])]),
             v, 1.0)
    for term in (Sum([box, BoxIndicator([2.0] * 4, [3.0] * 4)]),
                 Sum([NonnegIndicator(), BoxIndicator(-np.ones(4),
                                                      [1, 1, 1, -0.5])])):
        with pytest.raises(ValueError, match="bounds hold no point"):
            prox(term, v, 1.0)
    with pytest.raises(ValueError, match="at least one term"):
        Sum([])


def test_sum_intersects_box_bounds():
    # a declared box folds into the block's term as Sum([term, box])
    from blockadmm.problem import Block, build_problem
    lo = np.array([-1.0, -1.0])
    hi = np.array([1.0, 1.0])
    for term, want_lo, want_hi in (
            (Zero(), lo, hi),
            (BoxIndicator(-0.5 * np.ones(2), 2 * np.ones(2)),
             [-0.5, -0.5], hi),
            (NonnegIndicator(), np.zeros(2), hi),
            (L1(1.0), lo, hi),
            (GroupL2([[0, 1]], [1.0]), lo, hi),
            (Linear(np.ones(2)), lo, hi)):
        form = Sum([term, BoxIndicator(lo, hi)])._form(2)
        assert np.array_equal(form.lo, want_lo)
        assert np.array_equal(form.hi, want_hi)
        built = build_problem([Block(E=np.eye(2), nonsmooth=term,
                                     box=(lo, hi))], np.zeros(2))
        assert built.blocks[0].form.lo.tobytes() == form.lo.tobytes()
        assert built.blocks[0].form.hi.tobytes() == form.hi.tobytes()


def test_term_serialization_roundtrip():
    rng = np.random.default_rng(14)
    terms = [
        Zero(),
        L1(0.8),
        GroupL2([[0, 1], [2]], [0.9, 1.1]),
        SparseGroup(0.5, [[0, 1], [2]], [0.9, 1.1]),
        BoxIndicator(-np.ones(3), np.ones(3)),
        NonnegIndicator(),
        Linear(rng.normal(size=3)),
    ]
    v = rng.normal(size=3)
    for term in terms:
        doc = term.to_doc()
        back = term_from_doc(doc)
        assert back.to_doc() == doc
        assert np.array_equal(prox(term, v, 0.7), prox(back, v, 0.7))
    with pytest.raises(ValueError):
        Sum([BoxIndicator(-np.ones(3), np.ones(3)), L1(1.0)]).to_doc()
    with pytest.raises(ValueError):
        term_from_doc({"type": "mystery"})


def test_term_from_doc_rejects_missing_and_unknown_fields():
    # the fields besides "type" are the constructor's arguments
    for doc in ({"type": "l1"}, {"type": "box", "lo": [0.0]},
                {"type": "nonneg", "lam": 1.0}):
        with pytest.raises(ValueError, match="bad %s term" % doc["type"]):
            term_from_doc(doc)


def test_soft_threshold_direct():
    v = np.array([3.0, -3.0, 0.5, -0.5, 0.0])
    out = soft_threshold(v, 1.0)
    assert np.array_equal(out, np.array([2.0, -2.0, 0.0, 0.0, 0.0]))


# ---------------------------------------------------------------------------
# the whole problem's form against its block forms, on drawn problems
# ---------------------------------------------------------------------------

def _groups(rng, n):
    """Disjoint groups over a shuffled part of range(n); when n > 1 at
    least one coordinate stays uncovered."""
    perm = rng.permutation(n)
    n_cov = int(rng.integers(1, max(n - 1, 1) + 1))
    cuts = sorted(set(rng.integers(1, n_cov, size=2).tolist())) \
        if n_cov > 1 else []
    bounds = [0] + cuts + [n_cov]
    groups = [perm[a:b].tolist() for a, b in zip(bounds, bounds[1:])]
    return groups, rng.uniform(0.1, 1.5, size=len(groups)).tolist()


def _bounds(rng, n):
    return -rng.uniform(0.1, 1.5, size=n), rng.uniform(0.1, 1.5, size=n)


# kind -> (rng, n) -> (nonsmooth term, declared box or None)
_BLOCK_TERMS = {
    "zero": lambda rng, n: (Zero(), None),
    "l1": lambda rng, n: (L1(rng.uniform(0.1, 1.5)), None),
    "group_l2": lambda rng, n: (GroupL2(*_groups(rng, n)), None),
    "sparse_group": lambda rng, n: (
        SparseGroup(rng.uniform(0.1, 1.5), *_groups(rng, n)), None),
    "box": lambda rng, n: (BoxIndicator(*_bounds(rng, n)), None),
    "nonneg": lambda rng, n: (NonnegIndicator(), None),
    "linear": lambda rng, n: (Linear(rng.normal(size=n)), None),
    "box+l1": lambda rng, n: (L1(rng.uniform(0.1, 1.5)), _bounds(rng, n)),
    "box+group_l2": lambda rng, n: (GroupL2(*_groups(rng, n)),
                                    _bounds(rng, n)),
}
for _kind in ("zero", "l1", "group_l2", "sparse_group", "box", "nonneg"):
    _BLOCK_TERMS["linear+" + _kind] = (
        lambda rng, n, kind=_kind: (
            Sum([Linear(rng.normal(size=n)), _BLOCK_TERMS[kind](rng, n)[0]]),
            None))


@_PROPERTY
@given(st.lists(st.tuples(st.sampled_from(sorted(_BLOCK_TERMS)),
                          st.integers(1, 3), st.booleans()),
                min_size=1, max_size=4),
       st.integers(0, 2 ** 32 - 1))
def test_problem_form_is_the_concatenation_of_the_block_forms(blocks, seed):
    from blockadmm.lagrangian import proximal_gradient
    from blockadmm.problem import Block, SmoothTerm, build_problem
    from blockadmm.prox import _Separable

    rng = np.random.default_rng(seed)
    m = 3
    declared = []
    for kind, n, smooth in blocks:
        term, box = _BLOCK_TERMS[kind](rng, n)
        declared.append(Block(
            E=rng.normal(size=(m, n)), nonsmooth=term, box=box,
            smooth=SmoothTerm(b=rng.normal(size=n)) if smooth else None))
    p = build_problem(declared, rng.normal(size=m))
    form = p.form
    v = rng.normal(scale=2.0, size=p.n)
    t = float(rng.uniform(0.05, 3.0))

    def by_block(op, *args):
        return np.concatenate([op(b.form, v[b.sl], *args) for b in p.blocks])

    assert form.prox(v, t).tobytes() == by_block(_Separable.prox, t).tobytes()
    assert (form.project_domain(v).tobytes()
            == by_block(_Separable.project_domain).tobytes())
    x = p.project_domains(v)
    parts = [b.form.value(x[b.sl]) for b in p.blocks]
    scale = sum(abs(a) for a in parts) + float(np.abs(form.b) @ np.abs(x))
    assert abs(form.value(x) - sum(parts)) <= 1e-15 * scale
    # the prox-gradient residual is one prox of the whole vector
    calls = []
    original = _Separable.prox

    def counting(self, v, t):
        calls.append(t)
        return original(self, v, t)

    _Separable.prox = counting
    try:
        proximal_gradient(p, x, rng.normal(size=m), 1.0)
    finally:
        _Separable.prox = original
    assert calls == [1.0]
