"""Correctness checks on solver and diagnosis outputs.

Everything here is computed with this file's own NumPy code from the
problem data (the JSON document of the instance) and the iterates the
program returned. None of it calls into ``blockadmm`` and none of it
compares against stored copies of earlier output.

Each ``*_failures`` function returns a list of messages, empty when the
output passes.
"""

from __future__ import annotations

import math

import numpy as np

# Solutions are requested at tol_outer = 1e-8 on max(prox-gradient norm,
# feasibility residual); the certificate allows two orders of magnitude
# for the difference between that residual and the one computed here
# (no penalty term, unit prox step).
SOLUTION_TOL = 1e-6

# The reference lasso solve stops when its prox-gradient step is this
# small relative to the curvature, far below SOLUTION_TOL.
LASSO_TOL = 1e-13
LASSO_MAX_ITER = 200000


class _Block:
    def __init__(self, sl, entry):
        self.sl = sl
        self.E = np.asarray(entry["E"], dtype=float)
        n = self.E.shape[1]
        self.A = None if entry.get("A") is None else \
            np.asarray(entry["A"], dtype=float)
        smooth = entry.get("smooth")
        if smooth is not None and smooth.get("kind") != "quadratic":
            raise ValueError("unsupported smooth term %r" % smooth)
        self.target = None if smooth is None else \
            np.asarray(smooth["b"], dtype=float)
        self.term = entry["nonsmooth"]
        if self.term["type"] not in ("zero", "l1", "group_l2"):
            raise ValueError("unsupported nonsmooth term %r"
                             % self.term["type"])
        box = entry.get("box")
        self.lo = np.full(n, -np.inf) if box is None else \
            np.asarray(box["lo"], dtype=float)
        self.hi = np.full(n, np.inf) if box is None else \
            np.asarray(box["hi"], dtype=float)

    def smooth_value(self, xk):
        if self.target is None:
            return 0.0
        z = xk if self.A is None else self.A @ xk
        return 0.5 * float(np.sum((z - self.target) ** 2))

    def smooth_grad(self, xk):
        if self.target is None:
            return np.zeros_like(xk)
        if self.A is None:
            return xk - self.target
        return self.A.T @ (self.A @ xk - self.target)

    def smooth_lipschitz(self):
        if self.target is None:
            return 0.0
        if self.A is None:
            return 1.0
        return float(np.linalg.norm(self.A, 2) ** 2)

    def nonsmooth_value(self, xk):
        kind = self.term["type"]
        if kind == "l1":
            return self.term["lam"] * float(np.sum(np.abs(xk)))
        if kind == "group_l2":
            return sum(w * float(np.linalg.norm(xk[J])) for J, w in
                       zip(self.term["groups"], self.term["weights"]))
        return 0.0

    def prox(self, v):
        """prox of (nonsmooth term + box indicator) at unit step."""
        kind = self.term["type"]
        if kind == "l1":
            lam = self.term["lam"]
            return np.clip(np.sign(v) * np.maximum(np.abs(v) - lam, 0.0),
                           self.lo, self.hi)
        out = np.clip(v, self.lo, self.hi)
        if kind == "group_l2":
            for J, w in zip(self.term["groups"], self.term["weights"]):
                out[J] = _prox_group_in_box(v[J], w, self.lo[J], self.hi[J])
        return out


def _prox_group_in_box(v, w, lo, hi):
    """argmin_u  w ||u|| + ||u - v||^2 / 2  subject to lo <= u <= hi.

    For u != 0 the optimality condition is u = clip(v s / (s + w)) with
    s = ||u||, so s is the positive root of ||clip(v s / (s + w))|| - s,
    found here by bisection; with no positive root the minimizer is 0.
    Requires 0 inside the box.
    """
    if np.any(lo > 0.0) or np.any(hi < 0.0):
        raise ValueError("group prox check needs 0 inside the box")
    if w == 0.0:
        return np.clip(v, lo, hi)
    if float(np.linalg.norm(v)) <= w:
        return np.zeros_like(v)
    s_lo, s_hi = 0.0, float(np.linalg.norm(np.clip(v, lo, hi)))
    for _ in range(200):
        s = 0.5 * (s_lo + s_hi)
        if float(np.linalg.norm(np.clip(v * (s / (s + w)), lo, hi))) > s:
            s_lo = s
        else:
            s_hi = s
    s = 0.5 * (s_lo + s_hi)
    return np.clip(v * (s / (s + w)), lo, hi)


class ProblemData:
    """The instance as plain arrays, read from its JSON document."""

    def __init__(self, doc):
        self.q = np.asarray(doc["q"], dtype=float)
        self.blocks = []
        offset = 0
        for entry in doc["blocks"]:
            n_k = len(entry["E"][0])
            self.blocks.append(_Block(slice(offset, offset + n_k), entry))
            offset += n_k
        self.n = offset
        self.E = np.hstack([b.E for b in self.blocks])

    def objective(self, x):
        return sum(b.smooth_value(x[b.sl]) + b.nonsmooth_value(x[b.sl])
                   for b in self.blocks)

    def lagrangian(self, x, y, rho):
        """L(x; y) = f(x) + <y, q - E x> + (rho / 2) ||E x - q||^2."""
        res = self.E @ x - self.q
        return self.objective(x) - float(y @ res) + 0.5 * rho * float(
            res @ res)

    def kkt_residuals(self, x, y):
        """(feasibility ||E x - q||, stationarity ||x - prox(x - G)||)
        with G the gradient of the smooth part minus E^T y; both vanish
        exactly at a primal-dual solution."""
        feas = float(np.linalg.norm(self.E @ x - self.q))
        Ety = self.E.T @ y
        stat = np.empty(self.n)
        for b in self.blocks:
            xk = x[b.sl]
            g = b.smooth_grad(xk) - Ety[b.sl]
            stat[b.sl] = xk - b.prox(xk - g)
        return feas, float(np.linalg.norm(stat))

    def descent_constant(self, rho, variant, beta=None):
        """The descent constant a primal pass provably achieves:
        (rho / 2) min_k lambda_min(E_k^T E_k) for an exact cyclic sweep
        (half the constant the package advertises), and beta - nu / 2
        for the linearized sweep, with nu = max_k nu_k and
        nu_k = L_k + rho ||E_k||^2.

        For the linearized sweep each block step u minimizes
        <g, u - x_k> + (beta / 2) ||u - x_k||^2 + h_k(u), which is
        beta-strongly convex, so h_k(x_k) >= <g, d> + beta ||d||^2 +
        h_k(u) with d = u - x_k; the smooth part rises by at most
        <g, d> + (nu_k / 2) ||d||^2. Together the Lagrangian drops by at
        least (beta - nu_k / 2) ||d||^2 per block."""
        if variant == "gauss_seidel":
            return 0.5 * rho * min(float(np.linalg.eigvalsh(b.E.T @ b.E)[0])
                                   for b in self.blocks)
        if variant == "proximal":
            nu = max(b.smooth_lipschitz() + rho * float(
                np.linalg.norm(b.E, 2) ** 2) for b in self.blocks)
            return beta - 0.5 * nu
        raise ValueError("no descent constant for variant %r" % variant)


def solution_failures(data, x, y):
    """Domain membership, feasibility and the KKT stationarity residual
    of a returned primal-dual pair."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (data.n,) or y.shape != data.q.shape:
        return ["solution has shapes %s, %s" % (x.shape, y.shape)]
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        return ["solution is not finite"]
    failures = []
    lo = np.concatenate([b.lo for b in data.blocks])
    hi = np.concatenate([b.hi for b in data.blocks])
    outside = float(np.max(np.maximum(lo - x, 0.0) + np.maximum(x - hi, 0.0)))
    if outside > 1e-12:
        failures.append("x leaves its box by %.3e" % outside)
    feas, stat = data.kkt_residuals(x, y)
    if feas > SOLUTION_TOL * (1.0 + float(np.linalg.norm(data.q))):
        failures.append("feasibility residual %.3e" % feas)
    if stat > SOLUTION_TOL:
        failures.append("KKT stationarity residual %.3e" % stat)
    return failures


def diagnosis_failures(data, states, rows, rate_mu, lipschitz_ratio, rho,
                       gamma):
    """Independent checks of one diagnosis.

    states : {r: (x, y, x_next)} iterate states of the diagnosed run.
    rows : (r, name, lhs, rhs, slack, passed) check rows it reported.
    rate_mu, lipschitz_ratio : the reported fitted tail rate and maximal
        dual Lipschitz ratio.
    gamma : the provable descent constant (``descent_constant``).
    """
    failures = []
    if not rate_mu < 1.0:
        failures.append("fitted tail rate %r is not below 1" % rate_mu)
    lip = [row for row in rows if row[1] == "dual_lipschitz"]
    if len(lip) != 1:
        failures.append("expected one dual_lipschitz row, got %d" % len(lip))
    else:
        _, _, ratio, bound, _, _ = lip[0]
        if not ratio <= bound:
            failures.append("Lipschitz ratio %r exceeds its bound %r"
                            % (ratio, bound))
        if ratio != lipschitz_ratio:
            failures.append("reported Lipschitz ratio %r differs from its "
                            "row %r" % (lipschitz_ratio, ratio))
    descent = [row for row in rows if row[1] == "descent"]
    moving = sum(1 for x, _, x_next in states.values()
                 if np.any(x_next != x))
    if len(descent) != moving:
        failures.append("%d descent rows for %d moving records"
                        % (len(descent), moving))
    for r, _, lhs, _, slack, _ in descent:
        if r not in states:
            failures.append("descent row r=%d has no state" % r)
            continue
        x, y, x_next = states[r]
        L_r = data.lagrangian(x, y, rho)
        drop = L_r - data.lagrangian(x_next, y, rho)
        if abs(drop - lhs) > 1e-9 * (1.0 + abs(L_r)):
            failures.append("descent row r=%d reports a drop of %r, the "
                            "data give %r" % (r, lhs, drop))
        step_sq = float(np.sum((x_next - x) ** 2))
        if drop < gamma * step_sq - slack:
            failures.append("r=%d: drop %r below the provable %r"
                            % (r, drop, gamma * step_sq))
        if len(failures) > 5:
            break
    return failures


def lasso_optimum(A, b, lam):
    """min_x (1/2) ||A x - b||^2 + lam ||x||_1 by FISTA with adaptive
    restart; returns the optimal value."""
    L = float(np.linalg.norm(A, 2) ** 2)
    x = np.zeros(A.shape[1])
    z = x.copy()
    t = 1.0
    for _ in range(LASSO_MAX_ITER):
        v = z - A.T @ (A @ z - b) / L
        x_new = np.sign(v) * np.maximum(np.abs(v) - lam / L, 0.0)
        if float(np.linalg.norm(x_new - z)) * L <= LASSO_TOL * (1.0 + L):
            x = x_new
            break
        if float((z - x_new) @ (x_new - x)) > 0.0:
            t = 1.0
            z = x_new
        else:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            z = x_new + ((t - 1.0) / t_next) * (x_new - x)
            t = t_next
        x = x_new
    else:
        raise RuntimeError("reference lasso solve did not converge")
    return 0.5 * float(np.sum((A @ x - b) ** 2)) + lam * float(
        np.sum(np.abs(x)))
