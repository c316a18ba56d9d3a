"""Per-iteration verification of descent, gap-decrease, and rate behavior.

Quantities verified on recorded runs (x^r, y^r, x^{r+1}, alpha_r):

* sufficient descent of the augmented Lagrangian per sweep, with the
  variant's constant: gamma = rho * min_k lambda_min(E_k^T E_k) for
  exact sweeps, gamma * K for damped Jacobi, (beta - nu) / 2 for the
  linearized sweep;
* the dual-gap and primal-gap decrease estimates, and their combined
  form

      [dp + dd]^r - [dp + dd]^{r-1}
          <= alpha ||E x^r - E xbar^r||^2 - alpha ||E xbar^r - q||^2
             - gamma ||x^{r+1} - x^r||^2 ,

  where xbar^r is the inner minimizer of L(.; y^r) nearest the run
  (computed by warm-started inner solves);
* the function-value identity
  f(x^{r+1}) - d* = dp^r - dd^r - <y^r, q - E x^{r+1}>
                    - (rho/2) ||E x^{r+1} - q||^2 ;
* Lipschitz continuity of the dual gradient with constant 1 / rho;
* geometric (Q-linear) decay of the combined gap via a least-squares fit
  of log(dp + dd) against r.

Empirical error-bound constants are surrogates: the primal distance uses
the inner solver's minimizer reached from the sample (an upper bound on
the true distance), and the dual distance is measured against the single
computed reference, which is flagged when the dual solution may be
non-unique (E^T has a nontrivial kernel).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .lagrangian import (
    ConvergenceError,
    augmented_lagrangian,
    minimize_lagrangian,
    proximal_gradient,
)
from .problem import _objective
from .prox import _setting, _vector
from .solvers import _beta, _check_variant, nu_constant
from .trace import CheckRow

__all__ = [
    "Reference",
    "RateFit",
    "LipschitzCheck",
    "ErrorBoundEstimate",
    "DiagnosticsReport",
    "reference_solution",
    "compute_gaps",
    "gamma_value",
    "check_descent_lemma",
    "check_gap_decrease",
    "estimate_rate",
    "check_dual_lipschitz",
    "estimate_error_bound_constants",
    "alpha_bound_estimate",
    "constructive_sigma",
    "check_function_value_convergence",
    "run_diagnostics",
]

_MIN_POINTS = 20     # usable tail points a geometric fit needs


def _tol_ref(value, name="tol_ref"):
    """``value`` as a reference accuracy in (0, 1e-10], the scale of every
    slack of the diagnosis, else a ValueError naming ``name``."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ValueError("%s is not a number: %r" % (name, value)) from None
    if not 0 < number <= 1e-10:
        raise ValueError("%s must be in (0, 1e-10], got %g" % (name, number))
    return number


@dataclass
class Reference:
    """A high-accuracy primal-dual solution used as ground truth."""

    x: np.ndarray
    y: np.ndarray
    d_star: float
    f_star: float
    tol_ref: float


def reference_solution(problem, rho, tol_ref=1e-10, y0=None,
                       max_outer=200000):
    """Solve to high accuracy by the method of multipliers: exact inner
    minimization followed by the full dual ascent y <- y + rho * grad d.

    Stops when ||grad d(y)|| <= tol_ref / (1 + ||y||), which guarantees
    both the feasibility residual and the duality gap |f* - d*| are at
    the tol_ref level. Raises ConvergenceError, carrying the last y and
    its gradient norm, after ``max_outer`` dual steps.
    """
    rho = _setting(rho, "rho")
    tol_ref = _tol_ref(tol_ref)
    y = np.zeros(problem.m) if y0 is None else \
        _vector(y0, problem.m, "y0").copy()
    warm = None
    inner_tol = tol_ref / 10.0
    for _ in range(max_outer):
        inner = minimize_lagrangian(problem, y, rho, tol=inner_tol,
                                    warm_start=warm)
        gnorm = float(np.linalg.norm(inner.dual_grad))
        if gnorm <= tol_ref / (1.0 + float(np.linalg.norm(y))):
            return Reference(
                x=inner.x_of_y,
                y=y,
                d_star=inner.d_value,
                f_star=_objective(problem, inner.x_of_y),
                tol_ref=tol_ref,
            )
        y_last, y = y, y + rho * inner.dual_grad
        warm = inner.x_of_y
    raise ConvergenceError(
        "reference solve did not reach ||grad d|| <= %g in %d dual steps "
        "(last norm %g)" % (tol_ref, max_outer, gnorm),
        best_x=y_last, best_value=gnorm,
    )


def _require_states(records):
    """Reject records without iterate states or not consecutive in r:
    the checks pair consecutive iterations."""
    for i, rec in enumerate(records):
        if rec.x is None or rec.y is None or rec.x_next is None:
            raise ValueError(
                "record %d has no iterate states; solve with a trace path "
                "so the states sidecar is written, and load it alongside "
                "the CSV" % rec.r
            )
        if i and rec.r != records[i - 1].r + 1:
            raise ValueError("record %d follows record %d"
                             % (rec.r, records[i - 1].r))


def compute_gaps(problem, records, reference, rho):
    """Fill d_y, delta_p, delta_d (and the inner minimizer xbar) on each
    record via warm-started inner solves at the reference accuracy.

    A record that already carries an inner minimizer ``xbar`` of its own
    y (the auto-alpha monitor of :func:`blockadmm.solvers.run` stores
    one) warm-starts from it, so its solve only polishes to
    ``reference.tol_ref``; any other record starts from the previous
    record's minimizer, or from its own x for the first. Either way the
    solve runs to ``reference.tol_ref`` and overwrites ``xbar`` and
    ``d_y``.

    Returns (records, rows) where the rows verify the identity
    delta_p - delta_d = L_val - d* and the nonnegativity of both gaps up
    to 10 * tol_ref.
    """
    rho = _setting(rho, "rho")
    _require_states(records)
    inner_tol = reference.tol_ref
    rows = []
    warm = None
    for rec in records:
        if rec.xbar is not None:
            warm = rec.xbar
        elif warm is None:
            warm = rec.x
        inner = minimize_lagrangian(problem, rec.y, rho, tol=inner_tol,
                                    warm_start=warm)
        warm = inner.x_of_y
        rec.xbar = inner.x_of_y
        rec.d_y = inner.d_value
        rec.delta_p = rec.L_val - rec.d_y
        rec.delta_d = reference.d_star - rec.d_y
        slack = 10.0 * inner_tol * (1.0 + abs(rec.L_val)
                                    + abs(reference.d_star))
        lhs = rec.delta_p - rec.delta_d
        rhs = rec.L_val - reference.d_star
        rows.append(CheckRow(rec.r, "gap_identity", lhs, rhs, slack,
                             abs(lhs - rhs) <= slack))
        gap_slack = 10.0 * reference.tol_ref
        rows.append(CheckRow(rec.r, "primal_gap_nonneg", rec.delta_p, 0.0,
                             gap_slack, rec.delta_p >= -gap_slack))
        rows.append(CheckRow(rec.r, "dual_gap_nonneg", rec.delta_d, 0.0,
                             gap_slack, rec.delta_d >= -gap_slack))
    return records, rows


def gamma_value(problem, rho, variant="gauss_seidel", beta=None):
    """Descent constant of the variant's primal pass, one of
    ``solvers.VARIANTS``. The proximal variant's beta is checked as
    ``run`` checks it: finite and above the curvature bound nu."""
    rho = _setting(rho, "rho")
    _check_variant(variant)
    if variant == "proximal":
        if beta is None:
            raise ValueError("the proximal descent constant needs beta")
        return 0.5 * (_beta(problem, rho, beta) - nu_constant(problem, rho))
    return rho * min(b.lambda_min for b in problem.blocks)


def _gamma_eff(problem, gamma, variant):
    """gamma for exact and linearized sweeps, gamma * K for the damped
    Jacobi sweep."""
    _check_variant(variant)
    return gamma * problem.K if variant in ("jacobi", "jacobi_unsafe") \
        else gamma


def check_descent_lemma(problem, records, rho, gamma,
                        variant="gauss_seidel", step_floor=0.0):
    """Per-iteration sufficient descent:

        L(x^r; y^r) - L(x^{r+1}; y^r) >= gamma_eff * ||x^{r+1} - x^r||^2

    with gamma_eff = gamma for exact and linearized sweeps and
    gamma * K for the damped Jacobi sweep. Returns (rows, gamma_observed)
    where gamma_observed is the smallest observed drop/step^2 ratio.
    Check rows are emitted for every nonzero step (their absolute slack
    absorbs rounding), but steps at or below step_floor * (1 + ||x||)
    are left out of gamma_observed: there both drop and step^2 are
    rounding residue and their quotient measures nothing.
    """
    rho = _setting(rho, "rho")
    _require_states(records)
    gamma_eff = _gamma_eff(problem, gamma, variant)
    rows = []
    gamma_observed = float("inf")
    for rec in records:
        if rec.step * rec.step <= 0.0:
            continue
        L_at_x = augmented_lagrangian(problem, rec.x, rec.y, rho)
        drop = L_at_x - rec.L_val
        rhs = gamma_eff * rec.step * rec.step
        slack = 1e-8 * (1.0 + abs(L_at_x))
        rows.append(CheckRow(rec.r, "descent", drop, rhs, slack,
                             drop >= rhs - slack))
        if rec.step > step_floor * (1.0 + float(np.linalg.norm(rec.x))):
            gamma_observed = min(gamma_observed,
                                 drop / (rec.step * rec.step))
    return rows, gamma_observed


def check_gap_decrease(problem, records, reference, gamma,
                       variant="gauss_seidel"):
    """Verify the dual-gap, primal-gap, and combined decrease estimates
    on consecutive recorded transitions.

    dual_gap_decrease:
        dd^r - dd^{r-1} <= -alpha (E x^r - q)^T (E xbar^r - q)
    primal_gap_decrease:
        dp^r - dp^{r-1} <= alpha ||E x^r - q||^2
                           - gamma_eff ||x^{r+1} - x^r||^2
                           - alpha (E x^r - q)^T (E xbar^r - q)
    combined_decrease:
        sum of the two, rewritten as
        alpha ||E x^r - E xbar^r||^2 - alpha ||E xbar^r - q||^2
        - gamma_eff ||x^{r+1} - x^r||^2

    with alpha the stepsize that produced y^r. With alpha = 0 these
    reduce to the plain descent statement. Records must be consecutive,
    and their gaps filled by compute_gaps first: a pair is skipped when
    either record's delta_p or delta_d is still NaN (a solved auto-alpha
    record already carries xbar and d_y, but no gaps) or when the later
    record has no xbar (gaps read back from a trace CSV without one).
    """
    _require_states(records)
    gamma_eff = _gamma_eff(problem, gamma, variant)
    rows = []
    slack_base = 10.0 * reference.tol_ref
    for prev, cur in zip(records, records[1:]):
        if cur.xbar is None or np.isnan(
                [prev.delta_p, prev.delta_d, cur.delta_p, cur.delta_d]).any():
            continue
        alpha = prev.alpha
        res_x = problem.apply_E(cur.x) - problem.q
        res_bar = problem.apply_E(cur.xbar) - problem.q
        cross = float(np.dot(res_x, res_bar))
        scale = 1.0 + abs(cur.L_val) + abs(reference.d_star)
        slack = slack_base * scale
        lhs_d = cur.delta_d - prev.delta_d
        rhs_d = -alpha * cross
        rows.append(CheckRow(cur.r, "dual_gap_decrease", lhs_d, rhs_d,
                             slack, lhs_d <= rhs_d + slack))
        lhs_p = cur.delta_p - prev.delta_p
        rhs_p = (alpha * float(np.dot(res_x, res_x))
                 - gamma_eff * cur.step * cur.step - alpha * cross)
        rows.append(CheckRow(cur.r, "primal_gap_decrease", lhs_p, rhs_p,
                             slack, lhs_p <= rhs_p + slack))
        lhs_c = (cur.delta_p + cur.delta_d) - (prev.delta_p + prev.delta_d)
        diff = res_x - res_bar
        rhs_c = (alpha * float(np.dot(diff, diff))
                 - alpha * float(np.dot(res_bar, res_bar))
                 - gamma_eff * cur.step * cur.step)
        rows.append(CheckRow(cur.r, "combined_decrease", lhs_c, rhs_c,
                             slack, lhs_c <= rhs_c + slack))
    return rows


@dataclass
class RateFit:
    """Least-squares geometric fit value_r ~ C * mu^r on a tail window."""

    mu: float
    r2: float
    n_points: int
    flag: str | None = None


def _fit_geometric(pairs, burn_in_fraction=0.4, noise_floor=0.0):
    usable = [(r, v) for r, v in pairs
              if np.isfinite(v) and v > noise_floor]
    tail = usable[int(np.floor(burn_in_fraction * len(usable))):]
    if len(tail) < _MIN_POINTS:
        raise ValueError(
            "insufficient points for a rate fit: %d above the noise "
            "floor, need %d" % (len(tail), _MIN_POINTS)
        )
    rs = np.array([r for r, _ in tail], dtype=float)
    logs = np.log(np.array([v for _, v in tail]))
    A = np.stack([rs, np.ones_like(rs)], axis=1)
    coef, *_ = np.linalg.lstsq(A, logs, rcond=None)
    fitted = A @ coef
    ss_res = float(np.sum((logs - fitted) ** 2))
    ss_tot = float(np.sum((logs - np.mean(logs)) ** 2))
    if ss_tot <= 1e-300:
        r2 = 1.0 if ss_res <= 1e-12 * max(1.0, float(np.sum(logs ** 2))) \
            else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    mu = float(np.exp(coef[0]))
    flag = "no decrease" if mu >= 1.0 - 1e-12 else None
    return RateFit(mu=mu, r2=r2, n_points=len(tail), flag=flag)


def estimate_rate(records, burn_in_fraction=0.4, noise_floor=0.0,
                  values=None):
    """Fit the decay rate mu of the combined gap (or of ``values``) on
    the tail of the run; see RateFit. Raises ValueError when fewer than
    20 usable records remain above the noise floor."""
    if values is None:
        pairs = [(rec.r, rec.combined) for rec in records]
    else:
        pairs = [(rec.r, v) for rec, v in zip(records, values)]
    return _fit_geometric(pairs, burn_in_fraction=burn_in_fraction,
                          noise_floor=noise_floor)


@dataclass
class LipschitzCheck:
    """Worst observed dual-gradient difference ratio vs. the 1/rho bound."""

    max_ratio: float
    bound: float
    min_distance: float
    n_pairs: int

    @property
    def passed(self):
        return self.max_ratio <= self.bound


def check_dual_lipschitz(problem, rho, n_pairs=100, radius=1.0, tol=1e-8,
                         seed=0):
    """Sample pairs of dual points within ``radius`` of the origin and
    bound the ratio ||grad d(y) - grad d(y')|| / ||y - y'||.

    The theoretical constant is 1 / rho; the returned bound adds
    10 * tol / min-pair-distance to absorb inner-solve error. Coincident
    pairs are skipped.
    """
    radius = _setting(radius, "radius", nonnegative=True)
    rng = np.random.default_rng(seed)
    max_ratio = 0.0
    min_dist = float("inf")
    used = 0
    warm = None
    for _ in range(n_pairs):
        y1 = radius * rng.standard_normal(problem.m)
        y2 = radius * rng.standard_normal(problem.m)
        dist = float(np.linalg.norm(y1 - y2))
        if dist <= 1e-12:
            continue
        inner1 = minimize_lagrangian(problem, y1, rho, tol=tol,
                                     warm_start=warm)
        inner2 = minimize_lagrangian(problem, y2, rho, tol=tol,
                                     warm_start=inner1.x_of_y)
        warm = inner2.x_of_y
        ratio = float(np.linalg.norm(inner1.dual_grad - inner2.dual_grad)) \
            / dist
        max_ratio = max(max_ratio, ratio)
        min_dist = min(min_dist, dist)
        used += 1
    if used == 0:
        raise ValueError("no usable dual pairs were sampled")
    bound = 1.0 / rho + 10.0 * tol / min_dist
    return LipschitzCheck(max_ratio=max_ratio, bound=bound,
                          min_distance=min_dist, n_pairs=used)


@dataclass
class ErrorBoundEstimate:
    """Empirical error-bound constants (surrogates, not certificates)."""

    tau_primal: float
    tau_dual: float
    dual_upper_bound_only: bool
    n_primal_used: int
    n_dual_used: int


def estimate_error_bound_constants(problem, rho, reference, n_samples=20,
                                   radius=1.0, tol=None, seed=0):
    """Estimate the constants tau in

        dist(x, X(y)) <= tau_primal * ||prox-gradient at (x, y)||
        dist(y, Y*)   <= tau_dual   * ||grad d(y)||

    by sampling perturbations of the reference. dist(x, X(y)) is upper
    bounded by the distance to the inner minimizer reached from x;
    dist(y, Y*) is upper bounded by ||y - y_ref||, which overestimates
    when the dual solution set is not a singleton — flagged via
    ``dual_upper_bound_only`` when E^T has a nontrivial kernel. Samples
    whose residual falls below the noise floor 100 * tol are skipped.
    """
    rho = _setting(rho, "rho")
    tol = _setting(reference.tol_ref if tol is None else tol, "tol")
    radius = _setting(radius, "radius", nonnegative=True)
    rng = np.random.default_rng(seed)
    floor = 100.0 * tol
    tau_p = 0.0
    n_p = 0
    for _ in range(n_samples):
        xs = problem.project_domains(
            reference.x + radius * rng.standard_normal(problem.n))
        pg = float(np.linalg.norm(
            proximal_gradient(problem, xs, reference.y, rho)))
        if pg <= floor:
            continue
        inner = minimize_lagrangian(problem, reference.y, rho, tol=tol,
                                    warm_start=xs)
        dist = float(np.linalg.norm(xs - inner.x_of_y))
        tau_p = max(tau_p, dist / pg)
        n_p += 1
    tau_d = 0.0
    n_d = 0
    warm = None
    for _ in range(n_samples):
        ys = reference.y + radius * rng.standard_normal(problem.m)
        inner = minimize_lagrangian(problem, ys, rho, tol=tol,
                                    warm_start=warm)
        warm = inner.x_of_y
        gnorm = float(np.linalg.norm(inner.dual_grad))
        if gnorm <= floor:
            continue
        tau_d = max(tau_d, float(np.linalg.norm(ys - reference.y)) / gnorm)
        n_d += 1
    return ErrorBoundEstimate(
        tau_primal=tau_p,
        tau_dual=tau_d,
        dual_upper_bound_only=problem.dual_nonunique,
        n_primal_used=n_p,
        n_dual_used=n_d,
    )


def alpha_bound_estimate(gamma, sigma_emp, tau_primal_emp, norm_E):
    """Estimated admissible dual stepsize bound
    gamma / (tau^2 * sigma^2 * ||E||^2), each constant positive and
    finite. An estimate, not a certificate: it inherits the empirical
    tau and sigma."""
    for name, value in (("gamma", gamma), ("sigma_emp", sigma_emp),
                        ("tau_primal_emp", tau_primal_emp),
                        ("norm_E", norm_E)):
        _setting(value, name)
    denom = (tau_primal_emp ** 2) * (sigma_emp ** 2) * (norm_E ** 2)
    return gamma / denom


def constructive_sigma(problem, rho):
    """The constant (c + 1) * sqrt(K) bounding ||prox-gradient|| by
    ||x^{r+1} - x^r|| for exact cyclic sweeps, with

        c = max_k (1 + L_k + rho * ||E_k|| * sum_{j <= k} ||E_j||)

    assembled from the per-block triangle bound on the prox-gradient
    error."""
    rho = _setting(rho, "rho")
    norms = [b.norm_E for b in problem.blocks]
    c = 0.0
    prefix = 0.0
    for k, b in enumerate(problem.blocks):
        prefix += norms[k]
        c = max(c, 1.0 + b.lipschitz + rho * norms[k] * prefix)
    return (c + 1.0) * float(np.sqrt(problem.K))


def check_function_value_convergence(problem, records, reference, rho,
                                     rel_tol=1e-9):
    """Verify the function-value identity on each record,

        f(x^{r+1}) - d* = dp^r - dd^r - <y^r, q - E x^{r+1}>
                          - (rho/2) ||E x^{r+1} - q||^2 ,

    and fit the geometric decay of |f(x^{r+1}) - d*| on the tail, as
    estimate_rate does. Returns (rows, fit); fit is None when too few
    points remain."""
    rho = _setting(rho, "rho")
    _require_states(records)
    rows = []
    for rec in records:
        res_next = problem.apply_E(rec.x_next) - problem.q
        lhs = rec.f_val - reference.d_star
        rhs = (rec.delta_p - rec.delta_d
               + float(np.dot(rec.y, res_next))
               - 0.5 * rho * float(np.dot(res_next, res_next)))
        slack = rel_tol * max(1.0, abs(lhs), abs(rhs))
        rows.append(CheckRow(rec.r, "function_value_identity", lhs, rhs,
                             slack, abs(lhs - rhs) <= slack))
    pairs = [(rec.r, abs(rec.f_val - reference.d_star)) for rec in records]
    try:
        fit = _fit_geometric(pairs, noise_floor=100.0 * reference.tol_ref)
    except ValueError:
        fit = None
    return rows, fit


@dataclass
class DiagnosticsReport:
    """Summary emitted after diagnosing a recorded run."""

    gamma_observed: float
    sigma_emp: float
    lipschitz_ratio_max: float
    rate_mu: float
    fit_r2: float
    tau_primal_emp: float
    tau_dual_emp: float
    monotone_combined: bool
    alpha_bound_estimate: float
    warnings: list = field(default_factory=list)

    def to_doc(self):
        return asdict(self)


def _combined_summary(records, tol_ref):
    """(rows, monotone, mu, r2, warnings) of the combined gap: one row per
    consecutive pair (it may rise by at most 10 * tol_ref, the noise of a
    reference solved to tol_ref), whether all pass, and its rate fit above
    100 * tol_ref, NaN with a warning when too few records remain."""
    rows = []
    for prev, cur in zip(records, records[1:]):
        diff = cur.combined - prev.combined
        rows.append(CheckRow(cur.r, "combined_monotone", diff, 0.0,
                             10.0 * tol_ref, diff <= 10.0 * tol_ref))
    monotone = all(row.passed for row in rows)
    try:
        fit = estimate_rate(records, noise_floor=100.0 * tol_ref)
    except ValueError as e:
        return rows, monotone, float("nan"), float("nan"), [str(e)]
    return (rows, monotone, fit.mu, fit.r2,
            ["rate fit: %s" % fit.flag] if fit.flag else [])


def _sigma_emp(records, step_floor):
    worst = 0.0
    for rec in records:
        if rec.step <= step_floor * (1.0 + float(np.linalg.norm(rec.x))):
            continue
        worst = max(worst, rec.pg / rec.step)
    return worst


def run_diagnostics(problem, records, rho, variant="gauss_seidel",
                    beta=None, tol_ref=1e-10, reference=None,
                    lipschitz_pairs=20, error_bound_samples=10):
    """Full diagnosis of a recorded run: fills gaps, checks every
    inequality, and assembles the report.

    The reference (solved to ``tol_ref`` when not given) sets the
    accuracy of every slack and noise floor. Returns (report, rows,
    records). Records must carry iterate states and be consecutive.
    """
    _require_states(records)
    gamma = gamma_value(problem, rho, variant=variant, beta=beta)
    if reference is None:
        reference = reference_solution(problem, rho, tol_ref=tol_ref)
    tol_ref = reference.tol_ref
    step_floor = 100.0 * tol_ref
    records, rows = compute_gaps(problem, records, reference, rho)
    descent_rows, gamma_observed = check_descent_lemma(
        problem, records, rho, gamma, variant=variant,
        step_floor=step_floor)
    rows += descent_rows
    rows += check_gap_decrease(problem, records, reference, gamma,
                               variant=variant)
    fv_rows, _fv_fit = check_function_value_convergence(
        problem, records, reference, rho)
    rows += fv_rows
    mono_rows, mono, rate_mu, fit_r2, warnings = _combined_summary(
        records, tol_ref)
    rows += mono_rows
    y_scale = max([1.0] + [float(np.linalg.norm(rec.y)) for rec in records])
    lip = check_dual_lipschitz(problem, rho, n_pairs=lipschitz_pairs,
                               radius=0.1 * y_scale,
                               tol=max(tol_ref * 100, 1e-9))
    rows.append(CheckRow(-1, "dual_lipschitz", lip.max_ratio, lip.bound,
                         0.0, lip.passed))
    err = estimate_error_bound_constants(
        problem, rho, reference, n_samples=error_bound_samples,
        tol=max(tol_ref, 1e-10))
    if err.dual_upper_bound_only:
        warnings.append(
            "dual solution set may be non-unique (E^T has a nontrivial "
            "kernel); tau_dual_emp is an upper-bound surrogate"
        )
    sigma = _sigma_emp(records, step_floor)
    if min(gamma, sigma, err.tau_primal, problem.norm_E) > 0:
        bound = alpha_bound_estimate(gamma, sigma, err.tau_primal,
                                     problem.norm_E)
    else:
        bound = float("inf")
        warnings.append(
            "stepsize bound not estimable (a constant degenerated to zero)"
        )
    report = DiagnosticsReport(
        gamma_observed=gamma_observed,
        sigma_emp=sigma,
        lipschitz_ratio_max=lip.max_ratio,
        rate_mu=rate_mu,
        fit_r2=fit_r2,
        tau_primal_emp=err.tau_primal,
        tau_dual_emp=err.tau_dual,
        monotone_combined=mono,
        alpha_bound_estimate=bound,
        warnings=warnings,
    )
    return report, rows, records
