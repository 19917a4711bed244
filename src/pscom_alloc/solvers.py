"""Max-min rate solvers: two bisection schemes, two baselines, an oracle.

The optimization problem: choose per-user compression ratios and transmit
powers to maximize the minimum equivalent rate, subject to a shared budget on
transmit-plus-computation power, non-negative powers, and ratios within the
load curve's domain.

Both search schemes reduce the coupled problem to one-dimensional feasibility
bisections on the target rate tau, one per outer candidate:

* ``solve_method1`` fixes transmit powers proportional to inverse channel
  gain (a shared received-power level beta sampled on a grid) and solves the
  ratios from the equal-rate condition at each candidate tau.
* ``solve_method2`` fixes the ratio vector on the load curve's knot values
  (Cartesian product across users) and solves the transmit powers from the
  equal-rate condition; for a fixed ratio vector this inner bisection is
  exact, since equalizing all user rates is optimal.

All of these bisections run on one engine, :func:`bisect_tau`, which
advances rows in lockstep against a vectorized budget predicate. Method 1
bisects one row, "some beta fits", with the kernel ``_method1_power_sums``
over the betas that still fit at the row's lower bound; it bisects one row
per beta sample only when the iteration count is unproven or the load curve
fails a knot check. At a fixed tau the fixed-ratio budget (method 2, oracle)
separates by user, so one row always gives tau and the winner: each user's
cheapest ratio, or the cheapest common ratio in the shared-ratio search.
Iteration counts come from a meet-in-the-middle count of the vectors that fit
at ``tau_lo_init``, and for method 1 from the betas that fit there.

``solve_equal_power`` and ``solve_non_semantic`` are the comparison
baselines, and ``solve_oracle`` densifies the ratio grid for small instances
to validate the two schemes from below.

Everything is deterministic: candidate ties break toward the earliest
candidate (smallest beta, lexicographically first ratio vector).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .model import (
    Allocation,
    ChannelState,
    CompLoadCurve,
    Method,
    SolveReport,
    SystemParams,
    channel_capacity,
    comp_power,
    derive_allocation,
    equivalent_rate,
    zero_allocation,
)

__all__ = [
    "BUDGET_RTOL",
    "BisectionOutcome",
    "bisect_tau",
    "p_t_from_tau",
    "beta_range",
    "beta_grid",
    "enumerate_eta_vectors",
    "method1_power_sum",
    "method2_power_sum",
    "solve_method1",
    "solve_method2",
    "solve_equal_power",
    "solve_non_semantic",
    "solve_oracle",
    "ORACLE_MAX_USERS",
]

_LN2 = math.log(2.0)

# A power sum within this relative distance of the budget counts as exactly
# on-budget and is classified feasible; bisection then keeps converging
# instead of stopping early, which matters where the power sum is flat in tau
# (no compression active) and "on budget" does not pin down the optimum.
BUDGET_RTOL = 1e-12

ORACLE_MAX_USERS = 3

# Candidate vectors per numpy batch in the fixed-ratio solvers.
_CHUNK = 16384


@dataclass(frozen=True)
class BisectionOutcome:
    """Per-row result of one lockstep feasibility bisection.

    ``tau_bps`` holds each row's highest point tested feasible (the surviving
    lower bound). ``converged`` is False only for rows whose initial lower
    bound was already infeasible; those keep ``tau_bps == lo`` and zero
    ``iterations``.
    """

    tau_bps: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray


def bisect_tau(
    feasible_at: Callable[[np.ndarray], np.ndarray],
    n_rows: int,
    lo: float,
    hi: float,
    epsilon: float,
) -> BisectionOutcome:
    """Feasibility bisection for the largest feasible value in [lo, hi], per row.

    ``feasible_at`` maps a float64 array of ``n_rows`` per-row targets to a
    bool array and must be monotone in every row: true below the row's
    threshold, false above. Each row tests ``lo`` first, then loops while
    ``hi - lo > epsilon``, keeping ``lo`` feasible and ``hi`` infeasible, and
    stops early once its midpoint no longer lies strictly inside the bracket
    (float resolution). Rows advance in lockstep but never share bounds;
    finished rows are still evaluated, and their answers ignored.
    """
    lo = float(lo)
    hi = float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("bisection bounds must be finite")
    if not lo < hi:
        raise ValueError("bisection requires lo < hi")
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    lo_row = np.full(n_rows, lo)
    hi_row = np.full(n_rows, hi)
    converged = feasible_at(lo_row)
    iterations = np.zeros(n_rows, dtype=np.int64)
    active = converged & (hi_row - lo_row > epsilon)
    while np.any(active):
        mid = 0.5 * (lo_row + hi_row)
        active &= (lo_row < mid) & (mid < hi_row)
        feasible = feasible_at(mid)
        lo_row = np.where(active & feasible, mid, lo_row)
        hi_row = np.where(active & ~feasible, mid, hi_row)
        iterations += active
        active &= hi_row - lo_row > epsilon
    return BisectionOutcome(tau_bps=lo_row, iterations=iterations, converged=converged)


def _best_row(outcome: BisectionOutcome) -> int | None:
    """Row with the highest converged tau, earliest on ties; None if none."""
    if not np.any(outcome.converged):
        return None
    return int(np.argmax(np.where(outcome.converged, outcome.tau_bps, -math.inf)))


def p_t_from_tau(tau: float, eta: float, h: float, params: SystemParams) -> float:
    """Transmit power a user needs to hit rate tau at fixed ratio eta.

    Inverse of capacity followed by the equivalent-rate division: feeding the
    result back through those reproduces tau. Exponents beyond 1024 doublings
    saturate to +inf, which callers treat as beyond any budget.
    """
    if tau < 0:
        raise ValueError("tau must be non-negative")
    if not 0 < eta <= 1:
        raise ValueError("compression ratio must lie in (0, 1]")
    if h <= 0:
        raise ValueError("channel gain must be positive")
    exponent = tau * eta / params.bandwidth_hz
    if exponent > 1024.0:
        return math.inf
    try:
        growth = math.expm1(exponent * _LN2)
    except OverflowError:
        return math.inf
    return growth * params.noise_power_w / h


def beta_range(channel: ChannelState, params: SystemParams) -> float:
    """Upper end of the received-power range: budget over the inverse-gain sum.

    Valid received-power levels are [0, beta_max]; at beta_max the whole
    budget goes to transmission.
    """
    inv_gain_sum = float(np.sum(1.0 / channel.gains))
    return params.p_max_w / inv_gain_sum


def beta_grid(beta_max: float, m: int) -> np.ndarray:
    """m equidistant received-power samples on [0, beta_max], ends included."""
    if int(m) != m or m < 2:
        raise ValueError("need at least 2 grid samples")
    if not beta_max > 0:
        raise ValueError("beta_max must be positive")
    return np.linspace(0.0, beta_max, int(m))


def enumerate_eta_vectors(
    curve: CompLoadCurve, n_users: int
) -> Iterator[tuple[float, ...]]:
    """All ratio vectors over the knot candidates, lexicographic order.

    Yields the Cartesian product of the candidate set across users:
    (S+1)^n_users vectors, starting at all-ones. The caller is responsible
    for bounding n_users; the count grows exponentially.
    """
    return itertools.product(curve.candidate_etas, repeat=n_users)


# ---------------------------------------------------------------------------
# Proportional-received-power scheme (grid over beta, ratios from tau)
# ---------------------------------------------------------------------------


def _capacities(p_t_mat: np.ndarray, gains: np.ndarray, params: SystemParams) -> np.ndarray:
    # channel_capacity's operations in its order, elementwise: the same IEEE
    # results. math.log1p on purpose: np.log1p disagrees with it in the last
    # bit on some inputs, and the ratios must match the capacities
    # derive_allocation computes for the reported rates.
    snr = p_t_mat * gains / params.noise_power_w
    logs = np.fromiter(map(math.log1p, snr.ravel().tolist()), np.float64, snr.size)
    return params.bandwidth_hz * logs.reshape(snr.shape) / _LN2


def _method1_power_sums(
    p_t_mat: np.ndarray,
    caps_mat: np.ndarray,
    curve: CompLoadCurve,
    params: SystemParams,
    taus: np.ndarray,
) -> np.ndarray:
    """Row-wise total power at per-row targets taus with fixed transmit powers.

    Each user's ratio follows from the equal-rate condition (capacity over
    tau, clamped at 1, so tau = 0 clamps every ratio to 1). A row with some
    ratio below the curve domain, or undefined (0/0: zero power at tau = 0),
    is infeasible, reported as +inf. Users are added in index order, so each
    row sum is the left-to-right scalar sum bit for bit.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        eta = np.minimum(caps_mat / taus[:, None], 1.0)
        terms = p_t_mat + _comp_power_matrix(eta, curve, params)
        total = terms[:, 0].copy()
        for n in range(1, terms.shape[1]):
            total += terms[:, n]
        total[~np.all(eta >= curve.eta_floor, axis=1)] = math.inf
    return total


def method1_power_sum(
    channel: ChannelState,
    curve: CompLoadCurve,
    params: SystemParams,
    beta: float,
    tau: float,
) -> float:
    """Budget predicate body for the proportional-power scheme.

    Same arithmetic as the solver's inner bisection (single-row batch), so
    tests can certify the winning candidate bit for bit.
    """
    p_t = float(beta) / channel.gains[None, :]
    caps = _capacities(p_t, channel.gains, params)
    taus = np.array([float(tau)])
    return float(_method1_power_sums(p_t, caps, curve, params, taus)[0])


def _interp_non_increasing(curve: CompLoadCurve) -> bool:
    """Whether ``np.interp`` on the curve never rises from just below a knot to it."""
    xs, ys = curve._etas_asc, curve._loads_asc
    below = np.interp(np.nextafter(xs, -math.inf), xs, ys)
    return bool(np.all(below >= np.interp(xs, xs, ys)))


def solve_method1(
    channel: ChannelState, curve: CompLoadCurve, params: SystemParams
) -> SolveReport:
    """Grid search over the shared received-power level with inner bisection.

    For each sampled beta, transmit powers are beta over the gain (equal
    received power, hence equal capacity up to rounding) and tau is bisected
    against the power budget. Reports what bisecting every beta reports: the
    best tau across the grid wins, ties toward the smaller beta, with every
    beta's counts.

    One row gives tau: "some beta fits", as in ``_best_fixed_eta`` (its proof
    (a): that row's path is the best beta's path, bit for bit). After each
    feasible answer the row keeps only the betas that fit; every midpoint it
    tests later lies above that point, where a dropped beta cannot fit. The
    winner is the first beta that fits at tau, from one call over the whole
    grid, not from the survivors: ``bisect_tau`` may test ``mid == hi`` after
    a float-resolution stop and ignore the answer. Each beta that fits at
    ``tau_lo_init`` counts K iterations (``_path_independent_iterations``).

    Proof that each beta's predicate is a step in tau, true then false. The
    ratio min(cap / tau, 1) does not rise with tau: IEEE division and min
    are monotone, and 0/0 (NaN, infeasible) occurs only at tau = 0, for a
    zero capacity, which is below the floor at every tau > 0 too. The load
    ``np.interp`` gives does not fall as the ratio falls: inside a segment
    the slope-point formula, slope <= 0 times x - x_j plus y_j, is monotone
    and at most y_j, the value at the knot x_j itself, and
    ``_interp_non_increasing`` checks each segment's other end, just below
    the next knot. Scaling by p0 >= 0, adding the transmit power and summing
    in index order are monotone, and the test ratio >= ``eta_floor`` fails
    from some tau on. So the sum does not fall as tau rises, and "sum <=
    budget" holds up to a point and fails beyond it. Without a proven K, or
    on a curve that fails the knot check, every beta is bisected in lockstep.
    """
    n = channel.n_users
    betas = beta_grid(beta_range(channel, params), params.m_beta_samples)
    p_t = betas[:, None] / channel.gains[None, :]
    caps = _capacities(p_t, channel.gains, params)
    budget_tol = params.p_max_w * (1.0 + BUDGET_RTOL)
    lo, hi, eps = float(params.tau_lo_init), params.tau_hi_init, params.epsilon
    k_iters = _path_independent_iterations(lo, hi, eps)

    def fits(taus: np.ndarray, rows=slice(None)) -> np.ndarray:
        return _method1_power_sums(p_t[rows], caps[rows], curve, params, taus) <= budget_tol

    if k_iters is None or not _interp_non_increasing(curve):
        outcome = bisect_tau(fits, len(betas), lo, hi, eps)
        iters_total = int(outcome.iterations.sum())
        k = _best_row(outcome)
    else:
        survivors = np.flatnonzero(fits(np.array([lo])))
        iters_total = k_iters * len(survivors)

        def some_fit(taus: np.ndarray) -> np.ndarray:  # one target tau, shape (1,)
            nonlocal survivors
            fit = fits(taus, survivors)
            if fit.any():
                survivors = survivors[fit]
            return fit.any(keepdims=True)

        outcome = bisect_tau(some_fit, 1, lo, hi, eps)
        k = int(np.argmax(fits(outcome.tau_bps))) if outcome.converged[0] else None
    if k is None:
        return SolveReport(
            method=Method.METHOD1,
            tau_bps=0.0,
            allocation=zero_allocation(n),
            feasible=False,
            outer_candidates_evaluated=len(betas),
            bisection_iterations_total=iters_total,
        )
    tau = float(np.max(outcome.tau_bps[outcome.converged]))  # the best row's
    # the winning row converged, so its ratios are defined even at tau = 0
    with np.errstate(divide="ignore"):
        etas = np.minimum(caps[k] / tau, 1.0)
    alloc = derive_allocation(etas, p_t[k], channel, curve, params)
    return SolveReport(
        method=Method.METHOD1,
        tau_bps=tau,
        allocation=alloc,
        feasible=True,
        outer_candidates_evaluated=len(betas),
        bisection_iterations_total=iters_total,
        winning_beta=float(betas[k]),
    )


# ---------------------------------------------------------------------------
# Fixed-ratio family (knot candidates, oracle grids); batched bisection
# ---------------------------------------------------------------------------


def _fixed_eta_power_terms(
    eta_mat: np.ndarray,
    p_c_mat: np.ndarray,
    gains: np.ndarray,
    params: SystemParams,
    taus: np.ndarray,
) -> np.ndarray:
    """Per-user total power for ratio vectors eta_mat at per-row targets taus.

    Transmit powers invert the equal-rate condition; overflow saturates to +inf
    (callers silence it). A ratio column gives a per-(ratio, user) table.
    """
    exponent = taus[:, None] * eta_mat / params.bandwidth_hz
    growth = np.expm1(exponent * _LN2)
    p_t = growth * params.noise_power_w / gains[None, :]
    return p_t + p_c_mat


def _fixed_eta_power_sums(
    eta_mat: np.ndarray,
    p_c_mat: np.ndarray,
    gains: np.ndarray,
    params: SystemParams,
    taus: np.ndarray,
) -> np.ndarray:
    """Row-wise total power for ratio vectors eta_mat at per-row targets taus."""
    with np.errstate(over="ignore"):
        return np.sum(_fixed_eta_power_terms(eta_mat, p_c_mat, gains, params, taus), axis=1)


def method2_power_sum(
    channel: ChannelState,
    curve: CompLoadCurve,
    params: SystemParams,
    eta_values: Iterable[float],
    tau: float,
) -> float:
    """Budget predicate body for a fixed ratio vector at target tau.

    Same arithmetic as the batched inner bisection (single-row batch), so
    tests can certify winning candidates bit for bit.
    """
    eta_vec = [float(e) for e in eta_values]
    if len(eta_vec) != channel.n_users:
        raise ValueError("ratio vector length must match the user count")
    for e in eta_vec:
        if not curve.eta_floor <= e <= 1.0:
            raise ValueError(f"ratio {e!r} outside curve domain")
    eta_mat = np.array([eta_vec])
    p_c_mat = _comp_power_matrix(eta_mat, curve, params)
    taus = np.array([float(tau)])
    return float(_fixed_eta_power_sums(eta_mat, p_c_mat, channel.gains, params, taus)[0])


def _comp_power_matrix(
    eta_mat: np.ndarray, curve: CompLoadCurve, params: SystemParams
) -> np.ndarray:
    # np.interp evaluates the identical slope-point formula as load_at, so
    # batched and scalar computation powers agree bit for bit.
    loads = np.interp(eta_mat, curve._etas_asc, curve._loads_asc)
    return loads * params.p0_w_per_load


def _path_independent_iterations(lo: float, hi: float, epsilon: float) -> int | None:
    """Iterations every row feasible at ``lo`` runs in ``bisect_tau``, if fixed.

    Returns K when it can prove that every such row, whatever its threshold,
    runs exactly K iterations on the bracket [lo, hi] with tolerance epsilon;
    None when it cannot.

    Proof. Let M = max(|lo|, |hi|); every bound a row holds lies in [lo, hi].
    A computed midpoint is within 1 ulp(M) of the exact midpoint of the
    current bounds (the sum rounds by at most 1 ulp(M), halving is exact up
    to subnormals), so after k halvings the bracket's real width is within
    2 ulp(M) of the exact D / 2^k, D = hi - lo, on every path, and the
    computed width ``hi - lo`` adds at most 1 ulp(M). With the margin
    4 ulp(M): while D / 2^k > epsilon + margin the width test passes, and
    while D / 2^k > margin the midpoint lies strictly inside the bracket, so
    no row stops at float resolution; once D / 2^K < epsilon - margin the
    width test fails. Any exact width within the margin of epsilon, or of
    the float-resolution stop, leaves K unproven.
    """
    big = max(abs(lo), abs(hi))
    if not 2.0 * big < math.inf:
        return None  # lo + hi may overflow

    def units(x: float) -> int:  # every float is an integer multiple of 2^-1074
        num, den = x.as_integer_ratio()
        return num * ((1 << 1074) // den)

    width = units(hi) - units(lo)
    eps = units(epsilon)
    margin = units(4.0 * math.ulp(big))
    k = 0
    while width > eps << k:  # exact width after k halvings: width / 2^k
        if width <= (eps + margin) << k or width <= margin << k:
            return None
        k += 1
    if width >= (eps - margin) << k:
        return None
    return k


def _index_batches(base: int, n_users: int) -> Iterator[np.ndarray]:
    """Knot-index matrices of the candidate vectors, ``_CHUNK`` rows each.

    Row r holds the base-``base`` digits of r, most significant first: the
    order of ``itertools.product(range(base), repeat=n_users)``.
    """
    total = base**n_users
    for start in range(0, total, _CHUNK):
        rem = np.arange(start, min(start + _CHUNK, total))
        idx = np.empty((len(rem), n_users), dtype=np.int64)
        for col in range(n_users - 1, -1, -1):
            rem, idx[:, col] = np.divmod(rem, base)
        yield idx


def _fits(table: np.ndarray, idx: np.ndarray, budget_tol: float) -> np.ndarray:
    """Whether each knot-index row of ``idx``, summed over ``table``, fits."""
    return np.sum(table[idx, np.arange(table.shape[1])], axis=1) <= budget_tol


def _count_fitting(table: np.ndarray, budget_tol: float) -> int:
    """How many knot-index rows over ``table`` ``_fits``, by meet in the middle.

    The first ceil(N/2) entries of a vector sum to a, the rest to b (Horowitz
    & Sahni, 1974). With T = budget_tol, m = 3N ulp(T), t1 = fl(T - m) and
    t2 = fl(T + m), a <= fl(t1 - b) fits, a > fl(t2 - b) does not, and
    ``_fits`` decides the rest. Proof: adding N terms in [0, +inf] in any
    order, as ``np.sum``'s s and a + b do, gives S(1 + d), S exact, |d| <= g
    = ku/(1 - ku), k = N - 1, u = 2^-53 (Higham, 2002, sec. 4.2); fl(x) is
    within u|x| of x; m >= 3NuT; 6Nu <= 1. Fits: a >= 0 gives b <= t1, so
    a + b <= t1(1 + u) <= (T - m)(1 + u)^2 and s <= (a + b)/(1 - 2ku) <= T.
    Not: a + b > t2(1 - u) >= (T + m)(1 - u)^2, s >= (a + b)(1 - 2ku) > T.
    Overflow rounds up, breaking only upper bounds: infinite a or b means
    S(1 + g) >= 2^1024 (1 - u), s > 2^1023 >= T. Above it all are undecided.
    """
    n, cols = table.shape
    a, b = (sum(np.ix_(*h.T), np.zeros(())).ravel() for h in np.hsplit(table, [(cols + 1) // 2]))
    order = np.argsort(a)
    m = 3 * cols * math.ulp(budget_tol)
    t1, t2 = (budget_tol - m, budget_tol + m) if budget_tol <= 2.0**1023 else (-math.inf, math.nan)
    fit, maybe = np.searchsorted(a[order], [t1 - b, t2 - b], side="right")
    for j in np.flatnonzero(maybe > fit):  # vector (i, j) sits at i * len(b) + j
        rows = np.unravel_index(order[fit[j] : maybe[j]] * len(b) + j, (n,) * cols)
        fit[j] += np.count_nonzero(_fits(table, np.column_stack(rows), budget_tol))
    return int(fit.sum())


def _best_fixed_eta(
    method: Method,
    channel: ChannelState,
    curve: CompLoadCurve,
    params: SystemParams,
    values: Iterable[float],
    shared: bool,
) -> SolveReport:
    """Search all ratio vectors over ``values`` (``shared``: one common ratio).

    Reports what bisecting every vector reports: the highest converged tau
    wins, ties toward the earliest vector, with every vector's counts (see
    ``SolveReport``). One row gives tau and the winner for every bracket:
    each column's cheapest ratio in a per-(ratio, column) table at each tau.
    The full product has one column per user, built by
    ``_fixed_eta_power_terms``; the shared search has one column, each
    ratio's sum over the users.

    Proof. (a) Every row of ``bisect_tau`` runs the same arithmetic, and a
    row's path depends only on where its threshold lies, so the best row's
    result tau* is that of the "some vector fits" row. A vector that fits at
    tau* answers each point of that path alike (the feasible ones lie at or
    below tau*) and ties; any other ends below. So the ties are exactly the
    vectors that fit at tau*, and the first in product order is built column
    by column: each takes the first ratio with which the chosen prefix,
    completed by the later columns' cheapest ratios, still fits. (b) Rounding
    is monotone, so under ``np.sum``'s fixed summation tree the row of
    per-column minima has the least sum of any vector, and it is itself a
    vector of the search. (c) ``np.sum(axis=1)`` gives each row of a
    C-contiguous (m, N) block the same bits for every m, and the table holds
    the kernel's elementwise bits; a one-column row sums to its one entry.
    None of this uses the counts: K (``_path_independent_iterations``) times
    ``_count_fitting`` at ``tau_lo_init``, else every vector bisected.
    """
    n = channel.n_users
    cols = 1 if shared else n
    gains = channel.gains
    budget_tol = params.p_max_w * (1.0 + BUDGET_RTOL)
    lo, hi, eps = float(params.tau_lo_init), params.tau_hi_init, params.epsilon
    k_iters = _path_independent_iterations(lo, hi, eps)
    values = np.array(values, dtype=np.float64)
    p_c = _comp_power_matrix(values, curve, params)

    def table_at(taus: np.ndarray) -> np.ndarray:  # one target tau, shape (1,)
        with np.errstate(over="ignore"):
            table = _fixed_eta_power_terms(values[:, None], p_c[:, None], gains, params, taus)
            return np.sum(table, axis=1, keepdims=True) if shared else table

    if k_iters is not None:
        iters_total = k_iters * _count_fitting(table_at(np.array([lo])), budget_tol)
    else:
        iters_total = 0
        for idx in _index_batches(len(values), cols):
            eta_mat, p_c_mat = values[idx], p_c[idx]
            outcome = bisect_tau(
                lambda taus: _fixed_eta_power_sums(eta_mat, p_c_mat, gains, params, taus)
                <= budget_tol,
                len(idx), lo, hi, eps,
            )
            iters_total += int(outcome.iterations.sum())
    outcome = bisect_tau(
        lambda taus: _fits(t := table_at(taus), np.argmin(t, axis=0)[None], budget_tol),
        1, lo, hi, eps,
    )
    feasible = bool(outcome.converged[0])
    if feasible:
        tau = float(outcome.tau_bps[0])
        table = table_at(outcome.tau_bps)
        row = np.argmin(table, axis=0)
        for col in range(cols):
            idx = np.tile(row, (len(values), 1))
            idx[:, col] = np.arange(len(values))
            row[col] = np.flatnonzero(_fits(table, idx, budget_tol))[0]
        eta_vec = tuple(float(v) for v in values[np.broadcast_to(row, (n,))])
        p_t = [p_t_from_tau(tau, eta_vec[i], float(gains[i]), params) for i in range(n)]
        alloc = derive_allocation(eta_vec, p_t, channel, curve, params)
    else:
        tau, alloc = 0.0, zero_allocation(n)
    return SolveReport(
        method=method,
        tau_bps=tau,
        allocation=alloc,
        feasible=feasible,
        outer_candidates_evaluated=len(values) ** cols,
        bisection_iterations_total=iters_total,
    )


def solve_method2(
    channel: ChannelState,
    curve: CompLoadCurve,
    params: SystemParams,
    shared_eta: bool = False,
) -> SolveReport:
    """Exhaustive search over knot-valued ratio vectors with exact inner step.

    With the ratio vector fixed the computation power is fixed, and the
    remaining max-min power allocation is solved exactly (to epsilon) by
    bisecting tau against the budget: equalizing every user's rate is
    optimal there. ``shared_eta=True`` restricts the search to one common
    ratio for all users instead of the full Cartesian product.
    """
    return _best_fixed_eta(
        Method.METHOD2, channel, curve, params, curve.candidate_etas, shared_eta
    )


def _oracle_candidates(
    curve: CompLoadCurve, grid_points_per_segment: int
) -> tuple[float, ...]:
    """Knot ratios plus equidistant interior points per segment, descending."""
    cands = [1.0]
    for s in range(curve.num_segments):
        e_hi = curve.knots[s][0]
        e_lo = curve.knots[s + 1][0]
        if grid_points_per_segment > 0:
            interior = np.linspace(e_hi, e_lo, grid_points_per_segment + 2)[1:-1]
            cands.extend(float(v) for v in interior)
        cands.append(e_lo)
    return tuple(cands)


def solve_oracle(
    channel: ChannelState,
    curve: CompLoadCurve,
    params: SystemParams,
    grid_points_per_segment: int = 10,
) -> SolveReport:
    """Brute-force lower bound on the optimum for small instances.

    Runs the exact fixed-ratio inner solve over a dense per-user ratio grid
    (all knots plus ``grid_points_per_segment`` interior points per segment).
    With zero grid points the candidate set collapses to the knot set and the
    result coincides with ``solve_method2``. Cost grows as grid^n_users, so
    instances are capped at ``ORACLE_MAX_USERS`` users.
    """
    if channel.n_users > ORACLE_MAX_USERS:
        raise ValueError(
            f"oracle is limited to {ORACLE_MAX_USERS} users "
            f"(got {channel.n_users}); cost grows exponentially"
        )
    if grid_points_per_segment < 0:
        raise ValueError("grid_points_per_segment must be non-negative")
    cands = _oracle_candidates(curve, grid_points_per_segment)
    return _best_fixed_eta(Method.ORACLE, channel, curve, params, cands, False)


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def _golden_max(f: Callable[[float], float], a: float, b: float, tol: float) -> float:
    """Golden-section maximizer on [a, b]; returns the bracket midpoint."""
    width = b - a
    if width <= tol:
        return 0.5 * (a + b)
    c = a + _INVPHI2 * width
    d = a + _INVPHI * width
    yc = f(c)
    yd = f(d)
    while width > tol:
        if yc > yd:
            b, d, yd = d, c, yc
            width = b - a
            c = a + _INVPHI2 * width
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            width = b - a
            d = a + _INVPHI * width
            yd = f(d)
    return 0.5 * (a + b)


def _best_user_ratio(
    h: float, curve: CompLoadCurve, params: SystemParams, budget_w: float
) -> tuple[float, float]:
    """Maximize one user's rate over the ratio, within a power budget.

    The rate as a function of the ratio is smooth inside each load-curve
    segment but kinked at breakpoints, so each segment (cut down to where
    computation power fits the budget) is searched separately with
    golden-section, and all segment optima, knots and budget boundaries are
    compared. Returns (ratio, rate).
    """

    def rate_at(eta: float) -> float:
        p_c = comp_power(curve, eta, params)
        p_t = budget_w - p_c
        if p_t < 0:
            p_t = 0.0  # only reachable by rounding at the budget boundary
        return equivalent_rate(channel_capacity(p_t, h, params), eta)

    p0 = params.p0_w_per_load
    best_eta = 1.0
    best_rate = rate_at(1.0)
    loads = [k[1] for k in curve.knots]
    for s in range(curve.num_segments):
        e_hi = curve.knots[s][0]
        e_lo = curve.knots[s + 1][0]
        if p0 > 0:
            load_cap = budget_w / p0
            if loads[s] > load_cap:
                break  # this and all lower segments exceed the budget
            if loads[s + 1] > load_cap:
                # cut the segment at the ratio where computation power
                # exhausts the budget; clamp against rounding drift past
                # the segment bounds
                cut = (load_cap - curve.intercepts[s]) / curve.slopes[s]
                e_lo = min(max(cut, curve.knots[s + 1][0]), e_hi)
        for eta in (e_lo, _golden_max(rate_at, e_lo, e_hi, 1e-9)):
            r = rate_at(eta)
            if r > best_rate:
                best_rate = r
                best_eta = eta
    return best_eta, best_rate


def solve_equal_power(
    channel: ChannelState, curve: CompLoadCurve, params: SystemParams
) -> SolveReport:
    """Baseline: split the budget equally, optimize each user independently.

    Every user gets p_max/N and picks the ratio maximizing its own rate
    (transmit power is whatever the ratio's computation power leaves over).
    The scheme's value is the worst user's optimum.
    """
    n = channel.n_users
    budget = params.p_max_w / n
    if budget <= 0:
        return SolveReport(
            method=Method.EQUAL_POWER,
            tau_bps=0.0,
            allocation=zero_allocation(n),
            feasible=False,
            outer_candidates_evaluated=n,
            bisection_iterations_total=0,
        )
    etas = []
    p_ts = []
    for i in range(n):
        eta, _ = _best_user_ratio(float(channel.gains[i]), curve, params, budget)
        p_c = comp_power(curve, eta, params)
        p_t = budget - p_c
        if p_t < 0:
            p_t = 0.0
        etas.append(eta)
        p_ts.append(p_t)
    alloc = derive_allocation(etas, p_ts, channel, curve, params)
    return SolveReport(
        method=Method.EQUAL_POWER,
        tau_bps=alloc.tau_bps,
        allocation=alloc,
        feasible=True,
        outer_candidates_evaluated=n,
        bisection_iterations_total=0,
    )


def solve_non_semantic(channel: ChannelState, params: SystemParams) -> SolveReport:
    """Baseline: no compression, power inversely proportional to the gain.

    All users see the same received power, hence equal rates, and the whole
    budget goes to transmission.
    """
    beta_max = beta_range(channel, params)
    gains = [float(g) for g in channel.gains]
    p_t = [beta_max / g for g in gains]
    rates = [
        equivalent_rate(channel_capacity(p_t[i], gains[i], params), 1.0)
        for i in range(len(gains))
    ]
    n = len(gains)
    alloc = Allocation(
        eta=np.ones(n),
        p_t_w=np.array(p_t),
        p_c_w=np.zeros(n),
        rates_bps=np.array(rates),
        tau_bps=min(rates),
    )
    return SolveReport(
        method=Method.NON_SEMANTIC,
        tau_bps=alloc.tau_bps,
        allocation=alloc,
        feasible=True,
        outer_candidates_evaluated=1,
        bisection_iterations_total=0,
    )
