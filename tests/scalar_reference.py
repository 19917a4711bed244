"""Straightforward references for the search schemes.

* Method 1: one Python-float bisection per beta sample, with a user-by-user
  power sum. The package bisects one row, "some beta fits", over the betas
  that still fit, and runs every beta as a numpy row in lockstep only when
  the iteration count is unproven or the load curve fails its knot check.
* The fixed-ratio family (method 2, oracle): every ratio vector is bisected
  and the best kept. The package bisects one row, each user's cheapest ratio
  (or the cheapest common ratio), and bisects every vector only to count
  iterations when their number is unproven.

Tests compare each reference with the package bit for bit.
"""

import itertools
import math

import numpy as np

from pscom_alloc import (
    BUDGET_RTOL,
    Method,
    SolveReport,
    beta_grid,
    beta_range,
    bisect_tau,
    channel_capacity,
    derive_allocation,
    p_t_from_tau,
)
from pscom_alloc.model import zero_allocation
from pscom_alloc.solvers import _CHUNK, _best_row, _comp_power_matrix, _fixed_eta_power_sums


def scalar_bisect_tau(feasible_at, lo, hi, epsilon):
    """Largest feasible tau in [lo, hi]: returns (tau, iterations, converged).

    Tests ``lo`` first; if it is infeasible the result is ``(lo, 0, False)``.
    Otherwise halves while ``hi - lo > epsilon``, stopping early when the
    midpoint no longer lies strictly inside the bracket.
    """
    lo = float(lo)
    hi = float(hi)
    if not feasible_at(lo):
        return lo, 0, False
    iterations = 0
    while hi - lo > epsilon:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # interval narrower than float resolution
        iterations += 1
        if feasible_at(mid):
            lo = mid
        else:
            hi = mid
    return lo, iterations, True


def beta_power_sum(p_t, caps, curve, params, tau):
    """Total power at target tau with fixed per-user transmit powers."""
    floor = curve.eta_floor
    p0 = params.p0_w_per_load
    total = 0.0
    for i in range(len(p_t)):
        eta = caps[i] / tau
        if eta > 1.0:
            eta = 1.0
        elif eta < floor:
            return math.inf
        total += p_t[i] + curve.load_at(eta) * p0
    return total


def solve_method1_scalar(channel, curve, params):
    """Method 1 with one scalar bisection per beta sample."""
    gains = [float(g) for g in channel.gains]
    n = len(gains)
    betas = beta_grid(beta_range(channel, params), params.m_beta_samples)
    budget_tol = params.p_max_w * (1.0 + BUDGET_RTOL)
    best_tau = -math.inf
    best = None
    iters_total = 0
    for beta_raw in betas:
        beta = float(beta_raw)
        p_t = [beta / g for g in gains]
        caps = [channel_capacity(p_t[i], gains[i], params) for i in range(n)]
        tau, iterations, converged = scalar_bisect_tau(
            lambda t: beta_power_sum(p_t, caps, curve, params, t) <= budget_tol,
            params.tau_lo_init,
            params.tau_hi_init,
            params.epsilon,
        )
        iters_total += iterations
        if converged and tau > best_tau:
            best_tau = tau
            best = (beta, p_t, caps)
    if best is None:
        return SolveReport(
            method=Method.METHOD1,
            tau_bps=0.0,
            allocation=zero_allocation(n),
            feasible=False,
            outer_candidates_evaluated=len(betas),
            bisection_iterations_total=iters_total,
        )
    beta, p_t, caps = best
    etas = [min(c / best_tau, 1.0) for c in caps]
    alloc = derive_allocation(etas, p_t, channel, curve, params)
    return SolveReport(
        method=Method.METHOD1,
        tau_bps=best_tau,
        allocation=alloc,
        feasible=True,
        outer_candidates_evaluated=len(betas),
        bisection_iterations_total=iters_total,
        winning_beta=beta,
    )


def solve_fixed_eta_exhaustive(method, channel, curve, params, vectors):
    """Fixed-ratio search that bisects every vector, in chunks of ``_CHUNK``.

    The best tau wins, ties toward the earliest vector; the counts are those
    of every vector's bisection.
    """
    gains = channel.gains
    budget_tol = params.p_max_w * (1.0 + BUDGET_RTOL)
    best = None
    n_seen = 0
    iters_total = 0
    it = iter(vectors)
    while True:
        chunk = list(itertools.islice(it, _CHUNK))
        if not chunk:
            break
        eta_mat = np.array(chunk, dtype=np.float64)
        p_c_mat = _comp_power_matrix(eta_mat, curve, params)
        outcome = bisect_tau(
            lambda taus: _fixed_eta_power_sums(eta_mat, p_c_mat, gains, params, taus)
            <= budget_tol,
            len(chunk),
            params.tau_lo_init,
            params.tau_hi_init,
            params.epsilon,
        )
        n_seen += len(chunk)
        iters_total += int(outcome.iterations.sum())
        k = _best_row(outcome)
        if k is not None and (best is None or outcome.tau_bps[k] > best[0]):
            best = (float(outcome.tau_bps[k]), chunk[k])
    if best is None:
        return SolveReport(
            method=method,
            tau_bps=0.0,
            allocation=zero_allocation(channel.n_users),
            feasible=False,
            outer_candidates_evaluated=n_seen,
            bisection_iterations_total=iters_total,
        )
    tau, eta_vec = best
    p_t = [
        p_t_from_tau(tau, eta_vec[n], float(channel.gains[n]), params)
        for n in range(channel.n_users)
    ]
    alloc = derive_allocation(eta_vec, p_t, channel, curve, params)
    return SolveReport(
        method=method,
        tau_bps=tau,
        allocation=alloc,
        feasible=True,
        outer_candidates_evaluated=n_seen,
        bisection_iterations_total=iters_total,
    )
