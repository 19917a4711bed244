import dataclasses
import itertools
import math
import sys
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pscom_alloc import (
    BUDGET_RTOL,
    ChannelState,
    Method,
    SystemParams,
    beta_grid,
    beta_range,
    bisect_tau,
    channel_capacity,
    check_feasible,
    comp_power,
    enumerate_eta_vectors,
    equivalent_rate,
    generate_channel_gains,
    method1_power_sum,
    method2_power_sum,
    p_t_from_tau,
    solve_equal_power,
    solve_method1,
    solve_method2,
    solve_non_semantic,
    solve_oracle,
    validate_curve,
)
from pscom_alloc import solvers
from pscom_alloc.solvers import (
    _CHUNK,
    _capacities,
    _comp_power_matrix,
    _count_fitting,
    _fits,
    _fixed_eta_power_terms,
    _index_batches,
    _interp_non_increasing,
    _method1_power_sums,
    _oracle_candidates,
    _path_independent_iterations,
)

import scalar_reference
from scalar_reference import scalar_bisect_tau, solve_fixed_eta_exhaustive, solve_method1_scalar

NON_SEMANTIC_2USER = 1e7 * math.log2(4001)  # h=[1e-9,2e-9], P=6, B=1e7, s2=1e-12


def budget_tol(params):
    return params.p_max_w * (1.0 + BUDGET_RTOL)


# ---------------------------------------------------------------------------
# closed-form building blocks
# ---------------------------------------------------------------------------


class TestEtaFromTau:
    """The ratio the method-1 kernel derives from tau: capacity over tau,
    clamped at 1, infeasible below the curve floor."""

    P_T = 1e-3
    H = 1e-9  # with P_T, snr = 1 and capacity = B

    def power_sum(self, params, curve, taus):
        p_t = np.full((len(taus), 1), self.P_T)
        caps = np.full((len(taus), 1), channel_capacity(self.P_T, self.H, params))
        return _method1_power_sums(p_t, caps, curve, params, np.array(taus, dtype=float))

    def test_unit_snr_at_bandwidth_rate(self, params, curve):
        # snr=1 and tau=B force a ratio of exactly 1: no computation power
        assert self.power_sum(params, curve, [1e7])[0] == self.P_T

    def test_double_rate_halves_ratio(self, params, curve):
        expect = self.P_T + comp_power(curve, 0.5, params)
        assert self.power_sum(params, curve, [2e7])[0] == pytest.approx(expect, rel=1e-12)

    def test_below_floor_is_infeasible(self, params, curve):
        assert self.power_sum(params, curve, [1e9])[0] == math.inf

    def test_overshoot_clamps_to_one(self, params, curve):
        assert self.power_sum(params, curve, [5e6])[0] == self.P_T

    def test_zero_tau_clamps_every_ratio_to_one(self, params, curve, two_user_channel):
        beta = 1e-9
        expect = sum(beta / g for g in two_user_channel.gains)
        with np.errstate(all="raise"):
            at_zero = method1_power_sum(two_user_channel, curve, params, beta, 0.0)
            # zero power at tau = 0 leaves the ratio undefined (0/0): infeasible
            idle = method1_power_sum(two_user_channel, curve, params, 0.0, 0.0)
        assert at_zero == expect
        assert idle == math.inf

    def test_rows_are_independent(self, params, curve):
        sums = self.power_sum(params, curve, [5e6, 1e9, 1e7])
        assert list(sums) == [self.P_T, math.inf, self.P_T]


class TestPtFromTau:
    def test_zero_rate_needs_zero_power(self, params):
        assert p_t_from_tau(0.0, 0.5, 1e-9, params) == 0.0

    def test_hand_value(self, params):
        # exponent tau*eta/B = 1, so (2-1) * sigma^2/h = 1e-3 W
        assert p_t_from_tau(2e7, 0.5, 1e-9, params) == pytest.approx(1e-3, rel=1e-12)

    def test_overflow_guard_saturates(self, params):
        assert p_t_from_tau(2e13, 1.0, 1e-9, params) == math.inf

    def test_validation(self, params):
        with pytest.raises(ValueError):
            p_t_from_tau(-1.0, 0.5, 1e-9, params)
        with pytest.raises(ValueError):
            p_t_from_tau(1e7, 1.5, 1e-9, params)
        with pytest.raises(ValueError):
            p_t_from_tau(1e7, 0.5, 0.0, params)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        tau=st.floats(min_value=1e3, max_value=3e9),
        eta=st.floats(min_value=0.05, max_value=1.0),
        h=st.floats(min_value=1e-10, max_value=1e-8),
    )
    def test_round_trip_reproduces_tau(self, params, tau, eta, h):
        p = p_t_from_tau(tau, eta, h, params)
        back = equivalent_rate(channel_capacity(p, h, params), eta)
        assert back == pytest.approx(tau, rel=1e-9)


class TestBetaRange:
    def test_two_user_value(self, params, two_user_channel):
        # 1/h sums to 1.5e9, so 6 W spreads to 4e-9 received
        assert beta_range(two_user_channel, params) == pytest.approx(4e-9, rel=1e-12)

    def test_single_user(self, params):
        chan = ChannelState(np.array([1e-9]))
        assert beta_range(chan, params) == pytest.approx(6e-9, rel=1e-12)

    def test_equal_gains_symbolic(self, params):
        g = 3.7e-9
        chan = ChannelState(np.array([g, g]))
        assert beta_range(chan, params) == pytest.approx(params.p_max_w * g / 2, rel=1e-12)


class TestBetaGrid:
    def test_five_samples(self):
        grid = beta_grid(4e-9, 5)
        assert grid[0] == 0.0 and grid[-1] == 4e-9
        assert grid == pytest.approx([0.0, 1e-9, 2e-9, 3e-9, 4e-9], rel=1e-12)

    def test_two_samples_are_endpoints(self):
        assert list(beta_grid(7e-9, 2)) == [0.0, 7e-9]

    def test_default_count(self):
        grid = beta_grid(4e-9, 500)
        assert len(grid) == 500
        steps = np.diff(grid)
        assert steps == pytest.approx(np.full(499, 4e-9 / 499), rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            beta_grid(4e-9, 1)
        with pytest.raises(ValueError):
            beta_grid(0.0, 5)


def always(value):
    return lambda t: np.full(len(t), value)


class TestBisectTau:
    def test_iteration_bound(self):
        threshold = 5e9
        out = bisect_tau(lambda t: t <= threshold, 1, 1e-3, 1e10, 1e-4)
        assert out.converged[0]
        assert out.iterations[0] <= 47  # ceil(log2(1e14))
        assert abs(out.tau_bps[0] - threshold) <= 1e-4

    def test_infeasible_at_lower_bound(self):
        out = bisect_tau(always(False), 1, 1e-3, 1e10, 1e-4)
        assert not out.converged[0]
        assert out.tau_bps[0] == 1e-3
        assert out.iterations[0] == 0

    def test_feasible_everywhere_saturates(self):
        out = bisect_tau(always(True), 1, 0.0, 100.0, 1e-3)
        assert out.converged[0]
        assert out.tau_bps[0] >= 100.0 - 1e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            bisect_tau(always(True), 1, 0.0, math.inf, 1e-4)
        with pytest.raises(ValueError):
            bisect_tau(always(True), 1, 5.0, 1.0, 1e-4)
        with pytest.raises(ValueError):
            bisect_tau(always(True), 1, 0.0, 1.0, 0.0)

    def test_rows_are_independent(self):
        # one call mixing a row that converges to epsilon, a row infeasible at
        # lo, and a row whose threshold sits where float spacing exceeds
        # epsilon, so it stops at float resolution
        lo, hi, eps = 1e-3, 1e15, 1e-4
        thresholds = np.array([5e9, 1e-4, 3e14])
        out = bisect_tau(lambda t: t <= thresholds, 3, lo, hi, eps)
        for row, threshold in enumerate(thresholds):
            ref = scalar_bisect_tau(lambda t: t <= threshold, lo, hi, eps)
            assert (out.tau_bps[row], out.iterations[row], out.converged[row]) == ref
        assert list(out.converged) == [True, False, True]
        assert abs(out.tau_bps[0] - 5e9) <= eps
        assert out.tau_bps[1] == lo and out.iterations[1] == 0
        assert out.tau_bps[2] == 3e14
        assert np.nextafter(3e14, math.inf) - 3e14 > eps


class TestPathIndependentIterations:
    """The helper that lets the fixed-ratio search count without bisecting."""

    def test_stock_bracket(self):
        assert _path_independent_iterations(1e-3, 1e10, 1e-4) == 47
        assert _path_independent_iterations(0.0, 1e10, 1e-4) == 47

    def test_width_exactly_at_epsilon_is_unproven(self):
        # [0, 1] halves to exactly 0.25 after two steps; rounding decides
        assert _path_independent_iterations(0.0, 1.0, 0.25) is None

    def test_epsilon_below_float_resolution_is_unproven(self):
        # rows stop when no float lies inside the bracket, at a step that
        # depends on where they converge
        assert _path_independent_iterations(1e-3, 1e10, 1e-9) is None
        assert _path_independent_iterations(1.0, 2.0, 1e-17) is None

    @settings(max_examples=200, deadline=None)
    @given(
        lo=st.floats(-1e6, 1e6),
        width=st.floats(1e-6, 1e12),
        halvings=st.floats(-2.0, 60.0),
        fractions=st.lists(st.floats(-0.1, 1.1), min_size=1, max_size=16),
    )
    def test_every_converged_row_runs_k_iterations(self, lo, width, halvings, fractions):
        hi = lo + width
        epsilon = width * 2.0**-halvings
        k = _path_independent_iterations(lo, hi, epsilon)
        if k is None:
            return
        thresholds = np.array([lo + f * (hi - lo) for f in fractions] + [lo, hi])
        out = bisect_tau(lambda t: t <= thresholds, len(thresholds), lo, hi, epsilon)
        assert out.converged[-2] and out.converged[-1]
        assert np.all(out.iterations[out.converged] == k)


class TestCandidateEnumeration:
    def test_counts(self, curve):
        assert len(list(enumerate_eta_vectors(curve, 2))) == 25
        assert len(list(enumerate_eta_vectors(curve, 3))) == 125

    def test_single_user_is_candidate_list(self, curve):
        vecs = list(enumerate_eta_vectors(curve, 1))
        assert vecs == [(e,) for e in curve.candidate_etas]

    def test_lexicographic_order(self, curve):
        vecs = list(enumerate_eta_vectors(curve, 3))
        assert vecs[0] == (1.0, 1.0, 1.0)
        assert vecs[-1] == (0.2, 0.2, 0.2)

    @pytest.mark.parametrize("n_values, n_users", [(5, 1), (5, 4), (3, 9)])
    def test_index_batches_follow_product_order(self, n_values, n_users):
        # 3 values at 9 users: 19,683 vectors, one full chunk and a partial one
        values = np.linspace(1.0, 0.2, n_values)
        batches = list(_index_batches(n_values, n_users))
        assert all(len(b) == _CHUNK for b in batches[:-1])
        assert values[np.concatenate(batches)].tolist() == [
            list(v) for v in itertools.product(values.tolist(), repeat=n_users)
        ]

    def test_candidate_set_validation(self, curve):
        # validate_curve guarantees the candidate set: it starts at 1 and
        # strictly decreases to a positive floor
        etas = curve.candidate_etas
        assert etas[0] == 1.0 and etas[-1] > 0
        assert all(a > b for a, b in zip(etas, etas[1:]))
        with pytest.raises(ValueError):
            validate_curve([(0.8, 0.0), (0.6, 100.0)])
        with pytest.raises(ValueError):
            validate_curve([(1.0, 0.0), (0.6, 100.0), (0.6, 200.0)])


# ---------------------------------------------------------------------------
# proportional-power scheme
# ---------------------------------------------------------------------------


class TestSolveMethod1:
    def test_inner_bisection_at_beta_max_hits_closed_form(
        self, params, curve, two_user_channel
    ):
        # with zero load at no compression and all power in transmission,
        # the bisection at the top received-power sample converges to the
        # equal-received-power rate (up to epsilon plus the on-budget slack)
        beta_max = beta_range(two_user_channel, params)
        out = bisect_tau(
            lambda taus: np.array(
                [method1_power_sum(two_user_channel, curve, params, beta_max, t) for t in taus]
            )
            <= budget_tol(params),
            1,
            params.tau_lo_init,
            params.tau_hi_init,
            params.epsilon,
        )
        assert out.converged[0]
        slack = NON_SEMANTIC_2USER * 10 * BUDGET_RTOL + params.epsilon
        assert abs(out.tau_bps[0] - NON_SEMANTIC_2USER) <= slack

    def test_dominates_non_semantic(self, params, curve, two_user_channel):
        r1 = solve_method1(two_user_channel, curve, params)
        rns = solve_non_semantic(two_user_channel, params)
        assert r1.feasible
        assert r1.tau_bps >= rns.tau_bps - params.epsilon

    def test_single_user_beats_non_semantic(self, params, curve):
        chan = ChannelState(np.array([1e-9]))
        r1 = solve_method1(chan, curve, params)
        closed = 1e7 * math.log2(1 + 6e-9 / 1e-12)
        assert r1.tau_bps >= closed - params.epsilon

    def test_vanishing_budget_vanishing_rate(self, curve, two_user_channel):
        tiny = SystemParams(p_max_w=1e-9)
        r = solve_method1(two_user_channel, curve, tiny)
        assert r.feasible
        assert r.tau_bps < 100.0

    def test_infeasible_when_search_floor_unreachable(self, curve, two_user_channel):
        # every candidate fails at the bottom of the search range
        p = SystemParams(tau_lo_init=9e9, tau_hi_init=1e10)
        r = solve_method1(two_user_channel, curve, p)
        assert not r.feasible
        assert r.tau_bps == 0.0
        assert r.winning_beta is None

    def test_report_consistency(self, params, curve, default_channel):
        r = solve_method1(default_channel, curve, params)
        assert r.method is Method.METHOD1
        assert r.outer_candidates_evaluated == params.m_beta_samples
        ok, violations = check_feasible(r.allocation, params, curve)
        assert ok, violations
        assert min(r.allocation.rates_bps) >= r.tau_bps - params.epsilon
        # transmit powers follow the winning received-power level
        expect_p_t = [r.winning_beta / g for g in default_channel.gains]
        assert np.array_equal(r.allocation.p_t_w, np.array(expect_p_t))

    def test_budget_certificate(self, params, curve, default_channel):
        r = solve_method1(default_channel, curve, params)
        tol = budget_tol(params)
        at = method1_power_sum(default_channel, curve, params, r.winning_beta, r.tau_bps)
        over = method1_power_sum(
            default_channel, curve, params, r.winning_beta, r.tau_bps + 10 * params.epsilon
        )
        assert at <= tol
        assert over > tol


class TestMethod1MatchesScalarReference:
    """The lockstep rows reproduce one scalar bisection per beta, bit for bit."""

    @staticmethod
    def assert_same(a, b):
        assert a.tau_bps == b.tau_bps
        assert a.winning_beta == b.winning_beta
        assert a.bisection_iterations_total == b.bisection_iterations_total
        assert a.feasible == b.feasible
        assert a.allocation.tau_bps == b.allocation.tau_bps
        for field in ("eta", "p_t_w", "p_c_w", "rates_bps"):
            assert np.array_equal(getattr(a.allocation, field), getattr(b.allocation, field))

    @pytest.mark.parametrize("n_users", range(1, 8))
    @pytest.mark.parametrize(
        "seed, p_max_w, noise_power_w", [(3, 6.0, 1e-12), (8, 3.0, 1e-13), (11, 6.0, 1e-11)]
    )
    def test_seeded_battery(self, curve, n_users, seed, p_max_w, noise_power_w):
        params = SystemParams(p_max_w=p_max_w, noise_power_w=noise_power_w)
        chan = generate_channel_gains(n_users, 1e-10, 1e-8, seed)
        self.assert_same(
            solve_method1(chan, curve, params), solve_method1_scalar(chan, curve, params)
        )

    @pytest.mark.parametrize(
        "params",
        [
            SystemParams(p_max_w=1e-9),
            SystemParams(tau_lo_init=9e9, tau_hi_init=1e10),
            SystemParams(p0_w_per_load=0.0, m_beta_samples=7),
        ],
        ids=["tiny_budget", "infeasible_floor", "free_compression"],
    )
    def test_edge_instances(self, curve, default_channel, params):
        self.assert_same(
            solve_method1(default_channel, curve, params),
            solve_method1_scalar(default_channel, curve, params),
        )

    # np.interp on this curve drops by rounding from just below a knot to the
    # knot itself, so the knot check rejects it and every beta is bisected
    NON_MONOTONE_INTERP = (
        (1, 0),
        (0.5, 115.12807125241706),
        (0.47448580038293403, 197.55196980435727),
        (0.22, 1087.5451444277),
        (0.2, 1167.2624337016891),
        (0.07, 1759.9639901703117),
    )

    @pytest.mark.parametrize("n_users", [1, 3, 5, 7])
    @pytest.mark.parametrize(
        "knots, params, pruned",
        [
            pytest.param(None, SystemParams(tau_lo_init=0.0), True, id="zero_lower_bound"),
            # hundreds of betas fit at the capped tau: the earliest must win
            pytest.param(None, SystemParams(tau_hi_init=1e8), True, id="capped_bracket"),
            pytest.param(None, SystemParams(epsilon=1e-9), False, id="tiny_epsilon"),
            pytest.param(NON_MONOTONE_INTERP, SystemParams(), False, id="non_monotone_interp"),
        ],
    )
    def test_pruned_and_lockstep_paths(self, monkeypatch, curve, n_users, knots, params, pruned):
        curve = curve if knots is None else validate_curve(knots)
        k_iters = _path_independent_iterations(
            params.tau_lo_init, params.tau_hi_init, params.epsilon
        )
        assert (k_iters is not None and _interp_non_increasing(curve)) == pruned
        reference_sum = scalar_reference.beta_power_sum

        def at_zero_too(p_t, caps, curve, params, tau):
            # the reference divides Python floats, which raise at tau = 0;
            # there every ratio clamps to 1 and costs no computation power,
            # unless a zero capacity leaves it undefined (0/0): infeasible
            if tau != 0:
                return reference_sum(p_t, caps, curve, params, tau)
            if 0.0 in caps:
                return math.inf
            total = 0.0
            for p in p_t:
                total += p
            return total

        rows = []

        def recording(feasible_at, n_rows, *bracket):
            rows.append(n_rows)
            return bisect_tau(feasible_at, n_rows, *bracket)

        monkeypatch.setattr(scalar_reference, "beta_power_sum", at_zero_too)
        monkeypatch.setattr(solvers, "bisect_tau", recording)
        chan = generate_channel_gains(n_users, 1e-10, 1e-8, 3)
        self.assert_same(
            solve_method1(chan, curve, params), solve_method1_scalar(chan, curve, params)
        )
        assert rows == [1 if pruned else params.m_beta_samples]

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        ratios=st.lists(st.floats(0.02, 0.98), min_size=1, max_size=5, unique=True),
        slopes=st.lists(st.floats(1.0, 5000.0), min_size=5, max_size=5),
        n_users=st.integers(1, 4),
        seed=st.integers(0, 2**16),
        p_max_w=st.floats(0.05, 12.0),
    )
    def test_random_curves(self, ratios, slopes, n_users, seed, p_max_w):
        # knots off any short binary grid, so np.interp's slopes and values
        # round (the knot check's failures are the non-monotone case above)
        etas = [1.0] + sorted(ratios, reverse=True)
        knots = [(1.0, 0.0)]
        for e_hi, e_lo, m in zip(etas, etas[1:], sorted(slopes)):
            knots.append((e_lo, knots[-1][1] + m * (e_hi - e_lo)))
        try:
            curve = validate_curve(knots)
        except ValueError:  # rounding can shrink a slope below the last one
            assume(False)
        params = SystemParams(p_max_w=p_max_w, m_beta_samples=25)
        chan = generate_channel_gains(n_users, 1e-10, 1e-8, seed)
        self.assert_same(
            solve_method1(chan, curve, params), solve_method1_scalar(chan, curve, params)
        )


class TestCapacityTable:
    """``_capacities`` holds ``channel_capacity``'s bits, entry by entry."""

    @pytest.mark.parametrize("n_users", range(1, 9))
    def test_matches_scalar_capacity(self, n_users):
        cases = itertools.product(range(20), (1e-13, 3.7e-12, 1e-11), (0.05, 6.0, 12.0))
        for seed, noise_power_w, p_max_w in cases:
            params = SystemParams(noise_power_w=noise_power_w, p_max_w=p_max_w)
            chan = generate_channel_gains(n_users, 1e-10, 1e-8, seed)
            betas = beta_grid(beta_range(chan, params), 101)  # beta = 0 first
            p_t = betas[:, None] / chan.gains[None, :]
            expect = np.array(
                [[channel_capacity(p, float(h), params) for p, h in zip(row, chan.gains)]
                 for row in p_t.tolist()]
            )
            table = _capacities(p_t, chan.gains, params)
            assert table.shape == expect.shape
            differ = table.view(np.uint64) != expect.view(np.uint64)
            assert not differ.any(), (seed, noise_power_w, p_max_w, np.argwhere(differ)[:5])


# ---------------------------------------------------------------------------
# fixed-ratio scheme
# ---------------------------------------------------------------------------


class TestSolveMethod2:
    def test_all_ones_dominance(self, params, curve, two_user_channel):
        r2 = solve_method2(two_user_channel, curve, params)
        rns = solve_non_semantic(two_user_channel, params)
        assert r2.tau_bps >= rns.tau_bps - params.epsilon

    def test_single_user_single_segment_closed_form(self, params):
        # candidates {1, 0.5}: both inner solutions have closed forms
        curve1 = validate_curve([(1.0, 0.0), (0.5, 400.0)])
        chan = ChannelState(np.array([1e-9]))
        r = solve_method2(chan, curve1, params)
        t_full = 1e7 * math.log2(1 + 6e-9 / 1e-12)
        t_half = 1e7 * math.log2(1 + (6 - 0.4) * 1e-9 / 1e-12) / 0.5
        assert r.tau_bps == pytest.approx(max(t_full, t_half), abs=2 * params.epsilon)
        assert r.allocation.eta[0] == 0.5

    def test_budget_excluding_computation_leaves_all_ones(self):
        # budget below every non-trivial vector's computation power
        params = SystemParams(p_max_w=0.3)
        curve1 = validate_curve([(1.0, 0.0), (0.5, 400.0)])  # compression costs 0.4 W
        chan = ChannelState(np.array([1e-9]))
        r = solve_method2(chan, curve1, params)
        assert r.allocation.eta[0] == 1.0
        closed = 1e7 * math.log2(1 + 0.3e-9 / 1e-12)
        assert r.tau_bps == pytest.approx(closed, abs=2 * params.epsilon)

    def test_matches_scalar_bisection_single_candidate(self, params, curve):
        # the batched inner loop must reproduce the scalar bisection lockstep
        chan = ChannelState(np.array([2.5e-9]))
        r = solve_method2(chan, curve, params)
        best = None
        iters = 0
        for (eta,) in enumerate_eta_vectors(curve, 1):
            tau, iterations, converged = scalar_bisect_tau(
                lambda tau: method2_power_sum(chan, curve, params, [eta], tau)
                <= budget_tol(params),
                params.tau_lo_init,
                params.tau_hi_init,
                params.epsilon,
            )
            iters += iterations
            if converged and (best is None or tau > best):
                best = tau
        assert r.tau_bps == best
        assert r.bisection_iterations_total == iters

    def test_equal_rates(self, params, curve, default_channel):
        r = solve_method2(default_channel, curve, params)
        spread = float(np.max(r.allocation.rates_bps) - np.min(r.allocation.rates_bps))
        assert spread <= 2 * params.epsilon

    def test_shared_eta_restriction(self, params, curve, default_channel):
        r_shared = solve_method2(default_channel, curve, params, shared_eta=True)
        r_full = solve_method2(default_channel, curve, params)
        assert r_shared.outer_candidates_evaluated == len(curve.candidate_etas)
        assert len(set(map(float, r_shared.allocation.eta))) == 1
        assert r_full.tau_bps >= r_shared.tau_bps - params.epsilon

    def test_budget_certificate(self, params, curve, default_channel):
        r = solve_method2(default_channel, curve, params)
        tol = budget_tol(params)
        at = method2_power_sum(default_channel, curve, params, r.allocation.eta, r.tau_bps)
        over = method2_power_sum(
            default_channel, curve, params, r.allocation.eta, r.tau_bps + 10 * params.epsilon
        )
        assert at <= tol
        assert over > tol

    def test_power_sum_validation(self, params, curve, two_user_channel):
        with pytest.raises(ValueError):
            method2_power_sum(two_user_channel, curve, params, [0.5], 1e7)
        with pytest.raises(ValueError):
            method2_power_sum(two_user_channel, curve, params, [0.5, 0.1], 1e7)

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(
        budget=st.floats(min_value=0.5, max_value=10.0),
        extra=st.floats(min_value=0.0, max_value=10.0),
        n_users=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_tau_monotone_in_budget(self, curve, budget, extra, n_users, seed):
        chan = generate_channel_gains(n_users, 1e-10, 1e-8, seed)
        small = SystemParams(p_max_w=budget)
        large = SystemParams(p_max_w=budget + extra)
        tau_small = solve_method2(chan, curve, small).tau_bps
        tau_large = solve_method2(chan, curve, large).tau_bps
        assert tau_large >= tau_small - small.epsilon

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(scale=st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_invariance(self, params, curve, two_user_channel, scale):
        scaled_chan = ChannelState(two_user_channel.gains * scale)
        scaled_params = dataclasses.replace(
            params, noise_power_w=params.noise_power_w * scale
        )
        a = solve_method2(two_user_channel, curve, params).tau_bps
        b = solve_method2(scaled_chan, curve, scaled_params).tau_bps
        assert b == pytest.approx(a, rel=1e-9)


class TestFixedEtaMatchesExhaustiveReference:
    """The one-row search reports exactly what bisecting every vector reports."""

    @staticmethod
    def assert_same(a, b):
        for field in dataclasses.fields(a):
            if field.name != "allocation":
                assert getattr(a, field.name) == getattr(b, field.name), field.name
        assert a.allocation.tau_bps == b.allocation.tau_bps
        for field in ("eta", "p_t_w", "p_c_w", "rates_bps"):
            assert np.array_equal(getattr(a.allocation, field), getattr(b.allocation, field))

    def check_method2(self, chan, curve, params, shared_eta=False):
        if shared_eta:
            vectors = [(v,) * chan.n_users for v in curve.candidate_etas]
        else:
            vectors = enumerate_eta_vectors(curve, chan.n_users)
        self.assert_same(
            solve_method2(chan, curve, params, shared_eta=shared_eta),
            solve_fixed_eta_exhaustive(Method.METHOD2, chan, curve, params, vectors),
        )

    @pytest.mark.parametrize(
        "n_users, seed, p_max_w, noise_power_w",
        [
            (n, *case)
            for n in range(1, 8)
            for case in [(3, 6.0, 1e-12), (8, 3.0, 1e-13), (11, 6.0, 1e-11)][: 2 if n == 7 else 3]
        ],
    )
    def test_method2_battery(self, curve, n_users, seed, p_max_w, noise_power_w):
        params = SystemParams(p_max_w=p_max_w, noise_power_w=noise_power_w)
        self.check_method2(generate_channel_gains(n_users, 1e-10, 1e-8, seed), curve, params)

    # 3 candidates keep the exhaustive reference small beyond 7 users: 6,561
    # vectors at N = 8, 19,683 at N = 9 (a full chunk and a partial one)
    TWO_SEGMENTS = ((1.0, 0.0), (0.6, 300.0), (0.2, 1500.0))

    @pytest.mark.parametrize("n_users, seed", [(8, 1), (9, 2)])
    def test_method2_beyond_seven_users(self, params, n_users, seed):
        chan = generate_channel_gains(n_users, 1e-10, 1e-8, seed)
        self.check_method2(chan, validate_curve(self.TWO_SEGMENTS), params)

    def test_method2_vector_on_budget_at_tau_lo(self):
        # from 8 columns on numpy sums a row pairwise; summed left to right,
        # this vector's power at tau_lo_init lands one ulp over the budget, so
        # a count test that sums in another order drops its 47 iterations
        chan = generate_channel_gains(8, 1e-10, 1e-8, 1)
        curve = validate_curve(self.TWO_SEGMENTS)
        params = SystemParams(p_max_w=4.499999999996148)
        on_budget = method2_power_sum(chan, curve, params, (1.0,) * 5 + (0.2,) * 3, 1e-3)
        assert on_budget == budget_tol(params)
        self.check_method2(chan, curve, params)

    # epsilon=1e-9 leaves K unproven: every vector is bisected to count
    @pytest.mark.parametrize(
        "n_users, params",
        [
            pytest.param(3, SystemParams(), id="3"),
            pytest.param(7, SystemParams(), id="7"),
            pytest.param(3, SystemParams(epsilon=1e-9), id="3-tiny_epsilon"),
            pytest.param(7, SystemParams(epsilon=1e-9), id="7-tiny_epsilon"),
        ],
    )
    def test_method2_shared_eta(self, curve, params, n_users):
        # the one-column table: each common ratio's power summed over the users
        chan = generate_channel_gains(n_users, 1e-10, 1e-8, 3)
        self.check_method2(chan, curve, params, shared_eta=True)

    @pytest.mark.parametrize(
        "n_users, params",
        [
            pytest.param(1, SystemParams(), id="1"),
            pytest.param(2, SystemParams(), id="2"),
            pytest.param(3, SystemParams(), id="3"),
            pytest.param(2, SystemParams(epsilon=1e-9), id="2-tiny_epsilon"),
        ],
    )
    def test_oracle(self, curve, params, n_users):
        chan = generate_channel_gains(n_users, 1e-10, 1e-8, 42)
        cands = _oracle_candidates(curve, 3)
        self.assert_same(
            solve_oracle(chan, curve, params, 3),
            solve_fixed_eta_exhaustive(
                Method.ORACLE, chan, curve, params, itertools.product(cands, repeat=n_users)
            ),
        )

    @pytest.mark.parametrize(
        "params",
        [
            SystemParams(),
            # the bracket caps 182 vectors at one tau; the earliest must win
            SystemParams(tau_hi_init=1.6e8),
        ],
        ids=["stock", "capped_ties"],
    )
    def test_equal_gains(self, curve, params):
        self.check_method2(ChannelState(np.full(5, 1e-9)), curve, params)

    @pytest.mark.parametrize(
        "params",
        [
            SystemParams(tau_lo_init=0.0),
            SystemParams(tau_hi_init=1e8),
            SystemParams(epsilon=1e-9),  # K unproven: every vector bisected to count
        ],
        ids=["zero_lower_bound", "capped_bracket", "tiny_epsilon"],
    )
    def test_bracket_edges(self, curve, params):
        self.check_method2(generate_channel_gains(5, 1e-10, 1e-8, 3), curve, params)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        cuts=st.sets(st.integers(1, 63), min_size=1, max_size=5),
        slopes=st.lists(st.integers(1, 4000), min_size=5, max_size=5),
        gains=st.lists(st.sampled_from([1e-10, 1e-9, 3e-9, 1e-8]), min_size=1, max_size=4),
        p_max_w=st.floats(0.05, 12.0),
        tau_lo_init=st.sampled_from([0.0, 1e-3]),
        tau_hi_init=st.sampled_from([1e10, 1e8]),
        epsilon=st.sampled_from([1e-4, 1e-9]),
        shared_eta=st.booleans(),
    )
    def test_random_curves(
        self, cuts, slopes, gains, p_max_w, tau_lo_init, tau_hi_init, epsilon, shared_eta
    ):
        # ratios on a 1/64 grid and integer slopes keep every knot, and so
        # the validated slopes, exact: 2 to 6 knots, slope magnitudes sorted;
        # the 1e8 bracket caps tau where many vectors fit, so ties must break
        # toward the earliest
        etas = [1.0] + [1.0 - c / 64 for c in sorted(cuts)]
        knots = [(1.0, 0.0)]
        for e_hi, e_lo, m in zip(etas, etas[1:], sorted(slopes)):
            knots.append((e_lo, knots[-1][1] + m * (e_hi - e_lo)))
        params = SystemParams(
            p_max_w=p_max_w, tau_lo_init=tau_lo_init, tau_hi_init=tau_hi_init, epsilon=epsilon
        )
        chan = ChannelState(np.array(gains))
        self.check_method2(chan, validate_curve(knots), params, shared_eta=shared_eta)

    @pytest.mark.parametrize("m", [1, 2, 7, 16384])
    def test_row_sums_do_not_depend_on_block_height(self, m):
        # the one-row search and the count pass sum gathered blocks of other
        # heights than the bisection's; each row must get the same bits
        rng = np.random.default_rng(m)
        order_matters = False
        for n in range(2, 21):
            table = np.exp(rng.normal(0.0, 12.0, size=(7, n)))
            rows = rng.integers(0, 7, size=(64, n))
            single = [np.sum(table[r[None], np.arange(n)], axis=1)[0] for r in rows]
            idx = np.resize(rows, (m, n))
            block = np.sum(table[idx, np.arange(n)], axis=1)
            assert block.tolist() == np.resize(single, m).tolist()
            left_to_right = [sum(table[r, np.arange(n)].tolist()) for r in rows]
            order_matters |= left_to_right != single
        assert order_matters  # the data can tell summation orders apart


class TestCountFitting:
    """The meet-in-the-middle count equals ``_fits`` over every knot-index row."""

    TWO_SEGMENTS = TestFixedEtaMatchesExhaustiveReference.TWO_SEGMENTS

    @staticmethod
    def table_at_tau_lo(chan, curve, params):
        # the per-(ratio, user) table the fixed-ratio search counts on
        values = np.array(curve.candidate_etas)
        p_c = _comp_power_matrix(values, curve, params)
        taus = np.array([params.tau_lo_init])
        with np.errstate(over="ignore"):
            return _fixed_eta_power_terms(values[:, None], p_c[:, None], chan.gains, params, taus)

    @staticmethod
    def check(table, tol):
        exhaustive = sum(
            int(np.count_nonzero(_fits(table, idx, tol))) for idx in _index_batches(*table.shape)
        )
        count = _count_fitting(table, tol)
        assert count == exhaustive
        return count

    def check_on_row_sums(self, table, seed):
        # budgets at, and one ulp either side of, the sums of a few vectors:
        # the vectors where the summation order can decide
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, len(table), size=(4, table.shape[1]))
        for on_row in np.sum(table[rows, np.arange(table.shape[1])], axis=1):
            for tol in (np.nextafter(on_row, 0.0), on_row, np.nextafter(on_row, math.inf)):
                self.check(table, float(tol))

    @pytest.mark.parametrize("n_users", range(1, 12))
    def test_two_segments(self, n_users):
        params = SystemParams(p_max_w=0.6 * n_users)
        chan = generate_channel_gains(n_users, 1e-10, 1e-8, n_users)
        table = self.table_at_tau_lo(chan, validate_curve(self.TWO_SEGMENTS), params)
        assert 0 < self.check(table, budget_tol(params)) < 3**n_users
        self.check_on_row_sums(table, n_users)

    def test_stock_curve_nine_users(self, curve, params):
        table = self.table_at_tau_lo(generate_channel_gains(9, 1e-10, 1e-8, 1), curve, params)
        assert 0 < self.check(table, budget_tol(params)) < 5**9

    @pytest.mark.parametrize(
        "p_max_w",
        [3e268, 1e308, sys.float_info.max],  # the last two leave T above 2^1023
        ids=["finite_budget", "above_2^1023", "infinite_budget_tol"],
    )
    def test_infinite_entries(self, p_max_w):
        # ratio 1 needs 1500 doublings and overflows to +inf; ratio 0.6 needs
        # 900, about 1e268 W, and ratio 0.2 is negligible
        params = SystemParams(
            bandwidth_hz=1e6, p_max_w=p_max_w, tau_lo_init=1.5e9, tau_hi_init=1e10
        )
        chan = generate_channel_gains(6, 1e-10, 1e-8, 5)
        table = self.table_at_tau_lo(chan, validate_curve(self.TWO_SEGMENTS), params)
        assert np.isinf(table[0]).all() and np.isfinite(table[1:]).all()
        count = self.check(table, budget_tol(params))
        if p_max_w == 3e268:  # no vector with ratio 1 fits, nor every other one
            assert 1 < count < 2**6

    def test_eight_columns_on_budget(self):
        # the vector of test_method2_vector_on_budget_at_tau_lo: np.sum puts it
        # exactly on the budget, left-to-right summation one ulp over it
        chan = generate_channel_gains(8, 1e-10, 1e-8, 1)
        params = SystemParams(p_max_w=4.499999999996148)
        table = self.table_at_tau_lo(chan, validate_curve(self.TWO_SEGMENTS), params)
        on_budget = np.array([[0] * 5 + [2] * 3])
        tol = budget_tol(params)
        assert _fits(table, on_budget, tol)[0]
        assert sum(table[on_budget[0], np.arange(8)].tolist()) > tol
        for t in (np.nextafter(tol, 0.0), tol, np.nextafter(tol, math.inf)):
            self.check(table, float(t))

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(data=st.data(), n_values=st.integers(1, 4), cols=st.integers(1, 9))
    def test_random_tables(self, data, n_values, cols):
        # decimal fractions make sums that depend on their order; the budget
        # is often one vector's np.sum, or within a few ulps of it
        entry = st.one_of(
            st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7, math.inf]),
            st.floats(0.0, 10.0),
            st.floats(0.0, 1e300),
        )
        table = np.array(
            data.draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                               min_size=n_values, max_size=n_values))
        )
        row = data.draw(st.lists(st.integers(0, n_values - 1), min_size=cols, max_size=cols))
        tol = float(np.sum(table[np.array([row]), np.arange(cols)], axis=1)[0])
        ulps = data.draw(st.integers(-3, 3), label="ulps")
        for _ in range(abs(ulps)):
            tol = math.nextafter(tol, math.inf if ulps > 0 else 0.0)
        self.check(table, data.draw(st.just(tol) | st.floats(0.0, 1e301), label="tol"))


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------


class TestEqualPower:
    def test_matches_grid_scan(self, params, curve, default_channel):
        r = solve_equal_power(default_channel, curve, params)
        budget = params.p_max_w / default_channel.n_users
        grid = np.linspace(curve.eta_floor, 1.0, 2000)
        for n, h in enumerate(default_channel.gains):
            best = 0.0
            for eta in grid:
                p_c = comp_power(curve, float(eta), params)
                if p_c > budget:
                    continue
                rate = equivalent_rate(
                    channel_capacity(budget - p_c, float(h), params), float(eta)
                )
                best = max(best, rate)
            assert r.allocation.rates_bps[n] >= best * (1 - 1e-6)

    def test_free_compression_prefers_floor(self, curve, default_channel):
        params = SystemParams(p0_w_per_load=0.0)
        r = solve_equal_power(default_channel, curve, params)
        assert np.all(r.allocation.eta == curve.eta_floor)

    def test_budget_cutting_into_segment_matches_grid_scan(self, curve, default_channel):
        # per-user budget 2/3 W affords load 666.7, inside the third segment,
        # so the search interval is cut at the budget boundary
        params = SystemParams(p_max_w=2.0)
        r = solve_equal_power(default_channel, curve, params)
        budget = params.p_max_w / default_channel.n_users
        assert np.all(r.allocation.p_c_w <= budget + 1e-12)
        grid = np.linspace(curve.eta_floor, 1.0, 2000)
        for n, h in enumerate(default_channel.gains):
            best = 0.0
            for eta in grid:
                p_c = comp_power(curve, float(eta), params)
                if p_c > budget:
                    continue
                rate = equivalent_rate(
                    channel_capacity(budget - p_c, float(h), params), float(eta)
                )
                best = max(best, rate)
            assert r.allocation.rates_bps[n] >= best * (1 - 1e-6)

    def test_worthless_compression_prefers_no_compression(self, curve, default_channel):
        # computation so expensive no segment fits the per-user budget
        params = SystemParams(p0_w_per_load=100.0)
        r = solve_equal_power(default_channel, curve, params)
        assert np.all(r.allocation.eta == 1.0)
        budget = params.p_max_w / default_channel.n_users
        for n, h in enumerate(default_channel.gains):
            assert r.allocation.rates_bps[n] == pytest.approx(
                channel_capacity(budget, float(h), params), rel=1e-12
            )

    def test_spends_full_budget(self, params, curve, default_channel):
        from pscom_alloc import total_power

        r = solve_equal_power(default_channel, curve, params)
        assert total_power(r.allocation) == pytest.approx(params.p_max_w, rel=1e-9)


class TestNonSemantic:
    def test_two_user_closed_form(self, params, two_user_channel):
        r = solve_non_semantic(two_user_channel, params)
        assert r.tau_bps == pytest.approx(NON_SEMANTIC_2USER, rel=1e-9)

    def test_rates_equal(self, params, two_user_channel):
        r = solve_non_semantic(two_user_channel, params)
        spread = float(np.max(r.allocation.rates_bps) - np.min(r.allocation.rates_bps))
        assert spread <= 1e-12 * r.tau_bps

    def test_single_user_reduction(self, params):
        chan = ChannelState(np.array([1e-9]))
        r = solve_non_semantic(chan, params)
        assert r.tau_bps == pytest.approx(1e7 * math.log2(1 + 6e3), rel=1e-12)

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(scale=st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_invariance(self, params, two_user_channel, scale):
        scaled_chan = ChannelState(two_user_channel.gains * scale)
        scaled_params = dataclasses.replace(
            params, noise_power_w=params.noise_power_w * scale
        )
        a = solve_non_semantic(two_user_channel, params).tau_bps
        b = solve_non_semantic(scaled_chan, scaled_params).tau_bps
        assert b == pytest.approx(a, rel=1e-12)


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


class TestOracle:
    def test_knots_only_equals_fixed_ratio_scheme(self, params, curve):
        for seed, n in ((11, 1), (12, 2), (13, 3)):
            chan = generate_channel_gains(n, 1e-10, 1e-8, seed)
            r2 = solve_method2(chan, curve, params)
            ro = solve_oracle(chan, curve, params, 0)
            assert ro.tau_bps == pytest.approx(r2.tau_bps, rel=1e-9)

    def test_midpoint_refinement_dominates(self, params, curve, two_user_channel):
        r2 = solve_method2(two_user_channel, curve, params)
        ro = solve_oracle(two_user_channel, curve, params, 1)
        assert ro.tau_bps >= r2.tau_bps - params.epsilon

    def test_fine_grid_dominates_both_schemes(self, params, two_user_channel):
        curve2 = validate_curve([(1.0, 0.0), (0.6, 200.0), (0.2, 900.0)])
        start = time.perf_counter()
        ro = solve_oracle(two_user_channel, curve2, params, 50)
        elapsed = time.perf_counter() - start
        r1 = solve_method1(two_user_channel, curve2, params)
        r2 = solve_method2(two_user_channel, curve2, params)
        assert ro.tau_bps >= max(r1.tau_bps, r2.tau_bps) - params.epsilon
        assert elapsed < 10.0

    def test_user_cap_enforced(self, params, curve):
        chan = generate_channel_gains(4, 1e-10, 1e-8, 5)
        with pytest.raises(ValueError, match="3 users"):
            solve_oracle(chan, curve, params, 5)

    def test_feasible_output(self, params, curve, default_channel):
        r = solve_oracle(default_channel, curve, params, 3)
        ok, violations = check_feasible(r.allocation, params, curve)
        assert ok, violations


# ---------------------------------------------------------------------------
# cross-cutting properties
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_repeat_runs_bit_identical(self, params, curve, default_channel):
        for solver in (solve_method1, solve_method2):
            a = solver(default_channel, curve, params)
            b = solver(default_channel, curve, params)
            assert a.tau_bps == b.tau_bps
            assert np.array_equal(a.allocation.eta, b.allocation.eta)
            assert np.array_equal(a.allocation.p_t_w, b.allocation.p_t_w)
            assert np.array_equal(a.allocation.rates_bps, b.allocation.rates_bps)
            assert a.bisection_iterations_total == b.bisection_iterations_total


class TestSeededInstanceInvariants:
    @pytest.mark.parametrize("seed", [201, 202, 203, 204])
    def test_reports_feasible_and_consistent(self, params, curve, seed):
        chan = generate_channel_gains(seed % 3 + 1, 1e-10, 1e-8, seed)
        rns = solve_non_semantic(chan, params)
        for report in (
            solve_method1(chan, curve, params),
            solve_method2(chan, curve, params),
            solve_equal_power(chan, curve, params),
            rns,
        ):
            assert report.feasible
            ok, violations = check_feasible(report.allocation, params, curve)
            assert ok, (report.method, violations)
            assert min(report.allocation.rates_bps) >= report.tau_bps - params.epsilon
            if report.method in (Method.METHOD1, Method.METHOD2):
                assert report.tau_bps >= rns.tau_bps - params.epsilon
