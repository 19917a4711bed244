import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pscom_alloc import (
    Allocation,
    ChannelState,
    SystemParams,
    channel_capacity,
    check_feasible,
    comp_load,
    comp_power,
    derive_allocation,
    equivalent_rate,
    total_power,
    validate_curve,
)

DEFAULT_KNOTS = [(1.0, 0.0), (0.8, 100.0), (0.6, 300.0), (0.4, 700.0), (0.2, 1500.0)]


def rel_err(got, expected):
    return abs(got - expected) / abs(expected)


# ---------------------------------------------------------------------------
# channel_capacity
# ---------------------------------------------------------------------------


class TestChannelCapacity:
    def test_zero_power_gives_zero_rate(self, params):
        assert channel_capacity(0.0, 1e-9, params) == 0.0

    def test_unit_snr_gives_bandwidth(self, params):
        # p*h/sigma^2 = 1 forces log2(2) = 1, so the rate equals B
        assert channel_capacity(1e-3, 1e-9, params) == pytest.approx(1e7, rel=1e-12)

    def test_high_snr_value(self, params):
        # 1e7 * log2(1001), frozen from a high-precision evaluation
        got = channel_capacity(1.0, 1e-9, params)
        assert got == pytest.approx(99672262.588359935, rel=1e-12)

    def test_negative_power_rejected(self, params):
        with pytest.raises(ValueError):
            channel_capacity(-1e-6, 1e-9, params)

    def test_nonpositive_gain_rejected(self, params):
        with pytest.raises(ValueError):
            channel_capacity(1e-3, 0.0, params)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        p=st.floats(min_value=1e-9, max_value=1e3),
        h=st.floats(min_value=1e-12, max_value=1e-6),
        bump=st.floats(min_value=1e-6, max_value=10.0),
    )
    def test_strictly_increasing_in_power_and_gain(self, params, p, h, bump):
        base = channel_capacity(p, h, params)
        assert channel_capacity(p * (1 + bump), h, params) > base
        assert channel_capacity(p, h * (1 + bump), params) > base


# ---------------------------------------------------------------------------
# equivalent_rate
# ---------------------------------------------------------------------------


class TestEquivalentRate:
    def test_identity_at_no_compression(self):
        assert equivalent_rate(1e7, 1.0) == 1e7

    def test_halving_ratio_doubles_rate(self):
        assert equivalent_rate(1e7, 0.5) == 2e7

    def test_quarter_ratio(self):
        assert equivalent_rate(9.9672e7, 0.25) == pytest.approx(3.98688e8, rel=1e-12)

    def test_nonpositive_ratio_rejected(self):
        with pytest.raises(ValueError):
            equivalent_rate(1e7, 0.0)
        with pytest.raises(ValueError):
            equivalent_rate(1e7, -0.3)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        c=st.floats(min_value=0.0, max_value=1e12),
        eta=st.floats(min_value=1e-3, max_value=1.0),
    )
    def test_rate_times_ratio_recovers_capacity(self, c, eta):
        assert equivalent_rate(c, eta) * eta == pytest.approx(c, rel=1e-12, abs=1e-300)


# ---------------------------------------------------------------------------
# computation load curve
# ---------------------------------------------------------------------------


class TestCompLoad:
    def test_zero_at_no_compression(self, curve):
        assert comp_load(curve, 1.0) == 0.0

    def test_interpolates_between_knots(self, curve):
        # hand interpolation between (1.0, 0) and (0.8, 100)
        assert comp_load(curve, 0.9) == pytest.approx(50.0, rel=1e-12)

    def test_terminal_knot_value(self, curve):
        assert comp_load(curve, 0.2) == 1500.0

    def test_exact_at_every_knot(self, curve):
        for eta, load in DEFAULT_KNOTS:
            assert comp_load(curve, eta) == load

    def test_domain_errors(self, curve):
        with pytest.raises(ValueError):
            comp_load(curve, 0.19)
        with pytest.raises(ValueError):
            comp_load(curve, 1.01)

    def test_continuity_at_breakpoints(self, curve):
        for d in curve.breakpoints[:-1]:
            left = comp_load(curve, d - 1e-12)
            right = comp_load(curve, d + 1e-12)
            ref = comp_load(curve, d)
            assert left == pytest.approx(ref, rel=1e-9)
            assert right == pytest.approx(ref, rel=1e-9)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        a=st.floats(min_value=0.2, max_value=1.0),
        b=st.floats(min_value=0.2, max_value=1.0),
    )
    def test_non_increasing_in_ratio(self, curve, a, b):
        lo, hi = min(a, b), max(a, b)
        assert comp_load(curve, lo) >= comp_load(curve, hi)


class TestCompPower:
    def test_zero_load(self, curve, params):
        assert comp_power(curve, 1.0, params) == 0.0

    def test_terminal(self, curve, params):
        assert comp_power(curve, 0.2, params) == pytest.approx(1.5, rel=1e-12)

    def test_knot_value(self, curve, params):
        assert comp_power(curve, 0.6, params) == pytest.approx(0.3, rel=1e-12)


class TestValidateCurve:
    def test_default_curve_accepted(self):
        c = validate_curve(DEFAULT_KNOTS)
        assert c.num_segments == 4
        assert c.slopes == pytest.approx([-500.0, -1000.0, -2000.0, -4000.0], rel=1e-12)
        assert c.breakpoints == (0.8, 0.6, 0.4, 0.2)
        assert c.eta_floor == 0.2

    def test_decreasing_slope_magnitude_rejected(self):
        # |-20| then |-10/3|: magnitude shrinks as the ratio falls
        with pytest.raises(ValueError, match="slope magnitudes"):
            validate_curve([(1.0, 0.0), (0.5, 10.0), (0.2, 11.0)])

    def test_first_knot_rule(self):
        with pytest.raises(ValueError, match="first knot"):
            validate_curve([(1.0, 5.0), (0.5, 10.0)])
        with pytest.raises(ValueError, match="first knot"):
            validate_curve([(0.9, 0.0), (0.5, 10.0)])

    def test_non_descending_eta_rejected(self):
        with pytest.raises(ValueError, match="strictly decreasing"):
            validate_curve([(1.0, 0.0), (1.0, 10.0)])

    def test_non_increasing_load_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            validate_curve([(1.0, 0.0), (0.5, 0.0)])

    def test_too_few_knots_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            validate_curve([(1.0, 0.0)])

    def test_equal_slope_magnitudes_allowed(self):
        c = validate_curve([(1.0, 0.0), (0.6, 40.0), (0.2, 80.0)])
        assert c.slopes == pytest.approx([-100.0, -100.0], rel=1e-12)


# ---------------------------------------------------------------------------
# total_power / check_feasible
# ---------------------------------------------------------------------------


def _alloc(eta, p_t, p_c):
    n = len(eta)
    return Allocation(
        eta=np.array(eta, dtype=float),
        p_t_w=np.array(p_t, dtype=float),
        p_c_w=np.array(p_c, dtype=float),
        rates_bps=np.zeros(n),
        tau_bps=0.0,
    )


class TestTotalPowerAndFeasibility:
    def test_total_power_single(self):
        assert total_power(_alloc([1.0], [2.0], [1.0])) == 3.0

    def test_total_power_two_users(self):
        assert total_power(_alloc([1.0, 1.0], [1.0, 2.0], [0.5, 0.5])) == 4.0

    def test_total_power_zero(self):
        assert total_power(_alloc([1.0] * 3, [0.0] * 3, [0.0] * 3)) == 0.0

    def test_boundary_budget_is_feasible(self, params, curve):
        ok, violations = check_feasible(
            _alloc([1.0, 1.0], [3.0, 3.0], [0.0, 0.0]), params, curve
        )
        assert ok and violations == []

    def test_negative_transmit_power_flagged(self, params, curve):
        ok, violations = check_feasible(
            _alloc([1.0, 1.0], [1.0, -0.1], [0.0, 0.0]), params, curve
        )
        assert not ok
        assert [(v.constraint, v.user_index) for v in violations] == [
            ("transmit_power", 1)
        ]

    def test_ratio_below_floor_flagged(self, params, curve):
        ok, violations = check_feasible(
            _alloc([0.1, 1.0], [1.0, 1.0], [0.0, 0.0]), params, curve
        )
        assert not ok
        assert [(v.constraint, v.user_index) for v in violations] == [
            ("compression_ratio", 0)
        ]

    def test_over_budget_flagged(self, params, curve):
        ok, violations = check_feasible(
            _alloc([1.0], [6.5], [0.0]), params, curve
        )
        assert not ok
        assert violations[0].constraint == "total_power"
        assert violations[0].user_index is None

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(
        budget=st.floats(min_value=0.5, max_value=10.0),
        extra=st.floats(min_value=0.0, max_value=10.0),
    )
    def test_feasibility_monotone_in_budget(self, curve, budget, extra):
        alloc = _alloc([0.8, 1.0], [0.2, 0.1], [0.1, 0.0])
        small = SystemParams(p_max_w=budget)
        large = SystemParams(p_max_w=budget + extra)
        if check_feasible(alloc, small, curve)[0]:
            assert check_feasible(alloc, large, curve)[0]


# ---------------------------------------------------------------------------
# derive_allocation
# ---------------------------------------------------------------------------


class TestDeriveAllocation:
    def test_derived_fields_recomputable_bit_for_bit(self, params, curve):
        channel = ChannelState(np.array([1e-9, 2e-9, 5e-10]))
        eta = [0.9, 0.4, 1.0]
        p_t = [0.5, 1.25, 0.75]
        first = derive_allocation(eta, p_t, channel, curve, params)
        again = derive_allocation(first.eta, first.p_t_w, channel, curve, params)
        assert np.array_equal(first.p_c_w, again.p_c_w)
        assert np.array_equal(first.rates_bps, again.rates_bps)
        assert first.tau_bps == again.tau_bps

    def test_derived_computation_power_matches_curve(self, params, curve):
        channel = ChannelState(np.array([1e-9, 2e-9]))
        alloc = derive_allocation([0.8, 0.3], [1.0, 1.0], channel, curve, params)
        for n, e in enumerate(alloc.eta):
            assert alloc.p_c_w[n] == comp_power(curve, float(e), params)
        assert alloc.tau_bps == min(alloc.rates_bps)

    def test_length_mismatch_rejected(self, params, curve):
        channel = ChannelState(np.array([1e-9, 2e-9]))
        with pytest.raises(ValueError):
            derive_allocation([1.0], [1.0], channel, curve, params)


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------


class TestParamsValidation:
    def test_defaults_are_valid(self):
        p = SystemParams()
        assert p.bandwidth_hz == 1e7
        assert p.noise_power_w == 1e-12
        assert p.tau_lo_init < p.tau_hi_init

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"bandwidth_hz": 0.0},
            {"noise_power_w": -1e-12},
            {"p_max_w": 0.0},
            {"p0_w_per_load": -1.0},
            {"epsilon": 0.0},
            {"m_beta_samples": 1},
            {"tau_lo_init": 2.0, "tau_hi_init": 1.0},
            {"tau_lo_init": -1.0},
            {"tau_hi_init": math.inf},
            {"bandwidth_hz": math.inf},
            {"noise_power_w": math.inf},
            {"p_max_w": math.inf},
            {"p0_w_per_load": math.nan},
            {"p0_w_per_load": math.inf},
            {"epsilon": math.inf},
        ],
    )
    def test_bad_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SystemParams(**kwargs)

    def test_channel_validation(self):
        with pytest.raises(ValueError):
            ChannelState(np.array([]))
        with pytest.raises(ValueError):
            ChannelState(np.array([1e-9, 0.0]))
        with pytest.raises(ValueError):
            ChannelState(np.array([[1e-9]]))

    def test_channel_gains_read_only(self):
        chan = ChannelState(np.array([1e-9]))
        with pytest.raises(ValueError):
            chan.gains[0] = 2e-9
