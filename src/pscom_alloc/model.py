"""Domain types and closed-form physics/cost formulas.

Holds the system parameters, the per-user channel state, the piecewise-linear
computation-load curve, allocations and solver reports, plus the handful of
closed-form operations everything else is built from: Shannon capacity,
equivalent rate after semantic compression, computation load/power, total
power, and constraint checking.

All power quantities are watts; dBm is converted once at the config boundary
(see :mod:`pscom_alloc.experiments`). All functions here are pure and operate
on immutable inputs, so they are safe to call concurrently.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_right
from dataclasses import dataclass, field, fields

import numpy as np

__all__ = [
    "FEASIBILITY_RTOL",
    "Method",
    "SystemParams",
    "ChannelState",
    "CompLoadCurve",
    "Allocation",
    "SolveReport",
    "Violation",
    "validate_curve",
    "channel_capacity",
    "equivalent_rate",
    "comp_load",
    "comp_power",
    "total_power",
    "check_feasible",
    "derive_allocation",
    "zero_allocation",
]

_LN2 = math.log(2.0)

# Relative slack on the total-power budget when judging an already-built
# allocation. Bisection drives power sums onto the budget boundary, so exact
# comparison would reject solutions that are over by a few ulps.
FEASIBILITY_RTOL = 1e-9


class Method(enum.Enum):
    """Identifier for the allocation scheme that produced a report."""

    METHOD1 = "method1"
    METHOD2 = "method2"
    EQUAL_POWER = "equal_power"
    NON_SEMANTIC = "non_semantic"
    ORACLE = "oracle"


#: Canonical ordering used for tables and plots.
METHOD_ORDER = (
    Method.METHOD1,
    Method.METHOD2,
    Method.EQUAL_POWER,
    Method.NON_SEMANTIC,
    Method.ORACLE,
)


@dataclass(frozen=True)
class SystemParams:
    """Global scalar constants of one scenario.

    Defaults are the stock simulation parameters: 10 MHz bandwidth, -90 dBm
    noise, 6 W total power budget, computation power coefficient 1e-3 W per
    load unit, bisection threshold 1e-4 bit/s over the search range
    [1e-3, 1e10] bit/s, and 500 received-power samples.
    """

    bandwidth_hz: float = 1e7
    noise_power_w: float = 1e-12
    p_max_w: float = 6.0
    p0_w_per_load: float = 1e-3
    epsilon: float = 1e-4
    m_beta_samples: int = 500
    tau_lo_init: float = 1e-3
    tau_hi_init: float = 1e10

    def __post_init__(self) -> None:
        if not self.bandwidth_hz > 0:
            raise ValueError("bandwidth_hz must be positive")
        if not self.noise_power_w > 0:
            raise ValueError("noise_power_w must be positive")
        if not self.p_max_w > 0:
            raise ValueError("p_max_w must be positive")
        if self.p0_w_per_load < 0:
            raise ValueError("p0_w_per_load must be non-negative")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if int(self.m_beta_samples) != self.m_beta_samples or self.m_beta_samples < 2:
            raise ValueError("m_beta_samples must be an integer >= 2")
        if not 0 <= self.tau_lo_init < self.tau_hi_init:
            raise ValueError("require 0 <= tau_lo_init < tau_hi_init")
        for f in fields(self):
            if f.name != "m_beta_samples" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")


@dataclass(frozen=True, eq=False)
class ChannelState:
    """Per-user linear channel power gains."""

    gains: np.ndarray

    def __post_init__(self) -> None:
        g = np.asarray(self.gains, dtype=np.float64)
        if g.ndim != 1 or g.size < 1:
            raise ValueError("gains must be a non-empty 1-D vector")
        if not np.all(np.isfinite(g)) or not np.all(g > 0):
            raise ValueError("every channel gain must be finite and > 0")
        g = g.copy()
        g.setflags(write=False)
        object.__setattr__(self, "gains", g)

    @property
    def n_users(self) -> int:
        return int(self.gains.size)


@dataclass(frozen=True)
class CompLoadCurve:
    """Piecewise-linear computation load g(eta) given as descending knots.

    ``knots[0]`` is pinned at (1.0, 0.0): no compression costs no
    computation. Segment ``s`` (1-based) spans
    ``[breakpoints[s-1], knots[s-1].eta]`` with slope ``slopes[s-1]`` and
    intercept ``intercepts[s-1]``; continuity at breakpoints holds by
    construction. Build instances through :func:`validate_curve`.
    """

    knots: tuple[tuple[float, float], ...]
    slopes: tuple[float, ...] = field(repr=False)
    intercepts: tuple[float, ...] = field(repr=False)
    breakpoints: tuple[float, ...] = field(repr=False)
    _etas_asc: tuple[float, ...] = field(repr=False)
    _loads_asc: tuple[float, ...] = field(repr=False)

    @property
    def num_segments(self) -> int:
        return len(self.knots) - 1

    @property
    def eta_floor(self) -> float:
        """Smallest ratio the curve is defined for (last knot)."""
        return self.knots[-1][0]

    @property
    def candidate_etas(self) -> tuple[float, ...]:
        """All knot ratios, descending: 1 followed by every breakpoint."""
        return tuple(k[0] for k in self.knots)

    def load_at(self, eta: float) -> float:
        """Interpolated load; caller guarantees eta_floor <= eta <= 1."""
        xs = self._etas_asc
        if eta == xs[-1]:
            return self._loads_asc[-1]
        j = bisect_right(xs, eta) - 1
        return self.slopes[-1 - j] * (eta - xs[j]) + self._loads_asc[j]


def validate_curve(knots) -> CompLoadCurve:
    """Validate knot points and derive per-segment slopes and intercepts.

    Rejects curves with fewer than two knots, a first knot other than
    (1, 0), non-descending ratios, non-increasing loads, or slope magnitudes
    that shrink as the ratio falls.
    """
    pts = [(float(e), float(g)) for e, g in knots]
    if len(pts) < 2:
        raise ValueError("curve needs at least 2 knots")
    for e, g in pts:
        if not (math.isfinite(e) and math.isfinite(g)):
            raise ValueError("curve knots must be finite")
        if not 0 < e <= 1:
            raise ValueError("knot ratios must lie in (0, 1]")
        if g < 0:
            raise ValueError("knot loads must be non-negative")
    if pts[0] != (1.0, 0.0):
        raise ValueError("first knot must be (1, 0): zero load at no compression")
    etas = [p[0] for p in pts]
    loads = [p[1] for p in pts]
    for i in range(1, len(pts)):
        if not etas[i] < etas[i - 1]:
            raise ValueError("knot ratios must be strictly decreasing")
        if not loads[i] > loads[i - 1]:
            raise ValueError("knot loads must be strictly increasing")
    slopes = [
        (loads[i + 1] - loads[i]) / (etas[i + 1] - etas[i])
        for i in range(len(pts) - 1)
    ]
    for s in range(1, len(slopes)):
        if abs(slopes[s]) < abs(slopes[s - 1]):
            raise ValueError(
                "slope magnitudes must not decrease as the ratio falls "
                f"(segment {s + 1}: |{slopes[s]:g}| < |{slopes[s - 1]:g}|)"
            )
    intercepts = [loads[i + 1] - slopes[i] * etas[i + 1] for i in range(len(slopes))]
    xs = tuple(reversed(etas))
    ys = tuple(reversed(loads))
    return CompLoadCurve(
        knots=tuple(pts),
        slopes=tuple(slopes),
        intercepts=tuple(intercepts),
        breakpoints=tuple(etas[1:]),
        _etas_asc=xs,
        _loads_asc=ys,
    )


@dataclass(frozen=True, eq=False)
class Allocation:
    """One joint decision: per-user ratios and transmit powers plus deriveds.

    ``p_c_w`` and ``rates_bps`` are derived from ``(eta, p_t_w)`` through
    :func:`derive_allocation`; ``tau_bps`` is the minimum rate.
    """

    eta: np.ndarray
    p_t_w: np.ndarray
    p_c_w: np.ndarray
    rates_bps: np.ndarray
    tau_bps: float

    def __post_init__(self) -> None:
        sizes = {
            np.asarray(v).size
            for v in (self.eta, self.p_t_w, self.p_c_w, self.rates_bps)
        }
        if len(sizes) != 1:
            raise ValueError("allocation vectors must share one length")
        for name in ("eta", "p_t_w", "p_c_w", "rates_bps"):
            arr = np.asarray(getattr(self, name), dtype=np.float64).copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_users(self) -> int:
        return int(self.eta.size)


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Outcome of one solver run.

    ``tau_bps`` is the rate the solver certifies (the winning bisection
    value for the search-based methods, the minimum achieved rate for the
    closed-form baselines). ``winning_beta`` is populated only by the
    proportional-power method and records the received-power level that won.

    The counts describe the plain search, whatever work was skipped:
    ``outer_candidates_evaluated`` is the number of outer candidates (beta
    samples, ratio vectors) and ``bisection_iterations_total`` the sum of the
    iterations each candidate's bisection runs. The fixed-ratio search (full
    product or shared ratio) always bisects one row for tau and the winner;
    each vector still counts, with the K iterations its bisection is proven
    to take (zero if infeasible at ``tau_lo_init``). Only when K is unproven
    is every vector bisected, and then only to count its iterations.
    """

    method: Method
    tau_bps: float
    allocation: Allocation
    feasible: bool
    outer_candidates_evaluated: int
    bisection_iterations_total: int
    winning_beta: float | None = None


@dataclass(frozen=True)
class Violation:
    """One failed constraint; ``user_index`` is None for scheme-wide ones."""

    constraint: str
    user_index: int | None
    detail: str


def channel_capacity(p_t: float, h: float, params: SystemParams) -> float:
    """Shannon capacity B*log2(1 + p_t*h/sigma^2) in bit/s."""
    if p_t < 0:
        raise ValueError("transmit power must be non-negative")
    if h <= 0:
        raise ValueError("channel gain must be positive")
    snr = p_t * h / params.noise_power_w
    return params.bandwidth_hz * math.log1p(snr) / _LN2


def equivalent_rate(capacity_bps: float, eta: float) -> float:
    """Delivered-information rate after decompression: capacity / eta."""
    if eta <= 0:
        raise ValueError("compression ratio must be positive")
    return capacity_bps / eta


def comp_load(curve: CompLoadCurve, eta: float) -> float:
    """Computation load at ratio eta; defined on [eta_floor, 1]."""
    if not curve.eta_floor <= eta <= 1.0:
        raise ValueError(
            f"ratio {eta!r} outside curve domain [{curve.eta_floor}, 1]"
        )
    return curve.load_at(eta)


def comp_power(curve: CompLoadCurve, eta: float, params: SystemParams) -> float:
    """Computation power at ratio eta: load times the power coefficient."""
    return comp_load(curve, eta) * params.p0_w_per_load


def total_power(alloc: Allocation) -> float:
    """Total transmit plus computation power over all users, watts."""
    return float(np.sum(alloc.p_t_w + alloc.p_c_w))


def check_feasible(
    alloc: Allocation, params: SystemParams, curve: CompLoadCurve
) -> tuple[bool, list[Violation]]:
    """Judge an allocation against the budget, sign and ratio constraints.

    Returns (feasible, violations); each violation names the constraint and
    the offending user. The budget check carries relative slack
    ``FEASIBILITY_RTOL`` because solutions sit on the boundary.
    """
    violations: list[Violation] = []
    tot = total_power(alloc)
    if tot > params.p_max_w * (1.0 + FEASIBILITY_RTOL):
        violations.append(
            Violation(
                "total_power",
                None,
                f"total power {tot!r} W exceeds budget {params.p_max_w!r} W",
            )
        )
    for n in range(alloc.n_users):
        if alloc.p_t_w[n] < 0:
            violations.append(
                Violation(
                    "transmit_power",
                    n,
                    f"user {n}: transmit power {alloc.p_t_w[n]!r} W is negative",
                )
            )
        if not curve.eta_floor <= alloc.eta[n] <= 1.0:
            violations.append(
                Violation(
                    "compression_ratio",
                    n,
                    f"user {n}: ratio {alloc.eta[n]!r} outside "
                    f"[{curve.eta_floor}, 1]",
                )
            )
    return (not violations, violations)


def derive_allocation(
    eta,
    p_t_w,
    channel: ChannelState,
    curve: CompLoadCurve,
    params: SystemParams,
) -> Allocation:
    """Build a full allocation from the decision variables.

    Computation powers and rates are derived user by user in index order, so
    repeating the call on the stored ``(eta, p_t_w)`` reproduces the derived
    fields bit for bit.
    """
    eta_list = [float(e) for e in eta]
    p_t_list = [float(p) for p in p_t_w]
    if len(eta_list) != channel.n_users or len(p_t_list) != channel.n_users:
        raise ValueError("decision vectors must match the channel user count")
    p_c = [comp_power(curve, e, params) for e in eta_list]
    rates = [
        equivalent_rate(channel_capacity(p_t_list[n], float(channel.gains[n]), params), eta_list[n])
        for n in range(channel.n_users)
    ]
    return Allocation(
        eta=np.array(eta_list),
        p_t_w=np.array(p_t_list),
        p_c_w=np.array(p_c),
        rates_bps=np.array(rates),
        tau_bps=min(rates),
    )


def zero_allocation(n_users: int) -> Allocation:
    """All-idle allocation (no transmission, no compression, zero rates)."""
    z = np.zeros(n_users)
    return Allocation(
        eta=np.ones(n_users), p_t_w=z, p_c_w=z, rates_bps=z, tau_bps=0.0
    )
