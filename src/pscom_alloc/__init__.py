"""Max-min fair joint communication/computation power allocation.

Library for allocating a shared power budget across uplink users that may
trade transmit power against semantic-compression computation, maximizing the
worst user's equivalent rate. Ships two bisection-based solvers, two
baselines, a brute-force oracle for small instances, and an experiment layer
for parameter sweeps with CSV/SVG export.
"""

from .model import (
    FEASIBILITY_RTOL,
    Allocation,
    ChannelState,
    CompLoadCurve,
    Method,
    METHOD_ORDER,
    SolveReport,
    SystemParams,
    Violation,
    channel_capacity,
    check_feasible,
    comp_load,
    comp_power,
    derive_allocation,
    equivalent_rate,
    total_power,
    validate_curve,
)
from .solvers import (
    BUDGET_RTOL,
    BisectionOutcome,
    ORACLE_MAX_USERS,
    beta_grid,
    beta_range,
    bisect_tau,
    enumerate_eta_vectors,
    method1_power_sum,
    method2_power_sum,
    p_t_from_tau,
    solve_equal_power,
    solve_method1,
    solve_method2,
    solve_non_semantic,
    solve_oracle,
)
from .experiments import (
    DEFAULT_CURVE_KNOTS,
    DEFAULT_NOISE_SWEEP_DBM,
    ChannelSpec,
    ConfigError,
    RunRecord,
    ScenarioConfig,
    SweepParam,
    SweepSpec,
    apply_sweep_value,
    dbm_to_watts,
    default_curve,
    default_scenario_config,
    emit_plot,
    export_csv,
    generate_channel_gains,
    load_scenario_config,
    parse_scenario_config,
    realize_channel,
    run_scenario,
    run_sweep,
    serialize_scenario_config,
    watts_to_dbm,
)

__version__ = "0.1.0"
