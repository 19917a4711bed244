"""Scenario configuration, channel generation, sweeps and result export.

A scenario is described by one JSON config file (see ``parse_scenario_config``
for the schema). dBm values are converted to watts here, once, at the parse
boundary; everything downstream works in watts.

Sweeps rerun a scenario while overriding one parameter (total power budget,
user count, or noise power). User-count sweeps extend the channel with
prefix-stable gains: the first k gains of a larger draw equal the k-user
draw, so the sweep isolates the user count from the channel realization.

Results are exported as two CSV files (scheme summary plus per-user detail)
and an optional self-contained SVG line chart. Exports are byte-deterministic
for identical records.
"""

from __future__ import annotations

import csv
import enum
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Sequence
from xml.sax.saxutils import escape

import numpy as np

from .model import (
    METHOD_ORDER,
    ChannelState,
    Method,
    SolveReport,
    SystemParams,
    total_power,
    validate_curve,
)
from .solvers import (
    solve_equal_power,
    solve_method1,
    solve_method2,
    solve_non_semantic,
    solve_oracle,
)

__all__ = [
    "ConfigError",
    "ChannelSpec",
    "ScenarioConfig",
    "SweepParam",
    "SweepSpec",
    "RunRecord",
    "DEFAULT_CURVE_KNOTS",
    "DEFAULT_NOISE_SWEEP_DBM",
    "dbm_to_watts",
    "watts_to_dbm",
    "default_curve",
    "default_scenario_config",
    "parse_scenario_config",
    "serialize_scenario_config",
    "load_scenario_config",
    "generate_channel_gains",
    "realize_channel",
    "run_scenario",
    "apply_sweep_value",
    "run_sweep",
    "export_csv",
    "emit_plot",
]

#: Repository-default computation load curve: 4 segments with slope
#: magnitudes 500/1000/2000/4000, load 0 at no compression, 1500 at the
#: strongest supported compression (ratio 0.2).
DEFAULT_CURVE_KNOTS = (
    (1.0, 0.0),
    (0.8, 100.0),
    (0.6, 300.0),
    (0.4, 700.0),
    (0.2, 1500.0),
)

DEFAULT_NOISE_SWEEP_DBM = (-100.0, -95.0, -90.0, -85.0, -80.0)


class ConfigError(ValueError):
    """Invalid scenario config; the message starts with the field path."""


def dbm_to_watts(dbm: float) -> float:
    try:
        return 10.0 ** ((dbm - 30.0) / 10.0)
    except OverflowError:
        return math.inf


def watts_to_dbm(watts: float) -> float:
    if watts <= 0:
        raise ValueError("power must be positive to express in dBm")
    return 10.0 * math.log10(watts) + 30.0


def default_curve():
    return validate_curve(DEFAULT_CURVE_KNOTS)


@dataclass(frozen=True)
class ChannelSpec:
    """Channel description: explicit gains, or a seeded random draw."""

    gains: tuple[float, ...] | None = None
    n_users: int | None = None
    gain_min: float | None = None
    gain_max: float | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        explicit = self.gains is not None
        random_fields = (self.n_users, self.gain_min, self.gain_max, self.seed)
        if explicit:
            if any(f is not None for f in random_fields):
                raise ValueError("give either explicit gains or a random spec, not both")
            if len(self.gains) < 1:
                raise ValueError("gains must not be empty")
            if any(not g > 0 for g in self.gains):
                raise ValueError("every gain must be > 0")
        else:
            if any(f is None for f in random_fields):
                raise ValueError("random channel spec needs n_users, gain_min, gain_max, seed")
            if self.n_users < 1:
                raise ValueError("n_users must be >= 1")
            if not 0 < self.gain_min <= self.gain_max:
                raise ValueError("require 0 < gain_min <= gain_max")
            if self.seed < 0 or self.seed >= 2**64:
                raise ValueError("seed must fit in 64 unsigned bits")

    @property
    def user_count(self) -> int:
        return len(self.gains) if self.gains is not None else int(self.n_users)


@dataclass(frozen=True)
class ScenarioConfig:
    """One fully-specified scenario plus the schemes to run on it."""

    system: SystemParams
    channel: ChannelSpec
    curve_knots: tuple[tuple[float, float], ...]
    methods: tuple[Method, ...]
    oracle_grid_points: int = 25
    method2_shared_eta: bool = False


class SweepParam(enum.Enum):
    PMAX = "pmax"
    USERS = "users"
    NOISE = "noise"


@dataclass(frozen=True)
class SweepSpec:
    """Which parameter to sweep and the ordered values to visit.

    Power values are watts, user counts are integers, noise values are dBm.
    Values must be strictly monotone (either direction).
    """

    parameter: SweepParam
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = self.values
        if not vals:
            raise ValueError("sweep values must not be empty")
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("sweep values must be finite")
        if len(vals) > 1:
            increasing = all(b > a for a, b in zip(vals, vals[1:]))
            decreasing = all(b < a for a, b in zip(vals, vals[1:]))
            if not (increasing or decreasing):
                raise ValueError("sweep values must be strictly monotone")
        if self.parameter is SweepParam.USERS:
            if any(int(v) != v or v < 1 for v in vals):
                raise ValueError("user-count sweep values must be integers >= 1")
        if self.parameter is SweepParam.PMAX:
            if any(not v > 0 for v in vals):
                raise ValueError("power sweep values must be positive")
        if self.parameter is SweepParam.NOISE:
            if any(not 0 < dbm_to_watts(v) < math.inf for v in vals):
                raise ValueError("noise sweep values must give a finite positive power in watts")


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

_TOP_KEYS = {"system", "channel", "curve", "methods", "oracle_grid_points", "method2_shared_eta"}

#: config keys that give a watt field in dBm
_DBM_ALIASES = {"noise_power_dbm": "noise_power_w"}


def _require_mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object, got {type(obj).__name__}")
    return obj


def _number(obj, path: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {type(obj).__name__}")
    # json.loads accepts Infinity, NaN and integers too large for a float
    try:
        value = float(obj)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"{path}: expected a finite number")
    return value


def _integer(obj, path: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ConfigError(f"{path}: expected an integer, got {type(obj).__name__}")
    return obj


def _numbers(obj, path: str) -> tuple[float, ...]:
    if not isinstance(obj, list):
        raise ConfigError(f"{path}: expected a list of numbers")
    return tuple(_number(x, f"{path}[{i}]") for i, x in enumerate(obj))


#: field parser by annotated type (``| None`` stripped)
_FIELD_PARSERS = {"float": _number, "int": _integer, "tuple[float, ...]": _numbers}


def _parse_section(cls, raw, section: str):
    """Build the dataclass ``cls`` from the config section ``raw``.

    Keys must be fields of ``cls`` or a dBm alias of one of them; each
    present field is parsed by its annotated type. Errors name the field
    path under ``section``.
    """
    raw = _require_mapping(raw, section)
    names = {f.name for f in fields(cls)}
    aliases = {k: v for k, v in _DBM_ALIASES.items() if v in names}
    unknown = set(raw) - names - set(aliases)
    if unknown:
        raise ConfigError(f"{section}.{sorted(unknown)[0]}: unknown field")
    for alias, name in aliases.items():
        if alias in raw and name in raw:
            raise ConfigError(f"{section}.{alias}: give either watts or dBm, not both")
    kwargs = {}
    for f in fields(cls):
        if f.name in raw:
            parse = _FIELD_PARSERS[f.type.removesuffix(" | None")]
            kwargs[f.name] = parse(raw[f.name], f"{section}.{f.name}")
    for alias, name in aliases.items():
        if alias in raw:
            kwargs[name] = dbm_to_watts(_number(raw[alias], f"{section}.{alias}"))
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def parse_scenario_config(text: str) -> ScenarioConfig:
    """Parse and validate a JSON scenario config.

    Schema (system fields are optional and default to the stock values;
    noise may be given as ``noise_power_w`` or ``noise_power_dbm``)::

        {
          "system":  {"bandwidth_hz": 1e7, "noise_power_dbm": -90, ...},
          "channel": {"gains": [1e-9, 2e-9]}
                     or {"n_users": 3, "gain_min": 1e-10,
                         "gain_max": 1e-8, "seed": 42},
          "curve":   {"knots": [[1.0, 0.0], [0.8, 100.0], ...]},
          "methods": ["method1", "method2", "equal_power", "non_semantic"],
          "oracle_grid_points": 25,
          "method2_shared_eta": false
        }

    Raises :class:`ConfigError` naming the offending field path.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: not valid JSON ({exc})") from exc
    raw = _require_mapping(raw, "config")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"{sorted(unknown)[0]}: unknown top-level field")

    system = _parse_section(SystemParams, raw.get("system", {}), "system")

    if "channel" not in raw:
        raise ConfigError("channel: required section is missing")
    channel = _parse_section(ChannelSpec, raw["channel"], "channel")

    if "curve" not in raw:
        raise ConfigError("curve: required section is missing")
    curve_raw = _require_mapping(raw["curve"], "curve")
    if set(curve_raw) - {"knots"}:
        raise ConfigError("curve: only the 'knots' field is allowed")
    knots_raw = curve_raw.get("knots")
    if not isinstance(knots_raw, list):
        raise ConfigError("curve.knots: expected a list of [eta, load] pairs")
    knots = []
    for i, pair in enumerate(knots_raw):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(f"curve.knots[{i}]: expected an [eta, load] pair")
        knots.append(
            (_number(pair[0], f"curve.knots[{i}][0]"), _number(pair[1], f"curve.knots[{i}][1]"))
        )
    try:
        validate_curve(knots)
    except ValueError as exc:
        raise ConfigError(f"curve.knots: {exc}") from exc

    methods_raw = raw.get("methods")
    if not isinstance(methods_raw, list) or not methods_raw:
        raise ConfigError("methods: expected a non-empty list of method names")
    methods = []
    for i, name in enumerate(methods_raw):
        try:
            m = Method(name)
        except ValueError:
            valid = ", ".join(m.value for m in Method)
            raise ConfigError(f"methods[{i}]: unknown method {name!r} (valid: {valid})")
        if m in methods:
            raise ConfigError(f"methods[{i}]: duplicate method {name!r}")
        methods.append(m)

    options = {}  # absent keys take the ScenarioConfig defaults
    if "oracle_grid_points" in raw:
        grid = _integer(raw["oracle_grid_points"], "oracle_grid_points")
        if grid < 0:
            raise ConfigError("oracle_grid_points: must be non-negative")
        options["oracle_grid_points"] = grid
    if "method2_shared_eta" in raw:
        if not isinstance(raw["method2_shared_eta"], bool):
            raise ConfigError("method2_shared_eta: expected true or false")
        options["method2_shared_eta"] = raw["method2_shared_eta"]

    return ScenarioConfig(
        system=system,
        channel=channel,
        curve_knots=tuple(knots),
        methods=tuple(methods),
        **options,
    )


def serialize_scenario_config(config: ScenarioConfig) -> str:
    """Inverse of :func:`parse_scenario_config` (noise emitted in watts)."""
    chan_d = {k: v for k, v in asdict(config.channel).items() if v is not None}
    doc = {
        "system": asdict(config.system),
        "channel": chan_d,
        "curve": {"knots": [list(k) for k in config.curve_knots]},
        "methods": [m.value for m in config.methods],
        "oracle_grid_points": config.oracle_grid_points,
        "method2_shared_eta": config.method2_shared_eta,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_scenario_config(path) -> ScenarioConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config: not valid UTF-8 ({exc})") from exc
    return parse_scenario_config(text)


def default_scenario_config() -> ScenarioConfig:
    """Stock scenario: 3 seeded users, default curve, all non-oracle schemes."""
    return ScenarioConfig(
        system=SystemParams(),
        channel=ChannelSpec(n_users=3, gain_min=1e-10, gain_max=1e-8, seed=42),
        curve_knots=DEFAULT_CURVE_KNOTS,
        methods=(
            Method.METHOD1,
            Method.METHOD2,
            Method.EQUAL_POWER,
            Method.NON_SEMANTIC,
        ),
    )


# ---------------------------------------------------------------------------
# Channel generation and scenario execution
# ---------------------------------------------------------------------------


def generate_channel_gains(
    n_users: int, gain_min: float, gain_max: float, seed: int
) -> ChannelState:
    """Log-uniform gains on [gain_min, gain_max] from a seeded generator.

    Gains are drawn one per user from a single stream, so a larger draw with
    the same seed starts with exactly the gains of a smaller one
    (prefix stability).
    """
    if not 0 < gain_min <= gain_max:
        raise ConfigError("channel: require 0 < gain_min <= gain_max")
    if n_users < 1:
        raise ConfigError("channel.n_users: must be >= 1")
    if gain_min == gain_max:
        return ChannelState(np.full(n_users, float(gain_min)))
    rng = np.random.default_rng(seed)
    lo = math.log(gain_min)
    hi = math.log(gain_max)
    gains = [math.exp(rng.uniform(lo, hi)) for _ in range(n_users)]
    return ChannelState(np.array(gains))


def realize_channel(spec: ChannelSpec) -> ChannelState:
    if spec.gains is not None:
        return ChannelState(np.array(spec.gains, dtype=np.float64))
    return generate_channel_gains(spec.n_users, spec.gain_min, spec.gain_max, spec.seed)


@dataclass(frozen=True)
class RunRecord:
    """One solver run on one scenario, with context for export."""

    scenario_id: str
    sweep_param: str
    sweep_value: float | None
    channel: ChannelState
    report: SolveReport
    wall_ms: float


def _run_method(method: Method, channel, curve, config: ScenarioConfig):
    params = config.system
    if method is Method.METHOD1:
        return solve_method1(channel, curve, params)
    if method is Method.METHOD2:
        return solve_method2(channel, curve, params, shared_eta=config.method2_shared_eta)
    if method is Method.EQUAL_POWER:
        return solve_equal_power(channel, curve, params)
    if method is Method.NON_SEMANTIC:
        return solve_non_semantic(channel, params)
    if method is Method.ORACLE:
        return solve_oracle(channel, curve, params, config.oracle_grid_points)
    raise ValueError(f"unhandled method {method!r}")


def run_scenario(config: ScenarioConfig, scenario_id: str = "scenario") -> list[RunRecord]:
    """Run every configured scheme on the same realized instance."""
    channel = realize_channel(config.channel)
    curve = validate_curve(config.curve_knots)
    records = []
    for method in config.methods:
        start = time.perf_counter()
        try:
            report = _run_method(method, channel, curve, config)
        except ValueError as exc:
            raise ValueError(f"{method.value}: {exc}") from exc
        wall_ms = (time.perf_counter() - start) * 1e3
        records.append(
            RunRecord(
                scenario_id=scenario_id,
                sweep_param="",
                sweep_value=None,
                channel=channel,
                report=report,
                wall_ms=wall_ms,
            )
        )
    return records


def apply_sweep_value(
    config: ScenarioConfig, parameter: SweepParam, value: float
) -> ScenarioConfig:
    """Derive the scenario config with one swept parameter overridden."""
    if parameter is SweepParam.PMAX:
        return replace(config, system=replace(config.system, p_max_w=float(value)))
    if parameter is SweepParam.NOISE:
        return replace(
            config, system=replace(config.system, noise_power_w=dbm_to_watts(float(value)))
        )
    if parameter is SweepParam.USERS:
        n = int(value)
        chan = config.channel
        if chan.gains is not None:
            if n > len(chan.gains):
                raise ConfigError(
                    f"channel.gains: sweep needs {n} users but only "
                    f"{len(chan.gains)} explicit gains are given"
                )
            return replace(config, channel=ChannelSpec(gains=chan.gains[:n]))
        return replace(config, channel=replace(chan, n_users=n))
    raise ValueError(f"unhandled sweep parameter {parameter!r}")


def _sweep_point(args: tuple[ScenarioConfig, str]) -> list[RunRecord]:
    config, scenario_id = args
    return run_scenario(config, scenario_id)


def run_sweep(
    config: ScenarioConfig, sweep: SweepSpec, jobs: int = 1
) -> list[RunRecord]:
    """One scenario run per sweep value; long-format records in sweep order.

    ``jobs > 1`` evaluates sweep points in parallel processes, at most one
    per point; the output order and all numeric results are identical to the
    serial run (solvers are deterministic), only wall-clock timings differ.
    """
    tasks = []
    for value in sweep.values:
        derived = apply_sweep_value(config, sweep.parameter, value)
        tasks.append((derived, f"{sweep.parameter.value}={value:g}"))
    workers = min(jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            nested = list(pool.map(_sweep_point, tasks))
    else:
        nested = [_sweep_point(t) for t in tasks]
    records = []
    for value, point_records in zip(sweep.values, nested):
        for rec in point_records:
            records.append(
                replace(rec, sweep_param=sweep.parameter.value, sweep_value=float(value))
            )
    return records


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

_SUMMARY_HEADER = (
    "scenario_id",
    "method",
    "sweep_param",
    "sweep_value",
    "tau_bps",
    "total_power_w",
    "feasible",
    "outer_candidates",
    "bisect_iters",
    "wall_ms",
)
_DETAIL_HEADER = (
    "scenario_id",
    "method",
    "user_index",
    "gain",
    "eta",
    "p_t_w",
    "p_c_w",
    "rate_bps",
)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def export_csv(records: Sequence[RunRecord], out_dir) -> tuple[Path, Path]:
    """Write summary.csv and detail.csv; returns their paths.

    Numbers carry 17 significant digits so float64 values round-trip exactly;
    output is byte-identical for identical records.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary_path = out / "summary.csv"
    detail_path = out / "detail.csv"

    with open(summary_path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(_SUMMARY_HEADER)
        for r in records:
            w.writerow(
                (
                    r.scenario_id,
                    r.report.method.value,
                    r.sweep_param,
                    _fmt(r.sweep_value) if r.sweep_value is not None else "",
                    _fmt(r.report.tau_bps),
                    _fmt(total_power(r.report.allocation)),
                    "true" if r.report.feasible else "false",
                    str(r.report.outer_candidates_evaluated),
                    str(r.report.bisection_iterations_total),
                    _fmt(r.wall_ms),
                )
            )

    with open(detail_path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(_DETAIL_HEADER)
        for r in records:
            alloc = r.report.allocation
            for n in range(alloc.n_users):
                w.writerow(
                    (
                        r.scenario_id,
                        r.report.method.value,
                        str(n),
                        _fmt(r.channel.gains[n]),
                        _fmt(alloc.eta[n]),
                        _fmt(alloc.p_t_w[n]),
                        _fmt(alloc.p_c_w[n]),
                        _fmt(alloc.rates_bps[n]),
                    )
                )
    return summary_path, detail_path


_PALETTE = {
    Method.METHOD1: "#1f77b4",
    Method.METHOD2: "#d62728",
    Method.EQUAL_POWER: "#2ca02c",
    Method.NON_SEMANTIC: "#9467bd",
    Method.ORACLE: "#8c564b",
}
_XLABEL = {
    SweepParam.PMAX: "max total power (W)",
    SweepParam.USERS: "number of users",
    SweepParam.NOISE: "noise power (dBm)",
}


def emit_plot(records: Sequence[RunRecord], path) -> Path:
    """Render sweep records as a self-contained SVG line chart.

    One polyline per method, x = sweep value, y = reported min rate. The
    output embeds no timestamps and is byte-identical for identical input.
    """
    if not records:
        raise ValueError("cannot plot an empty record table")
    params = {r.sweep_param for r in records}
    if len(params) != 1 or "" in params:
        raise ValueError("plotting needs sweep records from a single sweep")
    sweep_param = SweepParam(next(iter(params)))

    series: dict[Method, list[tuple[float, float]]] = {}
    for r in records:
        series.setdefault(r.report.method, []).append(
            (float(r.sweep_value), float(r.report.tau_bps))
        )
    for pts in series.values():
        pts.sort(key=lambda p: p[0])

    xs = sorted({p[0] for pts in series.values() for p in pts})
    ymax = max(p[1] for pts in series.values() for p in pts)
    x_lo, x_hi = xs[0], xs[-1]
    if x_hi == x_lo:
        x_lo -= 0.5
        x_hi += 0.5
    y_lo, y_hi = 0.0, (ymax if ymax > 0 else 1.0) * 1.05

    width, height = 800, 500
    pl, pr, pt, pb = 90, 170, 40, 70
    plot_w = width - pl - pr
    plot_h = height - pt - pb

    def sx(x: float) -> float:
        return pl + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return pt + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    out: list[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    )
    out.append(f'<rect width="{width}" height="{height}" fill="white"/>')
    ax = "stroke=\"#333333\" stroke-width=\"1\""
    out.append(
        f'<line x1="{pl}" y1="{pt + plot_h}" x2="{pl + plot_w}" y2="{pt + plot_h}" {ax}/>'
    )
    out.append(f'<line x1="{pl}" y1="{pt}" x2="{pl}" y2="{pt + plot_h}" {ax}/>')

    for x in xs:
        px = sx(x)
        out.append(
            f'<line x1="{px:.2f}" y1="{pt + plot_h}" x2="{px:.2f}" '
            f'y2="{pt + plot_h + 5}" {ax}/>'
        )
        out.append(
            f'<text x="{px:.2f}" y="{pt + plot_h + 20}" font-size="12" '
            f'text-anchor="middle" fill="#333333">{escape(f"{x:g}")}</text>'
        )
    for i in range(6):
        y = y_lo + (y_hi - y_lo) * i / 5
        py = sy(y)
        out.append(f'<line x1="{pl - 5}" y1="{py:.2f}" x2="{pl}" y2="{py:.2f}" {ax}/>')
        out.append(
            f'<text x="{pl - 9}" y="{py + 4:.2f}" font-size="12" '
            f'text-anchor="end" fill="#333333">{escape(f"{y:.3g}")}</text>'
        )

    out.append(
        f'<text x="{pl + plot_w / 2:.2f}" y="{height - 22}" font-size="14" '
        f'text-anchor="middle" fill="#111111">{escape(_XLABEL[sweep_param])}</text>'
    )
    out.append(
        f'<text x="22" y="{pt + plot_h / 2:.2f}" font-size="14" text-anchor="middle" '
        f'fill="#111111" transform="rotate(-90 22 {pt + plot_h / 2:.2f})">'
        f'min equivalent rate (bit/s)</text>'
    )

    legend_y = pt + 10
    for method in METHOD_ORDER:
        if method not in series:
            continue
        color = _PALETTE[method]
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in series[method])
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        lx = pl + plot_w + 12
        out.append(
            f'<line x1="{lx}" y1="{legend_y}" x2="{lx + 22}" y2="{legend_y}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{lx + 28}" y="{legend_y + 4}" font-size="12" '
            f'fill="#111111">{escape(method.value)}</text>'
        )
        legend_y += 20

    out.append("</svg>")
    dest = Path(path)
    dest.parent.mkdir(parents=True, exist_ok=True)
    dest.write_text("\n".join(out) + "\n", encoding="utf-8")
    return dest
