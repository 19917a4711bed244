import csv
import dataclasses
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from pscom_alloc import (
    ChannelSpec,
    ConfigError,
    Method,
    ScenarioConfig,
    SweepParam,
    SweepSpec,
    SystemParams,
    apply_sweep_value,
    dbm_to_watts,
    default_scenario_config,
    emit_plot,
    export_csv,
    generate_channel_gains,
    parse_scenario_config,
    realize_channel,
    run_scenario,
    run_sweep,
    serialize_scenario_config,
    watts_to_dbm,
)

NON_SEMANTIC_2USER = 1e7 * math.log2(4001)

TWO_USER_CONFIG = """
{
  "system": {"noise_power_w": 1e-12},
  "channel": {"gains": [1e-9, 2e-9]},
  "curve": {"knots": [[1.0, 0.0], [0.8, 100.0], [0.6, 300.0], [0.4, 700.0], [0.2, 1500.0]]},
  "methods": ["non_semantic"]
}
"""

SEEDED_CHANNEL = {"n_users": 3, "gain_min": 1e-10, "gain_max": 1e-8, "seed": 42}

# serialize_scenario_config(default_scenario_config()), byte for byte
DEFAULT_CONFIG_JSON = """\
{
  "channel": {
    "gain_max": 1e-08,
    "gain_min": 1e-10,
    "n_users": 3,
    "seed": 42
  },
  "curve": {
    "knots": [
      [
        1.0,
        0.0
      ],
      [
        0.8,
        100.0
      ],
      [
        0.6,
        300.0
      ],
      [
        0.4,
        700.0
      ],
      [
        0.2,
        1500.0
      ]
    ]
  },
  "method2_shared_eta": false,
  "methods": [
    "method1",
    "method2",
    "equal_power",
    "non_semantic"
  ],
  "oracle_grid_points": 25,
  "system": {
    "bandwidth_hz": 10000000.0,
    "epsilon": 0.0001,
    "m_beta_samples": 500,
    "noise_power_w": 1e-12,
    "p0_w_per_load": 0.001,
    "p_max_w": 6.0,
    "tau_hi_init": 10000000000.0,
    "tau_lo_init": 0.001
  }
}
"""


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


class TestConfigParsing:
    def test_minimal_config_gets_defaults(self):
        cfg = parse_scenario_config(TWO_USER_CONFIG)
        assert cfg.system == SystemParams()
        assert cfg.channel.gains == (1e-9, 2e-9)
        assert cfg.methods == (Method.NON_SEMANTIC,)

    def test_dbm_noise_conversion(self):
        text = TWO_USER_CONFIG.replace('"noise_power_w": 1e-12', '"noise_power_dbm": -90')
        cfg = parse_scenario_config(text)
        assert cfg.system.noise_power_w == pytest.approx(1e-12, rel=1e-12)
        assert dbm_to_watts(-90.0) == pytest.approx(1e-12, rel=1e-12)
        assert watts_to_dbm(1e-12) == pytest.approx(-90.0, abs=1e-9)

    def test_round_trip(self):
        explicit = dataclasses.replace(
            default_scenario_config(),
            system=SystemParams(p_max_w=7.6, m_beta_samples=64, tau_hi_init=1e9),
            channel=ChannelSpec(gains=(5.65351413e-08, 5.25772738e-12, 1e-9)),
            method2_shared_eta=True,
        )
        dbm = parse_scenario_config(
            TWO_USER_CONFIG.replace('"noise_power_w": 1e-12', '"noise_power_dbm": -85')
        )
        for cfg in (
            parse_scenario_config(TWO_USER_CONFIG),
            default_scenario_config(),
            explicit,
            dbm,
        ):
            assert parse_scenario_config(serialize_scenario_config(cfg)) == cfg

    def test_serialized_default_bytes(self):
        # the serialized form is a contract: key set, order and number format
        assert serialize_scenario_config(default_scenario_config()) == DEFAULT_CONFIG_JSON

    @pytest.mark.parametrize(
        "mutate,path_fragment",
        [
            (lambda d: d.pop("channel"), "channel"),
            (lambda d: d.pop("curve"), "curve"),
            (lambda d: d.update(methods=[]), "methods"),
            (lambda d: d.update(methods=["method1", "bogus"]), "methods[1]"),
            (lambda d: d.update(methods=["method1", "method1"]), "methods[1]"),
            (lambda d: d["system"].update(noise_power_dbm=-90), "noise"),
            (lambda d: d["system"].update(p_max_w=-1), "system"),
            (lambda d: d["system"].update(unknown_field=1), "system.unknown_field"),
            (lambda d: d["channel"].update(seed=1), "channel"),
            (lambda d: d.update(curve={"knots": [[1.0, 5.0], [0.5, 10.0]]}), "curve.knots"),
            (lambda d: d.update(curve={"knots": [[1.0, 0.0], ["x", 1.0]]}), "curve.knots[1]"),
            (lambda d: d.update(oracle_grid_points=-1), "oracle_grid_points"),
            (lambda d: d.update(stray=True), "stray"),
            (lambda d: d["system"].update(p_max_w=math.inf), "system.p_max_w"),
            (lambda d: d["system"].update(bandwidth_hz=math.inf), "system.bandwidth_hz"),
            (lambda d: d["system"].update(p0_w_per_load=math.nan), "system.p0_w_per_load"),
            (lambda d: d["system"].update(p_max_w=10**400), "system.p_max_w"),
            (lambda d: d["system"].update(noise_power_w=-math.inf), "system.noise_power_w"),
            (lambda d: d.update(system={"noise_power_dbm": 1e6}), "noise_power_w must be finite"),
            (lambda d: d["channel"].update(gains=[1e-9, math.inf]), "channel.gains[1]"),
            (lambda d: d["curve"]["knots"][1].__setitem__(1, math.nan), "curve.knots[1][1]"),
            (
                lambda d: d["channel"].update(gains=5),
                "channel.gains: expected a list of numbers",
            ),
            (
                lambda d: d["channel"].update(gains=[1e-9, "x"]),
                "channel.gains[1]: expected a number, got str",
            ),
            (
                lambda d: d.update(channel=dict(SEEDED_CHANNEL, n_users=3.0)),
                "channel.n_users: expected an integer, got float",
            ),
            (
                lambda d: d.update(channel=dict(SEEDED_CHANNEL, n_users=True)),
                "channel.n_users: expected an integer, got bool",
            ),
            (
                lambda d: d.update(channel=dict(SEEDED_CHANNEL, gain_min="x")),
                "channel.gain_min: expected a number, got str",
            ),
            (
                lambda d: d.update(channel=dict(SEEDED_CHANNEL, seed=1.5)),
                "channel.seed: expected an integer, got float",
            ),
            (
                lambda d: d.update(channel=dict(SEEDED_CHANNEL, seed=None)),
                "channel.seed: expected an integer, got NoneType",
            ),
            (
                lambda d: d.update(channel=dict(SEEDED_CHANNEL, bogus=1)),
                "channel.bogus: unknown field",
            ),
            # the unknown field is reported before the noise-unit conflict
            (
                lambda d: d["system"].update(bogus=1, noise_power_dbm=-90),
                "system.bogus: unknown field",
            ),
        ],
    )
    def test_field_path_errors(self, mutate, path_fragment):
        import json

        doc = json.loads(TWO_USER_CONFIG)
        mutate(doc)
        with pytest.raises(ConfigError, match=path_fragment.replace("[", r"\[")):
            parse_scenario_config(json.dumps(doc))

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigError, match="config"):
            parse_scenario_config("{not json")

    def test_channel_spec_modes(self):
        with pytest.raises(ValueError):
            ChannelSpec(gains=(1e-9,), n_users=2, gain_min=1e-10, gain_max=1e-9, seed=1)
        with pytest.raises(ValueError):
            ChannelSpec(n_users=2, gain_min=1e-9, gain_max=1e-10, seed=1)
        with pytest.raises(ValueError):
            ChannelSpec(gains=())


# ---------------------------------------------------------------------------
# channel generation
# ---------------------------------------------------------------------------


class TestChannelGeneration:
    def test_deterministic(self):
        a = generate_channel_gains(5, 1e-10, 1e-8, 7)
        b = generate_channel_gains(5, 1e-10, 1e-8, 7)
        assert np.array_equal(a.gains, b.gains)

    def test_degenerate_interval(self):
        chan = generate_channel_gains(4, 3e-9, 3e-9, 9)
        assert np.all(chan.gains == 3e-9)

    def test_prefix_stability(self):
        long = generate_channel_gains(7, 1e-10, 1e-8, 42)
        short = generate_channel_gains(3, 1e-10, 1e-8, 42)
        assert np.array_equal(long.gains[:3], short.gains)

    def test_bounds_respected(self):
        chan = generate_channel_gains(64, 1e-10, 1e-8, 3)
        assert np.all(chan.gains >= 1e-10) and np.all(chan.gains <= 1e-8)

    def test_bad_bounds_rejected(self):
        with pytest.raises(ConfigError):
            generate_channel_gains(3, 0.0, 1e-8, 1)

    def test_realize_explicit(self):
        chan = realize_channel(ChannelSpec(gains=(1e-9, 2e-9)))
        assert np.array_equal(chan.gains, np.array([1e-9, 2e-9]))


# ---------------------------------------------------------------------------
# scenario and sweep execution
# ---------------------------------------------------------------------------


class TestRunScenario:
    def test_non_semantic_closed_form(self):
        cfg = parse_scenario_config(TWO_USER_CONFIG)
        records = run_scenario(cfg)
        assert len(records) == 1
        assert records[0].report.tau_bps == pytest.approx(NON_SEMANTIC_2USER, rel=1e-9)

    def test_all_methods_report(self):
        cfg = default_scenario_config()
        records = run_scenario(cfg, scenario_id="base")
        assert [r.report.method for r in records] == list(cfg.methods)
        assert all(r.report.feasible for r in records)
        assert all(r.scenario_id == "base" for r in records)
        assert all(r.wall_ms >= 0 for r in records)

    def test_solver_errors_annotated_with_method(self):
        cfg = dataclasses.replace(
            default_scenario_config(),
            channel=ChannelSpec(n_users=4, gain_min=1e-10, gain_max=1e-8, seed=1),
            methods=(Method.ORACLE,),
        )
        with pytest.raises(ValueError, match="oracle"):
            run_scenario(cfg)


class TestSweeps:
    def test_sweep_spec_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(SweepParam.PMAX, ())
        with pytest.raises(ValueError):
            SweepSpec(SweepParam.PMAX, (3.0, 5.0, 4.0))
        with pytest.raises(ValueError):
            SweepSpec(SweepParam.USERS, (2.0, 2.5))
        with pytest.raises(ValueError):
            SweepSpec(SweepParam.PMAX, (0.0, 1.0))
        for param in SweepParam:
            with pytest.raises(ValueError, match="finite"):
                SweepSpec(param, (math.inf,))
            with pytest.raises(ValueError, match="finite"):
                SweepSpec(param, (math.nan,))
        for dbm in (1e6, -1e6):  # watts overflow to inf / underflow to 0
            with pytest.raises(ValueError, match="noise sweep values"):
                SweepSpec(SweepParam.NOISE, (dbm,))
        SweepSpec(SweepParam.NOISE, (-80.0, -90.0, -100.0))  # decreasing is fine

    def test_apply_pmax_and_noise(self):
        cfg = default_scenario_config()
        assert apply_sweep_value(cfg, SweepParam.PMAX, 3.0).system.p_max_w == 3.0
        noisy = apply_sweep_value(cfg, SweepParam.NOISE, -80.0)
        assert noisy.system.noise_power_w == pytest.approx(1e-11, rel=1e-12)

    def test_apply_users_random_and_explicit(self):
        cfg = default_scenario_config()
        grown = apply_sweep_value(cfg, SweepParam.USERS, 5)
        assert grown.channel.n_users == 5
        explicit = dataclasses.replace(cfg, channel=ChannelSpec(gains=(1e-9, 2e-9, 3e-9)))
        sliced = apply_sweep_value(explicit, SweepParam.USERS, 2)
        assert sliced.channel.gains == (1e-9, 2e-9)
        with pytest.raises(ConfigError, match="gains"):
            apply_sweep_value(explicit, SweepParam.USERS, 4)

    def test_sweep_structure_and_order(self):
        cfg = dataclasses.replace(
            default_scenario_config(), methods=(Method.NON_SEMANTIC, Method.EQUAL_POWER)
        )
        sweep = SweepSpec(SweepParam.PMAX, (3.0, 6.0))
        records = run_sweep(cfg, sweep)
        assert len(records) == 4
        assert [r.sweep_value for r in records] == [3.0, 3.0, 6.0, 6.0]
        assert all(r.sweep_param == "pmax" for r in records)
        assert records[0].scenario_id == "pmax=3"

    def test_users_sweep_prefix_stable(self):
        cfg = dataclasses.replace(
            default_scenario_config(), methods=(Method.NON_SEMANTIC,)
        )
        records = run_sweep(cfg, SweepSpec(SweepParam.USERS, (2, 4)))
        gains2 = records[0].channel.gains
        gains4 = records[1].channel.gains
        assert np.array_equal(gains4[:2], gains2)

    def test_parallel_matches_serial(self):
        cfg = dataclasses.replace(
            default_scenario_config(),
            methods=(Method.METHOD2, Method.NON_SEMANTIC),
        )
        sweep = SweepSpec(SweepParam.PMAX, (3.0, 4.5, 6.0))
        serial = run_sweep(cfg, sweep, jobs=1)
        parallel = run_sweep(cfg, sweep, jobs=3)
        assert len(serial) == len(parallel)
        for a, b in zip(serial, parallel):
            assert a.scenario_id == b.scenario_id
            assert a.report.method == b.report.method
            assert a.report.tau_bps == b.report.tau_bps
            assert np.array_equal(a.report.allocation.p_t_w, b.report.allocation.p_t_w)
            assert np.array_equal(a.report.allocation.rates_bps, b.report.allocation.rates_bps)

    @pytest.mark.parametrize(
        "jobs, n_points, workers",
        [(64, 2, 2), (2, 10, 2), (64, 1, None), (1, 3, None)],
    )
    def test_workers_capped_at_sweep_points(self, pool_requests, jobs, n_points, workers):
        cfg = dataclasses.replace(default_scenario_config(), methods=(Method.NON_SEMANTIC,))
        values = tuple(float(v) for v in range(3, 3 + n_points))
        records = run_sweep(cfg, SweepSpec(SweepParam.PMAX, values), jobs=jobs)
        assert [r.sweep_value for r in records] == list(values)
        assert pool_requests == ([] if workers is None else [workers])


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


@pytest.fixture(scope="module")
def records():
    return run_scenario(default_scenario_config())


@pytest.fixture(scope="module")
def sweep_records():
    cfg = default_scenario_config()
    return run_sweep(cfg, SweepSpec(SweepParam.PMAX, (3.0, 4.0, 5.0, 6.0)))


class TestExportCsv:

    def test_detail_row_count(self, records, tmp_path):
        _, detail = export_csv(records, tmp_path)
        rows = _read_csv(detail)
        assert len(rows) == 3 * len(records)  # 3 users per scheme

    def test_reexport_byte_identical(self, records, tmp_path):
        s1, d1 = export_csv(records, tmp_path / "a")
        s2, d2 = export_csv(records, tmp_path / "b")
        assert s1.read_bytes() == s2.read_bytes()
        assert d1.read_bytes() == d2.read_bytes()

    def test_round_trip_min_rate_matches_summary(self, records, tmp_path):
        summary, detail = export_csv(records, tmp_path)
        by_key = {}
        for row in _read_csv(detail):
            key = (row["scenario_id"], row["method"])
            by_key.setdefault(key, []).append(float(row["rate_bps"]))
        for row in _read_csv(summary):
            key = (row["scenario_id"], row["method"])
            tau = float(row["tau_bps"])
            assert min(by_key[key]) == pytest.approx(tau, rel=1e-9)

    def test_float_serialization_round_trips_exactly(self, records, tmp_path):
        _, detail = export_csv(records, tmp_path)
        rows = _read_csv(detail)
        for rec in records:
            for n in range(rec.channel.n_users):
                row = next(
                    r
                    for r in rows
                    if r["method"] == rec.report.method.value and int(r["user_index"]) == n
                )
                assert float(row["rate_bps"]) == rec.report.allocation.rates_bps[n]
                assert float(row["gain"]) == rec.channel.gains[n]

    def test_lf_line_endings_and_header(self, records, tmp_path):
        summary, _ = export_csv(records, tmp_path)
        raw = summary.read_bytes()
        assert b"\r" not in raw
        assert raw.startswith(b"scenario_id,method,sweep_param,sweep_value,tau_bps")


# ---------------------------------------------------------------------------
# SVG plots
# ---------------------------------------------------------------------------


def _polylines(path):
    root = ET.parse(path).getroot()
    ns = {"svg": "http://www.w3.org/2000/svg"}
    return [
        [tuple(map(float, p.split(","))) for p in el.attrib["points"].split()]
        for el in root.findall(".//svg:polyline", ns)
    ]


class TestEmitPlot:
    def test_series_structure(self, sweep_records, tmp_path):
        path = emit_plot(sweep_records, tmp_path / "plot.svg")
        lines = _polylines(path)
        assert len(lines) == 4  # one per method
        assert all(len(pts) == 4 for pts in lines)

    def test_deterministic_output(self, sweep_records, tmp_path):
        p1 = emit_plot(sweep_records, tmp_path / "p1.svg")
        p2 = emit_plot(sweep_records, tmp_path / "p2.svg")
        assert p1.read_bytes() == p2.read_bytes()

    def test_monotone_rates_render_as_descending_y(self, sweep_records, tmp_path):
        # svg y grows downward, so non-decreasing rates mean non-increasing y
        path = emit_plot(sweep_records, tmp_path / "mono.svg")
        for pts in _polylines(path):
            ys = [y for _, y in pts]
            assert all(b <= a + 1e-9 for a, b in zip(ys, ys[1:]))

    def test_rejects_empty_and_non_sweep(self, tmp_path):
        with pytest.raises(ValueError):
            emit_plot([], tmp_path / "x.svg")
        records = run_scenario(default_scenario_config())
        with pytest.raises(ValueError):
            emit_plot(records, tmp_path / "y.svg")

    def test_self_contained_text(self, sweep_records, tmp_path):
        path = emit_plot(sweep_records, tmp_path / "t.svg")
        text = path.read_text(encoding="utf-8")
        assert text.startswith("<svg ")
        assert "xmlns=" in text and text.rstrip().endswith("</svg>")
