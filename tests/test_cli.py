import csv
import dataclasses
import json

import numpy as np
import pytest

from pscom_alloc import (
    BUDGET_RTOL,
    DEFAULT_CURVE_KNOTS,
    ChannelSpec,
    Method,
    default_scenario_config,
    method1_power_sum,
    realize_channel,
    serialize_scenario_config,
    solve_method1,
    solve_method2,
    solve_oracle,
    validate_curve,
)
from pscom_alloc import cli
from pscom_alloc.cli import (
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_IO,
    EXIT_OK,
    EXIT_ORACLE,
    main,
)


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(serialize_scenario_config(default_scenario_config()))
    return path


def _write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(serialize_scenario_config(config))
    return path


def _rows(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


class TestSolveCommand:
    def test_happy_path(self, config_path, tmp_path, capsys):
        out = tmp_path / "results"
        code = main(["solve", "--config", str(config_path), "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "summary.csv").is_file() and (out / "detail.csv").is_file()
        stdout = capsys.readouterr().out
        for name in ("method1", "method2", "equal_power", "non_semantic"):
            assert name in stdout
        assert "tau=" in stdout and "total_power=" in stdout

    def test_method_filter(self, config_path, tmp_path, capsys):
        out = tmp_path / "r"
        code = main(
            ["solve", "--config", str(config_path), "--out", str(out),
             "--method", "non_semantic"]
        )
        assert code == EXIT_OK
        rows = _rows(out / "summary.csv")
        assert [r["method"] for r in rows] == ["non_semantic"]

    def test_invalid_curve_names_first_knot_rule(self, tmp_path, capsys):
        doc = json.loads(serialize_scenario_config(default_scenario_config()))
        doc["curve"]["knots"][0] = [1.0, 5.0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code = main(["solve", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "curve.knots" in err and "first knot" in err

    def test_missing_config_path(self, tmp_path, capsys):
        code = main(["solve", "--config", str(tmp_path / "nope.json")])
        assert code == EXIT_CONFIG
        assert "does not exist" in capsys.readouterr().err

    def test_config_path_is_a_directory(self, tmp_path, capsys):
        code = main(["solve", "--config", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: config path is not a file: {tmp_path}\n"

    def test_config_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe")
        code = main(["solve", "--config", str(path)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: config: not valid UTF-8 (") and "0xff" in err

    def test_unknown_method_name(self, config_path, capsys):
        code = main(["solve", "--config", str(config_path), "--method", "bogus"])
        assert code == EXIT_CONFIG
        assert "bogus" in capsys.readouterr().err

    def test_enumeration_guard_refuses(self, tmp_path, capsys):
        # 10 knots and 9 users: 10^9 candidate vectors
        knots = [[1.0, 0.0]] + [
            [round(1.0 - 0.08 * i, 2), float(100 * i * i)] for i in range(1, 10)
        ]
        doc = json.loads(serialize_scenario_config(default_scenario_config()))
        doc["curve"]["knots"] = knots
        doc["channel"] = {"n_users": 9, "gain_min": 1e-10, "gain_max": 1e-8, "seed": 1}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        code = main(["solve", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "--force" in capsys.readouterr().err

    def test_enumeration_guard_counts_the_oracle(self, tmp_path, capsys):
        # 4 segments of 201 values each plus 1: 805^3 = 5.2e8 oracle vectors
        cfg = dataclasses.replace(
            default_scenario_config(), methods=(Method.ORACLE,), oracle_grid_points=200
        )
        path = _write_config(tmp_path, cfg)
        code = main(["solve", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "--force" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_enumeration_guard_refuses_counts_beyond_float(self, tmp_path, capsys):
        # 5^500 vectors: more than a float holds, refused without a traceback
        cfg = dataclasses.replace(
            default_scenario_config(),
            channel=ChannelSpec(n_users=500, gain_min=1e-10, gain_max=1e-8, seed=1),
        )
        path = _write_config(tmp_path, cfg)
        code = main(["solve", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "--force" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("n_users", [1, 2, 3])
    @pytest.mark.parametrize("grid_points", [0, 1, 3])
    @pytest.mark.parametrize("n_knots", [2, 3, 4, 5])
    def test_enumeration_guard_counts_match_the_solvers(
        self, monkeypatch, n_knots, grid_points, n_users
    ):
        # the guard derives its counts from its own formulas; the solvers
        # report the vectors they actually enumerated
        counted = []
        real_count = cli._vector_count

        def recording_count(n_values, n):
            counted.append(real_count(n_values, n))
            return counted[-1]

        monkeypatch.setattr(cli, "_vector_count", recording_count)
        knots = DEFAULT_CURVE_KNOTS[:n_knots]
        cfg = dataclasses.replace(
            default_scenario_config(),
            channel=ChannelSpec(n_users=n_users, gain_min=1e-10, gain_max=1e-8, seed=1),
            curve_knots=knots,
            methods=(Method.METHOD2, Method.ORACLE),
            oracle_grid_points=grid_points,
        )
        cli._guard_enumeration(cfg, n_users, force=False)
        channel, curve = realize_channel(cfg.channel), validate_curve(knots)
        assert counted == [
            solve_method2(channel, curve, cfg.system).outer_candidates_evaluated,
            solve_oracle(channel, curve, cfg.system, grid_points).outer_candidates_evaluated,
        ]

    def test_infeasible_exit(self, tmp_path, capsys):
        cfg = default_scenario_config()
        cfg = dataclasses.replace(
            cfg,
            system=dataclasses.replace(cfg.system, tau_lo_init=9e9, tau_hi_init=1e10),
        )
        path = _write_config(tmp_path, cfg)
        code = main(["solve", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_INFEASIBLE

    def test_zero_lower_bound(self, config_path, tmp_path, capsys):
        # tau_lo_init = 0 is a valid bracket: method 1 must solve it, not
        # divide by zero, and land within epsilon of the default bracket
        cfg = default_scenario_config()
        zero = dataclasses.replace(cfg.system, tau_lo_init=0.0)
        path = _write_config(tmp_path, dataclasses.replace(cfg, system=zero), "zero.json")
        args = ["solve", "--method", "method1"]
        assert main(args + ["--config", str(path), "--out", str(tmp_path / "z")]) == EXIT_OK
        assert main(args + ["--config", str(config_path), "--out", str(tmp_path / "d")]) == EXIT_OK
        row = _rows(tmp_path / "z" / "summary.csv")[0]
        ref = _rows(tmp_path / "d" / "summary.csv")[0]
        tau = float(row["tau_bps"])
        assert abs(tau - float(ref["tau_bps"])) <= zero.epsilon
        # the method-1 certificate: on budget at tau, over it at tau + 10 eps
        chan = realize_channel(cfg.channel)
        curve = validate_curve(cfg.curve_knots)
        with np.errstate(all="raise"):
            report = solve_method1(chan, curve, zero)
        assert report.tau_bps == tau
        tol = zero.p_max_w * (1.0 + BUDGET_RTOL)
        at = method1_power_sum(chan, curve, zero, report.winning_beta, tau)
        over = method1_power_sum(chan, curve, zero, report.winning_beta, tau + 10 * zero.epsilon)
        assert at <= tol < over

    def test_capped_bracket_warns(self, config_path, tmp_path, capsys):
        # the optimum lies above tau_hi_init: both search schemes report the
        # bracket's top, which only the stderr warning points out
        cfg = default_scenario_config()
        capped = dataclasses.replace(cfg.system, tau_hi_init=1e8)
        path = _write_config(tmp_path, dataclasses.replace(cfg, system=capped), "capped.json")
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "c")]) == EXIT_OK
        out, err = capsys.readouterr()
        assert "method1      tau=1.000000e+08" in out
        assert "warning" not in out
        for label in ("method1", "method2"):
            assert f"warning: {label} tau=1.000000e+08 bit/s" in err
        assert err.count("system.tau_hi_init=1.000000e+08") == 2
        assert main(["solve", "--config", str(config_path), "--out", str(tmp_path / "d")]) == EXIT_OK
        assert "warning" not in capsys.readouterr().err

    def test_io_failure(self, config_path, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("file, not a directory")
        code = main(
            ["solve", "--config", str(config_path), "--out", str(blocker / "sub")]
        )
        assert code == EXIT_IO
        assert "i/o error" in capsys.readouterr().err


class TestSweepCommand:
    def test_happy_path(self, config_path, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main(
            ["sweep", "--config", str(config_path), "--out", str(out),
             "--param", "pmax", "--values", "3,4,5,6"]
        )
        assert code == EXIT_OK
        rows = _rows(out / "summary.csv")
        assert len(rows) == 4 * 4  # 4 values x 4 methods
        assert (out / "sweep_pmax.svg").is_file()

    def test_non_monotone_values_rejected(self, config_path, tmp_path, capsys):
        code = main(
            ["sweep", "--config", str(config_path), "--out", str(tmp_path / "o"),
             "--param", "pmax", "--values", "3,5,4"]
        )
        assert code == EXIT_CONFIG
        assert "monotone" in capsys.readouterr().err

    @pytest.mark.parametrize("param", ["pmax", "users", "noise"])
    def test_non_finite_values_rejected(self, config_path, tmp_path, capsys, param):
        code = main(
            ["sweep", "--config", str(config_path), "--out", str(tmp_path / "o"),
             "--param", param, "--values", "inf"]
        )
        assert code == EXIT_CONFIG
        assert "sweep: sweep values must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("dbm", ["1e6", "-1e6"])  # watts overflow / underflow
    def test_out_of_range_noise_values_rejected(self, config_path, tmp_path, capsys, dbm):
        code = main(
            ["sweep", "--config", str(config_path), "--out", str(tmp_path / "o"),
             "--param", "noise", f"--values={dbm}"]
        )
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error: sweep: noise sweep values must give a finite positive" in err

    def test_bad_values_list(self, config_path, tmp_path, capsys):
        code = main(
            ["sweep", "--config", str(config_path), "--param", "pmax",
             "--values", "3,x"]
        )
        assert code == EXIT_CONFIG

    def test_users_sweep_prefix_stable_in_detail_csv(self, tmp_path, capsys):
        cfg = dataclasses.replace(
            default_scenario_config(),
            methods=(default_scenario_config().methods[3],),  # non_semantic only
        )
        path = _write_config(tmp_path, cfg)
        out = tmp_path / "users"
        code = main(
            ["sweep", "--config", str(path), "--out", str(out),
             "--param", "users", "--values", "2,3,4"]
        )
        assert code == EXIT_OK
        rows = _rows(out / "detail.csv")
        gains = {}
        for row in rows:
            gains.setdefault(row["scenario_id"], []).append(float(row["gain"]))
        assert gains["users=3"][:2] == gains["users=2"]
        assert gains["users=4"][:3] == gains["users=3"]

    def test_enumeration_guard_counts_the_largest_user_count(
        self, config_path, tmp_path, capsys
    ):
        # method2 at 500 users: 5^500 vectors, refused before any sweep point
        code = main(
            ["sweep", "--config", str(config_path), "--out", str(tmp_path / "o"),
             "--param", "users", "--values", "2,500"]
        )
        assert code == EXIT_CONFIG
        assert "--force" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_jobs_flag(self, config_path, tmp_path):
        out1 = tmp_path / "serial"
        out2 = tmp_path / "parallel"
        a = main(
            ["sweep", "--config", str(config_path), "--out", str(out1),
             "--param", "pmax", "--values", "3,6", "--method", "method2",
             "--jobs", "1"]
        )
        b = main(
            ["sweep", "--config", str(config_path), "--out", str(out2),
             "--param", "pmax", "--values", "3,6", "--method", "method2",
             "--jobs", "2"]
        )
        assert a == b == EXIT_OK
        assert (out1 / "detail.csv").read_bytes() == (out2 / "detail.csv").read_bytes()


    def test_jobs_defaults_to_one(self, config_path, tmp_path, monkeypatch, pool_requests):
        # no environment variable sets the default: without --jobs no pool starts
        monkeypatch.setenv("PSCOM_ALLOC_JOBS", "64")
        code = main(
            ["sweep", "--config", str(config_path), "--out", str(tmp_path / "o"),
             "--param", "pmax", "--values", "3,6", "--method", "non_semantic"]
        )
        assert code == EXIT_OK
        assert pool_requests == []


class TestOracleCheckCommand:
    def test_passes_on_small_instance(self, tmp_path, capsys):
        cfg = default_scenario_config()
        cfg = dataclasses.replace(
            cfg, channel=ChannelSpec(n_users=2, gain_min=1e-10, gain_max=1e-8, seed=42)
        )
        path = _write_config(tmp_path, cfg)
        code = main(["oracle-check", "--config", str(path), "--grid-points", "10"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "oracle-check: OK" in out
        assert "method1" in out and "method2" in out and "oracle" in out

    def test_shared_eta_method2_is_not_held_to_the_knot_product(self, tmp_path, capsys):
        # shared-eta method 2 searches 5 common-ratio vectors; the knots-only
        # oracle searches all 25 and here finds a better mixed vector
        cfg = dataclasses.replace(
            default_scenario_config(),
            system=dataclasses.replace(default_scenario_config().system, p_max_w=7.6),
            channel=ChannelSpec(gains=(5.65351413e-08, 5.25772738e-12)),
            method2_shared_eta=True,
        )
        path = _write_config(tmp_path, cfg)
        code = main(["oracle-check", "--config", str(path), "--grid-points", "2"])
        out, err = capsys.readouterr()
        assert code == EXIT_OK
        assert "oracle-check: OK" in out
        assert "violation" not in err
        # the same instance with the full knot product passes the equality check
        path = _write_config(tmp_path, dataclasses.replace(cfg, method2_shared_eta=False))
        assert main(["oracle-check", "--config", str(path), "--grid-points", "2"]) == EXIT_OK

    def test_user_cap(self, tmp_path, capsys):
        cfg = dataclasses.replace(
            default_scenario_config(),
            channel=ChannelSpec(n_users=5, gain_min=1e-10, gain_max=1e-8, seed=1),
        )
        path = _write_config(tmp_path, cfg)
        code = main(["oracle-check", "--config", str(path)])
        assert code == EXIT_CONFIG
        assert "limited to 3 users" in capsys.readouterr().err

    def test_default_grid_on_stock_scenario(self, config_path, capsys):
        # the documented default: 3 users, 25 grid points per segment
        # (about 1.2e6 oracle vectors: under the refusal bound, and the 1e6
        # warning counts method2's vectors only)
        code = main(["oracle-check", "--config", str(config_path)])
        assert code == EXIT_OK
        out, err = capsys.readouterr()
        assert "oracle-check: OK" in out
        assert err == ""

    def test_enumeration_guard(self, config_path, capsys):
        # 805^3 = 5.2e8 oracle vectors: refused before any solve
        code = main(["oracle-check", "--config", str(config_path), "--grid-points", "200"])
        assert code == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert "--force" in err


    def test_grid_points_fall_back_to_config(self, tmp_path, capsys):
        cfg = dataclasses.replace(
            default_scenario_config(),
            channel=ChannelSpec(n_users=2, gain_min=1e-10, gain_max=1e-8, seed=42),
            oracle_grid_points=1,
        )
        path = _write_config(tmp_path, cfg)
        code = main(["oracle-check", "--config", str(path)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "(1 points/segment)" in out
        assert "oracle-check: OK" in out


class TestArgumentHandling:
    def test_no_subcommand(self, capsys):
        assert main([]) == EXIT_CONFIG

    def test_bad_jobs(self, config_path, capsys):
        code = main(["solve", "--config", str(config_path), "--jobs", "0"])
        assert code == EXIT_CONFIG

    def test_negative_grid_points(self, config_path, capsys):
        code = main(["oracle-check", "--config", str(config_path), "--grid-points", "-1"])
        assert code == EXIT_CONFIG
        assert "--grid-points must be >= 0" in capsys.readouterr().err

    def test_exit_codes_are_distinct_contract(self):
        assert (EXIT_OK, EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_IO, EXIT_ORACLE) == (
            0, 1, 2, 3, 4,
        )
