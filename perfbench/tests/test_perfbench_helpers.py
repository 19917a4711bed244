"""Tests of the benchmark's own helpers.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import checks  # noqa: E402
import reference  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
from pscom_alloc import cli, experiments, solvers  # noqa: E402
from pscom_alloc.experiments import default_curve, generate_channel_gains  # noqa: E402
from pscom_alloc.model import SystemParams  # noqa: E402
from tracing import Span, Tracer  # noqa: E402


# ---------------------------------------------------------------------------
# Self-time arithmetic
# ---------------------------------------------------------------------------


def test_covered_length_merges_overlaps_and_clips():
    assert tracing.covered_length([], 0.0, 10.0) == 0.0
    assert tracing.covered_length([(1.0, 3.0), (2.0, 4.0)], 0.0, 10.0) == 3.0
    assert tracing.covered_length([(8.0, 12.0), (-5.0, 1.0)], 0.0, 10.0) == 3.0
    assert tracing.covered_length([(11.0, 12.0)], 0.0, 10.0) == 0.0


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("child", 1.0, 5.0, 0, 0),
        Span("grandchild", 2.0, 4.0, 1, 0),
        Span("child", 6.0, 7.0, 0, 0),
    ]
    assert tracing.self_times(spans) == [5.0, 2.0, 2.0, 1.0]


def test_self_time_subtracts_covered_seconds():
    spans = [Span("solvers.bisect_tau", 0.0, 4.0, -1, 0, {"covered_s": 3.0})]
    assert tracing.self_times(spans) == [1.0]


def test_tracer_nests_spans_by_call_stack():
    tracer = Tracer()
    tracer.request = 7
    with tracer.span("a"):
        with tracer.span("b"):
            pass
        with tracer.span("c"):
            pass
    assert [(s.name, s.parent, s.request) for s in tracer.spans] == [
        ("a", -1, 7),
        ("b", 0, 7),
        ("c", 0, 7),
    ]
    assert all(s.end >= s.start for s in tracer.spans)


def test_layer_metrics_counts_remote_records_and_parallel_efficiency():
    spans = [
        Span(
            "experiments.run_sweep", 0.0, 1.0, -1, 0,
            {"jobs": 2, "record_wall_ms": 1500.0,
             "remote": [("method2", 700.0, 125, 4000, 3), ("method2", 800.0, 125, 4200, 3)]},
        ),
    ]
    m = tracing.layer_metrics(spans)
    assert m["solvers.solve_method2.calls"] == 2
    assert m["solvers.solve_method2.candidates"] == 250
    assert m["solvers.solve_method2.bisect_iters"] == 8200
    assert m["solvers.solve_method2.ms"] == 1500.0
    assert m["solvers.solve_method2.iters_per_candidate"] == 8200 / 250
    assert m["solvers.solve_method2.ns_per_row_user"] == pytest.approx(1500.0 * 1e6 / (8450 * 3))
    assert m["experiments.run_sweep.parallel_eff"] == 0.75
    assert m["solvers.solve_method1.calls"] == 0


def test_installed_wrappers_record_spans_and_restore(tmp_path):
    originals = (cli.run_scenario, experiments.solve_method1, solvers.bisect_tau)
    config = tmp_path / "c.json"
    config.write_text(
        json.dumps({
            "system": {"m_beta_samples": 20},
            "channel": {"n_users": 2, "gain_min": 1e-10, "gain_max": 1e-8, "seed": 3},
            "curve": {"knots": [[1.0, 0.0], [0.6, 300.0], [0.2, 1500.0]]},
            "methods": ["method1", "method2"],
        })
    )
    tracer = Tracer()
    with tracing.installed(tracer, cli, experiments, solvers) as missing:
        assert missing == []
        with tracer.span("cli.main"):
            code = cli.main(["solve", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == 0
    assert (cli.run_scenario, experiments.solve_method1, solvers.bisect_tau) == originals
    m = tracing.layer_metrics(tracer.spans)
    assert m["solvers.solve_method1.calls"] == 1
    assert m["solvers.bisect_tau.calls"] == 20
    assert m["solvers.solve_method2.candidates"] == 9
    assert m["model.derive_allocation.calls"] == 2
    assert m["experiments.export_csv.bytes"] > 0
    assert 0 < m["solvers.method1_predicate.ms"] < m["solvers.solve_method1.ms"]
    assert m["cli.main.self_ms"] > 0


# ---------------------------------------------------------------------------
# Median and percentile rule
# ---------------------------------------------------------------------------


def test_median_and_nearest_rank_percentile():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.median(values) == 3.0
    assert stats.median([1.0, 2.0, 3.0, 4.0]) == 2.5
    assert stats.percentile(values, 50) == 3.0
    assert stats.percentile(values, 80) == 4.0
    assert stats.percentile(values, 81) == 5.0
    assert stats.percentile(values, 100) == 5.0
    with pytest.raises(ValueError):
        stats.median([])


@pytest.mark.parametrize(
    "n, expected",
    [(1, None), (19, None), (39, None), (40, 75.0), (99, 75.0), (100, 90.0),
     (200, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected
    if expected is not None:
        assert n - stats.percentile_rank(expected, n) >= stats.MIN_BEYOND


def test_pass_medians_takes_each_request_at_its_median_run():
    samples = [(0, 0.30, 20), (1, 0.50, 16), (0, 0.25, 20), (1, 0.70, 0), (0, 0.40, 20)]
    assert stats.pass_medians(samples) == ([0.30, 0.60], [20, 16])


def test_reference_times_both_halves():
    scalar_ms, batch_ms = reference.reference_cpu_ms()
    assert scalar_ms > 0 and batch_ms > 0


# ---------------------------------------------------------------------------
# Digest blanking of wall_ms
# ---------------------------------------------------------------------------

SUMMARY = (
    "scenario_id,method,sweep_param,sweep_value,tau_bps,total_power_w,feasible,"
    "outer_candidates,bisect_iters,wall_ms\n"
    "pmax=3,method1,pmax,3,123.5,3,true,500,23000,{wall}\n"
    "pmax=3,method2,pmax,3,130.25,3,true,125,5000,{wall2}\n"
)


def test_blanking_wall_ms_removes_only_that_column():
    text = SUMMARY.format(wall="41.234567890123456", wall2="3.5")
    blanked = checks.blank_column(text, "wall_ms")
    lines = blanked.splitlines()
    assert lines[0] == text.splitlines()[0]
    assert lines[1] == "pmax=3,method1,pmax,3,123.5,3,true,500,23000,"
    assert lines[2] == "pmax=3,method2,pmax,3,130.25,3,true,125,5000,"


def test_summary_digest_ignores_wall_ms_but_not_results(tmp_path):
    from workloads import Request

    req = Request("solve", 3, 0, ())

    def digest(text):
        (tmp_path / "summary.csv").write_text(text)
        (tmp_path / "detail.csv").write_text("x\n")
        return checks.output_digests(req, tmp_path, "")["summary"]

    a = digest(SUMMARY.format(wall="41.2", wall2="3.5"))
    b = digest(SUMMARY.format(wall="9.87654", wall2="12"))
    c = digest(SUMMARY.format(wall="41.2", wall2="3.5").replace("130.25", "130.5"))
    assert a == b != c
    assert a == hashlib.sha256(
        checks.blank_column(SUMMARY.format(wall="", wall2=""), "wall_ms").encode()
    ).hexdigest()


# ---------------------------------------------------------------------------
# Certificate check
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def method2_instance():
    channel = generate_channel_gains(3, 1e-10, 1e-8, seed=5)
    curve = default_curve()
    params = SystemParams()
    report = solvers.solve_method2(channel, curve, params)
    return channel, curve, params, report


def test_certificate_holds_for_a_solver_result(method2_instance):
    channel, curve, params, report = method2_instance
    etas = report.allocation.eta
    assert checks.certify_method2(channel, curve, params, etas, report.tau_bps) is None


def test_certificate_rejects_tau_above_the_optimum(method2_instance):
    channel, curve, params, report = method2_instance
    etas = report.allocation.eta
    problem = checks.certify_method2(channel, curve, params, etas, report.tau_bps * 1.001)
    assert "exceeds the budget" in problem


def test_certificate_rejects_a_slack_tau(method2_instance):
    channel, curve, params, report = method2_instance
    etas = report.allocation.eta
    problem = checks.certify_method2(channel, curve, params, etas, report.tau_bps * 0.999)
    assert "not tight" in problem


def test_check_rows_passes_cli_output_and_catches_a_budget_breach(tmp_path):
    config_text = json.dumps({
        "channel": {"n_users": 2, "gain_min": 1e-10, "gain_max": 1e-8, "seed": 1},
        "curve": {"knots": [[1.0, 0.0], [0.6, 300.0], [0.2, 1500.0]]},
        "methods": ["method2", "non_semantic"],
    })
    config = tmp_path / "c.json"
    config.write_text(config_text)
    out = tmp_path / "o"
    assert cli.main(["solve", "--config", str(config), "--out", str(out)]) == 0
    assert checks.check_rows(config_text, out) == []

    detail = (out / "detail.csv").read_text().splitlines()
    row = detail.index(next(line for line in detail if ",non_semantic,0," in line))
    fields = detail[row].split(",")
    fields[5] = "7.0"  # p_t_w of user 0 alone exceeds the 6 W budget
    detail[row] = ",".join(fields)
    (out / "detail.csv").write_text("\n".join(detail) + "\n")
    problems = checks.check_rows(config_text, out)
    assert len(problems) == 1 and problems[0].startswith("scenario/non_semantic: total power")

    summary = (out / "summary.csv").read_text().splitlines()
    fields = summary[1].split(",")
    assert fields[1] == "method2"
    fields[4] = repr(float(fields[4]) * 1.001)
    summary[1] = ",".join(fields)
    (out / "summary.csv").write_text("\n".join(summary) + "\n")
    problems = checks.check_rows(config_text, out)
    assert any(p.startswith("scenario/method2: ") and "exceeds the budget" in p for p in problems)
