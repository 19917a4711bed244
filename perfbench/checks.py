"""Correctness gate applied to every benchmark request.

A request passes when it exits with code 0, its output digests
match the golden digests recorded from the seed commit, every allocation in
``detail.csv`` passes ``model.check_feasible`` and every feasible ``method2``
row carries a bisection certificate (see :func:`certify_method2`).
"""

from __future__ import annotations

import csv
import hashlib
import io
from collections import defaultdict
from pathlib import Path

import numpy as np

from pscom_alloc.experiments import SweepParam, apply_sweep_value, parse_scenario_config
from pscom_alloc.model import Allocation, ChannelState, check_feasible, validate_curve
from pscom_alloc.solvers import BUDGET_RTOL, method2_power_sum

from workloads import Request

#: ``summary.csv`` column that is nondeterministic by design.
WALL_COLUMN = "wall_ms"

#: The certificate requires the budget to be exceeded this many epsilons
#: above the reported tau.
CERT_STEP_EPSILONS = 10


def blank_column(csv_text: str, column: str) -> str:
    """Return ``csv_text`` with every value of ``column`` emptied (header kept)."""
    rows = list(csv.reader(io.StringIO(csv_text)))
    idx = rows[0].index(column)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(rows[0])
    for row in rows[1:]:
        row[idx] = ""
        writer.writerow(row)
    return out.getvalue()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def output_digests(req: Request, out_dir: Path, stdout: str) -> dict[str, str]:
    """Digests of the deterministic outputs of one request.

    ``oracle-check`` writes no files, so its stdout is digested; ``solve`` and
    ``sweep`` print wall times, so their files are digested instead.
    """
    if req.subcommand == "oracle-check":
        return {"stdout": _sha256(stdout)}
    summary = (out_dir / "summary.csv").read_text(encoding="utf-8")
    digests = {
        "summary": _sha256(blank_column(summary, WALL_COLUMN)),
        "detail": _sha256((out_dir / "detail.csv").read_text(encoding="utf-8")),
    }
    for svg in sorted(out_dir.glob("*.svg")):
        digests[svg.name] = _sha256(svg.read_text(encoding="utf-8"))
    return digests


def certify_method2(channel, curve, params, etas, tau: float) -> str | None:
    """Bisection certificate of a fixed-ratio result; None when it holds.

    The ratio vector must fit the budget at ``tau`` and exceed it at
    ``tau + CERT_STEP_EPSILONS * epsilon``, so ``tau`` is within the search
    tolerance of the vector's best rate.
    """
    budget_tol = params.p_max_w * (1.0 + BUDGET_RTOL)
    at_tau = method2_power_sum(channel, curve, params, etas, tau)
    if not at_tau <= budget_tol:
        return f"power {at_tau!r} W at tau={tau!r} exceeds the budget {budget_tol!r} W"
    tau_above = tau + CERT_STEP_EPSILONS * params.epsilon
    above = method2_power_sum(channel, curve, params, etas, tau_above)
    if not above > budget_tol:
        return f"power {above!r} W at tau={tau_above!r} still fits the budget; tau is not tight"
    return None


def check_rows(config_text: str, out_dir: Path) -> list[str]:
    """Rebuild every row's allocation from the CSVs and judge it."""
    config = parse_scenario_config(config_text)
    curve = validate_curve(config.curve_knots)
    with open(out_dir / "detail.csv", newline="", encoding="utf-8") as f:
        users = defaultdict(list)
        for row in csv.DictReader(f):
            users[(row["scenario_id"], row["method"])].append(row)
    with open(out_dir / "summary.csv", newline="", encoding="utf-8") as f:
        summary = list(csv.DictReader(f))

    problems = []
    for s in summary:
        where = f"{s['scenario_id']}/{s['method']}"
        rows = users.get((s["scenario_id"], s["method"]))
        if not rows:
            problems.append(f"{where}: no detail rows")
            continue
        params = config.system
        if s["sweep_param"]:
            swept = apply_sweep_value(config, SweepParam(s["sweep_param"]), float(s["sweep_value"]))
            params = swept.system
        col = {k: np.array([float(r[k]) for r in rows]) for k in ("gain", "eta", "p_t_w", "p_c_w", "rate_bps")}
        alloc = Allocation(
            eta=col["eta"],
            p_t_w=col["p_t_w"],
            p_c_w=col["p_c_w"],
            rates_bps=col["rate_bps"],
            tau_bps=float(col["rate_bps"].min()),
        )
        ok, violations = check_feasible(alloc, params, curve)
        if not ok:
            problems.extend(f"{where}: {v.detail}" for v in violations)
        if s["method"] == "method2" and s["feasible"] == "true":
            bad = certify_method2(
                ChannelState(col["gain"]), curve, params, col["eta"], float(s["tau_bps"])
            )
            if bad:
                problems.append(f"{where}: {bad}")
    return problems


def check_request(
    req: Request,
    exit_code: int,
    stdout: str,
    out_dir: Path,
    config_text: str,
    golden: dict[str, dict[str, str]],
) -> list[str]:
    """Every problem found with one request's result; empty when it passes."""
    if exit_code is None:
        return [f"crashed: {stdout.strip().splitlines()[-1]}"]
    if exit_code != 0:
        return [f"exit code {exit_code}, expected 0"]
    problems = []
    try:
        digests = output_digests(req, out_dir, stdout)
        if req.subcommand != "oracle-check":
            problems.extend(check_rows(config_text, out_dir))
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable output: {exc!r}"]
    expected = golden.get(req.key)
    if expected is None:
        problems.append("no golden digests recorded for this request")
    elif digests != expected:
        diff = sorted(k for k in expected.keys() | digests.keys() if expected.get(k) != digests.get(k))
        problems.append(f"output digests differ from the seed commit: {', '.join(diff)}")
    return problems
