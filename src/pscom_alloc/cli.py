"""Command-line front end: solve, sweep, and oracle-check workflows.

Exit codes are a stable contract:

* 0 success
* 1 invalid arguments or config (message names the offending field)
* 2 the instance is infeasible for at least one requested scheme
* 3 I/O failure while writing results
* 4 oracle validation violated

Summary lines go to stdout, diagnostics to stderr; machine consumers should
read the CSV files.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .experiments import (
    ConfigError,
    RunRecord,
    ScenarioConfig,
    SweepParam,
    SweepSpec,
    emit_plot,
    export_csv,
    load_scenario_config,
    run_scenario,
    run_sweep,
)
from .model import Method, SolveReport, SystemParams, total_power
from .solvers import ORACLE_MAX_USERS

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2
EXIT_IO = 3
EXIT_ORACLE = 4

# Fixed-ratio enumeration guardrails: warn above the first bound, refuse
# above the second unless --force is given.
METHOD2_WARN_CANDIDATES = 10**6
METHOD2_REFUSE_CANDIDATES = 10**8


class CliError(Exception):
    """Bad command line; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise CliError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="pscom-alloc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: _Parser) -> None:
        p.add_argument("--config", type=Path, required=True, help="scenario config JSON path")
        p.add_argument(
            "--out", type=Path, default="results", help="output directory for CSV/SVG files"
        )
        p.add_argument(
            "--method",
            default=None,
            help="comma-separated subset of: "
            + ",".join(m.value for m in Method)
            + " (default: config methods)",
        )
        p.add_argument("--jobs", type=int, default=1, help="parallel sweep workers")
        p.add_argument(
            "--force",
            action="store_true",
            help="allow very large fixed-ratio enumerations",
        )

    p_solve = sub.add_parser("solve", help="run the configured schemes on one scenario")
    common(p_solve)

    p_sweep = sub.add_parser("sweep", help="rerun the scenario over a parameter range")
    common(p_sweep)
    p_sweep.add_argument(
        "--param",
        required=True,
        choices=[s.value for s in SweepParam],
        help="parameter to sweep (pmax in W, users as counts, noise in dBm)",
    )
    p_sweep.add_argument(
        "--values", required=True, help="comma-separated sweep values, strictly monotone"
    )

    p_oracle = sub.add_parser(
        "oracle-check", help="validate both schemes against the brute-force oracle"
    )
    common(p_oracle)
    p_oracle.add_argument(
        "--grid-points",
        type=int,
        default=None,
        help="oracle grid points per curve segment (default: the config's oracle_grid_points)",
    )
    return parser


def _parse_methods(raw: str | None) -> tuple[Method, ...] | None:
    if raw is None:
        return None
    methods = []
    for name in raw.split(","):
        name = name.strip()
        if not name:
            continue
        try:
            m = Method(name)
        except ValueError:
            raise CliError(f"unknown method {name!r}")
        if m not in methods:
            methods.append(m)
    if not methods:
        raise CliError("--method needs at least one method name")
    return tuple(methods)


def _parse_invocation(argv) -> argparse.Namespace:
    """Parse and check ``argv``.

    ``values`` becomes a float tuple and ``method`` a ``Method`` tuple or None.
    """
    args = _build_parser().parse_args(argv)
    if not args.config.is_file():
        problem = "is not a file" if args.config.exists() else "does not exist"
        raise CliError(f"config path {problem}: {args.config}")
    if args.subcommand == "sweep":
        try:
            args.values = tuple(float(v) for v in args.values.split(","))
        except ValueError:
            raise CliError(f"--values must be a comma-separated number list: {args.values!r}")
    if args.jobs < 1:
        raise CliError("--jobs must be >= 1")
    if getattr(args, "grid_points", None) is not None and args.grid_points < 0:
        raise CliError("--grid-points must be >= 0")
    args.method = _parse_methods(args.method)
    return args


def _effective_config(args: argparse.Namespace) -> ScenarioConfig:
    config = load_scenario_config(args.config)
    if args.method is not None:
        config = replace(config, methods=args.method)
    return config


def _vector_count(n_values: int, n_users: int) -> int | None:
    """``n_values ** n_users``, or None once it exceeds the refusal bound.

    The product stops growing past the bound, so no huge power is built or
    formatted: with 2 or more values per user, 27 users already exceed it.
    """
    count = 1
    for _ in range(n_users):
        count *= n_values
        if count > METHOD2_REFUSE_CANDIDATES:
            return None
    return count


def _guard_enumeration(config: ScenarioConfig, max_users: int, force: bool) -> None:
    """Refuse fixed-ratio searches whose candidate count explodes."""
    n_method2 = n_oracle = 0
    if Method.METHOD2 in config.methods and not config.method2_shared_eta:
        n_method2 = _vector_count(len(config.curve_knots), max_users)
    if Method.ORACLE in config.methods:  # it refuses more than ORACLE_MAX_USERS
        n_values = 1 + (len(config.curve_knots) - 1) * (config.oracle_grid_points + 1)
        n_oracle = _vector_count(n_values, min(max_users, ORACLE_MAX_USERS))
    too_many = f"more than {METHOD2_REFUSE_CANDIDATES:.0e}"
    if None in (n_method2, n_oracle) and not force:
        raise ConfigError(
            f"methods: fixed-ratio search would enumerate {too_many} "
            "candidate vectors; pass --force to run anyway"
        )
    if n_method2 is None or n_method2 > METHOD2_WARN_CANDIDATES:
        count = too_many if n_method2 is None else n_method2
        print(
            f"warning: fixed-ratio search enumerates {count} candidate vectors",
            file=sys.stderr,
        )


def _print_records(records: list[RunRecord], with_sweep: bool) -> None:
    for r in records:
        prefix = f"{r.scenario_id}  " if with_sweep else ""
        rep = r.report
        print(
            f"{prefix}{rep.method.value:<12} tau={rep.tau_bps:.6e} bit/s  "
            f"total_power={total_power(rep.allocation):.6f} W  "
            f"feasible={'yes' if rep.feasible else 'no'}  wall={r.wall_ms:.1f} ms"
        )


def _warn_if_capped(label: str, report: SolveReport, params: SystemParams) -> None:
    """Warn on stderr when a bisected tau reached the top of its bracket.

    There the optimum may lie above ``tau_hi_init`` and the report shows
    the bracket, not the optimum.
    """
    searched = report.method in (Method.METHOD1, Method.METHOD2, Method.ORACLE)
    if searched and report.feasible and report.tau_bps >= params.tau_hi_init - params.epsilon:
        print(
            f"warning: {label} tau={report.tau_bps:.6e} bit/s reached the search "
            f"bracket's upper end system.tau_hi_init={params.tau_hi_init:.6e}; "
            "the optimum may lie above it",
            file=sys.stderr,
        )


def _cmd_solve(args: argparse.Namespace) -> int:
    config = _effective_config(args)
    _guard_enumeration(config, config.channel.user_count, args.force)
    records = run_scenario(config)
    summary, detail = export_csv(records, args.out)
    _print_records(records, with_sweep=False)
    for r in records:
        _warn_if_capped(r.report.method.value, r.report, config.system)
    print(f"wrote {summary} and {detail}", file=sys.stderr)
    if any(not r.report.feasible for r in records):
        print("at least one scheme found the instance infeasible", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _effective_config(args)
    try:
        sweep = SweepSpec(parameter=SweepParam(args.param), values=args.values)
    except ValueError as exc:
        raise ConfigError(f"sweep: {exc}") from exc
    if sweep.parameter is SweepParam.USERS:
        max_users = int(max(sweep.values))
    else:
        max_users = config.channel.user_count
    _guard_enumeration(config, max_users, args.force)
    records = run_sweep(config, sweep, jobs=args.jobs)
    summary, detail = export_csv(records, args.out)
    plot = emit_plot(records, args.out / f"sweep_{sweep.parameter.value}.svg")
    _print_records(records, with_sweep=True)
    for r in records:
        _warn_if_capped(f"{r.scenario_id} {r.report.method.value}", r.report, config.system)
    print(f"wrote {summary}, {detail} and {plot}", file=sys.stderr)
    if any(not r.report.feasible for r in records):
        print("at least one scheme found an instance infeasible", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    config = load_scenario_config(args.config)
    n_users = config.channel.user_count
    if n_users > ORACLE_MAX_USERS:
        raise ConfigError(
            f"channel: oracle-check is limited to {ORACLE_MAX_USERS} users "
            f"(config has {n_users})"
        )
    params = config.system
    grid_points = config.oracle_grid_points if args.grid_points is None else args.grid_points
    schemes = (Method.METHOD1, Method.METHOD2, Method.ORACLE)
    checked = replace(config, methods=schemes, oracle_grid_points=grid_points)
    _guard_enumeration(checked, n_users, args.force)
    r1, r2, fine = (r.report for r in run_scenario(checked))
    knots = replace(checked, methods=(Method.ORACLE,), oracle_grid_points=0)
    (knots_only,) = (r.report for r in run_scenario(knots))

    print(f"method1      tau={r1.tau_bps:.10e} bit/s")
    print(f"method2      tau={r2.tau_bps:.10e} bit/s")
    print(f"oracle       tau={fine.tau_bps:.10e} bit/s ({grid_points} points/segment)")
    print(f"oracle-knots tau={knots_only.tau_bps:.10e} bit/s")
    print(f"oracle - method1 = {fine.tau_bps - r1.tau_bps:.6e} bit/s")
    print(f"oracle - method2 = {fine.tau_bps - r2.tau_bps:.6e} bit/s")
    for label, report in (
        ("method1", r1), ("method2", r2), ("oracle", fine), ("oracle-knots", knots_only)
    ):
        _warn_if_capped(label, report, params)

    eps = params.epsilon
    ok = True
    if fine.tau_bps < max(r1.tau_bps, r2.tau_bps) - eps:
        print("violation: oracle fell below a scheme it must dominate", file=sys.stderr)
        ok = False
    # the knots-only oracle searches the full knot product, as method 2 does
    # unless it is restricted to the shared-ratio vectors
    knots_gap = abs(knots_only.tau_bps - r2.tau_bps)
    if not config.method2_shared_eta and knots_gap > 1e-9 * max(1.0, abs(r2.tau_bps)):
        print(
            f"violation: knots-only oracle differs from method2 by {knots_gap:.3e} bit/s",
            file=sys.stderr,
        )
        ok = False
    print(f"oracle-check: {'OK' if ok else 'FAILED'}")
    return EXIT_OK if ok else EXIT_ORACLE


def main(argv=None) -> int:
    try:
        args = _parse_invocation(argv)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if args.subcommand == "solve":
            return _cmd_solve(args)
        if args.subcommand == "sweep":
            return _cmd_sweep(args)
        return _cmd_oracle_check(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
