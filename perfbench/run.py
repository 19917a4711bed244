"""pscom-alloc benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload paper_figures --seed 1 --seconds 45 --trace 0

One client drives ``pscom_alloc.cli.main`` in this process as a closed loop:
the next request starts only after the previous one returned. Requests
cycle through the workload's seeded list until their summed latency reaches
``--seconds``. Every request passes the correctness gate in ``checks.py``;
a failed check counts toward ``failed`` and the run goes on.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. Their
timings are CPU times, scaled to a reference speed of the host with the
computation in ``reference.py``; the wall-clock figures are printed above
the result line. ``--trace 1``
runs the request list once untraced and once with spans recorded around the
package's public functions (``tracing.py``) and reports the per-layer
metrics; the spans are written to ``.perfbench_work/``. The last stdout line
is the JSON result; the lines above it are for people.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import re
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: Fresh interpreters timed per run for ``setup_s``, spread over the timed
#: phase so that a run's median spans the machine's load swings.
SETUP_REPEATS = 15
#: Repeats of the enumeration probe in a traced run.
PROBE_REPEATS = 5
#: Candidate vectors per array in the enumeration probe (the solvers' chunk).
PROBE_CHUNK = 16384

SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import pscom_alloc
from pscom_alloc.experiments import load_scenario_config
for path in sys.argv[2:]:
    load_scenario_config(path)
"""

# An oracle-check summary line such as "method2      tau=1.2e+08 bit/s".
_SOLVE_LINE = re.compile(r"^\S+\s+tau=", re.MULTILINE)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _load_package():
    if not (SRC / "pscom_alloc" / "__init__.py").is_file():
        raise BenchError(f"package source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import pscom_alloc

    if Path(pscom_alloc.__file__).resolve().parent != (SRC / "pscom_alloc").resolve():
        raise BenchError(f"imported pscom_alloc from {pscom_alloc.__file__}, not from {SRC}")


def machine_info(numpy_version: str) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": git_commit(ROOT),
    }


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def children_cpu_s() -> float:
    """User plus system CPU seconds of this process's reaped children."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def call_cli(cli, argv: list[str]) -> tuple[int | None, str, float, float]:
    """Run one CLI invocation in-process.

    Returns (exit code, stdout, wall seconds, CPU seconds). The CPU time
    counts this process and any pool workers the invocation reaped. It
    leaves out the time the hypervisor gives this vCPU to other guests.
    """
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        c0 = process_time() + children_cpu_s()
        t0 = perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash is a failed request, not a failed run
            code = None
            print(f"uncaught {exc!r}")
        elapsed = perf_counter() - t0
        cpu = process_time() + children_cpu_s() - c0
    return code, stdout.getvalue(), elapsed, cpu


class Runner:
    """Runs requests through the CLI and the correctness gate."""

    def __init__(self, cli, requests, config_paths, golden, out_root: Path):
        self.cli = cli
        self.requests = requests
        self.config_paths = config_paths
        self.config_texts = {k: p.read_text(encoding="utf-8") for k, p in config_paths.items()}
        self.golden = golden
        self.out_root = out_root
        #: (slot in the request list, wall s, CPU s, solves); solves is 0 for a failed request
        self.samples: list[tuple[int, float, float, int]] = []
        self.failed = 0
        self.problems: list[str] = []

    def run(self, index: int, around=contextlib.nullcontext) -> float:
        """Run request ``index`` (mod list length), check it; return its wall seconds."""
        from checks import check_request

        slot = index % len(self.requests)
        req = self.requests[slot]
        out_dir = self.out_root / str(slot)
        shutil.rmtree(out_dir, ignore_errors=True)
        with around():
            code, stdout, elapsed, cpu = call_cli(
                self.cli, req.argv(self.config_paths[req.config_name], out_dir)
            )
        problems = check_request(
            req, code, stdout, out_dir, self.config_texts[req.config_name], self.golden
        )
        solves = 0
        if problems:
            self.failed += 1
            self.problems.extend(f"request {index} [{req.key}]: {p}" for p in problems)
        else:
            solves = self.count_solves(req, out_dir, stdout)
        self.samples.append((slot, elapsed, cpu, solves))
        return elapsed

    @staticmethod
    def count_solves(req, out_dir: Path, stdout: str) -> int:
        """Scheme solves behind one request: summary rows, or oracle-check's tau lines."""
        if req.subcommand == "oracle-check":
            return len(_SOLVE_LINE.findall(stdout))
        with open(out_dir / "summary.csv", encoding="utf-8") as f:
            return sum(1 for _ in f) - 1

    @property
    def attempted(self) -> int:
        return len(self.samples)


def time_setup(config_paths) -> tuple[float, float]:
    """(wall s, CPU s) of one fresh interpreter that imports the package and loads the configs."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), *map(str, config_paths)]
    c0 = children_cpu_s()
    t0 = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    elapsed = perf_counter() - t0
    cpu = children_cpu_s() - c0
    if proc.returncode != 0:
        raise BenchError(f"set-up interpreter failed: {proc.stderr.strip()[-500:]}")
    return elapsed, cpu


def enumeration_probe(solvers, n_users: int) -> float:
    """Median ms to turn enumerate_eta_vectors' output into float64 chunks."""
    import numpy as np
    from pscom_alloc.experiments import default_curve

    from stats import median

    curve = default_curve()
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = perf_counter()
        it = solvers.enumerate_eta_vectors(curve, n_users)
        while chunk := list(itertools.islice(it, PROBE_CHUNK)):
            np.array(chunk, dtype=np.float64)
        times.append((perf_counter() - t0) * 1e3)
    return median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


def _run(args) -> int:
    from workloads import BASE_CONFIG, PAPER_METHODS, WORKLOADS, Request, write_configs

    spec_path = ROOT / "BENCHMARK.json"
    base_path = ROOT / BASE_CONFIG
    for needed in (spec_path, base_path, HERE / "golden.json"):
        if not needed.is_file():
            raise BenchError(f"missing {needed}")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    _load_package()

    import numpy as np

    from pscom_alloc import cli

    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    requests = workload.requests(args.seed)
    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
    base = json.loads(base_path.read_text(encoding="utf-8"))

    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        warmup = Request(
            "sweep", 3, requests[0].channel_seed,
            ("--method", PAPER_METHODS, "--param", "pmax", "--values=3,4", "--jobs", "1"),
        )
        config_paths = write_configs(base, [*requests, warmup], tmp / "configs")
        runner = Runner(cli, requests, config_paths, golden, tmp / "out")
        code, _, _, _ = call_cli(cli, warmup.argv(config_paths[warmup.config_name], tmp / "warmup"))
        if code != 0:
            raise BenchError(f"warm-up request exited with {code}")

        machine = machine_info(np.__version__)
        print(f"workload {args.workload}  seed {args.seed}  {len(requests)} requests in the list; "
              "closed loop, 1 client")
        print("machine " + json.dumps(machine, sort_keys=True))

        if args.trace:
            metrics = _traced(args, runner, workload, machine)
            kind = "per_layer"
        else:
            metrics = _timed(args, runner, requests, config_paths)
            kind = "end_to_end"
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(units) != set(metrics):
        raise BenchError(
            f"measured {sorted(set(metrics) - set(units))} but BENCHMARK.json lists "
            f"{sorted(set(units) - set(metrics))} as {kind}"
        )
    for line in runner.problems[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"fail_ratio {runner.failed}/{runner.attempted} = {runner.failed / runner.attempted:g}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


def _timed(args, runner, requests, config_paths) -> dict:
    from reference import REFERENCE_MS, reference_cpu_ms
    from stats import median, pass_medians, percentile, tail_percentile

    n = len(requests)
    jobs = max(r.jobs for r in requests)
    configs = sorted({config_paths[r.config_name] for r in requests})
    # The reference runs between every two requests or set-up interpreters,
    # so each of them is timed between two reference runs. Its CPU time is
    # scaled by the mean of those two, which follows the host's speed from
    # one request to the next.
    halves = [reference_cpu_ms()]
    request_refs: list[float] = []
    setup: list[tuple[float, float, float]] = []  # (wall s, CPU s, reference ms)

    def bracket() -> float:
        halves.append(reference_cpu_ms())
        return (sum(halves[-2]) + sum(halves[-1])) / 2

    def set_up() -> None:
        wall, cpu = time_setup(configs)
        setup.append((wall, cpu, bracket()))

    worker_kb = 0
    busy = 0.0
    for i in itertools.count():
        if i >= n and busy >= args.seconds:
            break
        busy += runner.run(i)
        request_refs.append(bracket())
        if i == n - 1 and jobs > 1:
            # Every later pass repeats these requests. Read the pool workers'
            # peak now, before the set-up interpreters become children too.
            worker_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        while i >= n - 1 and len(setup) < SETUP_REPEATS * min(1.0, busy / args.seconds):
            set_up()
    while len(setup) < SETUP_REPEATS:
        set_up()
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss = (own_kb + jobs * worker_kb) / 1024.0

    scaled = [
        (slot, cpu * REFERENCE_MS / ref, solves)
        for (slot, _, cpu, solves), ref in zip(runner.samples, request_refs)
    ]
    norm_pass, solves = pass_medians(scaled)
    cpu_pass, _ = pass_medians([(slot, cpu, k) for slot, _, cpu, k in runner.samples])
    wall_pass, _ = pass_medians([(slot, wall, k) for slot, wall, _, k in runner.samples])
    lat_ms = [wall * 1e3 for _, wall, _, _ in runner.samples]
    count = len(lat_ms)
    tail = tail_percentile(count)
    tail_text = f", p{tail:g} {percentile(lat_ms, tail):.1f} ms" if tail else ""
    metrics = {
        "setup_s": median([wall * REFERENCE_MS / ref for wall, _, ref in setup]),
        "solves_per_s_norm": sum(solves) / sum(norm_pass),
        "request_ms_p50_norm": median(norm_pass) * 1e3,
        "peak_rss_mb": rss,
    }
    print(f"reference           {median([a + b for a, b in halves]):.3f} CPU ms, median of "
          f"{len(halves)} (scalar half {median([a for a, _ in halves]):.3f}, batch half "
          f"{median([b for _, b in halves]):.3f}); timings below are scaled to {REFERENCE_MS:g} ms")
    print(f"setup_s             {metrics['setup_s']:.4f} s   median wall time of {len(setup)} fresh "
          f"interpreters, scaled (unscaled {median([w for w, _, _ in setup]):.4f} s, CPU "
          f"{median([c for _, c, _ in setup]):.4f} s)")
    print(f"solves_per_s_norm   {metrics['solves_per_s_norm']:.3f} 1/s  {sum(solves)} solves in a "
          f"pass of {sum(norm_pass):.3f} s: each request at the median of its {count / n:.1f} "
          "runs' CPU time, scaled")
    print(f"request_ms_p50_norm {metrics['request_ms_p50_norm']:.2f} ms  median over {n} requests "
          "of each one's median CPU time, scaled")
    print(f"request_ms_p50      {median(wall_pass) * 1e3:.2f} ms  the same with wall time, unscaled "
          f"(CPU time unscaled {median(cpu_pass) * 1e3:.2f} ms)")
    print(f"  all runs          wall median {median(lat_ms):.2f} ms, n={count}{tail_text}; "
          f"{sum(k for _, _, _, k in runner.samples) / busy:.3f} solves/s over {busy:.2f} s")
    print(f"peak_rss_mb         {metrics['peak_rss_mb']:.1f} MB  process peak"
          + (f" + {jobs} x largest worker peak" if jobs > 1 else ""))
    return metrics


def _traced(args, runner, workload, machine) -> dict:
    from pscom_alloc import cli, experiments, solvers

    from tracing import Tracer, installed, layer_metrics

    n = len(runner.requests)
    untraced = sum(runner.run(i) for i in range(n))
    tracer = Tracer()
    traced = 0.0
    with installed(tracer, cli, experiments, solvers) as missing:
        for name in missing:
            print(f"perfbench: not traced, {name} is gone", file=sys.stderr)
        for i in range(n, 2 * n):
            tracer.request = i - n
            traced += runner.run(i, around=lambda: tracer.span("cli.main"))
    metrics = layer_metrics(tracer.spans)
    metrics["solvers.enumerate_eta_vectors.ms"] = enumeration_probe(solvers, workload.enum_users)
    metrics["trace.overhead_s"] = traced - untraced

    spans_path = WORK / f"spans_{args.workload}_seed{args.seed}.jsonl"
    with open(spans_path, "w", encoding="utf-8") as f:
        f.write(json.dumps({"machine": machine, "workload": args.workload, "seed": args.seed}) + "\n")
        for s in tracer.spans:
            f.write(json.dumps(s.as_dict()) + "\n")
    print(f"traced pass {traced:.3f} s, untraced pass {untraced:.3f} s; "
          f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    for name, value in sorted(metrics.items()):
        print(f"  {name:42s} {value:g}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
