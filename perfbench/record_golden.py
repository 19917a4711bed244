"""Record the golden output digests the correctness gate compares against.

Runs every request that any workload seed can produce (all channel seeds of
``workloads.CHANNEL_SEED_POOL``), checks each with the same feasibility and
certificate checks as the benchmark, and writes ``golden.json``. Run it from
the repository root, once, on the commit whose outputs are the reference::

    python3 perfbench/record_golden.py
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    run._load_package()
    from pscom_alloc import cli

    from checks import check_rows, output_digests
    from workloads import BASE_CONFIG, WORKLOADS, write_configs

    requests = list({r.key: r for w in WORKLOADS.values() for r in w.all_requests()}.values())
    base = json.loads((run.ROOT / BASE_CONFIG).read_text(encoding="utf-8"))
    golden = {}
    run.WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="golden-", dir=run.WORK))
    try:
        config_paths = write_configs(base, requests, tmp / "configs")
        for i, req in enumerate(requests):
            out_dir = tmp / "out" / str(i)
            config = config_paths[req.config_name]
            code, stdout, elapsed, _ = run.call_cli(cli, req.argv(config, out_dir))
            if code != 0:
                print(f"{req.key}: exit code {code}\n{stdout}", file=sys.stderr)
                return 1
            if req.subcommand != "oracle-check":
                problems = check_rows(config.read_text(encoding="utf-8"), out_dir)
                if problems:
                    print(f"{req.key}: " + "; ".join(problems), file=sys.stderr)
                    return 1
            golden[req.key] = output_digests(req, out_dir, stdout)
            print(f"[{i + 1}/{len(requests)}] {elapsed:6.2f} s  {req.key}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    path = run.HERE / "golden.json"
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(golden)} requests to {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
