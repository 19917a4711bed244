"""Seeded request lists for the four benchmark workloads.

A request is one ``pscom-alloc`` invocation. Every workload draws its
channel seeds from ``CHANNEL_SEED_POOL`` with the workload seed, so any
workload seed maps onto requests whose golden output digests were recorded
once (see ``record_golden.py``). Every request names its schemes with an
explicit ``--method`` list, so adding a scheme to the package changes no
workload.
"""

from __future__ import annotations

import copy
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: Channel seeds a workload may draw from; golden digests exist for each.
CHANNEL_SEED_POOL = tuple(range(16))

#: The four non-oracle schemes of the paper, in the package's method order.
PAPER_METHODS = "method1,method2,equal_power,non_semantic"

BASE_CONFIG = Path("demos") / "config" / "default.json"


@dataclass(frozen=True)
class Request:
    """One CLI invocation, minus the paths of its config and output dir."""

    subcommand: str
    n_users: int
    channel_seed: int
    args: tuple[str, ...]
    jobs: int = 1

    @property
    def key(self) -> str:
        """Canonical text naming the request; indexes the golden digests."""
        return f"{self.subcommand} n={self.n_users} ch={self.channel_seed} " + " ".join(
            self.args
        )

    @property
    def config_name(self) -> str:
        return f"n{self.n_users}_ch{self.channel_seed}.json"

    def argv(self, config_path: Path, out_dir: Path) -> list[str]:
        return [self.subcommand, "--config", str(config_path), "--out", str(out_dir), *self.args]


def _sweep(n: int, ch: int, param: str, values: str, jobs: int) -> Request:
    return Request(
        "sweep",
        n,
        ch,
        ("--method", PAPER_METHODS, "--param", param, f"--values={values}", "--jobs", str(jobs)),
        jobs=jobs,
    )


def _paper_figures(ch: int) -> list[Request]:
    return [
        _sweep(3, ch, "pmax", "3,4,5,6,7", 1),
        _sweep(3, ch, "noise", "-100,-95,-90,-85,-80", 1),
        _sweep(3, ch, "users", "2,3,4,5", 1),
    ]


def _wide_enum(ch: int) -> list[Request]:
    return [Request("solve", 7, ch, ("--method", PAPER_METHODS))]


def _oracle_check(ch: int) -> list[Request]:
    # oracle-check always runs method1, method2 and the oracle; the explicit
    # list only keeps the request text independent of the config's methods.
    return [
        Request("oracle-check", 3, ch, ("--method", "method1,method2", "--grid-points", "25"))
    ]


def _parallel_sweep(ch: int) -> list[Request]:
    # Ten equal-cost points, so the pool's overhead and load balance show.
    return [_sweep(5, ch, "pmax", "2,2.5,3,3.5,4,4.5,5,5.5,6,6.5", 2)]


@dataclass(frozen=True)
class Workload:
    """A seeded request list; why each workload exists is in BENCHMARK.json."""

    name: str
    per_channel_seed: Callable[[int], list[Request]]
    #: A request's cost depends on its channel; several channel seeds per
    #: list keep the workload seed from moving the metrics much.
    channel_seeds_per_list: int
    #: User count at which the enumeration probe consumes enumerate_eta_vectors.
    enum_users: int

    def requests(self, seed: int) -> list[Request]:
        """The workload's fixed request list for ``seed``."""
        chans = random.Random(seed).sample(CHANNEL_SEED_POOL, self.channel_seeds_per_list)
        return [req for ch in chans for req in self.per_channel_seed(ch)]

    def all_requests(self) -> list[Request]:
        """Every request any seed can produce (for recording golden digests)."""
        return [req for ch in CHANNEL_SEED_POOL for req in self.per_channel_seed(ch)]


WORKLOADS = {
    w.name: w
    for w in (
        # scalar method1 bisection dominates; exports run three times per seed
        Workload("paper_figures", _paper_figures, channel_seeds_per_list=4, enum_users=5),
        # fixed-ratio enumeration and batched bisection dominate (5^7 vectors)
        Workload("wide_enum", _wide_enum, channel_seeds_per_list=3, enum_users=7),
        # same engine, 1.16 M narrow 3-column rows; tuples and memory dominate
        Workload("oracle_check", _oracle_check, channel_seeds_per_list=1, enum_users=3),
        # the only workload on run_sweep's process-pool path
        Workload("parallel_sweep", _parallel_sweep, channel_seeds_per_list=1, enum_users=5),
    )
}


def request_config(base: dict, req: Request) -> dict:
    """The stock config with the request's user count and channel seed."""
    cfg = copy.deepcopy(base)
    cfg["channel"]["n_users"] = req.n_users
    cfg["channel"]["seed"] = req.channel_seed
    return cfg


def write_configs(base: dict, requests: list[Request], config_dir: Path) -> dict[str, Path]:
    """Write one config file per distinct (users, channel seed); map name -> path."""
    config_dir.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}
    for req in requests:
        if req.config_name not in paths:
            path = config_dir / req.config_name
            path.write_text(json.dumps(request_config(base, req), indent=2), encoding="utf-8")
            paths[req.config_name] = path
    return paths
