"""The benchmark workloads.

A workload turns the benchmark seed into tessera configs. An operation
("op") is what a user waits for: one config's full pipeline, all four
stages, plus the workload's calibrate+evaluate re-reads. A pass is the
workload's fixed list of ops, run back to back; the timed loop runs at
least two whole passes, so every op key runs at least twice.

The program itself only ever sees an ``ExperimentConfig``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from tessera.experiment import ExperimentConfig


@dataclass(frozen=True)
class Op:
    config: ExperimentConfig
    key: str                  # ops with equal keys must leave identical run dirs


@dataclass(frozen=True)
class Workload:
    name: str
    pass_ops: Callable[[int], list[Op]]
    idle_spans: frozenset     # traced spans that must not fire; every other one must
    # calibrate+evaluate calls repeated on each finished run dir: where these
    # stages are short, one call per op gives too few samples for a steady median.
    rereads: int


def _op(seed: int, **sections) -> Op:
    return Op(ExperimentConfig.from_dict({"seed": seed, **sections}), f"seed={seed}")


def _default_run(seed: int) -> list[Op]:
    return [_op(1000 * seed + i) for i in range(3)]


def _large_iid(seed: int) -> list[Op]:
    return [_op(1000 * seed + i, data={"kind": "clustered_shift", "n": 50000, "mode": "iid"},
                train={"epochs": 1}, mc_dropout={"epochs": 1})
            for i in range(5)]


WORKLOADS = {w.name: w for w in (
    Workload("default_run", _default_run, frozenset({"metrics.groupwise_picp"}), rereads=1),
    Workload("large_iid", _large_iid, frozenset(), rereads=0),
)}
