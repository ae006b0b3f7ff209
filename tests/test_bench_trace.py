"""The benchmark's out-of-band tracer must keep finding its targets in src/.

``bench/tracer.py`` patches functions and methods by name; a rename in
``src/`` would otherwise surface only when the traced benchmark runs.
"""

import importlib.util
from pathlib import Path

from tessera.experiment import ExperimentConfig, run_experiment

_spec = importlib.util.spec_from_file_location(
    "bench_tracer", Path(__file__).resolve().parents[1] / "bench" / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)

# heteroscedastic data carries no group labels, so group coverage never runs
NOT_ON_HETEROSCEDASTIC = {"metrics.groupwise_picp"}


def test_every_span_fires_and_uninstall_restores(tmp_path):
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in tracer.TARGETS]
    config = ExperimentConfig.from_dict({
        "data": {"kind": "heteroscedastic", "n": 400, "dim": 2},
        "model": {"n_experts": 2, "expert_hidden": 8},
        "train": {"epochs": 1},
        "mc_dropout": {"hidden": 8, "epochs": 1, "passes": 5},
    })
    tr = tracer.Tracer()
    tr.install()
    try:
        for owner, attr, original in originals:
            assert vars(owner)[attr] is not original, f"{owner.__name__}.{attr} not patched"
        run_experiment(config, tmp_path / "run")
    finally:
        tr.uninstall()
    fired = set(tr.take()["calls"])
    assert set(tracer.SPAN_NAMES) - NOT_ON_HETEROSCEDASTIC - fired == set()
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} not restored"
