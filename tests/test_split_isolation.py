"""Split isolation at the pipeline level.

Split-conformal validity needs a q_hat computed on rows the model was not
fitted to, and test rows that reach neither (Lei et al. 2018, section 2).
Each test perturbs the targets or the features of one split's rows in
data.csv, reruns train, calibrate and evaluate, and checks which run-dir
files moved against a run on the unperturbed data:

- train: everything downstream moves;
- val: only ``moe_history.json``, while the best epoch stays put;
- cal: the three calibration files, plus the conformal methods' metrics
  and curves, which read them;
- test: only the per-method metrics and curves, and ``uncertainty_stats.json``
  when the features move.
"""

import dataclasses
import hashlib
import json
import shutil

import numpy as np
import pytest

from tessera.datagen import Dataset, load_csv, save_csv
from tessera.experiment import (ExperimentConfig, run_experiment, stage_calibrate,
                                stage_evaluate, stage_train)
from tessera.nn import make_rng

DATA = {
    "heteroscedastic": {"kind": "heteroscedastic", "n": 1500, "dim": 2},
    "clustered": {"kind": "clustered_shift", "mode": "iid", "n": 1500},
}

TRAIN = {"moe_model.json", "moe_history.json", "mc_dropout_model.json",
         "mc_dropout_history.json"}
CALIBRATION = {f"calibration_{k}.json" for k in ("epistemic", "aleatoric", "constant")}
CONFORMAL = ("tessera_e", "tessera_a", "classical_cp")  # the methods that read a q_hat
INPUT = {"data.csv", "data.csv.meta.json"}  # the perturbed file and its sidecar


def config(kind: str) -> ExperimentConfig:
    return ExperimentConfig.from_dict({
        "data": DATA[kind],
        "model": {"n_experts": 2, "expert_hidden": 8},
        "train": {"epochs": 4, "batch_size": 64, "lr": 3e-3},
        "mc_dropout": {"hidden": 8, "epochs": 2, "passes": 5},
    })


def digests(run) -> dict[str, str]:
    return {p.relative_to(run).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(run.rglob("*")) if p.is_file()}


def is_evaluate_file(name: str, methods=None) -> bool:
    """A per-method metrics or curve file, of one of ``methods`` if given."""
    for prefix in ("metrics_", "curves/"):
        if name.startswith(prefix):
            stem = name[len(prefix):]
            return methods is None or any(stem.startswith(m + "_") or stem == m + ".json"
                                          for m in methods)
    return False


@pytest.fixture(scope="module", params=sorted(DATA))
def baseline(request, tmp_path_factory):
    cfg = config(request.param)
    run = run_experiment(cfg, tmp_path_factory.mktemp(request.param) / "run")
    return cfg, run, digests(run)


def rerun(cfg, base, out, tag, column, shift):
    """Train, calibrate and evaluate in ``out`` on the baseline's data with
    ``shift(values)`` added to the ``column`` ("y" or "X") of the rows of
    split ``tag``; returns the files whose bytes differ from the baseline's."""
    ds = load_csv(base / "data.csv")
    X, y = ds.X.copy(), ds.y.copy()
    rows = ds.split == tag
    values = y if column == "y" else X
    values[rows] += shift(values[rows])
    out.mkdir()
    save_csv(Dataset(X, y, ds.sigma_true, ds.groups, ds.split, ds.meta), out / "data.csv")
    for stage in (stage_train, stage_calibrate, stage_evaluate):
        stage(cfg, out)
    got, want = digests(out), digests(base)
    assert got.keys() == want.keys()
    moved = {name for name in got if got[name] != want[name]}
    assert INPUT <= moved
    return moved - INPUT


def small(values):
    return 0.01 * make_rng(5).standard_normal(values.shape)


@pytest.mark.parametrize("column", ["y", "X"])
@pytest.mark.parametrize("tag", ["train", "val", "cal", "test"])
def test_a_split_reaches_only_what_reads_it(baseline, tmp_path, tag, column):
    cfg, base, want = baseline
    moved = rerun(cfg, base, tmp_path / "run", tag, column, small)
    metrics = {name for name in want if name.startswith("metrics_")}
    if tag == "train":
        must, may = TRAIN | CALIBRATION | metrics | {"uncertainty_stats.json"}, set(want)
    elif tag == "val":
        must = may = {"moe_history.json"}
        history = [json.loads((run / "moe_history.json").read_text())
                   for run in (base, tmp_path / "run")]
        assert history[0]["train_nll"] == history[1]["train_nll"]
        assert history[0]["best_epoch"] == history[1]["best_epoch"]
    elif tag == "cal":
        must = CALIBRATION
        may = CALIBRATION | {name for name in want if is_evaluate_file(name, CONFORMAL)} \
            | {"curves/group_coverage.csv"}  # every method's coverage per group
    else:
        # the scales are a function of the test features alone
        must = metrics | ({"uncertainty_stats.json"} if column == "X" else set())
        may = must | {name for name in want if is_evaluate_file(name)}
    assert must <= moved, sorted(must - moved)
    assert moved <= may, sorted(moved - may)


def test_val_reaches_the_moe_model_only_through_its_best_epoch(baseline, tmp_path):
    # negated val targets: the better the model fits y, the worse it fits -y,
    # so epoch 0 is best. The training trajectory and the dropout baseline do
    # not read val, and the saved model is epoch 0's, the one a single epoch
    # of training leaves; a small val perturbation, which keeps the best
    # epoch (test above), leaves moe_model.json as it was
    cfg, base, want = baseline
    moved = rerun(cfg, base, tmp_path / "run", "val", "y", lambda v: -2.0 * v)
    history = [json.loads((run / "moe_history.json").read_text())
               for run in (base, tmp_path / "run")]
    assert history[0]["train_nll"] == history[1]["train_nll"]
    assert history[0]["best_epoch"] > 0 and history[1]["best_epoch"] == 0
    assert {"moe_history.json", "moe_model.json"} <= moved
    dropout = {name for name in want
               if name.startswith("mc_dropout_") or is_evaluate_file(name, ["mc_dropout"])}
    assert not moved & dropout, sorted(moved & dropout)
    one_epoch = tmp_path / "one_epoch"
    one_epoch.mkdir()
    for name in INPUT:
        shutil.copy(base / name, one_epoch / name)
    stage_train(dataclasses.replace(cfg, train=dataclasses.replace(cfg.train, epochs=1)),
                one_epoch)
    assert (one_epoch / "moe_model.json").read_bytes() == \
        (tmp_path / "run" / "moe_model.json").read_bytes()
