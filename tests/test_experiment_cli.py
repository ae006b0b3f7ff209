import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from tessera import datagen, experiment, serialize
from tessera.cli import main
from tessera.conformal import CalibrationResult
from tessera.errors import ConfigError
from tessera.experiment import (
    METHODS,
    ExperimentConfig,
    build_report,
    resolve_methods,
    run_experiment,
    stage_calibrate,
    stage_evaluate,
    stage_gen_data,
    stage_train,
)
from tessera.mc_dropout import DropoutMlp, mc_predict
from tessera.moe import MoeModel
from tessera.nn import derived_seed, make_rng


def small_config(**overrides):
    d = {
        "seed": 0,
        "data": {"kind": "heteroscedastic", "n": 400, "dim": 2,
                 "noise_profile": "step"},
        "model": {"n_experts": 2, "expert_hidden": 8},
        "train": {"epochs": 3, "batch_size": 64, "lr": 3e-3},
        "mc_dropout": {"hidden": 8, "epochs": 3, "passes": 5},
    }
    d.update(overrides)
    return d


# ---------------------------------------------------------------- config

def test_config_defaults_and_round_trip():
    cfg = ExperimentConfig()
    assert cfg.calibration.alpha == 0.10
    assert cfg.model.n_experts == 4
    assert cfg.mc_dropout.passes == 50
    assert cfg.methods == METHODS
    back = ExperimentConfig.from_dict(cfg.to_dict())
    assert back.config_hash() == cfg.config_hash()


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="turbo"):
        ExperimentConfig.from_dict({"turbo": True})
    with pytest.raises(ConfigError, match="config.train"):
        ExperimentConfig.from_dict({"train": {"epochs": 5, "momentum": 0.9}})
    # where a run is written is not part of what the experiment is
    with pytest.raises(ConfigError, match="unknown keys in config: \\['output_dir'\\]"):
        ExperimentConfig.from_dict({"output_dir": "elsewhere"})


@pytest.mark.parametrize("cfg, message", [
    ({"schema_version": 2}, r"config\.schema_version 2 is not supported"),
    ({"methods": ["tessera_x"]}, r"config\.methods: unknown method 'tessera_x'"),
    ({"split": {"fractions": [0.7, 0.0, 0.1, 0.2]}},
     r"config\.split\.fractions give test a zero share; .*"),
    ({"train": {"epochs": 0}}, r"config\.train\.epochs must be >= 1"),
    ({"train": {"epochs": 1.5}}, r"config\.train\.epochs must be an integer"),
    # an unknown key has no field to lead with: the message names its section
    ({"train": {"momentum": 0.9}}, r"unknown keys in config\.train: \['momentum'\]"),
], ids=["schema_version", "method", "test_share", "nested", "type", "unknown_key"])
def test_every_load_error_names_its_config_field(cfg, message):
    # the whole message: a nested error is prefixed once, not twice
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(cfg)
    assert re.fullmatch(message, str(err.value)), str(err.value)
    if "unknown keys" not in message:
        assert str(err.value).startswith("config.")


def test_config_hash_tracks_content():
    a = ExperimentConfig.from_dict(small_config())
    b = ExperimentConfig.from_dict(small_config())
    assert a.config_hash() == b.config_hash()
    c = ExperimentConfig.from_dict(small_config(seed=1))
    assert a.config_hash() != c.config_hash()


def test_resolve_methods():
    assert resolve_methods("all") == METHODS
    assert resolve_methods(("tessera_e", "tessera_e")) == ("tessera_e",)
    with pytest.raises(ConfigError):
        resolve_methods(("tessera_x",))


# ------------------------------------------------------------------- run

@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    config = ExperimentConfig.from_dict(small_config())
    run_experiment(config, out)
    return config, out


def test_run_produces_all_artifacts(finished_run):
    _, out = finished_run
    for name in ("data.csv", "data.csv.meta.json", "moe_model.json",
                 "moe_history.json", "mc_dropout_model.json",
                 "mc_dropout_history.json", "calibration_epistemic.json",
                 "calibration_aleatoric.json", "calibration_constant.json",
                 "uncertainty_stats.json", "manifest.json"):
        assert (out / name).exists(), name
    for method in METHODS:
        assert (out / f"metrics_{method}.json").exists()
        assert (out / "curves" / f"{method}_sparsification.csv").exists()
    # constant-width classical intervals refuse stratification
    classical = serialize.load(out / "metrics_classical_cp.json")
    assert classical["ssc"] is None
    assert "constant" in classical["ssc_note"]
    assert not (out / "curves" / "classical_cp_ssc_J5.csv").exists()
    # normalized methods produce the stratified files
    assert (out / "curves" / "tessera_e_ssc_J5.csv").exists()
    tessera = serialize.load(out / "metrics_tessera_e.json")
    assert set(tessera["ssc"]) == {"3", "5", "10"}


def test_ssc_is_null_when_n_test_lies_between_two_bin_counts(finished_run, tmp_path):
    # 80 test rows fill 3 bins but not 100: every method's ssc is null, with
    # the refusal of the first bin count that fails, and no ssc curve is left
    config, out = finished_run
    run = tmp_path / "run"
    shutil.copytree(out, run)
    shutil.rmtree(run / "curves")
    d = config.to_dict()
    d["metrics"]["ssc_bins"] = [3, 100, 5]
    stage_evaluate(ExperimentConfig.from_dict(d), run)
    for method in METHODS:
        m = serialize.load(run / f"metrics_{method}.json")
        assert m["n_test"] == 80 and m["ssc"] is None
        want = "constant" if method == "classical_cp" else "need at least one sample per bin"
        assert want in m["ssc_note"], method
    assert not list((run / "curves").glob("*_ssc_J*.csv"))


def test_manifest_contents(finished_run):
    config, out = finished_run
    manifest = serialize.load(out / "manifest.json")
    assert manifest["status"] == "ok"
    assert manifest["config_hash"] == config.config_hash()
    assert manifest["seed"] == 0
    assert all(v == "ok" for v in manifest["stages"].values())
    assert "error" not in manifest
    assert "metrics_tessera_e.json" in manifest["artifacts"]
    assert "manifest.json" not in manifest["artifacts"]
    text = (out / "manifest.json").read_text()
    assert "timestamp" not in text


def test_manifest_skips_stray_temp_files(tmp_path):
    # a killed atomic write leaves such a file; it is no artifact of the run
    out = tmp_path / "run"
    out.mkdir()
    (out / ".data.csv.deadbeef.tmp").write_text("feature_0,feature_1,target\n")
    stage_gen_data(ExperimentConfig.from_dict(small_config()), out)
    artifacts = serialize.load(out / "manifest.json")["artifacts"]
    assert "data.csv" in artifacts
    assert ".data.csv.deadbeef.tmp" not in artifacts


def test_metrics_values_are_sane(finished_run):
    _, out = finished_run
    for method in METHODS:
        data = serialize.load(out / f"metrics_{method}.json")
        assert data["method"] == method
        assert 0.0 <= data["picp"] <= 1.0
        assert serialize.from_jsonable_float(data["mpiw"]) > 0
        assert data["n_test"] == 80
        assert serialize.from_jsonable_float(data["ause"]) >= 0.0


def test_rerun_is_byte_identical(tmp_path, finished_run):
    config, out = finished_run
    out2 = tmp_path / "again"
    run_experiment(ExperimentConfig.from_dict(small_config()), out2)
    files = sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
    assert files == files2
    for rel in files:
        assert (out / rel).read_bytes() == (out2 / rel).read_bytes(), rel


def test_stagewise_equals_run(tmp_path, finished_run):
    _, out = finished_run
    out2 = tmp_path / "staged"
    config = ExperimentConfig.from_dict(small_config())
    stage_gen_data(config, out2)
    stage_train(config, out2)
    stage_calibrate(config, out2)
    stage_evaluate(config, out2)
    for rel in ("data.csv", "moe_model.json", "calibration_epistemic.json",
                "metrics_tessera_e.json", "manifest.json"):
        assert (out / rel).read_bytes() == (out2 / rel).read_bytes(), rel


def test_every_method_row_is_its_reference_formula_bitwise(tmp_path, monkeypatch,
                                                          finished_run):
    # each method once had its own interval code; the half-widths it formed
    # are the reference for the one center +/- factor * scale path
    from statistics import NormalDist

    config, out = finished_run
    run = tmp_path / "run"
    shutil.copytree(out, run)
    built, build = [], experiment.build_intervals

    def recorded(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(experiment, "build_intervals", recorded)
    stage_evaluate(config, run)
    test = datagen.load_csv(run / "data.csv").part("test")
    pred = MoeModel.load(run / "moe_model.json").forward(test.X)
    q = {kind: CalibrationResult.load(run / f"calibration_{kind}.json", kind).q_hat
         for kind in ("epistemic", "aleatoric", "constant")}
    z = NormalDist().inv_cdf(1.0 - config.calibration.alpha / 2.0)
    rng = make_rng(derived_seed(config.seed, experiment._ROLE_MC_PASSES))
    mc_mean, var = mc_predict(DropoutMlp.load(run / "mc_dropout_model.json"), test.X,
                              passes=config.mc_dropout.passes, rng=rng)
    mu, s_e, s_a = pred.mean, pred.epistemic, pred.aleatoric
    want = {"tessera_e": (mu, q["epistemic"] * s_e),
            "tessera_a": (mu, q["aleatoric"] * s_a),
            "classical_cp": (mu, q["constant"] * np.ones_like(mu)),
            "moe_e": (mu, z * np.sqrt(s_e ** 2)),
            "moe_a": (mu, z * np.sqrt(s_a ** 2)),
            "mc_dropout": (mc_mean, z * np.sqrt(var))}
    assert len(built) == len(METHODS) == len(want)
    for method, iv in zip(METHODS, built):
        center, half = want[method]
        for got, ref in ((iv.center, center), (iv.half, half), (iv.lower, center - half),
                         (iv.upper, center + half)):
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64)), method


@pytest.mark.parametrize("method", ["tessera_a", "mc_dropout"])
def test_evaluating_one_method_matches_the_full_evaluate(tmp_path, finished_run, method):
    # the MoE methods share one mean, point metrics and NLL per evaluate;
    # evaluating one method alone must write the same bytes for it
    _, out = finished_run
    alone = tmp_path / "alone"
    shutil.copytree(out, alone)
    shutil.rmtree(alone / "curves")
    for f in alone.glob("metrics_*.json"):
        f.unlink()
    stage_evaluate(ExperimentConfig.from_dict(small_config(methods=[method])), alone)
    assert sorted(f.name for f in alone.glob("metrics_*.json")) == [f"metrics_{method}.json"]
    curves = sorted(f.name for f in (out / "curves").glob(f"{method}_*.csv"))
    assert curves and curves == sorted(f.name for f in (alone / "curves").glob(f"{method}_*.csv"))
    for rel in [f"metrics_{method}.json"] + [f"curves/{name}" for name in curves]:
        assert (out / rel).read_bytes() == (alone / rel).read_bytes(), rel


def test_cold_stages_equal_run_and_parse_once_each(tmp_path, monkeypatch, parses):
    # each stage as its own process would run it: no CSV cache entry on entry
    config = ExperimentConfig.from_dict(small_config(
        data={"kind": "clustered_shift", "n": 400, "dim": 2, "mode": "iid"}))
    warm = run_experiment(config, tmp_path / "warm")
    assert parses == []
    cold = tmp_path / "cold"
    for stage in (stage_gen_data, stage_train, stage_calibrate, stage_evaluate):
        monkeypatch.setattr(datagen, "_csv_cache", None)
        stage(config, cold)
    assert parses == ["data.csv"] * 3
    files = sorted(p.relative_to(warm) for p in warm.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(cold) for p in cold.rglob("*") if p.is_file())
    for rel in files:
        assert (warm / rel).read_bytes() == (cold / rel).read_bytes(), rel


def test_missing_upstream_artifact_is_descriptive(tmp_path):
    config = ExperimentConfig.from_dict(small_config())
    with pytest.raises(ConfigError, match="gen-data"):
        stage_train(config, tmp_path / "empty")


def test_failed_run_writes_failed_manifest(tmp_path):
    config = ExperimentConfig.from_dict(small_config(
        data={"kind": "csv", "path": str(tmp_path / "nope.csv")}))
    out = tmp_path / "broken"
    with pytest.raises(Exception) as raised:
        run_experiment(config, out)
    manifest = serialize.load(out / "manifest.json")
    assert manifest["status"] == "failed"
    assert manifest["stages"]["gen-data"] == "failed"
    assert manifest["error"] == {"type": type(raised.value).__name__,
                                 "message": str(raised.value)}
    assert "nope.csv" in manifest["error"]["message"]


def test_stage_without_upstream_artifact_writes_failed_manifest(tmp_path):
    config = ExperimentConfig.from_dict(small_config())
    out = tmp_path / "no_model"
    stage_gen_data(config, out)
    with pytest.raises(ConfigError, match="tessera train") as raised:
        stage_calibrate(config, out)
    manifest = serialize.load(out / "manifest.json")
    assert manifest["status"] == "failed"
    assert manifest["stages"] == {"gen-data": "ok", "train": "missing",
                                  "calibrate": "failed", "evaluate": "missing"}
    assert manifest["error"] == {"type": "ConfigError", "message": str(raised.value)}


def test_failed_stage_stays_failed_until_it_succeeds(tmp_path, capsys):
    # a diverging train leaves the good run's moe_model.json behind; calibrate
    # must not vouch for it, and only a good train clears the record
    good = write_config(tmp_path, small_config())
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(small_config(train={"lr": 1e300})))
    out = tmp_path / "run"

    def tessera(cmd, cfg):
        return main([cmd, "--config", str(cfg), "--out", str(out)])

    def manifest():
        return serialize.load(out / "manifest.json")

    assert tessera("gen-data", good) == 0 and tessera("train", good) == 0
    assert tessera("train", bad) == 1
    for _ in range(2):
        assert tessera("calibrate", bad) == 1
        assert "moe_model.json is stale: `tessera train` failed" in capsys.readouterr().err
        assert manifest()["status"] == "failed"
        assert manifest()["stages"] == {"gen-data": "ok", "train": "failed",
                                        "calibrate": "failed", "evaluate": "missing"}
    assert tessera("gen-data", good) == 0  # another stage's success keeps the record
    assert manifest()["stages"]["train"] == "failed"
    assert tessera("train", good) == 0
    assert manifest()["stages"]["train"] == "ok"
    assert manifest()["stages"]["calibrate"] == "failed"
    assert tessera("calibrate", good) == 0 and tessera("evaluate", good) == 0
    assert manifest()["status"] == "ok"
    assert set(manifest()["stages"].values()) == {"ok"}


def test_cli_evaluate_refuses_a_calibration_at_another_alpha(tmp_path, capsys):
    cfg_path = write_config(tmp_path, small_config())
    out = tmp_path / "alpha_mix"
    for cmd in ("gen-data", "train", "calibrate"):
        assert main([cmd, "--config", str(cfg_path), "--out", str(out)]) == 0
    assert main(["evaluate", "--config", str(cfg_path), "--out", str(out),
                 "--alpha", "0.3"]) == 1
    err = capsys.readouterr().err
    assert "calibration_epistemic.json was calibrated at alpha=0.1, epsilon=1e-08" in err
    assert "the config asks for alpha=0.3, epsilon=1e-08" in err
    manifest = serialize.load(out / "manifest.json")
    assert manifest["status"] == "failed" and manifest["stages"]["evaluate"] == "failed"
    assert not (out / "metrics_tessera_e.json").exists()
    # the MoE and dropout intervals read no calibration
    assert main(["evaluate", "--config", str(cfg_path), "--out", str(out),
                 "--alpha", "0.3", "--method", "moe_a"]) == 0


def _clustered_split(tmp_path, mode, split_mode):
    config = ExperimentConfig.from_dict(small_config(
        data={"kind": "clustered_shift", "n": 2000, "dim": 2, "mode": mode},
        split={"mode": split_mode}))
    return stage_gen_data(config, tmp_path / f"{mode}_{split_mode}")


def test_by_group_split_mode_keeps_clusters_whole_on_clustered_data(tmp_path):
    with pytest.warns(UserWarning, match="exceeds"):  # 250-row clusters, 200-row targets
        ds = _clustered_split(tmp_path, "iid", "by_group")
    for g in set(ds.groups):
        assert len(set(ds.split[ds.groups == g])) == 1, g
    assert set(ds.split) == set(datagen.SPLIT_TAGS)
    assert ds.meta["split"]["mode"] == "by_group"


@pytest.mark.parametrize("split_mode", ["random", "by_group"])
def test_ood_test_split_is_exactly_the_held_out_clusters(tmp_path, split_mode):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # by_group overshoots val and cal
        ds = _clustered_split(tmp_path, "ood", split_mode)
    held = np.isin(ds.groups, ["cluster_06", "cluster_07"])
    assert np.array_equal(ds.split == "test", held)
    assert set(ds.split[~held]) == {"train", "val", "cal"}
    assert ds.meta["split"]["test_groups"] == ["cluster_06", "cluster_07"]


@pytest.mark.parametrize("mode, split_mode", [("iid", "by_group"), ("ood", "random")])
def test_data_sidecar_records_the_realized_split_counts(tmp_path, mode, split_mode):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # by_group overshoots val and cal
        _clustered_split(tmp_path, mode, split_mode)
    out = tmp_path / f"{mode}_{split_mode}"
    counts = serialize.load(out / "data.csv.meta.json")["split"]["counts"]
    header, *rows = (out / "data.csv").read_text().splitlines()
    column = header.split(",").index("split")
    tags = [row.split(",")[column] for row in rows]
    assert counts == {tag: tags.count(tag) for tag in datagen.SPLIT_TAGS}
    assert sum(counts.values()) == 2000


def test_alpha_is_respected(tmp_path):
    cfg = small_config(calibration={"alpha": 0.5})
    out = tmp_path / "wide_alpha"
    run_experiment(ExperimentConfig.from_dict(cfg), out)
    calib = serialize.load(out / "calibration_constant.json")
    assert calib["alpha"] == 0.5
    # a 50% target cannot plausibly cover like the default 90% one
    metrics_50 = serialize.load(out / "metrics_classical_cp.json")
    assert metrics_50["picp"] < 0.8


# ------------------------------------------------------------------- cli

def write_config(tmp_path, d):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(d))
    return path


def test_cli_run_and_report(tmp_path, capsys):
    cfg_path = write_config(tmp_path, small_config())
    runs = []
    for seed in (0, 11):
        out = tmp_path / f"run_{seed}"
        code = main(["run", "--config", str(cfg_path), "--seed", str(seed),
                     "--out", str(out)])
        assert code == 0
        runs.append(out)
    assert "run complete" in capsys.readouterr().out
    report_dir = tmp_path / "report"
    code = main(["report", *map(str, runs), "--out", str(report_dir)])
    assert code == 0
    table = serialize.load(report_dir / "report.json")
    assert set(table) == set(METHODS)
    entry = table["tessera_e"]["picp"]
    assert entry["n_runs"] == 2
    assert 0.0 <= entry["mean"] <= 1.0
    assert entry["std"] >= 0.0
    assert (report_dir / "report.csv").read_text().startswith(
        "method,metric,mean,std,n_runs")


def test_cli_run_at_an_alpha_whose_z_is_infinite(tmp_path):
    # 1 - 1e-17 / 2 rounds to 1, so z is inf, and zero dropout gives a zero MC
    # variance; q_hat is inf too, so every method's row is the whole line
    cfg = {"data": {"n": 600}, "train": {"epochs": 2}, "calibration": {"alpha": 1e-17},
           "mc_dropout": {"dropout": 0.0, "epochs": 2}}
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == 0
    assert serialize.load(out / "manifest.json")["status"] == "ok"
    for kind in ("epistemic", "aleatoric", "constant"):
        calib = serialize.load(out / f"calibration_{kind}.json")
        assert serialize.from_jsonable_float(calib["q_hat"]) == math.inf, kind
    for method in METHODS:
        report = serialize.load(out / f"metrics_{method}.json")
        assert serialize.from_jsonable_float(report["mpiw"]) == math.inf, method
        assert report["picp"] == 1.0, method


def test_cli_stage_sequence(tmp_path):
    cfg_path = write_config(tmp_path, small_config())
    out = tmp_path / "staged"
    for cmd in ("gen-data", "train", "calibrate", "evaluate"):
        code = main([cmd, "--config", str(cfg_path), "--out", str(out)])
        assert code == 0, cmd
    assert (out / "metrics_mc_dropout.json").exists()


def test_cli_method_flag_limits_evaluation(tmp_path):
    cfg_path = write_config(tmp_path, small_config())
    out = tmp_path / "single"
    for cmd in ("gen-data", "train", "calibrate"):
        assert main([cmd, "--config", str(cfg_path), "--out", str(out)]) == 0
    code = main(["evaluate", "--config", str(cfg_path), "--out", str(out),
                 "--method", "tessera_a"])
    assert code == 0
    assert (out / "metrics_tessera_a.json").exists()
    assert not (out / "metrics_mc_dropout.json").exists()


def test_cli_seed_changes_manifest_hash(tmp_path):
    cfg_path = write_config(tmp_path, small_config())
    outs = []
    for seed in (0, 1):
        out = tmp_path / f"s{seed}"
        assert main(["gen-data", "--config", str(cfg_path), "--seed", str(seed),
                     "--out", str(out)]) == 0
        outs.append(serialize.load(out / "manifest.json")["config_hash"])
    assert outs[0] != outs[1]


def test_cli_out_dir_does_not_change_manifest(tmp_path):
    cfg_path = write_config(tmp_path, small_config())
    outs = [tmp_path / "first", tmp_path / "second" / "nested"]
    for out in outs:
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (outs[0] / "manifest.json").read_bytes() == (outs[1] / "manifest.json").read_bytes()


def test_cli_missing_artifact_fails_nonzero(tmp_path, capsys):
    cfg_path = write_config(tmp_path, small_config())
    code = main(["train", "--config", str(cfg_path),
                 "--out", str(tmp_path / "nothing")])
    assert code == 1
    assert "gen-data" in capsys.readouterr().err


def test_cli_failed_stage_writes_failed_manifest(tmp_path, capsys):
    # a single-stage command records its failure as `tessera run` does
    cfg_path = write_config(tmp_path, small_config(train={"lr": 1e300}))
    staged, whole = tmp_path / "staged", tmp_path / "whole"
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(staged)]) == 0
    assert main(["train", "--config", str(cfg_path), "--out", str(staged)]) == 1
    assert "non-finite" in capsys.readouterr().err
    manifest = serialize.load(staged / "manifest.json")
    assert manifest["status"] == "failed"
    assert manifest["stages"]["train"] == "failed"
    assert manifest["error"]["type"] == "TrainingError"
    assert main(["run", "--config", str(cfg_path), "--out", str(whole)]) == 1
    run_manifest = serialize.load(whole / "manifest.json")
    assert run_manifest["stages"] == manifest["stages"]
    assert run_manifest["error"] == manifest["error"]


def test_cli_bad_config_fails_nonzero(tmp_path, capsys):
    cfg_path = write_config(tmp_path, {"data": {"kind": "csv"}})
    code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("section,key,value", [
    ("train", "epochs", 0),
    ("train", "batch_size", 0),
    ("train", "lr", 0.0),
    ("mc_dropout", "epochs", 0),
    ("mc_dropout", "batch_size", -1),
    ("mc_dropout", "lr", -1e-3),
    ("mc_dropout", "passes", 1),
    ("mc_dropout", "dropout", 1.0),
    ("mc_dropout", "dropout", -0.1),
    ("mc_dropout", "hidden", 0),
    ("train", "epochs", 2.5),
    ("train", "epochs", True),
    ("train", "epochs", "5"),
    ("train", "lr", False),
    ("train", "lr", "1e-3"),
    ("mc_dropout", "passes", 2.5),
    ("mc_dropout", "dropout", None),
    ("model", "n_experts", 2.0),
    ("model", "activation", 1),
    (None, "seed", "3"),
    (None, "seed", True),
    ("calibration", "alpha", 0),
    ("calibration", "alpha", 1),
    ("calibration", "alpha", 1.5),
    ("calibration", "epsilon", -1),
    ("model", "n_experts", 0),
    ("model", "expert_hidden", 0),
    ("model", "gate_hidden", 0),
    ("model", "gate", "tree"),
    ("model", "activation", "gelu"),
    ("model", "var_floor", -1.0),
    ("model", "var_floor", float("inf")),
    ("train", "lr", float("inf")),
    ("mc_dropout", "lr", float("inf")),
    ("data", "held_out_clusters", "ab"),
    ("data", "held_out_clusters", 5),
    ("split", "fractions", 0.5),
    ("split", "fractions", [0.5, "x", 0.2, 0.3]),
    ("metrics", "cwc_eta", 5),
    ("metrics", "ssc_bins", ["a"]),
    ("metrics", "ssc_bins", [True]),
    ("metrics", "sparsification_grid", [0.1, "z"]),
    (None, "methods", 5),
    ("metrics", "cwc_eta", [10.0, -1]),
    ("metrics", "cwc_eta", [0]),
    ("metrics", "cwc_mu", 5),
    ("metrics", "cwc_mu", 0),
    ("metrics", "cwc_mu", 1),
    ("metrics", "ssc_bins", [5, 1]),
    ("metrics", "sparsification_grid", [2.0]),
    ("metrics", "sparsification_grid", [0.1, 0.5]),
    ("metrics", "sparsification_grid", [0.0, 0.5, 0.5]),
    ("metrics", "sparsification_grid", [0.0, 1.0]),
    ("metrics", "sparsification_grid", []),
    ("metrics", "group_min_n", 0),
    ("split", "fractions", [0.5, 0.5]),
    ("split", "fractions", [0.6, 0.2, 0.1, 0.2]),
    ("split", "fractions", [1.2, -0.2, 0.0, 0.0]),
    # a zero cal, test or val share: refused before training, not at calibrate
    ("split", "fractions", [0.7, 0.2, 0.1, 0.0]),
    ("split", "fractions", [0.7, 0.0, 0.1, 0.2]),
    ("split", "fractions", [0.7, 0.2, 0.0, 0.1]),
    ("split", "mode", "stratified"),
    # heteroscedastic data has no group labels to deal whole
    ("split", "mode", "by_group"),
    ("data", "n", 0),
    ("data", "dim", 0),
    ("data", "mode", "shifted"),
    # a dict value sets several fields of the section; the error names ``key``
    ("data", "held_out_clusters", {"kind": "clustered_shift", "held_out_clusters": []}),
    ("data", "n_clusters", {"kind": "clustered_shift", "n_clusters": 1,
                            "held_out_clusters": [0]}),
    ("data", "n", {"kind": "clustered_shift", "n": 5, "mode": "iid"}),
    ("data", "cluster_std", {"kind": "clustered_shift", "cluster_std": -1}),
    ("data", "noise_low", {"noise_low": -1}),
])
def test_bad_trainer_setting_fails_at_config_load(tmp_path, capsys, section, key, value):
    cfg = small_config()
    if section is None:
        cfg[key] = value
    else:
        fields = value if isinstance(value, dict) else {key: value}
        cfg[section] = {**cfg.get(section, {}), **fields}
    field = rf"config\.{key}" if section is None else rf"config\.{section}\.{key}"
    with pytest.raises(ConfigError, match=field):
        ExperimentConfig.from_dict(cfg)
    out = tmp_path / "never"
    code = main(["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
    assert code == 1
    assert re.search(field, capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("mode", ["ood", "iid"])
def test_a_zero_test_share_is_only_for_ood_data(tmp_path, mode):
    # ood data takes its test rows from the held-out clusters, so it needs no share
    cfg = small_config(data={"kind": "clustered_shift", "n": 2000, "dim": 2, "mode": mode},
                       split={"fractions": [0.7, 0.0, 0.1, 0.2]})
    if mode == "iid":
        with pytest.raises(ConfigError, match=r"config\.split\.fractions give test a zero share"):
            ExperimentConfig.from_dict(cfg)
        return
    ds = stage_gen_data(ExperimentConfig.from_dict(cfg), tmp_path / "ood")
    assert np.array_equal(ds.split == "test", np.isin(ds.groups, ["cluster_06", "cluster_07"]))


def assert_gen_data_refuses_the_split(config, out, message):
    with pytest.raises(ConfigError, match=message):
        stage_gen_data(config, out)
    assert not (out / "data.csv").exists()
    manifest = serialize.load(out / "manifest.json")
    assert manifest["status"] == "failed"
    assert manifest["stages"] == {"gen-data": "failed", "train": "missing",
                                  "calibrate": "missing", "evaluate": "missing"}


def test_gen_data_refuses_a_by_group_split_that_leaves_a_tag_empty(tmp_path):
    # three clusters dealt whole to four tags leave one with no rows
    config = ExperimentConfig.from_dict(small_config(
        data={"kind": "clustered_shift", "n": 300, "dim": 2, "mode": "iid", "n_clusters": 3,
              "held_out_clusters": [0]},
        split={"mode": "by_group"}))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # every cluster overshoots its target
        assert_gen_data_refuses_the_split(
            config, tmp_path / "run",
            r"^config\.split\.fractions \[0\.6, 0\.2, 0\.1, 0\.1\] \(by_group\) gives "
            r"split 'val' and 'cal' none of 300 rows")


def test_a_by_group_split_of_csv_data_waits_for_gen_data():
    # heteroscedastic data is refused at load; a csv's groups are known only
    # once gen-data reads it
    ExperimentConfig.from_dict(small_config(data={"kind": "csv", "path": "data.csv"},
                                            split={"mode": "by_group"}))


def test_gen_data_refuses_a_split_that_leaves_evaluate_too_few_test_rows(tmp_path):
    # one test row would pass train and calibrate and fail at evaluate
    config = ExperimentConfig.from_dict(small_config(
        data={"kind": "heteroscedastic", "n": 100, "dim": 2},
        split={"fractions": [0.79, 0.01, 0.1, 0.1]}))
    assert_gen_data_refuses_the_split(
        config, tmp_path / "run",
        r"^config\.split\.fractions \[0\.79, 0\.01, 0\.1, 0\.1\] \(random\) gives "
        r"split 'test' 1 of 100 rows; evaluate needs at least 3$")


def test_gen_data_refuses_a_csv_split_column_without_cal_rows(tmp_path):
    ds = datagen.split_dataset(
        datagen.gen_heteroscedastic(datagen.DataSpec(n=100, dim=2), 0), datagen.SplitSpec(), 0)
    ds.split[ds.split == "cal"] = "train"
    ds.meta["split"]["counts"] = {tag: int(np.sum(ds.split == tag)) for tag in datagen.SPLIT_TAGS}
    path = tmp_path / "no_cal.csv"
    datagen.save_csv(ds, path)
    config = ExperimentConfig.from_dict(small_config(data={"kind": "csv", "path": str(path)}))
    assert_gen_data_refuses_the_split(
        config, tmp_path / "run",
        r"^the split column of .*no_cal\.csv gives split 'cal' none of 100 rows")


def test_removed_group_top_k_fails_at_config_load(tmp_path, capsys):
    # the knob fed no output and is gone; a config that still sets it is refused
    cfg = small_config(metrics={"group_top_k": 15})
    match = r"unknown keys in config\.metrics: \['group_top_k'\]"
    with pytest.raises(ConfigError, match=match):
        ExperimentConfig.from_dict(cfg)
    out = tmp_path / "never"
    assert main(["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 1
    assert re.search(match, capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("held", [[99], [-1], [6, 8]])
def test_held_out_cluster_out_of_range_fails_at_config_load(held):
    cfg = small_config(data={"kind": "clustered_shift", "n": 400, "dim": 2,
                             "n_clusters": 8, "held_out_clusters": held})
    with pytest.raises(ConfigError, match=r"config\.data\.held_out_clusters .*\[0, 8\)"):
        ExperimentConfig.from_dict(cfg)
    # only the clustered generator reads them
    cfg["data"]["kind"] = "heteroscedastic"
    ExperimentConfig.from_dict(cfg)


def test_cli_alpha_flag_overrides_config(tmp_path):
    cfg_path = write_config(tmp_path, small_config())
    out = tmp_path / "alpha_flag"
    for cmd in ("gen-data", "train"):
        assert main([cmd, "--config", str(cfg_path), "--out", str(out)]) == 0
    assert main(["calibrate", "--config", str(cfg_path), "--out", str(out),
                 "--alpha", "0.25"]) == 0
    calib = serialize.load(out / "calibration_epistemic.json")
    assert calib["alpha"] == 0.25


def test_cli_alpha_flag_out_of_range_fails_at_config_load(tmp_path, capsys):
    out = tmp_path / "never"
    code = main(["run", "--config", str(write_config(tmp_path, small_config())),
                 "--out", str(out), "--alpha", "1.5"])
    assert code == 1
    assert "alpha must lie strictly between 0 and 1" in capsys.readouterr().err
    assert not out.exists()


def test_report_requires_metrics(tmp_path):
    with pytest.raises(ConfigError, match="metrics"):
        build_report([tmp_path], tmp_path / "rep")


def test_cli_import_loads_neither_scipy_nor_statistics():
    # gaussian_z imports statistics when it runs, not when the package loads;
    # signal, numpy.strings and multiprocessing would each only add start-up time
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = ("import sys, tessera.cli; print(sorted(m for m in sys.modules if any("
            "m == p or m.startswith(p + '.') for p in "
            "('scipy', 'statistics', 'signal', 'numpy.strings', 'multiprocessing'))))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_train_builds_the_models_the_config_describes(tmp_path):
    cfg = small_config(model={"n_experts": 3, "expert_hidden": 5, "gate": "mlp",
                              "gate_hidden": 6, "activation": "relu", "var_floor": 1e-4},
                       mc_dropout={"hidden": 7, "dropout": 0.3, "epochs": 1, "passes": 5})
    config = ExperimentConfig.from_dict(cfg)
    stage_gen_data(config, tmp_path)
    moe, dropout = stage_train(config, tmp_path)
    for model in (moe, MoeModel.load(tmp_path / "moe_model.json")):
        assert model.gate.widths == (2, 6, 3) and model.gate.activations == ("relu",)
        assert model.experts.widths == (2, 5, 2) and model.experts.activations == ("relu",)
        assert model.n_experts == 3 and model.var_floor == 1e-4
    for model in (dropout, DropoutMlp.load(tmp_path / "mc_dropout_model.json")):
        assert model.net.widths == (2, 7, 1) and model.dropout == 0.3


def test_cli_import_does_not_load_scipy_stats(tmp_path):
    # import tessera.cli, gen-data, train and calibrate need numpy alone; only
    # evaluate's statistics import scipy.stats, and only when they run
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    cfg = small_config(train={"epochs": 2, "batch_size": 64, "lr": 3e-3},
                       mc_dropout={"hidden": 8, "epochs": 2, "passes": 5})
    code = """
import json, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"scipy is blocked: {name}")

sys.meta_path.insert(0, NoScipy())
from tessera.experiment import ExperimentConfig, stage_calibrate, stage_gen_data, stage_train
import tessera.cli
config = ExperimentConfig.from_dict(json.loads(sys.argv[1]))
for stage in (stage_gen_data, stage_train, stage_calibrate):
    stage(config, sys.argv[2])
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    out = tmp_path / "run"
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(cfg), str(out)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    assert serialize.load(out / "manifest.json")["stages"]["calibrate"] == "ok"


def test_full_pipeline_runs_without_scipy(tmp_path):
    # the statistics of evaluate are numpy kernels: all four stages run with
    # every scipy import blocked, and none is loaded
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    cfg = small_config(train={"epochs": 2, "batch_size": 64, "lr": 3e-3},
                       mc_dropout={"hidden": 8, "epochs": 2, "passes": 5})
    code = """
import json, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"scipy is blocked: {name}")

sys.meta_path.insert(0, NoScipy())
from tessera.experiment import (ExperimentConfig, stage_calibrate, stage_evaluate,
                                stage_gen_data, stage_train)
config = ExperimentConfig.from_dict(json.loads(sys.argv[1]))
for stage in (stage_gen_data, stage_train, stage_calibrate, stage_evaluate):
    stage(config, sys.argv[2])
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    out = tmp_path / "run"
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(cfg), str(out)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    manifest = serialize.load(out / "manifest.json")
    assert manifest["status"] == "ok" and manifest["stages"]["evaluate"] == "ok"
