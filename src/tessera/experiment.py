"""End-to-end experiment orchestration.

A JSON config drives four stages: data generation, model training,
conformal calibration, and per-method evaluation. Every artifact is a
deterministic function of (config, seed): JSON is canonical, CSV floats
are exact, and nothing embeds a timestamp, so reruns are byte-identical.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import serialize
from .conformal import CalibrationResult, ScaleKind, build_intervals, calibrate, gaussian_z
from .datagen import SPLIT_TAGS, DataSpec, Dataset, SplitSpec, gen_clustered_shift, \
    gen_heteroscedastic, load_csv, save_csv, split_dataset
from .errors import ConfigError, DimensionError, MetricError
from .mc_dropout import DropoutMlp, McDropoutSpec, mc_predict, train_dropout
from .metrics import MetricsReport, PointMetrics, check_cwc, check_grid, check_group_min_n, \
    check_ssc_bins, cwc, disentangle_stats, groupwise_picp, mpiw_nmpiw, oracle_rmse, \
    partition_groups, picp, point_metrics, report_nll, sparsification, ssc_detail
from .moe import MixturePrediction, ModelSpec, MoeModel, TrainSpec, train_moe
from .nn import Array, derived_seed, make_rng

METHODS = ("tessera_e", "tessera_a", "classical_cp", "moe_e", "moe_a", "mc_dropout")
SCHEMA_VERSION = 1

# sub-stream roles of the experiment seed
_ROLE_DATA, _ROLE_MOE_INIT, _ROLE_MOE_TRAIN, _ROLE_DROPOUT_INIT, \
    _ROLE_DROPOUT_TRAIN, _ROLE_MC_PASSES = range(6)


# field annotation -> (accepted types, what the error message asks for); a
# tuple field takes a list of such items, and a lone string as a list of one
_FIELD_TYPES = {"int": (int, "an integer"), "float": ((int, float), "a number"),
                "str": (str, "a string"), "str | None": ((str, type(None)), "a string"),
                "tuple[int, ...]": (int, "a list of integers"),
                "tuple[float, ...]": ((int, float), "a list of numbers"),
                "tuple[float, ...] | None": ((int, float), "a list of numbers or null"),
                "tuple[str, ...]": (str, "a list of method names")}


def _is_a(value, types) -> bool:
    return isinstance(value, types) and not isinstance(value, bool)


def _check_types(cls, d: dict, context: str) -> None:
    """Reject a value of the wrong type, e.g. ``config.train.epochs must be
    an integer``; a bool counts as no number, and a string as no number."""
    for f in dataclasses.fields(cls):
        if f.name not in d or f.type not in _FIELD_TYPES:
            continue
        types, wanted = _FIELD_TYPES[f.type]
        value = d[f.name]
        if not f.type.startswith("tuple"):
            ok = _is_a(value, types)
        elif value is None:
            ok = f.type.endswith("| None")
        else:
            items = (value,) if isinstance(value, str) else value
            ok = isinstance(items, (list, tuple)) and all(_is_a(v, types) for v in items)
        if not ok:
            raise ConfigError(f"{context}.{f.name} must be {wanted}")


def _from_dict(cls, d: dict, context: str):
    """Build the config or one of its sections, a field whose default is a
    dataclass, which is built the same way. Spec errors start with the
    field name, so prefixing the context gives e.g.
    ``config.train.epochs must be >= 1``."""
    if not isinstance(d, dict):
        raise ConfigError(f"{context} must be a mapping")
    fields = dataclasses.fields(cls)
    unknown = sorted(set(d) - {f.name for f in fields})
    if unknown:
        raise ConfigError(f"unknown keys in {context}: {unknown}")
    _check_types(cls, d, context)
    kwargs = {f.name: _from_dict(f.default_factory, d[f.name], f"{context}.{f.name}")
              if dataclasses.is_dataclass(f.default_factory) else d[f.name]
              for f in fields if f.name in d}
    try:
        return cls(**kwargs)
    except (ConfigError, DimensionError) as e:  # DataSpec's shape rules raise DimensionError
        raise ConfigError(f"{context}.{e}") from None


@dataclass
class CalibrationSpec:
    alpha: float = 0.10
    epsilon: float = 1e-8

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ConfigError("alpha must lie strictly between 0 and 1")
        if not (self.epsilon >= 0.0):
            raise ConfigError("epsilon must be nonnegative")


@dataclass
class MetricsSpec:
    cwc_eta: tuple[float, ...] = (10.0, 50.0, 100.0)
    cwc_mu: float = 0.9
    ssc_bins: tuple[int, ...] = (3, 5, 10)
    sparsification_grid: tuple[float, ...] | None = None
    group_min_n: int = 10

    def __post_init__(self):
        self.cwc_eta = tuple(float(e) for e in self.cwc_eta)
        self.ssc_bins = tuple(int(j) for j in self.ssc_bins)
        if self.sparsification_grid is not None:
            self.sparsification_grid = tuple(float(f) for f in self.sparsification_grid)
        # the rules the metrics apply at evaluate, checked at load instead
        # cwc_mu first, so that each cwc_eta check sees a valid mu
        checks = {
            "cwc_mu": lambda: check_cwc(1.0, self.cwc_mu),
            "cwc_eta": lambda: [check_cwc(eta, self.cwc_mu) for eta in self.cwc_eta],
            "ssc_bins": lambda: [check_ssc_bins(j) for j in self.ssc_bins],
            "sparsification_grid": lambda: self.sparsification_grid is None
            or check_grid(self.sparsification_grid),
            "group_min_n": lambda: check_group_min_n(self.group_min_n),
        }
        for name, check in checks.items():
            try:
                check()
            except MetricError as e:
                raise ConfigError(f"{name}: {e}") from None


@dataclass
class ExperimentConfig:
    schema_version: int = SCHEMA_VERSION
    seed: int = 0
    methods: tuple[str, ...] = METHODS
    data: DataSpec = field(default_factory=DataSpec)
    split: SplitSpec = field(default_factory=SplitSpec)
    model: ModelSpec = field(default_factory=ModelSpec)
    train: TrainSpec = field(default_factory=TrainSpec)
    mc_dropout: McDropoutSpec = field(default_factory=McDropoutSpec)
    calibration: CalibrationSpec = field(default_factory=CalibrationSpec)
    metrics: MetricsSpec = field(default_factory=MetricsSpec)

    def __post_init__(self):
        if self.schema_version != SCHEMA_VERSION:
            raise ConfigError(f"schema_version {self.schema_version!r} is not supported")
        self.methods = resolve_methods(self.methods)
        ood = self.data.kind == "clustered_shift" and self.data.mode == "ood"
        if self.split.fractions[SPLIT_TAGS.index("test")] == 0.0 and not ood:
            raise ConfigError("split.fractions give test a zero share; only "
                              "clustered_shift ood data takes its test rows from held-out clusters")
        if self.split.mode == "by_group" and self.data.kind == "heteroscedastic":
            raise ConfigError("split.mode 'by_group' deals whole groups, and "
                              "heteroscedastic data has no group labels")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        return _from_dict(cls, d, "config")

    def to_dict(self) -> dict:
        return serialize.to_jsonable(dataclasses.asdict(self))

    def config_hash(self) -> str:
        return hashlib.sha256(serialize.dumps(self.to_dict()).encode()).hexdigest()


def resolve_methods(methods) -> tuple:
    if isinstance(methods, str):
        methods = (methods,)
    out = []
    for m in methods:
        if m == "all":
            out.extend(METHODS)
        elif m in METHODS:
            out.append(m)
        else:
            raise ConfigError(f"methods: unknown method {m!r}")
    return tuple(dict.fromkeys(out))  # first occurrence wins


def load_config(path) -> ExperimentConfig:
    return ExperimentConfig.from_dict(serialize.load(path))


# stage -> the artifacts whose presence marks it done
_STAGE_ARTIFACTS = {
    "gen-data": ("data.csv",),
    "train": ("moe_model.json", "mc_dropout_model.json"),
    "calibrate": tuple(f"calibration_{k.value}.json" for k in ScaleKind),
    "evaluate": ("uncertainty_stats.json",),
}


def _recorded_stages(out: Path) -> dict[str, str]:
    """Stage statuses of the run dir's manifest; empty before the first."""
    path = out / "manifest.json"
    return serialize.load(path).get("stages", {}) if path.exists() else {}


def _artifact(out: Path, name: str) -> Path:
    """An upstream artifact that exists and whose stage is not recorded failed."""
    p = out / name
    stage = next(s for s, names in _STAGE_ARTIFACTS.items() if name in names)
    if _recorded_stages(out).get(stage) == "failed":
        raise ConfigError(f"{p} is stale: `tessera {stage}` failed in this run dir; "
                          "run it again first")
    if not p.exists():
        raise ConfigError(f"missing artifact {p}; run `tessera {stage}` first")
    return p


def _stage(name: str):
    """Make a stage body ``(config, out)`` into the stage: create ``out``,
    run the body, then write the manifest. When the body raises, the
    manifest marks ``name`` failed with the error's type and message, and
    the error propagates."""
    def wrap(body):
        @functools.wraps(body)
        def stage(config: ExperimentConfig, out: Path | str):
            out = Path(out)
            out.mkdir(parents=True, exist_ok=True)
            try:
                result = body(config, out)
            except Exception as e:
                _write_manifest(config, out, name, error=e)
                raise
            _write_manifest(config, out, name)
            return result
        return stage
    return wrap


@_stage("gen-data")
def stage_gen_data(config: ExperimentConfig, out: Path) -> Dataset:
    """Generate (or import) the dataset, split it unless it comes with a split
    column (ood: the held-out clusters are test), and write data.csv."""
    spec = config.data
    seed = derived_seed(config.seed, _ROLE_DATA)
    test_groups = None
    if spec.kind == "heteroscedastic":
        ds = gen_heteroscedastic(spec, seed)
    elif spec.kind == "clustered_shift":
        ds = gen_clustered_shift(spec, seed)
        if spec.mode == "ood":
            test_groups = ds.meta["held_out_groups"]
    else:
        ds = load_csv(spec.path)
    source = f"the split column of {spec.path}"
    if ds.split is None:
        ds = split_dataset(ds, config.split, seed, test_groups)
        source = f"config.split.fractions {list(config.split.fractions)} ({config.split.mode})"
    empty = [repr(tag) for tag in SPLIT_TAGS if not np.any(ds.split == tag)]
    if empty:
        raise ConfigError(f"{source} gives split {' and '.join(empty)} none of {ds.n} rows; "
                          "train, calibrate and evaluate each need rows of their tags")
    n_test = int(np.sum(ds.split == "test"))
    if n_test < 3:  # disentangle_stats's minimum, the largest of evaluate's metrics
        raise ConfigError(f"{source} gives split 'test' {n_test} of {ds.n} rows; "
                          "evaluate needs at least 3")
    save_csv(ds, out / "data.csv")
    return ds


@_stage("train")
def stage_train(config: ExperimentConfig, out: Path) -> tuple[MoeModel, DropoutMlp]:
    """Train the mixture model and the dropout baseline on the train split."""
    ds = load_csv(_artifact(out, "data.csv"))
    train, val = ds.part("train"), ds.part("val")
    model = MoeModel.init(ds.dim, config.model,
                          make_rng(derived_seed(config.seed, _ROLE_MOE_INIT)))
    history = train_moe(model, train.X, train.y, val.X, val.y, config.train,
                        derived_seed(config.seed, _ROLE_MOE_TRAIN))
    model.save(out / "moe_model.json")
    serialize.dump(history.to_dict(), out / "moe_history.json")
    dropout = DropoutMlp.init(ds.dim, config.mc_dropout,
                              make_rng(derived_seed(config.seed, _ROLE_DROPOUT_INIT)))
    mse = train_dropout(dropout, train.X, train.y, config.mc_dropout,
                        derived_seed(config.seed, _ROLE_DROPOUT_TRAIN))
    dropout.save(out / "mc_dropout_model.json")
    serialize.dump({"train_mse": mse}, out / "mc_dropout_history.json")
    return model, dropout


def _moe_scales(pred: MixturePrediction) -> dict[ScaleKind, Array]:
    """Each scale family's MoE signal, computed once; the constant's is a vector of ones."""
    return {ScaleKind.EPISTEMIC: pred.epistemic, ScaleKind.ALEATORIC: pred.aleatoric,
            ScaleKind.CONSTANT: np.ones(pred.n)}


@_stage("calibrate")
def stage_calibrate(config: ExperimentConfig, out: Path) -> dict[str, CalibrationResult]:
    """Split-conformal calibration of every scale family on the cal split."""
    ds = load_csv(_artifact(out, "data.csv"))
    model = MoeModel.load(_artifact(out, "moe_model.json"))
    cal = ds.part("cal")
    pred = model.forward(cal.X)
    results = {}
    for kind, scale in _moe_scales(pred).items():
        res = calibrate(cal.y, pred.mean, scale, kind,
                        config.calibration.alpha, config.calibration.epsilon)
        res.save(out / f"calibration_{kind.value}.json")
        results[kind.value] = res
    return results


@dataclass(eq=False)
class _MeanScores:
    """The scores of one predictive mean on the test split, each computed
    once, when first read: the five MoE-based methods share the MoE's, and
    mc_dropout has its own, with its passes' standard deviation ``sd``."""

    mean: Array
    density: MixturePrediction
    y: Array
    grid: tuple[float, ...] | None
    sd: Array | None = None

    @functools.cached_property
    def resid(self) -> Array:
        return self.y - self.mean

    @functools.cached_property
    def point(self) -> tuple[PointMetrics, float]:
        return point_metrics(self.mean, self.y), report_nll(self.density, self.y)

    @functools.cached_property
    def oracle(self) -> Array:
        return oracle_rmse(self.resid, self.grid)


def _method_intervals(config: ExperimentConfig, out: Path, test: Dataset, moe: _MeanScores,
                      scales: dict[ScaleKind, Array]) -> dict:
    """method -> the row (scores of the mean its intervals are centred on,
    factor, scale), computed when called: every method's intervals are
    ``build_intervals(mean, factor, scale)``."""
    alpha, epsilon = config.calibration.alpha, config.calibration.epsilon
    z = gaussian_z(alpha)

    def q_hat(kind: ScaleKind) -> float:
        path = _artifact(out, f"calibration_{kind.value}.json")
        calib = CalibrationResult.load(path, kind)
        if (calib.alpha, calib.epsilon) != (alpha, epsilon):
            raise ConfigError(f"{path} was calibrated at alpha={calib.alpha}, epsilon="
                              f"{calib.epsilon}, but the config asks for alpha={alpha}, "
                              f"epsilon={epsilon}; run `tessera calibrate` again first")
        return calib.q_hat

    def dropout() -> _MeanScores:
        model = DropoutMlp.load(_artifact(out, "mc_dropout_model.json"))
        rng = make_rng(derived_seed(config.seed, _ROLE_MC_PASSES))
        mean, var = mc_predict(model, test.X, passes=config.mc_dropout.passes, rng=rng)
        gauss = MixturePrediction(w=np.ones((test.n, 1)), mu=mean[:, None],
                                  sigma2=np.maximum(var, 1e-12)[:, None])
        return _MeanScores(mean, gauss, test.y, moe.grid, np.sqrt(var))

    E, A, C = ScaleKind.EPISTEMIC, ScaleKind.ALEATORIC, ScaleKind.CONSTANT
    return {
        "tessera_e": lambda: (moe, q_hat(E), scales[E]),
        "tessera_a": lambda: (moe, q_hat(A), scales[A]),
        "classical_cp": lambda: (moe, q_hat(C), scales[C]),
        "moe_e": lambda: (moe, z, scales[E]),
        "moe_a": lambda: (moe, z, scales[A]),
        "mc_dropout": lambda: (mc := dropout(), z, mc.sd),
    }


def _evaluate_method(method: str, config: ExperimentConfig, out: Path, test: Dataset,
                     scores: _MeanScores, factor: float, scale: Array):
    intervals = build_intervals(scores.mean, factor, scale)
    pm, nll = scores.point
    mspec = config.metrics
    cov = picp(intervals, test.y)
    mpiw, nmpiw = mpiw_nmpiw(intervals, test.y)
    cwc_map = {}
    for eta in mspec.cwc_eta:
        key = str(int(eta)) if float(eta).is_integer() else repr(float(eta))
        cwc_map[key] = cwc(cov, nmpiw, eta, mspec.cwc_mu)
    curve = sparsification(intervals.width / 2.0, scores.resid,
                           grid=mspec.sparsification_grid, oracle=scores.oracle)
    try:
        ssc_rows = ssc_detail(intervals, test.y, mspec.ssc_bins)
        ssc_map = {str(j): [b.coverage for b in bins] for j, bins in ssc_rows.items()}
        ssc_note = None
    except MetricError as e:
        ssc_rows, ssc_map, ssc_note = {}, None, str(e)
    report = MetricsReport(
        n_test=test.n, picp=cov, mpiw=mpiw, nmpiw=nmpiw, cwc=cwc_map,
        ause=curve.ause, ssc=ssc_map, ssc_note=ssc_note,
        rmse=pm.rmse, mae=pm.mae, pearson=pm.pearson, spearman=pm.spearman, nll=nll,
    )
    serialize.dump({"method": method, **report.to_dict()},
                   out / f"metrics_{method}.json")
    curves_dir = out / "curves"
    serialize.write_csv(curves_dir / f"{method}_sparsification.csv",
                        ["fraction", "model_rmse", "oracle_rmse"],
                        zip(curve.fractions, curve.model_rmse, curve.oracle_rmse))
    for j, bins in ssc_rows.items():
        serialize.write_csv(curves_dir / f"{method}_ssc_J{j}.csv",
                            ["bin", "n", "mean_width", "coverage"],
                            [(i, b.n, b.mean_width, b.coverage)
                             for i, b in enumerate(bins)])
    return intervals, report


@_stage("evaluate")
def stage_evaluate(config: ExperimentConfig, out: Path) -> dict[str, MetricsReport]:
    """Metrics and curves for every method in ``config.methods`` on the test
    split. The methods share what depends on the split alone: one partition
    of the group labels, and the MoE's residual, point metrics, NLL and
    oracle sparsification curve."""
    ds = load_csv(_artifact(out, "data.csv"))
    model = MoeModel.load(_artifact(out, "moe_model.json"))
    test = ds.part("test")
    pred = model.forward(test.X)
    moe = _MeanScores(pred.mean, pred, test.y, config.metrics.sparsification_grid)
    scales = _moe_scales(pred)
    table = _method_intervals(config, out, test, moe, scales)
    groups = None if test.groups is None else partition_groups(test.groups)
    (out / "curves").mkdir(exist_ok=True)
    reports = {}
    group_rows = []
    for method in config.methods:
        intervals, report = _evaluate_method(method, config, out, test, *table[method]())
        reports[method] = report
        if groups is not None:
            entries = groupwise_picp(intervals, test.y, groups,
                                     min_n=config.metrics.group_min_n)
            group_rows.extend((method, e.group, e.n, e.picp) for e in entries)
    aleatoric, epistemic = scales[ScaleKind.ALEATORIC], scales[ScaleKind.EPISTEMIC]
    stats = disentangle_stats(aleatoric, epistemic)
    serialize.dump({
        "pearson": stats.pearson, "spearman": stats.spearman,
        "kendall": stats.kendall, "welch_t_p": stats.welch_t_p,
        "mann_whitney_p": stats.mann_whitney_p,
        "mean_aleatoric": float(np.mean(aleatoric)),
        "mean_epistemic": float(np.mean(epistemic)),
    }, out / "uncertainty_stats.json")
    serialize.write_csv(out / "curves" / "group_coverage.csv",
                        ["method", "group", "n", "coverage"], group_rows)
    return reports


def _write_manifest(config: ExperimentConfig, out: Path, stage: str,
                    error: Exception | None = None) -> None:
    """Record the run dir after ``stage`` raised ``error`` or succeeded; a stage
    recorded failed stays failed until it succeeds itself."""
    artifacts = sorted(str(p.relative_to(out)).replace("\\", "/")
                       for p in out.rglob("*")
                       if p.is_file() and p.name != "manifest.json"
                       and not serialize.is_temp_name(p.name))
    failed = {s for s, status in _recorded_stages(out).items() if status == "failed"} - {stage}
    if error is not None:
        failed.add(stage)
    stages = {name: "failed" if name in failed
              else "ok" if all((out / a).exists() for a in needs) else "missing"
              for name, needs in _STAGE_ARTIFACTS.items()}
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "config": config.to_dict(),
        "config_hash": config.config_hash(),
        "seed": config.seed,
        "stages": stages,
        "artifacts": artifacts,
        "status": "failed" if "failed" in stages.values() else "ok",
    }
    if error is not None:
        manifest["error"] = {"type": type(error).__name__, "message": str(error)}
    serialize.dump(manifest, out / "manifest.json")


def run_experiment(config: ExperimentConfig, out: Path | str) -> Path:
    """All four stages in order into the run dir ``out``; the first that
    fails leaves a failed manifest and its error propagates."""
    out = Path(out)
    for stage in (stage_gen_data, stage_train, stage_calibrate, stage_evaluate):
        stage(config, out)
    return out


_REPORT_SCALARS = ("picp", "mpiw", "nmpiw", "ause", "rmse", "mae",
                   "pearson", "spearman", "nll")


def build_report(run_dirs, out_dir: Path | str) -> dict:
    """Aggregate per-method metrics across runs into mean/std tables.

    Writes report.json and report.csv under ``out_dir`` and returns the
    aggregated mapping.
    """
    run_dirs = [Path(d) for d in run_dirs]
    if not run_dirs:
        raise ConfigError("need at least one run directory")
    per_method: dict[str, dict[str, list[float]]] = {}
    for d in run_dirs:
        files = sorted(d.glob("metrics_*.json"))
        if not files:
            raise ConfigError(f"no metrics files under {d}")
        for f in files:
            data = serialize.load(f)
            method = data["method"]
            bucket = per_method.setdefault(method, {})
            for key in _REPORT_SCALARS:
                bucket.setdefault(key, []).append(serialize.from_jsonable_float(data[key]))
            for eta, val in data["cwc"].items():
                bucket.setdefault(f"cwc_{eta}", []).append(serialize.from_jsonable_float(val))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    table = {}
    rows = []
    for method in sorted(per_method):
        table[method] = {}
        for key in sorted(per_method[method]):
            vals = np.asarray(per_method[method][key], dtype=np.float64)
            mean = float(np.mean(vals))
            std = float(np.std(vals, ddof=1)) if vals.size > 1 else 0.0
            table[method][key] = {"mean": mean, "std": std, "n_runs": int(vals.size)}
            rows.append((method, key, mean, std, vals.size))
    serialize.dump(table, out_dir / "report.json")
    serialize.write_csv(out_dir / "report.csv",
                        ["method", "metric", "mean", "std", "n_runs"], rows)
    return table
