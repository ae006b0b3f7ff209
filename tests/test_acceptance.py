"""Release gate: eleven end-to-end checks of the shipped behavior.

Each check covers one criterion the pipeline must satisfy before a
release: coverage validity of the conformal intervals, the width/penalty
metric identities, gradient exactness, adaptivity and conditional
coverage of the normalized intervals, the epistemic out-of-distribution
signal, brute-force oracles for the quantile and rank statistics, and
byte-level determinism of a full run. One line per criterion is printed
and replayed in the terminal summary:

    [criterion NN] <label>: PASS|FAIL

Several checks train real models; the whole module runs in a few
minutes. Thresholds and harness knobs are frozen, so reruns are exactly
reproducible.
"""

import functools
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

import conftest
from conftest import ssc
from gradcheck import finite_difference_gradients
from tessera.conformal import ScaleKind, build_intervals, calibrate, conformal_quantile, \
    gaussian_z
from tessera.datagen import DataSpec, SplitSpec, gen_clustered_shift, gen_heteroscedastic, \
    split_dataset
from tessera.errors import MetricError
from tessera.experiment import ExperimentConfig, run_experiment
from tessera.metrics import cwc, disentangle_stats, sparsification
from tessera.moe import ModelSpec, MoeModel, TrainSpec, mixture_nll, mixture_nll_loss, train_moe
from tessera.nn import derived_seed, make_rng

ALPHA = 0.10
EPSILON = 1e-8


def criterion(num: int, label: str):
    """Record and print one verdict line for an acceptance check."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                _record(num, label, "FAIL")
                raise
            _record(num, label, "PASS")

        return wrapper

    return deco


def _record(num: int, label: str, verdict: str) -> None:
    line = f"[criterion {num:02d}] {label}: {verdict}"
    conftest.acceptance_lines.append(line)
    print(line)


def _fit_moe(ds, seed, n_experts=4, hidden=32, epochs=200, batch=128, lr=5e-3):
    tr, va = ds.part("train"), ds.part("val")
    model = MoeModel.init(ds.dim, ModelSpec(n_experts=n_experts, expert_hidden=hidden),
                          make_rng(derived_seed(seed, 1)))
    train_moe(model, tr.X, tr.y, va.X, va.y,
              TrainSpec(epochs=epochs, batch_size=batch, lr=lr), derived_seed(seed, 2))
    return model


# --------------------------------------------------------------- 1

@criterion(1, "conformal coverage holds across 50 seeds")
def test_coverage_validity_across_seeds():
    # train 8000 / test 2000 / val 500 / cal 2000
    fractions = (0.64, 0.16, 0.04, 0.16)
    picps = {"epistemic": [], "aleatoric": [], "constant": []}
    t0 = time.monotonic()
    for seed in range(50):
        ds = gen_heteroscedastic(DataSpec(n=12500, dim=4, noise_profile="step",
                                          noise_low=0.2, noise_high=1.0), seed)
        ds = split_dataset(ds, SplitSpec(fractions=fractions), seed)
        model = _fit_moe(ds, seed, epochs=20, batch=256)
        ca, te = ds.part("cal"), ds.part("test")
        pc, pt = model.forward(ca.X), model.forward(te.X)
        for tag, sc, st in (("epistemic", pc.epistemic, pt.epistemic),
                            ("aleatoric", pc.aleatoric, pt.aleatoric),
                            ("constant", np.ones(ca.n), np.ones(te.n))):
            cal = calibrate(ca.y, pc.mean, sc, tag, alpha=ALPHA, epsilon=EPSILON)
            iv = build_intervals(pt.mean, cal.q_hat, st)
            picps[tag].append(float(np.mean(iv.covers(te.y))))
    elapsed = time.monotonic() - t0
    for tag, vals in picps.items():
        mean = float(np.mean(vals))
        assert 0.885 <= mean <= 0.915, (tag, mean)
        assert min(vals) >= 0.85, (tag, min(vals))
    assert elapsed <= 600.0, elapsed


# --------------------------------------------------------------- 2

@criterion(2, "penalty metric equals plain width at or above target coverage")
def test_cwc_collapses_to_nmpiw():
    for eta in (10.0, 50.0, 100.0):
        for coverage in (0.9, 0.91, 0.95, 1.0):  # boundary included
            for width in (0.17, 0.5, 1.3):
                assert cwc(coverage, width, eta, 0.9) == width
        assert cwc(0.899, 0.17, eta, 0.9) > 0.17


# --------------------------------------------------------------- 3

@criterion(3, "analytic mixture gradients match central differences")
def test_gradients_match_finite_differences():
    rng = np.random.default_rng(303)
    t0 = time.monotonic()
    for i in range(100):
        d = int(rng.integers(1, 9))
        k = int(rng.integers(1, 5))
        gate = "mlp" if i % 3 == 0 else "linear"
        spec = ModelSpec(n_experts=k, expert_hidden=int(rng.integers(2, 7)), gate=gate,
                         gate_hidden=3)
        model = MoeModel.init(d, spec, make_rng(10_000 + i))
        # nonzero biases, decorrelated weights; tensor by tensor, gate first,
        # then expert by expert, so every model draws the same perturbation
        tensors = [t for pair in zip(model.gate.weights, model.gate.biases) for t in pair]
        tensors += [t[j] for j in range(k)
                    for pair in zip(model.experts.weights, model.experts.biases) for t in pair]
        for p in tensors:
            p += 0.3 * rng.standard_normal(p.shape)
        n = int(rng.integers(1, 7))
        x = rng.standard_normal((n, d))
        y = rng.standard_normal(n)
        _, grads = mixture_nll(model, x, y)
        fd = finite_difference_gradients(lambda: mixture_nll_loss(model, x, y), model.params)
        np.testing.assert_allclose(grads, fd, rtol=1e-4, atol=1e-8)
    assert time.monotonic() - t0 <= 60.0


# ------------------------------------------------------------- 4+5

@pytest.fixture(scope="module")
def step_noise_runs():
    """Ten seeds of the step-noise harness: calibrated aleatoric intervals
    next to the same network's raw z-intervals.

    The knobs (n=2000, dim=4, 200 epochs) leave a realistic approximation
    error, which the raw intervals ignore and the calibrated ones absorb.
    """
    rows = []
    for seed in range(10):
        ds = gen_heteroscedastic(DataSpec(n=2000, dim=4, noise_profile="step",
                                          noise_low=0.2, noise_high=1.0), seed)
        ds = split_dataset(ds, SplitSpec(), seed)
        model = _fit_moe(ds, seed)
        ca, te = ds.part("cal"), ds.part("test")
        pc, pt = model.forward(ca.X), model.forward(te.X)
        cal = calibrate(ca.y, pc.mean, pc.aleatoric, ScaleKind.ALEATORIC, alpha=ALPHA,
                        epsilon=EPSILON)
        iv = build_intervals(pt.mean, cal.q_hat, pt.aleatoric)
        raw = build_intervals(pt.mean, gaussian_z(ALPHA), pt.aleatoric)
        high = te.sigma_true > 0.6
        rows.append({
            "calibrated_bins": ssc(iv, te.y, 5),
            "raw_bins": ssc(raw, te.y, 5),
            "spearman": float(stats.spearmanr(iv.width, te.sigma_true).statistic),
            "width_ratio": float(np.mean(iv.width[high]) / np.mean(iv.width[~high])),
        })
    return rows


@criterion(4, "interval widths track the generating noise scale")
def test_widths_track_noise(step_noise_runs):
    for row in step_noise_runs[:3]:
        assert row["spearman"] >= 0.5, row["spearman"]
        assert row["width_ratio"] >= 2.0, row["width_ratio"]


@criterion(5, "calibrated size-stratified bins hold while raw bins break")
def test_ssc_calibrated_vs_raw(step_noise_runs):
    calibrated = np.mean([r["calibrated_bins"] for r in step_noise_runs], axis=0)
    raw = np.mean([r["raw_bins"] for r in step_noise_runs], axis=0)
    assert np.all(calibrated >= 0.85), calibrated
    assert np.all(calibrated <= 0.95), calibrated
    assert np.min(raw) < 0.80, raw


# --------------------------------------------------------------- 6

def _brute_sparsification_curves(uncertainty, errors, grid):
    """Drop-and-remeasure by explicit sorting; only the selection and
    RMSE logic is re-derived (integration reuses the trapezoid rule)."""
    e = [abs(v) for v in errors]
    n = len(e)

    def curve(keys):
        ranked = sorted(range(n), key=lambda i: -keys[i])
        out = []
        for f in grid:
            keep = [e[i] ** 2 for i in ranked[math.floor(f * n):]]
            out.append(math.sqrt(math.fsum(keep) / len(keep)))
        return np.asarray(out)

    return curve(list(uncertainty)), curve(e)


@criterion(6, "sparsification error area behaves like an area")
def test_ause_properties():
    rng = np.random.default_rng(606)
    # self-ordering is the oracle ordering: the area vanishes exactly
    errors = rng.standard_normal(80)
    assert sparsification(np.abs(errors), errors).ause == 0.0
    # any other ordering can only do worse
    wins = 0
    for _ in range(100):
        errors = rng.standard_normal(50)
        shuffled = rng.permutation(np.abs(errors))
        wins += sparsification(shuffled, errors).ause > 0.0
    assert wins >= 95, wins
    # exact agreement with a six-sample brute force; power-of-two errors
    # keep every partial sum exact so both routes hit the same floats
    errors = np.array([4.0, 32.0, 1.0, 16.0, 2.0, 8.0])
    uncertainty = np.array([3.0, 41.0, 0.5, 11.0, 7.0, 29.0])
    curve = sparsification(uncertainty, errors)
    model, oracle = _brute_sparsification_curves(uncertainty, errors, curve.fractions)
    assert np.array_equal(curve.model_rmse, model)
    assert np.array_equal(curve.oracle_rmse, oracle)
    brute_ause = max(float(np.trapezoid(model - oracle, curve.fractions)), 0.0)
    assert curve.ause == brute_ause


# --------------------------------------------------------------- 7

@criterion(7, "constant-scale widths are identical and stratification refuses them")
def test_classical_widths_constant():
    rng = np.random.default_rng(707)
    for _ in range(25):
        y_cal = rng.normal(0, 5, 200)
        mu_cal = y_cal + rng.normal(0, 1, 200)
        cal = calibrate(y_cal, mu_cal, np.ones(200), ScaleKind.CONSTANT, alpha=ALPHA,
                        epsilon=EPSILON)
        mu_test = rng.normal(0, 5, 120) * rng.uniform(0.01, 1000)
        iv = build_intervals(mu_test, cal.q_hat, np.ones(120))
        assert np.unique(iv.width).size == 1
        with pytest.raises(MetricError, match="constant-width"):
            ssc(iv, rng.normal(0, 5, 120), 5)


# --------------------------------------------------------------- 8

@criterion(8, "expert disagreement concentrates on held-out clusters")
def test_disagreement_flags_shifted_clusters():
    hits = 0
    for seed in range(3):
        ds = gen_clustered_shift(DataSpec(kind="clustered_shift", n=4000, dim=4,
                                          ood_radius=10.0, cluster_std=0.4), seed)
        ds = split_dataset(ds, SplitSpec(), seed, ds.meta["held_out_groups"])
        model = _fit_moe(ds, seed, n_experts=3, epochs=250)
        e_shifted = float(np.mean(model.forward(ds.part("test").X).epistemic))
        e_in_dist = float(np.mean(model.forward(ds.part("val").X).epistemic))
        hits += e_shifted / e_in_dist >= 1.5
    assert hits >= 2, hits


# --------------------------------------------------------------- 9

@criterion(9, "conformal quantile matches a full-sort oracle")
def test_quantile_against_full_sort():
    rng = np.random.default_rng(909)
    decimal_alphas = (0.05, 0.1, 0.15, 0.2, 0.25, 0.4)
    infinite_seen = 0
    for trial in range(1000):
        n = int(rng.integers(1, 61))
        if trial % 2:
            alpha = decimal_alphas[trial % len(decimal_alphas)]
        else:
            alpha = float(rng.uniform(0.01, 0.5))
        scores = np.round(rng.exponential(1.0, n), 2)  # ties on purpose
        k = math.ceil((1 - Fraction(str(alpha))) * (n + 1))
        expected = math.inf if k > n else float(sorted(scores)[k - 1])
        got = conformal_quantile(scores, alpha)
        assert got == expected, (n, alpha, k, got, expected)
        infinite_seen += k > n
    assert infinite_seen > 0


# -------------------------------------------------------------- 10

def _brute_kendall_tau_b(a, b):
    n = len(a)
    concordant = discordant = 0
    for i in range(n):
        for j in range(i + 1, n):
            da, db = a[i] - a[j], b[i] - b[j]
            if da == 0 or db == 0:
                continue
            if (da > 0) == (db > 0):
                concordant += 1
            else:
                discordant += 1
    n0 = n * (n - 1) // 2
    t_a = sum(1 for i in range(n) for j in range(i + 1, n) if a[i] == a[j])
    t_b = sum(1 for i in range(n) for j in range(i + 1, n) if b[i] == b[j])
    denom = math.sqrt((n0 - t_a) * (n0 - t_b))
    return (concordant - discordant) / denom


@criterion(10, "rank and location statistics match brute-force oracles")
def test_statistics_against_oracles():
    rng = np.random.default_rng(1010)
    for _ in range(100):
        n = int(rng.integers(3, 51))
        while True:
            a = rng.integers(0, 7, n).astype(float)
            b = rng.integers(0, 7, n).astype(float)
            if np.ptp(a) > 0 and np.ptp(b) > 0:
                break
        got = disentangle_stats(a, b).kendall
        assert got == pytest.approx(_brute_kendall_tau_b(a, b), rel=1e-10, abs=1e-12)
    same = rng.normal(0, 1, 40)
    st = disentangle_stats(same, same.copy())
    assert st.welch_t_p > 0.9 and st.mann_whitney_p > 0.9
    shifted = disentangle_stats(rng.normal(0, 1, 200), rng.normal(2, 1, 200))
    assert shifted.welch_t_p < 1e-6 and shifted.mann_whitney_p < 1e-6


# -------------------------------------------------------------- 11

@criterion(11, "a full pipeline rerun is byte-identical")
def test_pipeline_determinism(tmp_path):
    spec = {
        "seed": 5,
        "data": {"kind": "heteroscedastic", "n": 400, "dim": 2,
                 "noise_profile": "step"},
        "model": {"n_experts": 2, "expert_hidden": 8},
        "train": {"epochs": 3, "batch_size": 64, "lr": 3e-3},
        "mc_dropout": {"hidden": 8, "epochs": 3, "passes": 5},
    }
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        run_experiment(ExperimentConfig.from_dict(spec), out)
        outs.append(out)
    metric_files = sorted(p.name for p in outs[0].glob("metrics_*.json"))
    assert len(metric_files) == 6
    for name in metric_files:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
