import dataclasses
import hashlib
import json
import os
import string
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from tessera import datagen, serialize
from tessera.datagen import (
    CSV_BLOCK_ROWS,
    CSV_FORK_ROWS,
    SPLIT_TAGS,
    DataSpec,
    Dataset,
    SplitSpec,
    gen_clustered_shift,
    gen_heteroscedastic,
    load_csv,
    save_csv,
    split_dataset,
)
from tessera.errors import ConfigError, CsvFormatError, DimensionError


def clustered(**fields) -> DataSpec:
    return DataSpec(kind="clustered_shift", **fields)


# -------------------------------------------------------- heteroscedastic

def test_gen_heteroscedastic_shapes_and_determinism():
    a = gen_heteroscedastic(DataSpec(n=100, dim=3, noise_profile="step"), 7)
    b = gen_heteroscedastic(DataSpec(n=100, dim=3, noise_profile="step"), 7)
    assert a.X.shape == (100, 3)
    assert a.y.shape == (100,)
    assert a.sigma_true is not None
    assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
    c = gen_heteroscedastic(DataSpec(n=100, dim=3, noise_profile="step"), 8)
    assert not np.array_equal(a.y, c.y)


def test_step_profile_two_levels():
    ds = gen_heteroscedastic(DataSpec(n=500, dim=2, noise_profile="step", noise_low=0.2,
                                      noise_high=1.0), 0)
    right = ds.X[:, 0] > 0
    assert set(np.unique(ds.sigma_true)) == {0.2, 1.0}
    assert np.all(ds.sigma_true[right] == 1.0)
    assert np.all(ds.sigma_true[~right] == 0.2)


def test_linear_profile_monotone_in_radius():
    ds = gen_heteroscedastic(DataSpec(n=500, dim=3, noise_profile="linear", noise_low=0.1,
                                      noise_high=0.9), 1)
    r = np.linalg.norm(ds.X, axis=1)
    order = np.argsort(r)
    assert np.all(np.diff(ds.sigma_true[order]) >= 0)
    assert ds.sigma_true.min() >= 0.1
    assert ds.sigma_true.max() <= 0.9


def test_constant_profile():
    ds = gen_heteroscedastic(DataSpec(n=50, dim=2, noise_profile="constant", noise_level=0.4), 2)
    assert_allclose(ds.sigma_true, np.full(50, 0.4), rtol=0)


def test_noise_matches_recorded_sigma():
    # same seed and shape, zero noise: isolates the additive noise exactly
    clean = gen_heteroscedastic(DataSpec(n=4000, dim=2, noise_profile="step", noise_low=0.0,
                                         noise_high=0.0), 3)
    noisy = gen_heteroscedastic(DataSpec(n=4000, dim=2, noise_profile="step", noise_low=0.2,
                                         noise_high=1.0), 3)
    assert np.array_equal(clean.X, noisy.X)
    xi = (noisy.y - clean.y)[noisy.sigma_true > 0] / \
        noisy.sigma_true[noisy.sigma_true > 0]
    assert abs(np.std(xi) - 1.0) < 0.05
    assert abs(np.mean(xi)) < 0.05


def test_unknown_profile_rejected():
    with pytest.raises(ConfigError, match="noise_profile 'quadratic' is not one of"):
        DataSpec(n=10, dim=2, noise_profile="quadratic")


# -------------------------------------------------------- clustered shift

def test_generator_is_unsplit_and_names_the_held_out_groups():
    ds = gen_clustered_shift(clustered(n=1000, dim=2, n_clusters=8, held_out_clusters=(7, 6)),
                             0)
    assert ds.split is None
    assert ds.meta["held_out_clusters"] == [6, 7]
    assert ds.meta["held_out_groups"] == ["cluster_06", "cluster_07"]
    assert set(ds.groups) == {f"cluster_{c:02d}" for c in range(8)}


def test_ood_mode_isolates_held_out_clusters():
    ds = gen_clustered_shift(clustered(n=1000, dim=2, n_clusters=8, held_out_clusters=(6, 7)),
                             0)
    ds = split_dataset(ds, SplitSpec(), 0, ds.meta["held_out_groups"])
    held = {"cluster_06", "cluster_07"}
    test_groups = set(ds.groups[ds.split == "test"])
    rest_groups = set(ds.groups[ds.split != "test"])
    assert test_groups == held
    assert rest_groups.isdisjoint(held)
    assert ds.meta["split"]["test_groups"] == sorted(held)
    # remaining rows split at the renormalized train/val/cal proportions
    n_rest = np.sum(ds.split != "test")
    for tag, frac in (("train", 0.75), ("val", 0.125), ("cal", 0.125)):
        assert abs(np.sum(ds.split == tag) - frac * n_rest) <= 1.0


def test_ood_test_clusters_sit_far_away():
    ds = gen_clustered_shift(clustered(n=1000, dim=3, n_clusters=6, held_out_clusters=(5,),
                                       center_radius=2.0, ood_radius=8.0), 1)
    held = ds.groups == "cluster_05"
    r_test = np.linalg.norm(ds.X[held], axis=1)
    r_rest = np.linalg.norm(ds.X[~held], axis=1)
    assert r_test.mean() > r_rest.mean() + 2.0


def test_iid_mode_splits_by_fraction():
    n = 1000
    ds = split_dataset(gen_clustered_shift(clustered(n=n, dim=2, n_clusters=8,
                                                     held_out_clusters=(6, 7)), 2),
                       SplitSpec(), 2)
    for tag, frac in (("train", 0.6), ("test", 0.2), ("val", 0.1), ("cal", 0.1)):
        assert abs(np.sum(ds.split == tag) - frac * n) <= 1.0
    # held-out labels appear across splits without test_groups
    assert "cluster_06" in set(ds.groups[ds.split != "test"])


def test_clustered_validation():
    # the "nonempty strict subset" rule holds in ood mode only
    iid = clustered(n=100, dim=2, n_clusters=4, held_out_clusters=(), mode="iid")
    assert gen_clustered_shift(iid, 0).meta["held_out_groups"] == []
    with pytest.raises(ConfigError, match="nonempty strict subset"):
        clustered(n=100, dim=2, n_clusters=4, held_out_clusters=())
    with pytest.raises(ConfigError, match="valid cluster indices"):
        clustered(n=100, dim=2, n_clusters=4, held_out_clusters=(9,))
    with pytest.raises(DimensionError, match="one sample per cluster"):
        clustered(n=3, dim=2, n_clusters=4, held_out_clusters=(0,))


def test_clustered_determinism():
    a = gen_clustered_shift(clustered(n=300, dim=2), 5)
    b = gen_clustered_shift(clustered(n=300, dim=2), 5)
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.groups, b.groups)


# ----------------------------------------------------------------- split

def test_random_split_exact_sizes_at_round_n():
    ds = gen_heteroscedastic(DataSpec(n=1000, dim=2, noise_profile="constant"), 0)
    out = split_dataset(ds, SplitSpec(), 3)
    counts = {tag: int(np.sum(out.split == tag))
              for tag in ("train", "test", "val", "cal")}
    assert counts == {"train": 600, "test": 200, "val": 100, "cal": 100}


def test_random_split_deterministic_and_seed_sensitive():
    ds = gen_heteroscedastic(DataSpec(n=200, dim=2, noise_profile="constant"), 0)
    a = split_dataset(ds, SplitSpec(), 1)
    b = split_dataset(ds, SplitSpec(), 1)
    c = split_dataset(ds, SplitSpec(), 2)
    assert np.array_equal(a.split, b.split)
    assert not np.array_equal(a.split, c.split)


def test_split_fraction_validation():
    ds = gen_heteroscedastic(DataSpec(n=50, dim=2, noise_profile="constant"), 0)
    with pytest.raises(ConfigError):
        split_dataset(ds, SplitSpec(fractions=(0.5, 0.2, 0.1, 0.1)), 0)
    with pytest.raises(ConfigError):
        split_dataset(ds, SplitSpec(fractions=(0.6, 0.2, 0.2)), 0)
    with pytest.raises(ConfigError):
        split_dataset(ds, SplitSpec(mode="stratified"), 0)
    with pytest.raises(ConfigError, match="nonnegative and sum to 1"):
        split_dataset(ds, SplitSpec(fractions=(0.6, 0.2, float("nan"), 0.2)), 0)
    for fractions in ((0.5, 0.5), (0.7, 0.2, 0.1, 0.1)):
        with pytest.raises(ConfigError, match="fractions"):
            split_dataset(gen_clustered_shift(clustered(n=400, dim=2), 0),
                          SplitSpec(fractions=fractions), 0, ["cluster_06"])


def test_test_groups_validation():
    ds = gen_clustered_shift(clustered(n=400, dim=2), 0)
    with pytest.raises(ConfigError, match="require group labels"):
        split_dataset(gen_heteroscedastic(DataSpec(n=50, dim=2, noise_profile="constant"), 0),
                      SplitSpec(), 0, ["a"])
    out = split_dataset(ds, SplitSpec(fractions=(0.6, 0.0, 0.2, 0.2)), 0, ["cluster_06"])
    assert np.array_equal(out.split == "test", ds.groups == "cluster_06")


@pytest.mark.parametrize("fractions,tags", [((0.7, 0.2, 0.1, 0.0), "cal"),
                                            ((0.7, 0.2, 0.0, 0.1), "val"),
                                            ((0.0, 0.2, 0.4, 0.4), "train"),
                                            ((0.0, 1.0, 0.0, 0.0), "train and val and cal")])
def test_split_spec_refuses_a_zero_train_val_or_cal_share(fractions, tags):
    with pytest.raises(ConfigError, match=f"^fractions give {tags} a zero share"):
        SplitSpec(fractions=fractions)


def test_by_group_split_keeps_groups_whole():
    rng = np.random.default_rng(0)
    sizes = {"a": 50, "b": 30, "c": 10, "d": 10}
    groups = np.concatenate([[g] * k for g, k in sizes.items()])
    X = rng.standard_normal((100, 2))
    y = rng.standard_normal(100)
    ds = Dataset(X=X, y=y, groups=groups)
    with pytest.warns(UserWarning, match="exceeds"):  # b overshoots its target
        out = split_dataset(ds, SplitSpec(mode="by_group"), 0)
    for g in sizes:
        tags = set(out.split[out.groups == g])
        assert len(tags) == 1
    # greedy by descending size against targets 60/20/10/10:
    # a -> train, b -> test, c -> train (largest remaining deficit), d -> val
    assert set(out.split[out.groups == "a"]) == {"train"}
    assert set(out.split[out.groups == "b"]) == {"test"}
    assert set(out.split[out.groups == "c"]) == {"train"}
    assert set(out.split[out.groups == "d"]) == {"val"}


def test_by_group_warns_on_oversized_group():
    groups = np.array(["big"] * 90 + ["small"] * 10)
    ds = Dataset(X=np.zeros((100, 1)), y=np.zeros(100), groups=groups)
    with pytest.warns(UserWarning, match="exceeds"):
        split_dataset(ds, SplitSpec(mode="by_group"), 0)


def test_by_group_requires_groups():
    ds = Dataset(X=np.zeros((10, 1)), y=np.zeros(10))
    with pytest.raises(ConfigError):
        split_dataset(ds, SplitSpec(mode="by_group"), 0)


@st.composite
def split_cases(draw):
    """A dataset with a random group layout, plus split_dataset arguments."""
    sizes = draw(st.lists(st.integers(1, 30), min_size=1, max_size=8))
    names = [f"g{i}" for i in range(len(sizes))]
    groups = np.repeat(names, sizes)[draw(st.permutations(range(sum(sizes))))]
    ds = Dataset(X=np.arange(groups.size, dtype=np.float64)[:, None],
                 y=np.zeros(groups.size), groups=groups)
    # train, val and cal each get a share; test may get none
    weights = [draw(st.integers(0 if tag == "test" else 1, 10)) for tag in SPLIT_TAGS]
    test_groups = draw(st.none() | st.sets(st.sampled_from(names)))
    spec = SplitSpec(tuple(np.array(weights) / sum(weights)),
                     draw(st.sampled_from(datagen.SPLIT_MODES)))
    return ds, {"spec": spec, "seed": draw(st.integers(0, 2**32 - 1)),
                "test_groups": test_groups}


@settings(max_examples=300, deadline=None)
@given(case=split_cases())
def test_split_dataset_properties(case):
    ds, kwargs = case
    shares = np.array(kwargs["spec"].fractions)
    held = np.zeros(ds.n, dtype=bool)
    if kwargs["test_groups"] is not None:
        held = np.isin(ds.groups, sorted(kwargs["test_groups"]))
        shares[SPLIT_TAGS.index("test")] = 0.0
        shares /= shares.sum()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # by_group overshooting a target
        out = split_dataset(ds, **kwargs)
    assert np.array_equal(out.X, ds.X) and np.array_equal(out.groups, ds.groups)
    # one tag per row, and test holds exactly the test_groups rows
    assert out.split.shape == (ds.n,) and set(out.split) <= set(SPLIT_TAGS)
    assert out.meta["split"]["counts"] == {tag: int(np.sum(out.split == tag))
                                           for tag in SPLIT_TAGS}
    if kwargs["test_groups"] is not None:
        assert np.array_equal(out.split == "test", held)
    rest = out.split[~held]
    m = rest.size
    if kwargs["spec"].mode == "by_group":
        for g in np.unique(ds.groups):
            assert np.unique(out.split[ds.groups == g]).size == 1, g
        for tag, share in zip(SPLIT_TAGS, shares):
            if share == 0.0:
                assert not np.any(rest == tag), tag
    else:
        for tag, share in zip(SPLIT_TAGS, shares):
            assert abs(np.sum(rest == tag) - share * m) <= 1.0 + 1e-9, tag


def test_part_selects_split_rows():
    ds = split_dataset(gen_heteroscedastic(DataSpec(n=100, dim=2, noise_profile="constant"), 0),
                       SplitSpec(), 0)
    test = ds.part("test")
    assert test.n == int(np.sum(ds.split == "test"))
    assert np.all(test.split == "test")
    with pytest.raises(DimensionError):
        Dataset(X=np.zeros((5, 1)), y=np.zeros(5)).part("test")


# ------------------------------------------------------------------ specs

# (kind, base fields, field, changed value): one row per field each generator
# reads, under each noise profile that reads it
FIELD_CHANGES = [
    ("heteroscedastic", {}, "n", 41),
    ("heteroscedastic", {}, "dim", 3),
    ("heteroscedastic", {}, "noise_profile", "linear"),
    ("heteroscedastic", {}, "noise_low", 0.3),
    ("heteroscedastic", {}, "noise_high", 0.9),
    ("heteroscedastic", {"noise_profile": "linear"}, "noise_low", 0.3),
    ("heteroscedastic", {"noise_profile": "linear"}, "noise_high", 0.9),
    ("heteroscedastic", {"noise_profile": "constant"}, "noise_level", 0.7),
    ("clustered_shift", {}, "n", 41),
    ("clustered_shift", {}, "dim", 3),
    ("clustered_shift", {}, "n_clusters", 9),
    ("clustered_shift", {}, "held_out_clusters", (5, 7)),
    ("clustered_shift", {}, "cluster_std", 0.4),
    ("clustered_shift", {}, "center_radius", 2.5),
    ("clustered_shift", {}, "ood_radius", 7.0),
    ("clustered_shift", {}, "noise", 0.2),
]
GENERATORS = {"heteroscedastic": gen_heteroscedastic, "clustered_shift": gen_clustered_shift}


def test_field_changes_cover_every_data_spec_field():
    # the rest: kind picks the generator, mode the split, path the csv
    tested = {name for _, _, name, _ in FIELD_CHANGES}
    assert tested | {"kind", "mode", "path"} == {f.name for f in dataclasses.fields(DataSpec)}


@pytest.mark.parametrize("kind, base, name, value", FIELD_CHANGES,
                         ids=[f"{k}-{name}-{'-'.join(map(str, base.values()))}".rstrip("-")
                              for k, base, name, _ in FIELD_CHANGES])
def test_every_data_spec_field_reaches_the_data(kind, base, name, value):
    gen = GENERATORS[kind]
    fields = {"kind": kind, "n": 40, "dim": 2, **base}
    before = gen(DataSpec(**fields), 3)
    after = gen(DataSpec(**{**fields, name: value}), 3)
    arrays = ("X", "y", "sigma_true", "groups")
    assert not all(np.array_equal(getattr(before, a), getattr(after, a)) for a in arrays)
    assert after.meta[name] != before.meta[name]


@pytest.mark.parametrize("kind, other", [
    ("heteroscedastic", clustered()), ("heteroscedastic", DataSpec(kind="csv", path="x.csv")),
    ("clustered_shift", DataSpec()), ("clustered_shift", DataSpec(kind="csv", path="x.csv")),
], ids=lambda v: v if isinstance(v, str) else f"given_{v.kind}")
def test_generator_refuses_a_spec_of_another_kind(kind, other):
    # a spec of another kind never had this kind's rules applied
    with pytest.raises(ConfigError, match=f"kind '{other.kind}' is not '{kind}'"):
        GENERATORS[kind](other, 0)


def test_split_spec_fractions_and_mode_each_change_the_split():
    ds = gen_clustered_shift(clustered(n=400, dim=2, mode="iid"), 0)
    base = split_dataset(ds, SplitSpec(), 1)
    for spec in (SplitSpec(fractions=(0.5, 0.3, 0.1, 0.1)), SplitSpec(mode="by_group")):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # 50-row clusters, 40-row targets
            out = split_dataset(ds, spec, 1)
        assert not np.array_equal(out.split, base.split)
        assert out.meta["split"]["fractions"] == list(spec.fractions)
        assert out.meta["split"]["mode"] == spec.mode


# ------------------------------------------------------------------- csv

def test_csv_round_trip_lossless(tmp_path):
    ds = split_dataset(gen_clustered_shift(clustered(n=200, dim=3), 9), SplitSpec(), 1)
    path = tmp_path / "data.csv"
    save_csv(ds, path)
    back = load_csv(path)
    assert np.array_equal(back.X, ds.X)
    assert np.array_equal(back.y, ds.y)
    assert np.array_equal(back.sigma_true, ds.sigma_true)
    assert np.array_equal(back.groups, ds.groups)
    assert np.array_equal(back.split, ds.split)
    assert back.meta == ds.meta


def test_csv_sidecar_written_and_read(tmp_path):
    ds = gen_heteroscedastic(DataSpec(n=20, dim=2, noise_profile="step"), 4)
    path = tmp_path / "data.csv"
    save_csv(ds, path)
    sidecar = tmp_path / "data.csv.meta.json"
    assert sidecar.exists()
    back = load_csv(path)
    assert back.meta["generator"] == "heteroscedastic"
    assert back.meta["seed"] == 4


def test_csv_minimal_columns(tmp_path):
    path = tmp_path / "min.csv"
    path.write_text("feature_0,feature_1,target\n1.5,-2.25,0.125\n0.0,1.0,2.0\n")
    ds = load_csv(path)
    assert ds.n == 2 and ds.dim == 2
    assert ds.groups is None and ds.split is None and ds.sigma_true is None
    assert_allclose(ds.X[0], [1.5, -2.25], rtol=0)


def test_csv_malformed_row_names_its_line(tmp_path):
    rows = [f"{i}.0,{i}.5" for i in range(20)]
    rows[15] = "7.0"  # file line 17 (header is line 1)
    path = tmp_path / "bad.csv"
    path.write_text("feature_0,target\n" + "\n".join(rows) + "\n")
    with pytest.raises(CsvFormatError, match="line 17"):
        load_csv(path)


def test_csv_line_numbers_count_blank_lines(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("feature_0,target\n1.0,2.0\n\n3.0\n")
    with pytest.raises(CsvFormatError, match="line 4: expected 2 cells, got 1"):
        load_csv(path)


def test_csv_non_numeric_cell_names_its_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("feature_0,target\n1.0,2.0\noops,3.0\n")
    with pytest.raises(CsvFormatError, match="line 3"):
        load_csv(path)


def test_csv_header_validation(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("feature_0,feature_2,target\n1.0,2.0,3.0\n")
    with pytest.raises(CsvFormatError, match="feature_0"):
        load_csv(path)
    path.write_text("feature_0,label\n1.0,2.0\n")
    with pytest.raises(CsvFormatError, match="target"):
        load_csv(path)
    path.write_text("feature_0,target,extra\n1.0,2.0,3.0\n")
    with pytest.raises(CsvFormatError, match="extra"):
        load_csv(path)


def test_csv_non_finite_cell_rejected(tmp_path):
    ds = gen_heteroscedastic(DataSpec(n=20, dim=2, noise_profile="step"), 4)
    path = tmp_path / "data.csv"
    save_csv(ds, path)
    lines = path.read_text().split("\n")
    cells = lines[5].split(",")
    cells[1] = "nan"  # feature_1 of one row
    lines[5] = ",".join(cells)
    path.write_text("\n".join(lines))
    with pytest.raises(CsvFormatError, match="data.csv: X has non-finite"):
        load_csv(path)


def test_csv_bad_split_tag_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("feature_0,target,split\n1.0,2.0,holdout\n")
    with pytest.raises(CsvFormatError, match="split"):
        load_csv(path)


def test_exact_float_round_trip(tmp_path):
    # adversarial values: shortest repr must reproduce the exact bits
    vals = np.array([0.1, 1 / 3, np.pi, 1e-300, 123456.789012345])
    ds = Dataset(X=vals[:, None], y=vals * 7.0)
    path = tmp_path / "exact.csv"
    save_csv(ds, path)
    back = load_csv(path)
    assert np.array_equal(back.X[:, 0], vals)
    assert np.array_equal(back.y, vals * 7.0)


@pytest.mark.parametrize("bad_row", [CSV_BLOCK_ROWS + 5, CSV_FORK_ROWS + 5],
                         ids=["parent_half", "child_half"])
def test_csv_failed_save_keeps_previous_file(tmp_path, monkeypatch, bad_row):
    n = CSV_FORK_ROWS + 10
    path = tmp_path / "data.csv"
    save_csv(split_dataset(gen_clustered_shift(clustered(n=n, dim=2), 0), SplitSpec(), 0), path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    ds = split_dataset(gen_clustered_shift(clustered(n=n, dim=2), 1), SplitSpec(), 1)
    ds.split = ds.split.astype(object)
    ds.meta["split"]["counts"][ds.split[bad_row]] -= 1  # as the column will hold
    ds.split[bad_row] = 7  # fails to format after the first block of its half is written
    forks = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    with pytest.raises(TypeError, match="expected str instance, int found"):
        save_csv(ds, path)
    assert len(forks) == 1
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    assert not [p.name for p in tmp_path.iterdir() if serialize.is_temp_name(p.name)]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


KILLED_WRITER = """
import sys
import numpy as np
from tessera.datagen import Dataset, save_csv
n = int(sys.argv[2])
rng = np.random.default_rng(0)
save_csv(Dataset(X=rng.standard_normal((n, 1)), y=rng.standard_normal(n)), sys.argv[1])
"""


def _temp_files(directory: Path) -> list[Path]:
    return [p for p in directory.iterdir() if serialize.is_temp_name(p.name)]


def _starts_with_header(p: Path) -> bool:
    try:
        with open(p, "rb") as f:
            return f.read(len(b"feature_0,")) == b"feature_0,"
    except FileNotFoundError:
        return True  # gone is as good as the parent's own file here


def test_csv_killed_writer_leaves_no_child_file(tmp_path):
    # the forked child notices its parent is gone between blocks and removes
    # its file; the parent's own temp file (it starts with the header) may stay
    path = tmp_path / "data.csv"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.Popen([sys.executable, "-c", KILLED_WRITER, str(path), str(10 ** 6)],
                            env=env, stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 120
        # both halves are under way once there are two non-empty temp files
        while not (len(temps := _temp_files(tmp_path)) == 2
                   and all(p.exists() and p.stat().st_size for p in temps)):
            assert proc.poll() is None, proc.stderr.read()
            assert time.monotonic() < deadline
            time.sleep(0.002)
    finally:
        proc.kill()
        proc.wait(timeout=60)
        proc.stderr.close()
    deadline = time.monotonic() + 60
    while not all(_starts_with_header(p) for p in _temp_files(tmp_path)):
        assert time.monotonic() < deadline, [p.name for p in _temp_files(tmp_path)]
        time.sleep(0.01)
    assert len(_temp_files(tmp_path)) <= 1
    assert not path.exists()


# -------------------------------------------------------- csv properties

def _reference_csv_bytes(ds: Dataset) -> bytes:
    """The per-row writer that the block-wise save_csv must match byte for byte."""
    header = [f"feature_{j}" for j in range(ds.dim)] + ["target"]
    if ds.sigma_true is not None:
        header.append("sigma_true")
    if ds.groups is not None:
        header.append("group")
    if ds.split is not None:
        header.append("split")
    rows = []
    for i in range(ds.n):
        row = [repr(float(v)) for v in ds.X[i]]
        row.append(repr(float(ds.y[i])))
        if ds.sigma_true is not None:
            row.append(repr(float(ds.sigma_true[i])))
        if ds.groups is not None:
            row.append(str(ds.groups[i]))
        if ds.split is not None:
            row.append(str(ds.split[i]))
        rows.append(",".join(row))
    return (",".join(header) + "\n" + "\n".join(rows) + "\n").encode()


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


ADVERSARIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                      2.2250738585072014e-308, 1e-300, -1e-300, 2.0 ** 53,
                      2.0 ** 53 - 1, 2.0 ** 53 + 2, -(2.0 ** 53), 1.7976931348623157e308,
                      0.1, 1 / 3, 123456.789012345]
# from CSV_FORK_ROWS rows on, two processes write the rows, split on a block
# edge; the last count has an odd number of blocks, the last one partial
BOUNDARY_ROWS = [1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1,
                 2 * CSV_BLOCK_ROWS + 3, CSV_FORK_ROWS - 1, CSV_FORK_ROWS, CSV_FORK_ROWS + 1,
                 (CSV_FORK_ROWS // (2 * CSV_BLOCK_ROWS) + 1) * 2 * CSV_BLOCK_ROWS + 7]
LABEL_TEXT = st.text(alphabet=string.ascii_letters + string.digits + " _-.:", min_size=1,
                     max_size=8)


@st.composite
def csv_datasets(draw, rows=st.sampled_from(BOUNDARY_ROWS)):
    n = draw(rows)
    dim = draw(st.integers(1, 4))
    pool = np.array(ADVERSARIAL_FLOATS + draw(st.lists(
        st.floats(allow_nan=False, allow_infinity=False), max_size=16)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # half the cells from the adversarial pool, half spread over the exponent range
    spread = rng.standard_normal(n * (dim + 2)) * 10.0 ** rng.integers(-300, 300, n * (dim + 2))
    values = np.where(rng.random(n * (dim + 2)) < 0.5, rng.choice(pool, n * (dim + 2)), spread)
    values = values.reshape(n, dim + 2)
    sigma = values[:, -1]
    labels = draw(st.lists(LABEL_TEXT, min_size=1, max_size=5))
    return Dataset(
        X=values[:, :dim], y=values[:, dim],
        sigma_true=np.where(sigma < 0, -sigma, sigma) if draw(st.booleans()) else None,
        groups=rng.choice(labels, n) if draw(st.booleans()) else None,
        split=rng.choice(SPLIT_TAGS, n) if draw(st.booleans()) else None)


@pytest.mark.parametrize("rows", BOUNDARY_ROWS)
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_csv_block_codec_matches_reference_and_round_trips_bits(tmp_path_factory, rows, data):
    ds = data.draw(csv_datasets(rows=st.just(rows)))
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    save_csv(ds, path)
    assert path.read_bytes() == _reference_csv_bytes(ds)
    back = load_csv(path)
    assert back.X.flags.c_contiguous
    assert np.array_equal(_bits(back.X), _bits(ds.X))
    assert np.array_equal(_bits(back.y), _bits(ds.y))
    assert (back.sigma_true is None) == (ds.sigma_true is None)
    assert ds.sigma_true is None or np.array_equal(_bits(back.sigma_true),
                                                   _bits(ds.sigma_true))
    for name in ("groups", "split"):
        want, got = getattr(ds, name), getattr(back, name)
        assert (want is None) == (got is None)
        assert want is None or np.array_equal(got, want)


@settings(max_examples=25, deadline=None)
@given(ds=csv_datasets(rows=st.just(2 * CSV_BLOCK_ROWS + 3)), data=st.data())
def test_csv_bad_row_past_first_block_names_its_physical_line(tmp_path_factory, ds, data):
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    save_csv(ds, path)
    lines = path.read_text().split("\n")[:-1]  # header + n rows
    n_floats = ds.dim + 1 + (ds.sigma_true is not None)
    bad = data.draw(st.integers(CSV_BLOCK_ROWS, ds.n - 2), label="bad row")
    for row in (bad, data.draw(st.integers(bad + 1, ds.n - 1), label="later bad row")):
        cells = lines[1 + row].split(",")
        kind = data.draw(st.sampled_from(["cell", "short", "long"]), label="kind")
        if kind == "cell":
            cells[data.draw(st.integers(0, n_floats - 1), label="column")] = data.draw(
                st.sampled_from(["oops", "", "1.0.0", "0x1p3", "1e", "--1", " "]),
                label="token")
        elif kind == "short":
            cells.pop()
        else:
            cells.append("1.0")
        lines[1 + row] = ",".join(cells)
    blanks = data.draw(st.lists(st.integers(1, 1 + bad), max_size=4), label="blank lines")
    for at in sorted(blanks, reverse=True):
        lines.insert(at, "")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CsvFormatError, match=f"data.csv: line {bad + 2 + len(blanks)}: "):
        load_csv(path)


# ------------------------------------------------------------- csv cache

def _assert_same_dataset(got: Dataset, want: Dataset):
    for name in ("X", "y", "sigma_true", "groups", "split"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is None:
            continue
        assert a.dtype == b.dtype, name  # for labels this includes the <U width
        assert a.shape == b.shape and a.flags.c_contiguous == b.flags.c_contiguous, name
        if a.dtype == np.float64:
            assert np.array_equal(_bits(a), _bits(b)), name
        else:
            assert np.array_equal(a, b), name
    assert got.meta == want.meta
    # == alone treats 1 and 1.0, or True and 1, as equal
    assert json.dumps(got.meta, sort_keys=True) == json.dumps(want.meta, sort_keys=True)


META_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 40, 2 ** 40)
    | st.floats(allow_nan=False, allow_infinity=False) | LABEL_TEXT,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(LABEL_TEXT, inner, max_size=3), max_leaves=6)


@settings(max_examples=25, deadline=None)
@given(ds=csv_datasets(), meta=st.dictionaries(LABEL_TEXT, META_VALUES, max_size=4),
       widen=st.booleans())
def test_csv_saved_cache_entry_equals_cold_parse(tmp_path_factory, ds, meta, widen):
    ds.meta = meta
    if widen:  # label dtypes wider than the longest label, which the loader narrows
        for name in ("groups", "split"):
            if getattr(ds, name) is not None:
                setattr(ds, name, getattr(ds, name).astype("<U12"))
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    save_csv(ds, path)
    seeded = datagen._csv_cache
    assert load_csv(path).X is seeded[1].X  # a hit: the saved entry itself
    assert datagen._csv_cache is seeded
    datagen._csv_cache = None
    cold = load_csv(path)
    assert datagen._csv_cache[0] == seeded[0]
    _assert_same_dataset(seeded[1], datagen._csv_cache[1])
    _assert_same_dataset(cold, seeded[1])


def test_csv_load_after_save_does_not_parse(tmp_path, parses):
    ds = split_dataset(gen_clustered_shift(clustered(n=CSV_BLOCK_ROWS + 10, dim=2), 3),
                       SplitSpec(), 0)
    path = tmp_path / "data.csv"
    save_csv(ds, path)
    for _ in range(3):
        back = load_csv(path)
    assert parses == []
    assert np.array_equal(back.X, ds.X) and back.meta == ds.meta
    datagen._csv_cache = None
    load_csv(path)
    load_csv(path)
    assert parses == ["data.csv"]


def test_csv_one_byte_edit_of_either_file_misses(tmp_path, parses):
    path = tmp_path / "data.csv"
    ds = gen_heteroscedastic(DataSpec(n=30, dim=2, noise_profile="step"), 4)
    ds.meta = {}
    save_csv(ds, path)
    text = path.read_text()
    first_value = text.split("\n")[1].split(",")[0]
    edited = first_value[:-1] + ("1" if first_value[-1] != "1" else "2")
    path.write_text(text.replace(first_value, edited, 1))
    assert load_csv(path).X[0, 0] == float(edited)
    assert parses == ["data.csv"]

    save_csv(gen_heteroscedastic(DataSpec(n=30, dim=2, noise_profile="step"), 4), path)
    sidecar = tmp_path / "data.csv.meta.json"
    sidecar.write_text(sidecar.read_text().replace('"seed": 4', '"seed": 5'))
    assert load_csv(path).meta["seed"] == 5
    assert parses == ["data.csv"] * 2
    sidecar.unlink()
    assert load_csv(path).meta == {}
    assert parses == ["data.csv"] * 3


def test_csv_loaded_arrays_are_read_only(tmp_path):
    ds = split_dataset(gen_clustered_shift(clustered(n=40, dim=2), 3), SplitSpec(), 0)
    path = tmp_path / "data.csv"
    save_csv(ds, path)
    for cold in (False, True):
        if cold:
            datagen._csv_cache = None
        back = load_csv(path)
        for name in ("X", "y", "sigma_true", "groups", "split"):
            assert not getattr(back, name).flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            back.X[0, 0] = 1.0
        assert back.part("train").X.flags.writeable  # row subsets are copies


def test_csv_cache_is_not_changed_through_results_or_the_saved_dataset(tmp_path):
    ds = split_dataset(gen_clustered_shift(clustered(n=40, dim=2), 3), SplitSpec(), 2)
    path = tmp_path / "data.csv"
    save_csv(ds, path)
    want = json.loads(json.dumps(ds.meta))
    ds.X[0, 0] += 1.0
    ds.meta["split"]["mode"] = "changed"
    first = load_csv(path)
    assert first.X[0, 0] == ds.X[0, 0] - 1.0
    assert first.meta == want
    first.meta["seed"] = -1
    first.meta["split"]["fractions"].append(0.5)
    first.meta["extra"] = True
    for cold in (False, True):
        if cold:
            datagen._csv_cache = None
        assert load_csv(path).meta == want


def test_csv_corrupt_file_raises_on_every_call(tmp_path, parses):
    path = tmp_path / "bad.csv"
    path.write_text("feature_0,target\n1.0,2.0\noops,3.0\n")
    for _ in range(3):
        with pytest.raises(CsvFormatError, match="line 3"):
            load_csv(path)
    assert parses == ["bad.csv"] * 3


def test_csv_save_without_meta_removes_stale_sidecar(tmp_path):
    path = tmp_path / "data.csv"
    save_csv(gen_heteroscedastic(DataSpec(n=50, dim=2, noise_profile="step"), 1), path)
    ds = gen_heteroscedastic(DataSpec(n=60, dim=2, noise_profile="step"), 2)
    ds.meta = {}
    save_csv(ds, path)
    assert not (tmp_path / "data.csv.meta.json").exists()
    for cold in (False, True):
        if cold:
            datagen._csv_cache = None
        back = load_csv(path)
        assert back.n == 60 and back.meta == {}


def test_csv_sidecar_records_data_sha256(tmp_path):
    ds = gen_heteroscedastic(DataSpec(n=20, dim=2, noise_profile="step"), 4)
    path = tmp_path / "data.csv"
    save_csv(ds, path)
    recorded = serialize.load(tmp_path / "data.csv.meta.json")
    assert recorded == {**ds.meta, "data_sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
    datagen._csv_cache = None
    assert load_csv(path).meta == ds.meta


def test_csv_interrupted_sidecar_write_is_refused(tmp_path, monkeypatch):
    path = tmp_path / "data.csv"
    save_csv(gen_heteroscedastic(DataSpec(n=50, dim=2, noise_profile="step"), 1), path)

    def interrupted(obj, target):
        raise KeyboardInterrupt
    monkeypatch.setattr(serialize, "dump", interrupted)
    with pytest.raises(KeyboardInterrupt):
        save_csv(gen_heteroscedastic(DataSpec(n=60, dim=2, noise_profile="step"), 2), path)
    monkeypatch.undo()
    for cold in (False, True):
        if cold:
            datagen._csv_cache = None
        with pytest.raises(CsvFormatError,
                           match=r"data\.csv\.meta\.json records data_sha256 .* but data\.csv"):
            load_csv(path)


def test_csv_sidecar_without_data_sha256_still_loads(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("feature_0,target\n1.0,2.0\n")
    (tmp_path / "data.csv.meta.json").write_text('{"seed": 3}\n')
    assert load_csv(path).meta == {"seed": 3}
    (tmp_path / "data.csv.meta.json").write_text('[1, 2]\n')
    with pytest.raises(CsvFormatError, match="JSON object"):
        load_csv(path)


def test_csv_invalid_saved_dataset_is_not_cached(tmp_path):
    ds = split_dataset(gen_clustered_shift(clustered(n=40, dim=2), 3), SplitSpec(), 3)
    ds.split = np.where(ds.split == "val", "holdout", ds.split)  # bypasses validation
    ds.meta["split"]["counts"]["val"] = 0  # as the column now holds
    path = tmp_path / "data.csv"
    save_csv(ds, path)
    with pytest.raises(CsvFormatError, match="data.csv: unknown split tags"):
        load_csv(path)


def test_csv_save_refuses_split_counts_that_disagree_with_the_split_column(tmp_path):
    ds = split_dataset(gen_clustered_shift(clustered(n=40, dim=2), 3), SplitSpec(), 3)
    counts = ds.meta["split"]["counts"]
    assert (counts["train"], counts["cal"]) == (24, 4)
    ds.split = np.where(ds.split == "cal", "train", ds.split)  # the counts go stale
    with pytest.raises(CsvFormatError, match=r"data\.csv\.meta\.json: split\.counts records "
                                             r"24 'train' rows, but the split column holds 28"):
        save_csv(ds, tmp_path / "data.csv")
    assert list(tmp_path.iterdir()) == []
    ds.split = None  # no column at all holds no rows of any tag
    with pytest.raises(CsvFormatError, match=r"records 24 'train' rows, but the split "
                                             r"column holds 0"):
        save_csv(ds, tmp_path / "data.csv")


def test_csv_load_refuses_a_sidecar_whose_split_counts_disagree(tmp_path, parses):
    path = tmp_path / "data.csv"
    ds = split_dataset(gen_clustered_shift(clustered(n=40, dim=2), 3), SplitSpec(), 3)
    save_csv(ds, path)
    sidecar = tmp_path / "data.csv.meta.json"
    record = serialize.load(sidecar)
    record["split"]["counts"]["test"] += 1
    serialize.dump(record, sidecar)  # data_sha256 still matches the rows
    for _ in range(2):  # a refused load caches nothing
        with pytest.raises(CsvFormatError, match=r"data\.csv\.meta\.json: split\.counts "
                                                 r"records 9 'test' rows, but the split "
                                                 r"column holds 8"):
            load_csv(path)
    assert len(parses) == 2


@pytest.mark.parametrize("split_meta", [None, "by hand", [1, 2], {"counts": "all"},
                                        {"mode": "random"}])
def test_csv_metadata_that_is_no_split_record_is_not_checked(tmp_path, split_meta):
    ds = gen_heteroscedastic(DataSpec(n=20, dim=2), 4)
    ds.meta["split"] = split_meta
    save_csv(ds, tmp_path / "data.csv")
    datagen._csv_cache = None
    assert load_csv(tmp_path / "data.csv").meta["split"] == split_meta


@pytest.mark.parametrize("label", ["a,b", "a\nb", "a\rb", "a\r\nb"])
def test_csv_save_refuses_labels_that_would_not_load_back(tmp_path, label):
    ds = split_dataset(gen_clustered_shift(clustered(n=40, dim=2), 3), SplitSpec(), 3)
    ds.groups = ds.groups.astype(object)
    ds.groups[7] = label
    with pytest.raises(CsvFormatError, match="commas or line breaks"):
        save_csv(ds, tmp_path / "data.csv")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("field, column", [("y", "target"), ("sigma_true", "sigma_true"),
                                           ("groups", "group"), ("split", "split")])
def test_csv_save_refuses_a_column_with_the_wrong_row_count(tmp_path, field, column):
    path = tmp_path / "data.csv"
    save_csv(split_dataset(gen_clustered_shift(clustered(n=40, dim=2), 3), SplitSpec(), 3),
             path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert set(before) == {"data.csv", "data.csv.meta.json"}
    ds = split_dataset(gen_clustered_shift(clustered(n=50, dim=2), 1), SplitSpec(), 1)
    setattr(ds, field, getattr(ds, field)[:10])  # bypasses validation
    with pytest.raises(CsvFormatError,
                       match=rf"data.csv: column '{column}' has shape \(10,\), not \(50,\)"):
        save_csv(ds, path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    assert load_csv(path).n == 40


# ------------------------------------------------------------ validation

def test_dataset_validation():
    with pytest.raises(DimensionError):
        Dataset(X=np.zeros((3, 2)), y=np.zeros(4))
    with pytest.raises(DimensionError):
        Dataset(X=np.zeros((3, 2)), y=np.zeros(3), groups=np.array(["a", "b"]))
    with pytest.raises(DimensionError):
        Dataset(X=np.zeros((2, 2)), y=np.zeros(2), split=np.array(["train", "huh"]))
    with pytest.raises(DimensionError):
        Dataset(X=np.zeros((2, 2)), y=np.zeros(2), sigma_true=np.array([-1.0, 1.0]))
    for field, bad in (("X", np.nan), ("y", -np.inf), ("sigma_true", np.inf)):
        arrays = {"X": np.zeros((3, 2)), "y": np.zeros(3), "sigma_true": np.ones(3)}
        arrays[field].flat[1] = bad
        with pytest.raises(DimensionError, match=f"{field} has non-finite"):
            Dataset(**arrays)
