"""Synthetic regression data with controlled noise structure, dataset
splitting, and a lossless CSV round trip.

Generators record the true noise scale alongside each sample so adaptivity
metrics can be checked against ground truth. Everything is a pure function
of its seed.
"""

from __future__ import annotations

import copy
import hashlib
import io
import json
import math
import warnings
from dataclasses import dataclass, field
from itertools import islice
from operator import methodcaller
from pathlib import Path

import numpy as np

from .errors import ConfigError, CsvFormatError, DimensionError
from .nn import Array, make_rng
from . import serialize

SPLIT_TAGS = ("train", "test", "val", "cal")
DEFAULT_FRACTIONS = (0.6, 0.2, 0.1, 0.1)
NOISE_PROFILES = ("constant", "linear", "step")
SPLIT_MODES = ("random", "by_group")
CLUSTER_MODES = ("ood", "iid")
# Rows per block in the CSV codec. Each block's cells are held as Python
# strings; at 4096 rows they raised the default config's peak RSS by ~2 MB,
# while at 512 the per-block overhead is lost in the codec's timing noise.
CSV_BLOCK_ROWS = 512
# Cache key of a data.csv that has no sidecar, in place of the sidecar's digest.
_NO_SIDECAR = "no sidecar"
# The one CSV cache entry: ((sha256 of data.csv, sha256 of its sidecar or
# _NO_SIDECAR), Dataset with read-only arrays), or None. One pipeline run
# reads back the data.csv it has just written, so one entry is enough.
_csv_cache: tuple[tuple[str, str], Dataset] | None = None


@dataclass
class Dataset:
    """Feature matrix, targets, and optional per-sample annotations.

    ``sigma_true`` is the generating noise scale when known; ``groups``
    are string labels; ``split`` holds one of the four split tags.
    """

    X: Array
    y: Array
    sigma_true: Array | None = None
    groups: np.ndarray | None = None
    split: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.X = np.atleast_2d(np.asarray(self.X, dtype=np.float64))
        self.y = np.asarray(self.y, dtype=np.float64).ravel()
        n = self.X.shape[0]
        if n == 0 or self.X.shape[1] == 0:
            raise DimensionError("dataset must have rows and features")
        if self.y.shape[0] != n:
            raise DimensionError("y must have one target per row")
        if self.sigma_true is not None:
            self.sigma_true = np.asarray(self.sigma_true, dtype=np.float64).ravel()
            if self.sigma_true.shape[0] != n:
                raise DimensionError("sigma_true must have one entry per row")
            if np.any(self.sigma_true < 0):
                raise DimensionError("sigma_true must be nonnegative")
        for name in ("X", "y", "sigma_true"):
            values = getattr(self, name)
            if values is not None and not np.all(np.isfinite(values)):
                raise DimensionError(f"{name} has non-finite entries")
        if self.groups is not None:
            self.groups = np.asarray(self.groups, dtype=str)
            if self.groups.shape != (n,):
                raise DimensionError("groups must have one label per row")
            if np.any(self.groups == ""):
                raise DimensionError("group labels must be nonempty")
        if self.split is not None:
            self.split = np.asarray(self.split, dtype=str)
            if self.split.shape != (n,):
                raise DimensionError("split must have one tag per row")
            bad = sorted(set(np.unique(self.split)) - set(SPLIT_TAGS))
            if bad:
                raise DimensionError(f"unknown split tags: {bad}")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    def select(self, mask) -> "Dataset":
        """Row subset (boolean mask or index array); metadata is shared."""
        return Dataset(
            X=self.X[mask],
            y=self.y[mask],
            sigma_true=None if self.sigma_true is None else self.sigma_true[mask],
            groups=None if self.groups is None else self.groups[mask],
            split=None if self.split is None else self.split[mask],
            meta=self.meta,
        )

    def part(self, tag: str) -> "Dataset":
        """Rows carrying one split tag."""
        if self.split is None:
            raise DimensionError("dataset has no split assignment")
        if tag not in SPLIT_TAGS:
            raise DimensionError(f"unknown split tag {tag!r}")
        mask = self.split == tag
        if not np.any(mask):
            raise DimensionError(f"split {tag!r} is empty")
        return self.select(mask)


def _smooth_f(X: Array) -> Array:
    # fixed sum of sinusoids plus a mild affine trend; amplitude O(1) in d
    d = X.shape[1]
    freqs = 1.0 + 0.5 * np.arange(d)
    return (2.0 / np.sqrt(d)) * np.sin(X * freqs).sum(axis=1) \
        + 0.3 * X.sum(axis=1) / np.sqrt(d)


def _noise_scale(X: Array, profile: str, noise_low: float, noise_high: float,
                 noise_level: float) -> Array:
    n, d = X.shape
    if profile == "constant":
        return np.full(n, float(noise_level))
    if profile == "linear":
        # scales linearly in |x| from noise_low at the origin to noise_high
        # at the corner of the sampling box
        r = np.linalg.norm(X, axis=1) / (2.0 * np.sqrt(d))
        return noise_low + (noise_high - noise_low) * r
    if profile == "step":
        return np.where(X[:, 0] > 0.0, float(noise_high), float(noise_low))
    raise ConfigError(f"unknown noise profile {profile!r}")


def gen_heteroscedastic(n: int, dim: int, noise_profile: str = "step", seed: int = 0,
                        noise_low: float = 0.2, noise_high: float = 1.0,
                        noise_level: float = 0.5) -> Dataset:
    """Smooth signal plus input-dependent Gaussian noise.

    Features are uniform on [-2, 2]^dim. The noise scale follows the named
    profile: ``constant`` everywhere, ``linear`` in the distance from the
    origin, or a two-level ``step`` on the sign of the first feature.
    """
    check_heteroscedastic(n, dim, noise_profile, noise_low, noise_high, noise_level)
    rng = make_rng(seed)
    X = rng.uniform(-2.0, 2.0, size=(n, dim))
    sigma = _noise_scale(X, noise_profile, noise_low, noise_high, noise_level)
    y = _smooth_f(X) + sigma * rng.standard_normal(n)
    meta = {
        "generator": "heteroscedastic",
        "n": int(n), "dim": int(dim), "seed": int(seed),
        "noise_profile": noise_profile,
        "noise_low": float(noise_low), "noise_high": float(noise_high),
        "noise_level": float(noise_level),
    }
    return Dataset(X=X, y=y, sigma_true=sigma, meta=meta)


def gen_clustered_shift(n: int, dim: int, n_clusters: int = 8,
                        held_out_clusters=(6, 7), seed: int = 0,
                        mode: str = "ood", fractions=DEFAULT_FRACTIONS,
                        cluster_std: float = 0.5, center_radius: float = 2.0,
                        ood_radius: float = 6.0, noise: float = 0.3) -> Dataset:
    """Gaussian clusters with a distribution-shift split.

    In ``ood`` mode every sample from the held-out clusters goes to the
    test split and the remaining rows are split train/val/cal at the
    relative proportions of ``fractions``; calibration therefore sees no
    shifted data. In ``iid`` mode cluster identity is ignored and rows are
    split like any other dataset. Held-out cluster centers sit at
    ``ood_radius`` from the origin while the rest stay near
    ``center_radius``, so the shift is controllably far.
    """
    held = check_clustered(n, dim, n_clusters, held_out_clusters, mode, cluster_std,
                           center_radius, ood_radius, noise)
    check_fractions(fractions)
    rng = make_rng(seed)
    centers = rng.normal(0.0, center_radius, size=(n_clusters, dim))
    for c in held:
        direction = rng.standard_normal(dim)
        norm = np.linalg.norm(direction)
        if norm == 0.0:
            direction = np.ones(dim)
            norm = np.sqrt(dim)
        centers[c] = direction / norm * ood_radius
    base, rem = divmod(n, n_clusters)
    counts = np.full(n_clusters, base)
    counts[:rem] += 1
    assignment = np.repeat(np.arange(n_clusters), counts)
    rng.shuffle(assignment)
    X = centers[assignment] + cluster_std * rng.standard_normal((n, dim))
    sigma = np.full(n, float(noise))
    y = _smooth_f(X) + sigma * rng.standard_normal(n)
    groups = np.array([f"cluster_{c:02d}" for c in range(n_clusters)])[assignment]
    ds = Dataset(X=X, y=y, sigma_true=sigma, groups=groups, meta={
        "generator": "clustered_shift",
        "n": int(n), "dim": int(dim), "seed": int(seed),
        "n_clusters": int(n_clusters), "held_out_clusters": held,
        "mode": mode, "fractions": [float(f) for f in fractions],
        "cluster_std": float(cluster_std), "center_radius": float(center_radius),
        "ood_radius": float(ood_radius), "noise": float(noise),
    })
    if mode == "iid":
        return split_dataset(ds, fractions=fractions, seed=seed)
    split = np.empty(n, dtype=object)
    held_mask = np.isin(assignment, held)
    split[held_mask] = "test"
    rest_idx = np.flatnonzero(~held_mask)
    if rest_idx.size == 0:
        raise ConfigError("held-out clusters swallowed every sample")
    rest_fracs = np.array([fractions[0], fractions[2], fractions[3]], dtype=np.float64)
    rest_fracs = rest_fracs / rest_fracs.sum()
    perm = rest_idx[rng.permutation(rest_idx.size)]
    edges = np.round(np.cumsum(rest_fracs) * rest_idx.size).astype(int)
    edges[-1] = rest_idx.size
    for tag, lo, hi in zip(("train", "val", "cal"), np.r_[0, edges[:-1]], edges):
        split[perm[lo:hi]] = tag
    ds.split = np.asarray(split, dtype=str)
    return ds


def check_heteroscedastic(n: int, dim: int, noise_profile: str, noise_low: float,
                          noise_high: float, noise_level: float) -> None:
    """Reject settings :func:`gen_heteroscedastic` cannot run; each message
    starts with the offending argument's name."""
    for name, value in (("n", n), ("dim", dim)):
        if value < 1:
            raise DimensionError(f"{name} must be >= 1")
    if noise_profile not in NOISE_PROFILES:
        raise ConfigError(f"noise_profile {noise_profile!r} is not one of {NOISE_PROFILES}")
    for name, value in (("noise_low", noise_low), ("noise_high", noise_high),
                        ("noise_level", noise_level)):
        if not 0 <= value < math.inf:
            raise ConfigError(f"{name} must be nonnegative and finite")


def check_clustered(n: int, dim: int, n_clusters: int, held_out_clusters, mode: str,
                    cluster_std: float, center_radius: float, ood_radius: float,
                    noise: float) -> list[int]:
    """Reject settings :func:`gen_clustered_shift` cannot run, and return
    the sorted distinct held-out cluster indices; each message starts with
    the offending argument's name."""
    if dim < 1:
        raise DimensionError("dim must be >= 1")
    if n_clusters < 2:
        raise DimensionError("n_clusters must be >= 2")
    if n < n_clusters:
        raise DimensionError(f"n must be >= n_clusters ({n_clusters}): one sample per cluster")
    if mode not in CLUSTER_MODES:
        raise ConfigError(f"mode {mode!r} is not one of {CLUSTER_MODES}")
    held = sorted(set(int(c) for c in held_out_clusters))
    if any(c < 0 or c >= n_clusters for c in held):
        raise ConfigError(f"held_out_clusters must be valid cluster indices in [0, {n_clusters})")
    if mode == "ood" and not 0 < len(held) < n_clusters:
        raise ConfigError("held_out_clusters must be a nonempty strict subset of the "
                          "clusters in ood mode")
    for name, value in (("cluster_std", cluster_std), ("center_radius", center_radius),
                        ("ood_radius", ood_radius)):
        if not 0 < value < math.inf:
            raise ConfigError(f"{name} must be positive and finite")
    if not 0 <= noise < math.inf:
        raise ConfigError("noise must be nonnegative and finite")
    return held


def check_fractions(fractions) -> Array:
    """The four split fractions as an array; they must be nonnegative and
    sum to 1."""
    fr = np.asarray(fractions, dtype=np.float64)
    if fr.shape != (4,):
        raise ConfigError("fractions must list four values (train, test, val, cal)")
    if not (np.all(fr >= 0) and abs(float(fr.sum()) - 1.0) <= 1e-9):
        raise ConfigError("fractions must be nonnegative and sum to 1")
    return fr


def split_dataset(ds: Dataset, fractions=DEFAULT_FRACTIONS, mode: str = "random",
                  seed: int = 0) -> Dataset:
    """Assign split tags (train, test, val, cal) at the given fractions.

    ``random`` permutes rows; realized sizes are within one row of exact.
    ``by_group`` keeps each group intact, assigning whole groups greedily
    (largest first) to whichever split is furthest below its target.
    """
    fr = check_fractions(fractions)
    n = ds.n
    split = np.empty(n, dtype=object)
    if mode == "random":
        rng = make_rng(seed)
        perm = rng.permutation(n)
        edges = np.round(np.cumsum(fr) * n).astype(int)
        edges[-1] = n
        for tag, lo, hi in zip(SPLIT_TAGS, np.r_[0, edges[:-1]], edges):
            split[perm[lo:hi]] = tag
    elif mode == "by_group":
        if ds.groups is None:
            raise ConfigError("by_group split requires group labels")
        names, inverse, counts = np.unique(ds.groups, return_inverse=True,
                                           return_counts=True)
        order = np.lexsort((names, -counts))
        targets = fr * n
        assigned = np.zeros(4)
        choice = np.empty(len(names), dtype=object)
        for i in order:
            deficits = targets - assigned
            pick = int(np.argmax(deficits))
            if counts[i] > targets[pick]:
                warnings.warn(f"group {str(names[i])!r} ({counts[i]} rows) exceeds "
                              f"the {SPLIT_TAGS[pick]} target of {targets[pick]:.1f}",
                              stacklevel=2)
            choice[i] = SPLIT_TAGS[pick]
            assigned[pick] += counts[i]
        split = choice[inverse]
    else:
        raise ConfigError(f"unknown split mode {mode!r}")
    out = ds.select(np.arange(n))
    out.split = np.asarray(split, dtype=str)
    out.meta = dict(ds.meta)
    out.meta["split"] = {"fractions": [float(f) for f in fr], "mode": mode,
                         "seed": int(seed)}
    return out


def _sha256(f) -> str:
    """Hex sha256 of an open binary file, read in 1 MiB chunks."""
    h = hashlib.sha256()
    for chunk in iter(lambda: f.read(1 << 20), b""):
        h.update(chunk)
    return h.hexdigest()


def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.name + ".meta.json")


def _cache(key: tuple[str, str], ds: Dataset) -> None:
    """Make ``ds`` the CSV cache entry, freezing its arrays."""
    global _csv_cache
    for a in (ds.X, ds.y, ds.sigma_true, ds.groups, ds.split):
        if a is not None:
            a.flags.writeable = False
    _csv_cache = (key, ds)


def save_csv(ds: Dataset, path) -> None:
    """Write the dataset and, when metadata exists, a JSON sidecar.

    Floats are shortest-repr, so a load reproduces the exact values. Rows
    are formatted column by column, ``CSV_BLOCK_ROWS`` at a time, and both
    files are replaced atomically. The sidecar records the sha256 of the
    rows as ``data_sha256``; without metadata any older sidecar is removed.
    The saved dataset, as a load would return it, becomes the CSV cache
    entry (see :func:`load_csv`).
    """
    global _csv_cache
    path = Path(path)
    header = [f"feature_{j}" for j in range(ds.dim)] + ["target"]
    floats = [ds.X[:, j] for j in range(ds.dim)] + [ds.y]
    labels = []
    if ds.sigma_true is not None:
        header.append("sigma_true")
        floats.append(ds.sigma_true)
    if ds.groups is not None:
        header.append("group")
        labels.append(ds.groups)
    if ds.split is not None:
        header.append("split")
        labels.append(ds.split)
    # X's columns have ds.n rows by definition; a field replaced after
    # construction may not, and zip would silently cut every row past it
    for name, col in zip(header[ds.dim:], floats[ds.dim:] + labels):
        if np.shape(col) != (ds.n,):
            raise CsvFormatError(f"{path.name}: column {name!r} has shape {np.shape(col)}, "
                                 f"not ({ds.n},) like the feature columns")
    _csv_cache = None  # holding it while this dataset is written and copied raises peak RSS
    with serialize.atomic_write(path) as f:
        f.write(",".join(header) + "\n")
        for lo in range(0, ds.n, CSV_BLOCK_ROWS):
            block = slice(lo, lo + CSV_BLOCK_ROWS)
            cols = [map(repr, c[block].tolist()) for c in floats]
            cols += [c[block].tolist() for c in labels]
            text = "\n".join(map(",".join, zip(*cols))) + "\n"
            rows = min(CSV_BLOCK_ROWS, ds.n - lo)
            if labels and (text.count(",") != (len(header) - 1) * rows
                           or text.count("\n") != rows or "\r" in text):
                raise CsvFormatError(f"{path.name}: group and split labels must not "
                                     "contain commas or line breaks")
            f.write(text)
    with open(path, "rb") as f:
        data_sha256 = _sha256(f)
    sidecar = _sidecar_path(path)
    meta, side_key = {}, _NO_SIDECAR
    if ds.meta:
        record = {**ds.meta, "data_sha256": data_sha256}
        serialize.dump(record, sidecar)
        side_key = hashlib.sha256(sidecar.read_bytes()).hexdigest()
        meta = json.loads(serialize.dumps(record))
        del meta["data_sha256"]
    else:
        sidecar.unlink(missing_ok=True)
    try:
        saved = Dataset(
            X=np.array(ds.X, order="C"), y=np.array(ds.y),
            sigma_true=None if ds.sigma_true is None else np.array(ds.sigma_true),
            # the loader's label dtype: just wide enough for the longest label
            groups=None if ds.groups is None else np.asarray(ds.groups.tolist()),
            split=None if ds.split is None else np.asarray(ds.split.tolist()),
            meta=meta)
    except DimensionError:
        return  # a field set after construction is invalid; a load will say which
    _cache((data_sha256, side_key), saved)


def _raise_first_bad_row(name: str, lines: list[str], lineno: int, width: int,
                         float_cols: list[int]) -> None:
    """Re-check a block that failed in bulk row by row, naming the first bad line.

    ``lines`` are the block's physical lines as read, blank ones included,
    and ``lineno`` is the 1-based line number of ``lines[0]``.
    """
    for i, line in enumerate(lines, lineno):
        if line == "\n":
            continue
        cells = line.rstrip("\n").split(",")
        if len(cells) != width:
            raise CsvFormatError(f"{name}: line {i}: expected "
                                 f"{width} cells, got {len(cells)}")
        try:
            for c in float_cols:
                float(cells[c])
        except ValueError as e:
            raise CsvFormatError(f"{name}: line {i}: {e}") from e


def load_csv(path) -> Dataset:
    """Inverse of :func:`save_csv`; malformed rows name their line number.

    The file is read ``CSV_BLOCK_ROWS`` lines at a time. Blank lines are
    skipped, and error messages give physical line numbers. A sidecar whose
    ``data_sha256`` does not match the rows is refused.

    The last dataset loaded or saved is cached, keyed on the sha256 of the
    CSV and sidecar bytes, so reading a file back parses it only when its
    contents changed. The returned arrays are read-only and shared with the
    cache; ``meta`` is the caller's own copy.
    """
    path = Path(path)
    sidecar = _sidecar_path(path)
    try:
        side_bytes = sidecar.read_bytes()
    except FileNotFoundError:
        side_bytes = None
    # one open file for hash and parse, so both see the same contents
    with open(path, "rb") as raw:
        data_sha256 = _sha256(raw)
        key = (data_sha256, _NO_SIDECAR if side_bytes is None
               else hashlib.sha256(side_bytes).hexdigest())
        if _csv_cache is None or _csv_cache[0] != key:
            raw.seek(0)
            with io.TextIOWrapper(raw) as f:
                ds = _parse_csv(f, path.name)
            if side_bytes is not None:
                ds.meta = json.loads(side_bytes)
                if not isinstance(ds.meta, dict):
                    raise CsvFormatError(f"{sidecar.name}: must hold a JSON object")
                recorded = ds.meta.pop("data_sha256", data_sha256)
                if recorded != data_sha256:
                    raise CsvFormatError(
                        f"{sidecar.name} records data_sha256 {recorded}, but {path.name} "
                        f"hashes to {data_sha256}: the two files were not written "
                        "together; save the dataset again or remove the sidecar")
            _cache(key, ds)
    out = copy.copy(_csv_cache[1])
    out.meta = copy.deepcopy(out.meta)
    return out


def _parse_csv(f, name: str) -> Dataset:
    """Parse an open data.csv text file, named ``name`` in errors; no metadata."""
    lineno = 0
    for line in f:
        lineno += 1
        if line != "\n":
            break
    else:
        raise CsvFormatError(f"{name}: empty file")
    header = line.rstrip("\n").split(",")
    feat_cols = [h for h in header if h.startswith("feature_")]
    dim = len(feat_cols)
    if dim == 0 or feat_cols != [f"feature_{j}" for j in range(dim)]:
        raise CsvFormatError(f"{name}: header must start with feature_0..feature_{{d-1}}")
    if "target" not in header:
        raise CsvFormatError(f"{name}: missing target column")
    col = {h: i for i, h in enumerate(header)}
    known = set(feat_cols) | {"target", "sigma_true", "group", "split"}
    unknown = [h for h in header if h not in known]
    if unknown:
        raise CsvFormatError(f"{name}: unknown columns {unknown}")
    width = len(header)
    float_names = feat_cols + [h for h in ("target", "sigma_true") if h in col]
    label_names = [h for h in ("group", "split") if h in col]
    float_cols = [col[h] for h in float_names]
    blocks = {h: [] for h in float_names + label_names}
    for block in iter(lambda: list(islice(f, CSV_BLOCK_ROWS)), []):
        data = [ln for ln in block if ln != "\n"] if "\n" in block else block
        if data:
            try:
                if set(map(methodcaller("count", ","), data)) != {width - 1}:
                    raise ValueError("ragged block")
                cells = "".join(data).replace("\n", ",").split(",")
                del cells[width * len(data):]  # the empty cell after the last newline
                for h in float_names:
                    blocks[h].append(np.fromiter(map(float, cells[col[h]::width]),
                                                 np.float64, len(data)))
            except ValueError:
                _raise_first_bad_row(name, block, lineno + 1, width, float_cols)
                raise
            for h in label_names:
                blocks[h].append(np.asarray(cells[col[h]::width]))
        lineno += len(block)
    if not blocks["target"]:
        raise CsvFormatError(f"{name}: no data rows")
    cols = {h: np.concatenate(parts) for h, parts in blocks.items()}
    try:
        # column_stack gives a C-ordered X, as the per-row loader did
        return Dataset(X=np.column_stack([cols[h] for h in feat_cols]),
                       y=cols["target"], sigma_true=cols.get("sigma_true"),
                       groups=cols.get("group"), split=cols.get("split"))
    except DimensionError as e:
        raise CsvFormatError(f"{name}: {e}") from e
