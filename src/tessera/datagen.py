"""Synthetic regression data with controlled noise structure, dataset
splitting, and a lossless CSV round trip, with the specs (``DataSpec``,
``SplitSpec``) that the generators and the splitter take.

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
import os
import pickle
import shutil
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
NOISE_PROFILES = ("constant", "linear", "step")
SPLIT_MODES = ("random", "by_group")
# Rows per block in the CSV codec. Each block's cells are held as Python
# strings; at 4096 rows they raised the default config's peak RSS by ~2 MB,
# while at 512 the per-block overhead is lost in the codec's timing noise.
CSV_BLOCK_ROWS = 512
# Rows from which save_csv formats the second half of data.csv in a forked
# child. On a 2-core host (median of 21 alternating saves of clustered_shift
# data) 2048 rows took 16-19 ms either way, while forking took 3072 rows from
# 26-27 to 19-22 ms and 4096 rows from 29-34 to 24-27 ms.
CSV_FORK_ROWS = 4096
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


@dataclass
class DataSpec:
    """What data to evaluate on: a generator and its knobs, or a CSV path.

    Only the rules of the named ``kind`` run: a heteroscedastic spec leaves
    the cluster fields unchecked. Each message starts with the offending
    field's name; a shape rule raises ``DimensionError``.
    """

    kind: str = "heteroscedastic"
    n: int = 5000
    dim: int = 4
    noise_profile: str = "step"
    noise_low: float = 0.2
    noise_high: float = 1.0
    noise_level: float = 0.5
    n_clusters: int = 8
    held_out_clusters: tuple[int, ...] = (6, 7)
    mode: str = "ood"
    cluster_std: float = 0.5
    center_radius: float = 2.0
    ood_radius: float = 6.0
    noise: float = 0.3
    path: str | None = None

    def __post_init__(self):
        if self.kind not in ("heteroscedastic", "clustered_shift", "csv"):
            raise ConfigError(f"kind {self.kind!r} is not a known data kind")
        if self.mode not in ("ood", "iid"):
            raise ConfigError(f"mode {self.mode!r} is not 'ood' or 'iid'")
        self.held_out_clusters = tuple(int(c) for c in self.held_out_clusters)
        if self.kind == "heteroscedastic":
            for name in ("n", "dim"):
                if getattr(self, name) < 1:
                    raise DimensionError(f"{name} must be >= 1")
            if self.noise_profile not in NOISE_PROFILES:
                raise ConfigError(f"noise_profile {self.noise_profile!r} is not one of "
                                  f"{NOISE_PROFILES}")
            for name in ("noise_low", "noise_high", "noise_level"):
                if not 0 <= getattr(self, name) < math.inf:
                    raise ConfigError(f"{name} must be nonnegative and finite")
        elif self.kind == "clustered_shift":
            if self.dim < 1:
                raise DimensionError("dim must be >= 1")
            if self.n_clusters < 2:
                raise DimensionError("n_clusters must be >= 2")
            if self.n < self.n_clusters:
                raise DimensionError(f"n must be >= n_clusters ({self.n_clusters}): "
                                     "one sample per cluster")
            if any(c < 0 or c >= self.n_clusters for c in self.held_out_clusters):
                raise ConfigError("held_out_clusters must be valid cluster indices in "
                                  f"[0, {self.n_clusters})")
            for name in ("cluster_std", "center_radius", "ood_radius"):
                if not 0 < getattr(self, name) < math.inf:
                    raise ConfigError(f"{name} must be positive and finite")
            if not 0 <= self.noise < math.inf:
                raise ConfigError("noise must be nonnegative and finite")
            if self.mode == "ood" and not 0 < len(set(self.held_out_clusters)) < self.n_clusters:
                raise ConfigError("held_out_clusters must be a nonempty strict subset of "
                                  "the clusters in ood mode")
        elif not self.path:
            raise ConfigError("path is required when kind is 'csv'")


@dataclass
class SplitSpec:
    """Train/test/val/cal fractions, which must be nonnegative and sum to 1,
    and how rows are dealt to them: ``random`` or ``by_group``."""

    fractions: tuple[float, ...] = (0.6, 0.2, 0.1, 0.1)
    mode: str = "random"

    def __post_init__(self):
        fr = np.asarray(self.fractions, dtype=np.float64)
        if fr.shape != (4,):
            raise ConfigError("fractions must list four values (train, test, val, cal)")
        if not (np.all(fr >= 0) and abs(float(fr.sum()) - 1.0) <= 1e-9):
            raise ConfigError("fractions must be nonnegative and sum to 1")
        self.fractions = tuple(float(f) for f in fr)
        empty = [tag for tag, f in zip(SPLIT_TAGS, self.fractions) if f == 0.0 and tag != "test"]
        if empty:  # not test, which ood data takes from its held-out clusters
            raise ConfigError(f"fractions give {' and '.join(empty)} a zero share; "
                              "train, val and cal each feed a later stage")
        if self.mode not in SPLIT_MODES:
            raise ConfigError(f"mode {self.mode!r} is not one of {SPLIT_MODES}")


def _smooth_f(X: Array) -> Array:
    # fixed sum of sinusoids plus a mild affine trend; amplitude O(1) in d
    d = X.shape[1]
    freqs = 1.0 + 0.5 * np.arange(d)
    return (2.0 / np.sqrt(d)) * np.sin(X * freqs).sum(axis=1) \
        + 0.3 * X.sum(axis=1) / np.sqrt(d)


def _check_kind(spec: DataSpec, kind: str) -> None:
    """A spec of another kind never had this kind's rules applied."""
    if spec.kind != kind:
        raise ConfigError(f"kind {spec.kind!r} is not {kind!r}: the spec's {kind} "
                          "fields were never checked")


def _noise_scale(X: Array, spec: DataSpec) -> Array:
    n, d = X.shape
    if spec.noise_profile == "constant":
        return np.full(n, float(spec.noise_level))
    if spec.noise_profile == "linear":
        # scales linearly in |x| from noise_low at the origin to noise_high
        # at the corner of the sampling box
        r = np.linalg.norm(X, axis=1) / (2.0 * np.sqrt(d))
        return spec.noise_low + (spec.noise_high - spec.noise_low) * r
    return np.where(X[:, 0] > 0.0, float(spec.noise_high), float(spec.noise_low))  # step


def gen_heteroscedastic(spec: DataSpec, seed: int) -> Dataset:
    """Smooth signal plus input-dependent Gaussian noise.

    Features are uniform on [-2, 2]^dim. The noise scale follows the named
    profile: ``constant`` everywhere, ``linear`` in the distance from the
    origin, or a two-level ``step`` on the sign of the first feature.
    """
    _check_kind(spec, "heteroscedastic")
    rng = make_rng(seed)
    X = rng.uniform(-2.0, 2.0, size=(spec.n, spec.dim))
    sigma = _noise_scale(X, spec)
    y = _smooth_f(X) + sigma * rng.standard_normal(spec.n)
    meta = {
        "generator": "heteroscedastic",
        "n": int(spec.n), "dim": int(spec.dim), "seed": int(seed),
        "noise_profile": spec.noise_profile,
        "noise_low": float(spec.noise_low), "noise_high": float(spec.noise_high),
        "noise_level": float(spec.noise_level),
    }
    return Dataset(X=X, y=y, sigma_true=sigma, meta=meta)


def gen_clustered_shift(spec: DataSpec, seed: int) -> Dataset:
    """Gaussian clusters, some of them shifted far from the rest; unsplit.

    Held-out cluster centers sit at ``ood_radius`` from the origin while
    the rest stay near ``center_radius``, so the shift is controllably far.
    ``meta["held_out_groups"]`` lists the held-out clusters' group labels;
    passing it to :func:`split_dataset` as ``test_groups`` puts exactly
    those clusters in the test split, so calibration sees no shifted data.
    """
    _check_kind(spec, "clustered_shift")
    n, dim, n_clusters = spec.n, spec.dim, spec.n_clusters
    held = sorted(set(spec.held_out_clusters))
    rng = make_rng(seed)
    centers = rng.normal(0.0, spec.center_radius, size=(n_clusters, dim))
    for c in held:
        direction = rng.standard_normal(dim)
        norm = np.linalg.norm(direction)
        if norm == 0.0:
            direction = np.ones(dim)
            norm = np.sqrt(dim)
        centers[c] = direction / norm * spec.ood_radius
    base, rem = divmod(n, n_clusters)
    counts = np.full(n_clusters, base)
    counts[:rem] += 1
    assignment = np.repeat(np.arange(n_clusters), counts)
    rng.shuffle(assignment)
    X = centers[assignment] + spec.cluster_std * rng.standard_normal((n, dim))
    sigma = np.full(n, float(spec.noise))
    y = _smooth_f(X) + sigma * rng.standard_normal(n)
    labels = np.array([f"cluster_{c:02d}" for c in range(n_clusters)])
    return Dataset(X=X, y=y, sigma_true=sigma, groups=labels[assignment], meta={
        "generator": "clustered_shift",
        "n": int(n), "dim": int(dim), "seed": int(seed),
        "n_clusters": int(n_clusters), "held_out_clusters": held,
        "held_out_groups": labels[held].tolist(),
        "cluster_std": float(spec.cluster_std), "center_radius": float(spec.center_radius),
        "ood_radius": float(spec.ood_radius), "noise": float(spec.noise),
    })


def split_dataset(ds: Dataset, spec: SplitSpec, seed: int, test_groups=None) -> Dataset:
    """Assign split tags (train, test, val, cal) at the spec's fractions.

    Rows whose group label is in ``test_groups`` all go to test. The other
    rows are split by ``spec.mode`` at the fractions, with test's share set
    to zero and the rest renormalized when ``test_groups`` is given.
    ``random`` permutes the rows; realized sizes are within one row of
    exact. ``by_group`` keeps each group intact, assigning whole groups
    greedily (largest first) to whichever split is furthest below its
    target. While rows remain, the deficits sum to their count, so the
    furthest is never a split with a zero share. ``meta["split"]`` records
    the spec, the seed, and the realized row count of each tag.
    """
    if (test_groups is not None or spec.mode == "by_group") and ds.groups is None:
        raise ConfigError("test_groups and the by_group split require group labels")
    shares = np.array(spec.fractions)
    held = np.zeros(ds.n, dtype=bool)
    if test_groups is not None:
        test_groups = sorted(set(map(str, test_groups)))
        held = np.isin(ds.groups, test_groups)
        shares[SPLIT_TAGS.index("test")] = 0.0
        shares = shares / shares.sum()
    rest = np.flatnonzero(~held)
    split = np.empty(ds.n, dtype=object)
    split[held] = "test"
    if spec.mode == "random":
        perm = rest[make_rng(seed).permutation(rest.size)]
        edges = np.round(np.cumsum(shares) * rest.size).astype(int)
        edges[-1] = rest.size
        for tag, lo, hi in zip(SPLIT_TAGS, np.r_[0, edges[:-1]], edges):
            split[perm[lo:hi]] = tag
    else:  # by_group
        names, inverse, counts = np.unique(ds.groups[rest], return_inverse=True,
                                           return_counts=True)
        order = np.lexsort((names, -counts))
        targets = shares * rest.size
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
        split[rest] = choice[inverse]
    out = ds.select(np.arange(ds.n))
    out.split = np.asarray(split, dtype=str)
    out.meta = dict(ds.meta)
    out.meta["split"] = {"fractions": list(spec.fractions), "mode": spec.mode,
                         "seed": int(seed),
                         "counts": {tag: int(np.count_nonzero(out.split == tag))
                                    for tag in SPLIT_TAGS}}
    if test_groups is not None:
        out.meta["split"]["test_groups"] = test_groups
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


def _check_split_counts(name: str, meta: dict, split: np.ndarray | None) -> None:
    """Refuse a ``split.counts`` in ``meta`` that disagrees with the split column;
    metadata of any other shape is not the splitter's record and passes."""
    counts = meta["split"].get("counts") if isinstance(meta.get("split"), dict) else None
    for tag, recorded in (counts.items() if isinstance(counts, dict) else ()):
        found = 0 if split is None else int(np.count_nonzero(split == tag))
        if recorded != found:
            raise CsvFormatError(f"{name}: split.counts records {recorded} {tag!r} rows, "
                                 f"but the split column holds {found}")


def _write_rows_forked(f, path: Path, n: int, write_rows) -> None:
    """Write rows [0, n) with ``write_rows`` onto ``f``, a file of
    :func:`serialize.atomic_write`: the first half here, the second half in a
    forked child, whose file is then appended to ``f``, and so hashed as it
    is copied.

    The halves meet on a ``CSV_BLOCK_ROWS`` boundary, so every block holds
    the rows it would hold written in one pass. The child runs only
    ``write_rows`` and file I/O into a hidden temp file beside ``path``, and
    leaves by ``os._exit``; an exception it raises is pickled back and raised
    here. The child is reaped, and its file removed, before this returns or
    raises; if this process dies first, the child removes its file itself.
    """
    mid = (n + CSV_BLOCK_ROWS) // (2 * CSV_BLOCK_ROWS) * CSV_BLOCK_ROWS
    tail = serialize.temp_path(path)
    parent = os.getpid()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(r)
            with open(tail, "x") as t:
                for lo in range(mid, n, CSV_BLOCK_ROWS):
                    if os.getppid() != parent:
                        raise ChildProcessError("the process saving the CSV has died")
                    write_rows(t, lo, min(lo + CSV_BLOCK_ROWS, n))
            code = 0
        except BaseException as e:
            tail.unlink(missing_ok=True)
            with open(w, "wb") as pipe:
                pickle.dump(e, pipe)
        finally:
            os._exit(code)
    reaped = False
    try:
        os.close(w)
        with open(r, "rb") as pipe:
            write_rows(f, 0, mid)
            error = pipe.read()
        _, status = os.waitpid(pid, 0)
        reaped = True
        if error:
            raise pickle.loads(error)
        if status:
            raise ChildProcessError(f"{path.name}: the process writing rows {mid} to {n} "
                                    f"exited with code {os.waitstatus_to_exitcode(status)}")
        f.flush()
        with open(tail, "rb") as t:
            shutil.copyfileobj(t, f.buffer)
    except BaseException:
        if not reaped:
            import signal  # here, so that importing tessera does not load it
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise
    finally:
        tail.unlink(missing_ok=True)


def save_csv(ds: Dataset, path) -> None:
    """Write the dataset and, when metadata exists, a JSON sidecar.

    Floats are shortest-repr, so a load reproduces the exact values. Rows
    are formatted column by column, ``CSV_BLOCK_ROWS`` at a time, and both
    files are replaced atomically. From ``CSV_FORK_ROWS`` rows, where
    ``os.fork`` exists, a forked child formats the second half of the rows
    (see :func:`_write_rows_forked`); the bytes are the same either way.
    The sidecar records the sha256 of the rows as ``data_sha256``; without
    metadata any older sidecar is removed. The saved dataset, as a load
    would return it, becomes the CSV cache entry (see :func:`load_csv`).
    Metadata whose ``split.counts`` disagree with the split column is
    refused before anything is written.
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
    _check_split_counts(_sidecar_path(path).name, ds.meta, ds.split)
    _csv_cache = None  # holding it while this dataset is written and copied raises peak RSS

    def as_loaded(labels):
        """A copy in the loader's label dtype: just wide enough for the
        longest label, and at least one character wide. A <U array pads
        each label with NULs, so the width is the last character column
        that any label uses. (``numpy.strings.str_len`` finds it too, but
        importing numpy.strings raised the benchmark's default_run peak RSS
        by ~1.2 MB.)"""
        if labels is None:
            return None
        labels = np.asarray(labels, dtype=str)
        used = labels.view(np.uint32).reshape(labels.size, -1).any(axis=0)
        return labels.astype(f"<U{max(len(np.trim_zeros(used, 'b')), 1)}")

    # the cache entry is built before the write, so that a dataset of the
    # dropped entry's shape takes its memory back, instead of landing above
    # the holes the write leaves in the heap (a 50 000-row save read peak
    # RSS ~5 MB higher that way)
    try:
        saved = Dataset(
            X=np.array(ds.X, order="C"), y=np.array(ds.y),
            sigma_true=None if ds.sigma_true is None else np.array(ds.sigma_true),
            groups=as_loaded(ds.groups), split=as_loaded(ds.split))
    except DimensionError:
        saved = None  # a field set after construction is invalid; a load will say which

    def write_rows(f, lo: int, hi: int) -> None:
        """Format rows [lo, hi) onto ``f``, ``CSV_BLOCK_ROWS`` from ``lo`` at a time."""
        for start in range(lo, hi, CSV_BLOCK_ROWS):
            block = slice(start, min(start + CSV_BLOCK_ROWS, hi))
            cols = [map(repr, c[block].tolist()) for c in floats]
            cols += [c[block].tolist() for c in labels]
            text = "\n".join(map(",".join, zip(*cols))) + "\n"
            rows = block.stop - start
            if labels and (text.count(",") != (len(header) - 1) * rows
                           or text.count("\n") != rows or "\r" in text):
                raise CsvFormatError(f"{path.name}: group and split labels must not "
                                     "contain commas or line breaks")
            f.write(text)

    with serialize.atomic_write(path) as f:
        f.write(",".join(header) + "\n")
        if ds.n >= CSV_FORK_ROWS and hasattr(os, "fork"):
            _write_rows_forked(f, path, ds.n, write_rows)
        else:
            write_rows(f, 0, ds.n)
    data_sha256 = f.sha256.hexdigest()
    sidecar = _sidecar_path(path)
    meta, side_key = {}, _NO_SIDECAR
    if ds.meta:
        record = {**ds.meta, "data_sha256": data_sha256}
        side_key = serialize.dump(record, sidecar)
        meta = json.loads(serialize.dumps(record))
        del meta["data_sha256"]
    else:
        sidecar.unlink(missing_ok=True)

    if saved is not None:
        saved.meta = meta
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
    ``data_sha256`` does not match the rows, or whose ``split.counts`` do not
    match the split column, is refused.

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
                _check_split_counts(sidecar.name, ds.meta, ds.split)
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
