"""Deterministic JSON and CSV helpers shared by checkpoints and reports.

JSON output is canonical: sorted keys, two-space indent, trailing newline,
and non-finite floats encoded as the strings "inf", "-inf", "nan" so the
files stay strictly valid JSON. The same bytes come out for the same data.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import re
from contextlib import contextmanager
from enum import Enum
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import CheckpointError

CHECKPOINT_VERSION = 1

def to_jsonable(obj):
    """Recursively convert to plain JSON types with non-finite sentinels."""
    if isinstance(obj, Enum):
        return to_jsonable(obj.value)
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    return obj


def from_jsonable_float(value) -> float:
    """Inverse of the float encoding above."""
    if isinstance(value, str):
        if value == "inf":
            return math.inf
        if value == "-inf":
            return -math.inf
        if value == "nan":
            return math.nan
        raise ValueError(f"not a float sentinel: {value!r}")
    return float(value)


def dumps(obj) -> str:
    return json.dumps(to_jsonable(obj), sort_keys=True, indent=2) + "\n"


# Every temp file is hidden and named ".<final name>.<8 hex digits>.tmp".
_TEMP_NAME = re.compile(r"\..+\.[0-9a-f]{8}\.tmp")


def temp_path(path: Path) -> Path:
    """A fresh hidden temp file name beside ``path``; see :func:`is_temp_name`."""
    return path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")


def is_temp_name(name: str) -> bool:
    """Whether ``name`` is one that :func:`temp_path` makes."""
    return _TEMP_NAME.fullmatch(name) is not None


class _HashedFile(io.FileIO):
    """A new file that feeds every byte written to it to ``sha256``."""

    def __init__(self, path):
        super().__init__(path, "x")
        self.sha256 = hashlib.sha256()

    def write(self, data) -> int:
        written = super().write(data)
        self.sha256.update(memoryview(data)[:written])
        return written


@contextmanager
def atomic_write(path):
    """Open a text file that replaces ``path`` only once the block exits
    cleanly; the file's ``sha256`` then holds the digest of its bytes.

    Writes go to a hidden temp file in the same directory, which
    ``os.replace`` then renames over ``path``; if the block raises, the temp
    file is removed and ``path`` keeps its previous contents. A killed
    process can leave a stray temp file, but never a truncated ``path``.
    The hash is taken below the text and buffer layers, so it covers the
    encoded bytes that reach the file, those written to ``f.buffer``
    included, and the file is never read back for it.
    """
    tmp = temp_path(Path(path))
    try:
        raw = _HashedFile(tmp)
        with io.TextIOWrapper(io.BufferedWriter(raw)) as f:
            f.sha256 = raw.sha256
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def dump(obj, path) -> str:
    """Write ``obj`` as canonical JSON; returns the file's sha256 hex digest."""
    with atomic_write(path) as f:
        f.write(dumps(obj))
    return f.sha256.hexdigest()


def load(path):
    return json.loads(Path(path).read_text())


def save_checkpoint(path, kind: str, body: dict) -> None:
    """Write a versioned artifact (a model checkpoint or a calibration):
    ``body`` tagged with its kind and format version."""
    dump({"format_version": CHECKPOINT_VERSION, "kind": kind, **body}, path)


def load_checkpoint(path, kind: str) -> dict:
    """Read a file written by :func:`save_checkpoint`, refusing any other
    format version or kind."""
    d = load(path)
    if d.get("format_version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {d.get('format_version')!r}")
    if d.get("kind") != kind:
        raise CheckpointError(f"{path}: checkpoint kind {d.get('kind')!r} is not {kind!r}")
    return d


def write_csv(path, header: Iterable[str], rows: Iterable[Iterable]) -> None:
    """Plain comma-separated output; floats via repr, the shortest decimal that
    round-trips through float(), everything else str."""
    with atomic_write(path) as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(repr(float(v)) if isinstance(v, (float, np.floating))
                             else str(v) for v in row) + "\n")
