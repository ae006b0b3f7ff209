"""Output checks applied to the run dir after every op.

A failed check fails the op (it counts toward ``failed``) but never aborts
the run. The benchmark reads the artifacts as plain JSON and keeps its own
list of methods and scale kinds: it does not trust tessera's loaders or
constants to do the checking.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

METHODS = ("tessera_e", "tessera_a", "classical_cp", "moe_e", "moe_a", "mc_dropout")
CONFORMAL_METHODS = ("tessera_e", "tessera_a", "classical_cp")
SCALE_KINDS = ("epistemic", "aleatoric", "constant")
PICP_BAND_Z = 5.0


def picp_band(alpha: float, n_test: int, n_cal: int) -> float:
    """Allowed |PICP - (1 - alpha)| for split-conformal intervals.

    Test coverage given the cal set is Beta-distributed around 1 - alpha
    with variance ~alpha(1-alpha)/n_cal, plus binomial test sampling,
    alpha(1-alpha)/n_test; 1/(n_cal+1) covers the finite-sample
    over-coverage of the ceil-quantile. Five standard deviations keep false
    alarms negligible over every op the benchmark runs.
    """
    sd = math.sqrt(alpha * (1.0 - alpha) * (1.0 / n_test + 1.0 / n_cal))
    return PICP_BAND_Z * sd + 1.0 / (n_cal + 1)


def check_run_dir(out: Path, alpha: float) -> tuple[list[str], dict]:
    """Problems found in a finished run dir, and the quality figures read off it."""
    problems = []
    manifest = json.loads((out / "manifest.json").read_text())
    bad_stages = {k: v for k, v in manifest["stages"].items() if v != "ok"}
    if manifest.get("status") != "ok" or bad_stages:
        problems.append(f"manifest status {manifest.get('status')!r}, stages {bad_stages}")
    reports = {}
    for method in METHODS:
        path = out / f"metrics_{method}.json"
        try:
            reports[method] = json.loads(path.read_text())
        except (OSError, ValueError) as e:
            problems.append(f"{path.name}: {e}")
    n_cal = None
    for kind in SCALE_KINDS:
        calib = json.loads((out / f"calibration_{kind}.json").read_text())
        if not math.isfinite(float(calib["q_hat"])):
            problems.append(f"calibration_{kind}.json: q_hat {calib['q_hat']!r} is not finite")
        n_cal = int(calib["n_cal"])
    gaps = []
    for method in CONFORMAL_METHODS:
        if method not in reports:
            continue
        rep = reports[method]
        gap = abs(float(rep["picp"]) - (1.0 - alpha))
        band = picp_band(alpha, int(rep["n_test"]), n_cal)
        if not gap <= band:
            problems.append(f"{method}: |PICP - (1 - alpha)| = {gap:.4f} exceeds {band:.4f}")
        gaps.append(gap)
    quality = {}
    if "tessera_a" in reports:
        quality["mpiw_tessera_a"] = float(reports["tessera_a"]["mpiw"])
        quality["nmpiw_tessera_a"] = float(reports["tessera_a"]["nmpiw"])
        quality["moe_test_nll"] = float(reports["tessera_a"]["nll"])
    if gaps:
        quality["coverage_gap"] = max(gaps)
    return problems, quality


def tree_sha256(root: Path) -> str:
    """sha256 over every file under ``root``: relative path, then bytes."""
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode() + b"\0")
            h.update(p.read_bytes())
            h.update(b"\0")
    return h.hexdigest()
