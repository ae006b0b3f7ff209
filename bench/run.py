"""tessera benchmark: time the pipeline end to end and layer by layer.

    python3 bench/run.py [--workload all|default_run|large_iid]
                         [--seed N] [--seconds S] [--trace 0|1]

Run from a checkout that holds ``src/tessera``. Each workload runs in its
own child process (bench/worker.py) with BLAS pinned to one thread. Gated
timings are ratios to a fixed reference kernel (bench/reference.py) timed
around every op, because the host's own speed swings. Run dirs go to a
scratch dir under ``.bench_work/`` that is removed on exit.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics; both lists and their units come from BENCHMARK.json. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
See bench/METRICS.md for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from worker import STAGES  # worker.py imports tessera only inside its functions

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().with_name("worker.py")
WORKLOADS = ("default_run", "large_iid")
SETUP_REPEATS = 5
TAIL_BEYOND = 10        # the tail percentile keeps this many samples above it
DEADLINE_S = 170.0      # whole invocation, per workload
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({k: BLAS_THREADS for k in THREAD_VARS})
    return env


def _worker(args: list[str], deadline: float) -> float:
    """Run one worker to completion; returns its wall time."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted before " + " ".join(args[:3]))
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], env=_child_env(),
                              cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as e:  # run() has killed and reaped the child
        raise BenchError(f"worker {' '.join(args[:3])} timed out") from e
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args[:3])} failed:\n{proc.stderr.strip()}")
    return wall


def median(values):
    return statistics.median(values) if values else 0.0


def mean(values):
    return statistics.fmean(values) if values else 0.0


def tail(values) -> tuple[float, str]:
    """The highest order statistic with TAIL_BEYOND samples above it, or the
    maximum when that statistic would not lie above the median; with a label
    naming which."""
    s = sorted(values)
    n = len(s)
    if n > 2 * TAIL_BEYOND:
        idx = n - TAIL_BEYOND - 1
        return s[idx], f"rank {idx + 1} of {n} (p{100.0 * (idx + 1) / n:.0f})"
    return s[-1], f"max of {n} (fewer than {2 * TAIL_BEYOND + 1} samples)"


def run_workload(name: str, seed: int, seconds: int, trace: int, work: Path,
                 deadline: float) -> dict:
    setup_walls = [_worker(["setup"], deadline) for _ in range(SETUP_REPEATS)]
    out = work / "run.json"
    _worker(["run", "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace), "--work", str(work), "--out", str(out)], deadline)
    result = json.loads(out.read_text())
    result["setup_walls"] = setup_walls
    return result


def end_to_end(r: dict) -> tuple[dict, dict]:
    """Gated timings are medians over ops (over stage calls, for a stage) of
    the time divided by the reference kernel's time around the op (see
    bench/reference.py); the raw seconds go to the details."""
    ops = [op for op in r["ops"] if not op["traced"] and "wall_s" in op]
    op_walls = [op["wall_s"] for op in ops]
    tail_value, tail_label = tail(op_walls)
    # a key's quality figures repeat exactly (the sha256 check holds them to it), so
    # average one value per key: ops per key differ when a run ends mid-pass
    quality = list({op["key"]: op["quality"] for op in ops if op.get("quality")}.values())
    m = {"setup_s": median(r["setup_walls"]),
         "op_p50_ref": median([op["wall_s"] / op["reference_s"] for op in ops]),
         "peak_rss_mb": r["peak_rss_mb"],
         "mpiw_tessera_a": mean([q["mpiw_tessera_a"] for q in quality]),
         "moe_test_nll": mean([q["moe_test_nll"] for q in quality])}
    raw = {"op_p50_s": median(op_walls)}
    for stage in STAGES:  # calibrate and evaluate include the re-reads
        m[f"{stage}_ref"] = median([t / op["reference_s"] for op in ops
                                    for t in op["stages"][stage]])
        raw[f"{stage}_s"] = median([t for op in ops for t in op["stages"][stage]])
    details = {**raw, "op_tail_s": tail_value, "op_tail": tail_label,
               "op_samples": len(op_walls),
               "reference_s": median([op["reference_s"] for op in ops]),
               "nmpiw_tessera_a": mean([q["nmpiw_tessera_a"] for q in quality])}
    return m, details


def coverage_gap(r: dict) -> float:
    """Median over ops of max |PICP - (1 - alpha)| across the conformal methods."""
    return median([op["quality"]["coverage_gap"] for op in r["ops"] if op.get("quality")])


def per_layer(r: dict) -> dict:
    t = r["trace"]
    n = max(t["ops"], 1)
    time_, self_, calls, counts = (t.get(k, {}) for k in ("time", "self", "calls", "counts"))

    def ratio(num, den):
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    m = {}
    for span in t["spans"]:
        m[f"{span}_s"] = time_.get(span, 0.0) / n
        m[f"{span}_calls"] = calls.get(span, 0) / n
    for stage in STAGES:
        m[f"experiment.{stage}.self_s"] = self_.get(f"experiment.{stage}", 0.0) / n
    for key in ("datagen.save_csv_rows", "datagen.load_csv_rows", "moe.forward_rows",
                "mc_dropout.pass_rows", "serialize.bytes_written"):
        m[key] = counts.get(key, 0) / n
    m["nn.adam_tensors_per_step"] = (counts.get("nn.adam_tensors", 0) / calls["nn.adam_step"]
                                     if calls.get("nn.adam_step") else 0.0)
    for caller in ("moe", "mc_dropout"):
        m[f"{caller}.adam_tensors_per_step"] = ratio(f"{caller}.adam_tensors",
                                                     f"{caller}.adam_steps")
    m["moe.useful_epoch_ratio"] = ratio("moe.useful_epochs", "moe.epochs")
    m["conformal.coverage_gap"] = coverage_gap(r)
    done = [op for op in r["ops"] if "wall_s" in op]
    m["trace.overhead_s"] = (median([op["wall_s"] for op in done if op["traced"]])
                             - median([op["wall_s"] for op in done if not op["traced"]]))
    return m


def stage_split(t: dict) -> dict:
    """Per stage, seconds per op in each direct child span and in none."""
    n = max(t["ops"], 1)
    split = {}
    for stage in STAGES:
        parent = f"experiment.{stage}"
        if t.get("time", {}).get(parent):
            split[stage] = {key.split(">")[1]: round(v / n, 4)
                            for key, v in t.get("children", {}).items()
                            if key.startswith(parent + ">")}
            split[stage]["self"] = round(t["self"][parent] / n, 4)
    return split


def _provenance(seed: int, seconds: int, results: dict) -> dict:
    commit = "unavailable: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        h.update(p.relative_to(ROOT).as_posix().encode() + b"\0" + p.read_bytes())
    first = next(iter(results.values()))
    env = _child_env()
    return {"git_commit": commit, "src_sha256": h.hexdigest(),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            **first["versions"], "thread_env": {k: env[k] for k in THREAD_VARS},
            "bench_seed": seed, "run_seconds": seconds,
            "config_seeds": {w: r["config_seeds"] for w, r in results.items()}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=None,
                   help="timed seconds per workload (default: BENCHMARK.json run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    started = time.monotonic()
    try:
        if not (ROOT / "src" / "tessera" / "__init__.py").is_file():
            raise BenchError(f"no tessera sources under {ROOT / 'src'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        scratch = ROOT / ".bench_work"
        scratch.mkdir(exist_ok=True)
        work_root = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
        try:
            results = {}
            for i, name in enumerate(names):
                work = work_root / name
                work.mkdir()
                deadline = started + DEADLINE_S * (i + 1)
                results[name] = run_workload(name, args.seed, seconds, args.trace, work,
                                             deadline)
        finally:
            shutil.rmtree(work_root, ignore_errors=True)
            if not any(scratch.iterdir()):
                scratch.rmdir()
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2

    metrics, attempted, failed, correct = {}, 0, 0, True
    for name, r in results.items():
        computed, details = end_to_end(r)
        if args.trace:
            computed.update(per_layer(r))
        missing = [m["name"] for m in wanted if m["name"] not in computed]
        if missing:
            print(f"bench: no value for {missing}", file=sys.stderr)
            return 2
        bad_ops = [op for op in r["ops"] if op["problems"]]
        problems = r.get("self_test", [])
        attempted += len(r["ops"])
        failed += len(bad_ops)
        correct = correct and not bad_ops and not problems
        details.update(error_rate=len(bad_ops) / len(r["ops"]), coverage_gap=coverage_gap(r))
        if args.trace:
            details["stage_split"] = stage_split(r["trace"])
        else:  # computed but not gated, such as gen_data_ref
            gated = {m["name"] for m in wanted}
            details.update({k: v for k, v in computed.items() if k not in gated})
        print(f"== {name}  seed {args.seed}  seconds {seconds}  trace {args.trace}")
        prefix = f"{name}." if len(results) > 1 else ""
        for m in wanted:
            value = computed[m["name"]]
            print(f"  {m['name']:<36} {value:>14.6g} {m['unit']}")
            metrics[prefix + m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  details: {json.dumps(details, sort_keys=True)}")
        for op in bad_ops:
            print(f"  FAILED op {op['key']} (pass {op['pass']}): {op['problems']}")
        for problem in problems:
            print(f"  FAILED check: {problem}")
    print("provenance: " + json.dumps(_provenance(args.seed, seconds, results), sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
