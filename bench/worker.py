"""Child process of bench/run.py: one set-up or one timed workload run.

    worker.py setup
        import tessera.cli in this fresh interpreter, the import every CLI
        call pays; the parent times the process.
    worker.py run --workload W --seed S --seconds N --trace 0|1 --work D --out F
        repeat passes of the workload until N seconds are used (at least
        two whole passes, then op by op), check every op, time the reference kernel between
        ops, and write raw per-op records to F. An op is one pipeline,
        followed in untraced passes by the workload's calibrate+evaluate
        re-reads.

Each workload runs in its own process, so peak RSS and import state do not
leak between workloads.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
STAGES = ("gen_data", "train", "calibrate", "evaluate")
READ_STAGES = ("calibrate", "evaluate")  # re-run on the finished run dir, as a user may
MIN_PASSES = 2  # every op key runs twice, so the determinism check always bites


def _check_origin(module) -> None:
    origin = Path(module.__file__).resolve()
    if not origin.is_relative_to(SRC):
        raise ImportError(f"tessera imported from {origin}, not from {SRC}")


def _setup() -> None:
    import tessera.cli
    _check_origin(tessera.cli)


def _versions() -> dict:
    import platform

    import numpy
    import scipy
    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas}


def _run_op(op, out: Path, tracer, rereads: int) -> dict:
    """Run the pipeline, then ``rereads`` more calibrate+evaluate calls on its
    run dir; returns each stage's call times in call order."""
    from contextlib import nullcontext

    from tessera import experiment
    stage_fns = {"gen_data": experiment.stage_gen_data, "train": experiment.stage_train,
                 "calibrate": experiment.stage_calibrate,
                 "evaluate": experiment.stage_evaluate}
    times = {stage: [] for stage in STAGES}
    for stage in STAGES + READ_STAGES * rereads:
        span = tracer.span(f"experiment.{stage}") if tracer else nullcontext()
        t0 = time.perf_counter()
        with span:
            stage_fns[stage](op.config, out)
        times[stage].append(time.perf_counter() - t0)
    return times


def _run(args) -> dict:
    import resource
    import shutil
    import traceback

    import tessera
    _check_origin(tessera)
    from checks import check_run_dir, tree_sha256
    from reference import reference_seconds
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()   # fails now, before any timing, if a target was renamed
        tracer.uninstall()
    work = Path(args.work)
    ops_per_pass = workload.pass_ops(args.seed)
    first_sha: dict[str, str] = {}
    passes, ops, trace_sum, traced_ops = 0, [], {}, 0
    reference_seconds()  # warm-up, not recorded
    reference_before = reference_seconds()
    start = time.perf_counter()
    op_s, done = 0.0, False
    while not done:
        traced = tracer is not None and passes % 2 == 1
        if traced:
            tracer.install()
        try:
            for op in ops_per_pass:
                # after MIN_PASSES whole passes, stop before an op that would overrun;
                # stopping mid-pass keeps the op count from jumping by a whole pass
                if passes >= MIN_PASSES and time.perf_counter() - start + op_s > args.seconds:
                    done = True
                    break
                op_start = time.perf_counter()
                out = work / f"op{len(ops)}"
                record = {"key": op.key, "pass": passes, "traced": traced,
                          "problems": []}
                try:
                    # traced ops skip the re-reads, so per-layer figures are per pipeline
                    record["stages"] = _run_op(op, out, tracer if traced else None,
                                               0 if traced else workload.rereads)
                    record["wall_s"] = sum(record["stages"][stage][0] for stage in STAGES)
                    if traced:
                        _accumulate(trace_sum, tracer.take())
                        traced_ops += 1
                    problems, record["quality"] = check_run_dir(
                        out, op.config.calibration.alpha)
                    record["problems"] += problems
                    sha = tree_sha256(out)
                    if first_sha.setdefault(op.key, sha) != sha:
                        record["problems"].append(
                            f"run dir sha256 {sha[:12]} differs from an earlier run of "
                            f"{op.key} ({first_sha[op.key][:12]})")
                except Exception:  # a failed op is counted, never fatal
                    record["problems"].append(traceback.format_exc(limit=3))
                    if traced:
                        tracer.take()  # drop the failed op's partial spans
                finally:
                    shutil.rmtree(out, ignore_errors=True)
                reference_after = reference_seconds()
                record["reference_s"] = (reference_before + reference_after) / 2
                reference_before = reference_after
                ops.append(record)
                op_s = time.perf_counter() - op_start
        finally:
            if traced:
                tracer.uninstall()
        passes += 1
    result = {
        "ops": ops,
        "trace": {"ops": traced_ops, "spans": _traced_spans(), **trace_sum} if tracer else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": _versions(),
        "config_seeds": sorted({op.config.seed for op in ops_per_pass}),
    }
    if tracer is not None:
        result["self_test"] = _self_test(workload, trace_sum.get("calls", {}))
    return result


def _traced_spans() -> list[str]:
    from tracer import SPAN_NAMES
    return [*SPAN_NAMES, *(f"experiment.{stage}" for stage in STAGES)]


def _self_test(workload, calls: dict) -> list[str]:
    """Every traced span must fire on the workload unless it is listed idle
    there, and an idle one must not fire."""
    from tracer import SPAN_NAMES
    problems = []
    for name in SPAN_NAMES:
        fired = calls.get(name, 0) > 0
        if fired == (name in workload.idle_spans):
            problems.append(f"span {name} {'fired' if fired else 'never fired'} "
                            f"on {workload.name}")
    return problems


def _accumulate(total: dict, part: dict) -> None:
    for section, values in part.items():
        bucket = total.setdefault(section, {})
        for key, value in values.items():
            bucket[key] = bucket.get(key, 0) + value


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("setup", "run"))
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", help="scratch dir for run dirs")
    p.add_argument("--out", help="JSON result file")
    args = p.parse_args(argv)
    if args.mode == "setup":
        _setup()
    else:
        Path(args.out).write_text(json.dumps(_run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
