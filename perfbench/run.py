#!/usr/bin/env python3
"""Benchmark of the coupled-labels CLI stack.

    python3 perfbench/run.py --workload default-6k --seed 0 --seconds 40 --trace 0

Runs the workload as a closed loop with a single caller: each pipeline
iteration is a fresh child interpreter that calls the CLI stages
gen -> split -> train|ablate -> report in order, and the next iteration
starts only after the previous child has exited. Iterations repeat until
the next one would end after `--seconds`, with at least three.

With `--trace 0` it prints the end-to-end metrics: stage times as the mean
over the run's iterations, set-up time and peak RSS as medians. With `--trace 1` it alternates untraced and traced iterations
and prints the per-layer metrics from the traced ones, plus the tracing
overhead. The last line of standard output is one JSON object; the lines
before it give every metric with its sample count, the machine facts, and
any failed check. Full details go to `.perfbench_work/<workload>/result.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

from checks import (  # noqa: E402
    Checks,
    check_dataset_matches_generator,
    check_expected,
    check_iteration,
    check_same_digests,
)
from tracer import percentile, read_csv, self_times, summarize  # noqa: E402
from workloads import WORKLOADS, Paths  # noqa: E402

MIN_ITERATIONS = 3
MIN_SETUPS = 5
TOTAL_LIMIT_S = 165.0   # every run must end within 180 s

# No extra threads: BLAS runs single-threaded and the harness's optional
# fold thread pool stays off, so the default sequential path is measured.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
DROPPED_ENV = ("COUPLED_LABELS_THREADS",)
THREAD_ENV = re.compile(r"THREAD|^OMP_|^MKL_|^OPENBLAS_|^BLIS_|^NUMEXPR_")

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "gen_s": "s",
    "split_s": "s",
    "fit_s": "s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "pass_ratio": "ratio",
}

PER_LAYER = (
    "synthgen.generate.s",
    "datamodel.save_dataset.s", "datamodel.save_dataset.bytes",
    "datamodel.load_dataset.s", "datamodel.load_dataset.calls",
    "stratify.mis_split.s", "stratify.mis_split.calls",
    "stratify.save_folds.s", "stratify.split_quality.s",
    "predictor.predict_forward.train.p50_us", "predictor.predict_forward.train.p99_us",
    "predictor.predict_forward.train.calls", "predictor.predict_forward.eval.s",
    "predictor.predict_backward.p50_us",
    "coupling.refine_forward.p50_us", "coupling.refine_forward.calls",
    "coupling.refine_backward.p50_us",
    "losses.asl_loss.p50_us", "losses.asl_loss.calls",
    "losses.weighted_bce_loss.p50_us", "losses.weighted_bce_loss.calls",
    "losses.l1_penalty.p50_us",
    "optim.train_step.calls", "optim.train_step.p50_us", "optim.train_step.p99_us",
    "optim.train_step.self_s", "optim.adamw_step.p50_us",
    "optim.clip_global_norm.p50_us", "optim.ema_update.p50_us", "optim.skipped_ratio",
    "metrics.macro_auc.calls", "metrics.macro_auc.s", "metrics.macro_auc.p50_us",
    "metrics.diagnostics.s",
    "harness.run_fold.s", "harness.run_fold.self_s",
    "harness.predict_with_views.s", "harness.predict_with_views.calls",
    "harness.run_experiment.self_s",
    "harness.write_run_report.s", "harness.write_run_report.bytes",
    "harness.wasted_epoch_ratio",
    "cli.gen.self_s", "cli.split.self_s", "cli.train.self_s", "cli.ablate.self_s",
    "cli.report.self_s",
    "tracing.pipeline_s", "tracing.overhead_s",
)

LAYER_UNITS = {"s": "s", "self_s": "s", "calls": "count", "bytes": "bytes",
               "p50_us": "us", "p99_us": "us", "skipped_ratio": "ratio",
               "wasted_epoch_ratio": "ratio", "overhead_s": "s", "pipeline_s": "s"}

# span names summed into one metric
COMPOSITE_SPANS = {
    "metrics.diagnostics": ("metrics.fold_agreement", "metrics.per_label_fold_std",
                            "metrics.pearson_label_correlation",
                            "metrics.probability_histograms"),
}


def layer_unit(name: str) -> str:
    return LAYER_UNITS[name.rsplit(".", 1)[1]]


class ChildError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# running children
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in DROPPED_ENV}
    env.update(CHILD_ENV)
    return env


def run_child(workload: str, seed: int, workdir: Path, trace: bool, setup_only: bool,
              timeout: float) -> dict:
    result_path = workdir.parent / f"{workdir.name}.result.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--dir", str(workdir), "--result", str(result_path)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    with open(workdir.parent / f"{workdir.name}.log", "w") as log:
        start = time.monotonic()
        try:
            proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
                                  env=child_env(), timeout=timeout)
        except subprocess.TimeoutExpired:
            raise ChildError(f"{workdir.name}: child exceeded {timeout:.0f} s") from None
        end = time.monotonic()
    if proc.returncode != 0:
        raise ChildError(f"{workdir.name}: child exited {proc.returncode}, "
                         f"see {log.name}")
    result = json.loads(result_path.read_text())
    result["setup_s"] = result["ready"] - start
    result["child_s"] = end - start
    return result


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def median_metric(values, unit: str) -> dict:
    return {"value": statistics.median(values), "unit": unit, "samples": len(values)}


def mean_metric(values, unit: str) -> dict:
    return {"value": statistics.fmean(values), "unit": unit, "samples": len(values)}


def end_to_end_metrics(untraced: list[dict], setups: list[float], fit: str,
                       checks: Checks) -> dict:
    """Stage times are per-iteration means: the machine alternates between
    fast and slow phases of a few seconds, which makes iteration times
    bimodal, and the median of a handful of them jumps between the modes.
    The mean over all the work of the run is about twice as steady."""
    def stage(name):
        return [next(s["wall_s"] for s in it["stages"] if s["name"] == name)
                for it in untraced]

    fit_s = stage(fit)
    unit = END_TO_END
    return {
        "setup_s": median_metric(setups, unit["setup_s"]),
        "pipeline_s": mean_metric([sum(s["wall_s"] for s in it["stages"])
                                   for it in untraced], unit["pipeline_s"]),
        "gen_s": mean_metric(stage("gen"), unit["gen_s"]),
        "split_s": mean_metric(stage("split"), unit["split_s"]),
        "fit_s": mean_metric(fit_s, unit["fit_s"]),
        "steps_per_s": {"value": sum(it["outputs"].steps for it in untraced) / sum(fit_s),
                        "unit": unit["steps_per_s"], "samples": len(fit_s)},
        "peak_rss_mb": median_metric([it["peak_rss_kb"] / 1024.0 for it in untraced],
                                     unit["peak_rss_mb"]),
        "pass_ratio": {"value": 1.0 - checks.failed_ratio, "unit": unit["pass_ratio"],
                       "samples": checks.attempted},
    }


def layer_metrics(traced: list[dict], untraced: list[dict]) -> dict:
    per_iter, durations = [], {}
    for it in traced:
        stats, durs = summarize(it["spans"])
        per_iter.append(stats)
        for name, values in durs.items():
            durations.setdefault(name, []).extend(values)

    def total(name, field):
        spans = COMPOSITE_SPANS.get(name, (name,))
        return statistics.median(
            sum(getattr(stats[s], field) for s in spans if s in stats) for stats in per_iter)

    out = {}
    for metric in PER_LAYER:
        span, kind = metric.rsplit(".", 1)
        unit = layer_unit(metric)
        if kind in ("p50_us", "p99_us"):
            q = 50 if kind == "p50_us" else 99
            value, beyond = percentile(durations.get(span, ()), q,
                                       min_beyond=10 if q == 99 else 0)
            out[metric] = {"value": 0.0 if value is None else value * 1e6, "unit": unit,
                           "samples": len(durations.get(span, ())), "beyond": beyond,
                           "defined": value is not None}
            continue
        field = {"s": "seconds", "self_s": "self_seconds", "calls": "calls",
                 "bytes": "nbytes"}.get(kind)
        if field is not None:
            out[metric] = {"value": total(span, field), "unit": unit,
                           "samples": len(per_iter)}
    out["optim.skipped_ratio"] = median_metric(
        [it["outputs"].skipped_steps / it["outputs"].steps for it in traced], "ratio")
    out["harness.wasted_epoch_ratio"] = median_metric(
        [it["outputs"].wasted_epochs / it["outputs"].epochs_run for it in traced], "ratio")
    traced_pipe = [sum(s["wall_s"] for s in it["stages"]) for it in traced]
    plain_pipe = [sum(s["wall_s"] for s in it["stages"]) for it in untraced]
    out["tracing.pipeline_s"] = median_metric(traced_pipe, "s")
    out["tracing.overhead_s"] = {
        "value": statistics.median(traced_pipe) - statistics.median(plain_pipe),
        "unit": "s", "samples": min(len(traced_pipe), len(plain_pipe))}
    return out


def check_trace_accounts(checks: Checks, it: dict, fit: str) -> None:
    """The self times of the spans under a stage add up to its wall time."""
    spans = it["spans"]
    selfs = self_times(spans)
    for span in spans:
        if span.name != f"cli.{fit}":
            continue
        covered = sum(st for s, st in zip(spans, selfs) if s.run_id == span.run_id)
        checks.record(f"{span.run_id} span self times sum to the stage time",
                      abs(covered - span.duration) <= 1e-6 * max(1.0, span.duration),
                      f"{covered!r} vs {span.duration!r}")


# ---------------------------------------------------------------------------
# machine facts
# ---------------------------------------------------------------------------


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_desc = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_desc = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_desc,
        "thread_env_set": {k: v for k, v in sorted(os.environ.items())
                           if THREAD_ENV.search(k)},
        "child_env": CHILD_ENV,
        "wait_time": "none: one caller on one thread, no queue between layers",
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args) -> tuple[dict, Checks, dict]:
    workload = WORKLOADS[args.workload]
    outdir = WORK / workload.name
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    started = time.monotonic()
    deadline = started + args.seconds
    stage_names = [name for name, _ in workload.stages(Paths(outdir), args.seed)]
    checks = Checks()

    def remaining() -> float:
        return TOTAL_LIMIT_S - (time.monotonic() - started)

    iterations: list[dict] = []
    while True:
        i = len(iterations)
        traced = bool(args.trace) and i % 2 == 1
        workdir = outdir / f"iter{i}"
        it = run_child(workload.name, args.seed, workdir, traced, False, remaining())
        it["traced"] = traced
        it["dir"] = workdir
        it["outputs"] = check_iteration(checks, f"iteration {i}", stage_names,
                                        it["stages"], Paths(workdir),
                                        workload.arm_dirs(Paths(workdir)))
        if traced:
            it["spans"] = read_csv(workdir / "spans.csv")
            check_trace_accounts(checks, it, workload.fit)
        iterations.append(it)
        typical = statistics.median(x["child_s"] for x in iterations)
        enough = len(iterations) >= (2 if args.trace else MIN_ITERATIONS)
        if (enough and time.monotonic() + typical > deadline) or remaining() < 2 * typical:
            break

    setups = [it["setup_s"] for it in iterations]
    while not args.trace and len(setups) < MIN_SETUPS and remaining() > 10:
        workdir = outdir / f"setup{len(setups)}"
        setups.append(run_child(workload.name, args.seed, workdir, False, True,
                                remaining())["setup_s"])

    good = [it for it in iterations if it["outputs"] is not None]
    if good:
        first = good[0]
        check_dataset_matches_generator(checks, Paths(first["dir"]))
        check_same_digests(checks, [it["outputs"] for it in good])
        recorded = json.loads((HERE / "expected.json").read_text())
        check_expected(checks, first["outputs"],
                       recorded["workloads"].get(workload.name) if args.seed == 0 else None)

    untraced = [it for it in good if not it["traced"]]
    traced = [it for it in good if it["traced"]]
    if not untraced or (args.trace and not traced):
        return {}, checks, {"iterations": iterations}
    if args.trace:
        metrics = layer_metrics(traced, untraced)
    else:
        metrics = end_to_end_metrics(untraced, setups, workload.fit, checks)
    detail = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "measured_s": time.monotonic() - started,
        "spec": workload.spec(args.seed), "config": workload.cfg(args.seed),
        "machine": machine_facts(),
        "iterations": [{"traced": it["traced"], "setup_s": it["setup_s"],
                        "stages": it["stages"], "peak_rss_kb": it.get("peak_rss_kb"),
                        "steps": None if it["outputs"] is None else it["outputs"].steps,
                        "untraced_targets": it.get("untraced_targets", [])}
                       for it in iterations],
        "setup_samples": setups,
        "metrics": metrics,
        "failed_ratio": checks.failed_ratio,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks.results],
    }
    return metrics, checks, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "coupled_labels" / "cli.py").is_file():
        print(f"error: no coupled_labels sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        metrics, checks, detail = run(args)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for failure in checks.failures():
        print(f"FAILED {failure}")
    if not metrics:
        print("error: no iteration completed", file=sys.stderr)
        return 1
    (WORK / args.workload / "result.json").write_text(json.dumps(detail, indent=2) + "\n")

    print(f"# machine {json.dumps(detail['machine'], sort_keys=True)}")
    print(f"# checks attempted {checks.attempted}, failed {checks.failed}, "
          f"failed_ratio {checks.failed_ratio:.4f}")
    for name, m in metrics.items():
        note = ""
        if not m.get("defined", True):
            note = " (no calls)" if m["samples"] == 0 else " (undefined: <10 samples beyond)"
        beyond = f", beyond={m['beyond']}" if "beyond" in m else ""
        print(f"{name:<42} {m['value']:>14.6f} {m['unit']:<6} "
              f"(n={m['samples']}{beyond}){note}")
    names = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {n: {"value": metrics[n]["value"], "unit": metrics[n]["unit"]}
                    for n in names},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
