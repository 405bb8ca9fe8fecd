"""Command-line surface: data generation, splitting, training, ablation and
report/plot-data emission.

Exit codes: 0 success, 1 validation error (bad flags, bad config, bad data),
2 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
import time
import traceback
from pathlib import Path

from . import harness, stratify, synthgen
from .datamodel import (
    CoupledLabelsError,
    checked,
    load_config,
    load_dataset,
    read_json,
    save_dataset,
    write_csv,
    write_json,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the CLI contract reserves 2 for
    # runtime failures, so remap to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="coupled-labels",
                     description="Sparse label-coupling laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", parents=[], help="generate a synthetic dataset")
    p_gen.add_argument("--spec", required=True, help="generator spec JSON")
    p_gen.add_argument("--out", required=True, help="output dataset CSV")

    p_split = sub.add_parser("split", help="write a K-fold assignment")
    p_split.add_argument("--data", required=True, help="dataset CSV")
    p_split.add_argument("--k", type=int, default=3, help="fold count")
    p_split.add_argument("--seed", type=int, default=0)
    p_split.add_argument("--method", choices=("mis",), default="mis")
    p_split.add_argument("--out", required=True, help="output folds CSV")

    p_train = sub.add_parser("train", help="run the K-fold experiment")
    p_train.add_argument("--data", required=True, help="dataset CSV")
    p_train.add_argument("--config", required=True, help="experiment config JSON")
    p_train.add_argument("--out", required=True, help="run directory")

    p_ablate = sub.add_parser("ablate", help="train with refinement on and off")
    p_ablate.add_argument("--data", required=True, help="dataset CSV")
    p_ablate.add_argument("--config", required=True, help="experiment config JSON")
    p_ablate.add_argument("--out", required=True, help="run directory")

    p_report = sub.add_parser("report", help="print AUC table, write plot CSVs")
    p_report.add_argument("--run", required=True, help="run directory from train/ablate")

    return parser


def _cmd_gen(args) -> int:
    spec = synthgen.load_spec(args.spec)
    dataset = synthgen.generate(spec)
    save_dataset(dataset, args.out)
    synthgen.save_spec(spec, str(args.out) + ".spec.json")
    print(f"wrote {dataset.n_examples} examples "
          f"({dataset.n_features} features, {dataset.n_labels} labels) to {args.out}")
    return 0


def _cmd_split(args) -> int:
    dataset = load_dataset(args.data)
    assign = stratify.mis_split(dataset.labels, args.k, args.seed)
    stratify.save_folds(assign, args.out)
    write_json({"data": str(args.data), "k": args.k, "seed": args.seed,
                "method": args.method}, str(args.out) + ".meta.json")
    quality = stratify.split_quality(dataset.labels, assign)
    print(f"wrote {args.out}: fold sizes {quality.fold_sizes.tolist()}, "
          f"max prevalence deviation {quality.max_deviation:.6f}")
    return 0


def _new_run_dir(path) -> Path:
    """`path` as the directory of a new run: it must not exist or be an
    empty directory, so that no file of an earlier run sits beside the new
    run's files."""
    outdir = Path(path)
    if outdir.exists() and (not outdir.is_dir() or any(outdir.iterdir())):
        raise CoupledLabelsError(f"--out {outdir} exists and is not an empty directory")
    return outdir


def _write_timings(outdir: Path, marks: tuple[float, ...], reports) -> None:
    """`timings.json` of a run directory from the clock `marks` taken before
    and after the dataset load, before and after training, and after the
    run directory is written; plus the optimizer steps of every fold model
    and their rate. It changes from run to run, so it stays out of
    `report.json` and `ablation.json`."""
    t0, t1, t2, t3, t4 = marks
    steps = sum(fr.train_log.lr.size for report in reports for fr in report.fold_results)
    write_json({"load_dataset_s": t1 - t0, "train_s": t3 - t2, "write_run_dir_s": t4 - t3,
                "optimizer_steps": steps, "steps_per_s": steps / (t3 - t2)},
               outdir / "timings.json")


def _cmd_train(args) -> int:
    outdir = _new_run_dir(args.out)
    t0 = time.perf_counter()
    dataset = load_dataset(args.data)
    t1 = time.perf_counter()
    cfg = load_config(args.config)
    t2 = time.perf_counter()
    report = harness.run_experiment(dataset, cfg)
    t3 = time.perf_counter()
    record = report.to_json_dict()
    harness.write_run_report(report, outdir, record)
    t4 = time.perf_counter()
    _write_timings(outdir, (t0, t1, t2, t3, t4), [report])
    print(f"run written to {args.out}")
    _print_auc_table(record)
    return 0


def _cmd_ablate(args) -> int:
    outdir = _new_run_dir(args.out)
    t0 = time.perf_counter()
    dataset = load_dataset(args.data)
    t1 = time.perf_counter()
    cfg = load_config(args.config)
    t2 = time.perf_counter()
    arms = harness.run_ablation(dataset, cfg)
    t3 = time.perf_counter()
    for name, report in arms.items():
        harness.write_run_report(report, outdir / name)
    record = harness.ablation_record(arms)
    write_json(record, outdir / "ablation.json")
    t4 = time.perf_counter()
    _write_timings(outdir, (t0, t1, t2, t3, t4), arms.values())
    print(f"ablation written to {outdir}")
    _print_ablation(record)
    sign = record["coupling_sign_summary"]
    print(f"learned couplings (|A| > {sign['near_zero_threshold']}): "
          f"{sign['n_positive']} positive, {sign['n_negative']} negative, "
          f"{sign['n_near_zero']} near zero")
    return 0


def _print_ablation(record: dict) -> None:
    print(f"{'arm':<18} macro_auc")
    for name, (_, key) in harness.ABLATION_ARMS.items():
        print(f"{name:<18} {record[key]:.6f}")
    print(f"delta: {record['delta']:+.6f}")


def _print_auc_table(report: dict) -> None:
    print(f"{'fold':<10} {'best_epoch':<11} macro_auc")
    for fold in report["folds"]:
        print(f"{fold['fold']:<10} {fold['best_epoch']:<11} "
              f"{fold['best_val_macro_auc']:.6f}")
    ens = report["ensemble"]
    print(f"{'ensemble':<10} {'(' + ens['source'] + ')':<11} {ens['auc']['macro_auc']:.6f}")


def _write_plot_csvs(rundir: Path, report: dict) -> list[Path]:
    labels = report["label_names"]
    diag = report["diagnostics"]
    written = []

    def emit(name: str, header: list[str], rows) -> None:
        write_csv(rundir / name, header, rows)
        written.append(rundir / name)

    corr = diag["pearson_correlation"]
    emit("pearson_correlation.csv", ["label"] + labels,
         [[labels[i]] + ["" if v is None else repr(v) for v in row]
          for i, row in enumerate(corr)])

    agree = diag["fold_agreement"]
    emit("fold_agreement.csv", ["majority_votes", "cells"],
         [[k, v] for k, v in sorted(agree["majority_counts"].items(), key=lambda kv: int(kv[0]))])
    emit("fold_pair_agreement.csv",
         ["fold_a", "fold_b", "agreement_rate"],
         [[a, b, repr(rate)]
          for a, row in enumerate(agree["pair_agreement"])
          for b, rate in enumerate(row) if b > a])

    emit("per_label_fold_std.csv", ["label", "mean_std"],
         [[labels[i], repr(v)] for i, v in enumerate(diag["per_label_fold_std"])])

    hist = diag["probability_histograms"]
    bins = hist["bins"]
    emit("probability_histograms.csv", ["label", "bin_low", "bin_high", "count"],
         [[labels[l], repr(b / bins), repr((b + 1) / bins), hist["counts"][l][b]]
          for l in range(len(labels)) for b in range(bins)])
    return written


def _cmd_report(args) -> int:
    rundir = Path(args.run)
    # an ablation directory holds one run per arm: read every file, then report
    if (rundir / "ablation.json").exists():
        path = rundir / "ablation.json"
        record = checked(path, read_json(path), harness.ABLATION_RULES, harness.HarnessError)
        arms = {arm: harness.read_report_json(rundir / arm) for arm in harness.ABLATION_ARMS}
        _print_ablation(record)
        for arm, report in arms.items():
            print(f"--- {arm}")
            _print_auc_table(report)
            _write_plot_csvs(rundir / arm, report)
        return 0
    report = harness.read_report_json(rundir)
    _print_auc_table(report)
    written = _write_plot_csvs(rundir, report)
    print("plot data: " + ", ".join(p.name for p in written))
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "split": _cmd_split,
    "train": _cmd_train,
    "ablate": _cmd_ablate,
    "report": _cmd_report,
}


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (CoupledLabelsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
