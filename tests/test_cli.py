import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

import coupled_labels
from coupled_labels import harness
from coupled_labels.cli import cli_main
from coupled_labels.datamodel import (
    Dataset,
    field_problems,
    load_config,
    load_dataset,
    save_dataset,
    write_json,
)
from coupled_labels.stratify import load_folds
from helpers import BAD_SPEC_PATCHES, GOOD_SPEC


@pytest.fixture
def tiny_data(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(60, 4))
    w = rng.normal(size=(4, 3))
    labels = (expit(x @ w) > rng.random((60, 3))).astype(float)
    labels[:3] = np.eye(3)
    labels[3:6] = 1.0 - np.eye(3)
    ds = Dataset(features=x, labels=labels, label_names=["a", "b", "c"])
    path = tmp_path / "data.csv"
    save_dataset(ds, path)
    return path


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"K": 2, "epochs": 2, "batch_size": 16, "seed": 5}))
    return path


class TestGen:
    def test_gen_writes_loadable_dataset(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "n_examples": 40, "n_features": 3, "n_labels": 2,
            "planted_edges": [[0, 1, 2.0]], "noise_scale": 1.0, "seed": 4,
        }))
        out = tmp_path / "gen.csv"
        assert cli_main(["gen", "--spec", str(spec), "--out", str(out)]) == 0
        assert out.exists()
        assert (tmp_path / "gen.csv.spec.json").exists()
        from coupled_labels.datamodel import load_dataset

        ds = load_dataset(out)
        assert ds.n_examples == 40 and ds.n_labels == 2

    def test_gen_bad_spec_exit_1(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "n_examples": 10, "n_features": 3, "n_labels": 2,
            "planted_edges": [[0, 1, 1.0], [1, 0, 1.0]],  # cycle
            "noise_scale": 1.0, "seed": 4,
        }))
        assert cli_main(["gen", "--spec", str(spec), "--out", str(tmp_path / "x.csv")]) == 1

    @pytest.mark.parametrize("field,value", BAD_SPEC_PATCHES,
                             ids=[f"{f}={v!r}" for f, v in BAD_SPEC_PATCHES])
    def test_gen_bad_spec_value_exit_1_naming_field(self, tmp_path, capsys, field, value):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**GOOD_SPEC, field: value}))
        out = tmp_path / "x.csv"
        assert cli_main(["gen", "--spec", str(spec), "--out", str(out)]) == 1
        assert f"{field}: must be" in capsys.readouterr().err
        assert not out.exists()


class TestSplit:
    def test_split_deterministic_bytes(self, tiny_data, tmp_path):
        out1 = tmp_path / "f1.csv"
        out2 = tmp_path / "f2.csv"
        for out in (out1, out2):
            code = cli_main(["split", "--data", str(tiny_data), "--k", "3",
                             "--seed", "7", "--method", "mis", "--out", str(out)])
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        assign = load_folds(out1)
        assert assign.n_examples == 60

    def test_mis_is_the_only_method(self, tiny_data, tmp_path, capsys):
        out = tmp_path / "f.csv"
        code = cli_main(["split", "--data", str(tiny_data), "--method", "bucketed",
                         "--out", str(out)])
        assert code == 1
        assert "invalid choice: 'bucketed'" in capsys.readouterr().err
        assert not out.exists()
        assert cli_main(["split", "--data", str(tiny_data), "--out", str(out)]) == 0
        assert json.loads(Path(str(out) + ".meta.json").read_text())["method"] == "mis"

    def test_missing_data_flag_exit_1(self, tmp_path, capsys):
        code = cli_main(["split", "--k", "2", "--seed", "0",
                         "--out", str(tmp_path / "f.csv")])
        assert code == 1
        assert "--data" in capsys.readouterr().err

    def test_unknown_flag_rejected(self, tiny_data, tmp_path, capsys):
        code = cli_main(["split", "--data", str(tiny_data), "--out",
                         str(tmp_path / "f.csv"), "--frobnicate", "1"])
        assert code == 1

    def test_invalid_k_exit_1(self, tiny_data, tmp_path, capsys):
        code = cli_main(["split", "--data", str(tiny_data), "--k", "90",
                         "--out", str(tmp_path / "f.csv")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_negative_seed_exit_1(self, tiny_data, tmp_path, capsys):
        out = tmp_path / "f.csv"
        code = cli_main(["split", "--data", str(tiny_data), "--seed", "-1", "--out", str(out)])
        assert code == 1
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text,named", [
        (b"a,label:x,label:y\n1.5,0,1\n\xff2,1,0\n", "row 1: bad feature value"),
        (b"a,label:x,label:y\n1.5,0,1\n2,\xff,0\n", "row 1, column 'label:x'"),
        (b"a,label:\xffx,label:y\n1.5,0,1\n2,1,0\n", "header row is not"),
    ], ids=["feature", "label", "header"])
    def test_undecodable_byte_exit_1_naming_row(self, tmp_path, capsys, text, named):
        data = tmp_path / "data.csv"
        data.write_bytes(text)
        out = tmp_path / "f.csv"
        assert cli_main(["split", "--data", str(data), "--k", "2", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not out.exists()


class TestTrainAndReport:
    def test_full_pipeline(self, tiny_data, tiny_config, tmp_path, capsys):
        rundir = tmp_path / "run"
        assert cli_main(["train", "--data", str(tiny_data), "--config",
                         str(tiny_config), "--out", str(rundir)]) == 0
        out = capsys.readouterr().out
        assert "ensemble" in out
        assert (rundir / "report.json").exists()

        assert cli_main(["report", "--run", str(rundir)]) == 0
        out = capsys.readouterr().out
        assert "macro_auc" in out
        for name in ("pearson_correlation.csv", "fold_agreement.csv",
                     "fold_pair_agreement.csv", "per_label_fold_std.csv",
                     "probability_histograms.csv", "coupling_mean.csv"):
            assert (rundir / name).exists(), name
        hist_lines = (rundir / "probability_histograms.csv").read_text().strip().splitlines()
        assert len(hist_lines) == 1 + 3 * 20  # header + labels x bins

    def test_train_determinism_byte_identical(self, tiny_data, tiny_config, tmp_path):
        r1, r2 = tmp_path / "r1", tmp_path / "r2"
        for rundir in (r1, r2):
            assert cli_main(["train", "--data", str(tiny_data), "--config",
                             str(tiny_config), "--out", str(rundir)]) == 0
        assert (r1 / "report.json").read_bytes() == (r2 / "report.json").read_bytes()

    def test_bad_label_value_exit_1(self, tmp_path, tiny_config, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,label:x,label:y\n1,0,1\n2,2,0\n")
        code = cli_main(["train", "--data", str(bad), "--config",
                         str(tiny_config), "--out", str(tmp_path / "r")])
        assert code == 1
        assert "label" in capsys.readouterr().err

    def test_bad_config_exit_1(self, tiny_data, tmp_path, capsys):
        cfg = tmp_path / "bad_cfg.json"
        cfg.write_text(json.dumps({"K": 1}))
        code = cli_main(["train", "--data", str(tiny_data), "--config", str(cfg),
                         "--out", str(tmp_path / "r")])
        assert code == 1

    def test_non_boolean_flag_exit_1_names_field(self, tiny_data, tmp_path, capsys):
        cfg = tmp_path / "bad_cfg.json"
        cfg.write_text(json.dumps({"refinement_enabled": "false"}))
        code = cli_main(["train", "--data", str(tiny_data), "--config", str(cfg),
                         "--out", str(tmp_path / "r")])
        assert code == 1
        assert "refinement_enabled" in capsys.readouterr().err

    def test_negative_seed_exit_1_names_field(self, tiny_data, tmp_path, capsys):
        cfg = tmp_path / "bad_cfg.json"
        cfg.write_text(json.dumps({"seed": -1}))
        code = cli_main(["train", "--data", str(tiny_data), "--config", str(cfg),
                         "--out", str(tmp_path / "r")])
        assert code == 1
        assert "seed" in capsys.readouterr().err

    def test_deleted_eval_batch_multiplier_exit_1_as_unknown(self, tiny_data, tmp_path, capsys):
        cfg = tmp_path / "old_cfg.json"
        cfg.write_text(json.dumps({"eval_batch_multiplier": 2}))
        code = cli_main(["train", "--data", str(tiny_data), "--config", str(cfg),
                         "--out", str(tmp_path / "r")])
        assert code == 1
        assert "unknown config field(s): ['eval_batch_multiplier']" in capsys.readouterr().err

    def test_runtime_failure_exit_2(self, tiny_data, tiny_config, tmp_path, monkeypatch):
        from coupled_labels import cli as cli_module

        def boom(*args, **kwargs):
            raise RuntimeError("induced failure")

        monkeypatch.setattr(cli_module.harness, "run_experiment", boom)
        code = cli_main(["train", "--data", str(tiny_data), "--config",
                         str(tiny_config), "--out", str(tmp_path / "r")])
        assert code == 2


class TestUnreadableJson:
    """A JSON input that is not UTF-8 JSON exits 1 naming the file."""

    @pytest.mark.parametrize("content", [b'{"K": 2, "epochs": 1\xff}', b'{"K": 2,'],
                             ids=["byte-0xff", "truncated"])
    def test_train_config(self, tiny_data, tmp_path, capsys, content):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(content)
        assert cli_main(["train", "--data", str(tiny_data), "--config", str(cfg),
                         "--out", str(tmp_path / "r")]) == 1
        assert str(cfg) in capsys.readouterr().err

    def test_gen_spec(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_bytes(json.dumps(GOOD_SPEC).encode() + b"\xff")
        out = tmp_path / "x.csv"
        assert cli_main(["gen", "--spec", str(spec), "--out", str(out)]) == 1
        assert str(spec) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["report.json", "ablation.json"])
    def test_report_run(self, tmp_path, capsys, name):
        path = tmp_path / name
        path.write_bytes(b'{"folds": []}\xff')
        assert cli_main(["report", "--run", str(tmp_path)]) == 1
        assert str(path) in capsys.readouterr().err


class TestMisshapenReportJson:
    """`report` on valid JSON that is not the object it reads exits 1,
    naming the file and each key missing or holding a value it may not
    hold, and prints and writes nothing."""

    @pytest.fixture
    def ablation_dir(self, tiny_data, tiny_config, tmp_path, capsys):
        rundir = tmp_path / "ab"
        assert cli_main(["ablate", "--data", str(tiny_data), "--config", str(tiny_config),
                         "--out", str(rundir)]) == 0
        capsys.readouterr()
        return rundir

    def test_every_rule_reads_a_value_of_a_fresh_run(self, ablation_dir):
        # a rule whose path the writer no longer produces would check nothing
        tables = [(json.loads((ablation_dir / "ablation.json").read_text()),
                   harness.ABLATION_RULES)]
        for arm in ("with_refinement", "no_refinement"):
            doc = json.loads((ablation_dir / arm / "report.json").read_text())
            bins = doc["diagnostics"]["probability_histograms"]["bins"]
            tables += [(doc, harness.REPORT_RULES), (doc, harness._sized_rules(
                len(doc["label_names"]), bins, len(doc["folds"])))]
        for doc, rules in tables:
            seen = set()
            spied = {key: (what, lambda v, key=key, ok=ok: seen.add(key) or ok(v))
                     for key, (what, ok) in rules.items()}
            assert field_problems(doc, spied) == []
            assert seen == set(rules)

    def _rejected(self, run, path, key, capsys):
        before = sorted(Path(run).rglob("*"))
        assert cli_main(["report", "--run", str(run)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert str(path) in err and f"{key}: " in err
        assert sorted(Path(run).rglob("*")) == before

    @pytest.mark.parametrize("drop", [None, "ensemble", "diagnostics"],
                             ids=["list", "no-ensemble", "no-diagnostics"])
    def test_report_json(self, ablation_dir, capsys, drop):
        path = ablation_dir / "no_refinement" / "report.json"
        if drop is None:
            path.write_text("[]")
        else:
            record = json.loads(path.read_text())
            del record[drop]
            path.write_text(json.dumps(record))
        for run in (path.parent, ablation_dir):
            self._rejected(run, path, drop or "folds", capsys)

    @pytest.mark.parametrize("doc, key", [
        ({"folds": [], "ensemble": {}, "label_names": [], "diagnostics": {}},
         "ensemble.source"),
        ({"folds": [{"fold": 0}], "ensemble": {"source": "oof", "auc": {"macro_auc": 0.5}},
          "label_names": [], "diagnostics": {}}, "folds.0.best_epoch"),
    ], ids=["empty-ensemble", "fold-without-best-epoch"])
    def test_nested_key_missing(self, tmp_path, capsys, doc, key):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(doc))
        self._rejected(tmp_path, path, key, capsys)

    def test_histogram_counts_missing(self, ablation_dir, capsys):
        path = ablation_dir / "with_refinement" / "report.json"
        record = json.loads(path.read_text())
        del record["diagnostics"]["probability_histograms"]["counts"]
        path.write_text(json.dumps(record))
        for run in (path.parent, ablation_dir):
            self._rejected(run, path, "diagnostics.probability_histograms.counts", capsys)

    def test_ablation_json_without_delta(self, ablation_dir, capsys):
        path = ablation_dir / "ablation.json"
        record = json.loads(path.read_text())
        del record["delta"]
        path.write_text(json.dumps(record))
        self._rejected(ablation_dir, path, "delta", capsys)

    @pytest.mark.parametrize("key, value", [
        ("folds.1.best_val_macro_auc", None),
        ("ensemble.auc.macro_auc", None),
        ("diagnostics.probability_histograms.bins", "20"),
        ("diagnostics.probability_histograms.counts", 5),
        ("folds.1.best_val_macro_auc", float("inf")),
        ("ensemble.auc.macro_auc", float("nan")),
        ("label_names.1", 7),
        ("diagnostics.pearson_correlation.0.1", "abc"),
        ("diagnostics.per_label_fold_std.1", {"x": 1}),
        ("diagnostics.probability_histograms.counts.1.3", "lots"),
        ("diagnostics.probability_histograms.counts.0.0", 2.5),
        ("diagnostics.fold_agreement.pair_agreement.0.1", [0.5]),
    ], ids=["fold-auc-null", "ensemble-auc-null", "bins-string", "counts-number",
            "fold-auc-infinity", "ensemble-auc-nan", "label-name-number",
            "correlation-string", "fold-std-object", "count-string", "count-fraction",
            "pair-agreement-list"])
    def test_value_of_wrong_type(self, ablation_dir, capsys, key, value):
        path = ablation_dir / "with_refinement" / "report.json"
        record = json.loads(path.read_text())
        *parents, last = key.split(".")
        node = record
        for part in parents:
            node = node[int(part)] if isinstance(node, list) else node[part]
        node[int(last) if isinstance(node, list) else last] = value
        path.write_text(json.dumps(record))
        for run in (path.parent, ablation_dir):
            self._rejected(run, path, key, capsys)

    @pytest.mark.parametrize("key, misshape", [
        ("diagnostics.probability_histograms.counts",
         lambda d: d["probability_histograms"].update(counts=d["probability_histograms"]["counts"][:1])),
        ("diagnostics.probability_histograms.counts.1",
         lambda d: d["probability_histograms"]["counts"][1].pop()),
        ("diagnostics.pearson_correlation",
         lambda d: d["pearson_correlation"].append(d["pearson_correlation"][0])),
        ("diagnostics.pearson_correlation.0", lambda d: d["pearson_correlation"][0].pop()),
        ("diagnostics.fold_agreement.majority_counts",
         lambda d: d["fold_agreement"]["majority_counts"].update(x=1)),
        ("diagnostics.per_label_fold_std",
         lambda d: d.update(per_label_fold_std=d["per_label_fold_std"][:2])),
        ("diagnostics.fold_agreement.pair_agreement.0",
         lambda d: d["fold_agreement"].update(pair_agreement=[1, 2, 3])),
        ("diagnostics.fold_agreement.majority_counts",
         lambda d: d["fold_agreement"]["majority_counts"].update({"1": -1})),
        ("diagnostics.fold_agreement.majority_counts",
         lambda d: d["fold_agreement"]["majority_counts"].update({"1": "many"})),
    ], ids=["counts-one-row", "counts-short-row", "correlation-extra-row",
            "correlation-short-row", "majority-key-not-integer", "fold-std-two-entries",
            "pair-agreement-rows-numbers", "majority-count-negative", "majority-count-string"])
    def test_value_of_wrong_shape(self, ablation_dir, capsys, key, misshape):
        # report indexes these by label and bin: a wrong length must stop it
        # before any CSV is written, not part way through
        path = ablation_dir / "with_refinement" / "report.json"
        record = json.loads(path.read_text())
        misshape(record["diagnostics"])
        path.write_text(json.dumps(record))
        for run in (path.parent, ablation_dir):
            self._rejected(run, path, key, capsys)

    @pytest.mark.parametrize("value", [None, float("nan"), float("inf")],
                             ids=["null", "nan", "infinity"])
    def test_ablation_json_delta_null(self, ablation_dir, capsys, value):
        path = ablation_dir / "ablation.json"
        record = json.loads(path.read_text())
        record["delta"] = value
        path.write_text(json.dumps(record))
        self._rejected(ablation_dir, path, "delta", capsys)


class TestAblate:
    def test_ablate_and_report_print_the_arms_in_order(self, tiny_data, tiny_config,
                                                       tmp_path, capsys):
        rundir = tmp_path / "ab"
        assert cli_main(["ablate", "--data", str(tiny_data), "--config",
                         str(tiny_config), "--out", str(rundir)]) == 0
        out = capsys.readouterr().out
        record = json.loads((rundir / "ablation.json").read_text())
        sign = record["coupling_sign_summary"]
        arms = ("arm                macro_auc\n"
                f"with_refinement    {record['macro_auc_refined']:.6f}\n"
                f"no_refinement      {record['macro_auc_baseline']:.6f}\n"
                f"delta: {record['delta']:+.6f}\n")
        assert out == (f"ablation written to {rundir}\n" + arms
                       + f"learned couplings (|A| > 0.05): {sign['n_positive']} positive, "
                         f"{sign['n_negative']} negative, {sign['n_near_zero']} near zero\n")

        assert cli_main(["report", "--run", str(rundir)]) == 0
        tables = ""
        for arm in ("with_refinement", "no_refinement"):
            report = json.loads((rundir / arm / "report.json").read_text())
            tables += f"--- {arm}\nfold       best_epoch  macro_auc\n"
            tables += "".join(f"{f['fold']}          {f['best_epoch']:<11} "
                              f"{f['best_val_macro_auc']:.6f}\n" for f in report["folds"])
            tables += f"ensemble   (oof)       {report['ensemble']['auc']['macro_auc']:.6f}\n"
        assert capsys.readouterr().out == arms + tables


def _log_rows(rundir):
    return sum(len(log.read_text().splitlines()) - 1
               for log in rundir.glob("fold*_train_log.csv"))


class TestTimings:
    """`train` and `ablate` write the wall time of their phases and their
    optimizer steps to `timings.json`; `report.json` and `ablation.json`
    keep the bytes the library writes without it."""

    SECONDS = {"load_dataset_s", "train_s", "write_run_dir_s"}

    def _timings(self, rundir, steps):
        timings = json.loads((rundir / "timings.json").read_text())
        assert set(timings) == self.SECONDS | {"optimizer_steps", "steps_per_s"}
        assert all(isinstance(timings[k], float) and timings[k] > 0 for k in self.SECONDS)
        assert timings["optimizer_steps"] == steps > 0
        assert timings["steps_per_s"] == steps / timings["train_s"]

    def test_train(self, tiny_data, tiny_config, tmp_path):
        rundir = tmp_path / "run"
        assert cli_main(["train", "--data", str(tiny_data), "--config", str(tiny_config),
                         "--out", str(rundir)]) == 0
        self._timings(rundir, _log_rows(rundir))
        report = harness.run_experiment(load_dataset(tiny_data), load_config(tiny_config))
        harness.write_run_report(report, tmp_path / "lib")
        assert (rundir / "report.json").read_bytes() == (tmp_path / "lib" / "report.json").read_bytes()

    def test_ablate(self, tiny_data, tiny_config, tmp_path):
        rundir, lib = tmp_path / "ab", tmp_path / "lib"
        assert cli_main(["ablate", "--data", str(tiny_data), "--config", str(tiny_config),
                         "--out", str(rundir)]) == 0
        names = ("with_refinement", "no_refinement")
        self._timings(rundir, sum(_log_rows(rundir / name) for name in names))
        arms = harness.run_ablation(load_dataset(tiny_data), load_config(tiny_config))
        assert list(arms) == list(names)
        lib.mkdir()
        write_json(harness.ablation_record(arms), lib / "ablation.json")
        for name, report in arms.items():
            harness.write_run_report(report, lib / name)
        for name in ["ablation.json"] + [f"{name}/report.json" for name in names]:
            assert (rundir / name).read_bytes() == (lib / name).read_bytes(), name
        assert not (rundir / names[0] / "timings.json").exists()


class TestRunDirectory:
    """`train` and `ablate` write only into a new or empty directory, so a
    run directory never mixes the files of two runs."""

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_reused_out_exit_1_leaves_old_run(self, command, tiny_data, tiny_config,
                                              tmp_path, capsys):
        rundir = tmp_path / "run"
        assert cli_main(["ablate", "--data", str(tiny_data), "--config", str(tiny_config),
                         "--out", str(rundir)]) == 0
        before = {p: p.read_bytes() for p in rundir.rglob("*") if p.is_file()}
        capsys.readouterr()
        code = cli_main([command, "--data", str(tiny_data), "--config", str(tiny_config),
                         "--out", str(rundir)])
        assert code == 1
        assert str(rundir) in capsys.readouterr().err
        assert {p: p.read_bytes() for p in rundir.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_existing_file_rejected_before_loading_data(self, command, tiny_config,
                                                        tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("kept\n")
        code = cli_main([command, "--data", str(tmp_path / "missing.csv"), "--config",
                         str(tiny_config), "--out", str(out)])
        assert code == 1
        assert f"--out {out}" in capsys.readouterr().err
        assert out.read_text() == "kept\n"

    def test_empty_directory_accepted(self, tiny_data, tiny_config, tmp_path):
        rundir = tmp_path / "run"
        rundir.mkdir()
        assert cli_main(["train", "--data", str(tiny_data), "--config", str(tiny_config),
                         "--out", str(rundir)]) == 0
        assert (rundir / "report.json").exists()



class TestPlotCsvBytes:
    """The bytes of the plot CSVs `report --run` writes from a hand-made
    report.json: `csv` quoting, `\\r\\n` line ends, repr floats."""

    def test_bytes(self, tmp_path, capsys):
        doc = {
            "folds": [{"fold": 0, "best_epoch": 1, "best_val_macro_auc": 0.5},
                      {"fold": 1, "best_epoch": 2, "best_val_macro_auc": 0.75}],
            "ensemble": {"source": "oof", "auc": {"macro_auc": 0.625}},
            "label_names": ["a,b", "c"],
            "diagnostics": {
                "pearson_correlation": [[1.0, None], [None, 1.0]],
                "fold_agreement": {"majority_counts": {"2": 3, "1": 1},
                                   "pair_agreement": [[1.0, 0.1 + 0.2], [0.1 + 0.2, 1.0]]},
                "per_label_fold_std": [0.1, 0.0],
                "probability_histograms": {"bins": 2, "counts": [[1, 0], [0, 1]]},
            },
        }
        write_json(doc, tmp_path / "report.json")
        assert cli_main(["report", "--run", str(tmp_path)]) == 0
        capsys.readouterr()
        expected = {
            "pearson_correlation.csv": b'label,"a,b",c\r\n"a,b",1.0,\r\nc,,1.0\r\n',
            "fold_agreement.csv": b"majority_votes,cells\r\n1,1\r\n2,3\r\n",
            "fold_pair_agreement.csv":
                b"fold_a,fold_b,agreement_rate\r\n0,1,0.30000000000000004\r\n",
            "per_label_fold_std.csv": b'label,mean_std\r\n"a,b",0.1\r\nc,0.0\r\n',
            "probability_histograms.csv": (b'label,bin_low,bin_high,count\r\n'
                                           b'"a,b",0.0,0.5,1\r\n"a,b",0.5,1.0,0\r\n'
                                           b'c,0.0,0.5,0\r\nc,0.5,1.0,1\r\n'),
        }
        for name, data in expected.items():
            assert (tmp_path / name).read_bytes() == data, name

def _python(code: str) -> str:
    """Standard output of `code` run by a fresh interpreter on this package."""
    src = str(Path(coupled_labels.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120).stdout.strip()


class TestImportWeight:
    def test_cli_import_leaves_out_scipy_stats(self):
        # scipy.stats alone roughly doubles the import time and peak RSS of
        # every CLI stage; nothing on the CLI's import path may pull it in
        code = ("import sys, coupled_labels.cli; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
        assert _python(code) == "[]"

    def test_cli_import_leaves_out_scipy(self):
        # importing scipy.special, for its expit alone, took about 18 MiB of
        # every CLI stage's peak RSS and half of its start-up time; the
        # package's own expit gives the same bits from numpy
        code = ("import sys, coupled_labels.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert _python(code) == "[]"

    def test_cli_import_and_sharded_training_leave_out_pools(self, tmp_path):
        # multiprocessing.Pool and the concurrent.futures executors unpickle
        # results on helper threads, into a second malloc arena (+2.9 MiB
        # peak RSS on the default workload); the training engine's and the
        # CSV writer's forked workers answer through plain pipes read by the
        # main thread. numpy.testing imports concurrent.futures, and nothing
        # on the CLI's import path imports numpy.testing.
        code = f"""
import sys
import numpy as np
import coupled_labels.cli
from coupled_labels import datamodel, harness
from coupled_labels.datamodel import Dataset, config_from_dict, load_dataset, save_dataset

POOLS = ("multiprocessing.pool", "concurrent.futures", "concurrent.futures.thread",
         "concurrent.futures.process")
print(sorted(m for m in sys.modules if m in POOLS))
datamodel._usable_cpus = lambda: 2
datamodel._SAVE_BLOCK_ROWS = datamodel._LOAD_BLOCK_ROWS = 8
rng = np.random.default_rng(0)
x, y = rng.normal(size=(40, 3)), np.tile([[0.0, 1.0], [1.0, 0.0]], (20, 1))
save_dataset(Dataset(features=x, labels=y, label_names=["a", "b"]), {str(tmp_path / "d.csv")!r})
assert load_dataset({str(tmp_path / "d.csv")!r}).features.tobytes() == x.tobytes()
rows = np.arange(40)
cfg = config_from_dict({{"epochs": 2, "batch_size": 8}})
runs = [(k, np.roll(rows, 10 * k)[:30], np.roll(rows, 10 * k)[30:], cfg) for k in range(2)]
harness.train_folds(x, y, runs)
print(sorted(m for m in sys.modules if m in POOLS))
"""
        assert _python(code).splitlines() == ["[]", "[]"]
