import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

import coupled_labels
from coupled_labels.cli import cli_main
from coupled_labels.datamodel import Dataset, save_dataset
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


class TestAblate:
    def test_ablate_writes_comparison(self, tiny_data, tiny_config, tmp_path, capsys):
        rundir = tmp_path / "ab"
        assert cli_main(["ablate", "--data", str(tiny_data), "--config",
                         str(tiny_config), "--out", str(rundir)]) == 0
        out = capsys.readouterr().out
        assert "with_refinement" in out and "no_refinement" in out
        comparison = json.loads((rundir / "ablation.json").read_text())
        assert {"macro_auc_refined", "macro_auc_baseline", "delta"} <= set(comparison)
        assert (rundir / "with_refinement" / "report.json").exists()
        assert (rundir / "no_refinement" / "report.json").exists()

        assert cli_main(["report", "--run", str(rundir)]) == 0
        out = capsys.readouterr().out
        assert "delta" in out


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

    def test_cli_import_and_sharded_training_leave_out_pools(self, tmp_path):
        # multiprocessing.Pool and the concurrent.futures executors unpickle
        # results on helper threads, into a second malloc arena (+2.9 MiB
        # peak RSS on the default workload); the training engine's and the
        # CSV path's forked workers answer through plain pipes read by the
        # main thread. The concurrent.futures package itself comes with
        # scipy's import of numpy.testing and starts nothing.
        code = f"""
import sys
import numpy as np
import coupled_labels.cli
from coupled_labels import datamodel, harness
from coupled_labels.datamodel import Dataset, config_from_dict, load_dataset, save_dataset

POOLS = ("multiprocessing.pool", "concurrent.futures.thread", "concurrent.futures.process")
print(sorted(m for m in sys.modules if m in POOLS))
datamodel._usable_cpus = lambda: 2
datamodel._SAVE_BLOCK_ROWS = datamodel._LOAD_BLOCK_ROWS = 8
rng = np.random.default_rng(0)
x, y = rng.normal(size=(40, 3)), np.tile([[0.0, 1.0], [1.0, 0.0]], (20, 1))
save_dataset(Dataset(features=x, labels=y, label_names=["a", "b"]), {str(tmp_path / "d.csv")!r})
assert load_dataset({str(tmp_path / "d.csv")!r}).features.tobytes() == x.tobytes()
rows = np.arange(40)
runs = [(k, k, np.roll(rows, 10 * k)[:30], np.roll(rows, 10 * k)[30:], True) for k in range(2)]
harness.train_folds(x, y, runs, config_from_dict({{"epochs": 2, "batch_size": 8}}))
print(sorted(m for m in sys.modules if m in POOLS))
"""
        assert _python(code).splitlines() == ["[]", "[]"]
