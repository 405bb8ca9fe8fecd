import dataclasses
import json
import multiprocessing
import os
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coupled_labels import datamodel
from coupled_labels.datamodel import (
    ConfigError,
    CoupledLabelsError,
    DataFormatError,
    Dataset,
    ExperimentConfig,
    config_from_dict,
    load_config,
    load_dataset,
    save_config,
    save_dataset,
    validate_config,
)
from helpers import reference_load_dataset, reference_save_dataset, time_limit


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadDataset:
    def test_basic_parse(self, tmp_path):
        path = write(tmp_path, "a,b,label:x,label:y\n1.5,2.0,1,0\n0.25,-1,0,0\n3,4,1,1\n")
        ds = load_dataset(path)
        assert ds.n_examples == 3 and ds.n_features == 2 and ds.n_labels == 2
        assert ds.label_names == ["x", "y"]
        np.testing.assert_array_equal(ds.labels, [[1, 0], [0, 0], [1, 1]])
        np.testing.assert_array_equal(ds.features[0], [1.5, 2.0])

    def test_nonbinary_label_names_row_and_column(self, tmp_path):
        path = write(tmp_path, "a,label:x,label:y\n1,0,1\n2,2,0\n")
        with pytest.raises(DataFormatError) as exc:
            load_dataset(path)
        assert "row 1" in str(exc.value) and "label:x" in str(exc.value)

    def test_float_label_rejected(self, tmp_path):
        path = write(tmp_path, "a,label:x,label:y\n1,1.0,0\n")
        with pytest.raises(DataFormatError):
            load_dataset(path)

    def test_inconsistent_column_count(self, tmp_path):
        path = write(tmp_path, "a,label:x,label:y\n1,0,1\n2,1\n")
        with pytest.raises(DataFormatError) as exc:
            load_dataset(path)
        assert "row 1" in str(exc.value)

    def test_bad_feature_value(self, tmp_path):
        path = write(tmp_path, "a,label:x,label:y\noops,0,1\n")
        with pytest.raises(DataFormatError) as exc:
            load_dataset(path)
        assert "row 0" in str(exc.value)

    def test_missing_label_columns(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(DataFormatError):
            load_dataset(path)

    def test_feature_after_label_rejected(self, tmp_path):
        path = write(tmp_path, "a,label:x,b,label:y\n1,0,2,1\n")
        with pytest.raises(DataFormatError):
            load_dataset(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataFormatError):
            load_dataset(tmp_path / "absent.csv")

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_round_trip_bit_exact(self, tmp_path, data):
        n = data.draw(st.integers(1, 6))
        d = data.draw(st.integers(1, 4))
        length = data.draw(st.integers(2, 4))
        feats = np.array(
            data.draw(
                st.lists(
                    st.lists(
                        st.floats(allow_nan=False, allow_infinity=False, width=64),
                        min_size=d, max_size=d),
                    min_size=n, max_size=n)
            ),
            dtype=np.float64,
        )
        labels = np.array(
            data.draw(st.lists(st.lists(st.sampled_from([0.0, 1.0]),
                                        min_size=length, max_size=length),
                               min_size=n, max_size=n)),
            dtype=np.float64,
        )
        ds = Dataset(features=feats, labels=labels,
                     label_names=[f"l{i}" for i in range(length)])
        path = tmp_path / "rt.csv"
        # every example shares tmp_path; writing a fresh file instead of
        # truncating the last example's can be far cheaper on ext4
        path.unlink(missing_ok=True)
        save_dataset(ds, path)
        back = load_dataset(path)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.label_names == ds.label_names


def load_outcome(loader, path):
    """What a loader makes of a file: its error text, or the dataset as bits."""
    try:
        ds = loader(path)
    except DataFormatError as exc:
        return ("error", str(exc))
    return ("ok", ds.features.shape, ds.features.view(np.uint64).tolist(),
            ds.labels.view(np.uint64).tolist(), ds.label_names)


finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def datasets(draw):
    """Small datasets with all-zero label rows and repeated rows likely."""
    d = draw(st.integers(1, 4))
    n_labels = draw(st.integers(2, 4))
    base = draw(st.lists(
        st.tuples(st.lists(finite_floats, min_size=d, max_size=d),
                  st.lists(st.sampled_from([0.0, 1.0]), min_size=n_labels,
                           max_size=n_labels)),
        min_size=1, max_size=5))
    rows = draw(st.lists(st.sampled_from(base), min_size=1, max_size=10))
    return Dataset(features=np.array([f for f, _ in rows], dtype=np.float64),
                   labels=np.array([y for _, y in rows], dtype=np.float64),
                   label_names=[f"l{i}" for i in range(n_labels)])


# Cells that a plain writer never emits, next to the ones it does: the loader
# must treat each exactly as the row loop does.
odd_cells = st.sampled_from([
    "", " 1", "1 ", '"1"', '"0.5"', "#1", "1.0", "0.0", "2", "01", "+1", "-0",
    "1e0", "nan", "inf", "-inf", "1e999", "1_0", "0x1", ".", "e", "1,0",
])
line_ends = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def near_plain_csv(draw):
    """CSV text made mostly of valid rows, with odd cells, ragged rows,
    blank lines and mixed line ends mixed in."""
    d = draw(st.integers(1, 3))
    n_labels = draw(st.integers(2, 3))
    header = ",".join([f"f{i}" for i in range(d)] + [f"label:y{i}" for i in range(n_labels)])
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.integers(0, 9)) == 0:
            lines.append("")
            continue
        cells = [repr(draw(finite_floats)) for _ in range(d)]
        cells += [draw(st.sampled_from(["0", "1"])) for _ in range(n_labels)]
        if draw(st.integers(0, 2)) == 0:
            cells[draw(st.integers(0, len(cells) - 1))] = draw(odd_cells)
        if draw(st.integers(0, 9)) == 0:
            cells = cells[:-1] if draw(st.booleans()) else cells + ["0"]
        lines.append(",".join(cells))
    text = header + "\n"
    for line in lines:
        text += line + draw(line_ends)
    if lines and draw(st.booleans()):
        text = text[:-1] if text.endswith("\n") or text.endswith("\r") else text
    return text


# Odd data rows under the header 'a,label:x,label:y', most of them not plain:
# the loader must treat each as the row loop does.
MALFORMED_BODIES = [
    pytest.param("1.5,0,1\n2,1\n", id="ragged-row"),
    pytest.param("1.5,0,1\n2,1,0,1\n", id="extra-cell"),
    pytest.param("1.5,2.5,0,1\n", id="extra-cell-every-row"),
    pytest.param("1.5,0,1\n\n2,1,0\n", id="blank-line"),
    pytest.param("1.5,0,1\n2,1,0\n\n", id="trailing-blank-line"),
    pytest.param("\n1.5,0,1\n", id="leading-blank-line"),
    pytest.param('"1.5",0,1\n', id="quoted-numeric-cell"),
    pytest.param('1.5,"1",0\n', id="quoted-label-cell"),
    pytest.param("#1.5,0,1\n", id="hash-prefixed-cell"),
    pytest.param("1.5,0,#1\n", id="hash-prefixed-label"),
    pytest.param(" 1.5 ,0,1\n", id="whitespace-padded-feature"),
    pytest.param("1.5, 0,1\n", id="whitespace-padded-label"),
    pytest.param("1.5,1.0,0\n", id="label-1.0"),
    pytest.param("1.5,0,2\n", id="label-2"),
    pytest.param("1.5,,0\n", id="label-empty"),
    pytest.param('1.5,"",0\n', id="label-quoted-empty"),
    pytest.param("1.5,01,0\n", id="label-01"),
    pytest.param("1.5,+1,0\n", id="label-plus-1"),
    pytest.param(",0,1\n", id="feature-empty"),
    pytest.param("1.5,0,1,\n", id="trailing-comma"),
    pytest.param("inf,0,1\n", id="non-finite-feature-inf"),
    pytest.param("nan,0,1\n", id="non-finite-feature-nan"),
    pytest.param("1e999,0,1\n", id="overflowing-feature"),
    pytest.param("1_000,0,1\n", id="underscore-feature"),
    pytest.param("١,0,1\n", id="non-ascii-digit-feature"),
    pytest.param("1.5,0,1\r2,1,0\r", id="lone-cr-line-ends"),
    pytest.param("1.5,0,1\r\n2,1,0", id="crlf-no-final-newline"),
    pytest.param("1.5,0,1\n2,1,0\r", id="final-lone-cr"),
    pytest.param("", id="header-only"),
    pytest.param("oops,0,1\n", id="bad-feature"),
]


class TestMatchesRowLoopReference:
    """save_dataset/load_dataset against the row loops in tests/helpers.py."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(datasets())
    def test_save_byte_identical_and_load_bit_identical(self, tmp_path, ds):
        ref_path, path = tmp_path / "ref.csv", tmp_path / "new.csv"
        ref_path.unlink(missing_ok=True)
        path.unlink(missing_ok=True)
        reference_save_dataset(ds, ref_path)
        save_dataset(ds, path)
        assert path.read_bytes() == ref_path.read_bytes()
        assert load_outcome(load_dataset, path) == load_outcome(reference_load_dataset, path)
        back = load_dataset(path)
        assert back.features.flags.c_contiguous and back.labels.flags.c_contiguous
        np.testing.assert_array_equal(back.features.view(np.uint64),
                                      ds.features.view(np.uint64))

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(near_plain_csv())
    def test_same_outcome_on_near_plain_text(self, tmp_path, text):
        path = tmp_path / "fuzz.csv"
        path.unlink(missing_ok=True)
        path.write_bytes(text.encode())
        assert load_outcome(load_dataset, path) == load_outcome(reference_load_dataset, path)

    def test_several_blocks(self, tmp_path):
        rng = np.random.default_rng(4)
        n = 2 * max(datamodel._SAVE_BLOCK_ROWS, datamodel._LOAD_BLOCK_ROWS) + 3
        ds = Dataset(features=rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-300, 300, (n, 3)),
                     labels=(rng.random((n, 2)) < 0.5).astype(np.float64),
                     label_names=["a", "b"])
        ref_path, path = tmp_path / "ref.csv", tmp_path / "new.csv"
        reference_save_dataset(ds, ref_path)
        save_dataset(ds, path)
        assert path.read_bytes() == ref_path.read_bytes()
        assert load_outcome(load_dataset, path) == load_outcome(reference_load_dataset, path)
        # a bad cell in the last block is named by its row, as by the row loop
        lines = path.read_bytes().split(b"\r\n")
        lines[n - 1] = lines[n - 1][:-1] + b"2"
        path.write_bytes(b"\r\n".join(lines))
        outcome = load_outcome(load_dataset, path)
        assert outcome == load_outcome(reference_load_dataset, path)
        assert f"row {n - 2}" in outcome[1]

    @pytest.mark.parametrize("body", MALFORMED_BODIES)
    def test_malformed_input_matches_reference(self, tmp_path, body):
        path = tmp_path / "bad.csv"
        path.write_bytes(("a,label:x,label:y\n" + body).encode())
        assert load_outcome(load_dataset, path) == load_outcome(reference_load_dataset, path)

    @pytest.mark.parametrize("header,body", [
        pytest.param("label:x,label:y", "0,1\n", id="no-feature-columns"),
        pytest.param("a,label:x", "1.5,0\n", id="single-label"),
        pytest.param("a,label:x,label:y", "1.5,0,1\n" * 3, id="plain"),
    ])
    def test_dataset_errors_match_reference(self, tmp_path, header, body):
        path = tmp_path / "shape.csv"
        path.write_bytes((header + "\n" + body).encode())
        assert load_outcome(load_dataset, path) == load_outcome(reference_load_dataset, path)


def scaled_dataset(n, seed=0):
    """n rows of 3 features spread over most float64 exponents, 2 labels."""
    rng = np.random.default_rng(seed)
    return Dataset(features=rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-300, 300, (n, 3)),
                   labels=(rng.random((n, 2)) < 0.5).astype(np.float64),
                   label_names=["a", "b"])


@pytest.fixture
def tiny_blocks(monkeypatch):
    """Blocks of 2 rows and line counts 7 bytes at a time, so that tiny
    files cross range, block and chunk bounds; returns a setter for the
    usable CPUs."""
    monkeypatch.setattr(datamodel, "_SAVE_BLOCK_ROWS", 2)
    monkeypatch.setattr(datamodel, "_LOAD_BLOCK_ROWS", 2)
    monkeypatch.setattr(datamodel, "_COUNT_CHUNK_BYTES", 7)
    return lambda cpus: monkeypatch.setattr(datamodel, "_usable_cpus", lambda: cpus)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the CSV path splits across processes only where it can fork")
class TestRangesAcrossProcesses:
    """save_dataset/load_dataset with the rows cut into one range per
    process: the same bytes, bits and errors as the row loops for W = 1, 2, 3."""

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("n", [5, 6, 13])
    def test_same_bytes_and_bits_as_reference(self, tmp_path, tiny_blocks, cpus, n):
        tiny_blocks(cpus)
        ds = scaled_dataset(n, seed=n)
        ref_path, path = tmp_path / "ref.csv", tmp_path / "new.csv"
        reference_save_dataset(ds, ref_path)
        save_dataset(ds, path)
        assert path.read_bytes() == ref_path.read_bytes()
        assert load_outcome(load_dataset, path) == load_outcome(reference_load_dataset, path)
        path.write_bytes(ref_path.read_bytes().replace(b"\r\n", b"\n"))
        assert load_outcome(load_dataset, path) == load_outcome(reference_load_dataset, path)

    @pytest.mark.parametrize("body", MALFORMED_BODIES)
    def test_malformed_last_range_named_as_in_one_process(self, tmp_path, tiny_blocks, body):
        # 12 plain rows, then the odd ones: with 2 ranges of at most 15
        # rows, the last range starts by row 7
        path = tmp_path / "bad.csv"
        path.write_bytes(("a,label:x,label:y\n" + "0.5,1,0\n" * 12 + body).encode())
        outcomes = []
        for cpus in (1, 2):
            tiny_blocks(cpus)
            outcomes.append(load_outcome(load_dataset, path))
        assert outcomes[0] == outcomes[1] == load_outcome(reference_load_dataset, path)

    def test_forks_only_with_a_block_per_worker(self, tmp_path, tiny_blocks, monkeypatch):
        forks, forked = [], datamodel.forked

        def counting(targets):
            forks.append(len(targets))
            return forked(targets)

        monkeypatch.setattr(datamodel, "forked", counting)
        path = tmp_path / "d.csv"
        for cpus, n in [(4, 3), (1, 13), (3, 13)]:
            tiny_blocks(cpus)
            save_dataset(scaled_dataset(n), path)
            load_dataset(path)
        assert forks == [0, 0, 0, 0, 2, 2]

    @pytest.mark.parametrize("fail, message", [
        ("raise", "worker for part 2 failed: OSError: disk gone"),
        ("exit", "worker for part 1 exited with code 3 without its result"),
    ])
    def test_worker_failure_raises_and_leaves_nothing(self, tmp_path, tiny_blocks, monkeypatch,
                                                       fail, message):
        tiny_blocks(3)
        path = tmp_path / "d.csv"
        save_dataset(scaled_dataset(13), path)
        parent, read = os.getpid(), datamodel._read_plain_rows
        half = path.stat().st_size // 2   # ranges 1 and 2 start before and after it

        def failing(path, start, features, labels):
            if os.getpid() != parent:
                if fail == "exit":
                    os._exit(3)
                if start > half:
                    raise OSError("disk gone")
            return read(path, start, features, labels)

        monkeypatch.setattr(datamodel, "_read_plain_rows", failing)
        threads = threading.active_count()
        with time_limit(60), pytest.raises(CoupledLabelsError, match=message):
            load_dataset(path)
        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads


class TestJsonFiles:
    def test_write_then_read(self, tmp_path):
        path = tmp_path / "x.json"
        obj = {"b": [1, 2.5], "a": {"d": None, "c": "\u00e9"}}
        datamodel.write_json(obj, path)
        assert path.read_text() == json.dumps(obj, indent=2, sort_keys=True) + "\n"
        assert datamodel.read_json(path) == obj

    @pytest.mark.parametrize("content", [b'{"K": 2\xff}', b'{"K": 2', b""],
                             ids=["byte-0xff", "truncated", "empty"])
    def test_unreadable_names_file(self, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        with pytest.raises(CoupledLabelsError, match="bad.json: not a UTF-8 JSON file"):
            datamodel.read_json(path)


class TestDatasetInvariants:
    def test_row_mismatch(self):
        with pytest.raises(DataFormatError):
            Dataset(np.zeros((3, 2)), np.zeros((2, 2)), ["a", "b"])

    def test_single_label_rejected(self):
        with pytest.raises(DataFormatError):
            Dataset(np.zeros((3, 2)), np.zeros((3, 1)), ["a"])

    def test_nonbinary_rejected(self):
        with pytest.raises(DataFormatError):
            Dataset(np.zeros((2, 2)), np.array([[0.0, 0.5], [1.0, 0.0]]), ["a", "b"])

    def test_label_name_count(self):
        with pytest.raises(DataFormatError):
            Dataset(np.zeros((2, 2)), np.zeros((2, 2)), ["a"])


class TestConfig:
    def test_default_values(self):
        cfg = config_from_dict({})
        assert cfg.K == 3
        assert cfg.alpha == 0.3
        assert cfg.lambda_l1 == 1e-3
        assert cfg.loss_kind == "ASL"
        assert cfg.asl.gamma_pos == 0.0
        assert cfg.asl.gamma_neg == 4.0
        assert cfg.asl.clip == 0.05
        assert cfg.lr == 2e-4
        assert cfg.weight_decay == 1e-4
        assert cfg.batch_size == 24
        assert cfg.epochs == 3
        assert cfg.patience == 3
        assert cfg.ema_decay == 0.999
        assert cfg.grad_clip_norm == 1.0
        assert cfg.refinement_enabled is True

    def test_defaulting_idempotent(self):
        cfg = config_from_dict({"K": 5, "lr": 1e-3})
        assert validate_config(validate_config(cfg)) == cfg
        assert config_from_dict(cfg.to_json_dict()) == cfg

    @pytest.mark.parametrize("patch", [
        {"K": 1},
        {"ema_decay": 1.0},
        {"ema_decay": 0.0},
        {"alpha": -0.1},
        {"lambda_l1": -1e-9},
        {"asl": {"clip": 1.0}},
        {"asl": {"gamma_neg": -1.0}},
        {"grad_clip_norm": 0.0},
        {"lr": 0.0},
        {"loss_kind": "focal"},
        {"batch_size": 0},
        {"patience": 0},
        {"refinement_enabled": "false"},
        {"grad_clip_norm": float("nan")},
        {"alpha": float("inf")},
        {"lr": "0.01"},
        {"alpha": None},
        {"lr": float("nan")},
        {"epochs": True},
        {"seed": -1},
    ])
    def test_invariant_violations(self, patch):
        with pytest.raises(ConfigError) as exc:
            config_from_dict(patch)
        field = next(iter(patch))
        assert field in str(exc.value)

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError) as exc:
            config_from_dict({"learning_rate": 1e-3})
        assert "learning_rate" in str(exc.value)

    def test_unknown_asl_field_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"asl": {"gamma": 2.0}})

    def test_json_field_names(self):
        d = ExperimentConfig().to_json_dict()
        assert set(d) == {
            "K", "alpha", "lambda_l1", "loss_kind", "asl", "lr", "weight_decay",
            "batch_size", "epochs", "patience",
            "ema_decay", "grad_clip_norm", "seed", "refinement_enabled",
        }
        assert set(d["asl"]) == {"gamma_pos", "gamma_neg", "clip"}

    def test_json_round_trip(self, tmp_path):
        cfg = dataclasses.replace(ExperimentConfig(), K=4, seed=17,
                                  loss_kind="WeightedBCE")
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        assert load_config(path) == cfg
        raw = json.loads(path.read_text())
        assert raw["K"] == 4 and raw["loss_kind"] == "WeightedBCE"
