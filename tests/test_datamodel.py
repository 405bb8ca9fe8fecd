import dataclasses
import hashlib
import json
import multiprocessing
import os
import threading
import tracemalloc
from pathlib import Path

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


def without_sidecar(path):
    """``path`` after deleting the sidecar `save_dataset` wrote beside it,
    so that loading it parses the CSV."""
    datamodel._sidecar_path(Path(path)).unlink()
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
        via_sidecar = load_outcome(load_dataset, path)
        assert via_sidecar == load_outcome(load_dataset, without_sidecar(path))
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


# Odd data rows under the header 'a,label:x,label:y', most of them not what
# `save_dataset` writes: the loader must treat each as the row loop does.
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
        expected = load_outcome(reference_load_dataset, path)
        # through the sidecar, then through the parser
        for sidecar in (True, False):
            if not sidecar:
                without_sidecar(path)
            assert load_outcome(load_dataset, path) == expected
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
        expected = load_outcome(reference_load_dataset, path)
        assert load_outcome(load_dataset, path) == expected
        assert load_outcome(load_dataset, without_sidecar(path)) == expected
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

    def test_parse_peak_below_three_times_the_arrays(self, tmp_path):
        # the benchmark's 20 x 14 columns; Python lists of every row peak
        # at about 4.5 times the arrays' bytes
        rng = np.random.default_rng(0)
        ds = Dataset(features=rng.normal(size=(20_000, 20)),
                     labels=(rng.random((20_000, 14)) < 0.2).astype(np.float64),
                     label_names=[f"l{i}" for i in range(14)])
        path = tmp_path / "d.csv"
        save_dataset(ds, path)
        without_sidecar(path)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            back = load_dataset(path)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(back.features, ds.features)
        assert peak < 3 * (ds.features.nbytes + ds.labels.nbytes)

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
    """Blocks of 2 rows and digest reads of 7 bytes, so that tiny files
    cross range, block and chunk bounds; returns a setter for the usable
    CPUs."""
    monkeypatch.setattr(datamodel, "_SAVE_BLOCK_ROWS", 2)
    monkeypatch.setattr(datamodel, "_LOAD_BLOCK_ROWS", 2)
    monkeypatch.setattr(datamodel, "_COUNT_CHUNK_BYTES", 7)
    return lambda cpus: monkeypatch.setattr(datamodel, "_usable_cpus", lambda: cpus)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the CSV writer splits across processes only where it can fork")
class TestRangesAcrossProcesses:
    """save_dataset with the rows cut into one range per process: the same
    bytes as the row-loop writer for W = 1, 2, 3, and the same bits and
    errors when loaded."""

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("n", [5, 6, 13])
    def test_same_bytes_and_bits_as_reference(self, tmp_path, tiny_blocks, cpus, n):
        tiny_blocks(cpus)
        ds = scaled_dataset(n, seed=n)
        ref_path, path = tmp_path / "ref.csv", tmp_path / "new.csv"
        reference_save_dataset(ds, ref_path)
        save_dataset(ds, path)
        assert path.read_bytes() == ref_path.read_bytes()
        expected = load_outcome(reference_load_dataset, path)
        assert load_outcome(load_dataset, path) == expected
        assert load_outcome(load_dataset, without_sidecar(path)) == expected
        path.write_bytes(ref_path.read_bytes().replace(b"\r\n", b"\n"))
        assert load_outcome(load_dataset, path) == load_outcome(reference_load_dataset, path)

    @pytest.mark.parametrize("body", MALFORMED_BODIES)
    def test_malformed_last_range_named_as_in_one_process(self, tmp_path, tiny_blocks, body):
        # 12 plain rows make six full blocks of the row loop before the odd
        # ones; a load parses in this process whatever the usable CPUs
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
            load_dataset(without_sidecar(path))
        # only the saves fork: a load parses in this process
        assert forks == [0, 0, 2]

    @pytest.mark.parametrize("fail, message", [
        ("raise", "worker for part 2 failed: OSError: disk gone"),
        ("exit", "worker for part 1 exited with code 3 without its result"),
    ])
    def test_worker_failure_raises_and_leaves_nothing(self, tmp_path, tiny_blocks, monkeypatch,
                                                       fail, message):
        tiny_blocks(3)
        path = tmp_path / "d.csv"
        parent, split_work = os.getpid(), datamodel.split_work

        def failing_split(work, n_parts):
            def failing(part):
                if os.getpid() != parent:
                    if fail == "exit":
                        os._exit(3)
                    if part == 2:
                        raise OSError("disk gone")
                return work(part)
            return split_work(failing, n_parts)

        threads = threading.active_count()

        def save_failing():
            with monkeypatch.context() as patch:
                patch.setattr(datamodel, "split_work", failing_split)
                with time_limit(60), pytest.raises(CoupledLabelsError, match=message):
                    save_dataset(scaled_dataset(13), path)
            assert multiprocessing.active_children() == []
            assert threading.active_count() == threads

        save_failing()
        assert files_in(tmp_path) == {}
        save_dataset(scaled_dataset(12), path)
        before = files_in(tmp_path)
        save_failing()
        assert files_in(tmp_path) == before
        assert load_outcome(load_dataset, path)[2] == scaled_dataset(12).features.view(
            np.uint64).tolist()


TINY = 2.2250738585072014e-308   # the smallest normal float64
HUGE = 1.7976931348623157e308    # the largest float64


def special_dataset(n):
    """n rows of 3 features: first -0.0, a subnormal and -max, then the
    other signed zeros, subnormals and extremes and signed values of every
    tenth exponent from -300 to 300."""
    rng = np.random.default_rng(n)
    values = [-0.0, 5e-324, -HUGE, 0.0, -5e-324, TINY / 3, -TINY / 7, TINY, HUGE]
    values += [rng.choice([-1, 1]) * rng.uniform(1, 10) * 10.0 ** e for e in range(-300, 301, 10)]
    cells = np.resize(np.array(values), 3 * n).reshape(n, 3)
    return Dataset(features=cells, labels=(rng.random((n, 2)) < 0.5).astype(np.float64),
                   label_names=["a", "b"])


@pytest.fixture
def parser_calls(monkeypatch):
    """The list of paths `load_dataset` handed to the CSV parser."""
    calls, parse = [], datamodel._read_csv_rows

    def counting(reader, path, *args):
        calls.append(path)
        return parse(reader, path, *args)

    monkeypatch.setattr(datamodel, "_read_csv_rows", counting)
    return calls


def f64_bytes(arr):
    return arr.astype("<f8").tobytes()


def files_in(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir() if p.is_file()}


def _truncate(sidecar, ds):
    sidecar.write_bytes(sidecar.read_bytes()[:-1])


def _trailing_byte(sidecar, ds):
    sidecar.write_bytes(sidecar.read_bytes() + b"\0")


def _trailing_row(sidecar, ds):
    sidecar.write_bytes(sidecar.read_bytes() + bytes(8 * (ds.n_features + ds.n_labels)))


def _extra_column(sidecar, ds):
    line = sidecar.read_bytes().split(b"\n")[0] + b"\n"
    features = np.hstack([ds.features, ds.features[:, :1]])
    sidecar.write_bytes(line + f64_bytes(features) + f64_bytes(ds.labels))


def _garbage_line(sidecar, ds):
    data = sidecar.read_bytes()
    sidecar.write_bytes(b"x" * 71 + b"\n" + data[72:])


def _other_digest(sidecar, ds):
    data = sidecar.read_bytes()
    sidecar.write_bytes(b"sha256 " + b"0" * 64 + b"\n" + data[72:])


def _empty(sidecar, ds):
    sidecar.write_bytes(b"")


def _directory(sidecar, ds):
    sidecar.unlink()
    sidecar.mkdir()


class TestSidecar:
    """`save_dataset` leaves `<csv>.f64` beside the CSV; `load_dataset`
    reads the arrays from it while it matches the CSV's bytes, and parses
    the CSV otherwise, with the same bits and the same errors."""

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("n", [1, 24])
    def test_same_bits_as_parser(self, tmp_path, tiny_blocks, parser_calls, cpus, n):
        tiny_blocks(cpus)
        ds = special_dataset(n)
        path = tmp_path / "d.csv"
        save_dataset(ds, path)
        via_sidecar = load_outcome(load_dataset, path)
        assert parser_calls == []
        assert via_sidecar[2] == ds.features.view(np.uint64).tolist()
        assert via_sidecar[3] == ds.labels.view(np.uint64).tolist()
        assert via_sidecar == load_outcome(load_dataset, without_sidecar(path))
        assert parser_calls == [path]
        assert via_sidecar == load_outcome(reference_load_dataset, path)

    def test_layout(self, tmp_path):
        ds = scaled_dataset(7)
        path = tmp_path / "d.csv"
        save_dataset(ds, path)
        data = (tmp_path / "d.csv.f64").read_bytes()
        line = b"sha256 " + hashlib.sha256(path.read_bytes()).hexdigest().encode() + b"\n"
        assert data == line + f64_bytes(ds.features) + f64_bytes(ds.labels)
        assert sorted(files_in(tmp_path)) == ["d.csv", "d.csv.f64"]

    def test_one_byte_edit_falls_back_to_parser(self, tmp_path, parser_calls):
        ds = scaled_dataset(6)
        path = tmp_path / "d.csv"
        save_dataset(ds, path)
        sidecar = (tmp_path / "d.csv.f64").read_bytes()
        lines = path.read_bytes().split(b"\r\n")
        # flip the last label of row 1: the same size, still a valid file
        lines[2] = lines[2][:-1] + (b"1" if lines[2].endswith(b"0") else b"0")
        path.write_bytes(b"\r\n".join(lines))
        outcome = load_outcome(load_dataset, path)
        assert outcome == load_outcome(reference_load_dataset, path)
        assert outcome[3] != ds.labels.view(np.uint64).tolist()
        assert parser_calls == [path]
        # the last label of row 3: still named by row and column
        lines[4] = lines[4][:-1] + b"2"
        path.write_bytes(b"\r\n".join(lines))
        with pytest.raises(DataFormatError, match=r"row 3, column 'label:b': label value '2'"):
            load_dataset(path)
        assert load_outcome(load_dataset, path) == load_outcome(reference_load_dataset, path)
        assert (tmp_path / "d.csv.f64").read_bytes() == sidecar

    @pytest.mark.parametrize("spoil", [_truncate, _trailing_byte, _trailing_row, _extra_column,
                                       _garbage_line, _other_digest, _empty, _directory])
    def test_bad_sidecar_falls_back_to_parser(self, tmp_path, parser_calls, spoil):
        # 10 rows of 5 cells: a sidecar with an extra column has the size
        # of 12 rows with 5, so only the CSV's line count rejects it
        ds = scaled_dataset(10)
        path = tmp_path / "d.csv"
        save_dataset(ds, path)
        spoil(tmp_path / "d.csv.f64", ds)
        before = files_in(tmp_path)
        outcome = load_outcome(load_dataset, path)
        assert outcome == load_outcome(reference_load_dataset, path)
        assert outcome[2] == ds.features.view(np.uint64).tolist()
        assert parser_calls == [path]
        assert files_in(tmp_path) == before

    @pytest.mark.parametrize("body", MALFORMED_BODIES)
    def test_bad_csv_beside_a_sidecar_keeps_its_error(self, tmp_path, body):
        # 6 rows of 5 cells in the sidecar pass for 10 rows of the 3 cells
        # of this header, so the digest decides
        path = tmp_path / "bad.csv"
        save_dataset(scaled_dataset(6), path)
        path.write_bytes(("a,label:x,label:y\n" + body).encode())
        assert load_outcome(load_dataset, path) == load_outcome(reference_load_dataset, path)

    def test_no_digest_without_a_usable_sidecar(self, tmp_path, monkeypatch):
        digests, digest = [], datamodel._digest_line
        monkeypatch.setattr(datamodel, "_digest_line",
                            lambda path, **kw: digests.append(path) or digest(path, **kw))
        path = tmp_path / "d.csv"
        save_dataset(scaled_dataset(6), path)
        digests.clear()
        load_dataset(path)
        assert digests == [path]
        _garbage_line(tmp_path / "d.csv.f64", None)
        load_dataset(path)
        assert digests == [path]
        load_dataset(without_sidecar(path))
        assert digests == [path]

    def test_load_creates_no_file(self, tmp_path):
        path = tmp_path / "d.csv"
        save_dataset(scaled_dataset(6), path)
        for change in (None, _other_digest, _empty):
            if change is not None:
                change(tmp_path / "d.csv.f64", None)
            before = files_in(tmp_path)
            load_dataset(path)
            assert files_in(tmp_path) == before
        before = files_in(without_sidecar(path).parent)
        load_dataset(path)
        assert files_in(tmp_path) == before

    def test_no_temporary_file_left(self, tmp_path, monkeypatch):
        path = tmp_path / "d.csv"
        save_dataset(scaled_dataset(6), path)
        save_dataset(scaled_dataset(7), path)
        assert sorted(files_in(tmp_path)) == ["d.csv", "d.csv.f64"]
        assert load_outcome(load_dataset, path)[2] == scaled_dataset(7).features.view(
            np.uint64).tolist()

        replace = os.replace

        def failing(src, dst):
            if str(dst).endswith(".f64"):
                raise OSError("disk full")
            replace(src, dst)

        monkeypatch.setattr(datamodel.os, "replace", failing)
        with pytest.raises(OSError, match="disk full"):
            save_dataset(scaled_dataset(8), path)
        assert sorted(files_in(tmp_path)) == ["d.csv", "d.csv.f64"]
        # the sidecar left behind is the last save's, and no longer matches
        assert load_outcome(load_dataset, path) == load_outcome(reference_load_dataset, path)

    def test_save_keeps_the_permission_bits_of_open(self, tmp_path):
        # a new CSV gets 0o666 less the umask, a saved-over one keeps its
        # own bits, and the sidecar takes the CSV's
        path = tmp_path / "d.csv"
        umask = os.umask(0o027)
        try:
            save_dataset(scaled_dataset(6), path)
        finally:
            os.umask(umask)
        modes = [p.stat().st_mode & 0o777 for p in (path, tmp_path / "d.csv.f64")]
        assert modes == [0o640, 0o640]
        path.chmod(0o604)
        save_dataset(scaled_dataset(7), path)
        modes = [p.stat().st_mode & 0o777 for p in (path, tmp_path / "d.csv.f64")]
        assert modes == [0o604, 0o604]

    def test_save_makes_no_copy_of_the_arrays(self, tmp_path):
        # the benchmark's 60k x (20 + 14) shape: a (n, D + L) copy is 16.3 MB
        rng = np.random.default_rng(0)
        ds = Dataset(features=rng.normal(size=(60_000, 20)),
                     labels=(rng.random((60_000, 14)) < 0.2).astype(np.float64),
                     label_names=[f"l{i}" for i in range(14)])
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            save_dataset(ds, tmp_path / "d.csv")
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < (ds.features.nbytes + ds.labels.nbytes) / 4


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
