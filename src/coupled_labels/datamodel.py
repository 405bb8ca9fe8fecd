"""Core records shared by every stage: datasets, label matrices, and the
experiment configuration.

All numeric state is float64. Datasets live on disk as plain CSV with a
one-line header: feature columns first (any names), then label columns
whose names carry a ``label:`` prefix. Label cells are strict ``0``/``1``.
"""

from __future__ import annotations

import bisect
import contextlib
import csv
import dataclasses
import functools
import hashlib
import io
import itertools
import json
import mmap
import multiprocessing
import os
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

LABEL_PREFIX = "label:"


class CoupledLabelsError(Exception):
    """Base class for all validation errors raised by this package."""


class DataFormatError(CoupledLabelsError):
    """A dataset file or array violates the dataset contract."""


class ConfigError(CoupledLabelsError):
    """An ExperimentConfig violates one of its invariants."""


# ---------------------------------------------------------------------------
# array validators
#
# A LabelMatrix is a plain float64 ndarray; the checker below is the single
# place its invariants are enforced, and is called at module boundaries.
# ---------------------------------------------------------------------------


def check_label_matrix(values) -> np.ndarray:
    """Validate an N x L matrix of {0,1} entries and return it as float64."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise DataFormatError(f"label matrix must be 2-D, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DataFormatError("label matrix contains non-finite entries")
    if not np.isin(arr, (0.0, 1.0)).all():
        bad = np.argwhere(~np.isin(arr, (0.0, 1.0)))[0]
        raise DataFormatError(
            f"label matrix entry at row {bad[0]}, column {bad[1]} is not 0 or 1"
        )
    return arr


# ---------------------------------------------------------------------------
# Dataset
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dataset:
    """Immutable bundle of features (N x D), binary labels (N x L) and names.

    Treated as read-only after construction; the fold models all gather
    their batches from it by row index.
    """

    features: np.ndarray
    labels: np.ndarray
    label_names: list[str]

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        labs = check_label_matrix(self.labels)
        if feats.ndim != 2:
            raise DataFormatError(f"features must be 2-D, got shape {feats.shape}")
        if not np.isfinite(feats).all():
            raise DataFormatError("features contain non-finite entries")
        if feats.shape[0] != labs.shape[0]:
            raise DataFormatError(
                f"features have {feats.shape[0]} rows but labels have {labs.shape[0]}"
            )
        if feats.shape[0] < 1:
            raise DataFormatError("dataset must contain at least one example")
        if feats.shape[1] < 1:
            raise DataFormatError("dataset must have at least one feature")
        if labs.shape[1] < 2:
            raise DataFormatError("dataset must have at least two labels")
        if len(self.label_names) != labs.shape[1]:
            raise DataFormatError(
                f"{len(self.label_names)} label names for {labs.shape[1]} label columns"
            )
        feats.setflags(write=False)
        labs.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)
        object.__setattr__(self, "label_names", list(self.label_names))

    @property
    def n_examples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_labels(self) -> int:
        return self.labels.shape[1]


# ---------------------------------------------------------------------------
# forked workers
#
# The CSV reader and writer and the training engine split their work across
# processes forked from this one, which share its arrays copy-on-write and
# answer through pipes read by the main thread.
# ---------------------------------------------------------------------------


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def fork_cpus() -> int:
    """How many processes a job may split across: the CPUs this process may
    use, or 1 where it cannot fork safely. `fork` may be missing, and it is
    unsafe while another thread runs: a child forked then can inherit a lock
    that thread holds, and wait on it forever."""
    if "fork" in multiprocessing.get_all_start_methods() and threading.active_count() == 1:
        return _usable_cpus()
    return 1


@contextlib.contextmanager
def forked(targets):
    """Start one forked worker per target, which calls ``target(sender)``
    with the sending end of its own pipe, and yield the (process,
    receiving end) pairs in order. Leaving the block reaps every worker,
    after terminating them if the block raised: no one reads their results."""
    ctx = multiprocessing.get_context("fork")
    workers = []
    try:
        for target in targets:
            receiver, sender = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=target, args=(sender,))
            proc.start()
            sender.close()
            workers.append((proc, receiver))
        yield workers
    except BaseException:
        for proc, _ in workers:
            proc.terminate()
        raise
    finally:
        for proc, receiver in workers:
            receiver.close()
            proc.join()


def split_work(work, n_parts: int) -> list:
    """``[work(0), ..., work(n_parts - 1)]``, with part 0 done in this process
    and each other part in a forked worker that sends its result back. A
    worker that raises, or dies without its result, makes this raise."""
    with forked([functools.partial(_part_worker, work, part)
                 for part in range(1, n_parts)]) as workers:
        results = [work(0)]
        for part, (proc, receiver) in enumerate(workers, 1):
            try:
                ok, result = receiver.recv()
            except EOFError:
                proc.join()
                raise CoupledLabelsError(f"worker for part {part} exited with code "
                                         f"{proc.exitcode} without its result") from None
            if not ok:
                raise CoupledLabelsError(f"worker for part {part} failed: {result}")
            results.append(result)
    return results


def _part_worker(work, part: int, sender) -> None:
    try:
        reply = (True, work(part))
    except Exception as exc:  # the parent raises it
        reply = (False, f"{type(exc).__name__}: {exc}")
    sender.send(reply)
    sender.close()


def _row_ranges(n_rows: int, block_rows: int) -> list[int]:
    """Bounds ``[0, ..., n_rows]`` of one contiguous row range per process
    (`fork_cpus`), with at least one full block of rows in each range."""
    n_ranges = max(1, min(fork_cpus(), n_rows // block_rows))
    return [n_rows * w // n_ranges for w in range(n_ranges + 1)]


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


def load_dataset(path) -> Dataset:
    """Load a Dataset from a CSV file.

    The header must name the D feature columns, then the L label columns
    prefixed with ``label:``. Label cells are parsed strictly as ``0``/``1``.
    """
    path = Path(path)
    if not path.exists():
        raise DataFormatError(f"dataset file not found: {path}")
    # A byte that is not text in the file's encoding decodes to a lone
    # surrogate, so that the cell holding it fails to parse and is named.
    with open(path, newline="", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file, expected a header row") from None
        try:
            ",".join(header).encode(fh.encoding)
        except UnicodeEncodeError:
            raise DataFormatError(f"{path}: header row is not {fh.encoding} text") from None
        n_cols = len(header)
        label_start = None
        for idx, name in enumerate(header):
            if name.startswith(LABEL_PREFIX):
                label_start = idx
                break
        if label_start is None:
            raise DataFormatError(f"{path}: header has no '{LABEL_PREFIX}' columns")
        for idx in range(label_start, n_cols):
            if not header[idx].startswith(LABEL_PREFIX):
                raise DataFormatError(
                    f"{path}: feature column {header[idx]!r} appears after label columns"
                )
        label_names = [name[len(LABEL_PREFIX):] for name in header[label_start:]]
        header_lines = reader.line_num
    parsed = _read_plain(path, header_lines, label_start, n_cols)
    if parsed is None:
        # not plain, or not valid: read it again cell by cell, which names
        # the first bad row and column
        with open(path, newline="", errors="surrogateescape") as fh:
            reader = csv.reader(fh)
            next(reader)
            parsed = _read_csv_rows(reader, path, header, label_start)
    features, labels = parsed
    return Dataset(features=features, labels=labels, label_names=label_names)


def _read_csv_rows(reader, path: Path, header: list[str], label_start: int):
    """Parse the data rows one by one, raising on the first bad cell."""
    n_cols = len(header)
    feats: list[list[float]] = []
    labs: list[list[float]] = []
    for row_idx, row in enumerate(reader):
        if len(row) != n_cols:
            raise DataFormatError(
                f"{path}: row {row_idx} has {len(row)} columns, expected {n_cols}"
            )
        try:
            feats.append([float(cell) for cell in row[:label_start]])
        except ValueError as exc:
            raise DataFormatError(f"{path}: row {row_idx}: bad feature value ({exc})") from None
        lab_row = []
        for col_off, cell in enumerate(row[label_start:]):
            if cell == "0":
                lab_row.append(0.0)
            elif cell == "1":
                lab_row.append(1.0)
            else:
                raise DataFormatError(
                    f"{path}: row {row_idx}, column {header[label_start + col_off]!r}: "
                    f"label value {cell!r} is not 0 or 1"
                )
        labs.append(lab_row)
    if not feats:
        raise DataFormatError(f"{path}: no data rows")
    return np.array(feats, dtype=np.float64), np.array(labs, dtype=np.float64)


# Bytes read per step of the line count.
_COUNT_CHUNK_BYTES = 1 << 20
# Lines parsed per np.loadtxt call: bounds the text held in memory whatever N is.
_LOAD_BLOCK_ROWS = 2048
# Every character a plain block may hold: decimal float syntax, commas and
# line ends.
_PLAIN_BYTES = b"0123456789.,+-eE\r\n"


def _read_plain(path: Path, header_lines: int, label_start: int, n_cols: int):
    """Parse the data lines of ``path`` in C, if every one is plain
    (`_read_plain_rows`), and return ``(features, labels)``; else None.

    One pass counts the line ends and cuts the lines into one range per
    process (`_row_ranges`). Each range is parsed by its own process into
    shared buffers made before the fork. A data line here ends at ``\\n``,
    as a text line does wherever no ``\\r`` stands alone; a header holding
    one goes to the row loop, and a data line holding one is not plain.
    """
    chunk_offsets, ends_before = [], []
    n_ends, offset, last = 0, 0, b""
    with open(path, "rb", buffering=0) as fh:
        while chunk := fh.read(_COUNT_CHUNK_BYTES):
            chunk_offsets.append(offset)
            ends_before.append(n_ends)
            n_ends += chunk.count(b"\n")
            offset += len(chunk)
            last = chunk[-1:]

        def line_start(line: int) -> int:
            """Byte offset just after line end number `line` (from 1)."""
            at = bisect.bisect_left(ends_before, line) - 1
            chunk = os.pread(fh.fileno(), _COUNT_CHUNK_BYTES, chunk_offsets[at])
            ends = np.flatnonzero(np.frombuffer(chunk, np.uint8) == ord("\n"))
            return chunk_offsets[at] + int(ends[line - ends_before[at] - 1]) + 1

        n_rows = n_ends - header_lines + (last != b"\n")
        if n_rows < 1:
            return None
        rows = _row_ranges(n_rows, _LOAD_BLOCK_ROWS)
        offsets = [line_start(header_lines + r) for r in rows[:-1]]
        head = os.pread(fh.fileno(), offsets[0], 0)
    if head.count(b"\r") != head.count(b"\r\n"):
        return None
    buf = mmap.mmap(-1, 8 * n_rows * n_cols)
    features = np.frombuffer(buf, np.float64, n_rows * label_start).reshape(n_rows, label_start)
    labels = np.frombuffer(buf, np.float64, offset=8 * n_rows * label_start).reshape(
        n_rows, n_cols - label_start)

    def parse(w: int) -> bool:
        lo, hi = rows[w], rows[w + 1]
        return _read_plain_rows(path, offsets[w], features[lo:hi], labels[lo:hi])

    return (features, labels) if all(split_work(parse, len(offsets))) else None


def _read_plain_rows(path: Path, start: int, features, labels) -> bool:
    """Parse one line per row of ``features``/``labels`` from byte ``start``
    of ``path`` in C, block by block, into those arrays; return whether
    every line was plain.

    A line is plain when it holds only ``_PLAIN_BYTES``, with ``\\r`` only
    in a final ``\\r\\n``, has as many cells as the two arrays have
    columns, at least one of them a feature, and spells every label cell as
    a bare ``0`` or ``1``. For such lines ``np.loadtxt`` splits cells
    exactly as ``csv`` does and parses each feature cell with the same
    correctly rounded ``PyOS_string_to_double`` as ``float``, so the result
    is bit-identical to ``_read_csv_rows``.
    """
    n_rows, label_start = features.shape
    n_labels = labels.shape[1]
    offsets = np.arange(2 * n_labels, 0, -1)
    with open(path, "rb") as fh:
        fh.seek(start)
        for lo in range(0, n_rows, _LOAD_BLOCK_ROWS):
            lines = list(itertools.islice(fh, min(_LOAD_BLOCK_ROWS, n_rows - lo)))
            raw = b"".join(lines)
            if raw.translate(None, _PLAIN_BYTES):
                return False
            lengths = np.array([len(line) for line in lines])
            content = np.array([len(line.rstrip(b"\r\n")) for line in lines])
            if content.min() <= 2 * n_labels:
                return False  # blank, or too short for a feature and the labels
            if raw.count(b"\r") != np.count_nonzero(lengths - content == 2):
                return False  # a \r that is not part of a final \r\n
            # the last 2L characters of each line must read ",d,d,...,d", d in {0, 1}
            tails = np.frombuffer(raw, dtype=np.uint8)[
                (np.cumsum(lengths) - lengths + content)[:, None] - offsets]
            digits = tails[:, 1::2]
            if not ((tails[:, 0::2] == ord(",")).all()
                    and ((digits == ord("0")) | (digits == ord("1"))).all()):
                return False
            try:
                values = np.loadtxt(io.BytesIO(raw), delimiter=",", comments=None,
                                    ndmin=2, encoding="ascii")
            except ValueError:
                return False
            if values.shape != (len(lines), label_start + n_labels):
                return False
            features[lo:lo + len(lines)] = values[:, :label_start]
            labels[lo:lo + len(lines)] = values[:, label_start:]
    return True


# Rows formatted per write: bounds the text held in memory whatever N is.
_SAVE_BLOCK_ROWS = 256


def save_dataset(ds: Dataset, path) -> None:
    """Write a Dataset as CSV; floats use repr so a reload is bit-exact.

    The body bytes equal what ``csv.writer`` gives for the rows
    ``[repr(x) for x in features] + [str(int(y)) for y in labels]``: no such
    cell needs quoting, so each row is its cells joined by commas plus the
    writer's ``\\r\\n``. The rows are cut into one range per process
    (`_row_ranges`): this process writes range 0 straight into the file,
    forked workers write the others into anonymous files made before the
    fork, and those are appended in order.
    """
    path = Path(path)
    rows = _row_ranges(ds.n_examples, _SAVE_BLOCK_ROWS)
    with open(path, "w", newline="") as fh, contextlib.ExitStack() as stack:
        header = [f"f{i}" for i in range(ds.n_features)]
        header += [LABEL_PREFIX + name for name in ds.label_names]
        csv.writer(fh).writerow(header)
        sinks = [fh] + [
            stack.enter_context(tempfile.TemporaryFile(
                "w", newline="", encoding=fh.encoding, dir=path.parent))
            for _ in range(len(rows) - 2)]

        def write(w: int) -> None:
            for lo in range(rows[w], rows[w + 1], _SAVE_BLOCK_ROWS):
                hi = min(lo + _SAVE_BLOCK_ROWS, rows[w + 1])
                block = zip(ds.features[lo:hi].tolist(),
                            ds.labels[lo:hi].astype(np.int64).tolist())
                sinks[w].write("".join([",".join(map(repr, f + y)) + "\r\n" for f, y in block]))
            sinks[w].flush()

        split_work(write, len(sinks))
        for sink in sinks[1:]:
            size, copied = os.fstat(sink.fileno()).st_size, 0
            while copied < size:
                copied += os.sendfile(fh.fileno(), sink.fileno(), copied, size - copied)


# ---------------------------------------------------------------------------
# ExperimentConfig
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AslParams:
    gamma_pos: float = 0.0
    gamma_neg: float = 4.0
    clip: float = 0.05


@dataclass(frozen=True)
class ExperimentConfig:
    """Every tunable of the training/evaluation pipeline, with the published
    defaults baked in."""

    K: int = 3
    alpha: float = 0.3
    lambda_l1: float = 1e-3
    loss_kind: str = "ASL"  # "ASL" | "WeightedBCE"
    asl: AslParams = field(default_factory=AslParams)
    lr: float = 2e-4
    weight_decay: float = 1e-4
    batch_size: int = 24
    epochs: int = 3
    patience: int = 3
    ema_decay: float = 0.999
    grad_clip_norm: float = 1.0
    seed: int = 0
    refinement_enabled: bool = True

    def to_json_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["asl"] = dataclasses.asdict(self.asl)
        return d

    def hash(self) -> str:
        blob = json.dumps(self.to_json_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


_CONFIG_FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)}
_ASL_FIELDS = {f.name for f in dataclasses.fields(AslParams)}
LOSS_KINDS = ("ASL", "WeightedBCE")


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a config from a (possibly partial) JSON dict, filling defaults
    for absent fields and rejecting unknown ones. Validates before returning."""
    unknown = set(raw) - _CONFIG_FIELDS
    if unknown:
        raise ConfigError(f"unknown config field(s): {sorted(unknown)}")
    kwargs = dict(raw)
    if "asl" in kwargs:
        asl_raw = kwargs["asl"]
        if not isinstance(asl_raw, dict):
            raise ConfigError("asl: must be an object with gamma_pos/gamma_neg/clip")
        bad = set(asl_raw) - _ASL_FIELDS
        if bad:
            raise ConfigError(f"unknown asl field(s): {sorted(bad)}")
        kwargs["asl"] = AslParams(**asl_raw)
    return validate_config(ExperimentConfig(**kwargs))


def load_config(path) -> ExperimentConfig:
    raw = read_json(path)
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config JSON must be an object")
    return config_from_dict(raw)


def read_json(path):
    """The value a JSON file holds; a file that is not UTF-8 JSON raises a
    CoupledLabelsError naming it."""
    raw = Path(path).read_bytes()
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CoupledLabelsError(f"{path}: not a UTF-8 JSON file ({exc})") from None


def write_json(obj, path) -> None:
    """The one layout of every JSON file a run writes, checkpoints aside:
    sorted keys, two-space indent, a final newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_config(cfg: ExperimentConfig, path) -> None:
    write_json(cfg.to_json_dict(), path)


def _number(value, kind=(int, float)) -> bool:
    """Whether `value` is a finite number of `kind`. JSON true/false load as
    bool, which Python counts as int; they are flags, not numbers."""
    return (isinstance(value, kind) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def validate_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """Return cfg unchanged if every invariant holds; otherwise raise a
    ConfigError naming each violated field."""
    problems = []
    if not _number(cfg.K, int) or cfg.K < 2:
        problems.append(f"K: must be an integer >= 2, got {cfg.K!r}")
    if not _number(cfg.alpha) or cfg.alpha < 0:
        problems.append(f"alpha: must be a finite number >= 0, got {cfg.alpha!r}")
    if not _number(cfg.lambda_l1) or cfg.lambda_l1 < 0:
        problems.append(f"lambda_l1: must be a finite number >= 0, got {cfg.lambda_l1!r}")
    if cfg.loss_kind not in LOSS_KINDS:
        problems.append(f"loss_kind: must be one of {LOSS_KINDS}, got {cfg.loss_kind!r}")
    if not _number(cfg.asl.gamma_pos) or cfg.asl.gamma_pos < 0:
        problems.append(f"asl.gamma_pos: must be a finite number >= 0, got {cfg.asl.gamma_pos!r}")
    if not _number(cfg.asl.gamma_neg) or cfg.asl.gamma_neg < 0:
        problems.append(f"asl.gamma_neg: must be a finite number >= 0, got {cfg.asl.gamma_neg!r}")
    if not _number(cfg.asl.clip) or not 0.0 <= cfg.asl.clip < 1.0:
        problems.append(f"asl.clip: must be a number in [0, 1), got {cfg.asl.clip!r}")
    if not _number(cfg.lr) or cfg.lr <= 0:
        problems.append(f"lr: must be a finite number > 0, got {cfg.lr!r}")
    if not _number(cfg.weight_decay) or cfg.weight_decay < 0:
        problems.append(f"weight_decay: must be a finite number >= 0, got {cfg.weight_decay!r}")
    if not _number(cfg.batch_size, int) or cfg.batch_size < 1:
        problems.append(f"batch_size: must be a positive integer, got {cfg.batch_size!r}")
    if not _number(cfg.epochs, int) or cfg.epochs < 1:
        problems.append(f"epochs: must be a positive integer, got {cfg.epochs!r}")
    if not _number(cfg.patience, int) or cfg.patience < 1:
        problems.append(f"patience: must be a positive integer, got {cfg.patience!r}")
    if not _number(cfg.ema_decay) or not 0.0 < cfg.ema_decay < 1.0:
        problems.append(f"ema_decay: must be a number in (0, 1), got {cfg.ema_decay!r}")
    if not _number(cfg.grad_clip_norm) or cfg.grad_clip_norm <= 0:
        problems.append(f"grad_clip_norm: must be a finite number > 0, got {cfg.grad_clip_norm!r}")
    if not _number(cfg.seed, int) or cfg.seed < 0:
        problems.append(f"seed: must be an integer >= 0, got {cfg.seed!r}")
    if not isinstance(cfg.refinement_enabled, bool):
        problems.append(f"refinement_enabled: must be a boolean, got {cfg.refinement_enabled!r}")
    if problems:
        raise ConfigError("invalid config: " + "; ".join(problems))
    return cfg
