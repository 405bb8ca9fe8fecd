"""Core records shared by every stage: datasets, label matrices, and the
experiment configuration.

All numeric state is float64. Datasets live on disk as plain CSV with a
one-line header: feature columns first (any names), then label columns
whose names carry a ``label:`` prefix. Label cells are strict ``0``/``1``.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import itertools
import json
import sys
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


def load_dataset(path) -> Dataset:
    """Load a Dataset from a CSV file.

    The header must name the D feature columns, then the L label columns
    prefixed with ``label:``. Label cells are parsed strictly as ``0``/``1``.
    """
    path = Path(path)
    if not path.exists():
        raise DataFormatError(f"dataset file not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file, expected a header row") from None
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
        parsed = _read_plain_rows(fh, label_start, n_cols)
    if parsed is None:
        # not plain, or not valid: read it again cell by cell, which names
        # the first bad row and column
        with open(path, newline="") as fh:
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


# Lines parsed per np.loadtxt call: bounds the text held in memory whatever N is.
_LOAD_BLOCK_ROWS = 2048
# Every character a plain block may hold: decimal float syntax, commas and
# line ends.
_PLAIN_BYTES = b"0123456789.,+-eE\r\n"


def _read_plain_rows(fh, label_start: int, n_cols: int):
    """Parse the rest of ``fh`` in C, block by block, if every line is plain.

    A line is plain when it holds only ``_PLAIN_BYTES``, has ``n_cols``
    cells, at least one of them a feature, and spells every label cell as a
    bare ``0`` or ``1``. For such lines ``np.loadtxt`` splits cells exactly
    as ``csv`` does and parses each feature cell with the same correctly
    rounded ``PyOS_string_to_double`` as ``float``, so the result is
    bit-identical to ``_read_csv_rows``. Returns ``(features, labels)``, or
    None if any line is not plain or there are no lines.
    """
    n_labels = n_cols - label_start
    offsets = np.arange(2 * n_labels, 0, -1)
    blocks = []
    while lines := list(itertools.islice(fh, _LOAD_BLOCK_ROWS)):
        text = "".join(lines)
        if not text.isascii():
            return None
        raw = text.encode("ascii")
        if raw.translate(None, _PLAIN_BYTES):
            return None
        lengths = np.array([len(line) for line in lines])
        content = np.array([len(line.rstrip("\r\n")) for line in lines])
        if content.min() <= 2 * n_labels:
            return None  # blank, or too short for a feature and the labels
        # the last 2L characters of each line must read ",d,d,...,d", d in {0, 1}
        tails = np.frombuffer(raw, dtype=np.uint8)[
            (np.cumsum(lengths) - lengths + content)[:, None] - offsets]
        digits = tails[:, 1::2]
        if not ((tails[:, 0::2] == ord(",")).all()
                and ((digits == ord("0")) | (digits == ord("1"))).all()):
            return None
        try:
            values = np.loadtxt(io.BytesIO(raw), delimiter=",", comments=None,
                                ndmin=2, encoding="ascii")
        except ValueError:
            return None
        if values.shape != (len(lines), n_cols):
            return None
        blocks.append(values)
    if not blocks:
        return None
    return (np.concatenate([v[:, :label_start] for v in blocks]),
            np.concatenate([v[:, label_start:] for v in blocks]))


# Rows formatted per write: bounds the text held in memory whatever N is.
_SAVE_BLOCK_ROWS = 256


def save_dataset(ds: Dataset, path) -> None:
    """Write a Dataset as CSV; floats use repr so a reload is bit-exact.

    The body bytes equal what ``csv.writer`` gives for the rows
    ``[repr(x) for x in features] + [str(int(y)) for y in labels]``: no such
    cell needs quoting, so each row is its cells joined by commas plus the
    writer's ``\\r\\n``.
    """
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = [f"f{i}" for i in range(ds.n_features)]
        header += [LABEL_PREFIX + name for name in ds.label_names]
        writer.writerow(header)
        for lo in range(0, ds.n_examples, _SAVE_BLOCK_ROWS):
            hi = lo + _SAVE_BLOCK_ROWS
            rows = zip(ds.features[lo:hi].tolist(),
                       ds.labels[lo:hi].astype(np.int64).tolist())
            fh.write("".join([",".join(map(repr, f + y)) + "\r\n" for f, y in rows]))


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
    eval_batch_multiplier: int = 2
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
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config JSON must be an object")
    return config_from_dict(raw)


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
    if not _number(cfg.eval_batch_multiplier, int) or cfg.eval_batch_multiplier < 1:
        problems.append(
            f"eval_batch_multiplier: must be a positive integer, got {cfg.eval_batch_multiplier!r}"
        )
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
