"""Core records shared by every stage: datasets, label matrices, and the
experiment configuration.

All numeric state is float64. Datasets live on disk as plain CSV with a
one-line header: feature columns first (any names), then label columns
whose names carry a ``label:`` prefix. Label cells are strict ``0``/``1``.
Beside a CSV it writes, `save_dataset` keeps a binary copy of the arrays
(the sidecar, ``<csv>.f64``) that `load_dataset` reads instead of parsing
the CSV for as long as the CSV keeps the bytes it was written with. No
other module knows the sidecar exists. Any other CSV is parsed by one
``csv`` row loop, which names the row and column of the first bad cell.
Both files are written under a temporary name and renamed into place.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import hashlib
import itertools
import json
import mmap
import multiprocessing
import os
import stat
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
# The CSV writer and the training engine split their work across
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
    Once the header has passed, the arrays come from the CSV's sidecar when
    it records the SHA-256 of the CSV's current bytes (`_read_sidecar`);
    otherwise, for whatever reason, the CSV is parsed row by row
    (`_read_csv_rows`), and a bad one raises the same error either way.
    This never writes a file.
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
        parsed = _read_sidecar(path, reader.line_num, label_start, n_cols)
        if parsed is None:
            parsed = _read_csv_rows(reader, path, header, label_start)
    features, labels = parsed
    return Dataset(features=features, labels=labels, label_names=label_names)


# Rows parsed into Python lists before they become float64 blocks: bounds
# the Python objects held whatever N is.
_LOAD_BLOCK_ROWS = 2048
# The only spellings of a label cell.
_LABEL_VALUES = {"0": 0.0, "1": 1.0}


def _read_csv_rows(reader, path: Path, header: list[str], label_start: int):
    """Parse the data rows one by one, raising on the first bad cell, and
    return ``(features, labels)``. Each block of `_LOAD_BLOCK_ROWS` parsed
    rows becomes float64 arrays at once, and the blocks are joined at the
    end, the feature blocks freed before the labels are joined."""
    n_cols = len(header)
    rows = enumerate(reader)
    feat_blocks, lab_blocks = [], []
    while True:
        feats: list[list[float]] = []
        labs: list[list[float]] = []
        for row_idx, row in itertools.islice(rows, _LOAD_BLOCK_ROWS):
            if len(row) != n_cols:
                raise DataFormatError(
                    f"{path}: row {row_idx} has {len(row)} columns, expected {n_cols}"
                )
            try:
                feats.append(list(map(float, row[:label_start])))
            except ValueError as exc:
                raise DataFormatError(
                    f"{path}: row {row_idx}: bad feature value ({exc})") from None
            try:
                labs.append([_LABEL_VALUES[cell] for cell in row[label_start:]])
            except KeyError as exc:
                cell = exc.args[0]
                raise DataFormatError(
                    f"{path}: row {row_idx}, column {header[row.index(cell, label_start)]!r}: "
                    f"label value {cell!r} is not 0 or 1"
                ) from None
        if not feats:
            break
        feat_blocks.append(np.array(feats, dtype=np.float64))
        lab_blocks.append(np.array(labs, dtype=np.float64))
    if not feat_blocks:
        raise DataFormatError(f"{path}: no data rows")
    features = np.concatenate(feat_blocks)
    del feat_blocks
    return features, np.concatenate(lab_blocks)


# Rows formatted per write: bounds the text held in memory whatever N is.
_SAVE_BLOCK_ROWS = 256


def save_dataset(ds: Dataset, path) -> None:
    """Write a Dataset as CSV; floats use repr so a reload is bit-exact.

    The body bytes equal what `write_csv` gives for the rows
    ``[repr(x) for x in features] + [str(int(y)) for y in labels]``: no such
    cell needs quoting, so each row is its cells joined by commas plus the
    writer's ``\\r\\n``. The rows are cut into one range per process
    (`_row_ranges`): this process writes range 0 into the new file, forked
    workers write the others into anonymous files made before the fork, and
    those are appended in order. The new file takes the place of ``path``
    only once it is complete (`_replacing`), so a save that fails leaves
    ``path`` as it was. Then its sidecar ``<path>.f64`` is written from the
    arrays (`_write_sidecar`).
    """
    path = Path(path)
    rows = _row_ranges(ds.n_examples, _SAVE_BLOCK_ROWS)
    with (_replacing(path, path, "w", newline="") as fh,
          contextlib.ExitStack() as stack):
        header = [f"f{i}" for i in range(ds.n_features)]
        header += [LABEL_PREFIX + name for name in ds.label_names]
        write_csv(fh, header)
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
    _write_sidecar(ds, path)


@contextlib.contextmanager
def _replacing(path: Path, like: Path, mode: str, **open_args):
    """Yield a file opened with ``mode`` under a temporary name in the
    directory of ``path``, created as ``open`` creates a file, so that the
    umask applies. Once the block has written it, it gets the permission
    bits of ``like`` if that exists, and is renamed to ``path``, so that no
    reader sees a partial file; if anything fails, it is unlinked and
    ``path`` is left as it was."""
    try:
        bits = stat.S_IMODE(os.stat(like).st_mode)
    except FileNotFoundError:
        bits = None
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, mode, **open_args) as fh:
            yield fh
        if bits is not None:
            os.chmod(tmp, bits)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# sidecar
#
# Beside each CSV it writes, `save_dataset` leaves ``<csv>.f64``: the ASCII
# line ``sha256 <hex digest of the CSV's bytes>\n``, then the n x D features
# and the n x L labels as little-endian float64 in C order, n from the file
# size, D and L from the CSV's header. It holds nothing the CSV does not:
# deleting it only makes the next load parse the CSV.
# ---------------------------------------------------------------------------

_SIDECAR_SUFFIX = ".f64"
_SIDECAR_DTYPE = np.dtype("<f8")
_DIGEST_PREFIX = b"sha256 "
# the prefix, 64 hex digits and the line end
_DIGEST_LINE_BYTES = len(_DIGEST_PREFIX) + 2 * hashlib.sha256().digest_size + 1
# Bytes read per step of the digest pass.
_COUNT_CHUNK_BYTES = 1 << 20


def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.name + _SIDECAR_SUFFIX)


def _digest_line(path: Path, count_ends: bool = False) -> tuple[bytes, int]:
    """The sidecar's first line for the file at ``path``, ``sha256 <hex
    digest>\\n``, and, if ``count_ends``, the number of ``\\n`` bytes in
    the file (else 0), from one streamed pass."""
    digest, n_ends = hashlib.sha256(), 0
    chunk = bytearray(_COUNT_CHUNK_BYTES)
    with open(path, "rb", buffering=0) as fh, memoryview(chunk) as view:
        while size := fh.readinto(chunk):
            digest.update(view[:size])
            if count_ends:
                n_ends += chunk.count(b"\n", 0, size)
    return _DIGEST_PREFIX + digest.hexdigest().encode() + b"\n", n_ends


def _write_sidecar(ds: Dataset, path: Path) -> None:
    """Write the sidecar of the complete CSV at ``path`` straight from the
    arrays of ``ds``, with the CSV's permission bits (`_replacing`)."""
    line, _ = _digest_line(path)
    with _replacing(_sidecar_path(path), path, "wb") as fh:
        fh.write(line)
        for arr in (ds.features, ds.labels):
            fh.write(np.ascontiguousarray(arr, _SIDECAR_DTYPE))


def _read_sidecar(path: Path, header_lines: int, label_start: int, n_cols: int):
    """``(features, labels)`` read from the sidecar of ``path``, or None.

    The sidecar is used only if its first line records the SHA-256 of the
    CSV's current bytes and the rest holds exactly ``n_cols`` cells for
    each of the CSV's n data lines, n >= 1; the digest pass is skipped when
    the sidecar is missing or its size or first line cannot be right. Any
    problem with it (missing, unreadable, a directory, short, long, stale)
    gives None. The cells go into one anonymous ``mmap``, features first.
    """
    try:
        with open(_sidecar_path(path), "rb", buffering=0) as fh:
            line = fh.read(_DIGEST_LINE_BYTES)
            n_bytes = os.fstat(fh.fileno()).st_size - _DIGEST_LINE_BYTES
            n_rows, rest = divmod(n_bytes, 8 * n_cols)
            if (rest or n_rows < 1 or len(line) != _DIGEST_LINE_BYTES
                    or not line.startswith(_DIGEST_PREFIX)
                    or _digest_line(path, count_ends=True) != (line, header_lines + n_rows)):
                return None
            buf = mmap.mmap(-1, n_bytes)
            with memoryview(buf) as view:
                done = 0
                while done < n_bytes and (size := fh.readinto(view[done:])):
                    done += size
    except OSError:
        return None
    if done != n_bytes:
        return None
    features = np.frombuffer(buf, _SIDECAR_DTYPE, n_rows * label_start)
    labels = np.frombuffer(buf, _SIDECAR_DTYPE, offset=8 * n_rows * label_start)
    return (features.reshape(n_rows, label_start),
            labels.reshape(n_rows, n_cols - label_start))


# ---------------------------------------------------------------------------
# ExperimentConfig
# ---------------------------------------------------------------------------


def _number(value, kind=(int, float)) -> bool:
    """Whether `value` is a finite number of `kind`. JSON true/false load as
    bool, which Python counts as int; they are flags, not numbers."""
    return (isinstance(value, kind) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def field_problems(doc, rules: dict) -> list[str]:
    """The problems of `doc` under the ``{path: (what, test)}`` table `rules`,
    in table order without repeats: ``"<path>: must be <what>, got <value!r>"``
    (the repr cut to 60 characters) where a value fails its test, and
    ``"<path>: missing"`` where a path stops short. A path walks nested
    objects by dotted keys; ``*`` stands for each entry of a list (none of a
    non-list, which a rule of its own checks) and is named by its index."""
    problems = []
    for key, (what, ok) in rules.items():
        nodes = [("", doc)]   # (the path walked so far, the value there)
        for part in key.split("."):
            found = []
            for at, node in nodes:
                if isinstance(node, list) and part == "*":
                    found += [(f"{at}{i}.", v) for i, v in enumerate(node)]
                elif isinstance(node, dict) and part in node:
                    found.append((f"{at}{part}.", node[part]))
                elif part != "*":
                    problems.append(f"{at}{part}: missing")
            nodes = found
        problems += [f"{at[:-1]}: must be {what}, got {_cut(repr(v))}"
                     for at, v in nodes if not ok(v)]
    return list(dict.fromkeys(problems))


def _cut(text: str) -> str:
    return text if len(text) <= 60 else text[:57] + "..."


def checked(where, doc, rules: dict, error: type[CoupledLabelsError]):
    """`doc` if it has no `field_problems` under `rules`; if it has, an
    `error` names `where` (a file, or what `doc` is) and every problem."""
    problems = field_problems(doc, rules)
    if problems:
        raise error(f"{where}: " + "; ".join(problems))
    return doc


@dataclass(frozen=True)
class AslParams:
    gamma_pos: float = 0.0
    gamma_neg: float = 4.0
    clip: float = 0.05


@dataclass(frozen=True)
class ExperimentConfig:
    """Every tunable of the training/evaluation pipeline, with the published
    defaults baked in. Building one, `dataclasses.replace` included, raises
    a ConfigError naming each field that breaks its rule (`_CONFIG_RULES`)."""

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

    def __post_init__(self):
        if not isinstance(self.asl, AslParams):
            raise ConfigError(f"invalid config: asl: must be an AslParams, got {self.asl!r}")
        checked("invalid config", {**vars(self), "asl": vars(self.asl)}, _CONFIG_RULES,
                ConfigError)

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)

    def hash(self) -> str:
        blob = json.dumps(self.to_json_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


_CONFIG_FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)}
_ASL_FIELDS = {f.name for f in dataclasses.fields(AslParams)}
LOSS_KINDS = ("ASL", "WeightedBCE")
_NON_NEGATIVE = ("a finite number >= 0", lambda v: _number(v) and v >= 0)
_POSITIVE = ("a finite number > 0", lambda v: _number(v) and v > 0)
_COUNT = ("a positive integer", lambda v: _number(v, int) and v >= 1)
# field -> (what it must be, test), the `asl` fields by their dotted paths
_CONFIG_RULES = {
    "K": ("an integer >= 2", lambda v: _number(v, int) and v >= 2),
    "alpha": _NON_NEGATIVE,
    "lambda_l1": _NON_NEGATIVE,
    "loss_kind": (f"one of {LOSS_KINDS}", lambda v: v in LOSS_KINDS),
    "asl.gamma_pos": _NON_NEGATIVE,
    "asl.gamma_neg": _NON_NEGATIVE,
    "asl.clip": ("a number in [0, 1)", lambda v: _number(v) and 0.0 <= v < 1.0),
    "lr": _POSITIVE,
    "weight_decay": _NON_NEGATIVE,
    "batch_size": _COUNT,
    "epochs": _COUNT,
    "patience": _COUNT,
    "ema_decay": ("a number in (0, 1)", lambda v: _number(v) and 0.0 < v < 1.0),
    "grad_clip_norm": _POSITIVE,
    "seed": ("an integer >= 0", lambda v: _number(v, int) and v >= 0),
    "refinement_enabled": ("a boolean", lambda v: isinstance(v, bool)),
}


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a config from a (possibly partial) JSON dict, filling defaults
    for absent fields and rejecting unknown ones."""
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
    return ExperimentConfig(**kwargs)


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


def write_csv(out, header: list, rows=()) -> None:
    """Write the `header` row, then `rows`, with the ``csv`` module's quoting
    (only where a cell needs it) and ``\\r\\n`` line ends. `out` is a path,
    or a text file opened with ``newline=""``, which stays open."""
    opened = isinstance(out, (str, os.PathLike))
    with open(out, "w", newline="") if opened else contextlib.nullcontext(out) as fh:
        csv.writer(fh).writerows(itertools.chain([header], rows))


def save_config(cfg: ExperimentConfig, path) -> None:
    write_json(cfg.to_json_dict(), path)
