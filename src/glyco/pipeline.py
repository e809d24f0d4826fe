"""Leakage-safe dataset construction: segmentation, windowing, folds.

Sequences (never windows) are the unit of the train/test split, so no raw
reading can appear on both sides of a fold. Windowing with step 1 is the
training-set augmentation; test sets may use step 1 or non-overlapping
step = window size depending on protocol.
"""

from __future__ import annotations

import io
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import MAX_GAP_SECONDS, is_int
from .errors import DataError, FormatError
from .ingest import Corpus

PREPARED_MAGIC = b"GLYFPREP"
PREPARED_VERSION = 1

# Per-row source sequence ids and window offsets, stored in the JSON metadata.
INDEX_KEYS = ("train_seq_ids", "train_offsets", "test_seq_ids", "test_offsets")

DEFAULT_TOTAL = 144
DEFAULT_INPUT_LEN = 132


@dataclass(frozen=True)
class FoldSplit:
    """Sequence-id partition for one cross-validation fold."""

    fold_index: int
    train_sequence_ids: frozenset[int]
    test_sequence_ids: frozenset[int]
    seed: int

    def __post_init__(self) -> None:
        if self.train_sequence_ids & self.test_sequence_ids:
            raise DataError("fold train and test sequence ids overlap")


@dataclass(frozen=True, eq=False)
class SequenceStore:
    """Gap-free sequences as slices of one reading array.

    Sequence i is ``values[starts[i]:starts[i + 1]]`` of patient
    ``patient_ids[i]``; its id is its position i. Within a sequence the raw
    gaps (each at most the gap rule's limit) are discarded and every step
    counts as one nominal 300 s interval.
    """

    values: np.ndarray  # float64, every reading of the corpus in order
    starts: np.ndarray  # int64, n_sequences + 1 boundaries
    patient_ids: np.ndarray  # object (str), one per sequence

    def __len__(self) -> int:
        return len(self.starts) - 1

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.starts)


def segment(corpus: Corpus, max_gap: int = MAX_GAP_SECONDS) -> SequenceStore:
    """Split a corpus into contiguous sequences at gaps > max_gap or patient change.

    The gap boundary is inclusive: a gap of exactly max_gap seconds does not
    split. ``Corpus`` has already checked the (patient_id, timestamp) order.
    """
    first = np.ones(len(corpus), dtype=bool)
    first[1:] = (corpus.patient_ids[1:] != corpus.patient_ids[:-1]) | (
        np.diff(corpus.timestamps) > max_gap
    )
    starts = np.append(np.flatnonzero(first), len(corpus))
    return SequenceStore(corpus.values, starts, corpus.patient_ids[starts[:-1]])


def window_count(length: int, total: int, step: int) -> int:
    """Closed-form number of windows ``prepare`` cuts from one sequence."""
    if length < total:
        return 0
    return (length - total) // step + 1


def kfold_split(
    store: SequenceStore,
    k: int = 5,
    seed: int = 42,
    total: int = DEFAULT_TOTAL,
    pool: np.ndarray | None = None,
) -> list[FoldSplit]:
    """Deal eligible sequences (length >= total) round-robin into k folds
    after a seeded shuffle; fold i tests on fold i and trains on the rest.

    pool, a per-sequence boolean mask, restricts the split to a cohort's
    sequences; every sequence of a patient is in or out together.
    """
    windowable = store.lengths >= total
    if pool is not None:
        windowable &= pool
    eligible = np.flatnonzero(windowable)
    if len(eligible) < k:
        raise DataError(f"need at least k={k} eligible sequences, got {len(eligible)}")
    rng = np.random.default_rng(seed)
    order = eligible[rng.permutation(len(eligible))]
    all_ids = frozenset(eligible.tolist())
    folds = []
    for i in range(k):
        test_ids = frozenset(order[i::k].tolist())
        folds.append(FoldSplit(i, all_ids - test_ids, test_ids, seed))
    return folds


@dataclass
class PreparedSet:
    """Windowed train/test arrays for one fold (rows are examples).

    Arrays hold float64 mg/dL values; ids/offsets keep each row traceable to
    its source sequence so leakage checks stay possible after serialization.
    """

    train_inputs: np.ndarray
    train_targets: np.ndarray
    train_seq_ids: np.ndarray
    train_offsets: np.ndarray
    test_inputs: np.ndarray
    test_targets: np.ndarray
    test_seq_ids: np.ndarray
    test_offsets: np.ndarray
    provenance: dict = field(default_factory=dict)

    @property
    def input_len(self) -> int:
        return int(self.train_inputs.shape[1])

    @property
    def horizon(self) -> int:
        return int(self.train_targets.shape[1])

    @property
    def n_train(self) -> int:
        return int(self.train_inputs.shape[0])

    @property
    def n_test(self) -> int:
        return int(self.test_inputs.shape[0])

    def equals(self, other: "PreparedSet") -> bool:
        arrays = (
            "train_inputs",
            "train_targets",
            "train_seq_ids",
            "train_offsets",
            "test_inputs",
            "test_targets",
            "test_seq_ids",
            "test_offsets",
        )
        return all(
            np.array_equal(getattr(self, a), getattr(other, a)) for a in arrays
        ) and self.provenance == other.provenance


def _window_arrays(
    store: SequenceStore, ids: frozenset[int], total: int, input_len: int, step: int
):
    """Windows of the given sequences in id order, cut at offsets 0, step, ..."""
    ids = np.sort(np.fromiter(ids, dtype=np.int64, count=len(ids)))
    counts = np.maximum((store.lengths[ids] - total) // step + 1, 0)
    seq_ids = np.repeat(ids, counts)
    first_row = np.repeat(np.cumsum(counts) - counts, counts)
    offsets = (np.arange(len(seq_ids), dtype=np.int64) - first_row) * step
    if not len(seq_ids):
        return np.empty((0, input_len)), np.empty((0, total - input_len)), seq_ids, offsets
    windows = np.lib.stride_tricks.sliding_window_view(store.values, total)
    rows = store.starts[seq_ids] + offsets
    return (
        np.ascontiguousarray(windows[rows, :input_len]),
        np.ascontiguousarray(windows[rows, input_len:]),
        seq_ids,
        offsets,
    )


def prepare(
    store: SequenceStore,
    fold: FoldSplit,
    total: int = DEFAULT_TOTAL,
    input_len: int = DEFAULT_INPUT_LEN,
    train_step: int = 1,
    test_step: int = 1,
    cohort_label: str = "all",
) -> PreparedSet:
    """Window a fold into train/test arrays.

    Each fold sequence of length L yields the windows of ``total`` readings
    at offsets 0, step, 2*step, ... (``window_count`` of them); trailing
    readings that do not fill a window are discarded. Only the fold's
    sequences are windowed, so a cohort's fold (see ``kfold_split``'s pool)
    gives that cohort's windows.
    """
    if train_step < 1 or test_step < 1:
        raise DataError(f"window steps must be >= 1, got {train_step} and {test_step}")
    if not (0 < input_len < total):
        raise DataError(f"need 0 < input_len ({input_len}) < total ({total})")
    fold_ids = fold.train_sequence_ids | fold.test_sequence_ids
    if fold_ids and not (0 <= min(fold_ids) and max(fold_ids) < len(store)):
        raise DataError("fold references sequence ids absent from the sequence store")

    tr = _window_arrays(store, fold.train_sequence_ids, total, input_len, train_step)
    te = _window_arrays(store, fold.test_sequence_ids, total, input_len, test_step)
    provenance = {
        "fold": fold.fold_index,
        "cohort": cohort_label,
        "train_step": train_step,
        "test_step": test_step,
        "seed": fold.seed,
        "total": total,
        "input_len": input_len,
    }
    return PreparedSet(*tr, *te, provenance=provenance)


def _write_array(handle, arr: np.ndarray) -> None:
    handle.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def save_prepared(prepared: PreparedSet, path: str | Path) -> None:
    """Binary container: magic, version, JSON metadata, then float64 LE arrays."""
    meta = {
        "provenance": prepared.provenance,
        "n_train": prepared.n_train,
        "n_test": prepared.n_test,
        "input_len": prepared.input_len,
        "horizon": prepared.horizon,
        **{key: getattr(prepared, key).tolist() for key in INDEX_KEYS},
    }
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    buffer = io.BytesIO()
    buffer.write(PREPARED_MAGIC)
    buffer.write(struct.pack("<I", PREPARED_VERSION))
    buffer.write(struct.pack("<I", len(blob)))
    buffer.write(blob)
    for arr in (
        prepared.train_inputs,
        prepared.train_targets,
        prepared.test_inputs,
        prepared.test_targets,
    ):
        _write_array(buffer, arr)
    Path(path).write_bytes(buffer.getvalue())


def load_prepared(path: str | Path) -> PreparedSet:
    raw = Path(path).read_bytes()
    if len(raw) < 16 or raw[:8] != PREPARED_MAGIC:
        raise FormatError(f"{path}: not a prepared-set file (bad magic)")
    (version,) = struct.unpack_from("<I", raw, 8)
    if version != PREPARED_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    (meta_len,) = struct.unpack_from("<I", raw, 12)
    meta_end = 16 + meta_len
    if len(raw) < meta_end:
        raise FormatError(f"{path}: truncated metadata block")
    try:
        meta = json.loads(raw[16:meta_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: corrupt metadata block: {exc}") from exc
    if not isinstance(meta, dict):
        raise FormatError(f"{path}: metadata block is not a JSON object")

    try:
        n_train, n_test = meta["n_train"], meta["n_test"]
        input_len, horizon = meta["input_len"], meta["horizon"]
        ids = {key: meta[key] for key in INDEX_KEYS}
        provenance = meta["provenance"]
    except KeyError as exc:
        raise FormatError(f"{path}: metadata lacks key {exc}") from exc
    if not (
        all(is_int(v) and v >= 0 for v in (n_train, n_test, input_len, horizon))
        and isinstance(provenance, dict)
    ):
        raise FormatError(f"{path}: metadata field of the wrong type")
    for key in INDEX_KEYS:
        try:
            ids[key] = np.array(ids[key])
        except ValueError as exc:
            raise FormatError(f"{path}: {key} is not a list of integers") from exc
        rows = n_train if key.startswith("train") else n_test
        if ids[key].shape != (rows,) or (rows and ids[key].dtype.kind != "i"):
            raise FormatError(f"{path}: {key} is not a list of {rows} integers")
        ids[key] = ids[key].astype(np.int64)
    sizes = [
        (n_train, input_len),
        (n_train, horizon),
        (n_test, input_len),
        (n_test, horizon),
    ]
    expected = meta_end + sum(r * c for r, c in sizes) * 8
    if len(raw) != expected:
        raise FormatError(
            f"{path}: payload is {len(raw)} bytes, expected {expected} (truncated or padded)"
        )
    arrays = []
    cursor = meta_end
    for rows, cols in sizes:
        nbytes = rows * cols * 8
        arrays.append(
            np.frombuffer(raw[cursor : cursor + nbytes], dtype="<f8").reshape(rows, cols).copy()
        )
        cursor += nbytes
    return PreparedSet(
        train_inputs=arrays[0],
        train_targets=arrays[1],
        test_inputs=arrays[2],
        test_targets=arrays[3],
        provenance=provenance,
        **ids,
    )
