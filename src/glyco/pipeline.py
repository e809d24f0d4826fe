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

from .core import ContiguousSequence, GlucoseReading, MAX_GAP_SECONDS
from .errors import DataError, FormatError

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


def segment(
    readings: list[GlucoseReading] | tuple[GlucoseReading, ...],
    max_gap: int = MAX_GAP_SECONDS,
) -> list[ContiguousSequence]:
    """Split readings into contiguous sequences at gaps > max_gap or patient change.

    The gap boundary is inclusive: a gap of exactly max_gap seconds does not
    split. Input must be sorted by (patient_id, timestamp).
    """
    sequences: list[ContiguousSequence] = []
    current: list[GlucoseReading] = []

    def flush() -> None:
        if current:
            sequences.append(
                ContiguousSequence(
                    patient_id=current[0].patient_id,
                    start_timestamp=current[0].timestamp,
                    values=tuple(r.value for r in current),
                    sequence_id=len(sequences),
                )
            )

    prev: GlucoseReading | None = None
    for r in readings:
        if prev is not None and r.patient_id == prev.patient_id and r.timestamp <= prev.timestamp:
            raise DataError(
                f"readings not sorted: patient {r.patient_id} timestamp {r.timestamp} "
                f"after {prev.timestamp}"
            )
        if prev is not None and prev.patient_id > r.patient_id:
            raise DataError("readings not sorted by patient_id")
        if prev is None or r.patient_id != prev.patient_id or r.timestamp - prev.timestamp > max_gap:
            flush()
            current = [r]
        else:
            current.append(r)
        prev = r
    flush()
    return sequences


def window_count(length: int, total: int, step: int) -> int:
    """Closed-form number of windows ``prepare`` cuts from one sequence."""
    if length < total:
        return 0
    return (length - total) // step + 1


def kfold_split(
    sequences: list[ContiguousSequence],
    k: int = 5,
    seed: int = 42,
    total: int = DEFAULT_TOTAL,
) -> list[FoldSplit]:
    """Deal eligible sequences (length >= total) round-robin into k folds
    after a seeded shuffle; fold i tests on fold i and trains on the rest.
    """
    eligible = [s.sequence_id for s in sequences if len(s) >= total]
    if len(eligible) < k:
        raise DataError(f"need at least k={k} eligible sequences, got {len(eligible)}")
    rng = np.random.default_rng(seed)
    order = [eligible[i] for i in rng.permutation(len(eligible))]
    buckets: list[set[int]] = [set() for _ in range(k)]
    for position, sid in enumerate(order):
        buckets[position % k].add(sid)
    all_ids = frozenset(eligible)
    return [
        FoldSplit(
            fold_index=i,
            train_sequence_ids=frozenset(all_ids - buckets[i]),
            test_sequence_ids=frozenset(buckets[i]),
            seed=seed,
        )
        for i in range(k)
    ]


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
    sequences: list[ContiguousSequence], ids: frozenset[int], total: int, input_len: int, step: int
):
    inputs, targets, seq_ids, offsets = [], [], [], []
    for seq in sequences:
        if seq.sequence_id not in ids or len(seq) < total:
            continue
        values = np.asarray(seq.values, dtype=float)
        views = np.lib.stride_tricks.sliding_window_view(values, total)[::step]
        inputs.append(views[:, :input_len])
        targets.append(views[:, input_len:])
        n = views.shape[0]
        seq_ids.append(np.full(n, seq.sequence_id, dtype=np.int64))
        offsets.append(np.arange(0, n * step, step, dtype=np.int64))
    if not inputs:
        return (
            np.empty((0, input_len)),
            np.empty((0, total - input_len)),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
    return (
        np.ascontiguousarray(np.concatenate(inputs)),
        np.ascontiguousarray(np.concatenate(targets)),
        np.concatenate(seq_ids),
        np.concatenate(offsets),
    )


def prepare(
    sequences: list[ContiguousSequence],
    fold: FoldSplit,
    total: int = DEFAULT_TOTAL,
    input_len: int = DEFAULT_INPUT_LEN,
    train_step: int = 1,
    test_step: int = 1,
    cohort_filter: set[str] | None = None,
    cohort_label: str = "all",
) -> PreparedSet:
    """Window a fold into train/test arrays.

    Each eligible sequence of length L yields the windows of ``total``
    readings at offsets 0, step, 2*step, ... (``window_count`` of them);
    trailing readings that do not fill a window are discarded.

    cohort_filter keeps only sequences whose patient is in the given set; all
    of a patient's sequences stay on one side because filtering happens at the
    patient level and the fold split is by sequence id. The fold must have
    been built from the same (filtered) sequence list.
    """
    if train_step < 1 or test_step < 1:
        raise DataError(f"window steps must be >= 1, got {train_step} and {test_step}")
    if not (0 < input_len < total):
        raise DataError(f"need 0 < input_len ({input_len}) < total ({total})")
    if cohort_filter is not None:
        sequences = [s for s in sequences if s.patient_id in cohort_filter]
        if not sequences:
            raise DataError("cohort filter removed every sequence")
    known = {s.sequence_id for s in sequences}
    fold_ids = fold.train_sequence_ids | fold.test_sequence_ids
    if not fold_ids <= known:
        raise DataError("fold references sequence ids absent from the sequence list")

    tr = _window_arrays(sequences, fold.train_sequence_ids, total, input_len, train_step)
    te = _window_arrays(sequences, fold.test_sequence_ids, total, input_len, test_step)
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
        ids = {key: np.asarray(meta[key], dtype=np.int64) for key in INDEX_KEYS}
        provenance = meta["provenance"]
    except KeyError as exc:
        raise FormatError(f"{path}: metadata lacks key {exc}") from exc
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
