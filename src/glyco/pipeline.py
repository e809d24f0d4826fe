"""Leakage-safe dataset construction: segmentation, windowing, folds.

Sequences (never windows) are the unit of the train/test split, so no raw
reading can appear on both sides of a fold. Windowing with step 1 is the
training-set augmentation; test sets may use step 1 or non-overlapping
step = window size depending on protocol.

Windows are lazy. A prepared fold keeps each windowed sequence's readings
once, plus a per-side index of (sequence id, window count, step); a window is
cut from the readings when a caller asks for it. At step 1 one reading sits
in up to 144 windows, so storing the readings instead of the windows makes a
fold about 144 times smaller, in memory and in its ``.gprep`` file.

One cutter, ``PreparedSet._cut``, serves every window view, also from an
elementwise transform of the readings (the LSTM's scaled readings, the HMM's
symbols), which gives the same bits as transforming the windows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import (
    MAX_GAP_SECONDS, finite_floats, is_int, read_framed, read_framed_header, write_framed,
)
from .errors import DataError, FormatError
from .ingest import Corpus

PREPARED_MAGIC = b"GLYFPREP"
PREPARED_VERSION = 2

SIDES = ("train", "test")
INT64_MAX = np.iinfo(np.int64).max

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
) -> list[FoldSplit]:
    """Deal eligible sequences (length >= total) round-robin into k folds
    after a seeded shuffle; fold i tests on fold i and trains on the rest.

    This is the only split: a cohort's fold i is fold i restricted to the
    cohort's sequences, so no model of fold i trains on a cohort test sequence.
    """
    eligible = np.flatnonzero(store.lengths >= total)
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


@dataclass(frozen=True, eq=False)
class WindowIndex:
    """The windows of one side of a fold, without their readings.

    Sequence ``seq_ids[i]`` gives ``counts[i]`` windows at offsets 0, step,
    2*step, ...; row r of the side is the r-th of these windows in that order.
    """

    seq_ids: np.ndarray  # int64, sorted and unique
    counts: np.ndarray  # int64, at least 1 per sequence
    step: int

    def __len__(self) -> int:
        return int(self.counts.sum())

    def spans(self, total: int) -> np.ndarray:
        """Readings each sequence covers, from its first window's start to its
        last window's end; at step > total this includes unused readings."""
        return (self.counts - 1) * self.step + total

    def locate(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Position in ``seq_ids`` and window offset of each row."""
        ends = np.cumsum(self.counts)
        i = np.searchsorted(ends, rows, side="right")
        return i, (rows - ends[i] + self.counts[i]) * self.step


@dataclass(frozen=True, eq=False)
class PreparedSet:
    """One fold's windows as two window indexes over one reading array.

    ``readings`` holds the covered span (``WindowIndex.spans``) of each train
    sequence in id order, then of each test sequence. Windows are gathered
    from it on demand and never stored; the ``train_*``/``test_*`` properties
    gather a whole side, so callers that need a few rows use ``gather``.
    """

    readings: np.ndarray  # float64 mg/dL
    train: WindowIndex
    test: WindowIndex
    input_len: int
    horizon: int
    provenance: dict = field(default_factory=dict)

    @property
    def total(self) -> int:
        return self.input_len + self.horizon

    @property
    def n_train(self) -> int:
        return len(self.train)

    @property
    def n_test(self) -> int:
        return len(self.test)

    def _cut(self, side: str, rows=None, values=None, cols: slice = np.s_[:]) -> np.ndarray:
        """Columns ``cols`` of the given rows' windows of one side (every row
        by default) as a new row-major array.

        values defaults to ``readings``; an elementwise transform of it (the
        LSTM's scaled readings, the HMM's symbols) gives the same bits as
        transforming the cut windows.
        """
        index = getattr(self, side)
        n = len(index)
        rows = np.arange(n) if rows is None else np.asarray(rows, dtype=np.int64)
        if rows.size and not (0 <= rows.min() and rows.max() < n):
            raise DataError(f"{side} rows must lie in [0, {n})")
        values = self.readings if values is None else values
        if not rows.size:
            return np.empty((0, len(range(self.total)[cols])), dtype=values.dtype)
        spans = index.spans(self.total)
        first = np.cumsum(spans) - spans
        if side == "test":
            first += int(self.train.spans(self.total).sum())
        i, offsets = index.locate(rows)
        view = np.lib.stride_tricks.sliding_window_view(values, self.total)
        return np.ascontiguousarray(view[first[i] + offsets, cols])

    def windows(self, side: str, values=None) -> np.ndarray:
        """Every (input + target) window of one side as an (n, total) array,
        cut from values (``readings`` by default)."""
        return self._cut(side, values=values)

    def gather(self, side: str, rows=None, values=None) -> tuple[np.ndarray, np.ndarray]:
        """(inputs, targets) of the given rows of one side (every row by default)."""
        return (
            self._cut(side, rows, values, np.s_[: self.input_len]),
            self._cut(side, rows, values, np.s_[self.input_len :]),
        )

    # Each property cuts only its own columns: a whole-window cut sliced
    # afterwards would hold the unused columns at the peak.
    train_inputs = property(lambda self: self._cut("train", cols=np.s_[: self.input_len]))
    train_targets = property(lambda self: self._cut("train", cols=np.s_[self.input_len :]))
    train_seq_ids = property(lambda self: np.repeat(self.train.seq_ids, self.train.counts))
    train_offsets = property(lambda self: self.train.locate(np.arange(len(self.train)))[1])
    test_inputs = property(lambda self: self._cut("test", cols=np.s_[: self.input_len]))
    test_targets = property(lambda self: self._cut("test", cols=np.s_[self.input_len :]))
    test_seq_ids = property(lambda self: np.repeat(self.test.seq_ids, self.test.counts))
    test_offsets = property(lambda self: self.test.locate(np.arange(len(self.test)))[1])


def _window_index(store: SequenceStore, ids: frozenset[int], total: int, step: int) -> WindowIndex:
    """The windows of the given sequences in id order, cut at offsets 0, step, ..."""
    ids = np.sort(np.fromiter(ids, dtype=np.int64, count=len(ids)))
    counts = (store.lengths[ids] - total) // step + 1
    windowed = counts > 0
    return WindowIndex(ids[windowed], counts[windowed], step)


def prepare(
    store: SequenceStore,
    fold: FoldSplit,
    total: int = DEFAULT_TOTAL,
    input_len: int = DEFAULT_INPUT_LEN,
    train_step: int = 1,
    test_step: int = 1,
    cohort_label: str = "all",
) -> PreparedSet:
    """Index a fold's windows and copy the readings they cover.

    Each fold sequence of length L yields the windows of ``total`` readings
    at offsets 0, step, 2*step, ... (``window_count`` of them); trailing
    readings that do not fill a window are left out. Only the fold's
    sequences are windowed, so a cohort's fold (see ``kfold_split``) gives
    that cohort's windows. No window is materialised.
    """
    if train_step < 1 or test_step < 1:
        raise DataError(f"window steps must be >= 1, got {train_step} and {test_step}")
    if not (0 < input_len < total):
        raise DataError(f"need 0 < input_len ({input_len}) < total ({total})")
    fold_ids = fold.train_sequence_ids | fold.test_sequence_ids
    if fold_ids and not (0 <= min(fold_ids) and max(fold_ids) < len(store)):
        raise DataError("fold references sequence ids absent from the sequence store")

    train = _window_index(store, fold.train_sequence_ids, total, train_step)
    test = _window_index(store, fold.test_sequence_ids, total, test_step)
    spans = [
        store.values[start : start + span]
        for index in (train, test)
        for start, span in zip(store.starts[index.seq_ids].tolist(), index.spans(total).tolist())
    ]
    provenance = {
        "fold": fold.fold_index,
        "cohort": cohort_label,
        "train_step": train_step,
        "test_step": test_step,
        "seed": fold.seed,
        "total": total,
        "input_len": input_len,
    }
    readings = np.concatenate(spans) if spans else np.empty(0)
    return PreparedSet(readings, train, test, input_len, total - input_len, provenance)


def save_prepared(prepared: PreparedSet, path: str | Path) -> None:
    """Framed file (see ``core.write_framed``): the header holds the
    provenance, window lengths and both window indexes; the payload is the
    readings."""
    meta = {
        "provenance": prepared.provenance,
        "input_len": prepared.input_len,
        "horizon": prepared.horizon,
    }
    for side in SIDES:
        index = getattr(prepared, side)
        meta[f"{side}_seq_ids"] = index.seq_ids.tolist()
        meta[f"{side}_counts"] = index.counts.tolist()
        meta[f"{side}_step"] = index.step
    write_framed(path, PREPARED_MAGIC, PREPARED_VERSION, meta, prepared.readings)


def _is_count(value, least: int) -> bool:
    return is_int(value) and least <= value <= INT64_MAX


def _read_index(path, meta: dict, side: str) -> tuple[list, list, int]:
    """One side's (seq_ids, counts, step) from the metadata, checked as plain ints."""
    ids, counts, step = meta[f"{side}_seq_ids"], meta[f"{side}_counts"], meta[f"{side}_step"]
    if not (
        isinstance(ids, list)
        and isinstance(counts, list)
        and len(ids) == len(counts)
        and all(_is_count(v, 0) for v in ids)
        and all(_is_count(c, 1) for c in counts)
        and _is_count(step, 1)
    ):
        raise FormatError(
            f"{path}: {side} index needs equal-length lists of ids >= 0 and counts >= 1 "
            "and a step >= 1"
        )
    if any(b <= a for a, b in zip(ids, ids[1:])):
        raise FormatError(f"{path}: {side}_seq_ids are not sorted and unique")
    return ids, counts, step


def _check_version(path, version: int) -> None:
    if version == 1:
        raise FormatError(
            f"{path}: prepared-set format v1 (one copy per window) is no longer read; "
            "re-run prepare to rebuild it"
        )
    if version != PREPARED_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")


def load_provenance(path: str | Path) -> dict:
    """A prepared set's provenance, read from its file's header alone."""
    version, meta = read_framed_header(path, PREPARED_MAGIC, "prepared-set")
    _check_version(path, version)
    provenance = meta.get("provenance")
    if not isinstance(provenance, dict):
        raise FormatError(f"{path}: metadata lacks a provenance object")
    return provenance


def load_prepared(path: str | Path) -> PreparedSet:
    version, meta, payload = read_framed(path, PREPARED_MAGIC, "prepared-set")
    _check_version(path, version)
    try:
        input_len, horizon, provenance = meta["input_len"], meta["horizon"], meta["provenance"]
        sides = {side: _read_index(path, meta, side) for side in SIDES}
    except KeyError as exc:
        raise FormatError(f"{path}: metadata lacks key {exc}") from exc
    if not (_is_count(input_len, 1) and _is_count(horizon, 1) and isinstance(provenance, dict)):
        raise FormatError(f"{path}: metadata field of the wrong type")
    if set(sides["train"][0]) & set(sides["test"][0]):
        raise FormatError(f"{path}: a sequence id is on both the train and the test side")
    total = input_len + horizon
    # Python ints: exact for any count, so a hostile index cannot overflow.
    expected = sum((c - 1) * step + total for _, counts, step in sides.values() for c in counts)
    readings = finite_floats(path, payload, expected)
    train, test = (
        WindowIndex(np.array(ids, dtype=np.int64), np.array(counts, dtype=np.int64), step)
        for ids, counts, step in sides.values()
    )
    return PreparedSet(readings, train, test, input_len, horizon, provenance)
