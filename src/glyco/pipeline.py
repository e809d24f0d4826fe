"""Leakage-safe dataset construction: segmentation, windowing, folds.

Sequences (never windows) are the unit of the train/test split, so no raw
reading can appear on both sides of a fold. Windowing with step 1 is the
training-set augmentation; test sets may use step 1 or non-overlapping
step = window size depending on protocol.

Windows are lazy. A prepared fold keeps a per-side index of (sequence id,
window count, step) over a ``ReadingStore``, which holds each windowed
sequence's readings once; a window is cut from the readings when a caller
asks for it. At step 1 one reading sits in up to 144 windows, so storing the
readings instead of the windows makes a fold about 144 times smaller, in
memory and in its ``.gprep`` file. Every fold's train and test sides
together cover nearly every eligible sequence, so a ``prepare`` run builds
one store for all its folds (``run_store``) and keeps each reading once per
run: ``fold0.gprep`` holds the store, and every other fold file names it by
file name and SHA-256.

One cutter, ``PreparedSet._cut``, serves every window view, also from an
elementwise transform of the readings (the LSTM's scaled readings, the HMM's
symbols), which gives the same bits as transforming the windows.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .core import (
    MAX_GAP_SECONDS, finite_floats, is_int, read_framed, read_framed_header, write_framed,
)
from .errors import DataError, FormatError
from .ingest import Corpus

PREPARED_MAGIC = b"GLYFPREP"
PREPARED_VERSION = 3

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
class ReadingStore:
    """The readings a set of windows covers, each stored once.

    Sequence ``ids[i]`` keeps its first ``spans[i]`` readings, in id order, in
    ``readings``. A store built for one fold holds each side's covered span
    (``WindowIndex.spans``); one built for a whole run (``run_store``) holds
    the longest span any of its folds needs.
    """

    ids: np.ndarray  # int64, sorted and unique
    spans: np.ndarray  # int64, one per id
    readings: np.ndarray  # float64 mg/dL

    def first(self, seq_ids: np.ndarray) -> np.ndarray:
        """Position in ``readings`` of each given stored sequence's first reading."""
        return (np.cumsum(self.spans) - self.spans)[np.searchsorted(self.ids, seq_ids)]

    @cached_property
    def sha256(self) -> str:
        """Hex SHA-256 of the readings as the ``.gprep`` payload stores them."""
        return hashlib.sha256(np.ascontiguousarray(self.readings, dtype="<f8").data).hexdigest()


@dataclass(frozen=True, eq=False)
class PreparedSet:
    """One fold's windows as two window indexes over one reading store.

    Windows are gathered from the store on demand and never stored; the
    ``train_*``/``test_*`` properties gather a whole side, so callers that
    need a few rows use ``gather``.
    """

    store: ReadingStore
    train: WindowIndex
    test: WindowIndex
    input_len: int
    horizon: int
    provenance: dict = field(default_factory=dict)

    @property
    def readings(self) -> np.ndarray:
        return self.store.readings

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
        first = self.store.first(index.seq_ids)
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
    if step < 1:
        raise DataError(f"window steps must be >= 1, got {step}")
    ids = np.sort(np.fromiter(ids, dtype=np.int64, count=len(ids)))
    if ids.size and not (0 <= ids[0] and ids[-1] < len(store)):
        raise DataError("fold references sequence ids absent from the sequence store")
    counts = (store.lengths[ids] - total) // step + 1
    windowed = counts > 0
    return WindowIndex(ids[windowed], counts[windowed], step)


def _covering_store(store: SequenceStore, indexes, total: int) -> ReadingStore:
    """The readings the given window indexes cover: each sequence's longest span, once."""
    ids, where = np.unique(np.concatenate([i.seq_ids for i in indexes]), return_inverse=True)
    spans = np.zeros(len(ids), dtype=np.int64)
    np.maximum.at(spans, where, np.concatenate([i.spans(total) for i in indexes]))
    pieces = [
        store.values[start : start + span]
        for start, span in zip(store.starts[ids].tolist(), spans.tolist())
    ]
    return ReadingStore(ids, spans, np.concatenate(pieces) if pieces else np.empty(0))


def run_store(
    store: SequenceStore,
    folds: list[FoldSplit],
    total: int = DEFAULT_TOTAL,
    train_step: int = 1,
    test_step: int = 1,
) -> ReadingStore:
    """One reading store for every fold of a run, to pass to ``prepare``.

    A sequence's train span can exceed its test span (with length 300 and
    total 144, test step 144 covers 288 readings and train step 8 covers
    296), so each sequence keeps the longest span any fold's windows need.
    """
    indexes = [
        _window_index(store, ids, total, step)
        for fold in folds
        for ids, step in ((fold.train_sequence_ids, train_step),
                          (fold.test_sequence_ids, test_step))
    ]
    return _covering_store(store, indexes, total)


def _uncovered(store: ReadingStore, sides, total: int) -> str | None:
    """What the store lacks for the first indexed sequence whose windows it
    does not hold, else None. ``sides`` are (side, (ids, counts, step)) pairs;
    Python ints, so a hostile index cannot overflow."""
    held = dict(zip(store.ids.tolist(), store.spans.tolist()))
    for side, (ids, counts, step) in sides:
        for seq, count in zip(ids, counts):
            need = (count - 1) * step + total
            if need > held.get(seq, 0):
                return (f"{side} windows of sequence {seq} need {need} readings, "
                        f"the store's payload holds {held.get(seq, 0)} for it")
    return None


def prepare(
    store: SequenceStore,
    fold: FoldSplit,
    total: int = DEFAULT_TOTAL,
    input_len: int = DEFAULT_INPUT_LEN,
    train_step: int = 1,
    test_step: int = 1,
    cohort_label: str = "all",
    readings: ReadingStore | None = None,
) -> PreparedSet:
    """Index a fold's windows over the readings they cover.

    Each fold sequence of length L yields the windows of ``total`` readings
    at offsets 0, step, 2*step, ... (``window_count`` of them); trailing
    readings that do not fill a window are left out. Only the fold's
    sequences are windowed, so a cohort's fold (see ``kfold_split``) gives
    that cohort's windows. No window is materialised. The windows are cut
    from ``readings``, a store shared by the run's folds (``run_store``),
    which must hold them; by default the fold's own readings are copied out.
    """
    if not (0 < input_len < total):
        raise DataError(f"need 0 < input_len ({input_len}) < total ({total})")
    train = _window_index(store, fold.train_sequence_ids, total, train_step)
    test = _window_index(store, fold.test_sequence_ids, total, test_step)
    if readings is None:
        readings = _covering_store(store, (train, test), total)
    else:
        sides = [(side, (i.seq_ids.tolist(), i.counts.tolist(), i.step))
                 for side, i in (("train", train), ("test", test))]
        problem = _uncovered(readings, sides, total)
        if problem:
            raise DataError(f"fold {fold.fold_index}: {problem}")
    provenance = {
        "fold": fold.fold_index,
        "cohort": cohort_label,
        "train_step": train_step,
        "test_step": test_step,
        "seed": fold.seed,
        "total": total,
        "input_len": input_len,
    }
    return PreparedSet(readings, train, test, input_len, total - input_len, provenance)


def save_prepared(prepared: PreparedSet, path: str | Path, store_file: str | None = None) -> None:
    """Framed file (see ``core.write_framed``): the header holds the
    provenance, window lengths, both window indexes and the store's SHA-256.

    By default the file holds its store: the header has the store's index
    and the payload its readings. Given ``store_file``, the name of a file
    beside path that holds the same store, the header names that file and
    the payload is empty.
    """
    meta = {
        "provenance": prepared.provenance,
        "input_len": prepared.input_len,
        "horizon": prepared.horizon,
        "store_sha256": prepared.store.sha256,
    }
    for side in SIDES:
        index = getattr(prepared, side)
        meta[f"{side}_seq_ids"] = index.seq_ids.tolist()
        meta[f"{side}_counts"] = index.counts.tolist()
        meta[f"{side}_step"] = index.step
    if store_file is None:
        meta["store_ids"] = prepared.store.ids.tolist()
        meta["store_spans"] = prepared.store.spans.tolist()
        payload = prepared.readings
    else:
        meta["store_file"] = store_file
        payload = np.empty(0)
    write_framed(path, PREPARED_MAGIC, PREPARED_VERSION, meta, payload)


def _is_count(value, least: int) -> bool:
    return is_int(value) and least <= value <= INT64_MAX


def _field(path, meta: dict, key: str):
    try:
        return meta[key]
    except KeyError:
        raise FormatError(f"{path}: metadata lacks key {key!r}") from None


def _id_lists(path, meta: dict, ids_key: str, values_key: str) -> tuple[list, list]:
    """Sorted unique ids >= 0 and one value >= 1 per id, from two metadata
    lists, checked as plain ints."""
    ids, values = _field(path, meta, ids_key), _field(path, meta, values_key)
    if not (
        isinstance(ids, list)
        and isinstance(values, list)
        and len(ids) == len(values)
        and all(_is_count(v, 0) for v in ids)
        and all(_is_count(v, 1) for v in values)
    ):
        raise FormatError(
            f"{path}: {ids_key} and {values_key} need equal-length lists of ids >= 0 "
            "and values >= 1"
        )
    if any(b <= a for a, b in zip(ids, ids[1:])):
        raise FormatError(f"{path}: {ids_key} are not sorted and unique")
    return ids, values


def _read_index(path, meta: dict, side: str) -> tuple[list, list, int]:
    """One side's (seq_ids, counts, step) from the metadata."""
    ids, counts = _id_lists(path, meta, f"{side}_seq_ids", f"{side}_counts")
    step = _field(path, meta, f"{side}_step")
    if not _is_count(step, 1):
        raise FormatError(f"{path}: {side}_step must be an int >= 1")
    return ids, counts, step


def _check_version(path, version: int) -> None:
    if version in (1, 2):
        copies = "one copy per window" if version == 1 else "one copy per fold"
        raise FormatError(
            f"{path}: prepared-set format v{version} ({copies}) is no longer read; "
            "re-run prepare to rebuild it"
        )
    if version != PREPARED_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")


def load_header(path: str | Path) -> tuple[dict, str]:
    """A prepared set's provenance and store SHA-256, read from its file's header alone."""
    version, meta = read_framed_header(path, PREPARED_MAGIC, "prepared-set")
    _check_version(path, version)
    provenance, digest = _field(path, meta, "provenance"), _field(path, meta, "store_sha256")
    if not (isinstance(provenance, dict) and isinstance(digest, str)):
        raise FormatError(f"{path}: metadata needs a provenance object and a store_sha256 string")
    return provenance, digest


def _held_store(path, meta: dict, payload: memoryview) -> ReadingStore:
    """The store a file holds: its index from the header, its readings from the
    payload, which must hash to the header's SHA-256."""
    ids, spans = _id_lists(path, meta, "store_ids", "store_spans")
    # Python ints: exact for any span, so a hostile index cannot overflow.
    readings = finite_floats(path, payload, sum(spans))
    digest = hashlib.sha256(payload).hexdigest()
    if digest != _field(path, meta, "store_sha256"):
        raise FormatError(
            f"{path}: the readings' SHA-256 is {digest}, the header's is "
            f"{meta['store_sha256']}: the file is corrupt"
        )
    return ReadingStore(np.array(ids, dtype=np.int64), np.array(spans, dtype=np.int64), readings)


def _named_store(path, name, digest) -> ReadingStore:
    """The store held by ``name``, a file beside path, whose SHA-256 path's header names."""
    if not (isinstance(name, str) and name not in ("", "..") and Path(name).name == name):
        raise FormatError(f"{path}: store_file must be a file name, got {name!r}")
    store_path = Path(path).parent / name
    try:
        version, meta, payload = read_framed(store_path, PREPARED_MAGIC, "prepared-set")
    except FileNotFoundError:
        raise DataError(f"{path}: its readings are in {store_path}, which is missing") from None
    _check_version(store_path, version)
    if "store_file" in meta:
        raise FormatError(f"{store_path}: holds no store of its own, yet {path} names it")
    if meta.get("store_sha256") != digest:
        raise FormatError(
            f"{path}: names store SHA-256 {digest}, but {store_path} holds "
            f"{meta.get('store_sha256')!r}: the files are of different prepare runs"
        )
    return _held_store(store_path, meta, payload)


def load_prepared(path: str | Path) -> PreparedSet:
    """A prepared set from its file, with its store read from the file itself or
    from the file beside it that the header names; either way the store's
    readings must hash to the header's SHA-256."""
    version, meta, payload = read_framed(path, PREPARED_MAGIC, "prepared-set")
    _check_version(path, version)
    input_len, horizon, provenance, digest = (
        _field(path, meta, key) for key in ("input_len", "horizon", "provenance", "store_sha256")
    )
    sides = {side: _read_index(path, meta, side) for side in SIDES}
    if not (_is_count(input_len, 1) and _is_count(horizon, 1) and isinstance(provenance, dict)):
        raise FormatError(f"{path}: metadata field of the wrong type")
    if set(sides["train"][0]) & set(sides["test"][0]):
        raise FormatError(f"{path}: a sequence id is on both the train and the test side")
    if "store_file" in meta:
        finite_floats(path, payload, 0)  # a file naming its store holds no readings
        store = _named_store(path, meta["store_file"], digest)
    else:
        store = _held_store(path, meta, payload)
    problem = _uncovered(store, sides.items(), input_len + horizon)
    if problem:
        raise FormatError(f"{path}: {problem}")
    train, test = (
        WindowIndex(np.array(ids, dtype=np.int64), np.array(counts, dtype=np.int64), step)
        for ids, counts, step in sides.values()
    )
    return PreparedSet(store, train, test, input_len, horizon, provenance)
