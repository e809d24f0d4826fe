import json
import re
import struct

import numpy as np
import pytest
from hypothesis import strategies as st

from glyco.ingest import Corpus, synth_corpus
from glyco.pipeline import segment


def corpus_of(readings):
    """A corpus from GlucoseReading records already in (patient_id, timestamp) order."""
    readings = tuple(readings)
    return Corpus(
        [r.patient_id for r in readings],
        [r.timestamp for r in readings],
        [r.value for r in readings],
    )


@pytest.fixture(scope="session")
def small_corpus():
    """4 patients x 10 days, enough sequences for 5-fold splitting."""
    return synth_corpus(n_patients=4, days=10, seed=101)


@pytest.fixture(scope="session")
def small_store(small_corpus):
    return segment(small_corpus)


def one_window_prepared(train_windows, test_windows, input_len, provenance=None):
    """A prepared set in which each given window is its own one-window sequence;
    train windows are sequences 0.. in order, test windows follow them."""
    from glyco.pipeline import FoldSplit, SequenceStore, prepare

    windows = np.asarray([*train_windows, *test_windows], dtype=float)
    n, total = windows.shape
    store = SequenceStore(
        windows.ravel(), np.arange(n + 1) * total, np.full(n, "p", dtype=object)
    )
    n_train = len(train_windows)
    fold = FoldSplit(0, frozenset(range(n_train)), frozenset(range(n_train, n)), seed=0)
    prepared = prepare(store, fold, total=total, input_len=input_len)
    prepared.provenance.update(provenance or {})
    return prepared


FUZZ_CELLS = st.sampled_from(
    ["nan", "inf", "-inf", "1e400", "-1e400", "", " ", '"', '"a,b"', "\r", "﻿", "\x00",
     "1" * 200_000, "0", "-1", "1e-400", "9" * 5000]
)


def mutate(data, raw: bytes) -> bytes:
    """Truncate, flip bits, splice a cell, or add a BOM, CRLF or invalid UTF-8."""
    raw = bytearray(raw)
    mutation = data.draw(st.sampled_from(["truncate", "flip", "cell", "bom", "crlf", "utf8"]))
    if mutation == "truncate":
        raw = raw[: data.draw(st.integers(0, len(raw)))]
    elif mutation == "flip":
        for _ in range(data.draw(st.integers(1, 4))):
            raw[data.draw(st.integers(0, len(raw) - 1))] ^= 1 << data.draw(st.integers(0, 7))
    elif mutation == "cell":
        text = raw.decode()
        cells = [m.span() for m in re.finditer(r"[^,\n]+", text)]
        lo, hi = data.draw(st.sampled_from(cells))
        raw = bytearray((text[:lo] + data.draw(FUZZ_CELLS) + text[hi:]).encode())
    elif mutation == "bom":
        raw = bytearray("﻿".encode()) + raw
    elif mutation == "crlf":
        raw = raw.replace(b"\n", b"\r\n")
    else:
        at = data.draw(st.integers(0, len(raw)))
        raw[at:at] = data.draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x80"]))
    return bytes(raw)


def edit_header(path, edit=None, **fields):
    """Rewrite a framed file's header in place, keeping its magic, version and
    payload. The JSON header gets ``fields`` set, then ``edit`` called on it
    to change it in place; or ``edit`` is bytes, the new header as it stands."""
    raw = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", raw, 12)
    blob = edit
    if not isinstance(edit, bytes):
        header = json.loads(raw[16 : 16 + header_len])
        header.update(fields)
        if edit is not None:
            edit(header)
        blob = json.dumps(header).encode("utf-8")
    path.write_bytes(raw[:12] + struct.pack("<I", len(blob)) + blob + raw[16 + header_len :])
