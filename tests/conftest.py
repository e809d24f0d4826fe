import dataclasses
import hashlib
import json
import re
import struct

import numpy as np
import pytest
from hypothesis import strategies as st

from glyco.ingest import Corpus, synth_corpus
from glyco.pipeline import segment


def in_float64(net):
    """The LSTM network with its parameters in float64, the tests' reference precision."""
    return dataclasses.replace(net, params=net.params.astype(np.float64))


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


# One of each kind of malformed or odd CGM data row: blank, wrong field
# count, padded or empty id, non-numeric or out-of-range field, quote, NUL,
# a lone CR, and a CR before the line end (a CRLF line, or with CRLF ends a lone CR).
ANOMALIES = [
    "", "  ", ",,", " , , ", "p1,1", "p1,1,2,3", " p1,5,6", "p1 ,5,6", ",5,6", "p1,abc,5",
    "p1,nan,5", "p1,inf,3", "p1,1e400,2", "p1,5,1e400", "p1,5,nan", "p1,0,5", "p1,0.5,5",
    "p1,-3,5", "p1,1e30,5", '"p1",5,6', 'p"1,5,6', "p1,5,0", "p1,5,-1", "p1,5,1000.5",
    "p1,5,\x00", "p1,5\r,6", "p1,5,abc\r",
]


def mix_anomalies(lines, rate, seed):
    """CGM data lines with about ``rate`` as many anomalous lines inserted at
    seeded places: each kind in ANOMALIES, an exact repeat of an earlier line
    and an earlier key with a larger value, in turn."""
    rng = np.random.default_rng(seed)
    kinds = [*ANOMALIES, "repeat", "conflict"]
    places = np.sort(rng.integers(1, len(lines), round(rate * len(lines))))[::-1].tolist()
    mixed = list(lines)
    for k, at in enumerate(places):
        earlier = lines[rng.integers(0, at)]
        pid, ts, value = earlier.split(",")
        kind = kinds[k % len(kinds)]
        row = {"repeat": earlier, "conflict": f"{pid},{ts},{float(value) + 1.0!r}"}.get(kind, kind)
        mixed.insert(at, row)
    return mixed


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


# Acceptance criterion C09's CLI sequence at tiny sizes, one argument list per
# command; "{base}" is the run's directory and protocol_args adds the seed.
PROTOCOL = [
    ["synth", "--patients", "3", "--days", "6",
     "--out-cgm", "{base}/cgm.csv", "--out-patients", "{base}/patients.csv"],
    ["ingest", "--cgm", "{base}/cgm.csv", "--patients", "{base}/patients.csv",
     "--out-dir", "{base}/ingest"],
    ["stats", "--cgm", "{base}/cgm.csv", "--patients", "{base}/patients.csv",
     "--out-dir", "{base}/stats"],
    ["cluster", "--patients", "{base}/patients.csv", "--out-dir", "{base}/cluster", "--k", "2"],
    ["prepare", "--cgm", "{base}/cgm.csv", "--out-dir", "{base}/prep",
     "--folds", "3", "--train-step", "12", "--test-step", "144"],
    ["prepare", "--cgm", "{base}/cgm.csv", "--out-dir", "{base}/prep_a",
     "--cohorts", "{base}/cohorts.csv", "--cohort", "a",
     "--folds", "3", "--train-step", "12", "--test-step", "144"],
    *(["train", "--prepared-dir", "{base}/prep", "--model", model, "--out-dir", "{base}/models",
       "--folds", "3", "--epochs", "1", "--hidden", "2", "--layers", "1",
       "--hmm-states", "4", "--hmm-max-iter", "2"] for model in ("lstm", "hmm")),
    ["evaluate", "--prepared-dir", "{base}/prep", "--models", "copy_last,linreg,lstm,hmm",
     "--models-dir", "{base}/models", "--out-dir", "{base}/eval", "--folds", "3", "--scatter"],
    ["explain", "--model", "{base}/models/lstm_fold0.glstm", "--prepared", "{base}/prep/fold0.gprep",
     "--example", "1", "--out", "{base}/trace.csv"],
    ["evaluate", "--mode", "cohort-compare", "--cgm", "{base}/cgm.csv",
     "--cohorts", "{base}/cohorts.csv", "--model", "hmm", "--fold", "0", "--folds", "3",
     "--hmm-states", "4", "--hmm-max-iter", "2", "--out-dir", "{base}/compare"],
]
PROTOCOL_COHORTS = "patient_id,cohort\nsynth000,a\nsynth001,b\nsynth002,a\n"


def protocol_args(command, base, seed):
    """One PROTOCOL command's arguments for a run in base with the given seed."""
    return [arg.format(base=base) for arg in command] + ["--seed", str(seed)]


def protocol_digests(base):
    """{path relative to base, with / separators: SHA-256 hex digest} of every
    file under base, such as the files a PROTOCOL run left there."""
    return {
        p.relative_to(base).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(base.rglob("*")) if p.is_file()
    }


def leftovers(base):
    """Every stage directory and temporary file under base."""
    return [
        p for p in base.rglob("*")
        if p.name.startswith(".glyco-stage-") or p.name.endswith(".tmp")
    ]
