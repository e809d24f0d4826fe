"""Seeded synthetic corpus of a fixed size, written as the CSVs glyco reads.

glyco's `synth_corpus` draws heavy-tailed dropout gaps, so the number of
windows a corpus yields varies by about 10% between seeds, and so would every
timing. The benchmark therefore draws a generous seeded corpus and keeps its
contiguous runs in order until they yield exactly `windows` windows at `step`,
cutting the last run short. Every seed then gives the same amount of work.
"""

from __future__ import annotations


def fixed_size(ingest, window_count, seed: int, patients: int, days: int, windows: int,
               step: int, total: int, max_gap_s: int):
    """The seeded corpus cut to exactly `windows` windows of `total` at `step`."""
    corpus = ingest.synth_corpus(patients, days, seed)
    readings = corpus.readings
    kept = []
    remaining = windows
    start = 0
    while start < len(readings) and remaining > 0:
        stop = start + 1
        while (
            stop < len(readings)
            and readings[stop].patient_id == readings[stop - 1].patient_id
            and readings[stop].timestamp - readings[stop - 1].timestamp <= max_gap_s
        ):
            stop += 1
        length = stop - start
        count = window_count(length, total, step)
        if count > remaining:
            length, count = total + (remaining - 1) * step, remaining
        kept.extend(readings[start:start + length])
        remaining -= count
        start = stop
    if remaining:
        raise ValueError(
            f"{patients} patients x {days} days yield {windows - remaining} windows, need {windows}"
        )
    ids = {r.patient_id for r in kept}
    return kept, [p for p in corpus.patients if p.patient_id in ids]

