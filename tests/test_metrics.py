import enum
import json
import math

import numpy as np
import pytest

from glyco.baselines import copy_last
from glyco.errors import DataError, InvalidValueError
from glyco.metrics import (
    _classes,
    aggregate,
    clarke_zones,
    esod_n,
    prf1,
    rmse,
    score_pairs,
)


# Scalar oracles: the class and zone rules written out one point at a time,
# as the array rules in glyco.metrics must apply them.
class GlycemicClass(enum.Enum):
    HYPO = "hypo"
    NORMAL = "normal"
    HYPER = "hyper"


def classify(value: float, hypo: float = 70.0, hyper: float = 280.0) -> GlycemicClass:
    """Threshold classification; boundary values are Normal."""
    if not math.isfinite(value):
        raise InvalidValueError(f"cannot classify non-finite glucose {value!r}")
    if value < hypo:
        return GlycemicClass.HYPO
    if value > hyper:
        return GlycemicClass.HYPER
    return GlycemicClass.NORMAL


def clarke_zone(reference: float, predicted: float) -> str:
    """Zone A-E of one (reference, predicted) point, standard grid rules, mg/dL."""
    if not (math.isfinite(reference) and math.isfinite(predicted)) or reference <= 0:
        raise InvalidValueError("error-grid values must be finite with a positive reference")
    r, p = reference, predicted
    if abs(r - p) <= 0.2 * r or (r <= 70 and p <= 70):
        return "A"
    if (r >= 180 and p <= 70) or (r <= 70 and p >= 180):
        return "E"
    if (70 <= r <= 290 and p >= r + 110) or (130 <= r <= 180 and p <= 1.4 * r - 182):
        return "C"
    if (r >= 240 and 70 <= p <= 180) or (r <= 175 / 3 and 70 <= p <= 180) or (
        175 / 3 <= r <= 70 and p >= 1.2 * r
    ):
        return "D"
    return "B"


def zone(reference: float, predicted: float) -> str:
    """The oracle's zone of one point, checked against the array rules."""
    expected = clarke_zone(reference, predicted)
    counts = clarke_zones(np.array([[predicted]]), np.array([[reference]]))["counts"]
    assert counts[expected] == 1
    return expected


def arrays(*pairs):
    """(predicted, reference) arrays with one row per (predicted, reference) pair."""
    predicted = np.array([p for p, _ in pairs], dtype=float)
    reference = np.array([r for _, r in pairs], dtype=float)
    return predicted, reference


class TestArrayInputs:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(InvalidValueError):
            score_pairs(np.ones((1, 2)), np.ones((1, 1)), fold=0)
        with pytest.raises(InvalidValueError):
            rmse(np.ones((2, 12)), np.ones((3, 12)))

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            score_pairs(np.empty((0, 12)), np.empty((0, 12)), fold=0)
        with pytest.raises(DataError):
            rmse(np.empty((1, 0)), np.empty((1, 0)))

    def test_length(self):
        predicted, reference = arrays((range(1, 13), range(2, 14)))
        scores = score_pairs(predicted, reference, fold=0)
        assert scores["n_examples"] == 1
        assert sum(clarke_zones(predicted, reference)["counts"].values()) == 12

    def test_non_finite_rejected(self):
        predicted, reference = arrays(([100.0, math.inf, 100.0], [100.0, 100.0, 100.0]))
        with pytest.raises(InvalidValueError):
            score_pairs(predicted, reference, fold=0)


class TestRmse:
    def test_perfect(self):
        assert rmse(*arrays(([100.0] * 12, [100.0] * 12))) == 0.0

    def test_constant_offset(self):
        reference = list(np.linspace(80, 200, 12))
        predicted = [v + 5.0 for v in reference]
        assert rmse(*arrays((predicted, reference))) == pytest.approx(5.0, abs=1e-12)

    def test_hand_computed(self):
        # sqrt((0 + 4)/2) = sqrt(2)
        assert rmse(*arrays(([1.0, 2.0], [1.0, 4.0]))) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_pooled_over_pairs(self):
        predicted, reference = arrays(([1.0, 1.0], [0.0, 0.0]), ([3.0, 3.0], [0.0, 0.0]))
        assert rmse(predicted, reference) == pytest.approx(math.sqrt((1 + 1 + 9 + 9) / 4), abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            rmse(np.empty((0, 12)), np.empty((0, 12)))


class TestEsod:
    def test_identity_on_curved_reference(self):
        curved = [100.0, 120.0, 90.0, 140.0, 95.0]
        assert esod_n(*arrays((curved, curved)))[0] == pytest.approx(1.0, abs=1e-12)

    def test_flat_prediction_gives_zero(self):
        curved = [100.0, 120.0, 90.0, 140.0]
        assert esod_n(*arrays(([110.0] * 4, curved)))[0] == 0.0

    def test_hand_computed(self):
        # numerator (1)^2 + (-2)^2 = 5, denominator (-2)^2 + (2)^2 = 8
        ratio = esod_n(*arrays(([0.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0])))[0]
        assert ratio == pytest.approx(0.625, abs=1e-12)

    def test_flat_reference_is_undefined(self):
        assert np.isnan(esod_n(*arrays(([1.0, 2.0, 4.0], [5.0, 5.0, 5.0])))[0])
        linear = [1.0, 2.0, 3.0, 4.0]  # zero second differences, still flat curvature
        assert np.isnan(esod_n(*arrays(([0.0, 1.0, 0.0, 1.0], linear)))[0])

    def test_short_horizon_rejected(self):
        with pytest.raises(DataError):
            esod_n(*arrays(([1.0, 2.0], [1.0, 2.0])))


class TestClassify:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (69.9, GlycemicClass.HYPO),
            (70.0, GlycemicClass.NORMAL),  # boundary inclusive to normal
            (150.0, GlycemicClass.NORMAL),
            (280.0, GlycemicClass.NORMAL),
            (280.1, GlycemicClass.HYPER),
        ],
    )
    def test_thresholds(self, value, expected):
        assert classify(value) is expected
        assert _classes(np.array([value]), 70.0, 280.0)[0] == list(GlycemicClass).index(expected)

    def test_total_and_single_class(self):
        for v in np.linspace(1, 600, 241):
            assert classify(float(v)) in GlycemicClass

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidValueError):
            classify(math.nan)


class TestPrf1:
    def test_perfect_with_abnormal_points(self):
        reference = [60.0, 300.0, 150.0, 65.0]
        scores = prf1(*arrays((reference, reference)))["abnormal"]
        assert scores["precision"] == 1.0
        assert scores["recall"] == 1.0
        assert scores["f1"] == 1.0

    def test_no_abnormal_anywhere_gives_undefined(self):
        normal = [100.0, 150.0, 200.0]
        scores = prf1(*arrays((normal, normal)))["abnormal"]
        assert scores["recall"] is None
        assert scores["precision"] is None

    def test_hand_confusion(self):
        # TP=3, FP=1, FN=2 -> P=0.75, R=0.6, F1=2PR/(P+R)
        predicted, reference = arrays(
            ([60.0, 300.0, 50.0], [65.0, 290.0, 100.0]),  # TP TP FP
            ([100.0, 110.0, 60.0], [60.0, 300.0, 50.0]),  # FN FN TP
        )
        scores = prf1(predicted, reference)["abnormal"]
        assert scores["tp"] == 3 and scores["fp"] == 1 and scores["fn"] == 2
        assert scores["precision"] == pytest.approx(0.75, abs=1e-12)
        assert scores["recall"] == pytest.approx(0.6, abs=1e-12)
        assert scores["f1"] == pytest.approx(2 * 0.75 * 0.6 / 1.35, abs=1e-12)

    def test_f1_is_harmonic_mean(self):
        rng = np.random.default_rng(7)
        scores = prf1(rng.uniform(40, 400, (50, 12)), rng.uniform(40, 400, (50, 12)))["abnormal"]
        p, r, f1 = scores["precision"], scores["recall"], scores["f1"]
        assert f1 == pytest.approx(2 * p * r / (p + r), abs=1e-12)


class TestClarke:
    def test_diagonal_is_a(self):
        assert zone(150.0, 150.0) == "A"

    def test_within_20_percent_is_a(self):
        assert zone(150.0, 170.0) == "A"
        assert zone(150.0, 180.0) == "A"  # exactly 20%

    def test_dangerous_hyper_miss(self):
        assert zone(200.0, 60.0) in ("D", "E")

    def test_rule_table_spot_checks(self):
        assert zone(100.0, 215.0) == "C"  # overcorrection band
        assert zone(50.0, 100.0) == "D"  # missed hypoglycemia
        assert zone(250.0, 150.0) == "D"  # missed hyperglycemia
        assert zone(160.0, 30.0) == "C"
        assert zone(100.0, 110.0) == "A"
        assert zone(400.0, 50.0) == "E"

    def test_proportions_sum_to_one(self):
        rng = np.random.default_rng(13)
        zones = clarke_zones(rng.uniform(40, 400, (40, 12)), rng.uniform(40, 400, (40, 12)))
        assert sum(zones["proportions"].values()) == pytest.approx(1.0, abs=1e-12)
        assert sum(zones["counts"].values()) == 40 * 12

    def test_non_positive_rejected(self):
        with pytest.raises(InvalidValueError):
            clarke_zone(0.0, 100.0)
        with pytest.raises(InvalidValueError):
            clarke_zones(np.full((1, 3), 100.0), np.array([[100.0, 0.0, 100.0]]))

    def test_non_positive_prediction_zoned(self):
        # a forecast at or below 0 mg/dL falls under the grid's p <= 70 rules
        assert zone(50.0, -3.0) == "A"
        assert zone(200.0, 0.0) == "E"
        assert zone(100.0, -20.0) == "B"
        zones = clarke_zones(np.array([[-3.0, 0.0, -20.0]]), np.array([[50.0, 200.0, 100.0]]))
        assert zones["counts"] == {"A": 1, "B": 1, "C": 0, "D": 0, "E": 1}

    def test_non_finite_prediction_rejected(self):
        with pytest.raises(InvalidValueError):
            clarke_zone(100.0, math.nan)
        with pytest.raises(InvalidValueError):
            clarke_zones(np.array([[math.inf]]), np.array([[100.0]]))


class TestAggregate:
    def _fold(self, index, value):
        return {
            "fold": index,
            "n_examples": 10,
            "rmse": value,
            "esod_mean": None,
            "esod_defined": 0,
            "esod_undefined": 10,
            "classification": {"abnormal": {"precision": None, "recall": None, "f1": None}},
            "zone_proportions": {z: 0.2 for z in "ABCDE"},
        }

    def test_identical_folds_have_zero_sd(self):
        agg = aggregate([self._fold(0, 30.0), self._fold(1, 30.0)])
        assert agg["rmse"]["mean"] == 30.0
        assert agg["rmse"]["sd"] == 0.0

    def test_hand_mean_sd(self):
        agg = aggregate([self._fold(0, 28.0), self._fold(1, 30.0)])
        assert agg["rmse"]["mean"] == pytest.approx(29.0, abs=1e-12)
        assert agg["rmse"]["sd"] == pytest.approx(1.0, abs=1e-12)  # population s.d.
        # no fold defines the curvature ratio or the abnormal-class scores
        assert agg["esod"] == agg["f1"] == {"mean": None, "sd": None}
        assert agg["esod_undefined_folds"] == 2


def test_score_pairs_copy_last_esod_undefined_reported():
    rng = np.random.default_rng(3)
    inputs = rng.uniform(80, 300, (6, 20))
    targets = rng.uniform(80, 300, (6, 12))
    metrics = score_pairs(copy_last(inputs), targets, fold=0)
    # copy-last output has zero curvature: every defined ratio is exactly 0
    assert metrics["esod_mean"] == 0.0 or metrics["esod_mean"] is None
    assert metrics["esod_defined"] + metrics["esod_undefined"] == 6
    assert metrics["rmse"] > 0


def boundary_pairs(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Random (n, 12) forecasts and references, many points on a grid or class boundary."""
    rng = np.random.default_rng(seed)
    reference = rng.uniform(40.0, 400.0, (n, 12))
    special = rng.random((n, 12)) < 0.3
    reference[special] = rng.choice([70.0, 280.0, 175.0 / 3, 130.0, 180.0, 240.0, 290.0], special.sum())
    reference[::17] = reference[::17, :1]  # flat rows: undefined curvature ratio
    r = reference
    candidates = np.stack(
        [
            rng.uniform(-30.0, 450.0, (n, 12)),
            np.full((n, 12), 70.0),
            np.full((n, 12), 280.0),
            np.full((n, 12), 175.0 / 3),
            r + 0.2 * r,
            r - 0.2 * r,
            r + 110.0,
            1.4 * r - 182.0,
            1.2 * r,
        ]
    )
    pick = rng.integers(0, len(candidates), (n, 12))
    predicted = np.take_along_axis(candidates, pick[None], axis=0)[0]
    return predicted, reference


def row_energy(v: np.ndarray) -> float:
    """Second-difference energy of one row, spelled out as the metric defines it."""
    dd = v[2:] - 2.0 * v[1:-1] + v[:-2]
    return float(np.sum(dd * dd))


def per_row_oracle(predicted, reference, fold, hypo=70.0, hyper=280.0) -> dict:
    """``score_pairs``'s dict from one row and one point at a time, summed left to right."""
    total = 0.0
    ratios = []
    confusion = {name: dict(tp=0, fp=0, fn=0, tn=0) for name in ("abnormal", "hypo", "hyper")}
    zones = dict.fromkeys("ABCDE", 0)
    for p_row, r_row in zip(predicted, reference):
        total += float(np.sum((p_row - r_row) ** 2))
        denominator = row_energy(r_row)
        if denominator != 0.0:
            ratios.append(row_energy(p_row) / denominator)
        for p, r in zip(p_row.tolist(), r_row.tolist()):
            zones[clarke_zone(r, p)] += 1
            pc, rc = classify(p, hypo, hyper), classify(r, hypo, hyper)
            for name, pos, ref_pos in (
                ("abnormal", pc is not GlycemicClass.NORMAL, rc is not GlycemicClass.NORMAL),
                ("hypo", pc is GlycemicClass.HYPO, rc is GlycemicClass.HYPO),
                ("hyper", pc is GlycemicClass.HYPER, rc is GlycemicClass.HYPER),
            ):
                key = "tp" if pos and ref_pos else "fp" if pos else "fn" if ref_pos else "tn"
                confusion[name][key] += 1
    points = predicted.size

    def scores(c):
        precision = c["tp"] / (c["tp"] + c["fp"]) if c["tp"] + c["fp"] else None
        recall = c["tp"] / (c["tp"] + c["fn"]) if c["tp"] + c["fn"] else None
        f1 = (
            2.0 * precision * recall / (precision + recall)
            if precision is not None and recall is not None and precision + recall
            else None
        )
        return {**c, "precision": precision, "recall": recall, "f1": f1}

    return {
        "fold": fold,
        "n_examples": len(predicted),
        "rmse": math.sqrt(total / points),
        "esod_mean": float(np.mean(ratios)) if ratios else None,
        "esod_defined": len(ratios),
        "esod_undefined": len(predicted) - len(ratios),
        "classification": {name: scores(c) for name, c in confusion.items()},
        "zone_proportions": {z: zones[z] / points for z in "ABCDE"},
    }


@pytest.mark.parametrize("n,seed", [(1, 0), (7, 1), (500, 2), (3000, 3)])
def test_score_pairs_bit_identical_to_per_row_oracle(n, seed):
    # The reports are compared byte for byte across runs and versions, so the
    # array metrics must reduce in the same order as the per-row definitions.
    predicted, reference = boundary_pairs(n, seed)
    result = score_pairs(predicted, reference, fold=4)
    oracle = per_row_oracle(predicted, reference, fold=4)
    assert result == oracle
    # batched rollouts hand over column-major arrays
    column_major = np.asfortranarray(predicted)
    assert score_pairs(column_major, reference, fold=4) == oracle
    expected = [
        row_energy(p) / row_energy(r) if row_energy(r) else math.nan
        for p, r in zip(predicted, reference)
    ]
    np.testing.assert_array_equal(esod_n(column_major, reference), expected)
    assert json.dumps(result) == json.dumps(oracle)
    assert type(result["rmse"]) is float
    assert result["esod_mean"] is None or type(result["esod_mean"]) is float
