import math
import random

import numpy as np
import pytest

from boxaudit.clustering import Cluster
from boxaudit.confident_learning import (
    MODE_SCORE_THRESHOLD,
    RowAssessment,
    compute_thresholds,
    detect_issues,
    map_to_boxes,
)
from boxaudit.dataset_io import BoxColumns, PredictionSet
from boxaudit.errors import InvalidInputError
from boxaudit.pipeline import run_detection
from boxaudit.reduction import ReducedMatrices, reduce_dataset

from conftest import original_box, predicted_box, simple_dataset


def _matrices(y_rows, p_rows):
    y = np.array(y_rows, dtype=np.uint8)
    p = np.array(p_rows, dtype=np.float64)
    return ReducedMatrices(
        labels=y, probs=p, row_clusters=[None] * len(y_rows), num_classes=y.shape[1] - 1
    )


def oracle_assessments(y_rows, p_rows):
    """Independent re-derivation of the flagging rules in plain Python:
    per-class thresholds, binary confident-joint counts, worst-rank
    selection, and min self-confidence."""
    n = len(y_rows)
    classes = len(y_rows[0]) if n else 0
    flagged = [set() for _ in range(n)]
    for m in range(classes):
        pos = [k for k in range(n) if y_rows[k][m] == 1]
        neg = [k for k in range(n) if y_rows[k][m] == 0]
        t_pos = sum(p_rows[k][m] for k in pos) / len(pos) if pos else None
        t_neg = sum(1 - p_rows[k][m] for k in neg) / len(neg) if neg else None
        if t_neg is not None:
            count = sum(1 for k in pos if 1 - p_rows[k][m] >= t_neg)
            candidates = [k for k in pos if p_rows[k][m] < 1]
            for k in sorted(candidates, key=lambda k: (p_rows[k][m], k))[:count]:
                flagged[k].add(m + 1)
        if t_pos is not None:
            count = sum(1 for k in neg if p_rows[k][m] >= t_pos)
            candidates = [k for k in neg if 1 - p_rows[k][m] < 1]
            for k in sorted(candidates, key=lambda k: (1 - p_rows[k][m], k))[:count]:
                flagged[k].add(m + 1)
    quality = [
        min(p_rows[k][m] if y_rows[k][m] else 1 - p_rows[k][m] for m in range(classes))
        for k in range(n)
    ]
    return quality, flagged


# --- thresholds -----------------------------------------------------------------


def test_threshold_is_mean_probability():
    m = _matrices([[1, 0], [1, 0], [0, 1]], [[0.9, 0.0], [0.7, 0.0], [0.2, 1.0]])
    th = compute_thresholds(m)
    assert th.t_pos[0] == pytest.approx(0.8)
    assert th.t_neg[0] == pytest.approx(0.8)  # mean of 1 - 0.2


def test_unsupported_class_is_undefined():
    m = _matrices([[1, 0], [1, 0]], [[0.9, 0.0], [0.7, 0.0]])
    th = compute_thresholds(m)
    assert math.isnan(th.t_pos[1])  # nothing labeled class 2
    assert math.isnan(th.t_neg[0])  # everything labeled class 1


def test_perfect_predictions_give_unit_thresholds():
    m = _matrices([[1, 0], [0, 1]], [[1.0, 0.0], [0.0, 1.0]])
    th = compute_thresholds(m)
    assert th.t_pos.tolist() == [1.0, 1.0]
    assert th.t_neg.tolist() == [1.0, 1.0]


# --- issue detection --------------------------------------------------------------


def test_perfect_agreement_flags_nothing():
    rng = random.Random(3)
    y = []
    for _ in range(40):
        row = [0] * 4
        row[rng.randrange(4)] = 1
        y.append(row)
    p = [[float(v) for v in row] for row in y]
    m = _matrices(y, p)
    rows = detect_issues(m, compute_thresholds(m))
    assert all(not r.flagged for r in rows)
    assert all(r.quality_score == 1.0 for r in rows)


def test_single_row_is_never_flagged():
    m = _matrices([[1, 0]], [[1.0, 0.0]])
    rows = detect_issues(m, compute_thresholds(m))
    assert rows[0].flagged is False
    assert rows[0].quality_score == 1.0


def test_flagged_rows_always_score_below_one():
    # class 1 is labeled but never predicted: its positive threshold
    # degenerates to 0 and must not flag rows the model fully agrees with
    y_rows = [[1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 1, 0]]
    p_rows = [[0.0, 0.9, 0.0], [0.0, 0.8, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 0.0]]
    m = _matrices(y_rows, p_rows)
    rows = detect_issues(m, compute_thresholds(m))
    for r in rows:
        if r.flagged:
            assert r.quality_score < 1.0


def _embedded_disagreement_matrices():
    """200 rows over 3 classes + background; rows 0/1 are the canonical
    disagree/agree pair, 10% of rows disagree with the model."""
    rng = random.Random(51)
    y_rows = [[0, 0, 1, 0], [1, 0, 0, 0]]
    p_rows = [[0.1, 0.6, 0.3, 0.0], [0.7, 0.1, 0.1, 0.0]]
    disagree = {0}
    for k in range(2, 200):
        label = rng.randint(1, 3)
        y = [0, 0, 0, 0]
        y[label - 1] = 1
        p = [0.02, 0.02, 0.02, 0.0]
        if k < 20:  # 18 more disagreeing rows -> 20 of 200 total
            other = rng.choice([c for c in (1, 2, 3) if c != label])
            p[other - 1] = 0.6
            p[label - 1] = 0.3
            disagree.add(k)
        else:
            p[label - 1] = 0.6
        y_rows.append(y)
        p_rows.append(p)
    return y_rows, p_rows, disagree


def test_disagreeing_rows_are_flagged_in_synthetic_matrix():
    y_rows, p_rows, disagree = _embedded_disagreement_matrices()
    m = _matrices(y_rows, p_rows)
    rows = detect_issues(m, compute_thresholds(m))
    flagged = {k for k, r in enumerate(rows) if r.flagged}
    assert flagged == disagree
    assert 0 in flagged and 1 not in flagged
    # and the independent oracle agrees
    quality, oracle_flagged = oracle_assessments(y_rows, p_rows)
    assert flagged == {k for k, f in enumerate(oracle_flagged) if f}
    for k, r in enumerate(rows):
        assert r.quality_score == pytest.approx(quality[k])
        assert set(r.flagged_classes) == oracle_flagged[k]


def test_matches_oracle_on_random_matrices():
    rng = random.Random(57)
    for _ in range(60):
        n, classes = rng.randint(1, 30), rng.randint(2, 5)
        y_rows = [
            [1 if rng.random() < 0.3 else 0 for _ in range(classes)] for _ in range(n)
        ]
        p_rows = [[round(rng.random(), 3) for _ in range(classes)] for _ in range(n)]
        m = _matrices(y_rows, p_rows)
        rows = detect_issues(m, compute_thresholds(m))
        quality, oracle_flagged = oracle_assessments(y_rows, p_rows)
        for k, r in enumerate(rows):
            assert set(r.flagged_classes) == oracle_flagged[k]
            assert r.flagged == bool(oracle_flagged[k])
            assert r.quality_score == pytest.approx(quality[k])


def test_detection_is_deterministic():
    y_rows, p_rows, _ = _embedded_disagreement_matrices()
    m = _matrices(y_rows, p_rows)
    first = detect_issues(m, compute_thresholds(m))
    second = detect_issues(m, compute_thresholds(m))
    assert first == second


def test_selection_takes_worst_rows_per_class():
    rng = random.Random(61)
    y_rows = []
    p_rows = []
    for _ in range(50):
        label = rng.randint(1, 3)
        y = [0, 0, 0]
        y[label - 1] = 1
        p_rows.append([rng.random() for _ in range(3)])
        y_rows.append(y)
    m = _matrices(y_rows, p_rows)
    rows = detect_issues(m, compute_thresholds(m))
    for col in range(3):
        selected = {k for k, r in enumerate(rows) if col + 1 in r.flagged_classes}
        for side in (1, 0):
            pool = [k for k in range(50) if y_rows[k][col] == side]
            conf = {
                k: p_rows[k][col] if side else 1 - p_rows[k][col] for k in pool
            }
            chosen = [k for k in pool if k in selected]
            rest = [k for k in pool if k not in selected]
            if chosen and rest:
                assert max(conf[k] for k in chosen) <= min(conf[k] for k in rest)


# --- mapping to verdicts ------------------------------------------------------------


def _cluster_fixture():
    c0 = Cluster(
        id=0,
        image_id=1,
        original_members=[
            original_box(11, 1, 1, 0, 0, 10, 10),
            original_box(12, 1, 2, 2, 2, 10, 10),
        ],
    )
    c1 = Cluster(
        id=1,
        image_id=1,
        predicted_members=[
            predicted_box(1, 1, 1, 0, 0, 10, 10, 0.9),
            predicted_box(2, 1, 1, 20, 30, 5, 5, 0.8),
        ],
    )
    c2 = Cluster(
        id=2,
        image_id=2,
        original_members=[original_box(13, 2, 1, 0, 0, 10, 10)],
    )
    return [c0, c1, c2]


def test_flagged_cluster_maps_to_wrong_label_verdicts():
    clusters = _cluster_fixture()
    matrices = reduce_dataset(clusters, 3)
    rows = [
        RowAssessment(quality_score=0.2, flagged=True, flagged_classes=(1,)),
        RowAssessment(quality_score=0.1, flagged=True, flagged_classes=(4,)),
        RowAssessment(quality_score=0.9, flagged=False, flagged_classes=()),
    ]
    verdicts = map_to_boxes(matrices, rows)
    by_kind = {}
    for v in verdicts:
        by_kind.setdefault(v.verdict_kind, []).append(v)
    assert {v.annotation_id for v in by_kind["wrong_label"]} == {11, 12}
    assert all(v.quality_score == 0.2 for v in by_kind["wrong_label"])
    (region_verdict,) = by_kind["missing_region"]
    assert region_verdict.annotation_id is None
    assert region_verdict.region.as_list() == [0, 0, 25, 35]
    (ok_verdict,) = by_kind["ok"]
    assert ok_verdict.annotation_id == 13 and not ok_verdict.flagged


def test_unflagged_rows_give_only_ok_verdicts():
    clusters = _cluster_fixture()
    matrices = reduce_dataset(clusters, 3)
    rows = [RowAssessment(quality_score=1.0, flagged=False, flagged_classes=())] * 3
    verdicts = map_to_boxes(matrices, rows)
    assert all(v.verdict_kind == "ok" for v in verdicts)
    assert {v.annotation_id for v in verdicts} == {11, 12, 13}  # no region verdicts


def test_every_original_gets_exactly_one_verdict():
    clusters = _cluster_fixture()
    matrices = reduce_dataset(clusters, 3)
    rows = [
        RowAssessment(quality_score=0.5, flagged=True, flagged_classes=(2,)),
        RowAssessment(quality_score=0.5, flagged=False, flagged_classes=()),
        RowAssessment(quality_score=0.5, flagged=True, flagged_classes=(1,)),
    ]
    verdicts = map_to_boxes(matrices, rows)
    ids = [v.annotation_id for v in verdicts if v.annotation_id is not None]
    assert sorted(ids) == [11, 12, 13]


def test_score_threshold_mode_flags_by_tau():
    clusters = _cluster_fixture()
    matrices = reduce_dataset(clusters, 3)
    rows = [
        RowAssessment(quality_score=0.2, flagged=False, flagged_classes=()),
        RowAssessment(quality_score=0.6, flagged=False, flagged_classes=()),
        RowAssessment(quality_score=0.9, flagged=False, flagged_classes=()),
    ]
    low = map_to_boxes(matrices, rows, mode=MODE_SCORE_THRESHOLD, tau=0.3)
    assert {v.cluster_id for v in low if v.flagged} == {0}
    full = map_to_boxes(matrices, rows, mode=MODE_SCORE_THRESHOLD, tau=1.0)
    assert all(v.flagged for v in full)
    assert sum(1 for v in full if v.verdict_kind == "missing_region") == 1


def test_score_threshold_flag_sets_nest():
    clusters = _cluster_fixture()
    matrices = reduce_dataset(clusters, 3)
    rng = random.Random(67)
    rows = [
        RowAssessment(quality_score=rng.random(), flagged=False, flagged_classes=())
        for _ in clusters
    ]
    previous = set()
    for tau in [0.0, 0.25, 0.5, 0.75, 1.0]:
        verdicts = map_to_boxes(matrices, rows, mode=MODE_SCORE_THRESHOLD, tau=tau)
        current = {v.cluster_id for v in verdicts if v.flagged}
        assert previous <= current
        previous = current


def test_flagged_cluster_without_boxes_has_no_region_to_enclose():
    matrices = ReducedMatrices(
        labels=np.zeros((1, 4), np.uint8), probs=np.zeros((1, 4)),
        row_clusters=[Cluster(id=0, image_id=1)], num_classes=3,
    )
    rows = [RowAssessment(quality_score=0.5, flagged=False, flagged_classes=())]
    with pytest.raises(InvalidInputError, match="^cluster 0 has no boxes to enclose$"):
        map_to_boxes(matrices, rows, mode=MODE_SCORE_THRESHOLD, tau=1.0)


def test_region_too_thin_for_float64_is_a_degenerate_box():
    """A lone prediction at x = 1e20 with width 1 encloses a region of width
    (1e20 + 1) - 1e20 = 0."""
    preds = PredictionSet(BoxColumns.of([predicted_box(1, 1, 1, 1e20, 0, 1, 1, 0.9)]))
    with pytest.raises(InvalidInputError, match="^degenerate box: width and height must be > 0"):
        run_detection(simple_dataset([]), preds, mode=MODE_SCORE_THRESHOLD, tau=1.0)


def test_misaligned_rows_rejected():
    clusters = _cluster_fixture()
    matrices = reduce_dataset(clusters, 3)
    with pytest.raises(InvalidInputError):
        map_to_boxes(matrices, [])


def test_bad_mode_and_missing_tau_rejected():
    clusters = _cluster_fixture()
    matrices = reduce_dataset(clusters, 3)
    rows = [RowAssessment(quality_score=1.0, flagged=False, flagged_classes=())] * 3
    with pytest.raises(InvalidInputError):
        map_to_boxes(matrices, rows, mode="nope")
    with pytest.raises(InvalidInputError):
        map_to_boxes(matrices, rows, mode=MODE_SCORE_THRESHOLD)
