"""The array-pass clustering, reduction, flagging and mapping against the
per-image, per-cluster and per-row reference they replaced
(``core_reference``)."""

import random
from collections import Counter

import numpy as np
import pytest

from boxaudit.clustering import cluster_dataset, cluster_image
from boxaudit.confident_learning import (
    MISSING_REGION,
    MODE_CONFIDENT_JOINT,
    MODE_SCORE_THRESHOLD,
    VerdictTable,
    compute_thresholds,
    detect_issues,
    map_to_boxes,
)
from boxaudit.dataset_io import PredictionSet
from boxaudit.errors import InvalidInputError
from boxaudit.noise_injection import NoiseKind, NoiseSpec, inject
from boxaudit.pipeline import run_detection
from boxaudit.reduction import reduce_cluster, reduce_dataset

from conftest import original_box, predicted_box, simple_dataset
from core_reference import (
    reference_cluster_dataset,
    reference_cluster_image,
    reference_detect_issues,
    reference_map_to_boxes,
    reference_reduce_cluster,
    reference_reduce_dataset,
)

# integer corners on a small grid put many pairs exactly on these IoUs:
# (0,0,2,2) vs (1,0,2,2) is 1/3, (0,0,3,1) vs (1,0,3,1) is 1/2
THRESHOLDS = [1 / 3, 0.5, 0.25, 0.7]
SCORE_POOL = [0.0, 0.2, 0.5, 0.5, 0.9, 1.0]


def _random_case(rng):
    """GT and predictions over a few images: grid-aligned boxes (IoU ties at
    the threshold), duplicated boxes, chains of shifted boxes, images with
    only GT or only predictions, ids repeated within and across the two sets
    and beyond int64, unused classes and, now and then, labels outside 1..M."""
    num_classes = rng.randint(1, 6)
    used = rng.randint(1, num_classes)
    image_ids = rng.sample([1, 2, 3, 7, 10, 2**70], rng.randint(1, 4))
    id_pool = rng.choice([range(1, 4), range(1, 30), [1, 2, 2**63 - 1, 2**63, 2**63 + 1, 2**70]])
    bad_labels = rng.random() < 0.15
    anns, preds = [], []

    def coords():
        if rng.random() < 0.2 and (anns or preds):
            return rng.choice(anns + preds).bbox.as_list()
        if rng.random() < 0.2:
            step = rng.choice([1, 2])
            return [rng.randint(0, 2) + step * rng.randint(0, 4), 0, 3, rng.choice([1, 2])]
        return [rng.randint(0, 6), rng.randint(0, 6), rng.randint(1, 4), rng.randint(1, 4)]

    def label():
        if bad_labels and rng.random() < 0.3:
            return rng.choice([0, num_classes + 1, -2])
        return rng.randint(1, used)

    for image_id in image_ids:
        kinds = rng.choice(["both", "both", "gt", "pred"])
        if kinds != "pred":
            for _ in range(rng.randint(0, 8)):
                anns.append(original_box(rng.choice(id_pool), image_id, label(), *coords()))
                if not 1 <= anns[-1].category_id <= num_classes:
                    # a bad prediction on the same box: the error must name the original
                    preds.append(predicted_box(1, image_id, -1, *anns[-1].bbox.as_list(), score=0.5))
        if kinds != "gt":
            for _ in range(rng.randint(0, 8)):
                score = rng.choice(SCORE_POOL) if rng.random() < 0.6 else rng.random()
                preds.append(
                    predicted_box(rng.choice(id_pool), image_id, label(), *coords(), score=score)
                )
    rng.shuffle(anns)
    rng.shuffle(preds)
    return simple_dataset(anns, num_classes=num_classes), PredictionSet(boxes=preds)


def _identity(clusters):
    return [
        (c.id, c.image_id, [id(b) for b in c.original_members], [id(b) for b in c.predicted_members])
        for c in clusters
    ]


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except InvalidInputError as e:
        return None, (type(e), str(e))


def _assert_same_matrices(got, want):
    assert got.num_classes == want.num_classes
    assert [id(c) for c in got.row_clusters] == [id(c) for c in want.row_clusters]
    for a, b in ((got.labels, want.labels), (got.probs, want.probs)):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


@pytest.mark.parametrize("seed", range(300))
def test_core_equals_reference(seed):
    rng = random.Random(seed)
    ds, preds = _random_case(rng)
    threshold = rng.choice(THRESHOLDS)

    clusters = cluster_dataset(ds, preds, threshold)
    assert _identity(clusters) == _identity(reference_cluster_dataset(ds, preds, threshold))

    boxes = ds.annotations + preds.boxes
    image_id = rng.choice(boxes).image_id if boxes else None
    one_image = [b for b in boxes if b.image_id == image_id]
    rng.shuffle(one_image)
    assert _identity(cluster_image(one_image, threshold)) == _identity(
        reference_cluster_image(one_image, threshold)
    )

    num_classes = ds.num_categories
    got, got_error = _outcome(reduce_dataset, clusters, num_classes)
    want, want_error = _outcome(reference_reduce_dataset, clusters, num_classes)
    assert got_error == want_error
    for cluster in clusters[:3]:
        row, row_error = _outcome(reduce_cluster, cluster, num_classes)
        ref_row, ref_error = _outcome(reference_reduce_cluster, cluster, num_classes)
        assert row_error == ref_error
        if row is not None:
            for a, b in zip(row, ref_row):
                assert a.dtype == b.dtype and np.array_equal(a, b)
    if want is None:
        return
    _assert_same_matrices(got, want)
    thresholds = compute_thresholds(want)
    assert detect_issues(got, thresholds) == reference_detect_issues(want, thresholds)


def _reference_detection(ds, preds, threshold, mode, tau):
    """The object pipeline: clusters, matrices, rows and verdicts."""
    clusters = reference_cluster_dataset(ds, preds, threshold)
    matrices = reference_reduce_dataset(clusters, ds.num_categories)
    rows = reference_detect_issues(matrices, compute_thresholds(matrices))
    return clusters, matrices, rows, reference_map_to_boxes(matrices, rows, mode=mode, tau=tau)


def _scalar_types(verdicts):
    return [
        (type(v.annotation_id), type(v.cluster_id), type(v.image_id),
         type(v.quality_score), type(v.flagged), type(v.verdict_kind))
        for v in verdicts
    ]


def test_columnar_detection_equals_reference():
    """run_detection's arrays, and the objects built from them on access,
    against the object pipeline in both modes; map_to_boxes and the verdict
    table's object view against the reference loop."""
    seen = Counter()
    for seed in range(300):
        rng = random.Random(10_000 + seed)
        ds, preds = _random_case(rng)
        if rng.random() < 0.4:
            ds, _ = inject(ds, NoiseSpec(kind=NoiseKind.MISSING, fraction=0.4, seed=seed))
            seen["missing noise"] += 1
        threshold = rng.choice(THRESHOLDS)
        mode, tau = MODE_CONFIDENT_JOINT, None
        if rng.random() < 0.5:
            mode, tau = MODE_SCORE_THRESHOLD, rng.choice([0.0, 0.5, 1.0, rng.random()])

        want, want_error = _outcome(_reference_detection, ds, preds, threshold, mode, tau)
        got, got_error = _outcome(
            lambda: run_detection(ds, preds, threshold, mode=mode, tau=tau)
        )
        assert got_error == want_error, seed
        if want is None:
            seen["out-of-range label"] += 1
            continue
        clusters, matrices, rows, verdicts = want
        if mode == MODE_SCORE_THRESHOLD and rows and rng.random() < 0.5:
            # a cutoff exactly at a row's score
            tau = rng.choice(rows).quality_score
            verdicts = reference_map_to_boxes(matrices, rows, mode=mode, tau=tau)
            got = run_detection(ds, preds, threshold, mode=mode, tau=tau)

        assert _identity(got.clusters) == _identity(clusters), seed
        assert got.matrices.num_classes == matrices.num_classes
        for a, b in ((got.matrices.labels, matrices.labels), (got.matrices.probs, matrices.probs)):
            assert a.dtype == b.dtype and np.array_equal(a, b), seed
        assert [id(c) for c in got.matrices.row_clusters] == [id(c) for c in got.clusters]
        assert got.rows == rows, seed
        assert got.verdicts == verdicts, seed
        assert _scalar_types(got.verdicts) == _scalar_types(verdicts), seed
        assert map_to_boxes(matrices, rows, mode=mode, tau=tau) == verdicts, seed
        assert list(VerdictTable.of(verdicts)) == verdicts
        assert len(got.table) == len(verdicts)

        seen["background cluster"] += any(c.is_background for c in clusters)
        seen["region"] += any(v.verdict_kind == MISSING_REGION for v in verdicts)
        seen["unused class"] += bool(np.isnan(compute_thresholds(matrices).t_pos).any())
        seen[mode] += 1
    assert all(seen[k] >= 20 for k in (
        "missing noise", "out-of-range label", "background cluster", "region",
        "unused class", MODE_CONFIDENT_JOINT, MODE_SCORE_THRESHOLD,
    )), seen
