import random

import pytest

from boxaudit.clustering import Cluster
from boxaudit.errors import InvalidInputError
from boxaudit.reduction import reduce_dataset

from conftest import original_box, predicted_box, reduce_cluster


def _cluster(cluster_id, originals, predictions, image_id=1):
    return Cluster(
        id=cluster_id,
        image_id=image_id,
        original_members=originals,
        predicted_members=predictions,
    )


def test_labeled_cluster_with_mixed_predictions():
    cluster = _cluster(
        0,
        [original_box(1, 1, 3, 0, 0, 10, 10)],
        [
            predicted_box(1, 1, 1, 0, 0, 10, 10, 0.1),
            predicted_box(2, 1, 2, 0, 0, 10, 10, 0.6),
            predicted_box(3, 1, 3, 0, 0, 10, 10, 0.3),
        ],
    )
    y, p = reduce_cluster(cluster, 3)
    assert y.tolist() == [0, 0, 1, 0]
    assert p.tolist() == [0.1, 0.6, 0.3, 0.0]


def test_background_cluster_has_background_label():
    cluster = _cluster(0, [], [predicted_box(1, 1, 1, 0, 0, 10, 10, 0.7)])
    y, p = reduce_cluster(cluster, 3)
    assert y.tolist() == [0, 0, 0, 1]
    assert p.tolist() == [0.7, 0.0, 0.0, 0.0]


def test_prediction_free_cluster_has_background_probability():
    cluster = _cluster(0, [original_box(1, 1, 1, 0, 0, 10, 10)], [])
    y, p = reduce_cluster(cluster, 3)
    assert y.tolist() == [1, 0, 0, 0]
    assert p.tolist() == [0.0, 0.0, 0.0, 1.0]


def test_duplicate_prediction_labels_take_max_score():
    cluster = _cluster(
        0,
        [original_box(1, 1, 2, 0, 0, 10, 10)],
        [
            predicted_box(1, 1, 2, 0, 0, 10, 10, 0.4),
            predicted_box(2, 1, 2, 0, 0, 10, 10, 0.9),
            predicted_box(3, 1, 2, 0, 0, 10, 10, 0.7),
        ],
    )
    _, p = reduce_cluster(cluster, 2)
    assert p.tolist() == [0.0, 0.9, 0.0]


def test_multi_label_cluster_sets_both_columns():
    cluster = _cluster(
        0,
        [original_box(1, 1, 1, 0, 0, 10, 10), original_box(2, 1, 3, 0, 0, 10, 10)],
        [],
    )
    y, _ = reduce_cluster(cluster, 3)
    assert y.tolist() == [1, 0, 1, 0]


def test_label_out_of_range_rejected():
    cluster = _cluster(0, [original_box(1, 1, 5, 0, 0, 10, 10)], [])
    with pytest.raises(InvalidInputError):
        reduce_cluster(cluster, 3)
    cluster = _cluster(0, [], [predicted_box(1, 1, 9, 0, 0, 10, 10, 0.5)])
    with pytest.raises(InvalidInputError):
        reduce_cluster(cluster, 3)


def test_empty_cluster_list():
    matrices = reduce_dataset([], 3)
    assert matrices.labels.shape == (0, 4)
    assert matrices.probs.shape == (0, 4)
    assert matrices.row_clusters == []


def test_two_clusters_stack_in_order():
    c0 = _cluster(
        0,
        [original_box(1, 1, 3, 0, 0, 10, 10)],
        [
            predicted_box(1, 1, 1, 0, 0, 10, 10, 0.1),
            predicted_box(2, 1, 2, 0, 0, 10, 10, 0.6),
            predicted_box(3, 1, 3, 0, 0, 10, 10, 0.3),
        ],
    )
    c1 = _cluster(1, [], [predicted_box(4, 1, 1, 0, 0, 10, 10, 0.7)])
    matrices = reduce_dataset([c0, c1], 3)
    assert matrices.labels.tolist() == [[0, 0, 1, 0], [0, 0, 0, 1]]
    assert matrices.probs.tolist() == [[0.1, 0.6, 0.3, 0.0], [0.7, 0.0, 0.0, 0.0]]
    assert matrices.row_clusters == [c0, c1]


def _random_cluster(rng, cluster_id, num_classes):
    originals = [
        original_box(rng.randint(1, 10**6), 1, rng.randint(1, num_classes), 0, 0, 10, 10)
        for _ in range(rng.randint(0, 3))
    ]
    predictions = [
        predicted_box(
            rng.randint(1, 10**6), 1, rng.randint(1, num_classes), 0, 0, 10, 10,
            round(rng.random(), 3),
        )
        for _ in range(rng.randint(0, 4))
    ]
    return _cluster(cluster_id, originals, predictions)


def test_row_invariants_on_random_clusters():
    rng = random.Random(41)
    num_classes = 5
    clusters = [_random_cluster(rng, k, num_classes) for k in range(50)]
    matrices = reduce_dataset(clusters, num_classes)
    y, p = matrices.labels, matrices.probs
    assert y.shape == (50, num_classes + 1)
    assert p.shape == (50, num_classes + 1)
    bg = matrices.num_classes
    for k, cluster in enumerate(clusters):
        assert y[k].sum() >= 1
        assert (y[k, bg] == 1) == (not cluster.original_members)
        if y[k, bg] == 1:
            assert y[k, :bg].sum() == 0
        assert p[k, bg] in (0.0, 1.0)
        assert (p[k, bg] == 1.0) == (p[k, :bg].sum() == 0.0)
        assert ((0.0 <= p[k]) & (p[k] <= 1.0)).all()
        scores = [b.score for b in cluster.predicted_members]
        if scores:
            assert p[k, :bg].max() <= max(scores)

