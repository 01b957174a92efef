import random
from collections import deque

import pytest

from boxaudit.clustering import cluster_dataset
from boxaudit.dataset_io import BoxColumns, PredictionSet
from boxaudit.errors import InvalidInputError
from boxaudit.geometry import iou

from conftest import cluster_list, original_box, predicted_box, simple_dataset


def _partition(clusters):
    """Clusters as a set of frozensets of (is original, id) pairs."""
    return {
        frozenset((b.score is None, b.id) for b in c.original_members + c.predicted_members)
        for c in clusters
    }


def _brute_force(boxes, threshold):
    """Oracle: connected components by exhaustive pairwise IoU testing."""
    n = len(boxes)
    adjacency = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if boxes[i].image_id != boxes[j].image_id:
                continue
            if iou(boxes[i].bbox, boxes[j].bbox) >= threshold:
                adjacency[i].append(j)
                adjacency[j].append(i)
    seen = [False] * n
    components = set()
    for start in range(n):
        if seen[start]:
            continue
        component = []
        queue = deque([start])
        seen[start] = True
        while queue:
            k = queue.popleft()
            component.append(k)
            for nb in adjacency[k]:
                if not seen[nb]:
                    seen[nb] = True
                    queue.append(nb)
        components.add(
            frozenset((boxes[k].score is None, boxes[k].id) for k in component)
        )
    return components


def test_single_linkage_chaining():
    # collinear equal squares: A-B and B-C overlap above threshold, A-C below
    a = original_box(1, 1, 1, 0.0, 0.0, 10, 10)
    b = original_box(2, 1, 1, 2.5, 0.0, 10, 10)
    c = original_box(3, 1, 1, 5.403225806451613, 0.0, 10, 10)
    assert iou(a.bbox, b.bbox) == pytest.approx(0.6)
    assert iou(b.bbox, c.bbox) == pytest.approx(0.55)
    assert iou(a.bbox, c.bbox) < 0.5
    clusters = cluster_list([a, b, c], 0.5)
    assert len(clusters) == 1
    assert _partition(clusters) == _brute_force([a, b, c], 0.5)


def test_all_below_threshold_gives_singletons():
    boxes = [original_box(i, 1, 1, i * 100.0, 0.0, 10, 10) for i in range(1, 5)]
    clusters = cluster_list(boxes, 0.5)
    assert len(clusters) == 4
    assert all(len(c.original_members) + len(c.predicted_members) == 1 for c in clusters)


def test_coinciding_original_and_prediction_share_cluster():
    orig = original_box(1, 1, 1, 10, 10, 20, 20)
    pred = predicted_box(1, 1, 2, 10, 10, 20, 20, score=0.8)
    clusters = cluster_list([orig, pred], 0.5)
    assert len(clusters) == 1
    assert len(clusters[0].original_members) == 1
    assert len(clusters[0].predicted_members) == 1


def test_exact_threshold_merges():
    # iou((0,0,2,2),(1,0,2,2)) = 2/6 = 1/3
    a = original_box(1, 1, 1, 0, 0, 2, 2)
    b = original_box(2, 1, 1, 1, 0, 2, 2)
    assert len(cluster_list([a, b], 1 / 3)) == 1


@pytest.mark.parametrize("threshold", [0.0, 1.0, -0.2, 1.5])
def test_threshold_out_of_range_rejected(threshold):
    with pytest.raises(InvalidInputError):
        cluster_list([original_box(1, 1, 1, 0, 0, 2, 2)], threshold)


def test_images_never_merge():
    anns = [
        original_box(1, 1, 1, 10, 10, 20, 20),
        original_box(2, 2, 1, 10, 10, 20, 20),
    ]
    ds = simple_dataset(anns)
    clusters = cluster_dataset(ds, PredictionSet(boxes=BoxColumns.of([])), 0.5)
    assert len(clusters) == 2
    assert {c.image_id for c in clusters} == {1, 2}


def test_dataset_without_predictions():
    anns = [original_box(i, 1, 1, i * 50.0, 0.0, 10, 10) for i in range(1, 4)]
    ds = simple_dataset(anns)
    clusters = cluster_dataset(ds, PredictionSet(boxes=BoxColumns.of([])), 0.5)
    assert all(not c.predicted_members for c in clusters)
    assert all(c.original_members for c in clusters)


def _random_boxes(rng, n, num_images=3, span=60):
    boxes = []
    for i in range(n):
        source = rng.random() < 0.5
        x, y = rng.uniform(0, span), rng.uniform(0, span)
        w, h = rng.uniform(2, 25), rng.uniform(2, 25)
        image_id = rng.randint(1, num_images)
        if source:
            boxes.append(original_box(i + 1, image_id, 1, x, y, w, h))
        else:
            boxes.append(predicted_box(i + 1, image_id, 1, x, y, w, h, score=0.5))
    return boxes


def test_partition_property_on_random_dataset():
    rng = random.Random(23)
    anns, preds = [], []
    for image_id in range(1, 101):
        for j in range(20):
            box = original_box(
                image_id * 1000 + j, image_id, 1,
                rng.uniform(0, 900), rng.uniform(0, 900),
                rng.uniform(5, 80), rng.uniform(5, 80),
            )
            anns.append(box)
    ds = simple_dataset(anns, num_images=100)
    clusters = cluster_dataset(ds, PredictionSet(boxes=BoxColumns.of(preds)), 0.5)
    member_ids = [b.id for c in clusters for b in c.original_members + c.predicted_members]
    assert len(member_ids) == len(anns)
    assert len(set(member_ids)) == len(anns)


def test_matches_brute_force_on_small_instances():
    for seed in range(300):
        rng = random.Random(seed)
        boxes = _random_boxes(rng, rng.randint(0, 12))
        threshold = rng.choice([0.2, 0.4, 0.5, 0.7])
        by_image = {}
        for b in boxes:
            by_image.setdefault(b.image_id, []).append(b)
        clusters = []
        for image_boxes in by_image.values():
            clusters.extend(cluster_list(image_boxes, threshold))
        assert _partition(clusters) == _brute_force(boxes, threshold), f"seed {seed}"


def test_order_invariance():
    rng = random.Random(31)
    boxes = _random_boxes(rng, 12, num_images=1)
    reference = _partition(cluster_list(boxes, 0.4))
    for _ in range(10):
        shuffled = boxes[:]
        rng.shuffle(shuffled)
        assert _partition(cluster_list(shuffled, 0.4)) == reference


def test_threshold_monotonicity():
    rng = random.Random(37)
    for _ in range(50):
        boxes = _random_boxes(rng, 10, num_images=1)
        low = _partition(cluster_list(boxes, 0.3))
        high = _partition(cluster_list(boxes, 0.6))
        # every high-threshold cluster is contained in one low-threshold cluster
        for cluster in high:
            assert any(cluster <= other for other in low)


def test_cluster_ids_are_deterministic_and_ordered():
    anns = [
        original_box(5, 2, 1, 0, 0, 10, 10),
        original_box(3, 1, 1, 0, 0, 10, 10),
        original_box(4, 1, 1, 500, 500, 10, 10),
    ]
    ds = simple_dataset(anns)
    preds = PredictionSet(boxes=BoxColumns.of([predicted_box(1, 2, 1, 300, 300, 10, 10, 0.9)]))
    clusters = cluster_dataset(ds, preds, 0.5)
    assert [c.id for c in clusters] == [0, 1, 2, 3]
    # ordered by image id, then smallest member annotation id
    assert [(c.image_id, not c.original_members) for c in clusters] == [
        (1, False),
        (1, False),
        (2, True),
        (2, False),
    ]
    assert clusters[0].original_members[0].id == 3
