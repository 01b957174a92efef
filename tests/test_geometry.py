import random

import numpy as np
import pytest

from boxaudit.errors import InvalidInputError
from boxaudit.geometry import BBox, corner_iou, corners, iou, iou_matrix


def test_identical_boxes_have_iou_one():
    a = BBox(0, 0, 2, 2)
    assert iou(a, BBox(0, 0, 2, 2)) == 1.0


def test_disjoint_boxes_have_iou_zero():
    assert iou(BBox(0, 0, 1, 1), BBox(5, 5, 1, 1)) == 0.0


def test_partial_overlap_matches_area_arithmetic():
    # intersection 1, union 4 + 4 - 1 = 7
    assert iou(BBox(0, 0, 2, 2), BBox(1, 1, 2, 2)) == pytest.approx(1 / 7)


def test_touching_boxes_have_iou_zero():
    assert iou(BBox(0, 0, 2, 2), BBox(2, 0, 2, 2)) == 0.0  # shared edge
    assert iou(BBox(0, 0, 2, 2), BBox(2, 2, 2, 2)) == 0.0  # shared corner


@pytest.mark.parametrize("w,h", [(0, 1), (-1, 1), (1, 0), (1, -2)])
def test_degenerate_box_rejected(w, h):
    with pytest.raises(InvalidInputError):
        BBox(0, 0, w, h)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_nonfinite_coordinates_rejected(bad):
    with pytest.raises(InvalidInputError):
        BBox(bad, 0, 1, 1)


def _random_box(rng):
    return BBox(rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(0.1, 40), rng.uniform(0.1, 40))


def test_symmetry_range_and_identity_properties():
    rng = random.Random(7)
    for _ in range(500):
        a, b = _random_box(rng), _random_box(rng)
        v = iou(a, b)
        assert 0.0 <= v <= 1.0
        assert v == iou(b, a)
        assert iou(a, a) == 1.0


def test_translation_invariance():
    rng = random.Random(11)
    for _ in range(200):
        a, b = _random_box(rng), _random_box(rng)
        tx, ty = rng.uniform(-100, 100), rng.uniform(-100, 100)
        a2 = BBox(a.x + tx, a.y + ty, a.w, a.h)
        b2 = BBox(b.x + tx, b.y + ty, b.w, b.h)
        assert iou(a2, b2) == pytest.approx(iou(a, b), abs=1e-12)


def test_uniform_scale_invariance():
    rng = random.Random(13)
    for _ in range(200):
        a, b = _random_box(rng), _random_box(rng)
        s = rng.choice([0.25, 0.5, 2.0, 3.0, 7.5])
        a2 = BBox(a.x * s, a.y * s, a.w * s, a.h * s)
        b2 = BBox(b.x * s, b.y * s, b.w * s, b.h * s)
        assert iou(a2, b2) == pytest.approx(iou(a, b), abs=1e-12)


def test_iou_matrix_agrees_with_scalar_iou():
    rng = random.Random(17)
    boxes = [_random_box(rng) for _ in range(15)]
    matrix = iou_matrix(np.array([b.as_list() for b in boxes]))
    for i, a in enumerate(boxes):
        for j, b in enumerate(boxes):
            assert matrix[i, j] == pytest.approx(iou(a, b), abs=1e-12)


def test_iou_matrix_empty():
    assert iou_matrix(np.zeros((0, 4))).shape == (0, 0)


@pytest.mark.parametrize("seed", range(20))
def test_matrix_pair_and_scalar_iou_are_equal(seed):
    rng = random.Random(seed)
    boxes = []
    for _ in range(25):
        if boxes and rng.random() < 0.4:
            # identical, edge-touching or corner-touching copies of an earlier box
            b = rng.choice(boxes)
            dx, dy = rng.choice([(0, 0), (b.w, 0), (0, -b.h), (b.w, b.h), (-b.w, 0)])
            boxes.append(BBox(b.x + dx, b.y + dy, b.w, b.h))
        elif rng.random() < 0.5:
            boxes.append(BBox(rng.randint(0, 6), rng.randint(0, 6), rng.randint(1, 4), rng.randint(1, 4)))
        else:
            boxes.append(_random_box(rng))
    coords = np.array([b.as_list() for b in boxes])
    matrix = iou_matrix(coords)
    i, j = np.divmod(np.arange(len(boxes) ** 2), len(boxes))
    c = corners(coords)
    pairs = corner_iou([v[i] for v in c], [v[j] for v in c])
    for k, (a, b) in enumerate(zip(i.tolist(), j.tolist())):
        assert matrix[a, b] == pairs[k] == iou(boxes[a], boxes[b])
    assert np.any(matrix == 0.0) and np.any(np.diag(matrix) == 1.0)

