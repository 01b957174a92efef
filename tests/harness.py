"""Synthetic dataset generator with near-perfect simulated predictions.

Boxes are laid out on a per-image grid with generous margins so that
distinct objects never overlap, predictions stay glued to their own box
(IoU >= 0.9), and the geometric noise amplitudes under test either keep a
perturbed box inside its prediction's cluster (low amplitude) or push it out
(high amplitude). That makes the expected detector behavior derivable by
construction.
"""

from __future__ import annotations

import json
import random
import tracemalloc

IMG_W, IMG_H = 800, 600
GRID_COLS, GRID_ROWS = 4, 3
CELL_W, CELL_H = IMG_W // GRID_COLS, IMG_H // GRID_ROWS
MARGIN = 55
SIZE_MIN, SIZE_MAX = 48, 80
JITTER = 0.02
PRED_SCORE = 0.9


def build_synthetic(num_images=500, boxes_per_image=10, num_classes=12, seed=101):
    """Return (COCO ground-truth payload, COCO results-list payload)."""
    assert boxes_per_image <= GRID_COLS * GRID_ROWS
    rng = random.Random(seed)
    images = []
    annotations = []
    predictions = []
    ann_id = 0
    for image_id in range(1, num_images + 1):
        images.append(
            {"id": image_id, "width": IMG_W, "height": IMG_H, "file_name": f"{image_id}.jpg"}
        )
        cells = rng.sample(range(GRID_COLS * GRID_ROWS), boxes_per_image)
        for cell in cells:
            col, row = cell % GRID_COLS, cell // GRID_COLS
            w = rng.uniform(SIZE_MIN, SIZE_MAX)
            h = rng.uniform(SIZE_MIN, SIZE_MAX)
            x = col * CELL_W + MARGIN + rng.uniform(0, CELL_W - 2 * MARGIN - w)
            y = row * CELL_H + MARGIN + rng.uniform(0, CELL_H - 2 * MARGIN - h)
            category = rng.randint(1, num_classes)
            ann_id += 1
            annotations.append(
                {
                    "id": ann_id,
                    "image_id": image_id,
                    "category_id": category,
                    "bbox": [x, y, w, h],
                }
            )
            predictions.append(
                {
                    "image_id": image_id,
                    "category_id": category,
                    "bbox": [
                        x + rng.uniform(-JITTER, JITTER) * w,
                        y + rng.uniform(-JITTER, JITTER) * h,
                        w,
                        h,
                    ],
                    "score": PRED_SCORE,
                }
            )
    categories = [{"id": m, "name": f"class{m}"} for m in range(1, num_classes + 1)]
    gt = {"images": images, "categories": categories, "annotations": annotations}
    return gt, predictions


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the memory tracemalloc traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def write_synthetic(tmp_path, **kwargs):
    """Write the synthetic dataset and predictions; returns the two paths."""
    gt, preds = build_synthetic(**kwargs)
    gt_path = tmp_path / "gt.json"
    pred_path = tmp_path / "predictions.json"
    gt_path.write_text(json.dumps(gt))
    pred_path.write_text(json.dumps(preds))
    return gt_path, pred_path
