"""Seeded synthetic COCO inputs for the benchmark.

Two layouts:

* ``sparse``: the grid layout of the test harness (10 non-overlapping
  objects per 800x600 image, one prediction glued to each object), except
  that prediction scores vary per box, so a dense ROC sweep has one
  threshold per annotation.
* ``crowded``: detector-like output. Objects are bunched so that some
  ground-truth boxes overlap; each object gets one tight high-score
  prediction and three low-score duplicates or class confusions, and every
  image gets low-score background false positives.

The same seed and size always give byte-identical files. Every box lies
inside its image, so no input is rejected.

Run ``python3 bench/gen.py --layout crowded --images 2000 --seed 1 --out DIR``
to write ``DIR/gt.json`` and ``DIR/predictions.json``.
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

NUM_CLASSES = 12

# sparse layout (same geometry as the test harness)
SPARSE_W, SPARSE_H = 800, 600
GRID_COLS, GRID_ROWS = 4, 3
CELL_W, CELL_H = SPARSE_W // GRID_COLS, SPARSE_H // GRID_ROWS
MARGIN = 55
SIZE_MIN, SIZE_MAX = 48, 80
JITTER = 0.02
SPARSE_BOXES_PER_IMAGE = 10

# crowded layout
CROWD_W, CROWD_H = 640, 480
OBJECTS_PER_IMAGE = 10
BUNCHES_PER_IMAGE = 4
BUNCH_SPREAD = 1.0  # object offset from its bunch centre, in object sizes
EXTRA_PER_OBJECT = 3
CONFUSION_RATE = 0.1  # share of extra predictions that carry another class
BACKGROUND_PER_IMAGE = 15


def _image(image_id: int, width: int, height: int) -> dict:
    return {"id": image_id, "width": width, "height": height, "file_name": f"{image_id}.jpg"}


def _inside(x: float, y: float, w: float, h: float, width: int, height: int) -> list[float]:
    """Shift a box so it lies fully inside the image (sizes stay below the
    image size by construction)."""
    x = min(max(x, 0.0), width - w)
    y = min(max(y, 0.0), height - h)
    return [x, y, w, h]


def sparse(num_images: int, seed: int) -> tuple[dict, list]:
    """Grid layout with one near-exact prediction per object, scored in
    [0.5, 1)."""
    rng = random.Random(seed)
    images, annotations, predictions = [], [], []
    for image_id in range(1, num_images + 1):
        images.append(_image(image_id, SPARSE_W, SPARSE_H))
        for cell in rng.sample(range(GRID_COLS * GRID_ROWS), SPARSE_BOXES_PER_IMAGE):
            col, row = cell % GRID_COLS, cell // GRID_COLS
            w = rng.uniform(SIZE_MIN, SIZE_MAX)
            h = rng.uniform(SIZE_MIN, SIZE_MAX)
            x = col * CELL_W + MARGIN + rng.uniform(0, CELL_W - 2 * MARGIN - w)
            y = row * CELL_H + MARGIN + rng.uniform(0, CELL_H - 2 * MARGIN - h)
            category = rng.randint(1, NUM_CLASSES)
            annotations.append(
                {"id": len(annotations) + 1, "image_id": image_id,
                 "category_id": category, "bbox": [x, y, w, h]}
            )
            predictions.append(
                {"image_id": image_id, "category_id": category,
                 "bbox": [x + rng.uniform(-JITTER, JITTER) * w,
                          y + rng.uniform(-JITTER, JITTER) * h, w, h],
                 "score": rng.uniform(0.5, 1.0)}
            )
    return _coco(images, annotations), predictions


def crowded(num_images: int, seed: int) -> tuple[dict, list]:
    """Bunched objects with detector-like predictions: per object one tight
    match scored in [0.6, 1), three duplicates or confusions scored below
    0.45, plus background false positives scored below 0.15."""
    rng = random.Random(seed)
    images, annotations, predictions = [], [], []
    for image_id in range(1, num_images + 1):
        images.append(_image(image_id, CROWD_W, CROWD_H))
        centres = [
            (rng.uniform(80, CROWD_W - 80), rng.uniform(80, CROWD_H - 80))
            for _ in range(BUNCHES_PER_IMAGE)
        ]
        for _ in range(OBJECTS_PER_IMAGE):
            cx, cy = rng.choice(centres)
            w, h = rng.uniform(30, 110), rng.uniform(30, 110)
            x = cx + rng.gauss(0.0, BUNCH_SPREAD) * w - w / 2
            y = cy + rng.gauss(0.0, BUNCH_SPREAD) * h - h / 2
            box = _inside(x, y, w, h, CROWD_W, CROWD_H)
            category = rng.randint(1, NUM_CLASSES)
            annotations.append(
                {"id": len(annotations) + 1, "image_id": image_id,
                 "category_id": category, "bbox": box}
            )
            predictions.append(
                _pred(rng, image_id, category, box, 0.03, rng.uniform(0.6, 1.0))
            )
            for _ in range(EXTRA_PER_OBJECT):
                if rng.random() < CONFUSION_RATE:
                    label = rng.choice([c for c in range(1, NUM_CLASSES + 1) if c != category])
                    score = rng.uniform(0.05, 0.35)
                else:  # duplicate
                    label, score = category, rng.uniform(0.05, 0.45)
                predictions.append(_pred(rng, image_id, label, box, 0.12, score))
        for _ in range(BACKGROUND_PER_IMAGE):
            w, h = rng.uniform(10, 60), rng.uniform(10, 60)
            box = _inside(rng.uniform(0, CROWD_W), rng.uniform(0, CROWD_H), w, h, CROWD_W, CROWD_H)
            predictions.append(
                {"image_id": image_id, "category_id": rng.randint(1, NUM_CLASSES),
                 "bbox": box, "score": rng.uniform(0.01, 0.15)}
            )
    return _coco(images, annotations), predictions


def _pred(rng: random.Random, image_id: int, category: int, box: list[float],
          jitter: float, score: float) -> dict:
    """A prediction near ``box``: corners moved by up to ``jitter`` of the
    box size, kept inside the image."""
    x, y, w, h = box
    pw = w * (1 + rng.uniform(-jitter, jitter))
    ph = h * (1 + rng.uniform(-jitter, jitter))
    px = x + rng.uniform(-jitter, jitter) * w
    py = y + rng.uniform(-jitter, jitter) * h
    return {"image_id": image_id, "category_id": category,
            "bbox": _inside(px, py, pw, ph, CROWD_W, CROWD_H), "score": score}


def _coco(images: list, annotations: list) -> dict:
    categories = [{"id": m, "name": f"class{m}"} for m in range(1, NUM_CLASSES + 1)]
    return {"images": images, "categories": categories, "annotations": annotations}


LAYOUTS = {"sparse": sparse, "crowded": crowded}


def write(layout: str, num_images: int, seed: int, out: Path) -> tuple[Path, Path]:
    """Write ``gt.json`` and ``predictions.json`` under ``out``; returns
    their paths."""
    gt, predictions = LAYOUTS[layout](num_images, seed)
    out.mkdir(parents=True, exist_ok=True)
    gt_path, pred_path = out / "gt.json", out / "predictions.json"
    for path, payload in ((gt_path, gt), (pred_path, predictions)):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
    return gt_path, pred_path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--layout", choices=sorted(LAYOUTS), required=True)
    parser.add_argument("--images", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    for path in write(args.layout, args.images, args.seed, args.out):
        print(path)


if __name__ == "__main__":
    main()
