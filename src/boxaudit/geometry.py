"""Axis-aligned bounding boxes and their IoU, scalar and vectorized."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from boxaudit.errors import InvalidInputError

__all__ = ["BBox", "iou", "iou_matrix", "corners", "corner_iou"]


@dataclass(frozen=True)
class BBox:
    """Axis-aligned rectangle in pixels, top-left [x, y, w, h] convention.

    Coordinates are real-valued; width and height must be strictly positive.
    """

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        for v in (self.x, self.y, self.w, self.h):
            if not math.isfinite(v):
                raise InvalidInputError(f"box coordinates must be finite, got {self}")
        if self.w <= 0 or self.h <= 0:
            raise InvalidInputError(
                f"degenerate box: width and height must be > 0, got w={self.w}, h={self.h}"
            )

    @property
    def right(self) -> float:
        return self.x + self.w

    @property
    def bottom(self) -> float:
        return self.y + self.h

    @property
    def center(self) -> tuple[float, float]:
        return (self.x + self.w / 2.0, self.y + self.h / 2.0)

    def as_list(self) -> list[float]:
        return [self.x, self.y, self.w, self.h]


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union of two boxes; 0 when disjoint, 1 when identical.

    Boxes that touch only along an edge or corner have zero intersection area
    and therefore IoU exactly 0.
    """
    ix = min(a.right, b.right) - max(a.x, b.x)
    iy = min(a.bottom, b.bottom) - max(a.y, b.y)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    # areas from the same corner differences keep iou(a, a) exactly 1
    area_a = (a.right - a.x) * (a.bottom - a.y)
    area_b = (b.right - b.x) * (b.bottom - b.y)
    return inter / (area_a + area_b - inter)


def corners(boxes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The (x1, y1, x2, y2) columns of an (n, 4) array of [x, y, w, h] rows."""
    boxes = np.asarray(boxes, dtype=np.float64)
    x1, y1 = boxes[:, 0], boxes[:, 1]
    return x1, y1, x1 + boxes[:, 2], y1 + boxes[:, 3]


def corner_iou(a, b) -> np.ndarray:
    """Elementwise IoU of boxes given as broadcastable (x1, y1, x2, y2)
    arrays, with the operations of :func:`iou` in the same order, so both
    give the same floats. Every array IoU in the package goes through it."""
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    iw = np.minimum(ax2, bx2) - np.maximum(ax1, bx1)
    ih = np.minimum(ay2, by2) - np.maximum(ay1, by1)
    inter = np.clip(iw, 0.0, None) * np.clip(ih, 0.0, None)
    return inter / ((ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter)


def iou_matrix(boxes: np.ndarray) -> np.ndarray:
    """Pairwise IoU of an (n, 4) array of [x, y, w, h] rows.

    Vectorized companion of :func:`iou`.
    """
    boxes = np.asarray(boxes, dtype=np.float64)
    if boxes.size == 0:
        return np.zeros((0, 0))
    x1, y1, x2, y2 = corners(boxes)
    return corner_iou(
        (x1[:, None], y1[:, None], x2[:, None], y2[:, None]), (x1, y1, x2, y2)
    )
