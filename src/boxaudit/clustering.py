"""Per-image single-linkage clustering of original and predicted boxes.

Two boxes on the same image join a cluster when their IoU reaches the
threshold; clusters are the connected components of that graph, which is
exactly a single-linkage dendrogram cut at distance ``1 - iou_threshold``.
Boxes on different images never share a cluster.

All images are clustered in one pass over arrays: the boxes are sorted by
image, every same-image pair is scored, and the components are found over
the pairs that reach the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter

import numpy as np

from boxaudit.dataset_io import AnnotatedBox, BoxSource, Dataset, PredictionSet
from boxaudit.errors import InvalidInputError
from boxaudit.geometry import corner_iou, corners

__all__ = ["Cluster", "cluster_image", "cluster_dataset"]


@dataclass
class Cluster:
    id: int
    image_id: int
    original_members: list[AnnotatedBox] = field(default_factory=list)
    predicted_members: list[AnnotatedBox] = field(default_factory=list)

    @property
    def members(self) -> list[AnnotatedBox]:
        return self.original_members + self.predicted_members

    @property
    def is_background(self) -> bool:
        return not self.original_members


# Same-image pairs are scored this many at a time, so the temporaries stay
# small however many boxes share an image.
_PAIR_BLOCK = 4096

_xywh = attrgetter("x", "y", "w", "h")


def _ranks(values: list[int]) -> tuple[np.ndarray, list[int]]:
    """Dense ranks of integer ids and the sorted distinct ids; ids beyond
    int64 are ranked as Python ints."""
    try:
        ids = np.array(values, dtype=np.int64)
    except OverflowError:
        ids = np.array(values, dtype=object)
    distinct, rank = np.unique(ids, return_inverse=True)
    return rank, distinct.tolist()


def _edges(boxes: np.ndarray, group_end: np.ndarray, iou_threshold: float):
    """Pairs i < j < ``group_end[i]`` whose IoU reaches the threshold, scored
    in fixed-size blocks of pairs."""
    n = len(boxes)
    box_corners = corners(boxes)
    partners = group_end - np.arange(n) - 1
    pair_end = np.cumsum(partners)
    total = int(pair_end[-1])
    heads, tails = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for first in range(0, total, _PAIR_BLOCK):
        k = np.arange(first, min(first + _PAIR_BLOCK, total))
        i = np.searchsorted(pair_end, k, side="right")
        j = k - pair_end[i] + group_end[i]
        ious = corner_iou([v[i] for v in box_corners], [v[j] for v in box_corners])
        hit = ious >= iou_threshold
        heads.append(i[hit])
        tails.append(j[hit])
    return np.concatenate(heads), np.concatenate(tails)


def _components(n: int, heads: np.ndarray, tails: np.ndarray) -> np.ndarray:
    """Connected components over the edges, labelling each node with the
    smallest node of its component: every edge hooks the larger of its two
    roots onto the smaller, then the trees are flattened, until no edge joins
    two trees."""
    root = np.arange(n)
    while True:
        a, b = root[heads], root[tails]
        split = a != b
        if not split.any():
            return root
        a, b = a[split], b[split]
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(flat := root[root], root):
            root = flat


def _partition(boxes: list[AnnotatedBox], iou_threshold: float):
    """The clusters of a non-empty flat list of boxes, as arrays: the sorted
    distinct image ids, each cluster's rank among them, the box indices
    grouped by cluster (originals, then predictions) and the end of each
    group."""
    n = len(boxes)
    image_rank, image_ids = _ranks([b.image_id for b in boxes])
    id_rank, _ = _ranks([b.id for b in boxes])
    predicted = np.fromiter((b.source != BoxSource.ORIGINAL for b in boxes), bool, n)
    order = np.argsort(image_rank, kind="stable")
    image_rank, id_rank, predicted = image_rank[order], id_rank[order], predicted[order]
    coords = np.fromiter(
        chain.from_iterable(_xywh(boxes[k].bbox) for k in order.tolist()), np.float64, 4 * n
    ).reshape(n, 4)
    group_end = np.searchsorted(image_rank, image_rank, side="right")
    root = _components(n, *_edges(coords, group_end, iou_threshold))

    # A cluster's key box is its first member in (predicted, id) order, and
    # clusters sort by (image, key id, key predicted, first member).
    span = int(id_rank.max()) + 1
    key = np.full(n, np.iinfo(np.int64).max)
    np.minimum.at(key, root, predicted * span + id_rank)
    roots = np.flatnonzero(root == np.arange(n))
    roots = roots[np.lexsort((roots, key[roots] // span, key[roots] % span, image_rank[roots]))]
    cluster_of = np.empty(n, np.int64)
    cluster_of[roots] = np.arange(len(roots))
    slot = 2 * cluster_of[root] + predicted
    ends = np.cumsum(np.bincount(slot, minlength=2 * len(roots)))
    return image_ids, image_rank[roots], order[np.argsort(slot, kind="stable")], ends


def _cluster_boxes(boxes: list[AnnotatedBox], iou_threshold: float) -> list[Cluster]:
    """Cluster a flat list of boxes from any number of images.

    Boxes are stably sorted by image, so each image keeps its input order.
    Clusters are ordered by ``(image_id, smallest original id, 0)``, or by
    ``(image_id, smallest predicted id, 1)`` when they hold no original,
    ties going to the cluster whose first member comes first; members keep
    their input order.
    """
    if not boxes:
        return []
    # the partition's arrays are freed before the objects are built, which
    # keeps the peak memory down
    image_ids, images, grouped, ends = _partition(boxes, iou_threshold)
    members = [boxes[k] for k in grouped.tolist()]
    ends = [0, *ends.tolist()]
    return [
        Cluster(c, image_ids[r], members[ends[2 * c] : ends[2 * c + 1]],
                members[ends[2 * c + 1] : ends[2 * c + 2]])
        for c, r in enumerate(images.tolist())
    ]


def cluster_image(boxes: list[AnnotatedBox], iou_threshold: float) -> list[Cluster]:
    """Cluster the boxes of a single image; merges on ties (iou == threshold).

    Returned clusters have ids 0..k-1 ordered by smallest member annotation
    id (original members first). Raises if the boxes span several images.
    """
    if not 0.0 < iou_threshold < 1.0:
        raise InvalidInputError(f"iou_threshold must lie in (0, 1), got {iou_threshold}")
    image_ids = {b.image_id for b in boxes}
    if len(image_ids) > 1:
        raise InvalidInputError(f"boxes span several images: {sorted(image_ids)}")
    return _cluster_boxes(boxes, iou_threshold)


def cluster_dataset(
    ds: Dataset, preds: PredictionSet, iou_threshold: float = 0.5
) -> list[Cluster]:
    """Cluster every image of the dataset together with its predictions.

    Clusters come in ascending image-id order with ids numbered globally, so
    the result is deterministic and forms a partition of all input boxes.
    """
    if not 0.0 < iou_threshold < 1.0:
        raise InvalidInputError(f"iou_threshold must lie in (0, 1), got {iou_threshold}")
    return _cluster_boxes(ds.annotations + preds.boxes, iou_threshold)
