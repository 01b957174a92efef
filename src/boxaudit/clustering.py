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

import numpy as np

from boxaudit.dataset_io import AnnotatedBox, BoxColumns, Dataset, PredictionSet, int_array
from boxaudit.errors import InvalidInputError
from boxaudit.geometry import corner_iou, corners

__all__ = ["Cluster", "Partition", "cluster_dataset", "cluster_boxes"]


@dataclass
class Cluster:
    id: int
    image_id: int
    original_members: list[AnnotatedBox] = field(default_factory=list)
    predicted_members: list[AnnotatedBox] = field(default_factory=list)


@dataclass(frozen=True, eq=False)
class Partition:
    """Clusters as arrays. Cluster c (``cluster_ids[c]``, on image
    ``image_ids[c]``) holds the boxes ``boxes.items[k]`` for k in
    ``members[ends[2c]:ends[2c+1]]`` as originals and in
    ``members[ends[2c+1]:ends[2c+2]]`` as predictions; other modules read
    them through the methods below, not through ``ends``.
    """

    boxes: BoxColumns
    cluster_ids: np.ndarray
    image_ids: np.ndarray
    members: np.ndarray
    ends: np.ndarray

    def __len__(self) -> int:
        return len(self.cluster_ids)

    def member_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """For each entry of ``members``, its cluster's row and whether it is
        an original."""
        slots = np.repeat(np.arange(len(self.ends) - 1), np.diff(self.ends))
        return slots // 2, slots % 2 == 0

    def sizes(self, *, predicted: bool) -> np.ndarray:
        """How many predictions (or originals) each cluster holds."""
        return np.diff(self.ends)[int(predicted) :: 2]

    def members_of(self, rows: np.ndarray, *, predicted: bool) -> tuple[np.ndarray, np.ndarray]:
        """The ``members`` that are predictions (or originals) of the given
        rows' clusters, row after row, and how many each row holds."""
        slots = 2 * rows + int(predicted)
        starts = self.ends[slots]
        sizes = self.ends[slots + 1] - starts
        heads = np.cumsum(sizes) - sizes
        return self.members[np.repeat(starts - heads, sizes) + np.arange(sizes.sum())], sizes

    @classmethod
    def of_clusters(cls, clusters: list[Cluster]) -> Partition:
        boxes: list[AnnotatedBox] = []
        ends = [0]
        for c in clusters:
            boxes += c.original_members
            ends.append(len(boxes))
            boxes += c.predicted_members
            ends.append(len(boxes))
        return cls(
            BoxColumns.of(boxes),
            int_array([c.id for c in clusters]),
            int_array([c.image_id for c in clusters]),
            np.arange(len(boxes)),
            np.array(ends, dtype=np.int64),
        )

    def clusters(self, items: list[AnnotatedBox] | None = None) -> list[Cluster]:
        """The clusters as :class:`Cluster` objects holding ``items[k]``
        (by default ``boxes.items[k]``) for box k."""
        items = self.boxes.items if items is None else items
        members = [items[k] for k in self.members.tolist()]
        ends = self.ends.tolist()
        return [
            Cluster(c, image_id, members[ends[2 * k] : ends[2 * k + 1]],
                    members[ends[2 * k + 1] : ends[2 * k + 2]])
            for k, (c, image_id) in enumerate(
                zip(self.cluster_ids.tolist(), self.image_ids.tolist())
            )
        ]


# Same-image pairs are scored this many at a time, so the temporaries stay
# small however many boxes share an image.
_PAIR_BLOCK = 4096


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


IOU_THRESHOLD_RANGE = "iou_threshold must lie in (0, 1), got {}"


def cluster_boxes(boxes: BoxColumns, iou_threshold: float) -> Partition:
    """Cluster boxes from any number of images; merges on ties (iou ==
    threshold).

    Boxes are stably sorted by image, so each image keeps its input order.
    Clusters get ids 0..k-1 in the order ``(image_id, smallest original id,
    0)``, or ``(image_id, smallest predicted id, 1)`` when they hold no
    original, ties going to the cluster whose first member comes first;
    members keep their input order.
    """
    if not 0.0 < iou_threshold < 1.0:
        raise InvalidInputError(IOU_THRESHOLD_RANGE.format(iou_threshold))
    n = len(boxes)
    if not n:
        empty = np.zeros(0, np.int64)
        return Partition(boxes, empty, empty, empty, np.zeros(1, np.int64))
    distinct_images, image_rank = np.unique(boxes.image_ids, return_inverse=True)
    _, id_rank = np.unique(boxes.ids, return_inverse=True)
    order = np.argsort(image_rank, kind="stable")
    image_rank, id_rank = image_rank[order], id_rank[order]
    predicted = boxes.predicted[order]
    group_end = np.searchsorted(image_rank, image_rank, side="right")
    root = _components(n, *_edges(boxes.xywh[order], group_end, iou_threshold))

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
    return Partition(
        boxes,
        np.arange(len(roots)),
        distinct_images[image_rank[roots]],
        order[np.argsort(slot, kind="stable")],
        np.cumsum(np.bincount(slot + 1, minlength=2 * len(roots) + 1)),
    )


def cluster_dataset(
    ds: Dataset, preds: PredictionSet, iou_threshold: float = 0.5
) -> list[Cluster]:
    """Cluster every image of the dataset together with its predictions.

    Clusters come in ascending image-id order with ids numbered globally, so
    the result is deterministic and forms a partition of all input boxes.
    """
    partition = cluster_boxes(BoxColumns.join(ds.columns, preds.columns), iou_threshold)
    return partition.clusters(ds.annotations + preds.boxes)
