"""Test-only slow reference for the clustering, reduction, flagging and
mapping core: the per-image union-find clustering, the per-cluster
reduction, the per-row flagging lists and the per-row verdict loop that
``boxaudit`` replaced with whole-dataset array passes.

The functions are kept verbatim apart from their ``reference_`` names.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from boxaudit.clustering import Cluster
from boxaudit.confident_learning import (
    MISSING_REGION,
    MODE_CONFIDENT_JOINT,
    MODE_SCORE_THRESHOLD,
    OK,
    WRONG_LABEL,
    BoxVerdict,
    ClassThresholds,
    RowAssessment,
)
from boxaudit.dataset_io import AnnotatedBox, Dataset, PredictionSet
from boxaudit.errors import InvalidInputError
from boxaudit.geometry import BBox, iou_matrix
from boxaudit.reduction import ReducedMatrices


class _UnionFind:
    """Disjoint sets over 0..n-1 with path compression and union by rank."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.rank = [0] * n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1


def _sort_key(cluster: Cluster) -> tuple:
    if cluster.original_members:
        return (cluster.image_id, min(b.id for b in cluster.original_members), 0)
    return (cluster.image_id, min(b.id for b in cluster.predicted_members), 1)


def reference_cluster_image(boxes: list[AnnotatedBox], iou_threshold: float) -> list[Cluster]:
    """Cluster the boxes of a single image; merges on ties (iou == threshold).

    Returned clusters have ids 0..k-1 ordered by smallest member annotation
    id (original members first). Raises if the boxes span several images.
    """
    if not 0.0 < iou_threshold < 1.0:
        raise InvalidInputError(f"iou_threshold must lie in (0, 1), got {iou_threshold}")
    if not boxes:
        return []
    image_ids = {b.image_id for b in boxes}
    if len(image_ids) > 1:
        raise InvalidInputError(f"boxes span several images: {sorted(image_ids)}")
    image_id = boxes[0].image_id

    coords = np.array([b.bbox.as_list() for b in boxes])
    ious = iou_matrix(coords)
    uf = _UnionFind(len(boxes))
    rows, cols = np.nonzero(np.triu(ious >= iou_threshold, k=1))
    for i, j in zip(rows.tolist(), cols.tolist()):
        uf.union(i, j)

    groups: dict[int, Cluster] = {}
    for idx, box in enumerate(boxes):
        root = uf.find(idx)
        cluster = groups.get(root)
        if cluster is None:
            cluster = groups[root] = Cluster(id=-1, image_id=image_id)
        if box.score is None:
            cluster.original_members.append(box)
        else:
            cluster.predicted_members.append(box)

    clusters = sorted(groups.values(), key=_sort_key)
    for i, c in enumerate(clusters):
        c.id = i
    return clusters


def reference_cluster_dataset(
    ds: Dataset, preds: PredictionSet, iou_threshold: float = 0.5
) -> list[Cluster]:
    """Cluster every image of the dataset together with its predictions.

    Per-image clusterings are concatenated in ascending image-id order and
    cluster ids renumbered globally, so the result is deterministic and forms
    a partition of all input boxes.
    """
    if not 0.0 < iou_threshold < 1.0:
        raise InvalidInputError(f"iou_threshold must lie in (0, 1), got {iou_threshold}")
    by_image: dict[int, list[AnnotatedBox]] = defaultdict(list)
    for box in ds.annotations:
        by_image[box.image_id].append(box)
    for box in preds.boxes:
        by_image[box.image_id].append(box)

    clusters: list[Cluster] = []
    for image_id in sorted(by_image):
        for c in reference_cluster_image(by_image[image_id], iou_threshold):
            c.id = len(clusters)
            clusters.append(c)
    return clusters


def reference_reduce_cluster(cluster: Cluster, num_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """Compute one (label row, probability row) pair for a cluster.

    The label row marks every class that occurs among the cluster's original
    boxes, or background if there are none. Each real-class probability is
    the maximum score of the cluster's predicted boxes with that label (0 if
    none); the background probability is 1 exactly when all real-class
    probabilities are 0.
    """
    y = np.zeros(num_classes + 1, dtype=np.uint8)
    p = np.zeros(num_classes + 1, dtype=np.float64)

    for box in cluster.original_members:
        if not 1 <= box.category_id <= num_classes:
            raise InvalidInputError(
                f"annotation {box.id}: label {box.category_id} outside 1..{num_classes}"
            )
        y[box.category_id - 1] = 1
    if not y.any():
        y[num_classes] = 1

    for box in cluster.predicted_members:
        if not 1 <= box.category_id <= num_classes:
            raise InvalidInputError(
                f"prediction {box.id}: label {box.category_id} outside 1..{num_classes}"
            )
        col = box.category_id - 1
        p[col] = max(p[col], box.score)
    if p[:num_classes].sum() == 0:
        p[num_classes] = 1.0

    return y, p


def reference_reduce_dataset(clusters: list[Cluster], num_classes: int) -> ReducedMatrices:
    """Stack per-cluster rows in cluster order into the reduced matrices."""
    labels = np.zeros((len(clusters), num_classes + 1), dtype=np.uint8)
    probs = np.zeros((len(clusters), num_classes + 1), dtype=np.float64)
    for k, cluster in enumerate(clusters):
        labels[k], probs[k] = reference_reduce_cluster(cluster, num_classes)
    return ReducedMatrices(
        labels=labels, probs=probs, row_clusters=list(clusters), num_classes=num_classes
    )


def _worst(pool: np.ndarray, confidence: np.ndarray, count: int) -> np.ndarray:
    """Indices of the ``count`` lowest-confidence rows in ``pool``; ties keep
    ascending row order (stable sort over an already-ascending pool).

    Rows with self-confidence exactly 1 are never an issue candidate; this
    keeps degenerate thresholds (an all-zero or all-one probability column)
    from flagging rows the model fully agrees with.
    """
    if count <= 0:
        return pool[:0]
    eligible = confidence < 1.0
    pool, confidence = pool[eligible], confidence[eligible]
    order = np.argsort(confidence, kind="stable")
    return pool[order[:count]]


def reference_detect_issues(
    matrices: ReducedMatrices, thresholds: ClassThresholds
) -> list[RowAssessment]:
    """Flag suspicious rows and score every row's label quality.

    For each class m as a binary problem: rows labeled m whose complement
    probability reaches ``t_neg[m]``, and rows not labeled m whose
    probability reaches ``t_pos[m]``, fill the two off-diagonal cells of the
    binary confident joint. Each cell's count selects that many
    worst-self-confidence rows from the corresponding side as label issues.
    Classes with undefined thresholds contribute nothing. The quality score
    is the row's minimum self-confidence across all classes.
    """
    labels = matrices.labels.astype(bool)
    probs = matrices.probs
    n_rows, n_classes = labels.shape
    if n_rows == 0:
        return []

    self_confidence = np.where(labels, probs, 1.0 - probs)
    quality = self_confidence.min(axis=1)

    flagged_classes: list[list[int]] = [[] for _ in range(n_rows)]
    for m in range(n_classes):
        pos = labels[:, m]
        p = probs[:, m]
        pos_rows = np.nonzero(pos)[0]
        neg_rows = np.nonzero(~pos)[0]
        if not np.isnan(thresholds.t_neg[m]) and pos_rows.size:
            count = int(np.count_nonzero((1.0 - p[pos_rows]) >= thresholds.t_neg[m]))
            for k in _worst(pos_rows, p[pos_rows], count):
                flagged_classes[k].append(m + 1)
        if not np.isnan(thresholds.t_pos[m]) and neg_rows.size:
            count = int(np.count_nonzero(p[neg_rows] >= thresholds.t_pos[m]))
            for k in _worst(neg_rows, 1.0 - p[neg_rows], count):
                flagged_classes[k].append(m + 1)

    return [
        RowAssessment(
            quality_score=float(quality[k]),
            flagged=bool(flagged_classes[k]),
            flagged_classes=tuple(flagged_classes[k]),
        )
        for k in range(n_rows)
    ]


def _enclosing_region(boxes) -> BBox:
    x0 = min(b.bbox.x for b in boxes)
    y0 = min(b.bbox.y for b in boxes)
    x1 = max(b.bbox.right for b in boxes)
    y1 = max(b.bbox.bottom for b in boxes)
    return BBox(x0, y0, x1 - x0, y1 - y0)


def reference_map_to_boxes(
    matrices: ReducedMatrices,
    rows: list[RowAssessment],
    *,
    mode: str = MODE_CONFIDENT_JOINT,
    tau: float | None = None,
) -> list[BoxVerdict]:
    """Turn row assessments back into per-annotation verdicts.

    Every original annotation of a flagged cluster becomes a wrong_label
    verdict sharing the row's quality score; a flagged background cluster
    (predictions only) yields a single missing_region verdict carrying the
    predicted boxes' enclosing region; originals of unflagged clusters get an
    ok verdict with their row's score.

    ``mode`` selects how rows count as flagged: the parameter-free confident
    joint (default report) or ``quality_score <= tau`` (the ROC sweep).
    """
    if len(rows) != len(matrices.row_clusters):
        raise InvalidInputError(
            f"row results ({len(rows)}) do not align with clusters "
            f"({len(matrices.row_clusters)})"
        )
    if mode not in (MODE_CONFIDENT_JOINT, MODE_SCORE_THRESHOLD):
        raise InvalidInputError(f"unknown mode {mode!r}")
    if mode == MODE_SCORE_THRESHOLD:
        if tau is None or not 0.0 <= tau <= 1.0:
            raise InvalidInputError("score_threshold mode needs tau in [0, 1]")

    verdicts: list[BoxVerdict] = []
    for cluster, row in zip(matrices.row_clusters, rows):
        if mode == MODE_CONFIDENT_JOINT:
            is_flagged = row.flagged
        else:
            is_flagged = row.quality_score <= tau
        classes = row.flagged_classes if is_flagged else ()
        if cluster.original_members:
            kind = WRONG_LABEL if is_flagged else OK
            for box in cluster.original_members:
                verdicts.append(
                    BoxVerdict(
                        annotation_id=box.id,
                        cluster_id=cluster.id,
                        image_id=cluster.image_id,
                        quality_score=row.quality_score,
                        flagged=is_flagged,
                        flagged_classes=classes,
                        verdict_kind=kind,
                    )
                )
        elif is_flagged:
            verdicts.append(
                BoxVerdict(
                    annotation_id=None,
                    cluster_id=cluster.id,
                    image_id=cluster.image_id,
                    quality_score=row.quality_score,
                    flagged=True,
                    flagged_classes=classes,
                    verdict_kind=MISSING_REGION,
                    region=_enclosing_region(cluster.predicted_members),
                )
            )
    return verdicts
