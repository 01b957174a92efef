"""Reduce box clusters to one-row label/probability pairs.

Each cluster becomes one row of a binary label matrix and one row of a
predicted-probability matrix, both with M+1 columns: the M real classes plus
a synthetic background class in the last column. A cluster with no original
boxes is labeled background; a cluster with no predicted scores gets
background probability 1. This turns the detection audit into a multi-label
classification problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from boxaudit.clustering import Cluster
from boxaudit.dataset_io import AnnotatedBox
from boxaudit.errors import InvalidInputError

__all__ = ["ReducedMatrices", "reduce_cluster", "reduce_dataset"]


@dataclass
class ReducedMatrices:
    """Row k of ``labels``/``probs`` describes cluster ``row_clusters[k]``.

    Column m-1 holds class m (dense ids 1..M); column M is background.
    """

    labels: np.ndarray  # (N, M+1) uint8
    probs: np.ndarray  # (N, M+1) float64
    row_clusters: list[Cluster]
    num_classes: int

    @property
    def background_column(self) -> int:
        return self.num_classes


def reduce_cluster(cluster: Cluster, num_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """Compute one (label row, probability row) pair for a cluster.

    The label row marks every class that occurs among the cluster's original
    boxes, or background if there are none. Each real-class probability is
    the maximum score of the cluster's predicted boxes with that label (0 if
    none); the background probability is 1 exactly when all real-class
    probabilities are 0.
    """
    matrices = reduce_dataset([cluster], num_classes)
    return matrices.labels[0], matrices.probs[0]


def _members(clusters: list[Cluster], side: str) -> tuple[np.ndarray, list[AnnotatedBox]]:
    """The ``side`` members of every cluster in cluster order, with the row
    (cluster index) of each."""
    groups = [getattr(c, side) for c in clusters]
    rows = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    return rows, [b for g in groups for b in g]


def reduce_dataset(clusters: list[Cluster], num_classes: int) -> ReducedMatrices:
    """Reduce cluster k (see :func:`reduce_cluster`) into row k of the
    matrices, every cluster at once."""
    n = len(clusters)
    originals = _members(clusters, "original_members")
    predictions = _members(clusters, "predicted_members")
    # report the first label out of range in cluster order, originals first
    found = []
    for side, (rows, boxes) in enumerate((originals, predictions)):
        for i, box in enumerate(boxes):
            if not 1 <= box.category_id <= num_classes:
                found.append((int(rows[i]), side, box))
                break
    if found:
        _, side, box = min(found, key=lambda f: f[:2])
        raise InvalidInputError(
            f"{'prediction' if side else 'annotation'} {box.id}: "
            f"label {box.category_id} outside 1..{num_classes}"
        )

    (rows, boxes), (pred_rows, preds) = originals, predictions
    labels = np.zeros((n, num_classes + 1), dtype=np.uint8)
    labels[rows, np.array([b.category_id for b in boxes], dtype=np.int64) - 1] = 1
    labels[~labels.any(axis=1), num_classes] = 1
    probs = np.zeros((n, num_classes + 1), dtype=np.float64)
    np.maximum.at(
        probs,
        (pred_rows, np.array([b.category_id for b in preds], dtype=np.int64) - 1),
        np.array([b.score for b in preds], dtype=np.float64),
    )
    probs[~probs[:, :num_classes].any(axis=1), num_classes] = 1.0
    return ReducedMatrices(
        labels=labels, probs=probs, row_clusters=list(clusters), num_classes=num_classes
    )


def dump_matrices(matrices: ReducedMatrices) -> str:
    """Tabular text dump of the reduced matrices for inspection (one line
    per cluster, keyed by cluster id)."""
    lines = ["cluster_id\tlabels\tprobs"]
    for k, cluster in enumerate(matrices.row_clusters):
        y = ",".join(str(int(v)) for v in matrices.labels[k])
        p = ",".join(f"{v:.4f}" for v in matrices.probs[k])
        lines.append(f"{cluster.id}\t{y}\t{p}")
    return "\n".join(lines) + "\n"
