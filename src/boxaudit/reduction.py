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

from boxaudit.clustering import Cluster, Partition
from boxaudit.errors import InvalidInputError

__all__ = ["ReducedMatrices", "reduce_dataset"]


@dataclass
class ReducedMatrices:
    """Row k of ``labels``/``probs`` describes cluster ``row_clusters[k]``.

    Column m-1 holds class m (dense ids 1..M); column M is background.
    """

    labels: np.ndarray  # (N, M+1) uint8
    probs: np.ndarray  # (N, M+1) float64
    row_clusters: list[Cluster]
    num_classes: int


def reduce_partition(partition: Partition, num_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """The label and probability matrices of every cluster at once.

    Row k of the label matrix marks every class that occurs among cluster
    k's original boxes, or background if there are none. Each real-class
    probability is the maximum score of the cluster's predicted boxes with
    that label (0 if none); the background probability is 1 exactly when
    all real-class probabilities are 0. The first label out of range, in
    cluster order with originals first, raises."""
    slots = partition.member_slots()
    boxes = partition.boxes
    classes = boxes.classes[partition.members]
    bad = (classes < 1) | (classes > num_classes)
    if bad.any():
        first = int(np.argmax(bad))
        raise InvalidInputError(
            f"{'prediction' if slots[first] % 2 else 'annotation'} "
            f"{boxes.ids[partition.members[first]]}: "
            f"label {classes[first]} outside 1..{num_classes}"
        )

    n = len(partition)
    rows, columns = slots // 2, classes.astype(np.int64) - 1
    original = slots % 2 == 0
    labels = np.zeros((n, num_classes + 1), dtype=np.uint8)
    labels[rows[original], columns[original]] = 1
    labels[~labels.any(axis=1), num_classes] = 1
    probs = np.zeros((n, num_classes + 1), dtype=np.float64)
    predicted = ~original
    np.maximum.at(
        probs,
        (rows[predicted], columns[predicted]),
        boxes.scores[partition.members[predicted]],
    )
    probs[~probs[:, :num_classes].any(axis=1), num_classes] = 1.0
    return labels, probs


def reduce_dataset(clusters: list[Cluster], num_classes: int) -> ReducedMatrices:
    """Reduce cluster k (see :func:`reduce_partition`) into row k of the
    matrices, every cluster at once."""
    labels, probs = reduce_partition(Partition.of_clusters(clusters), num_classes)
    return ReducedMatrices(
        labels=labels, probs=probs, row_clusters=list(clusters), num_classes=num_classes
    )
