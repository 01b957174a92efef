"""One-vs-rest confident-learning core.

Each class (including background) is treated as an independent binary
problem over the reduced matrices. Per-class mean-probability thresholds
build a binary confident joint whose off-diagonal counts say how many labels
look wrong; that many worst rows by self-confidence are then flagged
(prune-by-noise-rate). A row's quality score is its smallest per-class
self-confidence, so lower means more suspicious, and sweeping a cutoff over
quality scores yields the ROC operating points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from boxaudit.errors import InvalidInputError
from boxaudit.geometry import BBox
from boxaudit.reduction import ReducedMatrices

__all__ = [
    "ClassThresholds",
    "RowAssessment",
    "BoxVerdict",
    "MODE_CONFIDENT_JOINT",
    "MODE_SCORE_THRESHOLD",
    "compute_thresholds",
    "detect_issues",
    "map_to_boxes",
]

MODE_CONFIDENT_JOINT = "confident_joint"
MODE_SCORE_THRESHOLD = "score_threshold"

WRONG_LABEL = "wrong_label"
MISSING_REGION = "missing_region"
OK = "ok"


@dataclass
class ClassThresholds:
    """Per-class confident thresholds; NaN marks a class with no support.

    ``t_pos[m]`` is the mean predicted probability over rows labeled m+1,
    ``t_neg[m]`` the mean complement probability over rows not labeled m+1.
    """

    t_pos: np.ndarray  # (M+1,)
    t_neg: np.ndarray  # (M+1,)


@dataclass(frozen=True)
class RowAssessment:
    quality_score: float
    flagged: bool
    flagged_classes: tuple[int, ...]  # dense class ids, M+1 = background


@dataclass(frozen=True)
class BoxVerdict:
    """Per-annotation quality judgement (or a per-region one for suspected
    missing annotations, where ``annotation_id`` is None and ``region`` holds
    the predicted boxes' enclosing rectangle)."""

    annotation_id: int | None
    cluster_id: int
    image_id: int
    quality_score: float
    flagged: bool
    flagged_classes: tuple[int, ...] = field(default=())
    verdict_kind: str = OK
    region: BBox | None = None


def compute_thresholds(matrices: ReducedMatrices) -> ClassThresholds:
    """Mean predicted probability per class over its labeled / unlabeled rows."""
    labels = matrices.labels.astype(bool)
    probs = matrices.probs
    n_classes = labels.shape[1]
    t_pos = np.full(n_classes, np.nan)
    t_neg = np.full(n_classes, np.nan)
    for m in range(n_classes):
        pos = labels[:, m]
        if pos.any():
            t_pos[m] = probs[pos, m].mean()
        if (~pos).any():
            t_neg[m] = (1.0 - probs[~pos, m]).mean()
    return ClassThresholds(t_pos=t_pos, t_neg=t_neg)


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


def detect_issues(
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

    flagged = np.zeros((n_rows, n_classes), dtype=bool)
    for m in range(n_classes):
        pos = labels[:, m]
        p = probs[:, m]
        pos_rows = np.nonzero(pos)[0]
        neg_rows = np.nonzero(~pos)[0]
        if not np.isnan(thresholds.t_neg[m]) and pos_rows.size:
            count = int(np.count_nonzero((1.0 - p[pos_rows]) >= thresholds.t_neg[m]))
            flagged[_worst(pos_rows, p[pos_rows], count), m] = True
        if not np.isnan(thresholds.t_pos[m]) and neg_rows.size:
            count = int(np.count_nonzero(p[neg_rows] >= thresholds.t_pos[m]))
            flagged[_worst(neg_rows, 1.0 - p[neg_rows], count), m] = True

    flagged_classes: list[tuple[int, ...]] = [()] * n_rows
    rows, cols = np.nonzero(flagged)
    for k, m in zip(rows.tolist(), (cols + 1).tolist()):
        flagged_classes[k] += (m,)
    return [
        RowAssessment(q, bool(classes), classes)
        for q, classes in zip(quality.tolist(), flagged_classes)
    ]


def _enclosing_region(boxes) -> BBox:
    x0 = min(b.bbox.x for b in boxes)
    y0 = min(b.bbox.y for b in boxes)
    x1 = max(b.bbox.right for b in boxes)
    y1 = max(b.bbox.bottom for b in boxes)
    return BBox(x0, y0, x1 - x0, y1 - y0)


def map_to_boxes(
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
