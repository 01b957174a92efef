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

from boxaudit.clustering import Partition
from boxaudit.dataset_io import int_array
from boxaudit.errors import InvalidInputError
from boxaudit.geometry import BBox
from boxaudit.reduction import ReducedMatrices

__all__ = [
    "ClassThresholds",
    "RowAssessment",
    "BoxVerdict",
    "VerdictTable",
    "MODE_CONFIDENT_JOINT",
    "MODE_SCORE_THRESHOLD",
    "compute_thresholds",
    "detect_issues",
    "map_to_boxes",
]

MODE_CONFIDENT_JOINT = "confident_joint"
MODE_SCORE_THRESHOLD = "score_threshold"
MODES = (MODE_CONFIDENT_JOINT, MODE_SCORE_THRESHOLD)

WRONG_LABEL = "wrong_label"
MISSING_REGION = "missing_region"
OK = "ok"
VERDICT_KINDS = (OK, WRONG_LABEL, MISSING_REGION)


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


_NO_REGION = [np.nan] * 4


@dataclass(frozen=True, eq=False)
class VerdictTable:
    """Verdicts as columns: entry i of every column describes verdict i.
    Iterating builds the verdicts as :class:`BoxVerdict` objects."""

    annotation_ids: np.ndarray  # Python ints, None for a region verdict
    cluster_ids: np.ndarray  # int64, or Python ints past int64
    image_ids: np.ndarray  # likewise
    quality: np.ndarray  # float64
    flagged: np.ndarray  # bool
    kinds: np.ndarray  # verdict kind strings
    regions: np.ndarray  # (n, 4) float64 [x, y, w, h]; a row of NaN for none
    flagged_classes: list[tuple[int, ...]]

    @classmethod
    def of_values(
        cls, annotation_ids, cluster_ids, image_ids, quality, flagged, kinds, regions,
        flagged_classes=None,
    ) -> VerdictTable:
        """A table from one list per column; a region is a list of 4 numbers
        or None, and the flagged classes default to none."""
        n = len(annotation_ids)
        return cls(
            annotation_ids=np.array(annotation_ids, dtype=object).reshape(n),
            cluster_ids=int_array(cluster_ids),
            image_ids=int_array(image_ids),
            quality=np.array(quality, dtype=np.float64),
            flagged=np.array(flagged, dtype=bool),
            kinds=np.array(kinds, dtype=object).reshape(n),
            regions=np.array(
                [_NO_REGION if r is None else r for r in regions], dtype=np.float64
            ).reshape(n, 4),
            flagged_classes=list(flagged_classes) if flagged_classes is not None else [()] * n,
        )

    @property
    def is_region(self) -> np.ndarray:
        """Which verdicts concern a region rather than an annotation."""
        return np.equal(self.annotation_ids, None)

    @property
    def has_region(self) -> np.ndarray:
        """Which verdicts hold a region (a row that is not NaN)."""
        return ~np.isnan(self.regions[:, 0])

    def __len__(self) -> int:
        return len(self.quality)

    def region_lists(self) -> dict[int, list[float]]:
        """The [x, y, w, h] region of every verdict that has one, by position."""
        with_region = np.flatnonzero(self.has_region)
        return dict(zip(with_region.tolist(), self.regions[with_region].tolist()))

    def __iter__(self):
        regions = self.region_lists()
        columns = zip(
            self.annotation_ids.tolist(),
            self.cluster_ids.tolist(),
            self.image_ids.tolist(),
            self.quality.tolist(),
            self.flagged.tolist(),
            self.flagged_classes,
            self.kinds.tolist(),
        )
        for i, values in enumerate(columns):
            region = regions.get(i)
            yield BoxVerdict(*values, None if region is None else BBox(*region))


def compute_thresholds(matrices: ReducedMatrices) -> ClassThresholds:
    """Mean predicted probability per class over its labeled / unlabeled rows."""
    return class_thresholds(matrices.labels, matrices.probs)


def class_thresholds(labels: np.ndarray, probs: np.ndarray) -> ClassThresholds:
    labels = labels.astype(bool)
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


def row_flags(
    labels: np.ndarray, probs: np.ndarray, thresholds: ClassThresholds
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's quality score and the (rows, classes) matrix of flags; see
    :func:`detect_issues`."""
    labels = labels.astype(bool)
    n_rows, n_classes = labels.shape
    self_confidence = np.where(labels, probs, 1.0 - probs)
    quality = self_confidence.min(axis=1) if n_rows else np.zeros(0)

    flagged = np.zeros((n_rows, n_classes), dtype=bool)
    for m in range(n_classes if n_rows else 0):
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
    return quality, flagged


def row_classes(flags: np.ndarray) -> list[tuple[int, ...]]:
    """The flagged dense class ids of every row, ascending."""
    classes: list[tuple[int, ...]] = [()] * len(flags)
    rows, cols = np.nonzero(flags)
    for k, m in zip(rows.tolist(), (cols + 1).tolist()):
        classes[k] += (m,)
    return classes


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
    quality, flags = row_flags(matrices.labels, matrices.probs, thresholds)
    return [
        RowAssessment(q, bool(classes), classes)
        for q, classes in zip(quality.tolist(), row_classes(flags))
    ]


UNKNOWN_MODE = "unknown mode {!r}"
TAU_RANGE = f"{MODE_SCORE_THRESHOLD} mode needs tau in [0, 1]"


def flagged_rows(
    flagged: np.ndarray, quality: np.ndarray, mode: str, tau: float | None
) -> np.ndarray:
    """Which rows count as flagged: under the confident joint the rows it
    flags (``flagged``), under score_threshold the rows whose quality score
    is at most ``tau``. Rejects an unknown mode, or score_threshold without
    a tau in [0, 1]."""
    if mode == MODE_CONFIDENT_JOINT:
        return flagged
    if mode != MODE_SCORE_THRESHOLD:
        raise InvalidInputError(UNKNOWN_MODE.format(mode))
    if tau is None or not 0.0 <= tau <= 1.0:
        raise InvalidInputError(TAU_RANGE)
    return quality <= tau


def verdict_counts(n_originals: np.ndarray, flagged: np.ndarray) -> np.ndarray:
    """How many verdicts each partition row gets, given its number of
    originals and whether it is flagged: one per original, or one region
    verdict if the row has no original and is flagged."""
    return np.where(n_originals > 0, n_originals, flagged)


def verdict_table(
    partition: Partition,
    quality: np.ndarray,
    flagged: np.ndarray,
    classes: list[tuple[int, ...]],
) -> VerdictTable:
    """The verdicts of every cluster, given each row's quality score, whether
    it counts as flagged and its flagged classes; see :func:`map_to_boxes`.

    Verdicts come in cluster order, a cluster's originals in member order.
    A missing region is the enclosing rectangle of the cluster's predicted
    boxes, from one ``reduceat`` per coordinate over all such clusters.
    """
    originals, n_originals = partition.members_of(np.arange(len(partition)), predicted=False)
    background = n_originals == 0
    rows = np.repeat(np.arange(len(partition)), verdict_counts(n_originals, flagged))
    is_region = background[rows]
    n = len(rows)

    annotation_ids = np.full(n, None, dtype=object)
    annotation_ids[~is_region] = partition.boxes.ids[originals]

    regions = np.full((n, 4), np.nan)
    region_rows = rows[is_region]
    if region_rows.size:
        predictions, sizes = partition.members_of(region_rows, predicted=True)
        if not sizes.all():
            empty = partition.cluster_ids[region_rows[sizes == 0][0]]
            raise InvalidInputError(f"cluster {empty} has no boxes to enclose")
        heads = np.cumsum(sizes) - sizes
        xywh = partition.boxes.xywh[predictions]
        x0 = np.minimum.reduceat(xywh[:, 0], heads)
        y0 = np.minimum.reduceat(xywh[:, 1], heads)
        x1 = np.maximum.reduceat(xywh[:, 0] + xywh[:, 2], heads)
        y1 = np.maximum.reduceat(xywh[:, 1] + xywh[:, 3], heads)
        found = np.stack((x0, y0, x1 - x0, y1 - y0), axis=1)
        for bad in found[(found[:, 2] <= 0) | (found[:, 3] <= 0)].tolist()[:1]:
            BBox(*bad)  # raises the degenerate-box error
        regions[is_region] = found

    row_flagged = flagged[rows]
    shown = [c if f else () for c, f in zip(classes, flagged.tolist())]
    return VerdictTable(
        annotation_ids=annotation_ids,
        cluster_ids=partition.cluster_ids[rows],
        image_ids=partition.image_ids[rows],
        quality=quality[rows],
        flagged=row_flagged,
        kinds=np.array(VERDICT_KINDS, dtype=object)[np.where(is_region, 2, row_flagged)],
        regions=regions,
        flagged_classes=[shown[r] for r in rows.tolist()],
    )


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

    ``mode`` selects how rows count as flagged (see :func:`flagged_rows`):
    the parameter-free confident joint (default report) or
    ``quality_score <= tau`` (the ROC sweep).
    """
    if len(rows) != len(matrices.row_clusters):
        raise InvalidInputError(
            f"row results ({len(rows)}) do not align with clusters "
            f"({len(matrices.row_clusters)})"
        )
    quality = np.array([r.quality_score for r in rows], dtype=np.float64)
    flagged = flagged_rows(
        np.array([bool(r.flagged) for r in rows], dtype=bool), quality, mode, tau
    )
    table = verdict_table(
        Partition.of_clusters(matrices.row_clusters),
        quality,
        flagged,
        [r.flagged_classes for r in rows],
    )
    return list(table)
