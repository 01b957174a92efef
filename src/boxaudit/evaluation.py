"""Score detector verdicts against a noise ledger: confusion counts over a
quality-score cutoff, the ROC sweep, and trapezoidal AUROC.

An annotation counts as predicted-positive when its quality score is at or
below the cutoff, and as actual-positive when the ledger perturbed it.
Removed (missing-noise) annotations are credited through missing_region
verdicts: flagged regions are greedily matched one-to-one to removed records
of the same image by descending IoU; a matched record is a true positive, an
unmatched record a false negative, and an unmatched flagged region a false
positive.

The sweep is single-pass (Fawcett, "An introduction to ROC analysis", 2006):
annotation scores are sorted once, and a cumulative sum of the perturbed ones
read at each cutoff gives its counts. Every same-image region x removed pair
is scored in one IoU call, and each image with a pair at or above the match
IoU replays its greedy match at its own distinct region scores. The changes
in matched count are summed the same way, so a sweep over every distinct
score replays each image only at its own scores, not the whole dataset at
every cutoff. The curve is held as columns, one entry per cutoff.
``confusion_at`` is the sweep at a single cutoff.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from boxaudit.confident_learning import VerdictTable
from boxaudit.dataset_io import BoxColumns
from boxaudit.errors import EmptyLedgerError, InvalidInputError
from boxaudit.geometry import corner_iou, corners
from boxaudit.noise_injection import NoiseKind, NoiseLedger

__all__ = [
    "RocCurve",
    "Confusion",
    "DEFAULT_THRESHOLDS",
    "confusion_at",
    "roc_curve",
    "auroc",
    "dense_thresholds",
]

DEFAULT_THRESHOLDS = [i / 10 for i in range(11)]

DEFAULT_MATCH_IOU = 0.5


@dataclass
class RocCurve:
    """The swept cutoffs and the (FPR, TPR) at each, as float64 columns,
    and the area under those points."""

    thresholds: np.ndarray
    fpr: np.ndarray
    tpr: np.ndarray
    auroc: float


@dataclass(frozen=True)
class Confusion:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def fpr(self) -> float:
        total = self.fp + self.tn
        return self.fp / total if total else 0.0

    @property
    def tpr(self) -> float:
        total = self.tp + self.fn
        return self.tp / total if total else 0.0


MATCH_IOU_RANGE = "match_iou must lie in (0, 1], got {}"


def _sweep(
    verdicts: VerdictTable,
    ledger: NoiseLedger,
    thresholds: list[float],
    match_iou: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The tp, fp, tn and fn counts at every threshold, as int64 columns,
    from one pass over the verdict columns."""
    if not 0.0 < match_iou <= 1.0:
        raise InvalidInputError(MATCH_IOU_RANGE.format(match_iou))
    missing = ledger.of_kind(NoiseKind.MISSING)
    n_removed = int(np.count_nonzero(missing))
    positive_ids = set(ledger.annotation_ids[~missing].tolist())
    removed = ledger.original.take(missing[ledger.has_original])  # the removed records with a box

    is_region = verdicts.is_region
    ann_ids = verdicts.annotation_ids[~is_region].tolist()
    for ids, problem in (
        ([a for a, n in Counter(ledger.annotation_ids.tolist()).items() if n > 1],
         "lists annotations more than once"),
        (positive_ids.difference(ann_ids), "references annotations absent from the verdicts"),
        (set(ledger.annotation_ids[missing].tolist()).intersection(ann_ids),
         "marks annotations removed that still have verdicts"),
    ):
        if ids:
            raise InvalidInputError(
                f"ledger {problem} (e.g. {sorted(ids)[:3]}); verdicts and ledger must come "
                f"from the same dataset"
            )

    taus = np.asarray(thresholds, dtype=np.float64)
    ann_scores = verdicts.quality[~is_region]
    ann_positive = np.fromiter((a in positive_ids for a in ann_ids), bool, len(ann_ids))
    order = np.argsort(ann_scores)
    flagged = np.searchsorted(ann_scores[order], taus, side="right")
    tp = np.concatenate(([0], np.cumsum(ann_positive[order])))[flagged]
    fp = flagged - tp
    n_positive = int(np.count_nonzero(ann_positive))
    n_negative = len(ann_ids) - n_positive

    region_scores = np.sort(verdicts.quality[is_region])
    flagged_regions = np.searchsorted(region_scores, taus, side="right")
    matched = _matched_counts(verdicts, is_region, removed, taus, match_iou)
    return (
        tp + matched, fp + flagged_regions - matched, n_negative - fp,
        n_positive - tp + n_removed - matched,
    )


def _matched_counts(
    verdicts: VerdictTable,
    is_region: np.ndarray,
    removed: BoxColumns,
    taus: np.ndarray,
    match_iou: float,
) -> np.ndarray:
    """Greedy one-to-one region matches at every threshold.

    Removed records are sorted by image, so each region's same-image records
    are one ``searchsorted`` range, and all the pairs are scored in one IoU
    call. Matching never crosses images: each image with a pair at or above
    ``match_iou`` replays its greedy match at its own distinct region
    scores. The count at a threshold is the sum of the changes at or below
    it.
    """
    regions = np.flatnonzero(is_region & verdicts.has_region)
    region_images = verdicts.image_ids[regions]
    by_image = np.argsort(removed.image_ids, kind="stable")
    removed_images = removed.image_ids[by_image]
    starts = np.searchsorted(removed_images, region_images, side="left")
    counts = np.searchsorted(removed_images, region_images, side="right") - starts
    region_rows = np.repeat(regions, counts)
    # the k-th pair of a region takes the k-th record of its range
    slots = np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(len(region_rows))
    removed_rows = by_image[slots]
    ious = corner_iou(corners(verdicts.regions[region_rows]), corners(removed.xywh[removed_rows]))
    keep = ious >= match_iou
    # an image is named by the sorted position of its first removed record
    region_rows, removed_rows, ious, images = (
        a[keep] for a in (region_rows, removed_rows, ious, np.repeat(starts, counts))
    )
    scores = verdicts.quality[region_rows]

    event_scores, event_deltas = [], []
    # by image, then descending IoU, ties broken by region, then record
    rows = np.lexsort((removed_rows, region_rows, -ious, images))
    for image_rows in np.split(rows, np.flatnonzero(np.diff(images[rows])) + 1):
        pairs = list(zip(region_rows[image_rows].tolist(), removed_rows[image_rows].tolist(),
                         scores[image_rows].tolist()))
        before = 0
        for tau in sorted({score for _, _, score in pairs}):
            now = _greedy_matches(pairs, tau)
            if now != before:
                event_scores.append(tau)
                event_deltas.append(now - before)
                before = now

    order = np.argsort(event_scores)
    cum_matched = np.concatenate(([0], np.cumsum(np.array(event_deltas, dtype=np.int64)[order])))
    return cum_matched[np.searchsorted(np.array(event_scores)[order], taus, side="right")]


def _greedy_matches(pairs: list[tuple[int, int, float]], tau: float) -> int:
    """Size of the greedy one-to-one match over ``pairs`` (region, record,
    region score; best first) among the regions flagged at ``tau``."""
    used_regions: set[int] = set()
    used_removed: set[int] = set()
    for region, record, score in pairs:
        if score <= tau and region not in used_regions and record not in used_removed:
            used_regions.add(region)
            used_removed.add(record)
    return len(used_removed)


def confusion_at(
    verdicts: VerdictTable,
    ledger: NoiseLedger,
    tau: float,
    *,
    match_iou: float = DEFAULT_MATCH_IOU,
) -> Confusion:
    """Confusion counts of the noisy-box classifier at cutoff ``tau``."""
    return Confusion(*(int(c[0]) for c in _sweep(verdicts, ledger, [tau], match_iou)))


def roc_curve(
    verdicts: VerdictTable,
    ledger: NoiseLedger,
    thresholds: list[float] | None = None,
    *,
    match_iou: float = DEFAULT_MATCH_IOU,
) -> RocCurve:
    """Sweep the cutoff over ``thresholds`` (default 0.0, 0.1, ..., 1.0) and
    integrate the resulting (FPR, TPR) points into an AUROC."""
    if len(ledger) == 0:
        raise EmptyLedgerError(
            "the ledger holds no perturbations; evaluation requires injected noise"
        )
    if thresholds is None:
        thresholds = DEFAULT_THRESHOLDS
    if sorted(thresholds) != list(thresholds):
        raise InvalidInputError("thresholds must be sorted ascending")
    if not thresholds or thresholds[0] != 0.0 or thresholds[-1] != 1.0:
        raise InvalidInputError("thresholds must contain the endpoints 0 and 1")

    tp, fp, tn, fn = _sweep(verdicts, ledger, thresholds, match_iou)
    # a rate over no boxes is 0; its numerator is then 0 too
    fpr, tpr = fp / np.maximum(fp + tn, 1), tp / np.maximum(tp + fn, 1)
    return RocCurve(
        np.asarray(thresholds, dtype=np.float64), fpr, tpr, auroc(np.stack((fpr, tpr), axis=1))
    )


def auroc(points: list[tuple[float, float]] | np.ndarray) -> float:
    """Trapezoidal area under (fpr, tpr) points, given as pairs or as an
    (n, 2) array, sorted by fpr then tpr and anchored at (0, 0) and (1, 1);
    the trapezoids are added left to right."""
    if len(points) < 2:
        raise InvalidInputError("auroc needs at least 2 points")
    pts = np.concatenate((np.asarray(points, dtype=np.float64), [[0.0, 0.0], [1.0, 1.0]]))
    x, y = pts[np.lexsort((pts[:, 1], pts[:, 0]))].T
    return float(np.cumsum(np.concatenate(([0.0], np.diff(x) * (y[:-1] + y[1:]) / 2.0)))[-1])


def median(values: list[float]) -> float:
    """The middle value, or the mean of the middle two, as
    ``statistics.median`` gives it (``np.median`` would load ``numpy.ma``)."""
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    return float((ordered[(len(ordered) - 1) // 2] + ordered[len(ordered) // 2]) / 2)


def dense_thresholds(verdicts: VerdictTable) -> list[float]:
    """Every distinct quality score plus the 0/1 endpoints: the exact sweep."""
    scores = {0.0, 1.0}
    scores.update(verdicts.quality.tolist())
    return sorted(scores)
