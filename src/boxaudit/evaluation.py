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
read at each cutoff gives its counts. Region matches are counted per image,
with IoUs from one vectorized matrix; each image replays its greedy match
only at its own distinct region scores, and the changes in matched count are
summed the same way. A sweep over every distinct score therefore costs about
one sort, not one greedy replay per cutoff. ``confusion_at`` is the sweep at
a single cutoff.
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
    "RocPoint",
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


@dataclass(frozen=True)
class RocPoint:
    threshold: float
    fpr: float
    tpr: float


@dataclass
class RocCurve:
    points: list[RocPoint]
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
) -> list[Confusion]:
    """Confusion counts at every threshold, from one pass over the verdict
    columns."""
    if not 0.0 < match_iou <= 1.0:
        raise InvalidInputError(MATCH_IOU_RANGE.format(match_iou))
    entries = ledger.columns
    missing = entries.of_kind(NoiseKind.MISSING)
    n_removed = int(np.count_nonzero(missing))
    positive_ids = set(entries.annotation_ids[~missing].tolist())
    removed = entries.original.take(missing[entries.has_original])  # the removed records with a box

    is_region = verdicts.is_region
    ann_ids = verdicts.annotation_ids[~is_region].tolist()
    for ids, problem in (
        ([a for a, n in Counter(entries.annotation_ids.tolist()).items() if n > 1],
         "lists annotations more than once"),
        (positive_ids.difference(ann_ids), "references annotations absent from the verdicts"),
        (set(entries.annotation_ids[missing].tolist()).intersection(ann_ids),
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

    counts = zip(
        (tp + matched).tolist(),
        (fp + flagged_regions - matched).tolist(),
        (n_negative - fp).tolist(),
        (n_positive - tp + n_removed - matched).tolist(),
    )
    return [Confusion(tp=t, fp=f, tn=n, fn=m) for t, f, n, m in counts]


def _matched_counts(
    verdicts: VerdictTable,
    is_region: np.ndarray,
    removed: BoxColumns,
    taus: np.ndarray,
    match_iou: float,
) -> np.ndarray:
    """Greedy one-to-one region matches at every threshold.

    Matching never crosses images, so each image replays its greedy match
    only at its own distinct region scores and records the change in matched
    count there; the count at a threshold is the sum of the changes at or
    below it.
    """
    with_region = np.flatnonzero(is_region & verdicts.has_region)
    by_image: dict[int, tuple[list[int], list[list[float]]]] = {}
    for i, image_id in zip(with_region.tolist(), verdicts.image_ids[with_region].tolist()):
        by_image.setdefault(image_id, ([], []))[0].append(i)
    for image_id, box in zip(removed.image_ids.tolist(), removed.xywh.tolist()):
        if image_id in by_image:
            by_image[image_id][1].append(box)

    event_scores: list[float] = []
    event_deltas: list[int] = []
    for image_regions, image_removed in by_image.values():
        if not image_removed:
            continue
        ious = corner_iou(
            [c[:, None] for c in corners(verdicts.regions[image_regions])], corners(image_removed)
        )
        ri, mi = np.nonzero(ious >= match_iou)
        # descending IoU; nonzero's row-major order breaks ties by region,
        # then record
        order = np.argsort(-ious[ri, mi], kind="stable")
        pairs = list(zip(ri[order].tolist(), mi[order].tolist()))
        scores = verdicts.quality[image_regions]
        before = 0
        for tau in sorted(set(scores[ri].tolist())):
            now = _greedy_matches(pairs, (scores <= tau).tolist())
            if now != before:
                event_scores.append(tau)
                event_deltas.append(now - before)
                before = now

    order = np.argsort(event_scores)
    cum_matched = np.concatenate(([0], np.cumsum(np.array(event_deltas, dtype=np.int64)[order])))
    return cum_matched[np.searchsorted(np.array(event_scores)[order], taus, side="right")]


def _greedy_matches(pairs: list[tuple[int, int]], flagged: list[bool]) -> int:
    """Size of the greedy one-to-one match over ``pairs`` (best first) among
    flagged regions."""
    used_regions: set[int] = set()
    used_removed: set[int] = set()
    for ri, mi in pairs:
        if flagged[ri] and ri not in used_regions and mi not in used_removed:
            used_regions.add(ri)
            used_removed.add(mi)
    return len(used_removed)


def confusion_at(
    verdicts: VerdictTable,
    ledger: NoiseLedger,
    tau: float,
    *,
    match_iou: float = DEFAULT_MATCH_IOU,
) -> Confusion:
    """Confusion counts of the noisy-box classifier at cutoff ``tau``."""
    return _sweep(verdicts, ledger, [tau], match_iou)[0]


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

    points = [
        RocPoint(threshold=tau, fpr=c.fpr, tpr=c.tpr)
        for tau, c in zip(thresholds, _sweep(verdicts, ledger, thresholds, match_iou))
    ]
    return RocCurve(points=points, auroc=auroc([(p.fpr, p.tpr) for p in points]))


def auroc(points: list[tuple[float, float]]) -> float:
    """Trapezoidal area under (fpr, tpr) points, sorted by fpr and anchored
    at (0, 0) and (1, 1)."""
    if len(points) < 2:
        raise InvalidInputError("auroc needs at least 2 points")
    pts = sorted(list(points) + [(0.0, 0.0), (1.0, 1.0)])
    area = 0.0
    for (x1, y1), (x2, y2) in zip(pts, pts[1:]):
        area += (x2 - x1) * (y1 + y2) / 2.0
    return area


def dense_thresholds(verdicts: VerdictTable) -> list[float]:
    """Every distinct quality score plus the 0/1 endpoints: the exact sweep."""
    scores = {0.0, 1.0}
    scores.update(verdicts.quality.tolist())
    return sorted(scores)
