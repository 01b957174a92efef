"""Test-only slow reference for the ROC sweep: the per-threshold greedy
replay that ``boxaudit.evaluation`` replaced with a single-pass sweep, and
the trapezoid loop its ``auroc`` replaced with a sort and a running sum.

``_Prepared`` and ``reference_auroc`` are kept verbatim;
``reference_confusion_at`` and ``reference_roc_curve`` drive them the way
the public functions used to, and the curve comes back as columns.
"""

from __future__ import annotations

import numpy as np

from boxaudit.confident_learning import BoxVerdict
from boxaudit.errors import InvalidInputError
from boxaudit.evaluation import DEFAULT_MATCH_IOU, Confusion, RocCurve
from boxaudit.geometry import iou
from boxaudit.noise_injection import NoiseKind, NoiseLedger


class _Prepared:
    """Verdicts and ledger cross-indexed once so each sweep threshold is a
    cheap pass."""

    def __init__(self, verdicts: list[BoxVerdict], ledger: NoiseLedger, match_iou: float):
        removed = [e for e in ledger.entries if e.kind == NoiseKind.MISSING]
        positive_ids = {
            e.annotation_id for e in ledger.entries if e.kind != NoiseKind.MISSING
        }

        ann = [v for v in verdicts if v.annotation_id is not None]
        regions = [v for v in verdicts if v.annotation_id is None]
        known_ids = {v.annotation_id for v in ann}
        stray = positive_ids - known_ids
        if stray:
            raise InvalidInputError(
                f"ledger references annotations absent from the verdicts "
                f"(e.g. {sorted(stray)[:3]}); verdicts and ledger must come "
                f"from the same dataset"
            )

        self.ann_scores = np.array([v.quality_score for v in ann], dtype=np.float64)
        self.ann_positive = np.array(
            [v.annotation_id in positive_ids for v in ann], dtype=bool
        )
        self.region_scores = np.array([v.quality_score for v in regions], dtype=np.float64)
        self.n_removed = len(removed)

        pairs = []
        for ri, rv in enumerate(regions):
            if rv.region is None:
                continue
            for mi, entry in enumerate(removed):
                if entry.original is None or entry.original.image_id != rv.image_id:
                    continue
                overlap = iou(rv.region, entry.original.bbox)
                if overlap >= match_iou:
                    pairs.append((overlap, ri, mi))
        # descending IoU, deterministic tie-break by verdict then record order
        self.pairs = sorted(pairs, key=lambda t: (-t[0], t[1], t[2]))

    def confusion(self, tau: float) -> Confusion:
        flagged = self.ann_scores <= tau
        tp = int(np.count_nonzero(flagged & self.ann_positive))
        fp = int(np.count_nonzero(flagged & ~self.ann_positive))
        tn = int(np.count_nonzero(~flagged & ~self.ann_positive))
        fn = int(np.count_nonzero(~flagged & self.ann_positive))

        flagged_regions = self.region_scores <= tau
        used_regions: set[int] = set()
        used_removed: set[int] = set()
        for _, ri, mi in self.pairs:
            if flagged_regions[ri] and ri not in used_regions and mi not in used_removed:
                used_regions.add(ri)
                used_removed.add(mi)
        matched = len(used_removed)
        tp += matched
        fn += self.n_removed - matched
        fp += int(np.count_nonzero(flagged_regions)) - len(used_regions)
        return Confusion(tp=tp, fp=fp, tn=tn, fn=fn)


def reference_confusion_at(
    verdicts: list[BoxVerdict],
    ledger: NoiseLedger,
    tau: float,
    *,
    match_iou: float = DEFAULT_MATCH_IOU,
) -> Confusion:
    return _Prepared(verdicts, ledger, match_iou).confusion(tau)


def reference_roc_curve(
    verdicts: list[BoxVerdict],
    ledger: NoiseLedger,
    thresholds: list[float],
    *,
    match_iou: float = DEFAULT_MATCH_IOU,
) -> RocCurve:
    prepared = _Prepared(verdicts, ledger, match_iou)
    points = []
    for tau in thresholds:
        c = prepared.confusion(tau)
        points.append((c.fpr, c.tpr))
    fpr, tpr = np.array(points, dtype=np.float64).reshape(-1, 2).T
    return RocCurve(np.array(thresholds, dtype=np.float64), fpr, tpr, reference_auroc(points))


def reference_auroc(points: list[tuple[float, float]]) -> float:
    """Trapezoidal area under (fpr, tpr) points, sorted by fpr and anchored
    at (0, 0) and (1, 1)."""
    if len(points) < 2:
        raise InvalidInputError("auroc needs at least 2 points")
    pts = sorted(list(points) + [(0.0, 0.0), (1.0, 1.0)])
    area = 0.0
    for (x1, y1), (x2, y2) in zip(pts, pts[1:]):
        area += (x2 - x1) * (y1 + y2) / 2.0
    return area
