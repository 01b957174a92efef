"""Parsing, validation, and persistence of datasets, predictions, ledgers,
and reports.

Ground truth uses the COCO annotation format, predictions the COCO
detection-results format. Category ids are remapped to a dense 1..M index at
ingestion; files always carry the original (source) ids.
"""

from __future__ import annotations

import csv
import json
import statistics
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Any

from boxaudit.errors import (
    DanglingReferenceError,
    DuplicateIdError,
    FormatError,
    InvalidInputError,
    InvalidScoreError,
    MissingFileError,
)
from boxaudit.geometry import BBox

if TYPE_CHECKING:
    from boxaudit.confident_learning import BoxVerdict
    from boxaudit.evaluation import RocCurve
    from boxaudit.noise_injection import NoiseLedger

__all__ = [
    "BoxSource",
    "ImageInfo",
    "Category",
    "AnnotatedBox",
    "Dataset",
    "PredictionSet",
    "DetectionReport",
    "load_ground_truth",
    "load_predictions",
    "save_dataset",
    "save_ledger",
    "load_ledger",
    "save_report",
    "load_report",
    "save_roc",
]


class BoxSource(str, Enum):
    ORIGINAL = "original"
    PREDICTED = "predicted"


@dataclass(frozen=True)
class ImageInfo:
    id: int
    width: int
    height: int
    file_name: str


@dataclass(frozen=True)
class Category:
    """A class label: ``id`` is the dense internal index in 1..M,
    ``source_id`` the id used in files."""

    id: int
    name: str
    source_id: int


@dataclass(frozen=True)
class AnnotatedBox:
    """A labeled box, either a ground-truth annotation or a model prediction.

    ``score`` is present exactly when ``source`` is predicted.
    """

    id: int
    image_id: int
    category_id: int
    bbox: BBox
    source: BoxSource = BoxSource.ORIGINAL
    score: float | None = None

    def __post_init__(self):
        if (self.score is not None) != (self.source == BoxSource.PREDICTED):
            raise InvalidInputError(
                f"annotation {self.id}: score must be present iff the box is predicted"
            )
        if self.score is not None and not 0.0 <= self.score <= 1.0:
            raise InvalidScoreError(
                f"annotation {self.id}: score {self.score} outside [0, 1]"
            )


@dataclass
class Dataset:
    images: list[ImageInfo]
    categories: list[Category]
    annotations: list[AnnotatedBox]

    @property
    def num_categories(self) -> int:
        return len(self.categories)

    def image_map(self) -> dict[int, ImageInfo]:
        return {img.id: img for img in self.images}

    def dense_to_source(self) -> dict[int, int]:
        return {c.id: c.source_id for c in self.categories}

    def source_to_dense(self) -> dict[int, int]:
        return {c.source_id: c.id for c in self.categories}


@dataclass
class PredictionSet:
    """Out-of-sample model detections for a companion :class:`Dataset`.

    Whether the predictions really are out-of-sample (the model never trained
    on the audited images) is the caller's responsibility; it cannot be
    checked from the files.
    """

    boxes: list[AnnotatedBox]
    note: str = ""


@dataclass
class DetectionReport:
    """Detector output plus the context needed to serialize it."""

    verdicts: list  # of BoxVerdict
    clusters: list  # of Cluster
    categories: list[Category] = field(default_factory=list)


# --- JSON plumbing -----------------------------------------------------------


def _read_json(path: str | Path) -> Any:
    p = Path(path)
    if not p.is_file():
        raise MissingFileError(f"no such file: {p}")
    try:
        with open(p, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as e:
        raise FormatError(
            f"{p}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from e


def _as_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"{where}: expected an integer, got {value!r}")
    return value


def _as_number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FormatError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _get(obj: dict, key: str, where: str) -> Any:
    if not isinstance(obj, dict) or key not in obj:
        raise FormatError(f"{where}: missing required key '{key}'")
    return obj[key]


def _bbox_numbers(raw: Any, where: str) -> tuple[float, float, float, float]:
    """Check that ``raw`` is an [x, y, w, h] list of 4 numbers."""
    if not isinstance(raw, (list, tuple)) or len(raw) != 4:
        raise FormatError(f"{where}: must be a list of 4 numbers, got {raw!r}")
    x, y, w, h = (_as_number(v, where) for v in raw)
    return x, y, w, h


def _clamped_bbox(raw: Any, img: ImageInfo, where: str) -> BBox:
    """Parse an [x, y, w, h] list and clamp it to the image rectangle."""
    x, y, w, h = _bbox_numbers(raw, f"{where}.bbox")
    x0, y0 = max(x, 0.0), max(y, 0.0)
    x1, y1 = min(x + w, float(img.width)), min(y + h, float(img.height))
    if x1 - x0 <= 0 or y1 - y0 <= 0:
        raise InvalidInputError(
            f"{where}: zero-area box after clamping to image {img.id} bounds"
        )
    return BBox(x0, y0, x1 - x0, y1 - y0)


# --- ground truth ------------------------------------------------------------


def load_ground_truth(path: str | Path) -> Dataset:
    """Load and validate a COCO-format annotation file.

    Boxes are clamped to their image bounds; zero-area boxes, duplicate ids,
    and references to unknown images or categories are rejected with typed
    errors. ``iscrowd``, ``segmentation``, and ``area`` fields are accepted
    and ignored.
    """
    data = _read_json(path)
    if not isinstance(data, dict):
        raise FormatError(f"{path}: top level must be a JSON object")
    raw_images = _get(data, "images", str(path))
    raw_cats = _get(data, "categories", str(path))
    raw_anns = _get(data, "annotations", str(path))
    for key, raw in (("images", raw_images), ("categories", raw_cats), ("annotations", raw_anns)):
        if not isinstance(raw, list):
            raise FormatError(f"{path}: '{key}' must be a list")

    images: list[ImageInfo] = []
    for i, entry in enumerate(raw_images):
        where = f"images[{i}]"
        img = ImageInfo(
            id=_as_int(_get(entry, "id", where), f"{where}.id"),
            width=_as_int(_get(entry, "width", where), f"{where}.width"),
            height=_as_int(_get(entry, "height", where), f"{where}.height"),
            file_name=str(_get(entry, "file_name", where)),
        )
        if img.width <= 0 or img.height <= 0:
            raise FormatError(f"{where}: image dimensions must be positive")
        images.append(img)
    _check_unique((img.id for img in images), "image")
    image_map = {img.id: img for img in images}

    sources: list[tuple[int, str]] = []
    for i, entry in enumerate(raw_cats):
        where = f"categories[{i}]"
        sources.append(
            (_as_int(_get(entry, "id", where), f"{where}.id"), str(_get(entry, "name", where)))
        )
    _check_unique((cid for cid, _ in sources), "category")
    names = dict(sources)
    categories = [
        Category(id=dense, name=names[src], source_id=src)
        for dense, src in enumerate(sorted(names), start=1)
    ]
    source_to_dense = {c.source_id: c.id for c in categories}

    annotations: list[AnnotatedBox] = []
    for i, entry in enumerate(raw_anns):
        where = f"annotations[{i}]"
        ann_id = _as_int(_get(entry, "id", where), f"{where}.id")
        image_id = _as_int(_get(entry, "image_id", where), f"{where}.image_id")
        cat_id = _as_int(_get(entry, "category_id", where), f"{where}.category_id")
        if image_id not in image_map:
            raise DanglingReferenceError(f"{where}: unknown image_id {image_id}")
        if cat_id not in source_to_dense:
            raise DanglingReferenceError(f"{where}: unknown category_id {cat_id}")
        bbox = _clamped_bbox(_get(entry, "bbox", where), image_map[image_id], where)
        annotations.append(
            AnnotatedBox(
                id=ann_id,
                image_id=image_id,
                category_id=source_to_dense[cat_id],
                bbox=bbox,
                source=BoxSource.ORIGINAL,
            )
        )
    _check_unique((a.id for a in annotations), "annotation")

    return Dataset(images=images, categories=categories, annotations=annotations)


def _check_unique(ids, kind: str) -> None:
    seen: set[int] = set()
    for i in ids:
        if i in seen:
            raise DuplicateIdError(f"duplicate {kind} id {i}")
        seen.add(i)


# --- predictions --------------------------------------------------------------


def load_predictions(path: str | Path, ds: Dataset) -> PredictionSet:
    """Load a COCO detection-results file against an already-loaded dataset.

    Entries are assigned fresh sequential ids. Unknown image or category ids
    and scores outside [0, 1] are rejected.
    """
    data = _read_json(path)
    if not isinstance(data, list):
        raise FormatError(f"{path}: top level must be a JSON list of detections")
    image_map = ds.image_map()
    source_to_dense = ds.source_to_dense()
    boxes: list[AnnotatedBox] = []
    for i, entry in enumerate(data):
        where = f"detections[{i}]"
        image_id = _as_int(_get(entry, "image_id", where), f"{where}.image_id")
        cat_id = _as_int(_get(entry, "category_id", where), f"{where}.category_id")
        score = _as_number(_get(entry, "score", where), f"{where}.score")
        if image_id not in image_map:
            raise DanglingReferenceError(f"{where}: unknown image_id {image_id}")
        if cat_id not in source_to_dense:
            raise DanglingReferenceError(f"{where}: unknown category_id {cat_id}")
        if not 0.0 <= score <= 1.0:
            raise InvalidScoreError(f"{where}: score {score} outside [0, 1]")
        bbox = _clamped_bbox(_get(entry, "bbox", where), image_map[image_id], where)
        boxes.append(
            AnnotatedBox(
                id=i + 1,
                image_id=image_id,
                category_id=source_to_dense[cat_id],
                bbox=bbox,
                source=BoxSource.PREDICTED,
                score=score,
            )
        )
    return PredictionSet(boxes=boxes, note=str(path))


# --- dataset persistence -------------------------------------------------------


def save_dataset(ds: Dataset, path: str | Path) -> None:
    """Write a dataset back to COCO format so that loading it reproduces
    the in-memory value exactly."""
    dense_to_source = ds.dense_to_source()
    payload = {
        "images": [
            {"id": i.id, "width": i.width, "height": i.height, "file_name": i.file_name}
            for i in ds.images
        ],
        "categories": [{"id": c.source_id, "name": c.name} for c in ds.categories],
        "annotations": [
            {
                "id": a.id,
                "image_id": a.image_id,
                "category_id": dense_to_source[a.category_id],
                "bbox": a.bbox.as_list(),
                "area": a.bbox.area,
                "iscrowd": 0,
            }
            for a in ds.annotations
        ],
    }
    _write_json(payload, path)


def _write_json(payload: Any, path: str | Path, indent: int | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=indent)
        fh.write("\n")


# --- ledger persistence --------------------------------------------------------


def _box_record(box: AnnotatedBox, dense_to_source: dict[int, int]) -> dict:
    rec = {
        "id": box.id,
        "image_id": box.image_id,
        "category_id": dense_to_source[box.category_id],
        "bbox": box.bbox.as_list(),
    }
    if box.score is not None:
        rec["score"] = box.score
    return rec


def _parse_box_record(rec: dict, source_to_dense: dict[int, int], where: str) -> AnnotatedBox:
    cat = _as_int(_get(rec, "category_id", where), f"{where}.category_id")
    if cat not in source_to_dense:
        raise DanglingReferenceError(f"{where}: unknown category_id {cat}")
    x, y, w, h = _bbox_numbers(_get(rec, "bbox", where), f"{where}.bbox")
    return AnnotatedBox(
        id=_as_int(_get(rec, "id", where), f"{where}.id"),
        image_id=_as_int(_get(rec, "image_id", where), f"{where}.image_id"),
        category_id=source_to_dense[cat],
        bbox=BBox(x, y, w, h),
        source=BoxSource.ORIGINAL,
    )


def save_ledger(ledger: NoiseLedger, path: str | Path, categories: list[Category]) -> None:
    """Persist a noise ledger; category ids are written in source-id space."""
    dense_to_source = {c.id: c.source_id for c in categories}
    entries = []
    for e in ledger.entries:
        rec: dict[str, Any] = {"annotation_id": e.annotation_id, "noise_type": e.kind.value}
        if e.original is not None:
            rec["original"] = _box_record(e.original, dense_to_source)
        if e.perturbed is not None:
            rec["perturbed"] = _box_record(e.perturbed, dense_to_source)
        entries.append(rec)
    _write_json({"entries": entries}, path, indent=2)


def load_ledger(path: str | Path, ds: Dataset) -> NoiseLedger:
    """Load a noise ledger saved by :func:`save_ledger`."""
    from boxaudit.noise_injection import LedgerEntry, NoiseKind, NoiseLedger

    data = _read_json(path)
    raw_entries = _get(data, "entries", str(path))
    if not isinstance(raw_entries, list):
        raise FormatError(f"{path}: 'entries' must be a list")
    source_to_dense = ds.source_to_dense()
    entries = []
    for i, rec in enumerate(raw_entries):
        where = f"entries[{i}]"
        kind_raw = _get(rec, "noise_type", where)
        try:
            kind = NoiseKind(kind_raw)
        except ValueError:
            raise FormatError(f"{where}: unknown noise_type {kind_raw!r}") from None
        entries.append(
            LedgerEntry(
                annotation_id=_as_int(_get(rec, "annotation_id", where), f"{where}.annotation_id"),
                kind=kind,
                original=(
                    _parse_box_record(rec["original"], source_to_dense, f"{where}.original")
                    if rec.get("original") is not None
                    else None
                ),
                perturbed=(
                    _parse_box_record(rec["perturbed"], source_to_dense, f"{where}.perturbed")
                    if rec.get("perturbed") is not None
                    else None
                ),
            )
        )
    return NoiseLedger(entries=entries)


# --- report persistence ---------------------------------------------------------

REPORT_COLUMNS = [
    "cluster_id",
    "image_id",
    "annotation_ids",
    "verdict_kind",
    "quality_score",
    "flagged_class_ids",
]


def _flagged_class_labels(classes, categories: list[Category]) -> list[str]:
    dense_to_source = {c.id: c.source_id for c in categories}
    background = len(categories) + 1
    return [
        "background" if m == background else str(dense_to_source.get(m, m)) for m in classes
    ]


def save_report(report: DetectionReport, path: str | Path) -> None:
    """Write a findings report: ``<path>`` as CSV (one row per flagged
    cluster) and ``<path>.json`` with full cluster membership."""
    path = Path(path)
    cluster_by_id = {c.id: c for c in report.clusters}
    dense_to_source = {c.id: c.source_id for c in report.categories}
    flagged_by_cluster: dict[int, list] = {}
    for v in report.verdicts:
        if v.flagged:
            flagged_by_cluster.setdefault(v.cluster_id, []).append(v)

    rows = []
    findings = []
    for cluster_id in sorted(flagged_by_cluster):
        cluster = cluster_by_id[cluster_id]
        members = flagged_by_cluster[cluster_id]
        kind = members[0].verdict_kind
        score = members[0].quality_score
        flagged_classes = members[0].flagged_classes
        ann_ids = [v.annotation_id for v in members if v.annotation_id is not None]
        class_labels = _flagged_class_labels(flagged_classes, report.categories)
        rows.append(
            [
                cluster_id,
                cluster.image_id,
                ";".join(str(i) for i in ann_ids),
                kind,
                f"{score:.6f}",
                ";".join(class_labels),
            ]
        )
        region = next((v.region for v in members if v.region is not None), None)
        findings.append(
            {
                "cluster_id": cluster_id,
                "image_id": cluster.image_id,
                "verdict_kind": kind,
                "quality_score": score,
                "flagged_classes": class_labels,
                "annotation_ids": ann_ids,
                "region": region.as_list() if region is not None else None,
                "original_members": [
                    _box_record(b, dense_to_source) for b in cluster.original_members
                ],
                "predicted_members": [
                    _box_record(b, dense_to_source) for b in cluster.predicted_members
                ],
            }
        )

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        writer.writerows(rows)

    mirror = {
        "summary": {
            "clusters": len(report.clusters),
            "flagged_clusters": len(findings),
            "flagged_annotations": sum(len(f["annotation_ids"]) for f in findings),
            "missing_regions": sum(1 for f in findings if f["verdict_kind"] == "missing_region"),
        },
        "findings": findings,
        "verdicts": [
            {
                "annotation_id": v.annotation_id,
                "cluster_id": v.cluster_id,
                "image_id": v.image_id,
                "quality_score": v.quality_score,
                "flagged": v.flagged,
                "verdict_kind": v.verdict_kind,
                "region": v.region.as_list() if v.region is not None else None,
            }
            for v in report.verdicts
        ],
        "categories": [{"id": c.source_id, "name": c.name} for c in report.categories],
    }
    _write_json(mirror, path.with_suffix(".json"), indent=2)


def load_report(path: str | Path) -> list[BoxVerdict]:
    """Reload the verdicts from a report's JSON mirror (for the ``roc``
    stage's file-based handoff)."""
    from boxaudit.confident_learning import BoxVerdict

    data = _read_json(path)
    raw = _get(data, "verdicts", str(path))
    if not isinstance(raw, list):
        raise FormatError(f"{path}: 'verdicts' must be a list")
    verdicts = []
    for i, rec in enumerate(raw):
        where = f"verdicts[{i}]"
        if not isinstance(rec, dict):
            raise FormatError(f"{where}: must be a JSON object, got {rec!r}")
        ann_id = rec.get("annotation_id")
        region = rec.get("region")
        verdicts.append(
            BoxVerdict(
                annotation_id=(
                    _as_int(ann_id, f"{where}.annotation_id") if ann_id is not None else None
                ),
                cluster_id=_as_int(_get(rec, "cluster_id", where), f"{where}.cluster_id"),
                image_id=_as_int(_get(rec, "image_id", where), f"{where}.image_id"),
                quality_score=_as_number(
                    _get(rec, "quality_score", where), f"{where}.quality_score"
                ),
                flagged=bool(rec.get("flagged", False)),
                flagged_classes=tuple(),
                verdict_kind=str(_get(rec, "verdict_kind", where)),
                region=(
                    BBox(*_bbox_numbers(region, f"{where}.region")) if region is not None else None
                ),
            )
        )
    return verdicts


# --- ROC persistence -------------------------------------------------------------


def save_roc(
    curve: RocCurve,
    path: str | Path,
    *,
    run_aurocs: list[tuple[int, float]] | None = None,
) -> None:
    """Write a ROC sweep: ``<path>`` as plottable CSV with an AUROC summary
    line, plus a ``<path>.json`` mirror (with per-run AUROCs and their median
    when several runs were aggregated)."""
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["threshold", "fpr", "tpr"])
        for p in curve.points:
            writer.writerow([f"{p.threshold:.6f}", f"{p.fpr:.6f}", f"{p.tpr:.6f}"])
        fh.write(f"# auroc = {curve.auroc:.6f}\n")

    mirror: dict[str, Any] = {
        "points": [
            {"threshold": p.threshold, "fpr": p.fpr, "tpr": p.tpr} for p in curve.points
        ],
        "auroc": curve.auroc,
    }
    if run_aurocs is not None:
        mirror["runs"] = [{"seed": s, "auroc": a} for s, a in run_aurocs]
        mirror["median_auroc"] = statistics.median(a for _, a in run_aurocs)
    _write_json(mirror, path.with_suffix(".json"), indent=2)
