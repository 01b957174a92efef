"""Parsing, validation, and persistence of datasets, predictions, ledgers,
and reports.

Ground truth uses the COCO annotation format, predictions the COCO
detection-results format. Category ids are remapped to a dense 1..M index at
ingestion; files always carry the original (source) ids.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

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
    from boxaudit.clustering import Cluster
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


@dataclass
class DetectionReport:
    """Detector output plus the context needed to serialize it."""

    verdicts: list  # of BoxVerdict
    clusters: list  # of Cluster
    categories: list[Category] = field(default_factory=list)


# --- JSON plumbing -----------------------------------------------------------
#
# Error messages name the offending value, e.g. "detections[12].bbox". The
# ``where`` arguments are callables that build that name, so the text is
# formatted only on the way to raising. Type tests compare ``type(v)`` with
# int and float: json.load yields exactly those (and bool, which is
# rejected), never subclasses of them.

_INT = "an integer"
_NUMBER = "a number"
_ANY = None
_MISSING = object()
_BBOX_FIELD = (("bbox", _ANY),)


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


def _fields(obj: Any, spec: tuple, where: Callable[[], str]) -> list:
    """The values of JSON object ``obj`` under the keys of ``spec``, a tuple
    of (key, kind) pairs, checked in order: kind ``_INT`` takes an integer,
    ``_NUMBER`` a number (returned as a float), ``_ANY`` any value. The first
    missing key or wrong type raises a :class:`FormatError`."""
    if type(obj) is not dict:
        raise FormatError(f"{where()}: missing required key '{spec[0][0]}'")
    values = []
    for key, kind in spec:
        value = obj.get(key, _MISSING)
        if value is _MISSING:
            raise FormatError(f"{where()}: missing required key '{key}'")
        if kind is not _ANY and type(value) is not int:
            if kind is _INT or type(value) is not float:
                raise FormatError(f"{where()}.{key}: expected {kind}, got {value!r}")
        values.append(float(value) if kind is _NUMBER else value)
    return values


def _bbox_numbers(
    raw: Any, where: Callable[[], str], key: str
) -> tuple[float, float, float, float]:
    """Check that ``raw``, the value under ``key``, is an [x, y, w, h] list
    of 4 numbers."""
    if not isinstance(raw, (list, tuple)) or len(raw) != 4:
        raise FormatError(f"{where()}.{key}: must be a list of 4 numbers, got {raw!r}")
    for v in raw:
        if type(v) is not float and type(v) is not int:
            raise FormatError(f"{where()}.{key}: expected a number, got {v!r}")
    x, y, w, h = raw
    return float(x), float(y), float(w), float(h)


def _clamped_bbox(entry: dict, img: ImageInfo, where: Callable[[], str]) -> BBox:
    """Parse the entry's [x, y, w, h] ``bbox`` and clamp it to the image
    rectangle. (The conditional expressions are ``max(x, 0.0)`` and
    ``min(x + w, width)`` without the call overhead.)"""
    (raw,) = _fields(entry, _BBOX_FIELD, where)
    x, y, w, h = _bbox_numbers(raw, where, "bbox")
    width, height = float(img.width), float(img.height)
    x0 = 0.0 if 0.0 > x else x
    y0 = 0.0 if 0.0 > y else y
    x1 = width if width < x + w else x + w
    y1 = height if height < y + h else y + h
    if x1 - x0 <= 0 or y1 - y0 <= 0:
        raise InvalidInputError(
            f"{where()}: zero-area box after clamping to image {img.id} bounds"
        )
    return BBox(x0, y0, x1 - x0, y1 - y0)


# --- ground truth ------------------------------------------------------------

_IMAGE_FIELDS = (("id", _INT), ("width", _INT), ("height", _INT), ("file_name", _ANY))
_CATEGORY_FIELDS = (("id", _INT), ("name", _ANY))
_ANNOTATION_FIELDS = (("id", _INT), ("image_id", _INT), ("category_id", _INT))


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
    raw_images, raw_cats, raw_anns = _fields(
        data,
        (("images", _ANY), ("categories", _ANY), ("annotations", _ANY)),
        lambda: str(path),
    )
    for key, raw in (("images", raw_images), ("categories", raw_cats), ("annotations", raw_anns)):
        if not isinstance(raw, list):
            raise FormatError(f"{path}: '{key}' must be a list")

    images: list[ImageInfo] = []
    for i, entry in enumerate(raw_images):
        where = lambda: f"images[{i}]"
        img_id, width, height, file_name = _fields(entry, _IMAGE_FIELDS, where)
        if width <= 0 or height <= 0:
            raise FormatError(f"{where()}: image dimensions must be positive")
        images.append(ImageInfo(id=img_id, width=width, height=height, file_name=str(file_name)))
    _check_unique((img.id for img in images), "image")
    image_map = {img.id: img for img in images}

    sources: list[tuple[int, str]] = []
    for i, entry in enumerate(raw_cats):
        cat_id, name = _fields(entry, _CATEGORY_FIELDS, lambda: f"categories[{i}]")
        sources.append((cat_id, str(name)))
    _check_unique((cid for cid, _ in sources), "category")
    names = dict(sources)
    categories = [
        Category(id=dense, name=names[src], source_id=src)
        for dense, src in enumerate(sorted(names), start=1)
    ]
    source_to_dense = {c.source_id: c.id for c in categories}

    annotations: list[AnnotatedBox] = []
    for i, entry in enumerate(raw_anns):
        where = lambda: f"annotations[{i}]"
        ann_id, image_id, cat_id = _fields(entry, _ANNOTATION_FIELDS, where)
        if image_id not in image_map:
            raise DanglingReferenceError(f"{where()}: unknown image_id {image_id}")
        if cat_id not in source_to_dense:
            raise DanglingReferenceError(f"{where()}: unknown category_id {cat_id}")
        annotations.append(
            AnnotatedBox(
                id=ann_id,
                image_id=image_id,
                category_id=source_to_dense[cat_id],
                bbox=_clamped_bbox(entry, image_map[image_id], where),
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

_DETECTION_FIELDS = (("image_id", _INT), ("category_id", _INT), ("score", _NUMBER))


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
        where = lambda: f"detections[{i}]"
        image_id, cat_id, score = _fields(entry, _DETECTION_FIELDS, where)
        if image_id not in image_map:
            raise DanglingReferenceError(f"{where()}: unknown image_id {image_id}")
        if cat_id not in source_to_dense:
            raise DanglingReferenceError(f"{where()}: unknown category_id {cat_id}")
        if not 0.0 <= score <= 1.0:
            raise InvalidScoreError(f"{where()}: score {score} outside [0, 1]")
        boxes.append(
            AnnotatedBox(
                id=i + 1,
                image_id=image_id,
                category_id=source_to_dense[cat_id],
                bbox=_clamped_bbox(entry, image_map[image_id], where),
                source=BoxSource.PREDICTED,
                score=score,
            )
        )
    return PredictionSet(boxes=boxes)


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


def _parse_box_record(
    rec: dict, source_to_dense: dict[int, int], image_ids: set[int], where: Callable[[], str]
) -> AnnotatedBox:
    (cat,) = _fields(rec, (("category_id", _INT),), where)
    if cat not in source_to_dense:
        raise DanglingReferenceError(f"{where()}: unknown category_id {cat}")
    (raw_bbox,) = _fields(rec, _BBOX_FIELD, where)
    x, y, w, h = _bbox_numbers(raw_bbox, where, "bbox")
    ann_id, image_id = _fields(rec, (("id", _INT), ("image_id", _INT)), where)
    if image_id not in image_ids:
        raise DanglingReferenceError(f"{where()}: unknown image_id {image_id}")
    return AnnotatedBox(
        id=ann_id,
        image_id=image_id,
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
    (raw_entries,) = _fields(data, (("entries", _ANY),), lambda: str(path))
    if not isinstance(raw_entries, list):
        raise FormatError(f"{path}: 'entries' must be a list")
    source_to_dense = ds.source_to_dense()
    image_ids = {img.id for img in ds.images}
    entries = []
    for i, rec in enumerate(raw_entries):
        where = lambda: f"entries[{i}]"
        (kind_raw,) = _fields(rec, (("noise_type", _ANY),), where)
        try:
            kind = NoiseKind(kind_raw)
        except ValueError:
            raise FormatError(f"{where()}: unknown noise_type {kind_raw!r}") from None
        (ann_id,) = _fields(rec, (("annotation_id", _INT),), where)
        original, perturbed = (
            _parse_box_record(
                rec[side], source_to_dense, image_ids, lambda: f"{where()}.{side}"
            )
            if rec.get(side) is not None
            else None
            for side in ("original", "perturbed")
        )
        entries.append(
            LedgerEntry(annotation_id=ann_id, kind=kind, original=original, perturbed=perturbed)
        )
    return NoiseLedger(entries=entries)


# --- report persistence ---------------------------------------------------------
#
# report.json is streamed one record at a time, each record a string built
# straight from the verdict, cluster and box objects, in exactly the layout of
# json.dump(mirror, sort_keys=True, indent=2). Before Python 3.13 an indented
# json.dump runs the pure-Python encoder with one write per token, and the
# mirror it encodes would hold every record of the report as a dict.

REPORT_COLUMNS = [
    "cluster_id",
    "image_id",
    "annotation_ids",
    "verdict_kind",
    "quality_score",
    "flagged_class_ids",
]

_json_str = json.encoder.encode_basestring_ascii
_json_int = int.__repr__


def _json_number(v: float) -> str:
    """An int or a float, spelled as json.dump spells it."""
    if isinstance(v, float):
        return float.__repr__(v) if math.isfinite(v) else json.dumps(v)
    return int.__repr__(v)


def _json_list(items: list[str], indent: int) -> str:
    """Encoded ``items`` as an indented JSON list whose closing bracket sits
    ``indent`` spaces in."""
    if not items:
        return "[]"
    pad = "\n" + " " * indent
    return "[" + pad + "  " + ("," + pad + "  ").join(items) + pad + "]"


def _json_object(keys: tuple[str, ...], indent: int) -> str:
    """A ``str.format`` template of an indented JSON object with ``keys``
    (given sorted), one field per value, whose closing brace sits ``indent``
    spaces in."""
    pad = "\n" + " " * indent
    return "{{" + ",".join(f'{pad}  "{k}": {{}}' for k in keys) + pad + "}}"


def _nested_json(value: Any) -> str:
    """A small value encoded by json itself, to sit under a top-level key."""
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n  ")


# Templates of the records at the depth each sits at in report.json.
_BOX = _json_object(("bbox", "category_id", "id", "image_id"), 8)
_SCORED_BOX = _json_object(("bbox", "category_id", "id", "image_id", "score"), 8)
_FINDING = _json_object(
    (
        "annotation_ids",
        "cluster_id",
        "flagged_classes",
        "image_id",
        "original_members",
        "predicted_members",
        "quality_score",
        "region",
        "verdict_kind",
    ),
    4,
)
_VERDICT = _json_object(
    ("annotation_id", "cluster_id", "flagged", "image_id", "quality_score", "region", "verdict_kind"),
    4,
)


def _bbox_json(bbox: BBox | None, indent: int) -> str:
    if bbox is None:
        return "null"
    return _json_list([_json_number(v) for v in bbox.as_list()], indent)


def _box_json(box: AnnotatedBox, dense_to_source: dict[int, int]) -> str:
    """A finding's member box: the fields of :func:`_box_record`."""
    values = (
        _bbox_json(box.bbox, 10),
        _json_int(dense_to_source[box.category_id]),
        _json_int(box.id),
        _json_int(box.image_id),
    )
    if box.score is None:
        return _BOX.format(*values)
    return _SCORED_BOX.format(*values, _json_number(box.score))


def _finding_json(
    cluster_id: int,
    cluster: Cluster,
    first: BoxVerdict,
    ann_ids: list[int],
    class_labels: list[str],
    region: BBox | None,
    dense_to_source: dict[int, int],
) -> str:
    """A flagged cluster: its first flagged verdict's kind, score and
    classes, the flagged annotation ids and every member box."""
    return _FINDING.format(
        _json_list([_json_int(a) for a in ann_ids], 6),
        _json_int(cluster_id),
        _json_list([_json_str(c) for c in class_labels], 6),
        _json_int(cluster.image_id),
        _json_list([_box_json(b, dense_to_source) for b in cluster.original_members], 6),
        _json_list([_box_json(b, dense_to_source) for b in cluster.predicted_members], 6),
        _json_number(first.quality_score),
        _bbox_json(region, 6),
        _json_str(first.verdict_kind),
    )


def _verdict_json(v: BoxVerdict) -> str:
    return _VERDICT.format(
        "null" if v.annotation_id is None else _json_int(v.annotation_id),
        _json_int(v.cluster_id),
        "true" if v.flagged else "false",
        _json_int(v.image_id),
        _json_number(v.quality_score),
        _bbox_json(v.region, 6),
        _json_str(v.verdict_kind),
    )


def _write_records(fh, records) -> None:
    """Write an iterable of encoded records as a list under a top-level key."""
    sep = "["
    for record in records:
        fh.write(sep + "\n    " + record)
        sep = ","
    fh.write("[]" if sep == "[" else "\n  ]")


def _flagged_class_labels(classes, dense_to_source: dict[int, int], background: int) -> list[str]:
    return [
        "background" if m == background else str(dense_to_source.get(m, m)) for m in classes
    ]


def save_report(report: DetectionReport, path: str | Path) -> None:
    """Write a findings report: ``<path>`` as CSV (one row per flagged
    cluster) and ``<path>.json`` with full cluster membership."""
    path = Path(path)
    cluster_by_id = {c.id: c for c in report.clusters}
    dense_to_source = {c.id: c.source_id for c in report.categories}
    background = len(report.categories) + 1
    flagged_by_cluster: dict[int, list] = {}
    for v in report.verdicts:
        if v.flagged:
            flagged_by_cluster.setdefault(v.cluster_id, []).append(v)

    findings = []
    flagged_annotations = missing_regions = 0
    for cluster_id in sorted(flagged_by_cluster):
        members = flagged_by_cluster[cluster_id]
        first = members[0]
        ann_ids = [v.annotation_id for v in members if v.annotation_id is not None]
        class_labels = _flagged_class_labels(first.flagged_classes, dense_to_source, background)
        region = next((v.region for v in members if v.region is not None), None)
        findings.append((cluster_id, cluster_by_id[cluster_id], first, ann_ids, class_labels, region))
        flagged_annotations += len(ann_ids)
        if first.verdict_kind == "missing_region":
            missing_regions += 1

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for cluster_id, cluster, first, ann_ids, class_labels, _ in findings:
            writer.writerow(
                [
                    cluster_id,
                    cluster.image_id,
                    ";".join(str(i) for i in ann_ids),
                    first.verdict_kind,
                    f"{first.quality_score:.6f}",
                    ";".join(class_labels),
                ]
            )

    categories = [{"id": c.source_id, "name": c.name} for c in report.categories]
    summary = {
        "clusters": len(report.clusters),
        "flagged_clusters": len(findings),
        "flagged_annotations": flagged_annotations,
        "missing_regions": missing_regions,
    }
    with open(path.with_suffix(".json"), "w", encoding="utf-8") as fh:
        fh.write('{\n  "categories": ' + _nested_json(categories) + ',\n  "findings": ')
        _write_records(fh, (_finding_json(*f, dense_to_source) for f in findings))
        fh.write(',\n  "summary": ' + _nested_json(summary) + ',\n  "verdicts": ')
        _write_records(fh, map(_verdict_json, report.verdicts))
        fh.write("\n}\n")


_VERDICT_FIELDS = (
    ("cluster_id", _INT),
    ("image_id", _INT),
    ("quality_score", _NUMBER),
    ("verdict_kind", _ANY),
)


def load_report(path: str | Path) -> list[BoxVerdict]:
    """Reload the verdicts from a report's JSON mirror (for the ``roc``
    stage's file-based handoff)."""
    from boxaudit.confident_learning import BoxVerdict

    data = _read_json(path)
    (raw,) = _fields(data, (("verdicts", _ANY),), lambda: str(path))
    if not isinstance(raw, list):
        raise FormatError(f"{path}: 'verdicts' must be a list")
    verdicts = []
    for i, rec in enumerate(raw):
        where = lambda: f"verdicts[{i}]"
        if not isinstance(rec, dict):
            raise FormatError(f"{where()}: must be a JSON object, got {rec!r}")
        ann_id = rec.get("annotation_id")
        if ann_id is not None:
            (ann_id,) = _fields(rec, (("annotation_id", _INT),), where)
        cluster_id, image_id, quality_score, verdict_kind = _fields(rec, _VERDICT_FIELDS, where)
        region = rec.get("region")
        verdicts.append(
            BoxVerdict(
                annotation_id=ann_id,
                cluster_id=cluster_id,
                image_id=image_id,
                quality_score=quality_score,
                flagged=bool(rec.get("flagged", False)),
                flagged_classes=tuple(),
                verdict_kind=str(verdict_kind),
                region=(
                    BBox(*_bbox_numbers(region, where, "region")) if region is not None else None
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
