"""Test-only slow references for the report boundary: the dict-building
``save_report``, ``save_roc``, ``save_ledger`` and ``save_dataset`` that
``boxaudit.dataset_io`` replaced with one encoder over columns, and the
per-record ``load_report`` it replaced with checks over columns.

``DetectionReport`` (the report writer's old input), ``_box_record``,
``_flagged_class_labels``, ``save_report`` and ``save_roc`` are kept
verbatim, except that a finding names its predictions by id
(``prediction_ids``) instead of listing its member boxes, and that the
curve is read from its columns. Each reference builds its whole mirror from objects and writes it
with ``json.dump``: indented for the report, ROC and ledger files, flat for
the dataset. ``load_report`` and every helper it calls are kept verbatim
too, so they fix the checks, their order and the error texts of the report
loader.
"""

from __future__ import annotations

import csv
import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from boxaudit.confident_learning import VerdictTable
from boxaudit.dataset_io import REPORT_COLUMNS, AnnotatedBox, Category, Dataset
from boxaudit.errors import (
    DanglingReferenceError,
    DuplicateIdError,
    FormatError,
    InvalidScoreError,
    MissingFileError,
)
from boxaudit.evaluation import RocCurve
from boxaudit.geometry import BBox
from boxaudit.noise_injection import NoiseLedger


def _write_json(payload: Any, path: str | Path, indent: int | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=indent)
        fh.write("\n")


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


@dataclass
class DetectionReport:
    """Detector output plus the context needed to serialize it."""

    verdicts: list  # of BoxVerdict
    clusters: list  # of Cluster
    categories: list[Category] = field(default_factory=list)


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
                "prediction_ids": [b.id for b in cluster.predicted_members],
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
        for threshold, fpr, tpr in zip(
            curve.thresholds.tolist(), curve.fpr.tolist(), curve.tpr.tolist()
        ):
            writer.writerow([f"{threshold:.6f}", f"{fpr:.6f}", f"{tpr:.6f}"])
        fh.write(f"# auroc = {curve.auroc:.6f}\n")

    mirror: dict[str, Any] = {
        "points": [
            {"threshold": threshold, "fpr": fpr, "tpr": tpr}
            for threshold, fpr, tpr in zip(
                curve.thresholds.tolist(), curve.fpr.tolist(), curve.tpr.tolist()
            )
        ],
        "auroc": curve.auroc,
    }
    if run_aurocs is not None:
        mirror["runs"] = [{"seed": s, "auroc": a} for s, a in run_aurocs]
        mirror["median_auroc"] = statistics.median(a for _, a in run_aurocs)
    _write_json(mirror, path.with_suffix(".json"), indent=2)


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


def save_dataset(ds: Dataset, path: str | Path) -> None:
    """Write a dataset back to COCO format."""
    dense_to_source = ds.dense_to_source()
    annotations = []
    for a in ds.annotations:
        rec = _box_record(a, dense_to_source)
        rec.pop("score", None)
        rec["area"] = a.bbox.w * a.bbox.h
        rec["iscrowd"] = 0
        annotations.append(rec)
    payload = {
        "images": [
            {"id": i.id, "width": i.width, "height": i.height, "file_name": i.file_name}
            for i in ds.images
        ],
        "categories": [{"id": c.source_id, "name": c.name} for c in ds.categories],
        "annotations": annotations,
    }
    _write_json(payload, path)


# --- the report loader -----------------------------------------------------------

_INT = "an integer"
_NUMBER = "a number"
_STR = "a string"
_ANY = None
_TYPES = {_INT: {int}, _NUMBER: {int, float}, _STR: {str}}
_MISSING = object()


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
    except (ValueError, RecursionError) as e:  # a too-long integer, non-UTF-8 bytes, deep nesting
        raise FormatError(f"{p}: invalid JSON: {e}") from e


def _float(value: int | float, where: Callable[[], str], key: str) -> float:
    """``value``, the number under ``key``, as a float; an integer past the
    float range raises a :class:`FormatError`."""
    try:
        return float(value)
    except OverflowError:
        raise FormatError(f"{where()}.{key}: integer past the float range") from None


def _fields(obj: Any, spec: tuple, where: Callable[[], str]) -> list:
    """The values of JSON object ``obj`` under the keys of ``spec``, a tuple
    of (key, kind) pairs, checked in order: kind ``_INT`` takes an integer,
    ``_NUMBER`` a number (returned as a float), ``_STR`` a string, ``_ANY``
    any value. The first missing key or wrong type raises a
    :class:`FormatError`."""
    if type(obj) is not dict:
        raise FormatError(f"{where()}: missing required key '{spec[0][0]}'")
    values = []
    for key, kind in spec:
        value = obj.get(key, _MISSING)
        if value is _MISSING:
            raise FormatError(f"{where()}: missing required key '{key}'")
        if kind is not _ANY and type(value) not in _TYPES[kind]:
            raise FormatError(f"{where()}.{key}: expected {kind}, got {value!r}")
        values.append(_float(value, where, key) if kind is _NUMBER else value)
    return values


def _bbox_numbers(raw: Any, where: Callable[[], str], key: str) -> list[float]:
    """Check that ``raw``, the value under ``key``, is an [x, y, w, h] list
    of 4 numbers."""
    if not isinstance(raw, (list, tuple)) or len(raw) != 4:
        raise FormatError(f"{where()}.{key}: must be a list of 4 numbers, got {raw!r}")
    for v in raw:
        if type(v) is not float and type(v) is not int:
            raise FormatError(f"{where()}.{key}: expected a number, got {v!r}")
    return [_float(v, where, key) for v in raw]


_VERDICT_FIELDS = (
    ("cluster_id", _INT),
    ("image_id", _INT),
    ("quality_score", _NUMBER),
    ("verdict_kind", _ANY),
)


def load_report(path: str | Path, ds: Dataset) -> VerdictTable:
    """Reload the verdicts from a report's JSON mirror (for the ``roc``
    stage's file-based handoff), against the dataset the report covers.

    Every verdict must carry a known kind, a quality score in [0, 1], a
    boolean ``flagged`` (false when absent) and ids of the dataset's images
    and annotations; an annotation may have one verdict only. The flagged
    classes are not reloaded.
    """
    from boxaudit.confident_learning import VERDICT_KINDS, VerdictTable

    data = _read_json(path)
    (raw,) = _fields(data, (("verdicts", _ANY),), lambda: str(path))
    if not isinstance(raw, list):
        raise FormatError(f"{path}: 'verdicts' must be a list")
    image_ids = {img.id for img in ds.images}
    known_ids = set(ds.columns.ids.tolist())
    seen: set[int] = set()
    columns: tuple[list, ...] = ([], [], [], [], [], [], [])
    for i, rec in enumerate(raw):
        where = lambda: f"verdicts[{i}]"
        if not isinstance(rec, dict):
            raise FormatError(f"{where()}: must be a JSON object, got {rec!r}")
        ann_id = rec.get("annotation_id")
        if ann_id is not None:
            (ann_id,) = _fields(rec, (("annotation_id", _INT),), where)
        cluster_id, image_id, quality_score, verdict_kind = _fields(rec, _VERDICT_FIELDS, where)
        flagged = rec.get("flagged", False)
        if type(flagged) is not bool:
            raise FormatError(f"{where()}.flagged: expected true or false, got {flagged!r}")
        if type(verdict_kind) is not str or verdict_kind not in VERDICT_KINDS:
            raise FormatError(f"{where()}.verdict_kind: unknown kind {verdict_kind!r}")
        if not 0.0 <= quality_score <= 1.0:
            raise InvalidScoreError(f"{where()}.quality_score: {quality_score} outside [0, 1]")
        region = rec.get("region")
        if region is not None:
            region = BBox(*_bbox_numbers(region, where, "region")).as_list()
        if image_id not in image_ids:
            raise DanglingReferenceError(f"{where()}: unknown image_id {image_id}")
        if ann_id is not None:
            if ann_id not in known_ids:
                raise DanglingReferenceError(f"{where()}: unknown annotation_id {ann_id}")
            if ann_id in seen:
                raise DuplicateIdError(f"{where()}: duplicate annotation_id {ann_id}")
            seen.add(ann_id)
        for column, value in zip(
            columns, (ann_id, cluster_id, image_id, quality_score, flagged, verdict_kind, region)
        ):
            column.append(value)
    return VerdictTable.of_values(*columns)
