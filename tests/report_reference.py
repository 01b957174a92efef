"""Test-only slow references for the JSON writers: the dict-building
``save_report``, ``save_roc``, ``save_ledger`` and ``save_dataset`` that
``boxaudit.dataset_io`` replaced with one encoder over columns.

``DetectionReport`` (the report writer's old input), ``_box_record``,
``_flagged_class_labels``, ``save_report`` and ``save_roc`` are kept
verbatim. Each reference builds its whole mirror from objects and writes it
with ``json.dump``: indented for the report, ROC and ledger files, flat for
the dataset.
"""

from __future__ import annotations

import csv
import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from boxaudit.dataset_io import REPORT_COLUMNS, AnnotatedBox, Category, Dataset
from boxaudit.evaluation import RocCurve
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
