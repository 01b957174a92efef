"""Test-only slow reference for the report writer: the dict-building
``save_report`` that ``boxaudit.dataset_io`` replaced with a writer that
streams ``report.json`` one record at a time.

``_flagged_class_labels`` and ``save_report`` are kept verbatim; the whole
mirror goes through ``json.dump(..., sort_keys=True, indent=2)``.
"""

from __future__ import annotations

import csv
from pathlib import Path

from boxaudit.dataset_io import (
    REPORT_COLUMNS,
    Category,
    DetectionReport,
    _box_record,
    _write_json,
)


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
