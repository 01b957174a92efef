"""In-process tracing of boxaudit's layers, for the per-layer metrics.

Public layer functions are wrapped under the names their callers look them
up by (``boxaudit.cli``, ``boxaudit.pipeline``, ``boxaudit.dataset_io`` and
``boxaudit.confident_learning``), so one ``cli.main`` call opens a span per
layer call. A span records its name, start, end, parent span and run id;
spans stay in memory until the caller writes them out. Counts come from
each call's arguments and return value after its span has closed, and the
time spent counting is kept off the span clock, so it shows only in the
tracing overhead.

Importing this module imports boxaudit; put its sources on ``sys.path``
first.
"""

from __future__ import annotations

import contextlib
import functools
import io
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import boxaudit.cli
from boxaudit import confident_learning, dataset_io, pipeline
from boxaudit.evaluation import DEFAULT_MATCH_IOU, DEFAULT_THRESHOLDS
from boxaudit.geometry import iou_matrix
from boxaudit.noise_injection import NoiseKind

CMD_SPAN = "pipeline.cmd"


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run: str
    start: float = 0.0
    end: float = 0.0


class Tracer:
    """Spans and counts of one traced run."""

    def __init__(self, run: str):
        self.run = run
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._open: list[Span] = []
        self._counting = 0.0

    def _clock(self) -> float:
        return time.perf_counter() - self._counting

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1].id if self._open else None
            span = Span(len(self.spans), name, parent, self.run)
            self.spans.append(span)
            self._open.append(span)
            span.start = self._clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self._clock()
                self._open.pop()
            if count is not None:
                began = time.perf_counter()
                count(self.counts, result, *args, **kwargs)
                self._counting += time.perf_counter() - began
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Per span name, the summed span durations minus the time their
        direct children cover (calls are synchronous, so children never
        overlap)."""
        in_children: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                in_children[s.parent] += s.end - s.start
        totals: dict[str, float] = defaultdict(float)
        for s in self.spans:
            totals[s.name] += s.end - s.start - in_children[s.id]
        return totals

    def metrics(self) -> dict[str, float]:
        """Self time of every span name as ``<name>.s`` (the command span
        reports its total as ``pipeline.cmd.s`` and its self time as
        ``pipeline.self_s``), plus every count."""
        out = {f"{name}.s": t for name, t in self.self_times().items()}
        out["pipeline.self_s"] = out.pop(f"{CMD_SPAN}.s", 0.0)
        out[f"{CMD_SPAN}.s"] = sum(s.end - s.start for s in self.spans if s.name == CMD_SPAN)
        out.update(self.counts)
        pairs = self.counts["evaluation.candidate_pairs"]
        out["evaluation.useful_pair_ratio"] = (
            self.counts["evaluation.useful_pairs"] / pairs if pairs else 0.0
        )
        return out


# --- counts taken at the layer boundaries ---------------------------------------


def _count_load(records):
    def count(counts, result, path, *_args, **_kwargs):
        counts["dataset_io.bytes_read"] += Path(path).stat().st_size
        counts["dataset_io.records_loaded"] += records(result)

    return count


def _count_save(counts, _result, _payload, path, **_kwargs):
    path = Path(path)
    for written in (path, path.with_suffix(".json")):
        counts["dataset_io.bytes_written"] += written.stat().st_size


def _count_inject(counts, result, *_args, **_kwargs):
    counts["noise_injection.ledger_entries"] += len(result[1])


def _count_clusters(counts, result, *_args, **_kwargs):
    per_image: Counter = Counter()
    for c in result:
        per_image[c.image_id] += len(c.original_members) + len(c.predicted_members)
    counts["clustering.boxes"] += sum(per_image.values())
    counts["clustering.clusters"] += len(result)
    counts["clustering.max_boxes_per_image"] = max(
        counts["clustering.max_boxes_per_image"], max(per_image.values(), default=0)
    )


def _count_rows(counts, result, *_args, **_kwargs):
    counts["reduction.rows"] += result.labels.shape[0]


def _count_flagged(counts, result, *_args, **_kwargs):
    counts["confident_learning.flagged_rows"] += sum(1 for r in result if r.flagged)


def _count_verdicts(counts, result, *_args, **_kwargs):
    counts["confident_learning.verdicts"] += len(result)


def useful_pairs(regions, removed, match_iou: float) -> int:
    """Region/removed-box pairs on the same image whose IoU reaches
    ``match_iou``: the pairs region matching can use."""
    by_image: dict[int, tuple[list, list]] = defaultdict(lambda: ([], []))
    for v in regions:
        if v.region is not None:
            by_image[v.image_id][0].append(v.region.as_list())
    for e in removed:
        if e.original is not None:
            by_image[e.original.image_id][1].append(e.original.bbox.as_list())
    total = 0
    for reg, rem in by_image.values():
        if reg and rem:
            ious = iou_matrix(reg + rem)[: len(reg), len(reg):]
            total += int(np.count_nonzero(ious >= match_iou))
    return total


def _count_roc(counts, _result, verdicts, ledger, thresholds=None, *, match_iou=DEFAULT_MATCH_IOU):
    regions = [v for v in verdicts if v.annotation_id is None]
    removed = [e for e in ledger.entries if e.kind == NoiseKind.MISSING]
    swept = thresholds if thresholds is not None else DEFAULT_THRESHOLDS
    counts["evaluation.thresholds"] += len(swept)
    counts["evaluation.regions"] += len(regions)
    counts["evaluation.removed"] += len(removed)
    counts["evaluation.candidate_pairs"] += len(regions) * len(removed)
    counts["evaluation.useful_pairs"] += useful_pairs(regions, removed, match_iou)


# (module whose attribute callers use, attribute, span name, counter)
TARGETS = [
    *((boxaudit.cli, f"cmd_{c}", CMD_SPAN, None) for c in ("inject", "detect", "eval", "roc")),
    (pipeline, "run_detection", "pipeline.run_detection", None),
    (dataset_io, "load_ground_truth", "dataset_io.load_ground_truth",
     _count_load(lambda ds: len(ds.annotations))),
    (dataset_io, "load_predictions", "dataset_io.load_predictions",
     _count_load(lambda preds: len(preds.boxes))),
    (dataset_io, "load_report", "dataset_io.load_report", _count_load(len)),
    (dataset_io, "load_ledger", "dataset_io.load_ledger", _count_load(len)),
    (dataset_io, "save_report", "dataset_io.save_report", _count_save),
    (dataset_io, "save_roc", "dataset_io.save_roc", _count_save),
    (pipeline, "inject", "noise_injection.inject", _count_inject),
    (pipeline, "cluster_dataset", "clustering.cluster_dataset", _count_clusters),
    (pipeline, "reduce_dataset", "reduction.reduce_dataset", _count_rows),
    (confident_learning, "compute_thresholds", "confident_learning.compute_thresholds", None),
    (confident_learning, "detect_issues", "confident_learning.detect_issues", _count_flagged),
    (confident_learning, "map_to_boxes", "confident_learning.map_to_boxes", _count_verdicts),
    (pipeline, "dense_thresholds", "evaluation.dense_thresholds", None),
    (pipeline, "roc_curve", "evaluation.roc_curve", _count_roc),
]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Swap every target for its traced wrapper; restore them on exit."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in TARGETS]
    try:
        for module, attr, name, count in TARGETS:
            setattr(module, attr, tracer.wrap(name, getattr(module, attr), count))
        yield
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)


def traced_main(argv: list[str], tracer: Tracer) -> tuple[int, float]:
    """Run ``boxaudit.cli.main(argv)`` under ``tracer``; returns its exit
    code and wall seconds. The command's own stdout is discarded."""
    with installed(tracer), contextlib.redirect_stdout(io.StringIO()):
        began = time.perf_counter()
        code = boxaudit.cli.main(argv)
        return code, time.perf_counter() - began
