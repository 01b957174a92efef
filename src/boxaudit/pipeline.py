"""End-to-end orchestration: inject -> cluster -> reduce -> detect -> map ->
report/evaluate, with file-based handoff between stages."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from boxaudit import clustering, reduction
from boxaudit import confident_learning as cl
from boxaudit import dataset_io
# cluster_dataset and reduce_dataset are the object-level stages; run_detection
# calls the array cores below them, and the names stay importable from here
# for per-stage tracing (bench/tracing.py)
from boxaudit.clustering import Partition, cluster_dataset  # noqa: F401
from boxaudit.confident_learning import ClassThresholds, VerdictTable
from boxaudit.errors import InvalidSpecError
from boxaudit.evaluation import (
    DEFAULT_MATCH_IOU,
    MATCH_IOU_RANGE,
    RocCurve,
    dense_thresholds,
    roc_curve,
)
from boxaudit.noise_injection import NoiseSpec, inject
from boxaudit.reduction import reduce_dataset  # noqa: F401

__all__ = ["SWEEPS", "PipelineConfig", "DetectionResult", "run_detection", "cmd_inject", "cmd_detect", "cmd_eval", "cmd_roc"]
SWEEPS = ("grid", "dense")  # the thresholds 0.0..1.0 step 0.1, or every distinct score


@dataclass
class PipelineConfig:
    """Everything a pipeline stage needs; built by the CLI from flags."""

    ground_truth_path: str | None = None
    predictions_path: str | None = None
    iou_threshold: float = 0.5
    cl_mode: str = cl.MODE_CONFIDENT_JOINT
    tau: float | None = None
    noise: NoiseSpec | None = None
    ledger_path: str | None = None
    report_path: str | None = None
    output_dir: Path = Path(".")
    runs: int = 1
    sweep: str = "grid"
    match_iou: float = DEFAULT_MATCH_IOU

    def __post_init__(self):
        if not 0.0 < self.iou_threshold < 1.0:
            raise InvalidSpecError(clustering.IOU_THRESHOLD_RANGE.format(self.iou_threshold))
        if self.runs < 1:
            raise InvalidSpecError(f"runs must be >= 1, got {self.runs}")
        if not 0.0 < self.match_iou <= 1.0:
            raise InvalidSpecError(MATCH_IOU_RANGE.format(self.match_iou))
        if self.sweep not in SWEEPS:
            raise InvalidSpecError(f"sweep must be one of {', '.join(SWEEPS)}, got {self.sweep!r}")
        if self.cl_mode not in cl.MODES:
            raise InvalidSpecError(cl.UNKNOWN_MODE.format(self.cl_mode))
        if self.tau is not None and self.cl_mode != cl.MODE_SCORE_THRESHOLD:
            raise InvalidSpecError(
                f"tau applies only to {cl.MODE_SCORE_THRESHOLD} mode, not {self.cl_mode}"
            )
        if self.cl_mode == cl.MODE_SCORE_THRESHOLD and (
            self.tau is None or not 0.0 <= self.tau <= 1.0
        ):
            raise InvalidSpecError(f"{cl.TAU_RANGE}, got {self.tau}")
        if self.noise is not None and self.ledger_path is not None:
            raise InvalidSpecError(
                "give either a noise spec (--noise-kind ...) or an existing ledger "
                "(--ledger), not both"
            )
        if self.runs > 1 and self.ledger_path is not None:
            raise InvalidSpecError(
                f"--runs {self.runs} repeats noise injection (--noise-kind ...); "
                "an existing ledger (--ledger) is evaluated once"
            )
        self.output_dir = Path(self.output_dir)


@dataclass(eq=False)
class DetectionResult:
    """What :func:`run_detection` found, held as arrays: the clusters as a
    :class:`~boxaudit.clustering.Partition`, the reduced matrices, each
    row's quality score and flagged classes, which rows the mode flags, and
    the verdicts as a :class:`~boxaudit.confident_learning.VerdictTable`.

    ``list(table)`` gives the verdicts as
    :class:`~boxaudit.confident_learning.BoxVerdict` objects and
    ``partition.clusters()`` the clusters as
    :class:`~boxaudit.clustering.Cluster` objects.
    """

    partition: Partition
    labels: np.ndarray
    probs: np.ndarray
    thresholds: ClassThresholds
    quality: np.ndarray
    flags: np.ndarray  # (rows, classes) bool
    flagged: np.ndarray  # (rows,) bool: the findings
    table: VerdictTable
    categories: list[dataset_io.Category]


def run_detection(
    ds: dataset_io.Dataset,
    preds: dataset_io.PredictionSet,
    iou_threshold: float = 0.5,
    *,
    mode: str = cl.MODE_CONFIDENT_JOINT,
    tau: float | None = None,
) -> DetectionResult:
    """Cluster, reduce, and run confident learning over a dataset with its
    predictions; the one code path behind detect/eval.

    The ground-truth columns and then the prediction columns are joined
    once, and every stage after that works on arrays.
    """
    boxes = dataset_io.BoxColumns.join(ds.columns, preds.columns)
    partition = clustering.cluster_boxes(boxes, iou_threshold)
    labels, probs = reduction.reduce_partition(partition, ds.num_categories)
    thresholds = cl.class_thresholds(labels, probs)
    quality, flags = cl.row_flags(labels, probs, thresholds)
    # the mode is checked after the labels, as map_to_boxes orders them
    flagged = cl.flagged_rows(flags.any(axis=1), quality, mode, tau)
    table = cl.verdict_table(partition, quality, flagged, cl.row_classes(flags))
    return DetectionResult(
        partition=partition,
        labels=labels,
        probs=probs,
        thresholds=thresholds,
        quality=quality,
        flags=flags,
        flagged=flagged,
        table=table,
        categories=ds.categories,
    )


def cmd_inject(config: PipelineConfig) -> tuple[Path, Path]:
    """Corrupt a dataset per the noise spec; writes noisy.json + ledger.json."""
    if config.noise is None:
        raise InvalidSpecError("inject requires a noise specification")
    ds = dataset_io.load_ground_truth(config.ground_truth_path)
    noisy, ledger = inject(ds, config.noise)
    config.output_dir.mkdir(parents=True, exist_ok=True)
    noisy_path = config.output_dir / "noisy.json"
    ledger_path = config.output_dir / "ledger.json"
    dataset_io.save_dataset(noisy, noisy_path)
    dataset_io.save_ledger(ledger, ledger_path, noisy.categories)
    print(f"noisy dataset: {noisy_path} ({len(noisy.columns)} annotations)")
    print(f"ledger: {ledger_path} ({len(ledger)} entries)")
    return noisy_path, ledger_path


def cmd_detect(config: PipelineConfig) -> Path:
    """Find suspicious annotations; writes report.csv + report.json."""
    ds = dataset_io.load_ground_truth(config.ground_truth_path)
    preds = dataset_io.load_predictions(config.predictions_path, ds)
    result = run_detection(
        ds, preds, config.iou_threshold, mode=config.cl_mode, tau=config.tau
    )
    config.output_dir.mkdir(parents=True, exist_ok=True)
    report_path = config.output_dir / "report.csv"
    summary = dataset_io.save_report(result, report_path)
    print(f"clusters: {summary['clusters']}")
    print(f"flagged rows: {summary['flagged_clusters']}")
    print(f"flagged annotations: {summary['flagged_annotations']}")
    print(f"missing regions: {summary['missing_regions']}")
    print(f"report written to {report_path}")
    return report_path


def _sweep_thresholds(verdicts: VerdictTable, sweep: str) -> list[float] | None:
    return dense_thresholds(verdicts) if sweep == "dense" else None


def cmd_eval(config: PipelineConfig) -> Path:
    """ROC/AUROC evaluation; writes roc.csv + roc.json.

    With a noise spec: inject (per run, seeds seed..seed+runs-1), detect, and
    sweep; several runs are aggregated by their median AUROC. Without one:
    evaluate the given (already noisy) dataset against its ledger, as seed 0.
    """
    if config.noise is None and config.ledger_path is None:
        raise InvalidSpecError(
            "eval needs either a noise spec (--noise-kind ...) or an existing ledger (--ledger)"
        )
    ds = dataset_io.load_ground_truth(config.ground_truth_path)
    preds = dataset_io.load_predictions(config.predictions_path, ds)

    if config.noise is not None:
        specs = (replace(config.noise, seed=config.noise.seed + run) for run in range(config.runs))
        runs = ((spec.seed, *inject(ds, spec)) for spec in specs)
    else:
        runs = [(0, ds, dataset_io.load_ledger(config.ledger_path, ds))]

    curves: list[tuple[int, RocCurve]] = []
    for seed, noisy, ledger in runs:
        result = run_detection(
            noisy, preds, config.iou_threshold, mode=cl.MODE_SCORE_THRESHOLD, tau=1.0
        )
        thresholds = _sweep_thresholds(result.table, config.sweep)
        curve = roc_curve(result.table, ledger, thresholds, match_iou=config.match_iou)
        curves.append((seed, curve))

    roc_path = config.output_dir / "roc.csv"
    run_aurocs = [(seed, curve.auroc) for seed, curve in curves]
    config.output_dir.mkdir(parents=True, exist_ok=True)
    dataset_io.save_roc(
        curves[0][1], roc_path, run_aurocs=run_aurocs if len(curves) > 1 else None
    )
    for seed, curve in curves:
        print(f"run seed={seed}: auroc={curve.auroc:.6f}")
    median = statistics.median(a for _, a in run_aurocs)
    print(f"median auroc = {median:.6f}")
    print(f"roc written to {roc_path}")
    return roc_path


def cmd_roc(config: PipelineConfig) -> Path:
    """Re-sweep an existing report (its JSON mirror) against a ledger file."""
    if config.report_path is None or config.ledger_path is None:
        raise InvalidSpecError("roc requires --report and --ledger")
    ds = dataset_io.load_ground_truth(config.ground_truth_path)
    verdicts = dataset_io.load_report(config.report_path, ds)
    ledger = dataset_io.load_ledger(config.ledger_path, ds)
    thresholds = _sweep_thresholds(verdicts, config.sweep)
    curve = roc_curve(verdicts, ledger, thresholds, match_iou=config.match_iou)
    config.output_dir.mkdir(parents=True, exist_ok=True)
    roc_path = config.output_dir / "roc.csv"
    dataset_io.save_roc(curve, roc_path)
    print(f"auroc = {curve.auroc:.6f}")
    print(f"roc written to {roc_path}")
    return roc_path
