"""End-to-end orchestration: inject -> cluster -> reduce -> detect -> map ->
report/evaluate, with file-based handoff between stages."""

from __future__ import annotations

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
    median,
    roc_curve,
)
from boxaudit.noise_injection import NoiseLedger, NoiseSpec, inject
from boxaudit.reduction import reduce_dataset  # noqa: F401

__all__ = ["SWEEPS", "PipelineConfig", "DetectionResult", "run_detection", "cmd_inject", "cmd_detect", "cmd_eval", "cmd_roc"]
SWEEPS = ("grid", "dense")  # the thresholds 0.0..1.0 step 0.1, or every distinct score


@dataclass
class PipelineConfig:
    """Everything a pipeline stage needs; the CLI sets each field from the
    flag of its name, and ``noise`` from the four noise flags."""

    ground_truth: str | None = None
    predictions: str | None = None
    iou_threshold: float = 0.5
    mode: str = cl.MODE_CONFIDENT_JOINT
    tau: float | None = None
    noise: NoiseSpec | None = None
    ledger: str | None = None
    report: str | None = None
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
        if self.mode not in cl.MODES:
            raise InvalidSpecError(cl.UNKNOWN_MODE.format(self.mode))
        if self.tau is not None and self.mode != cl.MODE_SCORE_THRESHOLD:
            raise InvalidSpecError(
                f"tau applies only to {cl.MODE_SCORE_THRESHOLD} mode, not {self.mode}"
            )
        if self.mode == cl.MODE_SCORE_THRESHOLD and (
            self.tau is None or not 0.0 <= self.tau <= 1.0
        ):
            raise InvalidSpecError(f"{cl.TAU_RANGE}, got {self.tau}")
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


def _require(config: PipelineConfig, command: str, *inputs: str) -> None:
    """Refuse, before any file is read, a config without an input of ``command``."""
    absent = [f"--{name.replace('_', '-')}" for name in inputs if getattr(config, name) is None]
    if absent:
        raise InvalidSpecError(f"{command} requires {' and '.join(absent)}")


def cmd_inject(config: PipelineConfig) -> tuple[Path, Path]:
    """Corrupt a dataset per the noise spec; writes noisy.json + ledger.json."""
    if config.noise is None:
        raise InvalidSpecError("inject requires a noise specification")
    _require(config, "inject", "ground_truth")
    ds = dataset_io.load_ground_truth(config.ground_truth)
    noisy, ledger = inject(ds, config.noise)
    config.output_dir.mkdir(parents=True, exist_ok=True)
    noisy_file = config.output_dir / "noisy.json"
    ledger_file = config.output_dir / "ledger.json"
    dataset_io.save_dataset(noisy, noisy_file)
    dataset_io.save_ledger(ledger, ledger_file, noisy.categories)
    print(f"noisy dataset: {noisy_file} ({len(noisy.columns)} annotations)")
    print(f"ledger: {ledger_file} ({len(ledger)} entries)")
    return noisy_file, ledger_file


def cmd_detect(config: PipelineConfig) -> Path:
    """Find suspicious annotations; writes report.csv + report.json."""
    _require(config, "detect", "ground_truth", "predictions")
    ds = dataset_io.load_ground_truth(config.ground_truth)
    preds = dataset_io.load_predictions(config.predictions, ds)
    result = run_detection(
        ds, preds, config.iou_threshold, mode=config.mode, tau=config.tau
    )
    config.output_dir.mkdir(parents=True, exist_ok=True)
    report_file = config.output_dir / "report.csv"
    summary = dataset_io.save_report(result, report_file)
    print(f"clusters: {summary['clusters']}")
    print(f"flagged rows: {summary['flagged_clusters']}")
    print(f"flagged annotations: {summary['flagged_annotations']}")
    print(f"missing regions: {summary['missing_regions']}")
    print(f"report written to {report_file}")
    return report_file


def _sweep(verdicts: VerdictTable, ledger: NoiseLedger, config: PipelineConfig) -> RocCurve:
    """The ROC curve of ``verdicts`` against ``ledger`` over the config's sweep."""
    thresholds = dense_thresholds(verdicts) if config.sweep == "dense" else None
    return roc_curve(verdicts, ledger, thresholds, match_iou=config.match_iou)


def cmd_eval(config: PipelineConfig) -> Path:
    """ROC/AUROC evaluation; writes roc.csv + roc.json.

    Each run injects noise (seeds seed..seed+runs-1), detects at ``tau`` 1.0
    and sweeps; several runs are aggregated by their median AUROC. A saved
    injection is scored by :func:`cmd_detect` at ``tau`` 1.0 and :func:`cmd_roc`.
    """
    if config.noise is None:
        raise InvalidSpecError("eval requires a noise specification")
    _require(config, "eval", "ground_truth", "predictions")
    ds = dataset_io.load_ground_truth(config.ground_truth)
    preds = dataset_io.load_predictions(config.predictions, ds)
    curves: list[tuple[int, RocCurve]] = []
    for seed in range(config.noise.seed, config.noise.seed + config.runs):
        noisy, ledger = inject(ds, replace(config.noise, seed=seed))
        result = run_detection(
            noisy, preds, config.iou_threshold, mode=cl.MODE_SCORE_THRESHOLD, tau=1.0
        )
        curves.append((seed, _sweep(result.table, ledger, config)))
        del noisy, ledger, result  # freed before the next run builds its own

    roc_file = config.output_dir / "roc.csv"
    run_aurocs = [(seed, curve.auroc) for seed, curve in curves]
    config.output_dir.mkdir(parents=True, exist_ok=True)
    dataset_io.save_roc(
        curves[0][1], roc_file, run_aurocs=run_aurocs if len(curves) > 1 else None
    )
    for seed, curve in curves:
        print(f"run seed={seed}: auroc={curve.auroc:.6f}")
    print(f"median auroc = {median([a for _, a in run_aurocs]):.6f}")
    print(f"roc written to {roc_file}")
    return roc_file


def cmd_roc(config: PipelineConfig) -> Path:
    """Re-sweep an existing report (its JSON mirror) against a ledger file."""
    _require(config, "roc", "ground_truth", "report", "ledger")
    ds = dataset_io.load_ground_truth(config.ground_truth)
    verdicts = dataset_io.load_report(config.report, ds)
    curve = _sweep(verdicts, dataset_io.load_ledger(config.ledger, ds), config)
    config.output_dir.mkdir(parents=True, exist_ok=True)
    roc_file = config.output_dir / "roc.csv"
    dataset_io.save_roc(curve, roc_file)
    print(f"auroc = {curve.auroc:.6f}")
    print(f"roc written to {roc_file}")
    return roc_file
