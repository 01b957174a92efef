"""boxaudit: find suspicious bounding-box annotations in object-detection
datasets by reducing ground-truth and out-of-sample predicted boxes to a
multi-label classification problem and applying confident learning."""

from boxaudit.clustering import Cluster, cluster_dataset
from boxaudit.confident_learning import (
    BoxVerdict,
    ClassThresholds,
    RowAssessment,
    compute_thresholds,
    detect_issues,
    map_to_boxes,
)
from boxaudit.dataset_io import (
    AnnotatedBox,
    Category,
    Dataset,
    ImageInfo,
    PredictionSet,
    load_ground_truth,
    load_ledger,
    load_predictions,
    save_dataset,
    save_ledger,
    save_report,
)
from boxaudit.evaluation import RocCurve, auroc, confusion_at, roc_curve
from boxaudit.geometry import BBox, iou
from boxaudit.noise_injection import (
    LedgerEntry,
    NoiseKind,
    NoiseLedger,
    NoiseSpec,
    inject,
    replay,
)
from boxaudit.pipeline import PipelineConfig, run_detection
from boxaudit.reduction import ReducedMatrices, reduce_dataset

__version__ = "0.5.0"

__all__ = [
    "AnnotatedBox",
    "BBox",
    "BoxVerdict",
    "Category",
    "ClassThresholds",
    "Cluster",
    "Dataset",
    "ImageInfo",
    "LedgerEntry",
    "NoiseKind",
    "NoiseLedger",
    "NoiseSpec",
    "PipelineConfig",
    "PredictionSet",
    "ReducedMatrices",
    "RocCurve",
    "RowAssessment",
    "auroc",
    "cluster_dataset",
    "compute_thresholds",
    "confusion_at",
    "detect_issues",
    "inject",
    "iou",
    "load_ground_truth",
    "load_ledger",
    "load_predictions",
    "map_to_boxes",
    "reduce_dataset",
    "replay",
    "roc_curve",
    "run_detection",
    "save_dataset",
    "save_ledger",
    "save_report",
    "__version__",
]
