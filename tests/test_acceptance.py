"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them)."""

import json
import random
import time

import pytest

from boxaudit.cli import main
from boxaudit.clustering import cluster_dataset
from boxaudit.confident_learning import (
    MODE_SCORE_THRESHOLD,
    compute_thresholds,
    detect_issues,
    map_to_boxes,
)
from boxaudit.dataset_io import (
    BoxColumns,
    Category,
    Dataset,
    ImageInfo,
    PredictionSet,
    save_dataset,
    save_ledger,
)
from boxaudit.evaluation import auroc, roc_curve
from boxaudit.geometry import BBox, iou
from boxaudit.noise_injection import NoiseKind, NoiseLedger, NoiseSpec, inject, replay
from boxaudit.reduction import reduce_dataset

from conftest import cluster_list, original_box, predicted_box, verdict_table
from harness import write_synthetic
from test_clustering import _brute_force, _partition, _random_boxes
from test_confident_learning import _matrices
from test_evaluation import REFERENCE_ROC_POINTS, ann_verdict, label_entry
from test_noise_injection import _base_dataset
from test_reduction import _random_cluster


def _report(criterion, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def synthetic_paths(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("synthetic")
    return write_synthetic(tmp, num_images=500, boxes_per_image=10, seed=101)


def _eval_auroc(tmp_path, gt, preds, kind, amplitude=None, seed=7):
    out = tmp_path / f"out_{kind}_{amplitude}_{seed}"
    args = [
        "eval", "--ground-truth", str(gt), "--predictions", str(preds),
        "--noise-kind", kind, "--fraction", "0.2", "--seed", str(seed),
        "--output-dir", str(out),
    ]
    if amplitude is not None:
        args += ["--amplitude", str(amplitude)]
    assert main(args) == 0
    return json.loads((out / "roc.json").read_text())


def test_criterion_1_reference_sweep_cross_check():
    start = time.time()
    value = auroc(REFERENCE_ROC_POINTS)
    elapsed = time.time() - start
    ok = abs(value - 0.805) <= 0.005 and elapsed < 1.0
    _report(1, "reference ROC sweep AUROC", ok, f"auroc={value:.4f}, {elapsed:.3f}s")


def test_criterion_2_synthetic_oracle_end_to_end(synthetic_paths, tmp_path):
    gt, preds = synthetic_paths
    start = time.time()
    label_auroc = _eval_auroc(tmp_path, gt, preds, "uniform_label")["auroc"]
    spurious_auroc = _eval_auroc(tmp_path, gt, preds, "spurious")["auroc"]
    elapsed = time.time() - start
    ok = label_auroc >= 0.95 and spurious_auroc >= 0.90 and elapsed < 60.0
    _report(
        2,
        "synthetic oracle end-to-end",
        ok,
        f"label={label_auroc:.4f} (>=0.95), spurious={spurious_auroc:.4f} (>=0.90), {elapsed:.1f}s",
    )


def test_criterion_3_amplitude_sensitivity(synthetic_paths, tmp_path):
    gt, preds = synthetic_paths
    results = {}
    for kind in ("location", "scale"):
        for amplitude in (0.2, 0.5):
            results[(kind, amplitude)] = _eval_auroc(
                tmp_path, gt, preds, kind, amplitude
            )["auroc"]
    ok = all(results[(k, 0.2)] <= 0.65 for k in ("location", "scale")) and all(
        results[(k, 0.5)] >= 0.80 for k in ("location", "scale")
    )
    detail = ", ".join(f"{k}@{a}={v:.3f}" for (k, a), v in sorted(results.items()))
    _report(3, "amplitude sensitivity", ok, detail)


def test_criterion_4_high_recall_operating_point(synthetic_paths, tmp_path):
    gt, preds = synthetic_paths
    points = _eval_auroc(tmp_path, gt, preds, "uniform_label", seed=9)["points"]
    good = [p for p in points if p["tpr"] >= 0.99 and p["fpr"] <= 0.35]
    best = max(points, key=lambda p: p["tpr"] - p["fpr"])
    _report(
        4,
        "high-recall operating point",
        bool(good),
        f"best point fpr={best['fpr']:.3f} tpr={best['tpr']:.3f}",
    )


def test_criterion_5_invariant_suites():
    failures = []

    # geometry: symmetry, range, identity, translation and scale invariance
    rng = random.Random(301)
    for _ in range(300):
        a = BBox(rng.uniform(-40, 40), rng.uniform(-40, 40), rng.uniform(0.5, 30), rng.uniform(0.5, 30))
        b = BBox(rng.uniform(-40, 40), rng.uniform(-40, 40), rng.uniform(0.5, 30), rng.uniform(0.5, 30))
        v = iou(a, b)
        if not (0.0 <= v <= 1.0 and v == iou(b, a) and iou(a, a) == 1.0):
            failures.append("geometry base")
            break
        tx, ty, s = rng.uniform(-50, 50), rng.uniform(-50, 50), rng.choice([0.5, 2.0, 3.0])
        shifted = abs(iou(BBox(a.x + tx, a.y + ty, a.w, a.h), BBox(b.x + tx, b.y + ty, b.w, b.h)) - v)
        scaled = abs(iou(BBox(a.x * s, a.y * s, a.w * s, a.h * s), BBox(b.x * s, b.y * s, b.w * s, b.h * s)) - v)
        if shifted > 1e-12 or scaled > 1e-12:
            failures.append("geometry invariance")
            break

    # clustering equals brute-force connected components, 1000 seeds
    for seed in range(1000):
        rng = random.Random(seed)
        boxes = _random_boxes(rng, rng.randint(0, 12))
        threshold = rng.choice([0.2, 0.4, 0.5, 0.7])
        by_image = {}
        for box in boxes:
            by_image.setdefault(box.image_id, []).append(box)
        clusters = []
        for image_boxes in by_image.values():
            clusters.extend(cluster_list(image_boxes, threshold))
        if _partition(clusters) != _brute_force(boxes, threshold):
            failures.append(f"clustering seed {seed}")
            break

    # reduction row invariants on randomized clusters
    rng = random.Random(303)
    clusters = [_random_cluster(rng, k, 6) for k in range(200)]
    matrices = reduce_dataset(clusters, 6)
    bg = matrices.num_classes
    for k, cluster in enumerate(clusters):
        y, p = matrices.labels[k], matrices.probs[k]
        if y.sum() < 1 or (y[bg] == 1) != (not cluster.original_members):
            failures.append("reduction labels")
            break
        if (p[bg] == 1.0) != (p[:bg].sum() == 0.0) or not ((p >= 0) & (p <= 1)).all():
            failures.append("reduction probs")
            break

    # confident learning: agreement null case and score monotonicity
    rng = random.Random(305)
    y_rows = []
    for _ in range(60):
        row = [0] * 5
        row[rng.randrange(5)] = 1
        y_rows.append(row)
    p_rows = [[float(v) for v in row] for row in y_rows]
    m = _matrices(y_rows, p_rows)
    rows = detect_issues(m, compute_thresholds(m))
    if any(r.flagged for r in rows) or any(r.quality_score != 1.0 for r in rows):
        failures.append("cl agreement null")
    verdicts = [ann_verdict(i, rng.random()) for i in range(1, 400)]
    previous = set()
    for tau in [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]:
        current = {v.annotation_id for v in verdicts if v.quality_score <= tau}
        if not previous <= current:
            failures.append("cl score monotonicity")
            break
        previous = current

    # roc: monotone with (0,0)/(1,1) endpoints; auroc of diagonal exactly 0.5
    ledger = NoiseLedger.of([label_entry(i) for i in rng.sample(range(1, 400), 80)])
    curve = roc_curve(verdict_table(verdicts), ledger)
    pts = list(zip(curve.fpr.tolist(), curve.tpr.tolist()))
    if pts[0] != (0.0, 0.0) or pts[-1] != (1.0, 1.0):
        failures.append("roc endpoints")
    if any(f2 < f1 or t2 < t1 for (f1, t1), (f2, t2) in zip(pts, pts[1:])):
        failures.append("roc monotonicity")
    if auroc([(0.0, 0.0), (1.0, 1.0)]) != 0.5:
        failures.append("auroc diagonal")

    _report(5, "invariant suites", not failures, "; ".join(failures) or "all invariants hold")


def test_criterion_6_ledger_soundness(tmp_path):
    ds = _base_dataset(n=50)
    failures = []
    cases = [
        (NoiseKind.UNIFORM_LABEL, None),
        (NoiseKind.LOCATION, 0.25),
        (NoiseKind.SCALE, 0.25),
        (NoiseKind.SPURIOUS, None),
        (NoiseKind.MISSING, None),
    ]
    for kind, amplitude in cases:
        for fraction in (0.1, 0.33, 0.8):
            spec = NoiseSpec(kind=kind, fraction=fraction, amplitude=amplitude, seed=42)
            noisy, ledger = inject(ds, spec)
            if len(ledger) != round(fraction * 50):
                failures.append(f"{kind.value} count at {fraction}")
            if replay(ds, ledger) != noisy:
                failures.append(f"{kind.value} replay at {fraction}")
            blobs = []
            for run in ("a", "b"):
                noisy2, ledger2 = inject(ds, spec)
                dpath = tmp_path / f"{kind.value}_{fraction}_{run}_ds.json"
                lpath = tmp_path / f"{kind.value}_{fraction}_{run}_led.json"
                save_dataset(noisy2, dpath)
                save_ledger(ledger2, lpath, noisy2.categories)
                blobs.append(dpath.read_bytes() + lpath.read_bytes())
            if blobs[0] != blobs[1]:
                failures.append(f"{kind.value} reproducibility at {fraction}")
    _report(6, "noise ledger soundness", not failures, "; ".join(failures) or "15 cases")


def test_criterion_7_performance_smoke():
    rng = random.Random(99)
    num_images, per_image, num_classes = 5000, 20, 20
    images = [
        ImageInfo(id=i, width=800, height=600, file_name=f"{i}.jpg")
        for i in range(1, num_images + 1)
    ]
    categories = [Category(id=m, name=f"c{m}", source_id=m) for m in range(1, num_classes + 1)]
    annotations, predictions = [], []
    ann_id = 0
    for image in images:
        for _ in range(per_image):
            ann_id += 1
            x, y = rng.uniform(0, 700), rng.uniform(0, 500)
            w = min(rng.uniform(10, 90), 800 - x)
            h = min(rng.uniform(10, 90), 600 - y)
            category = rng.randint(1, num_classes)
            annotations.append(original_box(ann_id, image.id, category, x, y, w, h))
            predictions.append(
                predicted_box(ann_id, image.id, category, x + 1, y + 1, w, h, 0.9)
            )
    ds = Dataset(images=images, categories=categories, annotations=BoxColumns.of(annotations))
    preds = PredictionSet(boxes=BoxColumns.of(predictions))

    start = time.time()
    clusters = cluster_dataset(ds, preds, 0.5)
    matrices = reduce_dataset(clusters, num_classes)
    thresholds = compute_thresholds(matrices)
    rows = detect_issues(matrices, thresholds)
    verdicts = map_to_boxes(matrices, rows, mode=MODE_SCORE_THRESHOLD, tau=1.0)
    elapsed = time.time() - start

    ok = elapsed < 30.0 and len(verdicts) >= len(annotations)
    _report(
        7,
        "performance smoke (100k boxes, 5k images)",
        ok,
        f"{elapsed:.2f}s for {len(clusters)} clusters",
    )
