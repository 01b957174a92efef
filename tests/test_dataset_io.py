import json
import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from boxaudit import dataset_io
from boxaudit.clustering import Partition
from boxaudit.confident_learning import MODE_SCORE_THRESHOLD, VerdictTable
from boxaudit.dataset_io import (
    AnnotatedBox,
    BoxColumns,
    BoxSource,
    Category,
    Dataset,
    ImageInfo,
    PredictionSet,
    int_array,
    load_ground_truth,
    load_ledger,
    load_predictions,
    save_dataset,
    save_ledger,
    save_report,
    save_roc,
)
from boxaudit.evaluation import RocCurve, RocPoint
from boxaudit.errors import (
    DanglingReferenceError,
    DuplicateIdError,
    FormatError,
    InvalidInputError,
    InvalidScoreError,
    MissingFileError,
)
from boxaudit.geometry import BBox
from boxaudit.noise_injection import LedgerColumns, NoiseKind, NoiseLedger, NoiseSpec, inject
from boxaudit.pipeline import DetectionResult, run_detection

from conftest import coco_payload, write_json
from report_reference import DetectionReport
from report_reference import save_dataset as reference_save_dataset
from report_reference import save_ledger as reference_save_ledger
from report_reference import save_report as reference_save_report
from report_reference import save_roc as reference_save_roc


def test_minimal_file_loads(tiny_coco_path):
    ds = load_ground_truth(tiny_coco_path)
    assert (len(ds.images), len(ds.categories), len(ds.annotations)) == (1, 1, 1)
    ann = ds.annotations[0]
    assert ann.source == BoxSource.ORIGINAL
    assert ann.score is None
    assert ann.bbox.as_list() == [10, 10, 20, 15]


def test_missing_file_is_typed_error(tmp_path):
    with pytest.raises(MissingFileError):
        load_ground_truth(tmp_path / "nope.json")


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"images": [\n  {"id": 1,,}\n]}')
    with pytest.raises(FormatError) as exc:
        load_ground_truth(path)
    assert "line" in str(exc.value) and "column" in str(exc.value)


def test_missing_key_is_format_error(tmp_path):
    path = write_json(tmp_path / "x.json", {"images": [], "annotations": []})
    with pytest.raises(FormatError):
        load_ground_truth(path)


def test_dangling_image_reference(tmp_path):
    payload = coco_payload(
        images=[{"id": 1, "width": 10, "height": 10, "file_name": "a.jpg"}],
        categories=[{"id": 1, "name": "x"}],
        annotations=[{"id": 1, "image_id": 99, "category_id": 1, "bbox": [0, 0, 1, 1]}],
    )
    with pytest.raises(DanglingReferenceError):
        load_ground_truth(write_json(tmp_path / "x.json", payload))


def test_dangling_category_reference(tmp_path):
    payload = coco_payload(
        images=[{"id": 1, "width": 10, "height": 10, "file_name": "a.jpg"}],
        categories=[{"id": 1, "name": "x"}],
        annotations=[{"id": 1, "image_id": 1, "category_id": 9, "bbox": [0, 0, 1, 1]}],
    )
    with pytest.raises(DanglingReferenceError):
        load_ground_truth(write_json(tmp_path / "x.json", payload))


@pytest.mark.parametrize("section", ["images", "categories", "annotations"])
def test_duplicate_ids_rejected(tmp_path, section):
    payload = coco_payload(
        images=[{"id": 1, "width": 10, "height": 10, "file_name": "a.jpg"}],
        categories=[{"id": 1, "name": "x"}],
        annotations=[{"id": 1, "image_id": 1, "category_id": 1, "bbox": [0, 0, 1, 1]}],
    )
    payload[section] = payload[section] * 2
    with pytest.raises(DuplicateIdError):
        load_ground_truth(write_json(tmp_path / "x.json", payload))


def test_boxes_clamped_to_image_bounds(tmp_path):
    payload = coco_payload(
        images=[{"id": 1, "width": 100, "height": 50, "file_name": "a.jpg"}],
        categories=[{"id": 1, "name": "x"}],
        annotations=[{"id": 1, "image_id": 1, "category_id": 1, "bbox": [-5, 40, 20, 30]}],
    )
    ds = load_ground_truth(write_json(tmp_path / "x.json", payload))
    assert ds.annotations[0].bbox.as_list() == [0, 40, 15, 10]


def test_zero_area_box_rejected(tmp_path):
    payload = coco_payload(
        images=[{"id": 1, "width": 100, "height": 50, "file_name": "a.jpg"}],
        categories=[{"id": 1, "name": "x"}],
        annotations=[{"id": 1, "image_id": 1, "category_id": 1, "bbox": [10, 10, 0, 5]}],
    )
    with pytest.raises(InvalidInputError):
        load_ground_truth(write_json(tmp_path / "x.json", payload))


def test_fully_outside_box_rejected(tmp_path):
    payload = coco_payload(
        images=[{"id": 1, "width": 100, "height": 50, "file_name": "a.jpg"}],
        categories=[{"id": 1, "name": "x"}],
        annotations=[{"id": 1, "image_id": 1, "category_id": 1, "bbox": [200, 10, 5, 5]}],
    )
    with pytest.raises(InvalidInputError):
        load_ground_truth(write_json(tmp_path / "x.json", payload))


def test_iscrowd_and_segmentation_ignored(tmp_path):
    payload = coco_payload(
        images=[{"id": 1, "width": 10, "height": 10, "file_name": "a.jpg"}],
        categories=[{"id": 1, "name": "x"}],
        annotations=[
            {
                "id": 1,
                "image_id": 1,
                "category_id": 1,
                "bbox": [0, 0, 2, 2],
                "iscrowd": 1,
                "segmentation": [[0, 0, 1, 0, 1, 1, 0, 1]],
                "area": 4,
            }
        ],
    )
    ds = load_ground_truth(write_json(tmp_path / "x.json", payload))
    assert len(ds.annotations) == 1


def test_gappy_category_ids_remap_densely(tmp_path):
    payload = coco_payload(
        images=[{"id": 1, "width": 10, "height": 10, "file_name": "a.jpg"}],
        categories=[{"id": 90, "name": "z"}, {"id": 2, "name": "a"}, {"id": 40, "name": "m"}],
        annotations=[{"id": 1, "image_id": 1, "category_id": 40, "bbox": [0, 0, 2, 2]}],
    )
    ds = load_ground_truth(write_json(tmp_path / "x.json", payload))
    assert [(c.id, c.source_id) for c in ds.categories] == [(1, 2), (2, 40), (3, 90)]
    assert ds.annotations[0].category_id == 2  # dense id of source 40


# --- predictions ---------------------------------------------------------------


def _preds_path(tmp_path, entries):
    return write_json(tmp_path / "preds.json", entries)


@pytest.mark.parametrize("size", ["width", "height"])
def test_image_size_past_float_range_is_refused_in_code(size):
    """Boxes are clamped to their image as floats: a dataset built in code
    cannot hold an image too large for that, so predictions never meet it
    (they raised a bare OverflowError)."""
    sizes = {"width": 10, "height": 10, size: 10**400}
    with pytest.raises(InvalidInputError, match=f"^image 1: {size} past the float range$"):
        ImageInfo(1, sizes["width"], sizes["height"], "a.jpg")
    assert ImageInfo(1, 2**1023, 2**1023, "a.jpg").width == 2**1023


def test_empty_prediction_list(tmp_path, tiny_coco_path):
    ds = load_ground_truth(tiny_coco_path)
    preds = load_predictions(_preds_path(tmp_path, []), ds)
    assert preds.boxes == []


def test_single_prediction_maps_directly(tmp_path, tiny_coco_path):
    ds = load_ground_truth(tiny_coco_path)
    entries = [{"image_id": 1, "category_id": 7, "bbox": [1, 2, 3, 4], "score": 0.7}]
    preds = load_predictions(_preds_path(tmp_path, entries), ds)
    box = preds.boxes[0]
    assert box.source == BoxSource.PREDICTED
    assert box.score == 0.7
    assert box.category_id == 1
    assert box.bbox.as_list() == [1, 2, 3, 4]


def test_prediction_score_out_of_range(tmp_path, tiny_coco_path):
    ds = load_ground_truth(tiny_coco_path)
    entries = [{"image_id": 1, "category_id": 7, "bbox": [1, 2, 3, 4], "score": 1.5}]
    with pytest.raises(InvalidScoreError):
        load_predictions(_preds_path(tmp_path, entries), ds)


def test_prediction_unknown_image(tmp_path, tiny_coco_path):
    ds = load_ground_truth(tiny_coco_path)
    entries = [{"image_id": 5, "category_id": 7, "bbox": [1, 2, 3, 4], "score": 0.5}]
    with pytest.raises(DanglingReferenceError):
        load_predictions(_preds_path(tmp_path, entries), ds)


def test_predictions_get_unique_ids(tmp_path, tiny_coco_path):
    ds = load_ground_truth(tiny_coco_path)
    entries = [
        {"image_id": 1, "category_id": 7, "bbox": [1, 2, 3, 4], "score": 0.5},
        {"image_id": 1, "category_id": 7, "bbox": [2, 3, 4, 5], "score": 0.6},
    ]
    preds = load_predictions(_preds_path(tmp_path, entries), ds)
    assert len({b.id for b in preds.boxes}) == 2


# --- round trips ----------------------------------------------------------------


def test_dataset_round_trip(tmp_path):
    payload = coco_payload(
        images=[
            {"id": 1, "width": 100, "height": 80, "file_name": "a.jpg"},
            {"id": 2, "width": 60, "height": 60, "file_name": "b.jpg"},
        ],
        categories=[{"id": 3, "name": "cat"}, {"id": 9, "name": "dog"}],
        annotations=[
            {"id": 1, "image_id": 1, "category_id": 3, "bbox": [1.5, 2.25, 10, 12]},
            {"id": 2, "image_id": 1, "category_id": 9, "bbox": [30, 30, 5, 5]},
            {"id": 7, "image_id": 2, "category_id": 3, "bbox": [0, 0, 59.5, 59.5]},
        ],
    )
    ds = load_ground_truth(write_json(tmp_path / "in.json", payload))
    out = tmp_path / "out.json"
    save_dataset(ds, out)
    assert load_ground_truth(out) == ds


def test_ledger_round_trip(tmp_path, tiny_coco_path):
    payload = coco_payload(
        images=[{"id": 1, "width": 100, "height": 80, "file_name": "a.jpg"}],
        categories=[{"id": 3, "name": "cat"}, {"id": 9, "name": "dog"}],
        annotations=[
            {"id": 1, "image_id": 1, "category_id": 3, "bbox": [10, 10, 20, 20]},
            {"id": 2, "image_id": 1, "category_id": 9, "bbox": [50, 50, 20, 20]},
        ],
    )
    ds = load_ground_truth(write_json(tmp_path / "gt.json", payload))
    noisy, ledger = inject(ds, NoiseSpec(kind=NoiseKind.UNIFORM_LABEL, fraction=1.0, seed=3))
    path = tmp_path / "ledger.json"
    save_ledger(ledger, path, ds.categories)
    assert load_ledger(path, ds) == ledger
    assert len(ledger) == 2


def test_ledger_file_lists_exact_ids(tmp_path):
    payload = coco_payload(
        images=[{"id": 1, "width": 100, "height": 80, "file_name": "a.jpg"}],
        categories=[{"id": 1, "name": "cat"}],
        annotations=[
            {"id": i, "image_id": 1, "category_id": 1, "bbox": [i * 5, 10, 4, 4]}
            for i in range(1, 11)
        ],
    )
    ds = load_ground_truth(write_json(tmp_path / "gt.json", payload))
    _, ledger = inject(ds, NoiseSpec(kind=NoiseKind.MISSING, fraction=0.2, seed=5))
    path = tmp_path / "ledger.json"
    save_ledger(ledger, path, ds.categories)
    data = json.loads(path.read_text())
    assert len(data["entries"]) == 2
    assert {e["annotation_id"] for e in data["entries"]} == {e.annotation_id for e in ledger.entries}


def test_empty_report_has_header_only(tmp_path):
    report = run_detection(Dataset(images=[], categories=[], annotations=[]), PredictionSet([]))
    path = tmp_path / "report.csv"
    save_report(report, path)
    lines = path.read_text().strip().splitlines()
    assert lines == ["cluster_id,image_id,annotation_ids,verdict_kind,quality_score,flagged_class_ids"]
    mirror = json.loads((tmp_path / "report.json").read_text())
    assert mirror["findings"] == []


# --- report writer vs. the json.dump reference --------------------------------

_NAMES = ["car", 'say "hi"', "back\\slash", "naïve 猫", "tab\tnew\nline", "🐱", ""]
_IDS = [0, 1, 7, 2**63 + 5, 10**30]
_COORDS = [0, 3, 0.0, -0.0, 1.0, 0.1 + 0.2, 1e-17, 1e16, 10**20]
_SIZES = [1, 1.0, 0.1 + 0.2, 1e-17, 1e16, 10**18]
_SCORES = [0.0, -0.0, 1.0, 0, 1, 0.1 + 0.2, 1e-17, 0.5]
# the writers' default block and blocks small enough that findings, their
# member lists and verdicts cross block edges
_BLOCKS = (dataset_io._BLOCK, 1, 2, 3)


def _is_negative_zero(v: float) -> bool:
    return v == 0 and math.copysign(1.0, v) < 0


def _pick(rng, choices, spread=1e3):
    """One of ``choices``, or else a random float in [0, spread)."""
    return rng.choice(choices) if rng.random() < 0.7 else rng.random() * spread


def _random_bbox(rng):
    return BBox(_pick(rng, _COORDS), _pick(rng, _COORDS), _pick(rng, _SIZES), _pick(rng, _SIZES))


def _random_box(rng, box_id, image_id, num_classes, predicted):
    return AnnotatedBox(
        id=box_id,
        image_id=image_id,
        category_id=rng.randint(1, num_classes),
        bbox=_random_bbox(rng),
        source=BoxSource.PREDICTED if predicted else BoxSource.ORIGINAL,
        score=_pick(rng, _SCORES, spread=1.0) if predicted else None,
    )


def _random_result(rng, seen):
    """A detection result on random boxes, in either mode, with awkward
    values: huge ints, floats without a short repr, int coordinates and
    scores, escaped and non-ASCII names."""
    num_classes = rng.randint(0, 4)
    source_ids = rng.sample(_IDS + [12, 99], num_classes)
    categories = [
        Category(id=m, name=rng.choice(_NAMES), source_id=src)
        for m, src in enumerate(source_ids, start=1)
    ]

    def box(box_id, image_id, predicted):
        # a box too thin to move its far edge in float64 (1e20 + 1) would
        # make a degenerate missing region, which run_detection rejects
        while True:
            b = _random_box(rng, box_id, image_id, num_classes, predicted)
            x, y, w, h = map(float, b.bbox.as_list())
            if x + w != x and y + h != y:
                return b

    anns, preds = [], []
    for image_id in rng.sample(_IDS, rng.randint(1, 3)):
        for j in range(rng.randint(0, 4) if num_classes else 0):
            anns.append(box(rng.choice(_IDS) + j, image_id, False))
        for _ in range(rng.randint(0, 4) if num_classes else 0):
            preds.append(box(len(preds) + 1, image_id, True))
    ds = Dataset(images=[], categories=categories, annotations=anns)
    if rng.random() < 0.5:
        result = run_detection(ds, PredictionSet(preds), rng.choice([0.3, 0.5]))
    else:
        tau = rng.choice([0.0, 0.5, 1.0, rng.random()])
        result = run_detection(ds, PredictionSet(preds), mode=MODE_SCORE_THRESHOLD, tau=tau)
    verdicts = list(result.table)
    for v in verdicts:
        seen["region"] += v.region is not None
        seen["no region"] += v.region is None
        seen["background cluster"] += v.verdict_kind == "missing_region"
        seen["flagged, no classes"] += v.flagged and not v.flagged_classes
        seen["annotation_id None"] += v.annotation_id is None
    if not any(v.flagged for v in verdicts):
        seen["no flagged clusters"] += 1
    seen["empty verdicts"] += not verdicts
    boxes = result.partition.boxes
    coords = [*boxes.xywh.ravel().tolist(), *result.table.regions.ravel().tolist()]
    seen["-0.0 coordinate"] += any(map(_is_negative_zero, coords))
    seen["-0.0 score"] += any(map(_is_negative_zero, boxes.scores.tolist()))
    return result


def test_report_writer_matches_json_dump_reference(tmp_path, monkeypatch):
    seen = Counter()
    for seed in range(300):
        result = _random_result(random.Random(seed), seen)
        # the writer reads findings off the flagged rows
        flagged_ids = set(result.table.cluster_ids[result.table.flagged].tolist())
        assert result.flagged.tolist() == [
            c in flagged_ids for c in result.partition.cluster_ids.tolist()
        ], seed
        reference_save_report(
            DetectionReport(list(result.table), result.partition.clusters(), result.categories),
            tmp_path / "ref.csv",
        )
        for block in _BLOCKS:
            monkeypatch.setattr(dataset_io, "_BLOCK", block)
            save_report(result, tmp_path / "new.csv")
            for name in ("new.csv", "new.json"):
                ref = (tmp_path / name.replace("new", "ref")).read_bytes()
                assert (tmp_path / name).read_bytes() == ref, (seed, block, name)
    assert all(seen[k] >= 5 for k in (
        "region", "no region", "background cluster", "flagged, no classes",
        "annotation_id None", "no flagged clusters", "empty verdicts", "-0.0 coordinate",
        "-0.0 score",
    )), seen


def test_report_writer_refuses_a_json_path(tmp_path):
    result = _random_result(random.Random(0), Counter())
    with pytest.raises(InvalidInputError, match="overwritten"):
        save_report(result, tmp_path / "r.json")
    assert not (tmp_path / "r.json").exists()


def _flagged_pairs(n: int) -> DetectionResult:
    """A result of ``n`` clusters, each an original and a prediction, whose
    ``n`` verdicts are all flagged: ``n`` findings."""
    rng = np.random.default_rng(n)
    boxes = BoxColumns(
        ids=np.arange(2 * n), image_ids=np.arange(2 * n) // 20, classes=np.ones(2 * n, np.int64),
        scores=np.where(np.arange(2 * n) % 2, rng.random(2 * n), np.nan),
        xywh=rng.random((2 * n, 4)) * 100 + 1,
    )
    partition = Partition(boxes, np.arange(n), np.arange(n) // 10, np.arange(2 * n),
                          np.arange(2 * n + 1))
    table = VerdictTable.of_values(
        list(range(0, 2 * n, 2)), range(n), np.arange(n) // 10, rng.random(n), [True] * n,
        ["wrong_label"] * n, [None] * n, [(1,)] * n,
    )
    return DetectionResult(
        partition=partition, labels=None, probs=None, thresholds=None, quality=None, flags=None,
        flagged=np.ones(n, bool), table=table, categories=[Category(id=1, name="car", source_id=3)],
    )


def test_report_writer_memory_does_not_grow_with_the_report(tmp_path):
    peaks = []
    for n in (2_000, 16_000):
        result = _flagged_pairs(n)
        tracemalloc.start()
        try:
            assert save_report(result, tmp_path / "report.csv")["flagged_clusters"] == n
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 2 * peaks[0], peaks


# --- ROC writer vs. the json.dump reference -----------------------------------

_RATES = [0.0, 1.0, 0.1 + 0.2, 1e-17, 0.5, 1 / 3]


def _random_roc(rng, seen):
    """A curve with repeated thresholds, rates of exactly 0 and 1 and floats
    without a short repr, and per-run AUROCs or none."""
    rate = lambda: rng.choice(_RATES) if rng.random() < 0.6 else rng.random()
    thresholds = sorted(rate() for _ in range(rng.randint(0, 12)))
    points = [RocPoint(threshold=t, fpr=rate(), tpr=rate()) for t in thresholds]
    auroc = rng.choice([rate(), float("nan"), 1])
    runs = None
    if rng.random() < 0.5:
        runs = [(rng.choice([0, 7, 2**40, 10**30]) + k, rate()) for k in range(rng.randint(1, 4))]
    seen["runs"] += runs is not None
    seen["no runs"] += runs is None
    seen["repeated thresholds"] += len(set(thresholds)) < len(thresholds)
    values = [v for p in points for v in (p.threshold, p.fpr, p.tpr)]
    for name, v in (("0.1+0.2", 0.1 + 0.2), ("1e-17", 1e-17), ("0", 0.0), ("1", 1.0)):
        seen[name] += v in values
    return RocCurve(points=points, auroc=auroc), runs


def test_roc_writer_matches_json_dump_reference(tmp_path, monkeypatch):
    seen = Counter()
    for seed in range(300):
        curve, runs = _random_roc(random.Random(seed), seen)
        reference_save_roc(curve, tmp_path / "ref.csv", run_aurocs=runs)
        for block in _BLOCKS:
            monkeypatch.setattr(dataset_io, "_BLOCK", block)
            save_roc(curve, tmp_path / "new.csv", run_aurocs=runs)
            for name in ("new.csv", "new.json"):
                ref = (tmp_path / name.replace("new", "ref")).read_bytes()
                assert (tmp_path / name).read_bytes() == ref, (seed, block, name)
    assert all(seen[k] >= 20 for k in (
        "runs", "no runs", "repeated thresholds", "0.1+0.2", "1e-17", "0", "1",
    )), seen


def test_roc_writer_refuses_a_json_path(tmp_path):
    curve = RocCurve(points=[RocPoint(threshold=0.5, fpr=0.0, tpr=1.0)], auroc=1.0)
    with pytest.raises(InvalidInputError, match="overwritten"):
        save_roc(curve, tmp_path / "roc.json")
    assert not (tmp_path / "roc.json").exists()


# --- ledger and dataset writers vs. the json.dump references ---------------------

_INT64_MAX = 2**63 - 1
_HUGE = 1e200  # two such sides make an area past the float range


def _random_categories(rng):
    source_ids = rng.sample(_IDS + [12, 99], rng.randint(1, 4))
    return [
        Category(id=m, name=rng.choice(_NAMES), source_id=src)
        for m, src in enumerate(source_ids, start=1)
    ]


def _random_columns(rng, n, num_classes, scored, huge=False):
    """``n`` boxes as columns, with ids past int64, floats without a short
    repr and, where ``scored``, a score on about half of them."""
    sizes = _SIZES + [_HUGE] * 3 if huge else _SIZES
    xywh = [
        [_pick(rng, _COORDS), _pick(rng, _COORDS), _pick(rng, sizes), _pick(rng, sizes)]
        for _ in range(n)
    ]
    return BoxColumns(
        ids=int_array([rng.choice(_IDS) + k for k in range(n)]),
        image_ids=int_array([rng.choice(_IDS) for _ in range(n)]),
        classes=np.array([rng.randint(1, num_classes) for _ in range(n)], dtype=np.int64),
        scores=np.array(
            [_pick(rng, _SCORES, spread=1.0) if scored and rng.random() < 0.5 else np.nan
             for _ in range(n)],
            dtype=np.float64,
        ),
        xywh=np.array(xywh, dtype=np.float64).reshape(n, 4),
    )


def _count_awkward_values(seen, ids, xywh):
    seen["id past int64"] += any(i > _INT64_MAX for i in ids)
    seen["no short repr"] += any(len(repr(v)) > 17 for v in xywh.ravel().tolist())
    seen["-0.0"] += any(map(_is_negative_zero, xywh.ravel().tolist()))


def _random_ledger(rng, seen):
    """A ledger with scored boxes, entries that lack an original or a
    perturbed box, and sometimes no entries at all."""
    categories = _random_categories(rng)
    n = 0 if rng.random() < 0.2 else rng.randint(1, 6)
    has_original = [rng.random() < 0.7 for _ in range(n)]
    has_perturbed = [rng.random() < 0.7 for _ in range(n)]
    original, perturbed = (
        _random_columns(rng, sum(present), len(categories), scored=True)
        for present in (has_original, has_perturbed)
    )
    ledger = NoiseLedger(LedgerColumns(
        annotation_ids=int_array([rng.choice(_IDS) for _ in range(n)]),
        kinds=np.array([rng.choice(list(NoiseKind)).value for _ in range(n)], dtype=str),
        original=original,
        has_original=np.array(has_original, dtype=bool),
        perturbed=perturbed,
        has_perturbed=np.array(has_perturbed, dtype=bool),
    ))
    seen["empty ledger"] += n == 0
    seen["no original"] += not all(has_original)
    seen["no perturbed"] += not all(has_perturbed)
    for boxes in (original, perturbed):
        seen["scored box"] += bool(boxes.predicted.any())
        ids = [*ledger.columns.annotation_ids.tolist(), *boxes.ids.tolist()]
        _count_awkward_values(seen, ids, boxes.xywh)
    return ledger, categories


def test_ledger_writer_matches_json_dump_reference(tmp_path, monkeypatch):
    seen = Counter()
    for seed in range(300):
        ledger, categories = _random_ledger(random.Random(seed), seen)
        reference_save_ledger(ledger, tmp_path / "ref.json", categories)
        for block in _BLOCKS:
            monkeypatch.setattr(dataset_io, "_BLOCK", block)
            save_ledger(ledger, tmp_path / "new.json", categories)
            ref = (tmp_path / "ref.json").read_bytes()
            assert (tmp_path / "new.json").read_bytes() == ref, (seed, block)
    assert all(seen[k] >= 20 for k in (
        "empty ledger", "no original", "no perturbed", "scored box", "id past int64",
        "no short repr", "-0.0",
    )), seen


def _random_dataset(rng, seen):
    """A dataset with escaped and non-ASCII names, huge images and ids, and
    boxes whose area overflows to infinity."""
    categories = _random_categories(rng)
    images = [
        ImageInfo(
            id=rng.choice(_IDS) + k,
            width=rng.choice([1, 640, 10**200]),
            height=rng.choice([1, 480, 10**200]),
            file_name=rng.choice(_NAMES),
        )
        for k in range(rng.randint(0, 3))
    ]
    n = 0 if rng.random() < 0.2 else rng.randint(1, 6)
    boxes = _random_columns(rng, n, len(categories), scored=False, huge=True)
    names = [c.name for c in categories] + [img.file_name for img in images]
    seen["escaped name"] += any(json.dumps(name)[1:-1] != name for name in names if name.isascii())
    seen["non-ASCII name"] += not all(name.isascii() for name in names)
    seen["no boxes"] += n == 0
    areas = [w * h for w, h in boxes.xywh[:, 2:].tolist()]
    seen["area past float range"] += float("inf") in areas
    _count_awkward_values(seen, boxes.ids.tolist(), boxes.xywh)
    return Dataset(images, categories, boxes)


def test_dataset_writer_matches_json_dump_reference(tmp_path):
    seen = Counter()
    for seed in range(300):
        ds = _random_dataset(random.Random(seed), seen)
        save_dataset(ds, tmp_path / "new.json")
        reference_save_dataset(ds, tmp_path / "ref.json")
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "ref.json").read_bytes(), seed
    assert all(seen[k] >= 20 for k in (
        "escaped name", "non-ASCII name", "no boxes", "area past float range", "id past int64",
        "no short repr",
    )), seen
