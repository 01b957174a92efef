"""The bulk-checking, columnar ground-truth and prediction loaders against
the per-record loaders they replaced (``loader_reference``): equal columns,
dtypes and box objects on valid files, which load without building a box
object, and the same exception type and text on invalid ones, except that
an integer past the float range is refused with a ``FormatError`` where the
reference lets an ``OverflowError`` escape."""

import copy
import json
import random
from collections import Counter

import numpy as np
import pytest

import loader_reference as reference
from boxaudit import pipeline
from boxaudit.dataset_io import AnnotatedBox, BoxColumns, load_ground_truth, load_predictions
from boxaudit.errors import FormatError
from boxaudit.noise_injection import NoiseKind, NoiseSpec

from harness import build_synthetic, write_synthetic
from test_fuzz_boundary import MUTATORS

BIG_IDS = [2**63 - 1, 2**63, 2**64 + 3, -(2**63) - 1, 10**30]
EXTRA_KEYS = {"iscrowd": 0, "area": 12.5, "segmentation": [[0, 0, 1, 0, 1, 1]]}


@pytest.fixture
def box_objects(monkeypatch):
    """A counter of the :class:`AnnotatedBox` objects built while it is in
    use."""
    built = Counter()
    post_init = AnnotatedBox.__post_init__

    def counting(self):
        built["boxes"] += 1
        post_init(self)

    monkeypatch.setattr(AnnotatedBox, "__post_init__", counting)
    return built


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except Exception as e:  # the reference's exception, whatever it is, must be matched
        return None, (type(e), str(e))


def _assert_same_columns(got: BoxColumns, want: BoxColumns):
    for name in ("ids", "image_ids", "classes", "scores", "xywh", "predicted"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        if a.dtype == np.float64:
            assert np.array_equal(a, b, equal_nan=True), name
            assert np.array_equal(np.signbit(a), np.signbit(b)), name  # -0.0 stays -0.0
        else:
            assert np.array_equal(a, b), name


def _coordinate(rng, lo, hi):
    """A coordinate in [lo, hi): an int, a float, or now and then -0.0."""
    kind = rng.random()
    if kind < 0.35:
        return rng.randint(lo, hi - 1)
    if kind < 0.5:
        return -0.0
    return rng.uniform(lo, hi)


def _bbox(rng, width, height):
    """A bbox with positive area after clamping to the image; it may start
    before the image and reach past its far edge, up to +Infinity."""
    bbox = []
    for size in (width, height):
        start = _coordinate(rng, -20, min(size, 10**6) - 2)
        extent = rng.randint(1, 30) if type(start) is int else rng.uniform(0.5, 30)
        if rng.random() < 0.05:
            extent = rng.choice([10**20, 1e300, float("inf")])
        bbox.append((start, max(-start, 0) + extent))
    (x, w), (y, h) = bbox
    return [x, y, w, h]


def _valid_files(rng, tmp_path, counts):
    num_images = rng.randint(0, 4)
    image_ids = rng.sample([1, 2, 3, 40, *BIG_IDS], num_images)
    images = [
        {"id": i, "width": rng.choice([50, 64, 100, 2**64]), "height": rng.choice([40, 77]),
         "file_name": f"{k}.jpg"}
        for k, i in enumerate(image_ids)
    ]
    source_ids = rng.sample([1, 5, 90, *BIG_IDS], rng.randint(1, 4))
    categories = [{"id": c, "name": f"c{c}"} for c in source_ids]
    ann_ids = rng.sample([*range(1, 50), *BIG_IDS], rng.randint(0, 12) if images else 0)
    annotations, detections = [], []
    for ann_id in ann_ids:
        img = rng.choice(images)
        ann = {"id": ann_id, "image_id": img["id"], "category_id": rng.choice(source_ids),
               "bbox": _bbox(rng, img["width"], img["height"])}
        if rng.random() < 0.3:
            ann.update(EXTRA_KEYS)
        annotations.append(ann)
    for _ in range(rng.randint(0, 12) if images else 0):
        img = rng.choice(images)
        score = rng.choice([0, 1, 0.0, 1.0, -0.0, 0.5, rng.random()])
        det = {"image_id": img["id"], "category_id": rng.choice(source_ids),
               "bbox": _bbox(rng, img["width"], img["height"]), "score": score}
        if rng.random() < 0.3:
            det["id"] = rng.randint(1, 5)  # ignored: detections get fresh ids
        detections.append(det)
    rng.shuffle(annotations)

    boxes = [v for a in annotations + detections for v in a["bbox"]]
    counts["int coordinate"] += any(type(v) is int for v in boxes)
    counts["float coordinate"] += any(type(v) is float for v in boxes)
    counts["-0.0"] += any(str(v) == "-0.0" for v in boxes)
    sizes = {img["id"]: (img["width"], img["height"]) for img in images}
    counts["+Infinity extent"] += any(v == float("inf") for v in boxes)
    counts["clamped"] += any(
        x < 0 or y < 0 or x + w > sizes[a["image_id"]][0] or y + h > sizes[a["image_id"]][1]
        for a in annotations + detections
        for x, y, w, h in [a["bbox"]]
    )
    counts["id past int64"] += any(abs(i) >= 2**63 for i in ann_ids + image_ids + source_ids)
    counts["extra keys"] += any("iscrowd" in a for a in annotations)
    counts["no annotations"] += not annotations
    counts["no detections"] += not detections
    counts["score 1"] += any(d["score"] == 1 for d in detections)

    gt = tmp_path / "gt.json"
    preds = tmp_path / "preds.json"
    gt.write_text(json.dumps({"images": images, "categories": categories,
                              "annotations": annotations}))
    preds.write_text(json.dumps(detections))
    return gt, preds


def test_valid_files_load_as_reference_columns(tmp_path, box_objects):
    counts = Counter()
    for seed in range(400):
        gt, preds = _valid_files(random.Random(seed), tmp_path, counts)
        box_objects.clear()
        ds = load_ground_truth(gt)
        predictions = load_predictions(preds, ds)
        assert not box_objects, seed  # valid lists load through the bulk checks

        want_ds = reference.load_ground_truth(gt)
        want = reference.load_predictions(preds, want_ds)
        assert (ds.images, ds.categories) == (want_ds.images, want_ds.categories), seed
        _assert_same_columns(ds.columns, BoxColumns.of(want_ds.annotations))
        _assert_same_columns(predictions.columns, BoxColumns.of(want.boxes))
        # repr tells -0.0 from 0.0 and an int from a float
        assert ds.annotations == want_ds.annotations, seed
        assert repr(ds.annotations) == repr(want_ds.annotations), seed
        assert predictions.boxes == want.boxes, seed
        assert repr(predictions.boxes) == repr(want.boxes), seed
    assert all(counts[k] >= 20 for k in (
        "int coordinate", "float coordinate", "-0.0", "+Infinity extent", "clamped",
        "id past int64", "extra keys", "no annotations", "no detections", "score 1",
    )), counts


def _break_one(rng, gt, detections):
    """Invalidate one annotation or detection in a way the fuzz mutators do
    not: an empty box after clamping, a negative-zero or tiny width, a box
    past float range, a score just outside [0, 1], a repeated id or a
    non-list bbox. Returns the name of the broken value when it is an
    integer past the float range, else None."""
    name, record = rng.choice(
        [(f"annotations[{k}]", a) for k, a in enumerate(gt["annotations"])]
        + [(f"detections[{k}]", d) for k, d in enumerate(detections)]
    )
    x, y, w, h = record["bbox"]
    change = rng.choice([
        ("bbox", [900.0, y, w, h]),  # starts past the right edge
        ("bbox", [x, -50, w, 10]),  # ends above the top edge
        ("bbox", [x, y, -0.0, h]),
        ("bbox", [x, y, 0, h]),
        ("bbox", [x, y, -1e-300, h]),
        ("bbox", [x, y, 10**400, h]),
        ("bbox", [x, y, 1e308, 1e308]),
        ("bbox", [-1e308, y, -1e308, h]),
        ("bbox", {"x": x}),
        ("score", 1.0000000000000002),
        ("score", -5e-324),
        ("score", 10**400),
        ("id", gt["annotations"][0]["id"]),
    ])
    key, value = change
    record[key] = value
    read = key == "bbox" or name.startswith("detections")  # annotations carry no score
    return f"{name}.{key}" if read and 10**400 in (value if key == "bbox" else [value]) else None


def _load_pair(gt, preds, loaders):
    load_gt, load_preds = loaders
    return load_preds(preds, load_gt(gt)).boxes


def _same_outcome(gt, preds, seed):
    got, got_error = _outcome(_load_pair, gt, preds, (load_ground_truth, load_predictions))
    want, want_error = _outcome(
        _load_pair, gt, preds, (reference.load_ground_truth, reference.load_predictions)
    )
    assert got_error == want_error, seed
    assert repr(got) == repr(want), seed
    return want_error


@pytest.mark.parametrize("kind", ["gt", "predictions"])
def test_mutated_files_raise_as_reference(kind, tmp_path):
    """The fuzz test's mutators: the same exception type and text."""
    gt_payload, preds_payload = build_synthetic(num_images=6, boxes_per_image=4, num_classes=4,
                                                seed=3)
    gt, preds = tmp_path / "gt.json", tmp_path / "preds.json"
    gt.write_text(json.dumps(gt_payload))
    preds.write_text(json.dumps(preds_payload))
    errors = Counter()
    for seed in range(300):
        rng = random.Random(f"{kind}-{seed}")
        original = gt_payload if kind == "gt" else preds_payload
        mutated = tmp_path / "mutated.json"
        mutated.write_text(json.dumps(MUTATORS[kind](rng, copy.deepcopy(original))))
        if kind == "gt":
            error = _same_outcome(mutated, preds, seed)
        else:
            error = _same_outcome(gt, mutated, seed)
        errors[error[0].__name__ if error else None] += 1
    assert None not in errors and len(errors) >= 3, errors


def test_broken_boxes_and_scores_raise_as_reference(tmp_path):
    errors = Counter()
    for seed in range(300):
        rng = random.Random(seed)
        gt_payload, detections = build_synthetic(num_images=3, boxes_per_image=3, num_classes=3,
                                                 seed=seed)
        past_range = _break_one(rng, gt_payload, detections)
        gt, preds = tmp_path / "gt.json", tmp_path / "preds.json"
        gt.write_text(json.dumps(gt_payload))
        preds.write_text(json.dumps(detections))
        if past_range is None:
            error = _same_outcome(gt, preds, seed)
        else:
            # the reference lets float() raise; the loaders word the error
            _, want_error = _outcome(
                _load_pair, gt, preds, (reference.load_ground_truth, reference.load_predictions)
            )
            assert want_error[0] is OverflowError, seed
            error = (FormatError, f"{past_range}: integer past the float range")
            assert _outcome(_load_pair, gt, preds, (load_ground_truth, load_predictions)) == (
                None, error
            ), seed
        errors[error[0].__name__ if error else None] += 1
    assert len(errors) >= 4 and errors["FormatError"] >= 20, errors


def test_detect_and_roc_build_no_box_objects(tmp_path, box_objects):
    """inject, detect, eval and roc work on columns from load to write, the
    ledger's boxes included."""
    gt, preds = write_synthetic(tmp_path, num_images=6, boxes_per_image=5, seed=3)
    noise = tmp_path / "noise"
    box_objects.clear()
    pipeline.cmd_inject(pipeline.PipelineConfig(
        ground_truth=gt, noise=NoiseSpec(NoiseKind.MISSING, 0.2, seed=1), output_dir=noise,
    ))
    assert box_objects["boxes"] == 0
    noisy, ledger = noise / "noisy.json", noise / "ledger.json"
    detect_out, roc_out = tmp_path / "detect", tmp_path / "roc"

    box_objects.clear()
    pipeline.cmd_detect(pipeline.PipelineConfig(
        ground_truth=noisy, predictions=preds, mode="score_threshold", tau=1.0,
        output_dir=detect_out,
    ))
    assert box_objects["boxes"] == 0

    for kind, amplitude in [(NoiseKind.UNIFORM_LABEL, None), (NoiseKind.LOCATION, 0.3),
                            (NoiseKind.SCALE, 0.3), (NoiseKind.SPURIOUS, None),
                            (NoiseKind.MISSING, None)]:
        box_objects.clear()
        pipeline.cmd_eval(pipeline.PipelineConfig(
            ground_truth=gt, predictions=preds, runs=2,
            noise=NoiseSpec(kind, 0.3, amplitude, seed=4), output_dir=tmp_path / "eval",
        ))
        assert box_objects["boxes"] == 0, kind

    entries = json.loads(ledger.read_text())["entries"]
    assert sum(e.get(side) is not None for e in entries for side in ("original", "perturbed")) > 0
    box_objects.clear()
    pipeline.cmd_roc(pipeline.PipelineConfig(
        ground_truth=noisy, report=detect_out / "report.json", ledger=ledger,
        sweep="dense", output_dir=roc_out,
    ))
    assert box_objects["boxes"] == 0
