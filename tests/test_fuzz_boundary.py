"""Seeded fuzzing of the file boundary: every mutated ground-truth,
prediction, ledger or report file makes ``cli.main`` return 1 with exactly
one ``error[...]`` line, and never raise.

Each mutation is drawn so that it always makes the file invalid: wrong
types and arities, non-object entries, missing keys, ``NaN``/``Infinity``
tokens, bools where ints belong, ints beyond int64 where they must name
something, repeated ids, and the report verdicts ``load_report`` rejects (scores outside
[0, 1], non-bool ``flagged``, unknown kinds, repeated and dangling ids).
"""

from __future__ import annotations

import copy
import json
import random

import pytest

from boxaudit.cli import main

from harness import write_synthetic

NAN, INF = float("nan"), float("inf")
BAD_INTS = ["1", 1.5, True, False, None, [1], {}, NAN, INF]
BAD_SCORES = ["0.5", True, None, [0.5], NAN, INF, -INF, 1.5, -0.5, 2**70]
UNKNOWN_IDS = [2**64, 2**63, -(2**70), 10**30]
NON_OBJECTS = [5, "x", [], True, 2.5]


def _bad_bbox(rng, can_be_null: bool, clamped: bool):
    """A bbox value that no loader accepts. Ground-truth and prediction
    boxes are clamped to their image, so there only a non-finite x or y or
    a width or height of -Infinity is sure to fail."""
    shapes = [[1, 2, 3], [1, 2, 3, 4, 5], [], "abc", 5, {}, [1, "2", 3, 4], [1, 2, True, 4]]
    if can_be_null:
        shapes.append(None)
    bbox = [10.0, 10.0, 20.0, 20.0]
    slot = rng.randrange(4)
    if clamped and slot >= 2:
        bbox[slot] = rng.choice([NAN, -INF])
    else:
        bbox[slot] = rng.choice([NAN, INF, -INF])
    return rng.choice(shapes) if rng.random() < 0.5 else bbox


def _break(rng, record: dict, *, required=(), ints=(), refs=(), scores=(), bbox=None,
           values=()) -> None:
    """Break one field of ``record``: drop a ``required`` key, give an
    ``ints`` field a non-integer, a ``refs`` field an unknown id, a
    ``scores`` field a bad score, the ``bbox`` field (a key and a value
    maker) a bad box, or set one of the (key, value) pairs of ``values``."""
    choices = [(k, lambda: _DROP) for k in required]
    choices += [(k, lambda: rng.choice(BAD_INTS)) for k in ints]
    choices += [(k, lambda: rng.choice(UNKNOWN_IDS)) for k in refs]
    choices += [(k, lambda: rng.choice(BAD_SCORES)) for k in scores]
    if bbox is not None:
        choices.append((bbox[0], lambda: bbox[1](rng)))
    choices += [(k, lambda v=v: v) for k, v in values]
    key, value = rng.choice(choices)
    value = value()
    if value is _DROP:
        del record[key]
    else:
        record[key] = value


_DROP = object()


def _mutate_gt(rng, gt):
    what = rng.choice(
        ["top", "list", "entry", "repeat", "image", "category", "annotation", "annotation"]
    )
    if what == "top":
        return rng.choice([[], 5, "x", {"images": []}])
    if what == "repeat":
        key = rng.choice(["images", "categories", "annotations"])
        gt[key].append(dict(rng.choice(gt[key])))
    if what == "list":
        gt[rng.choice(["images", "categories", "annotations"])] = rng.choice([{}, 5, "x", None])
    elif what == "entry":
        key = rng.choice(["images", "categories", "annotations"])
        gt[key][rng.randrange(len(gt[key]))] = rng.choice([*NON_OBJECTS, None])
    elif what == "image":
        # every image holds annotations, so a new image id leaves them dangling
        _break(rng, rng.choice(gt["images"]), required=["id", "width", "height", "file_name"],
               ints=["id", "width", "height"], refs=["id"])
    elif what == "category":
        _break(rng, rng.choice(gt["categories"]), required=["id", "name"], ints=["id"])
    else:
        _break(rng, rng.choice(gt["annotations"]),
               required=["id", "image_id", "category_id", "bbox"],
               ints=["id", "image_id", "category_id"], refs=["image_id", "category_id"],
               bbox=("bbox", lambda r: _bad_bbox(r, can_be_null=True, clamped=True)))
    return gt


def _mutate_predictions(rng, preds):
    what = rng.choice(["top", "entry", "detection", "detection", "detection"])
    if what == "top":
        return rng.choice([{}, 5, "x", {"detections": preds}])
    if what == "entry":
        preds[rng.randrange(len(preds))] = rng.choice([*NON_OBJECTS, None])
    else:
        _break(rng, rng.choice(preds), required=["image_id", "category_id", "score", "bbox"],
               ints=["image_id", "category_id"], refs=["image_id", "category_id"],
               scores=["score"],
               bbox=("bbox", lambda r: _bad_bbox(r, can_be_null=True, clamped=True)))
    return preds


def _mutate_ledger(rng, ledger):
    what = rng.choice(["top", "entries", "entry", "fields", "box", "box", "box"])
    entries = ledger["entries"]
    entry = rng.choice(entries)
    if what == "top":
        return rng.choice([[], 5, {"entry": entries}])
    if what == "entries":
        ledger["entries"] = rng.choice([{}, 5, "x", None])
    elif what == "entry":
        entries[entries.index(entry)] = rng.choice([*NON_OBJECTS, None])
    elif what == "fields":
        _break(rng, entry, required=["annotation_id", "noise_type"], ints=["annotation_id"],
               values=[("noise_type", 7), ("noise_type", "bogus"), ("noise_type", None),
                       ("original", rng.choice(NON_OBJECTS)),
                       ("perturbed", rng.choice(NON_OBJECTS))])
    else:
        _break(rng, entry["original"], required=["id", "image_id", "category_id", "bbox"],
               ints=["id", "image_id", "category_id"], refs=["image_id", "category_id"],
               bbox=("bbox", lambda r: _bad_bbox(r, can_be_null=True, clamped=False)))
    return ledger


def _mutate_report(rng, report):
    what = rng.choice(["top", "verdicts", "entry", "verdict", "verdict", "verdict", "repeat"])
    verdicts = report["verdicts"]
    annotated = [v for v in verdicts if v["annotation_id"] is not None]
    if what == "top":
        return rng.choice([[], 5, {"verdict": verdicts}])
    if what == "verdicts":
        report["verdicts"] = rng.choice([{}, 5, "x", None])
    elif what == "entry":
        verdicts[rng.randrange(len(verdicts))] = rng.choice([*NON_OBJECTS, None])
    elif what == "repeat":
        verdicts.insert(rng.randrange(len(verdicts) + 1), dict(rng.choice(annotated)))
    else:
        verdict = rng.choice(verdicts)
        # a null annotation_id makes a region verdict, which is valid
        ann = ["annotation_id"] if verdict["annotation_id"] is not None else []
        _break(rng, verdict, required=["cluster_id", "image_id", "quality_score", "verdict_kind"],
               ints=["cluster_id", "image_id"], refs=["image_id", *ann], scores=["quality_score"],
               bbox=("region", lambda r: _bad_bbox(r, can_be_null=False, clamped=False)),
               values=[("flagged", "no"), ("flagged", 1), ("flagged", None),
                       ("verdict_kind", 7), ("verdict_kind", "bogus"), ("verdict_kind", None),
                       *(("annotation_id", v) for v in BAD_INTS if v is not None and ann)])
    return report


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """A missing-noise injection over a small synthetic dataset and a full
    score_threshold report over the noisy dataset."""
    root = tmp_path_factory.mktemp("fuzz")
    gt, preds = write_synthetic(root, num_images=6, boxes_per_image=4, num_classes=4, seed=3)
    assert main(["inject", "--ground-truth", str(gt), "--noise-kind", "missing",
                 "--fraction", "0.3", "--seed", "1", "--output-dir", str(root / "inj")]) == 0
    noisy, ledger = root / "inj" / "noisy.json", root / "inj" / "ledger.json"
    assert main(["detect", "--ground-truth", str(noisy), "--predictions", str(preds),
                 "--mode", "score_threshold", "--tau", "1.0", "--output-dir", str(root / "det")]) == 0
    return {"gt": gt, "predictions": preds, "noisy": noisy, "ledger": ledger,
            "report": root / "det" / "report.json"}


def _argv(kind, files, mutated):
    f = {**files, {"gt": "gt", "predictions": "predictions", "ledger": "ledger",
                   "report": "report"}[kind]: mutated}
    if kind in ("gt", "predictions"):
        return ["detect", "--ground-truth", str(f["gt"]), "--predictions", str(f["predictions"])]
    return ["roc", "--ground-truth", str(f["noisy"]), "--report", str(f["report"]),
            "--ledger", str(f["ledger"]), "--sweep", "dense"]


MUTATORS = {
    "gt": _mutate_gt,
    "predictions": _mutate_predictions,
    "ledger": _mutate_ledger,
    "report": _mutate_report,
}


@pytest.mark.parametrize("kind", sorted(MUTATORS))
def test_mutated_file_gives_one_error_line(kind, valid_files, tmp_path, capsys):
    original = json.loads(valid_files[kind].read_text())
    capsys.readouterr()
    categories = set()
    for seed in range(150):
        rng = random.Random(f"{kind}-{seed}")
        payload = MUTATORS[kind](rng, copy.deepcopy(original))
        mutated = tmp_path / f"{kind}-{seed}.json"
        mutated.write_text(json.dumps(payload))
        out = tmp_path / f"out-{seed}"
        rc = main([*_argv(kind, valid_files, mutated), "--output-dir", str(out)])
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert rc == 1 and len(lines) == 1 and lines[0].startswith("error["), (seed, payload, captured)
        categories.add(lines[0].split("]")[0] + "]")
    assert len(categories) >= 3, categories
