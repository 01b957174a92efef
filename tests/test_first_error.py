"""Which error a loader raises for a list with several bad records: the
lowest failing record, worded by the first check it fails, even where a
check that comes later in the record's order fails at a lower index than
an earlier check. Duplicate image, category and annotation ids are checked
for the whole list, after every record; a repeated report annotation_id is
an error of its record."""

import json

import pytest

from boxaudit.dataset_io import (
    AnnotatedBox,
    BoxColumns,
    Category,
    Dataset,
    ImageInfo,
    load_ground_truth,
    load_ledger,
    load_predictions,
    load_report,
)
from boxaudit.errors import (
    DanglingReferenceError,
    DuplicateIdError,
    FormatError,
    InvalidInputError,
    InvalidScoreError,
)
from boxaudit.geometry import BBox

IMAGES = [{"id": i, "width": 100, "height": 80, "file_name": f"{i}.jpg"} for i in (1, 2)]
CATEGORIES = [{"id": 7, "name": "cat"}, {"id": 9, "name": "dog"}]


def _annotation(ann_id, **changes):
    return {"id": ann_id, "image_id": 1, "category_id": 7, "bbox": [1, 2, 30, 40], **changes}


def _detection(**changes):
    return {"image_id": 2, "category_id": 9, "score": 0.5, "bbox": [5.0, 5.0, 10, 10], **changes}


def _gt(tmp_path, images=IMAGES, categories=CATEGORIES, annotations=()):
    path = tmp_path / "gt.json"
    path.write_text(json.dumps(
        {"images": images, "categories": categories, "annotations": list(annotations)}
    ))
    return path


def _raises(error, message, load, *args):
    with pytest.raises(error) as caught:
        load(*args)
    assert str(caught.value) == message


def test_annotations_later_check_at_lower_index(tmp_path):
    anns = [_annotation(k) for k in range(1, 7)]
    anns[2]["image_id"] = 999  # checked after the ids' types
    anns[5]["id"] = "6"
    _raises(DanglingReferenceError, "annotations[2]: unknown image_id 999",
            load_ground_truth, _gt(tmp_path, annotations=anns))


def test_images_and_categories_later_check_at_lower_index(tmp_path):
    images = [*IMAGES, {"id": 3, "width": 100, "height": 80, "file_name": "3.jpg"}]
    images[1] = {**images[1], "height": 0}  # positive sizes come after every type
    del images[2]["file_name"]
    _raises(FormatError, "images[1]: image dimensions must be positive",
            load_ground_truth, _gt(tmp_path, images=images))

    categories = [*CATEGORIES, {"name": "bird"}]
    categories[1] = {"id": 9, "name": 9}  # the name comes after the id
    _raises(FormatError, "categories[1].name: expected a string, got 9",
            load_ground_truth, _gt(tmp_path, categories=categories))


def test_duplicate_annotation_id_comes_after_every_record(tmp_path):
    anns = [_annotation(1), _annotation(1), _annotation(2), _annotation(3, bbox=[200, 2, 5, 5])]
    _raises(InvalidInputError, "annotations[3]: zero-area box after clamping to image 1 bounds",
            load_ground_truth, _gt(tmp_path, annotations=anns))
    del anns[3]
    _raises(DuplicateIdError, "duplicate annotation id 1",
            load_ground_truth, _gt(tmp_path, annotations=anns))


def test_detections_later_check_at_lower_index(tmp_path):
    ds = load_ground_truth(_gt(tmp_path))
    path = tmp_path / "preds.json"
    dets = [_detection() for _ in range(5)]
    dets[1]["score"] = 2  # the range comes after every type and reference
    dets[4] = ["not", "an", "object"]
    path.write_text(json.dumps(dets))
    _raises(InvalidScoreError, "detections[1]: score 2.0 outside [0, 1]",
            load_predictions, path, ds)

    dets[0]["bbox"] = [150, 5, 10, 10]  # clamping comes last
    dets[1] = _detection(category_id=8)
    dets[3] = _detection(bbox=[1, 2, "3", 4])
    path.write_text(json.dumps(dets))
    _raises(InvalidInputError, "detections[0]: zero-area box after clamping to image 2 bounds",
            load_predictions, path, ds)

    # within one record, the references before the score's range
    path.write_text(json.dumps([_detection(), _detection(category_id=8, score=-1)]))
    _raises(DanglingReferenceError, "detections[1]: unknown category_id 8",
            load_predictions, path, ds)


def _ledger_box(**changes):
    return {"id": 4, "image_id": 1, "category_id": 7, "bbox": [1.0, 2.0, 3.0, 4.0], **changes}


def test_ledger_later_check_at_lower_index(tmp_path):
    ds = load_ground_truth(_gt(tmp_path))
    path = tmp_path / "ledger.json"

    def entries_raise(entries, error, message):
        path.write_text(json.dumps({"entries": entries}))
        _raises(error, message, load_ledger, path, ds)

    entries = [{"annotation_id": k, "noise_type": "location", "original": _ledger_box(),
                "perturbed": _ledger_box()} for k in range(4)]
    entries[1]["perturbed"]["image_id"] = 999  # box checks come after the entry's own
    entries[3]["noise_type"] = "bogus"
    entries_raise(entries, DanglingReferenceError, "entries[1].perturbed: unknown image_id 999")

    # within one entry: the original box before the perturbed one, and a
    # box's bbox before the types of its id and image_id
    entries[1]["original"]["bbox"] = [1.0, 2.0, 3.0]
    entries[1]["original"]["id"] = "4"
    entries_raise(entries, FormatError,
                  "entries[1].original.bbox: must be a list of 4 numbers, got [1.0, 2.0, 3.0]")
    entries[0]["original"]["bbox"] = [1.0, 2.0, -3.0, 4.0]  # a BBox comes last
    entries[0]["perturbed"] = {"bbox": [1.0, 2.0, 3.0, 4.0]}
    entries_raise(entries, InvalidInputError,
                  "degenerate box: width and height must be > 0, got w=-3.0, h=4.0")


def test_ledger_boxes_that_do_not_fit_the_kind_are_its_last_check(tmp_path):
    """Whether an entry's boxes fit its noise type is checked after its
    boxes, yet a lower entry that fails it is still the error."""
    ds = load_ground_truth(_gt(tmp_path))
    path = tmp_path / "ledger.json"

    def entries_raise(entries, error, message):
        path.write_text(json.dumps({"entries": entries}))
        _raises(error, message, load_ledger, path, ds)

    misfit = ("boxes do not fit noise_type {!r}: missing has only an original, "
              "spurious only a perturbed and the other kinds both")
    entries = [{"annotation_id": 1, "noise_type": "missing", "perturbed": _ledger_box()},
               {"annotation_id": 2, "noise_type": "scale", "original": _ledger_box(),
                "perturbed": _ledger_box(image_id=999)}]
    entries_raise(entries, FormatError, "entries[0]: " + misfit.format("missing"))

    # within one entry, a bad box comes before the misfit
    entries[0]["perturbed"]["category_id"] = 8
    entries_raise(entries, DanglingReferenceError, "entries[0].perturbed: unknown category_id 8")

    entries[0] = {"annotation_id": 1, "noise_type": "missing", "original": _ledger_box()}
    entries_raise(entries, DanglingReferenceError, "entries[1].perturbed: unknown image_id 999")
    entries[1]["perturbed"] = None
    entries_raise(entries, FormatError, "entries[1]: " + misfit.format("scale"))


def _dataset():
    boxes = [AnnotatedBox(a, 1, 1, BBox(1.0, 2.0, 3.0, 4.0)) for a in (1, 2, 3)]
    return Dataset([ImageInfo(1, 100, 80, "1.jpg")], [Category(1, "cat", 7)], BoxColumns.of(boxes))


def _verdict(ann_id, **changes):
    return {"annotation_id": ann_id, "cluster_id": 1, "image_id": 1, "quality_score": 0.5,
            "verdict_kind": "ok", "flagged": False, "region": None, **changes}


def test_report_later_check_at_lower_index(tmp_path):
    path = tmp_path / "report.json"

    def verdicts_raise(verdicts, error, message):
        path.write_text(json.dumps({"verdicts": verdicts}))
        _raises(error, message, load_report, path, _dataset())

    verdicts = [_verdict(1), _verdict(77), _verdict(None, region=[1, 2, 3, 4]), _verdict(3), 5]
    verdicts_raise(verdicts, DanglingReferenceError, "verdicts[1]: unknown annotation_id 77")

    # a repeated annotation_id is refused at its record, before a later
    # record's score
    verdicts = [_verdict(1), _verdict(2), _verdict(1), _verdict(3, quality_score=1.5)]
    verdicts_raise(verdicts, DuplicateIdError, "verdicts[2]: duplicate annotation_id 1")

    verdicts = [_verdict(1), _verdict(None, region=[1, 2, 0, 4]), _verdict(2, flagged=None)]
    verdicts_raise(verdicts, InvalidInputError,
                   "degenerate box: width and height must be > 0, got w=0.0, h=4.0")
