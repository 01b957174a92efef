"""Test-only slow reference for the ground-truth and prediction loaders: the
per-record ``load_ground_truth`` and ``load_predictions`` that
``boxaudit.dataset_io`` replaced with loaders that check each box list in
bulk and return columns.

The loaders and every helper they call are kept verbatim, with the
list-holding ``Dataset`` and ``PredictionSet`` they returned, so this module
fixes the checks, their order, the error texts and the box objects the new
loaders must reproduce.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from boxaudit.dataset_io import AnnotatedBox, Category, ImageInfo
from boxaudit.errors import (
    DanglingReferenceError,
    DuplicateIdError,
    FormatError,
    InvalidInputError,
    InvalidScoreError,
    MissingFileError,
)
from boxaudit.geometry import BBox


@dataclass
class Dataset:
    images: list[ImageInfo]
    categories: list[Category]
    annotations: list[AnnotatedBox]

    def image_map(self) -> dict[int, ImageInfo]:
        return {img.id: img for img in self.images}

    def source_to_dense(self) -> dict[int, int]:
        return {c.source_id: c.id for c in self.categories}


@dataclass
class PredictionSet:
    boxes: list[AnnotatedBox]


# --- JSON plumbing -----------------------------------------------------------
#
# Error messages name the offending value, e.g. "detections[12].bbox". The
# ``where`` arguments are callables that build that name, so the text is
# formatted only on the way to raising. Type tests compare ``type(v)`` with
# int and float: json.load yields exactly those (and bool, which is
# rejected), never subclasses of them.

_INT = "an integer"
_NUMBER = "a number"
_ANY = None
_MISSING = object()
_BBOX_FIELD = (("bbox", _ANY),)


def _read_json(path: str | Path) -> Any:
    p = Path(path)
    if not p.is_file():
        raise MissingFileError(f"no such file: {p}")
    try:
        with open(p, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as e:
        raise FormatError(
            f"{p}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from e


def _fields(obj: Any, spec: tuple, where: Callable[[], str]) -> list:
    """The values of JSON object ``obj`` under the keys of ``spec``, a tuple
    of (key, kind) pairs, checked in order: kind ``_INT`` takes an integer,
    ``_NUMBER`` a number (returned as a float), ``_ANY`` any value. The first
    missing key or wrong type raises a :class:`FormatError`."""
    if type(obj) is not dict:
        raise FormatError(f"{where()}: missing required key '{spec[0][0]}'")
    values = []
    for key, kind in spec:
        value = obj.get(key, _MISSING)
        if value is _MISSING:
            raise FormatError(f"{where()}: missing required key '{key}'")
        if kind is not _ANY and type(value) is not int:
            if kind is _INT or type(value) is not float:
                raise FormatError(f"{where()}.{key}: expected {kind}, got {value!r}")
        values.append(float(value) if kind is _NUMBER else value)
    return values


def _bbox_numbers(
    raw: Any, where: Callable[[], str], key: str
) -> tuple[float, float, float, float]:
    """Check that ``raw``, the value under ``key``, is an [x, y, w, h] list
    of 4 numbers."""
    if not isinstance(raw, (list, tuple)) or len(raw) != 4:
        raise FormatError(f"{where()}.{key}: must be a list of 4 numbers, got {raw!r}")
    for v in raw:
        if type(v) is not float and type(v) is not int:
            raise FormatError(f"{where()}.{key}: expected a number, got {v!r}")
    x, y, w, h = raw
    return float(x), float(y), float(w), float(h)


def _clamped_bbox(entry: dict, img: ImageInfo, where: Callable[[], str]) -> BBox:
    """Parse the entry's [x, y, w, h] ``bbox`` and clamp it to the image
    rectangle. (The conditional expressions are ``max(x, 0.0)`` and
    ``min(x + w, width)`` without the call overhead.)"""
    (raw,) = _fields(entry, _BBOX_FIELD, where)
    x, y, w, h = _bbox_numbers(raw, where, "bbox")
    width, height = float(img.width), float(img.height)
    x0 = 0.0 if 0.0 > x else x
    y0 = 0.0 if 0.0 > y else y
    x1 = width if width < x + w else x + w
    y1 = height if height < y + h else y + h
    if x1 - x0 <= 0 or y1 - y0 <= 0:
        raise InvalidInputError(
            f"{where()}: zero-area box after clamping to image {img.id} bounds"
        )
    return BBox(x0, y0, x1 - x0, y1 - y0)


# --- ground truth ------------------------------------------------------------

_IMAGE_FIELDS = (("id", _INT), ("width", _INT), ("height", _INT), ("file_name", _ANY))
_CATEGORY_FIELDS = (("id", _INT), ("name", _ANY))
_ANNOTATION_FIELDS = (("id", _INT), ("image_id", _INT), ("category_id", _INT))


def load_ground_truth(path: str | Path) -> Dataset:
    """Load and validate a COCO-format annotation file.

    Boxes are clamped to their image bounds; zero-area boxes, duplicate ids,
    and references to unknown images or categories are rejected with typed
    errors. ``iscrowd``, ``segmentation``, and ``area`` fields are accepted
    and ignored.
    """
    data = _read_json(path)
    if not isinstance(data, dict):
        raise FormatError(f"{path}: top level must be a JSON object")
    raw_images, raw_cats, raw_anns = _fields(
        data,
        (("images", _ANY), ("categories", _ANY), ("annotations", _ANY)),
        lambda: str(path),
    )
    for key, raw in (("images", raw_images), ("categories", raw_cats), ("annotations", raw_anns)):
        if not isinstance(raw, list):
            raise FormatError(f"{path}: '{key}' must be a list")

    images: list[ImageInfo] = []
    for i, entry in enumerate(raw_images):
        where = lambda: f"images[{i}]"
        img_id, width, height, file_name = _fields(entry, _IMAGE_FIELDS, where)
        if width <= 0 or height <= 0:
            raise FormatError(f"{where()}: image dimensions must be positive")
        images.append(ImageInfo(id=img_id, width=width, height=height, file_name=str(file_name)))
    _check_unique((img.id for img in images), "image")
    image_map = {img.id: img for img in images}

    sources: list[tuple[int, str]] = []
    for i, entry in enumerate(raw_cats):
        cat_id, name = _fields(entry, _CATEGORY_FIELDS, lambda: f"categories[{i}]")
        sources.append((cat_id, str(name)))
    _check_unique((cid for cid, _ in sources), "category")
    names = dict(sources)
    categories = [
        Category(id=dense, name=names[src], source_id=src)
        for dense, src in enumerate(sorted(names), start=1)
    ]
    source_to_dense = {c.source_id: c.id for c in categories}

    annotations: list[AnnotatedBox] = []
    for i, entry in enumerate(raw_anns):
        where = lambda: f"annotations[{i}]"
        ann_id, image_id, cat_id = _fields(entry, _ANNOTATION_FIELDS, where)
        if image_id not in image_map:
            raise DanglingReferenceError(f"{where()}: unknown image_id {image_id}")
        if cat_id not in source_to_dense:
            raise DanglingReferenceError(f"{where()}: unknown category_id {cat_id}")
        annotations.append(
            AnnotatedBox(
                id=ann_id,
                image_id=image_id,
                category_id=source_to_dense[cat_id],
                bbox=_clamped_bbox(entry, image_map[image_id], where),
            )
        )
    _check_unique((a.id for a in annotations), "annotation")

    return Dataset(images=images, categories=categories, annotations=annotations)


def _check_unique(ids, kind: str) -> None:
    seen: set[int] = set()
    for i in ids:
        if i in seen:
            raise DuplicateIdError(f"duplicate {kind} id {i}")
        seen.add(i)


# --- predictions --------------------------------------------------------------

_DETECTION_FIELDS = (("image_id", _INT), ("category_id", _INT), ("score", _NUMBER))


def load_predictions(path: str | Path, ds: Dataset) -> PredictionSet:
    """Load a COCO detection-results file against an already-loaded dataset.

    Entries are assigned fresh sequential ids. Unknown image or category ids
    and scores outside [0, 1] are rejected.
    """
    data = _read_json(path)
    if not isinstance(data, list):
        raise FormatError(f"{path}: top level must be a JSON list of detections")
    image_map = ds.image_map()
    source_to_dense = ds.source_to_dense()
    boxes: list[AnnotatedBox] = []
    for i, entry in enumerate(data):
        where = lambda: f"detections[{i}]"
        image_id, cat_id, score = _fields(entry, _DETECTION_FIELDS, where)
        if image_id not in image_map:
            raise DanglingReferenceError(f"{where()}: unknown image_id {image_id}")
        if cat_id not in source_to_dense:
            raise DanglingReferenceError(f"{where()}: unknown category_id {cat_id}")
        if not 0.0 <= score <= 1.0:
            raise InvalidScoreError(f"{where()}: score {score} outside [0, 1]")
        boxes.append(
            AnnotatedBox(
                id=i + 1,
                image_id=image_id,
                category_id=source_to_dense[cat_id],
                bbox=_clamped_bbox(entry, image_map[image_id], where),
                score=score,
            )
        )
    return PredictionSet(boxes=boxes)

