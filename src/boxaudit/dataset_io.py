"""Parsing, validation, and persistence of datasets, predictions, ledgers,
and reports.

Ground truth uses the COCO annotation format, predictions the COCO
detection-results format. Category ids are remapped to a dense 1..M index at
ingestion; files always carry the original (source) ids.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from boxaudit.errors import (
    DanglingReferenceError,
    DuplicateIdError,
    FormatError,
    InvalidInputError,
    InvalidScoreError,
    MissingFileError,
)
from boxaudit.geometry import BBox

if TYPE_CHECKING:
    from boxaudit.confident_learning import VerdictTable
    from boxaudit.evaluation import RocCurve
    from boxaudit.noise_injection import NoiseLedger
    from boxaudit.pipeline import DetectionResult

__all__ = [
    "BoxSource",
    "ImageInfo",
    "Category",
    "AnnotatedBox",
    "Dataset",
    "PredictionSet",
    "BoxColumns",
    "load_ground_truth",
    "load_predictions",
    "save_dataset",
    "save_ledger",
    "load_ledger",
    "save_report",
    "load_report",
    "save_roc",
]


class BoxSource(str, Enum):
    ORIGINAL = "original"
    PREDICTED = "predicted"


@dataclass(frozen=True)
class ImageInfo:
    id: int
    width: int
    height: int
    file_name: str


@dataclass(frozen=True)
class Category:
    """A class label: ``id`` is the dense internal index in 1..M,
    ``source_id`` the id used in files."""

    id: int
    name: str
    source_id: int


@dataclass(frozen=True)
class AnnotatedBox:
    """A labeled box, either a ground-truth annotation or a model prediction.

    ``score`` is present exactly when ``source`` is predicted.
    """

    id: int
    image_id: int
    category_id: int
    bbox: BBox
    source: BoxSource = BoxSource.ORIGINAL
    score: float | None = None

    def __post_init__(self):
        if (self.score is not None) != (self.source == BoxSource.PREDICTED):
            raise InvalidInputError(
                f"annotation {self.id}: score must be present iff the box is predicted"
            )
        if self.score is not None and not 0.0 <= self.score <= 1.0:
            raise InvalidScoreError(
                f"annotation {self.id}: score {self.score} outside [0, 1]"
            )


def int_array(values) -> np.ndarray:
    """Integers as an int64 array, or as an array of Python ints when some
    lie beyond int64."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


_BBOX = attrgetter("bbox")
_XYWH = attrgetter("x", "y", "w", "h")


@dataclass(frozen=True, eq=False)
class BoxColumns:
    """A list of boxes as columns: entry k of every array describes box k.
    Integer columns are int64, or Python ints past int64. ``items`` holds
    the boxes as :class:`AnnotatedBox` objects, built on first access unless
    the columns were made from objects."""

    ids: np.ndarray
    image_ids: np.ndarray
    classes: np.ndarray  # dense category ids
    scores: np.ndarray  # float64, NaN where a box has no score
    xywh: np.ndarray  # (n, 4) float64
    _items: list[AnnotatedBox] | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def predicted(self) -> np.ndarray:
        """Whether each box is a prediction: a box has a score iff it is."""
        return ~np.isnan(self.scores)

    @property
    def items(self) -> list[AnnotatedBox]:
        if self._items is None:
            rows = zip(
                self.ids.tolist(),
                self.image_ids.tolist(),
                self.classes.tolist(),
                self.xywh.tolist(),
                self.predicted.tolist(),
                self.scores.tolist(),
            )
            object.__setattr__(self, "_items", [
                AnnotatedBox(i, image_id, c, BBox(*xywh), BoxSource.PREDICTED, score)
                if predicted
                else AnnotatedBox(i, image_id, c, BBox(*xywh))
                for i, image_id, c, xywh, predicted, score in rows
            ])
        return self._items

    @classmethod
    def of(cls, boxes: list[AnnotatedBox]) -> BoxColumns:
        """The columns of ``boxes``, which are kept as the items."""
        n = len(boxes)
        return cls(
            ids=int_array([b.id for b in boxes]),
            image_ids=int_array([b.image_id for b in boxes]),
            classes=int_array([b.category_id for b in boxes]),
            scores=np.array([b.score for b in boxes], dtype=np.float64),
            xywh=np.fromiter(
                chain.from_iterable(map(_XYWH, map(_BBOX, boxes))), np.float64, 4 * n
            ).reshape(n, 4),
            _items=list(boxes),
        )

    @classmethod
    def join(cls, first: BoxColumns, second: BoxColumns) -> BoxColumns:
        """The boxes of ``first`` followed by those of ``second``, as columns
        only."""
        return cls(*(
            np.concatenate((getattr(first, name), getattr(second, name)))
            for name in ("ids", "image_ids", "classes", "scores", "xywh")
        ))


def _as_columns(boxes: list[AnnotatedBox] | BoxColumns) -> BoxColumns:
    return boxes if isinstance(boxes, BoxColumns) else BoxColumns.of(boxes)


class Dataset:
    """Images, categories and annotations. The annotations are given as
    :class:`AnnotatedBox` objects or as :class:`BoxColumns` and held as
    ``columns``; ``annotations`` gives them as objects."""

    def __init__(
        self,
        images: list[ImageInfo],
        categories: list[Category],
        annotations: list[AnnotatedBox] | BoxColumns,
    ):
        self.images = images
        self.categories = categories
        self.columns = _as_columns(annotations)

    @property
    def annotations(self) -> list[AnnotatedBox]:
        return self.columns.items

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (self.images, self.categories, self.annotations) == (
            other.images, other.categories, other.annotations
        )

    @property
    def num_categories(self) -> int:
        return len(self.categories)

    def image_map(self) -> dict[int, ImageInfo]:
        return {img.id: img for img in self.images}

    def dense_to_source(self) -> dict[int, int]:
        return {c.id: c.source_id for c in self.categories}

    def source_to_dense(self) -> dict[int, int]:
        return {c.source_id: c.id for c in self.categories}


class PredictionSet:
    """Out-of-sample model detections for a companion :class:`Dataset`,
    given as :class:`AnnotatedBox` objects or as :class:`BoxColumns` and
    held as ``columns``; ``boxes`` gives them as objects.

    Whether the predictions really are out-of-sample (the model never trained
    on the audited images) is the caller's responsibility; it cannot be
    checked from the files.
    """

    def __init__(self, boxes: list[AnnotatedBox] | BoxColumns):
        self.columns = _as_columns(boxes)

    @property
    def boxes(self) -> list[AnnotatedBox]:
        return self.columns.items


# --- JSON plumbing -----------------------------------------------------------
#
# Error messages name the offending value, e.g. "detections[12].bbox". The
# ``where`` arguments are callables that build that name, so the text is
# formatted only on the way to raising. Type tests compare ``type(v)`` with
# int and float: json.load yields exactly those (and bool, which is
# rejected), never subclasses of them.

_INT = "an integer"
_NUMBER = "a number"
_STR = "a string"
_ANY = None
_TYPES = {_INT: {int}, _NUMBER: {int, float}, _STR: {str}}
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
    except (ValueError, RecursionError) as e:  # a too-long integer, non-UTF-8 bytes, deep nesting
        raise FormatError(f"{p}: invalid JSON: {e}") from e


def _float(value: int | float, where: Callable[[], str], key: str) -> float:
    """``value``, the number under ``key``, as a float; an integer past the
    float range raises a :class:`FormatError`."""
    try:
        return float(value)
    except OverflowError:
        raise FormatError(f"{where()}.{key}: integer past the float range") from None


def _fields(obj: Any, spec: tuple, where: Callable[[], str]) -> list:
    """The values of JSON object ``obj`` under the keys of ``spec``, a tuple
    of (key, kind) pairs, checked in order: kind ``_INT`` takes an integer,
    ``_NUMBER`` a number (returned as a float), ``_STR`` a string, ``_ANY``
    any value. The first missing key or wrong type raises a
    :class:`FormatError`."""
    if type(obj) is not dict:
        raise FormatError(f"{where()}: missing required key '{spec[0][0]}'")
    values = []
    for key, kind in spec:
        value = obj.get(key, _MISSING)
        if value is _MISSING:
            raise FormatError(f"{where()}: missing required key '{key}'")
        if kind is not _ANY and type(value) not in _TYPES[kind]:
            raise FormatError(f"{where()}.{key}: expected {kind}, got {value!r}")
        values.append(_float(value, where, key) if kind is _NUMBER else value)
    return values


def _bbox_numbers(raw: Any, where: Callable[[], str], key: str) -> list[float]:
    """Check that ``raw``, the value under ``key``, is an [x, y, w, h] list
    of 4 numbers."""
    if not isinstance(raw, (list, tuple)) or len(raw) != 4:
        raise FormatError(f"{where()}.{key}: must be a list of 4 numbers, got {raw!r}")
    for v in raw:
        if type(v) is not float and type(v) is not int:
            raise FormatError(f"{where()}.{key}: expected a number, got {v!r}")
    return [_float(v, where, key) for v in raw]


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


# --- bulk checks ---------------------------------------------------------------
#
# The box lists are checked whole: types through one set of types per
# column, numbers through one numpy conversion, references through one dict
# pass, and ranges and clamping as array operations. The bulk checks and
# the per-record loop accept the same lists, with the same values; the loop
# runs only on a list the bulk checks refuse, to find and word its first
# error.

_INTS = {int}
_NUMBERS = {int, float}


def _columns(entries: list, keys: tuple[str, ...]) -> list[list] | None:
    """The values of every entry under each of ``keys``, one list per key;
    None when an entry is not a JSON object or lacks a key."""
    if not set(map(type, entries)) <= {dict}:
        return None
    try:
        return [list(map(itemgetter(key), entries)) for key in keys]
    except KeyError:
        return None


def _of_types(values, types: set) -> bool:
    return set(map(type, values)) <= types


def _floats(values, count: int) -> np.ndarray | None:
    """``count`` numbers as a float64 array; None when one is past the float
    range."""
    try:
        return np.fromiter(values, np.float64, count)
    except OverflowError:
        return None


def _placed_boxes(
    image_ids: list, category_ids: list, bboxes: list,
    images: list[ImageInfo], source_to_dense: dict[int, int],
) -> tuple[np.ndarray, np.ndarray] | None:
    """The dense classes and the [x, y, w, h] rows clamped to their images
    of boxes given by image id, source category id and raw bbox, with the
    float operations of :func:`_clamped_bbox` in its order. None when an id
    is unknown, a bbox is not a list of 4 numbers within the float range or
    a box has no area after clamping. NaN and infinite numbers are clamped
    like any other; a positive clamped width lies between 0 and the finite
    image width, so it is finite, and so is its x (likewise for heights)."""
    rows = list(map({img.id: k for k, img in enumerate(images)}.get, image_ids))
    classes = list(map(source_to_dense.get, category_ids))
    if None in rows or None in classes:
        return None
    if not (
        _of_types(bboxes, {list})
        and set(map(len, bboxes)) <= {4}
        and _of_types(chain.from_iterable(bboxes), _NUMBERS)
    ):
        return None
    raw = _floats(chain.from_iterable(bboxes), 4 * len(bboxes))
    if raw is None:
        return None
    sizes = np.array([(float(img.width), float(img.height)) for img in images]).reshape(-1, 2)
    width, height = sizes[np.array(rows, dtype=np.intp)].T
    x, y, w, h = raw.reshape(-1, 4).T
    with np.errstate(over="ignore", invalid="ignore"):
        right, bottom = x + w, y + h
        x0 = np.where(0.0 > x, 0.0, x)
        y0 = np.where(0.0 > y, 0.0, y)
        w = np.where(width < right, width, right) - x0
        h = np.where(height < bottom, height, bottom) - y0
    if not ((w > 0) & (h > 0)).all():
        return None
    return np.array(classes, dtype=np.int64), np.stack((x0, y0, w, h), axis=1)


# --- ground truth ------------------------------------------------------------

_IMAGE_FIELDS = (("id", _INT), ("width", _INT), ("height", _INT), ("file_name", _STR))
_CATEGORY_FIELDS = (("id", _INT), ("name", _STR))
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
        _float(width, where, "width")  # boxes are clamped to the image as floats
        _float(height, where, "height")
        images.append(ImageInfo(id=img_id, width=width, height=height, file_name=file_name))
    _check_unique((img.id for img in images), "image")
    image_map = {img.id: img for img in images}

    sources: list[tuple[int, str]] = []
    for i, entry in enumerate(raw_cats):
        cat_id, name = _fields(entry, _CATEGORY_FIELDS, lambda: f"categories[{i}]")
        sources.append((cat_id, name))
    _check_unique((cid for cid, _ in sources), "category")
    names = dict(sources)
    categories = [
        Category(id=dense, name=names[src], source_id=src)
        for dense, src in enumerate(sorted(names), start=1)
    ]
    source_to_dense = {c.source_id: c.id for c in categories}

    columns = _annotation_columns(raw_anns, images, source_to_dense)
    if columns is None:
        _annotation_records(raw_anns, image_map, source_to_dense)
    return Dataset(images, categories, columns)


_ANNOTATION_KEYS = ("id", "image_id", "category_id", "bbox")


def _annotation_columns(
    raw_anns: list, images: list[ImageInfo], source_to_dense: dict[int, int]
) -> BoxColumns | None:
    """The annotations as columns, or None when a bulk check fails."""
    columns = _columns(raw_anns, _ANNOTATION_KEYS)
    if columns is None:
        return None
    ids, image_ids, category_ids, bboxes = columns
    if not all(_of_types(col, _INTS) for col in (ids, image_ids, category_ids)):
        return None
    if len(set(ids)) < len(ids):
        return None
    placed = _placed_boxes(image_ids, category_ids, bboxes, images, source_to_dense)
    if placed is None:
        return None
    classes, xywh = placed
    return BoxColumns(int_array(ids), int_array(image_ids), classes, np.full(len(ids), np.nan), xywh)


def _annotation_records(
    raw_anns: list, image_map: dict[int, ImageInfo], source_to_dense: dict[int, int]
) -> None:
    """Check the annotations one record at a time and raise the first error
    of a list the bulk checks refused."""
    ids = []
    for i, entry in enumerate(raw_anns):
        where = lambda: f"annotations[{i}]"
        ann_id, image_id, cat_id = _fields(entry, _ANNOTATION_FIELDS, where)
        if image_id not in image_map:
            raise DanglingReferenceError(f"{where()}: unknown image_id {image_id}")
        if cat_id not in source_to_dense:
            raise DanglingReferenceError(f"{where()}: unknown category_id {cat_id}")
        _clamped_bbox(entry, image_map[image_id], where)
        ids.append(ann_id)
    _check_unique(ids, "annotation")


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
    source_to_dense = ds.source_to_dense()
    columns = _detection_columns(data, ds.images, source_to_dense)
    if columns is None:
        _detection_records(data, ds.image_map(), source_to_dense)
    return PredictionSet(columns)


_DETECTION_KEYS = ("image_id", "category_id", "score", "bbox")


def _detection_columns(
    data: list, images: list[ImageInfo], source_to_dense: dict[int, int]
) -> BoxColumns | None:
    """The detections as columns, or None when a bulk check fails."""
    columns = _columns(data, _DETECTION_KEYS)
    if columns is None:
        return None
    image_ids, category_ids, raw_scores, bboxes = columns
    if not (
        _of_types(image_ids, _INTS)
        and _of_types(category_ids, _INTS)
        and _of_types(raw_scores, _NUMBERS)
    ):
        return None
    scores = _floats(raw_scores, len(raw_scores))
    if scores is None or not ((0.0 <= scores) & (scores <= 1.0)).all():
        return None
    placed = _placed_boxes(image_ids, category_ids, bboxes, images, source_to_dense)
    if placed is None:
        return None
    classes, xywh = placed
    return BoxColumns(
        np.arange(1, len(scores) + 1, dtype=np.int64), int_array(image_ids), classes, scores, xywh
    )


def _detection_records(
    data: list, image_map: dict[int, ImageInfo], source_to_dense: dict[int, int]
) -> None:
    """Check the detections one record at a time and raise the first error
    of a list the bulk checks refused."""
    for i, entry in enumerate(data):
        where = lambda: f"detections[{i}]"
        image_id, cat_id, score = _fields(entry, _DETECTION_FIELDS, where)
        if image_id not in image_map:
            raise DanglingReferenceError(f"{where()}: unknown image_id {image_id}")
        if cat_id not in source_to_dense:
            raise DanglingReferenceError(f"{where()}: unknown category_id {cat_id}")
        if not 0.0 <= score <= 1.0:
            raise InvalidScoreError(f"{where()}: score {score} outside [0, 1]")
        _clamped_bbox(entry, image_map[image_id], where)


# --- dataset persistence -------------------------------------------------------


def save_dataset(ds: Dataset, path: str | Path) -> None:
    """Write a dataset back to COCO format so that loading it reproduces
    the in-memory value exactly."""
    dense_to_source = ds.dense_to_source()
    payload = {
        "images": [
            {"id": i.id, "width": i.width, "height": i.height, "file_name": i.file_name}
            for i in ds.images
        ],
        "categories": [{"id": c.source_id, "name": c.name} for c in ds.categories],
        "annotations": [
            {
                "id": a.id,
                "image_id": a.image_id,
                "category_id": dense_to_source[a.category_id],
                "bbox": a.bbox.as_list(),
                "area": a.bbox.area,
                "iscrowd": 0,
            }
            for a in ds.annotations
        ],
    }
    _write_json(payload, path)


def _write_json(payload: Any, path: str | Path, indent: int | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=indent)
        fh.write("\n")


# --- ledger persistence --------------------------------------------------------


def _box_record(box: AnnotatedBox, dense_to_source: dict[int, int]) -> dict:
    rec = {
        "id": box.id,
        "image_id": box.image_id,
        "category_id": dense_to_source[box.category_id],
        "bbox": box.bbox.as_list(),
    }
    if box.score is not None:
        rec["score"] = box.score
    return rec


def _parse_box_record(
    rec: dict, source_to_dense: dict[int, int], image_ids: set[int], where: Callable[[], str]
) -> AnnotatedBox:
    (cat,) = _fields(rec, (("category_id", _INT),), where)
    if cat not in source_to_dense:
        raise DanglingReferenceError(f"{where()}: unknown category_id {cat}")
    (raw_bbox,) = _fields(rec, _BBOX_FIELD, where)
    x, y, w, h = _bbox_numbers(raw_bbox, where, "bbox")
    ann_id, image_id = _fields(rec, (("id", _INT), ("image_id", _INT)), where)
    if image_id not in image_ids:
        raise DanglingReferenceError(f"{where()}: unknown image_id {image_id}")
    return AnnotatedBox(
        id=ann_id,
        image_id=image_id,
        category_id=source_to_dense[cat],
        bbox=BBox(x, y, w, h),
        source=BoxSource.ORIGINAL,
    )


def save_ledger(ledger: NoiseLedger, path: str | Path, categories: list[Category]) -> None:
    """Persist a noise ledger; category ids are written in source-id space."""
    dense_to_source = {c.id: c.source_id for c in categories}
    entries = []
    for e in ledger.entries:
        rec: dict[str, Any] = {"annotation_id": e.annotation_id, "noise_type": e.kind.value}
        if e.original is not None:
            rec["original"] = _box_record(e.original, dense_to_source)
        if e.perturbed is not None:
            rec["perturbed"] = _box_record(e.perturbed, dense_to_source)
        entries.append(rec)
    _write_json({"entries": entries}, path, indent=2)


def load_ledger(path: str | Path, ds: Dataset) -> NoiseLedger:
    """Load a noise ledger saved by :func:`save_ledger`."""
    from boxaudit.noise_injection import LedgerEntry, NoiseKind, NoiseLedger

    data = _read_json(path)
    (raw_entries,) = _fields(data, (("entries", _ANY),), lambda: str(path))
    if not isinstance(raw_entries, list):
        raise FormatError(f"{path}: 'entries' must be a list")
    source_to_dense = ds.source_to_dense()
    image_ids = {img.id for img in ds.images}
    entries = []
    for i, rec in enumerate(raw_entries):
        where = lambda: f"entries[{i}]"
        (kind_raw,) = _fields(rec, (("noise_type", _ANY),), where)
        try:
            kind = NoiseKind(kind_raw)
        except ValueError:
            raise FormatError(f"{where()}: unknown noise_type {kind_raw!r}") from None
        (ann_id,) = _fields(rec, (("annotation_id", _INT),), where)
        original, perturbed = (
            _parse_box_record(
                rec[side], source_to_dense, image_ids, lambda: f"{where()}.{side}"
            )
            if rec.get(side) is not None
            else None
            for side in ("original", "perturbed")
        )
        entries.append(
            LedgerEntry(annotation_id=ann_id, kind=kind, original=original, perturbed=perturbed)
        )
    return NoiseLedger(entries=entries)


# --- report persistence ---------------------------------------------------------
#
# report.json and roc.json are streamed one record at a time, each record a
# string built straight from the verdict columns and the member boxes, in
# exactly the layout of json.dump(mirror, sort_keys=True, indent=2). Before
# Python 3.13 an indented json.dump runs the pure-Python encoder with one
# write per token, and the mirror it encodes would hold every record as a
# dict.

REPORT_COLUMNS = [
    "cluster_id",
    "image_id",
    "annotation_ids",
    "verdict_kind",
    "quality_score",
    "flagged_class_ids",
]

_json_str = json.encoder.encode_basestring_ascii
_json_int = int.__repr__


def _json_number(v: float) -> str:
    """An int or a float, spelled as json.dump spells it."""
    if isinstance(v, float):
        return float.__repr__(v) if math.isfinite(v) else json.dumps(v)
    return int.__repr__(v)


def _json_list(items: list[str], indent: int) -> str:
    """Encoded ``items`` as an indented JSON list whose closing bracket sits
    ``indent`` spaces in."""
    if not items:
        return "[]"
    pad = "\n" + " " * indent
    return "[" + pad + "  " + ("," + pad + "  ").join(items) + pad + "]"


def _json_object(keys: tuple[str, ...], indent: int) -> str:
    """A ``str.format`` template of an indented JSON object with ``keys``
    (given sorted), one field per value, whose closing brace sits ``indent``
    spaces in."""
    pad = "\n" + " " * indent
    return "{{" + ",".join(f'{pad}  "{k}": {{}}' for k in keys) + pad + "}}"


def _nested_json(value: Any) -> str:
    """A small value encoded by json itself, to sit under a top-level key."""
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n  ")


# Templates of the records at the depth each sits at in report.json.
_BOX = _json_object(("bbox", "category_id", "id", "image_id"), 8)
_SCORED_BOX = _json_object(("bbox", "category_id", "id", "image_id", "score"), 8)
_FINDING = _json_object(
    (
        "annotation_ids",
        "cluster_id",
        "flagged_classes",
        "image_id",
        "original_members",
        "predicted_members",
        "quality_score",
        "region",
        "verdict_kind",
    ),
    4,
)
_VERDICT = _json_object(
    ("annotation_id", "cluster_id", "flagged", "image_id", "quality_score", "region", "verdict_kind"),
    4,
)


def _bbox_json(bbox: list[float] | None, indent: int) -> str:
    if bbox is None:
        return "null"
    return _json_list([_json_number(v) for v in bbox], indent)


def _write_records(fh, records) -> None:
    """Write an iterable of encoded records as a list under a top-level key."""
    sep = "["
    for record in records:
        fh.write(sep + "\n    " + record)
        sep = ","
    fh.write("[]" if sep == "[" else "\n  ]")


def _flagged_class_labels(classes, dense_to_source: dict[int, int], background: int) -> list[str]:
    return [
        "background" if m == background else str(dense_to_source.get(m, m)) for m in classes
    ]


def save_report(report: DetectionResult, path: str | Path) -> dict[str, int]:
    """Write a findings report: ``<path>`` as CSV (one row per flagged
    cluster) and ``<path>.json`` with full cluster membership. Returns the
    report's summary counts.

    Each flagged cluster is one finding, carrying its first flagged
    verdict's kind, score and classes, its flagged annotation ids, the
    first region among its flagged verdicts and every member box. The
    verdicts and member boxes are written from the result's columns; no
    cluster, verdict or box objects are built.
    """
    path = Path(path)
    table, partition = report.table, report.partition
    dense_to_source = {c.id: c.source_id for c in report.categories}
    background = len(report.categories) + 1
    ann_ids, cluster_ids = table.annotation_ids.tolist(), table.cluster_ids.tolist()
    quality, kinds = table.quality.tolist(), table.kinds.tolist()
    regions = table.region_lists()

    flagged_by_cluster: dict[int, list[int]] = {}
    for i in np.flatnonzero(table.flagged).tolist():
        flagged_by_cluster.setdefault(cluster_ids[i], []).append(i)
    row_of = dict(zip(partition.cluster_ids.tolist(), range(len(partition))))
    image_ids = partition.image_ids.tolist()
    members, ends = partition.members.tolist(), [0, *partition.ends.tolist()]
    boxes = partition.boxes
    box_ids, box_images = boxes.ids.tolist(), boxes.image_ids.tolist()
    box_classes, box_xywh = boxes.classes.tolist(), boxes.xywh.tolist()
    box_scores, box_predicted = boxes.scores.tolist(), boxes.predicted.tolist()

    def box_json(k: int) -> str:
        """Member box k: the fields of :func:`_box_record`."""
        values = (
            _bbox_json(box_xywh[k], 10),
            _json_int(dense_to_source[box_classes[k]]),
            _json_int(box_ids[k]),
            _json_int(box_images[k]),
        )
        if not box_predicted[k]:
            return _BOX.format(*values)
        return _SCORED_BOX.format(*values, _json_number(box_scores[k]))

    findings = []
    flagged_annotations = missing_regions = 0
    for cluster_id in sorted(flagged_by_cluster):
        flagged = flagged_by_cluster[cluster_id]
        first = flagged[0]
        row = row_of[cluster_id]
        finding_ann_ids = [ann_ids[i] for i in flagged if ann_ids[i] is not None]
        findings.append((
            cluster_id,
            image_ids[row],
            finding_ann_ids,
            kinds[first],
            quality[first],
            _flagged_class_labels(table.flagged_classes[first], dense_to_source, background),
            next((regions[i] for i in flagged if i in regions), None),
            members[ends[2 * row] : ends[2 * row + 1]],
            members[ends[2 * row + 1] : ends[2 * row + 2]],
        ))
        flagged_annotations += len(finding_ann_ids)
        if kinds[first] == "missing_region":
            missing_regions += 1

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for cluster_id, image_id, finding_ann_ids, kind, score, class_labels, *_ in findings:
            writer.writerow(
                [
                    cluster_id,
                    image_id,
                    ";".join(str(i) for i in finding_ann_ids),
                    kind,
                    f"{score:.6f}",
                    ";".join(class_labels),
                ]
            )

    def finding_json(cluster_id, image_id, finding_ann_ids, kind, score, class_labels,
                     region, originals, predictions) -> str:
        return _FINDING.format(
            _json_list([_json_int(a) for a in finding_ann_ids], 6),
            _json_int(cluster_id),
            _json_list([_json_str(c) for c in class_labels], 6),
            _json_int(image_id),
            _json_list([box_json(k) for k in originals], 6),
            _json_list([box_json(k) for k in predictions], 6),
            _json_number(score),
            _bbox_json(region, 6),
            _json_str(kind),
        )

    verdicts = (
        _VERDICT.format(
            "null" if a is None else _json_int(a),
            _json_int(c),
            "true" if f else "false",
            _json_int(img),
            _json_number(q),
            _bbox_json(regions.get(i), 6),
            _json_str(k),
        )
        for i, (a, c, f, img, q, k) in enumerate(
            zip(ann_ids, cluster_ids, table.flagged.tolist(), table.image_ids.tolist(), quality, kinds)
        )
    )
    categories = [{"id": c.source_id, "name": c.name} for c in report.categories]
    summary = {
        "clusters": len(partition),
        "flagged_clusters": len(findings),
        "flagged_annotations": flagged_annotations,
        "missing_regions": missing_regions,
    }
    with open(path.with_suffix(".json"), "w", encoding="utf-8") as fh:
        fh.write('{\n  "categories": ' + _nested_json(categories) + ',\n  "findings": ')
        _write_records(fh, (finding_json(*f) for f in findings))
        fh.write(',\n  "summary": ' + _nested_json(summary) + ',\n  "verdicts": ')
        _write_records(fh, verdicts)
        fh.write("\n}\n")
    return summary


_VERDICT_FIELDS = (
    ("cluster_id", _INT),
    ("image_id", _INT),
    ("quality_score", _NUMBER),
    ("verdict_kind", _ANY),
)


def load_report(path: str | Path, ds: Dataset) -> VerdictTable:
    """Reload the verdicts from a report's JSON mirror (for the ``roc``
    stage's file-based handoff), against the dataset the report covers.

    Every verdict must carry a known kind, a quality score in [0, 1], a
    boolean ``flagged`` (false when absent) and ids of the dataset's images
    and annotations; an annotation may have one verdict only. The flagged
    classes are not reloaded.
    """
    from boxaudit.confident_learning import VERDICT_KINDS, VerdictTable

    data = _read_json(path)
    (raw,) = _fields(data, (("verdicts", _ANY),), lambda: str(path))
    if not isinstance(raw, list):
        raise FormatError(f"{path}: 'verdicts' must be a list")
    image_ids = {img.id for img in ds.images}
    known_ids = set(ds.columns.ids.tolist())
    seen: set[int] = set()
    columns: tuple[list, ...] = ([], [], [], [], [], [], [])
    for i, rec in enumerate(raw):
        where = lambda: f"verdicts[{i}]"
        if not isinstance(rec, dict):
            raise FormatError(f"{where()}: must be a JSON object, got {rec!r}")
        ann_id = rec.get("annotation_id")
        if ann_id is not None:
            (ann_id,) = _fields(rec, (("annotation_id", _INT),), where)
        cluster_id, image_id, quality_score, verdict_kind = _fields(rec, _VERDICT_FIELDS, where)
        flagged = rec.get("flagged", False)
        if type(flagged) is not bool:
            raise FormatError(f"{where()}.flagged: expected true or false, got {flagged!r}")
        if type(verdict_kind) is not str or verdict_kind not in VERDICT_KINDS:
            raise FormatError(f"{where()}.verdict_kind: unknown kind {verdict_kind!r}")
        if not 0.0 <= quality_score <= 1.0:
            raise InvalidScoreError(f"{where()}.quality_score: {quality_score} outside [0, 1]")
        region = rec.get("region")
        if region is not None:
            region = BBox(*_bbox_numbers(region, where, "region")).as_list()
        if image_id not in image_ids:
            raise DanglingReferenceError(f"{where()}: unknown image_id {image_id}")
        if ann_id is not None:
            if ann_id not in known_ids:
                raise DanglingReferenceError(f"{where()}: unknown annotation_id {ann_id}")
            if ann_id in seen:
                raise DuplicateIdError(f"{where()}: duplicate annotation_id {ann_id}")
            seen.add(ann_id)
        for column, value in zip(
            columns, (ann_id, cluster_id, image_id, quality_score, flagged, verdict_kind, region)
        ):
            column.append(value)
    return VerdictTable.of_values(*columns)


# --- ROC persistence -------------------------------------------------------------

_ROC_POINT = _json_object(("fpr", "threshold", "tpr"), 4)
_ROC_RUN = _json_object(("auroc", "seed"), 4)


def save_roc(
    curve: RocCurve,
    path: str | Path,
    *,
    run_aurocs: list[tuple[int, float]] | None = None,
) -> None:
    """Write a ROC sweep: ``<path>`` as plottable CSV with an AUROC summary
    line, plus a ``<path>.json`` mirror (with per-run AUROCs and their median
    when several runs were aggregated)."""
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["threshold", "fpr", "tpr"])
        for p in curve.points:
            writer.writerow([f"{p.threshold:.6f}", f"{p.fpr:.6f}", f"{p.tpr:.6f}"])
        fh.write(f"# auroc = {curve.auroc:.6f}\n")

    with open(path.with_suffix(".json"), "w", encoding="utf-8") as fh:
        fh.write('{\n  "auroc": ' + _json_number(curve.auroc))
        if run_aurocs is not None:
            median = statistics.median(a for _, a in run_aurocs)
            fh.write(',\n  "median_auroc": ' + _json_number(median))
        fh.write(',\n  "points": ')
        _write_records(fh, (
            _ROC_POINT.format(_json_number(p.fpr), _json_number(p.threshold), _json_number(p.tpr))
            for p in curve.points
        ))
        if run_aurocs is not None:
            fh.write(',\n  "runs": ')
            _write_records(fh, (
                _ROC_RUN.format(_json_number(a), _json_number(s)) for s, a in run_aurocs
            ))
        fh.write("\n}\n")
