"""Test-only slow reference for noise injection and the ledger loader: the
object-building ``inject``, ``replay`` and ``load_ledger`` that
``boxaudit.noise_injection`` and ``boxaudit.dataset_io`` replaced with code
that works on columns.

They and every helper they call are kept verbatim, with the list-holding
``NoiseLedger`` they returned, so this module fixes the random draws, the
perturbed values, the checks, their order and the error texts the columnar
code must reproduce. ``load_ledger`` imports its entry types from here, not
from the package. Its last check, that an entry's boxes fit its noise type,
was added to the reference when the ledger format gained that rule.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from boxaudit.dataset_io import AnnotatedBox, BoxColumns, Dataset, ImageInfo
from boxaudit.errors import (
    DanglingReferenceError,
    FormatError,
    InvalidSpecError,
    MissingFileError,
)
from boxaudit.geometry import BBox
from boxaudit.noise_injection import SPURIOUS_SIZE_RANGE, LedgerEntry, NoiseKind, NoiseSpec

_INT = "an integer"
_NUMBER = "a number"
_STR = "a string"
_ANY = None
_TYPES = {_INT: {int}, _NUMBER: {int, float}, _STR: {str}}
_MISSING = object()
_BBOX_FIELD = (("bbox", _ANY),)


@dataclass
class NoiseLedger:
    entries: list[LedgerEntry] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)


def displace_box(box: BBox, angle: float, amplitude: float, image: ImageInfo) -> BBox:
    """Move a box by amplitude * (w + h) / 2 along ``angle`` (radians),
    keeping its size and clamping the translation to the image."""
    d = amplitude * (box.w + box.h) / 2.0
    x = box.x + d * math.cos(angle)
    y = box.y + d * math.sin(angle)
    x = min(max(x, 0.0), image.width - box.w)
    y = min(max(y, 0.0), image.height - box.h)
    return BBox(x, y, box.w, box.h)


def rescale_box(box: BBox, grow: bool, amplitude: float, image: ImageInfo) -> BBox:
    """Grow or shrink a box about its center by factor (1 + amplitude) or its
    reciprocal, clamping the result to the image rectangle."""
    factor = 1.0 + amplitude if grow else 1.0 / (1.0 + amplitude)
    cx, cy = box.center
    w, h = box.w * factor, box.h * factor
    x0, y0 = max(cx - w / 2.0, 0.0), max(cy - h / 2.0, 0.0)
    x1 = min(cx + w / 2.0, float(image.width))
    y1 = min(cy + h / 2.0, float(image.height))
    return BBox(x0, y0, x1 - x0, y1 - y0)


def _pick_targets(rng: random.Random, total: int, fraction: float) -> list[int]:
    n = round(fraction * total)
    if n == 0:
        return []
    return sorted(rng.sample(range(total), n))


def inject(ds: Dataset, spec: NoiseSpec) -> tuple[Dataset, NoiseLedger]:
    """Apply one noise kind to round(fraction * |annotations|) targets chosen
    uniformly without replacement; reproducible bit-for-bit from the seed.

    Returns the corrupted dataset and the ledger of exactly the realized
    perturbations. A zero target count yields an untouched copy and an empty
    ledger.
    """
    rng = random.Random(spec.seed)
    annotations = list(ds.annotations)
    image_map = ds.image_map()
    num_classes = ds.num_categories
    ledger = NoiseLedger()

    if spec.kind == NoiseKind.SPURIOUS:
        count = round(spec.fraction * len(annotations))
        next_id = max((a.id for a in annotations), default=0) + 1
        lo, hi = SPURIOUS_SIZE_RANGE
        for _ in range(count):
            image = ds.images[rng.randrange(len(ds.images))]
            while True:
                x = rng.uniform(0.0, image.width)
                y = rng.uniform(0.0, image.height)
                w = min(rng.uniform(lo * image.width, hi * image.width), image.width - x)
                h = min(rng.uniform(lo * image.height, hi * image.height), image.height - y)
                if w > 0 and h > 0:
                    break
            added = AnnotatedBox(
                id=next_id,
                image_id=image.id,
                category_id=rng.randint(1, num_classes),
                bbox=BBox(x, y, w, h),
            )
            next_id += 1
            annotations.append(added)
            ledger.entries.append(
                LedgerEntry(annotation_id=added.id, kind=spec.kind, perturbed=added)
            )
        return _with_annotations(ds, annotations), ledger

    targets = _pick_targets(rng, len(annotations), spec.fraction)
    if spec.kind == NoiseKind.UNIFORM_LABEL and targets and num_classes < 2:
        raise InvalidSpecError("uniform_label noise needs at least 2 categories")

    if spec.kind == NoiseKind.MISSING:
        doomed = set(targets)
        for i in targets:
            ledger.entries.append(
                LedgerEntry(
                    annotation_id=annotations[i].id,
                    kind=spec.kind,
                    original=annotations[i],
                )
            )
        kept = [a for i, a in enumerate(annotations) if i not in doomed]
        return _with_annotations(ds, kept), ledger

    for i in targets:
        original = annotations[i]
        category, bbox = original.category_id, original.bbox
        if spec.kind == NoiseKind.UNIFORM_LABEL:
            others = [c for c in range(1, num_classes + 1) if c != category]
            category = rng.choice(others)
        elif spec.kind == NoiseKind.LOCATION:
            angle = rng.uniform(0.0, 2.0 * math.pi)
            bbox = displace_box(bbox, angle, spec.amplitude, image_map[original.image_id])
        else:  # scale
            grow = rng.random() < 0.5
            bbox = rescale_box(bbox, grow, spec.amplitude, image_map[original.image_id])
        perturbed = AnnotatedBox(
            original.id, original.image_id, category, bbox, original.score
        )
        annotations[i] = perturbed
        ledger.entries.append(
            LedgerEntry(
                annotation_id=original.id,
                kind=spec.kind,
                original=original,
                perturbed=perturbed,
            )
        )
    return _with_annotations(ds, annotations), ledger


def replay(ds: Dataset, ledger: NoiseLedger) -> Dataset:
    """Apply a ledger to the clean dataset it was recorded against,
    reconstructing the corrupted dataset exactly."""
    by_id = {a.id: i for i, a in enumerate(ds.annotations)}
    annotations: list[AnnotatedBox | None] = list(ds.annotations)
    appended: list[AnnotatedBox] = []
    for entry in ledger.entries:
        if entry.kind == NoiseKind.SPURIOUS:
            appended.append(entry.perturbed)
        elif entry.kind == NoiseKind.MISSING:
            annotations[by_id[entry.annotation_id]] = None
        else:
            annotations[by_id[entry.annotation_id]] = entry.perturbed
    kept = [a for a in annotations if a is not None]
    return _with_annotations(ds, kept + appended)


def _with_annotations(ds: Dataset, annotations: list[AnnotatedBox]) -> Dataset:
    return Dataset(
        images=list(ds.images), categories=list(ds.categories),
        annotations=BoxColumns.of(annotations),
    )


# --- ledger loading ----------------------------------------------------------


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
    )


def load_ledger(path: str | Path, ds: Dataset) -> NoiseLedger:
    """Load a noise ledger saved by :func:`save_ledger`."""
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
        # as inject writes them: missing has only an original, spurious only a
        # perturbed box, and the other kinds both
        if (original is None) != (kind == NoiseKind.SPURIOUS) or (perturbed is None) != (
            kind == NoiseKind.MISSING
        ):
            raise FormatError(
                f"{where()}: boxes do not fit noise_type {kind_raw!r}: missing has only an "
                "original, spurious only a perturbed and the other kinds both"
            )
        entries.append(
            LedgerEntry(annotation_id=ann_id, kind=kind, original=original, perturbed=perturbed)
        )
    return NoiseLedger(entries=entries)

