"""Seeded corruption of a clean dataset with five annotation noise types,
recording every perturbation in a ledger that doubles as evaluation ground
truth.

Noise kinds: uniform_label resamples a box's class among the other classes;
location displaces a box along a random angle by a fixed fraction of its
mean dimension; scale grows or shrinks a box about its center by a fixed
factor; spurious adds boxes of random size and label; missing removes boxes.
The affected fraction counts annotations (boxes), not images.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from boxaudit.dataset_io import AnnotatedBox, BoxColumns, Dataset, ImageInfo, int_array
from boxaudit.errors import InvalidSpecError
from boxaudit.geometry import BBox

__all__ = [
    "NoiseKind",
    "NoiseSpec",
    "LedgerEntry",
    "LedgerColumns",
    "NoiseLedger",
    "inject",
    "replay",
    "displace_box",
    "rescale_box",
]


class NoiseKind(str, Enum):
    UNIFORM_LABEL = "uniform_label"
    LOCATION = "location"
    SCALE = "scale"
    SPURIOUS = "spurious"
    MISSING = "missing"


_AMPLITUDE_KINDS = (NoiseKind.LOCATION, NoiseKind.SCALE)

# bounds of a spurious box's width and height, as fractions of the image's
SPURIOUS_SIZE_RANGE = (0.02, 0.40)


@dataclass(frozen=True)
class NoiseSpec:
    """What to corrupt: noise kind, affected fraction of annotations, the
    displacement/scaling amplitude where applicable, and the RNG seed."""

    kind: NoiseKind
    fraction: float
    amplitude: float | None = None
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.fraction <= 1.0:
            raise InvalidSpecError(f"fraction must lie in [0, 1], got {self.fraction}")
        if self.kind in _AMPLITUDE_KINDS:
            if self.amplitude is None:
                raise InvalidSpecError(f"{self.kind.value} noise requires an amplitude")
            if not 0.0 <= self.amplitude <= 1.0:
                raise InvalidSpecError(
                    f"amplitude must lie in [0, 1], got {self.amplitude}"
                )
        elif self.amplitude is not None:
            raise InvalidSpecError(f"{self.kind.value} noise takes no amplitude")


@dataclass(frozen=True)
class LedgerEntry:
    """One realized perturbation. ``original`` holds the pre-perturbation
    record (absent for spurious additions), ``perturbed`` the post state
    (absent for removals); together they make the ledger replayable in both
    directions."""

    annotation_id: int
    kind: NoiseKind
    original: AnnotatedBox | None = None
    perturbed: AnnotatedBox | None = None


@dataclass(frozen=True, eq=False)
class LedgerColumns:
    """Ledger entries as columns: entry k perturbed annotation
    ``annotation_ids[k]`` with the noise kind whose value is ``kinds[k]``;
    it holds an original box where ``has_original[k]`` and a perturbed one
    where ``has_perturbed[k]``, in entry order in ``original`` and
    ``perturbed``. ``entries`` holds them as :class:`LedgerEntry` objects,
    built on first access unless the columns were made from objects."""

    annotation_ids: np.ndarray
    kinds: np.ndarray  # str
    original: BoxColumns
    has_original: np.ndarray  # bool
    perturbed: BoxColumns
    has_perturbed: np.ndarray  # bool
    _entries: list[LedgerEntry] | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.annotation_ids)

    def of_kind(self, kind: NoiseKind) -> np.ndarray:
        """Whether each entry is of ``kind``."""
        return self.kinds == kind.value

    @property
    def entries(self) -> list[LedgerEntry]:
        if self._entries is None:
            originals, perturbed = iter(self.original.items), iter(self.perturbed.items)
            rows = zip(
                self.annotation_ids.tolist(),
                self.kinds.tolist(),
                self.has_original.tolist(),
                self.has_perturbed.tolist(),
            )
            object.__setattr__(self, "_entries", [
                LedgerEntry(
                    a, NoiseKind(k), next(originals) if o else None, next(perturbed) if p else None
                )
                for a, k, o, p in rows
            ])
        return self._entries

    @classmethod
    def of(cls, entries: list[LedgerEntry]) -> LedgerColumns:
        """The columns of ``entries``, which are kept as the entries."""
        return cls(
            annotation_ids=int_array([e.annotation_id for e in entries]),
            kinds=np.array([NoiseKind(e.kind).value for e in entries], dtype=str),
            original=BoxColumns.of([e.original for e in entries if e.original is not None]),
            has_original=np.array([e.original is not None for e in entries], dtype=bool),
            perturbed=BoxColumns.of([e.perturbed for e in entries if e.perturbed is not None]),
            has_perturbed=np.array([e.perturbed is not None for e in entries], dtype=bool),
            _entries=list(entries),
        )


class NoiseLedger:
    """The realized perturbations of one injection, given as
    :class:`LedgerEntry` objects or as :class:`LedgerColumns` and held as
    ``columns``; ``entries`` gives them as objects."""

    def __init__(self, entries: list[LedgerEntry] | LedgerColumns = ()):
        self.columns = (
            entries if isinstance(entries, LedgerColumns) else LedgerColumns.of(list(entries))
        )

    @property
    def entries(self) -> list[LedgerEntry]:
        return self.columns.entries

    def __len__(self) -> int:
        return len(self.columns)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NoiseLedger):
            return NotImplemented
        return self.entries == other.entries


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
    ledger. Works on the dataset's columns: no box object is built.
    """
    rng = random.Random(spec.seed)
    boxes = ds.columns
    num_classes = ds.num_categories

    if spec.kind == NoiseKind.SPURIOUS:
        count = round(spec.fraction * len(boxes))
        first_id = max(boxes.ids.tolist(), default=0) + 1
        lo, hi = SPURIOUS_SIZE_RANGE
        image_ids, classes, xywh = [], [], []
        for _ in range(count):
            image = ds.images[rng.randrange(len(ds.images))]
            while True:
                x = rng.uniform(0.0, image.width)
                y = rng.uniform(0.0, image.height)
                w = min(rng.uniform(lo * image.width, hi * image.width), image.width - x)
                h = min(rng.uniform(lo * image.height, hi * image.height), image.height - y)
                if w > 0 and h > 0:
                    break
            image_ids.append(image.id)
            classes.append(rng.randint(1, num_classes))
            xywh.append((x, y, w, h))
        added = BoxColumns(
            int_array(list(range(first_id, first_id + count))),
            int_array(image_ids),
            np.array(classes, dtype=np.int64),
            np.full(count, np.nan),
            np.array(xywh, dtype=np.float64).reshape(-1, 4),
        )
        noisy = BoxColumns.join(boxes, added)
        return _with_boxes(ds, noisy), _ledger(spec.kind, added.ids, perturbed=added)

    targets = np.array(_pick_targets(rng, len(boxes), spec.fraction), dtype=np.intp)
    if spec.kind == NoiseKind.UNIFORM_LABEL and len(targets) and num_classes < 2:
        raise InvalidSpecError("uniform_label noise needs at least 2 categories")
    original = boxes.take(targets)

    if spec.kind == NoiseKind.MISSING:
        kept = np.ones(len(boxes), dtype=bool)
        kept[targets] = False
        ledger = _ledger(spec.kind, original.ids, original=original)
        return _with_boxes(ds, boxes.take(kept)), ledger

    classes, xywh = boxes.classes, boxes.xywh
    if spec.kind == NoiseKind.UNIFORM_LABEL:
        labels = original.classes.tolist()
        others = {c: [o for o in range(1, num_classes + 1) if o != c] for c in set(labels)}
        classes = classes.copy()
        classes[targets] = [rng.choice(others[c]) for c in labels]
    else:
        image_map = ds.image_map()
        xywh = xywh.copy()
        rows = zip(targets.tolist(), original.image_ids.tolist(), original.xywh.tolist())
        for i, image_id, row in rows:
            if spec.kind == NoiseKind.LOCATION:
                angle = rng.uniform(0.0, 2.0 * math.pi)
                bbox = displace_box(BBox(*row), angle, spec.amplitude, image_map[image_id])
            else:  # scale
                grow = rng.random() < 0.5
                bbox = rescale_box(BBox(*row), grow, spec.amplitude, image_map[image_id])
            xywh[i] = bbox.as_list()
    noisy = BoxColumns(boxes.ids, boxes.image_ids, classes, boxes.scores, xywh)
    ledger = _ledger(spec.kind, original.ids, original=original, perturbed=noisy.take(targets))
    return _with_boxes(ds, noisy), ledger


def _ledger(
    kind: NoiseKind,
    annotation_ids: np.ndarray,
    *,
    original: BoxColumns | None = None,
    perturbed: BoxColumns | None = None,
) -> NoiseLedger:
    """A ledger of entries of one kind whose boxes, where given, are the
    rows of ``original`` and ``perturbed`` in entry order."""
    n = len(annotation_ids)
    empty = BoxColumns.of([])
    return NoiseLedger(LedgerColumns(
        annotation_ids,
        np.full(n, kind.value),
        empty if original is None else original,
        np.full(n, original is not None),
        empty if perturbed is None else perturbed,
        np.full(n, perturbed is not None),
    ))


def replay(ds: Dataset, ledger: NoiseLedger) -> Dataset:
    """Apply a ledger to the clean dataset it was recorded against,
    reconstructing the corrupted dataset exactly: entries are applied in
    order, a missing entry removes its annotation, a spurious one appends
    its perturbed box and any other replaces its annotation by its perturbed
    box."""
    boxes, columns = ds.columns, ledger.columns
    n = len(boxes)
    row_of = {a: k for k, a in enumerate(boxes.ids.tolist())}
    # rows of boxes and then of the ledger's perturbed boxes; None removes
    source = list(range(n))
    appended = []
    joined_rows = iter(range(n, n + len(columns.perturbed)))
    entries = zip(
        columns.annotation_ids.tolist(),
        columns.of_kind(NoiseKind.SPURIOUS).tolist(),
        columns.of_kind(NoiseKind.MISSING).tolist(),
        columns.has_perturbed.tolist(),
    )
    for ann_id, spurious, missing, has_perturbed in entries:
        p = next(joined_rows) if has_perturbed else None
        if spurious:
            appended.append(p)
        else:
            source[row_of[ann_id]] = None if missing else p
    rows = np.array([k for k in source + appended if k is not None], dtype=np.intp)
    return _with_boxes(ds, BoxColumns.join(boxes, columns.perturbed).take(rows))


def _with_boxes(ds: Dataset, boxes: BoxColumns) -> Dataset:
    return Dataset(images=list(ds.images), categories=list(ds.categories), annotations=boxes)
