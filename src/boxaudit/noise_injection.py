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

from boxaudit.dataset_io import AnnotatedBox, BoxSource, Dataset, ImageInfo
from boxaudit.errors import InvalidSpecError
from boxaudit.geometry import BBox

__all__ = [
    "NoiseKind",
    "NoiseSpec",
    "LedgerEntry",
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
                source=BoxSource.ORIGINAL,
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
            original.id, original.image_id, category, bbox, original.source, original.score
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
        images=list(ds.images), categories=list(ds.categories), annotations=annotations
    )
