"""Noise injection, replay and the ledger loader on columns against the
object code they replaced (``noise_reference``): on seeded datasets and all
five noise kinds, the same noisy dataset, the same ledger entries, the same
exception type and text, and the same random state afterwards."""

import copy
import json
import random
from collections import Counter

import pytest

import noise_reference as reference
from boxaudit.dataset_io import (
    AnnotatedBox,
    BoxColumns,
    Category,
    Dataset,
    ImageInfo,
    load_ground_truth,
    load_ledger,
    save_ledger,
)
from boxaudit.errors import InvalidSpecError
from boxaudit.geometry import BBox
from boxaudit.noise_injection import NoiseKind, NoiseLedger, NoiseSpec, inject, replay

from harness import write_synthetic
from test_fuzz_boundary import MUTATORS

BIG_IDS = [2**63 - 1, 2**63, 2**64 + 3, -(2**63) - 1, 10**30]
KINDS = [NoiseKind.UNIFORM_LABEL, NoiseKind.LOCATION, NoiseKind.SCALE, NoiseKind.SPURIOUS,
         NoiseKind.MISSING]
# bboxes a ledger record must not carry: too short, not numbers, past the
# float range, not finite, or without area
BAD_BBOXES = [[1.0, 2.0, 3.0], [True, 2.0, 3.0, 4.0], "bbox", [1.0, 2.0, 10**400, 4.0],
              [1.0, 2.0, float("inf"), 4.0], [float("nan"), 2.0, 3.0, 4.0], [1.0, 2.0, 0, 4.0],
              [1.0, 2.0, 3.0, -0.0], [1.0, 2.0, -1.5, 4.0]]


@pytest.fixture
def made_rngs(monkeypatch):
    """Every ``random.Random`` built while it is in use, in order."""
    made = []

    class Recorded(random.Random):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(random, "Random", Recorded)
    return made


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except Exception as e:  # the reference's exception, whatever it is, must be matched
        return None, (type(e), str(e))


def _box(rng, ann_id, image, classes, counts):
    """A box inside ``image``; now and then with integer coordinates, or a
    prediction with a score."""
    w, h = image.width, image.height
    if rng.random() < 0.2:
        counts["int coordinates"] += 1
        x, y = rng.randint(0, w - 2), rng.randint(0, h - 2)
        bbox = BBox(x, y, rng.randint(1, w - x), rng.randint(1, h - y))
    else:
        x, y = rng.uniform(0, w - 1), rng.uniform(0, h - 1)
        bbox = BBox(x, y, rng.uniform(0.5, w - x), rng.uniform(0.5, h - y))
    category = rng.randint(1, classes)
    if rng.random() < 0.1:
        return AnnotatedBox(ann_id, image.id, category, bbox, rng.random())
    return AnnotatedBox(ann_id, image.id, category, bbox)


def _dataset(rng, tmp_path, counts) -> tuple[Dataset, bool]:
    """A random dataset, built in code or loaded from a COCO file; the flag
    says it was loaded (every coordinate a float, every box unscored)."""
    image_ids = rng.sample([1, 2, 3, 40, *BIG_IDS], rng.randint(1, 4))
    images = [ImageInfo(i, rng.choice([50, 64, 640, 2**40]), rng.choice([40, 77, 480]), f"{k}.jpg")
              for k, i in enumerate(image_ids)]
    classes = rng.choice([1, 1, 2, 3, 5])
    source_ids = rng.sample([1, 5, 90, *BIG_IDS], classes)
    categories = [Category(dense, f"c{src}", src)
                  for dense, src in enumerate(sorted(source_ids), start=1)]
    ann_ids = rng.sample([*range(1, 60), *BIG_IDS], rng.choice([0, 1, 2, rng.randint(3, 40)]))
    boxes = [_box(rng, a, rng.choice(images), classes, counts) for a in ann_ids]
    counts["id past int64"] += any(abs(i) >= 2**63 for i in ann_ids + image_ids + source_ids)
    counts["single class"] += classes == 1
    if rng.random() < 0.5:
        return Dataset(images, categories, BoxColumns.of(boxes)), False
    dense_to_source = {c.id: c.source_id for c in categories}
    payload = {
        "images": [{"id": i.id, "width": i.width, "height": i.height, "file_name": i.file_name}
                   for i in images],
        "categories": [{"id": c.source_id, "name": c.name} for c in categories],
        "annotations": [{"id": b.id, "image_id": b.image_id,
                         "category_id": dense_to_source[b.category_id],
                         "bbox": [float(v) for v in b.bbox.as_list()]} for b in boxes],
    }
    path = tmp_path / "gt.json"
    path.write_text(json.dumps(payload))
    return load_ground_truth(path), True


def _spec(rng, kind) -> NoiseSpec:
    fraction = rng.choice([0.0, 1.0, 0.1, 0.5, rng.random()])
    amplitude = None
    if kind in (NoiseKind.LOCATION, NoiseKind.SCALE):
        amplitude = rng.choice([0.0, 0.25, 1.0, rng.random()])
    return NoiseSpec(kind, fraction, amplitude, seed=rng.randrange(2**32))


def _injected(fn, ds, spec, made_rngs):
    """``fn(ds, spec)``'s outcome and the state of the one random generator
    it made."""
    made_rngs.clear()
    outcome = _outcome(fn, ds, spec)
    assert len(made_rngs) == 1
    return outcome, made_rngs[0].getstate()


def _edited_ledger(rng, path, kind, counts):
    """Rewrite the saved ledger with some box records dropped or null and,
    now and then, one record broken."""
    payload = json.loads(path.read_text())
    entries = payload["entries"]
    if kind == NoiseKind.MISSING and entries and rng.random() < 0.6:
        counts["fuzz mutation"] += 1
        payload = MUTATORS["ledger"](rng, copy.deepcopy(payload))
    elif entries and rng.random() < 0.5:
        counts["bad record"] += 1
        entry = rng.choice(entries)
        side = entry.get("original") or entry.get("perturbed")
        key, value = rng.choice([("bbox", rng.choice(BAD_BBOXES)), ("bbox", rng.choice(BAD_BBOXES)),
                                 ("image_id", 10**6 + 7), ("category_id", 10**6 + 7)])
        side[key] = value
    for entry in entries:
        if isinstance(entry, dict) and rng.random() < 0.15:
            counts["side absent"] += 1
            side = rng.choice(["original", "perturbed"])
            if rng.random() < 0.5:
                entry.pop(side, None)
            else:
                entry[side] = None
    path.write_text(json.dumps(payload))


def test_inject_and_load_ledger_equal_reference(tmp_path, made_rngs):
    counts = Counter()
    for seed in range(400):
        rng = random.Random(seed)
        ds, loaded = _dataset(rng, tmp_path, counts)
        kind = KINDS[seed % len(KINDS)]
        spec = _spec(rng, kind)
        counts[kind.value] += 1
        if spec.fraction in (0.0, 1.0):
            counts[f"fraction {spec.fraction}"] += 1

        (got, got_error), got_state = _injected(inject, ds, spec, made_rngs)
        (want, want_error), want_state = _injected(reference.inject, ds, spec, made_rngs)
        assert got_error == want_error, seed
        assert got_state == want_state, seed
        if want_error is not None:
            counts[want_error[0].__name__] += 1
            continue
        (noisy, ledger), (want_noisy, want_ledger) = got, want
        assert noisy == want_noisy, seed
        assert ledger.entries == want_ledger.entries, seed
        assert len(ledger) == len(want_ledger), seed
        if loaded:  # repr tells -0.0 from 0.0 and an int from a float
            assert repr(noisy.annotations) == repr(want_noisy.annotations), seed
            assert repr(ledger.entries) == repr(want_ledger.entries), seed
        assert replay(ds, ledger) == reference.replay(ds, want_ledger) == noisy, seed

        path = tmp_path / "ledger.json"
        save_ledger(ledger, path, ds.categories)
        copy_path = tmp_path / "ledger-from-objects.json"
        save_ledger(NoiseLedger.of(want_ledger.entries), copy_path, ds.categories)
        assert path.read_bytes() == copy_path.read_bytes(), seed
        _edited_ledger(rng, path, kind, counts)
        got, got_error = _outcome(load_ledger, path, noisy)
        want, want_error = _outcome(reference.load_ledger, path, noisy)
        assert got_error == want_error, seed
        if want_error is None:
            assert got.entries == want.entries, seed
            assert repr(got.entries) == repr(want.entries), seed
            # a spurious entry without its box makes the reference raise
            replayed, replay_error = _outcome(reference.replay, ds, want)
            if replay_error is None:
                counts["replayed"] += 1
                assert replay(ds, got) == replayed, seed
        else:
            counts[f"load {want_error[0].__name__}"] += 1
    assert all(counts[k.value] >= 60 for k in KINDS), counts
    least = {"fraction 0.0": 20, "fraction 1.0": 20, "id past int64": 20, "single class": 20,
             "int coordinates": 20, "side absent": 20, "bad record": 20, "fuzz mutation": 15,
             "InvalidSpecError": 5, "load FormatError": 20, "load InvalidInputError": 8,
             "load DanglingReferenceError": 5, "replayed": 100}
    assert all(counts[k] >= n for k, n in least.items()), counts


def test_single_class_label_flip_is_refused_as_reference(made_rngs):
    images = [ImageInfo(1, 100, 100, "a.jpg")]
    boxes = BoxColumns.of([AnnotatedBox(1, 1, 1, BBox(1.0, 2.0, 3.0, 4.0))])
    ds = Dataset(images, [Category(1, "c", 1)], boxes)
    spec = NoiseSpec(NoiseKind.UNIFORM_LABEL, 1.0, seed=5)
    got = _injected(inject, ds, spec, made_rngs)
    assert got == _injected(reference.inject, ds, spec, made_rngs)
    assert got[0][1] == (InvalidSpecError, "uniform_label noise needs at least 2 categories")


def test_fuzzed_ledgers_raise_as_reference(tmp_path):
    """The fuzz test's ledger mutators: the same exception type and text."""
    gt, _ = write_synthetic(tmp_path, num_images=6, boxes_per_image=4, num_classes=4, seed=3)
    ds = load_ground_truth(gt)
    noisy, ledger = inject(ds, NoiseSpec(NoiseKind.MISSING, 0.3, seed=1))
    path = tmp_path / "ledger.json"
    save_ledger(ledger, path, ds.categories)
    original = json.loads(path.read_text())
    errors = Counter()
    for seed in range(300):
        rng = random.Random(f"ledger-{seed}")
        path.write_text(json.dumps(MUTATORS["ledger"](rng, copy.deepcopy(original))))
        got, got_error = _outcome(load_ledger, path, noisy)
        want, want_error = _outcome(reference.load_ledger, path, noisy)
        assert got_error == want_error, seed
        if want_error is None:
            assert repr(got.entries) == repr(want.entries), seed
        errors[want_error[0].__name__ if want_error else None] += 1
    assert None not in errors and len(errors) >= 3, errors
