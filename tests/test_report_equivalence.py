"""The report loader against the per-record ``load_report`` it replaced
(``report_reference``): equal columns and dtypes on valid reports, and the
same exception type and text on invalid ones."""

import copy
import json
import random
from collections import Counter

import numpy as np

import report_reference as reference
from boxaudit.confident_learning import VERDICT_KINDS
from boxaudit.dataset_io import AnnotatedBox, BoxColumns, Category, Dataset, ImageInfo, load_report
from boxaudit.geometry import BBox

from test_fuzz_boundary import MUTATORS

BIG_IDS = [2**63 - 1, 2**63, 2**64 + 3, -(2**63) - 1, 10**30]
COLUMNS = ("annotation_ids", "cluster_ids", "image_ids", "quality", "flagged", "kinds", "regions")


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except Exception as e:  # the reference's exception, whatever it is, must be matched
        return None, (type(e), str(e))


def _assert_same_table(got, want, seed):
    for name in COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, (seed, name)
        if a.dtype == np.float64:
            assert np.array_equal(a, b, equal_nan=True), (seed, name)
            assert np.array_equal(np.signbit(a), np.signbit(b)), (seed, name)  # -0.0 stays -0.0
        else:  # repr tells an int from a bool and None from 0
            assert repr(a.tolist()) == repr(b.tolist()), (seed, name)
    assert got.flagged_classes == want.flagged_classes, seed


def _number(rng, lo, hi):
    """A number in [lo, hi): an int, a float, or now and then -0.0."""
    kind = rng.random()
    if kind < 0.3:
        return rng.randint(lo, hi - 1)
    if kind < 0.4:
        return -0.0
    return rng.uniform(lo, hi)


def _dataset(rng) -> Dataset:
    image_ids = rng.sample([1, 2, 3, 40, *BIG_IDS], rng.randint(1, 4))
    images = [ImageInfo(i, 100, 80, f"{k}.jpg") for k, i in enumerate(image_ids)]
    ann_ids = rng.sample([*range(1, 40), *BIG_IDS], rng.randint(0, 12))
    boxes = [AnnotatedBox(a, rng.choice(image_ids), 1, BBox(1.0, 2.0, 3.0, 4.0)) for a in ann_ids]
    return Dataset(images, [Category(1, "c", 1)], BoxColumns.of(boxes))


def _verdict(rng, ds, ann_id, counts):
    verdict = {
        "annotation_id": ann_id,
        "cluster_id": rng.choice([rng.randint(0, 50), *BIG_IDS]),
        "image_id": rng.choice(ds.images).id,
        "quality_score": rng.choice([0, 1, 0.0, 1.0, -0.0, 0.5, rng.random()]),
        "verdict_kind": rng.choice(VERDICT_KINDS),
        "flagged_classes": ["background"],
    }
    flagged = rng.random()
    if flagged < 0.7:
        verdict["flagged"] = flagged < 0.35
    region = rng.random()
    if region < 0.6:
        x, y = _number(rng, -5, 90), _number(rng, -5, 70)
        verdict["region"] = [x, y, rng.choice([1, 0.25, rng.uniform(0.1, 50)]),
                             rng.choice([2, rng.uniform(0.1, 50)])]
    elif region < 0.8:
        verdict["region"] = None
    counts["null annotation_id"] += ann_id is None
    counts["absent flagged"] += "flagged" not in verdict
    counts["int quality"] += type(verdict["quality_score"]) is int
    numbers = [verdict["quality_score"], *(verdict.get("region") or [])]
    counts["-0.0"] += any(str(v) == "-0.0" for v in numbers)
    counts["id past int64"] += any(
        v is not None and abs(v) >= 2**63
        for v in (ann_id, verdict["cluster_id"], verdict["image_id"])
    )
    return verdict


def _report(rng, ds, counts) -> dict:
    """A valid report: each annotation at most once, region verdicts between
    them, in random order."""
    ann_ids = ds.columns.ids.tolist()
    chosen = rng.sample(ann_ids, rng.randint(0, len(ann_ids)))
    chosen += [None] * rng.randint(0, 6)
    rng.shuffle(chosen)
    counts["no verdicts"] += not chosen
    return {"categories": [], "findings": [], "summary": {},
            "verdicts": [_verdict(rng, ds, a, counts) for a in chosen]}


def _break_one(rng, report):
    """Invalidate one verdict in a way the fuzz mutators do not: numbers
    past the float range, a score just outside [0, 1], a box without area."""
    verdict = rng.choice(report["verdicts"])
    key, value = rng.choice([
        ("quality_score", 10**400),
        ("quality_score", 1.0000000000000002),
        ("quality_score", -5e-324),
        ("region", [1.0, 2.0, 10**400, "x"]),
        ("region", [1.0, 2.0, 10**400, 4.0]),
        ("region", [1.0, 2.0, -0.0, 4.0]),
        ("region", [1.0, 2.0, 3.0, 0]),
        ("region", [float("nan"), 2.0, -1.0, 4.0]),
        ("region", (1.0, 2.0)),
        ("annotation_id", 10**6 + 7),
    ])
    verdict[key] = value


def test_reports_load_as_reference(tmp_path):
    counts = Counter()
    errors = Counter()
    path = tmp_path / "report.json"
    for seed in range(360):
        rng = random.Random(seed)
        ds = _dataset(rng)
        report = _report(rng, ds, counts)
        annotated = any(v["annotation_id"] is not None for v in report["verdicts"])
        if seed % 3 == 1 and annotated:
            counts["fuzz mutation"] += 1
            report = MUTATORS["report"](rng, copy.deepcopy(report))
        elif seed % 3 == 2 and report["verdicts"]:
            counts["broken verdict"] += 1
            _break_one(rng, report)
        path.write_text(json.dumps(report))
        got, got_error = _outcome(load_report, path, ds)
        want, want_error = _outcome(reference.load_report, path, ds)
        assert got_error == want_error, seed
        if want_error is None:
            _assert_same_table(got, want, seed)
        errors[want_error[0].__name__ if want_error else None] += 1
    least = {"null annotation_id": 100, "absent flagged": 100, "int quality": 100, "-0.0": 40,
             "id past int64": 100, "no verdicts": 5, "fuzz mutation": 80, "broken verdict": 80}
    assert all(counts[k] >= n for k, n in least.items()), counts
    assert errors[None] >= 100 and len(errors) >= 5, errors
