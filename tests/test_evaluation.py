import random
import statistics
import time

import numpy as np
import pytest

from boxaudit.confident_learning import BoxVerdict
from boxaudit.errors import EmptyLedgerError, InvalidInputError
from boxaudit.evaluation import (
    DEFAULT_THRESHOLDS,
    auroc,
    confusion_at,
    dense_thresholds,
    median,
    roc_curve,
)
from boxaudit.geometry import BBox
from boxaudit.noise_injection import LedgerEntry, NoiseKind, NoiseLedger

from conftest import original_box, verdict_table
from evaluation_reference import reference_auroc, reference_confusion_at, reference_roc_curve

# the published ROC sweep this evaluator is meant to reproduce: 11 operating
# points of a uniform-label-noise box classifier
REFERENCE_ROC_POINTS = [
    (0.000, 0.000),
    (0.174, 0.185),
    (0.183, 0.289),
    (0.214, 0.551),
    (0.247, 0.852),
    (0.262, 0.972),
    (0.274, 0.996),
    (0.289, 0.997),
    (0.311, 0.998),
    (0.335, 0.999),
    (1.000, 1.000),
]


def points(curve):
    """The curve's (threshold, fpr, tpr) points, read off its columns."""
    return list(zip(curve.thresholds.tolist(), curve.fpr.tolist(), curve.tpr.tolist()))


def ann_verdict(ann_id, score, image_id=1, flagged=False):
    return BoxVerdict(
        annotation_id=ann_id,
        cluster_id=ann_id,
        image_id=image_id,
        quality_score=score,
        flagged=flagged,
        verdict_kind="ok",
    )


def region_verdict(score, bbox, image_id=1, cluster_id=9000):
    return BoxVerdict(
        annotation_id=None,
        cluster_id=cluster_id,
        image_id=image_id,
        quality_score=score,
        flagged=True,
        verdict_kind="missing_region",
        region=bbox,
    )


def label_entry(ann_id):
    return LedgerEntry(annotation_id=ann_id, kind=NoiseKind.UNIFORM_LABEL)


def missing_entry(ann_id, x, y, w, h, image_id=1):
    return LedgerEntry(
        annotation_id=ann_id,
        kind=NoiseKind.MISSING,
        original=original_box(ann_id, image_id, 1, x, y, w, h),
    )


# --- confusion counts -------------------------------------------------------------


def test_empty_ledger_counts_everything_negative():
    verdicts = [ann_verdict(i, 0.9) for i in range(1, 6)]
    c = confusion_at(verdict_table(verdicts), NoiseLedger.of([]), 0.5)
    assert (c.tp, c.fp, c.tn, c.fn) == (0, 0, 5, 0)


def test_tau_one_flags_every_annotation():
    verdicts = [ann_verdict(i, 0.2 * i) for i in range(1, 6)]
    ledger = NoiseLedger.of([label_entry(2), label_entry(4)])
    c = confusion_at(verdict_table(verdicts), ledger, 1.0)
    assert c.tp == 2  # ledger entries present in the dataset
    assert c.tn == 0
    assert c.fpr == 1.0 and c.tpr == 1.0


def test_exact_detection_counts():
    verdicts = [ann_verdict(i, 0.05 if i <= 2 else 0.9) for i in range(1, 11)]
    ledger = NoiseLedger.of([label_entry(1), label_entry(2)])
    c = confusion_at(verdict_table(verdicts), ledger, 0.1)
    assert (c.tp, c.fp, c.tn, c.fn) == (2, 0, 8, 0)
    assert c.fpr == 0.0 and c.tpr == 1.0


def test_ledger_for_different_dataset_rejected():
    verdicts = [ann_verdict(1, 0.5)]
    ledger = NoiseLedger.of([label_entry(99)])
    with pytest.raises(InvalidInputError):
        confusion_at(verdict_table(verdicts), ledger, 0.5)


def test_removed_annotation_that_still_has_a_verdict_rejected():
    """A missing entry for an annotation the verdicts still hold would count
    as removed and as present at once."""
    verdicts = [ann_verdict(1, 0.5), ann_verdict(2, 0.9)]
    ledger = NoiseLedger.of([missing_entry(1, 10, 10, 20, 20)])
    with pytest.raises(InvalidInputError, match=r"marks annotations removed .*\(e\.g\. \[1\]\)"):
        roc_curve(verdict_table(verdicts), ledger)


@pytest.mark.parametrize("entry", [missing_entry(50, 10, 10, 20, 20), label_entry(1)])
def test_repeated_ledger_annotation_rejected(entry):
    """Each repeat of a missing entry would count one more removed box."""
    table = verdict_table([ann_verdict(1, 0.9), region_verdict(0.1, BBox(10, 10, 20, 20))])
    with pytest.raises(InvalidInputError, match=r"more than once \(e\.g\. \[(50|1)\]\)"):
        roc_curve(table, NoiseLedger.of([entry, entry]))
    roc_curve(table, NoiseLedger.of([entry]))  # once is fine


def test_missing_record_matched_by_overlapping_region():
    verdicts = [
        ann_verdict(1, 0.9),
        region_verdict(0.1, BBox(10, 10, 20, 20)),
    ]
    ledger = NoiseLedger.of([missing_entry(50, 11, 11, 20, 20)])
    c = confusion_at(verdict_table(verdicts), ledger, 0.5)
    assert (c.tp, c.fp, c.tn, c.fn) == (1, 0, 1, 0)


def test_unmatched_missing_record_is_false_negative():
    verdicts = [ann_verdict(1, 0.9), region_verdict(0.1, BBox(500, 500, 10, 10))]
    ledger = NoiseLedger.of([missing_entry(50, 10, 10, 20, 20)])
    c = confusion_at(verdict_table(verdicts), ledger, 0.5)
    # region overlaps nothing: false positive; removed record missed
    assert (c.tp, c.fp, c.tn, c.fn) == (0, 1, 1, 1)


def test_region_below_match_iou_does_not_count():
    verdicts = [region_verdict(0.1, BBox(0, 0, 10, 10))]
    ledger = NoiseLedger.of([missing_entry(50, 8, 8, 10, 10)])
    c = confusion_at(verdict_table(verdicts), ledger, 0.5)
    assert (c.tp, c.fn, c.fp) == (0, 1, 1)
    # a looser matching IoU accepts the same pair
    c = confusion_at(verdict_table(verdicts), ledger, 0.5, match_iou=0.01)
    assert (c.tp, c.fn, c.fp) == (1, 0, 0)


def test_region_on_other_image_never_matches():
    verdicts = [region_verdict(0.1, BBox(10, 10, 20, 20), image_id=2)]
    ledger = NoiseLedger.of([missing_entry(50, 10, 10, 20, 20, image_id=1)])
    c = confusion_at(verdict_table(verdicts), ledger, 0.5)
    assert (c.tp, c.fn, c.fp) == (0, 1, 1)


def test_greedy_matching_is_one_to_one_by_descending_iou():
    # two regions compete for one removed record; the higher-IoU one wins
    verdicts = [
        region_verdict(0.1, BBox(10, 10, 20, 20), cluster_id=1),
        region_verdict(0.1, BBox(12, 12, 20, 20), cluster_id=2),
    ]
    ledger = NoiseLedger.of([missing_entry(50, 10, 10, 20, 20)])
    c = confusion_at(verdict_table(verdicts), ledger, 0.5)
    assert (c.tp, c.fp, c.fn) == (1, 1, 0)


def test_region_above_tau_is_ignored():
    verdicts = [region_verdict(0.8, BBox(10, 10, 20, 20))]
    ledger = NoiseLedger.of([missing_entry(50, 10, 10, 20, 20)])
    c = confusion_at(verdict_table(verdicts), ledger, 0.5)
    assert (c.tp, c.fp, c.fn) == (0, 0, 1)


def test_marginals_match_population():
    rng = random.Random(71)
    verdicts = [ann_verdict(i, rng.random()) for i in range(1, 101)]
    noisy_ids = rng.sample(range(1, 101), 20)
    ledger = NoiseLedger.of([label_entry(i) for i in noisy_ids])
    for tau in DEFAULT_THRESHOLDS:
        c = confusion_at(verdict_table(verdicts), ledger, tau)
        assert c.tp + c.fn == 20
        assert c.fp + c.tn == 80


# --- roc curves ---------------------------------------------------------------------


def test_perfect_separation_gives_auroc_one():
    verdicts = [ann_verdict(i, 0.0 if i <= 3 else 1.0) for i in range(1, 11)]
    ledger = NoiseLedger.of([label_entry(i) for i in (1, 2, 3)])
    curve = roc_curve(verdict_table(verdicts), ledger)
    assert curve.auroc == pytest.approx(1.0)


def test_random_scores_give_auroc_near_half():
    rng = random.Random(73)
    verdicts = [ann_verdict(i, rng.random()) for i in range(1, 10001)]
    noisy = rng.sample(range(1, 10001), 2000)
    ledger = NoiseLedger.of([label_entry(i) for i in noisy])
    table = verdict_table(verdicts)
    curve = roc_curve(table, ledger, dense_thresholds(table))
    assert curve.auroc == pytest.approx(0.5, abs=0.05)


def test_reference_sweep_auroc():
    assert auroc(REFERENCE_ROC_POINTS) == pytest.approx(0.805, abs=0.005)


def test_curve_contains_grid_and_is_monotone():
    rng = random.Random(79)
    verdicts = [ann_verdict(i, rng.random()) for i in range(1, 201)]
    ledger = NoiseLedger.of([label_entry(i) for i in rng.sample(range(1, 201), 40)])
    curve = roc_curve(verdict_table(verdicts), ledger)
    testable = points(curve)
    assert [t for t, _, _ in testable] == DEFAULT_THRESHOLDS
    for (_, f1, t1), (_, f2, t2) in zip(testable, testable[1:]):
        assert f2 >= f1 and t2 >= t1
    assert curve.thresholds[0] == 0.0
    assert curve.thresholds[-1] == 1.0
    assert curve.fpr[-1] == 1.0 and curve.tpr[-1] == 1.0


def test_monotone_even_with_missing_noise():
    rng = random.Random(83)
    verdicts = [ann_verdict(i, rng.random()) for i in range(1, 101)]
    entries = []
    for j in range(30):
        x, y = rng.uniform(0, 500), rng.uniform(0, 500)
        entries.append(missing_entry(1000 + j, x, y, 20, 20, image_id=j % 3))
        if rng.random() < 0.8:
            verdicts.append(
                region_verdict(
                    rng.random(),
                    BBox(x + rng.uniform(-3, 3), y + rng.uniform(-3, 3), 20, 20),
                    image_id=j % 3,
                    cluster_id=2000 + j,
                )
            )
    ledger = NoiseLedger.of(entries)
    table = verdict_table(verdicts)
    curve = roc_curve(table, ledger, dense_thresholds(table))
    for (_, f1, t1), (_, f2, t2) in zip(points(curve), points(curve)[1:]):
        assert f2 >= f1 - 1e-12
        assert t2 >= t1 - 1e-12


def test_empty_ledger_is_an_error():
    verdicts = [ann_verdict(1, 0.5)]
    with pytest.raises(EmptyLedgerError):
        roc_curve(verdict_table(verdicts), NoiseLedger.of([]))


def test_bad_threshold_grids_rejected():
    verdicts = [ann_verdict(1, 0.5)]
    ledger = NoiseLedger.of([label_entry(1)])
    with pytest.raises(InvalidInputError):
        roc_curve(verdict_table(verdicts), ledger, [1.0, 0.0])
    with pytest.raises(InvalidInputError):
        roc_curve(verdict_table(verdicts), ledger, [0.0, 0.5])


@pytest.mark.parametrize("match_iou", [0.0, -1.0, float("nan"), 1.5])
def test_match_iou_outside_unit_interval_rejected(match_iou):
    # at match_iou <= 0 a flagged region 500 px from the only removed box
    # would count as a true positive
    table = verdict_table([ann_verdict(1, 0.9), region_verdict(0.1, BBox(500, 500, 10, 10))])
    ledger = NoiseLedger.of([missing_entry(50, 10, 10, 20, 20)])
    with pytest.raises(InvalidInputError, match="match_iou"):
        confusion_at(table, ledger, 0.5, match_iou=match_iou)
    with pytest.raises(InvalidInputError, match="match_iou"):
        roc_curve(table, ledger, match_iou=match_iou)


# --- auroc ---------------------------------------------------------------------------


def test_diagonal_is_exactly_half():
    assert auroc([(0.0, 0.0), (1.0, 1.0)]) == 0.5


def test_perfect_classifier_is_one():
    assert auroc([(0.0, 0.0), (0.0, 1.0), (1.0, 1.0)]) == 1.0


def test_fewer_than_two_points_rejected():
    with pytest.raises(InvalidInputError):
        auroc([(0.0, 0.0)])


def test_auroc_in_unit_interval():
    rng = random.Random(89)
    for _ in range(50):
        pts = sorted((rng.random(), rng.random()) for _ in range(8))
        assert 0.0 <= auroc(pts) <= 1.0


def test_auroc_invariant_under_monotone_score_transform():
    rng = random.Random(97)
    verdicts = [ann_verdict(i, rng.random()) for i in range(1, 301)]
    ledger = NoiseLedger.of([label_entry(i) for i in rng.sample(range(1, 301), 60)])
    table = verdict_table(verdicts)
    base = roc_curve(table, ledger, dense_thresholds(table))
    squashed = [
        BoxVerdict(
            annotation_id=v.annotation_id,
            cluster_id=v.cluster_id,
            image_id=v.image_id,
            quality_score=v.quality_score**2,  # strictly increasing on [0, 1]
            flagged=v.flagged,
            verdict_kind=v.verdict_kind,
        )
        for v in verdicts
    ]
    squashed = verdict_table(squashed)
    transformed = roc_curve(squashed, ledger, dense_thresholds(squashed))
    assert {(f, t) for _, f, t in points(base)} == {
        (f, t) for _, f, t in points(transformed)
    }
    assert transformed.auroc == pytest.approx(base.auroc)


# rates that tie, repeat, sit on the anchors or have no short repr
RATE_POOL = [0.0, -0.0, 1.0, 0.5, 0.1 + 0.2, 1 / 3, 1e-17, 2 / 3]


def test_auroc_equals_trapezoid_loop_bit_for_bit():
    rng = random.Random(103)
    seen = {"tied fpr": 0, "repeated point": 0, "anchor point": 0}
    for _ in range(1200):
        rate = lambda: rng.choice(RATE_POOL) if rng.random() < 0.5 else rng.random()
        pts = [(rate(), rate()) for _ in range(rng.randint(2, 14))]
        pts += rng.sample(pts, rng.randint(0, len(pts)))  # repeated points
        rng.shuffle(pts)
        seen["tied fpr"] += len({f for f, _ in pts}) < len(pts)
        seen["repeated point"] += len(set(pts)) < len(pts)
        seen["anchor point"] += (0.0, 0.0) in pts or (1.0, 1.0) in pts
        want = reference_auroc(pts).hex()
        assert auroc(pts).hex() == want, pts
        assert auroc(np.array(pts)).hex() == want, pts
    assert all(n >= 100 for n in seen.values()), seen


def _conflict_case(regions, removed):
    """Region verdicts (score, [x, y, w, h]) and removed records ([x, y, w, h])
    on one image."""
    verdicts = [
        region_verdict(score, BBox(*box), cluster_id=100 + k) for k, (score, box) in enumerate(regions)
    ]
    entries = [missing_entry(50 + k, *box) for k, box in enumerate(removed)]
    return verdicts, NoiseLedger.of(entries)


@pytest.mark.parametrize("regions, removed, counts", [
    # one region overlapping two removed boxes: it matches the closer one,
    # and the other stays missed whatever the cutoff
    ([(0.2, [10, 10, 20, 20])], [[11, 11, 20, 20], [13, 13, 20, 20]],
     {0.1: (0, 0, 2), 0.2: (1, 0, 1), 1.0: (1, 0, 1)}),
    # two regions overlapping one removed box: the closer one matches once
    # flagged, and the other is then a false positive; flagged alone, the
    # farther one matches
    ([(0.6, [10, 10, 20, 20]), (0.3, [13, 13, 20, 20])], [[11, 11, 20, 20]],
     {0.1: (0, 0, 1), 0.3: (1, 0, 0), 0.6: (1, 1, 0), 1.0: (1, 1, 0)}),
    # both regions overlap both records; the first region's second-best
    # pair ties the second region's best one, and the tie goes to the first
    ([(0.5, [10, 10, 20, 20]), (0.2, [14, 14, 20, 20])], [[11, 11, 20, 20], [12, 12, 20, 20]],
     {0.2: (1, 0, 1), 0.5: (2, 0, 0)}),
])
def test_sweep_on_a_conflicted_image(regions, removed, counts):
    verdicts, ledger = _conflict_case(regions, removed)
    table = verdict_table(verdicts)
    for tau, (tp, fp, fn) in counts.items():
        c = confusion_at(table, ledger, tau)
        assert (c.tp, c.fp, c.fn) == (tp, fp, fn), tau
        assert c == reference_confusion_at(verdicts, ledger, tau)
    thresholds = dense_thresholds(table)
    got, want = roc_curve(table, ledger, thresholds), reference_roc_curve(verdicts, ledger, thresholds)
    assert points(got) == points(want) and got.auroc == want.auroc


# --- single-pass sweep vs. the per-threshold reference ----------------------------

# a small score pool makes scores repeat and land exactly on grid thresholds
SCORE_POOL = [0.0, 0.1, 0.3, 0.5, 0.5, 0.7, 1.0]


def _random_case(rng):
    """Verdicts and a mixed label/missing ledger over a few images, with
    duplicated boxes (IoU ties), several regions around one removed box and
    several removed boxes under one region, ``region=None`` verdicts and
    ``original=None`` records."""
    verdicts, entries = [], []
    ann_id, cluster_id = 0, 0

    def score():
        return rng.choice(SCORE_POOL) if rng.random() < 0.6 else rng.random()

    for image_id in range(1, rng.randint(1, 4) + 1):
        anchors = [(rng.randint(0, 3) * 40, rng.randint(0, 3) * 40) for _ in range(rng.randint(1, 3))]
        for _ in range(rng.randint(0, 6)):
            ann_id += 1
            verdicts.append(ann_verdict(ann_id, score(), image_id=image_id))
            if rng.random() < 0.3:
                entries.append(label_entry(ann_id))
        for _ in range(rng.randint(0, 5)):
            ax, ay = rng.choice(anchors)
            ann_id += 1
            entries.append(
                missing_entry(ann_id, ax + rng.choice([0, 0, 2, 5]), ay + rng.choice([0, 3]), 20, 20, image_id=image_id)
            )
        for _ in range(rng.randint(0, 5)):
            ax, ay = rng.choice(anchors)
            cluster_id += 1
            bbox = BBox(ax + rng.choice([0, 0, 2, 5]), ay + rng.choice([0, 3]), 20, rng.choice([20, 24]))
            verdicts.append(
                region_verdict(score(), bbox if rng.random() < 0.9 else None, image_id=image_id, cluster_id=cluster_id)
            )
    if rng.random() < 0.3:
        ann_id += 1
        entries.append(LedgerEntry(annotation_id=ann_id, kind=NoiseKind.MISSING))
    if not entries:
        ann_id += 1
        entries.append(missing_entry(ann_id, 0, 0, 20, 20))
    rng.shuffle(verdicts)
    return verdicts, NoiseLedger.of(entries)


@pytest.mark.parametrize("seed", range(300))
def test_sweep_equals_per_threshold_reference(seed):
    rng = random.Random(seed)
    verdicts, ledger = _random_case(rng)
    match_iou = rng.choice([0.3, 0.5, 0.7, 1.0])
    table = verdict_table(verdicts)
    for thresholds in (DEFAULT_THRESHOLDS, dense_thresholds(table)):
        got = roc_curve(table, ledger, thresholds, match_iou=match_iou)
        want = reference_roc_curve(verdicts, ledger, thresholds, match_iou=match_iou)
        assert points(got) == points(want)
        assert all(c.dtype == np.float64 for c in (got.thresholds, got.fpr, got.tpr))
        assert got.auroc == want.auroc
    scores = [v.quality_score for v in verdicts]
    for tau in [rng.random(), rng.choice(SCORE_POOL), *rng.sample(scores, min(3, len(scores)))]:
        assert confusion_at(table, ledger, tau, match_iou=match_iou) == reference_confusion_at(
            verdicts, ledger, tau, match_iou=match_iou
        )


def test_dense_sweep_over_many_regions_is_fast():
    # the per-threshold replay took ~2 minutes here on a 2-core host: 10k x 10k
    # scalar IoUs, then a walk over every matched pair at each of ~40k thresholds
    rng = random.Random(101)
    verdicts, entries = [], []
    ann_id = 0
    for image_id in range(1, 5001):
        for _ in range(6):
            ann_id += 1
            verdicts.append(ann_verdict(ann_id, rng.random(), image_id=image_id))
            if rng.random() < 0.2:
                entries.append(label_entry(ann_id))
        for k in range(2):
            ann_id += 1
            x, y = 100 * k + rng.uniform(0, 20), rng.uniform(0, 500)
            entries.append(missing_entry(ann_id, x, y, 40, 40, image_id=image_id))
            verdicts.append(
                region_verdict(
                    rng.random(),
                    BBox(x + rng.uniform(-4, 4), y + rng.uniform(-4, 4), 40, 40),
                    image_id=image_id,
                    cluster_id=ann_id,
                )
            )
    ledger = NoiseLedger.of(entries)
    table = verdict_table(verdicts)
    thresholds = dense_thresholds(table)

    start = time.time()
    curve = roc_curve(table, ledger, thresholds)
    elapsed = time.time() - start

    assert len(curve.thresholds) == len(thresholds) > 40000
    assert curve.tpr[-1] == 1.0
    assert elapsed < 30.0, f"dense sweep took {elapsed:.2f}s"


def test_median_equals_statistics_median():
    """On odd and even counts, with repeats, ``median`` is the float
    ``statistics.median`` gives: the middle value, or (a + b) / 2."""
    rng = random.Random(17)
    lengths = set()
    for _ in range(400):
        n = rng.randint(1, 12)
        values = [rng.choice([0.0, 0.5, 1.0, 0.1 + 0.2, rng.random()]) for _ in range(n)]
        got = median(values)
        assert type(got) is float
        assert got == statistics.median(values), values
        lengths.add(n % 2)
    assert lengths == {0, 1}
