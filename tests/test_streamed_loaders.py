"""The prediction, ledger and report loaders read a file a block of records
at a time. Against the ``json.load`` loaders they replaced
(``loader_reference``, ``noise_reference``, ``report_reference``) they give
equal columns on valid files and the same exception type and text on
invalid ones, with chunks small enough that records straddle chunks and
blocks. ``_read_json`` may word a syntax error but never loads the data,
and the report loader's memory does not grow with the findings it skips."""

import copy
import json
import random
import re
import tracemalloc
from collections import Counter

import pytest

import loader_reference
import noise_reference
import report_reference
from boxaudit import dataset_io
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
    save_ledger,
    save_report,
)
from boxaudit.errors import DuplicateIdError, FormatError
from boxaudit.geometry import BBox
from boxaudit.noise_injection import NoiseKind, NoiseSpec, inject
from boxaudit.pipeline import run_detection

from harness import write_synthetic
from test_report_equivalence import _assert_same_table

CHUNKS = [7, 16, 50, 128, 1000]
# the list each loader reads: its key in the top-level object (None: the top level)
KEYS = {"predictions": None, "ledger": "entries", "report": "verdicts"}
# a value that straddles small chunks, so its end must be read before it is taken
LONG_NUMBER = "-12345678901234567890.5e3"
NUMBER = re.compile(r"(?<=[\[:,\s])-?\d+(\.\d+)?([eE][-+]?\d+)?(?=[\],}\s])")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Predictions, a missing-noise ledger and a tau 1.0 report over a small
    synthetic dataset, with the datasets each loader and its reference read
    them against."""
    root = tmp_path_factory.mktemp("streamed")
    gt, preds = write_synthetic(root, num_images=6, boxes_per_image=4, num_classes=4, seed=3)
    ds = load_ground_truth(gt)
    noisy, ledger = inject(ds, NoiseSpec(NoiseKind.MISSING, 0.3, seed=1))
    save_ledger(ledger, root / "ledger.json", noisy.categories)
    save_report(run_detection(noisy, load_predictions(preds, ds), mode="score_threshold", tau=1.0),
                root / "report.csv")
    payloads = {kind: json.loads(path.read_text()) for kind, path in (
        ("predictions", preds), ("ledger", root / "ledger.json"), ("report", root / "report.json"))}
    return {
        "payloads": payloads,
        "datasets": {"predictions": (ds, loader_reference.load_ground_truth(gt)),
                     "ledger": (noisy, noisy), "report": (noisy, noisy)},
        "path": root / "mutated.json",
    }


@pytest.fixture
def loaded_by_read_json(monkeypatch):
    """The paths ``_read_json`` returned data for while the fixture is in use."""
    loaded = []
    read_json = dataset_io._read_json

    def spy(path):
        data = read_json(path)
        loaded.append(path)
        return data

    monkeypatch.setattr(dataset_io, "_read_json", spy)
    return loaded


LOADERS = {
    "predictions": (load_predictions, loader_reference.load_predictions),
    "ledger": (load_ledger, noise_reference.load_ledger),
    "report": (load_report, report_reference.load_report),
}


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except Exception as e:  # the reference's exception, whatever it is, must be matched
        return None, (type(e), str(e))


def _same_outcome(kind, path, datasets):
    load, reference = LOADERS[kind]
    got, got_error = _outcome(load, path, datasets[0])
    want, want_error = _outcome(reference, path, datasets[1])
    if kind == "predictions" and want_error and issubclass(want_error[0], (ValueError, RecursionError)):
        # loader_reference lets json.load's own error escape; the loaders word it
        want_error = (FormatError, f"{path}: invalid JSON: {want_error[1]}")
    assert got_error == want_error
    if want_error is None:
        if kind == "predictions":
            assert repr(got.boxes) == repr(want.boxes)
        elif kind == "ledger":
            assert repr(got.entries) == repr(want.entries)
        else:
            _assert_same_table(got, want, path)
    return want_error


def _records(kind, payload) -> list:
    return payload if KEYS[kind] is None else payload[KEYS[kind]]


def _break_record(rng, kind, record) -> None:
    """A refusal by the rules, not by the syntax."""
    if kind == "predictions":
        record[rng.choice(["image_id", "score"])] = rng.choice([999, 2.5, "1"])
    elif kind == "ledger":
        record[rng.choice(["noise_type", "annotation_id"])] = rng.choice(["bogus", None, 1.5])
    else:
        record[rng.choice(["quality_score", "image_id", "flagged"])] = rng.choice([1.5, 999, "no"])


def _dump(rng, payload) -> str:
    return json.dumps(payload, indent=rng.choice([None, 2]), sort_keys=rng.random() < 0.5)


def _late_syntax_error(rng, text: str) -> str:
    """``text`` with a stray character after one of the commas of its last third."""
    commas = [m.end() for m in re.finditer(",", text) if m.start() > 2 * len(text) // 3]
    at = rng.choice(commas)
    return text[:at] + rng.choice(["@", "}", ",", "'"]) + text[at:]


MUTATIONS = ["early rule, late syntax", "braces in strings", "bom", "non-utf8", "odd whitespace",
             "long whitespace", "token", "trailing", "top level", "repeated key"]


def _mutate(rng, what, kind, payload, counts):
    """Mutation ``what``, seeded by ``rng``, of a valid file's payload;
    returns the file's text or bytes."""
    records = _records(kind, payload)
    if what == "repeated key" and kind == "predictions":
        what = "top level"
    counts[what] += 1
    if what == "early rule, late syntax":
        _break_record(rng, kind, records[rng.randrange(2)])
        return _late_syntax_error(rng, _dump(rng, payload))
    if what == "braces in strings":
        for record in rng.sample(records, 3):
            record["note"] = rng.choice(["},{", "} , {", '"},{"x": 1}, {', "}\n,\n{", "]}, {["])
        if rng.random() < 0.5:
            _break_record(rng, kind, rng.choice(records))
        return _dump(rng, payload)
    if what == "bom":
        return "\ufeff" + _dump(rng, payload)
    if what == "odd whitespace":  # between two records: json.load allows only " \t\n\r"
        text = _dump(rng, payload)
        at = rng.choice([m.end() for m in re.finditer(r"},", text)])
        return text[:at] + rng.choice(["\x0c", "\x0b", "\xa0", "\u2028"]) + text[at:]
    if what == "long whitespace":  # longer than a chunk, between tokens or around the top level
        text = _dump(rng, payload)
        at = rng.choice([0, len(text), *(m.end() for m in re.finditer("[,:]", text))])
        return text[:at] + "\n" + " " * rng.choice([1_000, 3_000]) + text[at:]
    if what == "non-utf8":
        data = bytearray(_dump(rng, payload).encode())
        data[rng.randrange(len(data))] = rng.choice([0xFF, 0xC3, 0x80])
        return bytes(data)
    if what == "token":
        text = _dump(rng, payload)
        number = rng.choice(list(NUMBER.finditer(text)))
        token = rng.choice(["NaN", "Infinity", "-Infinity", "7" * 5000,
                            "[" * 50_000 + "]" * 50_000, '{"a":' * 50_000 + "1" + "}" * 50_000])
        return text[:number.start()] + token + text[number.end():]
    if what == "trailing":
        return _dump(rng, payload) + rng.choice([" x", " {}", "]", "}", " 1", ",", "\n\n[]"])
    if what == "top level":
        wrong = rng.choice([LONG_NUMBER, '"x"', "null", "true", "{}", "[]", json.dumps(records),
                            json.dumps({"detections": records})])
        return rng.choice([wrong, " \n" + wrong + "\n"])
    if what == "repeated key":
        key = KEYS[kind]
        good = json.dumps(records)
        bad = copy.deepcopy(records)
        _break_record(rng, kind, rng.choice(bad))
        first, last = rng.choice([(json.dumps(bad), good), (good, json.dumps(bad)),
                                  (good, LONG_NUMBER), (LONG_NUMBER, good), (good, "{}")])
        return f'{{"{key}": {first}, "findings": [{{"a": 1}}, {{"b": 2}}], "{key}": {last}}}'
    raise ValueError(what)


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_mutated_files_load_as_reference(kind, files, monkeypatch, loaded_by_read_json):
    path = files["path"]
    counts, errors = Counter(), Counter()
    for seed in range(100):
        rng = random.Random(f"{kind}-{seed}")
        monkeypatch.setattr(dataset_io, "_CHUNK", rng.choice(CHUNKS))
        what = MUTATIONS[seed % len(MUTATIONS)]
        mutated = _mutate(rng, what, kind, copy.deepcopy(files["payloads"][kind]), counts)
        if isinstance(mutated, str):
            path.write_text(mutated, encoding="utf-8")
        else:
            path.write_bytes(mutated)
        error = _same_outcome(kind, path, files["datasets"][kind])
        if what == "early rule, late syntax":  # the syntax error wins over the earlier refusal
            assert error[0] is FormatError and "invalid JSON" in error[1], (seed, error)
        errors[error[0].__name__ if error else None] += 1
    assert not loaded_by_read_json
    applicable = {"predictions": 9, "ledger": 10, "report": 10}[kind]
    assert len(counts) == applicable and min(counts.values()) >= 4, counts
    assert errors[None] >= 3 and errors["FormatError"] >= 30, errors


def test_repeated_annotation_id_in_a_later_block(files, monkeypatch):
    path = files["path"]
    payload = copy.deepcopy(files["payloads"]["report"])
    annotated = [k for k, v in enumerate(payload["verdicts"]) if v["annotation_id"] is not None]
    first, last = annotated[0], annotated[-1]
    repeated = payload["verdicts"][first]["annotation_id"]
    payload["verdicts"][last]["annotation_id"] = repeated
    path.write_text(json.dumps(payload, indent=2))
    for chunk in CHUNKS:
        monkeypatch.setattr(dataset_io, "_CHUNK", chunk)
        error = _same_outcome("report", path, files["datasets"]["report"])
        assert error == (DuplicateIdError, f"verdicts[{last}]: duplicate annotation_id {repeated}")


def test_truncated_files_load_as_reference(files, monkeypatch, loaded_by_read_json):
    """A small file cut at every offset; each cut reads to its end and stops."""
    path = files["path"]
    payloads = files["payloads"]
    small = {
        "predictions": payloads["predictions"][:2],
        "ledger": {"entries": payloads["ledger"]["entries"][:2]},
        "report": {**payloads["report"], "categories": payloads["report"]["categories"][:1],
                   "findings": payloads["report"]["findings"][:1],
                   "verdicts": payloads["report"]["verdicts"][:2]},
    }
    errors = Counter()
    for kind, payload in small.items():
        text = json.dumps(payload, indent=1 if kind != "predictions" else None)
        for end in range(len(text) + 1):
            monkeypatch.setattr(dataset_io, "_CHUNK", CHUNKS[end % 3])
            path.write_text(text[:end])
            error = _same_outcome(kind, path, files["datasets"][kind])
            errors[error[0].__name__ if error else None] += 1
    assert not loaded_by_read_json
    assert errors[None] >= 3 and errors["FormatError"] >= 1000, errors


def _report_text(verdicts: int, findings: int) -> str:
    finding = {"annotation_ids": [1, 2], "cluster_id": 3, "flagged_classes": ["background"],
               "image_id": 1, "prediction_ids": [4], "quality_score": 0.25,
               "region": [1.0, 2.0, 3.0, 4.0], "verdict_kind": "missing"}
    return json.dumps({
        "categories": [{"id": 7, "name": "cat"}],
        "findings": [finding] * findings,
        "summary": {"clusters": verdicts},
        "verdicts": [
            {"annotation_id": a, "cluster_id": a, "flagged": a % 3 == 0, "image_id": 1,
             "quality_score": 0.5, "region": None, "verdict_kind": "ok"}
            for a in range(1, verdicts + 1)
        ],
    }, indent=2)


def test_report_reader_memory_does_not_grow_with_the_findings(tmp_path):
    """The same 1,000 verdicts after 2,000 and after 16,000 findings: the
    findings are read a block at a time and dropped."""
    boxes = [AnnotatedBox(a, 1, 1, BBox(1.0, 2.0, 3.0, 4.0)) for a in range(1, 1001)]
    ds = Dataset([ImageInfo(1, 100, 80, "1.jpg")], [Category(1, "cat", 7)], BoxColumns.of(boxes))
    peaks = []
    for findings in (2_000, 16_000):
        path = tmp_path / f"report-{findings}.json"
        path.write_text(_report_text(1_000, findings))
        tracemalloc.start()
        try:
            assert len(load_report(path, ds)) == 1_000
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # the ratio reads about 1.01 here; decoding the whole file put it near 6.6
    assert peaks[1] < 1.35 * peaks[0], peaks
