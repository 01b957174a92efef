"""The four loaders (ground truth, predictions, ledgers and reports) read
a file through one block reader. Against the ``json.load`` loaders they
replaced (``loader_reference``, ``noise_reference``, ``report_reference``)
they give equal results on valid files and the same exception type and
text on invalid ones, with chunks small enough that records straddle chunks
and blocks. ``_read_json`` may word a syntax error but never loads the data,
so no command decodes a whole file; a list held in one chunk is one block;
and the report loader's memory does not grow with the findings it skips."""

import copy
import json
import random
import re
from collections import Counter

import pytest

import loader_reference
import noise_reference
import report_reference
from boxaudit import dataset_io
from boxaudit.cli import main
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
from boxaudit.errors import DanglingReferenceError, DuplicateIdError, FormatError, InvalidInputError
from boxaudit.geometry import BBox
from boxaudit.noise_injection import NoiseKind, NoiseSpec, inject
from boxaudit.pipeline import run_detection

from harness import build_synthetic, traced_peak, write_synthetic
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
        table, peak = traced_peak(load_report, path, ds)
        assert len(table) == 1_000
        peaks.append(peak)
    # the ratio reads about 1.01 here; decoding the whole file put it near 6.6
    assert peaks[1] < 1.35 * peaks[0], peaks


def test_ground_truth_reader_memory_grows_only_with_the_columns(tmp_path):
    """2,000 and 16,000 annotations on 10 boxes an image, in the sorted
    layout ``save_dataset`` writes (annotations first): the annotations are
    kept as columns, not as records until the file ends."""
    peaks = []
    for n in (2_000, 16_000):
        gt, _ = build_synthetic(num_images=n // 10, boxes_per_image=10, seed=1)
        path = tmp_path / f"gt-{n}.json"
        path.write_text(json.dumps(gt, sort_keys=True))
        ds, peak = traced_peak(load_ground_truth, path)
        assert len(ds.columns) == n
        peaks.append(peak)
    # about 92 B per annotation here; holding the records until the end cost about 690
    assert peaks[1] - peaks[0] <= 200 * 14_000, peaks


# --- ground truth ----------------------------------------------------------------

GT_KEYS = ("images", "categories", "annotations")
GT_MUTATIONS = ["early rule, late syntax", "braces in strings", "bom", "non-utf8", "long whitespace",
                "trailing", "top level", "repeated key", "duplicate id", "token",
                "placing rule, later type rule", "type rule, later placing rule",
                "catalog after a refused annotation", "bbox and unknown image"]
# the refusals of the rules that need the images or categories, checked when the file ends
PLACING_ERRORS = (DanglingReferenceError, InvalidInputError)


@pytest.fixture(scope="module")
def ground_truth(tmp_path_factory):
    """A small synthetic ground-truth payload and the path mutations of it are written to."""
    root = tmp_path_factory.mktemp("streamed-gt")
    gt, _ = write_synthetic(root, num_images=6, boxes_per_image=4, num_classes=4, seed=3)
    return json.loads(gt.read_text()), root / "mutated.json"


def _same_ground_truth(path):
    got, got_error = _outcome(load_ground_truth, path)
    want, want_error = _outcome(loader_reference.load_ground_truth, path)
    if want_error and issubclass(want_error[0], (ValueError, RecursionError)):
        # loader_reference lets json.load's own error escape; the loader words it
        want_error = (FormatError, f"{path}: invalid JSON: {want_error[1]}")
    assert got_error == want_error
    if want_error is None:
        assert (got.images, got.categories) == (want.images, want.categories)
        assert repr(got.annotations) == repr(want.annotations)
    return want_error


def _break_annotation(rng, annotation) -> None:
    """A refusal by the rules, not by the syntax."""
    key, value = rng.choice([("image_id", 999), ("category_id", "1"), ("id", 1.5),
                             ("bbox", [0, 0, 0, 0]), ("bbox", None)])
    annotation[key] = value


def _break_placing(rng, annotation) -> None:
    """A refusal by a rule that needs the images (800 x 600) or categories."""
    key, value = rng.choice([("image_id", 999), ("category_id", 999),
                             ("bbox", [-90.0, 5.0, 40.0, 30.0]), ("bbox", [810, 5, 40, 30])])
    annotation[key] = value


def _break_type(rng, annotation) -> None:
    """A refusal by a rule that needs neither."""
    key, value = rng.choice([("id", 1.5), ("image_id", "1"), ("category_id", None),
                             ("bbox", None), ("bbox", [1, 2, 3]), ("bbox", [0, 0, "8", 8])])
    annotation[key] = value


def _mutate_ground_truth(rng, what, payload):
    """Mutation ``what``, seeded by ``rng``, of a valid ground-truth
    payload; returns the file's text or bytes."""
    annotations = payload["annotations"]
    if what == "early rule, late syntax":
        _break_annotation(rng, annotations[rng.randrange(2)])
        return _late_syntax_error(rng, _dump(rng, payload))
    if what == "braces in strings":
        for key in GT_KEYS:
            rng.choice(payload[key])["note"] = rng.choice(["},{", "} , {", '"},{"x": 1}, {', "}]"])
        if rng.random() < 0.5:
            _break_annotation(rng, rng.choice(annotations))
        return _dump(rng, payload)
    if what in ("bom", "non-utf8", "long whitespace", "trailing", "token"):
        # these mutate the dumped text only, whatever the kind of file
        return _mutate(rng, what, "predictions", payload, Counter())
    if what == "top level":
        return rng.choice([LONG_NUMBER, '"x"', "null", "{}", "[]", json.dumps(annotations),
                           " \n" + json.dumps(list(payload.values())) + "\n"])
    if what == "repeated key":
        key = rng.choice(["annotations", "images"])
        good = json.dumps(payload.pop(key))
        bad = json.loads(good)
        if key == "annotations":
            _break_annotation(rng, rng.choice(bad))
        else:
            rng.choice(bad)["width"] = rng.choice([0, "800", None])
        first, last = rng.choice([(json.dumps(bad), good), (good, json.dumps(bad)),
                                  (good, LONG_NUMBER), (LONG_NUMBER, good), (good, "{}")])
        rest = json.dumps(payload)[1:-1]
        return f'{{"{key}": {first}, {rest}, "{key}": {last}}}'
    if what == "duplicate id":
        later = rng.randrange(len(annotations) // 2, len(annotations))
        annotations[later]["id"] = annotations[rng.randrange(later)]["id"]
        return _dump(rng, payload)
    if what in ("placing rule, later type rule", "type rule, later placing rule"):
        # the first two rows and the last two lie in different blocks at every chunk size
        first, later = annotations[rng.randrange(2)], annotations[rng.randrange(-2, 0)]
        if what.startswith("placing"):
            _break_placing(rng, first)
            _break_type(rng, later)
        else:
            _break_type(rng, first)
            _break_placing(rng, later)
        return _dump(rng, payload)
    if what == "catalog after a refused annotation":  # sorted keys: annotations come first
        _break_annotation(rng, rng.choice(annotations))
        if rng.random() < 0.5:
            rng.choice(payload["images"])["width"] = rng.choice([0, "800", None])
        else:
            rng.choice(payload["categories"])["id"] = rng.choice([5.5, None, "7"])
        return json.dumps(payload, indent=rng.choice([None, 2]), sort_keys=True)
    if what == "bbox and unknown image":
        annotation = rng.choice(annotations)
        annotation["image_id"] = 999
        annotation["bbox"] = rng.choice([None, [1, 2, 3], [0, 0, "8", 8], [0, 0, 0, 0],
                                         [-90.0, 5.0, 40.0, 30.0], [0, 0, float("nan"), 1]])
        return _dump(rng, payload)
    raise ValueError(what)


def test_mutated_ground_truth_loads_as_reference(ground_truth, monkeypatch, loaded_by_read_json):
    payload, path = ground_truth
    counts, errors = Counter(), Counter()
    for seed in range(60 * len(GT_MUTATIONS)):
        rng = random.Random(f"ground-truth-{seed}")
        monkeypatch.setattr(dataset_io, "_CHUNK", rng.choice(CHUNKS))
        what = GT_MUTATIONS[seed % len(GT_MUTATIONS)]
        counts[what] += 1
        mutated = _mutate_ground_truth(rng, what, copy.deepcopy(payload))
        if isinstance(mutated, str):
            path.write_text(mutated, encoding="utf-8")
        else:
            path.write_bytes(mutated)
        error = _same_ground_truth(path)
        if what == "early rule, late syntax":  # the syntax error wins over the earlier refusal
            assert error[0] is FormatError and "invalid JSON" in error[1], (seed, error)
        if what == "duplicate id":
            assert error[0] is DuplicateIdError, (seed, error)
        if what.endswith("type rule"):  # the lower row wins, whichever rule refuses it
            assert issubclass(error[0], PLACING_ERRORS), (seed, error)
        if what.endswith("placing rule"):
            assert error[0] is FormatError, (seed, error)
        if what == "catalog after a refused annotation":
            assert error[1].startswith(("images[", "categories[")), (seed, error)
        if what == "bbox and unknown image":  # "known image_id" comes before the bbox rules
            assert error[0] is DanglingReferenceError, (seed, error)
            assert error[1].endswith("unknown image_id 999"), (seed, error)
        errors[error[0].__name__ if error else None] += 1
    assert not loaded_by_read_json
    assert min(counts.values()) == 60, counts
    assert errors[None] >= 10 and errors["FormatError"] >= 100, errors
    assert errors["DanglingReferenceError"] and errors["InvalidInputError"], errors


def test_truncated_ground_truth_loads_as_reference(ground_truth, monkeypatch, loaded_by_read_json):
    """A small file cut at every offset; each cut reads to its end and stops."""
    payload, path = ground_truth
    annotations = [a for a in payload["annotations"] if a["image_id"] <= 2][:2]
    text = json.dumps({"annotations": annotations, "categories": payload["categories"],
                       "images": payload["images"][:2]})
    errors = Counter()
    for end in range(len(text) + 1):
        monkeypatch.setattr(dataset_io, "_CHUNK", CHUNKS[end % 3])
        path.write_text(text[:end])
        error = _same_ground_truth(path)
        errors[error[0].__name__ if error else None] += 1
    assert not loaded_by_read_json
    assert errors == {None: 1, "FormatError": len(text)}, errors


# --- one path per file -----------------------------------------------------------

def test_a_list_held_in_one_chunk_is_checked_as_one_block(files, monkeypatch):
    """A list that fits in one chunk is one block for the rule table, its
    last record included, and a refused last record is named by its row."""
    checked = []
    check = dataset_io._Rows.check

    def spy(self, rules):
        if len(self):
            checked.append((self.where(0), len(self)))
        return check(self, rules)

    monkeypatch.setattr(dataset_io._Rows, "check", spy)
    path = files["path"]
    refusals = {"predictions": ("score", 2.5), "ledger": ("noise_type", "bogus"),
                "report": ("quality_score", 1.5)}
    for kind, name in (("predictions", "detections"), ("ledger", "entries"), ("report", "verdicts")):
        payload = copy.deepcopy(files["payloads"][kind])
        records = _records(kind, payload)
        for refused in (False, True):
            if refused:
                key, value = refusals[kind]
                records[-1][key] = value
            path.write_text(json.dumps(payload, indent=2))
            assert len(path.read_text()) < dataset_io._CHUNK
            checked.clear()
            error = _same_outcome(kind, path, files["datasets"][kind])
            assert [c for c in checked if c[0].startswith(f"{name}[")] == [
                (f"{name}[0]", len(records))
            ], (kind, refused, checked)
            assert (error is not None) == refused
            if refused:
                assert error[1].startswith(f"{name}[{len(records) - 1}]"), error


def test_a_number_cut_by_a_chunk_is_read_whole(ground_truth, monkeypatch):
    """A top-level number cut after its "." or "e" at a chunk's end is read
    on, not taken as the number before the cut."""
    _, path = ground_truth
    path.write_text('{"annotations": [], "area": -1234567.5e+3, "categories": [], "images": []}')
    for chunk in range(7, 40):
        monkeypatch.setattr(dataset_io, "_CHUNK", chunk)
        assert _same_ground_truth(path) is None, chunk


def test_no_command_decodes_a_whole_file(tmp_path, loaded_by_read_json):
    """inject, detect, eval and roc read every JSON file through the block
    reader: ``_read_json`` returns data for no path."""
    gt, preds = write_synthetic(tmp_path, num_images=8, boxes_per_image=4, seed=5)
    spec = ["--noise-kind", "missing", "--fraction", "0.2", "--seed", "1"]
    inject_dir, detect_dir = tmp_path / "inject", tmp_path / "detect"
    assert main(["inject", "--ground-truth", str(gt), *spec, "--output-dir", str(inject_dir)]) == 0
    noisy = str(inject_dir / "noisy.json")
    assert main(["detect", "--ground-truth", noisy, "--predictions", str(preds),
                 "--mode", "score_threshold", "--tau", "1.0", "--output-dir", str(detect_dir)]) == 0
    assert main(["eval", "--ground-truth", str(gt), "--predictions", str(preds), *spec,
                 "--runs", "2", "--output-dir", str(tmp_path / "eval")]) == 0
    assert main(["roc", "--ground-truth", noisy, "--report", str(detect_dir / "report.json"),
                 "--ledger", str(inject_dir / "ledger.json"),
                 "--output-dir", str(tmp_path / "roc")]) == 0
    assert (tmp_path / "roc" / "roc.json").is_file()
    assert not loaded_by_read_json
