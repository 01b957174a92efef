import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import boxaudit
from boxaudit.cli import _build_config, build_parser, main
from boxaudit.errors import InvalidSpecError
from boxaudit.noise_injection import NoiseKind, NoiseSpec
from boxaudit.pipeline import PipelineConfig

from conftest import coco_payload, write_json
from harness import build_synthetic, write_synthetic

PAST_FLOAT_RANGE = 10**400  # an integer json reads but float() refuses


def _small_gt(tmp_path, n=10):
    payload = coco_payload(
        images=[{"id": 1, "width": 1000, "height": 1000, "file_name": "a.jpg"}],
        categories=[{"id": 1, "name": "x"}, {"id": 2, "name": "y"}],
        annotations=[
            {"id": i, "image_id": 1, "category_id": 1 + i % 2, "bbox": [i * 90, 10, 40, 40]}
            for i in range(1, n + 1)
        ],
    )
    return write_json(tmp_path / "gt.json", payload)


def _perfect_predictions(tmp_path, gt_path):
    gt = json.loads(gt_path.read_text())
    preds = [
        {
            "image_id": a["image_id"],
            "category_id": a["category_id"],
            "bbox": a["bbox"],
            "score": 1.0,
        }
        for a in gt["annotations"]
    ]
    return write_json(tmp_path / "preds.json", preds)


# --- inject -----------------------------------------------------------------------


def test_inject_writes_noisy_dataset_and_ledger(tmp_path, capsys):
    gt = _small_gt(tmp_path)
    out = tmp_path / "out"
    rc = main(
        ["inject", "--ground-truth", str(gt), "--noise-kind", "missing",
         "--fraction", "0.2", "--seed", "7", "--output-dir", str(out)]
    )
    assert rc == 0
    noisy = json.loads((out / "noisy.json").read_text())
    ledger = json.loads((out / "ledger.json").read_text())
    assert len(noisy["annotations"]) == 8
    assert len(ledger["entries"]) == 2
    assert "8 annotations" in capsys.readouterr().out


def test_inject_location_without_amplitude_fails(tmp_path, capsys):
    gt = _small_gt(tmp_path)
    rc = main(
        ["inject", "--ground-truth", str(gt), "--noise-kind", "location",
         "--fraction", "0.2", "--output-dir", str(tmp_path / "o")]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error[invalid-spec]:")
    assert len(err.strip().splitlines()) == 1


def test_inject_same_seed_is_byte_identical(tmp_path):
    gt = _small_gt(tmp_path)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        main(
            ["inject", "--ground-truth", str(gt), "--noise-kind", "scale",
             "--fraction", "0.5", "--amplitude", "0.25", "--seed", "11",
             "--output-dir", str(out)]
        )
        outs.append(out)
    assert (outs[0] / "noisy.json").read_bytes() == (outs[1] / "noisy.json").read_bytes()
    assert (outs[0] / "ledger.json").read_bytes() == (outs[1] / "ledger.json").read_bytes()


def test_missing_input_file_reports_category(tmp_path, capsys):
    rc = main(
        ["inject", "--ground-truth", str(tmp_path / "absent.json"),
         "--noise-kind", "missing", "--fraction", "0.2",
         "--output-dir", str(tmp_path)]
    )
    assert rc == 1
    assert capsys.readouterr().err.startswith("error[missing-file]:")


def test_unwritable_output_dir_reports_io_failure(tmp_path, capsys):
    gt = _small_gt(tmp_path)
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    rc = main(
        ["inject", "--ground-truth", str(gt), "--noise-kind", "missing",
         "--fraction", "0.2", "--output-dir", str(blocker)]
    )
    assert rc == 1
    assert capsys.readouterr().err.startswith("error[io-failure]:")


@pytest.mark.parametrize("argv", [
    ["detect", "--iou-threshold", "1.5"],
    ["eval", "--noise-kind", "missing", "--fraction", "0.2", "--iou-threshold", "0"],
    ["eval", "--noise-kind", "missing", "--fraction", "0.2", "--runs", "0"],
], ids=["detect-iou-1.5", "eval-iou-0", "eval-runs-0"])
def test_bad_iou_threshold_rejected(tmp_path, capsys, argv):
    """A flag out of range is an invalid spec, as every other refused flag
    is, and is refused before the output directory is made."""
    gt = _small_gt(tmp_path)
    preds = _perfect_predictions(tmp_path, gt)
    command, *flags = argv
    rc = main(
        [command, "--ground-truth", str(gt), "--predictions", str(preds), *flags,
         "--output-dir", str(tmp_path / "o")]
    )
    assert rc == 1
    _single_error_line(capsys, "invalid-spec")
    assert not (tmp_path / "o").exists()


def test_output_dir_env_override(tmp_path, monkeypatch):
    gt = _small_gt(tmp_path)
    target = tmp_path / "env_out"
    monkeypatch.setenv("BOXAUDIT_OUTPUT_DIR", str(target))
    rc = main(
        ["inject", "--ground-truth", str(gt), "--noise-kind", "missing",
         "--fraction", "0.2"]
    )
    assert rc == 0
    assert (target / "noisy.json").exists()


# --- detect -----------------------------------------------------------------------


def test_detect_with_perfect_predictions_reports_nothing(tmp_path, capsys):
    gt = _small_gt(tmp_path)
    preds = _perfect_predictions(tmp_path, gt)
    out = tmp_path / "out"
    rc = main(
        ["detect", "--ground-truth", str(gt), "--predictions", str(preds),
         "--output-dir", str(out)]
    )
    assert rc == 0
    lines = (out / "report.csv").read_text().strip().splitlines()
    assert len(lines) == 1  # header only
    stdout = capsys.readouterr().out
    assert "flagged annotations: 0" in stdout
    assert "clusters: 10" in stdout


def test_detect_finds_planted_label_error(tmp_path):
    gt, preds = build_synthetic(num_images=21, boxes_per_image=10, seed=5)
    bad = gt["annotations"][37]
    bad["category_id"] = bad["category_id"] % 12 + 1  # disagree with the prediction
    gt_path = write_json(tmp_path / "gt.json", gt)
    pred_path = write_json(tmp_path / "preds.json", preds)
    out = tmp_path / "out"
    rc = main(
        ["detect", "--ground-truth", str(gt_path), "--predictions", str(pred_path),
         "--output-dir", str(out)]
    )
    assert rc == 0
    with open(out / "report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    flagged_ids = {row["annotation_ids"] for row in rows}
    assert flagged_ids == {str(bad["id"])}
    assert rows[0]["verdict_kind"] == "wrong_label"


def test_detect_requires_predictions_flag(tmp_path):
    gt = _small_gt(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["detect", "--ground-truth", str(gt)])
    assert exc.value.code == 2


def test_detect_report_json_mirror_has_membership(tmp_path):
    gt, preds = build_synthetic(num_images=5, boxes_per_image=6, seed=6)
    gt["annotations"][0]["category_id"] = gt["annotations"][0]["category_id"] % 12 + 1
    gt_path = write_json(tmp_path / "gt.json", gt)
    pred_path = write_json(tmp_path / "preds.json", preds)
    out = tmp_path / "out"
    main(
        ["detect", "--ground-truth", str(gt_path), "--predictions", str(pred_path),
         "--output-dir", str(out)]
    )
    mirror = json.loads((out / "report.json").read_text())
    assert mirror["summary"]["flagged_clusters"] == len(mirror["findings"]) == 1
    finding = mirror["findings"][0]
    assert finding["original_members"] and finding["predicted_members"]
    assert len(mirror["verdicts"]) >= 30


def _noisy_synthetic(tmp_path):
    """Synthetic inputs with one flipped label and two removed annotations,
    so that detect finds both wrong labels and missing regions."""
    gt, preds = build_synthetic(num_images=8, boxes_per_image=6, seed=9)
    gt["annotations"][3]["category_id"] = gt["annotations"][3]["category_id"] % 12 + 1
    del gt["annotations"][20], gt["annotations"][10]
    return write_json(tmp_path / "gt.json", gt), write_json(tmp_path / "preds.json", preds)


@pytest.mark.parametrize(
    "mode_flags", [[], ["--mode", "score_threshold", "--tau", "1.0"]], ids=["cj", "st"]
)
def test_detect_flagged_rows_match_report_summary(tmp_path, capsys, mode_flags):
    gt, preds = _noisy_synthetic(tmp_path)
    out = tmp_path / "out"
    rc = main(
        ["detect", "--ground-truth", str(gt), "--predictions", str(preds),
         "--output-dir", str(out), *mode_flags]
    )
    assert rc == 0
    summary = json.loads((out / "report.json").read_text())["summary"]
    assert summary["flagged_clusters"] > 0
    assert f"flagged rows: {summary['flagged_clusters']}\n" in capsys.readouterr().out


def test_detect_rejects_tau_in_confident_joint_mode(tmp_path, capsys):
    gt = _small_gt(tmp_path)
    preds = _perfect_predictions(tmp_path, gt)
    rc = main(
        ["detect", "--ground-truth", str(gt), "--predictions", str(preds),
         "--tau", "0.5", "--output-dir", str(tmp_path / "o")]
    )
    assert rc == 1
    _single_error_line(capsys, "invalid-spec")
    assert not (tmp_path / "o").exists()


def test_detect_is_byte_identical_across_hash_seeds(tmp_path):
    gt, preds = _noisy_synthetic(tmp_path)
    src = str(Path(boxaudit.__file__).resolve().parents[1])
    reports = []
    for hash_seed in ("0", "1"):
        out = tmp_path / f"out{hash_seed}"
        env = {
            **os.environ,
            "PYTHONHASHSEED": hash_seed,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        }
        subprocess.run(
            [sys.executable, "-m", "boxaudit", "detect", "--ground-truth", str(gt),
             "--predictions", str(preds), "--output-dir", str(out)],
            env=env, check=True, capture_output=True, timeout=120,
        )
        reports.append([(out / name).read_bytes() for name in ("report.csv", "report.json")])
    assert reports[0] == reports[1]
    assert b"missing_region" in reports[0][0] and b"wrong_label" in reports[0][0]


@pytest.mark.parametrize("tau_flags", [[], ["--tau", "1.5"]], ids=["no-tau", "tau-1.5"])
def test_detect_rejects_score_threshold_without_valid_tau(tmp_path, capsys, tau_flags):
    gt = _small_gt(tmp_path)
    preds = _perfect_predictions(tmp_path, gt)
    rc = main(
        ["detect", "--ground-truth", str(gt), "--predictions", str(preds),
         "--mode", "score_threshold", *tau_flags, "--output-dir", str(tmp_path / "o")]
    )
    assert rc == 1
    _single_error_line(capsys, "invalid-spec")
    assert not (tmp_path / "o").exists()


# --- eval -------------------------------------------------------------------------


def test_eval_runs_median_aggregation(tmp_path, capsys):
    gt, preds = write_synthetic(tmp_path, num_images=40, boxes_per_image=10, seed=8)
    out = tmp_path / "out"
    rc = main(
        ["eval", "--ground-truth", str(gt), "--predictions", str(preds),
         "--noise-kind", "uniform_label", "--fraction", "0.2", "--seed", "3",
         "--runs", "3", "--output-dir", str(out)]
    )
    assert rc == 0
    stdout = capsys.readouterr().out
    assert stdout.count("run seed=") == 3
    assert "median auroc" in stdout
    mirror = json.loads((out / "roc.json").read_text())
    assert [r["seed"] for r in mirror["runs"]] == [3, 4, 5]
    assert mirror["median_auroc"] == pytest.approx(
        sorted(r["auroc"] for r in mirror["runs"])[1]
    )


def test_eval_grid_has_eleven_monotone_rows(tmp_path):
    gt, preds = write_synthetic(tmp_path, num_images=40, boxes_per_image=10, seed=9)
    out = tmp_path / "out"
    main(
        ["eval", "--ground-truth", str(gt), "--predictions", str(preds),
         "--noise-kind", "uniform_label", "--fraction", "0.2", "--seed", "3",
         "--output-dir", str(out)]
    )
    with open(out / "roc.csv", newline="") as fh:
        rows = [r for r in csv.reader(fh) if not r[0].startswith("#")]
    assert rows[0] == ["threshold", "fpr", "tpr"]
    data = [(float(t), float(f), float(p)) for t, f, p in rows[1:]]
    assert [t for t, _, _ in data] == pytest.approx([i / 10 for i in range(11)])
    for (_, f1, p1), (_, f2, p2) in zip(data, data[1:]):
        assert f2 >= f1 and p2 >= p1
    assert (data[-1][1], data[-1][2]) == (1.0, 1.0)
    assert "# auroc =" in (out / "roc.csv").read_text()


def test_eval_is_deterministic(tmp_path):
    gt, preds = write_synthetic(tmp_path, num_images=20, boxes_per_image=10, seed=10)
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        main(
            ["eval", "--ground-truth", str(gt), "--predictions", str(preds),
             "--noise-kind", "spurious", "--fraction", "0.2", "--seed", "21",
             "--output-dir", str(out)]
        )
        outputs.append((out / "roc.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_eval_with_existing_ledger(tmp_path):
    gt, preds = write_synthetic(tmp_path, num_images=30, boxes_per_image=10, seed=12)
    inject_out = tmp_path / "inj"
    main(
        ["inject", "--ground-truth", str(gt), "--noise-kind", "uniform_label",
         "--fraction", "0.2", "--seed", "4", "--output-dir", str(inject_out)]
    )
    out = tmp_path / "out"
    rc = main(
        ["eval", "--ground-truth", str(inject_out / "noisy.json"),
         "--predictions", str(preds), "--ledger", str(inject_out / "ledger.json"),
         "--output-dir", str(out)]
    )
    assert rc == 0
    mirror = json.loads((out / "roc.json").read_text())
    assert mirror["auroc"] >= 0.95


def test_eval_rejects_ledger_with_noise_spec(tmp_path, capsys):
    gt, preds = write_synthetic(tmp_path, num_images=4, boxes_per_image=5, seed=2)
    ledger = write_json(tmp_path / "ledger.json", {"entries": []})
    rc = main(
        ["eval", "--ground-truth", str(gt), "--predictions", str(preds),
         "--ledger", str(ledger), "--noise-kind", "missing", "--fraction", "0.2",
         "--output-dir", str(tmp_path / "o")]
    )
    assert rc == 1
    _single_error_line(capsys, "invalid-spec")
    assert not (tmp_path / "o").exists()


def test_eval_rejects_runs_with_ledger(tmp_path, capsys):
    """Runs repeat an injection; a ledger is evaluated once, so several runs
    with one are refused before any file is read."""
    absent = str(tmp_path / "absent.json")
    rc = main(
        ["eval", "--ground-truth", absent, "--predictions", absent, "--ledger", absent,
         "--runs", "3", "--output-dir", str(tmp_path / "o")]
    )
    assert rc == 1
    _single_error_line(capsys, "invalid-spec")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag", ["--amplitude", "--fraction"])
def test_eval_rejects_noise_flag_without_noise_kind(tmp_path, capsys, flag):
    absent = str(tmp_path / "absent.json")
    rc = main(
        ["eval", "--ground-truth", absent, "--predictions", absent, "--ledger", absent,
         flag, "0.3", "--output-dir", str(tmp_path / "o")]
    )
    assert rc == 1
    _single_error_line(capsys, "invalid-spec")
    assert not (tmp_path / "o").exists()


def test_eval_rejects_seed_without_noise_kind(tmp_path, capsys):
    """The seed seeds noise injection; with a ledger it would only relabel
    the printed run, which stays seed 0."""
    noisy, _, ledger, preds = _roc_inputs(tmp_path)
    args = ["eval", "--ground-truth", str(noisy), "--predictions", str(preds),
            "--ledger", str(ledger), "--output-dir", str(tmp_path / "o")]
    capsys.readouterr()
    assert main([*args, "--seed", "5"]) == 1
    err = capsys.readouterr().err
    assert err == "error[invalid-spec]: --seed requires --noise-kind\n", err
    assert not (tmp_path / "o").exists()
    assert main(args) == 0
    assert capsys.readouterr().out.startswith("run seed=0: auroc=")


def test_eval_without_noise_or_ledger_fails(tmp_path, capsys):
    gt, preds = write_synthetic(tmp_path, num_images=5, boxes_per_image=5, seed=13)
    rc = main(
        ["eval", "--ground-truth", str(gt), "--predictions", str(preds),
         "--output-dir", str(tmp_path / "out")]
    )
    assert rc == 1
    assert capsys.readouterr().err.startswith("error[invalid-spec]:")


def test_eval_without_noise_or_ledger_fails_before_reading_inputs(tmp_path, capsys):
    """With neither a noise spec nor a ledger, ``eval`` says so before it
    opens an input or makes the output directory."""
    rc = main(
        ["eval", "--ground-truth", str(tmp_path / "absent-gt.json"),
         "--predictions", str(tmp_path / "absent-preds.json"),
         "--output-dir", str(tmp_path / "out")]
    )
    assert rc == 1
    _single_error_line(capsys, "invalid-spec")
    assert not (tmp_path / "out").exists()


def test_eval_on_clean_ledger_reports_empty_ledger(tmp_path, capsys):
    gt, preds = write_synthetic(tmp_path, num_images=5, boxes_per_image=5, seed=14)
    inject_out = tmp_path / "inj"
    main(
        ["inject", "--ground-truth", str(gt), "--noise-kind", "missing",
         "--fraction", "0.0", "--output-dir", str(inject_out)]
    )
    rc = main(
        ["eval", "--ground-truth", str(inject_out / "noisy.json"),
         "--predictions", str(preds), "--ledger", str(inject_out / "ledger.json"),
         "--output-dir", str(tmp_path / "out")]
    )
    assert rc == 1
    assert capsys.readouterr().err.startswith("error[empty-ledger]:")


def test_eval_that_fails_leaves_no_output_dir(tmp_path, capsys):
    """An injection of nothing is refused after the runs start, and the
    output directory is made only once they have succeeded."""
    gt, preds = write_synthetic(tmp_path, num_images=20, boxes_per_image=5, seed=14)
    rc = main(
        ["eval", "--ground-truth", str(gt), "--predictions", str(preds),
         "--noise-kind", "missing", "--fraction", "0", "--output-dir", str(tmp_path / "out")]
    )
    assert rc == 1
    _single_error_line(capsys, "empty-ledger")
    assert not (tmp_path / "out").exists()


# --- roc (file-based handoff) --------------------------------------------------------


def test_roc_stage_matches_eval(tmp_path):
    gt, preds = write_synthetic(tmp_path, num_images=30, boxes_per_image=10, seed=15)
    inj = tmp_path / "inj"
    main(
        ["inject", "--ground-truth", str(gt), "--noise-kind", "missing",
         "--fraction", "0.2", "--seed", "5", "--output-dir", str(inj)]
    )
    det = tmp_path / "det"
    main(
        ["detect", "--ground-truth", str(inj / "noisy.json"),
         "--predictions", str(preds), "--mode", "score_threshold", "--tau", "1.0",
         "--output-dir", str(det)]
    )
    roc_out = tmp_path / "roc"
    rc = main(
        ["roc", "--ground-truth", str(inj / "noisy.json"),
         "--report", str(det / "report.json"), "--ledger", str(inj / "ledger.json"),
         "--output-dir", str(roc_out)]
    )
    assert rc == 0
    eval_out = tmp_path / "ev"
    main(
        ["eval", "--ground-truth", str(inj / "noisy.json"),
         "--predictions", str(preds), "--ledger", str(inj / "ledger.json"),
         "--output-dir", str(eval_out)]
    )
    roc_auroc = json.loads((roc_out / "roc.json").read_text())["auroc"]
    eval_auroc = json.loads((eval_out / "roc.json").read_text())["auroc"]
    assert roc_auroc == pytest.approx(eval_auroc)
    assert roc_auroc >= 0.9


def _roc_inputs(tmp_path):
    """A missing-noise injection and a full score_threshold report over it."""
    gt, preds = write_synthetic(tmp_path, num_images=10, boxes_per_image=5, seed=16)
    inj, det = tmp_path / "inj", tmp_path / "det"
    main(
        ["inject", "--ground-truth", str(gt), "--noise-kind", "missing",
         "--fraction", "0.2", "--seed", "5", "--output-dir", str(inj)]
    )
    main(
        ["detect", "--ground-truth", str(inj / "noisy.json"),
         "--predictions", str(preds), "--mode", "score_threshold", "--tau", "1.0",
         "--output-dir", str(det)]
    )
    return inj / "noisy.json", det / "report.json", inj / "ledger.json", preds


def _roc(noisy, report, ledger, out, *extra):
    return main(
        ["roc", "--ground-truth", str(noisy), "--report", str(report),
         "--ledger", str(ledger), "--output-dir", str(out), *extra]
    )


def _single_error_line(capsys, category):
    err = capsys.readouterr().err
    assert err.startswith(f"error[{category}]:"), err
    assert len(err.strip().splitlines()) == 1


def test_roc_rejects_ledger_that_removed_annotations_of_the_report(tmp_path, capsys):
    """A report over the ground truth before injection still holds the
    annotations the ledger says were removed."""
    noisy, _, ledger, preds = _roc_inputs(tmp_path)
    gt = tmp_path / "gt.json"
    assert main(["detect", "--ground-truth", str(gt), "--predictions", str(preds),
                 "--mode", "score_threshold", "--tau", "1.0",
                 "--output-dir", str(tmp_path / "clean")]) == 0
    capsys.readouterr()
    assert _roc(gt, tmp_path / "clean" / "report.json", ledger, tmp_path / "roc") == 1
    _single_error_line(capsys, "invalid-input")
    assert not (tmp_path / "roc").exists()


def test_eval_rejects_ledger_that_removed_annotations_and_leaves_no_output_dir(
    tmp_path, capsys
):
    """``eval --ledger`` over the ground truth before injection is refused
    once detection has run, and the output directory is not made."""
    _, _, ledger, preds = _roc_inputs(tmp_path)
    capsys.readouterr()
    rc = main(
        ["eval", "--ground-truth", str(tmp_path / "gt.json"), "--predictions", str(preds),
         "--ledger", str(ledger), "--output-dir", str(tmp_path / "ev")]
    )
    assert rc == 1
    _single_error_line(capsys, "invalid-input")
    assert not (tmp_path / "ev").exists()


def _set_verdict(key, value):
    return lambda mirror: mirror["verdicts"][0].__setitem__(key, value)


@pytest.mark.parametrize(
    "mutate",
    [
        pytest.param(lambda mirror: mirror.__setitem__("verdicts", 5), id="verdicts-not-a-list"),
        pytest.param(lambda mirror: mirror["verdicts"].__setitem__(0, 5), id="verdict-not-an-object"),
        pytest.param(_set_verdict("region", [1, 2]), id="region-two-numbers"),
        pytest.param(_set_verdict("region", "abc"), id="region-string"),
        pytest.param(_set_verdict("annotation_id", [1]), id="annotation-id-list"),
    ],
)
def test_roc_rejects_malformed_report(tmp_path, capsys, mutate):
    noisy, report, ledger, _ = _roc_inputs(tmp_path)
    mirror = json.loads(report.read_text())
    mutate(mirror)
    write_json(report, mirror)
    capsys.readouterr()
    assert _roc(noisy, report, ledger, tmp_path / "roc") == 1
    _single_error_line(capsys, "malformed-syntax")


def _first_verdict(mirror, region):
    """The first verdict of the report for a region (or for an annotation)."""
    return next(v for v in mirror["verdicts"] if (v["annotation_id"] is None) == region)


def _set_first(key, value, region=False):
    return lambda mirror: _first_verdict(mirror, region).__setitem__(key, value)


def _repeat_first(mirror):
    mirror["verdicts"].append(dict(_first_verdict(mirror, region=False)))


@pytest.mark.parametrize(
    "mutate, extra, category",
    [
        pytest.param(_set_first("quality_score", 1.5), [], "invalid-score", id="score-1.5"),
        pytest.param(
            _set_first("quality_score", 1.5), ["--sweep", "dense"], "invalid-score",
            id="score-1.5-dense",
        ),
        pytest.param(_set_first("quality_score", float("nan")), [], "invalid-score", id="score-nan"),
        pytest.param(
            _set_first("quality_score", PAST_FLOAT_RANGE), [], "malformed-syntax",
            id="score-past-float-range",
        ),
        pytest.param(_set_first("flagged", "no"), [], "malformed-syntax", id="flagged-string"),
        pytest.param(_set_first("verdict_kind", 7), [], "malformed-syntax", id="kind-int"),
        pytest.param(_set_first("verdict_kind", "bogus"), [], "malformed-syntax", id="kind-unknown"),
        pytest.param(_repeat_first, [], "duplicate-id", id="repeated-verdict"),
        pytest.param(
            _set_first("image_id", 999, region=True), [], "dangling-reference",
            id="region-on-unknown-image",
        ),
        pytest.param(
            _set_first("annotation_id", 10**6), [], "dangling-reference",
            id="unknown-annotation-id",
        ),
    ],
)
def test_roc_rejects_invalid_report_verdict(tmp_path, capsys, mutate, extra, category):
    noisy, report, ledger, _ = _roc_inputs(tmp_path)
    mirror = json.loads(report.read_text())
    mutate(mirror)
    write_json(report, mirror)
    capsys.readouterr()
    assert _roc(noisy, report, ledger, tmp_path / "roc", *extra) == 1
    _single_error_line(capsys, category)
    assert not (tmp_path / "roc").exists()


def test_roc_rejects_ledger_bbox_of_three_numbers(tmp_path, capsys):
    noisy, report, ledger, _ = _roc_inputs(tmp_path)
    payload = json.loads(ledger.read_text())
    payload["entries"][0]["original"]["bbox"] = [1, 2, 3]
    write_json(ledger, payload)
    capsys.readouterr()
    assert _roc(noisy, report, ledger, tmp_path / "roc") == 1
    _single_error_line(capsys, "malformed-syntax")


@pytest.mark.parametrize("match_iou", ["0", "-1", "1.5"])
def test_match_iou_outside_unit_interval_rejected(tmp_path, capsys, match_iou):
    noisy, report, ledger, preds = _roc_inputs(tmp_path)
    capsys.readouterr()
    assert _roc(noisy, report, ledger, tmp_path / "roc", "--match-iou", match_iou) == 1
    _single_error_line(capsys, "invalid-spec")
    rc = main(
        ["eval", "--ground-truth", str(noisy), "--predictions", str(preds),
         "--ledger", str(ledger), "--match-iou", match_iou,
         "--output-dir", str(tmp_path / "ev")]
    )
    assert rc == 1
    _single_error_line(capsys, "invalid-spec")
    assert not (tmp_path / "roc").exists() and not (tmp_path / "ev").exists()


def _run_under_hash_seed(args, hash_seed):
    src = str(Path(boxaudit.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "PYTHONHASHSEED": hash_seed,
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    }
    subprocess.run(
        [sys.executable, "-m", "boxaudit", *args],
        env=env, check=True, capture_output=True, timeout=120,
    )


@pytest.mark.parametrize("command", ["inject", "eval-label", "eval-missing", "roc"])
def test_commands_are_byte_identical_across_hash_seeds(tmp_path, command):
    noisy, report, ledger, preds = _roc_inputs(tmp_path)
    gt = tmp_path / "gt.json"
    args, names = {
        "inject": (["inject", "--ground-truth", str(gt), "--noise-kind", "uniform_label",
                    "--fraction", "0.3", "--seed", "2"], ["noisy.json", "ledger.json"]),
        "eval-label": (["eval", "--ground-truth", str(gt), "--predictions", str(preds),
                        "--noise-kind", "uniform_label", "--fraction", "0.2", "--runs", "2",
                        "--sweep", "dense"], ["roc.csv", "roc.json"]),
        "eval-missing": (["eval", "--ground-truth", str(gt), "--predictions", str(preds),
                          "--noise-kind", "missing", "--fraction", "0.2", "--sweep", "dense"],
                         ["roc.csv", "roc.json"]),
        "roc": (["roc", "--ground-truth", str(noisy), "--report", str(report),
                 "--ledger", str(ledger), "--sweep", "dense"], ["roc.csv", "roc.json"]),
    }[command]
    outputs = []
    for hash_seed in ("0", "1"):
        out = tmp_path / f"out{hash_seed}"
        _run_under_hash_seed([*args, "--output-dir", str(out)], hash_seed)
        outputs.append([(out / name).read_bytes() for name in names])
    assert outputs[0] == outputs[1]


def _ledger_on_unknown_image(tmp_path):
    noisy, report, ledger, preds = _roc_inputs(tmp_path)
    payload = json.loads(ledger.read_text())
    removed = next(e for e in payload["entries"] if e["noise_type"] == "missing")
    removed["original"]["image_id"] = 999
    write_json(ledger, payload)
    return noisy, report, ledger, preds


def test_roc_rejects_ledger_box_on_unknown_image(tmp_path, capsys):
    noisy, report, ledger, _ = _ledger_on_unknown_image(tmp_path)
    capsys.readouterr()
    assert _roc(noisy, report, ledger, tmp_path / "roc") == 1
    _single_error_line(capsys, "dangling-reference")
    assert not (tmp_path / "roc").exists()


def test_eval_rejects_ledger_box_on_unknown_image(tmp_path, capsys):
    noisy, _, ledger, preds = _ledger_on_unknown_image(tmp_path)
    capsys.readouterr()
    rc = main(
        ["eval", "--ground-truth", str(noisy), "--predictions", str(preds),
         "--ledger", str(ledger), "--output-dir", str(tmp_path / "ev")]
    )
    assert rc == 1
    _single_error_line(capsys, "dangling-reference")


# --- numbers past the float range and names that are not strings -------------------


@pytest.mark.parametrize(
    "mutate",
    [
        pytest.param(
            lambda gt, _: gt["annotations"][0]["bbox"].__setitem__(2, PAST_FLOAT_RANGE),
            id="gt-bbox",
        ),
        pytest.param(
            lambda gt, _: gt["images"][0].__setitem__("width", PAST_FLOAT_RANGE), id="image-width"
        ),
        pytest.param(
            lambda _, preds: preds[0].__setitem__("score", PAST_FLOAT_RANGE), id="prediction-score"
        ),
    ],
)
def test_detect_rejects_number_past_float_range(tmp_path, capsys, mutate):
    gt, preds = build_synthetic(num_images=3, boxes_per_image=3, seed=4)
    mutate(gt, preds)
    gt_path = write_json(tmp_path / "gt.json", gt)
    pred_path = write_json(tmp_path / "preds.json", preds)
    rc = main(["detect", "--ground-truth", str(gt_path), "--predictions", str(pred_path),
               "--output-dir", str(tmp_path / "out")])
    assert rc == 1
    _single_error_line(capsys, "malformed-syntax")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "text",
    [
        pytest.param(
            b'{"images": [], "categories": [], "annotations": [], "n": ' + b"9" * 5000 + b"}",
            id="5000-digit-integer",
        ),
        pytest.param(b"[" * 100_000 + b"]" * 100_000, id="deep-nesting"),
        pytest.param(b'{"images": "\xff"}', id="not-utf-8"),
    ],
)
def test_detect_rejects_json_the_decoder_cannot_read(tmp_path, capsys, text):
    gt = tmp_path / "gt.json"
    gt.write_bytes(text)
    preds = write_json(tmp_path / "preds.json", [])
    rc = main(["detect", "--ground-truth", str(gt), "--predictions", str(preds),
               "--output-dir", str(tmp_path / "out")])
    assert rc == 1
    _single_error_line(capsys, "malformed-syntax")


def test_roc_rejects_ledger_bbox_past_float_range(tmp_path, capsys):
    noisy, report, ledger, _ = _roc_inputs(tmp_path)
    payload = json.loads(ledger.read_text())
    payload["entries"][0]["original"]["bbox"][0] = PAST_FLOAT_RANGE
    write_json(ledger, payload)
    capsys.readouterr()
    assert _roc(noisy, report, ledger, tmp_path / "roc") == 1
    _single_error_line(capsys, "malformed-syntax")


@pytest.mark.parametrize("value", [None, {"x": 1}], ids=["null", "object"])
@pytest.mark.parametrize("key, field", [("images", "file_name"), ("categories", "name")])
def test_inject_rejects_name_that_is_not_a_string(tmp_path, capsys, key, field, value):
    payload = json.loads(_small_gt(tmp_path).read_text())
    payload[key][0][field] = value
    gt = write_json(tmp_path / "gt.json", payload)
    rc = main(["inject", "--ground-truth", str(gt), "--noise-kind", "missing",
               "--fraction", "0.2", "--output-dir", str(tmp_path / "out")])
    assert rc == 1
    _single_error_line(capsys, "malformed-syntax")
    assert not (tmp_path / "out").exists()


# --- start-up: the config each subcommand builds and the modules it loads ----

_TODAYS_DEFAULTS = dict(
    iou_threshold=0.5, cl_mode="confident_joint", tau=None, noise=None, ledger_path=None,
    report_path=None, output_dir=Path("."), runs=1, sweep="grid", match_iou=0.5,
)


@pytest.mark.parametrize("argv, fields", [
    (["inject", "--ground-truth", "gt.json", "--noise-kind", "missing", "--fraction", "0.2"],
     {"ground_truth_path": "gt.json", "predictions_path": None,
      "noise": NoiseSpec(NoiseKind.MISSING, 0.2, None, 0)}),
    (["detect", "--ground-truth", "gt.json", "--predictions", "p.json"],
     {"ground_truth_path": "gt.json", "predictions_path": "p.json"}),
    (["eval", "--ground-truth", "gt.json", "--predictions", "p.json"],
     {"ground_truth_path": "gt.json", "predictions_path": "p.json"}),
    (["eval", "--ground-truth", "gt.json", "--predictions", "p.json", "--noise-kind", "scale",
      "--fraction", "0.2", "--amplitude", "0.3", "--seed", "4", "--runs", "3"],
     {"ground_truth_path": "gt.json", "predictions_path": "p.json", "runs": 3,
      "noise": NoiseSpec(NoiseKind.SCALE, 0.2, 0.3, 4)}),
    (["roc", "--ground-truth", "gt.json", "--report", "r.json", "--ledger", "l.json"],
     {"ground_truth_path": "gt.json", "predictions_path": None, "report_path": "r.json",
      "ledger_path": "l.json"}),
], ids=["inject", "detect", "eval", "eval-noise", "roc"])
def test_minimal_argv_builds_todays_config(monkeypatch, argv, fields):
    monkeypatch.delenv("BOXAUDIT_OUTPUT_DIR", raising=False)
    config = _build_config(build_parser().parse_args(argv))
    assert config == PipelineConfig(**{**_TODAYS_DEFAULTS, **fields})


# the modules src/boxaudit imports at top level from outside the package
_TOP_LEVEL_IMPORTS = (
    "__future__", "argparse", "csv", "dataclasses", "enum", "itertools", "json", "math",
    "numpy", "operator", "os", "pathlib", "random", "statistics", "sys", "typing",
)


def test_import_cli_loads_no_module_outside_the_package():
    """Once the package's own top-level imports are loaded, ``import
    boxaudit.cli`` adds only boxaudit modules: a new dependency or a heavy
    stdlib import would show here before it shows in the CLI's start-up
    time."""
    code = "\n".join([
        "import sys",
        *(f"import {name}" for name in _TOP_LEVEL_IMPORTS),
        "before = set(sys.modules)",
        "import boxaudit.cli",
        "print(*sorted(set(sys.modules) - before))",
    ])
    src = str(Path(boxaudit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    added = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True,
        timeout=120,
    ).stdout.split()
    assert "boxaudit.cli" in added
    assert all(name == "boxaudit" or name.startswith("boxaudit.") for name in added), added


@pytest.mark.parametrize("field, value, message", [
    ("sweep", "dnese", "sweep must be one of grid, dense, got 'dnese'"),
    ("cl_mode", "confident-joint", "unknown mode 'confident-joint'"),
], ids=["sweep", "mode"])
def test_config_rejects_unknown_sweep_and_mode(field, value, message):
    """A sweep or mode the commands do not know is refused when the config
    is built, before any file is read."""
    with pytest.raises(InvalidSpecError) as raised:
        PipelineConfig(ground_truth_path="absent.json", **{field: value})
    assert str(raised.value) == message


def test_dense_roc_does_not_load_numpy_ma(tmp_path):
    """A dense ``roc`` loads no ``numpy.ma``; ``np.unique`` would load it on
    numpy 2.4, at a cost of 10-14 ms of start-up."""
    noisy, report, ledger, _ = _roc_inputs(tmp_path)
    argv = ["roc", "--ground-truth", str(noisy), "--report", str(report),
            "--ledger", str(ledger), "--sweep", "dense", "--output-dir", str(tmp_path / "o")]
    code = "\n".join([
        "import sys",
        "from boxaudit.cli import main",
        f"assert main({argv!r}) == 0",
        "print('numpy.ma' in sys.modules)",
    ])
    src = str(Path(boxaudit.__file__).resolve().parents[1])
    loaded = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, check=True,
        capture_output=True, text=True, timeout=120,
    ).stdout.split()[-1]
    assert loaded == "False"
