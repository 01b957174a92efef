import argparse
import csv
import dataclasses
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
from boxaudit.pipeline import PipelineConfig, cmd_detect, cmd_eval, cmd_inject, cmd_roc

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
    ["eval", "--noise-kind", "missing"],
    ["eval", "--noise-kind", "location", "--fraction", "0.2", "--amplitude", "1.5"],
    ["eval", "--noise-kind", "scale", "--fraction", "0.2", "--amplitude", "-0.1"],
], ids=["detect-iou-1.5", "eval-iou-0", "eval-runs-0", "eval-kind-no-fraction",
        "eval-location-amplitude-1.5", "eval-scale-amplitude-negative"])
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
    # members are named by id: annotations by their id in the ground truth,
    # predictions by their 1-based position in the predictions file
    assert finding["annotation_ids"] == [gt["annotations"][0]["id"]]
    assert finding["prediction_ids"]
    for prediction_id in finding["prediction_ids"]:
        assert preds[prediction_id - 1]["image_id"] == finding["image_id"]
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


def _eval_ledger_refused(tmp_path, *flags, inputs=None):
    """``eval --ledger`` (since 0.5.0 a saved injection is scored by
    ``detect`` and ``roc``) exits with argparse's usage code before it
    reads a file or makes the output directory. ``inputs`` is the
    (ground truth, predictions, ledger) triple, absent files by default."""
    absent = tmp_path / "absent.json"
    gt, preds, ledger = inputs or (absent, absent, absent)
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--ground-truth", str(gt), "--predictions", str(preds),
              "--ledger", str(ledger), *flags, "--output-dir", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert not (tmp_path / "o").exists()


def _rescore(gt, preds, ledger, work):
    """Score a saved injection as ``eval --ledger`` did before 0.5.0:
    ``detect --mode score_threshold --tau 1.0`` then ``roc`` into
    ``work / "roc"``; returns roc's exit code."""
    assert main(["detect", "--ground-truth", str(gt), "--predictions", str(preds),
                 "--mode", "score_threshold", "--tau", "1.0",
                 "--output-dir", str(work / "det")]) == 0
    return _roc(gt, work / "det" / "report.json", ledger, work / "roc")


def test_eval_with_existing_ledger(tmp_path):
    """An existing injection is scored by ``detect --mode score_threshold
    --tau 1.0`` and ``roc``; ``eval --ledger`` is not a command."""
    gt, preds = write_synthetic(tmp_path, num_images=30, boxes_per_image=10, seed=12)
    inject_out = tmp_path / "inj"
    main(
        ["inject", "--ground-truth", str(gt), "--noise-kind", "uniform_label",
         "--fraction", "0.2", "--seed", "4", "--output-dir", str(inject_out)]
    )
    assert main(
        ["detect", "--ground-truth", str(inject_out / "noisy.json"),
         "--predictions", str(preds), "--mode", "score_threshold", "--tau", "1.0",
         "--output-dir", str(tmp_path / "det")]
    ) == 0
    out = tmp_path / "out"
    rc = _roc(inject_out / "noisy.json", tmp_path / "det" / "report.json",
              inject_out / "ledger.json", out)
    assert rc == 0
    mirror = json.loads((out / "roc.json").read_text())
    assert mirror["auroc"] >= 0.95
    _eval_ledger_refused(tmp_path)


def test_eval_rejects_ledger_with_noise_spec(tmp_path):
    _eval_ledger_refused(tmp_path, "--noise-kind", "missing", "--fraction", "0.2")


def test_eval_rejects_runs_with_ledger(tmp_path):
    _eval_ledger_refused(tmp_path, "--runs", "3")


@pytest.mark.parametrize("flag", ["--amplitude", "--fraction"])
def test_eval_rejects_noise_flag_without_noise_kind(tmp_path, capsys, flag):
    absent = str(tmp_path / "absent.json")
    rc = main(
        ["eval", "--ground-truth", absent, "--predictions", absent,
         flag, "0.3", "--output-dir", str(tmp_path / "o")]
    )
    assert rc == 1
    _single_error_line(capsys, "invalid-spec")
    assert not (tmp_path / "o").exists()


def test_eval_rejects_seed_without_noise_kind(tmp_path, capsys):
    """The seed seeds noise injection, so it is refused without a noise
    kind, and with one it labels the run it seeded."""
    gt, preds = write_synthetic(tmp_path, num_images=10, boxes_per_image=5, seed=16)
    args = ["eval", "--ground-truth", str(gt), "--predictions", str(preds),
            "--seed", "5", "--output-dir", str(tmp_path / "o")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err == "error[invalid-spec]: --seed requires --noise-kind\n", err
    assert not (tmp_path / "o").exists()
    assert main([*args, "--noise-kind", "missing", "--fraction", "0.2"]) == 0
    assert capsys.readouterr().out.startswith("run seed=5: auroc=")


def test_eval_without_noise_or_ledger_fails(tmp_path, capsys):
    gt, preds = write_synthetic(tmp_path, num_images=5, boxes_per_image=5, seed=13)
    rc = main(
        ["eval", "--ground-truth", str(gt), "--predictions", str(preds),
         "--output-dir", str(tmp_path / "out")]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error[invalid-spec]: eval requires a noise specification\n", err


def test_eval_without_noise_or_ledger_fails_before_reading_inputs(tmp_path, capsys):
    """Without a noise spec, ``eval`` says so before it opens an input or
    makes the output directory."""
    rc = main(
        ["eval", "--ground-truth", str(tmp_path / "absent-gt.json"),
         "--predictions", str(tmp_path / "absent-preds.json"),
         "--output-dir", str(tmp_path / "out")]
    )
    assert rc == 1
    _single_error_line(capsys, "invalid-spec")
    assert not (tmp_path / "out").exists()


def test_roc_on_clean_ledger_reports_empty_ledger(tmp_path, capsys):
    gt, preds = write_synthetic(tmp_path, num_images=5, boxes_per_image=5, seed=14)
    inject_out = tmp_path / "inj"
    main(
        ["inject", "--ground-truth", str(gt), "--noise-kind", "missing",
         "--fraction", "0.0", "--output-dir", str(inject_out)]
    )
    noisy = inject_out / "noisy.json"
    main(
        ["detect", "--ground-truth", str(noisy), "--predictions", str(preds),
         "--mode", "score_threshold", "--tau", "1.0", "--output-dir", str(tmp_path / "det")]
    )
    capsys.readouterr()
    rc = _roc(noisy, tmp_path / "det" / "report.json", inject_out / "ledger.json",
              tmp_path / "out")
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
    """``eval --noise-kind K --seed S`` writes the same ``roc.csv`` and
    ``roc.json`` bytes as ``inject`` with that spec, ``detect --mode
    score_threshold --tau 1.0`` and ``roc``, for each sweep."""
    gt, preds = write_synthetic(tmp_path, num_images=30, boxes_per_image=10, seed=15)
    for kind in ("missing", "uniform_label", "spurious"):
        spec = ["--noise-kind", kind, "--fraction", "0.2", "--seed", "5"]
        inj, det = tmp_path / kind / "inj", tmp_path / kind / "det"
        assert main(["inject", "--ground-truth", str(gt), *spec, "--output-dir", str(inj)]) == 0
        assert main(
            ["detect", "--ground-truth", str(inj / "noisy.json"),
             "--predictions", str(preds), "--mode", "score_threshold", "--tau", "1.0",
             "--output-dir", str(det)]
        ) == 0
        for sweep in ("grid", "dense"):
            roc_out, eval_out = tmp_path / kind / f"roc-{sweep}", tmp_path / kind / f"ev-{sweep}"
            assert _roc(inj / "noisy.json", det / "report.json", inj / "ledger.json", roc_out,
                        "--sweep", sweep) == 0
            assert main(
                ["eval", "--ground-truth", str(gt), "--predictions", str(preds), *spec,
                 "--sweep", sweep, "--output-dir", str(eval_out)]
            ) == 0
            for name in ("roc.csv", "roc.json"):
                assert (eval_out / name).read_bytes() == (roc_out / name).read_bytes(), (
                    kind, sweep, name
                )
            assert json.loads((roc_out / "roc.json").read_text())["auroc"] >= 0.9, (kind, sweep)


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


def test_roc_reads_a_report_in_the_old_layout(tmp_path):
    """Before 0.3.0 a finding listed its member boxes under
    ``original_members`` and ``predicted_members``; ``roc`` reads only the
    verdicts, so such a report sweeps to the same bytes."""
    noisy, report, ledger, preds = _roc_inputs(tmp_path)
    annotations = {a["id"]: a for a in json.loads(noisy.read_text())["annotations"]}
    detections = json.loads(preds.read_text())
    mirror = json.loads(report.read_text())
    assert mirror["findings"]
    for finding in mirror["findings"]:
        finding["original_members"] = [
            {k: annotations[i][k] for k in ("bbox", "category_id", "id", "image_id")}
            for i in finding["annotation_ids"]
        ]
        finding["predicted_members"] = [
            {**{k: detections[i - 1][k] for k in ("bbox", "category_id", "image_id", "score")},
             "id": i}
            for i in finding["prediction_ids"]
        ]
    old = tmp_path / "old.json"
    with open(old, "w", encoding="utf-8") as fh:
        json.dump(mirror, fh, sort_keys=True, indent=2)
    for name, path in (("new", report), ("old", old)):
        assert _roc(noisy, path, ledger, tmp_path / name, "--sweep", "dense") == 0
    for name in ("roc.csv", "roc.json"):
        assert (tmp_path / "old" / name).read_bytes() == (tmp_path / "new" / name).read_bytes()


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
    """A ledger over the ground truth before injection: ``eval --ledger``
    is no longer a command, and re-scoring it by ``detect`` and ``roc`` is
    refused once detection has run, with no roc output directory made."""
    _, _, ledger, preds = _roc_inputs(tmp_path)
    gt = tmp_path / "gt.json"
    _eval_ledger_refused(tmp_path, inputs=(gt, preds, ledger))
    capsys.readouterr()
    assert _rescore(gt, preds, ledger, tmp_path / "ev") == 1
    _single_error_line(capsys, "invalid-input")
    assert not (tmp_path / "ev" / "roc").exists()


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


@pytest.mark.parametrize("noise_type, sides", [
    ("missing", ()),
    ("missing", ("perturbed",)),
    ("missing", ("original", "perturbed")),
    ("spurious", ("original",)),
    ("spurious", ("original", "perturbed")),
    ("uniform_label", ("original",)),
    ("uniform_label", ("perturbed",)),
    ("location", ()),
], ids=lambda v: v if isinstance(v, str) else "+".join(v) or "no-box")
def test_roc_rejects_ledger_entry_whose_boxes_do_not_fit_its_kind(
    tmp_path, capsys, noise_type, sides
):
    """As ``inject`` writes them, a missing entry has only an original box,
    a spurious one only a perturbed box and the other kinds both; a ledger
    entry shaped otherwise could never be matched, and is refused."""
    noisy, report, ledger, _ = _roc_inputs(tmp_path)
    payload = json.loads(ledger.read_text())
    box = payload["entries"][0]["original"]
    payload["entries"].append({"annotation_id": 10**6, "noise_type": noise_type,
                               **{side: box for side in sides}})
    write_json(ledger, payload)
    capsys.readouterr()
    assert _roc(noisy, report, ledger, tmp_path / "roc") == 1
    err = capsys.readouterr().err
    n = len(payload["entries"]) - 1
    assert err == (
        f"error[malformed-syntax]: entries[{n}]: boxes do not fit noise_type {noise_type!r}: "
        "missing has only an original, spurious only a perturbed and the other kinds both\n"
    ), err
    assert not (tmp_path / "roc").exists()


def test_roc_reads_a_null_side_the_kind_has_not(tmp_path):
    """A missing entry's perturbed box written as null is no box."""
    noisy, report, ledger, _ = _roc_inputs(tmp_path)
    assert _roc(noisy, report, ledger, tmp_path / "roc") == 0
    payload = json.loads(ledger.read_text())
    for entry in payload["entries"]:
        entry["perturbed"] = None
    write_json(ledger, payload)
    assert _roc(noisy, report, ledger, tmp_path / "null") == 0
    for name in ("roc.csv", "roc.json"):
        assert (tmp_path / "null" / name).read_bytes() == (tmp_path / "roc" / name).read_bytes()


@pytest.mark.parametrize("match_iou", ["0", "-1", "1.5"])
def test_match_iou_outside_unit_interval_rejected(tmp_path, capsys, match_iou):
    noisy, report, ledger, preds = _roc_inputs(tmp_path)
    capsys.readouterr()
    assert _roc(noisy, report, ledger, tmp_path / "roc", "--match-iou", match_iou) == 1
    _single_error_line(capsys, "invalid-spec")
    rc = main(
        ["eval", "--ground-truth", str(tmp_path / "gt.json"), "--predictions", str(preds),
         "--noise-kind", "missing", "--fraction", "0.2", "--match-iou", match_iou,
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
    """``eval --ledger`` is no longer a command; re-scoring the ledger by
    ``detect`` and ``roc`` from the predictions is refused."""
    noisy, _, ledger, preds = _ledger_on_unknown_image(tmp_path)
    _eval_ledger_refused(tmp_path, inputs=(noisy, preds, ledger))
    capsys.readouterr()
    assert _rescore(noisy, preds, ledger, tmp_path / "ev") == 1
    _single_error_line(capsys, "dangling-reference")
    assert not (tmp_path / "ev" / "roc").exists()


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
    iou_threshold=0.5, mode="confident_joint", tau=None, noise=None, ledger=None,
    report=None, output_dir=Path("."), runs=1, sweep="grid", match_iou=0.5,
)


@pytest.mark.parametrize("argv, fields", [
    (["inject", "--ground-truth", "gt.json", "--noise-kind", "missing", "--fraction", "0.2"],
     {"ground_truth": "gt.json", "predictions": None,
      "noise": NoiseSpec(NoiseKind.MISSING, 0.2, None, 0)}),
    (["detect", "--ground-truth", "gt.json", "--predictions", "p.json"],
     {"ground_truth": "gt.json", "predictions": "p.json"}),
    (["eval", "--ground-truth", "gt.json", "--predictions", "p.json"],
     {"ground_truth": "gt.json", "predictions": "p.json"}),
    (["eval", "--ground-truth", "gt.json", "--predictions", "p.json", "--noise-kind", "scale",
      "--fraction", "0.2", "--amplitude", "0.3", "--seed", "4", "--runs", "3"],
     {"ground_truth": "gt.json", "predictions": "p.json", "runs": 3,
      "noise": NoiseSpec(NoiseKind.SCALE, 0.2, 0.3, 4)}),
    (["roc", "--ground-truth", "gt.json", "--report", "r.json", "--ledger", "l.json"],
     {"ground_truth": "gt.json", "predictions": None, "report": "r.json",
      "ledger": "l.json"}),
], ids=["inject", "detect", "eval", "eval-noise", "roc"])
def test_minimal_argv_builds_todays_config(monkeypatch, argv, fields):
    monkeypatch.delenv("BOXAUDIT_OUTPUT_DIR", raising=False)
    config = _build_config(build_parser().parse_args(argv))
    assert config == PipelineConfig(**{**_TODAYS_DEFAULTS, **fields})


_NOISE_FLAGS = {"noise_kind", "fraction", "amplitude", "seed"}  # they make PipelineConfig.noise


def test_every_flag_is_named_after_its_config_field():
    """Each subcommand's flags, the four that make the noise spec aside,
    set the ``PipelineConfig`` field of their own name."""
    parser = build_parser()
    (commands,) = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(commands) == ["detect", "eval", "inject", "roc"]
    fields = {f.name for f in dataclasses.fields(PipelineConfig)}
    for name, command in commands.items():
        dests = {a.dest for a in command._actions} - {"help"}
        assert dests - _NOISE_FLAGS <= fields, (name, sorted(dests - _NOISE_FLAGS - fields))


# the modules src/boxaudit imports at top level from outside the package
_TOP_LEVEL_IMPORTS = (
    "__future__", "argparse", "collections", "csv", "dataclasses", "enum", "functools",
    "itertools", "json", "math", "numpy", "operator", "os", "pathlib", "random", "sys", "typing",
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


def test_import_cli_loads_no_statistics():
    """``import boxaudit.cli`` loads neither ``statistics`` nor the
    ``fractions`` and ``decimal`` it imports (≈2.8 ms of start-up)."""
    code = "\n".join([
        "import sys",
        "import boxaudit.cli",
        "print(*sorted({'statistics', 'fractions', 'decimal'} & set(sys.modules)))",
    ])
    src = str(Path(boxaudit.__file__).resolve().parents[1])
    loaded = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, check=True,
        capture_output=True, text=True, timeout=120,
    ).stdout.split()
    assert loaded == []


@pytest.mark.parametrize("field, value, message", [
    ("sweep", "dnese", "sweep must be one of grid, dense, got 'dnese'"),
    ("mode", "confident-joint", "unknown mode 'confident-joint'"),
], ids=["sweep", "mode"])
def test_config_rejects_unknown_sweep_and_mode(field, value, message):
    """A sweep or mode the commands do not know is refused when the config
    is built, before any file is read."""
    with pytest.raises(InvalidSpecError) as raised:
        PipelineConfig(ground_truth="absent.json", **{field: value})
    assert str(raised.value) == message


_NOISE = NoiseSpec(NoiseKind.MISSING, 0.2)


@pytest.mark.parametrize("command, inputs, message", [
    (cmd_inject, {"ground_truth": "gt.json"}, "inject requires a noise specification"),
    (cmd_inject, {"noise": _NOISE}, "inject requires --ground-truth"),
    (cmd_detect, {"predictions": "p.json"}, "detect requires --ground-truth"),
    (cmd_detect, {"ground_truth": "gt.json"}, "detect requires --predictions"),
    (cmd_eval, {"noise": _NOISE, "predictions": "p.json"}, "eval requires --ground-truth"),
    (cmd_eval, {"noise": _NOISE, "ground_truth": "gt.json"}, "eval requires --predictions"),
    (cmd_roc, {"ground_truth": "gt.json"}, "roc requires --report and --ledger"),
    (cmd_roc, {"report": "r.json", "ledger": "l.json"}, "roc requires --ground-truth"),
], ids=["inject-noise", "inject-ground-truth", "detect-ground-truth", "detect-predictions",
        "eval-ground-truth", "eval-predictions", "roc-report-ledger", "roc-ground-truth"])
def test_library_command_refuses_missing_input(tmp_path, monkeypatch, command, inputs, message):
    """A command called from code without one of its inputs is refused as
    an invalid spec before any file is read: the paths it is given do not
    exist, and no output directory is made."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(InvalidSpecError) as raised:
        command(PipelineConfig(output_dir="o", **inputs))
    assert str(raised.value) == message
    assert not (tmp_path / "o").exists()


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


@pytest.mark.parametrize("command", ["inject", "detect", "eval", "roc"])
def test_command_does_not_load_numpy_ma(tmp_path, command):
    """No command loads ``numpy.ma``: on numpy 2.4 a bare ``np.unique(x)``,
    ``np.isin`` or ``np.median`` loads it, at ≈17 ms of start-up per
    process."""
    noisy, report, ledger, preds = _roc_inputs(tmp_path)
    gt = tmp_path / "gt.json"
    argv = {
        "inject": ["inject", "--ground-truth", str(gt), "--noise-kind", "uniform_label",
                   "--fraction", "0.3", "--seed", "2"],
        "detect": ["detect", "--ground-truth", str(noisy), "--predictions", str(preds)],
        "eval": ["eval", "--ground-truth", str(gt), "--predictions", str(preds),
                 "--noise-kind", "missing", "--fraction", "0.3", "--runs", "2",
                 "--sweep", "dense"],
        "roc": ["roc", "--ground-truth", str(noisy), "--report", str(report),
                "--ledger", str(ledger)],
    }[command] + ["--output-dir", str(tmp_path / "o")]
    code = "\n".join([
        "import sys",
        "from boxaudit.cli import main",
        f"assert main({argv!r}) == 0",
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma loaded'",
    ])
    src = str(Path(boxaudit.__file__).resolve().parents[1])
    subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, check=True,
        capture_output=True, text=True, timeout=120,
    )
