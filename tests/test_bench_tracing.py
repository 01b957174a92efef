"""The benchmark's ``--trace 1`` mode wraps package functions by name
(``bench/tracing.py``); these tests fail when one of those names is removed
or a traced command stops running."""

import importlib.util
import sys
from pathlib import Path

from boxaudit.cli import main

from harness import write_synthetic


def _load_tracing():
    """``bench/tracing.py`` loaded from its file under its own module name,
    so no other module called ``tracing`` can stand in for it."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def test_every_trace_target_resolves():
    for module, attr, _, _ in tracing.TARGETS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_traced_detect_and_dense_roc_run(tmp_path):
    gt, preds = write_synthetic(tmp_path, num_images=6, boxes_per_image=5, seed=3)
    noise = tmp_path / "noise"
    assert main(["inject", "--ground-truth", str(gt), "--noise-kind", "missing",
                 "--fraction", "0.2", "--seed", "1", "--output-dir", str(noise)]) == 0
    noisy, ledger = noise / "noisy.json", noise / "ledger.json"

    tracer = tracing.Tracer("detect")
    code, _ = tracing.traced_main(
        ["detect", "--ground-truth", str(noisy), "--predictions", str(preds),
         "--mode", "score_threshold", "--tau", "1", "--output-dir", str(tmp_path / "detect")],
        tracer,
    )
    assert code == 0
    assert tracer.metrics()["dataset_io.save_report.s"] > 0

    tracer = tracing.Tracer("roc")
    code, _ = tracing.traced_main(
        ["roc", "--ground-truth", str(noisy), "--report", str(tmp_path / "detect" / "report.json"),
         "--ledger", str(ledger), "--sweep", "dense", "--output-dir", str(tmp_path / "roc")],
        tracer,
    )
    assert code == 0
    assert tracer.counts["evaluation.thresholds"] > 2
    assert tracer.counts["evaluation.removed"] == 6


def test_traced_eval_counts_ledger_entries_and_records(tmp_path):
    """``eval`` counts the injected entries of every run; ``roc`` counts the
    ledger's entries among the loaded records. The tracer reads them as
    ``len(ledger)``, ``ds.annotations``, ``preds.boxes`` and
    ``len(verdicts)``."""
    gt, preds = write_synthetic(tmp_path, num_images=6, boxes_per_image=5, seed=3)

    tracer = tracing.Tracer("eval-missing")
    code, _ = tracing.traced_main(
        ["eval", "--ground-truth", str(gt), "--predictions", str(preds), "--noise-kind", "missing",
         "--fraction", "0.2", "--runs", "2", "--output-dir", str(tmp_path / "eval")],
        tracer,
    )
    assert code == 0
    assert tracer.counts["noise_injection.ledger_entries"] == 12  # 2 runs × 6 of 30 boxes
    assert tracer.counts["dataset_io.records_loaded"] == 60  # 30 annotations, 30 predictions

    noise = tmp_path / "noise"
    assert main(["inject", "--ground-truth", str(gt), "--noise-kind", "missing",
                 "--fraction", "0.2", "--seed", "1", "--output-dir", str(noise)]) == 0
    noisy = noise / "noisy.json"
    assert main(["detect", "--ground-truth", str(noisy), "--predictions", str(preds),
                 "--mode", "score_threshold", "--tau", "1", "--output-dir",
                 str(tmp_path / "detect")]) == 0
    tracer = tracing.Tracer("roc")
    code, _ = tracing.traced_main(
        ["roc", "--ground-truth", str(noisy), "--report", str(tmp_path / "detect" / "report.json"),
         "--ledger", str(noise / "ledger.json"), "--output-dir", str(tmp_path / "roc")],
        tracer,
    )
    assert code == 0
    assert tracer.counts["noise_injection.ledger_entries"] == 0
    # 24 annotations, 30 verdicts (one per annotation and one per region
    # of the 6 removed boxes) and 6 ledger entries
    assert tracer.counts["dataset_io.records_loaded"] == 60
