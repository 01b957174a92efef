"""Golden outputs: every CLI command on a small fixed-seed input must write
the checked-in bytes under ``tests/golden/``.

The input is the test harness's grid with the prediction scores varied
(seeded), so dense sweeps have many thresholds. Each command reads the
checked-in files it depends on, so one command's drift shows in that
command's case only. Regenerate (only when an output change is intended)
with ``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

from boxaudit.cli import main

sys.path.insert(0, str(Path(__file__).parent))
from harness import build_synthetic  # noqa: E402

GOLDEN = Path(__file__).parent / "golden"

_NOISE = ["--fraction", "0.2", "--seed", "5"]

# name -> (argv with {g} for the golden directory, files written)
COMMANDS = {
    "inject_label": (
        ["inject", "--ground-truth", "{g}/gt.json", "--noise-kind", "uniform_label", *_NOISE],
        ["noisy.json", "ledger.json"],
    ),
    "inject_missing": (
        ["inject", "--ground-truth", "{g}/gt.json", "--noise-kind", "missing", *_NOISE],
        ["noisy.json", "ledger.json"],
    ),
    **{
        f"detect_{mode}_{noise}": (
            ["detect", "--ground-truth", f"{{g}}/inject_{noise}/noisy.json",
             "--predictions", "{g}/predictions.json", *flags],
            ["report.csv", "report.json"],
        )
        for mode, flags in (("cj", []), ("st", ["--mode", "score_threshold", "--tau", "1.0"]))
        for noise in ("label", "missing")
    },
    **{
        f"eval_{noise}_{sweep}": (
            ["eval", "--ground-truth", "{g}/gt.json", "--predictions", "{g}/predictions.json",
             "--noise-kind", kind, *_NOISE, "--runs", "2", "--sweep", sweep],
            ["roc.csv", "roc.json"],
        )
        for noise, kind in (("label", "uniform_label"), ("missing", "missing"))
        for sweep in ("grid", "dense")
    },
    "roc_dense": (
        ["roc", "--ground-truth", "{g}/inject_missing/noisy.json",
         "--report", "{g}/detect_st_missing/report.json",
         "--ledger", "{g}/inject_missing/ledger.json", "--sweep", "dense"],
        ["roc.csv", "roc.json"],
    ),
}


def build_inputs() -> tuple[dict, list]:
    """The harness grid (12 images, 6 boxes each, 5 classes) with every
    prediction score redrawn from [0.3, 1)."""
    gt, preds = build_synthetic(num_images=12, boxes_per_image=6, num_classes=5, seed=2024)
    rng = random.Random(2024)
    for p in preds:
        p["score"] = 0.3 + 0.7 * rng.random()
    return gt, preds


def _run(name: str, out: Path) -> None:
    argv, _ = COMMANDS[name]
    argv = [a.replace("{g}", str(GOLDEN)) for a in argv]
    assert main([*argv, "--output-dir", str(out)]) == 0


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_writes_golden_bytes(name, tmp_path, capsys):
    _run(name, tmp_path)
    capsys.readouterr()
    for file in COMMANDS[name][1]:
        assert (tmp_path / file).read_bytes() == (GOLDEN / name / file).read_bytes(), file


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    gt, preds = build_inputs()
    (GOLDEN / "gt.json").write_text(json.dumps(gt))
    (GOLDEN / "predictions.json").write_text(json.dumps(preds))
    for name in COMMANDS:  # inject first: the later commands read its outputs
        _run(name, GOLDEN / name)


if __name__ == "__main__":
    regenerate()
