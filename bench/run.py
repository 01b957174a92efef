"""boxaudit benchmark: seeded workloads run through the real CLI, timed end
to end, with output checks and an optional traced per-layer run.

    python3 bench/run.py --workload audit-crowded --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout; boxaudit is imported from
``src/``. Each run builds its inputs from ``--seed`` (untimed), then repeats
the workload's ``python3 -m boxaudit ...`` command as a child process, one
at a time, until ``--seconds`` of command time have been measured, and
times the interpreter-plus-import set-up after each repetition. Every
repetition must exit 0 and write byte-identical outputs; the first one's
outputs are also checked against the injected noise.

``--trace 0`` reports the end-to-end metrics listed in BENCHMARK.json.
``--trace 1`` alternates untraced children with in-process traced calls of
``boxaudit.cli.main`` and reports the per-layer metrics plus the tracing
overhead. The last line of stdout is the JSON result; the lines before it
are the same numbers for people.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NoReturn

import gen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(".bench_work")  # relative to ROOT, the working directory of the run
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

MIN_REPS = 3  # timed repetitions per run, whatever --seconds says
SETUP_REPS = 7  # fewest interpreter-plus-import timings per run; the median is reported
RUN_BUDGET_S = 170.0  # a run stops starting children once this is spent

MIN_FLIP_RECALL = 0.95
MIN_AUROC = 0.99


def fail(message: str) -> NoReturn:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


# --- child processes ------------------------------------------------------------


@dataclass
class Child:
    code: int
    wall_s: float
    peak_rss_mb: float


def spawn(args: list, log: Path, timeout: float) -> Child:
    """Run ``python3 args...`` with boxaudit on the path; wall time from
    spawn to exit, peak RSS from the child's own rusage."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    with open(log, "wb") as out:
        began = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *map(str, args)], stdout=out, stderr=out, env=env)
        killer = threading.Timer(max(timeout, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - began
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0)


def boxaudit(args: list, log: Path, timeout: float) -> None:
    """An untimed preparation call; any failure ends the benchmark."""
    child = spawn(["-m", "boxaudit", *args], log, timeout)
    if child.code != 0:
        fail(f"preparation `boxaudit {' '.join(map(str, args))}` exited {child.code}:\n{log.read_text()}")


# --- workloads ------------------------------------------------------------------


@dataclass
class Prepared:
    argv: list  # boxaudit arguments, without --output-dir
    outputs: list[str]  # files the command writes into its output dir
    boxes: int
    check: Callable[[Path], str | None]  # output dir -> error message or None


def _read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def prepare_audit(work: Path, seed: int, images: int, deadline: float) -> Prepared:
    gt, preds = gen.write("crowded", images, seed, work / "input")
    noisy = work / "noisy"
    boxaudit(["inject", "--ground-truth", gt, "--noise-kind", "uniform_label",
              "--fraction", "0.1", "--seed", seed, "--output-dir", noisy],
             work / "prepare.log", deadline - time.monotonic())
    flips = {e["annotation_id"] for e in _read_json(noisy / "ledger.json")["entries"]}
    boxes = len(_read_json(gt)["annotations"]) + len(_read_json(preds))

    def check(out: Path) -> str | None:
        report = _read_json(out / "report.json")
        flagged = {a for f in report["findings"] for a in f["annotation_ids"]}
        recall = len(flips & flagged) / len(flips)
        if recall < MIN_FLIP_RECALL:
            return f"flagged {recall:.4f} of the injected label flips, need {MIN_FLIP_RECALL}"
        return None

    return Prepared(["detect", "--ground-truth", noisy / "noisy.json", "--predictions", preds],
                    ["report.csv", "report.json"], boxes, check)


def _check_auroc(key: str, runs: int | None):
    def check(out: Path) -> str | None:
        roc = _read_json(out / "roc.json")
        if runs is not None and len(roc.get("runs", [])) != runs:
            return f"roc.json holds {len(roc.get('runs', []))} runs, expected {runs}"
        if not roc[key] >= MIN_AUROC:
            return f"{key} {roc[key]} below {MIN_AUROC}"
        return None

    return check


EVAL_RUNS = 3


def prepare_eval(work: Path, seed: int, images: int, deadline: float) -> Prepared:
    gt, preds = gen.write("sparse", images, seed, work / "input")
    boxes = EVAL_RUNS * (len(_read_json(gt)["annotations"]) + len(_read_json(preds)))
    return Prepared(["eval", "--ground-truth", gt, "--predictions", preds,
                     "--noise-kind", "uniform_label", "--fraction", "0.2",
                     "--runs", EVAL_RUNS, "--seed", seed],
                    ["roc.csv", "roc.json"], boxes, _check_auroc("median_auroc", EVAL_RUNS))


def prepare_resweep(work: Path, seed: int, images: int, deadline: float) -> Prepared:
    gt, preds = gen.write("sparse", images, seed, work / "input")
    noisy, full = work / "noisy", work / "full"
    boxaudit(["inject", "--ground-truth", gt, "--noise-kind", "missing",
              "--fraction", "0.2", "--seed", seed, "--output-dir", noisy],
             work / "prepare.log", deadline - time.monotonic())
    boxaudit(["detect", "--ground-truth", noisy / "noisy.json", "--predictions", preds,
              "--mode", "score_threshold", "--tau", "1.0", "--output-dir", full],
             work / "prepare.log", deadline - time.monotonic())
    boxes = (len(_read_json(full / "report.json")["verdicts"])
             + len(_read_json(noisy / "ledger.json")["entries"]))
    return Prepared(["roc", "--ground-truth", noisy / "noisy.json", "--report", full / "report.json",
                     "--ledger", noisy / "ledger.json", "--sweep", "dense"],
                    ["roc.csv", "roc.json"], boxes, _check_auroc("auroc", None))


@dataclass
class Workload:
    images: int
    prepare: Callable[[Path, int, int, float], Prepared]


# Sizes keep one repetition near a second on a 2-core machine, so a run takes
# 15-25 samples and its mean does not hang on a few slow seconds.
WORKLOADS = {
    "audit-crowded": Workload(300, prepare_audit),
    "eval-label": Workload(700, prepare_eval),
    "resweep-missing": Workload(500, prepare_resweep),
}


# --- measuring ------------------------------------------------------------------


def digest(out: Path, names: list[str]) -> str | None:
    h = hashlib.sha256()
    for name in names:
        try:
            h.update((out / name).read_bytes())
        except FileNotFoundError:
            return None
    return h.hexdigest()


@dataclass
class Outcome:
    """Checks every repetition's outputs against the first repetition's."""

    prepared: Prepared
    attempted: int = 0
    errors: list[str] = field(default_factory=list)
    reference: str | None = None

    def record(self, label: str, code: int, out: Path) -> None:
        self.attempted += 1
        if code != 0:
            self.errors.append(f"{label}: exit code {code}")
            return
        got = digest(out, self.prepared.outputs)
        if got is None:
            self.errors.append(f"{label}: missing output files")
        elif self.reference is None:
            error = self.prepared.check(out)
            if error is None:
                self.reference = got
            else:
                self.errors.append(f"{label}: {error}")
        elif got != self.reference:
            self.errors.append(f"{label}: outputs differ from the first repetition")


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class SetupTimer:
    """Wall times of starting Python and importing the CLI. One is taken
    after each repetition, so the median spans the same stretch of time as
    the workload's samples rather than one burst at the start."""

    def __init__(self, work: Path, deadline: float):
        self.log, self.deadline, self.walls = work / "setup.log", deadline, []
        self._spawn()  # warm caches

    def _spawn(self) -> float:
        child = spawn(["-c", "import boxaudit.cli"], self.log, self.deadline - time.monotonic())
        if child.code != 0:
            fail(f"`import boxaudit.cli` exited {child.code}:\n{self.log.read_text()}")
        return child.wall_s

    def sample(self) -> None:
        self.walls.append(self._spawn())

    def median(self) -> float:
        while len(self.walls) < SETUP_REPS:
            self.sample()
        return statistics.median(self.walls)


def run_child(prepared: Prepared, work: Path, outcome: Outcome, label: str, deadline: float) -> Child:
    out = fresh(work / "out")
    child = spawn(["-m", "boxaudit", *prepared.argv, "--output-dir", out],
                  work / "child.log", deadline - time.monotonic())
    outcome.record(label, child.code, out)
    return child


def enough(measured: float, reps: int, seconds: float, longest: float, deadline: float) -> bool:
    if time.monotonic() + 2 * longest > deadline:
        return True
    return reps >= MIN_REPS and measured >= seconds


def run(name: str, seed: int, seconds: float, traced: bool) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    work = fresh(WORK / f"{name}-s{seed}-p{os.getpid()}")
    try:
        workload = WORKLOADS[name]
        prepared = workload.prepare(work, seed, workload.images, deadline)
        setup = SetupTimer(work, deadline)
        outcome = Outcome(prepared)
        if traced:
            metrics = measure_traced(name, seed, seconds, prepared, work, outcome, setup, deadline)
        else:
            metrics = measure_untraced(name, seconds, prepared, work, outcome, setup, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for error in outcome.errors:
        print(f"FAILED {error}", file=sys.stderr)
    failed = len(outcome.errors)
    print(f"  {'error_rate':<40} {failed}/{outcome.attempted} = {failed / outcome.attempted:.4f}")
    return {"correct": failed == 0, "attempted": outcome.attempted, "failed": failed,
            "metrics": metrics}


def measure_untraced(name, seconds, prepared, work, outcome, setup, deadline) -> dict:
    walls, rss = [], []
    while not enough(sum(walls), len(walls), seconds,
                     max(walls, default=0.0) + max(setup.walls, default=0.0), deadline):
        child = run_child(prepared, work, outcome, f"repetition {len(walls) + 1}", deadline)
        walls.append(child.wall_s)
        rss.append(child.peak_rss_mb)
        setup.sample()
    setup_s = setup.median()
    wall_s = statistics.mean(walls)
    values = {
        "wall_s": wall_s,
        "boxes_per_s": prepared.boxes / wall_s,
        "peak_rss_mb": statistics.median(rss),
        "setup_s": setup_s,
    }
    header(name, prepared, len(walls))
    samples = " ".join(f"{w:.3f}" for w in walls)
    return emit("end_to_end", values, {"wall_s": f"mean of {len(walls)} samples (median "
                                                  f"{statistics.median(walls):.4f}): {samples}",
                                       "setup_s": f"median of {len(setup.walls)} samples"})


def measure_traced(name, seed, seconds, prepared, work, outcome, setup, deadline) -> dict:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tracing

    walls, traced_walls, per_rep, spans = [], [], [], []
    while not enough(sum(walls) + sum(traced_walls), len(walls), seconds,
                     max(walls, default=0.0) + max(traced_walls, default=0.0)
                     + max(setup.walls, default=0.0), deadline):
        rep = len(walls) + 1
        walls.append(run_child(prepared, work, outcome, f"untraced repetition {rep}", deadline).wall_s)
        tracer = tracing.Tracer(f"{name}-s{seed}-r{rep}")
        out = fresh(work / "out")
        gc.collect()
        code, wall = tracing.traced_main(
            [*map(str, prepared.argv), "--output-dir", str(out)], tracer)
        outcome.record(f"traced repetition {rep}", code, out)
        traced_walls.append(wall)
        per_rep.append(tracer.metrics())
        spans.extend(vars(s) for s in tracer.spans)
        setup.sample()

    spans_file = WORK / "spans" / f"{name}-s{seed}.json"
    spans_file.parent.mkdir(parents=True, exist_ok=True)
    spans_file.write_text(json.dumps(spans, indent=1) + "\n")

    setup_s = setup.median()
    net = statistics.mean(walls) - setup_s
    values = {m: statistics.median(rep.get(m, 0) for rep in per_rep)
              for m in (spec["name"] for spec in SPEC["per_layer"])}
    values["trace.overhead"] = statistics.mean(traced_walls) / net - 1.0
    header(name, prepared, len(walls))
    print(f"  untraced wall_s {statistics.mean(walls):.4f} s, setup_s {setup_s:.4f} s, "
          f"traced command {statistics.mean(traced_walls):.4f} s; spans in {spans_file}")
    return emit("per_layer", values, {})


def header(name: str, prepared: Prepared, samples: int) -> None:
    print(f"workload {name}: boxes {prepared.boxes}, samples {samples}, cores {os.cpu_count()}, "
          f"command: boxaudit {' '.join(str(a) for a in prepared.argv)}")


def emit(kind: str, values: dict, notes: dict) -> dict:
    """Every metric BENCHMARK.json lists under ``kind``, printed by name
    with its unit."""
    metrics = {}
    for spec in SPEC[kind]:
        value = float(values[spec["name"]])
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        note = notes.get(spec["name"], "")
        print(f"  {spec['name']:<40} {value:.6g} {spec['unit']}  {note}".rstrip())
    return metrics


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    os.chdir(ROOT)
    if not (SRC / "boxaudit" / "__init__.py").is_file():
        fail(f"no boxaudit sources under {SRC}; run from a boxaudit checkout")
    for name in WORKLOADS if args.workload == "all" else [args.workload]:
        result = run(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
