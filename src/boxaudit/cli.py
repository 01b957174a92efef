"""Command-line interface: ``boxaudit inject | detect | eval | roc``.

Every typed failure exits nonzero with a single machine-parsable line of the
form ``error[<category>]: <message>`` on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys

from boxaudit import confident_learning as cl
from boxaudit.errors import AuditError, InvalidSpecError
from boxaudit.noise_injection import NoiseKind, NoiseSpec
from boxaudit.pipeline import SWEEPS, PipelineConfig, cmd_detect, cmd_eval, cmd_inject, cmd_roc


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--output-dir",
        default=os.environ.get("BOXAUDIT_OUTPUT_DIR", argparse.SUPPRESS),
        help="where result files go (env BOXAUDIT_OUTPUT_DIR overrides the default)",
    )


def _add_noise_flags(parser: argparse.ArgumentParser, required: bool) -> None:
    parser.add_argument(
        "--noise-kind",
        choices=[k.value for k in NoiseKind],
        required=required,
        help="noise type to inject",
    )
    parser.add_argument("--fraction", type=float, help="fraction of annotations to perturb")
    parser.add_argument(
        "--amplitude",
        type=float,
        help="displacement/scaling amplitude (location and scale noise only)",
    )
    parser.add_argument("--seed", type=int, help="random seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxaudit",
        description="Detect suspicious bounding-box annotations in "
        "object-detection datasets using out-of-sample model predictions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str) -> argparse.ArgumentParser:
        # a flag left out stays out of the namespace, so PipelineConfig holds
        # every default
        return sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)

    p_inject = command("inject", help="corrupt a dataset and record a ledger")
    p_inject.add_argument("--ground-truth", required=True, help="COCO annotation file")
    _add_noise_flags(p_inject, required=True)
    _add_common(p_inject)

    p_detect = command("detect", help="report suspicious annotations")
    p_detect.add_argument("--ground-truth", required=True, help="COCO annotation file")
    p_detect.add_argument("--predictions", required=True, help="COCO detection-results file")
    p_detect.add_argument("--iou-threshold", type=float, help="clustering IoU threshold")
    p_detect.add_argument("--mode", choices=cl.MODES, help="flagging mode")
    p_detect.add_argument("--tau", type=float, help="quality-score cutoff (score_threshold mode)")
    _add_common(p_detect)

    p_eval = command("eval", help="inject noise and measure ROC/AUROC")
    p_eval.add_argument("--ground-truth", required=True, help="clean COCO annotation file")
    p_eval.add_argument("--predictions", required=True, help="COCO detection-results file")
    p_eval.add_argument("--iou-threshold", type=float)
    p_eval.add_argument("--runs", type=int, help="independent runs aggregated by median")
    p_eval.add_argument(
        "--sweep", choices=SWEEPS, help="threshold grid 0.0..1.0 step 0.1, or every distinct score"
    )
    p_eval.add_argument(
        "--match-iou", type=float, help="IoU for matching missing-region findings to removed boxes"
    )
    _add_noise_flags(p_eval, required=False)
    _add_common(p_eval)

    p_roc = command("roc", help="re-sweep an existing report against a ledger")
    p_roc.add_argument(
        "--ground-truth", required=True, help="the (noisy) COCO file the report covers"
    )
    p_roc.add_argument("--report", required=True, help="report JSON mirror from detect")
    p_roc.add_argument("--ledger", required=True, help="ledger file")
    p_roc.add_argument("--sweep", choices=SWEEPS)
    p_roc.add_argument("--match-iou", type=float)
    _add_common(p_roc)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _build_config(args)
        if args.command == "inject":
            cmd_inject(config)
        elif args.command == "detect":
            cmd_detect(config)
        elif args.command == "eval":
            cmd_eval(config)
        else:
            cmd_roc(config)
    except AuditError as e:
        print(f"error[{e.category}]: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error[io-failure]: {e}", file=sys.stderr)
        return 1
    return 0


def _build_config(args: argparse.Namespace) -> PipelineConfig:
    """The config of the flags given; a flag left out takes its
    PipelineConfig default."""
    flags = {k: v for k, v in vars(args).items() if k != "command"}
    kind, fraction, amplitude, seed = (
        flags.pop(k, None) for k in ("noise_kind", "fraction", "amplitude", "seed")
    )
    noise = None
    if kind is None:
        for flag, value in (("fraction", fraction), ("amplitude", amplitude), ("seed", seed)):
            if value is not None:
                raise InvalidSpecError(f"--{flag} requires --noise-kind")
    else:
        if fraction is None:
            raise InvalidSpecError("--noise-kind requires --fraction")
        noise = NoiseSpec(
            kind=NoiseKind(kind), fraction=fraction, amplitude=amplitude,
            seed=NoiseSpec.seed if seed is None else seed,
        )
    return PipelineConfig(noise=noise, **flags)


if __name__ == "__main__":
    sys.exit(main())
