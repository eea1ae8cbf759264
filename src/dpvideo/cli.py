"""Command-line entry point.

Subcommands: generate-data, account, pretrain, train, sweep. Batch use only:
all randomness flows from explicit seeds, and re-running a command with the
same flags reproduces the same output files byte for byte.

Exit codes: 0 ok, 1 runtime error, 2 config error (a config file or key that is
missing, unknown or invalid, or a bad flag value, such as account with a target
epsilon and fewer than one step, or a non-finite number such as nan or inf
where a setting needs a finite one), 3 infeasible calibration.
Set DPV_LOG={error,info,debug} to control verbosity.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import sys
import time

from .accountant import AccountantState, CalibrationError, calibrate_sigma
from .config import ConfigError, load_pretrain_config, load_sweep_lists, load_train_config
from .data import DatasetSpec, generate_dataset, save_dataset
from .trainer import CSV_HEADER, RunReport, csv_row, pretrain, sweep_clips, train, write_report

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3

log = logging.getLogger(__name__)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dpvideo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate-data", help="write a synthetic video dataset")
    gen.add_argument("--classes", type=int, default=10)
    gen.add_argument("--videos-per-class", type=int, default=100)
    gen.add_argument("--frames", type=int, default=32)
    gen.add_argument("--clip-len", type=int, default=8)
    gen.add_argument("--dim", type=int, default=32)
    gen.add_argument("--noise", type=float, default=0.5)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--template-seed", type=int, default=None,
                     help="share templates with another dataset (defaults to --seed)")
    gen.add_argument("--template-jitter", type=float, default=0.0,
                     help="perturb templates to open a domain gap")
    gen.add_argument("--out", required=True)

    acc = sub.add_parser("account", help="privacy spend of a training configuration")
    acc.add_argument("--q", type=float, required=True, help="per-step video sampling rate")
    acc.add_argument("--steps", type=int, required=True)
    acc.add_argument("--delta", type=float, default=1e-5)
    group = acc.add_mutually_exclusive_group(required=True)
    group.add_argument("--sigma", type=float, help="noise multiplier to account")
    group.add_argument("--target-eps", type=float, help="calibrate sigma for this epsilon")

    pre = sub.add_parser("pretrain", help="non-private source training for warm starts")
    pre.add_argument("--config", required=True)
    pre.add_argument("--override", action="append", default=[], metavar="KEY=VALUE")

    tr = sub.add_parser("train", help="one private training run")
    tr.add_argument("--config", required=True)
    tr.add_argument("--override", action="append", default=[], metavar="KEY=VALUE")
    tr.add_argument("--out", default=".", help="directory for report.json / report.csv")

    sw = sub.add_parser("sweep", help="train once per clips-per-video value (and seed)")
    sw.add_argument("--config", required=True)
    sw.add_argument("--override", action="append", default=[], metavar="KEY=VALUE")
    sw.add_argument("--out", default=".", help="directory for per-run reports and sweep.csv")
    sw.add_argument("--jobs", type=int, default=1, help="independent runs in parallel")
    return parser


def cmd_generate_data(args) -> int:
    try:
        spec = DatasetSpec(
            num_classes=args.classes,
            videos_per_class=args.videos_per_class,
            frames_per_video=args.frames,
            clip_length=args.clip_len,
            feature_dim=args.dim,
            noise_std=args.noise,
            seed=args.seed,
            template_seed=args.template_seed,
            template_jitter=args.template_jitter,
        )
    except ValueError as e:
        raise ConfigError(str(e)) from None
    videos = generate_dataset(spec)
    save_dataset(args.out, spec, videos)
    with open(args.out, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    print(f"{digest}  {args.out}")
    return EXIT_OK


def cmd_account(args) -> int:
    try:
        if args.sigma is not None:
            sigma = args.sigma
            if not 0 < sigma < math.inf:
                raise ConfigError("--sigma must be positive and finite")
        else:
            sigma = calibrate_sigma(args.target_eps, args.delta, args.q, args.steps)
        state = AccountantState.create(args.q, sigma, steps=args.steps)
        epsilon, best_order = state.epsilon_with_order(args.delta)
    except CalibrationError:
        raise
    except ValueError as e:
        raise ConfigError(str(e)) from None
    print(json.dumps({
        "epsilon": None if epsilon == math.inf else epsilon,  # JSON has no infinity: null
        "delta": args.delta,
        "sigma": sigma,
        "q": args.q,
        "steps": args.steps,
        "best_order": best_order,
    }, allow_nan=False))
    return EXIT_OK


def cmd_pretrain(args) -> int:
    config = load_pretrain_config(args.config, args.override)
    _, accuracy = pretrain(config)
    print(f"source accuracy: {accuracy * 100:.2f}, checkpoint: {config.out}")
    return EXIT_OK


def _print_acc_at_eps(report: RunReport) -> None:
    print(f"accuracy@epsilon: {report.final_accuracy * 100:.2f}@{report.final_epsilon:.2f}")


def cmd_train(args) -> int:
    config = load_train_config(args.config, args.override)
    os.makedirs(args.out, exist_ok=True)
    started = time.perf_counter()
    report = train(config)
    log.info("wall time: %.1f s", time.perf_counter() - started)
    write_report(report, os.path.join(args.out, "report.json"),
                 os.path.join(args.out, "report.csv"))
    _print_acc_at_eps(report)
    return EXIT_OK


def cmd_sweep(args) -> int:
    config = load_train_config(args.config, args.override)
    k_values, seeds = load_sweep_lists(args.config, args.override)
    os.makedirs(args.out, exist_ok=True)
    reports = sweep_clips(config, k_values, seeds, jobs=args.jobs)
    combined = os.path.join(args.out, "sweep.csv")
    with open(combined, "w") as f:
        f.write("k,seed," + CSV_HEADER + "\n")
        for rep in reports:
            base = os.path.join(args.out, f"report_k{rep.clips_per_video}_seed{rep.seed}")
            write_report(rep, base + ".json", base + ".csv")
            for r in rep.records:
                f.write(f"{rep.clips_per_video},{rep.seed},{csv_row(r)}\n")
    for rep in reports:
        print(f"k={rep.clips_per_video} seed={rep.seed} ", end="")
        _print_acc_at_eps(rep)
    return EXIT_OK


_COMMANDS = {
    "generate-data": cmd_generate_data,
    "account": cmd_account,
    "pretrain": cmd_pretrain,
    "train": cmd_train,
    "sweep": cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("DPV_LOG", "error").lower()
    logging.basicConfig(
        level={"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
            level, logging.ERROR
        ),
        format="%(asctime)s %(name)s %(levelname)s: %(message)s",
    )
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except CalibrationError as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except Exception as e:  # noqa: BLE001 - the CLI boundary maps everything to exit 1
        log.debug("unhandled error", exc_info=True)
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
