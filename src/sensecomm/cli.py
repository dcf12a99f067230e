"""Command-line entry point.

Subcommands: train, eval, sweep-comm-snr, sweep-sensing-snr,
sweep-output-size, gradcheck. Exit codes: 0 success, 2 usage or data
errors, 1 runtime failures.

The experiment flags are generated from the fields of
:class:`~sensecomm.models.ExperimentConfig`. A config file (``--config``,
JSON or ``key=value`` lines) sets the same options, keyed by flag name with
``_`` for ``-``: its entries are parsed as ``--key=value`` flags ahead of
the command line's, so flags on the command line win. A flag has one
spelling; abbreviations are not taken. Bad input exits 2 with one
``error:`` line and leaves no file or directory behind: flags, config
files, sweep points and checkpoints are checked before the corpus
loads, and the corpus before ``--out`` is made. ``eval`` takes the output
size and mode from the checkpoint; either flag, when given, must agree
with it. Every report is written as JSON and as CSV.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import suppress
from dataclasses import asdict, fields, replace

from . import harness
from .dataset import load_cifar10
from .errors import ConfigError, CorruptDatasetError, DivergenceError
from .harness import (
    SWEEPS,
    emit_report,
    evaluate,
    run_experiment,
    run_sweep,
    summary_line,
)
from .models import ExperimentConfig, load_checkpoint, save_checkpoint
from .selfcheck import run_gradient_checks


class _Parser(argparse.ArgumentParser):
    """A parser that takes no abbreviated flags and reports a usage error
    in one ``error:`` line, exit status 2."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _positive_int(raw: str) -> int:
    """Caster for a limit flag: an integer of at least 1."""
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is below 1")
    return value


def _choice(raw: str) -> str:
    """Caster for a field with choices; ``sensing-only`` spells
    ``sensing_only``. Membership is checked against the choices."""
    return raw.replace("-", "_")


def _add_common_flags(p: argparse.ArgumentParser, from_checkpoint=()):
    """The flags every experiment command takes. A field named in
    ``from_checkpoint`` defaults to None, "not given": the checkpoint sets it."""
    p.add_argument("--data-dir",
                   help="directory with the CIFAR-10 binary batch files")
    for f in fields(ExperimentConfig):
        flag, choices = f.metadata["flag"], f.metadata["choices"]
        saved = f.name in from_checkpoint
        p.add_argument(flag, dest=f.name, default=None if saved else f.default,
                       type=_choice if choices else type(f.default),
                       choices=choices,
                       metavar=None if choices else flag[2:].replace("-", "_").upper(),
                       help=f"{f.metadata['help']} (default: "
                            f"{'the checkpoint' if saved else '%(default)s'})")
    p.add_argument("--out", default="runs",
                   help="output directory")
    p.add_argument("--config", help="JSON or key=value file; flags override it")
    p.add_argument("--limit-train", type=_positive_int,
                   help="truncate the training split (smoke runs)")
    p.add_argument("--limit-test", type=_positive_int,
                   help="truncate the test split (smoke runs)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sensecomm",
        description="Joint sensing and task-oriented communications simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train one model and report metrics")
    p_eval = sub.add_parser("eval", help="evaluate a saved checkpoint")
    _add_common_flags(p_train)
    _add_common_flags(p_eval, from_checkpoint=("n_c", "mode"))
    # the files each command writes in --out, in the order it writes them
    p_train.set_defaults(run=_cmd_train, parser=p_train,
                         outputs=("checkpoint.bin", "metrics.json", "metrics.csv"))
    p_eval.add_argument("--checkpoint",
                        help="checkpoint file written by train (required)")
    p_eval.set_defaults(run=_cmd_eval, parser=p_eval,
                        outputs=("metrics.json", "metrics.csv"))

    for name, sweep in SWEEPS.items():
        p_sweep = sub.add_parser(f"sweep-{name.replace('_', '-')}",
                                 help=f"sweep {sweep.param_name} over --points")
        _add_common_flags(p_sweep)
        p_sweep.add_argument(
            "--points",
            help=f"comma-separated {sweep.point_type.__name__} points "
                 f"(default: {','.join(map(str, sweep.points))})")
        p_sweep.set_defaults(run=_cmd_sweep, parser=p_sweep, sweep=name,
                             outputs=(f"sweep_{sweep.stem}.json",
                                      f"sweep_{sweep.stem}.csv"))

    p_check = sub.add_parser("gradcheck",
                             help="finite-difference checks per layer and end to end")
    p_check.set_defaults(run=_cmd_gradcheck, parser=p_check)

    return parser


def _config_tokens(path: str) -> list[str]:
    """A config file's entries as ``--key=value`` flags."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError:
        raw = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            raw[key.strip()] = value.strip()
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a JSON object or key=value lines")
    tokens = []
    for key, value in raw.items():
        if key == "config" or not key.isidentifier():
            raise ConfigError(f"unknown config key {key!r}")
        # a JSON number is spelled as on the command line; true is not 1
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise ConfigError(f"config key {key!r}: {value!r} is not a string "
                              "or number")
        if "\0" in str(value):  # no path or command-line argument holds one
            raise ConfigError(f"config key {key!r}: {value!r} holds a NUL byte")
        tokens.append(f"--{key.replace('_', '-')}={value}")
    return tokens


def parse_args(argv=None) -> argparse.Namespace:
    """Parse the command line and validate it. A config file's entries are
    parsed as flags placed before the command line's, so those win. An
    experiment subcommand gets its config as ``args.cfg``. Bad input exits
    2 with one ``error:`` line before any data is read."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "gradcheck":
        return args
    try:
        if args.config:
            args = parser.parse_args(
                [args.command, *_config_tokens(args.config), *argv[1:]])
        args.cfg = ExperimentConfig(**{
            f.name: getattr(args, f.name) for f in fields(ExperimentConfig)
            if getattr(args, f.name) is not None})
    except (ConfigError, OSError, UnicodeDecodeError) as exc:
        parser.error(str(exc))
    return args


def _require(args, name: str):
    if getattr(args, name) is None:
        args.parser.error(f"--{name.replace('_', '-')} (or config key {name}) "
                          "is required")


def _load_data(args):
    """The corpus with the limits applied, and the paths of the command's
    output files. The corpus loads, which checks its six files and reads
    their labels, before ``--out`` is made and found writable, so a
    corpus that is missing or corrupt leaves no directory behind, nor
    does an ``--out`` that cannot be made. No pixel is read here: each
    batch reads its own records, and ``eval`` reads no training sample."""
    _require(args, "data_dir")
    if not os.path.isdir(args.data_dir):
        args.parser.error(f"data directory not found: {args.data_dir}")
    dataset = load_cifar10(args.data_dir)
    outputs = [os.path.join(args.out, name) for name in args.outputs]
    for path in outputs:
        if os.path.isdir(path):
            args.parser.error(f"--out: {path} is a directory")
    missing, head = [], args.out  # --out's absent directories, deepest first
    while head and not os.path.lexists(head):
        missing.append(head)
        head = os.path.dirname(head)
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        for path in missing:  # those that makedirs made before it failed
            with suppress(OSError):
                os.rmdir(path)
        args.parser.error(f"--out: {exc}")
    if not os.access(args.out, os.W_OK | os.X_OK):
        args.parser.error(f"--out: {args.out} is not writable")
    dataset.train = dataset.train.subset(args.limit_train)
    dataset.test = dataset.test.subset(args.limit_test)
    return dataset, outputs


def _parse_points(raw: str | None, sweep: harness.Sweep) -> list:
    if raw is None:
        return list(sweep.points)
    try:
        points = [sweep.point_type(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --points value: {exc}") from None
    if not points:
        raise ConfigError(f"--points {raw!r} lists no points")
    return points


def _cmd_train(args) -> int:
    cfg = args.cfg
    dataset, (ckpt, json_report, csv_report) = _load_data(args)
    started = time.monotonic()
    pipeline, result = run_experiment(cfg, dataset, log_fn=print)
    runtime = time.monotonic() - started
    save_checkpoint(pipeline, ckpt, seed=cfg.seed)
    emit_report(result, json_report, csv_report)
    print(summary_line(result["metrics"], runtime))
    print(f"wrote {ckpt}, {json_report} and {csv_report}")
    return 0


def _cmd_eval(args) -> int:
    _require(args, "checkpoint")
    pipeline, header = load_checkpoint(args.checkpoint, args.cfg.np_dtype)
    for name, flag in (("n_c", "--output-size"), ("mode", "--mode")):
        given, saved = getattr(args, name), getattr(pipeline.cfg, name)
        if given is not None and given != saved:
            args.parser.error(f"{flag} {given} differs from the checkpoint's {saved}")
    cfg = replace(args.cfg, n_c=pipeline.cfg.n_c, mode=pipeline.cfg.mode)
    dataset, reports = _load_data(args)
    started = time.monotonic()
    metrics = evaluate(pipeline, dataset.test, cfg)
    runtime = time.monotonic() - started
    result = {"config": asdict(cfg), "metrics": asdict(metrics),
              "checkpoint": {"path": args.checkpoint, "seed": header.get("seed")},
              "seeds": {"eval": cfg.eval_seed}}
    emit_report(result, *reports)
    print(summary_line(result["metrics"], runtime))
    return 0


def _cmd_sweep(args) -> int:
    sweep = SWEEPS[args.sweep]
    points = _parse_points(args.points, sweep)
    sweep.configs(args.cfg, points)  # a bad point fails before the corpus loads
    dataset, (json_report, csv_report) = _load_data(args)
    started = time.monotonic()
    result = run_sweep(args.sweep, points, args.cfg, dataset, log_fn=print)
    runtime = time.monotonic() - started
    emit_report(result, json_report, csv_report)
    print(f"{len(points)} points  joint={['%.4f' % a for a in result.joint_accuracy]}  "
          f"sensing={['%.4f' % a for a in result.sensing_accuracy]}  "
          f"runtime={runtime:.1f}s")
    print(f"wrote {json_report} and {csv_report}")
    return 0


def _cmd_gradcheck(args) -> int:
    reports = run_gradient_checks()
    failed = False
    for name, report in reports:
        status = "PASS" if report.passed else "FAIL"
        print(f"{name:32s} max_rel_err={report.max_rel_error:.3e}  {status}")
        failed = failed or not report.passed
    return 1 if failed else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return args.run(args)
    except (ConfigError, CorruptDatasetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
