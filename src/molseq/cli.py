"""Command-line entry points.

Subcommands: gen-data, train, eval, strategy, sweep, gradcheck, tokenize,
canonicalize.  Training and evaluation operate on dataset directories
(manifest.csv + frames/) and flat key=value config files.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import data, files
from . import train as tr
from .errors import ConfigError, DegenerateBatch, LabelOutOfRange, ShapeMismatch
from .smiles import SmilesError, canonical_smiles, tokenize
from .train import GRAD_TOLERANCE, TrainConfig, gradient_check_suite


def _load_split(dataset_dir, config: TrainConfig) -> data.DatasetSplit:
    samples = data.load_manifest(dataset_dir)
    return data.prepare_split(samples, ratio=config.split_ratio, seed=config.seed,
                              drug_disjoint=config.drug_disjoint_split)


def _cmd_gen_data(args) -> int:
    spec = files.read_config(args.spec, data.SyntheticSpec)
    samples = data.generate_synthetic(spec)
    data.write_dataset(samples, args.out)
    print(f"wrote {len(samples)} samples ({spec.num_drugs} drugs, {spec.num_moas} MoAs) to {args.out}")
    return 0


def _cmd_train(args) -> int:
    config = files.read_config(args.config, TrainConfig)
    split = _load_split(args.data, config)
    init = files.load_checkpoint(args.init) if args.init else None
    try:
        result = tr.run_stage(config, split, init=init, out_dir=args.out)
    except DegenerateBatch as exc:  # only a one-class PK layout, P = 1, leaves an anchor without a negative
        raise DegenerateBatch(f"batch_p={config.batch_p}: {exc} ({args.config})") from None
    except ShapeMismatch as exc:  # the stage's widths, from the config and the data, differ from ``--init``'s
        if not exc.op.startswith("load_parameters["):
            raise
        name, (want, got) = exc.op[len("load_parameters["):-1], exc.shapes
        message = f"{args.init}: param/{name}: shape {got}, the stage's model registers {want} ({args.config})"
        raise ValueError(message) from None
    final = result.final
    print(
        f"stage={config.stage} epochs={config.epochs} "
        f"accuracy={final['accuracy']:.4f} rank1={final['rank1']:.4f} map={final['map']:.4f}"
    )
    return 0


def _cmd_eval(args) -> int:
    ckpt = files.load_checkpoint(args.ckpt)
    try:
        config = files.config_from_json(TrainConfig, ckpt.extra_config)
    except ConfigError as exc:
        raise ConfigError(f"{args.ckpt}: extra_config: {exc}") from None
    split = _load_split(args.data, config)
    row, result = tr.evaluate(ckpt.build_model(), tr.eval_set(split, config.label_kind, config.seed))
    print(files.csv_text(tr.METRIC_COLUMNS, [row]), end="")
    cmc_path = Path(args.cmc_out) if args.cmc_out else Path(args.ckpt).with_name("cmc.csv")
    cmc_rows = [{"rank": k + 1, "cmc": v} for k, v in enumerate(result.cmc)]
    files.replace_with(cmc_path, lambda tmp: tmp.write_text(files.csv_text(("rank", "cmc"), cmc_rows)))
    print(f"cmc written to {cmc_path}")
    return 0


def _cmd_strategy(args) -> int:
    config = files.read_config(args.config, TrainConfig) if args.config else TrainConfig()
    if args.epochs is not None:
        config.epochs = args.epochs
    split = _load_split(args.data, config)
    report, _ = tr.run_strategy(args.id, split, config, out_dir=args.out)
    print(files.csv_text(("strategy", "rank1", "map", "accuracy"), [report]), end="")
    return 0


def _weight_list(text: str) -> list[float]:
    """``--weights`` as floats; a bad item is named with its position."""
    weights = []
    for i, item in enumerate(text.split(","), start=1):
        try:
            weights.append(float(item))
        except ValueError:
            raise ValueError(f"--weights: item {i} ({item!r}) is not a number") from None
    return weights


def _cmd_sweep(args) -> int:
    config = files.read_config(args.config, TrainConfig) if args.config else TrainConfig()
    weights = _weight_list(args.weights) if args.weights is not None else tr.DEFAULT_SWEEP_WEIGHTS
    split = _load_split(args.data, config)
    rows = tr.sweep_center_weight(config, weights, split, out_dir=args.out)
    print(files.csv_text(tr.SWEEP_COLUMNS, rows), end="")
    return 0


def _cmd_gradcheck(args) -> int:
    checks = gradient_check_suite()
    failed = False
    for name, err in checks:
        ok = err <= GRAD_TOLERANCE
        failed |= not ok
        print(f"{name:20s} max_rel_err={err:.3e} {'PASS' if ok else 'FAIL'}")
    return 1 if failed else 0


def _cmd_linewise(args, transform) -> int:
    lines = files.read_lines(args.file) if args.file else files.iter_lines(sys.stdin.buffer, "<stdin>")
    for lineno, line in enumerate(lines, start=1):
        try:
            print(transform(line))
        except SmilesError as exc:
            if args.skip_invalid:
                print("")
                continue
            print(f"line {lineno}: {exc}", file=sys.stderr)
            return 1
    return 0


def _cmd_tokenize(args) -> int:
    return _cmd_linewise(args, lambda s: " ".join(tokenize(s)))


def _cmd_canonicalize(args) -> int:
    return _cmd_linewise(args, canonical_smiles)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="molseq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset directory")
    p.add_argument("--spec", required=True, help="key=value synthetic spec file")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.set_defaults(fn=_cmd_gen_data)

    p = sub.add_parser("train", help="run one training stage")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--init", default=None, help="checkpoint to initialize from")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--cmc-out", default=None)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("strategy", help="run a pretraining strategy (S1/S2/S3)")
    p.add_argument("--id", required=True, choices=list(tr.STRATEGIES))
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_strategy)

    p = sub.add_parser("sweep", help="sweep the center-loss weight")
    p.add_argument("--config", default=None)
    p.add_argument("--weights", default=None, help="comma-separated weights")
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("gradcheck", help="run the finite-difference gradient suite")
    p.set_defaults(fn=_cmd_gradcheck)

    for name, fn in (("tokenize", _cmd_tokenize), ("canonicalize", _cmd_canonicalize)):
        p = sub.add_parser(name, help=f"{name} SMILES, one per line")
        p.add_argument("file", nargs="?", default=None, help="input file (default: stdin)")
        p.add_argument("--skip-invalid", action="store_true", help="emit blank lines for failures")
        p.set_defaults(fn=fn)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, ArithmeticError, LabelOutOfRange) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
