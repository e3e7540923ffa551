"""Operator surface: dataset generation, training, evaluation, gradient
verification, and standalone metric runs.

Exit codes: 0 success, 1 usage error, 2 data error, 3 check failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CHECK = 3


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


def _dataset_hash(data_dir) -> str:
    manifest = os.path.join(data_dir, "manifest.txt")
    if not os.path.exists(manifest):
        raise DataError(f"{data_dir}: missing dataset manifest")
    with open(manifest) as fh:
        header = fh.readline()
    for tok in header.replace("#", "").split():
        if tok.startswith("hash="):
            return tok[len("hash="):]
    raise DataError(f"{data_dir}: manifest has no hash")


def cmd_gen(args) -> int:
    from .synthdata import CorruptionSpec, SceneSpec, export_dataset, make_dataset

    out = args.out
    if os.path.isdir(out) and os.listdir(out) and not args.force:
        raise DataError(f"{out} exists and is not empty (use --force)")
    if args.n < 1:
        raise UsageError("--n must be at least 1")
    try:
        spec = SceneSpec(height=args.height, width=args.width,
                         num_classes=args.classes, seed=args.seed)
        cspec = CorruptionSpec(erode_px=args.erode_px, dilate_px=args.dilate_px,
                               blob_smooth_iters=args.blob_smooth_iters,
                               drop_thin_prob=args.drop_thin_prob,
                               flip_prob=args.flip_prob)
    except ValueError as exc:
        raise UsageError(exc) from exc
    samples = make_dataset(args.n, spec, cspec, q_percent=args.q_start)
    ds_hash = export_dataset(out, samples)
    fg = [float((s.gt > 0).mean()) for s in samples]
    print(f"wrote {len(samples)} scenes to {out}")
    print(f"dataset hash: {ds_hash}")
    print(f"mean foreground fraction: {np.mean(fg):.4f}")
    return EXIT_OK


def cmd_train(args) -> int:
    from . import __version__
    from .loop import TrainConfig, TrainingDiverged, parse_config, train
    from .model import ModelConfig, SegModel
    from .synthdata import load_dataset

    try:
        cfg = TrainConfig(seed=args.seed, epochs=args.epochs,
                          batch_size=args.batch_size, lr_decoder=args.lr)
    except ValueError as exc:
        raise UsageError(exc) from exc
    if args.config:
        cfg = parse_config(args.config, base=cfg)  # config file wins over flags

    try:
        model_cfg = ModelConfig(
            seed=cfg.seed,
            dtype=args.dtype,
            use_dmf=not args.no_dmf,
            use_var=not args.no_ugr,
            use_ugr=not args.no_ugr,
            use_bnd=not args.no_bnd,
            use_udmf=not args.no_udmf,
            use_ema=not args.no_ema,
        )
    except ValueError as exc:  # e.g. --no-ugr or --no-dmf without --no-udmf
        raise UsageError(exc) from exc
    data = load_dataset(args.data)
    if not data:
        raise DataError(f"{args.data}: empty dataset")
    ds_hash = _dataset_hash(args.data)

    os.makedirs(args.out, exist_ok=True)
    ckpt_dir = os.path.join(args.out, "checkpoint")
    log_path = os.path.join(args.out, "train_log.csv")
    with open(os.path.join(args.out, "run_manifest.txt"), "w") as fh:
        fh.write(f"version={__version__}\n")
        fh.write(f"dataset={args.data}\n")
        fh.write(f"dataset_hash={ds_hash}\n")
        fh.write(f"components={model_cfg.flags_line()}\n")
        for key, val in vars(cfg).items():
            fh.write(f"train.{key}={val}\n")
        for key, val in vars(model_cfg).items():
            fh.write(f"model.{key}={val}\n")
        fh.write(f"checkpoint={ckpt_dir}\nlog={log_path}\n")

    model = SegModel(model_cfg)
    try:
        train(cfg, data, model, log_path=log_path, checkpoint_dir=ckpt_dir)
    except TrainingDiverged as exc:
        print(exc, file=sys.stderr)
        return EXIT_CHECK
    print(f"checkpoint written to {ckpt_dir}")
    return EXIT_OK


def cmd_eval(args) -> int:
    from .fileio import write_ctsr
    from .metrics import score, write_csv
    from .model import SegModel
    from .synthdata import load_dataset

    model = SegModel.from_checkpoint(args.checkpoint)
    data = load_dataset(args.data)
    if not data:
        raise DataError(f"{args.data}: empty dataset")
    k = model.cfg.num_classes
    if int(max(s.gt.max() for s in data)) >= k:
        raise DataError("dataset classes exceed checkpoint class count")
    if args.dump_confidence:
        os.makedirs(args.dump_confidence, exist_ok=True)

    rows = []
    for i, s in enumerate(data):
        pred, conf = model.predict(s.image)
        name = f"{i:05d}"
        rows.append((name, score(pred[0], s.gt, k, conf[0])))
        if args.dump_confidence:
            write_ctsr(os.path.join(args.dump_confidence, f"{name}.ctsr"), conf[0])

    agg = write_csv(args.out, rows)
    print(f"wrote {args.out} ({len(rows)} images, mean miou {agg['miou']:.4f})")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    from .gradcheck import REL_TOL, run_all

    results = run_all(seed=args.seed)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: max rel err {r.max_rel_err:.3e}")
        failed += not r.passed
    print(f"{len(results) - failed}/{len(results)} checks passed (tol {REL_TOL})")
    return EXIT_OK if failed == 0 else EXIT_CHECK


def cmd_metrics(args) -> int:
    from .metrics import evaluate, write_csv

    rows, errors = evaluate(args.pred, args.gt, args.classes,
                            band_px=args.band, conf_dir=args.conf)
    write_csv(args.out, rows)
    for name, msg in errors:
        print(f"error: {name}: {msg}", file=sys.stderr)
    if not rows and not errors:
        print("no mask pairs found", file=sys.stderr)
        return EXIT_DATA
    return EXIT_DATA if errors else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crispdec", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic benchmark dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--height", type=int, default=64)
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--q-start", type=float, default=30.0)
    p.add_argument("--erode-px", type=int, default=2)
    p.add_argument("--dilate-px", type=int, default=2)
    p.add_argument("--blob-smooth-iters", type=int, default=2)
    p.add_argument("--drop-thin-prob", type=float, default=0.5)
    p.add_argument("--flip-prob", type=float, default=0.02)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train on a generated dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="key=value file; overrides flags")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--lr", type=float, default=6e-5)
    p.add_argument("--dtype", choices=("float32", "float64"), default="float64")
    p.add_argument("--no-dmf", action="store_true")
    p.add_argument("--no-ugr", action="store_true")
    p.add_argument("--no-bnd", action="store_true")
    p.add_argument("--no-udmf", action="store_true")
    p.add_argument("--no-ema", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="single-pass evaluation of a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dump-confidence")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("metrics", help="score prediction masks against ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--band", type=int, default=2)
    p.add_argument("--conf", help="directory of CTSR confidence maps for ECE")
    p.set_defaults(func=cmd_metrics)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
