"""Command-line interface.

Subcommands: synth, train, eval, gradcheck, inspect-lcm.  Exit codes:
0 success, 1 configuration error, 2 data error, 3 numeric error.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import seeding
from .config import (
    NUMERIC_KEYS,
    PATH_KEYS,
    RunConfig,
    build_config,
    canonical_dict,
    parse_config_file,
    run_id,
)
from .embeddings import embed_label, load_vocabulary, parse_embedding_file
from .episodes import load_manifest, make_synthetic
from .errors import ConfigError, DataError, NumericError
from .features import load_feature_file
from .lcm import (
    fit_importance,
    select_features,
    sigma_grid,
    write_importance_grid,
    write_selection_mask,
)
from .metrics import EVAL_MODES, evaluate
from .model import atomic_open, init_model, load_checkpoint, save_checkpoint
from .optim import Adam
from .training import train

_CONFIG_KEYS = (*NUMERIC_KEYS, *PATH_KEYS)


def _add_config_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--config", default=None, help="path to a 'key = value' config file")
    for key in _CONFIG_KEYS:
        parser.add_argument(f"--{key}", dest=f"cfg_{key}", default=None, metavar="V",
                            help=f"override config key {key}")


def _config_from_args(args) -> RunConfig:
    file_values = parse_config_file(args.config) if args.config else {}
    overrides = {}
    for key in _CONFIG_KEYS:
        value = getattr(args, f"cfg_{key}")
        if value is not None:
            overrides[key] = value
    return build_config(file_values, overrides)


def _prepare(args):
    """What train, eval and inspect-lcm share: the run config with every
    path key set, the loaded vocabulary, manifest and embedding table, and
    the created output directory."""
    cfg = _config_from_args(args)
    for name in PATH_KEYS:
        if getattr(cfg, name) is None:
            raise ConfigError(f"{name} path is required (flag --{name} or config key)")
    vocabulary = load_vocabulary(cfg.splits)
    manifest = load_manifest(cfg.manifest, vocabulary=vocabulary)
    table = parse_embedding_file(cfg.embeddings)
    out_dir = Path(cfg.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    return cfg, vocabulary, manifest, table, out_dir


def _channels(manifest) -> int:
    """The channel count of the manifest's feature maps, read from its first."""
    return load_feature_file(manifest.feature_path(0)).shape[0]


def _load_model(cfg, manifest, table):
    """Load the checkpoint and check that its two projections take the
    widths of this run's feature maps and word vectors."""
    model, extras = load_checkpoint(cfg.checkpoint)
    for name, tensor, width, what in (
            ("joint.visual", model.joint.visual, _channels(manifest), "feature channels"),
            ("joint.text", model.joint.text, table.dimension, "embedding dimensions")):
        if tensor.shape[1] != width:
            raise DataError(f"checkpoint {cfg.checkpoint}: {name} takes {tensor.shape[1]} "
                            f"{what}, but the data has {width}")
    return model, extras


def _write_json(path, payload):
    with atomic_open(path, "w") as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")


def cmd_synth(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data = make_synthetic(
        out,
        n_base=args.n_base, n_validation=args.n_validation, n_novel=args.n_novel,
        images_per_label=args.images_per_label, grid=(args.grid, args.grid),
        channels=args.channels, embed_dim=args.embed_dim,
        signal_fraction=args.signal_fraction, signal_noise=args.signal_noise,
        background_scale=args.background_scale, extra_label_prob=args.extra_label_prob,
        seed=args.seed)
    print(f"manifest:   {data.manifest_path}")
    print(f"splits:     {data.splits_path}")
    print(f"embeddings: {data.embeddings_path}")
    print(f"cell truth: {data.cells_path}")
    return 0


def cmd_train(args) -> int:
    cfg, vocabulary, manifest, table, out_dir = _prepare(args)

    extras = {}
    if args.resume:
        model, extras = _load_model(cfg, manifest, table)
    else:
        model = init_model(
            channels=_channels(manifest), embed_dim=table.dimension,
            joint_dim=cfg.d_j, heads=cfg.n_heads, dynconv_inner=cfg.d_c,
            dynconv_top=cfg.n_d, scale=cfg.lambda_, dropout=cfg.dropout,
            rng=seeding.substream(cfg.seed, "init"))
    optimizer = Adam(model.named_parameters(), cfg.lr)
    if any(k.startswith("optim.") for k in extras):
        optimizer.load_state_tensors(extras)

    log_path = out_dir / "training_log.csv"
    result = train(model, manifest, vocabulary, table, cfg.train_settings(),
                   optimizer=optimizer, log_path=log_path)
    save_checkpoint(cfg.checkpoint, model, optimizer=optimizer,
                    config_scalars=canonical_dict(cfg))
    identifier = run_id(cfg)
    _write_json(out_dir / "run_manifest.json", {
        "run_id": identifier,
        "config": canonical_dict(cfg),
        "checkpoint": str(cfg.checkpoint),
        "training_log": str(log_path),
        "epochs_completed": model.epoch,
    })
    last = result.rows[-1] if result.rows else None
    if last is not None:
        print(f"trained to epoch {model.epoch}: total_loss={last.total_loss:.6f} "
              f"(cm={last.cm_loss:.6f}, query={last.query_loss:.6f})")
    else:
        print(f"nothing to do: model already at epoch {model.epoch}")
    print(f"checkpoint: {cfg.checkpoint}")
    print(f"run id:     {identifier}")
    return 0


def cmd_eval(args) -> int:
    cfg, vocabulary, manifest, table, out_dir = _prepare(args)
    model, _ = _load_model(cfg, manifest, table)
    report, _ = evaluate(
        model, manifest, vocabulary, table, split=args.split,
        episodes=cfg.eval_episodes, k_shot=cfg.k_shot, seed=cfg.seed,
        mode=args.mode, theta=cfg.theta, lcm_config=cfg.lcm_config(),
        normalize_embeddings=cfg.normalize_embeddings, threads=cfg.threads)
    report_path = out_dir / f"report_{args.mode}.json"
    _write_json(report_path, {
        "report": report.to_dict(),
        "config": canonical_dict(cfg),
        "run_id": run_id(cfg),
    })
    print(f"mode={args.mode} split={args.split} episodes={report.episodes}")
    print(f"micro_ap={report.micro_ap:.6f} macro_ap={report.macro_ap:.6f} "
          f"micro_f1={report.micro_f1:.6f} macro_f1={report.macro_f1:.6f}")
    print(f"report: {report_path}")
    return 0


def cmd_gradcheck(args) -> int:
    from . import verification

    results = verification.run_suite(include_model=not args.skip_model)
    width = max(len(r.name) for r in results)
    failed = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  max_error={r.max_error:.3e}  "
              f"tolerance={r.tolerance:.1e}  {status}")
        if not r.passed:
            failed.append(r.name)
    if failed:
        raise NumericError(f"gradient check failed for: {', '.join(failed)}")
    print(f"all {len(results)} gradient checks passed")
    return 0


def cmd_inspect_lcm(args) -> int:
    cfg, vocabulary, manifest, table, out_dir = _prepare(args)
    model, _ = _load_model(cfg, manifest, table)

    record = manifest.record_for(args.image)
    split = vocabulary.split_of(record.labels[0])
    labels = list(vocabulary.labels_for(split))
    targets = [1.0 if label in record.labels else 0.0 for label in labels]
    embed_matrix = np.stack([
        embed_label(table, label, normalize=cfg.normalize_embeddings) for label in labels
    ])
    fmap = load_feature_file(manifest.feature_path(manifest.by_id[args.image]))
    state = fit_importance(model.joint, fmap[None], np.asarray([targets]), embed_matrix,
                           cfg.lcm_config(), trained=model.trained)
    (importance,), (sigma,) = state.importance, sigma_grid(state)
    (mask,), (fell_back,) = select_features(state, cfg.theta)

    importance_path = out_dir / f"importance_{args.image}.txt"
    sigma_path = out_dir / f"sigma_{args.image}.txt"
    mask_path = out_dir / f"mask_{args.image}.txt"
    write_importance_grid(importance_path, importance)
    write_importance_grid(sigma_path, sigma)
    write_selection_mask(mask_path, mask)
    kept = int(mask.sum())
    fallback = " (no cell cleared theta; fell back to keep-all)" if fell_back else ""
    print(f"image {args.image} ({split}): kept {kept}/{mask.size} cells "
          f"at theta={cfg.theta}{fallback}")
    print(f"importance: {importance_path}")
    print(f"sigma:      {sigma_path}")
    print(f"mask:       {mask_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlfewshot",
        description="Multi-label few-shot classification over a joint "
                    "visual/word-embedding space.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a planted-signal synthetic dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-base", type=int, default=8)
    p.add_argument("--n-validation", type=int, default=0)
    p.add_argument("--n-novel", type=int, default=4)
    p.add_argument("--images-per-label", type=int, default=40)
    p.add_argument("--grid", type=int, default=6, help="grid side length")
    p.add_argument("--channels", type=int, default=32)
    p.add_argument("--embed-dim", type=int, default=16)
    p.add_argument("--signal-fraction", type=float, default=0.5)
    p.add_argument("--signal-noise", type=float, default=0.3)
    p.add_argument("--background-scale", type=float, default=1.0)
    p.add_argument("--extra-label-prob", type=float, default=0.5)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="episodic training on the base split")
    _add_config_flags(p)
    p.add_argument("--resume", action="store_true",
                   help="continue from the existing checkpoint")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint over seeded episodes")
    _add_config_flags(p)
    p.add_argument("--mode", choices=EVAL_MODES, default="base")
    p.add_argument("--split", default="novel")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--skip-model", action="store_true",
                   help="skip the whole-model composite check")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("inspect-lcm", help="fit and dump one image's importance grids")
    _add_config_flags(p)
    p.add_argument("--image", required=True, help="image id from the manifest")
    p.set_defaults(func=cmd_inspect_lcm)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as leave:
        return int(leave.code or 0)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except DataError as err:
        print(f"data error: {err}", file=sys.stderr)
        return 2
    except NumericError as err:
        print(f"numeric error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
