"""Command-line interface.

Subcommands: synth, train, eval, gradcheck, inspect-lcm.  Exit codes:
0 success, 1 configuration or command-usage error, 2 data error, 3 numeric error.
"""

import argparse
import inspect
import json
import sys
from pathlib import Path

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
from .embeddings import embed_labels, load_vocabulary, parse_embedding_file
from .episodes import load_manifest, make_synthetic
from .errors import ConfigError, DataError, NumericError
from .joint_space import project_labels
from .lcm import select_cells
from .metrics import EVAL_MODES, evaluate
from .model import FeatureStore, atomic_open, init_model, load_checkpoint, save_checkpoint
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
    path key set, the loaded vocabulary, manifest and embedding table, the
    run's one FeatureStore (every map and the channel count are read through
    it, so each file is read at most once) and the created output directory."""
    cfg = _config_from_args(args)
    for name in PATH_KEYS:
        if getattr(cfg, name) is None:
            raise ConfigError(f"{name} path is required (flag --{name} or config key)")
    vocabulary = load_vocabulary(cfg.splits)
    manifest = load_manifest(cfg.manifest, vocabulary=vocabulary)
    table = parse_embedding_file(cfg.embeddings)
    out_dir = Path(cfg.output)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as bad:
        raise DataError(f"output directory {out_dir} cannot be created: {bad.strerror}") from bad
    return cfg, vocabulary, manifest, table, FeatureStore(manifest), out_dir


def _load_model(cfg, store, table):
    """Load the checkpoint; check that its projections take the widths of
    the run's maps and word vectors, and that it has the config's sizes."""
    model, extras = load_checkpoint(cfg.checkpoint)
    for name, tensor, width, what in (
            ("joint.visual", model.joint.visual, store.shape[0], "feature channels"),
            ("joint.text", model.joint.text, table.dimension, "embedding dimensions")):
        if tensor.shape[1] != width:
            raise DataError(f"checkpoint {cfg.checkpoint}: {name} takes {tensor.shape[1]} "
                            f"{what}, but the data has {width}")
    for name, value in (("d_j", model.joint.visual.shape[0]), ("n_heads", model.attention.heads),
                        ("d_c", model.dynconv.inner_dim), ("n_d", model.dynconv.top_count),
                        ("lambda_", model.joint.scale), ("dropout", model.attention.dropout)):
        if value != getattr(cfg, name):
            key = name.rstrip("_")
            raise ConfigError(f"checkpoint {cfg.checkpoint} has {key} {value}, but the run "
                              f"config has {key} {getattr(cfg, name)}")
    return model, extras


def _write_json(path, payload):
    with atomic_open(path, "w") as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")


def cmd_synth(args) -> int:
    # the flags are make_synthetic's keywords; one not given keeps its default there
    options = {key: value for key, value in vars(args).items()
               if key not in ("command", "func", "out") and value is not None}
    if "grid" in options:
        options["grid"] = (options["grid"], options["grid"])
    data = make_synthetic(args.out, **options)
    print(f"manifest:   {data.manifest_path}")
    print(f"splits:     {data.splits_path}")
    print(f"embeddings: {data.embeddings_path}")
    print(f"cell truth: {data.cells_path}")
    return 0


def cmd_train(args) -> int:
    cfg, vocabulary, manifest, table, store, out_dir = _prepare(args)
    # the checkpoint is written after the last epoch: refuse a path it cannot take first
    if not Path(cfg.checkpoint).parent.is_dir():
        raise DataError(f"checkpoint {cfg.checkpoint}: its directory does not exist")
    if Path(cfg.checkpoint).is_dir():
        raise DataError(f"checkpoint {cfg.checkpoint} is a directory, not a file")

    if args.resume:
        model, extras = _load_model(cfg, store, table)
    else:
        model = init_model(
            channels=store.shape[0], embed_dim=table.dimension,
            joint_dim=cfg.d_j, heads=cfg.n_heads, dynconv_inner=cfg.d_c,
            dynconv_top=cfg.n_d, scale=cfg.lambda_, dropout=cfg.dropout,
            rng=seeding.substream(cfg.seed, "init"))
    optimizer = Adam(model.named_parameters(), cfg.lr)
    if args.resume:
        optimizer.load_state_tensors(extras)

    log_path = out_dir / "training_log.csv"
    result = train(model, manifest, vocabulary, table, cfg.train_settings(),
                   store=store, optimizer=optimizer, log_path=log_path)
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
    cfg, vocabulary, manifest, table, store, out_dir = _prepare(args)
    model, _ = _load_model(cfg, store, table)
    report, _ = evaluate(
        model, manifest, vocabulary, table, split=args.split,
        episodes=cfg.eval_episodes, k_shot=cfg.k_shot, seed=cfg.seed,
        mode=args.mode, theta=cfg.theta, lcm_config=cfg.lcm_config(), store=store,
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

    results = verification.run_suite()
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
    cfg, vocabulary, manifest, table, store, out_dir = _prepare(args)
    model, _ = _load_model(cfg, store, table)

    record = manifest.record_for(args.image)
    split = vocabulary.split_of(record.labels[0])
    labels = list(vocabulary.labels_for(split))
    targets = [1.0 if label in record.labels else 0.0 for label in labels]
    label_joints = project_labels(
        model.joint, embed_labels(table, labels, normalize=cfg.normalize_embeddings)).data
    selection = select_cells(model.joint, store.get(args.image)[None], [targets], label_joints,
                             cfg.lcm_config(), trained=model.trained)

    paths = {}
    for name, grid, form in (("importance", selection.importance[0], "{:.6f}"),
                             ("sigma", selection.sigma[0], "{:.6f}"),
                             ("mask", selection.mask[0].astype(int), "{}")):
        paths[name] = out_dir / f"{name}_{args.image}.txt"
        with atomic_open(paths[name], "w") as handle:
            for row in grid:
                handle.write(" ".join(form.format(v) for v in row) + "\n")
    kept = int(selection.mask.sum())
    fallback = " (no cell cleared theta; fell back to keep-all)" if selection.fell_back[0] else ""
    print(f"image {args.image} ({split}): kept {kept}/{selection.mask.size} cells "
          f"at theta={cfg.theta}{fallback}")
    for name, path in paths.items():
        print(f"{name + ':':<12}{path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlfewshot",
        description="Multi-label few-shot classification over a joint "
                    "visual/word-embedding space.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a planted-signal synthetic dataset")
    p.add_argument("--out", required=True, help="output directory")
    # one flag per make_synthetic keyword, typed by its default; --grid gives both sides
    for name, param in inspect.signature(make_synthetic).parameters.items():
        if param.kind is inspect.Parameter.KEYWORD_ONLY:
            grid = name == "grid"
            kind = int if grid else type(param.default)
            p.add_argument("--" + name.replace("_", "-"), type=kind,
                           help="grid side length" if grid else None)
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
        # argparse has printed its usage error (code 2) or the help (code 0)
        return 1 if leave.code else 0
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
