"""The benchmark's inputs and its set-up phase.

The inputs are generated, never stored in the repository: the noisy
planted-signal bundle of ``tests/test_acceptance.py`` (``NOISY_KNOBS``) from
``make_synthetic``, and the checkpoint that the program itself trains on it.
Run this file as a script to build them, in a process of their own so that
their time and memory stay out of the workload's figures:

    python3 bench/fixture.py --out DIR

Only the standard library is imported at module level: a set-up probe
imports this module first and then times ``import mlfewshot.cli`` cold.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = HERE / ".cache"

# NOISY_KNOBS of tests/test_acceptance.py with the bundle shape it uses
BUNDLE = dict(n_base=8, n_novel=4, images_per_label=40, grid=(6, 6), channels=32,
              embed_dim=8, seed=11, signal_fraction=0.5, signal_noise=0.4,
              background_scale=0.15, extra_label_prob=1.0)
# training seed of the evaluation checkpoint (TRAIN_SEED there)
CHECKPOINT_SEED = 11
FIXTURE_TIMEOUT_S = 800


def source_digest() -> str:
    """SHA-256 over the program's sources and this file; it names the fixture
    cache and identifies the program in a checkout that is not a git
    repository."""
    digest = hashlib.sha256()
    files = sorted((SRC / "mlfewshot").rglob("*.py")) + [HERE / "fixture.py"]
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def fixture_dir() -> Path:
    return CACHE / f"fixture-{source_digest()[:16]}"


def ensure_fixture() -> Path:
    """Build the bundle and the evaluation checkpoint once per program version."""
    target = fixture_dir()
    if not (target / "model.ckpt").is_file():
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--out", str(target)],
                       check=True, timeout=FIXTURE_TIMEOUT_S, stdout=sys.stderr)
    return target


def desk_config(seed: int, **overrides):
    """The desk config, ``RunConfig()`` defaults, under the given seed."""
    from mlfewshot.config import RunConfig

    return RunConfig(seed=seed, **overrides).validate()


def build_model(inputs, cfg):
    """Seeded initial model, as ``mlfewshot train`` builds it."""
    from mlfewshot import model, seeding

    channels = inputs.store.get(inputs.manifest.records[0].image_id).shape[0]
    return model.init_model(
        channels=channels, embed_dim=inputs.table.dimension, joint_dim=cfg.d_j,
        heads=cfg.n_heads, dynconv_inner=cfg.d_c, dynconv_top=cfg.n_d,
        scale=cfg.lambda_, dropout=cfg.dropout, rng=seeding.substream(cfg.seed, "init"))


class Inputs:
    """What the set-up phase hands a workload: parsed files, a warm feature
    store and the model."""

    def __init__(self, bundle: Path, vocabulary, manifest, table, store, model):
        self.bundle = bundle
        self.vocabulary = vocabulary
        self.manifest = manifest
        self.table = table
        self.store = store
        self.model = model


def set_up(bundle: Path, cfg_seed: int, checkpoint: Path | None, after_import=None,
           cfg_overrides=None):
    """Import the program, read every input file and build or load the model.

    With ``checkpoint`` the model is loaded from it (evaluation), otherwise
    it is initialised from the seed (training).  ``after_import`` runs
    between the import and the loads, outside the timed phases.  Returns the
    inputs, the config and the wall seconds of each phase.
    """
    started = time.perf_counter()
    import mlfewshot.cli  # noqa: F401  (what every CLI call imports)
    from mlfewshot import embeddings, episodes, model

    imported = time.perf_counter()
    if after_import is not None:
        after_import()
    load_start = time.perf_counter()
    cfg = desk_config(cfg_seed, **(cfg_overrides or {}))
    vocabulary = embeddings.load_vocabulary(bundle / "labels.tsv")
    manifest = episodes.load_manifest(bundle / "manifest.jsonl", vocabulary=vocabulary)
    table = embeddings.parse_embedding_file(bundle / "embeddings.txt")
    store = model.FeatureStore(manifest)
    for record in manifest.records:
        store.get(record.image_id)
    loaded = time.perf_counter()
    inputs = Inputs(bundle, vocabulary, manifest, table, store, None)
    if checkpoint is not None:
        inputs.model, _ = model.load_checkpoint(checkpoint)
    else:
        inputs.model = build_model(inputs, cfg)
    done = time.perf_counter()
    phases = {"import_s": imported - started, "load_s": loaded - load_start,
              "model_s": done - loaded}
    phases["setup_s"] = sum(phases.values())
    return inputs, cfg, phases


def _build(out: Path):
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from mlfewshot.episodes import make_synthetic

    import workloads

    scratch = out.with_name(f"{out.name}.tmp{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    make_synthetic(scratch, **BUNDLE)
    inputs, cfg, _ = set_up(scratch, CHECKPOINT_SEED, None)
    workloads.train_round(inputs, cfg, scratch / "model.ckpt")
    try:
        os.replace(scratch, out)
    except OSError:
        # another process finished the same fixture first
        shutil.rmtree(scratch, ignore_errors=True)
        if not (out / "model.ckpt").is_file():
            raise


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path, help="fixture directory to create")
    args = parser.parse_args(argv)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    _build(args.out.resolve())
    print(f"fixture built in {time.perf_counter() - started:.1f} s: {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
