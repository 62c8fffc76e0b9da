"""Byte-identity fingerprint of what the program writes, driven through its CLI.

In a temporary directory it builds the benchmark's bundle with ``synth``
(``bench/fixture.py``'s ``BUNDLE``), trains at the desk config (``RunConfig()``
defaults) with seed 11, keeping its stdout, per-epoch training log and
checkpoint, resumes a copy of that checkpoint and log in a side directory
for two more epochs (``train --resume --epochs 32``), keeping the same three
under ``resume_stdout``, ``resume_training_log`` and ``resume_checkpoint``,
evaluates the first checkpoint in all four modes at seed 11, and in
lcm mode once more at seed 3, runs ``inspect-lcm`` on one image, once at
the default theta and once at a theta that keeps some of its cells, runs
the gradient checks, and reads every ``--help`` text, each under its own key.
The ``episodes`` key digests the episodes training and evaluation draw, so
the sampler can show byte identity while the checkpoint's digest moves.
At seed 11 every support mask falls back to keep-all; at seed 3 some masks
select cells, so the second lcm report covers the selecting path, and
``inspect_lcm_selecting`` digests the second ``inspect-lcm`` run's stdout and
mask, which keeps cells.  It prints one JSON line
of SHA-256 digests; two checkouts that print the same line produce the
same bytes.  Each gradient check's max_error has its own digest, keyed
``gradcheck_max_error.<case>``, so a change that adds or deletes a case
can show that every other case is unchanged.

    python3 tools/fingerprint.py                  # this checkout
    python3 tools/fingerprint.py --root DIR       # another checkout
    python3 tools/fingerprint.py --against DIR    # compare with another checkout

With ``--against`` it fingerprints both checkouts, prints each key whose
digest differs (or that only one of them has), and exits 1 on any
difference, 0 when every digest is identical.

A run takes about a minute on two cores, most of it training; a comparison
takes two.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SEED = "11"
SYNTH = ["--seed", SEED, "--embed-dim", "8", "--signal-noise", "0.4",
         "--background-scale", "0.15", "--extra-label-prob", "1.0"]
MODES = ("base", "lcm", "zeroshot", "simple-attention")
SELECTING_SEED = "3"   # an evaluation seed at which some lcm masks select cells
IMAGE = "img00320"
# between the smallest and largest sigma of IMAGE's cells (about 0.500 and
# 0.583 at seed 11), so inspect-lcm keeps some of them and drops the rest
SELECTING_THETA = "0.52"
COMMANDS = ("synth", "train", "eval", "gradcheck", "inspect-lcm")
# The gradcheck table prints each max_error to three digits; this prints
# every one by repr, one case a line, so a change in the last bit shows too.
MAX_ERROR_REPRS = ("from mlfewshot import verification\n"
                   "for r in verification.run_suite():\n"
                   "    print(r.name, repr(r.max_error))\n")
# The episodes the program draws, digested apart from what it computes on
# them: the first 32 training episodes (two epochs of 16) at seed 11 and the
# novel evaluation episodes at seeds 11 and 3, caught where `train` and
# `evaluate` call the sampler.  Arguments: the CLI's path flags.
EPISODES = """
import hashlib, sys
from mlfewshot import cli, metrics, training
digest = hashlib.sha256()

def recording(draw):
    def wrapper(*args):
        episode = draw(*args)
        digest.update(repr((episode.labels, episode.k_shot, episode.support_ids,
                            episode.query_ids)).encode())
        for targets in (episode.support_targets, episode.query_targets):
            digest.update(repr((targets.dtype.str, targets.shape)).encode())
            digest.update(targets.tobytes())
        return episode
    return wrapper

for module in (training, metrics):
    module.sample_episode_with_retries = recording(module.sample_episode_with_retries)
paths = sys.argv[1:]
codes = [cli.main(["train", *paths, "--seed", "11", "--epochs", "2", "--warmup_epochs", "1"])]
codes += [cli.main(["eval", *paths, "--seed", seed, "--mode", "zeroshot"]) for seed in ("11", "3")]
if codes != [0, 0, 0]:
    sys.exit(f"train, eval, eval exited {codes}")
print(digest.hexdigest())
"""


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def help_digests(run) -> dict:
    """The top-level ``--help`` under ``help`` and each command's under
    ``help.<command>``, so a flag change shows which command it touched.
    ``run(*args)`` returns the CLI's stdout for those arguments."""
    out = {"help": digest(run("--help"))}
    out.update({f"help.{command}": digest(run(command, "--help")) for command in COMMANDS})
    return out


def fingerprint(root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    with tempfile.TemporaryDirectory(prefix="fingerprint-") as work:
        def run(*args, code=None) -> bytes:
            argv = ["-c", code, *args] if code else ["-m", "mlfewshot.cli", *args]
            done = subprocess.run([sys.executable, *argv], cwd=work, env=env,
                                  capture_output=True, check=True)
            return done.stdout

        def read(name) -> bytes:
            return (Path(work) / name).read_bytes()

        paths = ["--manifest", "data/manifest.jsonl", "--embeddings", "data/embeddings.txt",
                 "--splits", "data/labels.tsv", "--checkpoint", "model.ckpt",
                 "--output", "out"]
        out = help_digests(run)
        run("synth", "--out", "data", *SYNTH)
        out["train_stdout"] = digest(run("train", *paths, "--seed", SEED))
        out["training_log"] = digest(read("out/training_log.csv"))
        out["checkpoint"] = digest(read("model.ckpt"))
        (Path(work) / "resume").mkdir()
        for name in ("model.ckpt", "out/training_log.csv"):
            shutil.copy(Path(work) / name, Path(work) / "resume")
        resume_paths = [*paths[:6], "--checkpoint", "resume/model.ckpt", "--output", "resume"]
        out["resume_stdout"] = digest(run("train", *resume_paths, "--seed", SEED, "--resume",
                                          "--epochs", "32"))
        out["resume_training_log"] = digest(read("resume/training_log.csv"))
        out["resume_checkpoint"] = digest(read("resume/model.ckpt"))
        for mode in MODES:
            run("eval", *paths, "--seed", SEED, "--mode", mode)
            out[f"report_{mode}"] = digest(read(f"out/report_{mode}.json"))
        run("eval", *paths, "--seed", SELECTING_SEED, "--mode", "lcm")
        out[f"report_lcm_seed{SELECTING_SEED}"] = digest(read("out/report_lcm.json"))
        out["inspect_lcm_stdout"] = digest(run("inspect-lcm", *paths, "--seed", SEED,
                                               "--image", IMAGE))
        for grid in ("importance", "sigma", "mask"):
            out[f"{grid}_{IMAGE}"] = digest(read(f"out/{grid}_{IMAGE}.txt"))
        stdout = run("inspect-lcm", *paths, "--seed", SEED, "--image", IMAGE,
                     "--theta", SELECTING_THETA)
        out["inspect_lcm_selecting"] = digest(stdout + read(f"out/mask_{IMAGE}.txt"))
        out["gradcheck_stdout"] = digest(run("gradcheck"))
        for line in run(code=MAX_ERROR_REPRS).decode().splitlines():
            name, error = line.split(" ", 1)
            out[f"gradcheck_max_error.{name}"] = digest(error.encode())
        episode_paths = [*paths[:6], "--checkpoint", "episodes.ckpt", "--output", "episodes"]
        out["episodes"] = run(*episode_paths, code=EPISODES).decode().splitlines()[-1]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout to fingerprint (default: this one)")
    parser.add_argument("--against", type=Path, default=None, metavar="DIR",
                        help="second checkout: print the keys whose digests differ "
                             "and exit 1 if any do")
    args = parser.parse_args(argv)
    for root in (args.root, args.against):
        if root is not None and not (root / "src" / "mlfewshot" / "cli.py").is_file():
            parser.error(f"{root} holds no src/mlfewshot/cli.py")
    ours = fingerprint(args.root.resolve())
    if args.against is None:
        print(json.dumps(ours, sort_keys=True))
        return 0
    theirs = fingerprint(args.against.resolve())
    differing = sorted(key for key in ours.keys() | theirs.keys()
                       if ours.get(key) != theirs.get(key))
    for key in differing:
        print(f"differs: {key}")
    print(f"{len(ours.keys() - set(differing))} digests identical, {len(differing)} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
