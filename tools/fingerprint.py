"""Byte-identity fingerprint of what the program writes, driven through its CLI.

In a temporary directory it builds the benchmark's bundle with ``synth``
(``bench/fixture.py``'s ``BUNDLE``), trains at the desk config (``RunConfig()``
defaults) with seed 11, keeping its stdout, per-epoch training log and
checkpoint, evaluates the checkpoint in all four modes at seed 11, and in
lcm mode once more at seed 3, runs ``inspect-lcm`` on one image and the
gradient checks, and reads every ``--help`` text, each under its own key.
At seed 11 every support mask falls back to keep-all; at seed 3 some masks
select cells, so the second lcm report covers the selecting path.  It prints one JSON line
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
COMMANDS = ("synth", "train", "eval", "gradcheck", "inspect-lcm")
# The gradcheck table prints each max_error to three digits; this prints
# every one by repr, one case a line, so a change in the last bit shows too.
MAX_ERROR_REPRS = ("from mlfewshot import verification\n"
                   "for r in verification.run_suite():\n"
                   "    print(r.name, repr(r.max_error))\n")


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
            argv = ["-c", code] if code else ["-m", "mlfewshot.cli", *args]
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
        for mode in MODES:
            run("eval", *paths, "--seed", SEED, "--mode", mode)
            out[f"report_{mode}"] = digest(read(f"out/report_{mode}.json"))
        run("eval", *paths, "--seed", SELECTING_SEED, "--mode", "lcm")
        out[f"report_lcm_seed{SELECTING_SEED}"] = digest(read("out/report_lcm.json"))
        out["inspect_lcm_stdout"] = digest(run("inspect-lcm", *paths, "--seed", SEED,
                                               "--image", IMAGE))
        for grid in ("importance", "sigma", "mask"):
            out[f"{grid}_{IMAGE}"] = digest(read(f"out/{grid}_{IMAGE}.txt"))
        out["gradcheck_stdout"] = digest(run("gradcheck"))
        for line in run(code=MAX_ERROR_REPRS).decode().splitlines():
            name, error = line.split(" ", 1)
            out[f"gradcheck_max_error.{name}"] = digest(error.encode())
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
