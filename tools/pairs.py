"""Alternating benchmark runs of two checkouts, summarised by the paired-run rule.

For each seed it runs ``bench/run.py --trace 0`` once in this checkout (the
change) and once in ``DIR`` (the parent), both at the same seed and length.
An even seed runs the parent first, an odd seed the change, so neither side
always runs on a warmer or a quieter machine.

    python3 tools/pairs.py --against DIR --workload eval-base --seeds 401-410
    python3 tools/pairs.py --against DIR --workload train-desk --seeds 421-426 --seconds 8

It prints one JSON line per run, as it finishes, then one summary line.  For
each end-to-end metric of this checkout's ``BENCHMARK.json`` the summary
gives each side's median and quartiles, the change's wins (a tie counts for
neither side) and whether a gain holds: runs of the benchmark's own
``run_seconds``, at least ten pairs, the change better in at least nine
tenths of them, and the medians apart by more than the distance between the
parent's quartiles, in the direction the metric's ``better`` names.  Shorter
or longer runs (``--seconds``) are for a quick look and never report a gain.

It also applies the no-regression rule for a change that claims no gain:
``worse_by`` is the change's median moved against the parent's, relative to
the parent's median, in the bad direction, and ``no_regression`` is
``unresolved`` when the parent's quartile spread, relative to its median, is
wider than the metric's ``bound`` (unless every change run beats every
parent run), ``holds`` when ``worse_by`` is within the bound, and
``regressed`` otherwise.
A run that exits non-zero or reports ``correct: false`` stops the tool with
exit status 1.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


class RunFailed(RuntimeError):
    """A benchmark run exited non-zero or reported wrong outputs."""


def run_bench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in `root`; returns its last stdout line,
    parsed.  PYTHONPATH is dropped so each run imports its own sources."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RunFailed(f"{root} seed {seed} exited {done.returncode}: {done.stderr.strip()}")
    outcome = json.loads(done.stdout.strip().splitlines()[-1])
    if not outcome.get("correct"):
        raise RunFailed(f"{root} seed {seed} reported correct: false")
    return outcome


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise ValueError(f"empty seed range {text!r}")
    return seeds


def quartiles(values) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def relative(delta, base) -> float:
    """`delta` as a share of |`base`|; against a zero base, 0 for no move
    and an infinity of the move's sign otherwise."""
    if base:
        return delta / abs(base)
    return 0.0 if delta == 0 else math.copysign(math.inf, delta)


def summarise(runs, metrics, full_length) -> dict:
    """Per metric, each side's quartiles, the change's wins over the pairs,
    whether a gain holds and the no-regression verdict.  `runs` are the
    per-run records; `metrics` the ``end_to_end`` entries of BENCHMARK.json;
    `full_length` whether the runs lasted the benchmark's ``run_seconds``,
    without which no gain holds."""
    pairs = {}
    for run in runs:
        pairs.setdefault(run["seed"], {})[run["side"]] = run["metrics"]
    pairs = [pair for _, pair in sorted(pairs.items()) if len(pair) == 2]
    out = {"pairs": len(pairs), "metrics": {}}
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        values = {side: [pair[side][name] for pair in pairs] for side in SIDES}
        wins = sum(sign * (parent - change) > 0
                   for parent, change in zip(values["parent"], values["change"]))
        sides = {side: quartiles(values[side]) for side in SIDES}
        parent = sides["parent"]
        gain = sign * (parent["median"] - sides["change"]["median"])
        bound, worse_by = metric["bound"], relative(-gain, parent["median"])
        separated = all(sign * (p - c) > 0 for p in values["parent"] for c in values["change"])
        if relative(parent["q3"] - parent["q1"], parent["median"]) > bound and not separated:
            verdict = "unresolved"
        else:
            verdict = "holds" if worse_by <= bound else "regressed"
        out["metrics"][name] = {
            "unit": metric["unit"], "better": metric["better"], **sides, "wins": wins,
            "gain_holds": full_length and len(pairs) >= 10 and 10 * wins >= 9 * len(pairs)
            and gain > parent["q3"] - parent["q1"],
            "bound": bound, "worse_by": worse_by, "no_regression": verdict,
        }
    return out


def pairs(run, change: Path, parent: Path, workload, seeds, seconds, emit=print) -> list:
    """Run every seed on both sides, parent first on even seeds; `run` is
    `run_bench`'s signature.  Emits and returns one record per run."""
    roots = {"change": change, "parent": parent}
    records = []
    for seed in seeds:
        for order, side in enumerate(SIDES if seed % 2 == 0 else SIDES[::-1]):
            outcome = run(roots[side], workload, seed, seconds)
            record = {"workload": workload, "seed": seed, "side": side, "order": order,
                      "metrics": {k: v["value"] for k, v in outcome["metrics"].items()}}
            emit(json.dumps(record, sort_keys=True))
            records.append(record)
    return records


def main(argv=None, run=run_bench) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path, required=True, metavar="DIR",
                        help="the parent checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, metavar="A-B")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: BENCHMARK.json's run_seconds; "
                             "any other length never reports a gain)")
    args = parser.parse_args(argv)
    for root in (ROOT, args.against):
        if not (root / "bench" / "run.py").is_file():
            parser.error(f"{root} holds no bench/run.py")
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError as bad:
        parser.error(f"--seeds: {bad}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"--workload: {args.workload!r} is not a workload of BENCHMARK.json")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    try:
        runs = pairs(run, ROOT, args.against.resolve(), args.workload, seeds, seconds)
    except RunFailed as failed:
        print(f"error: {failed}", file=sys.stderr)
        return 1
    print(json.dumps({"summary": {"workload": args.workload, "seconds": seconds,
                                  **summarise(runs, spec["end_to_end"],
                                              seconds == spec["run_seconds"])}},
                     sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
