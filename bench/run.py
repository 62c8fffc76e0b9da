"""Run one workload of the benchmark once.

    python3 bench/run.py --workload eval-base --seed 3 --seconds 30 --trace 0

Run from a checkout holding the program's sources under ``src/``.  The
first run builds the fixture (bundle and evaluation checkpoint) under
``bench/.cache``.  A provenance line comes first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``,
its per-layer metrics with ``--trace 1``.  A record of the run, with every
check and the measured values BENCHMARK.json does not list, is written to
``bench/.out``.
"""

import os

# one thread per workload process; set before numpy loads OpenBLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import fixture  # noqa: E402
from tracing import Tracer  # noqa: E402

WORKLOADS = ("train-desk", "eval-base", "eval-lcm")  # as workloads.ROUND_SPAN, importable before numpy
# set-up runs in this many fresh processes per run; setup_s is their median
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120
OUT = fixture.HERE / ".out"


def _checkpoint(workload, bundle: Path):
    return bundle / "model.ckpt" if workload.startswith("eval") else None


def probe_setup(workload, seed, bundle: Path) -> dict:
    """Phase times of the workload's set-up, measured in a fresh process."""
    command = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
               "--workload", workload, "--seed", str(seed), "--fixture", str(bundle)]
    done = subprocess.run(command, check=True, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    return json.loads(done.stdout.strip().splitlines()[-1])


def git_state():
    """(commit, dirty) of the checkout, or (None, None) outside a git work tree."""
    try:
        head = subprocess.run(["git", "-C", str(fixture.ROOT), "rev-parse", "--show-toplevel",
                               "HEAD"], capture_output=True, text=True, timeout=30)
        if head.returncode != 0:
            return None, None
        toplevel, commit = head.stdout.split()
        if Path(toplevel).resolve() != fixture.ROOT:
            return None, None
        status = subprocess.run(["git", "-C", str(fixture.ROOT), "status", "--porcelain",
                                 "--untracked-files=no"], capture_output=True, text=True,
                                timeout=30)
    except (OSError, subprocess.TimeoutExpired, ValueError):
        return None, None
    return commit, bool(status.stdout.strip())


def blas_version():
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return f"{blas.get('name')} {blas.get('version')}"


def declared_metrics(section, measured: dict):
    """The metrics BENCHMARK.json declares for this section, with their units;
    the rest of what was measured is returned apart."""
    spec = json.loads((fixture.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[section]
    missing = [m["name"] for m in spec if m["name"] not in measured]
    if missing:
        raise RuntimeError(f"declared {section} metrics were not measured: {missing}")
    listed = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in spec}
    return listed, {k: v for k, v in measured.items() if k not in listed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one workload of the mlfewshot benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--fixture", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (fixture.SRC / "mlfewshot" / "__init__.py").is_file():
        print(f"error: no program sources under {fixture.SRC}", file=sys.stderr)
        return 2
    if not (fixture.ROOT / "BENCHMARK.json").is_file():
        print(f"error: no BENCHMARK.json in {fixture.ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(fixture.SRC))

    if args.probe_setup:
        _, _, phases = fixture.set_up(args.fixture, args.seed,
                                      _checkpoint(args.workload, args.fixture))
        print(json.dumps(phases))
        return 0

    bundle = fixture.ensure_fixture()
    samples = [probe_setup(args.workload, args.seed, bundle) for _ in range(SETUP_PROBES)]
    loads = Tracer(only={"features.load_feature_file"})
    inputs, cfg, _ = fixture.set_up(bundle, args.seed, _checkpoint(args.workload, bundle),
                                    after_import=loads.install)
    loads.uninstall()

    import numpy

    import workloads

    warnings = workloads.WarningCount()
    logger = logging.getLogger("mlfewshot")
    logger.addHandler(warnings)
    logger.propagate = False
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        result = workloads.run(args.workload, inputs, cfg, args.seconds, args.trace == 1,
                               Path(scratch))

    setup = {key: statistics.median(s[key] for s in samples)
             for key in ("setup_s", "import_s", "load_s", "model_s")}
    if args.trace:
        measured = dict(result["per_layer"])
        measured.update({f"setup.{k}": setup[k] for k in ("import_s", "load_s", "model_s")})
        measured["setup.feature_loads"] = len(loads.named("features.load_feature_file"))
        metrics, unlisted = declared_metrics("per_layer", measured)
    else:
        metrics, unlisted = declared_metrics("end_to_end",
                                             dict(result["end_to_end"], setup_s=setup["setup_s"]))

    commit, dirty = git_state()
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "fixture": {"bundle": fixture.BUNDLE, "checkpoint_seed": fixture.CHECKPOINT_SEED},
        "git_commit": commit, "git_dirty": dirty, "source_sha256": fixture.source_digest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": blas_version(), "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cpu_steal_ticks": result["cpu_steal_ticks"], "mlfewshot_warnings": warnings.count,
        "rounds": result["rounds"], "episodes": result["episodes"], "wall_s": result["wall_s"],
        "end_to_end_as_measured": dict(result["end_to_end"], setup_s=setup["setup_s"]),
        "setup_samples": samples, "failures": result["failures"], "facts": result["facts"],
        "unlisted_metrics": unlisted,
    }
    for failure in result["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    outcome = {"correct": not result["failures"], "attempted": result["episodes"],
               "failed": 0, "metrics": metrics}
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"provenance": provenance, **outcome}, indent=1, sort_keys=True)
                      + "\n", encoding="utf-8")
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
