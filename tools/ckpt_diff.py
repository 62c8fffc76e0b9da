"""Largest absolute difference between two checkpoints, tensor by tensor.

    python3 tools/ckpt_diff.py A.ckpt B.ckpt

Reads both files with the program's own checkpoint reader (from ``src/``
beside this folder) and prints one JSON line: ``tensors`` maps every name
the two share, with equal shapes, to max |a - b| over its entries; ``max``
and ``max_tensor`` give the largest of those and its name.  Names found in
one file only, or with different shapes, are listed under ``only_in_a``,
``only_in_b`` and ``shape_differs`` instead of being compared.  Exits 2 if
either file is not a readable checkpoint.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mlfewshot.errors import DataError  # noqa: E402
from mlfewshot.model import read_checkpoint_tensors  # noqa: E402


def compare(a: dict, b: dict) -> dict:
    """The report for two name -> array maps."""
    shared = sorted(set(a) & set(b))
    same_shape = [name for name in shared if a[name].shape == b[name].shape]
    tensors = {name: float(np.max(np.abs(a[name] - b[name]), initial=0.0))
               for name in same_shape}
    largest = max(tensors, key=lambda name: tensors[name], default=None)
    return {
        "tensors": tensors,
        "max": tensors[largest] if largest is not None else 0.0,
        "max_tensor": largest,
        "only_in_a": sorted(set(a) - set(b)),
        "only_in_b": sorted(set(b) - set(a)),
        "shape_differs": [name for name in shared if name not in tensors],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="first checkpoint")
    parser.add_argument("b", type=Path, help="second checkpoint")
    args = parser.parse_args(argv)
    try:
        report = compare(read_checkpoint_tensors(args.a), read_checkpoint_tensors(args.b))
    except DataError as err:
        print(f"data error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
