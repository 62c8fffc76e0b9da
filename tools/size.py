"""Size counts of the program's source, printed as one JSON line.

- ``src_lines``: the lines of ``src/mlfewshot/*.py``, as
  ``cat src/mlfewshot/*.py | wc -l`` counts them;
- ``keyword_defaults``: the default values of positional and keyword-only
  parameters in those files, functions and lambdas alike, counted with ``ast``;
- ``config_keys``: the fields of ``config.RunConfig``, each one a config-file
  key and a command-line flag.

    python3 tools/size.py                 # this checkout
    python3 tools/size.py --root DIR      # another checkout
"""

import argparse
import ast
import json
import sys
from pathlib import Path


def sizes(root: Path) -> dict:
    files = sorted((root / "src" / "mlfewshot").glob("*.py"))
    if not files:
        raise FileNotFoundError(f"{root} holds no src/mlfewshot/*.py")
    src_lines = keyword_defaults = config_keys = 0
    for path in files:
        text = path.read_bytes()
        src_lines += text.count(b"\n")
        tree = ast.parse(text, filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.arguments):
                keyword_defaults += len(node.defaults)
                keyword_defaults += sum(d is not None for d in node.kw_defaults)
            if path.name == "config.py" and isinstance(node, ast.ClassDef) \
                    and node.name == "RunConfig":
                config_keys = sum(isinstance(item, ast.AnnAssign) for item in node.body)
    return {"src_lines": src_lines, "keyword_defaults": keyword_defaults,
            "config_keys": config_keys}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout to count (default: this one)")
    args = parser.parse_args(argv)
    try:
        print(json.dumps(sizes(args.root)))
    except FileNotFoundError as missing:
        parser.error(str(missing))
    return 0


if __name__ == "__main__":
    sys.exit(main())
