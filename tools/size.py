"""Size counts of the program's source, printed as one JSON line.

- ``src_lines``: the lines of ``src/mlfewshot/*.py``, as
  ``cat src/mlfewshot/*.py | wc -l`` counts them;
- ``keyword_defaults``: the default values of positional and keyword-only
  parameters in those files, functions and lambdas alike, counted with ``ast``;
- ``config_keys``: the fields of ``config.RunConfig``, each one a config-file
  key and a command-line flag;
- ``cli_flags``: the options of every subcommand of ``cli.build_parser()``,
  ``-h`` not counted.

    python3 tools/size.py                 # this checkout
    python3 tools/size.py --root DIR      # another checkout
"""

import argparse
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

# Run in a child Python on the checkout's src, so another checkout's parser is read.
CLI_FLAGS = """
import argparse
from mlfewshot.cli import build_parser
commands = next(action for action in build_parser()._actions
                if isinstance(action, argparse._SubParsersAction)).choices.values()
print(sum(bool(action.option_strings) and not isinstance(action, argparse._HelpAction)
          for command in commands for action in command._actions))
"""


def cli_flags(root: Path) -> int:
    if not (root / "src" / "mlfewshot" / "cli.py").is_file():
        raise FileNotFoundError(f"{root} holds no src/mlfewshot/cli.py")
    done = subprocess.run([sys.executable, "-c", CLI_FLAGS], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(root / "src")), check=True)
    return int(done.stdout)


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
            "config_keys": config_keys, "cli_flags": cli_flags(root)}


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
