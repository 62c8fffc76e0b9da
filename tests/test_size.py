"""tools/size.py: its three counts, on a hand-written tree and on this checkout."""

import importlib.util
import json
from pathlib import Path

import pytest

from mlfewshot.config import NUMERIC_KEYS, PATH_KEYS

TOOL = Path(__file__).resolve().parent.parent / "tools" / "size.py"
_spec = importlib.util.spec_from_file_location("size_tool", TOOL)
size_tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(size_tool)


def test_counts_of_a_hand_written_tree(tmp_path, capsys):
    package = tmp_path / "src" / "mlfewshot"
    package.mkdir(parents=True)
    (package / "a.py").write_text("def f(x, y=1, *, z=2, w):\n"
                                  "    return lambda v=3: v\n")
    (package / "config.py").write_text("class RunConfig:\n"
                                       "    seed: int = 0\n"
                                       "    output: str | None = None\n"
                                       "    def validate(self, strict=True):\n"
                                       "        pass\n")
    (package / "sub").mkdir()
    (package / "sub" / "b.py").write_text("def g(q=1):\n    pass\n")   # not src/mlfewshot/*.py
    assert size_tool.main(["--root", str(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "src_lines": 7, "keyword_defaults": 4, "config_keys": 2}


def test_this_checkout_counts_every_config_key_and_line():
    root = TOOL.parent.parent
    counts = size_tool.sizes(root)
    assert counts["config_keys"] == len(NUMERIC_KEYS) + len(PATH_KEYS)
    assert counts["src_lines"] == sum(path.read_bytes().count(b"\n")
                                      for path in (root / "src" / "mlfewshot").glob("*.py"))


def test_a_directory_without_the_program_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as leave:
        size_tool.main(["--root", str(tmp_path)])
    assert leave.value.code == 2
    assert "holds no src/mlfewshot/*.py" in capsys.readouterr().err
