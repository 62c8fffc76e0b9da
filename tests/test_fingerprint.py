"""tools/fingerprint.py --against: the digests that differ between two
checkouts, with fingerprint() stubbed so no checkout is run."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "fingerprint.py"
_spec = importlib.util.spec_from_file_location("fingerprint_tool", TOOL)
fingerprint_tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fingerprint_tool)


@pytest.fixture
def checkouts(tmp_path, monkeypatch):
    """Returns a function that makes two checkouts, ours and theirs, whose
    stubbed fingerprints are the given dicts, and returns their paths."""
    def make(ours, theirs):
        digests = {}
        for name, values in (("ours", ours), ("theirs", theirs)):
            root = tmp_path / name
            (root / "src" / "mlfewshot").mkdir(parents=True)
            (root / "src" / "mlfewshot" / "cli.py").write_text("")
            digests[root.resolve()] = values
        monkeypatch.setattr(fingerprint_tool, "fingerprint", lambda root: digests[root])
        return str(tmp_path / "ours"), str(tmp_path / "theirs")
    return make


def test_identical_checkouts_exit_0(checkouts, capsys):
    ours, theirs = checkouts({"help": "a", "checkpoint": "b"}, {"help": "a", "checkpoint": "b"})
    assert fingerprint_tool.main(["--root", ours, "--against", theirs]) == 0
    assert capsys.readouterr().out.splitlines() == ["2 digests identical, 0 differ"]


def test_each_differing_key_is_printed_and_exits_1(checkouts, capsys):
    ours, theirs = checkouts({"help": "a", "checkpoint": "b", "report_lcm": "c"},
                             {"help": "a", "checkpoint": "B", "gradcheck_max_error.x": "d"})
    assert fingerprint_tool.main(["--root", ours, "--against", theirs]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs: checkpoint", "differs: gradcheck_max_error.x", "differs: report_lcm",
        "1 digests identical, 3 differ"]


def test_without_against_prints_the_digests(checkouts, capsys):
    ours, _ = checkouts({"help": "a"}, {})
    assert fingerprint_tool.main(["--root", ours]) == 0
    assert json.loads(capsys.readouterr().out) == {"help": "a"}


def test_against_a_directory_without_the_program_is_a_usage_error(checkouts, tmp_path, capsys):
    ours, _ = checkouts({"help": "a"}, {})
    with pytest.raises(SystemExit) as leave:
        fingerprint_tool.main(["--root", ours, "--against", str(tmp_path / "nowhere")])
    assert leave.value.code == 2
    assert "holds no src/mlfewshot/cli.py" in capsys.readouterr().err
