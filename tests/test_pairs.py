"""tools/pairs.py: the run order, the summary and the failure exit, with the
benchmark runner stubbed so no benchmark runs."""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
_spec = importlib.util.spec_from_file_location("pairs_tool", TOOL)
pairs_tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs_tool)

SPEC = {"run_seconds": 30, "workloads": [{"name": "eval-base"}],
        "end_to_end": [{"name": "episode_ms.p90", "unit": "ms", "better": "lower", "bound": 0.2},
                       {"name": "hits", "unit": "count", "better": "higher", "bound": 0.05}]}


@pytest.fixture
def checkouts(tmp_path, monkeypatch):
    """A change and a parent checkout, the tool reading the change as its own."""
    roots = []
    for name in ("change", "parent"):
        root = tmp_path / name
        (root / "bench").mkdir(parents=True)
        (root / "bench" / "run.py").write_text("")
        (root / "BENCHMARK.json").write_text(json.dumps(SPEC))
        roots.append(root.resolve())
    monkeypatch.setattr(pairs_tool, "ROOT", roots[0])
    return roots


def stub(values, calls):
    """A runner reading each (side, seed)'s metrics from `values`."""
    def run(root, workload, seed, seconds):
        calls.append((root.name, seed, seconds))
        ms, hits = values[root.name, seed]
        return {"correct": True, "metrics": {"episode_ms.p90": {"value": ms, "unit": "ms"},
                                             "hits": {"value": hits, "unit": "count"}}}
    return run


def test_order_alternates_with_seed_parity(checkouts, capsys):
    _, parent = checkouts
    calls = []
    values = {(side, seed): (1.0, 1) for side in ("change", "parent") for seed in (4, 5, 6)}
    args = ["--against", str(parent), "--workload", "eval-base", "--seeds", "4-6"]
    assert pairs_tool.main(args, run=stub(values, calls)) == 0
    assert [(side, seed) for side, seed, _ in calls] == [
        ("parent", 4), ("change", 4), ("change", 5), ("parent", 5),
        ("parent", 6), ("change", 6)]
    assert {seconds for _, _, seconds in calls} == {30}        # BENCHMARK.json's run_seconds
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(r["side"], r["seed"], r["order"]) for r in lines[:-1]] == [
        ("parent", 4, 0), ("change", 4, 1), ("change", 5, 0), ("parent", 5, 1),
        ("parent", 6, 0), ("change", 6, 1)]
    assert lines[-1]["summary"]["pairs"] == 3


def test_summary_counts_wins_and_applies_the_rule():
    parent_ms = [2.0 + 0.01 * i for i in range(10)]
    runs = []
    for seed, ms in enumerate(parent_ms):
        change_ms = ms if seed == 0 else ms - 0.5             # the first pair ties
        runs += [{"seed": seed, "side": "parent", "metrics": {"episode_ms.p90": ms, "hits": 3}},
                 {"seed": seed, "side": "change",
                  "metrics": {"episode_ms.p90": change_ms, "hits": 3 - seed % 2}}]
    summary = pairs_tool.summarise(runs, SPEC["end_to_end"], True)
    assert summary["pairs"] == 10
    ms = summary["metrics"]["episode_ms.p90"]
    assert ms["wins"] == 9 and ms["gain_holds"]
    assert ms["parent"] == {"median": pytest.approx(2.045), "q1": pytest.approx(2.0225),
                            "q3": pytest.approx(2.0675)}
    assert ms["change"]["median"] == pytest.approx(1.555)      # 1.55 and 1.56
    hits = summary["metrics"]["hits"]                         # higher is better: never won
    assert hits["wins"] == 0 and not hits["gain_holds"]


def test_gain_needs_ten_pairs_and_a_gap_wider_than_the_parents_spread():
    def runs(parent_ms, change_ms):
        return [{"seed": s, "side": side, "metrics": {"episode_ms.p90": ms, "hits": 0}}
                for s, pair in enumerate(zip(parent_ms, change_ms))
                for side, ms in zip(("parent", "change"), pair)]

    few = pairs_tool.summarise(runs([2.0] * 9, [1.0] * 9), SPEC["end_to_end"], True)
    assert few["metrics"]["episode_ms.p90"]["wins"] == 9
    assert not few["metrics"]["episode_ms.p90"]["gain_holds"]
    spread = [1.0, 3.0] * 5                                   # parent quartiles 1.0 and 3.0
    narrow = pairs_tool.summarise(runs(spread, [x - 0.1 for x in spread]), SPEC["end_to_end"],
                                  True)
    assert narrow["metrics"]["episode_ms.p90"]["wins"] == 10
    assert not narrow["metrics"]["episode_ms.p90"]["gain_holds"]


def test_runs_off_the_benchmarks_length_never_report_a_gain(checkouts, capsys):
    _, parent = checkouts
    calls = []
    values = {(side, seed): ({"parent": 2.0 + 0.01 * seed, "change": 1.0}[side], 1)
              for side in ("change", "parent") for seed in range(1, 11)}
    for seconds, holds in ((None, True), ("8", False)):
        args = ["--against", str(parent), "--workload", "eval-base", "--seeds", "1-10"]
        args += ["--seconds", seconds] if seconds else []
        assert pairs_tool.main(args, run=stub(values, calls)) == 0
        summary = json.loads(capsys.readouterr().out.splitlines()[-1])["summary"]
        ms = summary["metrics"]["episode_ms.p90"]
        assert (summary["seconds"], ms["wins"], ms["gain_holds"]) == (
            30 if holds else 8.0, 10, holds)


def paired_runs(parent_ms, change_ms, parent_hits=None, change_hits=None):
    """Run records for pairs of (parent, change) values of both metrics."""
    parent_hits = parent_hits or [10.0] * len(parent_ms)
    change_hits = change_hits or [10.0] * len(change_ms)
    return [{"seed": s, "side": side, "metrics": {"episode_ms.p90": ms, "hits": hits}}
            for s, pair in enumerate(zip(zip(parent_ms, parent_hits), zip(change_ms, change_hits)))
            for side, (ms, hits) in zip(("parent", "change"), pair)]


@pytest.mark.parametrize("change_ms, worse_by, verdict", [
    ([2.3] * 10, 0.15, "holds"),              # worse, but within the 0.2 bound
    ([1.0] * 10, -0.5, "holds"),              # better
    ([2.6] * 10, 0.3, "regressed"),           # worse past the bound
])
def test_no_regression_compares_the_medians_against_the_bound(change_ms, worse_by, verdict):
    summary = pairs_tool.summarise(paired_runs([2.0] * 10, change_ms), SPEC["end_to_end"], True)
    ms = summary["metrics"]["episode_ms.p90"]
    assert ms["bound"] == 0.2
    assert ms["worse_by"] == pytest.approx(worse_by)
    assert ms["no_regression"] == verdict


def test_no_regression_for_a_higher_is_better_metric():
    summary = pairs_tool.summarise(
        paired_runs([2.0] * 10, [2.0] * 10, [10.0] * 10, [9.0] * 10), SPEC["end_to_end"], True)
    hits = summary["metrics"]["hits"]
    assert hits["bound"] == 0.05
    assert hits["worse_by"] == pytest.approx(0.1)             # 10 -> 9 hits, 10% fewer
    assert hits["no_regression"] == "regressed"
    assert summary["metrics"]["episode_ms.p90"]["no_regression"] == "holds"


def test_no_regression_is_unresolved_when_the_parent_spreads_wider_than_the_bound():
    spread = [1.0, 3.0] * 5                   # parent quartile spread 2.0 around a median 2.0
    same = pairs_tool.summarise(paired_runs(spread, spread), SPEC["end_to_end"], True)
    assert same["metrics"]["episode_ms.p90"]["worse_by"] == pytest.approx(0.0)
    assert same["metrics"]["episode_ms.p90"]["no_regression"] == "unresolved"
    # unless every change run beats every parent run
    faster = pairs_tool.summarise(paired_runs(spread, [0.5] * 10), SPEC["end_to_end"], True)
    assert faster["metrics"]["episode_ms.p90"]["no_regression"] == "holds"
    slower = pairs_tool.summarise(paired_runs(spread, [2.9, 3.1] * 5), SPEC["end_to_end"], True)
    assert slower["metrics"]["episode_ms.p90"]["no_regression"] == "unresolved"


@pytest.mark.parametrize("returncode, last_line", [
    (2, ""), (0, '{"correct": false, "attempted": 50, "failed": 0, "metrics": {}}')])
def test_a_failed_run_exits_1(checkouts, capsys, monkeypatch, returncode, last_line):
    _, parent = checkouts
    done = SimpleNamespace(returncode=returncode, stderr="boom",
                           stdout=f'{{"provenance": {{}}}}\n{last_line}\n')
    monkeypatch.setattr(pairs_tool.subprocess, "run", lambda command, **kwargs: done)
    assert pairs_tool.main(["--against", str(parent), "--workload", "eval-base",
                            "--seeds", "1-2"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


def test_unknown_workload_is_a_usage_error(checkouts):
    _, parent = checkouts
    with pytest.raises(SystemExit) as leave:
        pairs_tool.main(["--against", str(parent), "--workload", "eval-turbo",
                         "--seeds", "1-2"])
    assert leave.value.code == 2
