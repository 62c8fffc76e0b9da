"""Quick tests of the benchmark itself, on a tiny generated bundle.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import fixture  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from mlfewshot import metrics, training, verification  # noqa: E402
from mlfewshot.episodes import make_synthetic  # noqa: E402
from tracing import Tracer  # noqa: E402

TINY = dict(d_j=16, n_heads=4, d_c=4, n_d=4, epochs=3, warmup_epochs=1,
            episodes_per_epoch=3, eval_episodes=4, lcm_epochs=3)


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A tiny bundle with a briefly trained checkpoint, set up as a run does."""
    root = tmp_path_factory.mktemp("bench_tiny")
    make_synthetic(root, n_base=4, n_novel=2, images_per_label=14, grid=(4, 4), channels=8,
                   embed_dim=8, seed=21)
    inputs, cfg, phases = fixture.set_up(root, 21, None, cfg_overrides=TINY)
    workloads.train_round(inputs, cfg, root / "model.ckpt", inputs.model)
    return inputs, cfg, phases


def _report(round_output):
    return json.dumps(round_output[0].to_dict(), sort_keys=True)


def test_set_up_times_every_phase(tiny):
    _, _, phases = tiny
    assert set(phases) == {"import_s", "load_s", "model_s", "setup_s"}
    assert abs(phases["setup_s"] - sum(v for k, v in phases.items() if k != "setup_s")) < 1e-12


def test_traced_run_gives_bitwise_equal_results(tiny, tmp_path):
    inputs, cfg, _ = tiny
    plain = {mode: workloads.eval_round(inputs, cfg, mode) for mode in ("base", "lcm")}
    workloads.train_round(inputs, cfg, tmp_path / "plain.ckpt")
    original = metrics.evaluate
    tracer = Tracer().install()
    try:
        traced = {mode: workloads.eval_round(inputs, cfg, mode) for mode in ("base", "lcm")}
        workloads.train_round(inputs, cfg, tmp_path / "traced.ckpt")
    finally:
        tracer.uninstall()
    assert metrics.evaluate is original and training.train.__name__ == "train"
    assert tracer.named("metrics.evaluate") and tracer.named("training.train")
    assert tracer.op_calls["cosine"] > 0 and tracer.named("autodiff.backward")
    for mode in plain:
        assert _report(plain[mode]) == _report(traced[mode])
    for a, b in zip(plain["lcm"][1], traced["lcm"][1]):
        assert np.array_equal(a["sigma"], b["sigma"]) and np.array_equal(a["mask"], b["mask"])
    assert (tmp_path / "plain.ckpt").read_bytes() == (tmp_path / "traced.ckpt").read_bytes()


def test_episode_times_cover_each_round(tiny):
    inputs, cfg, _ = tiny
    tracer = Tracer(only=(workloads.MARKER, "metrics.evaluate")).install()
    try:
        workloads.eval_round(inputs, cfg, "base")
        workloads.eval_round(inputs, cfg, "base")
    finally:
        tracer.uninstall()
    durations = tracer.episode_seconds(workloads.MARKER, "metrics.evaluate")
    assert len(durations) == 2 * cfg.eval_episodes and min(durations) > 0
    assert sum(durations) <= tracer.total_seconds("metrics.evaluate")
    assert not tracer.op_calls


def test_layer_metrics_cover_what_benchmark_json_declares(tiny):
    inputs, cfg, _ = tiny
    tracer = Tracer().install()
    try:
        workloads.eval_round(inputs, cfg, "lcm")
    finally:
        tracer.uninstall()
    produced = set(workloads.layer_metrics(tracer, cfg.eval_episodes)) | set(workloads.LCM_SHARES)
    produced |= {"setup.import_s", "setup.load_s", "setup.model_s", "setup.feature_loads"}
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} <= produced


# ------------------------------------------------------------- checks fail on wrong answers


def test_reference_matches_report_and_rejects_perturbed_probabilities(tiny):
    inputs, cfg, _ = tiny
    tracer = Tracer(only=(workloads.MARKER,), keep={workloads.MARKER: 100}).install()
    try:
        report, _ = workloads.eval_round(inputs, cfg, "base")
    finally:
        tracer.uninstall()
    base = reference.BaseModel(reference.read_checkpoint(inputs.bundle / "model.ckpt"))
    embeddings = reference.read_embeddings(inputs.bundle / "embeddings.txt")
    files = {r.image_id: inputs.bundle / r.features for r in inputs.manifest.records}

    def fmap(image_id):
        return reference.read_feature_map(files[image_id])

    episodes = tracer.results[workloads.MARKER]
    probs = [base.probabilities(e, fmap, embeddings) for e in episodes]
    assert len(episodes) == cfg.eval_episodes

    def check(all_probs):
        per_episode = [reference.episode_metrics(p, e.query_targets)
                       for p, e in zip(all_probs, episodes)]
        return checks.report_matches(reference.mean_metrics(per_episode), report.to_dict())

    assert check(probs) == []
    assert check([1.0 - p for p in probs])


def test_oracles_agree_with_hand_values():
    assert reference.average_precision([0.9, 0.8, 0.7], [False, True, True]) == pytest.approx(
        (1 / 2 + 2 / 3) / 2)
    assert reference.average_precision([0.5, 0.5], [False, True]) == 0.5   # ties keep order
    assert reference.f1([True, True, False], [True, False, True]) == 0.5


def _entry(sigma, mask, importance=None):
    sigma = np.asarray(sigma, dtype=float)
    return {"image_id": "img00000", "sigma": sigma, "mask": np.asarray(mask, dtype=bool),
            "importance": np.ones_like(sigma) if importance is None else np.asarray(importance)}


def test_mask_check_rejects_a_mask_that_disagrees_with_sigma():
    sigma = [[0.7, 0.5], [0.66, 0.6]]
    assert checks.masks_follow_sigma([_entry(sigma, [[1, 0], [1, 0]])], 0.65) == []
    assert checks.masks_follow_sigma([_entry(sigma, [[1, 0], [0, 0]])], 0.65)
    assert checks.masks_follow_sigma([_entry(sigma, [[1, 1], [1, 1]])], 0.65)
    low = [[0.5, 0.6], [0.6, 0.5]]
    assert checks.masks_follow_sigma([_entry(low, [[1, 1], [1, 1]])], 0.65) == []
    assert checks.masks_follow_sigma([_entry(low, [[0, 1], [1, 0]])], 0.65)


def test_importance_check_rejects_values_outside_unit_range():
    sigma = [[0.5, 0.5]]
    assert checks.importance_in_unit_range([_entry(sigma, [[1, 1]], [[0.2, 1.0]])]) == []
    assert checks.importance_in_unit_range([_entry(sigma, [[1, 1]], [[0.2, 0.9]])])
    assert checks.importance_in_unit_range([_entry(sigma, [[1, 1]], [[-0.1, 1.0]])])
    assert checks.importance_in_unit_range([_entry(sigma, [[1, 1]], [[0.2, 1.5]])])


def test_planted_cell_check_rejects_sigma_favouring_noise():
    cells = {"img00000": [["lab00", None], [None, "lab01"]]}
    good = [_entry([[0.7, 0.5], [0.5, 0.6]], [[1, 0], [0, 1]])]
    bad = [_entry([[0.5, 0.7], [0.6, 0.5]], [[0, 1], [1, 0]])]
    assert checks.planted_cells_score_higher(good * 9 + bad, cells) == []
    assert checks.planted_cells_score_higher(good * 8 + bad * 2, cells)


def test_loss_checks_reject_rising_or_non_finite_losses():
    falling = [10.0 - i for i in range(12)]
    assert checks.smoothed_loss_falls(falling) == []
    rising = list(falling)
    rising[5] = 20.0
    assert checks.smoothed_loss_falls(rising)
    assert checks.smoothed_loss_falls(falling[:9])
    rows = [training.EpochRow(0, 1.0, 2.0, 3.0, 0.1), training.EpochRow(1, float("nan"), 2.0,
                                                                        float("nan"), 0.1)]
    assert checks.losses_finite(rows[:1]) == []
    assert checks.losses_finite(rows)


def test_comparison_checks_reject_wrong_answers():
    assert checks.same_bytes(b"ab", b"ab", "x") == [] and checks.same_bytes(b"ab", b"ac", "x")
    a = {"w": np.array([1.0, 2.0])}
    assert checks.same_arrays(a, {"w": np.array([1.0, 2.0])}, "x") == []
    assert checks.same_arrays(a, {"w": np.array([1.0, 2.0 + 1e-15])}, "x")
    assert checks.same_arrays(a, {"v": np.array([1.0, 2.0])}, "x")
    assert checks.lcm_not_below_base(0.8, 0.8) == [] and checks.lcm_not_below_base(0.79, 0.8)
    assert checks.base_beats_ablation(0.8, 0.7) == [] and checks.base_beats_ablation(0.7, 0.7)
    bad = verification.CheckResult(name="cosine", max_error=1e-3, tolerance=1e-5)
    good = verification.CheckResult(name="add", max_error=1e-9, tolerance=1e-5)
    assert checks.gradient_suite_passes([good]) == [] and checks.gradient_suite_passes([bad])


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns(".cache", ".out",
                                                                             "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "eval-base", "--seed",
                           "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""
    assert not (tmp_path / "bench" / ".cache").exists()
