"""Ranking metrics against brute-force oracles, plus episodic evaluation."""

import logging

import numpy as np
import pytest

from mlfewshot import seeding
from mlfewshot.config import RunConfig
from mlfewshot.embeddings import embed_label, load_vocabulary, parse_embedding_file
from mlfewshot.episodes import (
    load_manifest,
    make_synthetic,
    records_for_split,
    sample_episode_with_retries,
)
from mlfewshot.errors import ConfigError
from mlfewshot.lcm import LcmConfig, fit_importance, select_features
from mlfewshot.metrics import (
    EVAL_MODES,
    MetricsReport,
    UndefinedAveragePrecision,
    average_precision,
    evaluate,
    f1_scores,
    macro_average_precision,
    micro_average_precision,
    per_label_average_precision,
)
from mlfewshot.model import FeatureStore, init_model


# ------------------------------------------------------- oracles (independent)


def ap_oracle(scores, targets):
    # stable descending sort, then mean precision at each positive's rank
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits, total, npos = 0, 0.0, 0
    for rank, i in enumerate(order, start=1):
        if targets[i]:
            hits += 1
            total += hits / rank
            npos += 1
    return total / npos


def f1_oracle(pred, act):
    tp = int(np.sum(pred & act))
    fp = int(np.sum(pred & ~act))
    fn = int(np.sum(~pred & act))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


# ---------------------------------------------------------- average precision


def test_ap_hand_example():
    # positives at ranks 1 and 3: (1/1 + 2/3) / 2
    value = average_precision([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0])
    assert abs(value - 5 / 6) <= 1e-12


def test_ap_perfect_and_worst():
    assert average_precision([3.0, 2.0, 1.0], [1, 1, 0]) == 1.0
    assert abs(average_precision([3.0, 2.0, 1.0], [0, 0, 1]) - 1 / 3) <= 1e-12


def test_ap_ties_keep_original_order():
    assert average_precision([0.5, 0.5], [1, 0]) == 1.0
    assert average_precision([0.5, 0.5], [0, 1]) == 0.5


def test_ap_all_positive():
    assert average_precision(np.zeros(5), np.ones(5)) == 1.0


def test_ap_no_positives_is_undefined():
    with pytest.raises(UndefinedAveragePrecision, match="no positive targets"):
        average_precision([0.1, 0.2], [0, 0])


def test_ap_shape_mismatch():
    with pytest.raises(ConfigError):
        average_precision([0.1, 0.2], [1])


def test_ap_matches_oracle_on_random_batches():
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = rng.integers(1, 30)
        scores = rng.standard_normal(n)
        if rng.random() < 0.5:                     # force tie groups
            scores = np.round(scores, 1)
        targets = rng.integers(0, 2, size=n)
        if targets.sum() == 0:
            targets[rng.integers(n)] = 1
        got = average_precision(scores, targets)
        assert abs(got - ap_oracle(list(scores), list(targets))) <= 1e-12


def test_micro_ap_is_flattened_ap():
    rng = np.random.default_rng(1)
    scores = rng.standard_normal((5, 3))
    targets = rng.integers(0, 2, size=(5, 3))
    targets[0, 0] = 1
    assert micro_average_precision(scores, targets) == \
        average_precision(scores.reshape(-1), targets.reshape(-1))


def test_per_label_skips_empty_columns():
    scores = np.array([[0.9, 0.1], [0.2, 0.8]])
    targets = np.array([[1, 0], [0, 0]])
    per = per_label_average_precision(scores, targets, ["a", "b"])
    assert set(per) == {"a"}
    assert macro_average_precision(per) == per["a"]


def test_macro_ap_mean_of_defined_labels():
    scores = np.array([[0.9, 0.1], [0.2, 0.8], [0.5, 0.5]])
    targets = np.array([[1, 0], [0, 1], [0, 1]])
    per = per_label_average_precision(scores, targets, ["a", "b"])
    expected = (per["a"] + per["b"]) / 2
    assert abs(macro_average_precision(per) - expected) <= 1e-12


def test_macro_ap_all_empty_is_undefined():
    with pytest.raises(UndefinedAveragePrecision, match="no label has positive"):
        macro_average_precision(
            per_label_average_precision(np.ones((2, 2)), np.zeros((2, 2)), ["a", "b"]))


# ------------------------------------------------------------------------- F1


def test_f1_threshold_is_strict():
    micro, _ = f1_scores([[0.5]], [[1]])
    assert micro == 0.0                             # 0.5 itself is negative
    micro, _ = f1_scores([[0.5000001]], [[1]])
    assert micro == 1.0


def test_f1_empty_label_counts_as_zero():
    probs = np.array([[0.9, 0.1], [0.8, 0.2]])
    targets = np.array([[1, 0], [1, 0]])
    micro, macro = f1_scores(probs, targets)
    assert micro == 1.0
    assert macro == 0.5                             # (1.0 + 0.0) / 2


def test_f1_zero_everywhere():
    micro, macro = f1_scores(np.zeros((3, 2)), np.zeros((3, 2)))
    assert micro == 0.0 and macro == 0.0


def test_f1_matches_oracle_on_random_batches():
    rng = np.random.default_rng(2)
    for _ in range(300):
        n, m = rng.integers(1, 13), rng.integers(1, 9)
        probs = rng.random((n, m))
        targets = rng.integers(0, 2, size=(n, m))
        micro, macro = f1_scores(probs, targets)
        pred, act = probs > 0.5, targets > 0.5
        assert abs(micro - f1_oracle(pred.reshape(-1), act.reshape(-1))) <= 1e-12
        want = np.mean([f1_oracle(pred[:, j], act[:, j]) for j in range(m)])
        assert abs(macro - want) <= 1e-12


def test_f1_shape_mismatch():
    with pytest.raises(ConfigError):
        f1_scores(np.ones((2, 2)), np.ones((2, 3)))


def test_report_dict_sorts_labels():
    report = MetricsReport(1.0, 1.0, 1.0, 1.0, per_label_ap={"b": 0.2, "a": 0.1})
    assert list(report.to_dict()["per_label_ap"]) == ["a", "b"]


# ------------------------------------------------------------------ evaluate


def run_evaluate(model, manifest, vocabulary, table, **given):
    """evaluate() on the novel split in base mode, with RunConfig()'s value
    for every other argument that is not given."""
    cfg = RunConfig()
    arguments = dict(split="novel", episodes=cfg.eval_episodes, k_shot=cfg.k_shot,
                     seed=cfg.seed, mode="base", theta=cfg.theta, lcm_config=cfg.lcm_config(),
                     normalize_embeddings=cfg.normalize_embeddings, threads=cfg.threads)
    return evaluate(model, manifest, vocabulary, table, **{**arguments, **given})


@pytest.fixture(scope="module")
def tiny_setup(tmp_path_factory):
    root = tmp_path_factory.mktemp("tinyeval")
    data = make_synthetic(root, n_base=3, n_novel=2, images_per_label=6,
                          grid=(4, 4), channels=16, embed_dim=4,
                          signal_fraction=1.0, signal_noise=0.1, seed=5)
    vocabulary = load_vocabulary(data.splits_path)
    manifest = load_manifest(data.manifest_path, vocabulary=vocabulary)
    table = parse_embedding_file(data.embeddings_path)
    model = init_model(channels=16, embed_dim=4, joint_dim=8, heads=2,
                       dynconv_inner=3, dynconv_top=4, scale=10.0, dropout=0.1,
                       rng=seeding.substream(9, "init"))
    return manifest, vocabulary, table, model


def test_evaluate_rejects_bad_arguments(tiny_setup):
    manifest, vocabulary, table, model = tiny_setup
    with pytest.raises(ConfigError, match="unknown-mode"):
        run_evaluate(model, manifest, vocabulary, table, mode="turbo")
    with pytest.raises(ConfigError, match="no labels"):
        run_evaluate(model, manifest, vocabulary, table, split="validation")


def test_evaluate_rejects_zero_episodes(tiny_setup):
    manifest, vocabulary, table, model = tiny_setup
    with pytest.raises(ConfigError, match="episodes must be >= 1, got 0"):
        run_evaluate(model, manifest, vocabulary, table, episodes=0)


def test_evaluate_rejects_zero_threads(tiny_setup):
    manifest, vocabulary, table, model = tiny_setup
    with pytest.raises(ConfigError, match="threads must be >= 1, got 0"):
        run_evaluate(model, manifest, vocabulary, table, threads=0)


def test_evaluate_is_deterministic(tiny_setup):
    manifest, vocabulary, table, model = tiny_setup
    first, _ = run_evaluate(model, manifest, vocabulary, table, episodes=3, seed=4)
    second, _ = run_evaluate(model, manifest, vocabulary, table, episodes=3, seed=4)
    assert first.to_dict() == second.to_dict()
    assert first.episodes == 3
    assert set(first.per_label_ap) <= set(vocabulary.novel)


def test_evaluate_threads_match_serial(tiny_setup):
    manifest, vocabulary, table, model = tiny_setup
    for mode in ("base", "zeroshot", "simple-attention"):
        serial, _ = run_evaluate(model, manifest, vocabulary, table,
                                 episodes=4, seed=6, mode=mode, threads=1)
        threaded, _ = run_evaluate(model, manifest, vocabulary, table,
                                   episodes=4, seed=6, mode=mode, threads=3)
        assert serial.to_dict() == threaded.to_dict(), mode


def test_evaluate_every_mode_reports_sane_values(tiny_setup):
    manifest, vocabulary, table, model = tiny_setup
    for mode in EVAL_MODES:
        if mode == "lcm":
            continue                                # needs a trained model
        report, detail = run_evaluate(model, manifest, vocabulary, table,
                                      episodes=2, seed=8, mode=mode)
        data = report.to_dict()
        for key in ("micro_ap", "macro_ap", "micro_f1", "macro_f1"):
            assert 0.0 <= data[key] <= 1.0, (mode, key)
        assert detail == []


def test_evaluate_lcm_detail_rows(tiny_setup):
    manifest, vocabulary, table, model = tiny_setup
    model.epoch = 1                                 # mark as trained
    try:
        report, detail = run_evaluate(model, manifest, vocabulary, table,
                                      episodes=2, seed=3, mode="lcm",
                                      collect_detail=True)
    finally:
        model.epoch = 0
    assert report.episodes == 2
    assert len(detail) == 2 * len(vocabulary.novel)  # one row per support image
    for entry in detail:
        assert entry["sigma"].shape == (4, 4)
        assert entry["mask"].shape == (4, 4)
        assert entry["mask"].dtype == bool
        assert entry["importance"].shape == (4, 4)
        assert entry["episode"] in (0, 1)
        assert entry["image_id"].startswith("img")


def test_evaluate_lcm_fits_each_grid_shape_alone(tiny_setup):
    # odd-numbered images get a cropped 3x4 grid, so episodes mix grid
    # shapes; each image's mask must be the one a fit of it alone gives
    manifest, vocabulary, table, model = tiny_setup
    features = FeatureStore(manifest)
    store = {}
    for image_id in manifest.by_id:
        fmap = features.get(image_id)
        store[image_id] = fmap[:, :3, :] if int(image_id[3:]) % 2 else fmap
    theta, seed, labels = 0.55, 7, list(vocabulary.labels_for("base"))
    embed_matrix = np.stack([embed_label(table, label) for label in labels])
    model.epoch = 1                                 # mark as trained
    try:
        _, detail = run_evaluate(model, manifest, vocabulary, table, split="base", episodes=3,
                                 seed=seed, mode="lcm", theta=theta, store=store,
                                 collect_detail=True)
        record_pool = records_for_split(manifest, vocabulary, "base")
        shapes = set()
        for idx in range(3):
            episode = sample_episode_with_retries(
                manifest, record_pool, labels, 1,
                lambda attempt: seeding.substream(seed, "eval", idx, attempt))
            rows = [entry for entry in detail if entry["episode"] == idx]
            assert [entry["image_id"] for entry in rows] == list(episode.support_ids)
            for i, (image_id, entry) in enumerate(zip(episode.support_ids, rows)):
                alone = fit_importance(model.joint, store[image_id][None],
                                       episode.support_targets[i:i + 1], embed_matrix,
                                       LcmConfig(threshold=theta))
                (mask,), _ = select_features(alone, theta)
                assert np.array_equal(entry["mask"], mask)
                assert np.array_equal(entry["importance"], alone.importance[0])
            shapes |= {frozenset(store[image_id].shape for image_id in episode.support_ids)}
    finally:
        model.epoch = 0
    assert any(len(grids) > 1 for grids in shapes)  # some episode mixed grid shapes


def test_evaluate_lcm_summarises_fallbacks_in_one_warning(tiny_setup, caplog):
    manifest, vocabulary, table, model = tiny_setup
    theta = 0.99                                    # no cell clears it here
    model.epoch = 1                                 # mark as trained
    try:
        for threads in (1, 3):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="mlfewshot"):
                _, detail = run_evaluate(model, manifest, vocabulary, table,
                                         episodes=4, seed=3, mode="lcm", theta=theta,
                                         collect_detail=True, threads=threads)
            fell_back = sum(not (entry["sigma"] >= theta).any() for entry in detail)
            assert fell_back > 0
            warnings = [r.getMessage() for r in caplog.records
                        if r.levelno == logging.WARNING]
            assert warnings == [f"lcm: {fell_back} of {len(detail)} support masks "
                                f"fell back to keep-all at theta={theta}"], threads
    finally:
        model.epoch = 0


def test_evaluate_modes_share_episodes(tiny_setup):
    # per-label AP keys must match across modes at one seed, since the
    # episode stream depends only on (seed, index)
    manifest, vocabulary, table, model = tiny_setup
    base, _ = run_evaluate(model, manifest, vocabulary, table, episodes=3, seed=12,
                           mode="base")
    zero, _ = run_evaluate(model, manifest, vocabulary, table, episodes=3, seed=12,
                           mode="zeroshot")
    assert set(base.per_label_ap) == set(zero.per_label_ap)
