"""Acceptance gates: the end-to-end bars this package must clear.

Each gate is a single pass/fail line in the verbose run.  The two trained
fixtures share one desk-scale configuration; every number they feed on is
derived from seeds fixed in this file.
"""

import json
import time
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.special import expit

from mlfewshot import autodiff as ad
from mlfewshot import seeding, verification
from mlfewshot.autodiff import Tensor
from mlfewshot.config import RunConfig
from mlfewshot.embeddings import load_vocabulary, parse_embedding_file
from mlfewshot.episodes import (
    EpisodePool,
    load_manifest,
    make_synthetic,
    records_for_split,
    sample_episode_with_retries,
)
from mlfewshot.errors import DataError
from mlfewshot.features import load_feature_file, write_feature_file
from mlfewshot.joint_space import JointSpaceParams, project_labels
from mlfewshot.lcm import LcmConfig, _image_loss_gradient
from mlfewshot.metrics import (
    evaluate,
    f1_scores,
    macro_average_precision,
    micro_average_precision,
    per_label_average_precision,
)
from mlfewshot.model import FeatureStore, init_model, load_checkpoint, save_checkpoint
from mlfewshot.optim import Adam
from mlfewshot.training import TrainSettings
from mlfewshot.verification import _image_loss, weighted_pool

from conftest import SavedState, run_train
from oracles import _frozen_view, validate_episode

DESK = RunConfig()                     # d_j 64, 8 heads, d_c 16, n_d 8, 30 epochs
TRAIN_SEED = 11
EVAL_SEED = 11
TEST_EPISODES = 50

# every image carries a second label so that globally pooled prototypes mix
# two signatures; the noisy set keeps half of each grid pure noise at a scale
# well below the jitter on signal cells
CLEAN_KNOBS = dict(seed=11, signal_fraction=1.0, signal_noise=0.05,
                   background_scale=1.0, extra_label_prob=0.5)
NOISY_KNOBS = dict(seed=11, signal_fraction=0.5, signal_noise=0.4,
                   background_scale=0.15, extra_label_prob=1.0)
CLEAN_EPISODES_PER_EPOCH = 48
NOISY_EPISODES_PER_EPOCH = 16


@dataclass
class Bundle:
    data: object
    manifest: object
    vocabulary: object
    table: object
    model: object
    checkpoint: object
    train_seconds: float
    cells: dict


def _build(tmp_path_factory, tag, knobs, episodes_per_epoch) -> Bundle:
    root = tmp_path_factory.mktemp(tag)
    data = make_synthetic(root, n_base=8, n_novel=4, images_per_label=40,
                          grid=(6, 6), channels=32, embed_dim=8, **knobs)
    vocabulary = load_vocabulary(data.splits_path)
    manifest = load_manifest(data.manifest_path, vocabulary=vocabulary)
    table = parse_embedding_file(data.embeddings_path)
    model = init_model(channels=32, embed_dim=8, joint_dim=DESK.d_j, heads=DESK.n_heads,
                       dynconv_inner=DESK.d_c, dynconv_top=DESK.n_d, scale=DESK.lambda_,
                       dropout=DESK.dropout, rng=seeding.substream(TRAIN_SEED, "init"))
    settings = TrainSettings(epochs=DESK.epochs, warmup_epochs=DESK.warmup_epochs,
                             episodes_per_epoch=episodes_per_epoch, k_shot=1,
                             lr=DESK.lr, gamma=DESK.gamma, seed=TRAIN_SEED)
    log_path = root / "training_log.csv"
    started = time.monotonic()
    run_train(model, manifest, vocabulary, table, settings, log_path=log_path)
    elapsed = time.monotonic() - started
    checkpoint = root / "model.ckpt"
    save_checkpoint(checkpoint, model, optimizer=SavedState({}), config_scalars={})
    with open(data.cells_path, encoding="utf-8") as handle:
        cells = json.load(handle)
    return Bundle(data, manifest, vocabulary, table, model, checkpoint, elapsed, cells)


@pytest.fixture(scope="session")
def clean_bundle(tmp_path_factory):
    return _build(tmp_path_factory, "clean", CLEAN_KNOBS, CLEAN_EPISODES_PER_EPOCH)


@pytest.fixture(scope="session")
def noisy_bundle(tmp_path_factory):
    return _build(tmp_path_factory, "noisy", NOISY_KNOBS, NOISY_EPISODES_PER_EPOCH)


def _novel_report(bundle, mode, episodes=TEST_EPISODES, theta=0.65, detail=False):
    return evaluate(bundle.model, bundle.manifest, bundle.vocabulary, bundle.table,
                    split="novel", episodes=episodes, k_shot=1, seed=EVAL_SEED,
                    mode=mode, theta=theta, lcm_config=LcmConfig(threshold=theta),
                    store=FeatureStore(bundle.manifest), normalize_embeddings=False,
                    collect_detail=detail, threads=4)


# -------------------------------------------------------------- gradient verification


def test_gradient_checks_every_op_and_full_model():
    started = time.monotonic()
    results = verification.run_suite()
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
    for result in results:
        limit = 1e-4 if result.name == "full-model" else 1e-5
        assert result.max_error <= limit, \
            f"{result.name}: max relative error {result.max_error:.3e} > {limit:.0e}"
    assert any(r.name == "full-model" for r in results)


def test_each_gradient_case_draws_by_name_not_by_position(monkeypatch):
    # deleting cases moves every later one up the list; its inputs, and so
    # its max_error, must stay bitwise as they were
    every = {r.name: r.max_error for r in verification.run_suite()}
    monkeypatch.setattr(verification, "OP_CASES", verification.OP_CASES[1::2])
    kept = verification.run_suite()
    assert len(kept) == len(verification.OP_CASES) + 2   # plus the LCM gradient and full model
    for result in kept:
        assert result.max_error == every[result.name], result.name


# -------------------------------------------------------------- loss-change consistency


def _toy_joint(rng):
    visual = Tensor(rng.standard_normal((6, 4)))
    text = Tensor(rng.standard_normal((6, 5)))
    return JointSpaceParams(visual=visual, text=text, scale=10.0)


def test_loss_change_taylor_matches_definition_exact_and_numeric():
    rng = np.random.default_rng(7)

    # (a) loss linear in the weights: first-order estimate is exact
    fmap = rng.standard_normal((3, 2, 2))
    direction = rng.standard_normal(3)
    rho = rng.uniform(0.2, 1.0, size=(2, 2))

    def linear_loss(weights_data):
        weights = Tensor(np.array(weights_data, copy=True), requires_grad=True)
        pooled = ad.reshape(weighted_pool(Tensor(fmap), weights), (1, 3))
        loss = ad.reshape(ad.matmul(pooled, Tensor(direction.reshape(3, 1))), ())
        loss.backward()
        return loss.item(), np.abs(weights.data * weights.grad)

    base_value, taylor = linear_loss(rho)
    for row in range(2):
        for col in range(2):
            zeroed = rho.copy()
            zeroed[row, col] = 0.0
            exact = abs(base_value - linear_loss(zeroed)[0])
            assert abs(taylor[row, col] - exact) <= 1e-9

    # (b) |rho * dL/drho| against central differences on the BCE image loss
    joint = _toy_joint(rng)
    fmap = rng.standard_normal((4, 3, 3))
    targets = np.array([1.0, 0.0])
    label_embeddings = rng.standard_normal((2, 5))
    rho = rng.uniform(0.3, 1.0, size=(3, 3))
    frozen = _frozen_view(joint)
    joints = project_labels(frozen, label_embeddings)
    gradient = _image_loss_gradient(joint, fmap[None], targets[None], joints.data)
    grid = np.abs(rho * gradient(rho[None])[0])

    def loss_at(weights):
        return _image_loss(frozen, Tensor(fmap), targets, joints, Tensor(weights)).item()

    eps = 1e-6
    for row in range(3):
        for col in range(3):
            plus, minus = rho.copy(), rho.copy()
            plus[row, col] += eps
            minus[row, col] -= eps
            numeric = (loss_at(plus) - loss_at(minus)) / (2 * eps)
            want = abs(rho[row, col] * numeric)
            assert abs(grid[row, col] - want) <= 1e-6


# -------------------------------------------------------------- threshold neutrality


def test_threshold_half_reproduces_base_report_exactly(noisy_bundle):
    base, _ = _novel_report(noisy_bundle, "base", episodes=10)
    lcm, _ = _novel_report(noisy_bundle, "lcm", episodes=10, theta=0.5)
    base_json = json.dumps(base.to_dict(), sort_keys=True)
    lcm_json = json.dumps(lcm.to_dict(), sort_keys=True)
    assert base_json == lcm_json


# -------------------------------------------------------------- metric oracles


def _ap_oracle(scores, targets):
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits, total, npos = 0, 0.0, 0
    for rank, i in enumerate(order, start=1):
        if targets[i]:
            hits += 1
            total += hits / rank
            npos += 1
    return total / npos


def _f1_oracle(pred, act):
    tp = int(np.sum(pred & act))
    fp = int(np.sum(pred & ~act))
    fn = int(np.sum(~pred & act))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)


def test_metrics_match_brute_force_on_1000_batches():
    rng = np.random.default_rng(2024)
    labels = [f"l{j}" for j in range(8)]
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        m = int(rng.integers(1, 9))
        scores = rng.standard_normal((n, m))
        if rng.random() < 0.4:
            scores = np.round(scores, 1)            # tie groups
        targets = rng.integers(0, 2, size=(n, m)).astype(float)
        if targets.sum() == 0:
            targets[rng.integers(n), rng.integers(m)] = 1.0

        flat_s, flat_y = scores.reshape(-1), targets.reshape(-1)
        want_micro = _ap_oracle(list(flat_s), list(flat_y))
        assert abs(micro_average_precision(scores, targets) - want_micro) <= 1e-9

        defined = [j for j in range(m) if targets[:, j].sum() > 0]
        want_macro = np.mean([_ap_oracle(list(scores[:, j]), list(targets[:, j]))
                              for j in defined])
        got_macro = macro_average_precision(
            per_label_average_precision(scores, targets, labels[:m]))
        assert abs(got_macro - want_macro) <= 1e-9

        probs = expit(scores)
        micro, macro = f1_scores(probs, targets)
        pred, act = probs > 0.5, targets > 0.5
        assert abs(micro - _f1_oracle(pred.reshape(-1), act.reshape(-1))) <= 1e-9
        want = np.mean([_f1_oracle(pred[:, j], act[:, j]) for j in range(m)])
        assert abs(macro - want) <= 1e-9


# -------------------------------------------------------------- sampler soundness


def test_ten_thousand_sampled_episodes_are_sound(clean_bundle):
    bundle = clean_bundle
    labels = list(bundle.vocabulary.novel)
    pool = EpisodePool(bundle.manifest,
                       records_for_split(bundle.manifest, bundle.vocabulary, "novel"))
    violations = 0
    for idx in range(10_000):
        k_shot = 1 if idx % 2 == 0 else 2
        episode = sample_episode_with_retries(
            pool, labels, k_shot,
            lambda attempt: seeding.substream(99, "soundness", idx, attempt))
        problems = validate_episode(episode)
        if problems:
            violations += 1
            continue
        if len(episode.support_ids) != k_shot * len(labels):
            violations += 1
        if len(episode.query_ids) != 4 * len(labels):
            violations += 1
        if set(episode.support_ids) & set(episode.query_ids):
            violations += 1
    assert violations == 0


# -------------------------------------------------------------- quality bars


def test_trained_model_clears_quality_bars_on_clean_benchmark(clean_bundle):
    assert clean_bundle.train_seconds <= 300.0, \
        f"training took {clean_bundle.train_seconds:.0f}s, budget is 300s"
    base, _ = _novel_report(clean_bundle, "base")
    zero, _ = _novel_report(clean_bundle, "zeroshot")
    assert base.macro_ap >= 0.90, f"base macro AP {base.macro_ap:.4f} < 0.90"
    assert zero.macro_ap >= 0.60, f"zero-shot macro AP {zero.macro_ap:.4f} < 0.60"


def test_training_loss_falls_over_first_ten_epochs_smoothed(clean_bundle):
    # window-3 moving average of the per-epoch total loss, strictly
    # decreasing across the first ten epochs
    log_path = clean_bundle.data.manifest_path.parent / "training_log.csv"
    rows = log_path.read_text().splitlines()
    assert rows[0] == "epoch,cm_loss,query_loss,total_loss,lr"
    totals = [float(line.split(",")[3]) for line in rows[1:]]
    assert len(totals) >= 10
    smoothed = [np.mean(totals[max(0, i - 2): i + 1]) for i in range(10)]
    for earlier, later in zip(smoothed, smoothed[1:]):
        assert later < earlier, f"smoothed loss rose: {smoothed}"


# -------------------------------------------------------------- feature selection


def test_feature_selection_never_hurts_and_finds_planted_cells(noisy_bundle):
    bundle = noisy_bundle
    base, _ = _novel_report(bundle, "base")
    lcm, detail = _novel_report(bundle, "lcm", detail=True)
    assert lcm.macro_ap >= base.macro_ap, \
        f"lcm macro AP {lcm.macro_ap:.4f} < base {base.macro_ap:.4f}"

    wins = total = 0
    for entry in detail:
        truth = bundle.cells[entry["image_id"]]
        planted = np.array([[cell is not None for cell in row] for row in truth])
        sig = entry["sigma"]
        planted_mean = sig[planted].mean()
        noise_mean = sig[~planted].mean()
        total += 1
        if planted_mean > noise_mean:
            wins += 1
    assert total >= TEST_EPISODES * len(bundle.vocabulary.novel)
    assert wins >= 0.90 * total, \
        f"planted-cell sigma higher in only {wins}/{total} support images"


# -------------------------------------------------------------- ablation direction


def test_uniform_pooling_ablation_underperforms_full_model(noisy_bundle):
    base, _ = _novel_report(noisy_bundle, "base")
    simple, _ = _novel_report(noisy_bundle, "simple-attention")
    assert simple.macro_ap < base.macro_ap, \
        f"simple-attention {simple.macro_ap:.4f} not below base {base.macro_ap:.4f}"


# -------------------------------------------------------------- determinism and formats


def _short_training(tmp_path, seed=5):
    data = make_synthetic(tmp_path, n_base=3, n_novel=2, images_per_label=6,
                          grid=(4, 4), channels=16, embed_dim=4,
                          signal_fraction=1.0, signal_noise=0.1, seed=7)
    vocabulary = load_vocabulary(data.splits_path)
    manifest = load_manifest(data.manifest_path, vocabulary=vocabulary)
    table = parse_embedding_file(data.embeddings_path)
    model = init_model(channels=16, embed_dim=4, joint_dim=8, heads=2,
                       dynconv_inner=4, dynconv_top=4, scale=10.0, dropout=0.1,
                       rng=seeding.substream(seed, "init"))
    settings = TrainSettings(epochs=2, warmup_epochs=1, episodes_per_epoch=2,
                             k_shot=1, lr=0.001, gamma=1.0, seed=seed)
    optimizer = Adam(model.named_parameters(), settings.lr)
    run_train(model, manifest, vocabulary, table, settings, optimizer=optimizer)
    checkpoint = tmp_path / "model.ckpt"
    save_checkpoint(checkpoint, model, optimizer=optimizer, config_scalars={})
    report, _ = evaluate(model, manifest, vocabulary, table, split="novel", episodes=3,
                         k_shot=1, seed=seed, mode="base", theta=0.65, lcm_config=LcmConfig(),
                         store=FeatureStore(manifest), normalize_embeddings=False, threads=1)
    return checkpoint.read_bytes(), json.dumps(report.to_dict(), sort_keys=True)


def test_bitwise_determinism_round_trips_and_corruption_errors(tmp_path):
    first_ckpt, first_report = _short_training(tmp_path / "a")
    second_ckpt, second_report = _short_training(tmp_path / "b")
    assert first_ckpt == second_ckpt, "same seed produced different checkpoints"
    assert first_report == second_report, "same seed produced different reports"

    # feature file round trip is bitwise stable
    rng = np.random.default_rng(3)
    fmap_path = tmp_path / "img.fmap"
    write_feature_file(fmap_path, rng.standard_normal((5, 3, 2)))
    original = fmap_path.read_bytes()
    again = tmp_path / "img2.fmap"
    write_feature_file(again, load_feature_file(fmap_path))
    assert again.read_bytes() == original

    # checkpoint round trip is bitwise stable: load then save matches a
    # fresh save of the in-memory model it came from
    ckpt_path = tmp_path / "a" / "model.ckpt"
    model, _ = load_checkpoint(ckpt_path)
    rewritten = tmp_path / "rewritten.ckpt"
    plain = tmp_path / "plain.ckpt"
    save_checkpoint(rewritten, model, optimizer=SavedState({}), config_scalars={})
    reloaded, _ = load_checkpoint(rewritten)
    save_checkpoint(plain, reloaded, optimizer=SavedState({}), config_scalars={})
    assert rewritten.read_bytes() == plain.read_bytes()

    # corrupt headers are rejected with their documented error codes
    bad_magic = tmp_path / "bad.fmap"
    bad_magic.write_bytes(b"XMAP1" + original[5:])
    with pytest.raises(DataError, match="bad-magic"):
        load_feature_file(bad_magic)
    shorted = tmp_path / "short.fmap"
    shorted.write_bytes(original[:10])
    with pytest.raises(DataError, match="truncated"):
        load_feature_file(shorted)
    not_ckpt = tmp_path / "bad.ckpt"
    not_ckpt.write_bytes(b"NOPE!" + first_ckpt[5:])
    with pytest.raises(DataError, match="bad-magic"):
        load_checkpoint(not_ckpt)
    with pytest.raises(DataError, match="no-checkpoint"):
        load_checkpoint(tmp_path / "absent.ckpt")
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(first_ckpt[: len(first_ckpt) // 2])
    with pytest.raises(DataError, match="truncated"):
        load_checkpoint(cut)
