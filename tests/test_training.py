"""Training loop: schedule, losses, determinism, logging, resume."""

import csv
import math

import numpy as np
import pytest
from scipy.special import expit

from mlfewshot import metrics, seeding, training
from mlfewshot.autodiff import Tensor
from mlfewshot.episodes import records_for_split, sample_episode
from mlfewshot.errors import ConfigError, NumericError
from mlfewshot.joint_space import JointSpaceParams
from mlfewshot.model import FeatureStore, save_checkpoint, score_loss
from mlfewshot.optim import Adam
from mlfewshot.training import (
    TrainSettings,
    episode_losses,
    train,
    warmup_lr,
)

from conftest import build_tiny_model


# ----------------------------------------------------------------- schedule


def test_warmup_ramps_from_zero_then_holds():
    assert warmup_lr(0.001, 0, 3) == 0.0
    assert warmup_lr(0.001, 1, 3) == pytest.approx(0.001 / 3, abs=1e-18)
    assert warmup_lr(0.001, 2, 3) == pytest.approx(0.002 / 3, abs=1e-18)
    assert warmup_lr(0.001, 3, 3) == 0.001
    assert warmup_lr(0.001, 29, 3) == 0.001


def test_no_warmup_means_full_rate_immediately():
    assert warmup_lr(0.01, 0, 0) == 0.01


def test_settings_validation():
    with pytest.raises(ConfigError):
        TrainSettings(lr=0.0)
    with pytest.raises(ConfigError):
        TrainSettings(gamma=-0.5)
    with pytest.raises(ConfigError):
        TrainSettings(k_shot=0)
    with pytest.raises(ConfigError):
        TrainSettings(epochs=-1)
    with pytest.raises(ConfigError):
        TrainSettings(epochs=3, warmup_epochs=3)
    TrainSettings(epochs=0, warmup_epochs=3)   # identity run stays legal


# --------------------------------------------------------------- query loss
# the query loss is score_loss of the query globals against the prototypes


def identity_joint(dim=2, scale=10.0):
    return JointSpaceParams(visual=Tensor(np.eye(dim), requires_grad=True),
                            text=Tensor(np.eye(dim), requires_grad=True),
                            scale=scale)


def test_query_loss_zero_scores_oracle():
    # orthogonal prototype and query give score 0, so every (query, label)
    # term is ln 2 regardless of its target
    joint = identity_joint()
    globals_ = [Tensor(np.array([1.0, 0.0])), Tensor(np.array([1.0, 0.0]))]
    protos = [Tensor(np.array([0.0, 1.0])), Tensor(np.array([0.0, -1.0]))]
    targets = np.array([[1.0, 0.0], [0.0, 1.0]])
    loss = score_loss(joint, globals_, protos, targets)
    assert loss.item() == pytest.approx(4 * math.log(2.0), abs=1e-12)


def test_query_loss_perfect_prototype_oracle():
    # prototype equal to the projected query global: cos 1, score 10,
    # positive target contributes -log sigma(10)
    joint = identity_joint()
    g = Tensor(np.array([0.6, 0.8]))
    loss = score_loss(joint, [g], [Tensor(np.array([0.6, 0.8]))], np.array([[1.0]]))
    assert loss.item() == pytest.approx(math.log1p(math.exp(-10.0)), rel=1e-12)


def test_query_loss_matches_independent_bce_oracle():
    rng = np.random.default_rng(5)
    joint = identity_joint(dim=3, scale=7.0)
    globals_ = [Tensor(rng.standard_normal(3)) for _ in range(4)]
    protos = [Tensor(rng.standard_normal(3)) for _ in range(2)]
    targets = (rng.random((4, 2)) < 0.5).astype(np.float64)
    loss = score_loss(joint, globals_, protos, targets)
    expected = 0.0
    for i, g in enumerate(globals_):
        for j, p in enumerate(protos):
            s = 7.0 * float(g.data @ p.data) / (
                np.linalg.norm(g.data) * np.linalg.norm(p.data))
            prob = 1.0 / (1.0 + math.exp(-s))
            y = targets[i, j]
            expected += -(y * math.log(prob) + (1 - y) * math.log(1 - prob))
    assert loss.item() == pytest.approx(expected, rel=1e-10)


# ------------------------------------------------------------ gamma scaling


def test_gamma_zero_leaves_prototype_modules_untouched(tiny_data):
    model = build_tiny_model(tiny_data["table"], seed=33)
    before = {n: p.data.copy() for n, p in model.named_parameters().items()}
    settings = TrainSettings(epochs=2, warmup_epochs=1, episodes_per_epoch=3,
                             lr=0.01, gamma=0.0, seed=33)
    train(model, tiny_data["manifest"], tiny_data["vocabulary"],
          tiny_data["table"], settings)
    for name, p in model.named_parameters().items():
        if name.startswith(("attention.", "dynconv.")):
            assert np.array_equal(p.data, before[name]), name
        else:
            assert not np.array_equal(p.data, before[name]), name


def test_gamma_zero_gradients_are_exactly_zero(tiny_data):
    import mlfewshot.autodiff as ad
    model = build_tiny_model(tiny_data["table"], seed=34)
    manifest = tiny_data["manifest"]
    store = FeatureStore(manifest)
    pool = records_for_split(manifest, tiny_data["vocabulary"], "base")
    labels = list(tiny_data["vocabulary"].base)
    episode = sample_episode(manifest, pool, labels, 1, np.random.default_rng(0))
    emb = {l: tiny_data["table"].vectors[l] for l in labels}
    cm, q = episode_losses(model, episode, store, emb, training=False)
    total = ad.add(cm, ad.scale(q, 0.0))
    total.backward()
    for name, p in model.named_parameters().items():
        if name.startswith(("attention.", "dynconv.")):
            assert p.grad is None or not np.any(p.grad), name
    assert np.any(model.joint.visual.grad)
    assert np.any(model.joint.text.grad)


def test_base_evaluation_scores_the_training_forward(tiny_trained, monkeypatch):
    # training and evaluation share one episode forward: base-mode
    # probabilities are the sigmoid of the query logits the losses score
    manifest, vocabulary = tiny_trained["manifest"], tiny_trained["vocabulary"]
    model, store = tiny_trained["model"], FeatureStore(manifest)
    labels = list(vocabulary.novel)
    pool = records_for_split(manifest, vocabulary, "novel")
    episode = sample_episode(manifest, pool, labels, 1, np.random.default_rng(3))
    emb = {label: tiny_trained["table"].vectors[label] for label in labels}
    forward, seen = training.episode_forward, []

    def recording_forward(*args, **kwargs):
        out = forward(*args, **kwargs)
        seen.append(out[2].data.copy())
        return out

    monkeypatch.setattr(training, "episode_forward", recording_forward)
    episode_losses(model, episode, store, emb, training=False)
    monkeypatch.undo()
    probs, _, _ = metrics._episode_probabilities(model, episode, store, emb, "base",
                                                 0.65, None, False)
    assert len(seen) == 1
    assert np.array_equal(probs, expit(seen[0].reshape(probs.shape)))


# ------------------------------------------------------------ training loop


def test_zero_epochs_is_identity(tiny_data):
    model = build_tiny_model(tiny_data["table"], seed=35)
    before = {n: p.data.copy() for n, p in model.named_parameters().items()}
    result = train(model, tiny_data["manifest"], tiny_data["vocabulary"],
                   tiny_data["table"], TrainSettings(epochs=0, seed=35))
    assert result.rows == []
    assert model.epoch == 0
    for name, p in model.named_parameters().items():
        assert np.array_equal(p.data, before[name]), name


def test_training_is_deterministic_and_loss_falls(tiny_data, tmp_path):
    settings = TrainSettings(epochs=3, warmup_epochs=1, episodes_per_epoch=4,
                             lr=0.005, seed=36)

    def run():
        model = build_tiny_model(tiny_data["table"], seed=36)
        return train(model, tiny_data["manifest"], tiny_data["vocabulary"],
                     tiny_data["table"], settings)

    a, b = run(), run()
    for name, p in a.model.named_parameters().items():
        assert np.array_equal(p.data, b.model.named_parameters()[name].data), name
    assert [r.total_loss for r in a.rows] == [r.total_loss for r in b.rows]
    assert a.rows[-1].total_loss < a.rows[0].total_loss
    assert a.model.epoch == 3
    pa, pb = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(pa, a.model, optimizer=a.optimizer)
    save_checkpoint(pb, b.model, optimizer=b.optimizer)
    assert pa.read_bytes() == pb.read_bytes()


def test_resume_matches_straight_run(tiny_data):
    straight = build_tiny_model(tiny_data["table"], seed=37)
    target = TrainSettings(epochs=4, warmup_epochs=1, episodes_per_epoch=3,
                           lr=0.004, seed=37)
    train(straight, tiny_data["manifest"], tiny_data["vocabulary"],
          tiny_data["table"], target)

    resumed = build_tiny_model(tiny_data["table"], seed=37)
    first = TrainSettings(epochs=2, warmup_epochs=1, episodes_per_epoch=3,
                          lr=0.004, seed=37)
    half = train(resumed, tiny_data["manifest"], tiny_data["vocabulary"],
                 tiny_data["table"], first)
    assert resumed.epoch == 2
    train(resumed, tiny_data["manifest"], tiny_data["vocabulary"],
          tiny_data["table"], target, optimizer=half.optimizer)
    for name, p in straight.named_parameters().items():
        assert np.array_equal(p.data, resumed.named_parameters()[name].data), name


def test_nan_loss_aborts_with_replay_coordinates(tiny_data):
    model = build_tiny_model(tiny_data["table"], seed=38)
    model.joint.visual.data[0, 0] = np.nan
    with pytest.raises(NumericError, match=r"epoch 0 episode 0 \(seed 38\)"):
        train(model, tiny_data["manifest"], tiny_data["vocabulary"],
              tiny_data["table"], TrainSettings(epochs=2, warmup_epochs=1, seed=38,
                                                episodes_per_epoch=2))


def test_csv_log_format_and_resume_append(tiny_data, tmp_path):
    log = tmp_path / "log.csv"
    model = build_tiny_model(tiny_data["table"], seed=39)
    first = TrainSettings(epochs=2, warmup_epochs=1, episodes_per_epoch=2,
                          lr=0.004, seed=39)
    result = train(model, tiny_data["manifest"], tiny_data["vocabulary"],
                   tiny_data["table"], first, log_path=log)
    target = TrainSettings(epochs=4, warmup_epochs=1, episodes_per_epoch=2,
                           lr=0.004, seed=39)
    train(model, tiny_data["manifest"], tiny_data["vocabulary"],
          tiny_data["table"], target, optimizer=result.optimizer, log_path=log)

    with open(log, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["epoch", "cm_loss", "query_loss", "total_loss", "lr"]
    assert len(rows) == 5
    assert [r[0] for r in rows[1:]] == ["0", "1", "2", "3"]
    for row in rows[1:]:
        cm, q, total, lr = map(float, row[1:])
        assert total == pytest.approx(cm + q, rel=1e-12)
        assert lr >= 0.0
    assert float(rows[1][4]) == 0.0            # epoch 0 runs at lr 0
    assert float(rows[2][4]) == 0.004          # ramp finished after 1 epoch


def test_training_requires_base_labels(tiny_data):
    from mlfewshot.embeddings import LabelVocabulary
    empty = LabelVocabulary(base=(), validation=(), novel=("a",))
    model = build_tiny_model(tiny_data["table"], seed=40)
    with pytest.raises(ConfigError, match="no base labels"):
        train(model, tiny_data["manifest"], empty, tiny_data["table"],
              TrainSettings(epochs=1, warmup_epochs=0, seed=40))
