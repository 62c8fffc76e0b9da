"""Training loop: schedule, losses, determinism, logging, resume."""

import collections
import csv
import math

import numpy as np
import pytest

from mlfewshot import autodiff as ad
from mlfewshot import metrics, training, verification
from mlfewshot.autodiff import Tensor
from mlfewshot.episodes import EpisodePool, records_for_split, sample_episode
from mlfewshot.errors import ConfigError, NumericError
from mlfewshot.joint_space import JointSpaceParams, project_labels
from mlfewshot.model import FeatureStore, load_checkpoint, save_checkpoint, score_loss
from mlfewshot.optim import Adam
from mlfewshot.prototypes import label_side
from mlfewshot.training import (
    TrainSettings,
    episode_losses,
    warmup_lr,
)

from conftest import build_tiny_model, run_train


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
    globals_ = Tensor(np.array([[1.0, 0.0], [1.0, 0.0]]))
    protos = Tensor(np.array([[0.0, 1.0], [0.0, -1.0]]))
    targets = np.array([[1.0, 0.0], [0.0, 1.0]])
    loss = score_loss(joint, globals_, protos, targets)
    assert loss.item() == pytest.approx(4 * math.log(2.0), abs=1e-12)


def test_query_loss_perfect_prototype_oracle():
    # prototype equal to the projected query global: cos 1, score 10,
    # positive target contributes -log sigma(10)
    joint = identity_joint()
    g = Tensor(np.array([[0.6, 0.8]]))
    loss = score_loss(joint, g, Tensor(np.array([[0.6, 0.8]])), np.array([[1.0]]))
    assert loss.item() == pytest.approx(math.log1p(math.exp(-10.0)), rel=1e-12)


def test_query_loss_matches_independent_bce_oracle():
    rng = np.random.default_rng(5)
    joint = identity_joint(dim=3, scale=7.0)
    globals_ = [Tensor(rng.standard_normal(3)) for _ in range(4)]
    protos = [Tensor(rng.standard_normal(3)) for _ in range(2)]
    targets = (rng.random((4, 2)) < 0.5).astype(np.float64)
    loss = score_loss(joint, ad.concat([ad.reshape(g, (1, 3)) for g in globals_]),
                      ad.concat([ad.reshape(p, (1, 3)) for p in protos]), targets)
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
    run_train(model, tiny_data["manifest"], tiny_data["vocabulary"],
              tiny_data["table"], settings)
    for name, p in model.named_parameters().items():
        if name.startswith(("attention.", "dynconv.")):
            assert np.array_equal(p.data, before[name]), name
        else:
            assert not np.array_equal(p.data, before[name]), name


def test_gamma_zero_gradients_are_exactly_zero(tiny_data):
    model = build_tiny_model(tiny_data["table"], seed=34)
    manifest = tiny_data["manifest"]
    store = FeatureStore(manifest)
    pool = EpisodePool(manifest, records_for_split(manifest, tiny_data["vocabulary"], "base"))
    labels = list(tiny_data["vocabulary"].base)
    episode = sample_episode(pool, labels, 1, np.random.default_rng(0))
    emb = np.stack([tiny_data["table"].vectors[l] for l in labels])
    cm, q = episode_losses(model, episode, store, emb, dropout_rng=None)
    total = ad.add(cm, ad.scale(q, 0.0))
    total.backward()
    for name, p in model.named_parameters().items():
        if name.startswith(("attention.", "dynconv.")):
            assert p.grad is None or not np.any(p.grad), name
    assert np.any(model.joint.visual.grad)
    assert np.any(model.joint.text.grad)


def test_episode_graph_op_census():
    # every affine layer is one bias-carrying `linear` node: no rank-1
    # ones @ bias product and no `add` per layer
    model, episode, store, embeddings = verification._tiny_episode()
    cm, q = episode_losses(model, episode, store, embeddings,
                           dropout_rng=np.random.default_rng(0))
    nodes = ad._toposort(ad.add(cm, q))
    census = collections.Counter(node.op for node in nodes if node.op != "leaf")
    assert census == {"linear": 11, "reshape": 6, "add": 2, "bce_with_logits": 2, "cosine": 2,
                      "gather_rows": 2, "layer_norm": 2, "relu": 2, "scale": 2, "sum": 2,
                      "concat": 1, "gelu": 1, "head_readout": 1, "matmul": 1}
    biases = [node._parents[2] for node in nodes
              if node.op == "linear" and len(node._parents) == 3]
    named = {id(p): name for name, p in model.named_parameters().items()}
    assert sorted(named[id(b)] for b in biases) == ["attention.mlp.b1", "attention.mlp.b2",
                                                   "dynconv.gen1.bias", "dynconv.gen2.bias"]


def test_base_evaluation_scores_the_training_forward(tiny_trained, monkeypatch):
    # training and evaluation share one episode forward: base-mode
    # probabilities are the sigmoid of the query logits the losses score
    manifest, vocabulary = tiny_trained["manifest"], tiny_trained["vocabulary"]
    model, store = tiny_trained["model"], FeatureStore(manifest)
    labels = list(vocabulary.novel)
    pool = EpisodePool(manifest, records_for_split(manifest, vocabulary, "novel"))
    episode = sample_episode(pool, labels, 1, np.random.default_rng(3))
    emb = np.stack([tiny_trained["table"].vectors[label] for label in labels])
    forward, seen = training.episode_forward, []

    def recording_forward(*args, **kwargs):
        out = forward(*args, **kwargs)
        seen.append(out.data.copy())
        return out

    monkeypatch.setattr(training, "episode_forward", recording_forward)
    episode_losses(model, episode, store, emb, dropout_rng=None)
    monkeypatch.undo()
    side = label_side(model.attention, model.dynconv, project_labels(model.joint, emb))
    probs, _, _ = metrics._episode_probabilities(model, episode, store, side, "base",
                                                 None, False)
    assert len(seen) == 1
    assert np.array_equal(probs, ad._logistic(seen[0].reshape(probs.shape)))


def test_training_builds_the_label_side_once_per_episode(tiny_data, monkeypatch):
    # the parameters move after every step, so each episode builds its own
    calls = []

    def counting(*args):
        calls.append(args)
        return label_side(*args)

    monkeypatch.setattr(training, "label_side", counting)
    model = build_tiny_model(tiny_data["table"], seed=37)
    run_train(model, tiny_data["manifest"], tiny_data["vocabulary"], tiny_data["table"],
              TrainSettings(epochs=1, warmup_epochs=0, episodes_per_epoch=3, seed=37))
    assert len(calls) == 3


# ------------------------------------------------------------ training loop


def test_zero_epochs_is_identity(tiny_data):
    model = build_tiny_model(tiny_data["table"], seed=35)
    before = {n: p.data.copy() for n, p in model.named_parameters().items()}
    result = run_train(model, tiny_data["manifest"], tiny_data["vocabulary"],
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
        return run_train(model, tiny_data["manifest"], tiny_data["vocabulary"],
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
    run_train(straight, tiny_data["manifest"], tiny_data["vocabulary"],
              tiny_data["table"], target)

    resumed = build_tiny_model(tiny_data["table"], seed=37)
    first = TrainSettings(epochs=2, warmup_epochs=1, episodes_per_epoch=3,
                          lr=0.004, seed=37)
    half = run_train(resumed, tiny_data["manifest"], tiny_data["vocabulary"],
                     tiny_data["table"], first)
    assert resumed.epoch == 2
    run_train(resumed, tiny_data["manifest"], tiny_data["vocabulary"],
              tiny_data["table"], target, optimizer=half.optimizer)
    for name, p in straight.named_parameters().items():
        assert np.array_equal(p.data, resumed.named_parameters()[name].data), name


def test_resume_from_checkpoint_matches_straight_run(tiny_data, tmp_path):
    # a loaded checkpoint holds frozen parameters; train must make them
    # trainable again, or the resumed epochs would not move them
    straight = build_tiny_model(tiny_data["table"], seed=41)
    target = TrainSettings(epochs=4, warmup_epochs=1, episodes_per_epoch=3,
                           lr=0.004, seed=41)
    run_train(straight, tiny_data["manifest"], tiny_data["vocabulary"],
              tiny_data["table"], target)

    first = TrainSettings(epochs=2, warmup_epochs=1, episodes_per_epoch=3,
                          lr=0.004, seed=41)
    half = run_train(build_tiny_model(tiny_data["table"], seed=41), tiny_data["manifest"],
                     tiny_data["vocabulary"], tiny_data["table"], first)
    path = tmp_path / "half.ckpt"
    save_checkpoint(path, half.model, optimizer=half.optimizer)
    resumed, extras = load_checkpoint(path)
    optimizer = Adam(resumed.named_parameters(), target.lr)
    optimizer.load_state_tensors(extras)
    run_train(resumed, tiny_data["manifest"], tiny_data["vocabulary"],
              tiny_data["table"], target, optimizer=optimizer)
    assert resumed.epoch == 4
    for name, p in straight.named_parameters().items():
        assert np.array_equal(p.data, resumed.named_parameters()[name].data), name


def test_nan_loss_aborts_with_replay_coordinates(tiny_data):
    model = build_tiny_model(tiny_data["table"], seed=38)
    model.joint.visual.data[0, 0] = np.nan
    with pytest.raises(NumericError, match=r"epoch 0 episode 0 \(seed 38\)"):
        run_train(model, tiny_data["manifest"], tiny_data["vocabulary"],
                  tiny_data["table"], TrainSettings(epochs=2, warmup_epochs=1, seed=38,
                                                    episodes_per_epoch=2))


def test_csv_log_format_and_resume_append(tiny_data, tmp_path):
    log = tmp_path / "log.csv"
    model = build_tiny_model(tiny_data["table"], seed=39)
    first = TrainSettings(epochs=2, warmup_epochs=1, episodes_per_epoch=2,
                          lr=0.004, seed=39)
    result = run_train(model, tiny_data["manifest"], tiny_data["vocabulary"],
                       tiny_data["table"], first, log_path=log)
    target = TrainSettings(epochs=4, warmup_epochs=1, episodes_per_epoch=2,
                           lr=0.004, seed=39)
    run_train(model, tiny_data["manifest"], tiny_data["vocabulary"],
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


def test_a_log_write_that_fails_mid_row_keeps_the_complete_log(tiny_data, tmp_path,
                                                               monkeypatch):
    settings = TrainSettings(epochs=3, warmup_epochs=1, episodes_per_epoch=2, lr=0.004, seed=41)
    straight = tmp_path / "straight.csv"
    run_train(build_tiny_model(tiny_data["table"], seed=41), tiny_data["manifest"],
              tiny_data["vocabulary"], tiny_data["table"],
              TrainSettings(epochs=2, warmup_epochs=1, episodes_per_epoch=2, lr=0.004, seed=41),
              log_path=straight)
    real_writer = csv.writer

    class TornWriter:
        """Writes the start of epoch 2's row, then fails."""

        def __init__(self, handle):
            self.handle, self.inner = handle, real_writer(handle)

        def writerow(self, row):
            if row[0] == 2:
                self.handle.write("2,0.5")
                raise OSError("disk full")
            self.inner.writerow(row)

        def writerows(self, rows):
            for row in rows:
                self.writerow(row)

    monkeypatch.setattr(training.csv, "writer", TornWriter)
    log = tmp_path / "log.csv"
    with pytest.raises(OSError, match="disk full"):
        run_train(build_tiny_model(tiny_data["table"], seed=41), tiny_data["manifest"],
                  tiny_data["vocabulary"], tiny_data["table"], settings, log_path=log)
    assert log.read_bytes() == straight.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["log.csv", "straight.csv"]


def test_training_requires_base_labels(tiny_data):
    from mlfewshot.embeddings import LabelVocabulary
    empty = LabelVocabulary(base=(), validation=(), novel=("a",))
    model = build_tiny_model(tiny_data["table"], seed=40)
    with pytest.raises(ConfigError, match="no base labels"):
        run_train(model, tiny_data["manifest"], empty, tiny_data["table"],
                  TrainSettings(epochs=1, warmup_epochs=0, seed=40))
