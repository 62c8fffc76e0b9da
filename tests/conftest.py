"""Shared fixtures: small synthetic datasets and a quickly trained model."""

import pytest

from mlfewshot import seeding
from mlfewshot.embeddings import parse_embedding_file
from mlfewshot.episodes import load_manifest, make_synthetic
from mlfewshot.model import FeatureStore, init_model
from mlfewshot.optim import Adam
from mlfewshot.training import TrainSettings, train


@pytest.fixture(scope="session")
def tiny_data(tmp_path_factory):
    """Small planted-signal dataset: 4 base / 2 novel labels, 4x4 grid."""
    root = tmp_path_factory.mktemp("tiny_data")
    data = make_synthetic(root, n_base=4, n_novel=2, images_per_label=14,
                          grid=(4, 4), channels=8, embed_dim=8, seed=21)
    manifest = load_manifest(data.manifest_path, vocabulary=data.vocabulary)
    table = parse_embedding_file(data.embeddings_path)
    return {"data": data, "manifest": manifest, "table": table,
            "vocabulary": data.vocabulary}


class SavedState:
    """Stands in for an optimizer when writing chosen optim.* tensors."""

    def __init__(self, tensors):
        self.tensors = tensors

    def state_tensors(self):
        return self.tensors


def build_tiny_model(table, seed=21, channels=8):
    return init_model(channels=channels, embed_dim=table.dimension, joint_dim=16,
                      heads=4, dynconv_inner=4, dynconv_top=4, scale=10.0,
                      dropout=0.1, rng=seeding.substream(seed, "init"))


def run_train(model, manifest, vocabulary, table, settings, *, optimizer=None, log_path=None):
    """train() with the run inputs the CLI builds: a FeatureStore of the
    manifest and, unless `optimizer` continues a run, a fresh Adam."""
    if optimizer is None:
        optimizer = Adam(model.named_parameters(), settings.lr)
    return train(model, manifest, vocabulary, table, settings, store=FeatureStore(manifest),
                 optimizer=optimizer, log_path=log_path)


@pytest.fixture(scope="session")
def tiny_trained(tiny_data):
    """A model trained briefly on the tiny dataset; enough to be 'trained'."""
    model = build_tiny_model(tiny_data["table"])
    settings = TrainSettings(epochs=4, warmup_epochs=2, episodes_per_epoch=6,
                             k_shot=1, lr=0.003, gamma=1.0, seed=21)
    result = run_train(model, tiny_data["manifest"], tiny_data["vocabulary"],
                       tiny_data["table"], settings)
    return {"model": result.model, "optimizer": result.optimizer,
            "rows": result.rows, **tiny_data}
