"""Manifests, episode sampling, validation, and the synthetic generator."""

import json
from collections import Counter

import numpy as np
import pytest

from mlfewshot import seeding
from mlfewshot.embeddings import LabelVocabulary, parse_embedding_file
from mlfewshot.errors import ConfigError, DataError, InsufficientImagesError
from mlfewshot.episodes import (
    SAMPLE_RETRIES,
    DatasetManifest,
    Episode,
    EpisodePool,
    ManifestRecord,
    load_manifest,
    make_synthetic,
    records_for_split,
    sample_episode,
    sample_episode_with_retries,
    write_manifest,
)
from mlfewshot.features import load_feature_file

from oracles import set_based_sample_episode_with_retries, validate_episode


def toy_manifest(entries):
    """entries: list of (id, labels); features point nowhere (unchecked)."""
    records = [ManifestRecord(i, f"{i}.fmap", tuple(labels)) for i, labels in entries]
    return DatasetManifest(root=None, records=records)


SIX = toy_manifest([(f"i{k}", ["a"] if k < 6 else ["b"]) for k in range(12)])
SIX_POOL = EpisodePool(SIX, range(12))
# the labels of the hand-written manifests below
XY = LabelVocabulary(base=("x", "y"))


# ----------------------------------------------------------------- sampling


def test_episode_sizes_and_disjointness():
    ep = sample_episode(SIX_POOL, ("a", "b"), 1, np.random.default_rng(0))
    assert len(ep.support_ids) == 2
    assert len(ep.query_ids) == 8
    assert not set(ep.support_ids) & set(ep.query_ids)
    assert ep.support_targets.shape == (2, 2)
    assert ep.query_targets.shape == (8, 2)
    assert validate_episode(ep, SIX) == []


def test_sampling_is_seeded():
    a = sample_episode(SIX_POOL, ("a", "b"), 1, np.random.default_rng(7))
    b = sample_episode(SIX_POOL, ("a", "b"), 1, np.random.default_rng(7))
    assert a.support_ids == b.support_ids and a.query_ids == b.query_ids
    seen = {
        sample_episode(SIX_POOL, ("a", "b"), 1, np.random.default_rng(s)).support_ids
        for s in range(30)
    }
    assert len(seen) > 1


def test_spillover_label_counts_but_fresh_images_still_drawn():
    # one image carries both labels; each label still draws k fresh images
    manifest = toy_manifest([
        ("both", ["a", "b"]),
        ("a1", ["a"]), ("a2", ["a"]),
        ("b1", ["b"]), ("b2", ["b"]),
        ("q1", ["a"]), ("q2", ["a"]), ("q3", ["a"]), ("q4", ["a"]),
        ("q5", ["b"]), ("q6", ["b"]), ("q7", ["b"]), ("q8", ["b"]),
    ])
    ep = sample_episode(EpisodePool(manifest, range(13)), ("a", "b"), 1,
                        np.random.default_rng(1))
    assert len(ep.support_ids) == 2
    assert len(set(ep.support_ids)) == 2
    # whenever the shared image lands in support, its row is multi-hot
    if "both" in ep.support_ids:
        row = ep.support_targets[ep.support_ids.index("both")]
        assert row.tolist() == [1.0, 1.0]


def test_multi_hot_restricted_to_episode_labels():
    manifest = toy_manifest([
        ("x", ["a", "c"]),
        ("y", ["a"]), ("z", ["a"]), ("w", ["a"]), ("v", ["a"]),
    ])
    ep = sample_episode(EpisodePool(manifest, range(5)), ("a",), 1,
                        np.random.default_rng(2))
    # label c exists on image x but is outside the episode's label set
    assert ep.support_targets.shape[1] == 1
    assert set(np.unique(ep.support_targets)) <= {0.0, 1.0}


def test_insufficient_images_error_fields():
    manifest = toy_manifest([("only", ["a"])])
    with pytest.raises(InsufficientImagesError) as info:
        sample_episode(EpisodePool(manifest, range(1)), ("a",), 1,
                       np.random.default_rng(0))
    err = info.value
    # support succeeds with the single image, queries then run dry
    assert err.label == "a"
    assert err.needed == 4
    assert err.available == 0
    assert "insufficient-images" in str(err)


def test_empty_label_pool_fails_immediately():
    with pytest.raises(InsufficientImagesError) as info:
        sample_episode(SIX_POOL, ("a", "missing"), 1, np.random.default_rng(0))
    assert info.value.label == "missing"
    assert info.value.available == 0


def test_degenerate_episode_parameters():
    with pytest.raises(DataError):
        sample_episode(SIX_POOL, (), 1, np.random.default_rng(0))
    with pytest.raises(DataError):
        sample_episode(SIX_POOL, ("a",), 0, np.random.default_rng(0))


def test_retries_eventually_raise_the_last_error():
    manifest = toy_manifest([("only", ["a"])])
    calls = []

    def make_rng(attempt):
        calls.append(attempt)
        return np.random.default_rng(attempt)

    with pytest.raises(InsufficientImagesError):
        sample_episode_with_retries(EpisodePool(manifest, range(1)), ("a",), 1,
                                    make_rng)
    assert calls == list(range(SAMPLE_RETRIES))


def test_retries_return_first_success():
    ep = sample_episode_with_retries(SIX_POOL, ("a", "b"), 1,
                                     lambda attempt: np.random.default_rng(attempt))
    assert validate_episode(ep, SIX) == []


def _outcome(draw):
    """What a draw gave: the episode's ids and target bytes, or the
    InsufficientImagesError's fields."""
    try:
        ep = draw()
    except InsufficientImagesError as err:
        return ("error", err.label, err.needed, err.available)
    return ("episode", ep.labels, ep.k_shot, ep.query_per_label, ep.support_ids, ep.query_ids,
            *((t.dtype.str, t.shape, t.tobytes()) for t in (ep.support_targets, ep.query_targets)))


@pytest.mark.parametrize("split", ["base", "novel"])
def test_sampler_matches_the_set_based_oracle(tiny_data, split):
    manifest, vocabulary = tiny_data["manifest"], tiny_data["vocabulary"]
    labels = list(vocabulary.labels_for(split))
    records = records_for_split(manifest, vocabulary, split)
    whole = EpisodePool(manifest, records)
    seen = Counter()
    for seed in range(10):
        for index in range(100):
            k_shot = 1 + index % 3
            if index % 2:
                # a seeded half of the split (two fifths at every eighth
                # index): labels run short
                kept = seeding.substream(seed, "part", index).permutation(len(records))
                size = len(records) * (2 if index % 8 == 1 else 2.5) // 5
                oracle_pool = sorted(records[i] for i in kept[:int(size)])
                pool = EpisodePool(manifest, oracle_pool)
            else:
                pool, oracle_pool = whole, records
            attempts = []

            def make_rng(attempt):
                attempts.append(attempt)
                return seeding.substream(seed, "oracle", index, attempt)

            got = _outcome(lambda: sample_episode_with_retries(
                pool, labels, k_shot, make_rng))
            tries = len(attempts)
            attempts.clear()
            assert got == _outcome(lambda: set_based_sample_episode_with_retries(
                manifest, oracle_pool, labels, k_shot, make_rng)), (seed, index)
            assert len(attempts) == tries, (seed, index)
            seen[got[0], tries > 1] += 1
    assert sum(seen.values()) == 1000
    # drawn at once, drawn after failed attempts, and given up
    assert seen["episode", False] and seen["episode", True] and seen["error", True], seen


def test_sampler_rejects_repeated_labels():
    with pytest.raises(DataError, match="distinct"):
        sample_episode(SIX_POOL, ("a", "b", "a"), 1, np.random.default_rng(0))


# --------------------------------------------------------------- validation


def test_validate_flags_duplicate_support():
    ep = sample_episode(SIX_POOL, ("a", "b"), 1, np.random.default_rng(3))
    broken = Episode(ep.labels, ep.k_shot,
                     (ep.support_ids[0], ep.support_ids[0]),
                     ep.support_targets, ep.query_ids, ep.query_targets)
    assert any("not distinct" in p for p in validate_episode(broken))


def test_validate_flags_support_query_overlap():
    ep = sample_episode(SIX_POOL, ("a", "b"), 1, np.random.default_rng(4))
    broken = Episode(ep.labels, ep.k_shot, ep.support_ids, ep.support_targets,
                     ep.support_ids + ep.query_ids[2:],
                     np.vstack([ep.support_targets, ep.query_targets[2:]]))
    assert any("overlap" in p for p in validate_episode(broken))


def test_validate_flags_wrong_sizes_and_coverage():
    ep = sample_episode(SIX_POOL, ("a", "b"), 1, np.random.default_rng(5))
    short = Episode(ep.labels, 2, ep.support_ids, ep.support_targets,
                    ep.query_ids, ep.query_targets)
    problems = validate_episode(short)
    assert any("support size" in p for p in problems)
    uncovered = Episode(ep.labels, ep.k_shot, ep.support_ids,
                        np.zeros_like(ep.support_targets),
                        ep.query_ids, ep.query_targets)
    assert any("support images" in p for p in validate_episode(uncovered))


# ----------------------------------------------------------------- manifest


def test_manifest_always_builds_its_indices():
    # the indices are derived from the records, so none can be handed in
    # to stand for them
    record = ManifestRecord("x", "x.fmap", ("a",))
    with pytest.raises(TypeError):
        DatasetManifest(root=None, records=[record], by_label={"a": [0]})
    manifest = DatasetManifest(root=None, records=[record])
    assert manifest.record_for("x") is record
    assert manifest.by_label == {"a": [0]} and manifest.by_id == {"x": 0}


def test_manifest_round_trip(tmp_path):
    path = tmp_path / "m.jsonl"
    records = [ManifestRecord("a", "a.fmap", ("x", "y")), ManifestRecord("b", "b.fmap", ("y",))]
    write_manifest(path, records, provenance="toy")
    for record in records:
        (tmp_path / record.features).touch()          # the check is that each file exists
    assert path.read_text().startswith("# toy\n")
    back = load_manifest(path, XY)
    assert [(r.image_id, r.features, r.labels) for r in back.records] == \
           [("a", "a.fmap", ("x", "y")), ("b", "b.fmap", ("y",))]
    assert back.by_label["y"] == [0, 1]


@pytest.mark.parametrize("line,fragment", [
    ("not json", "not valid JSON"),
    ('{"id": "a", "features": "f"}', "lacks id/features/labels"),
    ('{"id": "a", "features": "f", "labels": []}', "has no labels"),
    ('{"id": 1, "features": "f", "labels": ["x"]}', "string id/features"),
    ('{"id": "a", "features": 2, "labels": ["x"]}', "string id/features"),
    ('{"id": "a", "features": "f", "labels": "cat"}', "list of string labels"),
    ('{"id": "a", "features": "f", "labels": ["x", 3]}', "list of string labels"),
])
def test_manifest_line_errors(tmp_path, line, fragment):
    path = tmp_path / "m.jsonl"
    path.write_text(line + "\n")
    with pytest.raises(DataError, match=fragment):
        load_manifest(path, XY)


def test_manifest_bytes_that_are_not_utf8_are_a_data_error(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_bytes(b'{"id": "a", "features": "f", "labels": ["x"]}\n'
                     b'{"id": "\xff", "features": "f", "labels": ["x"]}\n')
    with pytest.raises(DataError, match=r"m\.jsonl: line 2 is not UTF-8"):
        load_manifest(path, XY)


def test_manifest_duplicate_id_and_empty_file(tmp_path):
    path = tmp_path / "m.jsonl"
    row = '{"id": "a", "features": "f", "labels": ["x"]}'
    path.write_text(row + "\n" + row + "\n")
    with pytest.raises(DataError, match="duplicate image id"):
        load_manifest(path, XY)
    (tmp_path / "empty.jsonl").write_text("# nothing\n")
    with pytest.raises(DataError, match="lists no images"):
        load_manifest(tmp_path / "empty.jsonl", XY)


def test_manifest_missing_feature_file(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text('{"id": "a", "features": "gone.fmap", "labels": ["x"]}\n')
    with pytest.raises(DataError, match="missing"):
        load_manifest(path, XY)


def test_manifest_vocabulary_check(tiny_data, tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text('{"id": "a", "features": "f", "labels": ["nosuch"]}\n')
    with pytest.raises(DataError, match="outside the vocabulary"):
        load_manifest(path, vocabulary=tiny_data["vocabulary"])


def test_records_for_split_excludes_cross_split_images(tiny_data):
    manifest, vocab = tiny_data["manifest"], tiny_data["vocabulary"]
    base_idx = records_for_split(manifest, vocab, "base")
    novel_idx = records_for_split(manifest, vocab, "novel")
    assert base_idx and novel_idx
    assert not set(base_idx) & set(novel_idx)
    base_labels = set(vocab.base)
    for i in base_idx:
        assert set(manifest.records[i].labels) <= base_labels


# ------------------------------------------------------- synthetic generator


def test_synthetic_layout_and_signatures(tiny_data):
    data, manifest = tiny_data["data"], tiny_data["manifest"]
    assert len(manifest.records) == 6 * 14
    table = parse_embedding_file(data.embeddings_path)
    assert table.dimension == 8
    assert set(table.vectors) == set(data.vocabulary.all_labels())
    for sig in data.signatures.values():
        assert abs(np.linalg.norm(sig) - 1.0) <= 1e-12

    cells = json.loads(data.cells_path.read_text())
    assert set(cells) == {r.image_id for r in manifest.records}
    planted = sum(cell is not None
                  for grid in cells.values() for row in grid for cell in row)
    total = len(cells) * 16
    assert abs(planted / total - 0.5) < 0.05   # signal_fraction default 0.5


def test_synthetic_cells_match_features_at_zero_noise(tmp_path):
    data = make_synthetic(tmp_path, n_base=2, n_novel=1, images_per_label=3,
                          grid=(3, 3), channels=6, embed_dim=4,
                          signal_fraction=1.0, signal_noise=0.0, seed=3)
    manifest = load_manifest(data.manifest_path, data.vocabulary)
    sig_names = list(data.signatures)
    sig_matrix = np.stack([data.signatures[n] for n in sig_names])
    hits = misses = 0
    for idx, record in enumerate(manifest.records):
        fmap = load_feature_file(manifest.feature_path(idx))
        grid = data.cell_labels[record.image_id]
        for r in range(3):
            for c in range(3):
                cell = fmap[:, r, c]
                nearest = sig_names[int(np.argmax(sig_matrix @ cell))]
                if nearest == grid[r][c]:
                    hits += 1
                else:
                    misses += 1
                assert np.allclose(cell, data.signatures[grid[r][c]], atol=1e-12)
    assert misses == 0 and hits == len(manifest.records) * 9


def test_synthetic_multi_label_images_within_split(tmp_path):
    data = make_synthetic(tmp_path, n_base=3, n_novel=2, images_per_label=20,
                          grid=(3, 3), channels=5, embed_dim=4,
                          extra_label_prob=1.0, seed=4)
    manifest = load_manifest(data.manifest_path, data.vocabulary)
    multi = [r for r in manifest.records if len(r.labels) == 2]
    assert multi   # extra_label_prob 1.0 forces a second label wherever possible
    base, novel = set(data.vocabulary.base), set(data.vocabulary.novel)
    for record in manifest.records:
        labels = set(record.labels)
        assert labels <= base or labels <= novel


def test_synthetic_rejects_bad_fraction(tmp_path):
    with pytest.raises(ConfigError, match="signal_fraction"):
        make_synthetic(tmp_path, signal_fraction=0.0)


def test_synthetic_is_seeded(tmp_path):
    a = make_synthetic(tmp_path / "a", n_base=2, n_novel=1, images_per_label=2,
                       grid=(2, 2), channels=4, embed_dim=3, seed=9)
    b = make_synthetic(tmp_path / "b", n_base=2, n_novel=1, images_per_label=2,
                       grid=(2, 2), channels=4, embed_dim=3, seed=9)
    for name in a.signatures:
        assert np.array_equal(a.signatures[name], b.signatures[name])
    assert (a.manifest_path.read_text().splitlines()[1:]
            == b.manifest_path.read_text().splitlines()[1:])
