"""Embedding file parsing, label embedding, and split vocabulary."""

import numpy as np
import pytest

from mlfewshot.embeddings import (
    EmbeddingTable,
    LabelVocabulary,
    embed_labels,
    label_tokens,
    load_vocabulary,
    parse_embedding_file,
    write_embedding_file,
    write_vocabulary,
)
from mlfewshot.errors import DataError


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_parse_and_exact_round_trip(tmp_path):
    table = EmbeddingTable(3, {
        "cat": np.array([0.1, -2.5, 1e-7]),
        "dog": np.array([1.0 / 3.0, 2.0, -0.125]),
    })
    path = tmp_path / "emb.txt"
    write_embedding_file(path, table)
    back = parse_embedding_file(path)
    assert back.dimension == 3
    for token in table.vectors:
        assert np.array_equal(back.vectors[token], table.vectors[token])


@pytest.mark.parametrize("content,fragment", [
    ("cat 1.0 2.0\n\ndog 1.0 2.0\n", "blank line 2"),
    ("cat\n", "line 1 has no vector"),
    ("cat 1.0 x\n", "line 1 has a non-numeric value"),
    ("cat 1.0 inf\n", "line 1 has a non-finite value"),
    ("cat 1.0 2.0\ndog 1.0\n", "line 2 has 1 components, expected 2"),
    ("cat 1.0\ncat 2.0\n", "duplicate token 'cat' at line 2"),
])
def test_parse_errors_name_the_line(tmp_path, content, fragment):
    path = write(tmp_path / "emb.txt", content)
    with pytest.raises(DataError, match="line|blank|duplicate"):
        try:
            parse_embedding_file(path)
        except DataError as err:
            assert fragment in str(err)
            raise


def test_empty_file_is_its_own_error(tmp_path):
    path = write(tmp_path / "emb.txt", "")
    with pytest.raises(DataError, match="empty-embedding-file"):
        parse_embedding_file(path)


def test_label_tokens_lowercase_and_split():
    assert label_tokens("Traffic_Light") == ["traffic", "light"]
    assert label_tokens("  sea   Lion ") == ["sea", "lion"]


def test_embed_label_averages_tokens():
    table = EmbeddingTable(2, {"traffic": np.array([1.0, 0.0]),
                               "light": np.array([0.0, 2.0])})
    matrix = embed_labels(table, ["traffic_light", "light"], normalize=False)
    assert np.array_equal(matrix, [[0.5, 1.0], [0.0, 2.0]])


def test_embed_label_normalize_flag():
    table = EmbeddingTable(2, {"cat": np.array([3.0, 4.0])})
    (vec,) = embed_labels(table, ["cat"], normalize=True)
    assert np.allclose(vec, [0.6, 0.8], atol=1e-15)
    assert abs(np.linalg.norm(vec) - 1.0) <= 1e-15


@pytest.mark.parametrize("normalize", [False, True])
def test_embed_label_rejects_a_zero_mean(normalize):
    # opposite tokens average to zero: nothing can be scored against that
    table = EmbeddingTable(2, {"up": np.array([1.0, -2.0]), "down": np.array([-1.0, 2.0])})
    with pytest.raises(DataError, match="'up_down' embeds to a zero vector"):
        embed_labels(table, ["up_down"], normalize=normalize)


def test_embed_label_lists_every_missing_token():
    table = EmbeddingTable(2, {"cat": np.array([1.0, 0.0])})
    with pytest.raises(DataError, match="missing-token: polar, bear"):
        embed_labels(table, ["Polar_Bear"], normalize=False)


def test_vocabulary_round_trip_and_splits(tmp_path):
    vocab = LabelVocabulary(base=("cat", "dog"), validation=("fox",), novel=("owl",))
    path = tmp_path / "labels.tsv"
    write_vocabulary(path, vocab, provenance="test fixture")
    back = load_vocabulary(path)
    assert back.base == ("cat", "dog")
    assert back.validation == ("fox",)
    assert back.novel == ("owl",)
    assert back.split_of("owl") == "novel"
    assert back.labels_for("base") == ("cat", "dog")
    assert set(back.all_labels()) == {"cat", "dog", "fox", "owl"}


def test_vocabulary_rejects_label_in_two_splits(tmp_path):
    path = write(tmp_path / "labels.tsv", "base\tcat\nnovel\tcat\n")
    with pytest.raises(DataError):
        load_vocabulary(path)


def test_vocabulary_rejects_unknown_split(tmp_path):
    path = write(tmp_path / "labels.tsv", "weird\tcat\n")
    with pytest.raises(DataError):
        load_vocabulary(path)


def test_vocabulary_bytes_that_are_not_utf8_are_a_data_error(tmp_path):
    path = tmp_path / "labels.tsv"
    path.write_bytes(b"base\tcat\r\nbase\t\xff\xfe\n")
    with pytest.raises(DataError, match=r"labels\.tsv: line 2 is not UTF-8"):
        load_vocabulary(path)


def test_embedding_bytes_that_are_not_utf8_are_a_data_error(tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_bytes(b"cat 1.0 2.0\n\xff 3.0 4.0\n")
    with pytest.raises(DataError, match=r"vectors\.txt: line 2 is not UTF-8"):
        parse_embedding_file(path)


def test_bad_bytes_past_the_first_read_name_their_own_line(tmp_path):
    # far past the first decoded chunk, where the decoder's offset restarts
    path = tmp_path / "vectors.txt"
    good = b"".join(b"w%05d 1.0 2.0\n" % i for i in range(4000))
    path.write_bytes(good + b"\xff 3.0 4.0\n")
    with pytest.raises(DataError, match=r"vectors\.txt: line 4001 is not UTF-8"):
        parse_embedding_file(path)


def test_text_loaders_translate_newlines_as_text_mode_does(tmp_path):
    path = tmp_path / "labels.tsv"
    path.write_bytes(b"base\tcat\r\nnovel\towl\rbase\tdog")
    back = load_vocabulary(path)
    assert back.base == ("cat", "dog") and back.novel == ("owl",)
