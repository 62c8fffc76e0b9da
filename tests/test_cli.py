"""End-to-end command-line pipeline on a tiny generated dataset."""

import collections
import functools
import importlib
import inspect
import json
import pkgutil
import shutil
import struct

import numpy as np
import pytest

import mlfewshot
from mlfewshot import autodiff, cli, seeding, training
from mlfewshot.autodiff import Tensor
from mlfewshot.cli import main
from mlfewshot.config import PATH_KEYS
from mlfewshot.embeddings import embed_labels, load_vocabulary, parse_embedding_file
from mlfewshot.episodes import load_manifest, make_synthetic
from mlfewshot.features import load_feature_file, write_feature_file
from mlfewshot.joint_space import project_labels
from mlfewshot.lcm import LcmConfig, select_cells
from mlfewshot.model import CHECKPOINT_MAGIC, init_model, load_checkpoint, save_checkpoint

from conftest import SavedState

# the pipeline model's sizes; a run on its checkpoint must state them
MODEL_FLAGS = ["--d_j", "8", "--n_heads", "2", "--d_c", "4", "--n_d", "4"]
TRAIN_FLAGS = [*MODEL_FLAGS, "--epochs", "2", "--warmup_epochs", "1", "--episodes_per_epoch", "2",
               "--seed", "3"]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    run = root / "run"
    code = main(["synth", "--out", str(data), "--seed", "5", "--n-base", "3",
                 "--n-novel", "2", "--images-per-label", "6", "--grid", "4",
                 "--channels", "16", "--embed-dim", "4",
                 "--signal-fraction", "1.0", "--signal-noise", "0.1"])
    assert code == 0
    paths = ["--manifest", str(data / "manifest.jsonl"),
             "--splits", str(data / "labels.tsv"),
             "--embeddings", str(data / "embeddings.txt"),
             "--checkpoint", str(run / "model.ckpt"),
             "--output", str(run)]
    code = main(["train", *paths, *TRAIN_FLAGS])
    assert code == 0
    return data, run, paths


def test_synth_writes_dataset(pipeline):
    data, _, _ = pipeline
    for name in ("manifest.jsonl", "labels.tsv", "embeddings.txt", "cells.json"):
        assert (data / name).exists()
    assert len(list((data / "features").glob("*.fmap"))) == 5 * 6


def test_synth_without_flags_writes_make_synthetics_defaults(tmp_path):
    assert main(["synth", "--out", str(tmp_path / "cli")]) == 0
    make_synthetic(tmp_path / "direct")

    def files(root):
        return {path.relative_to(root): path.read_bytes()
                for path in sorted(root.rglob("*")) if path.is_file()}

    assert files(tmp_path / "cli") == files(tmp_path / "direct")


def test_every_make_synthetic_keyword_reaches_it(tmp_path, monkeypatch):
    # a value for each keyword that is not its default; --grid g gives both sides
    given = {"seed": 9, "n_base": 3, "n_validation": 2, "n_novel": 5, "images_per_label": 7,
             "grid": 5, "channels": 12, "embed_dim": 6, "signal_fraction": 0.25,
             "signal_noise": 0.125, "background_scale": 2.5, "extra_label_prob": 0.75}
    keyword_only = {name: param.default
                    for name, param in inspect.signature(make_synthetic).parameters.items()
                    if param.kind is inspect.Parameter.KEYWORD_ONLY}
    assert set(given) == set(keyword_only)
    assert all(given[name] != default for name, default in keyword_only.items())
    received = []

    @functools.wraps(make_synthetic)    # the synth flags are read from its signature
    def recording(out_dir, **options):
        received.append((out_dir, options))
        return make_synthetic(out_dir, **options)

    monkeypatch.setattr(cli, "make_synthetic", recording)
    flags = [part for name, value in given.items()
             for part in ("--" + name.replace("_", "-"), str(value))]
    assert main(["synth", "--out", str(tmp_path / "data"), *flags]) == 0
    expected = {**given, "grid": (5, 5)}
    assert received == [(str(tmp_path / "data"), expected)]
    assert {name: type(value) for name, value in received[0][1].items()} == \
        {name: type(value) for name, value in expected.items()}


@pytest.mark.parametrize("flags", [
    ["--grid", "0"], ["--grid", "-2"], ["--channels", "0"], ["--channels", "4", "--embed-dim", "8"],
    ["--embed-dim", "0"], ["--images-per-label", "0"], ["--images-per-label", "-1"],
    ["--n-base", "0", "--n-novel", "0"], ["--n-base", "-1"], ["--signal-fraction", "0"],
    ["--seed", "-1"], ["--signal-noise", "nan"], ["--signal-noise", "-0.1"],
    ["--background-scale", "inf"], ["--background-scale", "-1"],
    ["--extra-label-prob", "5"], ["--extra-label-prob", "-0.5"], ["--extra-label-prob", "nan"]])
def test_synth_sizes_out_of_range_exit_1_before_writing(tmp_path, capsys, flags):
    out = tmp_path / "data"
    assert main(["synth", "--out", str(out), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not out.exists()


def test_synth_out_that_is_a_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    assert main(["synth", "--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(taken) in err and err.count("\n") == 1
    assert taken.read_text() == "not a directory\n"


@pytest.mark.parametrize("argv", [
    ["eval", "--mode", "bogus"], ["bogus"], ["train", "--epochs"],
    ["synth", "--out", "unused", "--seed", "abc"], []])
def test_command_usage_errors_exit_1(capsys, argv):
    assert main(argv) == 1
    assert "usage: mlfewshot" in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "usage: mlfewshot" in capsys.readouterr().out


def test_train_outputs(pipeline):
    _, run, _ = pipeline
    assert (run / "model.ckpt").exists()
    log_lines = (run / "training_log.csv").read_text().splitlines()
    assert log_lines[0] == "epoch,cm_loss,query_loss,total_loss,lr"
    assert len(log_lines) == 3                      # header + one row per epoch
    manifest = json.loads((run / "run_manifest.json").read_text())
    assert manifest["epochs_completed"] == 2
    assert len(manifest["run_id"]) == 40
    assert manifest["config"]["epochs"] == 2
    assert "manifest" not in manifest["config"]     # paths stay out of the id


@pytest.mark.parametrize("mode", ["base", "lcm", "zeroshot", "simple-attention"])
def test_eval_modes(pipeline, mode, capsys):
    _, run, paths = pipeline
    code = main(["eval", *paths, *MODEL_FLAGS, "--mode", mode, "--split", "novel",
                 "--eval_episodes", "2", "--seed", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert f"mode={mode}" in out
    payload = json.loads((run / f"report_{mode}.json").read_text())
    assert payload["report"]["episodes"] == 2
    for key in ("micro_ap", "macro_ap", "micro_f1", "macro_f1"):
        assert 0.0 <= payload["report"][key] <= 1.0
    assert len(payload["run_id"]) == 40


def test_eval_reports_same_run_id_as_train(pipeline):
    _, run, paths = pipeline
    assert main(["eval", *paths, *MODEL_FLAGS, "--eval_episodes", "1", "--seed", "3"]) == 0
    train_id = json.loads((run / "run_manifest.json").read_text())["run_id"]
    # eval overrides eval_episodes, which is part of the semantic config,
    # so its id may differ; rerunning with the training value must agree
    assert main(["eval", *paths, "--eval_episodes", "50", "--seed", "3",
                 "--epochs", "2", "--warmup_epochs", "1",
                 "--d_j", "8", "--n_heads", "2", "--d_c", "4", "--n_d", "4",
                 "--episodes_per_epoch", "2"]) == 0
    eval_id = json.loads((run / "report_base.json").read_text())["run_id"]
    assert eval_id == train_id


def test_resume_continues_training(pipeline, tmp_path, capsys):
    _, run, paths = pipeline
    spare = tmp_path / "model.ckpt"
    shutil.copy(run / "model.ckpt", spare)
    fresh = dict(zip(paths[::2], paths[1::2]))
    fresh["--checkpoint"] = str(spare)
    fresh["--output"] = str(tmp_path)
    flat = [item for pair in fresh.items() for item in pair]
    code = main(["train", *flat, "--resume", *TRAIN_FLAGS[:-4],
                 "--epochs", "3", "--episodes_per_epoch", "2", "--seed", "3"])
    assert code == 0
    assert "trained to epoch 3" in capsys.readouterr().out
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["epochs_completed"] == 3
    # resumed into a directory with no log: the new log still has its header
    log_lines = (tmp_path / "training_log.csv").read_text().splitlines()
    assert log_lines[0] == "epoch,cm_loss,query_loss,total_loss,lr"
    assert [line.split(",")[0] for line in log_lines[1:]] == ["2"]


def run_flags(paths, out):
    """The pipeline's path flags with the checkpoint and output in `out`."""
    given = dict(zip(paths[::2], paths[1::2]))
    given.update({"--checkpoint": str(out / "model.ckpt"), "--output": str(out)})
    return [item for pair in given.items() for item in pair]


class Interrupted(Exception):
    """Stands in for a run stopped from outside."""


def test_interrupted_resume_matches_a_straight_run(pipeline, tmp_path, monkeypatch):
    # train 2 epochs; resume to 5 and stop in the second resumed epoch,
    # after the first one's log row is written; resume to 5 again
    _, _, paths = pipeline
    straight, resumed = tmp_path / "straight", tmp_path / "resumed"
    assert main(["train", *run_flags(paths, straight), *TRAIN_FLAGS, "--epochs", "5"]) == 0
    assert main(["train", *run_flags(paths, resumed), *TRAIN_FLAGS]) == 0
    losses, calls = training.episode_losses, []

    def interrupted(*args, **kwargs):
        calls.append(None)
        if len(calls) > 2:                          # each epoch has two episodes
            raise Interrupted
        return losses(*args, **kwargs)

    monkeypatch.setattr(training, "episode_losses", interrupted)
    resume = ["train", *run_flags(paths, resumed), "--resume", *TRAIN_FLAGS, "--epochs", "5"]
    with pytest.raises(Interrupted):
        main(resume)
    monkeypatch.undo()
    assert main(resume) == 0
    for name in ("training_log.csv", "model.ckpt"):
        assert (resumed / name).read_bytes() == (straight / name).read_bytes(), name


def test_each_feature_file_is_read_at_most_once(pipeline, tmp_path, monkeypatch):
    _, _, paths = pipeline
    original, reads = load_feature_file, collections.Counter()

    def counting(path):
        reads[str(path)] += 1
        return original(path)

    for info in pkgutil.iter_modules(mlfewshot.__path__):
        module = importlib.import_module(f"mlfewshot.{info.name}")
        if getattr(module, "load_feature_file", None) is original:
            monkeypatch.setattr(module, "load_feature_file", counting)
    for argv in (["train", *run_flags(paths, tmp_path), *TRAIN_FLAGS],
                 ["eval", *run_flags(paths, tmp_path), *MODEL_FLAGS, "--mode", "lcm",
                  "--eval_episodes", "2"]):
        reads.clear()
        assert main(argv) == 0
        assert reads and max(reads.values()) == 1, argv[0]


@pytest.mark.parametrize("key,value,saved", [
    ("d_j", "16", "8"), ("n_heads", "4", "2"), ("d_c", "3", "4"), ("n_d", "5", "4"),
    ("lambda", "5.0", "10.0"), ("dropout", "0.2", "0.1")])
def test_a_config_that_does_not_match_the_checkpoint_exits_1(pipeline, tmp_path, capsys,
                                                             key, value, saved):
    # the artifacts record the run config, so it must be the loaded model's
    _, run, paths = pipeline
    shutil.copy(run / "model.ckpt", tmp_path / "model.ckpt")
    before = (tmp_path / "model.ckpt").read_bytes()
    for argv in (["train", "--resume", *TRAIN_FLAGS, "--epochs", "3"],
                 ["eval", *MODEL_FLAGS, "--eval_episodes", "1"]):
        assert main([argv[0], *run_flags(paths, tmp_path), *argv[1:], f"--{key}", value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and \
            f"has {key} {saved}, but the run config has {key} {value}" in err, argv[0]
    assert (tmp_path / "model.ckpt").read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


@pytest.mark.parametrize("corrupt", ["missing", "shape", "none"])
def test_resume_with_bad_optimizer_state_exits_2(pipeline, tmp_path, capsys, corrupt):
    _, run, paths = pipeline
    model, extras = load_checkpoint(run / "model.ckpt")
    state = {k: v for k, v in extras.items() if k.startswith("optim.")}
    named = "optim.m.joint.visual"
    if corrupt == "missing":
        del state[named]
    elif corrupt == "shape":
        state[named] = state[named][0]
    else:                                           # no optim.* tensor at all
        state, named = {}, "optim.steps"
    config = {k[len("config."):]: float(v) for k, v in extras.items() if k.startswith("config.")}
    spare = tmp_path / "model.ckpt"
    save_checkpoint(spare, model, optimizer=SavedState(state), config_scalars=config)
    fresh = dict(zip(paths[::2], paths[1::2]))
    fresh["--checkpoint"] = str(spare)
    fresh["--output"] = str(tmp_path)
    flat = [item for pair in fresh.items() for item in pair]
    code = main(["train", *flat, "--resume", *TRAIN_FLAGS[:-4],
                 "--epochs", "3", "--episodes_per_epoch", "2", "--seed", "3"])
    assert code == 2
    err = capsys.readouterr().err
    assert "data error" in err and named in err


@pytest.mark.parametrize("field,value,tensor", [
    ("epoch", -2, "trainer.epoch"), ("epoch", 2.5, "trainer.epoch"),
    ("top_count", 4.5, "model.top_count")])
def test_a_checkpoint_count_that_is_not_whole_exits_2(pipeline, tmp_path, capsys, field, value,
                                                     tensor):
    _, run, paths = pipeline
    model, extras = load_checkpoint(run / "model.ckpt")
    if field == "epoch":
        model.epoch = value
    else:
        model.dynconv.top_count = value
    config = {k[len("config."):]: float(v) for k, v in extras.items() if k.startswith("config.")}
    save_checkpoint(tmp_path / "model.ckpt", model, optimizer=SavedState(
        {k: v for k, v in extras.items() if k.startswith("optim.")}), config_scalars=config)
    before = (tmp_path / "model.ckpt").read_bytes()
    assert main(["train", *run_flags(paths, tmp_path), "--resume", *TRAIN_FLAGS,
                 "--epochs", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and f"'{tensor}'" in err
    assert (tmp_path / "model.ckpt").read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_inspect_lcm_writes_grids(pipeline, capsys):
    _, run, paths = pipeline
    code = main(["inspect-lcm", *paths, *MODEL_FLAGS, "--image", "img00000"])
    assert code == 0
    out = capsys.readouterr().out
    assert "image img00000 (base)" in out
    for prefix in ("importance", "sigma", "mask"):
        grid = (run / f"{prefix}_img00000.txt").read_text().splitlines()
        assert len(grid) == 4 and all(len(row.split()) == 4 for row in grid)


def test_inspect_lcm_grids_are_select_cells_on_one_map(pipeline, capsys):
    data, run, paths = pipeline
    model, _ = load_checkpoint(run / "model.ckpt")
    vocabulary = load_vocabulary(data / "labels.tsv")
    manifest = load_manifest(data / "manifest.jsonl", vocabulary)
    table = parse_embedding_file(data / "embeddings.txt")
    record = manifest.record_for("img00000")
    labels = vocabulary.labels_for(vocabulary.split_of(record.labels[0]))
    fmap = load_feature_file(manifest.feature_path(manifest.by_id["img00000"]))

    def select(theta):
        return select_cells(
            model.joint, fmap[None], [[float(label in record.labels) for label in labels]],
            project_labels(model.joint, embed_labels(table, labels, normalize=False)).data,
            LcmConfig(threshold=theta), trained=model.trained)

    theta = float(np.median(select(0.5).sigma))
    selection = select(theta)
    assert 0 < selection.mask.sum() < selection.mask.size    # cells kept and dropped
    assert main(["inspect-lcm", *paths, *MODEL_FLAGS, "--image", "img00000",
                 "--theta", repr(theta)]) == 0
    assert f"kept {selection.mask.sum()}/{selection.mask.size} cells" in capsys.readouterr().out
    # each grid one row per line: six decimals for the fitted values, 0/1 for the mask
    for prefix, grid in (("importance", selection.importance[0]), ("sigma", selection.sigma[0]),
                         ("mask", selection.mask[0])):
        text = "".join(" ".join(f"{v:.6f}" if prefix != "mask" else str(int(v)) for v in row)
                       + "\n" for row in grid)
        assert (run / f"{prefix}_img00000.txt").read_text() == text, prefix


def test_gradcheck_ops_pass(capsys):
    assert main(["gradcheck"]) == 0
    assert "gradient checks passed" in capsys.readouterr().out


def test_exit_code_1_for_config_errors(pipeline, capsys):
    _, _, paths = pipeline
    assert main(["train", *paths, "--epochs", "2", "--warmup_epochs", "2"]) == 1
    assert "config error" in capsys.readouterr().err
    assert main(["train", "--checkpoint", "x", "--output", "y"]) == 1


@pytest.mark.parametrize("first", PATH_KEYS)
@pytest.mark.parametrize("command", ["train", "eval", "inspect-lcm"])
def test_missing_path_keys_exit_1_naming_the_first(pipeline, tmp_path, capsys, command, first):
    # leave out `first` and every later path key but output, which points
    # at a directory that must not be created
    _, _, paths = pipeline
    given = dict(zip(paths[::2], paths[1::2]), **{"--output": str(tmp_path / "out")})
    later = PATH_KEYS[PATH_KEYS.index(first):]
    left_out = {first, *(key for key in later if key != "output")}
    argv = [part for key, value in given.items() if key[2:] not in left_out
            for part in (key, value)]
    extra = ["--image", "img00000"] if command == "inspect-lcm" else []
    assert main([command, *argv, *extra]) == 1
    assert f"config error: {first} path is required" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_exit_code_2_for_data_errors(pipeline, tmp_path, capsys):
    _, _, paths = pipeline
    broken = list(paths)
    broken[1] = str(tmp_path / "missing.jsonl")
    code = main(["eval", *broken, "--eval_episodes", "1"])
    assert code == 2
    assert "data error" in capsys.readouterr().err
    # a checkpoint whose tensor name is not UTF-8
    broken = list(paths)
    broken[broken.index("--checkpoint") + 1] = str(tmp_path / "name.ckpt")
    name = b"\xff\xfe"
    (tmp_path / "name.ckpt").write_bytes(
        CHECKPOINT_MAGIC + struct.pack("<I", 1) + struct.pack("<I", len(name)) + name
        + struct.pack("<I", 0) + struct.pack("<d", 1.0))
    assert main(["eval", *broken, "--eval_episodes", "1"]) == 2
    assert "bad-name" in capsys.readouterr().err


@pytest.fixture(scope="module")
def full_episodes(tmp_path_factory):
    """A bundle of 5 single-label images per label, so every episode of a
    split (1 support and 4 queries per label) draws every image of it;
    its maps have the pipeline's widths, so the pipeline's checkpoint fits."""
    data = tmp_path_factory.mktemp("full_episodes")
    make_synthetic(data, n_base=2, n_novel=2, images_per_label=5, grid=(4, 4), channels=16,
                   embed_dim=4, extra_label_prob=0.0, seed=5)
    return data


@pytest.mark.parametrize("reshape", [lambda fmap: fmap[:-1], lambda fmap: fmap[:, :-1]],
                         ids=["one-channel-fewer", "cropped-grid"])
@pytest.mark.parametrize("command,image", [
    (["eval", *MODEL_FLAGS, "--mode", "base"], "img00019"),
    (["eval", *MODEL_FLAGS, "--mode", "lcm"], "img00019"),
    (["train", *TRAIN_FLAGS], "img00001"),
    (["inspect-lcm", *MODEL_FLAGS, "--image", "img00001"], "img00001"),
], ids=["eval-base", "eval-lcm", "train", "inspect-lcm"])
def test_a_map_of_another_shape_exits_2_naming_it(pipeline, full_episodes, tmp_path, capsys,
                                                  command, image, reshape):
    _, run, paths = pipeline
    data = tmp_path / "data"
    shutil.copytree(full_episodes, data)
    bad = data / "features" / f"{image}.fmap"
    write_feature_file(bad, reshape(load_feature_file(bad)))
    given = dict(zip(paths[::2], paths[1::2]))
    given.update({"--manifest": str(data / "manifest.jsonl"),
                  "--splits": str(data / "labels.tsv"),
                  "--embeddings": str(data / "embeddings.txt"),
                  "--output": str(tmp_path / "out")})
    if command[0] == "train":
        given["--checkpoint"] = str(tmp_path / "model.ckpt")
    argv = [part for pair in given.items() for part in pair]
    assert main([command[0], *argv, *command[1:], "--eval_episodes", "1", "--seed", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(bad) in err and "one map shape" in err


def _nan_in_visual(model):
    model.joint.visual.data[0, 0] = np.nan
    return model, "'joint.visual' holds non-finite values"


def _mlp_w1_too_small(model):
    model.attention.mlp_w1 = Tensor(np.eye(4))
    return model, "'attention.mlp.w1' has shape (4, 4), the model's is (8, 8)"


def _model_of_widths(channels, embed_dim):
    # the pipeline's feature maps have 16 channels and its word vectors 4 dimensions
    return init_model(channels=channels, embed_dim=embed_dim, joint_dim=8, heads=2,
                      dynconv_inner=4, dynconv_top=4, scale=10.0, dropout=0.1,
                      rng=seeding.substream(3, "init"))


@pytest.mark.parametrize("corrupt", [
    _nan_in_visual,
    _mlp_w1_too_small,
    lambda _: (_model_of_widths(12, 4),
               "joint.visual takes 12 feature channels, but the data has 16"),
    lambda _: (_model_of_widths(16, 5),
               "joint.text takes 5 embedding dimensions, but the data has 4"),
], ids=["non-finite", "wrong-shape", "feature-width", "embedding-width"])
def test_eval_of_a_checkpoint_that_does_not_fit_exits_2(pipeline, tmp_path, capsys, corrupt):
    _, run, paths = pipeline
    model, fragment = corrupt(load_checkpoint(run / "model.ckpt")[0])
    spare = tmp_path / "model.ckpt"
    save_checkpoint(spare, model, optimizer=SavedState({}), config_scalars={})
    given = dict(zip(paths[::2], paths[1::2]), **{"--checkpoint": str(spare),
                                                   "--output": str(tmp_path / "out")})
    argv = [part for pair in given.items() for part in pair]
    assert main(["eval", *argv, *MODEL_FLAGS, "--eval_episodes", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and fragment in err
    assert "Traceback" not in err


def test_zero_label_embedding_is_a_data_error(pipeline, tmp_path, capsys):
    data, _, paths = pipeline
    embeddings = tmp_path / "embeddings.txt"
    lines = (data / "embeddings.txt").read_text().splitlines()
    embeddings.write_text("\n".join(
        " ".join(["lab00"] + ["0.0"] * (len(line.split()) - 1)) if line.split()[0] == "lab00"
        else line for line in lines) + "\n")
    broken = dict(zip(paths[::2], paths[1::2]))
    broken.update({"--embeddings": str(embeddings), "--checkpoint": str(tmp_path / "model.ckpt"),
                   "--output": str(tmp_path / "out")})
    flat = [item for pair in broken.items() for item in pair]
    assert main(["train", *flat, *TRAIN_FLAGS]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "'lab00'" in err and "zero vector" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "training_log.csv").exists()


@pytest.fixture(scope="module")
def zeroed_novel(pipeline, tmp_path_factory):
    """The pipeline's data with every novel-split map all zeros (still valid
    FMAP1 files)."""
    data, _, _ = pipeline
    root = tmp_path_factory.mktemp("zeroed") / "data"
    shutil.copytree(data, root)
    vocabulary = load_vocabulary(root / "labels.tsv")
    manifest = load_manifest(root / "manifest.jsonl", vocabulary)
    for idx, record in enumerate(manifest.records):
        if vocabulary.split_of(record.labels[0]) == "novel":
            path = manifest.feature_path(idx)
            write_feature_file(path, np.zeros_like(load_feature_file(path)))
    return root


@pytest.mark.parametrize("mode", ["base", "zeroshot", "lcm"])
def test_zero_length_feature_vectors_exit_2(pipeline, zeroed_novel, tmp_path, capsys, mode):
    _, _, paths = pipeline
    given = dict(zip(paths[::2], paths[1::2]))
    given.update({"--manifest": str(zeroed_novel / "manifest.jsonl"),
                  "--splits": str(zeroed_novel / "labels.tsv"),
                  "--embeddings": str(zeroed_novel / "embeddings.txt"),
                  "--output": str(tmp_path)})
    argv = [part for pair in given.items() for part in pair]
    assert main(["eval", *argv, *MODEL_FLAGS, "--mode", mode, "--eval_episodes", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_a_missing_config_file_exits_1(pipeline, tmp_path, capsys):
    _, _, paths = pipeline
    missing = tmp_path / "missing.cfg"
    assert main(["eval", *paths, *MODEL_FLAGS, "--config", str(missing)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(missing) in err
    assert "Traceback" not in err


def test_an_output_path_that_is_a_file_exits_2(pipeline, tmp_path, capsys):
    _, _, paths = pipeline
    taken = tmp_path / "report"
    taken.write_text("not a directory\n")
    given = dict(zip(paths[::2], paths[1::2]), **{"--output": str(taken)})
    argv = [part for pair in given.items() for part in pair]
    assert main(["eval", *argv, *MODEL_FLAGS, "--eval_episodes", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(taken) in err
    assert "Traceback" not in err
    assert taken.read_text() == "not a directory\n"


def test_a_checkpoint_in_a_missing_directory_exits_2_before_training(pipeline, tmp_path,
                                                                      capsys):
    _, _, paths = pipeline
    checkpoint = tmp_path / "missing" / "model.ckpt"
    given = dict(zip(paths[::2], paths[1::2]), **{"--checkpoint": str(checkpoint),
                                                   "--output": str(tmp_path / "out")})
    argv = [part for pair in given.items() for part in pair]
    assert main(["train", *argv, *TRAIN_FLAGS]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(checkpoint) in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "training_log.csv").exists()


def test_a_checkpoint_path_that_is_a_directory_exits_2_before_training(pipeline, tmp_path,
                                                                        capsys):
    _, _, paths = pipeline
    checkpoint = tmp_path / "ckdir"
    checkpoint.mkdir()
    given = dict(zip(paths[::2], paths[1::2]), **{"--checkpoint": str(checkpoint),
                                                   "--output": str(tmp_path / "out")})
    argv = [part for pair in given.items() for part in pair]
    assert main(["train", *argv, *TRAIN_FLAGS]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(checkpoint) in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "training_log.csv").exists()
    assert list(checkpoint.iterdir()) == []
    assert main(["eval", *argv, *MODEL_FLAGS, "--eval_episodes", "1"]) == 2
    assert f"{checkpoint} is not a file" in capsys.readouterr().err


def test_exit_code_3_for_numeric_errors(monkeypatch, capsys):
    # a relu whose backward doubles the gradient fails its finite-difference check
    def relu_with_wrong_backward(a):
        def backward(g):
            a.accumulate(2.0 * g * (a.data > 0))
        return autodiff._node(np.maximum(a.data, 0.0), (a,), "relu", backward)

    monkeypatch.setattr(autodiff, "relu", relu_with_wrong_backward)
    assert main(["gradcheck"]) == 3
    assert "numeric error: gradient check failed for: relu, full-model\n" in capsys.readouterr().err


def test_config_file_with_flag_override(pipeline, tmp_path, capsys):
    _, run, paths = pipeline
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eval_episodes = 2   # file value\nseed = 3\n")
    assert main(["eval", *paths, *MODEL_FLAGS, "--config", str(cfg),
                 "--eval_episodes", "1"]) == 0
    payload = json.loads((run / "report_base.json").read_text())
    assert payload["report"]["episodes"] == 1       # flag beat the file


def test_failed_json_write_keeps_the_previous_file(tmp_path):
    path = tmp_path / "report.json"
    cli._write_json(path, {"micro_ap": 0.5})
    before = path.read_bytes()
    # keys are written in sorted order: "a" is on disk when "b" fails to encode
    with pytest.raises(TypeError):
        cli._write_json(path, {"a": "x" * 100_000, "b": object()})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
