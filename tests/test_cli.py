"""End-to-end command-line pipeline on a tiny generated dataset."""

import json
import shutil
import struct

import numpy as np
import pytest

from mlfewshot import autodiff, cli, seeding
from mlfewshot.autodiff import Tensor
from mlfewshot.cli import main
from mlfewshot.config import PATH_KEYS
from mlfewshot.model import CHECKPOINT_MAGIC, init_model, load_checkpoint, save_checkpoint

TRAIN_FLAGS = ["--d_j", "8", "--n_heads", "2", "--d_c", "4", "--n_d", "4",
               "--epochs", "2", "--warmup_epochs", "1", "--episodes_per_epoch", "2",
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
    code = main(["eval", *paths, "--mode", mode, "--split", "novel",
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
    assert main(["eval", *paths, "--eval_episodes", "1", "--seed", "3"]) == 0
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


class SavedState:
    """Stands in for an optimizer when writing chosen optim.* tensors."""

    def __init__(self, tensors):
        self.tensors = tensors

    def state_tensors(self):
        return self.tensors


@pytest.mark.parametrize("corrupt", ["missing", "shape"])
def test_resume_with_bad_optimizer_state_exits_2(pipeline, tmp_path, capsys, corrupt):
    _, run, paths = pipeline
    model, extras = load_checkpoint(run / "model.ckpt")
    state = {k: v for k, v in extras.items() if k.startswith("optim.")}
    if corrupt == "missing":
        del state["optim.m.joint.visual"]
    else:
        state["optim.m.joint.visual"] = state["optim.m.joint.visual"][0]
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
    assert "data error" in err and "optim.m.joint.visual" in err


def test_inspect_lcm_writes_grids(pipeline, capsys):
    _, run, paths = pipeline
    code = main(["inspect-lcm", *paths, "--image", "img00000"])
    assert code == 0
    out = capsys.readouterr().out
    assert "image img00000 (base)" in out
    for prefix in ("importance", "sigma", "mask"):
        grid = (run / f"{prefix}_img00000.txt").read_text().splitlines()
        assert len(grid) == 4 and all(len(row.split()) == 4 for row in grid)


def test_gradcheck_ops_pass(capsys):
    assert main(["gradcheck", "--skip-model"]) == 0
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
    save_checkpoint(spare, model)
    given = dict(zip(paths[::2], paths[1::2]), **{"--checkpoint": str(spare),
                                                   "--output": str(tmp_path / "out")})
    argv = [part for pair in given.items() for part in pair]
    assert main(["eval", *argv, "--eval_episodes", "1"]) == 2
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


def test_exit_code_3_for_numeric_errors(monkeypatch, capsys):
    # a relu whose backward doubles the gradient fails its finite-difference check
    def relu_with_wrong_backward(a):
        def backward(g):
            a.accumulate(2.0 * g * (a.data > 0))
        return autodiff._node(np.maximum(a.data, 0.0), (a,), "relu", backward)

    monkeypatch.setattr(autodiff, "relu", relu_with_wrong_backward)
    assert main(["gradcheck", "--skip-model"]) == 3
    assert "numeric error: gradient check failed for: relu\n" in capsys.readouterr().err


def test_config_file_with_flag_override(pipeline, tmp_path, capsys):
    _, run, paths = pipeline
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eval_episodes = 2   # file value\nseed = 3\n")
    assert main(["eval", *paths, "--config", str(cfg),
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
