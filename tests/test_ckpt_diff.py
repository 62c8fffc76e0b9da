"""tools/ckpt_diff.py: the per-tensor largest difference of two checkpoints."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from mlfewshot import seeding
from mlfewshot.model import init_model, save_checkpoint

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ckpt_diff.py"


def run_tool(*args):
    done = subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                          capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout, done.stderr


def test_ckpt_diff_reports_each_tensor_and_the_largest(tmp_path):
    model = init_model(channels=6, embed_dim=4, joint_dim=8, heads=2, dynconv_inner=3,
                       dynconv_top=4, scale=10.0, dropout=0.1,
                       rng=seeding.substream(3, "init"))
    save_checkpoint(tmp_path / "a.ckpt", model)
    model.joint.text.data[1, 2] += 0.25
    model.dynconv.norm1_bias.data[0] -= 1e-3
    save_checkpoint(tmp_path / "b.ckpt", model, config_scalars={"seed": 3})

    code, out, _ = run_tool(tmp_path / "a.ckpt", tmp_path / "b.ckpt")
    assert code == 0 and len(out.splitlines()) == 1
    report = json.loads(out)
    assert report["max_tensor"] == "joint.text"
    assert report["max"] == report["tensors"]["joint.text"] == 0.25
    assert np.isclose(report["tensors"]["dynconv.norm1.bias"], 1e-3, rtol=1e-9, atol=0.0)
    assert report["tensors"]["joint.visual"] == 0.0
    assert report["only_in_a"] == [] and report["only_in_b"] == ["config.seed"]
    assert report["shape_differs"] == []

    (tmp_path / "bad.ckpt").write_bytes(b"not a checkpoint")
    code, out, err = run_tool(tmp_path / "a.ckpt", tmp_path / "bad.ckpt")
    assert code == 2 and out == "" and "bad-magic" in err
