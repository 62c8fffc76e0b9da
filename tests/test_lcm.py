"""Importance fitting, loss-change estimates, and feature selection."""

import logging
import math

import numpy as np
import pytest

from mlfewshot.autodiff import DegenerateVectorError, ShapeError, Tensor, _logistic
from mlfewshot.episodes import make_synthetic
from mlfewshot.errors import ConfigError
from mlfewshot import cli, lcm
from mlfewshot.joint_space import init_joint_space, project_labels
from mlfewshot.lcm import (
    LcmConfig,
    _image_loss_gradient,
    fit_importance,
    normalize_importance,
    select_cells,
)
from mlfewshot.model import init_model, save_checkpoint
from mlfewshot.optim import Adam
from mlfewshot.verification import _frozen_view, _image_loss, weighted_pool

from oracles import loss_change_exact


def toy_joint(channels=4, embed=3, joint=5, seed=0, scale=10.0):
    return init_joint_space(channels, embed, joint, scale, np.random.default_rng(seed))


def prototypes(joint, embeds):
    """The label vectors in the joint space, which the fit scores against."""
    return project_labels(joint, embeds).data


def tape_gradient(joint, fmap, targets, label_joints, weights):
    """d loss / d weights of the taped image loss: the reference the
    closed-form gradient must match."""
    leaf = Tensor(np.array(weights, copy=True), requires_grad=True)
    _image_loss(_frozen_view(joint), Tensor(fmap), np.asarray(targets, dtype=np.float64),
                Tensor(label_joints), leaf).backward()
    return leaf.grad


# ------------------------------------------------------------- normalization


def test_normalize_hand_value():
    out = normalize_importance(np.array([[[0.2, 0.6, 1.0]]]))
    assert np.allclose(out, [[[0.5, 0.5, 1.0]]], atol=1e-15)


def test_normalize_constant_grid_becomes_ones():
    # each grid of a stack is normalized on its own
    stack = np.stack([np.full((3, 3), 0.7), np.arange(9.0).reshape(3, 3)])
    out = normalize_importance(stack)
    assert np.array_equal(out[0], np.ones((3, 3)))
    assert np.array_equal(out[1], normalize_importance(stack[1:])[0])
    assert out[1].max() == 1.0 and out[1, 0, 0] == out[1, 0, 1] == 1.0 / 8.0


def test_normalize_invariants_on_random_grids():
    rng = np.random.default_rng(8)
    stack = rng.uniform(0, 1, size=(200, 4, 4))
    outs = normalize_importance(stack)
    for grid, out in zip(stack, outs):
        assert out.min() >= 0.0 and out.max() <= 1.0
        assert out.max() == 1.0
        assert np.all(out > 0.0)          # zero-guard: no dead cells
        # order preserved
        flat_in, flat_out = grid.reshape(-1), out.reshape(-1)
        order = np.argsort(flat_in)
        assert np.all(np.diff(flat_out[order]) >= -1e-15)


# ---------------------------------------------------------------- selection


def select_from(monkeypatch, accumulator, theta):
    """select_cells over a stack of one map per grid of the (n, h, w)
    `accumulator`, with the fit stubbed to return it."""
    accumulator = np.asarray(accumulator, dtype=np.float64)
    monkeypatch.setattr(lcm, "fit_importance",
                        lambda *args, **kwargs: (np.ones_like(accumulator), accumulator))
    fmaps = np.ones((len(accumulator), 1, *accumulator.shape[1:]))
    return select_cells(None, fmaps, np.ones((len(fmaps), 1)), None,
                        LcmConfig(threshold=theta), trained=True)


def test_sigma_and_selection_hand_values(monkeypatch):
    selection = select_from(monkeypatch, [[[1.0, 0.0]]], 0.65)
    assert abs(selection.sigma[0, 0, 0] - 1.0 / (1.0 + math.exp(-1.0))) <= 1e-15   # ~0.731
    assert abs(selection.sigma[0, 0, 1] - 0.5) <= 1e-15
    assert selection.mask.tolist() == [[[True, False]]]
    assert selection.fell_back.tolist() == [False]


def test_threshold_half_keeps_everything(monkeypatch):
    accumulator = np.abs(np.random.default_rng(0).standard_normal((1, 3, 3)))
    selection = select_from(monkeypatch, accumulator, 0.5)
    assert selection.mask.all() and not selection.fell_back.any()


@pytest.mark.parametrize("theta", [0.49, 1.0, 1.5, -0.1])
def test_threshold_validation(theta):
    with pytest.raises(ConfigError, match="theta"):
        LcmConfig(threshold=theta)


def test_fallback_restores_all_cells_and_reports_it(monkeypatch, caplog):
    # the caller summarises fallbacks; the selection itself logs nothing;
    # each grid of a stack falls back on its own
    with caplog.at_level(logging.WARNING):
        selection = select_from(monkeypatch, [np.zeros((2, 2)), [[1.0, 0.0], [0.0, 0.0]]],
                                0.65)
    assert selection.mask.dtype == bool and selection.mask.shape == (2, 2, 2)
    assert selection.mask[0].all()
    assert np.array_equal(selection.mask[1], [[True, False], [False, False]])
    assert selection.fell_back.tolist() == [True, False]
    assert caplog.records == []


# ------------------------------------------------------- loss-change grids


def test_taylor_matches_autodiff_direct():
    rng = np.random.default_rng(3)
    joint = toy_joint()
    fmap = rng.standard_normal((4, 2, 3))
    targets = np.array([1.0, 0.0])
    labels = prototypes(joint, rng.standard_normal((2, 3)))
    rho = rng.uniform(0.2, 1.0, size=(2, 3))
    gradient = _image_loss_gradient(joint, fmap[None], targets[None], labels)
    grid = np.abs(rho * gradient(rho[None])[0])
    assert grid.shape == (2, 3)
    assert np.all(grid >= 0.0)
    want = np.abs(rho * tape_gradient(joint, fmap, targets, labels, rho))
    assert np.max(np.abs(grid - want)) <= 1e-12


def test_taylor_equals_exact_for_linear_loss():
    # a loss linear in rho has |rho * dL/drho| == |L(rho) - L(rho with cell 0)|
    # exactly; build one by hand with the same machinery shapes
    rng = np.random.default_rng(4)
    fmap = rng.standard_normal((3, 2, 2))
    direction = rng.standard_normal(3)

    def linear_loss(rho_arr):
        w = Tensor(np.asarray(rho_arr, dtype=np.float64), requires_grad=True)
        from mlfewshot import autodiff as ad
        pooled = weighted_pool(Tensor(fmap), w)
        loss = ad.reshape(ad.matmul(ad.reshape(pooled, (1, 3)), Tensor(direction.reshape(3, 1))),
                          ())
        return loss, w

    rho = rng.uniform(0.3, 1.0, size=(2, 2))
    loss, w = linear_loss(rho)
    loss.backward()
    taylor = np.abs(rho * w.grad)
    for r in range(2):
        for c in range(2):
            zeroed = rho.copy()
            zeroed[r, c] = 0.0
            l_with, _ = linear_loss(rho)
            l_without, _ = linear_loss(zeroed)
            exact = abs(l_with.item() - l_without.item())
            assert abs(taylor[r, c] - exact) <= 1e-9


def test_exact_loss_change_is_abs_difference():
    rng = np.random.default_rng(5)
    joint = toy_joint()
    fmap = rng.standard_normal((4, 2, 2))
    targets = np.array([1.0])
    embeds = rng.standard_normal((1, 3))
    rho = np.ones((2, 2))
    delta = loss_change_exact(joint, fmap, targets, embeds, rho, 0, 1)
    assert delta >= 0.0


# ------------------------------------------------ closed form against the tape


def momentum(accumulator, grid, iteration):
    """The loss-change accumulator's update from its definition:
    f_i = alpha_i * f_{i-1} + (1 - alpha_i) * g_i, with the warm-up
    coefficient alpha_i = min(1 - 1/(i+1), 0.95) for iteration i >= 1."""
    alpha = min(1.0 - 1.0 / (iteration + 1), 0.95)
    return alpha * accumulator + (1.0 - alpha) * grid


def tape_fit(joint, fmap, targets, labels, config):
    """The taped fitting loop: one tape for each Adam step and one more for
    each loss-change grid."""
    weights = Tensor(np.ones(fmap.shape[1:]), requires_grad=True)
    accumulator = np.zeros(fmap.shape[1:])
    optimizer = Adam({"importance": weights}, lr=config.learning_rate)
    for iteration in range(1, config.epochs + 1):
        optimizer.zero_grad()
        weights.grad = tape_gradient(joint, fmap, targets, labels, weights.data)
        optimizer.step()
        np.clip(weights.data, 0.0, 1.0, out=weights.data)
        weights.data[...] = normalize_importance(weights.data)
        grid = np.abs(weights.data * tape_gradient(joint, fmap, targets, labels, weights.data))
        accumulator = momentum(accumulator, grid, iteration)
    return weights.data, accumulator


def random_targets(rng, n_labels, kind):
    if kind == "zeros":
        return np.zeros(n_labels)
    if kind == "ones":
        return np.ones(n_labels)
    return (rng.uniform(size=n_labels) > 0.5).astype(np.float64)


@pytest.mark.parametrize("kind", ["mixed", "zeros", "ones"])
@pytest.mark.parametrize("n_labels", [1, 2, 3, 4])
def test_closed_form_gradient_matches_tape(n_labels, kind):
    rng = np.random.default_rng([11, n_labels])
    for trial in range(5):
        joint = toy_joint(seed=trial)
        h, w = rng.integers(1, 5, size=2)
        fmap = rng.standard_normal((4, h, w)) * rng.uniform(0.5, 3.0)
        labels = prototypes(joint, rng.standard_normal((n_labels, 3)))
        targets = random_targets(rng, n_labels, kind)
        weights = rng.uniform(0.0, 1.0, size=(h, w))
        want = tape_gradient(joint, fmap, targets, labels, weights)
        got = _image_loss_gradient(joint, fmap[None], targets[None], labels)(weights[None])
        assert got.shape == (1, h, w)
        assert np.max(np.abs(got[0] - want)) <= 1e-12


@pytest.mark.parametrize("n_labels", [1, 2, 4])
def test_fit_matches_taped_reference_loop(n_labels):
    rng = np.random.default_rng(40 + n_labels)
    for trial in range(3):
        joint = toy_joint(seed=trial)
        fmap = rng.standard_normal((4, 3, 3)) * 2.0
        labels = prototypes(joint, rng.standard_normal((n_labels, 3)))
        targets = random_targets(rng, n_labels, "mixed")
        config = LcmConfig(epochs=20)
        importance, accumulator = tape_fit(joint, fmap, targets, labels, config)
        fitted, smoothed = fit_importance(joint, fmap[None], targets[None], labels, config)
        assert np.max(np.abs(fitted[0] - importance)) <= 1e-12
        assert np.max(np.abs(smoothed[0] - accumulator)) <= 1e-12


def per_image_fit(joint, fmap, targets_row, label_joints, config):
    """One image's closed-form fit on its own (h, w) grid, with the
    one-image products and the one-grid normalization written out: the
    loop a stacked fit must reproduce bitwise for each image."""
    channels, height, width = fmap.shape
    cells = height * width
    pooling = joint.visual.data @ fmap.reshape(channels, cells) / cells
    units = label_joints / np.linalg.norm(label_joints, axis=1)[:, None]

    def gradient(w):
        visual = pooling @ w.reshape(cells)
        norm = np.linalg.norm(visual)
        cosines = units @ visual / norm
        residuals = _logistic(joint.scale * cosines) - targets_row
        d_visual = (joint.scale / norm) * (units.T @ residuals
                                           - (residuals @ cosines) / norm * visual)
        return (pooling.T @ d_visual).reshape(height, width)

    def normalize(v):
        low, high = v.min(), v.max()
        if high == low:
            return np.ones_like(v)
        out = (v - low) / (high - low)
        out[out == 0] = out[out > 0].min()
        return out

    weights = Tensor(np.ones((height, width)))
    accumulator = np.zeros((height, width))
    optimizer = Adam({"importance": weights}, lr=config.learning_rate)
    weights.grad = gradient(weights.data)
    for iteration in range(1, config.epochs + 1):
        optimizer.step()
        np.clip(weights.data, 0.0, 1.0, out=weights.data)
        weights.data[...] = normalize(weights.data)
        weights.grad = gradient(weights.data)
        accumulator = momentum(accumulator, np.abs(weights.data * weights.grad), iteration)
    return weights.data, accumulator


def mixed_stack(rng):
    """Three 3x3 maps with different targets; the second has identical
    cells, so its importance grid stays constant."""
    fmaps = rng.standard_normal((3, 4, 3, 3)) * 2.0
    fmaps[1] = rng.standard_normal(4)[:, None, None]
    targets = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
    return fmaps, targets, rng.standard_normal((3, 3))


def test_stacked_fit_matches_per_image_loop_bitwise():
    rng = np.random.default_rng(13)
    joint = toy_joint()
    fmaps, targets, embeds = mixed_stack(rng)
    labels = prototypes(joint, embeds)
    config = LcmConfig(epochs=20)
    fitted, smoothed = fit_importance(joint, fmaps, targets, labels, config)
    assert fitted.shape == smoothed.shape == (3, 3, 3)
    assert np.all(fitted[1] == 1.0)                      # the constant grid
    fallbacks = set()
    for theta in (0.5, 0.55, 0.6, 0.65, 0.9):
        selection = select_cells(joint, fmaps, targets, labels,
                                 LcmConfig(threshold=theta, epochs=20), trained=True)
        for i in range(len(fmaps)):
            importance, accumulator = per_image_fit(joint, fmaps[i], targets[i], labels, config)
            assert np.array_equal(fitted[i], importance)
            assert np.array_equal(smoothed[i], accumulator)
            assert np.array_equal(selection.importance[i], importance)
            assert np.array_equal(selection.sigma[i], _logistic(accumulator))
            keep = _logistic(accumulator) >= theta
            assert np.array_equal(selection.mask[i], keep if keep.any() else np.ones_like(keep))
            assert selection.fell_back[i] == (not keep.any())
            fallbacks.add(bool(selection.fell_back[i]))
    assert fallbacks == {True, False}                    # both selection paths ran


def test_stacked_fit_matches_taped_reference_loop():
    rng = np.random.default_rng(14)
    joint = toy_joint()
    fmaps, targets, embeds = mixed_stack(rng)
    labels = prototypes(joint, embeds)
    config = LcmConfig(epochs=20)
    fitted, smoothed = fit_importance(joint, fmaps, targets, labels, config)
    for i in range(3):
        importance, accumulator = tape_fit(joint, fmaps[i], targets[i], labels, config)
        assert np.max(np.abs(fitted[i] - importance)) <= 1e-12
        assert np.max(np.abs(smoothed[i] - accumulator)) <= 1e-12


def test_degenerate_or_mismatched_inputs_raise():
    joint = toy_joint()                                 # label joints have 5 dimensions
    with pytest.raises(DegenerateVectorError):
        fit_importance(joint, np.zeros((1, 4, 2, 2)), np.array([[1.0]]),
                       np.ones((1, 5)), LcmConfig())
    with pytest.raises(DegenerateVectorError):          # zero label vector
        fit_importance(joint, np.ones((1, 4, 2, 2)), np.array([[1.0]]),
                       np.zeros((1, 5)), LcmConfig())
    with pytest.raises(ShapeError):                     # one target, two labels
        fit_importance(joint, np.ones((1, 4, 2, 2)), np.array([[1.0]]),
                       np.ones((2, 5)), LcmConfig())
    with pytest.raises(ShapeError):                     # targets for one image of two
        fit_importance(joint, np.ones((2, 4, 2, 2)), np.array([[1.0]]),
                       np.ones((1, 5)), LcmConfig())
    with pytest.raises(ConfigError, match="stack"):     # one map, not a stack
        fit_importance(joint, np.ones((4, 2, 2)), np.array([[1.0]]),
                       np.ones((1, 5)), LcmConfig())


def test_one_degenerate_image_in_a_stack_raises():
    rng = np.random.default_rng(12)
    fmaps = rng.standard_normal((3, 4, 2, 2))
    fmaps[1] = 0.0                                      # pools to the zero vector
    with pytest.raises(DegenerateVectorError):
        fit_importance(toy_joint(), fmaps, np.ones((3, 2)), rng.standard_normal((2, 5)),
                       LcmConfig())


# ------------------------------------------------------------ fitting loop


def test_fit_requires_trained_model():
    joint = toy_joint()
    with pytest.raises(ConfigError, match="untrained-model"):
        select_cells(joint, np.zeros((1, 4, 2, 2)), np.array([[1.0]]),
                     np.zeros((1, 5)), LcmConfig(), trained=False)


def test_fit_on_uniform_cells_stays_uniform():
    # all cells identical -> the loss is symmetric in every weight, so the
    # fitted importance and accumulator stay constant across the grid
    rng = np.random.default_rng(6)
    joint = toy_joint()
    cell = rng.standard_normal(4)
    fmap = np.repeat(cell[:, None], 4, axis=1).reshape(4, 2, 2)
    labels = prototypes(joint, rng.standard_normal((2, 3)))
    importance, accumulator = fit_importance(joint, fmap[None], np.array([[1.0, 0.0]]), labels,
                                             LcmConfig(epochs=5))
    assert np.allclose(importance, importance[0, 0, 0], atol=1e-12)
    assert np.allclose(accumulator, accumulator[0, 0, 0], atol=1e-12)


def test_fit_importance_stays_in_unit_interval():
    rng = np.random.default_rng(7)
    joint = toy_joint()
    fmap = rng.standard_normal((4, 3, 3)) * 3
    labels = prototypes(joint, rng.standard_normal((2, 3)))
    importance, accumulator = fit_importance(joint, fmap[None], np.array([[1.0, 1.0]]), labels,
                                             LcmConfig(epochs=8))
    assert importance.min() >= 0.0 and importance.max() <= 1.0
    assert importance.max() == 1.0
    assert np.all(accumulator >= 0.0)


def test_fit_is_deterministic():
    rng = np.random.default_rng(9)
    joint = toy_joint()
    fmap = rng.standard_normal((4, 2, 3))
    labels = prototypes(joint, rng.standard_normal((2, 3)))
    a = fit_importance(joint, fmap[None], np.array([[1.0, 0.0]]), labels, LcmConfig(epochs=4))
    b = fit_importance(joint, fmap[None], np.array([[1.0, 0.0]]), labels, LcmConfig(epochs=4))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_fit_does_not_touch_model_parameters():
    rng = np.random.default_rng(10)
    joint = toy_joint()
    before_v = joint.visual.data.copy()
    before_t = joint.text.data.copy()
    fmap = rng.standard_normal((4, 2, 2))
    labels = prototypes(joint, rng.standard_normal((1, 3)))
    fit_importance(joint, fmap[None], np.array([[1.0]]), labels, LcmConfig(epochs=3))
    assert np.array_equal(joint.visual.data, before_v)
    assert np.array_equal(joint.text.data, before_t)
    assert joint.visual.grad is None and joint.text.grad is None


def test_config_validation():
    with pytest.raises(ConfigError):
        LcmConfig(threshold=0.4)
    with pytest.raises(ConfigError):
        LcmConfig(epochs=0)
    with pytest.raises(ConfigError):
        LcmConfig(learning_rate=0.0)


# ------------------------------------------------------- inspect-lcm's grids


@pytest.fixture(scope="module")
def inspect_argv(tmp_path_factory):
    """`inspect-lcm` on one image of a tiny generated dataset, with a
    checkpoint marked trained; the output directory flag comes last."""
    root = tmp_path_factory.mktemp("inspect")
    make_synthetic(root, n_base=2, n_novel=1, images_per_label=3, grid=(3, 3), channels=8,
                   embed_dim=4, seed=1)
    model = init_model(channels=8, embed_dim=4, joint_dim=4, heads=2, dynconv_inner=2,
                       dynconv_top=2, scale=10.0, dropout=0.1, rng=np.random.default_rng(0))
    model.epoch = 1
    save_checkpoint(root / "model.ckpt", model)
    return ["inspect-lcm", "--manifest", str(root / "manifest.jsonl"),
            "--splits", str(root / "labels.tsv"), "--embeddings", str(root / "embeddings.txt"),
            "--checkpoint", str(root / "model.ckpt"), "--d_j", "4", "--n_heads", "2",
            "--d_c", "2", "--n_d", "2", "--image", "img00000", "--output"]


def test_grid_files_are_parseable(inspect_argv, tmp_path):
    assert cli.main([*inspect_argv, str(tmp_path)]) == 0
    grids = {}
    for name in ("importance", "sigma", "mask"):
        lines = (tmp_path / f"{name}_img00000.txt").read_text().splitlines()
        grids[name] = [line.split(" ") for line in lines]
        assert len(lines) == 3 and all(len(row) == 3 for row in grids[name]), name
    for name in ("importance", "sigma"):
        assert all(len(v.split(".")[1]) == 6 for row in grids[name] for v in row), name
    importance, sigma = (np.array(grids[name], dtype=float) for name in ("importance", "sigma"))
    assert np.all((importance >= 0.0) & (importance <= 1.0))
    assert np.all((sigma >= 0.5) & (sigma <= 1.0))
    assert {v for row in grids["mask"] for v in row} <= {"0", "1"}


def test_failed_grid_writes_keep_the_previous_files(inspect_argv, tmp_path, monkeypatch):
    assert cli.main([*inspect_argv, str(tmp_path)]) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    select = cli.select_cells
    for broken in ("importance", "sigma"):
        def unformattable(*args, **kwargs):
            # the grid's first row is written before its second fails to format
            selection = select(*args, **kwargs)
            grid = getattr(selection, broken).astype(object)
            grid[0, 1, 0] = "x"
            setattr(selection, broken, grid)
            return selection

        monkeypatch.setattr(cli, "select_cells", unformattable)
        with pytest.raises(ValueError):
            cli.main([*inspect_argv, str(tmp_path)])
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before, broken
