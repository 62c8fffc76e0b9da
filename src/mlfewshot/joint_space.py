"""The joint visual/text embedding space.

Global visual features and label word embeddings are projected into one
space by two bias-free linear maps; an image/label score is a scaled
cosine similarity there (``model.score_against``), and the class-mapping
loss is summed binary cross-entropy of those scores against the multi-hot
ground truth (``model.score_loss``).
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError


@dataclass
class JointSpaceParams:
    """Bias-free projections into the joint space plus the score scale."""

    visual: Tensor  # (joint_dim, channels)
    text: Tensor    # (joint_dim, embed_dim)
    scale: float    # multiplies every cosine score

    @property
    def joint_dim(self):
        return self.visual.shape[0]

    @property
    def channels(self):
        return self.visual.shape[1]

    @property
    def embed_dim(self):
        return self.text.shape[1]

    def parameters(self) -> dict[str, Tensor]:
        return {"joint.visual": self.visual, "joint.text": self.text}


def init_joint_space(channels, embed_dim, joint_dim, scale, rng) -> JointSpaceParams:
    """Seeded uniform +-1/sqrt(fan_in) initialization for both projections."""
    if joint_dim < 1 or channels < 1 or embed_dim < 1:
        raise ConfigError(f"joint space dims must be positive, got ({joint_dim}, {channels}, {embed_dim})")
    visual = rng.uniform(-1.0 / np.sqrt(channels), 1.0 / np.sqrt(channels), size=(joint_dim, channels))
    text = rng.uniform(-1.0 / np.sqrt(embed_dim), 1.0 / np.sqrt(embed_dim), size=(joint_dim, embed_dim))
    return JointSpaceParams(
        visual=Tensor(visual, requires_grad=True),
        text=Tensor(text, requires_grad=True),
        scale=float(scale),
    )


def project_visual(params: JointSpaceParams, feature: Tensor) -> Tensor:
    """Map a pooled visual feature (channels,) into the joint space."""
    return ad.matmul(params.visual, feature)


def project_label(params: JointSpaceParams, embedding: Tensor) -> Tensor:
    """Map a label word embedding (embed_dim,) into the joint space."""
    return ad.matmul(params.text, embedding)
