"""Adam optimizer over named parameter tensors."""

import math

import numpy as np

from .autodiff import Tensor
from .errors import DataError


BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
# values a step takes per pass: a block of its five float64 buffers (values,
# two moments, gradients, scratch) is 640 KiB, so it stays in a 1-2 MiB L2
BLOCK = 16_384


class Adam:
    """Adam (BETA1, BETA2, EPS above) with both bias corrections folded into
    the step size, as Kingma & Ba give it at the end of their section 2:

        m = BETA1 * m + (1 - BETA1) * g
        v = BETA2 * v + (1 - BETA2) * g * g
        theta -= (m / (sqrt(v) + eps_t)) * step_t

    with step_t = lr * sqrt(1 - BETA2**t) / (1 - BETA1**t) and
    eps_t = EPS * sqrt(1 - BETA2**t).  Algebraically this is the textbook
    update with bias-corrected moments; it takes one sqrt and one divide
    where that takes one sqrt and three divides, and the two differ only in
    rounding.  At step one, a parameter with gradient g moves by
    -lr * g / (|g| + EPS) up to rounding; a parameter with zero gradient and
    fresh moments does not move at all.

    Every parameter's values become a view into one flat float64 buffer, in
    parameter order, and the moments are flat the same way.  `m[name]` and
    `v[name]` are the parameter's views into the flat moments.  Each
    parameter's `grad_home` is its view into a flat gradient buffer, where
    backward writes its gradient, so a step reads the gradients in place.
    A step runs all of its passes over one BLOCK of the flat buffers before
    it moves on to the next, so a block's values, moments, gradients and
    scratch stay in cache between passes.
    """

    def __init__(self, params: dict[str, Tensor], lr: float):
        self.params = dict(params)
        self.lr = float(lr)
        self.steps = 0
        if not self.params:
            raise ValueError("Adam needs at least one parameter")
        self._tensors = tuple(self.params.values())
        size = sum(p.data.size for p in self._tensors)
        # values, moments and gradients, in one allocation
        self._flat, self._m, self._v, self._grads = np.zeros((4, size))
        self.m, self.v = {}, {}
        stop = 0
        for name, p in self.params.items():
            start, stop, shape = stop, stop + p.data.size, p.data.shape
            self._flat[start:stop] = p.data.reshape(-1)
            p.data = self._flat[start:stop].reshape(shape)
            p.grad_home = self._grads[start:stop].reshape(shape)
            self.m[name] = self._m[start:stop].reshape(shape)
            self.v[name] = self._v[start:stop].reshape(shape)
        scratch = np.zeros(min(size, BLOCK))
        self._blocks = tuple(
            (self._flat[start:start + BLOCK], self._m[start:start + BLOCK],
             self._v[start:start + BLOCK], self._grads[start:start + BLOCK],
             scratch[:min(BLOCK, size - start)])
            for start in range(0, size, BLOCK))

    def zero_grad(self):
        for p in self._tensors:
            p.grad = None

    def step(self, lr: float | None = None):
        """Apply one update in place; lr overrides the stored rate for this step.

        A gradient that backward wrote into the parameter's `grad_home` is
        read where it is; any other array is copied there and a missing
        gradient reads as zeros.  Every `.grad` is left as it was."""
        rate = self.lr if lr is None else float(lr)
        self.steps += 1
        bias1 = 1.0 - BETA1 ** self.steps
        root_bias2 = math.sqrt(1.0 - BETA2 ** self.steps)
        step = rate * root_bias2 / bias1
        eps = EPS * root_bias2
        for p in self._tensors:
            if p.grad is None:
                p.grad_home.fill(0.0)
            elif p.grad is not p.grad_home:
                np.copyto(p.grad_home, p.grad.reshape(p.grad_home.shape))
        for flat, m, v, grad, scratch in self._blocks:
            m *= BETA1
            m += np.multiply(grad, 1.0 - BETA1, scratch)
            np.multiply(grad, 1.0 - BETA2, scratch)
            scratch *= grad
            v *= BETA2
            v += scratch
            np.sqrt(v, scratch)
            scratch += eps
            np.divide(m, scratch, scratch)
            scratch *= step
            flat -= scratch

    def state_tensors(self) -> dict[str, np.ndarray]:
        """Moment buffers and step counter, for checkpointing."""
        out = {"optim.steps": np.float64(self.steps)}
        for name in self.params:
            out[f"optim.m.{name}"] = self.m[name]
            out[f"optim.v.{name}"] = self.v[name]
        return out

    def load_state_tensors(self, tensors: dict[str, np.ndarray]):
        """Restore what `state_tensors` gave.  A missing entry, or a moment
        whose shape is not its parameter's, raises DataError naming the
        tensor; nothing is changed then."""
        if "optim.steps" not in tensors:
            raise DataError("optimizer state lacks tensor 'optim.steps'")
        if np.shape(tensors["optim.steps"]) != ():
            raise DataError(f"optimizer state tensor 'optim.steps' has shape "
                            f"{np.shape(tensors['optim.steps'])}, a step count has ()")
        for name, p in self.params.items():
            for key in (f"optim.m.{name}", f"optim.v.{name}"):
                if key not in tensors:
                    raise DataError(f"optimizer state lacks tensor {key!r}")
                if np.shape(tensors[key]) != p.data.shape:
                    raise DataError(f"optimizer state tensor {key!r} has shape "
                                    f"{np.shape(tensors[key])}, its parameter {p.data.shape}")
        self.steps = int(tensors["optim.steps"])
        for name in self.params:
            self.m[name][...] = tensors[f"optim.m.{name}"]
            self.v[name][...] = tensors[f"optim.v.{name}"]
