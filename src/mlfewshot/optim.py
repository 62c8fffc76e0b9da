"""Adam optimizer over named parameter tensors."""

import numpy as np

from .autodiff import Tensor


BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Adam with bias correction (BETA1, BETA2, EPS above).

    At step one, a parameter with gradient g moves by -lr * g / (|g| + EPS);
    a parameter with zero gradient and fresh moments does not move at all.
    """

    def __init__(self, params: dict[str, Tensor], lr: float):
        self.params = dict(params)
        self.lr = float(lr)
        self.steps = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in self.params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self, lr: float | None = None):
        """Apply one update in place; lr overrides the stored rate for this step."""
        rate = self.lr if lr is None else float(lr)
        self.steps += 1
        bias1 = 1.0 - BETA1 ** self.steps
        bias2 = 1.0 - BETA2 ** self.steps
        for name, p in self.params.items():
            grad = p.grad if p.grad is not None else np.zeros_like(p.data)
            m = self.m[name]
            v = self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * grad
            v *= BETA2
            v += (1.0 - BETA2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            p.data -= rate * m_hat / (np.sqrt(v_hat) + EPS)

    def state_tensors(self) -> dict[str, np.ndarray]:
        """Moment buffers and step counter, for checkpointing."""
        out = {"optim.steps": np.float64(self.steps)}
        for name in self.params:
            out[f"optim.m.{name}"] = self.m[name]
            out[f"optim.v.{name}"] = self.v[name]
        return out

    def load_state_tensors(self, tensors: dict[str, np.ndarray]):
        self.steps = int(tensors["optim.steps"])
        for name in self.params:
            self.m[name] = np.array(tensors[f"optim.m.{name}"], dtype=np.float64)
            self.v[name] = np.array(tensors[f"optim.v.{name}"], dtype=np.float64)
