"""AdamW with decoupled weight decay for named parameter tensors."""

from __future__ import annotations

import numpy as np

__all__ = ["AdamW", "MissingGradError", "clip_grad_norm"]


class MissingGradError(RuntimeError):
    """A parameter had no gradient when an update was requested."""


class AdamW:
    """Decoupled-weight-decay Adam over a list of (name, Tensor) pairs.

    Moments are kept per parameter in float64. The weight decay term is
    applied directly to the parameter value, not folded into the gradient:

        m = b1*m + (1-b1)*g
        v = b2*v + (1-b2)*g^2
        w = w - lr * ( m/(1-b1^t) / (sqrt(v/(1-b2^t)) + eps) + wd * w )

    The betas and eps are fixed at Adam's usual values.
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params, lr: float = 3e-4, weight_decay: float = 0.01):
        self.params = [(name, p) for name, p in params]
        # Written as "not in range" so that NaN fails too.
        for name, value in (("lr", lr), ("weight_decay", weight_decay)):
            if not 0.0 <= value < np.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self.first_moment = {name: np.zeros_like(p.data) for name, p in self.params}
        self.second_moment = {name: np.zeros_like(p.data) for name, p in self.params}

    def step(self):
        """Apply one update; every parameter must carry a gradient."""
        missing = [name for name, p in self.params if p.grad is None]
        if missing:
            raise MissingGradError(f"no gradient for parameters: {', '.join(missing)}")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.BETA1 ** t
        bc2 = 1.0 - self.BETA2 ** t
        for name, p in self.params:
            g = p.grad
            m = self.first_moment[name]
            v = self.second_moment[name]
            m *= self.BETA1
            m += (1.0 - self.BETA1) * g
            v *= self.BETA2
            v += (1.0 - self.BETA2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.EPS)
            if self.weight_decay:
                update = update + self.weight_decay * p.data
            p.data = p.data - self.lr * update

    def zero_grad(self):
        for _, p in self.params:
            p.grad = None


def clip_grad_norm(params, max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm > 0.

    A norm that is not finite raises FloatingPointError and leaves every
    gradient as it was. The message names the first parameter whose
    gradient holds an inf or NaN, or says that the norm of finite gradients
    overflows."""
    if not max_norm > 0:
        raise ValueError("max_norm must be positive")
    total = 0.0
    for _, p in params:
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    norm = total ** 0.5
    if not np.isfinite(norm):
        bad = next((name for name, p in params
                    if p.grad is not None and not np.isfinite(p.grad).all()), None)
        raise FloatingPointError(f"gradient of {bad} is not finite" if bad is not None
                                 else "gradient norm overflows float64")
    if norm > max_norm:
        factor = max_norm / norm
        for _, p in params:
            if p.grad is not None:
                p.grad *= factor
    return norm
