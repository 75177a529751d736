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

    Memory: a step allocates one scratch array, sized to the largest
    parameter, and each parameter's new weight array; every product and
    sum is that of the formula above, in its order. Weights are rebound
    to the new array and never written in place, so arrays that
    tensor._kept derived from the old weights are rebuilt, not stale.
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
        scratch = np.empty(max((p.data.size for _, p in self.params), default=0))
        for name, p in self.params:
            g = p.grad
            m = self.first_moment[name]
            v = self.second_moment[name]
            s = scratch[:g.size].reshape(g.shape)
            m *= self.BETA1
            m += np.multiply(g, 1.0 - self.BETA1, out=s)
            v *= self.BETA2
            np.multiply(g, 1.0 - self.BETA2, out=s)
            v += np.multiply(s, g, out=s)
            np.divide(v, bc2, out=s)
            np.sqrt(s, out=s)
            s += self.EPS
            update = np.divide(m, bc1, out=np.empty_like(m))
            update /= s
            if self.weight_decay:
                update += np.multiply(p.data, self.weight_decay, out=s)
            update *= self.lr
            p.data = np.subtract(p.data, update, out=update)

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
