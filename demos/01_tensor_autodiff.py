"""Tour of the tensor engine: forward ops, gradients, and an AdamW fit.

Run:  python demos/01_tensor_autodiff.py
"""

import numpy as np

from npa import tensor as T
from npa.optim import AdamW
from npa.tensor import Tensor

# ---------------------------------------------------------------------------
# 1. Tensors are float64 numpy arrays with optional gradient tracking.
rng = np.random.default_rng(0)
w = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
x = Tensor(rng.normal(size=(4, 3)))
targets = np.array([0, 2, 1, 2])  # one class per row of x


def objective():
    """Mean cross-entropy of the rows of x W^T against their targets."""
    return T.mean(T.cross_entropy_with_logits(T.matmul(x, T.transpose(w)), targets))


loss = objective()
print("loss:", float(loss.data))

# 2. backward() fills .grad on every tensor that asked for it.
T.backward(loss)
print("grad shape:", w.grad.shape, "grad norm:", float(np.linalg.norm(w.grad)))

# 3. Sanity-check one coordinate against a central finite difference.
i, j = 1, 2
h = 1e-6
orig = w.data[i, j]
vals = []
for delta in (h, -h):
    w.data[i, j] = orig + delta
    vals.append(float(objective().data))
w.data[i, j] = orig
fd = (vals[0] - vals[1]) / (2 * h)
print(f"autodiff {w.grad[i, j]:+.8f} vs finite difference {fd:+.8f}")

# 4. AdamW with decoupled weight decay drives a small least-squares fit.
A = rng.normal(size=(10, 2))
target = A @ np.array([0.5, -2.0])
theta = Tensor(np.zeros((2, 1)), requires_grad=True)
opt = AdamW([("theta", theta)], lr=0.1, weight_decay=0.0)
for step in range(200):
    resid = T.add(T.matmul(Tensor(A), theta), Tensor(-target[:, None]))
    sq = T.scale(T.mean(T.matmul(T.transpose(resid), resid)), 1.0 / len(target))
    T.backward(sq)
    opt.step()
    opt.zero_grad()
    if step % 50 == 0 or step == 199:
        print(f"step {step:3d}  loss {float(sq.data):.2e}")
print("fitted:", theta.data.ravel(), " true: [ 0.5 -2. ]")
