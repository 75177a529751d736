"""One vector-quantized attention unit, stage by stage.

The unit looks up a basket's combination pattern in a trainable codebook
(stage one) and then asks which basket items matter for completing that
pattern (stage two). This script walks a toy basket through both stages
and shows the three pattern-extraction strategies. ``unit_forward`` runs
the unit on every prefix of the basket at once: row t of each output
concerns items 0..t, and the last row is the whole basket.

Run:  python demos/02_vqa_unit.py
"""

import numpy as np

from npa import vqa
from npa.tensor import Tensor

rng = np.random.default_rng(7)
params = vqa.init_vqa_params(rng, input_dim=8, attn_dim=4, num_patterns=5)

basket = rng.normal(size=(4, 8))  # four items, 8-dim features
q, k, v = vqa.project_items(basket, params)
print("queries", q.shape, "keys", k.shape, "values", v.shape)

# Stage one: per-item pattern beliefs; the basket belief is their mean.
a = vqa.pattern_attention(q, params)
print("per-item beliefs:")
for row in a:
    print("  ", np.round(row, 3))
uniforms = rng.random((4, 5))  # Gumbel draws, used by sampling extraction only
states = {kind: vqa.unit_forward(Tensor(basket), params, vqa.ExtractionStrategy(kind),
                                 uniforms=uniforms)
          for kind in (vqa.GREEDY, vqa.WEIGHTED_AVERAGE, vqa.SAMPLING)}
abar = states[vqa.WEIGHTED_AVERAGE].prefix_attention.data[-1]
print("basket belief:", np.round(abar, 3), " (sums to", abar.sum(), ")")

# Stage two, three ways to pull a pattern vector out of the belief.
for kind, state in states.items():
    picked = "" if state.pattern_index is None else f" (codebook row {state.pattern_index[-1]})"
    print(f"{kind:17s} -> context {np.round(state.contexts.data[-1], 3)}{picked}")

# Sampling is a Gumbel-max draw from the belief; at temperature 1 the
# empirical frequencies match the belief itself. One single-item basket
# per draw keeps every row's belief the same.
draws = 20000
single = np.broadcast_to(basket[:1], (draws, 1, 8))
sampled = vqa.unit_forward(Tensor(single), params, vqa.ExtractionStrategy(vqa.SAMPLING),
                           uniforms=rng.random((draws, 1, 5)))
freq = np.bincount(sampled.pattern_index[:, 0], minlength=5) / draws
print("belief   ", np.round(a[0], 3))
print("empirical", np.round(freq, 3))

# The unit is a set function: permuting the items leaves the whole-basket
# belief and context unchanged.
strategy = vqa.ExtractionStrategy(vqa.WEIGHTED_AVERAGE)
c0 = vqa.unit_forward(Tensor(basket), params, strategy).contexts.data[-1]
c1 = vqa.unit_forward(Tensor(basket[::-1].copy()), params, strategy).contexts.data[-1]
print("order sensitivity:", float(np.max(np.abs(c0 - c1))))
