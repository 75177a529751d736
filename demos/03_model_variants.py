"""The two model variants on one basket: squashed vs multi context.

Run:  python demos/03_model_variants.py
"""

import numpy as np

from npa.model import ModelConfig, forward, init_params
from npa.recommend import recommend_topk

basket = [3, 17, 9, 12]

# Squashed-context: every layer merges its channels, one context per step.
sc = ModelConfig(num_items=30, embedding_dim=16, num_layers=2,
                 channels_per_layer=[2, 2], num_patterns=8, variant="SC",
                 max_sequence_length=8, use_positions=False)
sc_params = init_params(sc, seed=1)
state = forward(basket, sc, sc_params)
print("SC contexts:", len(state.contexts), "tensor of", state.contexts[0].shape)

# Each output row is causal: it summarizes the basket up to that step only.
noisy = list(basket)
noisy[-1] = 25
state2 = forward(noisy, sc, sc_params)
drift = np.abs(state.contexts[0].data - state2.contexts[0].data).max(axis=1)
print("per-step drift after changing the last item:", np.round(drift, 6))

# Multi-context: the last layer keeps one context per head, sampled from a
# shared codebook by Gumbel-max, and remembers each sample's log belief.
mc = ModelConfig(num_items=30, embedding_dim=16, num_layers=2,
                 channels_per_layer=[2, 2], num_patterns=8, variant="MC",
                 mc_last_layer_heads=3, max_sequence_length=8, use_positions=False)
mc_params = init_params(mc, seed=1)
mstate = forward(basket, mc, mc_params, rng_seed=42)
print("MC contexts:", len(mstate.contexts), "each", mstate.contexts[0].shape)
for h, unit_state in enumerate(mstate.unit_states[-1]):
    print(f"  head {h}: sampled codebook rows per step {unit_state.pattern_index.tolist()}"
          f"  log-beliefs {np.round(unit_state.pattern_logprob.data, 2)}")

# Same seed, same draw: the forward pass is deterministic.
again = forward(basket, mc, mc_params, rng_seed=42)
same = all(np.array_equal(a.data, b.data) for a, b in zip(mstate.contexts, again.contexts))
print("bit-identical on replay:", same)

# Top-k completion. SC scores one softmax; MC merges its contexts with the
# log-sum-exp scoring function (temperature inside the exponent).
print("SC top-5:", recommend_topk(basket, sc, sc_params, 5).item_ids)
print("MC top-5:", recommend_topk(basket, mc, mc_params, 5, rng_seed=42).item_ids)
