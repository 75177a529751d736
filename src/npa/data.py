"""Basket datasets: loading, splitting, evaluation instances, synthesis.

File formats (UTF-8, LF line endings):

* basket file: one basket per line, ``basket_id,item,item,...`` with
  items in add order;
* catalog file: one ``id<TAB>name`` per line, ids dense from 0.

The synthetic generator plants combination patterns: disjoint item pools
such that each basket mixes items from a few sampled pools (interleaved
in random order) plus uniform noise items. It emits complete provenance
for every generated item, which is the ground truth the verification
harness checks models against.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import DataError

# Without a catalog, load_baskets names every id up to the largest one seen;
# an id at or above this bound is rejected before that list is built.
MAX_INFERRED_ITEMS = 1_000_000

__all__ = [
    "MAX_INFERRED_ITEMS",
    "Basket",
    "Catalog",
    "EvalInstance",
    "SynthSpec",
    "SynthTruth",
    "gen_synthetic",
    "load_baskets",
    "load_catalog",
    "make_eval_instances",
    "save_baskets",
    "save_catalog",
    "split_dataset",
]


@dataclass
class Basket:
    basket_id: str
    items: list

    def __post_init__(self):
        if len(self.items) < 1:
            raise DataError(f"basket {self.basket_id!r} is empty")
        self.items = [int(i) for i in self.items]


@dataclass
class Catalog:
    """Dense id-to-name table for the item universe."""

    names: list

    @property
    def num_items(self) -> int:
        return len(self.names)


@dataclass
class EvalInstance:
    """A model input prefix and the held-out remainder to be recovered."""

    inputs: list
    labels: list
    basket_id: str = ""


@dataclass
class SynthSpec:
    """Knobs of the planted-pattern generator.

    within_pool_decay > 0 switches the within-pool item draw from uniform
    to a geometric head (rate = decay) mixed with a uniform floor of mass
    within_pool_floor, which plants a popularity profile inside each pool
    while keeping every item reachable.
    """

    num_patterns: int = 8
    items_per_pattern: int = 25
    patterns_per_basket: tuple = (1, 3)
    noise_probability: float = 0.1
    basket_length: tuple = (4, 10)
    num_baskets: int = 1000
    seed: int = 0
    within_pool_decay: float = 0.0
    within_pool_floor: float = 0.2

    def __post_init__(self):
        if self.num_patterns < 1 or self.items_per_pattern < 1:
            raise DataError("need at least one pattern and one item per pattern")
        lo, hi = self.patterns_per_basket
        if not 1 <= lo <= hi <= self.num_patterns:
            raise DataError(f"patterns_per_basket range {self.patterns_per_basket} invalid: "
                            f"need 1 <= low <= high <= num_patterns ({self.num_patterns})")
        if not 0.0 <= self.noise_probability <= 1.0:
            raise DataError("noise_probability must be in [0, 1]")
        llo, lhi = self.basket_length
        if not 1 <= llo <= lhi:
            raise DataError(f"basket_length range {self.basket_length} invalid: "
                            "need 1 <= low <= high")
        if self.num_baskets < 1:
            raise DataError("num_baskets must be >= 1")
        if not 0.0 <= self.within_pool_decay < 1.0:
            raise DataError("within_pool_decay must be in [0, 1)")
        if not 0.0 <= self.within_pool_floor <= 1.0:
            raise DataError("within_pool_floor must be in [0, 1]")

    def pool_weights(self) -> np.ndarray:
        n = self.items_per_pattern
        if self.within_pool_decay == 0.0:
            return np.full(n, 1.0 / n)
        g = self.within_pool_decay ** np.arange(n)
        g /= g.sum()
        return (1.0 - self.within_pool_floor) * g + self.within_pool_floor / n


@dataclass
class SynthTruth:
    """Planted ground truth: pools, per-basket labels, per-item provenance.

    provenance[i][j] is the pattern id that produced item j of basket i,
    or -1 for a noise item.
    """

    pools: list
    basket_patterns: list
    provenance: list


def load_catalog(path) -> Catalog:
    names = {}
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise DataError(f"{path}:{ln}: expected 'id<TAB>name', got {line!r}")
            try:
                item_id = int(parts[0])
            except ValueError:
                raise DataError(f"{path}:{ln}: non-integer item id {parts[0]!r}") from None
            if item_id in names:
                raise DataError(f"{path}:{ln}: duplicate item id {item_id}")
            names[item_id] = parts[1]
    if not names:
        raise DataError(f"{path}: empty catalog")
    if sorted(names) != list(range(len(names))):
        raise DataError(f"{path}: item ids are not dense in [0, {len(names)})")
    return Catalog([names[i] for i in range(len(names))])


def save_catalog(path, catalog: Catalog):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i, name in enumerate(catalog.names):
            fh.write(f"{i}\t{name}\n")


def load_baskets(path, catalog: Catalog | None = None):
    """Parse a basket file; returns (catalog, baskets).

    Malformed lines, including a basket that repeats an item, are reported
    with their line number. Without an explicit catalog, a nameless one
    spanning the observed ids is built, and an id at or above
    MAX_INFERRED_ITEMS is rejected.
    """
    baskets = []
    max_id = -1
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(",")
            if len(parts) < 2:
                raise DataError(f"{path}:{ln}: expected 'basket_id,item,...', got {line!r}")
            items = []
            for p in parts[1:]:
                try:
                    items.append(int(p))
                except ValueError:
                    raise DataError(f"{path}:{ln}: unknown item token {p!r}") from None
            if any(i < 0 for i in items):
                raise DataError(f"{path}:{ln}: negative item id")
            if catalog is not None and any(i >= catalog.num_items for i in items):
                bad = next(i for i in items if i >= catalog.num_items)
                raise DataError(f"{path}:{ln}: item id {bad} outside catalog of {catalog.num_items}")
            if catalog is None and max(items) >= MAX_INFERRED_ITEMS:
                raise DataError(
                    f"{path}:{ln}: item id {max(items)} needs a catalog of more than "
                    f"{MAX_INFERRED_ITEMS} items; pass one with --catalog")
            seen = set()
            for i in items:
                if i in seen:
                    raise DataError(f"{path}:{ln}: duplicate item id {i}")
                seen.add(i)
            max_id = max(max_id, max(items))
            baskets.append(Basket(parts[0], items))
    if not baskets:
        raise DataError(f"{path}: empty basket file")
    if catalog is None:
        catalog = Catalog([f"item_{i}" for i in range(max_id + 1)])
    return catalog, baskets


def save_baskets(path, baskets):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for b in baskets:
            fh.write(b.basket_id + "," + ",".join(str(i) for i in b.items) + "\n")


def split_dataset(baskets, ratios, seed: int):
    """Disjoint, exhaustive, seeded (train, valid, test) split."""
    ratios = [float(r) for r in ratios]
    if len(ratios) != 3 or any(r < 0 for r in ratios):
        raise DataError(f"need three non-negative ratios, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise DataError(f"ratios sum to {sum(ratios)}, expected 1")
    n = len(baskets)
    order = np.random.default_rng(seed).permutation(n)
    n_valid = int(np.floor(ratios[1] * n))
    n_test = int(np.floor(ratios[2] * n))
    n_train = n - n_valid - n_test
    train = [baskets[i] for i in order[:n_train]]
    valid = [baskets[i] for i in order[n_train:n_train + n_valid]]
    test = [baskets[i] for i in order[n_train + n_valid:]]
    return train, valid, test


def make_eval_instances(baskets, input_fraction: float = 0.5, seed: int = 0,
                        temporal: bool = False, instances_per_basket: int = 1):
    """Split each test basket into a model input and held-out labels.

    Temporal data uses a consecutive window at a random offset as input;
    otherwise a random subset is the input (kept in source order). The
    remainder becomes the ground truth. Returns (instances, skipped)
    where skipped counts length-1 baskets that cannot be split.
    """
    if not 0.0 < input_fraction < 1.0:
        raise DataError("input_fraction must be in (0, 1)")
    if instances_per_basket < 1:
        raise DataError("instances_per_basket must be >= 1")
    rng = np.random.default_rng(seed)
    instances = []
    skipped = 0
    for b in baskets:
        items = b.items
        n = len(items)
        if n < 2:
            skipped += 1
            continue
        n_in = int(round(n * input_fraction))
        n_in = max(1, min(n - 1, n_in))
        for _ in range(instances_per_basket):
            if temporal:
                start = int(rng.integers(0, n - n_in + 1))
                picked = np.zeros(n, dtype=bool)
                picked[start:start + n_in] = True
            else:
                picked = np.zeros(n, dtype=bool)
                picked[rng.choice(n, size=n_in, replace=False)] = True
            inputs = [items[i] for i in range(n) if picked[i]]
            labels = [items[i] for i in range(n) if not picked[i]]
            instances.append(EvalInstance(inputs, labels, b.basket_id))
    return instances, skipped


def gen_synthetic(spec: SynthSpec):
    """Generate planted-pattern baskets; returns (catalog, baskets, truth).

    The catalog has num_patterns * items_per_pattern items; pattern p owns
    the contiguous pool [p*ipp, (p+1)*ipp). Each basket samples its
    pattern subset uniformly, then fills each slot from a uniformly chosen
    basket pattern (or, with noise_probability, from the whole catalog),
    which interleaves the patterns in random order. Items never repeat
    within a basket.

    A pool item is ``bisect_right(cdf, rng.random())`` on the within-pool
    CDF, built once per call: ``rng.choice(ipp, p=weights)`` draws the same
    one double and searches the same CDF, but rebuilds it on every call.
    With one pattern per basket the pattern draw is skipped, since
    ``rng.integers(0, 1)`` consumes no bits. So the random stream and every
    output are those of the per-slot ``choice`` and ``integers`` calls.
    """
    rng = np.random.default_rng(spec.seed)
    ipp = spec.items_per_pattern
    num_items = spec.num_patterns * ipp
    pools = [list(range(p * ipp, (p + 1) * ipp)) for p in range(spec.num_patterns)]
    item_pattern = np.arange(num_items) // ipp
    cdf = spec.pool_weights().cumsum()
    cdf /= cdf[-1]
    cdf = cdf.tolist()

    baskets = []
    basket_patterns = []
    provenance = []
    lo_p, hi_p = spec.patterns_per_basket
    lo_l, hi_l = spec.basket_length
    for bi in range(spec.num_baskets):
        k = int(rng.integers(lo_p, hi_p + 1))
        chosen = sorted(int(p) for p in rng.choice(spec.num_patterns, size=k, replace=False))
        length = int(rng.integers(lo_l, hi_l + 1))
        items = []
        prov = []
        seen = set()
        for _ in range(length):
            for _attempt in range(20):
                if rng.random() < spec.noise_probability:
                    item = int(rng.integers(0, num_items))
                    source = -1
                else:
                    p = chosen[int(rng.integers(0, k))] if k > 1 else chosen[0]
                    item = p * ipp + bisect_right(cdf, rng.random())
                    source = p
                if item not in seen:
                    break
            else:
                continue  # basket saturated this pool; drop the slot
            seen.add(item)
            items.append(item)
            prov.append(source)
        baskets.append(Basket(f"s{bi}", items))
        basket_patterns.append(chosen)
        provenance.append(prov)

    catalog = Catalog([f"p{item_pattern[i]}_item_{i}" for i in range(num_items)])
    truth = SynthTruth(pools=pools, basket_patterns=basket_patterns, provenance=provenance)
    return catalog, baskets, truth
