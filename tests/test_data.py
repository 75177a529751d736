"""Dataset loading, splitting, evaluation instances, and the generator."""

import tracemalloc
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from npa.data import (MAX_INFERRED_ITEMS, Basket, Catalog, SynthSpec, gen_synthetic,
                      load_baskets, load_catalog, make_eval_instances, save_baskets,
                      save_catalog, split_dataset)
from npa.errors import DataError

from conftest import EXPERIMENT


def test_load_single_line(tmp_path):
    path = tmp_path / "b.txt"
    path.write_text("b1,3,1,2\n", encoding="utf-8")
    catalog, baskets = load_baskets(path)
    assert len(baskets) == 1
    assert baskets[0].basket_id == "b1"
    assert baskets[0].items == [3, 1, 2]
    assert catalog.num_items == 4


def test_load_empty_file_error(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("", encoding="utf-8")
    with pytest.raises(DataError, match="empty"):
        load_baskets(path)


def test_load_reports_line_number_and_token(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("b1,1,2\nb2,1,x\n", encoding="utf-8")
    with pytest.raises(DataError, match=r":2.*'x'"):
        load_baskets(path)


def test_load_validates_against_catalog(tmp_path):
    path = tmp_path / "b.txt"
    path.write_text("b1,0,5\n", encoding="utf-8")
    with pytest.raises(DataError, match="outside catalog"):
        load_baskets(path, catalog=Catalog(["a", "b", "c"]))


def test_load_rejects_duplicate_item_in_basket(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("b0,1,2\nb1,3,7,3\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"dup\.txt:2: duplicate item id 3$"):
        load_baskets(path)


def test_load_rejects_huge_id_without_catalog(tmp_path):
    path = tmp_path / "huge.txt"
    path.write_text("b0,1,2\nb1,3,12345678901234567890\n", encoding="utf-8")
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match=r"huge\.txt:2: item id 12345678901234567890 .*--catalog"):
            load_baskets(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_inferred_catalog_bound_is_exclusive(tmp_path):
    path = tmp_path / "edge.txt"
    path.write_text(f"b0,0,{MAX_INFERRED_ITEMS - 1}\n", encoding="utf-8")
    catalog, _ = load_baskets(path)
    assert catalog.num_items == MAX_INFERRED_ITEMS
    path.write_text(f"b0,0,{MAX_INFERRED_ITEMS}\n", encoding="utf-8")
    with pytest.raises(DataError, match=f"item id {MAX_INFERRED_ITEMS} "):
        load_baskets(path)
    _, baskets = load_baskets(path, catalog=Catalog([""] * (MAX_INFERRED_ITEMS + 1)))
    assert baskets[0].items == [0, MAX_INFERRED_ITEMS]


def test_round_trip_thousand_baskets(tmp_path):
    rng = np.random.default_rng(0)
    baskets = [Basket(f"b{i}", rng.choice(50, size=rng.integers(1, 9), replace=False).tolist())
               for i in range(1000)]
    path = tmp_path / "round.txt"
    save_baskets(path, baskets)
    _, loaded = load_baskets(path)
    assert len(loaded) == 1000
    for a, b in zip(baskets, loaded):
        assert a.basket_id == b.basket_id and a.items == b.items


def test_catalog_round_trip_and_validation(tmp_path):
    cat = Catalog(["apple", "beet", "corn"])
    path = tmp_path / "cat.tsv"
    save_catalog(path, cat)
    loaded = load_catalog(path)
    assert loaded.names == cat.names
    path.write_text("0\tapple\n2\tcorn\n", encoding="utf-8")
    with pytest.raises(DataError, match="dense"):
        load_catalog(path)


def test_split_all_train():
    baskets = [Basket(str(i), [i]) for i in range(7)]
    train, valid, test = split_dataset(baskets, (1, 0, 0), seed=0)
    assert len(train) == 7 and not valid and not test


def test_split_exact_multiple_sizes():
    baskets = [Basket(str(i), [i]) for i in range(10)]
    train, valid, test = split_dataset(baskets, (0.6, 0.2, 0.2), seed=1)
    assert (len(train), len(valid), len(test)) == (6, 2, 2)
    ids = {b.basket_id for b in train} | {b.basket_id for b in valid} | {b.basket_id for b in test}
    assert len(ids) == 10  # disjoint and exhaustive


def test_split_seed_determinism():
    baskets = [Basket(str(i), [i]) for i in range(25)]
    a = split_dataset(baskets, (0.6, 0.2, 0.2), seed=9)
    b = split_dataset(baskets, (0.6, 0.2, 0.2), seed=9)
    for part_a, part_b in zip(a, b):
        assert [x.basket_id for x in part_a] == [x.basket_id for x in part_b]


def test_split_rejects_bad_ratios():
    baskets = [Basket("0", [0])]
    with pytest.raises(DataError, match="sum"):
        split_dataset(baskets, (0.5, 0.2, 0.2), seed=0)
    with pytest.raises(DataError, match="non-negative"):
        split_dataset(baskets, (1.5, -0.3, -0.2), seed=0)


def test_eval_instance_two_item_basket():
    instances, skipped = make_eval_instances([Basket("b", [5, 9])], 0.5, seed=0)
    assert skipped == 0 and len(instances) == 1
    inst = instances[0]
    assert len(inst.inputs) == 1 and len(inst.labels) == 1
    assert set(inst.inputs) | set(inst.labels) == {5, 9}


def test_eval_temporal_inputs_contiguous():
    rng = np.random.default_rng(1)
    baskets = [Basket(str(i), rng.choice(100, size=8, replace=False).tolist())
               for i in range(250)]
    instances, _ = make_eval_instances(baskets, 0.5, seed=2, temporal=True,
                                       instances_per_basket=4)
    assert len(instances) == 1000
    by_id = {b.basket_id: b.items for b in baskets}
    for inst in instances:
        items = by_id[inst.basket_id]
        start = items.index(inst.inputs[0])
        assert inst.inputs == items[start:start + len(inst.inputs)]


def test_eval_instances_partition_basket():
    rng = np.random.default_rng(3)
    baskets = [Basket(str(i), rng.choice(60, size=int(rng.integers(2, 9)),
                                         replace=False).tolist())
               for i in range(250)]
    instances, _ = make_eval_instances(baskets, 0.4, seed=4,
                                       instances_per_basket=4)
    by_id = {b.basket_id: set(b.items) for b in baskets}
    for inst in instances:
        assert not set(inst.inputs) & set(inst.labels)
        assert set(inst.inputs) | set(inst.labels) <= by_id[inst.basket_id]
        assert inst.inputs and inst.labels


def test_eval_skips_singletons_with_count():
    baskets = [Basket("a", [1]), Basket("b", [2, 3]), Basket("c", [4])]
    instances, skipped = make_eval_instances(baskets, 0.5, seed=0)
    assert skipped == 2 and len(instances) == 1


def test_gen_zero_noise_single_pattern_stays_in_pool():
    spec = SynthSpec(num_patterns=4, items_per_pattern=10, patterns_per_basket=(1, 1),
                     noise_probability=0.0, basket_length=(3, 6), num_baskets=50, seed=5)
    _, baskets, truth = gen_synthetic(spec)
    for basket, patterns in zip(baskets, truth.basket_patterns):
        assert len(patterns) == 1
        pool = set(truth.pools[patterns[0]])
        assert set(basket.items) <= pool


def test_gen_single_pattern_catalog():
    spec = SynthSpec(num_patterns=1, items_per_pattern=12, patterns_per_basket=(1, 1),
                     noise_probability=0.0, basket_length=(2, 4), num_baskets=20, seed=6)
    catalog, baskets, truth = gen_synthetic(spec)
    assert catalog.num_items == 12
    assert all(p == [0] for p in truth.basket_patterns)


def test_gen_uniform_pattern_frequencies():
    spec = SynthSpec(num_patterns=5, items_per_pattern=10, patterns_per_basket=(1, 1),
                     noise_probability=0.0, basket_length=(2, 4),
                     num_baskets=10_000, seed=7)
    _, _, truth = gen_synthetic(spec)
    counts = np.zeros(5)
    for patterns in truth.basket_patterns:
        counts[patterns[0]] += 1
    freq = counts / counts.sum()
    assert np.max(np.abs(freq - 0.2)) < 0.03


def test_gen_provenance_complete_and_consistent():
    spec = SynthSpec(num_patterns=4, items_per_pattern=8, patterns_per_basket=(1, 3),
                     noise_probability=0.2, basket_length=(3, 7), num_baskets=300, seed=8)
    _, baskets, truth = gen_synthetic(spec)
    for basket, patterns, prov in zip(baskets, truth.basket_patterns, truth.provenance):
        assert len(prov) == len(basket.items)
        for item, src in zip(basket.items, prov):
            if src == -1:
                continue
            assert src in patterns
            assert item in truth.pools[src]


def test_gen_no_duplicate_items_within_basket():
    spec = SynthSpec(num_patterns=3, items_per_pattern=6, patterns_per_basket=(1, 2),
                     noise_probability=0.3, basket_length=(4, 8), num_baskets=200, seed=9)
    _, baskets, _ = gen_synthetic(spec)
    for b in baskets:
        assert len(b.items) == len(set(b.items))


def test_gen_profile_weights_sum_to_one():
    spec = SynthSpec(within_pool_decay=0.72, within_pool_floor=0.18)
    w = spec.pool_weights()
    np.testing.assert_allclose(w.sum(), 1.0, atol=1e-12)
    assert (np.diff(w) <= 0).all()  # non-increasing popularity profile


def _oracle_synthetic(spec):
    """gen_synthetic's loop drawing each pool item with rng.choice(ipp, p=weights)
    and each slot's pattern with rng.integers(0, k), also when k is 1."""
    rng = np.random.default_rng(spec.seed)
    ipp = spec.items_per_pattern
    num_items = spec.num_patterns * ipp
    weights = spec.pool_weights()
    baskets, basket_patterns, provenance = [], [], []
    for _ in range(spec.num_baskets):
        k = int(rng.integers(spec.patterns_per_basket[0], spec.patterns_per_basket[1] + 1))
        chosen = sorted(int(p) for p in rng.choice(spec.num_patterns, size=k, replace=False))
        length = int(rng.integers(spec.basket_length[0], spec.basket_length[1] + 1))
        items, prov = [], []
        for _ in range(length):
            for _attempt in range(20):
                if rng.random() < spec.noise_probability:
                    item, source = int(rng.integers(0, num_items)), -1
                else:
                    source = chosen[int(rng.integers(0, k))]
                    item = source * ipp + int(rng.choice(ipp, p=weights))
                if item not in items:
                    items.append(item)
                    prov.append(source)
                    break
        assert items  # the first slot always lands, so no basket is empty
        baskets.append(items)
        basket_patterns.append(chosen)
        provenance.append(prov)
    names = [f"p{i // ipp}_item_{i}" for i in range(num_items)]
    pools = [list(range(p * ipp, (p + 1) * ipp)) for p in range(spec.num_patterns)]
    return names, baskets, pools, basket_patterns, provenance


def _assert_matches_oracle(spec):
    catalog, baskets, truth = gen_synthetic(spec)
    names, items, pools, basket_patterns, provenance = _oracle_synthetic(spec)
    assert catalog.names == names
    assert [b.basket_id for b in baskets] == [f"s{i}" for i in range(spec.num_baskets)]
    assert [b.items for b in baskets] == items
    assert truth.pools == pools
    assert truth.basket_patterns == basket_patterns
    assert truth.provenance == provenance


@st.composite
def _specs(draw):
    num_patterns = draw(st.integers(1, 6))
    if draw(st.booleans()):
        patterns = (1, 1)
    else:
        hi = draw(st.integers(1, num_patterns))
        patterns = (draw(st.integers(1, hi)), hi)
    low = draw(st.integers(1, 6))
    return SynthSpec(
        num_patterns=num_patterns,
        items_per_pattern=draw(st.integers(1, 12)),  # 1-3 items saturate a pool
        patterns_per_basket=patterns,
        noise_probability=draw(st.sampled_from([0.0, 0.02, 1.0])),
        basket_length=(low, low + draw(st.integers(0, 8))),
        num_baskets=draw(st.integers(1, 40)),
        seed=draw(st.integers(0, 2**32 - 1)),
        within_pool_decay=draw(st.sampled_from([0.0, 0.72])),
        within_pool_floor=draw(st.sampled_from([0.0, 0.18, 1.0])))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=_specs())
@example(spec=SynthSpec(num_patterns=1, items_per_pattern=2, patterns_per_basket=(1, 1),
                        noise_probability=0.0, basket_length=(4, 9), num_baskets=30, seed=1))
@example(spec=SynthSpec(num_patterns=3, items_per_pattern=1, patterns_per_basket=(2, 3),
                        noise_probability=0.0, basket_length=(5, 6), num_baskets=30, seed=2,
                        within_pool_decay=0.72))
def test_gen_equals_per_draw_oracle(spec):
    # The first two examples ask for more items than their pools hold, so
    # slots are dropped after 20 attempts.
    _assert_matches_oracle(spec)


def test_gen_equals_per_draw_oracle_on_experiment_spec():
    _assert_matches_oracle(SynthSpec(**EXPERIMENT["spec"]))


@pytest.mark.parametrize("spec", [SynthSpec(), SynthSpec(**EXPERIMENT["spec"]),
                                  SynthSpec(items_per_pattern=1)],
                         ids=["uniform", "experiment", "one_item"])
def test_numpy_stream_facts_the_generator_relies_on(spec):
    # gen_synthetic draws a pool item as bisect_right(cdf, rng.random()) in
    # place of rng.choice(ipp, p=weights), and skips rng.integers(0, 1).
    # Both keep the random stream only while numpy's Generator behaves so.
    w = spec.pool_weights()
    cdf = w.cumsum()
    cdf /= cdf[-1]
    cdf = cdf.tolist()
    for seed in range(20):
        via_choice, via_cdf = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(50):
            got = int(via_choice.choice(len(w), p=w))
            want = bisect_right(cdf, via_cdf.random())
            assert got == want, (
                f"numpy {np.__version__}: Generator.choice(n, p=w) returned {got}, not "
                f"searchsorted(cdf, random(), 'right') = {want}; gen_synthetic's pool "
                "draw no longer reproduces its stream")
        assert via_choice.bit_generator.state == via_cdf.bit_generator.state, (
            f"numpy {np.__version__}: Generator.choice(n, p=w) no longer consumes exactly "
            "one random() double; gen_synthetic's stream would shift")
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    assert rng.integers(0, 1) == 0 and rng.bit_generator.state == before, (
        f"numpy {np.__version__}: Generator.integers(0, 1) now consumes random bits; "
        "gen_synthetic skips that call for one-pattern baskets, so its stream would shift")


def test_spec_range_messages_state_rule_and_bound():
    with pytest.raises(DataError, match=r"^patterns_per_basket range \(1, 3\) invalid: "
                                        r"need 1 <= low <= high <= num_patterns \(2\)$"):
        SynthSpec(num_patterns=2)
    with pytest.raises(DataError, match=r"^patterns_per_basket range \(3, 2\) invalid: "
                                        r"need 1 <= low <= high <= num_patterns \(8\)$"):
        SynthSpec(patterns_per_basket=(3, 2))
    for bad in ((0, 3), (5, 4)):
        with pytest.raises(DataError, match=rf"^basket_length range \({bad[0]}, {bad[1]}\) "
                                            r"invalid: need 1 <= low <= high$"):
            SynthSpec(basket_length=bad)


def test_spec_validation():
    with pytest.raises(DataError):
        SynthSpec(patterns_per_basket=(0, 2))
    with pytest.raises(DataError):
        SynthSpec(patterns_per_basket=(3, 2))
    with pytest.raises(DataError):
        SynthSpec(noise_probability=1.5)
    with pytest.raises(DataError):
        SynthSpec(within_pool_decay=1.0)


def test_basket_rejects_no_items():
    with pytest.raises(DataError, match=r"^basket 'b7' is empty$"):
        Basket("b7", [])
