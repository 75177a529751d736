"""Dataset loading, splitting, evaluation instances, and the generator."""

import tracemalloc

import numpy as np
import pytest

from npa.data import (MAX_INFERRED_ITEMS, Basket, Catalog, SynthSpec, gen_synthetic,
                      load_baskets, load_catalog, make_eval_instances, save_baskets,
                      save_catalog, split_dataset)
from npa.errors import DataError


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
    baskets = [Basket(str(i), rng.choice(100, size=8, replace=False).tolist(),
                      has_temporal_order=True) for i in range(250)]
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


def test_spec_validation():
    with pytest.raises(DataError):
        SynthSpec(patterns_per_basket=(0, 2))
    with pytest.raises(DataError):
        SynthSpec(patterns_per_basket=(3, 2))
    with pytest.raises(DataError):
        SynthSpec(noise_probability=1.5)
    with pytest.raises(DataError):
        SynthSpec(within_pool_decay=1.0)
