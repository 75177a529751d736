"""Ranking metrics against hand-computed fixtures, plus the count baselines.

The five fixtures below were worked out by hand from the metric
definitions (hits over cutoffs, precision at the truth size, binary DCG
at cutoff 20 with log2 discounts); the NDCG decimals are frozen from
that one-time computation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npa.data import Basket
from npa.errors import DataError
from npa.metrics import (CP, CUTOFFS, ITEM_CF, POP, CountBaseline, compute_metrics,
                         format_report, report_records)


def pad(ranking, n=20, start=900):
    filler = [i for i in range(start, start + n) if i not in ranking]
    return (list(ranking) + filler)[:max(n, len(ranking))]


def test_fixture_1_two_truth_items_split():
    ranking = pad([0, 50, 9])
    rep = compute_metrics([(ranking, {0, 9})])
    assert rep.precision[1] == 1.0
    assert rep.recall[1] == 0.5
    assert rep.precision[5] == pytest.approx(0.4, abs=1e-15)
    assert rep.recall[5] == 1.0
    assert rep.r_precision == 0.5
    assert rep.ndcg == pytest.approx(0.9197207891481876, abs=1e-12)


def test_fixture_2_perfect_ranking():
    ranking = pad([3, 4, 5])
    rep = compute_metrics([(ranking, {3, 4, 5})])
    assert rep.ndcg == pytest.approx(1.0, abs=1e-12)
    assert rep.r_precision == 1.0
    for k in CUTOFFS:
        assert rep.recall[k] == pytest.approx(min(k, 3) / 3, abs=1e-15)
        assert rep.precision[k] == pytest.approx(min(k, 3) / k, abs=1e-15)


def test_fixture_3_no_hits():
    rep = compute_metrics([(pad([]), {1, 2})])
    assert rep.ndcg == 0.0 and rep.r_precision == 0.0
    assert all(v == 0 for v in rep.precision.values())
    assert all(v == 0 for v in rep.recall.values())


def test_fixture_4_interleaved_hits():
    ranking = pad([9, 1, 3, 5, 11, 12, 13, 14, 15, 16, 17, 7])
    rep = compute_metrics([(ranking, {1, 5, 7})])
    assert rep.precision[1] == 0.0
    assert rep.precision[5] == pytest.approx(0.4, abs=1e-15)
    assert rep.recall[5] == pytest.approx(2 / 3, abs=1e-15)
    assert rep.precision[15] == pytest.approx(0.2, abs=1e-15)
    assert rep.recall[15] == 1.0
    assert rep.r_precision == pytest.approx(1 / 3, abs=1e-15)
    assert rep.ndcg == pytest.approx(0.6250062742988064, abs=1e-12)


def test_fixture_5_truth_larger_than_cutoff():
    truth = set(range(25))
    ranking = list(range(10)) + list(range(100, 110)) + list(range(10, 20))
    rep = compute_metrics([(ranking, truth)])
    assert rep.precision[10] == 1.0
    assert rep.precision[20] == pytest.approx(0.5, abs=1e-15)
    assert rep.recall[20] == pytest.approx(10 / 25, abs=1e-15)
    # R-Precision cut = min(|truth|, list length) = 25: 15 hits there.
    assert rep.r_precision == pytest.approx(15 / 25, abs=1e-15)
    assert rep.ndcg == pytest.approx(0.6453673484599424, abs=1e-12)


def test_metric_identity_pk_times_k():
    rng = np.random.default_rng(0)
    for _ in range(50):
        truth = set(rng.choice(100, size=int(rng.integers(1, 8)), replace=False).tolist())
        ranking = rng.permutation(100).tolist()
        rep = compute_metrics([(ranking, truth)])
        for k in CUTOFFS:
            np.testing.assert_allclose(rep.precision[k] * k, rep.recall[k] * len(truth),
                                       atol=1e-12)


def test_ndcg_bounds_and_perfect_condition():
    rng = np.random.default_rng(1)
    for _ in range(50):
        truth = set(rng.choice(60, size=int(rng.integers(1, 6)), replace=False).tolist())
        ranking = rng.permutation(60).tolist()
        rep = compute_metrics([(ranking, truth)])
        assert 0.0 <= rep.ndcg <= 1.0
        front = [i for i in ranking if i in truth] + [i for i in ranking if i not in truth]
        assert compute_metrics([(front, truth)]).ndcg == pytest.approx(1.0, abs=1e-12)


def test_compute_metrics_input_validation():
    with pytest.raises(DataError, match="shorter"):
        compute_metrics([([1, 2, 3], {1})])
    with pytest.raises(DataError, match="empty ground truth"):
        compute_metrics([(pad([]), set())])
    with pytest.raises(DataError, match="no instances"):
        compute_metrics([])


def test_pop_ranking_by_frequency():
    train = [Basket("1", [0] * 1), Basket("2", [0, 1]), Basket("3", [0, 1]),
             Basket("4", [0, 1, 2]), Basket("5", [0, 0])]
    # counts: 0 -> 6, 1 -> 3, 2 -> 1
    pop = CountBaseline(POP, 4).fit(train)
    assert pop.ranked([3], 3) == [0, 1, 2]


def test_cp_recommends_co_occurring_item():
    train = [Basket("1", [0, 1]), Basket("2", [0, 1]), Basket("3", [2, 3])]
    cp = CountBaseline(CP, 4).fit(train)
    assert cp.ranked([0], 1) == [1]


def test_itemcf_matches_hand_cosine_oracle():
    train = [Basket("1", [0, 1]), Basket("2", [0, 1]), Basket("3", [1, 2]),
             Basket("4", [2, 3]), Basket("5", [0, 2])]
    cf = CountBaseline(ITEM_CF, 4).fit(train)
    co = np.zeros((4, 4))
    for b in train:
        for i in b.items:
            for j in b.items:
                if i != j:
                    co[i, j] += 1
    basket = [0]
    scores = np.zeros(4)
    for cand in range(4):
        for member in basket:
            ni, nc = np.linalg.norm(co[member]), np.linalg.norm(co[cand])
            if ni and nc:
                scores[cand] += co[cand] @ co[member] / (ni * nc)
    got = cf.scores(basket)
    np.testing.assert_allclose(got, scores, atol=1e-12)
    expected_rank = [i for i in np.argsort(-scores, kind="stable") if i != 0]
    assert cf.ranked(basket, 3) == expected_rank


def test_baselines_never_recommend_basket_members():
    rng = np.random.default_rng(2)
    train = [Basket(str(i), rng.choice(30, size=5, replace=False).tolist())
             for i in range(60)]
    for kind in (POP, CP, ITEM_CF):
        model = CountBaseline(kind, 30).fit(train)
        for _ in range(30):
            basket = rng.choice(30, size=4, replace=False).tolist()
            assert not set(model.ranked(basket, 10)) & set(basket)


def _lexsort_ranked(scores, basket, k):
    """Reference ranking: members to -inf, one lexsort, non-finite dropped."""
    s = np.array(scores, dtype=np.float64)
    s[sorted(set(basket))] = -np.inf
    order = np.lexsort((np.arange(s.size), -s))
    order = order[np.isfinite(s[order])]
    return order[:k].tolist()


@settings(max_examples=150, deadline=None)
@given(data=st.data(), kind=st.sampled_from([POP, CP, ITEM_CF]),
       num_items=st.integers(2, 25))
def test_ranked_matches_lexsort_oracle(data, kind, num_items):
    item = st.integers(0, num_items - 1)
    train = data.draw(st.lists(st.lists(item, min_size=1, max_size=6), max_size=12))
    model = CountBaseline(kind, num_items).fit(train)
    basket = data.draw(st.lists(item, min_size=1, max_size=num_items))
    k = data.draw(st.integers(0, num_items + 2))
    assert model.ranked(basket, k) == _lexsort_ranked(model.scores(basket), basket, k)


def _itemcf_per_item(model, basket):
    """ItemCF scores the way the baseline once computed them: one
    (items x items) by items product per basket item."""
    co = model.cooccurrence
    norms = np.sqrt((co * co).sum(axis=1))
    sims = np.zeros(model.num_items)
    for i in basket:
        if norms[i] == 0:
            continue
        dots = co @ co[i]
        denom = norms * norms[i]
        good = denom > 0
        sims[good] += dots[good] / denom[good]
    return sims


@settings(max_examples=100, deadline=None)
@given(data=st.data(), num_items=st.integers(1, 40))
def test_itemcf_scores_equal_per_item_loop(data, num_items):
    item = st.integers(0, num_items - 1)
    train = data.draw(st.lists(st.lists(item, min_size=1, max_size=8), max_size=40))
    model = CountBaseline(ITEM_CF, num_items).fit(train)
    basket = data.draw(st.lists(item, max_size=num_items))
    assert np.array_equal(model.scores(basket), _itemcf_per_item(model, basket))


def test_unseen_items_tallied_and_score_zero():
    train = [Basket("1", [0, 1]), Basket("2", [0, 1])]
    cf = CountBaseline(ITEM_CF, 5).fit(train)
    s = cf.scores([4])  # item 4 never seen
    assert cf.unseen_tally == 1
    np.testing.assert_array_equal(s, np.zeros(5))


def test_report_formats():
    rep = compute_metrics([(pad([0, 9]), {0, 9})])
    table = format_report(rep)
    assert "R-Precision" in table and "NDCG" in table
    records = report_records(rep)
    assert any(line.startswith("metric name=P@1 ") for line in records)
    assert all("=" in line for line in records)
