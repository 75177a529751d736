"""Ranking metrics and the simple count-based baselines.

Metric definitions (macro-averaged over instances, binary relevance):

* P@k  = hits in the top k / k
* R@k  = hits in the top k / |truth|
* R-Precision = precision at cutoff min(|truth|, list length)
* NDCG = DCG at cutoff 20 with 1/log2(rank+1) discount, divided by the
  ideal DCG of the instance. The cutoff of 20 (the largest reported k)
  is a fixed, documented choice.

The baselines are fitted on the training split only: POP ranks by global
frequency, CP by summed co-occurrence counts with the basket, and item
CF by summed cosine similarity between co-occurrence vectors. Items
never seen in training score zero and are counted in a tally. A
baseline ranks with ``recommend.rank_items``, the model's own top-k:
descending score, ties to the lower id, basket members and non-finite
scores dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .recommend import rank_items

CUTOFFS = (1, 5, 10, 15, 20)
NDCG_CUTOFF = 20

POP = "POP"
CP = "CP"
ITEM_CF = "ItemCF"
_KINDS = (POP, CP, ITEM_CF)

__all__ = [
    "CP",
    "CUTOFFS",
    "CountBaseline",
    "ITEM_CF",
    "MetricReport",
    "NDCG_CUTOFF",
    "POP",
    "compute_metrics",
    "format_report",
    "report_records",
]


@dataclass
class MetricReport:
    precision: dict
    recall: dict
    r_precision: float
    ndcg: float
    instance_count: int


def compute_metrics(ranked_with_truth) -> MetricReport:
    """Macro-averaged metrics over (ranked item list, truth items) pairs.

    Every instance needs a non-empty truth and a ranking of at least 20
    items (the largest cutoff); shorter lists are an error, not a silent
    truncation.
    """
    ranked_with_truth = list(ranked_with_truth)
    if not ranked_with_truth:
        raise DataError("compute_metrics: no instances")
    need = max(CUTOFFS)
    p_sum = {k: 0.0 for k in CUTOFFS}
    r_sum = {k: 0.0 for k in CUTOFFS}
    rp_sum = 0.0
    ndcg_sum = 0.0
    discounts = 1.0 / np.log2(np.arange(2, NDCG_CUTOFF + 2))
    for ranking, truth in ranked_with_truth:
        ranking = [int(i) for i in ranking]
        truth = set(int(i) for i in truth)
        if not truth:
            raise DataError("compute_metrics: empty ground truth")
        if len(ranking) < need:
            raise DataError(
                f"compute_metrics: ranking of {len(ranking)} items is shorter than cutoff {need}")
        rel = np.array([1.0 if i in truth else 0.0 for i in ranking])
        hits = np.cumsum(rel)
        for k in CUTOFFS:
            p_sum[k] += hits[k - 1] / k
            r_sum[k] += hits[k - 1] / len(truth)
        cut = min(len(truth), len(ranking))
        rp_sum += hits[cut - 1] / cut
        dcg = float((rel[:NDCG_CUTOFF] * discounts).sum())
        ideal = float(discounts[:min(len(truth), NDCG_CUTOFF)].sum())
        ndcg_sum += dcg / ideal
    n = len(ranked_with_truth)
    return MetricReport(
        precision={k: p_sum[k] / n for k in CUTOFFS},
        recall={k: r_sum[k] / n for k in CUTOFFS},
        r_precision=rp_sum / n,
        ndcg=ndcg_sum / n,
        instance_count=n,
    )


class CountBaseline:
    """POP, CP, or item-item CF fitted on training baskets.

    Keeps a dense item-frequency vector and (for CP and CF) a dense
    co-occurrence matrix; this is sized for desk-scale catalogs.
    """

    def __init__(self, kind: str, num_items: int):
        if kind not in _KINDS:
            raise DataError(f"unknown baseline kind {kind!r}")
        self.kind = kind
        self.num_items = num_items
        self.frequency = np.zeros(num_items)
        self.cooccurrence = None
        self._norms = None
        self.unseen_tally = 0
        self.fitted = False

    def fit(self, train_baskets):
        for b in train_baskets:
            items = b.items if hasattr(b, "items") else b
            for i in items:
                self.frequency[i] += 1.0
        if self.kind in (CP, ITEM_CF):
            co = np.zeros((self.num_items, self.num_items))
            for b in train_baskets:
                items = b.items if hasattr(b, "items") else b
                uniq = sorted(set(int(i) for i in items))
                for ai in range(len(uniq)):
                    for bi in range(ai + 1, len(uniq)):
                        co[uniq[ai], uniq[bi]] += 1.0
                        co[uniq[bi], uniq[ai]] += 1.0
            self.cooccurrence = co
            if self.kind == ITEM_CF:
                self._norms = np.sqrt((co * co).sum(axis=1))
        self.fitted = True
        return self

    def scores(self, basket) -> np.ndarray:
        """Raw per-item scores for a basket; members are not yet removed."""
        if not self.fitted:
            raise DataError("baseline used before fit()")
        items = [int(i) for i in (basket.items if hasattr(basket, "items") else basket)]
        for i in items:
            if self.frequency[i] == 0:
                self.unseen_tally += 1
        if self.kind == POP:
            return self.frequency.copy()
        if self.kind == CP:
            return self.cooccurrence[items].sum(axis=0)
        seen = [i for i in items if self._norms[i] != 0]  # unseen: a zero vector
        # One product for the whole basket; the counts are integers, so
        # every dot product is exact and equals the symmetric matrix's
        # column product.
        dots = self.cooccurrence[seen] @ self.cooccurrence
        sims = np.zeros(self.num_items)
        for i, row in zip(seen, dots):
            denom = self._norms * self._norms[i]
            good = denom > 0
            sims[good] += row[good] / denom[good]
        return sims

    def ranked(self, basket, k: int) -> list:
        """Top-k non-members by score, ties toward the lower item id."""
        items = basket.items if hasattr(basket, "items") else basket
        return rank_items(self.scores(basket), exclude=items, k=k)


def format_report(report: MetricReport) -> str:
    """Human-readable table."""
    lines = ["metric" + " " * 8 + "value", "-" * 20]
    for k in CUTOFFS:
        lines.append(f"P@{k:<12}{report.precision[k]:.4f}")
    for k in CUTOFFS:
        lines.append(f"R@{k:<12}{report.recall[k]:.4f}")
    lines.append(f"R-Precision  {report.r_precision:.4f}")
    lines.append(f"NDCG         {report.ndcg:.4f}")
    lines.append(f"instances    {report.instance_count}")
    return "\n".join(lines)


def report_records(report: MetricReport) -> list:
    """Line-delimited key=value records for machine diffing."""
    recs = []
    for k in CUTOFFS:
        recs.append(f"metric name=P@{k} value={report.precision[k]:.6f}")
    for k in CUTOFFS:
        recs.append(f"metric name=R@{k} value={report.recall[k]:.6f}")
    recs.append(f"metric name=R-Precision value={report.r_precision:.6f}")
    recs.append(f"metric name=NDCG value={report.ndcg:.6f}")
    recs.append(f"metric name=instances value={report.instance_count}")
    return recs
