"""Top-K evaluation under the all-unrated-item protocol, plus 2-D projection.

Per user, every bundle not interacted with in training is ranked by
descending score with ties broken by ascending id.  Only the top k are
ranked (`rank_candidates`: one argpartition over the score matrix, then a
sort of the k survivors), and they come out in the order a full sort
gives.  Scores holding NaN or +inf raise ContractError (CLI exit 2).
Metrics average over users with at least one test positive; users without
are skipped, not scored as zero (documented in the report header).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .data import InteractionSet, ScenarioSplit
from .errors import BoundsError, ContractError
from .rng import Rng

log = logging.getLogger(__name__)

SITUATION_KEYS = ["warm__warm", "warm__cold", "cold__warm", "cold__cold"]


def recall_at_k(ranked, positives, k: int) -> float:
    """|top-k hits| / |positives|."""
    if k < 1:
        raise BoundsError("k must be >= 1")
    if not positives:
        raise ContractError("empty positive set; exclude the user upstream")
    hits = sum(1 for b in ranked[:k] if b in positives)
    return hits / len(positives)


def ndcg_at_k(ranked, positives, k: int) -> float:
    """Binary-relevance NDCG with the ideal DCG truncated at min(k, |positives|)."""
    if k < 1:
        raise BoundsError("k must be >= 1")
    if not positives:
        raise ContractError("empty positive set; exclude the user upstream")
    dcg = sum(1.0 / np.log2(r + 2) for r, b in enumerate(ranked[:k]) if b in positives)
    ideal = sum(1.0 / np.log2(r + 2) for r in range(min(k, len(positives))))
    return float(dcg / ideal)


@dataclass
class MetricReport:
    scenario: str
    k: int
    n_users_evaluated: int
    recall: float
    ndcg: float
    situation_hits: dict      # situation key -> hit count within top-k
    cold_bundle_recall: float  # recall restricted to bint-cold test positives
    cold_bundle_users: int

    def to_json_dict(self) -> dict:
        return {
            "protocol": "all-unrated-item; users without test positives skipped",
            "scenario": self.scenario,
            "k": self.k,
            "n_users_evaluated": self.n_users_evaluated,
            "recall_at_k": self.recall,
            "ndcg_at_k": self.ndcg,
            "situation_hits": {key: self.situation_hits[key] for key in SITUATION_KEYS},
            "cold_bundle_recall_at_k": self.cold_bundle_recall,
            "cold_bundle_users": self.cold_bundle_users,
        }


def rank_candidates(scores: np.ndarray, train_x: InteractionSet, k: int) -> np.ndarray:
    """Top-k candidate ranking of every user row, train positives masked.

    Returns an (n_users, min(k, n_bundles)) array of bundle ids ordered by
    descending score, ties by ascending id; train positives are masked to
    -inf, so they rank after every candidate.  One argpartition selects the
    k best of every row and only those are sorted; a row where a tie
    straddles the k-th place (more than k entries reach the k-th value) is
    ranked by a full stable sort instead, so the result always equals the
    first k columns of the full ranking.  NaN or +inf scores raise
    ContractError; -inf is a legal score.
    """
    if k < 1:
        raise BoundsError("k must be >= 1")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ContractError(f"score matrix must be 2-D, got shape {scores.shape}")
    if not np.all(scores < np.inf):
        raise ContractError("score matrix holds NaN or +inf")
    n_users, n_bundles = scores.shape
    if len(train_x) and (train_x.rows.max() >= n_users or train_x.cols.max() >= n_bundles):
        raise ContractError(f"train pairs fall outside the {scores.shape} score matrix")
    # Ascending order of the negated scores; masked train positives become +inf.
    neg = np.negative(scores)
    neg[train_x.rows, train_x.cols] = np.inf
    if k >= n_bundles:
        return np.argsort(neg, axis=1, kind="stable")
    top = np.argpartition(neg, k - 1, axis=1)[:, :k]
    kth = np.take_along_axis(neg, top[:, k - 1:], axis=1)
    straddled = np.flatnonzero(np.count_nonzero(neg <= kth, axis=1) != k)
    vals = np.take_along_axis(neg, top, axis=1)
    top = np.take_along_axis(top, np.lexsort((top, vals)), axis=1)
    if straddled.size:
        top[straddled] = np.argsort(neg[straddled], axis=1, kind="stable")[:, :k]
    return top


def _row_mask(pairs: InteractionSet, shape: tuple[int, int]) -> np.ndarray:
    mask = np.zeros(shape, dtype=bool)
    mask[pairs.rows, pairs.cols] = True
    return mask


def evaluate(scores: np.ndarray, split: ScenarioSplit, k: int = 20) -> MetricReport:
    """Recall@k, NDCG@k, situation hits and cold-bundle recall over the
    users with at least one test positive.

    Recall and NDCG read the first k ranked ids; situation hits and cold
    recall read the first min(k, n_valid), n_valid being the user's
    unmasked candidates.  DCG sums the discounts in rank order and the
    user means are plain means, so the floats do not depend on the ranking
    kernel.
    """
    cat = split.catalog
    scores = np.asarray(scores, dtype=np.float64)
    shape = (cat.n_users, cat.n_bundles)
    if scores.shape != shape:
        raise ContractError(f"score matrix shape {scores.shape} does not match catalog")
    top = rank_candidates(scores, split.train_x, k)
    test = _row_mask(split.test_x, shape)
    users = np.flatnonzero(test.any(axis=1))
    test, top = test[users], top[users]
    n_pos = np.count_nonzero(test, axis=1)
    hit = np.take_along_axis(test, top, axis=1)

    # Masked train positives sit at the tail; keep top-k within candidates.
    n_valid = cat.n_bundles - split.train_x.row_degrees(cat.n_users)[users]
    in_topk = np.arange(top.shape[1])[None, :] < np.minimum(k, n_valid)[:, None]
    train = _row_mask(split.train_x, shape)
    if np.any(np.take_along_axis(train[users], top, axis=1) & in_topk):
        raise ContractError("train positive leaked into ranked candidates")

    # Each rank's discount from the scalar expression, so the floats match
    # the per-user definition in ndcg_at_k.
    disc = np.array([1.0 / np.log2(r + 2) for r in range(top.shape[1])])
    ideal = np.cumsum(disc)[np.minimum(k, n_pos) - 1]
    dcg = np.cumsum(hit * disc, axis=1)[:, -1]
    recalls = np.count_nonzero(hit, axis=1) / n_pos
    ndcgs = dcg / ideal

    cold = split.bundle_bint_cold[top]
    topk_hit = hit & in_topk
    code = 2 * cold + split.bundle_iint_cold[top]
    counts = np.bincount(code[topk_hit], minlength=len(SITUATION_KEYS))
    n_cold = np.count_nonzero(test[:, split.bundle_bint_cold], axis=1)
    has_cold = n_cold > 0
    cold_recalls = np.count_nonzero(topk_hit & cold, axis=1)[has_cold] / n_cold[has_cold]

    return MetricReport(
        scenario=split.scenario.value,
        k=k,
        n_users_evaluated=int(users.size),
        recall=float(np.mean(recalls)) if users.size else 0.0,
        ndcg=float(np.mean(ndcgs)) if users.size else 0.0,
        situation_hits={key: int(n) for key, n in zip(SITUATION_KEYS, counts)},
        cold_bundle_recall=float(np.mean(cold_recalls)) if cold_recalls.size else 0.0,
        cold_bundle_users=int(cold_recalls.size),
    )


def _power_component(cov: np.ndarray, rng: Rng, iters: int = 200) -> tuple[np.ndarray, float]:
    v = rng.normal(cov.shape[0])
    v /= np.linalg.norm(v)
    for _ in range(iters):
        nv = cov @ v
        norm = np.linalg.norm(nv)
        if norm < 1e-14:
            return np.zeros_like(v), 0.0
        v = nv / norm
    return v, float(v @ cov @ v)


def project_2d(reps: np.ndarray, labels, seed: int = 0) -> list[tuple]:
    """Top-2 principal components by power iteration with deflation.

    Returns rows (id, x, y, label).  Rank-deficient input zeroes the second
    coordinate with a warning.
    """
    reps = np.asarray(reps, dtype=np.float64)
    if reps.ndim != 2 or reps.shape[0] < 3:
        raise ContractError("projection needs at least 3 rows")
    if len(labels) != reps.shape[0]:
        raise ContractError("label count does not match row count")
    centered = reps - reps.mean(axis=0, keepdims=True)
    cov = centered.T @ centered / reps.shape[0]
    rng = Rng(seed).derive("pca")
    v1, lam1 = _power_component(cov, rng.derive("pc1"))
    cov2 = cov - lam1 * np.outer(v1, v1)
    v2, lam2 = _power_component(cov2, rng.derive("pc2"))
    if lam1 > 0 and lam2 / max(lam1, 1e-300) < 1e-12:
        log.warning("rank-deficient input: second principal component zeroed")
        v2 = np.zeros_like(v2)
    x = centered @ v1
    y = centered @ v2
    return [(i, float(x[i]), float(y[i]), labels[i]) for i in range(reps.shape[0])]
