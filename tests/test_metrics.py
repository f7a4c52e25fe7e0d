"""Ranking metrics against brute-force oracles; evaluation protocol; projection."""

import dataclasses
import json

import numpy as np
import pytest

from coldbundle.data import InteractionSet, Scenario, make_split, synth_blockmodel
from coldbundle.errors import BoundsError, ContractError
from coldbundle.metrics import (
    SITUATION_KEYS, MetricReport, evaluate, ndcg_at_k, project_2d, rank_candidates,
    recall_at_k,
)
from coldbundle.rng import Rng
from oracles import pair_set


def _oracle_rank(scores, masked):
    """Exhaustive: sort candidates by (-score, id)."""
    ids = [i for i in range(len(scores)) if i not in masked]
    return sorted(ids, key=lambda i: (-scores[i], i))


def test_recall_ndcg_against_oracle():
    rng = Rng(0)
    for _ in range(100):
        n = int(rng.integers(1, 5, 30)[0])
        scores = rng.normal(n)
        k = int(rng.integers(1, 1, n + 1)[0])
        n_pos = int(rng.integers(1, 1, n + 1)[0])
        pos = set(rng.choice(n, n_pos).tolist())
        ranked = _oracle_rank(scores, set())
        topk = ranked[:k]
        hits = sum(1 for b in topk if b in pos)
        assert abs(recall_at_k(ranked, pos, k) - hits / len(pos)) < 1e-12
        dcg = sum(1.0 / np.log2(r + 2) for r, b in enumerate(topk) if b in pos)
        idcg = sum(1.0 / np.log2(r + 2) for r in range(min(k, len(pos))))
        assert abs(ndcg_at_k(ranked, pos, k) - dcg / idcg) < 1e-12


def test_metric_contract_errors():
    with pytest.raises(BoundsError):
        recall_at_k([0, 1], {0}, 0)
    with pytest.raises(ContractError):
        recall_at_k([0, 1], set(), 1)
    with pytest.raises(BoundsError):
        ndcg_at_k([0, 1], {0}, 0)
    with pytest.raises(ContractError):
        ndcg_at_k([0, 1], set(), 1)


def _split(seed=0):
    cat, x, y, z = synth_blockmodel(20, 24, 10, 2, 4, 0.5, seed)
    return make_split(x, y, z, cat, Scenario.COLD_START, seed=seed)


def test_rank_candidates_masks_train_and_breaks_ties():
    split = _split()
    cat = split.catalog
    scores = np.zeros((cat.n_users, cat.n_bundles))  # all ties
    train_pairs = pair_set(split.train_x)
    for k in (3, cat.n_bundles):
        order = rank_candidates(scores, split.train_x, k)
        assert order.shape == (cat.n_users, k)
        for u in range(cat.n_users):
            row = order[u].tolist()
            n_masked = sum(1 for b in range(cat.n_bundles) if (u, b) in train_pairs)
            unmasked = row[:cat.n_bundles - n_masked]
            # ties resolve to ascending id among unmasked candidates
            assert unmasked == sorted(unmasked)
            for b in unmasked:
                assert (u, b) not in train_pairs


def test_rank_candidates_shape_check():
    split = _split()
    with pytest.raises(ContractError):
        rank_candidates(np.zeros((3, 3)), split.train_x, 2)
    with pytest.raises(ContractError):
        rank_candidates(np.zeros(5), split.train_x, 2)
    with pytest.raises(BoundsError):
        rank_candidates(np.zeros((3, 3)), split.train_x, 0)
    with pytest.raises(ContractError):
        evaluate(np.zeros((3, 3)), split)


def test_rank_candidates_rejects_nonfinite_scores():
    split = _split()
    cat = split.catalog
    u, b = int(split.test_x.rows[0]), int(split.test_x.cols[0])
    for bad in (np.nan, np.inf):
        scores = np.zeros((cat.n_users, cat.n_bundles))
        scores[u, b] = bad
        with pytest.raises(ContractError):
            rank_candidates(scores, split.train_x, 5)
        with pytest.raises(ContractError):
            evaluate(scores, split)
    scores = Rng(3).normal((cat.n_users, cat.n_bundles))
    scores[u, b] = -np.inf  # the mask value is a legal score
    np.testing.assert_array_equal(rank_candidates(scores, split.train_x, 5),
                                  _lexsort_oracle(scores, split.train_x)[:, :5])


def _lexsort_oracle(scores, train_x):
    """The full per-row ranking: np.lexsort by (-masked score, id)."""
    masked = scores.copy()
    masked[train_x.rows, train_x.cols] = -np.inf
    ids = np.arange(scores.shape[1])
    return np.array([np.lexsort((ids, -masked[u])) for u in range(scores.shape[0])])


def _crowded(split, pool=None):
    """split with user 0 holding all but two bundles of `pool` (default:
    every bundle) and user 1 all of them in train, so their rows have fewer
    unmasked candidates than k.  Bundles outside `pool` gain no train pair."""
    pool = np.arange(split.catalog.n_bundles) if pool is None else pool
    tx = split.train_x
    rows = np.r_[tx.rows, np.zeros(pool.size - 2, np.int64), np.ones(pool.size, np.int64)]
    cols = np.r_[tx.cols, pool[2:], pool]
    return dataclasses.replace(split, train_x=InteractionSet.from_pairs(tx.kind, rows, cols))


def _score_kinds(rng, shape):
    cont = rng.normal(shape)
    return {"continuous": cont, "all-equal": np.full(shape, 0.25),
            "one-decimal": np.round(cont, 1)}


def test_rank_candidates_against_lexsort_oracle():
    rng = Rng(11)
    for seed in range(3):
        split = _crowded(_split(seed))
        n = split.catalog.n_bundles
        for kind, scores in _score_kinds(rng, (split.catalog.n_users, n)).items():
            full = _lexsort_oracle(scores, split.train_x)
            for k in (1, n - 1, n, n + 5):
                got = rank_candidates(scores, split.train_x, k)
                np.testing.assert_array_equal(got, full[:, :min(k, n)], err_msg=f"{kind} k={k}")


def _reference_evaluate(scores, split, k):
    """The per-user evaluation loop over the full lexsort ranking."""
    cat = split.catalog
    order = _lexsort_oracle(np.asarray(scores, dtype=np.float64), split.train_x)
    train_pairs = pair_set(split.train_x)
    pos_by_user = [[] for _ in range(cat.n_users)]
    for u, b in zip(split.test_x.rows.tolist(), split.test_x.cols.tolist()):
        pos_by_user[u].append(b)
    train_deg = split.train_x.row_degrees(cat.n_users)
    hits = {key: 0 for key in SITUATION_KEYS}
    recalls, ndcgs, cold_recalls = [], [], []
    for u in range(cat.n_users):
        pos = set(pos_by_user[u])
        if not pos:
            continue
        ranked = order[u].tolist()
        topk = ranked[:min(k, cat.n_bundles - int(train_deg[u]))]
        for b in topk:
            if (u, b) in train_pairs:
                raise ContractError("train positive leaked into ranked candidates")
        recalls.append(recall_at_k(ranked, pos, k))
        ndcgs.append(ndcg_at_k(ranked, pos, k))
        for b in topk:
            if b in pos:
                bint = "cold" if split.bundle_bint_cold[b] else "warm"
                iint = "cold" if split.bundle_iint_cold[b] else "warm"
                hits[f"{bint}__{iint}"] += 1
        cold_pos = {b for b in pos if split.bundle_bint_cold[b]}
        if cold_pos:
            cold_recalls.append(sum(1 for b in topk if b in cold_pos) / len(cold_pos))
    return MetricReport(
        scenario=split.scenario.value, k=k, n_users_evaluated=len(recalls),
        recall=float(np.mean(recalls)) if recalls else 0.0,
        ndcg=float(np.mean(ndcgs)) if ndcgs else 0.0,
        situation_hits=hits,
        cold_bundle_recall=float(np.mean(cold_recalls)) if cold_recalls else 0.0,
        cold_bundle_users=len(cold_recalls))


def _cold_items(split, items):
    """split whose `items` lose every user-item pair, so bundles holding
    one of them are iint-cold."""
    keep = ~np.isin(split.y.cols, items)
    return dataclasses.replace(split, y=InteractionSet.from_pairs(
        split.y.kind, split.y.rows[keep], split.y.cols[keep]))


def _dense_test(split, rng):
    """split with about half of each user's non-train bundles as test
    positives, so users hold many hits and DCG sums many terms."""
    shape = (split.catalog.n_users, split.catalog.n_bundles)
    free = rng.uniform(shape[0] * shape[1]).reshape(shape) < 0.5
    free[split.train_x.rows, split.train_x.cols] = False
    rows, cols = np.nonzero(free)
    return dataclasses.replace(split, test_x=InteractionSet.from_pairs(split.test_x.kind,
                                                                        rows, cols))


@pytest.mark.parametrize("scenario", [Scenario.COLD_START, Scenario.WARM_START])
def test_evaluate_equals_per_user_reference(scenario):
    rng = Rng(12)
    for seed in range(2):
        cat, x, y, z = synth_blockmodel(30, 40, 24, 3, 4, 0.5, seed)
        base = _cold_items(make_split(x, y, z, cat, scenario, seed=seed), np.arange(0, 40, 8))
        # Crowding over the warm bundles only keeps the cold ones cold.
        split = _crowded(base, base.warm_bundles)
        np.testing.assert_array_equal(split.bundle_bint_cold, base.bundle_bint_cold)
        assert split.bundle_iint_cold.any() and not split.bundle_iint_cold.all()
        if seed:
            split = _dense_test(split, rng)
        cold_hits = 0
        for kind, scores in _score_kinds(rng, (cat.n_users, cat.n_bundles)).items():
            for k in (1, 5, 20, 30, 50):
                got, want = evaluate(scores, split, k), _reference_evaluate(scores, split, k)
                assert got == want, f"{kind} k={k}"
                assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())
                cold_hits += want.situation_hits["cold__warm"] + want.situation_hits["cold__cold"]
                if scenario is Scenario.COLD_START:
                    assert want.cold_bundle_users > 0
        # The cold-bundle branch is compared on real hits, not only zeros.
        assert (cold_hits > 0) == (scenario is Scenario.COLD_START)


def test_evaluate_report_consistency():
    split = _split(1)
    cat = split.catalog
    scores = Rng(1).normal((cat.n_users, cat.n_bundles))
    report = evaluate(scores, split, k=5)
    assert report.k == 5
    assert 0.0 <= report.recall <= 1.0
    assert 0.0 <= report.ndcg <= 1.0
    assert report.n_users_evaluated == len(set(split.test_x.rows.tolist()))
    d = report.to_json_dict()
    assert list(d["situation_hits"].keys()) == SITUATION_KEYS
    # in a bundle-cold split every test positive is bint-cold
    assert d["situation_hits"]["warm__warm"] == 0
    assert d["situation_hits"]["warm__cold"] == 0


def test_evaluate_perfect_scores():
    split = _split(2)
    cat = split.catalog
    scores = np.zeros((cat.n_users, cat.n_bundles))
    for u, b in zip(split.test_x.rows.tolist(), split.test_x.cols.tolist()):
        scores[u, b] = 10.0
    report = evaluate(scores, split, k=20)
    assert report.recall == 1.0
    assert report.cold_bundle_recall == 1.0


def test_project_2d_matches_eigendecomposition():
    rng = Rng(4)
    base = rng.normal((40, 2)) @ np.array([[3.0, 0.5, 0.1], [0.2, 1.5, 0.05]])
    base += 0.01 * rng.normal((40, 3))
    rows = project_2d(base, ["a"] * 40, seed=0)
    xy = np.array([[r[1], r[2]] for r in rows])
    centered = base - base.mean(axis=0)
    cov = centered.T @ centered / base.shape[0]
    w, v = np.linalg.eigh(cov)
    pc = centered @ v[:, ::-1][:, :2]
    # components match up to sign
    for j in range(2):
        match = min(np.abs(xy[:, j] - pc[:, j]).max(), np.abs(xy[:, j] + pc[:, j]).max())
        assert match < 1e-6


def test_project_2d_rank_deficient():
    base = np.outer(np.arange(10, dtype=np.float64), np.ones(3))
    rows = project_2d(base, list("abcdefghij"), seed=0)
    ys = [r[2] for r in rows]
    assert np.allclose(ys, 0.0)


def test_project_2d_contract():
    with pytest.raises(ContractError):
        project_2d(np.zeros((2, 3)), ["a", "b"])
    with pytest.raises(ContractError):
        project_2d(np.zeros((5, 3)), ["a"])
