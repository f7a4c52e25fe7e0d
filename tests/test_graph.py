"""Graph propagation experts: normalization, pooling, adjoint, training."""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from coldbundle import graph
from coldbundle.config import RunConfig
from coldbundle.data import (
    InteractionSet, Kind, PositivesIndex, Scenario, make_split, synth_blockmodel,
)
from coldbundle.errors import ContractError, DegenerateSplitError
from coldbundle.graph import (
    DualView, PriorEmbeddings, _recall_at_k, _sample_negatives, bpr_loss,
    membership_matrix, normalize_adjacency, propagate, propagate_backward,
    stage1_loss_and_grads, train_stage1,
)
from coldbundle.nn import finite_diff_check, scatter_rows
from coldbundle.rng import Rng
from samplers_reference import pos_sets_of, sample_negatives_reference


def _dense_oracle(edges, n_left, n_right, e_left, e_right, K):
    """Full-matrix D^{-1/2} A D^{-1/2} propagation with 1/K pooling."""
    n = n_left + n_right
    A = np.zeros((n, n))
    for r, c in zip(edges.rows.tolist(), edges.cols.tolist()):
        A[r, n_left + c] = 1.0
        A[n_left + c, r] = 1.0
    deg = A.sum(axis=1)
    d = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
    An = d[:, None] * A * d[None, :]
    e = np.concatenate([e_left, e_right], axis=0)
    acc = e.copy()
    cur = e
    for _ in range(K):
        cur = An @ cur
        acc += cur
    acc /= K
    return acc[:n_left], acc[n_left:]


def _random_graph(rng, n_left, n_right, p=0.3):
    draws = rng.uniform(n_left * n_right).reshape(n_left, n_right)
    rows, cols = np.nonzero(draws < p)
    return InteractionSet.from_pairs(Kind.USER_BUNDLE, rows, cols)


def test_propagate_matches_dense_oracle():
    rng = Rng(0)
    for trial in range(10):
        n_left = int(rng.integers(1, 3, 20)[0])
        n_right = int(rng.integers(1, 3, 20)[0])
        K = int(rng.integers(1, 1, 4)[0])
        edges = _random_graph(rng.derive(f"g{trial}"), n_left, n_right)
        g = normalize_adjacency(edges, n_left, n_right)
        el = rng.normal((n_left, 5))
        er = rng.normal((n_right, 5))
        rl, rr = propagate(g, el, er, K)
        ol, orr = _dense_oracle(edges, n_left, n_right, el, er, K)
        np.testing.assert_allclose(rl, ol, atol=1e-12)
        np.testing.assert_allclose(rr, orr, atol=1e-12)


def test_cold_rows_keep_scaled_init():
    # an isolated node's pooled rep is its init divided by K (off-by-one pooling)
    edges = InteractionSet.from_pairs(Kind.USER_BUNDLE, [0], [0])
    g = normalize_adjacency(edges, 2, 2)
    el = np.array([[1.0, 2.0], [3.0, 4.0]])
    er = np.array([[5.0, 6.0], [7.0, 8.0]])
    K = 2
    rl, rr = propagate(g, el, er, K)
    np.testing.assert_allclose(rl[1], el[1] / K)
    np.testing.assert_allclose(rr[1], er[1] / K)


def test_propagate_validates():
    edges = InteractionSet.from_pairs(Kind.USER_BUNDLE, [0], [0])
    g = normalize_adjacency(edges, 1, 1)
    with pytest.raises(ContractError):
        propagate(g, np.ones((1, 2)), np.ones((1, 2)), 0)
    with pytest.raises(ContractError):
        propagate(g, np.ones((1, 2)), np.ones((1, 3)), 1)


def test_propagate_backward_is_adjoint():
    # <grad_out, propagate(e)> == <propagate_backward(grad_out), e>
    rng = Rng(4)
    edges = _random_graph(rng, 6, 5)
    g = normalize_adjacency(edges, 6, 5)
    K = 3
    el, er = rng.normal((6, 4)), rng.normal((5, 4))
    gl, gr = rng.normal((6, 4)), rng.normal((5, 4))
    rl, rr = propagate(g, el, er, K)
    bl, br = propagate_backward(g, K, gl, gr)
    lhs = np.sum(gl * rl) + np.sum(gr * rr)
    rhs = np.sum(bl * el) + np.sum(br * er)
    assert abs(lhs - rhs) < 1e-10


def test_membership_matrix():
    z = InteractionSet.from_pairs(Kind.BUNDLE_ITEM, [0, 0, 1], [0, 1, 2])
    m = membership_matrix(z, 2, 3)
    np.testing.assert_allclose(np.asarray(m.sum(axis=1)).ravel(), [1.0, 1.0])
    item_rep = np.array([[2.0], [4.0], [6.0]])
    np.testing.assert_allclose(m @ item_rep, [[3.0], [6.0]])
    z_empty = InteractionSet.from_pairs(Kind.BUNDLE_ITEM, [0], [0])
    with pytest.raises(ContractError):
        membership_matrix(z_empty, 2, 1)


def test_bpr_loss_value_and_grad():
    pos = np.array([2.0, 0.0])
    neg = np.array([0.0, 2.0])
    loss, grad = bpr_loss(pos, neg)
    expect = -np.log(1 / (1 + np.exp(-2.0))) - np.log(1 / (1 + np.exp(2.0)))
    assert abs(loss - expect) < 1e-12
    # grad = sigma(diff) - 1, checked against finite differences of the sum
    h = 1e-7
    for j in range(2):
        pp = pos.copy(); pp[j] += h
        pm = pos.copy(); pm[j] -= h
        fd = (bpr_loss(pp, neg)[0] - bpr_loss(pm, neg)[0]) / (2 * h)
        assert abs(grad[j] - fd) < 1e-6


def _tiny_split(seed=0):
    cat, x, y, z = synth_blockmodel(24, 30, 10, 2, 4, 0.5, seed)
    return make_split(x, y, z, cat, Scenario.COLD_START, seed=seed)


def test_stage1_loss_and_grads_gradcheck():
    """The batch loss and gradients train_stage1 steps on, on a real split,
    with users and bundles repeated within and across the two sides."""
    split = _tiny_split(0)
    cat = split.catalog
    rng = Rng(9)
    emb = PriorEmbeddings(rng.normal((cat.n_users, 3)), rng.normal((cat.n_bundles, 3)),
                          rng.normal((cat.n_items, 3)), K=2)
    view = DualView.of(split)
    u, bp = split.train_x.rows[:6], split.train_x.cols[:6]
    u, bp = np.r_[u, u[:3]], np.r_[bp, bp[:3]]
    bn = np.r_[bp[3:], bp[:3]]
    assert np.unique(u).size < u.size and np.intersect1d(bp, bn).size
    params = [emb.e_user, emb.e_bundle, emb.e_item]
    _, grads = stage1_loss_and_grads(view, emb, u, bp, bn)
    report = finite_diff_check(lambda: stage1_loss_and_grads(view, emb, u, bp, bn)[0],
                               params, grads)
    assert report["max_rel_err"] < 1e-4
    # cold bundles are outside the user-bundle graph: no gradient reaches them
    assert not np.any(grads[1][split.bundle_bint_cold])


def stage1_loss_reference(view, emb, u, bp, bn):
    """`stage1_loss_and_grads` as it was before `two_view_bpr`: the two-view
    scores summed over whole rows and every scatter written inline."""
    ru_b, rb, ru_i, _, rb_i = emb.view_reps(view)
    s_pos = np.sum(ru_b[u] * rb[bp], axis=1) + np.sum(ru_i[u] * rb_i[bp], axis=1)
    s_neg = np.sum(ru_b[u] * rb[bn], axis=1) + np.sum(ru_i[u] * rb_i[bn], axis=1)
    loss, c = bpr_loss(s_pos, s_neg)
    n_users, n_bundles = ru_b.shape[0], rb.shape[0]
    cw = c[:, None]
    pn = np.concatenate([bp, bn])
    g_ru_b = scatter_rows(u, cw * (rb[bp] - rb[bn]), n_users)
    g_rb = scatter_rows(pn, np.concatenate([cw * ru_b[u], -cw * ru_b[u]]), n_bundles)
    g_ru_i = scatter_rows(u, cw * (rb_i[bp] - rb_i[bn]), n_users)
    g_rb_i = scatter_rows(pn, np.concatenate([cw * ru_i[u], -cw * ru_i[u]]), n_bundles)
    g_ri = view.agg_t @ g_rb_i
    g_eu_b, g_eb = propagate_backward(view.gx, emb.K, g_ru_b, g_rb)
    g_eu_i, g_ei = propagate_backward(view.gy, emb.K, g_ru_i, g_ri)
    return loss, [g_eu_b + g_eu_i, g_eb, g_ei]


@pytest.mark.parametrize("chunk", [graph.SCORE_CHUNK, 3])
def test_stage1_loss_equals_reference_bitwise(monkeypatch, chunk):
    """Stage 1 steps on `two_view_bpr`, whose scores are summed a chunk of
    rows at a time; its loss and gradients equal the inline reference's bit
    for bit on a batch of 1,100 rows, which spans three default chunks and
    ends inside one."""
    monkeypatch.setattr(graph, "SCORE_CHUNK", chunk)
    split = _tiny_split(0)
    cat = split.catalog
    rng = Rng(11)
    emb = PriorEmbeddings(rng.normal((cat.n_users, 16)), rng.normal((cat.n_bundles, 16)),
                          rng.normal((cat.n_items, 16)), K=2)
    view = DualView.of(split)
    n = 1100
    assert n > chunk and n % chunk
    u = rng.integers(n, 0, cat.n_users)
    bp, bn = rng.integers(n, 0, cat.n_bundles), rng.integers(n, 0, cat.n_bundles)
    loss, grads = stage1_loss_and_grads(view, emb, u, bp, bn)
    ref_loss, ref_grads = stage1_loss_reference(view, emb, u, bp, bn)
    assert loss == ref_loss
    for got, want in zip(grads, ref_grads):
        np.testing.assert_array_equal(got, want)


def test_stage1_cold_bundles_keep_init_embedding():
    split = _tiny_split(1)
    config = RunConfig(d=8, K=2, stage1_epochs=3, stage1_batch=64, stage1_patience=10, seed=0)
    emb, history = train_stage1(split, config)
    # re-create the init tables from the same stream
    rng = Rng(0).derive("stage1")
    e_user0 = rng.uniform_init((split.catalog.n_users, 8), 8)
    e_bundle0 = rng.uniform_init((split.catalog.n_bundles, 8), 8)
    cold = np.flatnonzero(split.bundle_bint_cold)
    assert cold.size > 0
    np.testing.assert_array_equal(emb.e_bundle[cold], e_bundle0[cold])
    # warm side moved
    warm = np.flatnonzero(~split.bundle_bint_cold)
    assert not np.array_equal(emb.e_bundle[warm], e_bundle0[warm])
    assert len(history["loss"]) >= 1


def test_stage1_deterministic():
    split = _tiny_split(2)
    config = RunConfig(d=8, K=2, stage1_epochs=2, stage1_batch=64, stage1_patience=10, seed=3)
    a, _ = train_stage1(split, config)
    b, _ = train_stage1(split, config)
    np.testing.assert_array_equal(a.e_user, b.e_user)
    np.testing.assert_array_equal(a.e_bundle, b.e_bundle)
    np.testing.assert_array_equal(a.e_item, b.e_item)


def test_sample_negatives_rejects_row_without_candidates(time_limit):
    candidates = np.array([3, 5, 7])
    positives = PositivesIndex.of(
        InteractionSet.from_pairs(Kind.USER_BUNDLE, [0, 1, 1, 1], [3, 3, 5, 7]), 3, 8)
    rng = Rng(0)
    with time_limit(5), pytest.raises(DegenerateSplitError, match="row 1 "):
        _sample_negatives(rng, np.array([0, 1, 2]), candidates, positives)
    assert rng._counter == 0
    neg = _sample_negatives(rng, np.array([0, 2, 0]), candidates, positives)
    assert neg[0] != 3 and neg[2] != 3 and set(neg.tolist()) <= {3, 5, 7}


@pytest.mark.parametrize("p", [0.05, 0.5, 0.9])
def test_sample_negatives_equals_scalar_reference(time_limit, p):
    """Vectorized collision test plus replayed redraws: the scalar loop's
    negatives and final counter, at low and high collision rates, with
    candidates a subset of the columns (stage 1) or all of them (conditions)."""
    rng = Rng(17)
    for trial in range(4):
        rel = _random_graph(rng, 30, 25, p)
        # every row keeps at least one free candidate among 0..24
        rel = InteractionSet.from_pairs(Kind.USER_BUNDLE, rel.rows[rel.cols != 24],
                                        rel.cols[rel.cols != 24])
        positives = PositivesIndex.of(rel, 30, 25)
        pos_sets = pos_sets_of(rel, 30)
        users = np.r_[rel.rows, rel.rows[::-1], np.arange(30)]
        for candidates in (np.arange(25), np.r_[np.unique(rel.cols), 24]):
            a, b = Rng(trial), Rng(trial)
            with time_limit(10):
                got = _sample_negatives(a, users, candidates, positives)
            want = sample_negatives_reference(b, users, candidates, pos_sets)
            assert got.tobytes() == want.tobytes()
            assert a._counter == b._counter
    assert a._counter > 2 * users.size or p < 0.5  # high rates redraw many rows


@given(st.integers(1, 6), st.integers(2, 7),
       st.sets(st.tuples(st.integers(0, 5), st.integers(0, 6)), max_size=30),
       st.booleans(), st.integers(0, 2**32))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_sample_negatives_property(time_limit, n_rows, n_cols, pairs, crowd, seed):
    """On any small relation the sampler equals the scalar reference or both
    raise the same error before drawing; a row holding every candidate but
    one still terminates."""
    pairs = {(r % n_rows, c % n_cols) for r, c in pairs}
    if crowd:
        pairs |= {(0, c) for c in range(1, n_cols)}
    rel = InteractionSet.from_pairs(Kind.USER_BUNDLE, [r for r, _ in pairs],
                                    [c for _, c in pairs])
    users = np.r_[rel.rows, 0]
    a, b = Rng(seed), Rng(seed)
    with time_limit(10):
        for candidates in (np.arange(n_cols), np.unique(np.r_[rel.cols, 0])):
            try:
                want = sample_negatives_reference(b, users, candidates, pos_sets_of(rel, n_rows))
            except DegenerateSplitError as err:
                with pytest.raises(DegenerateSplitError, match=re.escape(str(err))):
                    _sample_negatives(a, users, candidates, PositivesIndex.of(rel, n_rows, n_cols))
                assert a._counter == b._counter
                continue
            got = _sample_negatives(a, users, candidates, PositivesIndex.of(rel, n_rows, n_cols))
            assert got.tobytes() == want.tobytes() and a._counter == b._counter


def _argsort_recall_at_k(scores, train_x, eval_x, k=20):
    """Validation Recall@k over a full stable argsort, summed user by user."""
    masked = scores.copy()
    masked[train_x.rows, train_x.cols] = -np.inf
    pos_by_user = [[] for _ in range(scores.shape[0])]
    for u, b in zip(eval_x.rows.tolist(), eval_x.cols.tolist()):
        pos_by_user[u].append(b)
    total, count = 0.0, 0
    order = np.argsort(-masked, axis=1, kind="stable")[:, :k]
    for u, pos in enumerate(pos_by_user):
        if pos:
            total += len(set(order[u].tolist()) & set(pos)) / len(pos)
            count += 1
    return total / count if count else 0.0


def test_recall_at_k_equals_argsort_reference():
    rng = Rng(13)
    for seed in range(3):
        split = _tiny_split(seed)
        shape = (split.catalog.n_users, split.catalog.n_bundles)
        cont = rng.normal(shape)
        # many users with uneven positive counts, so the sum's order shows
        dense = _random_graph(rng, 300, shape[1], p=0.4)
        for scores in (cont, np.zeros(shape), np.round(cont, 1)):
            for eval_x in (split.val_x, split.test_x):
                for k in (1, 5, 9, 10, 20):
                    want = _argsort_recall_at_k(scores, split.train_x, eval_x, k)
                    got = _recall_at_k(scores, split.train_x, eval_x, k)
                    assert type(got) is float and got == want
        big = np.round(rng.normal((300, shape[1])), 1)
        for k in (1, 5, 20):
            want = _argsort_recall_at_k(big, split.train_x, dense, k)
            assert _recall_at_k(big, split.train_x, dense, k) == want
