"""Gated expert fusion: view gates, output gate, pseudo bundles, training."""

import dataclasses
import hashlib
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from coldbundle import graph, moe
from coldbundle.config import RunConfig
from coldbundle.data import Catalog, InteractionSet, Kind, Scenario, make_split, synth_blockmodel
from coldbundle.errors import ContractError, DegenerateSplitError
from coldbundle.graph import membership_matrix, pair_scores
from coldbundle.moe import (
    ExpertOutputs, GateParams, cold_features, fuse, fused_tables,
    gate_dump_rows, interpolate_pseudo, output_gate,
    sample_pseudo_triples, score_all, score_all_no_diff, score_all_no_moe,
    stage3_loss_and_grads, train_stage3, two_view_scores, view_gate,
)
from coldbundle.nn import finite_diff_check
from coldbundle.rng import Rng
from samplers_reference import UNDERFLOW, sample_pseudo_triples_reference
from stage3_reference import stage3_loss_reference, train_stage3_reference, view_phase_reference


def _tiny(seed=0, d=6):
    cat, x, y, z = synth_blockmodel(20, 24, 8, 2, 4, 0.5, seed)
    split = make_split(x, y, z, cat, Scenario.COLD_START, seed=seed)
    rng = Rng(seed).derive("experts")
    bf, itf = cold_features(split)
    experts = ExpertOutputs(
        ru_bint=rng.normal((cat.n_users, d)),
        ru_iint=rng.normal((cat.n_users, d)),
        r_e_bint=rng.normal((cat.n_bundles, d)),
        r_d_bint=rng.normal((cat.n_bundles, d)),
        r_e_items=rng.normal((cat.n_items, d)),
        r_d_items=rng.normal((cat.n_items, d)),
        agg=membership_matrix(split.z, cat.n_bundles, cat.n_items),
        bundle_feature=bf,
        item_feature=itf,
    )
    return split, experts


def predict(u: int, b: int, x: ExpertOutputs, gp: GateParams) -> float:
    """Scalar oracle: score of one user-bundle pair through both gating layers."""
    rb_bint, rb_iint, _, _ = fused_tables(x, gp)
    y, _ = two_view_scores(x.ru_bint[[u]], x.ru_iint[[u]], rb_bint[[b]], rb_iint[[b]],
                           gp.w_out)
    return float(y[0])


def test_view_gate_simplex_and_uniform():
    w = np.zeros((2, 1))
    g = view_gate(np.array([0.0, 1.7, 100.0]), w)
    np.testing.assert_allclose(g, 0.5)
    rng = Rng(0)
    w = rng.normal((2, 1))
    feats = rng.normal(20)
    g = view_gate(feats, w)
    assert np.all(g >= 0)
    np.testing.assert_allclose(g.sum(axis=1), 1.0, atol=1e-12)
    # scalar softmax oracle
    f = 1.7
    logits = np.array([f * w[0, 0], f * w[1, 0]])
    oracle = np.exp(logits) / np.exp(logits).sum()
    np.testing.assert_allclose(view_gate(np.array([f]), w)[0], oracle, atol=1e-12)


def test_view_gate_saturation():
    w = np.array([[20.0], [-20.0]])
    g = view_gate(np.array([1.0]), w)
    assert abs(g[0, 0] - 1.0) < 1e-8 and g[0, 1] < 1e-8


def test_view_gate_rejects_nonfinite():
    with pytest.raises(ContractError):
        view_gate(np.array([np.nan]), np.zeros((2, 1)))


def test_cold_features_zero_for_cold():
    split, experts = _tiny()
    bf, itf = cold_features(split)
    np.testing.assert_array_equal(bf[split.bundle_bint_cold], 0.0)
    np.testing.assert_array_equal(itf[split.item_cold], 0.0)
    assert np.all(bf[~split.bundle_bint_cold] > 0)


def test_fusion_convexity():
    rng = Rng(1)
    r_e, r_d = rng.normal((5, 3)), rng.normal((5, 3))
    w = view_gate(rng.uniform(5), rng.normal((2, 1)))
    fused = fuse(r_e, r_d, w)
    lo = np.minimum(r_e, r_d)
    hi = np.maximum(r_e, r_d)
    assert np.all(fused >= lo - 1e-12) and np.all(fused <= hi + 1e-12)
    np.testing.assert_allclose(fuse(r_e, r_e, w), r_e)


def test_item_view_fuses_before_aggregation():
    split, x = _tiny()
    gp = GateParams.create(x.d, Rng(2))
    rb_bint, rb_iint, _, w_i = fused_tables(x, gp)
    # independent two-step oracle: fuse every item, then mean per bundle
    items_fused = w_i[:, 0:1] * x.r_e_items + w_i[:, 1:2] * x.r_d_items
    cat = split.catalog
    for b in range(cat.n_bundles):
        members = split.z.cols[split.z.rows == b]
        np.testing.assert_allclose(rb_iint[b], items_fused[members].mean(axis=0),
                                   atol=1e-13)


def test_predict_matches_hand_oracle():
    split, x = _tiny()
    gp = GateParams.create(x.d, Rng(3))
    rb_bint, rb_iint, _, _ = fused_tables(x, gp)
    u, b = 1, 2
    a_out = np.concatenate([rb_bint[b], rb_iint[b]])
    g = np.tanh(gp.w_out @ a_out)
    expect = g[0] * (x.ru_bint[u] @ rb_bint[b]) + g[1] * (x.ru_iint[u] @ rb_iint[b])
    assert abs(predict(u, b, x, gp) - expect) < 1e-12
    scores = score_all(x, gp)
    assert abs(scores[u, b] - expect) < 1e-12
    # the batched two-view kernel agrees with predict and the score matrix
    us, bs = np.array([0, 1, 3, 1, 7]), np.array([2, 2, 5, 0, 7])
    y, _ = two_view_scores(x.ru_bint[us], x.ru_iint[us], rb_bint[bs], rb_iint[bs], gp.w_out)
    np.testing.assert_allclose(y, [predict(a, c, x, gp) for a, c in zip(us, bs)],
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(y, scores[us, bs], rtol=0, atol=1e-12)
    # unit output fusion, phase one's score, sums the two views
    s = pair_scores(x.ru_bint, rb_bint, x.ru_iint, rb_iint, us, bs)
    np.testing.assert_allclose(
        s[:, 0] + s[:, 1], np.sum(x.ru_bint[us] * rb_bint[bs], axis=1)
        + np.sum(x.ru_iint[us] * rb_iint[bs], axis=1), rtol=0, atol=1e-12)


def test_zero_output_gate_scores_zero():
    split, x = _tiny()
    gp = GateParams.create(x.d, Rng(4))
    gp.w_out[:] = 0.0
    assert predict(0, 0, x, gp) == 0.0
    np.testing.assert_array_equal(score_all(x, gp), 0.0)


def test_output_gate_range():
    rng = Rng(5)
    g = output_gate(rng.normal((7, 4)), rng.normal((2, 4)))
    assert np.all(np.abs(g) < 1.0)


def test_interpolation_symmetry_and_endpoints():
    split, x = _tiny()
    bx, by, lam = np.array([0, 2, 2, 5]), np.array([1, 3, 3, 4]), np.array([0.3, 1.0, 0.5, 0.0])
    mixed = interpolate_pseudo(x, bx, by, lam)
    for a, b in zip(mixed, interpolate_pseudo(x, by, bx, 1.0 - lam)):
        np.testing.assert_allclose(a, b, atol=1e-15)
    tables = (x.r_e_bint, x.r_d_bint, x.r_e_iint_b, x.r_d_iint_b)
    for rows, t in zip(mixed, tables):
        np.testing.assert_array_equal(rows[1], t[2])   # lam = 1 endpoint
        np.testing.assert_array_equal(rows[3], t[4])   # lam = 0 endpoint
        np.testing.assert_allclose(rows[2], 0.5 * (t[2] + t[3]))
        for k in range(bx.size):  # scalar mixup of each row's own pair
            np.testing.assert_array_equal(rows[k], lam[k] * t[bx[k]] + (1.0 - lam[k]) * t[by[k]])
    # pseudo bundles carry a zero cold feature: uniform view gates whatever w
    np.testing.assert_array_equal(view_gate(np.zeros(3), Rng(9).normal((2, 1))), 0.5)


def test_interpolation_rejects():
    split, x = _tiny()
    with pytest.raises(ContractError):
        interpolate_pseudo(x, np.array([0, 1]), np.array([1, 1]), np.array([0.5, 0.5]))
    for lam in (1.5, -0.1, np.nan):
        with pytest.raises(ContractError):
            interpolate_pseudo(x, np.array([0, 2]), np.array([1, 3]), np.array([0.5, lam]))


def test_stage3_gradcheck_all_gates():
    split, x = _tiny(d=4)
    gp = GateParams.create(x.d, Rng(6))
    u = split.train_x.rows[:6]
    bp = split.train_x.cols[:6]
    bn = np.roll(bp, 1)
    pseudo = sample_pseudo_triples(split, 4, 0.9, Rng(6).derive("p"))

    def loss_fn():
        loss, _ = stage3_loss_and_grads(x, gp, (u, bp, bn), pseudo)
        return loss

    _, grads = stage3_loss_and_grads(x, gp, (u, bp, bn), pseudo)
    report = finite_diff_check(loss_fn, gp.params(), grads)
    assert report["max_rel_err"] < 1e-4


def test_view_phase_gradcheck():
    """Phase one steps on the unit-fusion loss; its two view-gate gradients
    match central differences."""
    split, x = _tiny(d=4)
    gp = GateParams.create(x.d, Rng(6))
    u = split.train_x.rows[:6]
    bp = split.train_x.cols[:6]
    triples = (u, bp, np.roll(bp, 1))
    _, grads = moe._view_phase_loss_and_grads(x, gp, triples)
    report = finite_diff_check(lambda: moe._view_phase_loss_and_grads(x, gp, triples)[0],
                               [gp.w_bint, gp.w_iint], grads)
    assert report["max_rel_err"] < 1e-4


@pytest.mark.parametrize("chunk", [graph.SCORE_CHUNK, 3])
def test_view_phase_equals_reference_bitwise(monkeypatch, chunk):
    """Phase one scores the fused tables through `graph.two_view_loss`, a
    chunk of rows at a time, and takes the fused tables' gradients from one
    sparse product per view; its loss and view-gate gradients equal the
    representation-space reference's within rtol 1e-12 on a batch of 1,100
    rows, which crosses chunk boundaries and ends inside a chunk."""
    monkeypatch.setattr(graph, "SCORE_CHUNK", chunk)
    split, x = _tiny(d=16)
    gp = GateParams.create(x.d, Rng(12))
    cat, rng, n = split.catalog, Rng(12).derive("rows"), 1100
    assert n > chunk and n % chunk
    triples = (rng.integers(n, 0, cat.n_users), rng.integers(n, 0, cat.n_bundles),
               rng.integers(n, 0, cat.n_bundles))
    loss, grads = moe._view_phase_loss_and_grads(x, gp, triples)
    ref_loss, ref_grads = view_phase_reference(x, gp, triples)
    np.testing.assert_allclose(loss, ref_loss, rtol=1e-12, atol=0)
    for got, want in zip(grads, ref_grads):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def _phase_one_case(split, case, rng):
    """(u, bp, bn) rows of one phase-one batch case."""
    n_users, n_bundles = split.catalog.n_users, split.catalog.n_bundles
    if case == "one row":
        return np.array([3]), np.array([1]), np.array([6])
    u = rng.integers(40, 0, n_users)
    bp = np.r_[np.full(15, 2), rng.integers(25, 0, n_bundles)]
    if case == "repeated bundle":
        return u, bp, np.r_[np.full(20, 5), rng.integers(20, 0, n_bundles)]
    # "crossed": every bundle is a positive in some rows and a negative in others
    return u, bp, np.roll(bp, 7)


@pytest.mark.parametrize("case", ["repeated bundle", "crossed", "one row"])
def test_view_phase_matches_representation_space(case):
    """Phase one's sparse coefficient product sums a bundle's rows, as the
    reference's scatters do, where a bundle repeats within a batch, where it
    is a positive in one row and a negative in another, and in a batch of
    one row: the loss and the view-gate gradients agree within rtol 1e-12."""
    split, x = _tiny(d=8)
    gp = GateParams.create(x.d, Rng(14))
    triples = _phase_one_case(split, case, Rng(14).derive(case))
    loss, grads = moe._view_phase_loss_and_grads(x, gp, triples)
    ref_loss, ref_grads = view_phase_reference(x, gp, triples)
    np.testing.assert_allclose(loss, ref_loss, rtol=1e-12, atol=0)
    for got, want in zip(grads, ref_grads):
        assert np.all(want != 0.0)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def _pseudo_cases(n_users, n_bundles, rng):
    """18 pseudo triples whose sources repeat: rows 0-5 share the positive
    pair (1, 2), rows 0-3 the negative pair (2, 1), and the ratios include
    0 and 1 on both sides."""
    pseudo = np.zeros(18, dtype=moe.PSEUDO_DTYPE)
    pseudo["u"] = rng.integers(18, 0, n_users)
    for side in ("pos", "neg"):
        bx = rng.integers(18, 0, n_bundles)
        pseudo[side + "_x"] = bx
        pseudo[side + "_y"] = (bx + 1 + rng.integers(18, 0, n_bundles - 1)) % n_bundles
        pseudo[side + "_lam"] = rng.uniform(18)
    pseudo["pos_x"][:6], pseudo["pos_y"][:6] = 1, 2
    pseudo["neg_x"][:4], pseudo["neg_y"][:4] = 2, 1
    pseudo["pos_lam"][[0, 7]] = 0.0, 1.0
    pseudo["neg_lam"][[2, 9]] = 1.0, 0.0
    return pseudo


def test_phase_two_kernel_matches_representation_space():
    """Phase two's score-space kernel against `_output_gate_loss_and_grad`
    over gathered gate inputs and `_pseudo_sides`, batch by batch as
    train_stage3 slices an epoch: 35 real triples in batches of 3, where
    bundle 4 repeats and bundles are positives and negatives, and 18 pseudo
    triples with shared sources and ratios of 0 and 1, two per batch, so
    the last three batches get an empty pseudo slice and the last batch is
    short.  Loss and w_out gradient agree within rtol 1e-12."""
    split, x = _tiny()
    cat = split.catalog
    gp = GateParams.create(x.d, Rng(13))
    rb_bint, rb_iint, _, _ = fused_tables(x, gp)
    a_table, m_table = np.concatenate([rb_bint, rb_iint], axis=1), moe._pseudo_table(x)
    rng = Rng(13).derive("rows")
    u = rng.integers(35, 0, cat.n_users)
    bp = np.r_[np.full(12, 4), rng.integers(23, 0, cat.n_bundles)]
    bn = np.roll(bp, 5)
    s_pos, s_neg = (pair_scores(x.ru_bint, rb_bint, x.ru_iint, rb_iint, u, b) for b in (bp, bn))
    pseudo = _pseudo_cases(cat.n_users, cat.n_bundles, rng)
    p_pos, p_neg = moe._pseudo_scores(x, m_table, pseudo)
    size, per_batch, sizes = 3, 2, []
    for k, s in enumerate(range(0, 35, size)):
        rows, part = slice(s, s + size), slice(k * per_batch, (k + 1) * per_batch)
        extra = pseudo[part]
        sides = [(a_table, s_pos[rows], bp[rows], s_neg[rows], bn[rows])]
        ref_sides = [(s_pos[rows], a_table[bp[rows]], s_neg[rows], a_table[bn[rows]])]
        if len(extra):
            sides.append((m_table, p_pos[part], moe._sources(extra, "pos"),
                          p_neg[part], moe._sources(extra, "neg")))
            ref_sides.append(moe._pseudo_sides(x, extra))
        loss, grad = moe._score_space_loss_and_grad(gp.w_out, sides)
        ref_loss, ref_grad = moe._output_gate_loss_and_grad(gp.w_out, ref_sides)
        np.testing.assert_allclose(loss, ref_loss, rtol=1e-12, atol=0)
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-12, atol=0)
        sizes.append((len(u[rows]), len(extra)))
    assert sizes[-1] == (2, 0) and [n for _, n in sizes].count(0) == 3


def test_phase_two_skips_view_gate_gradients_bitwise():
    """The all-gates loss adds the pseudo triples through the output-gate
    kernel that phase two steps on; its loss and gradients equal bit for bit
    those of the reference that scores the pseudo triples through
    two_view_scores."""
    split, x = _tiny()
    gp = GateParams.create(x.d, Rng(9))
    u, bp = split.train_x.rows[:40], split.train_x.cols[:40]
    triples = (u, bp, np.roll(bp, 3))
    pseudo = sample_pseudo_triples(split, 25, 0.9, Rng(9).derive("p"))
    for batch, extra in ((triples, pseudo), (triples, None), ((u[:0],) * 3, pseudo)):
        loss, grads = stage3_loss_and_grads(x, gp, batch, extra)
        ref_loss, ref_grads = stage3_loss_reference(x, gp, batch, extra)
        assert loss == ref_loss
        for got, want in zip(grads, ref_grads):
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("eta, batch, chunk", [(0.5, 8, graph.SCORE_CHUNK),
                                               (0.5, 3, graph.SCORE_CHUNK),
                                               (0.5, 8, 3), (0.0, 8, 3)])
def test_phase_two_equals_reference_bitwise(monkeypatch, eta, batch, chunk):
    """train_stage3 scores the phase's shared work once and steps both forks
    side by side in score space; its gate sets equal those of the fork-by-fork
    representation-space reference that steps on the all-gates loss within
    rtol 1e-12, its losses too, and its validation recalls and best epoch
    exactly.  35 train pairs in batches of
    8 leave a short last batch and 18 pseudo triples that the 5 batches do
    not divide; in batches of 3 the last three batches get no pseudo triple.
    A scoring chunk of 3 rows splits every batch's pseudo triples and the
    phase-wide scoring into several chunks."""
    monkeypatch.setattr(graph, "SCORE_CHUNK", chunk)
    split, x = _tiny()
    config = RunConfig(eta=eta, stage3_epochs=3, stage3_batch=batch, seed=4)
    n_pairs = len(split.train_x)
    n_batches = -(-n_pairs // batch)
    assert n_pairs % batch and round(0.5 * n_pairs) % n_batches
    gp, gp0, history = train_stage3(split, x, config)
    ref, ref0, ref_history = train_stage3_reference(split, x, config)
    assert (gp0 is gp) == (ref0 is ref) == (eta == 0)
    for trained, want in ((gp, ref), (gp0, ref0)):
        for p, q in zip(trained.params(), want.params()):
            np.testing.assert_allclose(p, q, rtol=1e-12, atol=0)
    assert history.keys() == ref_history.keys()
    for key, value in history.items():
        if key.endswith("_loss"):
            np.testing.assert_allclose(value, ref_history[key], rtol=1e-12, atol=0)
        else:
            assert value == ref_history[key], key


@pytest.mark.parametrize("n_forks", [1, 2, 3])
def test_fork_score_matrices_equal_score_matrix_bitwise(n_forks):
    """Phase two's validation shares one product per view between its
    forks; every fork's matrix is `_score_matrix`'s, bitwise."""
    _, x = _tiny(seed=3)
    gp = GateParams.create(x.d, Rng(1))
    rb_bint, rb_iint, _, _ = fused_tables(x, gp)
    gates = [output_gate(np.concatenate([rb_bint, rb_iint], axis=1),
                         Rng(2 + f).normal((2, 2 * x.d))) for f in range(n_forks)]
    got = list(moe._fork_score_matrices(x, rb_bint, rb_iint, gates))
    assert len(got) == n_forks
    for m, g in zip(got, gates):
        assert m.tobytes() == moe._score_matrix(x, rb_bint, rb_iint, g).tobytes()


def test_pseudo_triples_properties():
    split, _ = _tiny()
    rng = Rng(7)
    triples = sample_pseudo_triples(split, 30, 0.9, rng)
    assert len(triples) == 30
    pos_sets = {}
    for u, b in zip(split.train_x.rows.tolist(), split.train_x.cols.tolist()):
        pos_sets.setdefault(u, set()).add(b)
    for t in triples.tolist():
        u, pos_x, pos_y, pos_lam, neg_x, neg_y, neg_lam = t
        assert len(pos_sets[u]) >= 2
        assert pos_x in pos_sets[u] and pos_y in pos_sets[u]
        assert pos_x != pos_y
        assert neg_x not in pos_sets[u] and neg_y not in pos_sets[u]
        assert neg_x != neg_y
        assert 0.0 <= pos_lam <= 1.0 and 0.0 <= neg_lam <= 1.0


def _train_only(split, n_users, n_bundles, rows, cols):
    """split over a catalog of n_users x n_bundles whose train pairs are
    (rows, cols); the pseudo sampler reads nothing else."""
    cat = Catalog(n_users, n_bundles, split.catalog.n_items)
    return dataclasses.replace(split, catalog=cat,
                               train_x=InteractionSet.from_pairs(Kind.USER_BUNDLE, rows, cols))


def _assert_pseudo_matches_reference(split, count, alpha, seed):
    a, b = Rng(seed), Rng(seed)
    got = sample_pseudo_triples(split, count, alpha, a)
    want = sample_pseudo_triples_reference(split, count, alpha, b)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert a._counter == b._counter
    return a._counter


@pytest.mark.parametrize("alpha", [0.9, 0.02, 0.002])
def test_pseudo_triples_equal_scalar_reference(alpha):
    """The replayed sampler gives the scalar sampler's records and final
    counter; at alpha 0.002 Johnk's log-scale underflow branch runs."""
    cat, x, y, z = synth_blockmodel(60, 80, 30, 3, 5, 0.3, 3)
    split = make_split(x, y, z, cat, Scenario.COLD_START, seed=3)
    UNDERFLOW["hits"] = 0
    for seed in range(3):
        _assert_pseudo_matches_reference(split, 400, alpha, seed)
    if alpha == 0.002:
        assert UNDERFLOW["hits"] > 0


def test_pseudo_triples_two_positive_pools_and_crowded_negatives(time_limit):
    """Pools of exactly two positives, and users leaving only two free
    bundles, so most negative pairs are redrawn."""
    split, _ = _tiny()
    n_users, n_bundles = 6, 12
    pairs = [(u, (u + k) % n_bundles) for u in range(n_users) for k in range(2)]
    two = _train_only(split, n_users, n_bundles, *zip(*pairs))
    crowd = [(u, b) for u in range(n_users) for b in range(n_bundles) if b not in (u, u + 1)]
    tight = _train_only(split, n_users, n_bundles, *zip(*crowd))
    with time_limit(20):
        for seed in range(3):
            _assert_pseudo_matches_reference(two, 200, 0.9, seed)
            # a valid negative pair is 2 of 144 ordered draws
            assert _assert_pseudo_matches_reference(tight, 200, 0.9, seed) > 200 * 40


@st.composite
def _train_pairs(draw):
    n_users = draw(st.integers(1, 6))
    n_bundles = draw(st.integers(2, 7))
    pairs = draw(st.sets(st.tuples(st.integers(0, n_users - 1), st.integers(0, n_bundles - 1)),
                         max_size=30))
    if draw(st.booleans()) and pairs:
        # one user holds every warm bundle but one
        warm = sorted({b for _, b in pairs})
        pairs |= {(0, b) for b in warm[1:]}
    return n_users, n_bundles, sorted(pairs)


@given(_train_pairs(), st.integers(0, 40), st.sampled_from([0.9, 0.02, 0.002]),
       st.integers(0, 2**32))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_pseudo_triples_replay_property(time_limit, case, count, alpha, seed):
    """On any small split the replay equals the scalar reference, or both
    raise the same error before drawing."""
    n_users, n_bundles, pairs = case
    split = _train_only(_tiny()[0], n_users, n_bundles,
                        [u for u, _ in pairs], [b for _, b in pairs])
    a, b = Rng(seed), Rng(seed)
    with time_limit(10):
        try:
            want = sample_pseudo_triples_reference(split, count, alpha, b)
        except DegenerateSplitError as err:
            with pytest.raises(DegenerateSplitError, match=re.escape(str(err))):
                sample_pseudo_triples(split, count, alpha, a)
            assert a._counter == b._counter == 0
            return
        got = sample_pseudo_triples(split, count, alpha, a)
    assert got.tobytes() == want.tobytes() and a._counter == b._counter


def _window_cases():
    """Splits for the window tests: the 60 x 30 synthetic split (pools up to
    its largest length), pools of exactly two positives, and users that
    leave only two free bundles."""
    cat, x, y, z = synth_blockmodel(60, 80, 30, 3, 5, 0.3, 3)
    synth = make_split(x, y, z, cat, Scenario.COLD_START, seed=3)
    n_users, n_bundles = 6, 12
    two = [(u, (u + k) % n_bundles) for u in range(n_users) for k in range(2)]
    tight = [(u, b) for u in range(n_users) for b in range(n_bundles) if b not in (u, u + 1)]
    return {"synth": synth,
            "two": _train_only(synth, n_users, n_bundles, *zip(*two)),
            "tight": _train_only(synth, n_users, n_bundles, *zip(*tight))}


WINDOW_CASES = _window_cases()


def _window_spy(monkeypatch, sizes):
    """Record the number of raws of every window the sampler builds."""
    build = moe._PseudoWindow.__init__

    def spy(self, raws, *args):
        sizes.append(raws.size)
        build(self, raws, *args)
    monkeypatch.setattr(moe._PseudoWindow, "__init__", spy)


@given(st.integers(1, 40), st.sampled_from(sorted(WINDOW_CASES)),
       st.sampled_from([0.9, 0.5, 0.02, 0.002]), st.integers(1, 40), st.integers(0, 2**32))
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_pseudo_triples_across_window_boundaries(monkeypatch, time_limit, window, case, alpha,
                                                 count, seed):
    """With windows of a few raws, chains run past the window's end over
    and over; records and final counter still equal the scalar reference's
    bit for bit."""
    monkeypatch.setattr(moe, "PSEUDO_WINDOW", window)
    split = WINDOW_CASES[case]
    a, b = Rng(seed), Rng(seed)
    with time_limit(20):
        got = sample_pseudo_triples(split, count, alpha, a)
    want = sample_pseudo_triples_reference(split, count, alpha, b)
    assert got.tobytes() == want.tobytes() and a._counter == b._counter


def test_pseudo_negatives_past_the_window_keep_it_bounded(monkeypatch, time_limit):
    """A user that leaves two of 60 bundles free needs about 3,600 negative
    pairs per triple.  Loops that long leave the window and are drawn one
    at a time, so no window grows with them, and the records and counter
    still equal the reference's."""
    split = WINDOW_CASES["synth"]
    held = [(0, b) for b in range(2, 60)] + [(1, 0), (1, 1)]
    long_loops = _train_only(split, 2, 60, *zip(*held))
    monkeypatch.setattr(moe, "PSEUDO_WINDOW", 64)
    sizes = []
    _window_spy(monkeypatch, sizes)
    with time_limit(60):
        spent = _assert_pseudo_matches_reference(long_loops, 12, 0.9, 4)
    assert spent > 12 * 1000 and max(sizes) < 500


def test_pseudo_triples_largest_pools_across_windows(monkeypatch, time_limit):
    """Windows shorter than the largest pool: a triple's keys alone span
    several extensions, at every alpha, the underflow branch included."""
    split = WINDOW_CASES["synth"]
    assert split.train_positives.degrees().max() >= 2 * 3
    monkeypatch.setattr(moe, "PSEUDO_WINDOW", 3)
    sizes = []
    _window_spy(monkeypatch, sizes)
    UNDERFLOW["hits"] = 0
    with time_limit(20):
        for alpha in (0.9, 0.5, 0.02, 0.002):
            for seed in range(2):
                _assert_pseudo_matches_reference(split, 150, alpha, seed)
    assert UNDERFLOW["hits"] > 0
    assert max(sizes) > 2 * 3  # windows extended by more than one fetch


class _BoundaryRng(Rng):
    """A stream whose uniforms take a few values that put Johnk pairs at
    alpha 1 exactly on x + y = 1 or one ulp above it.  Raw i is a pure
    function of (seed, i), like Rng's: the low 11 bits stay random, and
    the top 53 bits, the uniform, come from UNIFORMS."""
    UNIFORMS = np.array([2**51, 3 * 2**51, 3 * 2**51 + 2, 2**52, 2**52 + 1, 2**50],
                        dtype=np.uint64)

    def raw(self, n):
        r = super().raw(n)
        return (self.UNIFORMS[r % np.uint64(len(self.UNIFORMS))] << np.uint64(11)) \
            | (r & np.uint64(0x7FF))


class _TiedRng(Rng):
    """A stream in which every odd raw of Rng's becomes the largest raw, so
    that the keys of a pool tie often, with each other and with the
    padding past a shorter pool."""

    def raw(self, n):
        r = super().raw(n)
        return np.where(r & np.uint64(1), np.uint64(2**64 - 1), r)


def test_pseudo_triples_keep_the_stable_tie_rule():
    """Tied keys pick the lower position first, as the reference's stable
    sort does, also when every key but the smallest is the largest raw."""
    for split in (WINDOW_CASES["two"], WINDOW_CASES["synth"]):
        for seed in range(3):
            a, b = _TiedRng(seed), _TiedRng(seed)
            got = sample_pseudo_triples(split, 300, 0.9, a)
            want = sample_pseudo_triples_reference(split, 300, 0.9, b)
            assert got.tobytes() == want.tobytes() and a._counter == b._counter


@pytest.mark.parametrize("toward", [np.inf, -np.inf])
def test_pseudo_triples_survive_an_ulp_off_array_pow(monkeypatch, toward):
    """The array pow may round an ulp away from the scalar pow.  With every
    array power pushed one ulp toward `toward`, on a stream full of pairs
    whose scalar sum is exactly 1 or one ulp above it, the records and the
    final counter still equal the scalar reference's."""
    monkeypatch.setattr(moe, "_array_pow", lambda x, e: np.nextafter(np.power(x, e), toward))
    u01 = (_BoundaryRng(0).raw(64) >> np.uint64(11)) * 2.0 ** -53
    sums = u01[:-1] + u01[1:]
    assert np.any(sums == 1.0) and np.any(sums == 1.0 + 2.0 ** -52)
    for split in (WINDOW_CASES["synth"], WINDOW_CASES["tight"]):
        for seed in range(3):
            a, b = _BoundaryRng(seed), _BoundaryRng(seed)
            got = sample_pseudo_triples(split, 200, 1.0, a)
            want = sample_pseudo_triples_reference(split, 200, 1.0, b)
            assert got.tobytes() == want.tobytes() and a._counter == b._counter
    for alpha in (0.9, 0.5, 0.02):
        _assert_pseudo_matches_reference(WINDOW_CASES["synth"], 300, alpha, 5)


def _with_train_pairs(split, user, bundles):
    """split with `user` also holding train interactions with `bundles`."""
    tx = split.train_x
    train_x = InteractionSet.from_pairs(tx.kind, np.r_[tx.rows, np.full(len(bundles), user)],
                                        np.r_[tx.cols, bundles])
    return dataclasses.replace(split, train_x=train_x)


def test_pseudo_negatives_need_two_free_bundles(time_limit):
    split, _ = _tiny()
    split = _with_train_pairs(split, 0, np.arange(1, split.catalog.n_bundles))
    rng = Rng(7)
    with time_limit(5), pytest.raises(DegenerateSplitError):
        sample_pseudo_triples(split, 30, 0.9, rng)
    assert rng._counter == 0


def test_stage3_negatives_reject_user_holding_every_bundle(time_limit):
    split, x = _tiny()
    split = _with_train_pairs(split, 0, np.unique(split.train_x.cols))
    with time_limit(5), pytest.raises(DegenerateSplitError):
        train_stage3(split, x, RunConfig(eta=0.0, stage3_epochs=1, stage3_batch=16))


def test_train_stage3_leaves_experts_frozen():
    split, x = _tiny()
    before = hashlib.sha256(b"".join(
        np.ascontiguousarray(t).tobytes() for t in
        (x.ru_bint, x.ru_iint, x.r_e_bint, x.r_d_bint, x.r_e_items, x.r_d_items)
    )).hexdigest()
    config = RunConfig(eta=0.5, stage3_epochs=3, stage3_batch=64, seed=0)
    gp, _, history = train_stage3(split, x, config)
    after = hashlib.sha256(b"".join(
        np.ascontiguousarray(t).tobytes() for t in
        (x.ru_bint, x.ru_iint, x.r_e_bint, x.r_d_bint, x.r_e_items, x.r_d_items)
    )).hexdigest()
    assert before == after
    assert len(history["view_loss"]) == 3
    assert len(history["out_loss"]) == 3


def test_train_stage3_deterministic():
    split, x = _tiny()
    config = RunConfig(eta=0.5, stage3_epochs=2, stage3_batch=64, seed=1)
    a, a0, _ = train_stage3(split, x, config)
    b, b0, _ = train_stage3(split, x, config)
    for pa, pb in zip(a.params() + a0.params(), b.params() + b0.params()):
        np.testing.assert_array_equal(pa, pb)


def test_no_aug_fork_matches_separate_eta0_run():
    split, x = _tiny()
    config = RunConfig(eta=0.5, stage3_epochs=3, stage3_batch=16, seed=2)
    gp, gp0, _ = train_stage3(split, x, config)
    ref, ref0, _ = train_stage3(split, x, dataclasses.replace(config, eta=0.0))
    assert ref0 is ref
    for fork, solo in zip(gp0.params(), ref.params()):
        np.testing.assert_array_equal(fork, solo)
    # phase one is shared; augmentation changes only the output gate
    np.testing.assert_array_equal(gp.w_bint, gp0.w_bint)
    np.testing.assert_array_equal(gp.w_iint, gp0.w_iint)
    assert not np.array_equal(gp.w_out, gp0.w_out)


def test_ablation_scores_shapes():
    split, x = _tiny()
    cat = split.catalog
    assert score_all_no_moe(x).shape == (cat.n_users, cat.n_bundles)
    assert score_all_no_diff(x).shape == (cat.n_users, cat.n_bundles)
    # no-diff ignores the diffusion tables entirely
    x.r_d_bint[:] = 1e9
    x.r_d_items[:] = 1e9
    s = score_all_no_diff(x)
    assert np.all(np.abs(s) < 1e6)


def test_gate_dump_rows_cover_all_entities():
    split, x = _tiny()
    gp = GateParams.create(x.d, Rng(8))
    rows = gate_dump_rows(x, gp)
    cat = split.catalog
    assert len(rows) == cat.n_bundles + cat.n_items
    for cls, ident, view, w_e, w_d in rows:
        assert cls in ("bundle", "item")
        assert abs(w_e + w_d - 1.0) < 1e-12
