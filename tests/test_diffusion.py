"""Noise schedules, reparameterization, anchors, strided sampling, training."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from coldbundle import diffusion
from coldbundle.config import RunConfig
from coldbundle.data import InteractionSet, Kind
from coldbundle.diffusion import (
    ConditionProvider, build_anchor_index, anchor,
    denoise_loss_and_grads, denoiser_forward, forward_noise, generate_all, implied_noise,
    make_denoiser, make_schedule, pretrain_conditions, reverse_denoise,
    strided_timesteps, time_embedding, train_diffusion,
)
from coldbundle.errors import ContractError, DegenerateSplitError, DivergenceError, ShapeError
from coldbundle.nn import SILU_ROWS, finite_diff_check
from coldbundle.rng import Rng


@pytest.mark.parametrize("kind", ["linear", "cosine"])
@pytest.mark.parametrize("T", [10, 100, 500])
def test_schedule_invariants(kind, T):
    s = make_schedule(kind, T)
    assert np.all(s.beta >= 0.0) and np.all(s.beta < 1.0)
    np.testing.assert_allclose(s.alpha, 1.0 - s.beta)
    np.testing.assert_allclose(s.alpha_bar, np.cumprod(s.alpha), atol=1e-15)
    assert np.all(np.diff(s.alpha_bar) < 0)
    assert s.alpha_bar[-1] < 0.01


def test_schedule_linear_endpoints_at_reference_T():
    s = make_schedule("linear", 500)
    assert abs(s.beta[0] - 1e-4) < 1e-12
    assert abs(s.beta[-1] - 0.02) < 1e-12


def test_schedule_product_oracle():
    s = make_schedule("linear", 10)
    prod = 1.0
    for b in s.beta:
        prod *= (1.0 - b)
    assert abs(s.alpha_bar[-1] - prod) < 1e-15


def test_schedule_rejects():
    with pytest.raises(ContractError):
        make_schedule("linear", 1)
    with pytest.raises(ContractError):
        make_schedule("nope", 10)
    s = make_schedule("linear", 10)
    with pytest.raises(ContractError):
        s.bar(0)
    with pytest.raises(ContractError):
        s.bar(11)


def test_forward_implied_noise_inverse():
    s = make_schedule("linear", 50)
    rng = Rng(0)
    for _ in range(200):
        x0 = rng.normal(6)
        eps = rng.normal(6)
        t = int(rng.integers(1, 1, 51)[0])
        x_t = forward_noise(x0, t, eps, s)
        back = implied_noise(x_t, x0, t, s)
        np.testing.assert_allclose(back, eps, atol=1e-12)


def test_forward_noise_array_t_equals_scalar_rows():
    s = make_schedule("cosine", 30)
    rng = Rng(6)
    x0, eps = rng.normal((7, 5)), rng.normal((7, 5))
    t = np.array([1, 30, 12, 12, 2, 29, 7])
    batch = forward_noise(x0, t, eps, s)
    for r in range(t.size):
        assert batch[r].tobytes() == forward_noise(x0[r], int(t[r]), eps[r], s).tobytes()


@pytest.mark.parametrize("bad", [0, 31, -4])
def test_forward_noise_rejects_out_of_range_array_t(bad):
    s = make_schedule("linear", 30)
    x0 = np.zeros((3, 2))
    with pytest.raises(ContractError, match=f"timestep {bad} outside"):
        forward_noise(x0, np.array([5, bad, 30]), x0, s)
    with pytest.raises(ContractError, match=f"timestep {bad} outside"):
        forward_noise(x0[0], bad, x0[0], s)


def test_time_embedding_shape_and_range():
    emb = time_embedding([1, 25, 50], 50, dim=16)
    assert emb.shape == (3, 16)
    assert np.all(np.abs(emb) <= 1.0 + 1e-12)
    assert not np.allclose(emb[0], emb[2])


def test_strided_timesteps():
    ts = strided_timesteps(100, 10)
    assert ts[0] == 100 and ts[-1] == 1
    assert np.all(np.diff(ts) < 0)
    np.testing.assert_array_equal(strided_timesteps(10, 10), np.arange(10, 0, -1))
    with pytest.raises(ContractError):
        strided_timesteps(10, 11)


def test_diffusion_loss_gradcheck():
    rng = Rng(3)
    s = make_schedule("linear", 20)
    den = make_denoiser(3, 2, 4, rng)
    reps = rng.normal((4, 3))
    conds = rng.normal((4, 2))
    t = np.array([3, 7, 12, 18])
    eps = rng.normal((4, 3))

    def loss_fn():
        return denoise_loss_and_grads(den, reps, conds, t, eps, s)[0]

    _, grads = denoise_loss_and_grads(den, reps, conds, t, eps, s)
    report = finite_diff_check(loss_fn, den.net.params(), grads)
    assert report["max_rel_err"] < 1e-4


def test_training_recovers_one_point_distribution():
    # all training data equal to one vector: generation must return it closely
    rng = Rng(5)
    target = rng.normal(4)
    reps = np.tile(target, (32, 1))
    conds = np.zeros((32, 2))
    s = make_schedule("linear", 20)
    den = train_diffusion(reps, conds, s, RunConfig(diff_epochs=200, diff_lr=3e-3),
                          Rng(0))
    start = rng.normal((1, 4))
    out = reverse_denoise(start, np.zeros((1, 2)), den, s, 10)
    rel = np.linalg.norm(out[0] - target) / np.linalg.norm(target)
    assert rel < 0.05


def test_anchor_excludes_self_and_averages():
    comp = sp.csr_matrix(np.array([
        [1, 1, 0, 0],
        [1, 1, 0, 0],
        [0, 0, 1, 1],
        [1, 1, 0, 0],
    ], dtype=np.float64))
    reps = np.arange(8, dtype=np.float64).reshape(4, 2)
    idx = build_anchor_index(comp, np.array([0, 1, 2]), reps)
    # entity 3 matches 0 and 1 perfectly; top-2 anchor is their mean
    a = anchor(3, idx, 2)
    np.testing.assert_allclose(a, reps[[0, 1]].mean(axis=0))
    # entity 0 must not use itself; its best match is 1
    a0 = anchor(0, idx, 1)
    np.testing.assert_allclose(a0, reps[1])


def test_anchor_tie_break_ascending_id():
    comp = sp.csr_matrix(np.array([
        [1, 0], [1, 0], [1, 0],
    ], dtype=np.float64))
    reps = np.array([[0.0], [10.0], [20.0]])
    idx = build_anchor_index(comp, np.array([0, 1, 2]), reps)
    # all candidates tie at similarity 1; top-1 for entity 0 is id 1
    np.testing.assert_allclose(anchor(0, idx, 1), reps[1])


def test_anchor_contract_errors():
    comp = sp.csr_matrix(np.ones((2, 2)))
    reps = np.zeros((2, 2))
    idx = build_anchor_index(comp, np.array([0]), reps)
    with pytest.raises(ContractError):
        anchor(0, idx, 1)  # only warm candidate is the query itself
    with pytest.raises(ContractError):
        anchor(1, idx, 0)


def test_reverse_denoise_deterministic():
    rng = Rng(7)
    s = make_schedule("linear", 20)
    den = make_denoiser(3, 2, 4, rng)
    start = rng.normal((2, 3))
    cond = rng.normal((2, 2))
    a = reverse_denoise(start, cond, den, s, 5)
    b = reverse_denoise(start, cond, den, s, 5)
    np.testing.assert_array_equal(a, b)


def test_condition_pretraining_rejects_bundle_with_every_item(time_limit):
    z = InteractionSet.from_pairs(Kind.BUNDLE_ITEM, [0, 0, 0, 1], [0, 1, 2, 0])
    with time_limit(5), pytest.raises(DegenerateSplitError):
        pretrain_conditions(z, 2, 3, RunConfig(d_c=4, cond_epochs=1), Rng(0))


def _anchor_reference(entity, idx, n):
    """The per-entity anchor search the blocked kernel replaced."""
    cand = idx.warm_ids[idx.warm_ids != entity]
    q = idx.comp[entity].toarray().ravel()
    qn = idx.comp_norms[entity]
    if qn == 0.0:
        return idx.warm_reps[np.isin(idx.warm_ids, cand)].mean(axis=0)
    sims = (idx.comp[cand] @ q) / (idx.comp_norms[cand] * qn + 1e-300)
    top = cand[np.lexsort((cand, -sims))[:n]]
    return idx.warm_reps[np.searchsorted(idx.warm_ids, top)].mean(axis=0)


def _view_inputs(seed=0, n_bundles=30, n_items=17):
    """Random binary bundle-item affiliations with an empty bundle, an item
    in no bundle and three bundles of one composition (all-tie rows)."""
    gen = np.random.default_rng(seed)
    dense = gen.random((n_bundles, n_items)) < 0.25
    dense[3] = False
    dense[:, 5] = False
    dense[9, [0, 1]] = True
    dense[[10, 11, 12]] = dense[9]
    rows, cols = np.nonzero(dense)
    z = InteractionSet.from_pairs(Kind.BUNDLE_ITEM, rows, cols)
    zc = sp.csr_matrix((np.ones(len(z)), (z.rows, z.cols)), shape=(n_bundles, n_items))
    return gen, z, {"bint": zc, "iint": zc.T.tocsr()}


@pytest.mark.parametrize("view", ["bint", "iint"])
@pytest.mark.parametrize("n", [1, 3, 5, 40])
@pytest.mark.parametrize("warm_share", [0.5, 0.15, 1.0])
def test_blocked_anchor_equals_per_entity_reference(view, n, warm_share):
    gen, _, comps = _view_inputs()
    comp = comps[view]
    n_entities = comp.shape[0]
    warm = np.flatnonzero(gen.random(n_entities) < warm_share)
    warm = np.union1d(warm, [0, 10, 11])  # two warm rows of the all-tie group
    reps = gen.normal(size=(n_entities, 4))
    idx = build_anchor_index(comp, warm, reps)
    ref = np.stack([_anchor_reference(e, idx, n) for e in range(n_entities)])
    got = anchor(np.arange(n_entities), idx, n)
    assert got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()
    for e in (0, 3, 5, n_entities - 1):
        one = anchor(e, idx, n)
        assert one.shape == (4,)
        assert one.tobytes() == ref[e].tobytes()


def test_warm_query_with_fewer_candidates_than_n():
    comp = sp.csr_matrix(np.array([[1, 0], [1, 1], [0, 1], [1, 0]], dtype=np.float64))
    reps = np.array([[1.0], [2.0], [4.0], [8.0]])
    idx = build_anchor_index(comp, np.array([0, 1, 2]), reps)
    # warm entity 0 has two candidates, cold entity 3 has three
    got = anchor(np.array([0, 3]), idx, 5)
    np.testing.assert_array_equal(got, [[3.0], [7.0 / 3.0]])


@pytest.mark.parametrize("view", ["bint", "iint"])
def test_generate_all_blocks_equal_per_entity_reference(view, monkeypatch):
    gen, _, comps = _view_inputs(seed=1)
    n_bundles, n_items = comps["bint"].shape
    n_entities = comps[view].shape[0]
    monkeypatch.setattr(diffusion, "ANCHOR_BLOCK", 7)  # divides neither count
    rng = Rng(4)
    d, d_c = 4, 3
    cond = ConditionProvider(item_cond=rng.normal((n_items, d_c)),
                             bundle_cond=rng.normal((n_bundles, d_c)))
    den = make_denoiser(d, d_c, 6, rng)
    s = make_schedule("linear", 30)
    reps = gen.normal(size=(n_entities, d))
    warm = np.flatnonzero(gen.random(n_entities) < 0.6)
    conds = cond.bundle_cond if view == "bint" else cond.item_cond
    got = generate_all(comps[view], reps, warm, conds, den, s, 6, 3)
    idx = build_anchor_index(comps[view], warm, reps)
    start = np.stack([_anchor_reference(e, idx, 3) for e in range(n_entities)])
    ref = reverse_denoise(start, conds, den, s, 6)
    assert got.tobytes() == ref.tobytes()


def test_scalar_timestep_embeds_once_bitwise():
    """The inference path broadcasts one embedding row of its step; that
    equals the per-row embeddings of the training forward, bitwise."""
    rng = Rng(2)
    s = make_schedule("linear", 40)
    den = make_denoiser(3, 2, 8, rng)
    x, cond = rng.normal((5, 3)), rng.normal((5, 2))
    row = np.broadcast_to(time_embedding(17, s.T, den.d_time), (5, den.d_time))
    per_row = time_embedding(np.full(5, 17), s.T, den.d_time)
    assert row.tobytes() == per_row.tobytes()
    a = den.net.infer(np.concatenate([x, cond, row], axis=1), den.net.hidden_buffers(5))
    b, _ = denoiser_forward(den, x, cond, np.full(5, 17), s)
    assert a.tobytes() == b.tobytes()


def _reverse_denoise_reference(start, cond, den, s, T_prime):
    """The tape-keeping loop the tapeless one replaced: a concatenated input
    and a full training forward on every step."""
    ts = strided_timesteps(s.T, T_prime)
    x = np.atleast_2d(np.asarray(start, dtype=np.float64)).copy()
    cond = np.atleast_2d(cond)
    x0_hat = None
    for i, t in enumerate(ts.tolist()):
        temb = np.broadcast_to(time_embedding(t, s.T, den.d_time), (x.shape[0], den.d_time))
        x0_hat, _ = den.net.forward(np.concatenate([x, cond, temb], axis=1))
        if i + 1 < ts.size:
            eps_hat = implied_noise(x, x0_hat, int(t), s)
            x = forward_noise(x0_hat, int(ts[i + 1]), eps_hat, s)
    return x0_hat[0] if start.ndim == 1 else x0_hat


@pytest.mark.parametrize("dims,n", [((3, 2, 4, 10), 1), ((4, 3, 6, 40), SILU_ROWS + 1),
                                    ((64, 64, 64, 256), 2 * SILU_ROWS + 3)])
@pytest.mark.parametrize("T_prime", [1, 7, 20])
def test_reverse_denoise_equals_tape_reference_bitwise(dims, n, T_prime):
    d, d_c, d_time, hidden = dims
    rng = Rng(8)
    s = make_schedule("cosine", 200)
    den = make_denoiser(d, d_c, d_time, rng, hidden=hidden)
    start, cond = rng.normal((n, d)), rng.normal((n, d_c))
    kept = start.copy(), cond.copy()
    got = reverse_denoise(start, cond, den, s, T_prime)
    want = _reverse_denoise_reference(start, cond, den, s, T_prime)
    assert got.shape == want.shape == (n, d)
    assert got.tobytes() == want.tobytes()
    assert start.tobytes() == kept[0].tobytes() and cond.tobytes() == kept[1].tobytes()
    one = reverse_denoise(start[0], cond[0], den, s, T_prime)
    assert one.shape == (d,)
    assert one.tobytes() == _reverse_denoise_reference(start[0], cond[0], den, s,
                                                       T_prime).tobytes()


def test_reverse_denoise_refusals(monkeypatch):
    """A non-finite anchor or condition is the forward's ContractError, a
    width mismatch its ShapeError; a non-finite output is a DivergenceError
    that names its step index."""
    rng = Rng(9)
    s = make_schedule("linear", 50)
    den = make_denoiser(3, 2, 4, rng, hidden=8)
    start, cond = rng.normal((4, 3)), rng.normal((4, 2))
    for bad in (np.nan, np.inf):
        for arr in (start, cond):
            poisoned = arr.copy()
            poisoned[1, 1] = bad
            args = (poisoned, cond) if arr is start else (start, poisoned)
            with pytest.raises(ContractError, match="non-finite input"):
                reverse_denoise(*args, den, s, 5)
    with pytest.raises(ShapeError):
        reverse_denoise(start, rng.normal((4, 3)), den, s, 5)
    with pytest.raises(ShapeError):
        reverse_denoise(start, cond[:3], den, s, 5)

    infer, calls = den.net.infer, []

    def nan_on_third_step(inp, buffers):
        out = infer(inp, buffers)
        calls.append(len(calls))
        if len(calls) == 3:
            out[2, 0] = np.nan
        return out
    monkeypatch.setattr(den.net, "infer", nan_on_third_step)
    t = int(strided_timesteps(s.T, 5)[2])
    with pytest.raises(DivergenceError, match=rf"step index 2 \(t={t}\)"):
        reverse_denoise(start, cond, den, s, 5)
    monkeypatch.undo()
    den.net.layers[-1].bias[1] = np.inf
    with pytest.raises(DivergenceError, match="step index 0 "):
        reverse_denoise(start, cond, den, s, 5)


def test_reverse_denoise_traced_peak():
    """800 rows (the acceptance data's item view) through the default-sized
    denoiser, hidden width 256 and T' = 20: the tape-keeping loop peaked at
    17.84 MiB; the tapeless one keeps two hidden buffers and one input."""
    cfg = RunConfig()
    rng = Rng(10)
    s = make_schedule(cfg.schedule, cfg.T)
    den = make_denoiser(cfg.d, cfg.d_c, cfg.d_time, rng, hidden=256)
    start, cond = rng.normal((800, cfg.d)), rng.normal((800, cfg.d_c))
    tracemalloc.start()
    try:
        reverse_denoise(start, cond, den, s, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9 * 2 ** 20, peak / 2 ** 20
