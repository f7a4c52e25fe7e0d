"""Prior-embedding experts: dual-view graph propagation plus ranking-loss training.

Both views use symmetric-normalized bipartite propagation.  Layer pooling
follows the backbone formula exactly: the representation is the sum of the
K+1 layer embeddings scaled by 1/K (the printed off-by-one is kept, not
"fixed").  Entities with no training edges therefore keep their initial
embedding scaled by 1/K and receive no gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .config import RunConfig
from .data import InteractionSet, PositivesIndex, ScenarioSplit
from .errors import ContractError, DegenerateSplitError, DivergenceError
from .metrics import rank_candidates
from .nn import Adam, _sigmoid, scatter_rows
from .rng import Rng


@dataclass
class BipartiteGraph:
    n_left: int
    n_right: int
    mat: sp.csr_matrix     # (n_left, n_right), entry 1/sqrt(deg_l * deg_r)
    mat_t: sp.csr_matrix = field(init=False)

    def __post_init__(self):
        self.mat_t = self.mat.T.tocsr()


def normalize_adjacency(edges: InteractionSet, n_left: int, n_right: int) -> BipartiteGraph:
    """Edge weights 1/sqrt(deg(left) * deg(right)); isolated nodes keep empty rows."""
    deg_l = edges.row_degrees(n_left).astype(np.float64)
    deg_r = edges.col_degrees(n_right).astype(np.float64)
    if len(edges):
        w = 1.0 / np.sqrt(deg_l[edges.rows] * deg_r[edges.cols])
    else:
        w = np.zeros(0)
    mat = sp.csr_matrix((w, (edges.rows, edges.cols)), shape=(n_left, n_right))
    return BipartiteGraph(n_left, n_right, mat)


def propagate(g: BipartiteGraph, e_left: np.ndarray, e_right: np.ndarray, K: int):
    """Alternating propagation; returns pooled (r_left, r_right).

    r = (1/K) * sum_{k=0..K} e^(k), with e_left^(k) = A e_right^(k-1) and
    e_right^(k) = A^T e_left^(k-1).
    """
    if K < 1:
        raise ContractError("K must be >= 1")
    if e_left.shape[1] != e_right.shape[1]:
        raise ContractError("embedding dimensions differ between sides")
    acc_l, acc_r = e_left.copy(), e_right.copy()
    cur_l, cur_r = e_left, e_right
    for _ in range(K):
        nxt_l = g.mat @ cur_r
        nxt_r = g.mat_t @ cur_l
        acc_l += nxt_l
        acc_r += nxt_r
        cur_l, cur_r = nxt_l, nxt_r
    return acc_l / K, acc_r / K


def propagate_backward(g: BipartiteGraph, K: int,
                       grad_r_left: np.ndarray, grad_r_right: np.ndarray):
    """Adjoint of propagate: gradients wrt the initial embedding tables."""
    gl = grad_r_left / K
    gr = grad_r_right / K
    acc_l, acc_r = gl.copy(), gr.copy()
    for _ in range(K):
        nxt_l = g.mat @ acc_r
        nxt_r = g.mat_t @ acc_l
        acc_l = gl + nxt_l
        acc_r = gr + nxt_r
    return acc_l, acc_r


def membership_matrix(z: InteractionSet, n_bundles: int, n_items: int,
                      require_nonempty: bool = True) -> sp.csr_matrix:
    """Row-stochastic bundle->item matrix with weight 1/|C_b|."""
    sizes = z.row_degrees(n_bundles).astype(np.float64)
    if require_nonempty and np.any(sizes == 0):
        empty = np.flatnonzero(sizes == 0)
        raise ContractError(f"bundles with empty item sets: {empty[:10].tolist()}")
    w = 1.0 / sizes[z.rows]
    return sp.csr_matrix((w, (z.rows, z.cols)), shape=(n_bundles, n_items))


@dataclass
class DualView:
    """A split's user-bundle (train) and user-item graphs and its mean
    bundle-item aggregation, built once per stage."""
    gx: BipartiteGraph
    gy: BipartiteGraph
    agg: sp.csr_matrix     # (n_bundles, n_items), weight 1/|C_b|
    agg_t: sp.csr_matrix = field(init=False)

    def __post_init__(self):
        self.agg_t = self.agg.T.tocsr()

    @classmethod
    def of(cls, split: ScenarioSplit) -> "DualView":
        cat = split.catalog
        return cls(normalize_adjacency(split.train_x, cat.n_users, cat.n_bundles),
                   normalize_adjacency(split.y, cat.n_users, cat.n_items),
                   membership_matrix(split.z, cat.n_bundles, cat.n_items))


def bpr_loss(scores_pos: np.ndarray, scores_neg: np.ndarray):
    """Summed -ln sigmoid(pos - neg); returns (loss, dloss/d(pos - neg))."""
    diff = scores_pos - scores_neg
    # -ln sigma(d) = softplus(-d), computed stably
    loss = float(np.sum(np.logaddexp(0.0, -diff)))
    grad = _sigmoid(diff) - 1.0
    return loss, grad


@dataclass
class PriorEmbeddings:
    """Initial tables plus derived view representations."""
    e_user: np.ndarray
    e_bundle: np.ndarray
    e_item: np.ndarray
    K: int

    def view_reps(self, view: DualView):
        """(ru_b, rb, ru_i, ri, rb_i): both views propagated, and each
        bundle's mean member-item representation."""
        ru_b, rb = propagate(view.gx, self.e_user, self.e_bundle, self.K)
        ru_i, ri = propagate(view.gy, self.e_user, self.e_item, self.K)
        return ru_b, rb, ru_i, ri, view.agg @ ri


# Rows per chunk of the row-wise scoring.  512 x 64 float64 temporaries are
# 256 KB, which the allocator recycles from chunk to chunk; arrays of a whole
# 4,096-row batch go back to the kernel when freed and fault in afresh.
SCORE_CHUNK = 512


def row_chunks(n: int):
    """Slices of SCORE_CHUNK consecutive rows that cover range(n)."""
    return (slice(s, s + SCORE_CHUNK) for s in range(0, n, SCORE_CHUNK))


def view_scores(ru_b: np.ndarray, rb: np.ndarray, ru_i: np.ndarray,
                rb_i: np.ndarray) -> np.ndarray:
    """Per-view inner products (n, 2) of aligned user and bundle rows."""
    return np.stack([np.sum(ru_b * rb, axis=1), np.sum(ru_i * rb_i, axis=1)], axis=1)


def pair_scores(ru_b: np.ndarray, rb: np.ndarray, ru_i: np.ndarray, rb_i: np.ndarray,
                users: np.ndarray, bundles: np.ndarray) -> np.ndarray:
    """`view_scores` (n, 2) of the (users[k], bundles[k]) rows of both views'
    user and bundle tables, gathered SCORE_CHUNK rows at a time."""
    out = np.empty((users.size, 2))
    for rows in row_chunks(users.size):
        u, b = users[rows], bundles[rows]
        out[rows] = view_scores(ru_b[u], rb[b], ru_i[u], rb_i[b])
    return out


def two_view_loss(ru_b: np.ndarray, rb: np.ndarray, ru_i: np.ndarray, rb_i: np.ndarray,
                  u: np.ndarray, bp: np.ndarray, bn: np.ndarray):
    """Summed ranking loss of (user, positive, negative) rows under the
    two-view score <ru_b[u], rb[b]> + <ru_i[u], rb_i[b]>, and c, its
    derivative dloss/d(pos - neg) per row."""
    s_pos = pair_scores(ru_b, rb, ru_i, rb_i, u, bp)
    s_neg = pair_scores(ru_b, rb, ru_i, rb_i, u, bn)
    return bpr_loss(s_pos[:, 0] + s_pos[:, 1], s_neg[:, 0] + s_neg[:, 1])


def two_view_bpr(ru_b: np.ndarray, rb: np.ndarray, ru_i: np.ndarray, rb_i: np.ndarray,
                 u: np.ndarray, bp: np.ndarray, bn: np.ndarray):
    """`two_view_loss` and the bundle-table gradients.  Returns
    (loss, c, g_rb, g_rb_i): g_rb and g_rb_i scatter the positive rows, then
    the negative ones.  User-side gradients are left to the caller."""
    loss, c = two_view_loss(ru_b, rb, ru_i, rb_i, u, bp, bn)
    cw = c[:, None]
    pn = np.concatenate([bp, bn])
    g_rb, g_rb_i = (scatter_rows(pn, np.concatenate([v := cw * ru[u], -v]), len(rb))
                    for ru in (ru_b, ru_i))
    return loss, c, g_rb, g_rb_i


def stage1_loss_and_grads(view: DualView, emb: PriorEmbeddings, u: np.ndarray,
                          bp: np.ndarray, bn: np.ndarray):
    """Summed two-view ranking loss of the (user, positive, negative) rows
    and its gradients [e_user, e_bundle, e_item], through the adjoints of
    the aggregation and of propagation."""
    ru_b, rb, ru_i, _, rb_i = emb.view_reps(view)
    loss, c, g_rb, g_rb_i = two_view_bpr(ru_b, rb, ru_i, rb_i, u, bp, bn)
    cw = c[:, None]
    g_ru_b = scatter_rows(u, cw * (rb[bp] - rb[bn]), ru_b.shape[0])
    g_ru_i = scatter_rows(u, cw * (rb_i[bp] - rb_i[bn]), ru_i.shape[0])
    g_ri = view.agg_t @ g_rb_i
    g_eu_b, g_eb = propagate_backward(view.gx, emb.K, g_ru_b, g_rb)
    g_eu_i, g_ei = propagate_backward(view.gy, emb.K, g_ru_i, g_ri)
    return loss, [g_eu_b + g_eu_i, g_eb, g_ei]


def _sample_negatives(rng: Rng, users: np.ndarray, candidates: np.ndarray,
                      positives: PositivesIndex) -> np.ndarray:
    """One negative per row of `users`, drawn uniformly from the distinct ids
    `candidates` outside the row's positives, redrawing collisions.

    Stage 1 passes train-interacted bundles only, so cold embeddings receive
    no gradient and stay at their initial values.  `candidates` must hold
    every positive, so a row whose degree reaches `candidates.size` has no
    negative left; it raises DegenerateSplitError before any draw.

    Every row takes one draw from one array call; then each colliding row,
    in row order, redraws one scalar at a time until it misses its
    positives.  Rows that do not collide draw nothing more, so the stream
    is that of a scalar loop over all rows.
    """
    full = users[positives.degrees()[users] >= candidates.size]
    if full.size:
        raise DegenerateSplitError(f"row {full.min()} has no negative candidate left")
    neg = candidates[rng.integers(users.size, 0, candidates.size)]
    redo = np.flatnonzero(positives.contains(users, neg))
    if redo.size:
        pool = candidates.tolist()
        with rng.replay() as draws:
            for i in redo.tolist():
                u = int(users[i])
                b = pool[draws.raw() % len(pool)]
                while positives.holds(u, b):
                    b = pool[draws.raw() % len(pool)]
                neg[i] = b
    return neg


def _recall_at_k(scores: np.ndarray, train_x: InteractionSet, eval_x: InteractionSet, k: int = 20) -> float:
    """Mean Recall@k over users with eval positives, train positives masked.

    Ranks through `metrics.rank_candidates`; the per-user recalls are summed
    in user order, as validation has always reduced them.
    """
    n_users = scores.shape[0]
    top = rank_candidates(scores, train_x, k)
    hit = np.zeros(scores.shape, dtype=bool)
    hit[eval_x.rows, eval_x.cols] = True
    n_pos = eval_x.row_degrees(n_users)
    users = np.flatnonzero(n_pos)
    if not users.size:
        return 0.0
    hits = np.count_nonzero(np.take_along_axis(hit, top, axis=1), axis=1)[users]
    return float(np.cumsum(hits / n_pos[users])[-1] / users.size)


def train_stage1(split: ScenarioSplit, cfg: RunConfig):
    """Joint two-view training with the summed ranking loss.

    Returns (PriorEmbeddings, history dict).  Only embedding rows touched
    by a batch are weight-decayed, so entities that never appear in a
    training triple keep their initial embeddings exactly.
    """
    cat = split.catalog
    rng = Rng(cfg.seed).derive("stage1")
    emb = PriorEmbeddings(
        e_user=rng.uniform_init((cat.n_users, cfg.d), cfg.d),
        e_bundle=rng.uniform_init((cat.n_bundles, cfg.d), cfg.d),
        e_item=rng.uniform_init((cat.n_items, cfg.d), cfg.d),
        K=cfg.K,
    )
    view = DualView.of(split)

    positives, warm_bundles = split.train_positives, split.warm_bundles
    if warm_bundles.size < 2:
        raise ContractError("need at least two train-interacted bundles")

    params = [emb.e_user, emb.e_bundle, emb.e_item]
    opt = Adam(params, lr=cfg.stage1_lr, weight_decay=cfg.stage1_weight_decay)
    users_all = split.train_x.rows
    pos_all = split.train_x.cols
    n_pairs = users_all.size

    best = {"recall": -1.0, "params": [p.copy() for p in params], "epoch": 0}
    history = {"loss": [], "val_recall": []}
    bad_epochs = 0

    for epoch in range(cfg.stage1_epochs):
        order = rng.permutation(n_pairs)
        neg_all = _sample_negatives(rng, users_all[order], warm_bundles, positives)
        epoch_loss = 0.0
        for start in range(0, n_pairs, cfg.stage1_batch):
            idx = order[start:start + cfg.stage1_batch]
            u, bp = users_all[idx], pos_all[idx]
            bn = neg_all[start:start + cfg.stage1_batch]
            loss, grads = stage1_loss_and_grads(view, emb, u, bp, bn)
            epoch_loss += loss
            if not np.isfinite(loss):
                raise DivergenceError(f"non-finite loss at epoch {epoch}")

            # Decay only rows that received gradient; untouched entities stay exact.
            masks = [(np.any(g != 0.0, axis=1, keepdims=True)).astype(np.float64)
                     for g in grads]
            opt.step(params, grads, decay_masks=masks)

        history["loss"].append(epoch_loss / max(n_pairs, 1))
        ru_b, rb, ru_i, _, rb_i = emb.view_reps(view)
        scores = ru_b @ rb.T + ru_i @ rb_i.T
        val_recall = _recall_at_k(scores, split.train_x, split.val_x)
        history["val_recall"].append(val_recall)
        if val_recall > best["recall"]:
            best = {"recall": val_recall, "params": [p.copy() for p in params], "epoch": epoch}
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.stage1_patience:
                break

    emb.e_user[:], emb.e_bundle[:], emb.e_item[:] = best["params"]
    history["best_epoch"] = best["epoch"]
    history["best_val_recall"] = best["recall"]
    return emb, history
