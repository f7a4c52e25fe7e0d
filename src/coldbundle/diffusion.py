"""Per-view conditional diffusion experts.

A small MLP is trained to predict the clean representation from a noised
one plus a condition derived from bundle-item affiliations and a sinusoidal
time embedding.  Generation starts from a similarity-based anchor (mean of
the top-n composition-similar warm entities' representations) and runs a
deterministic strided denoising loop: at each kept timestep the implied
noise is extracted and re-applied at the next kept timestep, with no fresh
noise, so outputs are reproducible and the full-length loop is recovered
exactly when the stride is 1.

Anchors are searched in blocks of ANCHOR_BLOCK entities: one sparse product
gives a block's composition dot products with every warm entity (exact
integers, as compositions are binary), each divided by the product of the
two norms, and `metrics.rank_candidates` picks the top n of each row with
the query's own column masked, so ties break by ascending id, the
evaluation ranking's rule.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .config import RunConfig
from .data import InteractionSet, Kind, PositivesIndex
from .errors import ContractError, DivergenceError, ShapeError
from .graph import _sample_negatives, bpr_loss, membership_matrix
from .metrics import rank_candidates
from .nn import Adam, Mlp, scatter_rows
from .rng import Rng

log = logging.getLogger(__name__)

# Endpoint calibration for the beta range, stated at the reference step
# count 500 and scaled inversely with T so total injected noise stays
# roughly constant across step counts.
_BETA_LO, _BETA_HI, _REF_T = 1e-4, 0.02, 500

# Membership pairs per condition-pretraining step.
COND_BATCH = 4096

# Entities per anchor-search block; a block's similarities to the warm set
# are one dense (block, n_warm) matrix.
ANCHOR_BLOCK = 256


@dataclass
class NoiseSchedule:
    kind: str  # linear | cosine | exp
    T: int
    beta: np.ndarray       # index 0 is step 1
    alpha: np.ndarray
    alpha_bar: np.ndarray

    def bar(self, t):
        """abar_t of a step t; an array of steps gives a column, one row each."""
        t = np.asarray(t)
        bad = t[(t < 1) | (t > self.T)]
        if bad.size:
            raise ContractError(f"timestep {bad.flat[0]} outside [1, {self.T}]")
        return float(self.alpha_bar[t - 1]) if t.ndim == 0 else self.alpha_bar[t - 1][:, None]


def make_schedule(kind: str, T: int) -> NoiseSchedule:
    if T < 2:
        raise ContractError("schedule needs T >= 2")
    scale = _REF_T / T
    if kind == "linear":
        beta = np.linspace(_BETA_LO, _BETA_HI, T) * scale
    elif kind == "exp":
        beta = np.geomspace(_BETA_LO, _BETA_HI, T) * scale
    elif kind == "cosine":
        def f(t):
            return np.cos((t / T + 0.008) / 1.008 * np.pi / 2.0) ** 2
        bar = f(np.arange(T + 1)) / f(0)
        beta = np.clip(1.0 - bar[1:] / bar[:-1], 0.0, 0.999)
    else:
        raise ContractError(f"unknown schedule kind {kind!r}")
    beta = np.clip(beta, 0.0, 0.999)
    alpha = 1.0 - beta
    alpha_bar = np.cumprod(alpha)
    return NoiseSchedule(kind, T, beta, alpha, alpha_bar)


def _noise_scales(t, s: NoiseSchedule):
    ab = s.bar(t)
    return np.sqrt(ab), np.sqrt(1.0 - ab)


def forward_noise(x0: np.ndarray, t, eps: np.ndarray, s: NoiseSchedule) -> np.ndarray:
    """x_t = sqrt(abar_t) x0 + sqrt(1 - abar_t) eps; t is one step, or an
    array of steps, one per row of x0."""
    a, b = _noise_scales(t, s)
    return a * x0 + b * eps


def implied_noise(x_t: np.ndarray, x0_hat: np.ndarray, t: int, s: NoiseSchedule) -> np.ndarray:
    """Algebraic inverse of forward_noise given a clean estimate."""
    a, b = _noise_scales(t, s)
    return (x_t - a * x0_hat) / b


def time_embedding(t, T: int, dim: int = 64) -> np.ndarray:
    """Sinusoidal embedding of t/T; t may be a scalar or an array."""
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    half = dim // 2
    freqs = np.exp(np.arange(half) * (-np.log(10000.0) / max(half - 1, 1)))
    ang = (t[:, None] / T) * freqs[None, :] * 10000.0
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


@dataclass
class Denoiser:
    net: Mlp
    d_time: int


def make_denoiser(d: int, d_cond: int, d_time: int, rng: Rng, hidden: int | None = None) -> Denoiser:
    hidden = 4 * d if hidden is None else hidden
    net = Mlp.create([d + d_cond + d_time, hidden, hidden, d], rng)
    return Denoiser(net=net, d_time=d_time)


def denoiser_forward(den: Denoiser, x_t: np.ndarray, cond: np.ndarray,
                     t: np.ndarray, s: NoiseSchedule):
    """Batched x0 prediction at steps t, one per row; returns (x0_hat, tape)."""
    temb = time_embedding(np.asarray(t), s.T, den.d_time)
    inp = np.concatenate([np.atleast_2d(x_t), np.atleast_2d(cond), temb], axis=1)
    return den.net.forward(inp)


def denoise_loss_and_grads(den: Denoiser, x0: np.ndarray, cond: np.ndarray, t,
                           eps: np.ndarray, s: NoiseSchedule):
    """Mean squared x0-prediction error of the rows of x0 noised at steps t
    with noise eps, and its gradients, ordered like `den.net.params()`."""
    x0_hat, tape = denoiser_forward(den, forward_noise(x0, t, eps, s), cond, t, s)
    resid = x0_hat - x0
    loss = float(np.mean(np.sum(resid ** 2, axis=1)))
    grads, _ = den.net.backward(tape, 2.0 * resid / x0.shape[0])
    return loss, grads


def train_diffusion(warm_reps: np.ndarray, conds: np.ndarray, s: NoiseSchedule,
                    cfg: RunConfig, rng: Rng) -> Denoiser:
    """Fit x0-prediction on the warm representations.

    Per sample and epoch: fresh t ~ Uniform[1, T], eps ~ N(0, I), squared
    error against the clean representation.
    """
    n, d = warm_reps.shape
    den = make_denoiser(d, conds.shape[1], cfg.d_time, rng.derive("init"),
                        hidden=cfg.diff_hidden)
    params = den.net.params()
    opt = Adam(params, lr=cfg.diff_lr)
    for epoch in range(cfg.diff_epochs):
        order = rng.permutation(n)
        ts = rng.integers(n, 1, s.T + 1)
        eps = rng.normal((n, d))
        for start in range(0, n, cfg.diff_batch):
            stop = start + cfg.diff_batch
            idx = order[start:stop]
            loss, grads = denoise_loss_and_grads(den, warm_reps[idx], conds[idx],
                                                 ts[start:stop], eps[start:stop], s)
            if not np.isfinite(loss):
                raise DivergenceError(f"diffusion loss diverged at epoch {epoch}")
            opt.step(params, grads)
    return den


@dataclass
class AnchorIndex:
    warm_ids: np.ndarray          # entity ids, ascending
    comp: sp.csr_matrix           # composition vectors of ALL entities
    comp_norms: np.ndarray        # per-entity L2 norm of composition rows
    warm_reps: np.ndarray         # embedded representations of warm_ids


def build_anchor_index(comp: sp.csr_matrix, warm_ids: np.ndarray,
                       reps: np.ndarray) -> AnchorIndex:
    warm_ids = np.sort(np.asarray(warm_ids, dtype=np.int64))
    norms = np.sqrt(np.asarray(comp.multiply(comp).sum(axis=1)).ravel())
    return AnchorIndex(warm_ids, comp.tocsr(), norms, reps[warm_ids])


def anchor(entity, idx: AnchorIndex, n: int) -> np.ndarray:
    """Mean embedded representation of the top-n composition-cosine-similar
    warm entities (self excluded, ties broken by ascending id).

    `entity` is an id or an array of ids; a scalar id gives a 1-D result.
    The whole block is scored against every warm entity by one sparse
    product and ranked by `rank_candidates`, its own warm column masked.
    A query with fewer than n candidates averages all of them; one with an
    empty composition averages every warm entity but itself.
    """
    if n < 1 or idx.warm_ids.size == 0:
        raise ContractError("anchor needs n >= 1 and a nonempty warm set")
    ents = np.atleast_1d(np.asarray(entity, dtype=np.int64))
    warm = idx.warm_ids
    is_warm = np.isin(ents, warm)
    if warm.size == 1 and is_warm.any():
        raise ContractError("no warm candidates besides the query entity")
    qn = idx.comp_norms[ents]
    # Binary compositions: the dot products are exact integers.
    dots = (idx.comp[ents] @ idx.comp[warm].T).toarray()
    sims = dots / (np.multiply.outer(qn, idx.comp_norms[warm]) + 1e-300)
    # (row, warm column) of each warm query itself, masked like a train pair.
    own = InteractionSet(Kind.BUNDLE_ITEM, np.flatnonzero(is_warm),
                         np.searchsorted(warm, ents[is_warm]))
    k = min(n, warm.size)
    top = rank_candidates(sims, own, k)
    out = idx.warm_reps[top].mean(axis=1)
    if k == warm.size and is_warm.any():
        # A warm query's own column, masked, ranks last: drop it.
        out[is_warm] = idx.warm_reps[top[is_warm, :-1]].mean(axis=1)
    for r in np.flatnonzero(qn == 0.0):
        log.info("entity %d has empty composition; using mean of all warm reps", ents[r])
        out[r] = idx.warm_reps[warm != ents[r]].mean(axis=0)
    return out[0] if np.ndim(entity) == 0 else out


def strided_timesteps(T: int, T_prime: int) -> np.ndarray:
    """T_prime timesteps uniformly strided over [1, T], descending."""
    if not 1 <= T_prime <= T:
        raise ContractError("T_prime must be in [1, T]")
    ts = np.unique(np.round(np.linspace(1, T, T_prime)).astype(np.int64))
    return ts[::-1].copy()


def reverse_denoise(start: np.ndarray, cond: np.ndarray, den: Denoiser,
                    s: NoiseSchedule, T_prime: int) -> np.ndarray:
    """Deterministic strided denoising; batched over rows of `start`.

    x at the first kept step is the anchor; each step predicts x0, extracts
    the implied noise, and re-applies it at the next kept step.  Output is
    the final x0 prediction.

    The loop keeps no tape.  The denoiser input [x | cond | time embedding]
    is one array: its condition columns are written once, its x columns
    and its step's time-embedding row (broadcast to every row) on each
    step, and `Mlp.infer` runs it in two hidden-layer buffers kept for the
    whole loop.
    """
    ts = strided_timesteps(s.T, T_prime)
    x = np.atleast_2d(np.asarray(start, dtype=np.float64))
    cond = np.atleast_2d(cond)
    n, d = x.shape
    if cond.shape[0] != n:
        raise ShapeError(f"{cond.shape[0]} condition rows for {n} start rows")
    d_in = d + cond.shape[1]
    inp = np.empty((n, d_in + den.d_time))
    inp[:, d:d_in] = cond
    buffers = den.net.hidden_buffers(n)
    x0_hat = None
    for i, t in enumerate(ts.tolist()):
        inp[:, :d] = x
        inp[:, d_in:] = time_embedding(t, s.T, den.d_time)
        x0_hat = den.net.infer(inp, buffers)
        if not np.all(np.isfinite(x0_hat)):
            raise DivergenceError(f"non-finite denoiser output at step index {i} (t={t})")
        if i + 1 < ts.size:
            eps_hat = implied_noise(x, x0_hat, t, s)
            x = forward_noise(x0_hat, int(ts[i + 1]), eps_hat, s)
    if np.ndim(start) == 1:
        return x0_hat[0]
    return x0_hat


@dataclass
class ConditionProvider:
    item_cond: np.ndarray       # (n_items, d_c)
    bundle_cond: np.ndarray     # (n_bundles, d_c), mean over member items


def pretrain_conditions(z: InteractionSet, n_bundles: int, n_items: int,
                        cfg: RunConfig, rng: Rng) -> ConditionProvider:
    """Ranking-style matrix factorization on bundle-item membership.

    Positive = member item, negative = uniform non-member; the bundle
    condition is the mean of its member items' vectors, so two bundles with
    identical item sets get identical conditions.
    """
    if len(z) == 0:
        raise ContractError("bundle-item affiliations are empty")
    d = cfg.d_c
    w_bundle = rng.uniform_init((n_bundles, d), d)
    w_item = rng.uniform_init((n_items, d), d)
    members = PositivesIndex.of(z, n_bundles, n_items)
    params = [w_bundle, w_item]
    opt = Adam(params, lr=cfg.cond_lr)
    n_pairs = len(z)
    for _ in range(cfg.cond_epochs):
        order = rng.permutation(n_pairs)
        neg = _sample_negatives(rng, z.rows[order], np.arange(n_items), members)
        for start in range(0, n_pairs, COND_BATCH):
            idx = order[start:start + COND_BATCH]
            b, ip = z.rows[idx], z.cols[idx]
            ineg = neg[start:start + COND_BATCH]
            s_pos = np.sum(w_bundle[b] * w_item[ip], axis=1)
            s_neg = np.sum(w_bundle[b] * w_item[ineg], axis=1)
            _, c = bpr_loss(s_pos, s_neg)
            cw = c[:, None]
            g_b = scatter_rows(b, cw * (w_item[ip] - w_item[ineg]), n_bundles)
            g_i = scatter_rows(np.concatenate([ip, ineg]),
                               np.concatenate([cw * w_bundle[b], -cw * w_bundle[b]]), n_items)
            opt.step(params, [g_b, g_i])
    bundle_cond = membership_matrix(z, n_bundles, n_items, require_nonempty=False) @ w_item
    return ConditionProvider(item_cond=w_item, bundle_cond=bundle_cond)


def generate_all(comp: sp.csr_matrix, embedded_reps: np.ndarray, warm_ids: np.ndarray,
                 conds: np.ndarray, den: Denoiser, s: NoiseSchedule,
                 T_prime: int, top_n: int) -> np.ndarray:
    """Diffusion representations for every entity of one view.

    `comp` holds one binary composition row per entity (bundle-item rows
    for the bundle view, item-bundle rows for the item view) and `conds`
    one condition row per entity.  Inputs are limited to bundle-item
    structure, warm embedded representations, pretrained conditions, and
    the trained denoiser; no user interaction data is read, so cold and
    warm entities are handled identically (warm entities also anchor on
    their top-n neighbors, excluding themselves).
    """
    n_entities = comp.shape[0]
    idx = build_anchor_index(comp, warm_ids, embedded_reps)
    anchors = np.concatenate([
        anchor(np.arange(start, min(start + ANCHOR_BLOCK, n_entities)), idx, top_n)
        for start in range(0, n_entities, ANCHOR_BLOCK)])
    return reverse_denoise(anchors, conds, den, s, T_prime)
