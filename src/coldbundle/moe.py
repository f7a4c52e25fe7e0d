"""Cold-aware hierarchical expert fusion.

Each view fuses its embedded and diffusion expert with a Softmax gate fed a
1-dim log interaction count (zero for cold and pseudo-cold entities); the
item-level view fuses per item before aggregating to bundles.  A Tanh
output gate over the concatenated per-view bundle representations weights
the per-view inner-product scores.  Stage-3 trains only the three gate
matrices on frozen expert outputs, optionally augmented with interpolated
pseudo cold bundles.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .config import RunConfig
from .data import PositivesIndex, ScenarioSplit
from .errors import ContractError, DegenerateSplitError, DivergenceError
from .graph import (_recall_at_k, _sample_negatives, bpr_loss, pair_scores, row_chunks,
                    two_view_loss, view_scores)
from .nn import Adam, scatter_rows
from .rng import Rng, johnk_log_ratio

log = logging.getLogger(__name__)


# ExpertOutputs tables saved in, and read back from, the stage-3 checkpoint.
EXPERT_TENSORS = ("ru_bint", "ru_iint", "r_e_bint", "r_d_bint", "r_e_items", "r_d_items",
                  "bundle_feature", "item_feature")


@dataclass
class ExpertOutputs:
    """Frozen expert tables consumed by gate training and scoring."""
    ru_bint: np.ndarray         # (n_users, d) embedded user reps, bundle view
    ru_iint: np.ndarray         # (n_users, d) embedded user reps, item view
    r_e_bint: np.ndarray        # (n_bundles, d) embedded bundle reps
    r_d_bint: np.ndarray        # (n_bundles, d) diffusion bundle reps
    r_e_items: np.ndarray       # (n_items, d) embedded item reps
    r_d_items: np.ndarray       # (n_items, d) diffusion item reps
    agg: sp.csr_matrix          # (n_bundles, n_items) mean membership
    bundle_feature: np.ndarray  # (n_bundles,) log1p train user-bundle degree
    item_feature: np.ndarray    # (n_items,) log1p train user-item degree
    r_e_iint_b: np.ndarray = field(init=False)  # aggregated item-view expert outputs
    r_d_iint_b: np.ndarray = field(init=False)

    def __post_init__(self):
        self.r_e_iint_b = self.agg @ self.r_e_items
        self.r_d_iint_b = self.agg @ self.r_d_items

    @property
    def d(self) -> int:
        return self.r_e_bint.shape[1]

    def tensors(self) -> dict:
        return {name: getattr(self, name) for name in EXPERT_TENSORS}


def cold_features(split: ScenarioSplit) -> tuple[np.ndarray, np.ndarray]:
    """log(1 + train interaction count) per bundle and item; 0 for cold."""
    cat = split.catalog
    bf = np.log1p(split.train_x.col_degrees(cat.n_bundles).astype(np.float64))
    itf = np.log1p(split.y.col_degrees(cat.n_items).astype(np.float64))
    return bf, itf


@dataclass
class GateParams:
    w_bint: np.ndarray  # (2, 1)
    w_iint: np.ndarray  # (2, 1)
    w_out: np.ndarray   # (2, 2d)

    @classmethod
    def create(cls, d: int, rng: Rng) -> "GateParams":
        return cls(
            w_bint=rng.uniform_init((2, 1), 1) * 0.1,
            w_iint=rng.uniform_init((2, 1), 1) * 0.1,
            w_out=rng.uniform_init((2, 2 * d), 2 * d),
        )

    def params(self) -> list[np.ndarray]:
        return [self.w_bint, self.w_iint, self.w_out]


def view_gate(features: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Softmax over the two experts; features (n,) -> weights (n, 2)."""
    features = np.atleast_1d(np.asarray(features, dtype=np.float64))
    if not np.all(np.isfinite(features)):
        raise ContractError("non-finite gate feature")
    logits = features[:, None] * w[:, 0][None, :]
    logits -= logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    return e / e.sum(axis=1, keepdims=True)


def fuse(r_e: np.ndarray, r_d: np.ndarray, weights: np.ndarray) -> np.ndarray:
    return weights[:, 0:1] * r_e + weights[:, 1:2] * r_d


def fused_tables(x: ExpertOutputs, gp: GateParams):
    """Per-bundle fused representations of both views (items fused first)."""
    w_b = view_gate(x.bundle_feature, gp.w_bint)
    w_i = view_gate(x.item_feature, gp.w_iint)
    rb_bint = fuse(x.r_e_bint, x.r_d_bint, w_b)
    items_fused = fuse(x.r_e_items, x.r_d_items, w_i)
    rb_iint = x.agg @ items_fused
    return rb_bint, rb_iint, w_b, w_i


def output_gate(a_out: np.ndarray, w_out: np.ndarray) -> np.ndarray:
    return np.tanh(np.atleast_2d(a_out) @ w_out.T)


def _gated(g: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Scores of rows with output gates g and per-view scores s, both (n, 2)."""
    return g[:, 0] * s[:, 0] + g[:, 1] * s[:, 1]


def _gate_coef(coef: np.ndarray, g: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Gradient of sum(coef * y) with respect to the output-gate logits."""
    return coef[:, None] * (1.0 - g * g) * s


def two_view_scores(ru_bint: np.ndarray, ru_iint: np.ndarray, fb: np.ndarray,
                    fi: np.ndarray, w_out: np.ndarray):
    """Scores of aligned (user, bundle) rows through both views, with a VJP.

    y = g0 <ru_bint, fb> + g1 <ru_iint, fi> with g = tanh([fb, fi] @ w_out.T).
    Returns (y, vjp), where vjp(coef) gives the gradients of sum(coef * y)
    as (d_w_out, d_fb, d_fi).  Unit fusion (g = 1) is `graph.two_view_bpr`.
    """
    s = view_scores(ru_bint, fb, ru_iint, fi)
    a_out = np.concatenate([fb, fi], axis=1)
    g = output_gate(a_out, w_out)

    def vjp(coef):
        v = _gate_coef(coef, g, s)
        d_a = v @ w_out
        d = fb.shape[1]
        return (v.T @ a_out,
                coef[:, None] * g[:, 0:1] * ru_bint + d_a[:, :d],
                coef[:, None] * g[:, 1:2] * ru_iint + d_a[:, d:])
    return _gated(g, s), vjp


def _score_matrix(x: ExpertOutputs, rb_bint: np.ndarray, rb_iint: np.ndarray,
                  g: np.ndarray | None = None) -> np.ndarray:
    """(n_users, n_bundles) two-view product; g (n_bundles, 2) weights the
    views per bundle, None sums them."""
    if g is None:
        return x.ru_bint @ rb_bint.T + x.ru_iint @ rb_iint.T
    return (x.ru_bint @ rb_bint.T) * g[:, 0][None, :] + (x.ru_iint @ rb_iint.T) * g[:, 1][None, :]


def _fork_score_matrices(x: ExpertOutputs, rb_bint: np.ndarray, rb_iint: np.ndarray,
                         gates: list[np.ndarray]):
    """Yield `_score_matrix(x, rb_bint, rb_iint, g)` for each g of `gates`,
    bit for bit, from one product per view: phase two's forks share their
    frozen view tables.  The last matrix weights the products in place, so
    one fork needs no more memory than `_score_matrix`."""
    by_bint = x.ru_bint @ rb_bint.T
    by_iint = x.ru_iint @ rb_iint.T
    for g in gates[:-1]:
        yield by_bint * g[:, 0][None, :] + by_iint * g[:, 1][None, :]
    g = gates[-1]
    by_bint *= g[:, 0][None, :]
    by_iint *= g[:, 1][None, :]
    by_bint += by_iint
    del by_iint  # free before the caller ranks, as `_score_matrix` does
    yield by_bint


def score_all(x: ExpertOutputs, gp: GateParams) -> np.ndarray:
    """Full (n_users, n_bundles) score matrix."""
    rb_bint, rb_iint, _, _ = fused_tables(x, gp)
    g = output_gate(np.concatenate([rb_bint, rb_iint], axis=1), gp.w_out)
    return _score_matrix(x, rb_bint, rb_iint, g)


def score_all_no_moe(x: ExpertOutputs) -> np.ndarray:
    """Ablation: experts summed with equal weight, no gates."""
    return _score_matrix(x, x.r_e_bint + x.r_d_bint, x.r_e_iint_b + x.r_d_iint_b)


def score_all_no_diff(x: ExpertOutputs) -> np.ndarray:
    """Ablation: prior-embedding experts only."""
    return _score_matrix(x, x.r_e_bint, x.r_e_iint_b)


# Augmented triples, one record each: user u, a pseudo-positive mixing two
# of u's train positives (pos_x, pos_y) at ratio pos_lam, and a
# pseudo-negative mixing two bundles u never interacted with at neg_lam.
PSEUDO_DTYPE = np.dtype([("u", np.int64),
                         ("pos_x", np.int64), ("pos_y", np.int64), ("pos_lam", np.float64),
                         ("neg_x", np.int64), ("neg_y", np.int64), ("neg_lam", np.float64)])


def interpolate_pseudo(x: ExpertOutputs, bx: np.ndarray, by: np.ndarray,
                       lam: np.ndarray) -> tuple[np.ndarray, ...]:
    """Row-wise mixup of bundle pairs: every expert table t becomes
    lam * t[bx] + (1 - lam) * t[by].  Returns the mixed
    (r_e_bint, r_d_bint, r_e_iint, r_d_iint) rows; the item view mixes the
    aggregated tables, so both layers stay consistent."""
    lam = np.asarray(lam, dtype=np.float64)[:, None]
    if not np.all((lam >= 0.0) & (lam <= 1.0)):
        raise ContractError("interpolation ratio outside [0, 1]")
    if np.any(np.asarray(bx) == np.asarray(by)):
        raise ContractError("pseudo bundle needs two distinct sources")
    return tuple(lam * t[bx] + (1.0 - lam) * t[by]
                 for t in (x.r_e_bint, x.r_d_bint, x.r_e_iint_b, x.r_d_iint_b))


def _view_gate_grads(x: ExpertOutputs, w_b: np.ndarray, w_i: np.ndarray,
                     g_rb_bint: np.ndarray, g_rb_iint: np.ndarray) -> list[np.ndarray]:
    """Gradients [w_bint, w_iint] of the view gates from those of the fused
    bundle tables; the item view's goes back through the aggregation first."""
    grads = []
    for G, r_e, r_d, w, features in (
            (g_rb_bint, x.r_e_bint, x.r_d_bint, w_b, x.bundle_feature),
            (x.agg.T @ g_rb_iint, x.r_e_items, x.r_d_items, w_i, x.item_feature)):
        p_e = np.sum(G * r_e, axis=1)
        p_d = np.sum(G * r_d, axis=1)
        pbar = w[:, 0] * p_e + w[:, 1] * p_d
        glog_e = w[:, 0] * (p_e - pbar)
        glog_d = w[:, 1] * (p_d - pbar)
        grads.append(np.array([[np.sum(glog_e * features)], [np.sum(glog_d * features)]]))
    return grads


def _pseudo_sides(x: ExpertOutputs, pseudo: np.ndarray) -> tuple[np.ndarray, ...]:
    """(s_pos, a_pos, s_neg, a_neg) of pseudo triples for
    `_output_gate_loss_and_grad`, built SCORE_CHUNK rows at a time.  Pseudo
    bundles carry a zero cold feature, which pins both view gates at
    [0.5, 0.5], so each fused row is the mean of its two interpolated
    experts."""
    d = x.d
    sides = []
    for side in ("pos", "neg"):
        scores, a_out = np.empty((len(pseudo), 2)), np.empty((len(pseudo), 2 * d))
        for rows in row_chunks(len(pseudo)):
            part, a = pseudo[rows], a_out[rows]
            e_b, d_b, e_i, d_i = interpolate_pseudo(
                x, part[side + "_x"], part[side + "_y"], part[side + "_lam"])
            np.add(e_b, d_b, out=a[:, :d])
            np.add(e_i, d_i, out=a[:, d:])
            a *= 0.5
            u = part["u"]
            scores[rows] = view_scores(x.ru_bint[u], a[:, :d], x.ru_iint[u], a[:, d:])
        sides += [scores, a_out]
    return tuple(sides)


def _output_gate_loss_and_grad(w_out: np.ndarray, sides: list, loss: float = 0.0,
                               grad: np.ndarray | None = None):
    """The output-gate kernel: summed ranking loss of triples whose view
    scores are fixed, and its w_out gradient, added side by side to
    (loss, grad).  Each side is (s_pos, a_pos, s_neg, a_neg): the per-view
    scores (n, 2) and output-gate inputs (n, 2d) of its positive and its
    negative rows."""
    grad = np.zeros_like(w_out) if grad is None else grad
    for s_pos, a_pos, s_neg, a_neg in sides:
        g_pos, g_neg = output_gate(a_pos, w_out), output_gate(a_neg, w_out)
        side_loss, c = bpr_loss(_gated(g_pos, s_pos), _gated(g_neg, s_neg))
        loss += side_loss
        grad += _gate_coef(c, g_pos, s_pos).T @ a_pos
        grad += _gate_coef(-c, g_neg, s_neg).T @ a_neg
    return loss, grad


def stage3_loss_and_grads(x: ExpertOutputs, gp: GateParams,
                          triples: tuple[np.ndarray, np.ndarray, np.ndarray],
                          pseudo: np.ndarray | None = None):
    """Summed ranking loss over real and pseudo triples; exact gate gradients
    [w_bint, w_iint, w_out].

    pseudo is a PSEUDO_DTYPE record array.  Pseudo bundles carry a zero cold
    feature, which pins both view gates at [0.5, 0.5], so only the output
    gate receives their gradient, through the output-gate kernel on
    interpolated rows.  This is the representation-space form that
    `train_stage3`'s score-space kernels reproduce up to the summation
    order.
    """
    u, bp, bn = triples
    rb_bint, rb_iint, w_b, w_i = fused_tables(x, gp)
    ru1, ru2 = x.ru_bint[u], x.ru_iint[u]
    y_pos, vjp_pos = two_view_scores(ru1, ru2, rb_bint[bp], rb_iint[bp], gp.w_out)
    y_neg, vjp_neg = two_view_scores(ru1, ru2, rb_bint[bn], rb_iint[bn], gp.w_out)
    loss, c = bpr_loss(y_pos, y_neg)
    d_pos, d_neg = vjp_pos(c), vjp_neg(-c)
    b = np.concatenate([bp, bn])
    g_rb_bint, g_rb_iint = (scatter_rows(b, np.concatenate([p, n]), len(rb_bint))
                            for p, n in zip(d_pos[1:], d_neg[1:]))
    grads = _view_gate_grads(x, w_b, w_i, g_rb_bint, g_rb_iint) + [d_pos[0] + d_neg[0]]
    if pseudo is not None and len(pseudo):
        loss, grads[2] = _output_gate_loss_and_grad(gp.w_out, [_pseudo_sides(x, pseudo)],
                                                    loss, grads[2])
    return loss, grads


# Phase two of train_stage3 works in score space.  With the view gates
# frozen, a real row's output-gate input is a row of the fused table
# A = [rb_bint | rb_iint], and a pseudo row's is a mix
# lam * M[bx] + (1 - lam) * M[by] of the table
# M = [r_e_bint + r_d_bint | r_e_iint_b + r_d_iint_b] / 2 (a zero cold
# feature pins both view gates at [0.5, 0.5]).  Gate logits and view scores
# are linear in that input, so rows gather or mix per-bundle logits and
# scores, and the w_out gradient bins the rows' logit gradients per bundle
# before one product with the table.

def _sources(pseudo: np.ndarray, side: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(bx, by, lam) of one side ("pos" or "neg") of PSEUDO_DTYPE records."""
    return pseudo[side + "_x"], pseudo[side + "_y"], pseudo[side + "_lam"]


def _gates_at(logits: np.ndarray, at) -> np.ndarray:
    """Output gates of rows whose logits are rows of the per-bundle logits
    at `at`: an index array, or mixes (bx, by, lam)."""
    if isinstance(at, tuple):
        bx, by, lam = at
        lam = lam[:, None]
        return np.tanh(lam * logits[bx] + (1.0 - lam) * logits[by])
    return np.tanh(logits)[at]


def _binned(at, v: np.ndarray, n: int) -> np.ndarray:
    """(n, 2) per-bundle sums of the rows of v, the adjoint of `_gates_at`'s
    gather: a mix bins lam * v at bx and (1 - lam) * v at by."""
    if isinstance(at, tuple):
        bx, by, lam = at
        lam = lam[:, None]
        return scatter_rows(np.concatenate([bx, by]), np.concatenate([lam * v, (1.0 - lam) * v]), n)
    return scatter_rows(at, v, n)


def _pseudo_table(x: ExpertOutputs) -> np.ndarray:
    """M, the per-bundle output-gate inputs that pseudo bundles mix."""
    return 0.5 * np.concatenate([x.r_e_bint + x.r_d_bint, x.r_e_iint_b + x.r_d_iint_b], axis=1)


def _pseudo_scores(x: ExpertOutputs, m_table: np.ndarray,
                   pseudo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-view scores (n, 2) of the pseudo positives and negatives: the
    mixes of their sources' scores against M's halves, SCORE_CHUNK rows at
    a time (einsum row dots keep no product temporaries)."""
    halves = m_table[:, :x.d], m_table[:, x.d:]
    s_pos, s_neg = np.empty((len(pseudo), 2)), np.empty((len(pseudo), 2))
    for rows in row_chunks(len(pseudo)):
        part = pseudo[rows]
        users = x.ru_bint[part["u"]], x.ru_iint[part["u"]]
        for side, out in (("pos", s_pos), ("neg", s_neg)):
            bx, by, lam = _sources(part, side)
            for k, (ru, m) in enumerate(zip(users, halves)):
                s_x, s_y = (np.einsum("ij,ij->i", ru, m[b]) for b in (bx, by))
                out[rows, k] = lam * s_x + (1.0 - lam) * s_y
    return s_pos, s_neg


def _score_space_loss_and_grad(w_out: np.ndarray, sides: list):
    """The output-gate kernel in score space: `_output_gate_loss_and_grad`
    of the same triples, up to the summation order.  Each side is
    (table, s_pos, at_pos, s_neg, at_neg): a per-bundle table of output-gate
    inputs (n_bundles, 2d), and the per-view scores (n, 2) and table rows
    (`_gates_at`) of its positive and its negative rows."""
    loss, grad = 0.0, np.zeros_like(w_out)
    for table, s_pos, at_pos, s_neg, at_neg in sides:
        logits = table @ w_out.T
        g_pos, g_neg = _gates_at(logits, at_pos), _gates_at(logits, at_neg)
        side_loss, c = bpr_loss(_gated(g_pos, s_pos), _gated(g_neg, s_neg))
        loss += side_loss
        bins = _binned(at_pos, _gate_coef(c, g_pos, s_pos), len(table))
        bins += _binned(at_neg, _gate_coef(-c, g_neg, s_neg), len(table))
        grad += bins.T @ table
    return loss, grad


# Raws the pseudo-triple sampler fetches per Rng.raw call.  A window holds
# the raws left over from the last fetch plus one fetch, so it stays
# bounded however long a triple's rejection loops run.  Windows of this
# size were the fastest measured (4,096 to 65,536 raws on the seed-7
# cold-start split) and keep the sampler's transient memory near 2 MB.
PSEUDO_WINDOW = 1 << 14

# Negative pairs tested in array rounds before the walk redraws the rest
# one at a time; _PAD positions past a window keep every round's reads in
# bounds.
_NEG_ROUNDS = 2
_PAD = 5 + 2 * _NEG_ROUNDS

# Pair sums x + y this close to 1 decide Johnk's test with scalar pow.
_NEAR_ONE = 8 * 2.0 ** -52

# The array power of the windowed Johnk test.  It may round an ulp away from
# the scalar pow that defines each draw; the near-1 recheck makes the
# sampler's output independent of that ulp.
_array_pow = np.power


def _residues(raws: np.ndarray, m: int) -> np.ndarray:
    """raws % m as intp, through numpy's division by a scalar, which is
    several times faster than its remainder."""
    m = np.uint64(m)
    return (raws - raws // m * m).view(np.intp)


def _johnk_ends(u01: np.ndarray, inv: float) -> np.ndarray:
    """Where a Johnk draw that starts at position p of a window of uniforms
    ends: 2 past the first pair (u01[q], u01[q + 1]) with q >= p and
    q = p mod 2 that the test u ** inv + v ** inv <= 1 accepts.  n + 2
    where no such pair lies in the window of n; p runs to n + _PAD - 1."""
    n = u01.size
    x = _array_pow(u01, inv)
    total = x[:-1] + x[1:]
    accept = total <= 1.0
    near = np.flatnonzero(np.abs(total - 1.0) <= _NEAR_ONE)
    for p, u, v in zip(near.tolist(), u01[near].tolist(), u01[near + 1].tolist()):
        accept[p] = math.pow(u, inv) + math.pow(v, inv) <= 1.0
    at = np.where(accept, np.arange(2, n + 1), n + 2)
    ends = np.full(n + _PAD, n + 2)
    for parity in (0, 1):
        ends[parity:n - 1:2] = np.minimum.accumulate(at[parity::2][::-1])[::-1]
    return ends


def _johnk_values(u01: np.ndarray, q: np.ndarray, inv: float, alpha: float) -> np.ndarray:
    """Beta(alpha, alpha) values of the accepted pairs at positions q, as
    `Replay.beta` computes them: scalar pow, then x / (x + y), which IEEE
    division rounds the same in an array."""
    us, vs = u01[q].tolist(), u01[q + 1].tolist()
    x, y = np.array(list(map(math.pow, us + vs, itertools.repeat(inv)))).reshape(2, -1)
    total = x + y
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = x / total
    for k in np.flatnonzero(total == 0.0).tolist():
        lam[k] = johnk_log_ratio(us[k], vs[k], alpha, alpha)
    return lam


class _PseudoWindow:
    """The draws of a window of n raws, speculated for every triple start.

    A triple starting at position s draws its user from raws[s], one key
    per positive of that user, a Johnk draw that ends at ends[s + 1 + L],
    negative pairs from there until one, at e, is valid, and a Johnk draw
    that ends at ends[e + 2], where the next triple starts.  neg[s] is e
    once an array round found it; `chain[s]` is then the next start, and
    -2 where every round failed (the walk redraws from neg[s] in scalar
    code).  A start past n means the triple runs past the window.
    """

    def __init__(self, raws: np.ndarray, inv: float, eligible: np.ndarray,
                 pool: np.ndarray, candidates: np.ndarray, positives: PositivesIndex):
        n = raws.size
        self.raws, self.n, self.inv, self.positives = raws, n, inv, positives
        self.u01 = (raws >> np.uint64(11)) * 2.0 ** -53
        self.ends = ends = _johnk_ends(self.u01, inv)
        pick = _residues(raws, eligible.size)
        self.user, self.pool = eligible[pick], pool[pick]
        # The candidate each raw names; padded, so attempts past the end
        # read a placeholder, and ends[] then marks them past the window.
        self.named = named = np.zeros(n + _PAD, dtype=np.int64)
        named[:n] = candidates[_residues(raws, candidates.size)]
        at = np.arange(1, n + 1) + self.pool
        self.neg = neg = ends[np.minimum(at, n, out=at)]
        outside = neg > n - 2
        # Negative pairs in array rounds: the pairs at neg[todo] are still
        # to test; starts left after the last round redraw on the walk.
        todo, e, u = None, neg, self.user
        for _ in range(_NEG_ROUNDS):
            nx, ny = named[e], named[e + 1]
            bad = nx == ny
            bad |= positives.contains_bits(u, nx)
            bad |= positives.contains_bits(u, ny)
            todo = np.flatnonzero(bad) if todo is None else todo[bad]
            e, u = e[bad] + 2, u[bad]
            neg[todo] = e
        # Position n starts no triple inside the window.
        code = np.full(n + 1, n + 2)
        np.take(ends, neg + 2, out=code[:n])
        code[todo] = -2
        # A triple whose first negative pair lies past the window ends in
        # the next one, with its positive draws; rounds past the end read
        # placeholders.
        code[:n][outside] = n + 2
        # A memoryview hands out Python ints without a list of the window.
        self.chain = memoryview(code)

    def walk(self, count: int) -> tuple[list[int], dict[int, int], int, int | None]:
        """Up to `count` triple starts in chain order from position 0; the
        redrawn negative pairs by triple index; where the walk stopped, at
        the next start or at a triple that runs past the window; and, when
        that triple's negative pairs ran past the window, the first of them
        left untested (else None)."""
        chain, n = self.chain, self.n
        starts, redrawn, s = [], {}, 0
        for _ in range(count):
            t = chain[s]
            if t == -2:
                t, e = self._redraw(s)
                if e > n - 2:
                    # Every pair before n - 1 failed; rounds past the end
                    # tested placeholders.
                    return starts, redrawn, s, e - 2 * max(0, (e - n + 1) // 2)
                if t <= n:
                    redrawn[len(starts)] = e
            if t > n:
                break
            starts.append(s)
            s = t
        return starts, redrawn, s, None

    def _redraw(self, s: int) -> tuple[int, int]:
        """The negative pairs of the triple at s that the array rounds left,
        in scalar code: (next start, valid pair), a next start past n if
        its negative ratio runs past the window, and a pair past n - 2 if
        the pairs do."""
        n, named, positives = self.n, memoryview(self.named), self.positives
        u, e = int(self.user[s]), int(self.neg[s])
        while e <= n - 2:
            bx, by = named[e], named[e + 1]
            if bx != by and not positives.holds(u, bx) and not positives.holds(u, by):
                return int(self.ends[e + 2]), e
            e += 2
        return n + 2, e

    def gather(self, starts: list[int], redrawn: dict[int, int], alpha: float,
               out: np.ndarray, spilled: tuple | None = None) -> None:
        """Write the records of the triples at the walked `starts` to `out`.
        `spilled`, if given, is the negative pair and ratio of the last
        triple, drawn past the window."""
        positives = self.positives
        s = np.array(starts)
        u, pool = self.user[s], self.pool[s]
        inside = s[:s.size - (spilled is not None)]
        neg = self.neg[inside]
        neg[list(redrawn)] = list(redrawn.values())
        # The two smallest keys, first occurrence first (a stable sort's
        # tie rule), with the padding past each pool at the maximum.
        top = np.iinfo(np.uint64).max
        width = pool.max()
        padded = np.concatenate([self.raws, np.full(width, top, dtype=np.uint64)])
        keys = np.lib.stride_tricks.sliding_window_view(padded, width)[s + 1]
        keys[np.arange(width) >= pool[:, None]] = top
        i = keys.argmin(axis=1)
        keys[np.arange(s.size), i] = top
        j = keys.argmin(axis=1)
        # j == i only if i == 0 and every other key is the maximum.
        j[j == i] = 1
        lo = positives.indptr[u]
        # Both Johnk draws of every triple in one pass: the positive ratio's
        # accepted pair, then the negative ratio's.
        accepted = np.concatenate([self.ends[s + 1 + pool], self.ends[neg + 2]]) - 2
        lam = _johnk_values(self.u01, accepted, self.inv, alpha)
        out["u"] = u
        out["pos_x"], out["pos_y"] = positives.cols[lo + i], positives.cols[lo + j]
        out["pos_lam"] = lam[:s.size]
        negatives = out[:inside.size]
        negatives["neg_x"], negatives["neg_y"] = self.named[neg], self.named[neg + 1]
        negatives["neg_lam"] = lam[s.size:]
        if spilled is not None:
            out[["neg_x", "neg_y", "neg_lam"]][-1] = spilled


def _replayed_negative(draws, u: int, candidates: np.ndarray, positives: PositivesIndex,
                       alpha: float) -> tuple[int, int, float]:
    """A negative pair for user u and its ratio, read one draw at a time
    from a `Replay`."""
    named = candidates.tolist()
    while True:
        bx, by = named[draws.raw() % len(named)], named[draws.raw() % len(named)]
        if bx != by and not positives.holds(u, bx) and not positives.holds(u, by):
            return bx, by, draws.beta(alpha, alpha)


def sample_pseudo_triples(split: ScenarioSplit, count: int, beta_alpha: float,
                          rng: Rng) -> np.ndarray:
    """`count` augmented triples as a PSEUDO_DTYPE record array:
    pseudo-positive interpolates two of the user's train positives,
    pseudo-negative two never-interacted bundles.

    Each triple draws, in this order: its user (one raw modulo the number
    of eligible users); two distinct positives, the first two of a stable
    sort of one raw per positive (the user's positives in ascending id
    order); the positive ratio (Johnk); a negative pair (two raws modulo
    the number of candidate bundles) until both miss the user's positives
    and differ; the negative ratio.

    Draw i of the stream depends only on (seed, i), so the position where
    a triple starts fixes all it draws and where the next triple starts.
    The sampler fetches a window of raws and speculates, for every start
    in it at once, the user, the positive ratio's accepted pair, the
    negative pairs of a few array rounds and the next start
    (`_PseudoWindow`).  A walk then follows the chain of starts, redrawing
    in scalar code the negatives that every round rejected, and the
    visited starts' fields are gathered in array passes.  A chain that
    runs past the window's end goes on in a window of the unused raws plus
    one more fetch of at most PSEUDO_WINDOW raws; negative pairs that run
    past it are drawn one at a time through `Rng.replay`.  The raws left
    over are given back, so the records and the final counter are those
    of the scalar draws, bit for bit.
    """
    cat = split.catalog
    positives = split.train_positives
    degrees = positives.degrees()
    eligible = np.flatnonzero(degrees >= 2)
    skipped = cat.n_users - eligible.size
    if skipped:
        log.info("cold-gating augmentation: %d users lack two positives, skipped", skipped)
    if not eligible.size:
        return np.zeros(0, dtype=PSEUDO_DTYPE)
    candidates = np.arange(cat.n_bundles)
    covered = np.bincount(positives.rows[np.isin(positives.cols, candidates)],
                          minlength=cat.n_users)
    crowded = eligible[candidates.size - covered[eligible] < 2]
    if crowded.size:
        raise DegenerateSplitError(
            f"users {crowded[:10].tolist()} leave fewer than two bundles for a pseudo-negative")
    pool = degrees[eligible]
    # Expected raws per triple: the user, the keys, two Johnk draws and
    # one negative pair, for Johnk's acceptance rate G(a+1)^2 / G(2a+1).
    johnk_rate = math.exp(2.0 * math.lgamma(beta_alpha + 1.0)
                          - math.lgamma(2.0 * beta_alpha + 1.0))
    per_triple = 3.0 + pool.mean() + 4.0 / johnk_rate
    out = np.empty(count, dtype=PSEUDO_DTYPE)
    done = 0
    raws = np.zeros(0, dtype=np.uint64)
    while done < count:
        left = count - done
        raws = np.concatenate([raws, rng.raw(min(PSEUDO_WINDOW, math.ceil(left * per_triple)))])
        window = _PseudoWindow(raws, 1.0 / beta_alpha, eligible, pool, candidates, positives)
        starts, redrawn, stop, spill = window.walk(left)
        negative = None
        if spill is not None:
            # The triple at `stop` drew negative pairs to the window's end:
            # the rest of them, and its negative ratio, are drawn one at a
            # time, so that a long rejection loop never grows a window.
            rng.unread(window.n - spill)
            with rng.replay() as draws:
                negative = _replayed_negative(draws, int(window.user[stop]), candidates,
                                              positives, beta_alpha)
            starts.append(stop)
        if starts:
            window.gather(starts, redrawn, beta_alpha, out[done:done + len(starts)], negative)
            done += len(starts)
        raws = raws[stop:] if spill is None else raws[:0]
        del window  # its arrays go before the next window's are built
    rng.unread(raws.size)
    return out


def _view_phase_loss_and_grads(x: ExpertOutputs, gp: GateParams,
                               triples: tuple[np.ndarray, np.ndarray, np.ndarray]):
    """Ranking loss with unit output fusion (y = s_bint + s_iint), that is
    `graph.two_view_loss` on the fused tables; gradients reach the view gates.

    The fused tables' gradients are C @ ru for each view, where the sparse
    (n_bundles, n_users) matrix C holds +c at (bp, u) and -c at (bn, u),
    duplicates summed: one sparse product instead of a scatter of
    batch x d rows."""
    u, bp, bn = triples
    rb_bint, rb_iint, w_b, w_i = fused_tables(x, gp)
    loss, c = two_view_loss(x.ru_bint, rb_bint, x.ru_iint, rb_iint, u, bp, bn)
    coef = sp.coo_matrix((np.concatenate([c, -c]), (np.concatenate([bp, bn]), np.tile(u, 2))),
                         shape=(len(rb_bint), len(x.ru_bint)))
    return loss, _view_gate_grads(x, w_b, w_i, coef @ x.ru_bint, coef @ x.ru_iint)


def _epoch_negatives(rng: Rng, users: np.ndarray, warm_bundles: np.ndarray,
                     positives: PositivesIndex) -> np.ndarray:
    """One epoch of negatives from the train-interacted bundles."""
    return _sample_negatives(rng, users, warm_bundles, positives)


def train_stage3(split: ScenarioSplit, x: ExpertOutputs, cfg: RunConfig):
    """Gate-only training on frozen expert outputs, in two phases.

    Phase one fits the two view-layer gates with unit output fusion; phase
    two freezes them and fits the output gate on the real plus augmented
    triples.  Decoupling the phases keeps the view-layer routing (which has
    a clean per-entity signal) from being disturbed by the higher-variance
    output-gate updates.  Negatives are drawn from train-interacted bundles,
    mirroring the prior-embedding stage: the ranking signal never touches
    bundles that are cold at inference time.  Phase one runs its full epoch
    budget (the two view gates are scalars with a monotone trajectory);
    phase two keeps the epoch snapshot with the best validation Recall@20.

    Phase one never sees the augmentation, so it runs once and phase two
    forks into the augmented fit and a companion fit without pseudo
    triples (the no-aug ablation).  Pseudo triples come from derived
    streams only, so both forks see the same orders and negatives: the
    forks step side by side on each batch, which shares its real triples'
    view scores.

    Both phases train in score space.  Phase one scores the batch rows on
    the fused tables and takes their gradients from one sparse
    (n_bundles, n_users) coefficient product per view instead of row
    scatters.  Phase two gathers per-bundle output-gate logits, mixes them
    for pseudo bundles, scores each pseudo triple once per epoch, and bins
    the rows' logit gradients per bundle before one product with a
    (n_bundles, 2d) table (see `_score_space_loss_and_grad`).  This sums in
    another order than the representation-space form, the gathered gate
    inputs and interpolated pseudo rows of `stage3_loss_and_grads`; the
    tests hold the two to rtol 1e-12 per step and per trained gate, with
    equal validation recalls.
    Returns (GateParams, no-aug GateParams, history of the augmented fit);
    with no pseudo triples (eta 0) the two gate sets are the same object.
    """
    rng = Rng(cfg.seed).derive("stage3")
    gp = GateParams.create(x.d, rng.derive("init"))
    gp.w_out[:] = 0.0

    users_all = split.train_x.rows
    pos_all = split.train_x.cols
    n_pairs = users_all.size
    positives, warm_bundles = split.train_positives, split.warm_bundles
    if warm_bundles.size < 2:
        raise ContractError("need at least two train-interacted bundles")
    n_pseudo = int(round(cfg.effective_eta * n_pairs))
    size = cfg.stage3_batch
    n_batches = -(-n_pairs // size)

    def epoch_draws() -> tuple[np.ndarray, np.ndarray]:
        """An epoch's pair order and its negatives, in that order."""
        order = rng.permutation(n_pairs)
        return order, _epoch_negatives(rng, users_all[order], warm_bundles, positives)

    history = {"view_loss": [], "view_val_recall": [],
               "out_loss": [], "out_val_recall": []}

    # Phase one: view-layer gates, unit output fusion, full epoch budget.
    view_params = [gp.w_bint, gp.w_iint]
    opt = Adam(view_params, lr=cfg.stage3_lr)
    for epoch in range(cfg.stage3_epochs):
        order, neg_all = epoch_draws()
        epoch_loss = 0.0
        for s in range(0, n_pairs, size):
            rows = order[s:s + size]
            loss, grads = _view_phase_loss_and_grads(
                x, gp, (users_all[rows], pos_all[rows], neg_all[s:s + size]))
            if not np.isfinite(loss):
                raise DivergenceError(f"view-gate loss diverged at epoch {epoch}")
            epoch_loss += loss
            opt.step(view_params, grads)
        history["view_loss"].append(epoch_loss / max(1, n_pairs))
        rb_bint, rb_iint, _, _ = fused_tables(x, gp)
        history["view_val_recall"].append(
            _recall_at_k(_score_matrix(x, rb_bint, rb_iint), split.train_x, split.val_x))

    # Phase two: output gate on frozen view routing, real plus pseudo
    # triples, in score space.  The tables A and M and the positive side's
    # view scores hold for the whole phase; each epoch scores its negatives
    # once for both forks, and its pseudo triples once, and validates both
    # forks on one user-bundle product per view.
    rb_bint, rb_iint, _, _ = fused_tables(x, gp)
    a_table, m_table = np.concatenate([rb_bint, rb_iint], axis=1), _pseudo_table(x)
    pos_scores = pair_scores(x.ru_bint, rb_bint, x.ru_iint, rb_iint, users_all, pos_all)
    forks = [(gp, n_pseudo)]
    if n_pseudo:
        forks.append((GateParams(gp.w_bint.copy(), gp.w_iint.copy(), gp.w_out.copy()), 0))
    opts = [Adam([g.w_out], lr=cfg.stage3_lr) for g, _ in forks]
    best = [(-1.0, g.w_out.copy(), -1) for g, _ in forks]
    for epoch in range(cfg.stage3_epochs):
        order, neg_all = epoch_draws()
        neg_scores = pair_scores(x.ru_bint, rb_bint, x.ru_iint, rb_iint, users_all[order], neg_all)
        pseudo = [sample_pseudo_triples(split, count, cfg.beta_alpha,
                                        rng.derive(f"pseudo:{epoch}"))
                  if count else np.zeros(0, dtype=PSEUDO_DTYPE) for _, count in forks]
        pseudo_scores = [_pseudo_scores(x, m_table, p) for p in pseudo]
        # Pseudo triples are spread evenly over the batches.
        per_batch = [max(1, -(-len(p) // n_batches)) if len(p) else 0 for p in pseudo]
        epoch_loss = [0.0] * len(forks)
        for k, s in enumerate(range(0, n_pairs, size)):
            rows = order[s:s + size]
            real = (a_table, pos_scores[rows], pos_all[rows], neg_scores[s:s + size],
                    neg_all[s:s + size])
            for f, ((g, _), opt) in enumerate(zip(forks, opts)):
                part = slice(k * per_batch[f], (k + 1) * per_batch[f])
                extra, (s_pos, s_neg) = pseudo[f][part], pseudo_scores[f]
                sides = [real]
                if len(extra):
                    sides.append((m_table, s_pos[part], _sources(extra, "pos"),
                                  s_neg[part], _sources(extra, "neg")))
                loss, grad = _score_space_loss_and_grad(g.w_out, sides)
                if not np.isfinite(loss):
                    raise DivergenceError(f"gate loss diverged at epoch {epoch}")
                epoch_loss[f] += loss
                opt.step([g.w_out], [grad])
        gates = [output_gate(a_table, g.w_out) for g, _ in forks]
        fork_scores = _fork_score_matrices(x, rb_bint, rb_iint, gates)
        for f, ((g, _), scores) in enumerate(zip(forks, fork_scores)):
            val_recall = _recall_at_k(scores, split.train_x, split.val_x)
            if f == 0:
                history["out_loss"].append(epoch_loss[0] / max(1, n_pairs + len(pseudo[0])))
                history["out_val_recall"].append(val_recall)
            if val_recall > best[f][0]:
                best[f] = (val_recall, g.w_out.copy(), epoch)
    for (g, _), (_, w_out, _) in zip(forks, best):
        g.w_out[:] = w_out
    history["out_best_epoch"] = best[0][2]
    history["best_val_recall"] = best[0][0]
    return gp, forks[-1][0], history


def gate_dump_rows(x: ExpertOutputs, gp: GateParams) -> list[tuple]:
    """Per-entity view-gate weights: (entity_class, id, view, w_embed, w_diff)."""
    rows = []
    w_b = view_gate(x.bundle_feature, gp.w_bint)
    for b in range(w_b.shape[0]):
        rows.append(("bundle", b, "bint", float(w_b[b, 0]), float(w_b[b, 1])))
    w_i = view_gate(x.item_feature, gp.w_iint)
    for i in range(w_i.shape[0]):
        rows.append(("item", i, "iint", float(w_i[i, 0]), float(w_i[i, 1])))
    return rows
