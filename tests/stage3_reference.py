"""Reference stage-3 training in representation space: phase one on the
bundle-table scatters of `graph.two_view_bpr`, then fork by fork, batch by
batch, every step on the all-gates loss, which rebuilds the fused tables
and rescores each real triple per fork, with the pseudo triples
interpolated and scored by `two_view_scores`.  `moe.train_stage3`, which
trains in score space, must give its gate sets within rtol 1e-12 and its
validation recalls exactly."""

import numpy as np

from coldbundle import moe
from coldbundle.graph import _recall_at_k, bpr_loss, two_view_bpr
from coldbundle.nn import Adam
from coldbundle.rng import Rng


def view_phase_reference(x, gp, triples):
    """Phase one's loss and view-gate gradients in representation space:
    `two_view_bpr` scatters the rows' gradients into the fused bundle
    tables, and `_view_gate_grads` folds them into each (2, 1) gate."""
    rb_bint, rb_iint, w_b, w_i = moe.fused_tables(x, gp)
    loss, _, g_rb_bint, g_rb_iint = two_view_bpr(x.ru_bint, rb_bint, x.ru_iint, rb_iint, *triples)
    return loss, moe._view_gate_grads(x, w_b, w_i, g_rb_bint, g_rb_iint)


def stage3_loss_reference(x, gp, triples, pseudo):
    """All-gates loss and gradients: the real triples through
    `stage3_loss_and_grads`, then the pseudo triples' two sides through
    `two_view_scores`, their w_out gradients added positive side first."""
    total_loss, grads = moe.stage3_loss_and_grads(x, gp, triples)
    if pseudo is not None and len(pseudo):
        ru1, ru2 = x.ru_bint[pseudo["u"]], x.ru_iint[pseudo["u"]]
        sides = []
        for side in ("pos", "neg"):
            e_b, d_b, e_i, d_i = moe.interpolate_pseudo(
                x, pseudo[side + "_x"], pseudo[side + "_y"], pseudo[side + "_lam"])
            sides.append(moe.two_view_scores(ru1, ru2, 0.5 * (e_b + d_b), 0.5 * (e_i + d_i),
                                             gp.w_out))
        (y_pos, vjp_pos), (y_neg, vjp_neg) = sides
        loss, c = bpr_loss(y_pos, y_neg)
        total_loss += loss
        grads[2] += vjp_pos(c)[0]
        grads[2] += vjp_neg(-c)[0]
    return total_loss, grads


def output_gate_epoch_reference(x, gp, opt, batches, pseudo):
    """One phase-two epoch of one fork; pseudo triples are spread evenly over
    the batches.  Returns the summed loss."""
    per_batch = max(1, int(np.ceil(len(pseudo) / len(batches)))) if len(pseudo) else 0
    epoch_loss = 0.0
    for k, triples in enumerate(batches):
        loss, grads = stage3_loss_reference(x, gp, triples,
                                            pseudo[k * per_batch:(k + 1) * per_batch])
        assert np.isfinite(loss)
        epoch_loss += loss
        opt.step([gp.w_out], [grads[2]])
    return epoch_loss


def train_stage3_reference(split, x, cfg):
    """(gates, no-aug gates, history) as `moe.train_stage3` returns them."""
    rng = Rng(cfg.seed).derive("stage3")
    gp = moe.GateParams.create(x.d, rng.derive("init"))
    gp.w_out[:] = 0.0
    users_all, pos_all = split.train_x.rows, split.train_x.cols
    n_pairs = users_all.size
    n_pseudo = int(round(cfg.effective_eta * n_pairs))
    size = cfg.stage3_batch

    def epoch_batches():
        order = rng.permutation(n_pairs)
        neg_all = moe._epoch_negatives(rng, users_all[order], split.warm_bundles,
                                       split.train_positives)
        return [(users_all[order[s:s + size]], pos_all[order[s:s + size]], neg_all[s:s + size])
                for s in range(0, n_pairs, size)]

    history = {"view_loss": [], "view_val_recall": [], "out_loss": [], "out_val_recall": []}
    view_params = [gp.w_bint, gp.w_iint]
    opt = Adam(view_params, lr=cfg.stage3_lr)
    for _ in range(cfg.stage3_epochs):
        epoch_loss = 0.0
        for triples in epoch_batches():
            loss, grads = view_phase_reference(x, gp, triples)
            epoch_loss += loss
            opt.step(view_params, grads)
        history["view_loss"].append(epoch_loss / max(1, n_pairs))
        rb_bint, rb_iint, _, _ = moe.fused_tables(x, gp)
        history["view_val_recall"].append(
            _recall_at_k(moe._score_matrix(x, rb_bint, rb_iint), split.train_x, split.val_x))

    forks = [(gp, n_pseudo)]
    if n_pseudo:
        forks.append((moe.GateParams(gp.w_bint.copy(), gp.w_iint.copy(), gp.w_out.copy()), 0))
    opts = [Adam([g.w_out], lr=cfg.stage3_lr) for g, _ in forks]
    best = [(-1.0, g.w_out.copy(), -1) for g, _ in forks]
    for epoch in range(cfg.stage3_epochs):
        batches = epoch_batches()
        for k, ((g, count), opt) in enumerate(zip(forks, opts)):
            pseudo = (moe.sample_pseudo_triples(split, count, cfg.beta_alpha,
                                                rng.derive(f"pseudo:{epoch}"))
                      if count else np.zeros(0, dtype=moe.PSEUDO_DTYPE))
            epoch_loss = output_gate_epoch_reference(x, g, opt, batches, pseudo)
            val_recall = _recall_at_k(moe.score_all(x, g), split.train_x, split.val_x)
            if k == 0:
                history["out_loss"].append(epoch_loss / max(1, n_pairs + len(pseudo)))
                history["out_val_recall"].append(val_recall)
            if val_recall > best[k][0]:
                best[k] = (val_recall, g.w_out.copy(), epoch)
    for (g, _), (_, w_out, _) in zip(forks, best):
        g.w_out[:] = w_out
    history["out_best_epoch"] = best[0][2]
    history["best_val_recall"] = best[0][0]
    return gp, forks[-1][0], history
