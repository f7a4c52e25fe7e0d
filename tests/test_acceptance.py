"""Acceptance criteria for the full pipeline.

Each test prints one PASS/FAIL line (shown in the -rA summary).  Criterion 5
trains the complete pipeline twice (bundle-cold and mixed scenarios) on the
reference synthetic block model; everything else is oracle- or
property-based and fast.
"""

import json
import time

import numpy as np
import pytest

from coldbundle.cli import main as cli_main
from coldbundle.config import RunConfig
from coldbundle.data import (
    InteractionSet, Kind, Scenario, cold_stats, make_split, synth_blockmodel,
)
from coldbundle.diffusion import (
    denoise_loss_and_grads, forward_noise, implied_noise, make_denoiser,
    make_schedule, reverse_denoise, time_embedding, train_diffusion,
)
from coldbundle.errors import DegenerateSplitError
from coldbundle.graph import (
    DualView, PriorEmbeddings, membership_matrix, normalize_adjacency, propagate,
    stage1_loss_and_grads,
)
from coldbundle.metrics import ndcg_at_k, recall_at_k
from coldbundle.moe import GateParams, sample_pseudo_triples, stage3_loss_and_grads
from coldbundle.nn import finite_diff_check
from coldbundle.rng import Rng

from oracles import pair_set
from test_moe import _tiny as _tiny_expert_setup


def _report(criterion, ok, detail):
    print(f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------- criterion 1

def _dense_pooled(edges, n_left, n_right, el, er, K):
    """Symmetric-normalized power-and-pool propagation on the dense joint
    adjacency matrix; returns (left, right) pooled representations."""
    n = n_left + n_right
    A = np.zeros((n, n))
    for r, c in zip(edges.rows.tolist(), edges.cols.tolist()):
        A[r, n_left + c] = A[n_left + c, r] = 1.0
    deg = A.sum(axis=1)
    dinv = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
    An = dinv[:, None] * A * dinv[None, :]
    e = np.concatenate([el, er], axis=0)
    acc, cur = e.copy(), e
    for _ in range(K):
        cur = An @ cur
        acc += cur
    acc /= K
    return acc[:n_left], acc[n_left:]


def test_criterion_1_propagation_oracle():
    t0 = time.time()
    rng = Rng(100)
    worst = 0.0
    for trial in range(25):
        n_left = int(rng.integers(1, 2, 17)[0])
        n_right = int(rng.integers(1, 2, 33 - n_left)[0])
        K = int(rng.integers(1, 1, 4)[0])
        draws = rng.uniform(n_left * n_right).reshape(n_left, n_right)
        rows, cols = np.nonzero(draws < 0.4)
        edges = InteractionSet.from_pairs(Kind.USER_BUNDLE, rows, cols)
        g = normalize_adjacency(edges, n_left, n_right)
        el = rng.normal((n_left, 6))
        er = rng.normal((n_right, 6))
        rl, rr = propagate(g, el, er, K)
        ol, orr = _dense_pooled(edges, n_left, n_right, el, er, K)
        worst = max(worst,
                    float(np.abs(rl - ol).max(initial=0.0)),
                    float(np.abs(rr - orr).max(initial=0.0)))
    elapsed = time.time() - t0
    _report(1, worst < 1e-12 and elapsed < 5.0,
            f"max abs err {worst:.2e} over 25 graphs in {elapsed:.2f}s")


# ---------------------------------------------------------------- criterion 2

def _stage1_toy():
    """Tiny two-view set-up; returns (view, emb, batch, toy loss).  The toy
    loss is an independent dense forward: the dense power-and-pool oracle in
    both views, a dense mean over bundle members, summed softplus ranking
    loss; it reads the embedding tables, so it follows their perturbation."""
    rng = Rng(200)
    n_u, n_b, n_i, d, K = 4, 3, 5, 2, 2
    x = InteractionSet.from_pairs(Kind.USER_BUNDLE, [0, 1, 2, 3], [0, 1, 2, 0])
    y = InteractionSet.from_pairs(Kind.USER_ITEM, [0, 1, 2, 3, 0], [0, 1, 2, 3, 4])
    z = InteractionSet.from_pairs(Kind.BUNDLE_ITEM, [0, 0, 1, 1, 2], [0, 1, 2, 3, 4])
    view = DualView(normalize_adjacency(x, n_u, n_b), normalize_adjacency(y, n_u, n_i),
                    membership_matrix(z, n_b, n_i))
    emb = PriorEmbeddings(rng.normal((n_u, d)), rng.normal((n_b, d)), rng.normal((n_i, d)), K)
    u = np.array([0, 1, 2, 0])
    bp = np.array([0, 1, 2, 0])
    bn = np.array([1, 2, 0, 2])
    members = np.zeros((n_b, n_i))
    members[z.rows, z.cols] = 1.0
    members /= members.sum(axis=1, keepdims=True)

    def toy_loss():
        ru_b, rb = _dense_pooled(x, n_u, n_b, emb.e_user, emb.e_bundle, K)
        ru_i, ri = _dense_pooled(y, n_u, n_i, emb.e_user, emb.e_item, K)
        rb_i = members @ ri
        diff = (np.sum(ru_b[u] * (rb[bp] - rb[bn]), axis=1)
                + np.sum(ru_i[u] * (rb_i[bp] - rb_i[bn]), axis=1))
        return float(np.sum(np.log1p(np.exp(-diff))))

    return view, emb, (u, bp, bn), toy_loss


def _denoiser_toy():
    """Tiny denoiser batch; returns (den, batch, schedule, toy loss), the
    toy loss noising by its own formula and calling the network directly."""
    rng = Rng(201)
    s = make_schedule("linear", 20)
    den = make_denoiser(2, 2, 4, rng)
    reps = rng.normal((3, 2))
    conds = rng.normal((3, 2))
    t = np.array([2, 9, 17])
    eps = rng.normal((3, 2))

    def toy_loss():
        ab = s.alpha_bar[t - 1][:, None]
        x_t = np.sqrt(ab) * reps + np.sqrt(1.0 - ab) * eps
        inp = np.concatenate([x_t, conds, time_embedding(t, s.T, 4)], axis=1)
        x0_hat, _ = den.net.forward(inp)
        return float(np.mean(np.sum((x0_hat - reps) ** 2, axis=1)))

    return den, (reps, conds, t, eps), s, toy_loss


def test_criterion_2_gradient_soundness():
    """The loss-and-gradient functions the three training stages call,
    checked by central differences of independent toy losses (stages 1 and
    2, which must also agree with the program's loss) or of the program's
    own loss (stage 3)."""
    t0 = time.time()
    errs, gaps = {}, {}

    view, emb, (u, bp, bn), toy_loss = _stage1_toy()
    params = [emb.e_user, emb.e_bundle, emb.e_item]
    assert sum(p.size for p in params) <= 200
    loss, grads = stage1_loss_and_grads(view, emb, u, bp, bn)
    gaps["stage1"] = abs(loss - toy_loss())
    errs["stage1"] = finite_diff_check(toy_loss, params, grads)["max_rel_err"]

    den, (reps, conds, t, eps), s, toy_loss = _denoiser_toy()
    assert sum(p.size for p in den.net.params()) <= 200
    loss, dgrads = denoise_loss_and_grads(den, reps, conds, t, eps, s)
    gaps["diffusion"] = abs(loss - toy_loss())
    errs["diffusion"] = finite_diff_check(toy_loss, den.net.params(), dgrads)["max_rel_err"]

    split, x = _tiny_expert_setup(d=4)
    gp = GateParams.create(x.d, Rng(202))
    assert sum(p.size for p in gp.params()) <= 200
    u = split.train_x.rows[:5]
    bp = split.train_x.cols[:5]
    bn = np.roll(bp, 2)
    pseudo = sample_pseudo_triples(split, 3, 0.9, Rng(202).derive("p"))
    _, ggrads = stage3_loss_and_grads(x, gp, (u, bp, bn), pseudo)
    errs["stage3"] = finite_diff_check(
        lambda: stage3_loss_and_grads(x, gp, (u, bp, bn), pseudo)[0],
        gp.params(), ggrads)["max_rel_err"]

    elapsed = time.time() - t0
    worst = max(errs.values())
    gap = max(gaps.values())
    _report(2, worst < 1e-4 and gap <= 1e-12 and elapsed < 30.0,
            f"max rel err {worst:.2e} ({errs}), program-vs-toy loss gap {gap:.1e} "
            f"in {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 3

def test_criterion_3_diffusion_sanity():
    t0 = time.time()
    rng = Rng(300)

    target = rng.normal(4)
    reps = np.tile(target, (32, 1))
    s = make_schedule("linear", 20)
    den = train_diffusion(reps, np.zeros((32, 2)), s,
                          RunConfig(diff_epochs=200, diff_lr=3e-3), Rng(0))
    out = reverse_denoise(rng.normal((1, 4)), np.zeros((1, 2)), den, s, 10)
    one_point_err = float(np.linalg.norm(out[0] - target) / np.linalg.norm(target))

    centers = np.array([[-2.0, 0.0], [2.0, 0.0]])
    sigma = 0.4
    labels = (rng.uniform(256) < 0.5).astype(int)
    blobs = centers[labels] + sigma * rng.normal((256, 2))
    s2 = make_schedule("linear", 50)
    den2 = train_diffusion(blobs, np.zeros((256, 1)), s2,
                           RunConfig(diff_epochs=600, diff_lr=3e-3), Rng(1))
    starts = rng.normal((200, 2))
    gen = reverse_denoise(starts, np.zeros((200, 1)), den2, s2, 50)
    dist = np.minimum(np.linalg.norm(gen - centers[0], axis=1),
                      np.linalg.norm(gen - centers[1], axis=1))
    frac = float(np.mean(dist <= 3.0 * sigma))

    elapsed = time.time() - t0
    _report(3, one_point_err < 0.05 and frac >= 0.9 and elapsed < 60.0,
            f"one-point rel err {one_point_err:.3f}, blob fraction {frac:.2f} "
            f"in {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_reparameterization_inverse():
    t0 = time.time()
    rng = Rng(400)
    s = make_schedule("linear", 500)
    worst = 0.0
    for _ in range(1000):
        x0 = rng.normal(8)
        eps = rng.normal(8)
        t = int(rng.integers(1, 1, 501)[0])
        x_t = forward_noise(x0, t, eps, s)
        back = implied_noise(x_t, x0, t, s)
        worst = max(worst, float(np.abs(back - eps).max()))
    elapsed = time.time() - t0
    _report(4, worst < 1e-12 and elapsed < 1.0,
            f"max abs err {worst:.2e} over 1000 draws in {elapsed:.2f}s")


# ---------------------------------------------------------------- criterion 5

ACCEPT = ["--seed", "7", "--synth-users", "400", "--synth-items", "800",
          "--synth-bundles", "200", "--synth-groups", "4", "--synth-affinity", "0.3"]


def _metrics(out, name):
    return json.loads((out / name).read_text())


@pytest.fixture(scope="session")
def cold_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept_cold")
    t0 = time.time()
    assert cli_main(["--out", str(out), *ACCEPT, "train", "all"]) == 0
    for flag in ([], ["--no-aug"], ["--no-moe"], ["--no-diff"]):
        assert cli_main(["--out", str(out), *ACCEPT, "eval", *flag]) == 0
    return out, time.time() - t0


@pytest.fixture(scope="session")
def mixed_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept_mixed")
    t0 = time.time()
    args = [*ACCEPT, "--scenario", "all_bundle"]
    assert cli_main(["--out", str(out), *args, "train", "all"]) == 0
    for flag in ([], ["--no-moe"]):
        assert cli_main(["--out", str(out), *args, "eval", *flag]) == 0
    return out, time.time() - t0


def _random_baseline(out):
    """Analytic mean of 20/|candidates| over evaluated test users."""
    import coldbundle.pipeline as pl
    cfg = pl.RunConfig.from_dict(json.loads((out / "manifest.json").read_text())["config"])
    split = pl.ensure_split(cfg, out)
    deg = split.train_x.row_degrees(split.catalog.n_users)
    users = np.unique(split.test_x.rows)
    return float(np.mean(20.0 / (split.catalog.n_bundles - deg[users])))


def test_criterion_5a_full_model_beats_3x_random(cold_run):
    out, _ = cold_run
    full = _metrics(out, "metrics.json")["cold_bundle_recall_at_k"]
    thresh = 3.0 * _random_baseline(out)
    _report("5a", full >= thresh, f"cold Recall@20 {full:.4f} vs 3x random {thresh:.4f}")


def test_criterion_5b_no_diffusion_near_random(cold_run):
    out, _ = cold_run
    nodiff = _metrics(out, "metrics_no_diff.json")["cold_bundle_recall_at_k"]
    thresh = 2.0 * _random_baseline(out)
    _report("5b", nodiff <= thresh,
            f"no-diff cold Recall@20 {nodiff:.4f} vs 2x random {thresh:.4f}")


def test_criterion_5c_augmentation_gap(cold_run):
    out, _ = cold_run
    full = _metrics(out, "metrics.json")["cold_bundle_recall_at_k"]
    noaug = _metrics(out, "metrics_no_aug.json")["cold_bundle_recall_at_k"]
    _report("5c", full >= 1.5 * noaug,
            f"full {full:.4f} vs 1.5x no-aug {1.5 * noaug:.4f} "
            f"(ratio {full / max(noaug, 1e-12):.2f})")


def test_criterion_5d_gating_beats_flat_sum(mixed_run):
    out, _ = mixed_run
    full = _metrics(out, "metrics.json")["recall_at_k"]
    nomoe = _metrics(out, "metrics_no_moe.json")["recall_at_k"]
    _report("5d", full >= nomoe,
            f"mixed-scenario Recall@20 full {full:.4f} vs no-moe {nomoe:.4f}")


def test_criterion_5_runtime(cold_run, mixed_run):
    total = cold_run[1] + mixed_run[1]
    _report("5-runtime", total < 600.0, f"end-to-end runs took {total:.0f}s")


# ---------------------------------------------------------------- criterion 6

def test_criterion_6_cold_routing_margin(cold_run):
    out, _ = cold_run
    assert cli_main(["--out", str(out), *ACCEPT, "gates"]) == 0
    import csv
    import coldbundle.pipeline as pl
    cfg = pl.RunConfig.from_dict(json.loads((out / "manifest.json").read_text())["config"])
    split = pl.ensure_split(cfg, out)
    w_diff = np.zeros(split.catalog.n_bundles)
    with open(out / "gates.csv") as fh:
        for row in csv.DictReader(fh):
            if row["entity_class"] == "bundle":
                w_diff[int(row["id"])] = float(row["w_diff"])
    cold = split.bundle_bint_cold
    margin = float(w_diff[cold].mean() - w_diff[~cold].mean())
    _report(6, margin >= 0.1, f"cold-minus-warm diffusion gate margin {margin:.3f}")


# ---------------------------------------------------------------- criterion 7

def test_criterion_7_split_invariants():
    t0 = time.time()
    rng = Rng(700)
    scenarios = list(Scenario)
    failures = 0
    trials = 0
    datasets = [synth_blockmodel(20, 24, 10, 2, 4, 0.5, ds) for ds in range(8)]
    while trials < 1000:
        cat, x, y, z = datasets[trials % len(datasets)]
        scenario = scenarios[trials % 3]
        seed = int(rng.integers(1, 0, 10**6)[0])
        trials += 1
        try:
            split = make_split(x, y, z, cat, scenario, seed=seed)
        except DegenerateSplitError:
            continue
        parts = (pair_set(split.train_x), pair_set(split.val_x), pair_set(split.test_x))
        if parts[0] | parts[1] | parts[2] != pair_set(x):
            failures += 1
        if sum(map(len, parts)) != len(x):
            failures += 1
        deg = split.train_x.col_degrees(cat.n_bundles)
        if not np.array_equal(split.bundle_bint_cold, deg == 0):
            failures += 1
        stats = cold_stats(split)
        if sum(stats.counts.values()) != cat.n_bundles:
            failures += 1
        if abs(sum(stats.ratios.values()) - 1.0) > 1e-12:
            failures += 1
    elapsed = time.time() - t0
    _report(7, failures == 0 and elapsed < 30.0,
            f"{failures} failures over {trials} trials in {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 8

def test_criterion_8_metric_oracle():
    rng = Rng(800)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 5, 31)[0])
        scores = rng.normal(n)
        k = int(rng.integers(1, 1, n + 1)[0])
        n_pos = int(rng.integers(1, 1, n + 1)[0])
        pos = set(rng.choice(n, n_pos).tolist())
        ranked = sorted(range(n), key=lambda i: (-scores[i], i))
        topk = ranked[:k]
        hits = sum(1 for b in topk if b in pos)
        worst = max(worst, abs(recall_at_k(ranked, pos, k) - hits / len(pos)))
        dcg = sum(1.0 / np.log2(r + 2) for r, b in enumerate(topk) if b in pos)
        idcg = sum(1.0 / np.log2(r + 2) for r in range(min(k, len(pos))))
        worst = max(worst, abs(ndcg_at_k(ranked, pos, k) - dcg / idcg))
    _report(8, worst <= 1e-12, f"max abs deviation {worst:.2e} over 200 instances")


# ---------------------------------------------------------------- criterion 9

MICRO = ["--seed", "3", "--synth-users", "40", "--synth-items", "48",
         "--synth-bundles", "16", "--synth-groups", "2", "--synth-bundle-size", "4",
         "--synth-affinity", "0.4", "--d", "8", "--T", "10", "--T-prime", "4",
         "--top-n", "2", "--d-c", "8", "--d-time", "8", "--stage1-epochs", "4",
         "--cond-epochs", "2", "--diff-epochs", "4", "--stage3-epochs", "3"]


def test_criterion_9_determinism(tmp_path):
    outs = []
    for tag in ("one", "two"):
        out = tmp_path / tag
        assert cli_main(["--out", str(out), *MICRO, "train", "all"]) == 0
        assert cli_main(["--out", str(out), *MICRO, "eval"]) == 0
        outs.append(out)
    identical = True
    compared = []
    for name in ("stage1.ckpt", "stage2.ckpt", "stage3.ckpt", "metrics.json"):
        a = (outs[0] / name).read_bytes()
        b = (outs[1] / name).read_bytes()
        compared.append(name)
        if a != b:
            identical = False
    _report(9, identical, f"byte-compared {compared} across two runs")
