"""The benchmark tracer (perfbench/spans.py) patches program functions by
name; renaming or deleting one breaks the benchmark, so it fails here."""

import importlib.util
from pathlib import Path

import numpy as np

from coldbundle import diffusion, graph, metrics, moe
from coldbundle.config import RunConfig
from coldbundle.rng import Rng
from test_diffusion import _view_inputs
from samplers_reference import pos_sets_of, sample_negatives_reference
from test_moe import _tiny

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _recorder():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.Recorder()


def test_tracer_patches_every_named_function():
    split, x = _tiny()
    original = moe.train_stage3
    rec = _recorder()
    rec.start("t")
    try:
        assert moe.train_stage3 is not original
        moe.train_stage3(split, x, RunConfig(eta=0.5, stage3_epochs=1, stage3_batch=16))
    finally:
        rec.stop()
    assert moe.train_stage3 is original
    layer = rec.per_layer()
    assert layer["moe.train_stage3_calls"]["value"] == 1
    assert layer["moe.pseudo_triples"]["value"] == round(0.5 * len(split.train_x))


def test_traced_stage3_times_its_kernels():
    """A traced train_stage3 at eta 0.5 records phase one's kernel by its
    patched name and times the pseudo-triple sampler, so a rewrite of
    stage 3 cannot leave either per-layer metric reading 0."""
    split, x = _tiny()
    rec = _recorder()
    rec.start("t")
    try:
        moe.train_stage3(split, x, RunConfig(eta=0.5, stage3_epochs=1, stage3_batch=16))
    finally:
        rec.stop()
    names = [span[0] for span in rec.spans]
    assert names.count("moe.view_phase_loss_and_grads") >= 1
    layer = rec.per_layer()
    assert layer["moe.view_phase_loss_and_grads_s"]["value"] > 0
    assert layer["moe.sample_pseudo_triples_s"]["value"] > 0


def test_evaluation_and_validation_rank_through_the_traced_kernel():
    """metrics.evaluate and graph._recall_at_k rank through
    metrics.rank_candidates, which the tracer times by that name."""
    split, _ = _tiny()
    scores = np.random.default_rng(0).normal(size=(split.catalog.n_users,
                                                   split.catalog.n_bundles))
    rec = _recorder()
    rec.start("t")
    try:
        for call in (lambda: metrics.evaluate(scores, split, k=5),
                     lambda: graph._recall_at_k(scores, split.train_x, split.val_x)):
            before = len(rec.spans)
            call()
            names = [span[0] for span in rec.spans[before:]]
            assert names.count("metrics.rank_candidates") == 1, names
    finally:
        rec.stop()


def test_anchor_search_counts_blocks_and_mlp_spans_record(monkeypatch):
    """generate_all calls diffusion.anchor once per row block, and training's
    MLP forward/backward and Adam step still record spans under their names.
    Generation runs the tapeless `Mlp.infer`, so it records no
    nn.mlp_forward span: that per-layer metric times training only, and
    inference is generate_all's self time."""
    _, _, comps = _view_inputs()
    n_bundles, n_items = comps["bint"].shape
    monkeypatch.setattr(diffusion, "ANCHOR_BLOCK", 8)
    rng = Rng(0)
    reps = rng.normal((n_bundles, 4))
    warm = np.arange(0, n_bundles, 2)
    cond = diffusion.ConditionProvider(item_cond=rng.normal((n_items, 3)),
                                       bundle_cond=rng.normal((n_bundles, 3)))
    s = diffusion.make_schedule("linear", 20)
    rec = _recorder()
    rec.start("t")
    try:
        den = diffusion.train_diffusion(reps[warm], cond.bundle_cond[warm], s,
                                        RunConfig(diff_epochs=1, d_time=4),
                                        rng.derive("den"))
        trained = len(rec.spans)
        diffusion.generate_all(comps["bint"], reps, warm, cond.bundle_cond, den, s, 4, 3)
    finally:
        rec.stop()
    layer = rec.per_layer()
    assert layer["diffusion.anchor_calls"]["value"] == -(-n_bundles // 8)
    training = {span[0] for span in rec.spans[:trained]}
    assert {"diffusion.train_diffusion", "nn.mlp_forward", "nn.mlp_backward",
            "nn.adam_step"} <= training
    generation = [span[0] for span in rec.spans[trained:]]
    assert "diffusion.generate_all" in generation
    assert "nn.mlp_forward" not in generation


def test_stage3_sampler_spans_and_counts():
    """With eta > 0 the pseudo-triple and negative-sampler spans record, the
    triple count is the requested one, and graph.negatives_draws is the
    scalar reference sampler's counter advance."""
    split, x = _tiny()
    config = RunConfig(eta=0.5, stage3_epochs=2, stage3_batch=16)
    n_pairs = len(split.train_x)
    # replay train_stage3's negative stream with the scalar reference
    rng = Rng(config.seed).derive("stage3")
    users, warm = split.train_x.rows, np.unique(split.train_x.cols)
    pos_sets = pos_sets_of(split.train_x, split.catalog.n_users)
    draws = 0
    for _ in range(2 * config.stage3_epochs):
        order = rng.permutation(n_pairs)
        before = rng._counter
        sample_negatives_reference(rng, users[order], warm, pos_sets)
        draws += rng._counter - before
    rec = _recorder()
    rec.start("t")
    try:
        moe.train_stage3(split, x, config)
    finally:
        rec.stop()
    names = [span[0] for span in rec.spans]
    assert names.count("moe.sample_pseudo_triples") == config.stage3_epochs
    assert names.count("graph.sample_negatives") == 2 * config.stage3_epochs
    counts = rec.counts["t"]
    assert counts["moe.pseudo_triples"] == config.stage3_epochs * round(config.eta * n_pairs)
    assert counts["graph.negatives_draws"] == draws
    assert counts["graph.negatives_accepted"] == 2 * config.stage3_epochs * n_pairs
