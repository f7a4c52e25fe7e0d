"""RunConfig: the type and bound checks admit every value they should."""

import dataclasses

from coldbundle.config import RunConfig


def test_annotated_types_accepted():
    cfg = RunConfig(eta=1, synth_affinity=1, diff_hidden=None, data_dir=None)
    assert cfg.effective_eta == 1
    assert RunConfig.from_dict(cfg.to_dict()) == cfg


def test_bounds_admit_their_edges():
    cfg = RunConfig(stage1_batch=1, diff_batch=1, stage3_batch=1, eta=0.0, beta_alpha=1.0,
                    stage1_lr=0.0, cond_lr=0, diff_lr=0.0, stage3_lr=0.0, stage1_weight_decay=0.0)
    assert dataclasses.replace(cfg, eta=None).effective_eta == 0.5
    assert RunConfig(eta=10).effective_eta == 10
    edge = RunConfig(T=2, T_prime=2, d_time=2)
    assert (edge.T, edge.T_prime, edge.d_time) == (2, 2, 2)
    RunConfig(stage1_epochs=1, stage1_patience=1, cond_epochs=1, diff_epochs=1,
              stage3_epochs=1, synth_bundle_size=1, synth_groups=2, synth_affinity=1)
    assert RunConfig(synth_affinity=5e-324).synth_affinity > 0
