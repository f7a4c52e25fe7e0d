"""Run-directory orchestration for the three-stage pipeline.

Every artifact lives under one ``--out`` directory:

    data/        dense TSVs + catalog.json
    split/       train/val/test TSVs + labels.json
    stage1.ckpt  embedding tables
    stage2.ckpt  diffusion representation tables, conditions, denoisers
    stage3.ckpt  gate matrices plus frozen expert tables
    metrics*.json, hits.csv, gates.csv, projection.csv
    manifest.json

Stages are gated by checkpoint tags: stage n refuses to run without the
stage n-1 checkpoint.  All steps are bit-reproducible for a fixed config.
"""

from __future__ import annotations

import logging
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from . import diffusion as dif
from . import graph as gr
from . import moe
from .checkpoint import atomic_open, load_checkpoint, read_json, save_checkpoint, write_json
from .config import RunConfig
from .data import (Catalog, Kind, Scenario, ScenarioSplit, load_interactions, load_split,
                   make_split, save_interactions, save_split, synth_blockmodel)
from .errors import ContractError
from .metrics import MetricReport, evaluate, project_2d
from .rng import Rng

log = logging.getLogger(__name__)

# data/catalog.json: the entity counts of a dense data set.
CATALOG_KEYS = ("n_users", "n_bundles", "n_items")

# Checkpoint tensor names: the stage-1 tables and the stage-3 gate sets,
# trained with and then without augmentation, in GateParams order.
STAGE1_TENSORS = ("e_user", "e_bundle", "e_item")
GATE_TENSORS = ("w_bint", "w_iint", "w_out", "w_bint_noaug", "w_iint_noaug", "w_out_noaug")

# RunConfig keys each stage's training reads, beyond those of the stages
# before it.  A stage trains on the outputs of the earlier ones, so a
# checkpoint is compared on its own stage's keys and every earlier stage's,
# and one trained under other values is refused.
STAGE_KEYS = {
    "stage1": ("d", "K", "stage1_lr", "stage1_weight_decay", "stage1_epochs",
               "stage1_patience", "stage1_batch"),
    "stage2": ("T", "schedule", "d_c", "d_time", "top_n", "T_prime", "cond_epochs", "cond_lr",
               "diff_epochs", "diff_lr", "diff_batch", "diff_hidden"),
    "stage3": ("eta", "beta_alpha", "stage3_lr", "stage3_epochs", "stage3_batch"),
}


def update_manifest(out: Path, cfg: RunConfig, artifacts: dict) -> None:
    path = out / "manifest.json"
    current = read_json(path) if path.exists() else {}
    if not isinstance(current.setdefault("artifacts", {}), dict):
        raise ContractError(f"{path}: artifacts is not a JSON object")
    current["config"] = cfg.to_dict()
    current["artifacts"].update(artifacts)
    write_json(path, current)


def write_catalog(data_dir: Path, catalog: Catalog) -> None:
    write_json(data_dir / "catalog.json",
               {key: getattr(catalog, key) for key in CATALOG_KEYS})


def ensure_dataset(cfg: RunConfig, out: Path):
    """Materialize data/ (synthesize or copy-load) and return (catalog, x, y, z)."""
    data_dir = out / "data"
    if (data_dir / "catalog.json").exists():
        src = data_dir
    elif cfg.data_dir is not None:
        src = Path(cfg.data_dir)
    else:
        catalog, x, y, z = synth_blockmodel(
            cfg.synth_users, cfg.synth_items, cfg.synth_bundles, cfg.synth_groups,
            cfg.synth_bundle_size, cfg.synth_affinity, cfg.seed)
        data_dir.mkdir(parents=True, exist_ok=True)
        save_interactions(data_dir / "user_bundle.tsv", x)
        save_interactions(data_dir / "user_item.tsv", y)
        save_interactions(data_dir / "bundle_item.tsv", z)
        write_catalog(data_dir, catalog)
        update_manifest(out, cfg, {"data": "data"})
        return catalog, x, y, z
    if (src / "catalog.json").exists():
        catalog_json = read_json(src / "catalog.json", CATALOG_KEYS)
        counts = [catalog_json[key] for key in CATALOG_KEYS]
        if not all(type(n) is int for n in counts):
            raise ContractError(f"{src / 'catalog.json'}: counts must be integers, got {counts}")
        catalog = Catalog(*counts)
    else:
        catalog = None
    x = load_interactions(src / "user_bundle.tsv", Kind.USER_BUNDLE)
    y = load_interactions(src / "user_item.tsv", Kind.USER_ITEM)
    z = load_interactions(src / "bundle_item.tsv", Kind.BUNDLE_ITEM)
    if catalog is None:
        # No catalog sidecar: infer counts from the largest id seen anywhere.
        n_users = int(max(x.rows.max(initial=-1), y.rows.max(initial=-1))) + 1
        n_bundles = int(max(x.cols.max(initial=-1), z.rows.max(initial=-1))) + 1
        n_items = int(max(y.cols.max(initial=-1), z.cols.max(initial=-1))) + 1
        catalog = Catalog(n_users, n_bundles, n_items)
    for rel in (x, y, z):
        rel.check_bounds(catalog)
    return catalog, x, y, z


def ensure_split(cfg: RunConfig, out: Path) -> ScenarioSplit:
    catalog, x, y, z = ensure_dataset(cfg, out)
    split_dir = out / "split"
    if (split_dir / "labels.json").exists():
        split = load_split(split_dir, y, z, catalog)
        if split.scenario.value != cfg.scenario:
            raise ContractError(
                f"existing split is {split.scenario.value!r}, config wants {cfg.scenario!r}")
        return split
    split = make_split(x, y, z, catalog, Scenario(cfg.scenario), seed=cfg.seed)
    save_split(split, split_dir)
    update_manifest(out, cfg, {"split": "split"})
    return split


def run_stage1(cfg: RunConfig, split: ScenarioSplit, out: Path):
    emb, history = gr.train_stage1(split, cfg)
    save_checkpoint(out / "stage1.ckpt", "stage1", cfg.to_dict(), {
        "e_user": emb.e_user, "e_bundle": emb.e_bundle, "e_item": emb.e_item})
    update_manifest(out, cfg, {"stage1": "stage1.ckpt"})
    log.info("stage1 done: best val recall %.4f at epoch %d",
             history["best_val_recall"], history["best_epoch"])
    return emb


def _denoiser_tensors(prefix: str, den: dif.Denoiser) -> dict:
    out = {}
    for i, layer in enumerate(den.net.layers):
        out[f"{prefix}_w{i}"] = layer.weight
        out[f"{prefix}_b{i}"] = layer.bias
    return out


def _load_stage(cfg: RunConfig, out: Path, stage: str, require) -> dict:
    """The tensors of `<stage>.ckpt`; a ContractError naming every stale key
    if its header config disagrees with `cfg` on the STAGE_KEYS of this
    stage or of an earlier one."""
    ckpt = load_checkpoint(out / f"{stage}.ckpt", expect_stage=stage, require=require)
    trained = ckpt.config if isinstance(ckpt.config, dict) else {}
    stages = list(STAGE_KEYS)
    keys = [key for s in stages[:stages.index(stage) + 1] for key in STAGE_KEYS[s]]
    stale = [key for key in keys if trained.get(key) != getattr(cfg, key)]
    if stale:
        raise ContractError(
            f"{stage}.ckpt was trained with "
            + ", ".join(f"{key}={trained.get(key)!r}" for key in stale)
            + "; the config asks for " + ", ".join(f"{key}={getattr(cfg, key)!r}" for key in stale))
    return ckpt.tensors


def _load_priors(cfg: RunConfig, out: Path) -> gr.PriorEmbeddings:
    t = _load_stage(cfg, out, "stage1", STAGE1_TENSORS)
    return gr.PriorEmbeddings(*(t[name] for name in STAGE1_TENSORS), K=cfg.K)


def run_stage2(cfg: RunConfig, split: ScenarioSplit, out: Path):
    emb = _load_priors(cfg, out)
    cat = split.catalog
    _, rb, _, ri, _ = emb.view_reps(gr.DualView.of(split))

    rng = Rng(cfg.seed).derive("stage2")
    cond = dif.pretrain_conditions(split.z, cat.n_bundles, cat.n_items, cfg,
                                   rng.derive("cond"))
    s = dif.make_schedule(cfg.schedule, cfg.T)

    # Binary bundle-item compositions; the item view reads the transpose.
    zc = sp.csr_matrix((np.ones(len(split.z)), (split.z.rows, split.z.cols)),
                       shape=(cat.n_bundles, cat.n_items))
    # view: (embedded reps, cold labels, conditions, compositions)
    views = {"bint": (rb, split.bundle_bint_cold, cond.bundle_cond, zc),
             "iint": (ri, split.item_cold, cond.item_cond, zc.T.tocsr())}
    if any(cold.all() for _, cold, _, _ in views.values()):
        raise ContractError("no warm entities to train the diffusion experts on")
    gen, dens = {}, {}
    for view, (reps, cold, conds, comp) in views.items():
        warm = np.flatnonzero(~cold)
        den = dif.train_diffusion(reps[warm], conds[warm], s, cfg, rng.derive(view))
        gen[view] = dif.generate_all(comp, reps, warm, conds, den, s, cfg.T_prime, cfg.top_n)
        dens.update(_denoiser_tensors(f"den_{view}", den))
    tensors = {"r_d_bint": gen["bint"], "r_d_items": gen["iint"],
               "item_cond": cond.item_cond, "bundle_cond": cond.bundle_cond, **dens}
    save_checkpoint(out / "stage2.ckpt", "stage2", cfg.to_dict(), tensors)
    update_manifest(out, cfg, {"stage2": "stage2.ckpt"})
    return gen["bint"], gen["iint"]


def build_experts(cfg: RunConfig, split: ScenarioSplit, out: Path) -> moe.ExpertOutputs:
    emb = _load_priors(cfg, out)
    t2 = _load_stage(cfg, out, "stage2", ("r_d_bint", "r_d_items"))
    view = gr.DualView.of(split)
    ru_b, rb, ru_i, ri, _ = emb.view_reps(view)
    bf, itf = moe.cold_features(split)
    return moe.ExpertOutputs(
        ru_bint=ru_b, ru_iint=ru_i,
        r_e_bint=rb, r_d_bint=t2["r_d_bint"],
        r_e_items=ri, r_d_items=t2["r_d_items"],
        agg=view.agg, bundle_feature=bf, item_feature=itf)


def run_stage3(cfg: RunConfig, split: ScenarioSplit, out: Path):
    experts = build_experts(cfg, split, out)
    # gp0: companion gate set trained without augmentation, for the ablation.
    gp, gp0, _ = moe.train_stage3(split, experts, cfg)
    tensors = dict(zip(GATE_TENSORS, gp.params() + gp0.params()))
    tensors.update(experts.tensors())
    save_checkpoint(out / "stage3.ckpt", "stage3", cfg.to_dict(), tensors)
    update_manifest(out, cfg, {"stage3": "stage3.ckpt"})
    return gp


def load_trained(cfg: RunConfig, split: ScenarioSplit, out: Path):
    """Rebuild (experts, gates, no-aug gates) from the stage-3 checkpoint."""
    t = _load_stage(cfg, out, "stage3", GATE_TENSORS + moe.EXPERT_TENSORS)
    cat = split.catalog
    agg = gr.membership_matrix(split.z, cat.n_bundles, cat.n_items)
    experts = moe.ExpertOutputs(agg=agg, **{name: t[name] for name in moe.EXPERT_TENSORS})
    gp = moe.GateParams(t["w_bint"], t["w_iint"], t["w_out"])
    gp0 = moe.GateParams(t["w_bint_noaug"], t["w_iint_noaug"], t["w_out_noaug"])
    return experts, gp, gp0


def ablation_scores(experts: moe.ExpertOutputs, gp: moe.GateParams,
                    gp0: moe.GateParams, no_aug=False, no_moe=False,
                    no_diff=False) -> np.ndarray:
    if no_moe and no_aug:
        raise ContractError("--no-moe ignores gates; combining it with --no-aug is ambiguous")
    if no_diff:
        return moe.score_all_no_diff(experts)
    if no_moe:
        return moe.score_all_no_moe(experts)
    return moe.score_all(experts, gp0 if no_aug else gp)


def run_eval(cfg: RunConfig, split: ScenarioSplit, out: Path,
             no_aug=False, no_moe=False, no_diff=False) -> MetricReport:
    experts, gp, gp0 = load_trained(cfg, split, out)
    scores = ablation_scores(experts, gp, gp0, no_aug, no_moe, no_diff)
    report = evaluate(scores, split, k=cfg.k_eval)
    suffix = "".join(f"_{n}" for n, f in
                     (("no_aug", no_aug), ("no_moe", no_moe), ("no_diff", no_diff)) if f)
    fname = f"metrics{suffix}.json"
    payload = report.to_json_dict()
    payload["config"] = cfg.to_dict()
    payload["ablation"] = {"no_aug": no_aug, "no_moe": no_moe, "no_diff": no_diff}
    write_json(out / fname, payload)
    update_manifest(out, cfg, {fname: fname})
    return report


def write_hits_csv(report: MetricReport, path: Path) -> None:
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("situation,hits\n")
        total = 0
        for key in sorted(report.situation_hits):
            fh.write(f"{key},{report.situation_hits[key]}\n")
            total += report.situation_hits[key]
        fh.write(f"total,{total}\n")


def write_gates_csv(experts: moe.ExpertOutputs, gp: moe.GateParams, path: Path) -> None:
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("entity_class,id,view,w_embed,w_diff\n")
        for cls, eid, view, we, wd in moe.gate_dump_rows(experts, gp):
            fh.write(f"{cls},{eid},{view},{we:.10f},{wd:.10f}\n")


PROJECTION_TABLES = ("bundle_embed", "bundle_diff", "item_embed", "item_diff")


def write_projection_csv(cfg: RunConfig, split: ScenarioSplit,
                         experts: moe.ExpertOutputs, table: str, path: Path) -> None:
    if table not in PROJECTION_TABLES:
        raise ContractError(f"unknown projection table {table!r}")
    if table.startswith("bundle"):
        reps = experts.r_e_bint if table.endswith("embed") else experts.r_d_bint
        labels = np.where(split.bundle_bint_cold, "cold", "warm").tolist()
    else:
        reps = experts.r_e_items if table.endswith("embed") else experts.r_d_items
        labels = np.where(split.item_cold, "cold", "warm").tolist()
    rows = project_2d(reps, labels, seed=cfg.seed)
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("id,x,y,label\n")
        for i, x, y, label in rows:
            fh.write(f"{i},{x:.10f},{y:.10f},{label}\n")
