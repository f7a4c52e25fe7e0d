"""Command-line entry point.

One binary, subcommand style: ``ingest, stats, split, train, eval, hits,
gates, project, synth``.  Configuration comes from an optional JSON file
(``--config``); individual flags override file values and the effective
config is echoed into every checkpoint and report.  Exit codes: 0 success,
2 contract or stage-ordering violations, 1 I/O problems or out of memory.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from pathlib import Path

from . import pipeline as pl
from .checkpoint import read_json, write_json
from .config import field_bound, field_type
from .data import cold_stats, ingest_remap
from .errors import ColdBundleError, ContractError, ParseError

log = logging.getLogger(__name__)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """One override flag per config field; --help shows its bound and default."""
    for f in dataclasses.fields(pl.RunConfig):
        flag = "--" + f.name.replace("_", "-")
        bound = field_bound(f)
        within = "" if bound is None else f" in {bound}"
        parser.add_argument(flag, type=field_type(f), default=None,
                            help=f"config key {f.name}{within} (default: {f.default})")


def _build_config(args) -> pl.RunConfig:
    values = {}
    if args.config:
        values.update(read_json(args.config))
    for f in dataclasses.fields(pl.RunConfig):
        v = getattr(args, f.name, None)
        if v is not None:
            values[f.name] = v
    return pl.RunConfig.from_dict(values)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coldbundle",
        description="Cold-start bundle recommendation pipeline: dual-view graph "
                    "priors, per-view diffusion experts, cold-aware gated fusion.")
    parser.add_argument("--out", type=Path, default=Path("run"),
                        help="run directory for all artifacts (default: run)")
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON config file; flags override its values")
    parser.add_argument("-v", "--verbose", action="store_true")
    _add_config_flags(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("synth", help="generate the synthetic block-model dataset")
    p = sub.add_parser("ingest", help="densify raw TSVs with arbitrary ids")
    p.add_argument("--raw", type=Path, required=True, help="directory with raw TSVs")
    sub.add_parser("split", help="materialize the scenario split")
    sub.add_parser("stats", help="print the cold-situation analysis table")
    p = sub.add_parser("train", help="run pipeline stages")
    p.add_argument("stage", choices=["1", "2", "3", "all"])
    p = sub.add_parser("eval", help="evaluate on the test split")
    p.add_argument("--no-aug", action="store_true",
                   help="use gates trained without pseudo-bundle augmentation")
    p.add_argument("--no-moe", action="store_true",
                   help="sum expert outputs with equal weight (no gates)")
    p.add_argument("--no-diff", action="store_true",
                   help="score with the prior-embedding experts only")
    sub.add_parser("hits", help="emit per-situation hit breakdown CSV")
    sub.add_parser("gates", help="emit per-entity gate weight CSV")
    p = sub.add_parser("project", help="emit 2-D projection CSV of a representation table")
    p.add_argument("--table", choices=pl.PROJECTION_TABLES, default="bundle_diff")
    return parser


def _stats_text(stats) -> str:
    d = stats.to_json_dict()
    lines = [f"{'situation':<24}{'count':>8}{'ratio':>10}{'test share':>12}"]
    for key in sorted(d["counts"]):
        lines.append(f"{key:<24}{d['counts'][key]:>8}"
                     f"{d['ratios'][key]:>10.4f}{d['test_interaction_share'][key]:>12.4f}")
    lines.append(f"{'total':<24}{d['n_bundles']:>8}")
    return "\n".join(lines)


def run(args) -> int:
    cfg = _build_config(args)
    out: Path = args.out
    out.mkdir(parents=True, exist_ok=True)

    if args.command == "synth":
        pl.ensure_dataset(cfg, out)
        print(f"dataset written to {out / 'data'}")
        return 0

    if args.command == "ingest":
        catalog = ingest_remap(args.raw, out / "data")
        pl.write_catalog(out / "data", catalog)
        print(f"{catalog.n_users} users, {catalog.n_bundles} bundles, "
              f"{catalog.n_items} items -> {out / 'data'}")
        return 0

    split = pl.ensure_split(cfg, out)

    if args.command == "split":
        print(f"split written to {out / 'split'} "
              f"({len(split.train_x)}/{len(split.val_x)}/{len(split.test_x)} interactions)")
        return 0

    if args.command == "stats":
        stats = cold_stats(split)
        print(_stats_text(stats))
        write_json(out / "stats.json", stats.to_json_dict())
        pl.update_manifest(out, cfg, {"stats": "stats.json"})
        return 0

    if args.command == "train":
        stages = ["1", "2", "3"] if args.stage == "all" else [args.stage]
        for stage in stages:
            if stage == "1":
                pl.run_stage1(cfg, split, out)
            elif stage == "2":
                pl.run_stage2(cfg, split, out)
            else:
                pl.run_stage3(cfg, split, out)
            print(f"stage {stage} checkpoint written")
        return 0

    if args.command == "eval":
        report = pl.run_eval(cfg, split, out, no_aug=args.no_aug,
                             no_moe=args.no_moe, no_diff=args.no_diff)
        print(f"scenario={report.scenario} k={report.k} "
              f"users={report.n_users_evaluated} "
              f"recall={report.recall:.4f} ndcg={report.ndcg:.4f} "
              f"cold_recall={report.cold_bundle_recall:.4f}")
        return 0

    if args.command == "hits":
        report = pl.run_eval(cfg, split, out)
        pl.write_hits_csv(report, out / "hits.csv")
        pl.update_manifest(out, cfg, {"hits": "hits.csv"})
        print(f"hit breakdown written to {out / 'hits.csv'}")
        return 0

    if args.command == "gates":
        experts, gp, _ = pl.load_trained(cfg, split, out)
        pl.write_gates_csv(experts, gp, out / "gates.csv")
        pl.update_manifest(out, cfg, {"gates": "gates.csv"})
        print(f"gate weights written to {out / 'gates.csv'}")
        return 0

    if args.command == "project":
        experts, _, _ = pl.load_trained(cfg, split, out)
        pl.write_projection_csv(cfg, split, experts, args.table, out / "projection.csv")
        pl.update_manifest(out, cfg, {"projection": "projection.csv"})
        print(f"projection written to {out / 'projection.csv'}")
        return 0

    raise ContractError(f"unhandled command {args.command!r}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return run(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ColdBundleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
