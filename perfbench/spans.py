"""Span recorder and per-layer instrumentation for the coldbundle benchmark.

Spans are recorded from outside the program: while tracing is on, the
public (and a few module-private) functions of each ``coldbundle`` module
are replaced by thin wrappers that record one span per call (name, start,
end, parent span id, benchmark phase).  ``Rng.raw`` is counted, never
spanned: it is called millions of times per run, and a span per call would
distort the stage it sits in.  Spans stay in memory and are written to a
JSON file when the run ends.

A span's self time is its duration minus the durations of its direct
children; the program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name).  "Class.method" attributes are patched on
# the class; plain functions are patched in every coldbundle module that
# holds a reference to them (``pipeline`` imports several by name).
TIMED = [
    ("data", "synth_blockmodel", "data.synth_blockmodel"),
    ("data", "make_split", "data.make_split"),
    ("graph", "propagate", "graph.propagate"),
    ("graph", "propagate_backward", "graph.propagate_backward"),
    ("graph", "_recall_at_k", "graph.recall_at_k"),
    ("graph", "train_stage1", "graph.train_stage1"),
    ("nn", "Mlp.forward", "nn.mlp_forward"),
    ("nn", "Mlp.backward", "nn.mlp_backward"),
    ("nn", "Adam.step", "nn.adam_step"),
    ("diffusion", "pretrain_conditions", "diffusion.pretrain_conditions"),
    ("diffusion", "train_diffusion", "diffusion.train_diffusion"),
    ("diffusion", "generate_all", "diffusion.generate_all"),
    ("moe", "train_stage3", "moe.train_stage3"),
    ("moe", "_view_phase_loss_and_grads", "moe.view_phase_loss_and_grads"),
    ("moe", "stage3_loss_and_grads", "moe.stage3_loss_and_grads"),
    ("moe", "_epoch_negatives", "moe.epoch_negatives"),
    ("moe", "score_all", "moe.score_all"),
    ("metrics", "evaluate", "metrics.evaluate"),
    ("metrics", "rank_candidates", "metrics.rank_candidates"),
    ("metrics", "project_2d", "metrics.project_2d"),
    ("checkpoint", "load_checkpoint", "checkpoint.load"),
    ("pipeline", "ensure_split", "pipeline.ensure_split"),
    ("pipeline", "load_trained", "pipeline.load_trained"),
    ("pipeline", "run_eval", "pipeline.eval"),
    ("pipeline", "run_stage1", "pipeline.stage1"),
    ("pipeline", "run_stage2", "pipeline.stage2"),
    ("pipeline", "run_stage3", "pipeline.stage3"),
]

# Per-layer metrics: name -> (unit, how it is computed from the spans).
PER_LAYER = {
    "data.synth_blockmodel_s": ("s", "time", "data.synth_blockmodel"),
    "data.make_split_s": ("s", "time", "data.make_split"),
    "rng.raw_calls": ("count", "count", "rng.raw_calls"),
    "rng.draws": ("count", "count", "rng.draws"),
    "graph.propagate_s": ("s", "time", "graph.propagate"),
    "graph.propagate_calls": ("count", "calls", "graph.propagate"),
    "graph.propagate_backward_s": ("s", "time", "graph.propagate_backward"),
    "graph.propagate_backward_calls": ("count", "calls", "graph.propagate_backward"),
    "graph.sample_negatives_s": ("s", "time", "graph.sample_negatives"),
    "graph.negatives_draws_per_accept": ("draws/accept", "ratio",
                                         ("graph.negatives_draws", "graph.negatives_accepted")),
    "graph.recall_at_k_s": ("s", "time", "graph.recall_at_k"),
    "graph.recall_at_k_calls": ("count", "calls", "graph.recall_at_k"),
    "graph.train_stage1.self_s": ("s", "self", "graph.train_stage1"),
    "nn.mlp_forward_s": ("s", "time", "nn.mlp_forward"),
    "nn.mlp_backward_s": ("s", "time", "nn.mlp_backward"),
    "nn.adam_step_s": ("s", "time", "nn.adam_step"),
    "nn.adam_step_calls": ("count", "calls", "nn.adam_step"),
    "diffusion.pretrain_conditions_s": ("s", "time", "diffusion.pretrain_conditions"),
    "diffusion.train_diffusion_s": ("s", "time", "diffusion.train_diffusion"),
    "diffusion.generate_all_s": ("s", "time", "diffusion.generate_all"),
    "diffusion.anchor_calls": ("count", "count", "diffusion.anchor_calls"),
    "moe.train_stage3_calls": ("count", "calls", "moe.train_stage3"),
    "moe.sample_pseudo_triples_s": ("s", "time", "moe.sample_pseudo_triples"),
    "moe.pseudo_triples": ("count", "count", "moe.pseudo_triples"),
    "moe.view_phase_loss_and_grads_s": ("s", "time", "moe.view_phase_loss_and_grads"),
    "moe.stage3_loss_and_grads_s": ("s", "time", "moe.stage3_loss_and_grads"),
    "moe.epoch_negatives_s": ("s", "time", "moe.epoch_negatives"),
    "moe.score_all_s": ("s", "time", "moe.score_all"),
    "moe.score_all_calls": ("count", "calls", "moe.score_all"),
    "metrics.evaluate_s": ("s", "time", "metrics.evaluate"),
    "metrics.rank_candidates_s": ("s", "time", "metrics.rank_candidates"),
    "metrics.project_2d_s": ("s", "time", "metrics.project_2d"),
    "checkpoint.save_s": ("s", "time", "checkpoint.save"),
    "checkpoint.load_s": ("s", "time", "checkpoint.load"),
    "checkpoint.bytes_written": ("count", "count", "checkpoint.bytes_written"),
    "pipeline.stage1.self_s": ("s", "self", "pipeline.stage1"),
    "pipeline.stage2.self_s": ("s", "self", "pipeline.stage2"),
    "pipeline.stage3.self_s": ("s", "self", "pipeline.stage3"),
    "cli.self_s": ("s", "self", "cli.main"),
}


class Recorder:
    """Spans and counters of one benchmark run, grouped by phase.

    Each ``start`` begins one unit of work of a phase ("setup", "train",
    "pass"); per-layer figures are per unit, summed over phases.
    """

    def __init__(self):
        self.spans: list = []       # (name, start, end, parent id, phase)
        self.counts: dict = defaultdict(Counter)  # phase -> counter
        self.units: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list = []
        self.phase: str | None = None

    # -------------------------------------------------------------- recording

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` under a span (a plain call when tracing is off)."""
        if self.phase is None:
            return fn(*args, **kwargs)
        return self._timed(name, fn)(*args, **kwargs)

    def _timed(self, name: str, fn):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(rec.spans)
            parent = rec._stack[-1] if rec._stack else -1
            rec.spans.append(None)
            rec._stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec._stack.pop()
                rec.spans[sid] = (name, t0, perf_counter(), parent, rec.phase)
        return wrapper

    # ------------------------------------------------------------ patching

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_function(self, modules, mod, attr, wrapper_factory) -> None:
        orig = getattr(modules[mod], attr)
        wrapped = wrapper_factory(orig)
        for m in modules.values():
            for key, value in list(vars(m).items()):
                if value is orig:
                    self._set(m, key, wrapped)

    def start(self, phase: str) -> None:
        """Install the wrappers and attribute what follows, one more unit
        of work, to ``phase``."""
        from coldbundle import (checkpoint, cli, data, diffusion, graph, metrics,
                                moe, nn, pipeline, rng)
        modules = {"data": data, "rng": rng, "graph": graph, "nn": nn,
                   "diffusion": diffusion, "moe": moe, "metrics": metrics,
                   "checkpoint": checkpoint, "pipeline": pipeline, "cli": cli}
        self.phase = phase
        self.units[phase] += 1
        counts = self.counts[phase]
        for mod, attr, name in TIMED:
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(modules[mod], cls_name)
                self._set(cls, meth, self._timed(name, getattr(cls, meth)))
            else:
                self._patch_function(modules, mod, attr,
                                     functools.partial(self._timed, name))

        orig_raw = rng.Rng.raw

        def raw(self_rng, n):
            counts["rng.raw_calls"] += 1
            counts["rng.draws"] += int(n)
            return orig_raw(self_rng, n)
        self._set(rng.Rng, "raw", raw)

        def counted(name, fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        self._patch_function(modules, "diffusion", "anchor",
                             functools.partial(counted, "diffusion.anchor_calls"))

        def negatives(fn):
            timed = self._timed("graph.sample_negatives", fn)

            def wrapper(rng_obj, users, *args, **kwargs):
                before = rng_obj._counter
                out = timed(rng_obj, users, *args, **kwargs)
                counts["graph.negatives_draws"] += rng_obj._counter - before
                counts["graph.negatives_accepted"] += len(users)
                return out
            return wrapper
        self._patch_function(modules, "graph", "_sample_negatives", negatives)

        def pseudo(fn):
            timed = self._timed("moe.sample_pseudo_triples", fn)

            def wrapper(*args, **kwargs):
                out = timed(*args, **kwargs)
                counts["moe.pseudo_triples"] += len(out)
                return out
            return wrapper
        self._patch_function(modules, "moe", "sample_pseudo_triples", pseudo)

        def save(fn):
            timed = self._timed("checkpoint.save", fn)

            def wrapper(path, *args, **kwargs):
                timed(path, *args, **kwargs)
                counts["checkpoint.bytes_written"] += os.path.getsize(path)
            return wrapper
        self._patch_function(modules, "checkpoint", "save_checkpoint", save)

    def stop(self) -> None:
        """Remove every wrapper; later calls run the program untouched."""
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)
        self.phase = None

    # ------------------------------------------------------------ analysis

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def per_layer(self) -> dict:
        """Every PER_LAYER metric, per traced unit of work."""
        selfs = self.self_times()
        time_, self_, calls = Counter(), Counter(), Counter()
        for (name, t0, t1, _, phase), st in zip(self.spans, selfs):
            w = 1.0 / self.units[phase]
            time_[name] += (t1 - t0) * w
            self_[name] += st * w
            calls[name] += w
        counts = Counter()
        for phase, c in self.counts.items():
            for key, value in c.items():
                counts[key] += value / self.units[phase]
        out = {}
        for metric, (unit, kind, key) in PER_LAYER.items():
            if kind == "time":
                value = time_[key]
            elif kind == "self":
                value = self_[key]
            elif kind == "calls":
                value = calls[key]
            elif kind == "count":
                value = counts[key]
            else:
                num, den = counts[key[0]], counts[key[1]]
                value = num / den if den else 0.0
            out[metric] = {"value": value, "unit": unit}
        return out

    def breakdown(self, root_name: str, top: int = 6) -> list[str]:
        """Where the time of every ``root_name`` span went (all phases).

        Sums descendants' self times by name; together with the roots' own
        self time they account for the roots' total duration.
        """
        selfs = self.self_times()
        children = defaultdict(list)
        for sid, span in enumerate(self.spans):
            children[span[3]].append(sid)
        roots = [sid for sid, s in enumerate(self.spans) if s[0] == root_name]
        if not roots:
            return []
        total = sum(self.spans[r][2] - self.spans[r][1] for r in roots)
        by_name = Counter()
        direct = Counter()
        for r in roots:
            by_name[f"{root_name} (self)"] += selfs[r]
            stack = list(children[r])
            for c in children[r]:
                direct[self.spans[c][0]] += self.spans[c][2] - self.spans[c][1]
            while stack:
                sid = stack.pop()
                by_name[self.spans[sid][0]] += selfs[sid]
                stack.extend(children[sid])
        accounted = sum(by_name.values())
        lines = [f"trace {root_name}: {len(roots)} span(s), {total:.3f} s; "
                 f"self times account for {accounted:.3f} s"]
        for name, t in direct.most_common(top):
            lines.append(f"  direct child {name:<36} {t:9.3f} s {100 * t / total:5.1f}%")
        for name, t in by_name.most_common(top):
            lines.append(f"  self time    {name:<36} {t:9.3f} s {100 * t / total:5.1f}%")
        return lines

    def write(self, path, env: dict) -> None:
        payload = {
            "env": env,
            "units": dict(self.units),
            "counts": {p: dict(c) for p, c in self.counts.items()},
            "spans": [{"id": i, "name": n, "start": t0, "end": t1,
                       "parent": p, "phase": ph}
                      for i, (n, t0, t1, p, ph) in enumerate(self.spans)],
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        print(f"trace written to {os.path.relpath(path)}", file=sys.stderr)
