"""coldbundle benchmark.

    python3 perfbench/run.py --workload cold_start --seed 7 --seconds 45 --trace 0

Runs one workload in a single process, as a closed loop with one caller,
and checks the program's outputs while it measures.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  Lines before it give the same figures for a
reader, with the sample counts, the checkpoint hashes and the environment.

Workloads (see perfbench/README.md for why each was chosen):

  cold_start  acceptance data set, bundle-cold split, shortened epoch
              budgets; loop of ``train 1/2/3``, the four evals and read passes
  eval_sweep  the read path on a 1,000-user catalog; set-up trains one
              epoch per stage, the loop runs read passes
  warm_start  cold_start with the uniform interaction split (eta = 0); not
              in BENCHMARK.json, for runs by hand

The program is imported from ``src/`` next to this directory and receives
only the generated config and data, through its command-line entry point
and public functions.  Every run directory lives under perfbench/work/ and
is removed at exit; traced runs write their spans to perfbench/out/.
"""

from __future__ import annotations

import os

# Pin the BLAS pool before numpy loads, so every commit runs on one thread.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np
import scipy

if not (ROOT / "src" / "coldbundle" / "__init__.py").is_file():
    sys.exit(f"perfbench: no coldbundle sources under {ROOT / 'src'}")
from coldbundle import cli, metrics, pipeline as pl

from spans import Recorder

ACCEPTANCE_DATA = {"synth_users": 400, "synth_items": 800, "synth_bundles": 200,
                   "synth_groups": 4, "synth_affinity": 0.3}
# Fixed epoch counts (patience = epochs disables early stopping), so stage
# times do not jump with the epoch at which a seed happens to stop.
SHORT_EPOCHS = {"stage1_epochs": 8, "stage1_patience": 8, "cond_epochs": 4,
                "diff_epochs": 25, "stage3_epochs": 6}
ONE_EPOCH = {"stage1_epochs": 1, "cond_epochs": 1, "diff_epochs": 1, "stage3_epochs": 1}

WORKLOADS = {
    "cold_start": {**ACCEPTANCE_DATA, **SHORT_EPOCHS, "scenario": "cold_start"},
    "warm_start": {**ACCEPTANCE_DATA, **SHORT_EPOCHS, "scenario": "warm_start"},
    "eval_sweep": {"synth_users": 1000, "synth_items": 2000, "synth_bundles": 1000,
                   "synth_groups": 4, "synth_affinity": 0.03, **ONE_EPOCH,
                   "scenario": "warm_start"},
}
READ_WORKLOADS = {"eval_sweep"}
# Test Recall@20 of the acceptance configuration (seed 7, default epochs).
ACCEPTED_RECALL = {"cold_start": 0.3571, "warm_start": 0.4160}

SETUP_REPS = 5          # synth + split repetitions; setup_s is their median
MIN_ITERATIONS = 2      # training iterations; the second checks determinism
SETUP_TRAININGS = 3     # eval_sweep set-up trainings; stage times are medians
READ_PASSES = 36        # cold_start read passes per run, a fixed count so
PASSES_PER_ITERATION = 12  # that the tail percentile does not vary by run
MIN_PASSES = 11         # eval_sweep; a tail needs ten passes beyond it
TAIL_BEYOND = 10

# Test quality varies widely between seeds at the shortened epoch budgets,
# so it is reported with the per-layer (unbounded) metrics.
QUALITY = {"recall_at_20": "metrics.recall_at_20", "ndcg_at_20": "metrics.ndcg_at_20"}

# (metrics file suffix, ablation_scores flags, eval command flags)
VARIANTS = [
    ("", {}, []),
    ("_no_aug", {"no_aug": True}, ["--no-aug"]),
    ("_no_moe", {"no_moe": True}, ["--no-moe"]),
    ("_no_diff", {"no_diff": True}, ["--no-diff"]),
]


class Run:
    """Operation bookkeeping: every CLI command and read pass is one
    operation; an operation that raises or fails a check counts as failed."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self.attempted = 0
        self.failed_ops: set[int] = set()

    def op(self, label: str, fn, *args):
        """Run one operation; returns (operation id, seconds, result)."""
        self.attempted += 1
        oid = self.attempted
        t0 = perf_counter()
        try:
            out = fn(*args)
        except Exception:
            self.failed_ops.add(oid)
            print(f"operation {label!r} failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            raise OperationFailed(label) from None
        return oid, perf_counter() - t0, out

    def check(self, oid: int, ok: bool, what: str) -> None:
        if not ok:
            self.failed_ops.add(oid)
            print(f"check failed: {what}", file=sys.stderr)

    def coldbundle(self, run_dir: Path, config_path: Path, *command: str):
        """One ``coldbundle`` command, in process, with its output captured."""
        argv = ["--out", str(run_dir), "--config", str(config_path), *command]

        def call():
            with contextlib.redirect_stdout(io.StringIO()):
                rc = self.rec.call("cli.main", cli.main, argv)
            if rc != 0:
                raise RuntimeError(f"coldbundle {' '.join(command)} exited with {rc}")
        return self.op(" ".join(command), call)


class OperationFailed(Exception):
    pass


# ----------------------------------------------------------------- checks

def payload_hash(path: Path) -> str:
    """The payload sha256 a checkpoint header records."""
    with open(path, "rb") as fh:
        fh.read(6)
        n = int.from_bytes(fh.read(8), "little")
        return json.loads(fh.read(n))["payload_sha256"]


def brute_force_recall(scores: np.ndarray, split, k: int) -> float:
    """Recall@k by a full argsort of the masked score matrix."""
    masked = np.array(scores, dtype=np.float64)
    masked[split.train_x.rows, split.train_x.cols] = -np.inf
    top = np.argsort(-masked, axis=1, kind="stable")[:, :k]
    positives: dict[int, set] = {}
    for u, b in zip(split.test_x.rows.tolist(), split.test_x.cols.tolist()):
        positives.setdefault(u, set()).add(b)
    recalls = [len(positives[u].intersection(top[u].tolist())) / len(positives[u])
               for u in sorted(positives)]
    return float(np.mean(recalls))


def read_pass(cfg, split, run_dir: Path):
    """``load_trained``, the four scored evaluations, gate dump, projection."""
    experts, gp, gp0 = pl.load_trained(cfg, split, run_dir)
    reports, full = {}, None
    for suffix, flags, _ in VARIANTS:
        scores = pl.ablation_scores(experts, gp, gp0, **flags)
        reports[suffix] = metrics.evaluate(scores, split, k=cfg.k_eval)
        if not flags:
            full = scores
    pl.write_gates_csv(experts, gp, run_dir / "gates.csv")
    pl.write_projection_csv(cfg, split, experts, "bundle_diff", run_dir / "projection.csv")
    return reports, full


# ------------------------------------------------------------- workloads

def setup(run: Run, work: Path, config_path: Path, trace: bool) -> tuple[Path, float]:
    """synth + split SETUP_REPS times; returns the last run dir and the
    median time.  A traced run traces the last repetition."""
    times = []
    for i in range(SETUP_REPS):
        run_dir = work / f"run{i}"
        if trace and i == SETUP_REPS - 1:
            run.rec.start("setup")
        try:
            _, t_synth, _ = run.coldbundle(run_dir, config_path, "synth")
            _, t_split, _ = run.coldbundle(run_dir, config_path, "split")
        finally:
            run.rec.stop()
        times.append(t_synth + t_split)
        if i < SETUP_REPS - 1:
            shutil.rmtree(run_dir)
    return run_dir, statistics.median(times)


def train_once(run: Run, run_dir: Path, config_path: Path) -> tuple[dict, list]:
    times, oids = {}, []
    for stage in "123":
        oid, t, _ = run.coldbundle(run_dir, config_path, "train", stage)
        times[f"stage{stage}_s"] = t
        oids.append(oid)
    times["train_s"] = sum(times.values())
    return times, oids


def fingerprint(run_dir: Path, evals: bool) -> dict:
    """Checkpoint payload hashes plus every metrics file (config dropped)."""
    out = {f"stage{s}": payload_hash(run_dir / f"stage{s}.ckpt") for s in "123"}
    for suffix, _, _ in VARIANTS if evals else []:
        m = json.loads((run_dir / f"metrics{suffix}.json").read_text())
        m.pop("config")
        out[f"metrics{suffix}"] = m
    return out


def training_loop(run: Run, run_dir: Path, config_path: Path, cfg, split, trace: bool,
                  min_iterations: int, seconds: float | None = None,
                  passes: list | None = None):
    """Closed loop of training iterations: ``min_iterations`` of them, then
    more while the next one is expected to end within ``seconds``.

    An iteration is ``train 1/2/3``; with a ``passes`` list it also runs the
    four evals and then up to PASSES_PER_ITERATION untraced read passes, so
    that pass times are sampled across the whole run; the loop ends with
    READ_PASSES passes in all.  Every iteration must
    reproduce the first one's checkpoints and metrics.  A traced run traces
    every other iteration, starting with the second, so that untraced warm
    iterations bracket the traced ones.  Returns (iterations, first
    iteration's fingerprint, first read pass's reports)."""
    evals = passes is not None
    iterations, first, reports = [], None, None
    t_start = perf_counter()
    while True:
        traced = trace and len(iterations) % 2 == 1
        if traced:
            run.rec.start("train")
        t0 = perf_counter()
        try:
            times, oids = train_once(run, run_dir, config_path)
            for _, _, flags in VARIANTS if evals else []:
                oid, _, _ = run.coldbundle(run_dir, config_path, "eval", *flags)
                oids.append(oid)
        finally:
            run.rec.stop()
        times["traced"] = traced
        iterations.append(times)
        fp = fingerprint(run_dir, evals)
        if first is None:
            first = fp
            if evals:
                check_recalls(run, oids[-1], cfg, split, run_dir, fp)
        for key in first:
            run.check(oids[0] if key.startswith("stage") else oids[-1],
                      fp[key] == first[key],
                      f"iteration {len(iterations)} {key} differs from iteration 1")
        count = min(PASSES_PER_ITERATION, READ_PASSES - len(passes)) if evals else 0
        if count > 0:
            reports = read_loop(run, cfg, split, run_dir, count, passes, reports)
        now = perf_counter()
        if len(iterations) >= min_iterations and (
                seconds is None or (now - t_start) + (now - t0) > seconds):
            if evals and len(passes) < READ_PASSES:
                reports = read_loop(run, cfg, split, run_dir, READ_PASSES - len(passes),
                                    passes, reports)
            return iterations, first, reports


def check_recalls(run: Run, oid: int, cfg, split, run_dir: Path, fp: dict) -> None:
    experts, gp, gp0 = pl.load_trained(cfg, split, run_dir)
    for suffix, flags, _ in VARIANTS:
        want = brute_force_recall(pl.ablation_scores(experts, gp, gp0, **flags),
                                  split, cfg.k_eval)
        got = fp[f"metrics{suffix}"]["recall_at_k"]
        run.check(oid, abs(want - got) <= 1e-12,
                  f"metrics{suffix}.json recall {got!r} != brute force {want!r}")


def read_loop(run: Run, cfg, split, run_dir: Path, count: int, passes: list,
              first=None, seconds: float | None = None, trace: bool = False):
    """Append (seconds, traced) read passes to ``passes``: ``count`` of them,
    or as many as fit in ``seconds`` (at least ``count``).  Every pass must
    reproduce ``first``, the first pass's reports, which is returned.  A
    traced run traces every other pass."""
    t_start = perf_counter()
    done = 0
    while True:
        traced = trace and len(passes) % 2 == 1
        if traced:
            run.rec.start("pass")
        try:
            oid, t, (reports, full) = run.op(
                "read pass", run.rec.call, "perfbench.read_pass", read_pass,
                cfg, split, run_dir)
        finally:
            run.rec.stop()
        passes.append((t, traced))
        done += 1
        if first is None:
            first = reports
            want = brute_force_recall(full, split, cfg.k_eval)
            run.check(oid, abs(want - reports[""].recall) <= 1e-12,
                      f"pass recall {reports[''].recall!r} != brute force {want!r}")
        run.check(oid, reports == first, f"read pass {len(passes)} report differs from pass 1")
        if done >= count and (seconds is None or perf_counter() - t_start + t > seconds):
            return first


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples beyond it: (value, pct)."""
    s = sorted(times)
    i = len(s) - 1 - TAIL_BEYOND if len(s) > TAIL_BEYOND else len(s) - 1
    return s[i], 100.0 * (i + 1) / len(s)


# ------------------------------------------------------------ environment

def openblas_threads() -> int | None:
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(workload: str, seed: int) -> dict:
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "coldbundle").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload, "seed": seed, "git_revision": rev,
        "src_sha256": src.hexdigest(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_requested": BLAS_THREADS, "blas_threads": openblas_threads(),
    }


# ------------------------------------------------------------------- main

def run_workload(name: str, seed: int, seconds: float, trace: bool, full_epochs: bool):
    config = {**WORKLOADS[name], "seed": seed}
    if full_epochs:
        config = {k: v for k, v in config.items() if k not in SHORT_EPOCHS}
    rec = Recorder()
    run = Run(rec)
    report = {}   # end-to-end figures, name -> (value, unit)
    notes = []
    (HERE / "work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=HERE / "work"))
    try:
        config_path = work / "config.json"
        config_path.write_text(json.dumps(config, sort_keys=True))
        cfg = pl.RunConfig.from_dict(config)
        run_dir, setup_s = setup(run, work, config_path, trace)
        split = pl.ensure_split(cfg, run_dir)

        if name in READ_WORKLOADS:
            iterations, fp, _ = training_loop(run, run_dir, config_path, cfg, split, trace,
                                              SETUP_TRAININGS)
            setup_s += statistics.median(it["train_s"] for it in iterations
                                         if not it["traced"])
            passes = []
            reports = read_loop(run, cfg, split, run_dir, MIN_PASSES, passes,
                                seconds=seconds, trace=trace)
            notes.append(f"set-up: median of {SETUP_REPS} synth+split, plus the median "
                         f"of {SETUP_TRAININGS} one-epoch-per-stage trainings")
        else:
            # Untimed warm-up: one epoch per stage, so that the timed
            # iterations do not pay the process's first-use costs.
            warmup_path = work / "warmup.json"
            warmup_path.write_text(json.dumps({**config, **ONE_EPOCH}, sort_keys=True))
            train_once(run, run_dir, warmup_path)
            min_iterations = (1 if full_epochs else MIN_ITERATIONS) + trace
            passes = []
            iterations, fp, reports = training_loop(run, run_dir, config_path, cfg, split,
                                                    trace, min_iterations, seconds, passes)
            notes.append(f"set-up: median of {SETUP_REPS} synth+split; then an untimed "
                         f"one-epoch-per-stage warm-up training")
        notes.append("checkpoint payload sha256: " +
                     " ".join(f"{s}={fp[s]}" for s in ("stage1", "stage2", "stage3")))
    except OperationFailed:
        return run, None, notes
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [it for it in iterations if not it["traced"]] or iterations
    for key in ("train_s", "stage1_s", "stage2_s", "stage3_s"):
        report[key] = (statistics.median(it[key] for it in untraced), "s")
    report["setup_s"] = (setup_s, "s")
    pass_times = [t for t, traced in passes if not traced]
    tail_s, tail_pct = tail(pass_times)
    report["eval_pass_p50_s"] = (statistics.median(pass_times), "s")
    report["eval_pass_tail_s"] = (tail_s, "s")
    report["eval_users_per_s"] = (len(pass_times) * len(VARIANTS) * split.catalog.n_users
                                  / sum(pass_times), "users/s")
    full = reports[""]
    report["recall_at_20"] = (full.recall, "ratio")
    report["ndcg_at_20"] = (full.ndcg, "ratio")
    report["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    notes.append(f"{len(untraced)} untraced training iteration(s); {len(pass_times)} "
                 f"untraced read passes; tail = p{tail_pct:.1f} of {len(pass_times)} passes")
    if full.cold_bundle_users:
        notes.append(f"cold_recall_at_20 = {full.cold_bundle_recall:.6f} ratio "
                     f"({full.cold_bundle_users} users with cold test bundles)")
    else:
        notes.append("cold_recall_at_20: not applicable, no cold test bundles")
    if full_epochs and seed == 7 and name in ACCEPTED_RECALL:
        notes.append(f"acceptance Recall@20 {full.recall:.4f} vs recorded "
                     f"{ACCEPTED_RECALL[name]:.4f}: "
                     f"{'match' if round(full.recall, 4) == ACCEPTED_RECALL[name] else 'MISMATCH'}")
    notes.append("train_s per iteration: " + " ".join(
        f"{it['train_s']:.3f}{' (traced)' if it['traced'] else ''}" for it in iterations))
    if trace:
        # The first iteration of a process pays warm-up costs: compare with
        # the untraced iterations after it.
        traced_iters = [it["train_s"] for it in iterations if it["traced"]]
        warm = [it["train_s"] for it in iterations[1:] if not it["traced"]]
        if traced_iters and warm:
            t, u = statistics.median(traced_iters), statistics.median(warm)
            notes.append(f"tracing overhead: traced train_s {t:.3f} s - untraced "
                         f"{u:.3f} s = {t - u:+.3f} s")
        traced_passes = [t for t, traced in passes if traced]
        if traced_passes:
            notes.append(f"tracing overhead: traced pass {statistics.median(traced_passes):.4f} s"
                         f" - untraced {report['eval_pass_p50_s'][0]:.4f} s = "
                         f"{statistics.median(traced_passes) - report['eval_pass_p50_s'][0]:+.4f} s")
    return run, report, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=7, help="workload seed (default 7)")
    parser.add_argument("--seconds", type=float, default=45.0,
                        help="length of the measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: trace the layers and report per-layer metrics")
    parser.add_argument("--full-epochs", action="store_true",
                        help="train with the program's default (acceptance) epoch budgets")
    args = parser.parse_args(argv)
    if args.full_epochs and args.workload in READ_WORKLOADS:
        parser.error("--full-epochs applies to the training workloads")

    # A terminated run still removes its run directories (finally blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    env = environment(args.workload, args.seed)
    run, report, notes = run_workload(args.workload, args.seed, args.seconds,
                                      bool(args.trace), args.full_epochs)
    failed = len(run.failed_ops)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in notes:
        print(f"  {line}")
    if report is not None:
        for key, (value, unit) in report.items():
            print(f"  {key:<18} {value:14.6f} {unit}")
    print(f"  error_rate         {failed / max(run.attempted, 1):14.6f} "
          f"({failed} of {run.attempted} operations)")
    if args.trace:
        for root in ("pipeline.stage1", "pipeline.stage2", "pipeline.stage3",
                     "perfbench.read_pass"):
            for line in run.rec.breakdown(root):
                print(f"  {line}")
        run.rec.write(HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json", env)
    print("env " + json.dumps(env, sort_keys=True))
    values = run.rec.per_layer() if args.trace else {}
    for key, (value, unit) in (report or {}).items():
        if key in QUALITY and args.trace:
            values[QUALITY[key]] = {"value": value, "unit": unit}
        elif key not in QUALITY and not args.trace:
            values[key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": report is not None and failed == 0,
                      "attempted": run.attempted, "failed": failed, "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
