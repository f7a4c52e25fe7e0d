"""Interaction data: loading, warm/cold partitioning, scenario splits, synthesis.

File format is headerless two-column tab-separated integers with dense ids.
Raw files with arbitrary ids go through :func:`ingest_remap` first, which
produces dense ids plus an ``idmap.tsv`` sidecar.
"""

from __future__ import annotations

import bisect
import io
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path

import numpy as np

from .checkpoint import atomic_open, read_json, write_json
from .errors import BoundsError, ContractError, DegenerateSplitError, ParseError
from .rng import Rng


class Kind(Enum):
    USER_BUNDLE = "user_bundle"
    USER_ITEM = "user_item"
    BUNDLE_ITEM = "bundle_item"


class Scenario(Enum):
    COLD_START = "cold_start"
    ALL_BUNDLE = "all_bundle"
    WARM_START = "warm_start"


@dataclass(frozen=True)
class Catalog:
    n_users: int
    n_bundles: int
    n_items: int

    def __post_init__(self):
        if min(self.n_users, self.n_bundles, self.n_items) <= 0:
            raise ContractError("catalog counts must be positive")

    def dims(self, kind: Kind) -> tuple[int, int]:
        if kind is Kind.USER_BUNDLE:
            return self.n_users, self.n_bundles
        if kind is Kind.USER_ITEM:
            return self.n_users, self.n_items
        return self.n_bundles, self.n_items


@dataclass
class InteractionSet:
    """Deduplicated sparse binary relation in canonical (row, col) order."""

    kind: Kind
    rows: np.ndarray
    cols: np.ndarray

    @classmethod
    def from_pairs(cls, kind: Kind, rows, cols) -> "InteractionSet":
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.shape != cols.shape:
            raise ContractError("row/col arrays differ in length")
        # Keys already strictly ascending (every file the program writes)
        # need neither the sort nor the dedup; copies keep the set's arrays
        # its own and contiguous, as the sorting path's are.
        ascending = (rows[1:] > rows[:-1]) | ((rows[1:] == rows[:-1]) & (cols[1:] > cols[:-1]))
        if ascending.all():
            return cls(kind, rows.copy(), cols.copy())
        order = np.lexsort((cols, rows))
        rows, cols = rows[order], cols[order]
        keep = np.ones(rows.size, dtype=bool)
        keep[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        return cls(kind, rows[keep], cols[keep])

    def __len__(self) -> int:
        return int(self.rows.size)

    def check_bounds(self, catalog: Catalog) -> None:
        n_rows, n_cols = catalog.dims(self.kind)
        if len(self) == 0:
            return
        if self.rows.min() < 0 or self.rows.max() >= n_rows:
            raise BoundsError(f"{self.kind.value}: row id out of range [0, {n_rows})")
        if self.cols.min() < 0 or self.cols.max() >= n_cols:
            raise BoundsError(f"{self.kind.value}: col id out of range [0, {n_cols})")

    def row_degrees(self, n_rows: int) -> np.ndarray:
        return np.bincount(self.rows, minlength=n_rows).astype(np.int64)

    def col_degrees(self, n_cols: int) -> np.ndarray:
        return np.bincount(self.cols, minlength=n_cols).astype(np.int64)


@dataclass
class PositivesIndex:
    """The positives of every row of an InteractionSet, in CSR form.

    The set's canonical (row, col) order makes `cols` the CSR indices and
    `rows * n_cols + cols` an ascending key array, so membership is one
    `searchsorted`.  A split holds one for its train positives; `holds`
    serves per-draw Python loops from cached list copies.
    """

    n_cols: int
    rows: np.ndarray    # (nnz,) ascending
    cols: np.ndarray    # (nnz,) ascending within each row
    indptr: np.ndarray  # (n_rows + 1,) row r owns cols[indptr[r]:indptr[r + 1]]
    keys: np.ndarray    # (nnz,) rows * n_cols + cols, ascending

    @classmethod
    def of(cls, rel: InteractionSet, n_rows: int, n_cols: int) -> "PositivesIndex":
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(rel.row_degrees(n_rows), out=indptr[1:])
        return cls(n_cols, rel.rows, rel.cols, indptr, rel.rows * n_cols + rel.cols)

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def contains(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Elementwise: is (rows[i], cols[i]) a positive?"""
        keys = rows * self.n_cols + cols
        at = np.searchsorted(self.keys, keys)
        found = at < self.keys.size
        found[found] = self.keys[at[found]] == keys[found]
        return found

    @cached_property
    def _lists(self) -> tuple[list[int], list[int]]:
        return self.indptr.tolist(), self.cols.tolist()

    def holds(self, r: int, c: int) -> bool:
        """Is (r, c) a positive?  Scalar form of `contains`."""
        indptr, cols = self._lists
        hi = indptr[r + 1]
        at = bisect.bisect_left(cols, c, indptr[r], hi)
        return at < hi and cols[at] == c


def _pairs_fast(data: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """Rows and columns of `data` when it holds only digits, tabs and
    newlines and every non-empty line is two runs of 1 to 18 digits (so
    int64 holds them) joined by one tab; None for anything else."""
    if data.translate(None, b"0123456789\t\n"):
        return None
    buf = np.frombuffer(data + b"\n", dtype=np.uint8)
    nl = np.flatnonzero(buf == 10)
    tab = np.flatnonzero(buf == 9)
    starts = np.r_[0, nl[:-1] + 1]
    line = np.searchsorted(nl, tab)
    # exactly the non-empty lines hold a tab, one each
    if not np.array_equal(line, np.flatnonzero(nl > starts)):
        return None
    if not tab.size:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    left = tab - starts[line]
    right = nl[line] - tab - 1
    if min(left.min(), right.min()) < 1 or max(left.max(), right.max()) > 18:
        return None
    vals = np.fromstring(data.replace(b"\t", b"\n"), dtype=np.int64, sep="\n")
    if vals.size != 2 * tab.size:
        return None
    return vals[0::2], vals[1::2]


def _read_pairs(path) -> tuple:
    """Rows and columns of a headerless two-column integer TSV, blank lines
    skipped; a malformed line raises ParseError with its line number.

    A file of plain digit pairs is parsed as one array (int64 arrays come
    back); any other file goes through the line loop (lists of ints come
    back, ids beyond int64 included), which also reports the errors.
    """
    data = Path(path).read_bytes()
    fast = _pairs_fast(data)
    if fast is not None:
        return fast
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[:exc.start].decode("utf-8")
        line_no = before.replace("\r\n", "\n").replace("\r", "\n").count("\n") + 1
        raise ParseError(path, line_no, f"byte {data[exc.start]:#04x} is not UTF-8") from None
    rows, cols = [], []
    # universal newlines, as a text-mode file reads them
    for line_no, line in enumerate(io.StringIO(text, newline=None), start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ParseError(path, line_no, f"expected two tab-separated fields, got {len(parts)}")
        try:
            r, c = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(path, line_no, f"non-integer field in {line!r}") from None
        rows.append(r)
        cols.append(c)
    return rows, cols


def load_interactions(path, kind: Kind, catalog: Catalog | None = None) -> InteractionSet:
    """Read a two-column TSV into an InteractionSet (deduplicated)."""
    out = InteractionSet.from_pairs(kind, *_read_pairs(Path(path)))
    if catalog is not None:
        out.check_bounds(catalog)
    return out


def save_interactions(path, interactions: InteractionSet) -> None:
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        for r, c in zip(interactions.rows.tolist(), interactions.cols.tolist()):
            fh.write(f"{r}\t{c}\n")


def ingest_remap(raw_dir, out_dir) -> Catalog:
    """Densify raw id space of the three TSVs; writes dense TSVs + idmap.tsv.

    Dense ids are assigned per entity class in ascending raw-id order, so
    the mapping is independent of file line order.
    """
    raw_dir, out_dir = Path(raw_dir), Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = {
        "user_bundle.tsv": ("user", "bundle"),
        "user_item.tsv": ("user", "item"),
        "bundle_item.tsv": ("bundle", "item"),
    }
    raw_pairs = {}
    seen: dict[str, set[int]] = {"user": set(), "bundle": set(), "item": set()}
    for fname, (row_cls, col_cls) in files.items():
        rows, cols = (list(map(int, v)) for v in _read_pairs(raw_dir / fname))
        raw_pairs[fname] = list(zip(rows, cols))
        seen[row_cls].update(rows)
        seen[col_cls].update(cols)
    remap = {cls: {raw: dense for dense, raw in enumerate(sorted(ids))} for cls, ids in seen.items()}
    with atomic_open(out_dir / "idmap.tsv", "w", encoding="utf-8", newline="\n") as fh:
        for cls in ("user", "bundle", "item"):
            for raw, dense in sorted(remap[cls].items()):
                fh.write(f"{cls}\t{raw}\t{dense}\n")
    for fname, (row_cls, col_cls) in files.items():
        with atomic_open(out_dir / fname, "w", encoding="utf-8", newline="\n") as fh:
            for r, c in raw_pairs[fname]:
                fh.write(f"{remap[row_cls][r]}\t{remap[col_cls][c]}\n")
    return Catalog(len(seen["user"]) or 1, len(seen["bundle"]) or 1, len(seen["item"]) or 1)


@dataclass
class ScenarioSplit:
    """A scenario's interactions plus the training facts derived from them
    (cold labels, warm bundles, train positives), each computed on first use."""

    scenario: Scenario
    catalog: Catalog
    train_x: InteractionSet
    val_x: InteractionSet
    test_x: InteractionSet
    y: InteractionSet  # user-item interactions, kept whole in the train period
    z: InteractionSet  # bundle-item affiliations

    @cached_property
    def bundle_bint_cold(self) -> np.ndarray:  # no train interaction
        return self.train_x.col_degrees(self.catalog.n_bundles) == 0

    @cached_property
    def item_cold(self) -> np.ndarray:  # no user-item interaction
        return self.y.col_degrees(self.catalog.n_items) == 0

    @cached_property
    def bundle_iint_cold(self) -> np.ndarray:  # a cold member item
        out = np.zeros(self.catalog.n_bundles, dtype=bool)
        out[self.z.rows[self.item_cold[self.z.cols]]] = True
        return out

    @cached_property
    def warm_bundles(self) -> np.ndarray:  # ascending ids
        return np.flatnonzero(~self.bundle_bint_cold)

    @cached_property
    def train_positives(self) -> PositivesIndex:
        return PositivesIndex.of(self.train_x, self.catalog.n_users, self.catalog.n_bundles)


@dataclass
class ColdStats:
    n_bundles: int
    counts: dict  # keyed (bint, iint) in {"warm","cold"}^2
    ratios: dict
    test_interaction_share: dict

    def to_json_dict(self) -> dict:
        key = lambda k: f"bint_{k[0]}__iint_{k[1]}"
        return {
            "n_bundles": self.n_bundles,
            "counts": {key(k): v for k, v in sorted(self.counts.items())},
            "ratios": {key(k): v for k, v in sorted(self.ratios.items())},
            "test_interaction_share": {key(k): v for k, v in sorted(self.test_interaction_share.items())},
        }


def cold_stats(split: ScenarioSplit) -> ColdStats:
    """Four-way warm/cold intersection counts, bundle ratios, test shares."""
    n_b = split.catalog.n_bundles
    bint = split.bundle_bint_cold
    iint = split.bundle_iint_cold
    counts, ratios, shares = {}, {}, {}
    test_deg = split.test_x.col_degrees(n_b).astype(np.float64)
    total_test = test_deg.sum()
    for b_label, b_mask in (("warm", ~bint), ("cold", bint)):
        for i_label, i_mask in (("warm", ~iint), ("cold", iint)):
            mask = b_mask & i_mask
            counts[(b_label, i_label)] = int(mask.sum())
            ratios[(b_label, i_label)] = float(mask.sum() / n_b)
            shares[(b_label, i_label)] = float(test_deg[mask].sum() / total_test) if total_test else 0.0
    return ColdStats(n_b, counts, ratios, shares)


def _split_counts(n: int, ratios: tuple[float, float, float]) -> tuple[int, int, int]:
    n_train = int(round(n * ratios[0]))
    n_val = int(round(n * ratios[1]))
    n_train = min(n_train, n)
    n_val = min(n_val, n - n_train)
    return n_train, n_val, n - n_train - n_val


def make_split(x: InteractionSet, y: InteractionSet, z: InteractionSet,
               catalog: Catalog, scenario: Scenario,
               ratios: tuple[float, float, float] = (0.7, 0.1, 0.2),
               seed: int = 0) -> ScenarioSplit:
    """Partition X into train/val/test for the given scenario.

    WarmStart splits interactions uniformly; ColdStart splits the bundle
    set (held-out bundles contribute all their interactions to val/test);
    AllBundle fills half of val/test interactions from held-out bundles and
    half from warm bundles, rounding toward the cold side.  Y is kept whole
    in the train period.  The split derives its labels from the train portion.
    """
    if len(x) == 0:
        raise ContractError("cannot split an empty interaction set")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ContractError("split ratios must sum to 1")
    for rel in (x, y, z):
        rel.check_bounds(catalog)
    rng = Rng(seed).derive(f"split:{scenario.value}")
    n = len(x)

    if scenario is Scenario.WARM_START:
        order = rng.permutation(n)
        n_train, n_val, _ = _split_counts(n, ratios)
        part = np.empty(n, dtype=np.int8)
        part[order[:n_train]] = 0
        part[order[n_train:n_train + n_val]] = 1
        part[order[n_train + n_val:]] = 2
    elif scenario is Scenario.COLD_START:
        bundles = np.unique(x.cols)
        order = bundles[rng.permutation(bundles.size)]
        n_train_b, n_val_b, _ = _split_counts(bundles.size, ratios)
        bundle_part = np.zeros(catalog.n_bundles, dtype=np.int8)
        bundle_part[order[n_train_b:n_train_b + n_val_b]] = 1
        bundle_part[order[n_train_b + n_val_b:]] = 2
        part = bundle_part[x.cols]
    else:  # ALL_BUNDLE
        _, n_val, n_test = _split_counts(n, ratios)
        held_target = (n_val + n_test) / 2.0
        bundles = np.unique(x.cols)
        order = bundles[rng.permutation(bundles.size)]
        deg = x.col_degrees(catalog.n_bundles)[order]
        cum = np.cumsum(deg)
        # Interactions in the bundles ahead of each one in `order`; strictly
        # increasing, as every bundle there has one.
        before = cum - deg
        # Held-out (cold) bundles: `order` is taken while fewer than
        # held_target interactions are held, rounding toward the cold side
        # (the last bundle may overshoot).  Whole held bundles go to val
        # while val has less than a third of their interactions, then to test.
        n_held = int(np.searchsorted(before, held_target))
        held_total = int(cum[n_held - 1]) if n_held else 0
        n_val_b = int(np.searchsorted(before[:n_held], held_total / 3.0))
        bundle_part = np.zeros(catalog.n_bundles, dtype=np.int8)
        bundle_part[order[:n_val_b]] = 1
        bundle_part[order[n_val_b:n_held]] = 2
        part = bundle_part[x.cols]
        n_val_cold = int((part == 1).sum())
        n_test_cold = int((part == 2).sum())
        # Warm side: uniform interactions from the remaining bundles.
        warm_idx = np.flatnonzero(part == 0)
        need_val = max(n_val - n_val_cold, 0)
        need_test = max(n_test - n_test_cold, 0)
        if need_val + need_test > warm_idx.size:
            raise DegenerateSplitError("not enough warm interactions for the all-bundle split")
        pick = warm_idx[rng.permutation(warm_idx.size)[:need_val + need_test]]
        part[pick[:need_val]] = 1
        part[pick[need_val:]] = 2

    split = ScenarioSplit(
        scenario=scenario,
        catalog=catalog,
        train_x=InteractionSet.from_pairs(Kind.USER_BUNDLE, x.rows[part == 0], x.cols[part == 0]),
        val_x=InteractionSet.from_pairs(Kind.USER_BUNDLE, x.rows[part == 1], x.cols[part == 1]),
        test_x=InteractionSet.from_pairs(Kind.USER_BUNDLE, x.rows[part == 2], x.cols[part == 2]),
        y=y,
        z=z,
    )
    if len(split.train_x) == 0 or len(split.test_x) == 0:
        raise DegenerateSplitError(f"{scenario.value} split produced an empty train or test set")
    return split


def save_split(split: ScenarioSplit, out_dir) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_interactions(out_dir / "train.tsv", split.train_x)
    save_interactions(out_dir / "val.tsv", split.val_x)
    save_interactions(out_dir / "test.tsv", split.test_x)
    labels = {
        "scenario": split.scenario.value,
        "bint_cold": np.flatnonzero(split.bundle_bint_cold).tolist(),
        "item_cold": np.flatnonzero(split.item_cold).tolist(),
    }
    write_json(out_dir / "labels.json", labels)


def load_split(split_dir, y: InteractionSet, z: InteractionSet, catalog: Catalog) -> ScenarioSplit:
    split_dir = Path(split_dir)
    path = split_dir / "labels.json"
    labels = read_json(path, ("scenario",))
    if labels["scenario"] not in [s.value for s in Scenario]:
        raise ContractError(f"{path}: unknown scenario {labels['scenario']!r}")
    return ScenarioSplit(
        scenario=Scenario(labels["scenario"]),
        catalog=catalog,
        train_x=load_interactions(split_dir / "train.tsv", Kind.USER_BUNDLE, catalog),
        val_x=load_interactions(split_dir / "val.tsv", Kind.USER_BUNDLE, catalog),
        test_x=load_interactions(split_dir / "test.tsv", Kind.USER_BUNDLE, catalog),
        y=y,
        z=z,
    )


def synth_blockmodel(n_users: int, n_items: int, n_bundles: int, groups: int,
                     bundle_size: int, affinity: float, seed: int,
                     ) -> tuple[Catalog, InteractionSet, InteractionSet, InteractionSet]:
    """Planted block-model dataset: in-group edges at `affinity`, cross at affinity/10.

    Users, items, and bundles are assigned to groups round-robin; each
    bundle's item set is drawn from its own group, so cold bundles share
    latent structure with warm ones.
    """
    if groups < 2:
        raise ContractError("need at least two groups")
    cross = affinity / 10.0
    rng = Rng(seed).derive("synth")
    user_g = np.arange(n_users) % groups
    item_g = np.arange(n_items) % groups
    bundle_g = np.arange(n_bundles) % groups

    def sample_bipartite(row_g, col_g, kind):
        p = np.where(row_g[:, None] == col_g[None, :], affinity, cross)
        draws = rng.uniform(p.size).reshape(p.shape)
        rows, cols = np.nonzero(draws < p)
        return InteractionSet.from_pairs(kind, rows, cols)

    y = sample_bipartite(user_g, item_g, Kind.USER_ITEM)

    z_rows, z_cols = [], []
    for b in range(n_bundles):
        pool = np.flatnonzero(item_g == bundle_g[b])
        k = min(bundle_size, pool.size)
        members = pool[rng.choice(pool.size, k)]
        z_rows.extend([b] * k)
        z_cols.extend(sorted(members.tolist()))
    z = InteractionSet.from_pairs(Kind.BUNDLE_ITEM, z_rows, z_cols)

    x = sample_bipartite(user_g, bundle_g, Kind.USER_BUNDLE)

    catalog = Catalog(n_users, n_bundles, n_items)
    for rel, name in ((x, "users"), (y, "items"), (z, "bundles")):
        if len(rel) == 0:
            import warnings
            warnings.warn(f"synthetic {name} relation came out empty; parameters too sparse")
    return catalog, x, y, z
