"""Interaction sets, scenario splits, cold labels, synthetic generator."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coldbundle import data
from coldbundle.data import (
    Catalog, InteractionSet, Kind, PositivesIndex, Scenario, cold_stats, ingest_remap,
    load_interactions, load_split, make_split, save_interactions, save_split,
    synth_blockmodel,
)
from coldbundle.errors import BoundsError, ContractError, DegenerateSplitError, ParseError
from coldbundle.rng import Rng
from oracles import pair_set


def _toy(seed=0, n_users=30, n_bundles=12, n_items=40):
    cat, x, y, z = synth_blockmodel(n_users, n_items, n_bundles, 2, 5, 0.4, seed)
    return cat, x, y, z


def test_from_pairs_dedup_and_order():
    s = InteractionSet.from_pairs(Kind.USER_BUNDLE, [2, 0, 2, 1], [1, 3, 1, 0])
    assert len(s) == 3
    assert s.rows.tolist() == [0, 1, 2]
    assert s.cols.tolist() == [3, 0, 1]


def _sorted_pairs(rows, cols):
    """The lexsort-and-dedup path, applied to every input."""
    rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    keep = np.ones(rows.size, dtype=bool)
    keep[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    return rows[keep], cols[keep]


def test_from_pairs_skips_sort_only_for_strictly_ascending_keys():
    """Sorted, shuffled and duplicated inputs give the sorting path's
    arrays; a sorted input's arrays are copies, contiguous like the sorting
    path's."""
    _, x, _, _ = _toy(5)
    rng = np.random.default_rng(0)
    perm = rng.permutation(len(x))
    dup = np.sort(np.r_[np.arange(len(x)), rng.integers(0, len(x), 20)])
    flat = np.stack([x.rows, x.cols], axis=1).ravel()
    cases = [
        (x.rows, x.cols),                    # strictly ascending
        (flat[0::2], flat[1::2]),            # ascending, strided like a parsed TSV
        (x.rows[perm], x.cols[perm]),        # shuffled
        (x.rows[dup], x.cols[dup]),          # ascending with repeats
        (x.rows[::-1], x.cols[::-1]),        # descending
        ([0, 0, 1], [2, 1, 0]),              # rows ascending, one column step down
        ([3, 1], [0, 5]), ([4], [4]), ([], []),
    ]
    for rows, cols in cases:
        got = InteractionSet.from_pairs(Kind.USER_BUNDLE, rows, cols)
        want_rows, want_cols = _sorted_pairs(rows, cols)
        assert got.rows.dtype == got.cols.dtype == np.int64
        np.testing.assert_array_equal(got.rows, want_rows)
        np.testing.assert_array_equal(got.cols, want_cols)
        assert got.rows.flags.c_contiguous and got.cols.flags.c_contiguous
        for arr in (rows, cols):
            if isinstance(arr, np.ndarray):
                assert not np.shares_memory(got.rows, arr)
                assert not np.shares_memory(got.cols, arr)


def test_check_bounds():
    cat = Catalog(2, 2, 2)
    s = InteractionSet.from_pairs(Kind.USER_BUNDLE, [0, 1], [0, 5])
    with pytest.raises(BoundsError):
        s.check_bounds(cat)


def test_tsv_roundtrip(tmp_path):
    s = InteractionSet.from_pairs(Kind.USER_ITEM, [0, 1, 2], [3, 1, 2])
    save_interactions(tmp_path / "f.tsv", s)
    back = load_interactions(tmp_path / "f.tsv", Kind.USER_ITEM)
    np.testing.assert_array_equal(s.rows, back.rows)
    np.testing.assert_array_equal(s.cols, back.cols)


def test_load_rejects_bad_lines(tmp_path):
    (tmp_path / "bad.tsv").write_text("1\t2\n3\n")
    with pytest.raises(ParseError):
        load_interactions(tmp_path / "bad.tsv", Kind.USER_ITEM)
    (tmp_path / "bad2.tsv").write_text("1\tx\n")
    with pytest.raises(ParseError):
        load_interactions(tmp_path / "bad2.tsv", Kind.USER_ITEM)


def _loop_pairs(path, monkeypatch):
    """_read_pairs with the fast path switched off: the line loop alone."""
    with monkeypatch.context() as m:
        m.setattr(data, "_pairs_fast", lambda _: None)
        return data._read_pairs(path)


@pytest.mark.parametrize("text, fast", [
    ("", True), ("\n\n", True), ("1\t2\n", True), ("1\t2", True),
    ("\n0\t0\n\n007\t10\n999999999999999999\t5\n", True),
    ("1\t2\r\n3\t4\r\n", False), ("+1\t2\n", False), (" 1\t2\n", False),
    ("1_0\t2\n", False), ("1\t1234567890123456789\n", False),
    ("1\t2\n3\t4\t\n", False), ("1\t2\n3\n", False), ("\t2\n", False), ("1\t\n", False),
    ("1\t2\t3\n4\n", False),
])
def test_read_pairs_fast_path_agrees_with_line_loop(tmp_path, monkeypatch, text, fast):
    """The array parse takes exactly the plain digit-pair files, and gives
    the loop's values; anything else goes to the loop."""
    path = tmp_path / "f.tsv"
    path.write_bytes(text.encode())
    assert (data._pairs_fast(path.read_bytes()) is not None) == fast
    try:
        want = _loop_pairs(path, monkeypatch)
    except ParseError as err:
        with pytest.raises(ParseError) as exc:
            data._read_pairs(path)
        assert (str(exc.value), exc.value.line_no) == (str(err), err.line_no)
        return
    rows, cols = data._read_pairs(path)
    assert [list(map(int, rows)), list(map(int, cols))] == [list(want[0]), list(want[1])]
    assert (type(rows) is np.ndarray) == fast


def test_read_pairs_fast_path_on_generated_files(tmp_path, monkeypatch):
    _, x, y, z = _toy(3, n_users=200, n_bundles=50, n_items=300)
    for rel in (x, y, z):
        path = tmp_path / "rel.tsv"
        save_interactions(path, rel)
        assert data._pairs_fast(path.read_bytes()) is not None
        rows, cols = data._read_pairs(path)
        want = _loop_pairs(path, monkeypatch)
        assert rows.tolist() == want[0] and cols.tolist() == want[1]


def test_positives_index_matches_sets():
    rng = np.random.default_rng(4)
    rel = InteractionSet.from_pairs(Kind.USER_BUNDLE, rng.integers(0, 9, 60),
                                    rng.integers(0, 13, 60))
    idx = PositivesIndex.of(rel, 10, 13)
    sets = [set() for _ in range(10)]
    for r, c in zip(rel.rows.tolist(), rel.cols.tolist()):
        sets[r].add(c)
    assert idx.degrees().tolist() == [len(p) for p in sets]
    rows, cols = np.divmod(np.arange(10 * 13), 13)
    np.testing.assert_array_equal(idx.contains(rows, cols),
                                  [c in sets[r] for r, c in zip(rows, cols)])
    for r in range(10):
        assert idx.cols[idx.indptr[r]:idx.indptr[r + 1]].tolist() == sorted(sets[r])
        assert [idx.holds(r, c) for c in range(13)] == [c in sets[r] for c in range(13)]
    empty = PositivesIndex.of(InteractionSet.from_pairs(Kind.USER_BUNDLE, [], []), 2, 3)
    assert not empty.contains(np.array([0, 1]), np.array([2, 0])).any()
    assert not empty.holds(1, 2) and empty.degrees().tolist() == [0, 0]


@pytest.mark.parametrize("n_rows,n_cols", [(10, 13), (3, 8), (1, 1), (7, 64)])
def test_positives_bit_table_agrees_with_contains(n_rows, n_cols):
    """`contains_bits` answers `contains` on every cell, the last byte's
    spare bits included, with one bit per cell."""
    rng = np.random.default_rng(n_rows * n_cols)
    rel = InteractionSet.from_pairs(Kind.USER_BUNDLE, rng.integers(0, n_rows, 40),
                                    rng.integers(0, n_cols, 40))
    idx = PositivesIndex.of(rel, n_rows, n_cols)
    rows, cols = np.divmod(np.arange(n_rows * n_cols), n_cols)
    np.testing.assert_array_equal(idx.contains_bits(rows, cols), idx.contains(rows, cols))
    assert idx._bits.nbytes == -(-n_rows * n_cols // 8)


@pytest.mark.parametrize("bad", ["user_bundle.tsv", "user_item.tsv", "bundle_item.tsv"])
@pytest.mark.parametrize("line, reason", [("3\t4\t5", "got 3"), ("3", "got 1"),
                                          ("3\tx", "non-integer")])
def test_ingest_reports_bad_line_number(tmp_path, bad, line, reason):
    raw = tmp_path / "raw"
    raw.mkdir()
    for name in ("user_bundle.tsv", "user_item.tsv", "bundle_item.tsv"):
        (raw / name).write_text("1\t2\n")
    (raw / bad).write_text(f"1\t2\n\n{line}\n")
    with pytest.raises(ParseError, match=reason) as exc:
        ingest_remap(raw, tmp_path / "out")
    assert (exc.value.path, exc.value.line_no) == (raw / bad, 3)
    assert f"{bad}:3:" in str(exc.value)


def test_ingest_remap_dense_and_stable(tmp_path):
    raw = tmp_path / "raw"
    raw.mkdir()
    (raw / "user_bundle.tsv").write_text("100\t7\n5\t7\n")
    (raw / "user_item.tsv").write_text("100\t900\n5\t30\n")
    (raw / "bundle_item.tsv").write_text("7\t900\n7\t30\n")
    cat = ingest_remap(raw, tmp_path / "out")
    assert (cat.n_users, cat.n_bundles, cat.n_items) == (2, 1, 2)
    ub = load_interactions(tmp_path / "out" / "user_bundle.tsv", Kind.USER_BUNDLE, cat)
    # raw user ids 5 < 100 -> dense 0, 1; bundle 7 -> 0
    assert pair_set(ub) == {(0, 0), (1, 0)}


@pytest.mark.parametrize("scenario", list(Scenario))
def test_split_partition_exact(scenario):
    cat, x, y, z = _toy()
    split = make_split(x, y, z, cat, scenario, seed=1)
    parts = [pair_set(split.train_x), pair_set(split.val_x), pair_set(split.test_x)]
    union = set().union(*parts)
    assert union == pair_set(x)
    assert sum(len(p) for p in parts) == len(x)  # pairwise disjoint


def test_cold_start_split_holds_out_whole_bundles():
    cat, x, y, z = _toy()
    split = make_split(x, y, z, cat, Scenario.COLD_START, seed=1)
    train_b = set(split.train_x.cols.tolist())
    eval_b = set(split.val_x.cols.tolist()) | set(split.test_x.cols.tolist())
    assert not (train_b & eval_b)
    # every test positive is bundle-level cold
    assert np.all(split.bundle_bint_cold[split.test_x.cols])


def test_warm_start_ratios():
    cat, x, y, z = _toy(n_users=100, n_bundles=30, n_items=80)
    split = make_split(x, y, z, cat, Scenario.WARM_START, seed=2)
    n = len(x)
    assert abs(len(split.train_x) / n - 0.7) < 0.02
    assert abs(len(split.test_x) / n - 0.2) < 0.02


def test_labels_sound():
    cat, x, y, z = _toy()
    split = make_split(x, y, z, cat, Scenario.COLD_START, seed=3)
    deg = split.train_x.col_degrees(cat.n_bundles)
    np.testing.assert_array_equal(split.bundle_bint_cold, deg == 0)
    item_deg = y.col_degrees(cat.n_items)
    np.testing.assert_array_equal(split.item_cold, item_deg == 0)
    # iint-cold iff the bundle contains at least one cold item
    for b in range(cat.n_bundles):
        members = z.cols[z.rows == b]
        expect = bool(np.any(split.item_cold[members])) if members.size else False
        assert bool(split.bundle_iint_cold[b]) == expect


def test_split_facts_follow_its_data():
    """A copy of a split with more train pairs derives its cold labels, warm
    bundles and train positives from its own pairs, not from the split it
    was copied from, whose facts were already computed."""
    cat, x, y, z = _toy()
    split = make_split(x, y, z, cat, Scenario.COLD_START, seed=3)
    want = np.unique(split.train_x.cols)
    assert split.warm_bundles.dtype == want.dtype
    np.testing.assert_array_equal(split.warm_bundles, want)
    assert split.train_positives.keys.size == len(split.train_x)
    cold = np.flatnonzero(split.bundle_bint_cold)
    assert cold.size
    tx = split.train_x
    train_x = InteractionSet.from_pairs(tx.kind, np.r_[tx.rows, np.zeros(cold.size, np.int64)],
                                        np.r_[tx.cols, cold])
    moved = dataclasses.replace(split, train_x=train_x)
    np.testing.assert_array_equal(moved.bundle_bint_cold,
                                  train_x.col_degrees(cat.n_bundles) == 0)
    assert not moved.bundle_bint_cold.any()
    want = np.unique(train_x.cols)
    assert moved.warm_bundles.dtype == want.dtype
    np.testing.assert_array_equal(moved.warm_bundles, want)
    fresh = PositivesIndex.of(train_x, cat.n_users, cat.n_bundles)
    for name in ("rows", "cols", "indptr", "keys"):
        np.testing.assert_array_equal(getattr(moved.train_positives, name), getattr(fresh, name))


def test_cold_stats_partition():
    cat, x, y, z = _toy()
    split = make_split(x, y, z, cat, Scenario.COLD_START, seed=4)
    stats = cold_stats(split)
    assert sum(stats.counts.values()) == cat.n_bundles
    assert abs(sum(stats.ratios.values()) - 1.0) < 1e-12
    if len(split.test_x):
        assert abs(sum(stats.test_interaction_share.values()) - 1.0) < 1e-12


def test_split_save_load_roundtrip(tmp_path):
    cat, x, y, z = _toy()
    split = make_split(x, y, z, cat, Scenario.COLD_START, seed=5)
    save_split(split, tmp_path)
    back = load_split(tmp_path, y, z, cat)
    assert back.scenario is Scenario.COLD_START
    assert pair_set(back.train_x) == pair_set(split.train_x)
    np.testing.assert_array_equal(back.bundle_bint_cold, split.bundle_bint_cold)


def test_split_determinism():
    cat, x, y, z = _toy()
    a = make_split(x, y, z, cat, Scenario.ALL_BUNDLE, seed=6)
    b = make_split(x, y, z, cat, Scenario.ALL_BUNDLE, seed=6)
    assert pair_set(a.train_x) == pair_set(b.train_x)
    assert pair_set(a.test_x) == pair_set(b.test_x)


def test_split_rejects_bad_input():
    cat, x, y, z = _toy()
    empty = InteractionSet.from_pairs(Kind.USER_BUNDLE, [], [])
    with pytest.raises(ContractError):
        make_split(empty, y, z, cat, Scenario.WARM_START)
    with pytest.raises(ContractError):
        make_split(x, y, z, cat, Scenario.WARM_START, ratios=(0.5, 0.2, 0.2))


def test_synth_blockmodel_shapes_and_determinism():
    cat, x, y, z = synth_blockmodel(50, 80, 20, 4, 6, 0.3, 9)
    assert (cat.n_users, cat.n_bundles, cat.n_items) == (50, 20, 80)
    x.check_bounds(cat); y.check_bounds(cat); z.check_bounds(cat)
    assert np.all(z.row_degrees(cat.n_bundles) > 0)
    _, x2, _, _ = synth_blockmodel(50, 80, 20, 4, 6, 0.3, 9)
    assert pair_set(x) == pair_set(x2)
    with pytest.raises(ContractError):
        synth_blockmodel(10, 10, 5, 1, 3, 0.3, 0)


def all_bundle_parts_reference(x, catalog, ratios, seed):
    """Each interaction's part (0 train, 1 val, 2 test) under the all_bundle
    split as a loop over bundles: held-out bundles are taken in permuted
    order, and each one's interactions are found by a scan of x."""
    rng = Rng(seed).derive("split:all_bundle")
    n = len(x)
    _, n_val, n_test = data._split_counts(n, ratios)
    held_target = (n_val + n_test) / 2.0
    bundles = np.unique(x.cols)
    order = bundles[rng.permutation(bundles.size)]
    deg = x.col_degrees(catalog.n_bundles)
    held, held_total = [], 0
    for b in order.tolist():
        if held_total >= held_target:
            break
        held.append(b)
        held_total += int(deg[b])
    part = np.zeros(n, dtype=np.int8)
    val_cold_target, val_cold = held_total / 3.0, 0
    for b in held:
        dest = 1 if val_cold < val_cold_target else 2
        part[x.cols == b] = dest
        if dest == 1:
            val_cold += int(deg[b])
    warm_idx = np.flatnonzero(part == 0)
    need_val = max(n_val - int((part == 1).sum()), 0)
    need_test = max(n_test - int((part == 2).sum()), 0)
    pick = warm_idx[rng.permutation(warm_idx.size)[:need_val + need_test]]
    part[pick[:need_val]] = 1
    part[pick[need_val:]] = 2
    return part


@pytest.mark.parametrize("ratios", [(0.7, 0.1, 0.2), (0.5, 0.25, 0.25), (0.9, 0.05, 0.05),
                                    (0.6, 0.0, 0.4), (0.98, 0.01, 0.01)])
def test_all_bundle_split_equals_loop_reference(ratios):
    """The held-out bundles and their val/test halves, found by two
    searches over cumulative degrees, are the bundle loop's, for several
    seeds and ratios, down to a single held-out bundle.  In some cases the
    held or the val interactions reach their target exactly (seed 11 at
    0.7/0.1/0.2; seeds 1, 8 and 9 at 0.6/0/0.4), where the loop stops."""
    for seed in range(12):
        cat, x, y, z = _toy(seed=seed, n_users=40, n_bundles=16)
        part = all_bundle_parts_reference(x, cat, ratios, seed)
        split = make_split(x, y, z, cat, Scenario.ALL_BUNDLE, ratios, seed)
        for k, got in enumerate((split.train_x, split.val_x, split.test_x)):
            assert pair_set(got) == set(zip(x.rows[part == k].tolist(), x.cols[part == k].tolist()))


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=25, deadline=None)
def test_split_partition_property(seed):
    cat, x, y, z = _toy(seed=seed % 17)
    try:
        split = make_split(x, y, z, cat, Scenario.COLD_START, seed=seed)
    except DegenerateSplitError:
        return
    parts = (pair_set(split.train_x), pair_set(split.val_x), pair_set(split.test_x))
    assert parts[0] | parts[1] | parts[2] == pair_set(x)
    assert sum(map(len, parts)) == len(x)
