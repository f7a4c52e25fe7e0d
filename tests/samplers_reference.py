"""Scalar reference samplers: the per-draw numpy forms that the replayed
samplers in `coldbundle` must reproduce bit for bit, random stream included."""

import numpy as np

from coldbundle.errors import DegenerateSplitError
from coldbundle.moe import PSEUDO_DTYPE
from coldbundle.rng import Rng

# Set by beta_reference whenever a draw takes the log-scale branch.
UNDERFLOW = {"hits": 0}


def beta_reference(rng: Rng, a: float, b: float) -> float:
    """One Beta(a, b) draw (Johnk's rejection algorithm) on numpy scalars."""
    while True:
        u, v = rng.uniform(2)
        x = u ** (1.0 / a)
        y = v ** (1.0 / b)
        if x + y <= 1.0:
            if x + y > 0.0:
                return x / (x + y)
            UNDERFLOW["hits"] += 1
            lx = np.log(max(u, 1e-300)) / a
            ly = np.log(max(v, 1e-300)) / b
            m = max(lx, ly)
            return float(np.exp(lx - m) / (np.exp(lx - m) + np.exp(ly - m)))


def sample_negatives_reference(rng: Rng, users: np.ndarray, candidates: np.ndarray,
                               pos_sets: list) -> np.ndarray:
    """One negative per row, a scalar membership loop over every row."""
    for u in np.unique(users).tolist():
        pos = pos_sets[u]
        if len(pos) >= candidates.size and pos.issuperset(candidates.tolist()):
            raise DegenerateSplitError(f"row {u} has no negative candidate left")
    neg = candidates[rng.integers(users.size, 0, candidates.size)]
    for i, u in enumerate(users.tolist()):
        while int(neg[i]) in pos_sets[u]:
            neg[i] = int(candidates[rng.integers(1, 0, candidates.size)[0]])
    return neg


def pos_sets_of(rel, n_rows: int) -> list:
    sets = [set() for _ in range(n_rows)]
    for r, c in zip(rel.rows.tolist(), rel.cols.tolist()):
        sets[r].add(c)
    return sets


def sample_pseudo_triples_reference(split, count: int, beta_alpha: float,
                                    rng: Rng) -> np.ndarray:
    """Pseudo triples drawn one numpy call per draw."""
    cat = split.catalog
    pos_by_user = [[] for _ in range(cat.n_users)]
    for u, b in zip(split.train_x.rows.tolist(), split.train_x.cols.tolist()):
        pos_by_user[u].append(b)
    eligible = [u for u in range(cat.n_users) if len(pos_by_user[u]) >= 2]
    if not eligible:
        return np.zeros(0, dtype=PSEUDO_DTYPE)
    pos_sets = [set(p) for p in pos_by_user]
    crowded = [u for u in eligible if cat.n_bundles - len(pos_sets[u]) < 2]
    if crowded:
        raise DegenerateSplitError(
            f"users {crowded[:10]} leave fewer than two bundles for a pseudo-negative")
    rows = []
    for _ in range(count):
        u = eligible[int(rng.integers(1, 0, len(eligible))[0])]
        pool = pos_by_user[u]
        i, j = rng.choice(len(pool), 2)[:2]
        lam_p = beta_reference(rng, beta_alpha, beta_alpha)
        while True:
            nx, ny = rng.integers(2, 0, cat.n_bundles)
            if nx != ny and int(nx) not in pos_sets[u] and int(ny) not in pos_sets[u]:
                break
        lam_n = beta_reference(rng, beta_alpha, beta_alpha)
        rows.append((u, pool[int(i)], pool[int(j)], lam_p, int(nx), int(ny), lam_n))
    return np.array(rows, dtype=PSEUDO_DTYPE)
