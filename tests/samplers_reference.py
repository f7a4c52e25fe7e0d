"""Scalar reference sampler: the per-draw numpy form that the replayed
negative sampler in `coldbundle` must reproduce bit for bit, random stream
included."""

import numpy as np

from coldbundle.errors import DegenerateSplitError
from coldbundle.rng import Rng


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

