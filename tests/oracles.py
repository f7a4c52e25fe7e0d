"""Plain-Python oracles shared by the tests."""


def pair_set(rel) -> set[tuple[int, int]]:
    """The (row, col) pairs of an InteractionSet as a set of int tuples."""
    return set(zip(rel.rows.tolist(), rel.cols.tolist()))
