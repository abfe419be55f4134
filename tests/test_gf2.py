from functools import reduce

import numpy as np
from hypothesis import given, settings, strategies as st

from stmarkov.gf2 import (
    bitset,
    gf2_dependencies,
    gf2_in_rowspan,
    gf2_rank,
    gf2_solve,
    matrix_to_rows,
)


@st.composite
def matrices(draw):
    """(rows, n_cols): up to 8 rows of up to 8 columns, as int bitsets."""
    n_cols = draw(st.integers(0, 8))
    rows = draw(st.lists(st.integers(0, (1 << n_cols) - 1), max_size=8))
    return rows, n_cols


def combination(rows, mask):
    return reduce(lambda acc, i: acc ^ rows[i], [i for i in range(len(rows)) if mask >> i & 1], 0)


@settings(max_examples=300, deadline=None)
@given(matrices(), st.lists(st.integers(0, (1 << 16) - 1), min_size=8, max_size=8))
def test_gf2_routines_match_enumeration(matrix, tags):
    rows, n_cols = matrix
    span = {combination(rows, mask) for mask in range(1 << len(rows))}
    rank = gf2_rank(rows)
    assert 1 << rank == len(span)
    for vec in range(1 << n_cols):
        assert gf2_in_rowspan(vec, rows) == (vec in span)
        mask = gf2_solve(rows, vec)
        if vec in span:
            assert mask is not None and combination(rows, mask) == vec
        else:
            assert mask is None
    # Bit tags: each dependency selects rows that XOR to zero, and they span
    # all len(rows) - rank such combinations.
    deps = gf2_dependencies(rows)
    assert all(combination(rows, mask) == 0 for mask in deps)
    assert gf2_rank(deps) == len(deps) == len(rows) - rank
    # Arbitrary tags: the XOR of the tags over the same combinations.
    tags = tags[:len(rows)]
    assert gf2_dependencies(rows, tags) == [combination(tags, mask) for mask in deps]


@settings(max_examples=200, deadline=None)
@given(st.sets(st.integers(0, 200), max_size=40), st.randoms(use_true_random=False))
def test_bitset_equals_or_of_bits(indices, rnd):
    order = sorted(indices)
    rnd.shuffle(order)
    expected = reduce(lambda acc, j: acc | 1 << j, order, 0)
    assert bitset(order) == expected
    # numpy integer indices shift as Python ints, past 64 bits too.
    assert bitset(np.array(order, dtype=np.int64)) == expected
    dense = np.zeros((1, 201), dtype=np.uint8)
    dense[0, order] = 1
    assert matrix_to_rows(dense) == [expected]
