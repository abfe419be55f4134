from functools import reduce

from hypothesis import given, settings, strategies as st

from stmarkov.gf2 import gf2_in_rowspan, gf2_nullspace, gf2_rank, gf2_solve


@st.composite
def matrices(draw):
    """(rows, n_cols): up to 8 rows of up to 8 columns, as int bitsets."""
    n_cols = draw(st.integers(0, 8))
    rows = draw(st.lists(st.integers(0, (1 << n_cols) - 1), max_size=8))
    return rows, n_cols


def combination(rows, mask):
    return reduce(lambda acc, i: acc ^ rows[i], [i for i in range(len(rows)) if mask >> i & 1], 0)


def parity(x):
    return bin(x).count("1") & 1


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_gf2_routines_match_enumeration(matrix):
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
    null = {v for v in range(1 << n_cols) if all(parity(row & v) == 0 for row in rows)}
    basis = gf2_nullspace(rows, n_cols)
    assert set(basis) <= null
    assert gf2_rank(basis) == len(basis) == n_cols - rank
    assert 1 << len(basis) == len(null)
