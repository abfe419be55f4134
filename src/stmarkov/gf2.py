"""GF(2) linear algebra on bit-packed integer rows.

Rows are Python ints used as bitsets (bit j = column j), which keeps rank
and span computations exact and fast for the matrix sizes handled here.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np


def bitset(indices: Iterable[int]) -> int:
    """The int bitset with bit j set for each of the distinct ``indices``."""
    return sum(1 << int(j) for j in indices)


def _eliminate(
    rows: Iterable[int], tags: Optional[Sequence[int]] = None
) -> Tuple[List[Tuple[int, int]], List[int]]:
    """Gaussian elimination of ``rows`` in order, tagging what each result is made of.

    Row i starts with tag ``tags[i]`` (by default bit i, marking rows[i]),
    and every XOR of two rows XORs their tags. Returns (pivots,
    dependencies): a pivot is (reduced row, tag) and a dependency is the tag
    of an input row that reduced to zero. A result's tag is the XOR of the
    start tags of the rows that XOR to it (to zero for a dependency).
    """
    pivots: List[Tuple[int, int]] = []
    dependencies: List[int] = []
    for i, row in enumerate(rows):
        row, tag = _reduce(row, 1 << i if tags is None else tags[i], pivots)
        if row:
            pivots.append((row, tag))
        else:
            dependencies.append(tag)
    return pivots, dependencies


def _reduce(row: int, tag: int, pivots: Sequence[Tuple[int, int]]) -> Tuple[int, int]:
    """Reduce a tagged row by each pivot that lowers it, XORing the pivots' tags in."""
    for prow, ptag in pivots:
        nxt = row ^ prow
        if nxt < row:
            row, tag = nxt, tag ^ ptag
    return row, tag


def gf2_rank(rows: Iterable[int]) -> int:
    """Rank over GF(2) via elimination on int bitsets."""
    return len(_eliminate(rows)[0])


def gf2_in_rowspan(vec: int, rows: Sequence[int]) -> bool:
    return gf2_solve(rows, vec) is not None


def gf2_solve(rows: Sequence[int], target: int) -> Optional[int]:
    """Find a combination mask c with XOR_{i in c} rows[i] == target, or None.

    Bit i of the returned mask selects rows[i].
    """
    residual, mask = _reduce(target, 0, _eliminate(rows)[0])
    return mask if residual == 0 else None


def gf2_dependencies(rows: Sequence[int], tags: Optional[Sequence[int]] = None) -> List[int]:
    """Tags of a basis of the combinations of ``rows`` that XOR to zero.

    A combination's tag is the XOR of ``tags`` over the rows it selects; by
    default tags[i] is bit i, so each result is the mask of its rows. The
    basis has len(rows) - rank elements.
    """
    return _eliminate(rows, tags)[1]


def matrix_to_rows(mat: np.ndarray) -> List[int]:
    """Pack a 2D 0/1 array into a list of int bitset rows."""
    return [bitset(np.flatnonzero(row)) for row in mat]
