"""Shannon entropies of detector and syndrome distributions.

Three routes with different trust levels: plug-in (optionally Miller-Madow
corrected) estimates from sampled patterns, an exact brute-force oracle that
enumerates region-incident mechanisms, and a GF(2)-rank oracle valid at
p = 1/2 where the detector distribution is uniform over the image of the
incidence matrix.

Sampled patterns reach an entropy one way: ``_chunk_table`` counts them,
one chunk's patterns at a time, into one (pattern x chunk) table,
``_marginal_table`` sums it onto a sub-region, ``_table_entropies`` gives its
full-sample and leave-one-chunk-out plug-in entropies and ``_jackknife_std``
the one delete-one-chunk error. The sampled CMI of ``markov`` reads them.
Listed patterns, a compacted count table's or an exact distribution's, are
summed onto a bit subset by one helper, ``_marginal_sum``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .gf2 import gf2_dependencies, gf2_rank, gf2_solve
from .sampler import PatternWidthExceeded
from .spacetime import DATA_SECTOR, KINDS, SECTOR_SHIFT, SECTORS, DetectorModel

LN2 = math.log(2.0)


class BruteForceCapExceeded(ValueError):
    def __init__(self, count: int, cap: int, what: str = "mechanisms"):
        super().__init__(f"{count} {what} exceed brute-force cap {cap}")
        self.count = count
        self.cap = cap


def _entropy_bits(probs: np.ndarray) -> float:
    p = probs[probs > 0.0]
    return float(-(p * np.log2(p)).sum())


def _jackknife_std(loo: np.ndarray) -> float:
    """Delete-one-chunk jackknife standard error from leave-one-out values."""
    n_chunks = loo.size
    mean = loo.mean()
    var = (n_chunks - 1) / n_chunks * ((loo - mean) ** 2).sum()
    return math.sqrt(max(var, 0.0))


def repack_bits(values: np.ndarray, positions: Sequence[int]) -> np.ndarray:
    """Each pattern of ``values`` repacked onto the bits ``positions``, bit j = positions[j]."""
    sub = np.zeros(values.size, dtype=np.uint64)
    for j, p in enumerate(positions):
        sub |= ((values >> np.uint64(p)) & np.uint64(1)) << np.uint64(j)
    return sub


def _chunk_table(
    read: Callable[[int, int], np.ndarray], bounds: Sequence[int], width: int
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """(pattern x chunk) counts of ``width``-bit sample patterns, counted one chunk at a time.

    ``read(lo, hi)`` gives the patterns of samples lo..hi-1; it is called
    once per chunk of ``bounds``, in order, so only one chunk's patterns
    exist at a time. Returns (table, values). The table is dense (values
    None, row index = pattern) when it holds no more cells than samples;
    otherwise its rows are the observed patterns, listed in ascending order
    in ``values``.
    """
    spans = list(zip(bounds[:-1], bounds[1:]))
    if (1 << width) * len(spans) <= bounds[-1]:
        table = np.empty((1 << width, len(spans)), dtype=np.int64)
        for i, (lo, hi) in enumerate(spans):
            # Dense patterns lie below 2^width, so their int64 view is their value.
            table[:, i] = np.bincount(read(lo, hi).view(np.int64), minlength=1 << width)
        return table, None
    # A dense table would outgrow the samples: index the observed patterns.
    counted = [np.unique(read(lo, hi), return_counts=True) for lo, hi in spans]
    values = np.unique(np.concatenate([v for v, _ in counted]))
    table = np.zeros((values.size, len(spans)), dtype=np.int64)
    for i, (v, k) in enumerate(counted):
        table[np.searchsorted(values, v), i] = k
    return table, values


def _marginal_sum(values: np.ndarray, weights: np.ndarray, positions: Sequence[int]) -> np.ndarray:
    """``weights`` rows summed by the packed ``positions`` bits of their (repeatable) ``values``.

    Result rows come in ascending packed order, in ``weights``' dtype.
    """
    uniq, inverse = np.unique(repack_bits(values, positions), return_inverse=True)
    out = np.zeros((uniq.size,) + weights.shape[1:], dtype=weights.dtype)
    np.add.at(out, inverse, weights)
    return out


def _marginal_table(
    table: np.ndarray, values: Optional[np.ndarray], width: int, keep: List[int]
) -> np.ndarray:
    """(pattern x chunk) counts over the ascending bits ``keep`` of a table.

    ``values`` is None for a dense table (row index = ``width``-bit pattern);
    otherwise it lists the ascending pattern of each row. Rows of the result
    come in ascending order of the packed ``keep`` bits, bit j = ``keep[j]``.
    """
    if keep == list(range(width)):
        return table
    n_chunks = table.shape[1]
    if values is None:
        # Axis i of the bit-cube holds pattern bit width - 1 - i, so the axes
        # left after summing out the other bits flatten in packed order.
        cube = table.reshape((2,) * width + (n_chunks,))
        drop = tuple(width - 1 - i for i in range(width) if i not in keep)
        return cube.sum(axis=drop).reshape(-1, n_chunks)
    return _marginal_sum(values, table, keep)


def _table_entropies(table: np.ndarray, width: int, correction: bool) -> np.ndarray:
    """Entropy of a (pattern x chunk) table's full sample, then with each chunk left out.

    Row 0 counts the full sample and row i + 1 the sample without chunk i.
    Each row's plug-in entropy in bits is clamped to [0, width];
    ``correction`` adds the Miller-Madow term (support - 1) / (2 n ln 2). An
    empty sample (n = 0: a chunk holding every sample left out) has entropy 0.
    """
    totals = table.sum(axis=1)
    sizes = table.sum(axis=0)
    n_rows = sizes.size + 1
    n = np.concatenate(([sizes.sum()], sizes.sum() - sizes))  # each row's sample size
    h = np.empty(n_rows)
    support = np.empty(n_rows, dtype=np.int64)
    # A block's transients (float counts, mask, positive counts with their
    # sample sizes, then their logs) peak at about 26 bytes per pattern and
    # row. Blocks are sized to half the table's bytes, or to 512 KiB for a
    # small table, so a large table's pass stays below the table itself.
    budget = max(table.nbytes, 1 << 20) // 2
    step = max(1, budget // (26 * max(totals.size, 1)))
    for lo in range(0, n_rows, step):
        hi = min(lo + step, n_rows)
        counts = np.empty((hi - lo, totals.size))
        counts[:] = totals
        first = max(lo, 1)
        counts[first - lo:] -= table[:, first - 1:hi - 1].T
        positive = counts > 0
        support[lo:hi] = np.count_nonzero(positive, axis=1)
        # Row-major compaction keeps each row's counts contiguous and in
        # ascending pattern order, so summing a row's slice adds the same
        # values in the same (pairwise) order as summing that row alone.
        c = counts[positive]
        del counts, positive
        c /= np.repeat(n[lo:hi], support[lo:hi])
        terms = np.log2(c)
        terms *= c
        del c
        ends = np.cumsum(support[lo:hi]).tolist()
        h[lo:hi] = [terms[a:b].sum() for a, b in zip([0] + ends[:-1], ends)]
    h = -h
    nonempty = n > 0
    if correction:
        h[nonempty] += (support[nonempty] - 1) / (2.0 * n[nonempty] * LN2)
    h[~nonempty] = 0.0
    # min(max(h, 0.0), width) row by row, signed zeros included: a
    # one-pattern row without the correction keeps its -0.0.
    h = np.where(0.0 > h, 0.0, h)
    return np.where(h > float(width), float(width), h)


def _xor_dp_table(masks: Sequence[int], probs: Sequence[float], width: int) -> np.ndarray:
    """Exact pattern distribution from independent XOR contributions."""
    size = 1 << width
    table = np.zeros(size, dtype=np.float64)
    table[0] = 1.0
    idx = np.arange(size, dtype=np.uint64)
    for mask, p in zip(masks, probs):
        if mask == 0:
            continue
        perm = (idx ^ np.uint64(mask)).astype(np.int64)
        table = (1.0 - p) * table + p * table[perm]
    return table


def _xor_dp_sparse(masks: Sequence[int], probs: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Pattern-list variant for wide regions with few mechanisms, each mask nonzero."""
    patterns = np.zeros(1, dtype=np.uint64)
    weight = np.ones(1, dtype=np.float64)
    for mask, p in zip(masks, probs):
        patterns = np.concatenate([patterns, patterns ^ np.uint64(mask)])
        weight = np.concatenate([weight * (1.0 - p), weight * p])
    values, inverse = np.unique(patterns, return_inverse=True)
    probs_out = np.zeros(values.size, dtype=np.float64)
    np.add.at(probs_out, inverse, weight)
    return values, probs_out


def exact_region_dist(
    model: DetectorModel, region: Sequence[int], cap: int = 22
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact joint distribution of detector bits on a region.

    Returns (patterns, probabilities); patterns pack region bits
    little-endian in the given order. Refused wider than a 64-bit pattern
    and above ``cap`` incident mechanisms.
    """
    region = model.checked_region(region)
    if len(region) > 64:
        raise PatternWidthExceeded(len(region), 64)
    mechs = model.region_mechanisms(region)
    if len(mechs) > cap:
        raise BruteForceCapExceeded(len(mechs), cap)
    pos = {d: j for j, d in enumerate(region)}
    offsets, dets = model.footprints(mechs)
    dets, offsets = dets.tolist(), offsets.tolist()
    masks = []
    for lo, hi in zip(offsets, offsets[1:]):
        mask = 0
        for d in dets[lo:hi]:
            if d in pos:
                mask |= 1 << pos[d]
        masks.append(mask)
    probs = model.mechanism_probs()[mechs].tolist()
    width = len(region)
    if width <= 24:
        table = _xor_dp_table(masks, probs, width)
        values = np.flatnonzero(table > 0.0).astype(np.uint64)
        return values, table[values.astype(np.int64)]
    return _xor_dp_sparse(masks, probs)


def marginal_entropy(values: np.ndarray, probs: np.ndarray, positions: Sequence[int]) -> float:
    """Entropy of a bit-subset marginal of an exact pattern distribution."""
    return _entropy_bits(_marginal_sum(values, probs, positions))


def exact_entropy(model: DetectorModel, region: Sequence[int], cap: int = 22) -> float:
    """Exact H(d_region) in bits by mechanism enumeration."""
    values, probs = exact_region_dist(model, region, cap=cap)
    return _entropy_bits(probs)


def _detector_rows(model: DetectorModel, detectors: Iterable[int]) -> List[int]:
    """Each detector's row of the incidence matrix as an int bitset (bit k = mechanism k)."""
    rows = []
    for d in detectors:
        row = 0
        for k in model.incident_mechanisms(d):
            row |= 1 << k
        rows.append(row)
    return rows


def rank_entropy_half(model: DetectorModel, region: Sequence[int]) -> float:
    """H(d_region) at p = 1/2 everywhere: GF(2) rank of the region rows of M.

    The detector distribution is then uniform over the image of the region
    submatrix, so the entropy is its rank in bits.
    """
    if np.any(model.mechanism_probs() != 0.5):
        raise ValueError("rank oracle requires every mechanism at p = 1/2")
    return float(gf2_rank(_detector_rows(model, region)))


@dataclass
class DecompositionReport:
    """Raw-syndrome entropy decomposition H(s) = H(d) + |s| - |d|."""

    h_s: float
    h_d: float
    n_syndromes: int
    n_deterministic: int
    residual: float
    deterministic_are_detector_combos: bool


def _syndrome_structure(
    model: DetectorModel, region: Sequence[Tuple[str, int, int]]
) -> Tuple[List[int], List[int]]:
    """Mechanism masks and teleportation-frame masks per region syndrome bit.

    Frame columns are the X-measurement outcomes of code-qubit copies whose
    byproducts enter each measured syndrome: for round r of a check, the
    copies of its support at ticks 2t + 1 - shift, t = 0..r-1, with shift
    its sector's ``SECTOR_SHIFT``.
    """
    code = model.code
    T = model.rounds
    mechs = model.mechanisms
    mech_masks: List[int] = []
    frame_masks: List[int] = []
    ucols: Dict[Tuple[int, int], int] = {}  # frame column of each (qubit, tick)
    for sector, c, r in region:
        if not (sector in SECTOR_SHIFT and 0 <= c < len(code.checks(sector)) and 1 <= r <= T + 1):
            raise ValueError(f"syndrome ({sector},{c},{r}) outside the run")
        shift = SECTOR_SHIFT[sector]
        sup = set(int(i) for i in code.check_support(sector, c))
        # Data errors on the check's support at interfaces before its round-r
        # measurement, and the check's own readout flip of round r.
        data = np.array([DATA_SECTOR.get(k) == sector for k in KINDS])[mechs.kind]
        before = mechs.time < r - shift
        readout = (mechs.kind == KINDS.index("readout")) & (mechs.sector == SECTORS.index(sector))
        hit = (data & np.isin(mechs.index, list(sup)) & before) | (
            readout & (mechs.index == c) & (mechs.time == r)
        )
        mm = sum(1 << k for k in np.flatnonzero(hit).tolist())
        fm = 0
        for i in sup:
            for t in range(r):
                fm |= 1 << ucols.setdefault((i, 2 * t + 1 - shift), len(ucols))
        mech_masks.append(mm)
        frame_masks.append(fm)
    return mech_masks, frame_masks


def entropy_decomposition_check(
    model: DetectorModel, region: Sequence[Tuple[str, int, int]], cap: int = 24
) -> DecompositionReport:
    """Verify H(s) = H(d) + |s| - |d| on a region of raw syndrome bits.

    Raw syndromes carry the uniformly random teleportation byproducts of the
    measurement-based implementation, so only frame-free combinations are
    deterministic; these must be combinations of detectors. H(s) is computed
    from the frame structure plus the exact distribution of the deterministic
    combinations over the mechanisms, H(d) independently from the exact
    distribution of the detectors those combinations read. If a deterministic
    combination is not a sum of detector rows, ``h_d`` and ``residual`` are
    NaN. Refused above ``cap`` mechanisms in the model.
    """
    if model.n_mechanisms > cap:
        raise BruteForceCapExceeded(model.n_mechanisms, cap)
    region = list(region)
    mech_masks, frame_masks = _syndrome_structure(model, region)
    n_s = len(region)

    # The mechanism footprint (syndrome route) of each combination in a basis
    # of the region syndromes whose frames cancel: eliminating the frame masks
    # with the mechanism masks as tags.
    sigma_masks = gf2_dependencies(frame_masks, mech_masks)
    n_d = len(sigma_masks)

    # Each deterministic combination must be a combination of detector rows.
    det_rows = _detector_rows(model, range(model.n_detectors))
    det_combos = [gf2_solve(det_rows, m) for m in sigma_masks]
    combos_ok = all(w is not None for w in det_combos)

    # Each mechanism's label: bit j set when it enters combination j.
    mech_labels = [sum(((m >> k) & 1) << j for j, m in enumerate(sigma_masks))
                   for k in range(model.n_mechanisms)]
    probs = model.mechanism_probs().tolist()
    h_s = (n_s - n_d) + _entropy_bits(_xor_dp_table(mech_labels, probs, n_d))
    h_d = 0.0 if combos_ok else float("nan")
    read = sorted({d for w in det_combos for d in range(model.n_detectors) if (w >> d) & 1}
                  if combos_ok else ())
    if read:
        # The detector route: the exact distribution of the detectors the
        # combinations read, each pattern mapped to its combination bits.
        values, dist = exact_region_dist(model, read, cap=cap)
        labels = np.zeros(values.size, dtype=np.uint64)
        for j, w in enumerate(det_combos):
            for i, d in enumerate(read):
                if (w >> d) & 1:
                    labels ^= ((values >> np.uint64(i)) & np.uint64(1)) << np.uint64(j)
        h_d = marginal_entropy(labels, dist, range(n_d))

    return DecompositionReport(
        h_s=h_s,
        h_d=h_d,
        n_syndromes=n_s,
        n_deterministic=n_d,
        residual=h_s - (h_d + n_s - n_d),
        deterministic_are_detector_combos=combos_ok,
    )


def full_syndrome_region(model: DetectorModel) -> List[Tuple[str, int, int]]:
    """All (sector, check, round) syndrome coordinates including the perfect round."""
    return [
        (sector, c, r)
        for sector in SECTOR_SHIFT
        for c in range(len(model.code.checks(sector)))
        for r in range(1, model.rounds + 2)
    ]
