"""Shannon entropies of detector and syndrome distributions.

Three routes with different trust levels: plug-in (optionally Miller-Madow
corrected) estimates from sampled patterns, an exact brute-force oracle that
enumerates region-incident mechanisms, and a GF(2)-rank oracle valid at
p = 1/2 where the detector distribution is uniform over the image of the
incidence matrix.

Sampled patterns reach an entropy one way: ``_chunk_table`` counts them into
one (pattern x chunk) table, ``_marginal_table`` sums it onto a sub-region,
``_table_entropies`` gives its full-sample and leave-one-chunk-out plug-in
entropies and ``_jackknife_std`` the one delete-one-chunk error. The sampled
CMI of ``markov`` reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .codes import CssCode
from .gf2 import gf2_nullspace, gf2_rank, gf2_solve
from .spacetime import DetectorModel, NoiseModel, build_detector_model

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
    patterns: np.ndarray, bounds: Sequence[int], width: int
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """(pattern x chunk) counts of ``width``-bit sample patterns split at ``bounds``.

    Returns (table, values). The table is dense (values None, row index =
    pattern) when it holds no more cells than samples; otherwise its rows are
    the observed patterns, listed in ascending order in ``values``.
    """
    n_chunks = len(bounds) - 1
    if (1 << width) * n_chunks <= patterns.size:
        values, row, n_rows = None, patterns.astype(np.int64), 1 << width
    else:
        # A dense table would outgrow the samples: index the observed patterns.
        values, row = np.unique(patterns, return_inverse=True)
        n_rows = values.size
    table = np.empty((n_rows, n_chunks), dtype=np.int64)
    for i in range(n_chunks):
        table[:, i] = np.bincount(row[bounds[i]:bounds[i + 1]], minlength=n_rows)
    return table, values


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
    uniq, inverse = np.unique(repack_bits(values, keep), return_inverse=True)
    out = np.zeros((uniq.size, n_chunks), dtype=np.int64)
    np.add.at(out, inverse, table)
    return out


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
    """Pattern-list variant for wide regions with few mechanisms."""
    patterns = np.zeros(1, dtype=np.uint64)
    weight = np.ones(1, dtype=np.float64)
    for mask, p in zip(masks, probs):
        if mask == 0:
            weight = weight * (1.0 - p) + weight * p
            continue
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
    little-endian in the given order. Refused above ``cap`` incident
    mechanisms.
    """
    region = list(region)
    if not region:
        raise ValueError("region must be nonempty")
    mechs = model.region_mechanisms(region)
    if len(mechs) > cap:
        raise BruteForceCapExceeded(len(mechs), cap)
    pos = {d: j for j, d in enumerate(region)}
    masks = []
    probs = []
    for k in mechs:
        mask = 0
        for d in model.mechanisms[k].detectors:
            if d in pos:
                mask |= 1 << pos[d]
        masks.append(mask)
        probs.append(model.mechanisms[k].p)
    width = len(region)
    if width <= 24:
        table = _xor_dp_table(masks, probs, width)
        values = np.flatnonzero(table > 0.0).astype(np.uint64)
        return values, table[values.astype(np.int64)]
    return _xor_dp_sparse(masks, probs)


def marginal_entropy(values: np.ndarray, probs: np.ndarray, positions: Sequence[int]) -> float:
    """Entropy of a bit-subset marginal of an exact pattern distribution."""
    agg_vals, inverse = np.unique(repack_bits(values, positions), return_inverse=True)
    agg = np.zeros(agg_vals.size, dtype=np.float64)
    np.add.at(agg, inverse, probs)
    return _entropy_bits(agg)


def exact_entropy(model: DetectorModel, region: Sequence[int], cap: int = 22) -> float:
    """Exact H(d_region) in bits by mechanism enumeration."""
    values, probs = exact_region_dist(model, region, cap=cap)
    return _entropy_bits(probs)


def rank_entropy_half(model: DetectorModel, region: Sequence[int]) -> float:
    """H(d_region) at p = 1/2 everywhere: GF(2) rank of the region rows of M.

    The detector distribution is then uniform over the image of the region
    submatrix, so the entropy is its rank in bits.
    """
    for mech in model.mechanisms:
        if mech.p != 0.5:
            raise ValueError("rank oracle requires every mechanism at p = 1/2")
    rows = []
    for d in region:
        row = 0
        for k in model.incident_mechanisms(d):
            row |= 1 << k
        rows.append(row)
    return float(gf2_rank(rows))


@dataclass
class DecompositionReport:
    """Raw-syndrome entropy decomposition H(s) = H(d) + |s| - |d|."""

    h_s: float
    h_d: float
    n_syndromes: int
    n_deterministic: int
    residual: float
    deterministic_are_detector_combos: bool
    rank_frame: int


def _syndrome_structure(
    model: DetectorModel, region: Sequence[Tuple[str, int, int]]
) -> Tuple[List[int], List[int], int]:
    """Mechanism masks and teleportation-frame masks per region syndrome bit.

    Frame columns are the X-measurement outcomes of code-qubit copies whose
    byproducts enter each measured syndrome: half-integer layers below a
    Z-check instance, integer layers (from 0) below an X-check instance.
    """
    code = model.code
    T = model.rounds
    mech_masks: List[int] = []
    frame_masks: List[int] = []
    ucols: Dict[Tuple[int, int], int] = {}

    def ucol(i: int, tick: int) -> int:
        key = (i, tick)
        if key not in ucols:
            ucols[key] = len(ucols)
        return ucols[key]

    for sector, c, r in region:
        n_checks = code.n_z_checks if sector == "z" else code.n_x_checks
        if not (0 <= c < n_checks and 1 <= r <= T + 1):
            raise ValueError(f"syndrome ({sector},{c},{r}) outside the run")
        sup = set(int(i) for i in code.check_support(sector, c))
        mm = 0
        for k, mech in enumerate(model.mechanisms):
            if sector == "z":
                hit = (
                    mech.kind == "data_x" and mech.index in sup and mech.time < r
                ) or (mech.kind == "readout" and mech.sector == "z" and mech.index == c and mech.time == r)
            else:
                hit = (
                    mech.kind == "data_z" and mech.index in sup and mech.time <= r - 2
                ) or (mech.kind == "readout" and mech.sector == "x" and mech.index == c and mech.time == r)
            if hit:
                mm |= 1 << k
        fm = 0
        for i in sup:
            for t in range(r):
                tick = 2 * t + 1 if sector == "z" else 2 * t
                fm |= 1 << ucol(i, tick)
        mech_masks.append(mm)
        frame_masks.append(fm)
    return mech_masks, frame_masks, len(ucols)


def entropy_decomposition_check(
    code: CssCode,
    rounds: int,
    noise: NoiseModel,
    region: Sequence[Tuple[str, int, int]],
    cap: int = 24,
) -> DecompositionReport:
    """Verify H(s) = H(d) + |s| - |d| on a region of raw syndrome bits.

    Raw syndromes carry the uniformly random teleportation byproducts of the
    measurement-based implementation, so only frame-free combinations are
    deterministic; these must be combinations of detectors. H(s) is computed
    from the frame structure plus the exact distribution of the deterministic
    combinations over the mechanisms, H(d) independently from the exact
    distribution of the detectors those combinations read.
    """
    model = build_detector_model(code, rounds, noise)
    if model.n_mechanisms > cap:
        raise BruteForceCapExceeded(model.n_mechanisms, cap)
    region = list(region)
    mech_masks, frame_masks, n_ucols = _syndrome_structure(model, region)
    n_s = len(region)

    # Combinations of region syndromes whose frames cancel: the left
    # nullspace of the frame matrix.
    col_rows = []
    for u in range(n_ucols):
        col = 0
        for i, fm in enumerate(frame_masks):
            if (fm >> u) & 1:
                col |= 1 << i
        col_rows.append(col)
    combo_basis = gf2_nullspace(col_rows, n_s)
    n_d = len(combo_basis)
    rank_frame = n_s - n_d

    # Mechanism footprint of each deterministic combination (syndrome route).
    sigma_masks = []
    for combo in combo_basis:
        m = 0
        for i in range(n_s):
            if (combo >> i) & 1:
                m ^= mech_masks[i]
        sigma_masks.append(m)

    # Each deterministic combination must be a combination of detector rows.
    det_rows = []
    for d in range(model.n_detectors):
        row = 0
        for k in model.incident_mechanisms(d):
            row |= 1 << k
        det_rows.append(row)
    det_combos = [gf2_solve(det_rows, m) for m in sigma_masks]
    combos_ok = all(w is not None for w in det_combos)

    probs = [m.p for m in model.mechanisms]

    def label_entropy(label_masks: List[int]) -> float:
        per_mech = []
        for k in range(model.n_mechanisms):
            lab = 0
            for j, m in enumerate(label_masks):
                if (m >> k) & 1:
                    lab |= 1 << j
            per_mech.append(lab)
        table = _xor_dp_table(per_mech, probs, len(label_masks))
        return _entropy_bits(table)

    h_labels_sigma = label_entropy(sigma_masks) if n_d else 0.0
    h_d = 0.0 if combos_ok else float("nan")
    read = sorted({d for w in det_combos for d in range(model.n_detectors) if (w >> d) & 1})
    if combos_ok and read:
        # The detector route: the exact distribution of the detectors the
        # combinations read, each pattern mapped to its combination bits.
        values, dist = exact_region_dist(model, read, cap=cap)
        labels = np.zeros(values.size, dtype=np.uint64)
        for j, w in enumerate(det_combos):
            for i, d in enumerate(read):
                if (w >> d) & 1:
                    labels ^= ((values >> np.uint64(i)) & np.uint64(1)) << np.uint64(j)
        h_d = marginal_entropy(labels, dist, range(n_d))

    h_s = (n_s - n_d) + h_labels_sigma
    residual = h_s - (h_d + n_s - n_d) if combos_ok else float("nan")
    return DecompositionReport(
        h_s=h_s,
        h_d=h_d,
        n_syndromes=n_s,
        n_deterministic=n_d,
        residual=residual,
        deterministic_are_detector_combos=combos_ok,
        rank_frame=rank_frame,
    )


def full_syndrome_region(model: DetectorModel) -> List[Tuple[str, int, int]]:
    """All (sector, check, round) syndrome coordinates including the perfect round."""
    out = []
    for sector, n_checks in (("z", model.code.n_z_checks), ("x", model.code.n_x_checks)):
        for c in range(n_checks):
            for r in range(1, model.rounds + 2):
                out.append((sector, c, r))
    return out
