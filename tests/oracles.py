"""Independent brute-force oracles shared across tests.

These deliberately avoid the incidence-matrix machinery in the package:
syndrome histories are simulated event by event and differenced, so the
detector model can be checked against a second, unrelated construction.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

from stmarkov.codes import CssCode
from stmarkov.spacetime import DetectorModel


def history_from_errors(
    code: CssCode,
    T: int,
    data_x: Iterable[Tuple[int, int]] = (),
    data_z: Iterable[Tuple[int, int]] = (),
    readout: Iterable[Tuple[str, int, int]] = (),
) -> np.ndarray:
    """Syndrome history (n_checks, T+1) from explicit fault locations.

    data_x/data_z entries are (qubit, interface t) with 0 <= t < T; readout
    entries are (sector, check, round r) with 1 <= r <= T. Z-checks of round r
    are measured at layer r; X-checks of round r at layer r - 1/2, so a data Z
    fault on interface t is seen by X-check rounds >= t + 2.
    """
    data_x = list(data_x)
    data_z = list(data_z)
    readout = set(readout)
    n_checks = code.n_z_checks + code.n_x_checks
    hist = np.zeros((n_checks, T + 1), dtype=np.uint8)
    for c in range(code.n_z_checks):
        sup = set(int(i) for i in code.check_support("z", c))
        for r in range(1, T + 2):
            acc = sum(1 for (i, t) in data_x if i in sup and t < r) % 2
            flip = 1 if r <= T and ("z", c, r) in readout else 0
            hist[c, r - 1] = acc ^ flip
    for b in range(code.n_x_checks):
        sup = set(int(i) for i in code.check_support("x", b))
        for r in range(1, T + 2):
            acc = sum(1 for (i, t) in data_z if i in sup and t <= r - 2) % 2
            flip = 1 if r <= T and ("x", b, r) in readout else 0
            hist[code.n_z_checks + b, r - 1] = acc ^ flip
    return hist


def detectors_from_history(model: DetectorModel, hist: np.ndarray) -> np.ndarray:
    """Difference consecutive rounds by the detector definition."""
    out = np.zeros(model.n_detectors, dtype=np.uint8)
    for idx, det in enumerate(model.detectors):
        row = det.check if det.sector == "z" else model.code.n_z_checks + det.check
        prev = 0 if det.t == 0 else int(hist[row, det.t - 1])
        out[idx] = prev ^ int(hist[row, det.t])
    return out


def mechanism_events(model: DetectorModel, bits: np.ndarray):
    """Split a mechanism indicator vector into oracle event lists."""
    data_x, data_z, readout = [], [], []
    for k in np.flatnonzero(bits):
        m = model.mechanisms[k]
        if m.kind == "data_x":
            data_x.append((m.index, m.time))
        elif m.kind == "data_z":
            data_z.append((m.index, m.time))
        else:
            readout.append((m.sector, m.index, m.time))
    return data_x, data_z, readout


def oracle_detectors(model: DetectorModel, bits: np.ndarray) -> np.ndarray:
    dx, dz, ro = mechanism_events(model, bits)
    hist = history_from_errors(model.code, model.rounds, dx, dz, ro)
    return detectors_from_history(model, hist)


def enumerate_region_distribution(
    model: DetectorModel,
    region: Sequence[int],
    max_mechs: int = 22,
    all_mechanisms: bool = False,
) -> Dict[int, float]:
    """Exact P(detector pattern on region) by direct mechanism enumeration.

    Patterns are packed little-endian in region order. Independent of the
    package's entropy module (plain itertools loop). With ``all_mechanisms``
    every mechanism is enumerated, not just region-incident ones, which
    checks the locality restriction itself.
    """
    mechs = (
        list(range(model.n_mechanisms)) if all_mechanisms else model.region_mechanisms(region)
    )
    if len(mechs) > max_mechs:
        raise ValueError(f"too many mechanisms for oracle: {len(mechs)}")
    pos = {d: j for j, d in enumerate(region)}
    cols = []
    for k in mechs:
        mask = 0
        for d in model.mechanisms[k].detectors:
            if d in pos:
                mask |= 1 << pos[d]
        cols.append(mask)
    probs = [model.mechanisms[k].p for k in mechs]
    dist: Dict[int, float] = {}
    for assignment in itertools.product((0, 1), repeat=len(mechs)):
        pattern = 0
        pr = 1.0
        for bit, mask, p in zip(assignment, cols, probs):
            if bit:
                pattern ^= mask
                pr *= p
            else:
                pr *= 1.0 - p
        dist[pattern] = dist.get(pattern, 0.0) + pr
    return dist


def entropy_of_dist(dist: Dict[int, float]) -> float:
    ps = np.array([p for p in dist.values() if p > 0.0])
    return float(-(ps * np.log2(ps)).sum())


def _plugin_entropy_bits(counts: np.ndarray, n: int, width: int, correction: bool) -> float:
    c = counts[counts > 0].astype(np.float64)
    p = c / n
    h = float(-(p * np.log2(p)).sum())
    if correction:
        h += (c.size - 1) / (2.0 * n * np.log(2.0))
    return min(max(h, 0.0), float(width))


def four_histogram_cmi(batch, tri, correction: bool = True):
    """Sampled CMI of one tripartition from four separate histograms.

    Histograms AB, BC, B and ABC each with ``np.unique`` over their own packed
    patterns, one count column per chunk. Returns the CMI, its
    leave-one-chunk-out values and the ABC support.
    """
    n = batch.n_samples
    n_chunks = batch.n_chunks
    pos = {d: j for j, d in enumerate(batch.region)}
    region = sorted(set(tri.a) | set(tri.b) | set(tri.c))
    subsets = [
        sorted(set(tri.a) | set(tri.b)),
        sorted(set(tri.b) | set(tri.c)),
        sorted(tri.b),
        region,
    ]
    full, loo = [], []
    support = 0
    for sub in subsets:
        if not sub:
            full.append(0.0)
            loo.append(np.zeros(n_chunks))
            continue
        patterns = np.zeros(n, dtype=np.uint64)
        for j, d in enumerate(sub):
            bits = np.unpackbits(batch.rows[pos[d]], bitorder="little", count=n)
            patterns |= bits.astype(np.uint64) << np.uint64(j)
        cols = []
        for i in range(n_chunks):
            cols.append(patterns[batch.chunk_bounds[i]:batch.chunk_bounds[i + 1]])
        values, totals = np.unique(patterns, return_counts=True)
        table = np.zeros((values.size, n_chunks), dtype=np.int64)
        for i, col in enumerate(cols):
            v, c = np.unique(col, return_counts=True)
            table[np.searchsorted(values, v), i] = c
        full.append(_plugin_entropy_bits(totals, n, len(sub), correction))
        loo.append(np.array([
            _plugin_entropy_bits(totals - table[:, i], n - cols[i].size, len(sub), correction)
            for i in range(n_chunks)
        ]))
        support = values.size
    value = full[0] + full[1] - full[2] - full[3]
    return value, loo[0] + loo[1] - loo[2] - loo[3], support
