"""Tripartition geometry, CMI estimation, and Markov-length extraction.

Tripartitions are built by ``lattice_tripartition`` over a coordinate
lattice {(*space, t): detector index} (space wraps, time is open): a sector
of a detector model (``build_tripartition``, which also checks that no
mechanism touches both A and C) or an interchange header's detectors.
``ladder_rungs`` places the rungs of every ladder. Two layouts:

* ``ring``: A is a (w_A)^D block, B the full Chebyshev annulus of width w_B
  around it, C a (w_C)^D probe block at distance w_B + 1 along the first
  space axis. Feasible for small w_B; used for oracle-scale checks.
* ``strip``: A, B, C are time-stacked blocks sharing A's spatial footprint,
  with B the w_B-deep buffer between A and C. The stack runs along the open
  time axis so no wraparound path connects A and C from behind, and widths
  stay small enough for sampled histograms at every rung of the w_B ladder.
  At these histogram-feasible widths the fitted decay length is microscopic:
  on the repetition code it reads about 0.54 at every p and every L, and it
  cannot grow with L, because the marginal of a fixed bulk region does not
  depend on the lattice size.

CMI is reported in bits; the decay convention is I ~ exp(-dist/xi), so the
fitted xi is an e-folding length in lattice units.

Sampled CMI reads every tripartition at one ladder anchor from one count
table, over the union of their detectors (``_anchor_cmis``); a single
tripartition (``cmi``) is a ladder of one rung at one anchor.

Sweep cells are computed by one entry, ``sweep_cells``: it takes an ordered
list of (L, T, p) cells, fits a w_B ladder per cell and yields the cells in
order. The ``run`` and ``sweep`` commands of the CLI call it.
Decoder curves over the same grid come from one loop too: ``rate_points``
yields the logical error rate of each (L, T, p) point in grid order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import product as iproduct, starmap
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .codes import repetition_code, toric_code
from .decoder import RatePoint, logical_error_rate
from .entropy import (
    LN2,
    _chunk_table,
    _jackknife_std,
    _marginal_table,
    _table_entropies,
    exact_region_dist,
    marginal_entropy,
)
from .sampler import PatternWidthExceeded, pattern_rows, sample_batch, subset_patterns
from .spacetime import (
    DetectorModel,
    NoiseModel,
    Tripartition,
    build_detector_model,
    chebyshev_distance,
)

FLOOR_SIGMA = 3.0
MIN_POINTS = 3


class FitError(ValueError):
    """Markov-length fit could not be performed; carries the reason."""


@dataclass
class CmiPoint:
    dist: int
    cmi: float
    std_error: float
    method: str
    n_samples: int
    descriptor: Dict[str, object] = field(default_factory=dict)
    support_abc: int = 0
    reliable: bool = True  # False when the histogram support crowds n


@dataclass
class MarkovFit:
    xi: float
    xi_stderr: float
    slope_log2: float
    slope_stderr: float
    r_squared: float
    window: Tuple[int, int]
    n_used: int
    points: List[CmiPoint]


def _wrap_block(start: int, width: int, size: int, periodic: bool) -> List[int]:
    if width > size:
        raise ValueError(f"block width {width} exceeds lattice extent {size}")
    if periodic:
        return [(start + k) % size for k in range(width)]
    return list(range(start, start + width))


def ladder_band_t0(rounds: int, extent: int) -> int:
    """First time row of a ladder's ``extent``-deep band, centred in the time bulk 1..rounds-1.

    Raises ValueError when the band does not fit the bulk.
    """
    t0 = max(1, (rounds + 1 - extent) // 2)
    if t0 + extent - 1 > rounds - 1:
        raise ValueError(f"ladder extent {extent} does not fit the time bulk 1..{rounds - 1}")
    return t0


def ladder_rungs(
    tripartition, space: Sequence[int], rounds: int, wB_list: Sequence[int], wA: int,
    wC: int, xs: Sequence[int],
) -> List[List[Tripartition]]:
    """The rungs of a w_B ladder: per w_B in ``wB_list``, one tripartition per anchor x in ``xs``.

    The one rule for where a ladder's rungs sit: A starts at the band anchor
    row ``ladder_band_t0(rounds, wA + max(wB_list) + wC)``, at x on the first
    space axis, centred on the others. ``tripartition(wA=, wB=, wC=, anchor=)``
    builds one rung at one anchor (``build_tripartition`` of a model, or
    ``lattice_tripartition`` of an interchange header, the rest bound).
    """
    t0 = ladder_band_t0(rounds, wA + max(wB_list) + wC)
    rest = tuple((size - wA) // 2 for size in space[1:]) + (t0,)
    return [
        [tripartition(wA=wA, wB=wB, wC=wC, anchor=(x,) + rest) for x in xs] for wB in wB_list
    ]


def lattice_tripartition(
    lattice: Mapping[Tuple[int, ...], int],
    space: Sequence[int],
    rounds: int,
    wA: int = 2,
    wB: int = 1,
    wC: int = 2,
    *,
    anchor: Tuple[int, ...],
    mode: str = "ring",
    sector: str = "z",
    cap: int = 24,
    bulk_margin: int = 1,
) -> Tripartition:
    """Build an (A, B, C) tripartition over a coordinate lattice {(*space, t): index}.

    Space (of shape ``space``) wraps and time runs over 0..rounds, open; A's
    first cell is ``anchor`` (space, then t), and dist(A, C) must come out
    as w_B + 1. Regions stay ``bulk_margin`` rows
    away from the temporal boundaries (0 admits the boundary rows themselves,
    for oracle-scale checks). Refuses layouts whose total width exceeds the
    histogram cap (shrink w_C, or w_B for ring mode).
    """
    if mode not in ("ring", "strip"):
        raise ValueError(f"unknown tripartition mode {mode!r}")
    if min(wA, wC) < 1 or wB < 0:
        raise ValueError("widths must satisfy wA, wC >= 1 and wB >= 0")
    D = len(space)
    T = rounds
    t_lo, t_hi = bulk_margin, T - bulk_margin  # inclusive bulk band
    if t_hi < t_lo:
        raise ValueError("model too short in time for a bulk tripartition")

    def cells(space_starts, widths, t_start, t_width) -> List[Tuple[int, ...]]:
        axes = [
            _wrap_block(space_starts[d], widths[d], space[d], periodic=True)
            for d in range(D)
        ]
        times = _wrap_block(t_start, t_width, T + 1, periodic=False)
        if min(times) < t_lo or max(times) > t_hi:
            raise ValueError(
                f"time extent {times} leaves the bulk band [{t_lo},{t_hi}]"
            )
        return [(*pos, t) for pos in iproduct(*axes) for t in times]

    if len(anchor) != D + 1:
        raise ValueError(f"anchor {tuple(anchor)} needs {D + 1} coordinates: space, then t")
    a_sp, t0 = tuple(anchor[:-1]), anchor[-1]
    a = cells(a_sp, [wA] * D, t0, wA)
    if mode == "strip":
        b = cells(a_sp, [wA] * D, t0 + wA, wB) if wB else []
        c = cells(a_sp, [wA] * D, t0 + wA + wB, wC)
    else:
        b = []
        if wB:
            for coord in lattice:
                if t_lo <= coord[-1] <= t_hi:
                    to_a = min(chebyshev_distance(coord, cell, space) for cell in a)
                    if 1 <= to_a <= wB:
                        b.append(coord)
        c_sp = ((a_sp[0] + wA + wB) % space[0],) + a_sp[1:]
        c = cells(c_sp, [wC] + [min(wC, wA)] * (D - 1), t0, min(wC, wA))

    def to_idx(coords) -> Tuple[int, ...]:
        missing = [xy for xy in coords if xy not in lattice]
        if missing:
            raise ValueError(f"region cells outside the detector lattice: {missing[:3]}")
        return tuple(sorted(lattice[xy] for xy in coords))

    dist = min(chebyshev_distance(x, y, space) for x in a for y in c)
    if dist != wB + 1:  # before the regions are checked: a short lattice makes them overlap
        raise ValueError(
            f"A-C separation {dist} != wB+1 = {wB + 1}; lattice too small for this ladder"
        )
    tri = Tripartition(
        a=to_idx(a),
        b=to_idx(b),
        c=to_idx(c),
        dist_ac=dist,
        descriptor={
            "mode": mode,
            "wA": wA,
            "wB": wB,
            "wC": wC,
            "sector": sector,
            "anchor": tuple(a_sp) + (t0,),
        },
    )
    width = len(tri.all_detectors)
    if width > cap:
        raise PatternWidthExceeded(width, cap)
    return tri


def build_tripartition(
    model: DetectorModel,
    wA: int = 2,
    wB: int = 1,
    wC: int = 2,
    *,
    anchor: Tuple[int, ...],
    mode: str = "ring",
    sector: str = "z",
    cap: int = 24,
    bulk_margin: int = 1,
) -> Tripartition:
    """``lattice_tripartition`` over a sector of the model's detectors, validated.

    The tripartition is also checked for separation: no mechanism of the
    model may touch both A and C.
    """
    lattice = model.sector_lattice(sector)
    if not lattice:
        raise ValueError(f"model has no detectors in sector {sector!r}")
    tri = lattice_tripartition(
        lattice, model.code.space_shape, model.rounds, wA=wA, wB=wB, wC=wC,
        anchor=anchor, mode=mode, sector=sector, cap=cap, bulk_margin=bulk_margin,
    )
    validate_tripartition(model, tri)
    return tri


def validate_tripartition(model: DetectorModel, tri: Tripartition) -> None:
    """Check the separation property: no mechanism touches both A and C.

    An offender is incident to a detector of A and one of C; the lowest
    such mechanism is the one a scan of every mechanism finds first.
    """
    if tri.dist_ac >= 2:
        in_a = {k for d in tri.a for k in model.incident_mechanisms(d)}
        spans = {k for d in tri.c for k in model.incident_mechanisms(d) if k in in_a}
        if spans:
            raise ValueError(f"mechanism {model.mechanisms[min(spans)]} spans A and C")


def _cmi_identity(tri: Tripartition, h):
    """I(A:C|B) = H(AB) + H(BC) - H(B) - H(ABC).

    ``h`` gives the entropy of a sorted detector subset, as a float or as an
    array of estimates; an empty B (adjacent A and C) has entropy 0.
    """
    h_b = h(sorted(tri.b)) if tri.b else 0.0
    return (
        h(sorted(set(tri.a) | set(tri.b)))
        + h(sorted(set(tri.b) | set(tri.c)))
        - h_b
        - h(list(tri.all_detectors))
    )


def _table_cmi(
    table, values, region: Sequence[int], tri: Tripartition, correction: bool,
    memo: Dict[Tuple[int, ...], tuple],
):
    """CMI, its leave-one-chunk-out values and the ABC support of a tripartition
    whose detectors lie in ``region``, read from the count table over ``region``.

    The ABC, AB, BC and B tables are marginals of that table, and every
    entropy (full sample and each chunk left out) is read from them. A
    marginal lists its patterns in ascending order and zero counts add no
    entropy, so the numbers do not depend on how wide ``region`` is.
    ``memo`` maps each sorted detector subset already read from this table
    to its entropies and support, so a marginal shared by several
    tripartitions is summed and its entropies taken once.
    """
    width = len(region)
    bit = {d: i for i, d in enumerate(region)}

    def entropies(sub) -> tuple:
        key = tuple(sub)
        if key not in memo:
            counts = _marginal_table(table, values, width, [bit[d] for d in sub])
            support = int(np.count_nonzero(counts.any(axis=1)))
            memo[key] = (_table_entropies(counts, len(sub), correction), support)
        return memo[key]

    stat = _cmi_identity(tri, lambda sub: entropies(sub)[0])
    return float(stat[0]), stat[1:], entropies(tri.all_detectors)[1]


def _region_table(batch, region: Sequence[int]):
    """(pattern x chunk) count table of the batch's samples over ``region``, built chunk by chunk.

    The region's rows are looked up and checked once; ``subset_patterns``
    then packs one chunk's patterns per call, so no pattern array over the
    whole batch is built.
    """
    rows = pattern_rows(batch, region)
    return _chunk_table(partial(subset_patterns, batch, rows), batch.chunk_bounds, len(region))


def _anchor_cmis(batch, tris: Sequence[Tripartition], correction: bool) -> List[tuple]:
    """``_table_cmi`` of the tripartitions at one anchor, all read from one count table.

    The table counts the batch's samples over the union of the
    tripartitions' detectors, one chunk at a time (``_region_table``). The
    rungs of a ladder nest at each anchor, so there the union is the ABC of
    the deepest rung and no wider table is counted than that rung alone
    needs. Each distinct marginal's entropies are taken once per anchor:
    with w_C = 1, the AB and B of one strip rung are the ABC and BC of the
    rung before it.
    """
    region = sorted({d for tri in tris for d in tri.all_detectors})
    table, values = _region_table(batch, region)
    memo: Dict[Tuple[int, ...], tuple] = {}
    return [_table_cmi(table, values, region, tri, correction, memo) for tri in tris]


def cmi(
    model: DetectorModel,
    tri: Tripartition,
    method: str = "sampled",
    n: int = 10**6,
    seed: int = 0,
    correction: bool = True,
    exact_cap: int = 24,
) -> CmiPoint:
    """I(A:C|B) = H(AB) + H(BC) - H(B) - H(ABC) over detector bits.

    Sampled estimates draw one batch over A∪B∪C and estimate all four
    entropies from it, with a delete-one-chunk jackknife on the combined
    statistic. Values at the noise floor may come out slightly negative and
    are reported as-is. ``exact`` enumerates region-incident mechanisms.
    """
    region = list(tri.all_detectors)
    if method == "exact":
        values, probs = exact_region_dist(model, region, cap=exact_cap)
        pos = {d: j for j, d in enumerate(region)}
        value = _cmi_identity(
            tri, lambda sub: marginal_entropy(values, probs, [pos[d] for d in sub])
        )
        return CmiPoint(tri.dist_ac, value, 0.0, "exact", 0, dict(tri.descriptor))
    if method != "sampled":
        raise ValueError(f"unknown method {method!r}")
    batch = sample_batch(model, region, n, seed, stream="cmi")
    return ladder_from_batch(batch, [tri], correction)[0]


# Plug-in histograms stop being trustworthy once the observed support is a
# sizable fraction of the sample count (the residual bias after Miller-Madow
# then rivals small CMI signals); such points are flagged, not used in fits.
SUPPORT_FACTOR = 100


def _sampled_point(tris: Sequence[Tripartition], stats, n: int, method: str) -> CmiPoint:
    """Translate-averaged CMI of ``tris`` from their stats, jackknifed on the average."""
    value = float(np.mean([s[0] for s in stats]))
    std = _jackknife_std(np.mean([s[1] for s in stats], axis=0))
    support_abc = max(s[2] for s in stats)
    return CmiPoint(
        tris[0].dist_ac,
        value,
        std,
        method,
        n,
        dict(tris[0].descriptor),
        support_abc=support_abc,
        reliable=support_abc * SUPPORT_FACTOR <= n,
    )


def _ladder_points(
    batch, rungs: Sequence[Sequence[Tripartition]], correction: bool, method: str
) -> List[CmiPoint]:
    """One CmiPoint per rung; a rung lists its tripartitions, one per anchor.

    Anchor by anchor, the tripartitions of every rung are read from one count
    table (``_anchor_cmis``); each rung's translate average and jackknife
    then run over its anchors in order.
    """
    per_anchor = [_anchor_cmis(batch, tris, correction) for tris in zip(*rungs)]
    return [
        _sampled_point(tris, stats, batch.n_samples, method)
        for tris, stats in zip(rungs, zip(*per_anchor))
    ]


def ladder_from_batch(
    batch, tris: Sequence[Tripartition], correction: bool = True
) -> List[CmiPoint]:
    """CMI estimates of tripartitions that share one anchor, from an existing sample batch."""
    method = f"sampled(n={batch.n_samples},seed={batch.seed})"
    return _ladder_points(batch, [[tri] for tri in tris], correction, method)


def averaged_cmi_ladder(
    model: DetectorModel,
    wB_list: Sequence[int],
    n: int,
    seed: int,
    wA: int = 2,
    wC: int = 2,
    mode: str = "strip",
    stream: str = "cmi",
    anchor_stride: Optional[int] = None,
    correction: bool = True,
) -> List[CmiPoint]:
    """One CmiPoint per ladder rung, averaged over spatial anchor translates.

    A single batch is drawn; every rung and every translate is evaluated on
    the same shots, and the jackknife runs on the translate-averaged
    statistic (which handles the overlap correlations). The batch holds only
    the detectors the tripartitions read, on the random stream of a batch
    over the ladder's whole time band, so its rows equal that batch's rows.
    Rungs whose joint histograms crowd the sample count are flagged
    unreliable. The strip rungs at one anchor nest, so each anchor's
    patterns are counted once, over the ABC of its deepest rung.
    """
    space = model.code.space_shape
    if anchor_stride is None:
        anchor_stride = max(2, space[0] // 8)  # ~8 translates at any size
    xs = range(0, space[0], anchor_stride)
    rungs = ladder_rungs(
        partial(build_tripartition, model, mode=mode), space, model.rounds, wB_list, wA, wC, xs
    )
    used = sorted({d for tris in rungs for tri in tris for d in tri.all_detectors})
    # The band is the ladder's stack from its anchor row t0, reaching down to
    # the lowest row read: a ring's B reaches wB rows below its anchor.
    lo = int(model.detectors.t[used].min())
    top = rungs[0][0].descriptor["anchor"][-1] + wA + max(wB_list) + wC
    band = sorted(i for coords, i in model.sector_lattice("z").items() if lo <= coords[-1] < top)
    batch = sample_batch(model, used, n, seed, stream=stream, draw_region=band)
    method = f"sampled(n={n},seed={seed},anchors={len(xs)})"
    return _ladder_points(batch, rungs, correction, method)


def cmi_rank_half(model: DetectorModel, tri: Tripartition) -> float:
    """Rank-formula CMI valid when every mechanism has p = 1/2."""
    from .entropy import rank_entropy_half

    return _cmi_identity(tri, lambda sub: rank_entropy_half(model, sub))


def markov_length(points: Sequence[CmiPoint]) -> MarkovFit:
    """Weighted log-linear fit of CMI vs distance; xi is the e-folding length.

    Points below the noise floor (cmi <= FLOOR_SIGMA * stderr) are dropped;
    fewer than MIN_POINTS usable points is a fit failure.
    """
    usable = [
        pt
        for pt in points
        if pt.reliable
        and pt.cmi > 0
        and (pt.std_error == 0.0 or pt.cmi > FLOOR_SIGMA * pt.std_error)
    ]
    if len(usable) < MIN_POINTS:
        raise FitError(
            f"only {len(usable)} of {len(points)} points usable (above the noise "
            f"floor and within histogram validity); need {MIN_POINTS}"
        )
    x = np.array([pt.dist for pt in usable], dtype=np.float64)
    y = np.array([math.log2(pt.cmi) for pt in usable])
    sig = np.array(
        [
            pt.std_error / (pt.cmi * LN2) if pt.std_error > 0 else 0.0
            for pt in usable
        ]
    )
    if np.any(sig > 0):
        sig[sig == 0] = sig[sig > 0].min()
        w = 1.0 / sig**2
    else:
        w = np.ones_like(x)
    sw = w.sum()
    sx = (w * x).sum()
    sy = (w * y).sum()
    sxx = (w * x * x).sum()
    sxy = (w * x * y).sum()
    delta = sw * sxx - sx * sx
    if delta <= 0:
        raise FitError("degenerate abscissas")
    slope = (sw * sxy - sx * sy) / delta
    intercept = (sxx * sy - sx * sxy) / delta
    slope_var = sw / delta
    if slope >= 0:
        raise FitError(f"CMI does not decay with distance (slope {slope:.3g} >= 0)")
    resid = y - (intercept + slope * x)
    ybar = sy / sw
    ss_res = float((w * resid**2).sum())
    ss_tot = float((w * (y - ybar) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    xi = -1.0 / (slope * LN2)
    xi_err = math.sqrt(slope_var) / (slope**2 * LN2)
    return MarkovFit(
        xi=xi,
        xi_stderr=xi_err,
        slope_log2=slope,
        slope_stderr=math.sqrt(slope_var),
        r_squared=r2,
        window=(int(x.min()), int(x.max())),
        n_used=len(usable),
        points=list(points),
    )


def ladder_fit(points: Sequence[CmiPoint]) -> Tuple[Optional[MarkovFit], Optional[str]]:
    """The Markov-length fit of a ladder's points, or None and the reason there is none."""
    if all(pt.cmi <= 0 for pt in points):
        return None, "all CMI at zero"
    try:
        return markov_length(points), None
    except FitError as exc:
        return None, str(exc)


# -- sweeps -------------------------------------------------------------------


@dataclass
class PeakEstimate:
    p_peak: float
    xi_peak: float
    interior: bool


@dataclass
class SweepCell:
    L: int
    T: int
    p: float
    points: List[CmiPoint]
    fit: Optional[MarkovFit]
    fit_error: Optional[str]


def interpolate_peak(ps: Sequence[float], xis: Sequence[float]) -> PeakEstimate:
    """Quadratic interpolation around the grid maximum of xi(p)."""
    ps = list(ps)
    xis = list(xis)
    i = int(np.argmax(xis))
    if i == 0 or i == len(ps) - 1:
        return PeakEstimate(ps[i], xis[i], interior=False)
    h = ps[i + 1] - ps[i]
    denom = xis[i - 1] - 2 * xis[i] + xis[i + 1]
    if denom >= 0:
        return PeakEstimate(ps[i], xis[i], interior=True)
    offset = 0.5 * (xis[i - 1] - xis[i + 1]) / denom
    p_peak = ps[i] + offset * h
    xi_peak = xis[i] - 0.25 * (xis[i - 1] - xis[i + 1]) * offset
    return PeakEstimate(float(p_peak), float(xi_peak), interior=True)


def make_code(family: str, L: int):
    if family == "repetition":
        return repetition_code(L)
    if family == "toric":
        return toric_code(L)
    raise ValueError(f"unknown code family {family!r}")


def _sweep_cell(
    L: int, T: int, p: float, *, family: str, ladder: Sequence[int], n: int, seed: int,
    wA: int, wC: int, mode: str, p_z: float, q: Optional[float], method: str,
    anchor_stride: Optional[int], correction: bool,
) -> SweepCell:
    """The (L, T, p) cell of a sweep: its ladder's points and their fit (or the gap)."""
    model = build_detector_model(make_code(family, L), T, NoiseModel.phenomenological(p, p_z, q))
    if model.n_mechanisms == 0:
        points = []
    elif method == "exact":  # one anchor, the centred x, at the sampled ladder's row
        rungs = ladder_rungs(
            partial(build_tripartition, model, mode=mode), model.code.space_shape, T, ladder,
            wA, wC, [(L - wA) // 2],
        )
        points = [cmi(model, tri, method="exact", exact_cap=10**9) for tri, in rungs]
    elif method == "sampled":
        stream = f"cmi/L{L}/T{T}/p{p:.6g}"
        points = averaged_cmi_ladder(
            model, ladder, n, seed, wA=wA, wC=wC, mode=mode, stream=stream,
            anchor_stride=anchor_stride, correction=correction,
        )
    else:
        raise ValueError(f"unknown sweep method {method!r}")
    fit, err = ladder_fit(points)
    return SweepCell(L=L, T=T, p=p, points=points, fit=fit, fit_error=err)


def sweep_cells(
    family: str,
    cells: Sequence[Tuple[int, int, float]],
    ladder: Sequence[int] = (1, 2, 3),
    n: int = 10**6,
    seed: int = 0,
    wA: int = 2,
    wC: int = 2,
    mode: str = "strip",
    p_z: float = 0.0,
    q: Optional[float] = None,
    jobs: int = 1,
    method: str = "sampled",
    anchor_stride: Optional[int] = None,
    correction: bool = True,
) -> Iterator[SweepCell]:
    """Compute the (L, T, p) ``cells`` in order, yielding each as it finishes.

    The one sweep entry: ``stmarkov run`` and ``stmarkov sweep`` compute
    through it. Each cell fits xi from a w_B ladder of tripartitions
    (sampled cells average over spatial anchor translates); a fit failure
    is recorded as a gap, with its reason in ``fit_error``. The readout
    error rate is ``q``, or p in each cell when ``q`` is None. More than one
    job and more than one cell runs the cells in a process pool; results
    come back in the order of ``cells`` either way. Per-cell RNG streams are
    derived from the cell coordinates, so results do not depend on ``jobs``.
    """
    cell = partial(
        _sweep_cell, family=family, ladder=tuple(ladder), n=n, seed=seed, wA=wA, wC=wC,
        mode=mode, p_z=p_z, q=q, method=method, anchor_stride=anchor_stride,
        correction=correction,
    )
    yield from _map_cells(cell, cells, jobs)


def _map_cells(fn, cells: Sequence[Tuple[int, int, float]], jobs: int) -> Iterator:
    """``fn(L, T, p)`` of each cell, in the order of ``cells``.

    More than one job and more than one cell runs the cells in a process
    pool. The pool module is imported here, so importing the package loads
    no multiprocessing.
    """
    if jobs > 1 and len(cells) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(cells))) as pool:
            yield from pool.map(fn, *zip(*cells))
    else:
        yield from starmap(fn, cells)


def _rate_point(
    L: int, T: int, p: float, *, family: str, shots: int, seed: int, p_z: float,
    q: Optional[float],
) -> RatePoint:
    model = build_detector_model(make_code(family, L), T, NoiseModel.phenomenological(p, p_z, q))
    return logical_error_rate(model, shots, seed)


def rate_points(
    family: str,
    sizes: Sequence[Tuple[int, int]],
    p_grid: Sequence[float],
    shots: int,
    seed: int,
    p_z: float = 0.0,
    q: Optional[float] = None,
    jobs: int = 1,
) -> Iterator[RatePoint]:
    """Decoder logical error rate at each (L, T, p), size by size in the order of ``p_grid``.

    The one loop for decoder curves; each point's noise is
    ``NoiseModel.phenomenological(p, p_z, q)``.
    More than one job runs the points in a process pool, as ``sweep_cells``
    does; the points come back in the same order and do not depend on ``jobs``.
    """
    point = partial(_rate_point, family=family, shots=shots, seed=seed, p_z=p_z, q=q)
    yield from _map_cells(point, [(L, T, p) for (L, T) in sizes for p in p_grid], jobs)
