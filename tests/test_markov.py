import functools
import math
import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import all_mechanism_validate, four_histogram_cmi

from stmarkov import markov
from stmarkov.codes import repetition_code, toric_code
from stmarkov.markov import (
    CmiPoint,
    FitError,
    _anchor_cmis,
    _region_table,
    _table_cmi,
    averaged_cmi_ladder,
    build_tripartition,
    cmi,
    cmi_rank_half,
    interpolate_peak,
    ladder_band_t0,
    markov_length,
    rate_points,
    sweep_cells,
    validate_tripartition,
)
from stmarkov.sampler import PatternWidthExceeded, pattern_rows, sample_batch, subset_patterns
from stmarkov.spacetime import NoiseModel, Tripartition, build_detector_model


def model_for(L, T, p, q=None, half=False):
    if half:
        noise = NoiseModel(p_x=0.5, p_z=0.0, q=0.5)
    else:
        noise = NoiseModel(p_x=p, p_z=0.0, q=p if q is None else q)
    return build_detector_model(repetition_code(L), T, noise)


def test_ring_tripartition_counts():
    model = model_for(16, 16, 0.1)
    tri = build_tripartition(model, wA=2, wB=1, wC=2, anchor=(7, 7), mode="ring")
    assert len(tri.a) == 4
    assert len(tri.b) == 12
    assert len(tri.c) == 4
    assert tri.dist_ac == 2
    assert not (set(tri.a) & set(tri.b)) and not (set(tri.b) & set(tri.c))


def test_ring_wb_zero_adjacent():
    model = model_for(12, 12, 0.1)
    tri = build_tripartition(model, wA=2, wB=0, wC=2, anchor=(5, 5), mode="ring")
    assert tri.dist_ac == 1
    assert len(tri.b) == 0


def test_strip_tripartition_counts():
    model = model_for(16, 16, 0.1)
    tri = build_tripartition(model, wA=2, wB=5, wC=2, anchor=(7, 4), mode="strip")
    assert len(tri.a) == 4
    assert len(tri.b) == 10
    assert len(tri.c) == 4
    assert tri.dist_ac == 6


def test_tripartition_separation_random_anchors():
    model = model_for(16, 16, 0.1)
    rng = np.random.default_rng(0)
    for _ in range(20):
        anchor = (int(rng.integers(0, 16)), int(rng.integers(1, 10)))
        tri = build_tripartition(model, wA=2, wB=1, wC=2, anchor=anchor, mode="ring")
        validate_tripartition(model, tri)  # raises on a spanning mechanism


@functools.lru_cache(maxsize=None)
def small_model(family, L, T, p_x, p_z, q):
    code = repetition_code(L) if family == "repetition" else toric_code(L)
    return build_detector_model(code, T, NoiseModel(p_x=p_x, p_z=p_z, q=q))


@st.composite
def models_and_tripartitions(draw):
    """A small model and index sets A, C; half the time A and C share a mechanism."""
    family = draw(st.sampled_from(["repetition", "toric"]))
    L = draw(st.integers(3, 5) if family == "repetition" else st.integers(2, 3))
    rates = st.sampled_from([0.0, 0.1])
    model = small_model(family, L, draw(st.integers(1, 3)), draw(rates), draw(rates), draw(rates))
    detectors = st.integers(0, model.n_detectors - 1)
    a, c = [], []
    wide = [m for m in model.mechanisms if len(m.detectors) >= 2]
    if wide and draw(st.booleans()):
        mech = draw(st.sampled_from(wide))
        a.append(mech.detectors[0])
        c.append(mech.detectors[-1])
    a += draw(st.lists(detectors, max_size=4))
    c += draw(st.lists(detectors, max_size=4))
    a = list(dict.fromkeys(a)) or [0]
    c = [d for d in dict.fromkeys(c) if d not in a] or [min(set(range(10)) - set(a))]
    return model, Tripartition(a=tuple(a), b=(), c=tuple(c), dist_ac=draw(st.integers(0, 3)))


def _refusal(check, model, tri):
    try:
        check(model, tri)
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(models_and_tripartitions())
def test_validate_tripartition_matches_all_mechanism_scan(case):
    model, tri = case
    assert _refusal(validate_tripartition, model, tri) == _refusal(
        all_mechanism_validate, model, tri
    )


@st.composite
def tripartition_requests(draw, wide):
    """A small model and build_tripartition arguments for it.

    The narrow requests keep the widths, mode and sector in their documented
    domain, so about one in ten builds a tripartition; the wide ones add
    negative widths, an unknown mode, a sector the model may lack and
    anchors of any length.
    """
    rates = st.floats(0.0, 0.5)
    if draw(st.booleans()):
        L, T = draw(st.integers(3, 8)), draw(st.integers(1, 8))
        model = small_model("repetition", L, T, draw(rates), 0.0, draw(rates))
    else:
        L, T = draw(st.integers(2, 4)), draw(st.integers(1, 5))
        model = small_model("toric", L, T, draw(rates), draw(rates), draw(rates))
    D = len(model.code.space_shape)
    anchors = [st.tuples(*[st.integers(-1, L)] * D, st.integers(-1, T + 1))]
    if wide:
        anchors.append(st.lists(st.integers(-1, L), max_size=D + 2).map(tuple))
    lo = -1 if wide else 0
    return model, dict(
        wA=draw(st.integers(lo + 1, 3)),
        wB=draw(st.integers(lo, 3)),
        wC=draw(st.integers(lo + 1, 3)),
        anchor=draw(st.one_of(*anchors)),
        mode=draw(st.sampled_from(["ring", "strip", "disc"] if wide else ["ring", "strip"])),
        sector=draw(st.sampled_from(["z", "x"] if wide or D == 2 else ["z"])),
        cap=draw(st.integers(lo, 64)),
        bulk_margin=draw(st.integers(0, 2)),
    )


@pytest.mark.parametrize("wide", [False, True], ids=["narrow", "wide"])
@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_build_tripartition_is_separated_or_value_error(wide, data):
    """build_tripartition returns a tripartition no mechanism spans, or raises ValueError."""
    model, kwargs = data.draw(tripartition_requests(wide))
    try:
        tri = build_tripartition(model, **kwargs)
    except ValueError:
        return
    all_mechanism_validate(model, tri)


def test_anchor_of_wrong_length_refused():
    model = small_model("toric", 4, 4, 0.1, 0.1, 0.1)
    for anchor in [(), (1, 2), (1, 1, 2, 0)]:
        with pytest.raises(ValueError, match="needs 3 coordinates"):
            build_tripartition(model, wA=1, wB=0, wC=1, anchor=anchor, mode="strip")


def test_tripartition_cap_refused():
    model = model_for(16, 16, 0.1)
    with pytest.raises(PatternWidthExceeded):
        build_tripartition(model, wA=2, wB=2, wC=2, anchor=(7, 7), mode="ring", cap=24)


def test_tripartition_respects_time_bulk():
    model = model_for(8, 4, 0.1)
    with pytest.raises(ValueError):
        build_tripartition(model, wA=2, wB=3, wC=2, anchor=(0, 0), mode="strip")


def test_cmi_zero_at_p_zero():
    model = model_for(8, 8, 0.0, q=0.0)
    assert model.n_mechanisms == 0
    tri = build_tripartition(model, wA=1, wB=1, wC=1, anchor=(3, 3), mode="strip")
    point = cmi(model, tri, method="exact")
    assert point.cmi == 0.0
    sampled = cmi(model, tri, n=2000, seed=1)
    assert sampled.cmi == 0.0


def test_cmi_symmetry():
    model = model_for(6, 5, 0.1)
    tri = build_tripartition(model, wA=1, wB=1, wC=1, anchor=(2, 1), mode="strip")
    swapped = Tripartition(tri.c, tri.b, tri.a, tri.dist_ac)
    a = cmi(model, tri, method="exact")
    b = cmi(model, swapped, method="exact")
    assert a.cmi == pytest.approx(b.cmi, abs=1e-12)
    sa = cmi(model, tri, n=50_000, seed=3)
    sb = cmi(model, swapped, n=50_000, seed=3)
    assert sa.cmi == pytest.approx(sb.cmi, abs=1e-12)


def test_rank_cmi_zero_at_half_bulk():
    model = model_for(10, 10, 0.5, half=True)
    rng = np.random.default_rng(5)
    for _ in range(50):
        anchor = (int(rng.integers(0, 10)), int(rng.integers(1, 6)))
        wB = int(rng.integers(1, 3))
        tri = build_tripartition(
            model, wA=1 + int(rng.integers(0, 2)), wB=wB, wC=1, anchor=anchor,
            mode="strip", cap=40,
        )
        assert cmi_rank_half(model, tri) == 0.0


def test_sampled_cmi_matches_exact():
    model = model_for(4, 4, 0.1)
    tri = build_tripartition(model, wA=1, wB=1, wC=1, anchor=(1, 1), mode="strip")
    exact_point = cmi(model, tri, method="exact", exact_cap=24)
    sampled = cmi(model, tri, n=200_000, seed=11)
    assert abs(sampled.cmi - exact_point.cmi) < 3 * sampled.std_error + 1e-3


@pytest.mark.parametrize("L, T, seed", [(8, 12, 0), (12, 16, 1)])
def test_ring_ladder_above_row_one_matches_exact(L, T, seed):
    # The ring's B reaches a row below its anchor, so the draw band must too.
    model = model_for(L, T, 0.11)
    points = averaged_cmi_ladder(model, (1,), 150_000, seed, wA=1, wC=1, mode="ring")
    assert points[0].descriptor["anchor"][-1] > 1
    assert all(pt.reliable for pt in points)
    for pt in points:
        d = pt.descriptor
        tri = build_tripartition(
            model, wA=1, wB=d["wB"], wC=1, anchor=tuple(d["anchor"]), mode="ring"
        )
        exact = cmi(model, tri, method="exact", exact_cap=10**9).cmi
        assert abs(pt.cmi - exact) <= 5 * pt.std_error


def test_exact_cmi_nonnegative_and_decaying():
    model = model_for(8, 8, 0.12)
    vals = []
    for wB in (1, 2, 3):
        tri = build_tripartition(model, wA=1, wB=wB, wC=1, anchor=(3, (7 - wB) // 2),
                                 mode="strip")
        vals.append(cmi(model, tri, method="exact", exact_cap=24).cmi)
    assert all(v >= -1e-12 for v in vals)
    assert vals[0] > vals[1] > vals[2]


def test_markov_length_synthetic_powers_of_two():
    points = [CmiPoint(d, 2.0 ** (-d / 2), 0.0, "exact", 0) for d in range(1, 6)]
    fit = markov_length(points)
    assert fit.xi == pytest.approx(2.0 / math.log(2.0), rel=1e-9)
    assert fit.slope_log2 == pytest.approx(-0.5)
    assert fit.r_squared == pytest.approx(1.0)


def test_markov_length_synthetic_natural_decay():
    points = [CmiPoint(d, math.exp(-d), 0.0, "exact", 0) for d in range(1, 6)]
    fit = markov_length(points)
    assert fit.xi == pytest.approx(1.0, rel=1e-9)


def test_markov_length_noise_floor_failure():
    points = [CmiPoint(d, 1e-6, 1e-3, "sampled", 100) for d in range(1, 6)]
    with pytest.raises(FitError):
        markov_length(points)


def test_markov_length_too_few_points():
    points = [CmiPoint(1, 0.5, 0.0, "exact", 0), CmiPoint(2, 0.25, 0.0, "exact", 0)]
    with pytest.raises(FitError):
        markov_length(points)


def test_markov_length_rejects_growth():
    points = [CmiPoint(d, 2.0**d, 0.0, "exact", 0) for d in range(1, 5)]
    with pytest.raises(FitError):
        markov_length(points)


def test_markov_length_gives_an_exact_point_the_smallest_sampled_error():
    """An exact point among sampled ones weighs as much as the surest of them."""
    values = [0.4, 0.1, 0.05, 0.01]
    errors = [0.0, 0.004, 0.001, 0.0005]
    log_errors = [e / (v * math.log(2)) for v, e in zip(values, errors) if e]
    # The same fit with the exact point's error set to the smallest log-space error.
    stand_in = [min(log_errors) * values[0] * math.log(2)] + errors[1:]
    mixed, uniform = (
        markov_length([CmiPoint(d, v, e, "m", 0) for d, v, e in zip(range(1, 5), values, es)])
        for es in (errors, stand_in)
    )
    assert mixed.xi == pytest.approx(uniform.xi, rel=1e-12)
    assert mixed.xi_stderr == pytest.approx(uniform.xi_stderr, rel=1e-12)
    assert mixed.r_squared == pytest.approx(uniform.r_squared, rel=1e-12)
    assert mixed.r_squared < 1.0  # the points are not collinear, so the weights count


def test_markov_length_refuses_degenerate_abscissas():
    points = [CmiPoint(2, v, 0.0, "exact", 0) for v in (0.3, 0.2, 0.1)]
    with pytest.raises(FitError, match="degenerate abscissas"):
        markov_length(points)


def test_interpolate_peak_quadratic():
    ps = [0.05, 0.07, 0.09, 0.11, 0.13]
    xis = [-((p - 0.10) ** 2) + 1.0 for p in ps]
    peak = interpolate_peak(ps, xis)
    assert peak.interior
    assert peak.p_peak == pytest.approx(0.10, abs=1e-9)
    edge = interpolate_peak(ps, [1, 2, 3, 4, 5])
    assert not edge.interior
    # A curvature that rounds to exactly 0.0 gives the grid maximum, undivided.
    flat = [1 - 2**-53, 1.0, 1.0]
    assert flat[0] - 2 * flat[1] + flat[2] == 0.0
    top = interpolate_peak([0.1, 0.2, 0.3], flat)
    assert (top.p_peak, top.xi_peak, top.interior) == (0.2, 1.0, True)


def test_sweep_smoke():
    grid = [(8, 8, 0.05), (8, 8, 0.11)]
    cells = list(sweep_cells("repetition", grid, ladder=(1, 2, 3), n=20_000, seed=7, wA=2, wC=2))
    assert len(cells) == 2
    for cell in cells:
        assert len(cell.points) == 3
    # Reproducible independent of execution order / jobs.
    again = sweep_cells(
        "repetition", grid, ladder=(1, 2, 3), n=20_000, seed=7, wA=2, wC=2, jobs=2
    )
    for c1, c2 in zip(cells, again):
        for p1, p2 in zip(c1.points, c2.points):
            assert p1.cmi == p2.cmi and p1.std_error == p2.std_error


def test_cmi_monotone_trend_guard():
    """Empirical regression guard: bulk CMI grows from p=0.02 to p=0.10."""
    model_lo = model_for(16, 16, 0.02)
    model_hi = model_for(16, 16, 0.10)
    tri_lo = build_tripartition(model_lo, wA=2, wB=1, wC=2, anchor=(7, 7), mode="ring")
    tri_hi = build_tripartition(model_hi, wA=2, wB=1, wC=2, anchor=(7, 7), mode="ring")
    lo = cmi(model_lo, tri_lo, n=300_000, seed=21)
    hi = cmi(model_hi, tri_hi, n=300_000, seed=22)
    sigma = math.hypot(lo.std_error, hi.std_error)
    assert hi.cmi - lo.cmi > 3 * sigma


def test_toric_perfect_measurement_geometry():
    """Ring tripartitions on the 3D (space x space x time) toric lattice."""
    from stmarkov.codes import toric_code
    from stmarkov.markov import cmi_rank_half

    code = toric_code(6)
    model = build_detector_model(code, 1, NoiseModel(p_x=0.5, p_z=0.0, q=0.0))
    tri = build_tripartition(
        model, wA=1, wB=1, wC=1, anchor=(3, 3, 0), mode="ring", cap=64, bulk_margin=0
    )
    assert len(tri.a) == 1
    assert tri.dist_ac == 2
    assert cmi_rank_half(model, tri) == 0.0


def test_toric_sampled_cmi_matches_exact():
    from stmarkov.codes import toric_code

    code = toric_code(4)
    model = build_detector_model(code, 1, NoiseModel(p_x=0.11, p_z=0.0, q=0.0))
    tri = build_tripartition(
        model, wA=1, wB=1, wC=1, anchor=(1, 1, 0), mode="ring", cap=64, bulk_margin=0
    )
    exact_pt = cmi(model, tri, method="exact", exact_cap=40)
    sam = cmi(model, tri, n=400_000, seed=18)
    assert abs(sam.cmi - exact_pt.cmi) < 3 * sam.std_error + 1e-3


def test_sweep_p_zero_row_is_gap():
    cells = sweep_cells("repetition", [(8, 8, 0.0), (8, 8, 0.09)], ladder=(1, 2), n=5000, seed=2)
    by_p = {c.p: c for c in cells}
    assert by_p[0.0].fit is None
    assert by_p[0.0].fit_error == "all CMI at zero"


@pytest.mark.parametrize("n", [20_000, 2_000], ids=["dense", "compacted"])
@pytest.mark.parametrize("wB", [0, 1, 2])
def test_histogram_kernel_matches_four_histograms(n, wB):
    model = model_for(8, 8, 0.1)
    tri = build_tripartition(model, wA=2, wB=wB, wC=1, anchor=(3, (6 - wB) // 2), mode="strip")
    # 2^width * 32 chunks against n decides which table the kernel builds.
    dense = (1 << len(tri.all_detectors)) * 32 <= n
    assert dense == (n == 20_000 and wB < 2)
    batch = sample_batch(model, list(range(model.n_detectors)), n, seed=3)
    for correction in (True, False):
        value, loo, support = own_table_cmi(batch, tri, correction)
        ref_value, ref_loo, ref_support = four_histogram_cmi(batch, tri, correction)
        assert value == ref_value
        assert np.array_equal(loo, ref_loo)
        assert support == ref_support


def own_table_cmi(batch, tri, correction):
    """``_table_cmi`` of one tripartition read from a count table over its own ABC."""
    region = tri.all_detectors
    table, values = _region_table(batch, region)
    return _table_cmi(table, values, region, tri, correction, {})


def count_pattern_calls(monkeypatch):
    """Record each call of ``markov.subset_patterns``: one per chunk of each count table built."""
    calls = []
    original = markov.subset_patterns

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(markov, "subset_patterns", counted)
    return calls


def assert_one_table_per_region(calls, batch, regions):
    """``calls`` (the arguments of each pattern read) build one table per region
    of ``regions``, in order: the region's rows read once per chunk of the batch."""
    bounds = batch.chunk_bounds
    expect = [
        (pattern_rows(batch, region), lo, hi)
        for region in regions
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]
    assert all(args[0] is batch for args in calls)
    assert [(list(args[1]), *args[2:]) for args in calls] == expect


def union_region(tris):
    return sorted({d for tri in tris for d in tri.all_detectors})


def assert_anchor_table_matches_own_tables(batch, tris):
    for correction in (True, False):
        shared = _anchor_cmis(batch, tris, correction)
        for tri, (value, loo, support) in zip(tris, shared):
            own_value, own_loo, own_support = own_table_cmi(batch, tri, correction)
            assert value == own_value
            assert np.array_equal(loo, own_loo)
            assert support == own_support


@pytest.mark.parametrize(
    "mode, wA, T, ladder, cap, n, dense",
    [
        ("strip", 2, 8, (0, 1, 2, 3), 24, 140_000, True),
        ("strip", 2, 8, (0, 1, 2, 3), 24, 3_000, False),
        ("ring", 1, 5, (0, 1), 24, 20_000, True),
        ("ring", 1, 6, (0, 1, 2, 3), 64, 3_000, False),
    ],
    ids=["strip-dense", "strip-compacted", "ring-dense", "ring-compacted"],
)
def test_anchor_table_matches_own_tables(monkeypatch, mode, wA, T, ladder, cap, n, dense):
    model = model_for(8, T, 0.1)
    t0 = ladder_band_t0(T, wA + max(ladder) + 1)
    tris = [
        build_tripartition(model, wA=wA, wB=wB, wC=1, anchor=(3, t0), mode=mode, cap=cap)
        for wB in ladder
    ]
    # 2^width * 32 chunks against n decides which table the widest ABC gets.
    assert ((1 << len(tris[-1].all_detectors)) * 32 <= n) == dense
    batch = sample_batch(model, list(range(model.n_detectors)), n, seed=4)
    calls = count_pattern_calls(monkeypatch)
    _anchor_cmis(batch, tris, True)
    # The rungs nest: one table, over the deepest rung's ABC, serves them all.
    assert union_region(tris) == list(tris[-1].all_detectors)
    assert_one_table_per_region(calls, batch, [tris[-1].all_detectors])
    assert_anchor_table_matches_own_tables(batch, tris)


def test_anchor_table_counts_the_union_of_its_tripartitions(monkeypatch):
    model = model_for(8, 8, 0.1)
    tris = [
        build_tripartition(model, wA=2, wB=wB, wC=1, anchor=(x, 1), mode="strip")
        for (x, wB) in ((0, 1), (4, 1), (0, 3))
    ]
    batch = sample_batch(model, list(range(model.n_detectors)), 20_000, seed=4)
    calls = count_pattern_calls(monkeypatch)
    _anchor_cmis(batch, tris, True)
    # The x = 4 rung lies outside the widest ABC (x = 0, wB = 3, 12 detectors):
    # the one table counts its 8 detectors too.
    assert len(union_region(tris)) == 20
    assert_one_table_per_region(calls, batch, [union_region(tris)])
    assert_anchor_table_matches_own_tables(batch, tris)


@pytest.mark.parametrize(
    "ladder, wC, calls",
    [((1, 2, 3), 1, 8), ((1, 2, 3), 2, 10), ((2,), 1, 4)],
    ids=["wC1", "wC2", "one-rung"],
)
def test_anchor_takes_each_distinct_marginal_once(monkeypatch, ladder, wC, calls):
    """Strip rungs nest, so AB and B of one rung are often ABC and BC of an earlier one."""
    model = model_for(8, 10, 0.1)
    t0 = ladder_band_t0(10, 2 + max(ladder) + wC)
    tris = [
        build_tripartition(model, wA=2, wB=wB, wC=wC, anchor=(3, t0), mode="strip")
        for wB in ladder
    ]
    batch = sample_batch(model, list(range(model.n_detectors)), 20_000, seed=4)
    for correction in (True, False):
        with mock.patch.object(markov, "_table_entropies", wraps=markov._table_entropies) as spy:
            stats = _anchor_cmis(batch, tris, correction)
        assert spy.call_count == calls
        for tri, (value, loo, support) in zip(tris, stats):
            ref_value, ref_loo, ref_support = four_histogram_cmi(batch, tri, correction)
            assert value == ref_value
            assert np.array_equal(loo, ref_loo)
            assert support == ref_support


@pytest.mark.parametrize(
    "p, wB_max, dense", [(0.1, 2, True), (0.01, 4, False)], ids=["dense", "compacted"]
)
def test_anchor_peak_stays_below_table_plus_four_bytes_per_sample(p, wB_max, dense):
    """Counting an anchor's table chunk by chunk builds no pattern array over the batch.

    A pattern word per sample and its int64 copy (or ``np.unique``'s inverse)
    cost at least 16 bytes per sample. Counted chunk by chunk, the anchor
    needs its table plus under 4 bytes per sample: one chunk's patterns and
    the entropy pass's fixed-size blocks.
    """
    n = 200_000
    model = model_for(8, 10, p)
    t0 = ladder_band_t0(10, 2 + wB_max + 1)
    tris = [
        build_tripartition(model, wA=2, wB=wB, wC=1, anchor=(3, t0), mode="strip")
        for wB in range(1, wB_max + 1)
    ]
    region = union_region(tris)
    batch = sample_batch(model, region, n, seed=7)
    table, values = _region_table(batch, region)
    assert (values is None) == dense
    table_bytes = table.nbytes + (0 if values is None else values.nbytes)
    del table, values
    _anchor_cmis(batch, tris, True)  # first-call allocations (lazy imports) are not the route's
    tracemalloc.start()
    try:
        _anchor_cmis(batch, tris, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table_bytes + 4 * n


@functools.lru_cache(maxsize=None)
def full_batch(family, L, T, n):
    """A batch over every detector of a small model at p = q = 0.1."""
    model = small_model(family, L, T, 0.1, 0.0, 0.1)
    return model, sample_batch(model, list(range(model.n_detectors)), n, seed=6)


@st.composite
def anchor_sets(draw):
    """A batch and the tripartitions of one count table.

    Either a ladder (one anchor, mode, w_A and w_C, several w_B: nested ABCs)
    or tripartitions drawn independently (any anchors, modes and widths).
    The sample count makes the union's table dense at small widths and
    compacted at large ones.
    """
    family = draw(st.sampled_from(["repetition", "toric"]))
    L = draw(st.integers(4, 8) if family == "repetition" else st.integers(3, 4))
    T = draw(st.integers(3, 6))
    model, batch = full_batch(family, L, T, draw(st.sampled_from([2_000, 40_000])))
    cells = sorted(model.sector_lattice("z"))
    widths = st.integers(1, 2)

    def shape():
        return dict(anchor=draw(st.sampled_from(cells)),
                    mode=draw(st.sampled_from(["strip", "ring"])),
                    wA=draw(widths), wC=draw(widths))

    ladder = draw(st.booleans())
    common = shape()
    tris = []
    for _ in range(draw(st.integers(1, 4))):
        kw = common if ladder else shape()
        wB = draw(st.integers(0, 3 if kw["mode"] == "strip" else 1))
        try:
            tri = build_tripartition(model, wB=wB, cap=64, bulk_margin=0, **kw)
        except ValueError:
            continue
        if len({d for t in tris + [tri] for d in t.all_detectors}) <= 40:
            tris.append(tri)
    assume(tris)
    return batch, tris


@settings(max_examples=150, deadline=None)
@given(anchor_sets())
def test_anchor_table_matches_own_tables_on_random_sets(case):
    batch, tris = case
    with mock.patch.object(markov, "subset_patterns", wraps=subset_patterns) as spy:
        _anchor_cmis(batch, tris, True)
    assert_one_table_per_region(
        [c.args for c in spy.call_args_list], batch, [union_region(tris)]
    )
    assert_anchor_table_matches_own_tables(batch, tris)


@st.composite
def fitting_ladders(draw):
    """A small sweep cell and a w_B ladder deep enough in time to fit its band.

    The lattice is drawn around the width a ring needs, so a few ladders do
    not fit in space; T stays within four rows of the band, where a ring's B
    reaches the bulk margin.
    """
    family = draw(st.sampled_from(["repetition", "toric"]))
    mode = draw(st.sampled_from(["strip", "ring"]))
    small = family == "toric" and mode == "ring"  # wider toric rings exceed the histogram cap
    wA, wC = draw(st.integers(1, 1 if small else 2)), draw(st.integers(1, 1 if small else 2))
    ladder = tuple(range(1, draw(st.integers(1, 1 if small else 3)) + 1))
    need = wA + 2 * ladder[-1] + wC if mode == "ring" else wA + 1
    if family == "repetition":
        L = draw(st.integers(max(3, need - 1), max(3, need - 1) + 3))
    else:
        L = draw(st.integers(3, 4))
    T = wA + ladder[-1] + wC + draw(st.integers(1, 4))
    return family, L, T, draw(st.sampled_from([0.05, 0.11, 0.2])), mode, wA, wC, ladder


@settings(max_examples=40, deadline=None, derandomize=True)
@given(fitting_ladders())
def test_exact_cells_read_the_sampled_ladders_tripartitions(case):
    """Each exact rung is the oracle of the sampled rung at its w_B, as the benchmark reads it."""
    family, L, T, p, mode, wA, wC, ladder = case
    model = small_model(family, L, T, p, 0.0, p)
    try:
        sampled = averaged_cmi_ladder(model, ladder, 64, 0, wA=wA, wC=wC, mode=mode)
    except ValueError:  # too wide for L, or for the histogram cap
        assume(False)
    tris = [
        build_tripartition(model, wA=wA, wB=d["wB"], wC=wC, anchor=tuple(d["anchor"]),
                           mode=d["mode"], sector=d["sector"])
        for d in (pt.descriptor for pt in sampled)
    ]
    assume(len(tris[-1].all_detectors) <= 20)  # the exact table has 2^width entries
    cell, = sweep_cells(family, [(L, T, p)], ladder=ladder, wA=wA, wC=wC, mode=mode,
                        method="exact")
    assert [pt.descriptor["wB"] for pt in cell.points] == list(ladder)
    for pt, tri in zip(cell.points, tris):
        oracle = cmi(model, tri, method="exact", exact_cap=10**9).cmi
        assert pt.cmi == pytest.approx(oracle, rel=1e-9, abs=1e-12)


# Recorded before the ladder sampled only the tripartitions' detectors: the
# ladder's output must not depend on which rows the batch holds.
PINNED_LADDERS = {
    "repetition": [
        "CmiPoint(dist=2, cmi=0.004897804688679619, std_error=0.0012035844710851888, "
        "method='sampled(n=10001,seed=5,anchors=4)', n_samples=10001, descriptor={'mode': "
        "'strip', 'wA': 2, 'wB': 1, 'wC': 1, 'sector': 'z', 'anchor': (0, 1)}, "
        "support_abc=256, reliable=False)",
        "CmiPoint(dist=3, cmi=0.011016315957640188, std_error=0.00210286221920215, "
        "method='sampled(n=10001,seed=5,anchors=4)', n_samples=10001, descriptor={'mode': "
        "'strip', 'wA': 2, 'wB': 2, 'wC': 1, 'sector': 'z', 'anchor': (0, 1)}, "
        "support_abc=922, reliable=False)",
        "CmiPoint(dist=4, cmi=0.10936956763994754, std_error=0.003186108105128716, "
        "method='sampled(n=10001,seed=5,anchors=4)', n_samples=10001, descriptor={'mode': "
        "'strip', 'wA': 2, 'wB': 3, 'wC': 1, 'sector': 'z', 'anchor': (0, 1)}, "
        "support_abc=2377, reliable=False)",
    ],
    "toric": [
        "CmiPoint(dist=2, cmi=0.0010979156862761148, std_error=0.0005892760335410401, "
        "method='sampled(n=4001,seed=5,anchors=3)', n_samples=4001, descriptor={'mode': "
        "'strip', 'wA': 1, 'wB': 1, 'wC': 1, 'sector': 'z', 'anchor': (0, 2, 1)}, "
        "support_abc=8, reliable=True)",
        "CmiPoint(dist=3, cmi=-0.0003178081049040789, std_error=0.00034539386223753895, "
        "method='sampled(n=4001,seed=5,anchors=3)', n_samples=4001, descriptor={'mode': "
        "'strip', 'wA': 1, 'wB': 2, 'wC': 1, 'sector': 'z', 'anchor': (0, 2, 1)}, "
        "support_abc=16, reliable=True)",
    ],
}


def test_ladder_output_pinned():
    rep = build_detector_model(repetition_code(8), 8, NoiseModel.phenomenological(0.1))
    points = averaged_cmi_ladder(rep, (1, 2, 3), 10_001, 5, wA=2, wC=1, stream="pin/rep")
    assert [repr(pt) for pt in points] == PINNED_LADDERS["repetition"]
    tor = build_detector_model(toric_code(6), 6, NoiseModel.phenomenological(0.03))
    points = averaged_cmi_ladder(tor, (1, 2), 4_001, 5, wA=1, wC=1, stream="pin/toric")
    assert [repr(pt) for pt in points] == PINNED_LADDERS["toric"]


def test_cross_module_calls_go_through_module_globals(monkeypatch):
    """markovbench's traced runs time these calls by rebinding the module names;
    a ladder that stopped reaching them would go untimed. A decoder curve reads
    the decoding kernel directly and never builds ``decode``'s results."""
    from stmarkov import decoder, markov

    calls = {}

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module, name in ((markov, "build_tripartition"), (markov, "subset_patterns"),
                         (markov, "sample_batch"), (decoder, "decode")):
        count(module, name)
    model = model_for(6, 6, 0.1)
    markov.averaged_cmi_ladder(model, (1, 2), 2_000, 1, wA=2, wC=1)
    decoder.logical_error_rate(model, 20, 1)
    n_anchors = 3  # x = 0, 2, 4
    n_chunks = 32
    # Each rung at each anchor is built; each anchor's table reads its
    # patterns once per chunk.
    assert calls == {
        "build_tripartition": 2 * n_anchors, "subset_patterns": n_anchors * n_chunks,
        "sample_batch": 1,
    }


def test_import_loads_no_multiprocessing():
    """The process pool module is imported where a pool is made, so a plain
    import of the package loads no multiprocessing."""
    import stmarkov

    src = os.path.dirname(os.path.dirname(os.path.abspath(stmarkov.__file__)))
    script = "import sys, stmarkov; print('multiprocessing' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_rate_points_jobs_change_no_point():
    args = ("repetition", [(6, 4), (8, 6)], [0.05, 0.12], 300, 2)
    serial = list(rate_points(*args))
    assert [(rp.L, rp.T, rp.p) for rp in serial] == [
        (6, 4, 0.05), (6, 4, 0.12), (8, 6, 0.05), (8, 6, 0.12)
    ]
    assert list(rate_points(*args, jobs=2)) == serial
