import functools
import math
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
    _table_cmi,
    averaged_cmi_ladder,
    build_tripartition,
    cmi,
    cmi_rank_half,
    interpolate_peak,
    ladder_band_t0,
    markov_length,
    sweep_cells,
    validate_tripartition,
)
from stmarkov.entropy import _chunk_table
from stmarkov.sampler import PatternWidthExceeded, sample_batch, subset_patterns
from stmarkov.spacetime import NoiseModel, Tripartition, build_detector_model


def model_for(L, T, p, q=None, half=False):
    if half:
        noise = NoiseModel(p_x=0.5, p_z=0.0, q=0.5)
    else:
        noise = NoiseModel(p_x=p, p_z=0.0, q=p if q is None else q)
    return build_detector_model(repetition_code(L), T, noise)


def test_ring_tripartition_counts():
    model = model_for(16, 16, 0.1)
    tri = build_tripartition(model, wA=2, wB=1, wC=2, mode="ring")
    assert len(tri.a) == 4
    assert len(tri.b) == 12
    assert len(tri.c) == 4
    assert tri.dist_ac == 2
    assert not (set(tri.a) & set(tri.b)) and not (set(tri.b) & set(tri.c))


def test_ring_wb_zero_adjacent():
    model = model_for(12, 12, 0.1)
    tri = build_tripartition(model, wA=2, wB=0, wC=2, mode="ring")
    assert tri.dist_ac == 1
    assert len(tri.b) == 0


def test_strip_tripartition_counts():
    model = model_for(16, 16, 0.1)
    tri = build_tripartition(model, wA=2, wB=5, wC=2, mode="strip")
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


def test_tripartition_cap_refused():
    model = model_for(16, 16, 0.1)
    with pytest.raises(PatternWidthExceeded):
        build_tripartition(model, wA=2, wB=2, wC=2, mode="ring", cap=24)


def test_tripartition_respects_time_bulk():
    model = model_for(8, 4, 0.1)
    with pytest.raises(ValueError):
        build_tripartition(model, wA=2, wB=3, wC=2, anchor=(0, 0), mode="strip")


def test_cmi_zero_at_p_zero():
    model = model_for(8, 8, 0.0, q=0.0)
    assert model.n_mechanisms == 0
    tri = build_tripartition(model, wA=1, wB=1, wC=1, mode="strip")
    point = cmi(model, tri, method="exact")
    assert point.cmi == 0.0
    sampled = cmi(model, tri, n=2000, seed=1)
    assert sampled.cmi == 0.0


def test_cmi_symmetry():
    model = model_for(6, 5, 0.1)
    tri = build_tripartition(model, wA=1, wB=1, wC=1, mode="strip")
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
        tri = build_tripartition(model, wA=1, wB=wB, wC=1, mode="strip")
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


def test_interpolate_peak_quadratic():
    ps = [0.05, 0.07, 0.09, 0.11, 0.13]
    xis = [-((p - 0.10) ** 2) + 1.0 for p in ps]
    peak = interpolate_peak(ps, xis)
    assert peak.interior
    assert peak.p_peak == pytest.approx(0.10, abs=1e-9)
    edge = interpolate_peak(ps, [1, 2, 3, 4, 5])
    assert not edge.interior


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
    tri_lo = build_tripartition(model_lo, wA=2, wB=1, wC=2, mode="ring")
    tri_hi = build_tripartition(model_hi, wA=2, wB=1, wC=2, mode="ring")
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
    tri = build_tripartition(model, wA=2, wB=wB, wC=1, mode="strip")
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
    table, values = _chunk_table(
        subset_patterns(batch, region), batch.chunk_bounds, len(region)
    )
    return _table_cmi(table, values, region, tri, correction, {})


def count_pattern_calls(monkeypatch):
    """Record each call of ``markov.subset_patterns``: one per count table built."""
    calls = []
    original = markov.subset_patterns

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(markov, "subset_patterns", counted)
    return calls


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
    assert len(calls) == 1  # the rungs nest: one table serves them all
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
    assert [len(args[1]) for args in calls] == [20]
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
    assert spy.call_count == 1
    assert_anchor_table_matches_own_tables(batch, tris)


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
    # Each rung at each anchor is built; the patterns are read once per anchor.
    assert calls == {
        "build_tripartition": 2 * n_anchors, "subset_patterns": n_anchors, "sample_batch": 1,
    }
