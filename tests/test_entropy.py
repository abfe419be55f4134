import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    _plugin_entropy_bits,
    enumerate_region_distribution,
    entropy_of_dist,
    history_from_errors,
    reference_table_entropies,
    repeat_chunk_table,
)

from stmarkov import entropy
from stmarkov.cli import main
from stmarkov.codes import repetition_code
from stmarkov.entropy import (
    BruteForceCapExceeded,
    _chunk_table,
    _jackknife_std,
    _table_entropies,
    entropy_decomposition_check,
    exact_entropy,
    exact_region_dist,
    full_syndrome_region,
    marginal_entropy,
    rank_entropy_half,
)
from stmarkov.foliation import foliate
from stmarkov.sampler import SampleBatch, sample_batch, subset_patterns
from stmarkov.spacetime import (
    Detector,
    DetectorModel,
    Mechanism,
    NoiseModel,
    build_detector_model,
)
from stmarkov.tableau import init_graph_state, measure_x_all


def binary_entropy(p):
    if p in (0.0, 1.0):
        return 0.0
    return -p * np.log2(p) - (1 - p) * np.log2(1 - p)


def toy_model(mech_specs):
    """Hand-built DetectorModel: mech_specs = [(p, (detector indices...))]."""
    n_det = 1 + max((d for _, dets in mech_specs for d in dets), default=0)
    code = repetition_code(3)  # carrier only; geometry unused here
    detectors = [Detector("z", i, 0, (i, 0)) for i in range(n_det)]
    mechanisms = [
        Mechanism("data_x", "", i, 0, p, tuple(dets), ())
        for i, (p, dets) in enumerate(mech_specs)
    ]
    return DetectorModel(code, 1, NoiseModel(0.1, 0.0, 0.1), detectors, mechanisms, [])


def batch_of(chunks, width):
    """Hand-built batch over detectors 0..width-1 whose chunk i holds the patterns chunks[i]."""
    patterns = np.concatenate([np.asarray(c, dtype=np.uint64) for c in chunks])
    bits = (patterns[None, :] >> np.arange(width, dtype=np.uint64)[:, None]) & np.uint64(1)
    return SampleBatch(
        region=tuple(range(width)),
        n_samples=patterns.size,
        rows=np.packbits(bits.astype(np.uint8), axis=1, bitorder="little"),
        chunk_bounds=tuple(np.cumsum([0] + [len(c) for c in chunks]).tolist()),
        seed=0,
        stream="hand",
    )


# -- plug-in kernel ----------------------------------------------------------


def plugin(counts, width, correction):
    """Full-sample plug-in entropy of a one-chunk table of ``counts``."""
    return _table_entropies(np.array(counts)[:, None], width, correction)[0]


def test_plugin_simple_values():
    assert plugin([5, 5], math.inf, False) == pytest.approx(1.0)
    assert plugin([10], math.inf, False) == pytest.approx(0.0)
    assert plugin([10], math.inf, True) == pytest.approx(0.0)
    assert plugin([2, 2, 2, 2], math.inf, False) == pytest.approx(2.0)


def test_plugin_miller_madow_correction():
    h_none = plugin([6, 4], math.inf, False)
    h_mm = plugin([6, 4], math.inf, True)
    assert h_mm == pytest.approx(h_none + 1 / (20 * np.log(2)))


def test_plugin_clamps_to_width():
    assert plugin([1, 1], 1, True) == 1.0


def test_plugin_jackknife_error_reasonable():
    rng = np.random.default_rng(0)
    bits = rng.random(40_000) < 0.3
    batch = batch_of(np.array_split(bits, 20), 1)
    table, _ = _chunk_table(subset_patterns(batch, [0]), batch.chunk_bounds, 1)
    h = _table_entropies(table, 1, True)
    std = _jackknife_std(h[1:])
    assert abs(h[0] - binary_entropy(0.3)) < 4 * std
    assert 0 < std < 0.02


def recount_entropy(chunks, width, correction):
    """Plug-in value and jackknife error of chunked patterns, recounted chunk by chunk with np.unique."""
    cols = [np.asarray(c, dtype=np.uint64) for c in chunks]
    patterns = np.concatenate(cols)
    n = patterns.size
    values, totals = np.unique(patterns, return_counts=True)
    value = _plugin_entropy_bits(totals, n, width, correction)
    loo = []
    for col in cols:
        v, c = np.unique(col, return_counts=True)
        rest = totals.copy()
        rest[np.searchsorted(values, v)] -= c
        # Leaving out a chunk that holds every sample leaves an empty sample: 0 bits.
        loo.append(_plugin_entropy_bits(rest, n - col.size, width, correction) if n > col.size else 0.0)
    loo = np.array(loo)
    return value, np.sqrt((loo.size - 1) / loo.size * ((loo - loo.mean()) ** 2).sum())


@st.composite
def hand_batches(draw):
    """(width, chunks): up to 6 chunks of up to 80 patterns drawn from a random support."""
    width = draw(st.integers(1, 12))
    support = draw(st.lists(st.integers(0, (1 << width) - 1), min_size=1, max_size=24))
    chunks = draw(st.lists(
        st.lists(st.sampled_from(support), max_size=80), min_size=1, max_size=6
    ).filter(lambda cs: sum(map(len, cs)) > 0))
    return width, chunks


@settings(max_examples=300, deadline=None)
@given(hand_batches(), st.sampled_from(["miller_madow", "none"]))
@example((1, [[0, 1, 1, 0, 1]]), "miller_madow")  # one chunk: zero jackknife error
@example((2, [[0, 1, 2, 3] * 5, [3, 3, 0, 1] * 5]), "miller_madow")  # dense table
@example((12, [[4095, 17, 17], [0, 2048], [4095]]), "none")  # compacted table
@example((3, [[], [5, 1, 5, 2], []]), "miller_madow")  # one chunk holds every sample
def test_entropy_from_batch_matches_recount(case, correction):
    width, chunks = case
    batch = batch_of(chunks, width)
    table, _ = _chunk_table(subset_patterns(batch, list(range(width))), batch.chunk_bounds, width)
    h = _table_entropies(table, width, correction == "miller_madow")
    value, std = recount_entropy(chunks, width, correction == "miller_madow")
    assert h[0] == pytest.approx(value, rel=1e-12, abs=1e-15)
    assert _jackknife_std(h[1:]) == pytest.approx(std, rel=1e-12, abs=1e-15)
    assert len(chunks) > 1 or _jackknife_std(h[1:]) == 0.0
    assert table.sum() == sum(map(len, chunks))
    assert np.count_nonzero(table.sum(axis=1)) == len(set().union(*chunks))


@st.composite
def count_tables(draw):
    """(table, width): a dense or compacted (pattern x chunk) count table.

    Dense tables have 2^width rows, zero rows among them; compacted ones list
    only observed patterns. Some chunks may be empty, one chunk may hold every
    sample, and counts capped at 1 make near-uniform tables whose
    Miller-Madow value passes the width.
    """
    n_chunks = draw(st.integers(1, 40))
    dense = draw(st.booleans())
    if dense:
        width = draw(st.integers(1, 8))
        n_rows = 1 << width
    else:
        n_rows = draw(st.integers(1, 300))
        width = draw(st.integers(max(1, (n_rows - 1).bit_length()), 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = rng.poisson(draw(st.sampled_from([0.05, 0.5, 2.0, 30.0])), (n_rows, n_chunks))
    keep = int(rng.integers(n_chunks))
    if draw(st.booleans()):
        table[:, rng.random(n_chunks) < 0.3] = 0
    if draw(st.booleans()):
        table[:, np.arange(n_chunks) != keep] = 0
    if draw(st.booleans()):
        np.minimum(table, 1, out=table)
    if not dense:
        table[table.sum(axis=1) == 0, keep] = 1
    return table, width


@settings(max_examples=300, deadline=None)
@given(count_tables(), st.booleans())
@example((np.array([[1], [1]]), 1), True)  # clamped to the width
@example((np.zeros((4, 3), dtype=np.int64), 2), True)  # every row empty
@example((np.array([[0, 5], [0, 0], [0, 2], [0, 0]]), 2), False)  # one chunk holds every sample
def test_table_entropies_match_loop_bitwise(case, correction):
    table, width = case
    h = _table_entropies(table, width, correction)
    ref = reference_table_entropies(table, width, correction)
    assert np.array_equal(h, ref)
    assert h.tobytes() == ref.tobytes()  # signed zeros too


def test_entropy_pass_stays_below_table_bytes():
    """One pass over a wide compacted table allocates less than the table holds."""
    rng = np.random.default_rng(1)
    observed = np.unique(rng.integers(0, 1 << 40, 20_200, dtype=np.uint64))[:20_000]
    patterns = np.concatenate([observed, rng.choice(observed, 44_000)])
    rng.shuffle(patterns)
    bounds = [2_000 * i for i in range(33)]
    table, values = _chunk_table(patterns, bounds, 40)
    assert values is not None and table.shape == (20_000, 32)
    tracemalloc.start()
    try:
        _table_entropies(table, 40, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table.nbytes


@pytest.mark.parametrize(
    "width, bounds",
    [
        (3, (0, 8, 16, 24, 40, 41)),  # dense: 8 patterns x 5 chunks <= 41 samples
        (12, (0, 8, 16, 24, 40, 41)),  # compacted
        (2, (0, 0, 16, 16, 30)),  # dense, with empty chunks
        (20, (0, 30)),  # compacted, one chunk
    ],
)
def test_chunk_table_matches_repeat_formulation(width, bounds):
    rng = np.random.default_rng(width)
    patterns = rng.integers(0, 1 << width, bounds[-1]).astype(np.uint64)
    table, values = _chunk_table(patterns, bounds, width)
    expect, expect_values = repeat_chunk_table(patterns, bounds, width)
    assert table.dtype == expect.dtype and np.array_equal(table, expect)
    dense = (1 << width) * (len(bounds) - 1) <= bounds[-1]
    assert (values is None) == (expect_values is None) == dense
    assert dense or np.array_equal(values, expect_values)


# Recorded with a plug-in estimator that clamped only the full-sample value:
# every case reads the same now except "clamped_loo", whose leave-one-chunk-out
# values above the width are now clamped too (std_error 0.10011668176047228
# when they were not). "dict/width", "dict/width/none" and "clamped_loo" were
# recorded from per-chunk count dicts; they are read here from hand-built
# batches with the same per-chunk counts.
PINNED_PLUGIN = {
    "batch/rep3": ("2.602053636095712", "0.013717087192239774"),
    "batch/rep3/none": ("2.6010443551356657", "0.01371861379307242"),
    "batch/rep6": ("5.186530980175006", "0.022004922982724818"),
    "batch/rep6/none": ("5.17744745153459", "0.022002318180251713"),
    "batch/rep10": ("7.823742977365002", "0.03140555433886145"),
    "batch/rep10/none": ("7.733484422938009", "0.031045775323292436"),
    "batch/toric12": ("7.150891623598599", "0.1001068602204035"),
    "dict/width": ("2.9418659920862136", "0.03234186156256991"),
    "dict/width/none": ("2.936141011765226", "0.03279079807682679"),
    "clamped_loo": ("1.0", "0.005589996953164533"),
}


def test_plugin_entropy_pinned():
    from stmarkov.codes import toric_code

    got = {}

    def record(name, batch, region, correction=True):
        table, _ = _chunk_table(subset_patterns(batch, region), batch.chunk_bounds, len(region))
        h = _table_entropies(table, len(region), correction)
        got[name] = (repr(float(h[0])), repr(_jackknife_std(h[1:])))

    rep = build_detector_model(repetition_code(6), 5, NoiseModel.phenomenological(0.1))
    batch = sample_batch(rep, list(range(rep.n_detectors)), 5_003, seed=11)
    for name, region in (("rep3", [7, 8, 13]), ("rep6", [1, 2, 3, 8, 9, 10]),
                         ("rep10", list(range(12, 22)))):
        record(f"batch/{name}", batch, region)
        record(f"batch/{name}/none", batch, region, correction=False)
    tor = build_detector_model(toric_code(3), 3, NoiseModel.phenomenological(0.05))
    batch = sample_batch(tor, list(range(20)), 997, seed=4, n_chunks=7)
    record("batch/toric12", batch, list(range(3, 15)))

    # Six chunks of per-pattern counts over keys not in sorted order, as a 4-bit batch.
    rng = np.random.default_rng(5)
    keys = [9, 3, 14, 0, 7, 5, 12, 1]
    chunks = [{k: int(rng.integers(0, 40)) for k in keys} for _ in range(6)]
    batch = batch_of([np.repeat(keys, [ch[k] for k in keys]) for ch in chunks], 4)
    record("dict/width", batch, list(range(4)))
    record("dict/width/none", batch, list(range(4)), correction=False)
    # Two of the three leave-one-chunk-out values exceed the 1-bit width.
    record("clamped_loo", batch_of([[0, 0], [0, 1, 1], [1]], 1), [0])
    assert got == PINNED_PLUGIN


# -- exact oracle -----------------------------------------------------------


def test_exact_entropy_two_single_detector_mechanisms():
    model = toy_model([(0.1, (0,)), (0.1, (0,))])
    # Four-pattern enumeration: flip probability 0.18.
    h = exact_entropy(model, [0])
    assert h == pytest.approx(binary_entropy(0.18), abs=1e-12)
    assert h == pytest.approx(0.6801, abs=1e-4)


def test_exact_entropy_limits():
    assert exact_entropy(toy_model([(0.0, (0,))]), [0]) == 0.0
    assert exact_entropy(toy_model([(0.5, (0,))]), [0]) == pytest.approx(1.0)


def test_exact_matches_itertools_oracle():
    model = build_detector_model(
        repetition_code(3), 2, NoiseModel.phenomenological(0.13)
    )
    region = [model.det_index[("z", c, t)] for c in range(3) for t in range(2)]
    values, probs = exact_region_dist(model, region, cap=22)
    oracle = enumerate_region_distribution(model, region)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    got = {int(v): p for v, p in zip(values, probs)}
    for pattern in set(oracle) | set(got):
        assert got.get(pattern, 0.0) == pytest.approx(oracle.get(pattern, 0.0), abs=1e-12)
    assert exact_entropy(model, region) == pytest.approx(entropy_of_dist(oracle), abs=1e-10)


def test_exact_cap_refusal_reports_count():
    model = build_detector_model(repetition_code(4), 3, NoiseModel.phenomenological(0.1))
    region = list(range(model.n_detectors))
    with pytest.raises(BruteForceCapExceeded) as err:
        exact_entropy(model, region, cap=10)
    assert err.value.count == model.n_mechanisms


def test_marginal_entropy_consistency():
    model = build_detector_model(repetition_code(3), 2, NoiseModel.phenomenological(0.1))
    region = [model.det_index[("z", c, 1)] for c in range(3)]
    values, probs = exact_region_dist(model, region)
    sub = region[:2]
    direct = exact_entropy(model, sub)
    via_marginal = marginal_entropy(values, probs, [0, 1])
    assert via_marginal == pytest.approx(direct, abs=1e-10)


def test_entropy_monotone_in_region():
    model = build_detector_model(repetition_code(4), 2, NoiseModel.phenomenological(0.08))
    region = [model.det_index[("z", c, t)] for c in range(3) for t in range(2)]
    h_prev = 0.0
    for k in range(1, len(region) + 1):
        h = exact_entropy(model, region[:k], cap=24)
        assert h >= h_prev - 1e-12
        h_prev = h


# -- rank oracle at p = 1/2 --------------------------------------------------


def test_rank_oracle_synthetic():
    model = toy_model([(0.5, (0,)), (0.5, (1,)), (0.5, (2,))])
    assert rank_entropy_half(model, [0, 1, 2]) == 3.0
    dup = toy_model([(0.5, (0, 1))])
    assert rank_entropy_half(dup, [0, 1]) == 1.0


def test_rank_oracle_requires_half():
    model = toy_model([(0.4, (0,))])
    with pytest.raises(ValueError):
        rank_entropy_half(model, [0])


def test_rank_matches_brute_force_full_system():
    model = build_detector_model(
        repetition_code(4), 3, NoiseModel(p_x=0.5, p_z=0.0, q=0.5)
    )
    region = list(range(model.n_detectors))
    h_rank = rank_entropy_half(model, region)
    h_brute = exact_entropy(model, region, cap=24)
    assert h_brute == pytest.approx(h_rank, abs=1e-9)


def test_rank_matches_brute_force_random_regions():
    model = build_detector_model(
        repetition_code(3), 2, NoiseModel(p_x=0.5, p_z=0.0, q=0.5)
    )
    rng = np.random.default_rng(4)
    for _ in range(25):
        k = int(rng.integers(1, 7))
        region = sorted(rng.choice(model.n_detectors, size=k, replace=False).tolist())
        assert exact_entropy(model, region) == pytest.approx(
            rank_entropy_half(model, region), abs=1e-9
        )


# -- estimator vs oracle ------------------------------------------------------


def test_sampled_entropy_tracks_exact():
    model = build_detector_model(repetition_code(4), 3, NoiseModel.phenomenological(0.1))
    region = [model.det_index[("z", c, t)] for c in range(3) for t in (1, 2)]
    batch = sample_batch(model, region, 300_000, seed=23)
    table, _ = _chunk_table(subset_patterns(batch, region), batch.chunk_bounds, len(region))
    h = _table_entropies(table, len(region), True)
    exact = exact_entropy(model, region, cap=24)
    assert abs(h[0] - exact) < 3 * _jackknife_std(h[1:]) + 1e-3


# -- syndrome entropy decomposition -------------------------------------------


def repetition_frame_masks(L, T, region):
    """Hand-coded teleportation-frame rule for the repetition code."""
    ucols = {}

    def col(i, t):
        if (i, t) not in ucols:
            ucols[(i, t)] = len(ucols)
        return ucols[(i, t)]

    masks = []
    for sector, c, r in region:
        assert sector == "z"
        m = 0
        for i in (c, (c + 1) % L):
            for t in range(r):
                m |= 1 << col(i, t)
        masks.append(m)
    return masks, len(ucols)


def honest_syndrome_distribution(L, T, p, region):
    """Enumerate (errors, frames) jointly; fully independent of the package."""
    code = repetition_code(L)
    mechs = [("data_x", i, t) for t in range(T) for i in range(L)] + [
        ("readout", c, r) for r in range(1, T + 1) for c in range(L)
    ]
    frame_masks, n_u = repetition_frame_masks(L, T, region)
    row_of = {coord: j for j, coord in enumerate(region)}
    dist = {}
    for bits in itertools.product((0, 1), repeat=len(mechs)):
        pr = 1.0
        dx, ro = [], []
        for b, (kind, idx, t) in zip(bits, mechs):
            pr *= p if b else (1 - p)
            if b and kind == "data_x":
                dx.append((idx, t))
            elif b and kind == "readout":
                ro.append(("z", idx, t))
        hist = history_from_errors(code, T, data_x=dx, readout=ro)
        sigma = 0
        for coord, j in row_of.items():
            _, c, r = coord
            if hist[c, r - 1]:
                sigma |= 1 << j
        for u in range(1 << n_u):
            pattern = sigma
            for j, fm in enumerate(frame_masks):
                parity = bin(fm & u).count("1") % 2
                pattern ^= parity << j
            dist[pattern] = dist.get(pattern, 0.0) + pr / (1 << n_u)
    return dist


def test_decomposition_against_honest_enumeration():
    L, T, p = 3, 1, 0.15
    region = [("z", c, r) for c in range(L) for r in (1, 2)]
    report = entropy_decomposition_check(
        repetition_code(L), T, NoiseModel.phenomenological(p), region
    )
    dist = honest_syndrome_distribution(L, T, p, region)
    h_direct = entropy_of_dist(dist)
    assert report.h_s == pytest.approx(h_direct, abs=1e-10)
    assert report.deterministic_are_detector_combos
    assert abs(report.residual) < 1e-12
    # Both per-round check redundancies cancel frames; nothing else does.
    assert report.n_deterministic == 2
    # Round-1 loop reads the readout parity, the perfect round is silent.
    assert report.h_d == pytest.approx(binary_entropy((1 - (1 - 2 * p) ** 3) / 2), abs=1e-10)


def test_decomposition_full_system_residual_zero():
    for L, T in ((3, 2), (4, 2)):
        model_region = None
        noise = NoiseModel.phenomenological(0.1)
        code = repetition_code(L)
        model = build_detector_model(code, T, noise)
        region = full_syndrome_region(model)
        report = entropy_decomposition_check(code, T, noise, region, cap=24)
        assert abs(report.residual) < 1e-10
        assert report.deterministic_are_detector_combos


def test_decomposition_residual_reads_the_detector_distribution(monkeypatch):
    # H(d) comes from the detector distribution, so bending it shows in the residual.
    exact = entropy.exact_region_dist

    def bent(model, region, cap=22):
        values, probs = exact(model, region, cap)
        probs = probs.copy()
        probs[0] += 1e-3
        probs[-1] -= 1e-3
        return values, probs

    monkeypatch.setattr(entropy, "exact_region_dist", bent)
    code, noise = repetition_code(3), NoiseModel.phenomenological(0.1)
    region = full_syndrome_region(build_detector_model(code, 2, noise))
    report = entropy_decomposition_check(code, 2, noise, region)
    assert report.deterministic_are_detector_combos
    assert abs(report.residual) > 1e-4
    assert main(["verify"]) == 1


def test_decomposition_p_zero_uniform_frames():
    code = repetition_code(3)
    noise = NoiseModel(p_x=0.0, p_z=0.0, q=0.0)
    model = build_detector_model(code, 2, noise)
    region = full_syndrome_region(model)
    report = entropy_decomposition_check(code, 2, noise, region, cap=24)
    assert report.h_d == pytest.approx(0.0, abs=1e-12)
    assert report.h_s == pytest.approx(report.n_syndromes - report.n_deterministic)


def test_decomposition_no_detector_region_fully_random():
    code = repetition_code(3)
    noise = NoiseModel.phenomenological(0.1)
    report = entropy_decomposition_check(code, 2, noise, [("z", 0, 2)])
    assert report.n_deterministic == 0
    assert report.h_s == pytest.approx(1.0)
    report2 = entropy_decomposition_check(code, 2, noise, [("z", 0, 1), ("z", 0, 2)])
    assert report2.n_deterministic == 0
    assert report2.h_s == pytest.approx(2.0)


def test_decomposition_cap():
    with pytest.raises(BruteForceCapExceeded):
        entropy_decomposition_check(
            repetition_code(5), 4, NoiseModel.phenomenological(0.1), [("z", 0, 1)], cap=10
        )


# -- frame model against the tableau pipeline ---------------------------------


def syndrome_sites(rs):
    return {(c, r): rs.site_index[("sz", c, 2 * r)] for c in range(rs.code.n_z_checks)
            for r in range(1, rs.m_f + 1)}


def test_tableau_syndrome_marginal_matches_frame_model():
    """Noiseless foliated sampling: loop combos deterministic, rest uniform."""
    L, T = 3, 1
    code = repetition_code(L)
    rs = foliate(code, T + 1)
    sites = syndrome_sites(rs)
    rng = np.random.default_rng(77)
    base = init_graph_state(rs)
    patterns = []
    order = [("z", c, r) for c in range(L) for r in (1, 2)]
    n_shots = 1500
    for _ in range(n_shots):
        out = measure_x_all(base.copy(), rs, rng)
        pat = 0
        for j, (_, c, r) in enumerate(order):
            pat |= int(out[sites[(c, r)]]) << j
        # Per-round check-redundancy loops must be exactly satisfied.
        for r in (1, 2):
            parity = 0
            for c in range(L):
                parity ^= int(out[sites[(c, r)]])
            assert parity == 0
        patterns.append(pat)
    uniq, counts = np.unique(patterns, return_counts=True)
    assert uniq.size == 16  # 6 bits minus 2 deterministic loops
    assert counts.min() > n_shots / 16 * 0.5


def test_tableau_syndrome_entropy_matches_decomposition():
    L, T, p = 3, 1, 0.15
    code = repetition_code(L)
    noise = NoiseModel.phenomenological(p)
    model = build_detector_model(code, T, noise)
    rs = foliate(code, T + 1)
    sites = syndrome_sites(rs)
    order = [("z", c, r) for c in range(L) for r in (1, 2)]
    report = entropy_decomposition_check(code, T, noise, order)
    rng = np.random.default_rng(123)
    probs = model.mechanism_probs()
    base = init_graph_state(rs)
    n_shots = 8000
    counts = {}
    for _ in range(n_shots):
        tab = base.copy()
        e = rng.random(model.n_mechanisms) < probs
        sites_err = []
        for k in np.flatnonzero(e):
            sites_err.extend(rs.map_mechanism(model.mechanisms[k]))
        tab.apply_z(sites_err)
        out = measure_x_all(tab, rs, rng)
        pat = 0
        for j, (_, c, r) in enumerate(order):
            pat |= int(out[sites[(c, r)]]) << j
        counts[pat] = counts.get(pat, 0) + 1
    h_s = _plugin_entropy_bits(np.array(list(counts.values())), n_shots, len(order), True)
    assert abs(h_s - report.h_s) < 0.1


def test_cell_sign_entropy_equals_detector_entropy():
    """H(m) over resource-state cell signs equals circuit-side H(d) exactly."""
    import itertools as it

    from stmarkov.foliation import detector_cells
    from stmarkov.tableau import init_graph_state

    code = repetition_code(3)
    noise = NoiseModel.phenomenological(0.2)
    T = 1
    model = build_detector_model(code, T, noise)
    rs = foliate(code, T + 1)
    rows = [model.det_index[key] for key in rs.detector_keys]
    cells = detector_cells(rs)
    base = init_graph_state(rs)
    probs = model.mechanism_probs()
    dist = {}
    for bits in it.product((0, 1), repeat=model.n_mechanisms):
        e = np.array(bits, dtype=np.uint8)
        pr = float(np.prod(np.where(e, probs, 1 - probs)))
        tab = base.copy()
        sites = []
        for k in np.flatnonzero(e):
            sites.extend(rs.map_mechanism(model.mechanisms[k]))
        tab.apply_z(sites)
        # Cell parities are deterministic stabilizer signs for any fixed e.
        pattern = 0
        for j, op in enumerate(cells):
            sign = tab.expectation(op)
            assert sign in (1, -1)
            if sign == -1:
                pattern |= 1 << j
        dist[pattern] = dist.get(pattern, 0.0) + pr
    h_m = -sum(p * np.log2(p) for p in dist.values() if p > 0)
    h_d = exact_entropy(model, rows)
    assert h_m == pytest.approx(h_d, abs=1e-12)
