import dataclasses
import hashlib
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
    per_bit_subset_patterns,
    reference_marginal_entropy,
    reference_marginal_sum,
    reference_table_entropies,
    repeat_chunk_table,
)

from stmarkov import entropy
from stmarkov.cli import main
from stmarkov.codes import repetition_code, toric_code, validate_code
from stmarkov.entropy import (
    BruteForceCapExceeded,
    _chunk_table,
    _jackknife_std,
    _marginal_sum,
    _marginal_table,
    _table_entropies,
    entropy_decomposition_check,
    exact_entropy,
    exact_region_dist,
    full_syndrome_region,
    marginal_entropy,
    rank_entropy_half,
)
from stmarkov.foliation import foliate
from stmarkov.markov import _region_table
from stmarkov.sampler import PatternWidthExceeded, SampleBatch, chunk_bounds, sample_batch
from stmarkov.spacetime import (
    KINDS,
    SECTORS,
    DetectorModel,
    DetectorTable,
    MechanismTable,
    NoiseModel,
    build_detector_model,
)
from stmarkov.tableau import init_graph_state, measure_x_all


def binary_entropy(p):
    if p in (0.0, 1.0):
        return 0.0
    return -p * np.log2(p) - (1 - p) * np.log2(1 - p)


def toy_model(mech_specs):
    """Hand-built DetectorModel: mech_specs = [(p, (detector indices...))].

    Detector i is ("z", i, 0) at (i, 0); mechanism k is a data X error on
    qubit k at interface 0 that flips its listed detectors.
    """
    n_det = 1 + max((d for _, dets in mech_specs for d in dets), default=0)
    n_mech = len(mech_specs)
    code = repetition_code(3)  # carrier only; geometry unused here
    ids = np.arange(n_det)
    detectors = DetectorTable(
        sector=np.full(n_det, SECTORS.index("z"), dtype=np.int8),
        check=ids,
        t=np.zeros(n_det, dtype=int),
        coords=np.column_stack([ids, np.zeros(n_det, dtype=int)]),
    )
    mechanisms = MechanismTable(
        p=np.array([p for p, _ in mech_specs], dtype=np.float64),
        kind=np.full(n_mech, KINDS.index("data_x"), dtype=np.int8),
        sector=np.full(n_mech, SECTORS.index(""), dtype=np.int8),
        index=np.arange(n_mech),
        time=np.zeros(n_mech, dtype=int),
        det_ptr=np.cumsum([0] + [len(dets) for _, dets in mech_specs]),
        det_cols=np.array([d for _, dets in mech_specs for d in dets], dtype=int),
        flip_ptr=np.zeros(n_mech + 1, dtype=int),
        flip_cols=np.zeros(0, dtype=int),
    )
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
    table, _ = _region_table(batch, [0])
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
    table, _ = _region_table(batch, list(range(width)))
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
    table, values = _chunk_table(lambda lo, hi: patterns[lo:hi], bounds, 40)
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
    table, values = _chunk_table(lambda lo, hi: patterns[lo:hi], bounds, width)
    expect, expect_values = repeat_chunk_table(patterns, bounds, width)
    assert table.dtype == expect.dtype and np.array_equal(table, expect)
    dense = (1 << width) * (len(bounds) - 1) <= bounds[-1]
    assert (values is None) == (expect_values is None) == dense
    assert dense or np.array_equal(values, expect_values)


@st.composite
def chunked_batches(draw):
    """A batch of random packed rows (padding bits set too) in ``chunk_bounds`` chunks, and a region.

    Under 256 samples some of 32 chunks are empty; a sample count off a
    multiple of 8 ends the last chunk mid-byte. Widths from 1 to 16 put the
    table on both sides of the dense rule 2^width * n_chunks <= n.
    """
    n = draw(st.integers(1, 3_000))
    bounds = chunk_bounds(n, draw(st.sampled_from([1, 3, 32])))
    width = draw(st.integers(1, 16))
    region = tuple(range(50, 50 + width + draw(st.integers(0, 3))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Skewed bits keep wide regions' supports well below their 2^width patterns.
    bias = draw(st.sampled_from([0.5, 0.1]))
    bits = rng.random((len(region), 8 * ((n + 7) // 8))) < bias
    rows = np.packbits(bits, axis=1, bitorder="little")
    sub = draw(st.permutations(region))[:width]
    return SampleBatch(region, n, rows, bounds, 0, "hand"), sub


@settings(max_examples=200, deadline=None)
@given(chunked_batches())
@example(
    (SampleBatch((0, 1), 100, np.full((2, 13), 0x5A, dtype=np.uint8), chunk_bounds(100), 0, "hand"),
     [1, 0])
)  # empty chunks, the last one ending mid-byte, compacted: 4 patterns x 32 chunks > 100
@example(
    (SampleBatch((0, 1), 1_001, np.full((2, 126), 0xC3, dtype=np.uint8), chunk_bounds(1_001), 0,
                 "hand"), [0, 1])
)  # dense: 4 x 32 <= 1,001, the last chunk ending mid-byte
def test_chunk_built_table_matches_repeat_formulation(case):
    """The table counted chunk by chunk equals one count over the whole pattern array."""
    batch, sub = case
    table, values = _region_table(batch, sub)
    expect, expect_values = repeat_chunk_table(
        per_bit_subset_patterns(batch, sub), batch.chunk_bounds, len(sub)
    )
    assert table.dtype == expect.dtype and np.array_equal(table, expect)
    assert (values is None) == (expect_values is None)
    assert values is None or (values.dtype == expect_values.dtype
                              and np.array_equal(values, expect_values))


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
        table, _ = _region_table(batch, region)
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


def test_exact_sparse_route_matches_itertools_oracle():
    # 26 detectors exceed the dense table's 24 bits: the pattern-list route.
    model = build_detector_model(repetition_code(13), 1, NoiseModel(p_x=0.0, p_z=0.0, q=0.1))
    region = list(range(model.n_detectors))
    assert (model.n_mechanisms, len(region)) == (13, 26)
    values, probs = exact_region_dist(model, region)
    oracle = enumerate_region_distribution(model, region)
    assert sorted(oracle) == values.tolist()
    assert max(abs(oracle[int(v)] - p) for v, p in zip(values, probs)) == 0.0


def test_exact_cap_refusal_reports_count():
    model = build_detector_model(repetition_code(4), 3, NoiseModel.phenomenological(0.1))
    region = list(range(model.n_detectors))
    with pytest.raises(BruteForceCapExceeded) as err:
        exact_entropy(model, region, cap=10)
    assert err.value.count == model.n_mechanisms


def test_exact_refuses_region_wider_than_a_pattern():
    # 70 detectors with 31 incident mechanisms: within the cap, beyond a 64-bit pattern.
    model = build_detector_model(repetition_code(40), 1, NoiseModel(p_x=0.1, p_z=0.0, q=0.0))
    region = [model.det_index[("z", c, 1)] for c in range(40)]
    region += [model.det_index[("z", c, 0)] for c in range(30)]
    assert len(model.region_mechanisms(region)) == 31
    for oracle in (exact_region_dist, exact_entropy):
        with pytest.raises(PatternWidthExceeded, match="pattern width 70 exceeds cap 64 bits"):
            oracle(model, region, cap=40)
    # 64 detectors still fit: 62 silent perfect-round ones, then two round-0 ones.
    model = build_detector_model(repetition_code(64), 1, NoiseModel(p_x=0.1, p_z=0.0, q=0.0))
    region = [model.det_index[("z", c, t)] for t, cs in ((1, range(62)), (0, (0, 1))) for c in cs]
    values, _ = exact_region_dist(model, region)
    assert values.tolist() == [0, 1 << 62, 1 << 63, 3 << 62]


@st.composite
def listed_distributions(draw):
    """(values, probs, counts, positions): patterns listed with repeats, as the
    decomposition's relabelled patterns are, their float64 probabilities, an
    int64 (pattern x chunk) count table and a random bit subset in random order."""
    width = draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.integers(0, 2**63, draw(st.integers(1, 40)), dtype=np.uint64) << np.uint64(1)
    pool |= rng.integers(0, 2, pool.size, dtype=np.uint64)
    pool &= np.uint64((1 << width) - 1)
    values = pool[rng.integers(0, pool.size, draw(st.integers(0, 80)))]
    probs = rng.random(values.size)
    probs /= max(probs.sum(), 1.0)
    if draw(st.booleans()):
        probs[rng.random(values.size) < 0.3] = 0.0
    n_chunks = draw(st.integers(1, 6))
    counts = rng.poisson(draw(st.sampled_from([0.5, 30.0])), (values.size, n_chunks))
    positions = rng.permutation(width)[: draw(st.integers(0, width))].tolist()
    return values, probs, counts.astype(np.int64), positions


@settings(max_examples=300, deadline=None)
@given(listed_distributions())
def test_marginal_sum_matches_kept_route_bitwise(case):
    """The one compacted sum gives the removed exact route's entropy and an
    in-order recount's sums bit for bit, for probabilities and counts alike."""
    values, probs, counts, positions = case
    assert marginal_entropy(values, probs, positions) == reference_marginal_entropy(
        values, probs, positions
    )
    for weights in (probs, counts):
        got = _marginal_sum(values, weights, positions)
        ref = reference_marginal_sum(values, weights, positions)
        assert got.dtype == weights.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()
    # A compacted count table lists each pattern once, in ascending order.
    uniq = np.unique(values)
    table = counts[: uniq.size]
    width = max(int(uniq.max()).bit_length(), 1) if uniq.size else 1
    keep = sorted(p for p in positions if p < width)
    ref = reference_marginal_sum(uniq, table, keep)
    assert _marginal_table(table, uniq, width, keep).tobytes() == ref.tobytes()


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
    table, _ = _region_table(batch, region)
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
        build_detector_model(repetition_code(L), T, NoiseModel.phenomenological(p)), region
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
    cases = [(repetition_code(L), 2, NoiseModel.phenomenological(0.1)) for L in (3, 4)]
    # Toric X-check syndromes carry data Z errors and integer-layer frames.
    cases.append((toric_code(2), 1, NoiseModel(p_x=0.1, p_z=0.1, q=0.1)))
    for code, T, noise in cases:
        model = build_detector_model(code, T, noise)
        region = full_syndrome_region(model)
        report = entropy_decomposition_check(model, region, cap=24)
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
    model = build_detector_model(repetition_code(3), 2, NoiseModel.phenomenological(0.1))
    report = entropy_decomposition_check(model, full_syndrome_region(model))
    assert report.deterministic_are_detector_combos
    assert abs(report.residual) > 1e-4
    assert main(["verify"]) == 1


def frame_free_non_detector_combo(monkeypatch):
    """Bend the syndrome structure so a frame-free combination is no detector combination:
    the first syndrome's mechanism mask also holds mechanism 0."""
    structure = entropy._syndrome_structure

    def bent(model, region):
        mech_masks, frame_masks = structure(model, region)
        mech_masks[0] ^= 1
        return mech_masks, frame_masks

    monkeypatch.setattr(entropy, "_syndrome_structure", bent)


def test_decomposition_reports_non_detector_combination(monkeypatch):
    frame_free_non_detector_combo(monkeypatch)
    model = build_detector_model(repetition_code(3), 2, NoiseModel.phenomenological(0.1))
    report = entropy_decomposition_check(model, full_syndrome_region(model))
    assert not report.deterministic_are_detector_combos
    assert (report.n_syndromes, report.n_deterministic) == (9, 3)
    assert report.h_s == 7.676973131298925
    assert math.isnan(report.h_d) and math.isnan(report.residual)


def test_decomposition_p_zero_uniform_frames():
    code = repetition_code(3)
    noise = NoiseModel(p_x=0.0, p_z=0.0, q=0.0)
    model = build_detector_model(code, 2, noise)
    region = full_syndrome_region(model)
    report = entropy_decomposition_check(model, region, cap=24)
    assert report.h_d == pytest.approx(0.0, abs=1e-12)
    assert report.h_s == pytest.approx(report.n_syndromes - report.n_deterministic)


def test_decomposition_no_detector_region_fully_random():
    model = build_detector_model(repetition_code(3), 2, NoiseModel.phenomenological(0.1))
    report = entropy_decomposition_check(model, [("z", 0, 2)])
    assert report.n_deterministic == 0
    assert report.h_s == pytest.approx(1.0)
    report2 = entropy_decomposition_check(model, [("z", 0, 1), ("z", 0, 2)])
    assert report2.n_deterministic == 0
    assert report2.h_s == pytest.approx(2.0)


@pytest.mark.parametrize(
    "syndrome", [("z", 0, 0), ("z", 0, 4), ("z", 3, 1), ("z", -1, 1), ("x", 0, 1)],
    ids=["round-0", "round-past-end", "check-past-end", "check-negative", "no-x-checks"],
)
def test_decomposition_refuses_syndrome_outside_the_run(syndrome):
    # Repetition(3) over 2 rounds measures z checks 0..2 in rounds 1..3 and has no x checks.
    model = build_detector_model(repetition_code(3), 2, NoiseModel.phenomenological(0.1))
    sector, c, r = syndrome
    with pytest.raises(ValueError, match=rf"syndrome \({sector},{c},{r}\) outside the run"):
        entropy_decomposition_check(model, [("z", 0, 1), syndrome])


def test_decomposition_cap():
    with pytest.raises(BruteForceCapExceeded):
        entropy_decomposition_check(
            build_detector_model(repetition_code(5), 4, NoiseModel.phenomenological(0.1)),
            [("z", 0, 1)], cap=10,
        )


def decomposition_digest() -> str:
    """sha256 over decomposition reports (or cap refusals) and code validation reports.

    Repetition L = 3..6 and toric(2), T = 1..3 (toric 1..2), four noise
    models; each on the full syndrome region and on three random halves of
    it. Validation covers each code and broken variants of it.
    """
    digest = hashlib.sha256()
    rng = np.random.default_rng(28)
    noises = [NoiseModel.phenomenological(0.1), NoiseModel(p_x=0.1, p_z=0.1, q=0.0),
              NoiseModel(p_x=0.0, p_z=0.1, q=0.1), NoiseModel(p_x=0.08, p_z=0.05, q=0.12)]
    cases = [(repetition_code(L), T) for L in range(3, 7) for T in (1, 2, 3)]
    cases += [(toric_code(2), T) for T in (1, 2)]
    for code, T in cases:
        for noise in noises:
            model = build_detector_model(code, T, noise)
            full = full_syndrome_region(model)
            regions = [full] + [
                [full[j] for j in sorted(rng.choice(len(full), len(full) // 2, replace=False))]
                for _ in range(3)
            ]
            for region in regions:
                try:
                    report = entropy_decomposition_check(model, region)
                except BruteForceCapExceeded as exc:
                    report = exc
                digest.update(f"{code.name} {T} {noise} {region} {report!r}\n".encode())
    for code in (repetition_code(4), toric_code(2), toric_code(3)):
        z_check_as_logical = code.z_logicals.copy()
        z_check_as_logical[0] = code.z_checks[0]
        x_check_as_logical = code.x_logicals.copy()
        x_check_as_logical[0] = code.x_checks[0] if code.n_x_checks else 0
        lone = np.zeros_like(code.x_logicals)
        lone[:, 0] = 1
        for variant in (code, dataclasses.replace(code, x_logicals=code.x_logicals[::-1]),
                        dataclasses.replace(code, z_logicals=z_check_as_logical),
                        dataclasses.replace(code, x_logicals=x_check_as_logical),
                        dataclasses.replace(code, x_logicals=lone),
                        dataclasses.replace(code, x_checks=code.z_checks[:1], x_check_coords=[])):
            digest.update(f"{variant.name} {validate_code(variant)!r}\n".encode())
    return digest.hexdigest()


def test_decomposition_digest_pinned():
    """Every decomposition report, cap refusal and validation report, bit for bit."""
    assert decomposition_digest() == (
        "f338dcdda3c31f5ccf77184b4ed733d359ece0e1933710ac1cdd5a5ad67e2b58"
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
    report = entropy_decomposition_check(model, order)
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
