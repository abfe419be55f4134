import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    enumerate_region_distribution,
    per_bit_subset_patterns,
    reference_skip_draws,
    serial_sample_batch,
)

from stmarkov.codes import repetition_code, toric_code
from stmarkov.entropy import exact_region_dist
from stmarkov.sampler import (
    RAW_MIN,
    PatternWidthExceeded,
    SampleBatch,
    _chunk_generator,
    _skip_draws,
    _word_threshold,
    pattern_rows,
    sample_batch,
    stream_key,
    subset_patterns,
)
from stmarkov.spacetime import NoiseModel, build_detector_model


def patterns(batch, sub_region):
    """Every sample's word over ``sub_region``."""
    return subset_patterns(batch, pattern_rows(batch, sub_region), 0, batch.n_samples)


def small_model(p=0.1, q=None, L=4, T=3):
    noise = NoiseModel(p_x=p, p_z=0.0, q=p if q is None else q)
    return build_detector_model(repetition_code(L), T, noise)


def test_zero_noise_all_zero():
    model = small_model(p=0.0, q=0.25)
    region = list(range(6))
    batch = sample_batch(model, region, 500, seed=1)
    # Only readout mechanisms exist; pick a region with none incident.
    quiet_model = build_detector_model(
        repetition_code(4), 3, NoiseModel(p_x=0.0, p_z=0.0, q=0.0)
    )
    assert quiet_model.n_mechanisms == 0
    quiet = sample_batch(quiet_model, region, 500, seed=1)
    assert not np.any(patterns(quiet, region))
    assert batch.n_samples == 500


def test_single_detector_half_probability():
    model = build_detector_model(
        repetition_code(3), 1, NoiseModel(p_x=0.0, p_z=0.0, q=0.5)
    )
    det = model.det_index[("z", 0, 1)]  # only the round-1 readout touches it
    n = 100_000
    batch = sample_batch(model, [det], n, seed=3)
    freq = patterns(batch, [det]).astype(bool).mean()
    sigma = 0.5 / np.sqrt(n)
    assert abs(freq - 0.5) < 3 * sigma


def test_bulk_flip_rate_matches_parity_formula():
    model = small_model(p=0.1)
    det = model.det_index[("z", 1, 1)]
    n = 200_000
    batch = sample_batch(model, [det], n, seed=11)
    freq = patterns(batch, [det]).astype(bool).mean()
    expect = 0.2952  # (1 - 0.8^4) / 2, four incident mechanisms at p = 0.1
    sigma = np.sqrt(expect * (1 - expect) / n)
    assert abs(freq - expect) < 3 * sigma


def test_reproducibility_bit_identical():
    model = small_model()
    region = [model.det_index[("z", c, t)] for c in range(3) for t in (1, 2)]
    a = sample_batch(model, region, 10_001, seed=42)
    b = sample_batch(model, region, 10_001, seed=42)
    assert np.array_equal(patterns(a, region), patterns(b, region))
    c = sample_batch(model, region, 10_001, seed=43)
    assert not np.array_equal(patterns(a, region), patterns(c, region))
    d = sample_batch(model, region, 10_001, seed=42, stream="other")
    assert not np.array_equal(patterns(a, region), patterns(d, region))


def test_stream_keys_distinct():
    assert not np.array_equal(stream_key(1, "sampling"), stream_key(1, "decoder"))
    assert not np.array_equal(stream_key(1, "sampling"), stream_key(2, "sampling"))


def test_locality_restriction_matches_full_enumeration():
    """Region-incident sampling agrees with the all-mechanism exact marginal."""
    model = small_model(p=0.12, L=3, T=2)  # 12 mechanisms: enumerable in full
    region = [model.det_index[("z", 0, 0)], model.det_index[("z", 1, 1)]]
    exact_all = enumerate_region_distribution(model, region, all_mechanisms=True)
    exact_local = enumerate_region_distribution(model, region)
    for pattern in set(exact_all) | set(exact_local):
        assert exact_all.get(pattern, 0.0) == pytest.approx(
            exact_local.get(pattern, 0.0), abs=1e-12
        )
    n = 200_000
    batch = sample_batch(model, region, n, seed=5)
    counts = np.bincount(patterns(batch, region).astype(np.int64), minlength=4)
    for pattern, pr in exact_all.items():
        freq = counts[pattern] / n
        sigma = np.sqrt(pr * (1 - pr) / n) + 1e-9
        assert abs(freq - pr) < 4 * sigma


def test_marginalize_totals_and_subsets():
    model = small_model()
    region = [model.det_index[("z", c, 1)] for c in range(4)]
    batch = sample_batch(model, region, 5000, seed=9)
    for sub in (region, region[:2]):
        values, counts = np.unique(patterns(batch, sub), return_counts=True)
        assert counts.sum() == 5000
        assert values.max() < 1 << len(sub)


def test_subset_patterns_requires_subset():
    """A pattern's rows are looked up (``pattern_rows``) for at most 64 detectors of the batch."""
    model = small_model()
    region = [model.det_index[("z", c, 1)] for c in range(3)]
    batch = sample_batch(model, region, 100, seed=2)
    assert pattern_rows(batch, region[::-1]) == [2, 1, 0]
    with pytest.raises(ValueError):
        pattern_rows(batch, [model.det_index[("z", 3, 1)]])
    wide = SampleBatch(tuple(range(65)), 8, np.zeros((65, 1), dtype=np.uint8), (0, 8), 0, "hand")
    with pytest.raises(PatternWidthExceeded):
        pattern_rows(wide, list(range(65)))


def test_two_independent_half_detectors_uniform():
    model = build_detector_model(
        repetition_code(4), 1, NoiseModel(p_x=0.0, p_z=0.0, q=0.5)
    )
    region = [model.det_index[("z", 0, 1)], model.det_index[("z", 2, 1)]]
    n = 80_000
    batch = sample_batch(model, region, n, seed=17)
    counts = np.bincount(patterns(batch, region).astype(np.int64), minlength=4)
    sigma = np.sqrt(0.25 * 0.75 * n)
    for pattern in range(4):
        assert abs(counts[pattern] - n / 4) < 3 * sigma


def test_empty_region_and_bad_n():
    model = small_model()
    with pytest.raises(ValueError):
        sample_batch(model, [], 10, seed=0)
    with pytest.raises(ValueError):
        sample_batch(model, [0], 0, seed=0)


BAD_REGIONS = [
    ([5, 5, 6], "region repeats detector 5"),
    ([-1], r"region detector -1 outside 0\.\.15"),
    ([3, 99], r"region detector 99 outside 0\.\.15"),
]


@pytest.mark.parametrize("region, message", BAD_REGIONS, ids=["repeated", "negative", "past-end"])
def test_bad_region_refused_by_sampler_and_oracle(region, message):
    # A repeated detector used to leave its first row all zero; -1 and 99
    # reached numpy's own errors.
    model = build_detector_model(repetition_code(4), 3, NoiseModel.phenomenological(0.3))
    with pytest.raises(ValueError, match=message):
        sample_batch(model, region, 4000, seed=1)
    with pytest.raises(ValueError, match=message):
        sample_batch(model, [6], 4000, seed=1, draw_region=[6] + region)
    with pytest.raises(ValueError, match=message):
        exact_region_dist(model, region)


def test_packed_rows_consistent_with_patterns():
    model = small_model()
    region = [0, 5, 9]
    batch = sample_batch(model, region, 100, seed=1)
    assert batch.rows.shape == (3, 13)
    bits = batch.row_bits(1)
    assert np.array_equal(
        bits, ((patterns(batch, region) >> np.uint64(1)) & np.uint64(1)).astype(np.uint8)
    )


def test_wide_region_sampling():
    """Regions wider than 64 bits are supported through packed rows."""
    model = build_detector_model(
        repetition_code(12), 8, NoiseModel.phenomenological(0.1)
    )
    region = list(range(model.n_detectors))
    assert len(region) > 64
    batch = sample_batch(model, region, 2000, seed=13)
    assert batch.rows.shape[0] == len(region)
    # A narrow marginal of the wide batch matches a direct narrow batch's law.
    sub = region[:3]
    freq_wide = np.bincount(patterns(batch, sub).astype(np.int64), minlength=8)
    narrow = sample_batch(model, sub, 2000, seed=13)
    freq_narrow = np.bincount(patterns(narrow, sub).astype(np.int64), minlength=8)
    n = 2000
    for pattern in range(8):
        a = freq_wide[pattern] / n
        b = freq_narrow[pattern] / n
        assert abs(a - b) < 4 * np.sqrt(max(a, b, 0.01) / n) + 0.02


@pytest.mark.parametrize("code", [repetition_code(8), toric_code(4)], ids=["repetition", "toric"])
def test_draw_region_rows_match_whole_band(code):
    """A narrow region drawn on a band's stream gives the band batch's rows."""
    model = build_detector_model(code, 6, NoiseModel.phenomenological(0.1))
    band = [i for i, d in enumerate(model.detectors) if 2 <= d.t <= 4]
    sub = band[1::3]
    n = 10_001  # the last chunk is short and not a multiple of 4
    whole = sample_batch(model, band, n, seed=21, stream="band")
    assert (whole.chunk_bounds[-1] - whole.chunk_bounds[-2]) % 4 != 0
    part = sample_batch(model, sub, n, seed=21, stream="band", draw_region=band)
    pos = {d: j for j, d in enumerate(band)}
    assert np.array_equal(part.rows, whole.rows[[pos[d] for d in sub]])
    assert part.chunk_bounds == whole.chunk_bounds
    with pytest.raises(ValueError):
        sample_batch(model, sub + [band[0] - 1], 10, seed=21, draw_region=band)


@pytest.mark.parametrize("n", [7, 10_001, 50_003, 262_143, 300_007])
@pytest.mark.parametrize("code", [repetition_code(8), toric_code(4)], ids=["repetition", "toric"])
def test_threaded_sampler_matches_serial_oracle(code, n):
    """Chunks drawn on threads give the rows of the serial chunk loop.

    Chunks of RAW_MIN samples or more compare raw words with thresholds; the
    oracle draws doubles in every chunk. Three distinct rates make each
    threshold differ from its neighbours'.
    """
    model = build_detector_model(code, 6, NoiseModel(p_x=0.1, p_z=0.07, q=0.05))
    band = [i for i, d in enumerate(model.detectors) if 2 <= d.t <= 4]
    sub = band[1::3]
    args = dict(seed=21, stream="band", draw_region=band)
    batch = sample_batch(model, sub, n, **args)
    sizes = np.diff(batch.chunk_bounds)
    # The last chunk of n = 10,001, 262,143 and 300,007 is odd (313, 8,191
    # and 9,375 samples): its skips start inside a Philox block. At 262,143
    # every other chunk is 8,192 samples, so one batch takes both branches.
    assert n not in (10_001, 262_143, 300_007) or sizes[-1] % 4 != 0
    assert n != 262_143 or (sizes[-1] < RAW_MIN and sizes[:-1].min() == RAW_MIN)
    assert n != 300_007 or sizes.min() >= RAW_MIN
    oracle = serial_sample_batch(model, sub, n, **args)
    assert np.array_equal(batch.rows, oracle.rows)
    assert batch.chunk_bounds == oracle.chunk_bounds
    assert np.array_equal(patterns(batch, sub), per_bit_subset_patterns(oracle, sub))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7, 13, 3125, 3126, 3127, 3128])
@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=1, max_size=8))
def test_skip_draws_matches_one_call_per_mechanism(m, skips):
    """Mechanisms of m draws each, some skipped: the O(1) skip reads the loop's values."""
    key = stream_key(9, "skip")
    fast, ref = _chunk_generator(key, 2), _chunk_generator(key, 2)
    done = 0
    for skipped in skips:
        if skipped:
            _skip_draws(fast, done * m, skipped * m)
            reference_skip_draws(ref, m, skipped)
        done += skipped + 1
        assert np.array_equal(fast.random(m), ref.random(m))
    assert np.array_equal(fast.bit_generator.random_raw(5), ref.bit_generator.random_raw(5))


def _threshold_rule_holds(threshold, p, words) -> bool:
    """Whether ``x < threshold(p)`` equals ``Generator.random``'s ``u < p`` on each word."""
    t = int(threshold(p))
    return all((x < t) == ((x >> 11) * 2.0**-53 < p) for x in words)


def _floor_threshold(p):
    """The threshold rule with floor in place of ceil: wrong when p 2^53 is fractional."""
    return np.floor(np.ldexp(p, 53)).astype(np.uint64) << np.uint64(11)


_EDGE_PROBS = [0.0, 2.0**-60, 0.5, 0.25, float(np.nextafter(0.1, 0.0))]


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.sampled_from(_EDGE_PROBS), st.floats(0.0, 0.5)),
    st.lists(st.integers(0, 2**64 - 1), max_size=8),
)
def test_word_threshold_matches_double_compare(p, random_words):
    t = int(_word_threshold(p))
    words = [w for w in (t - 1, t, t + 1, 0, 2**64 - 1) if 0 <= w < 2**64] + random_words
    assert _threshold_rule_holds(_word_threshold, p, words)


def test_floor_threshold_fails_the_rule():
    """The property has teeth: rounding p 2^53 down misplaces the boundary word."""
    for p in (0.1, float(np.nextafter(0.1, 0.0)), 0.3):
        t = int(_floor_threshold(p))
        assert not _threshold_rule_holds(_floor_threshold, p, [t - 1, t, t + 1])
        assert _threshold_rule_holds(_word_threshold, p, [t - 1, t, t + 1])


@pytest.mark.parametrize("p", [0.0, 2.0**-60, 0.1, 0.25, 0.5, 1 - 2.0**-53])
def test_word_threshold_matches_generator_stream(p):
    """On one Philox stream, raw words under the threshold are the doubles under p."""
    key = stream_key(4, "threshold")
    words = _chunk_generator(key, 1).bit_generator.random_raw(50_000)
    doubles = _chunk_generator(key, 1).random(50_000)
    assert np.array_equal(words < _word_threshold(p), doubles < p)


@pytest.mark.parametrize("p", [1.0, 1.5, -1e-300, float("nan")])
def test_word_threshold_refuses_probabilities_outside_unit_interval(p):
    with pytest.raises(ValueError):
        _word_threshold(p)
    with pytest.raises(ValueError):
        _word_threshold([0.1, p])


def test_sampler_leaves_no_thread_running():
    before = threading.active_count()
    sample_batch(small_model(), list(range(6)), 20_000, seed=5)
    assert threading.active_count() == before


@st.composite
def packed_batches(draw):
    """A batch of random packed rows (padding bits set too), a sub-region of it and a span."""
    width = draw(st.integers(1, 70))
    n = draw(st.integers(1, 300))
    seed = draw(st.integers(0, 2**32 - 1))
    rows = np.random.default_rng(seed).integers(0, 256, (width, (n + 7) // 8), dtype=np.uint8)
    region = tuple(draw(st.permutations(range(100, 100 + width))))
    sub = draw(st.lists(st.sampled_from(region), min_size=1, max_size=min(64, width), unique=True))
    batch = SampleBatch(region, n, rows, (0, n), seed, "hand")
    lo = draw(st.integers(0, n))
    return batch, sub, (lo, draw(st.integers(lo, n)))


@settings(max_examples=200, deadline=None)
@given(packed_batches())
def test_subset_patterns_match_per_bit_oracle(case):
    batch, sub, (lo, hi) = case
    rows = pattern_rows(batch, sub)
    out = subset_patterns(batch, rows, 0, batch.n_samples)
    assert out.dtype == np.uint64
    expect = per_bit_subset_patterns(batch, sub)
    assert np.array_equal(out, expect)
    span = subset_patterns(batch, rows, lo, hi)
    assert span.dtype == np.uint64
    assert np.array_equal(span, expect[lo:hi])


# Upper 1e-6 quantile of the standard normal, for the chi-squared bound.
_Z_1E6 = 4.753424308822899


@st.composite
def sampled_regions(draw):
    """A small repetition or toric model, a region of 1-6 of its detectors and a seed."""
    p, q = draw(st.floats(0.02, 0.3)), draw(st.floats(0.02, 0.3))
    if draw(st.booleans()):
        code, T = repetition_code(draw(st.integers(3, 6))), draw(st.integers(2, 4))
        noise = NoiseModel(p_x=p, p_z=0.0, q=q)
    else:
        code, T = toric_code(draw(st.integers(2, 3))), draw(st.integers(1, 2))
        noise = NoiseModel(p_x=p, p_z=p, q=q)
    model = build_detector_model(code, T, noise)
    region = draw(st.lists(st.integers(0, model.n_detectors - 1), min_size=1,
                           max_size=min(6, model.n_detectors), unique=True))
    return model, region, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(sampled_regions())
def test_sampled_marginal_matches_exact_distribution(case):
    """Pattern counts of a sampled region pass a chi-squared test against the exact marginal.

    Bins expected below 5 are pooled; the bound is the Wilson-Hilferty
    approximation of the chi-squared quantile at 1e-6 (slightly above the
    exact one), and a pattern outside the exact support fails outright.
    """
    model, region, seed = case
    n = 20_000
    values, probs = exact_region_dist(model, region, cap=10**9)
    words = patterns(sample_batch(model, region, n, seed), region)
    counts = np.bincount(words.astype(np.int64), minlength=1 << len(region))
    observed = counts[values.astype(np.int64)]
    assert observed.sum() == n, "sampled a pattern the exact distribution cannot produce"
    expected = n * probs
    small = expected < 5
    observed = np.append(observed[~small], observed[small].sum())
    expected = np.append(expected[~small], expected[small].sum())
    keep = expected > 0
    stat = float((((observed - expected) ** 2)[keep] / expected[keep]).sum())
    k = max(int(keep.sum()) - 1, 1)
    bound = k * (1 - 2 / (9 * k) + _Z_1E6 * np.sqrt(2 / (9 * k))) ** 3
    assert stat <= bound, f"chi2 {stat:.1f} > {bound:.1f} on {k} degrees of freedom"
