import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stmarkov.codes import CssCode, repetition_code, toric_code
from stmarkov.decoder import (
    InfeasibleSyndrome,
    NoCrossingError,
    _graph_for,
    decode,
    logical_error_rate,
    threshold_estimate,
    wilson_interval,
)
from stmarkov.sampler import _chunk_generator, stream_key
from stmarkov.spacetime import NoiseModel, build_detector_model, detectors_from_errors

from oracles import reference_decode


def model_for(L, T, p, q=None):
    noise = NoiseModel(p_x=p, p_z=0.0, q=p if q is None else q)
    return build_detector_model(repetition_code(L), T, noise)


def test_empty_pattern():
    model = model_for(5, 4, 0.1)
    result = decode(model, np.zeros(model.n_detectors, dtype=np.uint8))
    assert result.correction == []
    assert not np.any(result.logical_flips)


def test_single_mechanisms_exhaustive():
    model = model_for(8, 8, 0.1)
    act = model.logical_action()
    for k in range(model.n_mechanisms):
        e = np.zeros(model.n_mechanisms, dtype=np.uint8)
        e[k] = 1
        dets = detectors_from_errors(model, e)
        result = decode(model, dets)
        corr = np.zeros(model.n_mechanisms, dtype=np.uint8)
        for j in result.correction:
            corr[j] ^= 1
        assert np.array_equal(detectors_from_errors(model, corr), dets)
        # The residual (correction + truth) must act trivially on the logicals.
        residual_flips = (act @ ((corr ^ e).astype(np.uint8))) % 2
        assert not np.any(residual_flips), f"mechanism {k}"


def test_weight_two_exhaustive():
    model = model_for(6, 6, 0.1)
    act = model.logical_action()
    n = model.n_mechanisms
    for k1 in range(n):
        for k2 in range(k1 + 1, n):
            e = np.zeros(n, dtype=np.uint8)
            e[k1] = 1
            e[k2] = 1
            dets = detectors_from_errors(model, e)
            result = decode(model, dets)
            corr = np.zeros(n, dtype=np.uint8)
            for j in result.correction:
                corr[j] ^= 1
            assert np.array_equal(detectors_from_errors(model, corr), dets)
            residual = (act @ ((corr ^ e).astype(np.uint8))) % 2
            assert not np.any(residual), f"pair {k1},{k2}"


def test_random_patterns_validity_and_determinism():
    model = model_for(12, 12, 0.12)
    rng = np.random.default_rng(3)
    probs = model.mechanism_probs()
    for _ in range(50):
        e = (rng.random(model.n_mechanisms) < probs).astype(np.uint8)
        dets = detectors_from_errors(model, e)
        r1 = decode(model, dets)
        r2 = decode(model, dets)
        assert r1.correction == r2.correction
        corr = np.zeros(model.n_mechanisms, dtype=np.uint8)
        for j in r1.correction:
            corr[j] ^= 1
        assert np.array_equal(detectors_from_errors(model, corr), dets)


def test_toric_perfect_measurement_decoding():
    code = toric_code(4)
    model = build_detector_model(code, 1, NoiseModel(p_x=0.08, p_z=0.0, q=0.0))
    rng = np.random.default_rng(9)
    probs = model.mechanism_probs()
    act = model.logical_action()
    ok = 0
    for _ in range(60):
        e = (rng.random(model.n_mechanisms) < probs).astype(np.uint8)
        dets = detectors_from_errors(model, e)
        result = decode(model, dets)
        corr = np.zeros(model.n_mechanisms, dtype=np.uint8)
        for j in result.correction:
            corr[j] ^= 1
        assert np.array_equal(detectors_from_errors(model, corr), dets)
        if not np.any((act @ ((corr ^ e).astype(np.uint8))) % 2):
            ok += 1
    assert ok > 40  # well below threshold, most shots recover


def test_infeasible_pattern_rejected():
    model = model_for(5, 4, 0.1)
    bad = np.zeros(model.n_detectors, dtype=np.uint8)
    bad[model.det_index[("z", 2, 1)]] = 1  # single fired detector: odd parity
    with pytest.raises(InfeasibleSyndrome):
        decode(model, bad)


def test_rate_zero_noise():
    model = build_detector_model(repetition_code(5), 3, NoiseModel(0.0, 0.0, 0.25))
    point = logical_error_rate(model, 500, seed=1)
    assert point.logical_errors == 0
    assert point.rate == 0.0


def test_rate_half_noise_randomizes_logical():
    model = build_detector_model(repetition_code(5), 2, NoiseModel(0.5, 0.0, 0.5))
    point = logical_error_rate(model, 2000, seed=2)
    assert point.ci_low < 0.5 < point.ci_high


def test_subthreshold_suppression():
    small = model_for(8, 8, 0.05)
    big = model_for(16, 16, 0.05)
    r_small = logical_error_rate(small, 3000, seed=5)
    r_big = logical_error_rate(big, 3000, seed=6)
    assert r_big.rate < r_small.rate


def test_rate_reproducible():
    model = model_for(8, 8, 0.09)
    a = logical_error_rate(model, 1000, seed=7)
    b = logical_error_rate(model, 1000, seed=7)
    assert a.logical_errors == b.logical_errors


def test_wilson_interval_behaviour():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and hi < 0.05
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi


def test_threshold_synthetic_crossing():
    curves = {
        8: [(p, 0.3 + 1.0 * (p - 0.10)) for p in (0.06, 0.08, 0.10, 0.12, 0.14)],
        16: [(p, 0.3 + 2.0 * (p - 0.10)) for p in (0.06, 0.08, 0.10, 0.12, 0.14)],
    }
    est = threshold_estimate(curves)
    assert est.p_cross == pytest.approx(0.10, abs=1e-9)
    assert est.spread == 0.0


def test_threshold_requires_bracketing():
    curves = {
        8: [(p, 0.1 + p) for p in (0.05, 0.10)],
        16: [(p, 0.2 + p) for p in (0.05, 0.10)],
    }
    with pytest.raises(NoCrossingError):
        threshold_estimate(curves)


def test_threshold_tie_at_zero_is_no_crossing():
    # Both curves read 0 at the lowest p, then L = 24 stays above L = 16.
    ps = (0.05, 0.11, 0.15)
    curves = {16: list(zip(ps, (0.0, 0.188, 0.418))), 24: list(zip(ps, (0.0, 0.246, 0.454)))}
    with pytest.raises(NoCrossingError):
        threshold_estimate(curves)
    # An interior tie that both neighbours leave on the same side touches, not crosses.
    ps = (0.05, 0.10, 0.15, 0.20)
    curves = {8: list(zip(ps, (0.1, 0.2, 0.3, 0.4))), 16: list(zip(ps, (0.2, 0.2, 0.4, 0.5)))}
    with pytest.raises(NoCrossingError):
        threshold_estimate(curves)


def test_threshold_run_of_ties_is_one_crossing():
    ps = (0.05, 0.10, 0.15, 0.20)
    curves = {8: list(zip(ps, (0.1, 0.2, 0.3, 0.4))), 16: list(zip(ps, (0.05, 0.2, 0.3, 0.5)))}
    est = threshold_estimate(curves)
    assert est.crossings == [(8, 16, 0.125)]


def test_threshold_names_sizes_that_share_L():
    ps = (0.05, 0.10)
    curves = {(8, 6): [(p, 0.1 + p) for p in ps], (8, 12): [(p, 0.2 + p) for p in ps],
              (16, 16): [(p, 0.3 + p) for p in ps]}
    with pytest.raises(NoCrossingError) as err:
        threshold_estimate(curves)
    lines = str(err.value).splitlines()[1:]
    assert [line.split(":")[0] for line in lines] == ["L=8 T=6", "L=8 T=12", "L=16"]


def _noise(family, p, T):
    if family == "repetition":
        return NoiseModel.phenomenological(p)
    return NoiseModel(p, p / 2, p) if T > 1 else NoiseModel(p_x=p, p_z=0.0, q=0.0)


def _draws(model, n, rng):
    probs = model.mechanism_probs()
    return (rng.random((n, probs.size)) < probs).astype(np.uint8)


@pytest.mark.parametrize(
    "family, L, T", [("repetition", 5, 5), ("repetition", 12, 9), ("toric", 4, 1), ("toric", 4, 3)]
)
def test_corrections_match_reference(family, L, T):
    """Every correction and logical prediction equals the per-shot reference
    decoder's, whether the pattern is decoded in a batch or on its own."""
    code = repetition_code(L) if family == "repetition" else toric_code(L)
    for p in (0.02, 0.1, 0.2, 0.3):
        model = build_detector_model(code, T, _noise(family, p, T))
        rng = np.random.default_rng([L, T, int(100 * p)])
        dets = (_draws(model, 150, rng) @ model.incidence().T) % 2
        batch = decode(model, dets)
        assert len(batch) == len(dets)
        for i, (pattern, got) in enumerate(zip(dets, batch)):
            want = reference_decode(model, pattern)
            assert got.correction == want.correction, (p, i)
            assert np.array_equal(got.logical_flips, want.logical_flips), (p, i)
            if i < 10:
                alone = decode(model, pattern)
                assert alone.correction == want.correction
                assert np.array_equal(alone.logical_flips, want.logical_flips)


# Recorded with the per-shot decoder and the dense syndrome product.
PINNED_RATE_POINTS = [
    "RatePoint(L=8, T=8, p=0.05, q=0.05, shots=500, logical_errors=0, rate=0.0, ci_low=0.0, ci_high=0.007624618530903363)",
    "RatePoint(L=8, T=8, p=0.05, q=0.05, shots=4500, logical_errors=45, rate=0.01, ci_low=0.007482138428615334, ci_high=0.013353763082663395)",
    "RatePoint(L=8, T=8, p=0.11, q=0.11, shots=500, logical_errors=99, rate=0.198, ci_low=0.16543056787682525, ci_high=0.23517470171584037)",
    "RatePoint(L=8, T=8, p=0.11, q=0.11, shots=4500, logical_errors=796, rate=0.1768888888888889, ci_low=0.16601700758423707, ci_high=0.188311972369232)",
    "RatePoint(L=16, T=16, p=0.05, q=0.05, shots=500, logical_errors=0, rate=0.0, ci_low=0.0, ci_high=0.007624618530903363)",
    "RatePoint(L=16, T=16, p=0.05, q=0.05, shots=4500, logical_errors=2, rate=0.00044444444444444447, ci_low=0.00012188860827071636, ci_high=0.0016192028191009747)",
    "RatePoint(L=16, T=16, p=0.11, q=0.11, shots=500, logical_errors=91, rate=0.182, ci_low=0.15064591449727432, ci_high=0.21820334288838023)",
    "RatePoint(L=16, T=16, p=0.11, q=0.11, shots=4500, logical_errors=946, rate=0.21022222222222223, ci_low=0.1985665692677964, ci_high=0.22237221330395304)",
]
PINNED_SMALL_RATE_POINTS = [
    "RatePoint(L=5, T=1, p=0.1, q=0.1, shots=4200, logical_errors=48, rate=0.011428571428571429, ci_low=0.008631008503816576, ci_high=0.015119077607896105)",
    "RatePoint(L=5, T=2, p=0.5, q=0.5, shots=4200, logical_errors=2055, rate=0.48928571428571427, ci_low=0.47418415542896086, ci_high=0.5044068552313837)",
    "RatePoint(L=4, T=3, p=0.06, q=0.05, shots=4200, logical_errors=2256, rate=0.5371428571428571, ci_low=0.5220358215244068, ci_high=0.5521820081863986)",
    "RatePoint(L=4, T=1, p=0.08, q=0.0, shots=4200, logical_errors=839, rate=0.19976190476190475, ci_low=0.18794670547819298, ci_high=0.21212583769279614)",
]


def test_rate_points_pinned():
    got = []
    for L in (8, 16):
        for p in (0.05, 0.11):
            model = model_for(L, L, p)
            got += [repr(logical_error_rate(model, shots, seed=11)) for shots in (500, 4500)]
    assert got == PINNED_RATE_POINTS
    small = [
        build_detector_model(repetition_code(5), 1, NoiseModel.phenomenological(0.1)),
        build_detector_model(repetition_code(5), 2, NoiseModel(0.5, 0.0, 0.5)),
        build_detector_model(toric_code(4), 3, NoiseModel(0.06, 0.04, 0.05)),
        build_detector_model(toric_code(4), 1, NoiseModel(p_x=0.08, p_z=0.0, q=0.0)),
    ]
    got = [repr(logical_error_rate(model, 4200, seed=3)) for model in small]
    assert got == PINNED_SMALL_RATE_POINTS


def _rate_draws(model, shots, seed):
    """The error draws of ``logical_error_rate(model, shots, seed)``: one
    Philox stream per 4,096-shot chunk."""
    probs = model.mechanism_probs()
    key = stream_key(seed, "decoder")
    return np.concatenate([
        _chunk_generator(key, c).random((min(4096, shots - start), probs.size)) < probs
        for c, start in enumerate(range(0, shots, 4096))
    ]).astype(np.uint8)


@pytest.mark.parametrize("p", [1e-4, 0.08], ids=["quiet", "noisy"])
@pytest.mark.parametrize(
    "family, L, T", [("repetition", 5, 3), ("toric", 3, 2)], ids=["repetition", "toric"]
)
def test_rate_failures_recount_from_decode_and_reference(family, L, T, p):
    """The rate path reads the kernel's flips without building DecodeResults;
    its failure count equals a recount of its own draws through ``decode`` and
    through the reference decoder, across the 64-shot slice and the 4,096-shot
    chunk boundaries. At the quiet p most slices have no fired detector."""
    code = repetition_code(L) if family == "repetition" else toric_code(L)
    model = build_detector_model(code, T, _noise(family, p, T))
    errors = _rate_draws(model, 4097, seed=5)
    dets = (errors @ model.incidence().T) % 2
    truth = (errors @ model.logical_action().T) % 2
    batch = np.array([r.logical_flips for r in decode(model, dets)])
    reference = np.array([reference_decode(model, d).logical_flips for d in dets])
    assert np.array_equal(batch, reference)
    wrong = (batch != truth).any(axis=1)
    quiet = [not dets[lo : lo + 64].any() for lo in range(0, 4097, 64)]
    assert any(quiet) == (p < 0.01) and not all(quiet)
    for shots in (1, 63, 64, 65, 4097):
        point = logical_error_rate(model, shots, seed=5)
        assert point.logical_errors == int(np.count_nonzero(wrong[:shots])), shots


@pytest.mark.parametrize(
    "model",
    [
        build_detector_model(repetition_code(6), 1, NoiseModel.phenomenological(0.2)),
        build_detector_model(repetition_code(5), 3, NoiseModel(0.5, 0.0, 0.5)),
        build_detector_model(toric_code(3), 2, NoiseModel(0.2, 0.3, 0.1)),
    ],
    ids=["repetition-T1", "repetition-half", "toric"],
)
def test_xor_syndromes_equal_dense_product(model):
    graph = _graph_for(model)
    errors = np.zeros((300, model.n_mechanisms + 1), dtype=bool)
    errors[:, :-1] = _draws(model, 300, np.random.default_rng(4))
    dets, truth = graph.syndromes(errors)
    drawn = errors[:, :-1].astype(np.uint8)
    assert np.array_equal(dets, (drawn @ model.incidence().T) % 2)
    assert np.array_equal(truth, (drawn @ model.logical_action().T) % 2)


def open_chain(L):
    """Repetition code on an open chain: the end qubits sit in one check each."""
    z = np.zeros((L - 1, L), dtype=np.uint8)
    for i in range(L - 1):
        z[i, i] = z[i, i + 1] = 1
    z_log = np.zeros((1, L), dtype=np.uint8)
    z_log[0, 0] = 1
    return CssCode(
        name=f"open_chain_{L}", n_qubits=L, z_checks=z,
        x_checks=np.zeros((0, L), dtype=np.uint8), z_logicals=z_log,
        x_logicals=np.ones((1, L), dtype=np.uint8), qubit_coords=[(i,) for i in range(L)],
        z_check_coords=[(i,) for i in range(L - 1)], x_check_coords=[], space_shape=(L,),
    )


@pytest.mark.parametrize("L", [5, 9])
def test_graph_rejects_mechanism_flipping_one_detector(L):
    """A mechanism flipping a single detector has no edge in the decoding
    graph; the graph build names it instead of mis-decoding its images."""
    model = build_detector_model(open_chain(L), L, NoiseModel.phenomenological(0.05))
    message = r"^mechanism 0 \(data_x, index 0, time 0\) flips 1 detectors"
    with pytest.raises(ValueError, match=message) as info:
        decode(model, np.zeros(model.n_detectors, dtype=np.uint8))
    assert not isinstance(info.value, InfeasibleSyndrome)
    with pytest.raises(ValueError, match=message):
        logical_error_rate(model, 10, seed=1)


def test_batch_shapes_and_infeasible_row():
    model = model_for(6, 6, 0.1)
    n = model.n_detectors
    results = decode(model, np.zeros((3, n), dtype=np.uint8))
    assert [r.correction for r in results] == [[], [], []]
    assert decode(model, np.zeros((0, n), dtype=np.uint8)) == []
    for shape in ((n + 1,), (2, 2, n)):
        with pytest.raises(ValueError, match="length mismatch"):
            decode(model, np.zeros(shape, dtype=np.uint8))
    dets = (_draws(model, 100, np.random.default_rng(8)) @ model.incidence().T) % 2
    dets[70, 0] ^= 1
    with pytest.raises(InfeasibleSyndrome, match=r"\(row 70\)"):
        decode(model, dets)


@st.composite
def small_models(draw):
    family = draw(st.sampled_from(["repetition", "toric"]))
    T = draw(st.integers(1, 5))
    p = draw(st.sampled_from([0.05, 0.2, 0.5]))
    if family == "repetition":
        code = repetition_code(draw(st.integers(3, 9)))
        noise = NoiseModel(p, 0.0, draw(st.sampled_from([0.0, 0.1, 0.5])))
    else:
        code = toric_code(draw(st.integers(2, 4)))
        noise = NoiseModel(p, draw(st.sampled_from([0.0, 0.3])), draw(st.sampled_from([0.0, 0.1])))
    return build_detector_model(code, T, noise)


@settings(max_examples=60, deadline=None)
@given(model=small_models(), seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 70))
def test_decode_reproduces_every_image(model, seed, rows):
    rng = np.random.default_rng(seed)
    density = rng.random()
    errors = (rng.random((rows, model.n_mechanisms)) < density).astype(np.uint8)
    inc = model.incidence()
    dets = (errors @ inc.T) % 2
    for pattern, result in zip(dets, decode(model, dets)):
        corr = np.zeros(model.n_mechanisms, dtype=np.uint8)
        corr[result.correction] = 1
        assert np.array_equal((inc @ corr) % 2, pattern)
        assert np.array_equal(result.logical_flips, (model.logical_action() @ corr) % 2)


@settings(max_examples=60, deadline=None)
@given(model=small_models(), data=st.data())
def test_odd_weight_pattern_is_infeasible(model, data):
    """Every mechanism flips an even number of detectors, so no error set
    has an odd-weight image."""
    n = model.n_detectors
    bits = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=np.uint8)
    if bits.sum() % 2 == 0:
        bits[data.draw(st.integers(0, n - 1))] ^= 1
    with pytest.raises(InfeasibleSyndrome):
        decode(model, bits)


def _component_parities_even(model, bits):
    """Whether every connected component of the detector graph holds an even
    number of fired detectors: the condition for a pattern to be an image."""
    parent = list(range(model.n_detectors))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for mech in model.mechanisms:
        if len(mech.detectors) == 2:
            ra, rb = (find(d) for d in mech.detectors)
            parent[ra] = rb
    roots = [find(int(d)) for d in np.flatnonzero(bits)]
    return all(roots.count(r) % 2 == 0 for r in set(roots))


@settings(max_examples=60, deadline=None)
@given(model=small_models(), data=st.data())
def test_decode_accepts_exactly_the_images(model, data):
    """A pattern decodes, reproducing itself, when every component of the
    graph holds an even number of fired detectors, and is infeasible otherwise."""
    n = model.n_detectors
    bits = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=np.uint8)
    if not _component_parities_even(model, bits):
        with pytest.raises(InfeasibleSyndrome):
            decode(model, bits)
        return
    corr = np.zeros(model.n_mechanisms, dtype=np.uint8)
    corr[decode(model, bits).correction] = 1
    assert np.array_equal((model.incidence() @ corr) % 2, bits)
