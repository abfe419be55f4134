import pickle

import numpy as np
import pytest

from oracles import history_from_errors, detectors_from_history, oracle_detectors

from stmarkov.codes import repetition_code, toric_code
from stmarkov.spacetime import (
    NoiseModel,
    Tripartition,
    build_detector_model,
    chebyshev_distance,
    detector_flip_probability,
    detectors_from_errors,
    build_detector_model as build,
    syndromes_to_detectors,
)


def test_noise_model_validation():
    NoiseModel(0.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        NoiseModel(p_x=0.6, p_z=0.0, q=0.1)
    with pytest.raises(ValueError):
        NoiseModel(p_x=0.1, p_z=-0.01, q=0.1)


def test_rejects_zero_rounds():
    with pytest.raises(ValueError):
        build_detector_model(repetition_code(3), 0, NoiseModel.phenomenological(0.1))


def test_detector_layout_repetition():
    model = build_detector_model(repetition_code(3), 2, NoiseModel.phenomenological(0.1))
    # L checks x (T+1) detector times.
    assert model.n_detectors == 3 * 3
    # data-X mechanisms per interface plus readout per noisy round.
    assert model.n_mechanisms == 3 * 2 + 3 * 2


def test_single_data_error_flips_adjacent_checks():
    # Enumerate the syndrome history for the single error and difference rounds.
    code = repetition_code(3)
    model = build_detector_model(code, 2, NoiseModel.phenomenological(0.1))
    for t in range(2):
        hist = history_from_errors(code, 2, data_x=[(1, t)])
        fired = np.flatnonzero(detectors_from_history(model, hist))
        expect = {model.det_index[("z", 0, t)], model.det_index[("z", 1, t)]}
        assert set(fired) == expect


def test_readout_error_flips_time_pair():
    code = repetition_code(3)
    model = build_detector_model(code, 2, NoiseModel.phenomenological(0.1))
    hist = history_from_errors(code, 2, readout=[("z", 1, 1)])
    fired = np.flatnonzero(detectors_from_history(model, hist))
    assert set(fired) == {model.det_index[("z", 1, 0)], model.det_index[("z", 1, 1)]}


def test_no_errors_all_quiet():
    for code in (repetition_code(4), toric_code(2)):
        model = build_detector_model(code, 3, NoiseModel.phenomenological(0.2, p_z=0.1))
        e = np.zeros(model.n_mechanisms, dtype=np.uint8)
        assert not np.any(detectors_from_errors(model, e))


@pytest.mark.parametrize(
    "code,T,noise",
    [
        (repetition_code(3), 2, NoiseModel.phenomenological(0.1)),
        (repetition_code(5), 4, NoiseModel.phenomenological(0.1)),
        (toric_code(2), 2, NoiseModel.phenomenological(0.1, p_z=0.1)),
    ],
)
def test_incidence_matches_history_oracle_single(code, T, noise):
    model = build_detector_model(code, T, noise)
    for k in range(model.n_mechanisms):
        e = np.zeros(model.n_mechanisms, dtype=np.uint8)
        e[k] = 1
        assert np.array_equal(detectors_from_errors(model, e), oracle_detectors(model, e)), (
            f"mechanism {model.mechanisms[k]}"
        )


def test_incidence_matches_history_oracle_random():
    rng = np.random.default_rng(7)
    model = build_detector_model(
        toric_code(2), 3, NoiseModel.phenomenological(0.1, p_z=0.05)
    )
    for _ in range(50):
        e = (rng.random(model.n_mechanisms) < 0.3).astype(np.uint8)
        assert np.array_equal(detectors_from_errors(model, e), oracle_detectors(model, e))


def test_detector_linearity():
    model = build_detector_model(repetition_code(4), 3, NoiseModel.phenomenological(0.1))
    rng = np.random.default_rng(3)
    for _ in range(20):
        e1 = (rng.random(model.n_mechanisms) < 0.4).astype(np.uint8)
        e2 = (rng.random(model.n_mechanisms) < 0.4).astype(np.uint8)
        lhs = detectors_from_errors(model, e1 ^ e2)
        rhs = detectors_from_errors(model, e1) ^ detectors_from_errors(model, e2)
        assert np.array_equal(lhs, rhs)


def test_detector_graph_degrees():
    L, T = 4, 3
    model = build_detector_model(repetition_code(L), T, NoiseModel.phenomenological(0.1))
    for idx, det in enumerate(model.detectors):
        deg = len(model.incident_mechanisms(idx))
        if det.t == 0:
            assert deg == 3
        elif det.t == T:
            assert deg == 1  # only the final noisy readout reaches it
        else:
            assert deg == 4


def test_every_mechanism_at_most_two_detectors():
    model = build_detector_model(
        toric_code(3), 3, NoiseModel.phenomenological(0.1, p_z=0.1)
    )
    for mech in model.mechanisms:
        assert len(mech.detectors) <= 2
        sectors = {model.detectors[d].sector for d in mech.detectors}
        assert len(sectors) <= 1


def test_undetectable_logical_cycle():
    # X errors on every qubit at one interface: a non-contractible space loop.
    L, T = 5, 3
    model = build_detector_model(repetition_code(L), T, NoiseModel.phenomenological(0.1))
    e = np.zeros(model.n_mechanisms, dtype=np.uint8)
    flips = 0
    for k, mech in enumerate(model.mechanisms):
        if mech.kind == "data_x" and mech.time == 1:
            e[k] = 1
            flips ^= 1 if mech.logical_flips else 0
    assert not np.any(detectors_from_errors(model, e))
    act = (model.logical_action() @ e) % 2
    assert act[0] == 1


def test_flip_probability_closed_form():
    model = build_detector_model(repetition_code(4), 3, NoiseModel.phenomenological(0.1))
    bulk = model.det_index[("z", 1, 1)]
    # Exhaustive parity enumeration over the four incident mechanisms.
    mechs = model.incident_mechanisms(bulk)
    assert len(mechs) == 4
    total = 0.0
    for pattern in range(16):
        pr = 1.0
        parity = 0
        for j, k in enumerate(mechs):
            p = model.mechanisms[k].p
            if (pattern >> j) & 1:
                pr *= p
                parity ^= 1
            else:
                pr *= 1 - p
        if parity:
            total += pr
    got = detector_flip_probability(model, bulk)
    assert got == pytest.approx(total, abs=1e-12)
    assert got == pytest.approx(0.2952, abs=1e-4)


def test_flip_probability_edge_cases():
    model = build_detector_model(repetition_code(3), 1, NoiseModel(p_x=0.0, p_z=0.0, q=0.5))
    top = model.det_index[("z", 0, 1)]
    assert model.incident_mechanisms(top) == [k for k in model.incident_mechanisms(top)]
    assert detector_flip_probability(model, top) == pytest.approx(0.5)
    quiet = build_detector_model(repetition_code(3), 1, NoiseModel(p_x=0.0, p_z=0.0, q=0.0))
    assert quiet.n_mechanisms == 0


def test_syndromes_to_detectors_xor_rules():
    code = repetition_code(3)
    model = build_detector_model(code, 3, NoiseModel.phenomenological(0.1))
    hist = np.zeros((3, 4), dtype=np.uint8)
    assert not np.any(syndromes_to_detectors(model, hist))
    # Single flip fires the two detectors straddling it.
    hist[1, 1] = 1  # round 2 of check 1
    fired = np.flatnonzero(syndromes_to_detectors(model, hist))
    assert set(fired) == {model.det_index[("z", 1, 1)], model.det_index[("z", 1, 2)]}
    # Two consecutive flips telescope.
    hist[1, 2] = 1
    fired = np.flatnonzero(syndromes_to_detectors(model, hist))
    assert set(fired) == {model.det_index[("z", 1, 1)], model.det_index[("z", 1, 3)]}


def test_syndromes_to_detectors_shape_check():
    model = build_detector_model(repetition_code(3), 2, NoiseModel.phenomenological(0.1))
    with pytest.raises(ValueError):
        syndromes_to_detectors(model, np.zeros((3, 2), dtype=np.uint8))


def test_chebyshev_distance_wraps_space():
    model = build_detector_model(repetition_code(6), 4, NoiseModel.phenomenological(0.1))
    space = model.code.space_shape
    a = model.detectors[model.det_index[("z", 0, 2)]].coords
    b = model.detectors[model.det_index[("z", 5, 2)]].coords
    assert chebyshev_distance(a, b, space) == 1
    c = model.detectors[model.det_index[("z", 3, 2)]].coords
    assert chebyshev_distance(a, c, space) == 3
    d = model.detectors[model.det_index[("z", 0, 4)]].coords
    assert chebyshev_distance(a, d, space) == 2


@pytest.mark.parametrize("sector", ["z", "x"])
def test_sector_lattice_lists_the_sector_read_only(sector):
    model = build_detector_model(toric_code(3), 2, NoiseModel(p_x=0.1, p_z=0.1, q=0.1))
    lattice = model.sector_lattice(sector)
    assert dict(lattice) == {
        d.coords: i for i, d in enumerate(model.detectors) if d.sector == sector
    }
    with pytest.raises(TypeError):
        lattice[(0, 0, 0)] = 0
    assert model.sector_lattice(sector) == lattice
    assert pickle.loads(pickle.dumps(model)).sector_lattice(sector) == lattice


def test_tripartition_disjointness_enforced():
    with pytest.raises(ValueError):
        Tripartition(a=(0, 1), b=(1, 2), c=(3,), dist_ac=1)
    tri = Tripartition(a=(0,), b=(1,), c=(2,), dist_ac=2)
    assert tri.all_detectors == (0, 1, 2)


def test_model_text_and_hash_stable():
    model = build_detector_model(repetition_code(3), 1, NoiseModel.phenomenological(0.25))
    text = model.to_text()
    assert "data_x" in text and "readout" in text
    again = build_detector_model(repetition_code(3), 1, NoiseModel.phenomenological(0.25))
    assert model.model_hash() == again.model_hash()
