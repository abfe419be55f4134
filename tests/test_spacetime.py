import dataclasses
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    detectors_from_history,
    history_from_errors,
    loop_build_detector_model,
    oracle_detectors,
)

from stmarkov import spacetime
from stmarkov.codes import CssCode, repetition_code, toric_code
from stmarkov.decoder import decode, logical_error_rate
from stmarkov.foliation import foliate
from stmarkov.markov import averaged_cmi_ladder, cmi, make_code, sweep_cells
from stmarkov.spacetime import (
    NoiseModel,
    Tripartition,
    build_detector_model,
    chebyshev_distance,
    detector_flip_probability,
    detectors_from_errors,
    build_detector_model as build,
)
from stmarkov.tableau import Tableau, init_graph_state


def test_noise_model_validation():
    NoiseModel(0.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        NoiseModel(p_x=0.6, p_z=0.0, q=0.1)
    with pytest.raises(ValueError):
        NoiseModel(p_x=0.1, p_z=-0.01, q=0.1)


def test_phenomenological_readout_rate_defaults_to_p():
    assert NoiseModel.phenomenological(0.1) == NoiseModel(p_x=0.1, p_z=0.0, q=0.1)
    assert NoiseModel.phenomenological(0.1, 0.02) == NoiseModel(p_x=0.1, p_z=0.02, q=0.1)
    assert NoiseModel.phenomenological(0.1, 0.02, 0.0) == NoiseModel(p_x=0.1, p_z=0.02, q=0.0)


def _rep_model():
    return build_detector_model(repetition_code(3), 2, NoiseModel.phenomenological(0.1))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: CssCode("bad", 3, np.ones((1, 2)), np.zeros((0, 3)), np.zeros((0, 3)),
                         np.zeros((0, 3)), [], [], [], (3,)),
         "z_checks must be 2D with 3 columns"),
        (lambda: detector_flip_probability(_rep_model(), -1), "detector index -1 out of range"),
        (lambda: detectors_from_errors(_rep_model(), np.zeros(2, dtype=np.uint8)),
         "error vector length mismatch"),
        (lambda: Tripartition(a=(), b=(1,), c=(2,), dist_ac=2),
         "regions A and C must be nonempty"),
        (lambda: Tripartition(a=(0,), b=(1,), c=(), dist_ac=2),
         "regions A and C must be nonempty"),
        (lambda: Tableau(1).measure_x(0), "random measurement outcome requires rng or force"),
        (lambda: init_graph_state(foliate(repetition_code(3), 1), frame="y"),
         "frame must be 'x' or 'z', got 'y'"),
        (lambda: cmi(_rep_model(), Tripartition(a=(0,), b=(1,), c=(2,), dist_ac=2),
                     method="bogus"),
         "unknown method 'bogus'"),
        (lambda: make_code("surface", 8), "unknown code family 'surface'"),
        (lambda: next(sweep_cells("repetition", [(3, 2, 0.1)], method="bogus")),
         "unknown sweep method 'bogus'"),
        (lambda: logical_error_rate(_rep_model(), 0, 1), "need at least one shot"),
    ],
    ids=["css-width", "flip-probability-range", "error-length", "tripartition-empty-a",
         "tripartition-empty-c", "measure-x-no-rng", "graph-state-frame", "cmi-method",
         "code-family", "sweep-method", "rate-no-shots"],
)
def test_library_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


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


def _typed_fields(record):
    """(name, type, value) of each field of a Mechanism or Detector; tuples element-wise."""
    out = []
    for f in dataclasses.fields(record):
        v = getattr(record, f.name)
        out.append((f.name, type(v), tuple(map(type, v)) if isinstance(v, tuple) else None, v))
    return out


_rate = st.one_of(st.just(0.0), st.floats(0.0, 0.5, exclude_min=True))


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["repetition", "toric"]),
    L=st.integers(3, 5),
    T=st.integers(1, 4),
    p_x=_rate,
    p_z=_rate,
    q=_rate,
)
def test_array_build_matches_loop_build(family, L, T, p_x, p_z, q):
    """The index-array model equals the per-(qubit, round) loop build: every
    record field by field with its type, and every table read off it."""
    code = (repetition_code if family == "repetition" else toric_code)(L)
    noise = NoiseModel(p_x, p_z, q)
    model = build_detector_model(code, T, noise)
    ref = loop_build_detector_model(code, T, noise)
    for ours, theirs in ((model.mechanisms, ref.mechanisms), (model.detectors, ref.detectors)):
        assert len(ours) == len(theirs)
        assert [_typed_fields(r) for r in ours] == [_typed_fields(r) for r in theirs]
    assert model.logicals == ref.logicals
    assert list(model.det_index.items()) == list(ref.det_index.items())
    assert np.array_equal(model.incidence(), ref.incidence())
    for d in range(model.n_detectors):
        assert model.incident_mechanisms(d) == ref.incident_mechanisms(d)
    assert np.array_equal(model.logical_action(), ref.logical_action())
    probs = model.mechanism_probs()
    assert probs.dtype == np.float64 and np.array_equal(probs, ref.mechanism_probs())
    for sector in ("z", "x"):
        lattice = model.sector_lattice(sector)
        assert list(lattice.items()) == list(ref.sector_lattice(sector).items())
    region = list(range(0, model.n_detectors, 3))
    assert model.region_mechanisms(region) == ref.region_mechanisms(region)
    assert model.model_hash() == ref.model_hash()


def test_hot_path_builds_no_records(monkeypatch):
    """The benchmark's set-up calls, a toric CMI ladder and a decoder rate
    read the index arrays alone: no Mechanism or Detector is built."""

    def refuse(*args):
        raise AssertionError("a Mechanism or Detector was built")

    monkeypatch.setattr(spacetime, "Mechanism", refuse)
    monkeypatch.setattr(spacetime, "Detector", refuse)
    toric = build_detector_model(toric_code(4), 6, NoiseModel.phenomenological(0.03))
    toric.incident_mechanisms(0)
    rep = build_detector_model(repetition_code(8), 8, NoiseModel.phenomenological(0.1))
    rep.incidence()
    decode(rep, np.zeros(rep.n_detectors, dtype=np.uint8))
    points = averaged_cmi_ladder(toric, (1, 2, 3), 3000, 1, wA=1, wC=1)
    assert len(points) == 3
    assert logical_error_rate(rep, 200, 1).shots == 200
    with pytest.raises(AssertionError, match="was built"):
        toric.mechanisms[0]
    with pytest.raises(AssertionError, match="was built"):
        toric.detectors[0]


def test_toric_32_model_is_small_and_hashes_as_before():
    """At L = T = 32 the model and its incident table peak under 16 MB (the
    objects of a per-(qubit, round) build held 64 MB), and the model text
    hashes as it did when built that way."""
    code = toric_code(32)
    tracemalloc.start()
    try:
        model = build_detector_model(code, 32, NoiseModel.phenomenological(0.03))
        model.incident_mechanisms(0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    assert model.model_hash() == "b2e1d90bc9af73a7"
