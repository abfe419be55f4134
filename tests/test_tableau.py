import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    ReferenceTableau,
    oracle_detectors,
    reference_evaluate_detectors,
    reference_init_graph_state,
    reference_measure_x_all,
)

from stmarkov.codes import repetition_code, toric_code
from stmarkov.foliation import PauliOp, detector_cells, foliate, lbl_stabilizers
from stmarkov.spacetime import NoiseModel, build_detector_model, detectors_from_errors
from stmarkov.tableau import (
    Tableau,
    _log_i,
    evaluate_detectors,
    init_graph_state,
    measure_x_all,
)
from test_foliation import single_qubit_code


def test_single_qubit_plus_state():
    tab = Tableau(1)
    tab.h(0)
    assert tab.expectation(PauliOp.x([0])) == 1
    assert tab.expectation(PauliOp.z([0])) == 0
    assert tab.measure_pauli(PauliOp.x([0]), rng=np.random.default_rng(0)) == 0


def test_two_qubit_graph_state_stabilizers():
    tab = Tableau(2)
    tab.h(0)
    tab.h(1)
    tab.cz(0, 1)
    assert tab.expectation(PauliOp(frozenset([0]), frozenset([1]))) == 1
    assert tab.expectation(PauliOp(frozenset([1]), frozenset([0]))) == 1
    assert tab.expectation(PauliOp.x([0])) == 0


def test_x_outcome_uniformly_random_on_graph_state():
    counts = 0
    rng = np.random.default_rng(11)
    for _ in range(200):
        tab = Tableau(2)
        tab.h(0)
        tab.h(1)
        tab.cz(0, 1)
        counts += tab.measure_pauli(PauliOp.x([0]), rng=rng)
    assert 60 < counts < 140


def test_apply_z_twice_is_identity():
    tab = Tableau(3)
    for q in range(3):
        tab.h(q)
    tab.cz(0, 1)
    tab.cz(1, 2)
    before = (tab.x.copy(), tab.z.copy(), tab.r.copy())
    tab.apply_z([1])
    tab.apply_z([1])
    assert np.array_equal(tab.x, before[0])
    assert np.array_equal(tab.z, before[1])
    assert np.array_equal(tab.r, before[2])


def test_apply_z_outside_support_leaves_sign():
    tab = Tableau(2)
    tab.h(0)  # stabilizers X0, Z1
    tab.apply_z([1])
    assert tab.expectation(PauliOp.x([0])) == 1
    tab.apply_z([0])
    assert tab.expectation(PauliOp.x([0])) == -1


def test_measurement_collapse_repeatable():
    rng = np.random.default_rng(5)
    tab = Tableau(1)
    tab.h(0)
    first = tab.measure_pauli(PauliOp.z([0]), rng=rng)
    for _ in range(3):
        assert tab.measure_pauli(PauliOp.z([0]), rng=rng) == first


def test_graph_state_cells_expectation_plus_one():
    for code, m_f in ((repetition_code(3), 1), (repetition_code(3), 2), (toric_code(2), 2)):
        rs = foliate(code, m_f)
        tab = init_graph_state(rs, frame="x")
        for op in detector_cells(rs):
            assert tab.expectation(op) == 1
        for op in lbl_stabilizers(rs):
            assert tab.expectation(op) == 1


def test_z_frame_keeps_z_linking_stabilizer():
    rs = foliate(repetition_code(3), 2)
    tab = init_graph_state(rs, frame="z")
    for stab in rs.lbl:
        expect = 1 if stab.kind == "z" else 0
        assert tab.expectation(stab.operator()) == expect


def test_noiseless_measurement_detectors_all_zero():
    rs = foliate(repetition_code(3), 2)
    tab = init_graph_state(rs)
    outcomes = measure_x_all(tab, rs, np.random.default_rng(42))
    bits = evaluate_detectors(outcomes, rs.cells)
    assert not np.any(bits)


def test_evaluate_detectors_rejects_unmeasured():
    rs = foliate(repetition_code(3), 1)
    outcomes = np.full(rs.n_sites, -1, dtype=np.int8)
    with pytest.raises(ValueError):
        evaluate_detectors(outcomes, rs.cells)


def test_single_outcome_flip_fires_two_cells():
    rs = foliate(repetition_code(3), 2)
    tab = init_graph_state(rs)
    rng = np.random.default_rng(1)
    site = rs.site_index[("sz", 1, 2)]  # syndrome qubit inside two cells
    tab.apply_z([site])
    outcomes = measure_x_all(tab, rs, rng)
    bits = evaluate_detectors(outcomes, rs.cells)
    fired = {rs.detector_keys[k] for k in np.flatnonzero(bits)}
    assert fired == {("z", 1, 0), ("z", 1, 1)}


def test_apply_z_matches_incidence_column():
    code = repetition_code(4)
    model = build_detector_model(code, 2, NoiseModel.phenomenological(0.1))
    rs = foliate(code, 3)
    key_to_row = model.det_index
    for k, mech in enumerate(model.mechanisms):
        tab = init_graph_state(rs)
        tab.apply_z(rs.map_mechanism(mech))
        outcomes = measure_x_all(tab, rs, np.random.default_rng(k))
        bits = evaluate_detectors(outcomes, rs.cells)
        fired = {rs.detector_keys[j] for j in np.flatnonzero(bits)}
        expect = {
            (model.detectors[d].sector, model.detectors[d].check, model.detectors[d].t)
            for d in mech.detectors
        }
        assert fired == expect


def circuit_vs_tableau(code, m_f, noise, n_random, seed):
    """Bit-exact comparison of circuit detectors and the tableau pipeline."""
    T = m_f - 1
    model = build_detector_model(code, T, noise)
    rs = foliate(code, m_f)
    rows = [model.det_index[key] for key in rs.detector_keys]
    base = init_graph_state(rs)
    rng = np.random.default_rng(seed)

    def run(e):
        circuit_bits = detectors_from_errors(model, e)[rows]
        sites = []
        for k in np.flatnonzero(e):
            sites.extend(rs.map_mechanism(model.mechanisms[k]))
        tab = base.copy()
        tab.apply_z(sites)
        outcomes = measure_x_all(tab, rs, rng)
        tableau_bits = evaluate_detectors(outcomes, rs.cells)
        assert np.array_equal(tableau_bits, circuit_bits)
        # Cross-check the circuit side against the history-enumeration oracle.
        assert np.array_equal(detectors_from_errors(model, e), oracle_detectors(model, e))

    for k in range(model.n_mechanisms):
        e = np.zeros(model.n_mechanisms, dtype=np.uint8)
        e[k] = 1
        run(e)
    for _ in range(n_random):
        run((rng.random(model.n_mechanisms) < 0.25).astype(np.uint8))


def test_end_to_end_correspondence_small():
    circuit_vs_tableau(repetition_code(3), 2, NoiseModel.phenomenological(0.1), 25, seed=9)


def test_end_to_end_correspondence_toric():
    circuit_vs_tableau(
        toric_code(2), 2, NoiseModel.phenomenological(0.1, p_z=0.1), 20, seed=10
    )


def test_teleportation_byproduct_frames():
    """Byproduct rule on a 3-site chain: output carries Z^{s_t} X^{s_{t+1/2}}.

    With a fixed seed the random coins replay identically, so injecting a Z
    error shifts the outcome-to-frame relation rather than the raw bits:
    a half-layer error toggles the X-frame inferred from s_{t+1/2}, an
    integer-layer error toggles the Z-frame inferred from s_t.
    """
    code = single_qubit_code()
    rs = foliate(code, 1)
    s0 = rs.site_index[("d", 0, 0)]
    s_half = rs.site_index[("d", 0, 1)]
    top = rs.site_index[("d", 0, 2)]

    def run(frame, error_sites, seed):
        tab = init_graph_state(rs, frame=frame)
        tab.apply_z(error_sites)
        out = measure_x_all(tab, rs, np.random.default_rng(seed))
        return tab, out

    # Z-frame input |0>: teleported state is X^{s_half} |0>, so the top-layer
    # Z eigenvalue reads the X-frame bit.
    for seed in range(6):
        tab, out = run("z", [], seed)
        assert tab.expectation(PauliOp.z([top])) == (-1) ** int(out[s_half])

        tab2, out2 = run("z", [s_half], seed)
        assert np.array_equal(out2, out)  # same coins; the frame moved instead
        assert tab2.expectation(PauliOp.z([top])) == -((-1) ** int(out2[s_half]))

        tab3, out3 = run("z", [s0], seed)  # Z-frame toggle is invisible to |0>
        assert np.array_equal(out3, out)
        assert tab3.expectation(PauliOp.z([top])) == (-1) ** int(out3[s_half])

    # X-frame input |+>: teleported state is Z^{s_0} |+>, so the top-layer
    # X eigenvalue reads the Z-frame bit.
    for seed in range(6):
        tab, out = run("x", [], seed)
        assert tab.expectation(PauliOp.x([top])) == (-1) ** int(out[s0])

        tab2, out2 = run("x", [s0], seed)
        assert np.array_equal(out2, out)
        assert tab2.expectation(PauliOp.x([top])) == -((-1) ** int(out2[s0]))

        tab3, out3 = run("x", [s_half], seed)  # X-frame toggle invisible to |+>
        assert np.array_equal(out3, out)
        assert tab3.expectation(PauliOp.x([top])) == (-1) ** int(out3[s0])


def test_detector_marginals_match_flip_probability():
    """Tableau-pipeline detector marginals vs the closed-form parity formula."""
    from stmarkov.spacetime import detector_flip_probability

    code = repetition_code(3)
    noise = NoiseModel.phenomenological(0.12)
    model = build_detector_model(code, 1, noise)
    rs = foliate(code, 2)
    rows = [model.det_index[key] for key in rs.detector_keys]
    base = init_graph_state(rs)
    rng = np.random.default_rng(2024)
    probs = model.mechanism_probs()
    shots = 100_000
    fired = np.zeros(model.n_detectors, dtype=np.int64)
    for _ in range(shots):
        tab = base.copy()
        e = rng.random(model.n_mechanisms) < probs
        sites = []
        for k in np.flatnonzero(e):
            sites.extend(rs.map_mechanism(model.mechanisms[k]))
        tab.apply_z(sites)
        outcomes = measure_x_all(tab, rs, rng)
        bits = evaluate_detectors(outcomes, rs.cells)
        for j, row in enumerate(rows):
            fired[row] += bits[j]
    for d in range(model.n_detectors):
        expect = detector_flip_probability(model, d)
        sigma = np.sqrt(max(expect * (1 - expect), 1e-9) / shots)
        assert abs(fired[d] / shots - expect) < 4 * sigma, f"detector {d}"


def test_tableau_size_cap():
    with pytest.raises(ValueError):
        Tableau(Tableau.MAX_QUBITS + 1)


def assert_same_tableau(tab, ref):
    assert np.array_equal(tab.x, ref.x)
    assert np.array_equal(tab.z, ref.z)
    assert np.array_equal(tab.r, ref.r)


@pytest.mark.parametrize(
    "code, m_f",
    [(toric_code(3), 3), (repetition_code(6), 4), (repetition_code(3), 2)],
    ids=["toric3-mf3", "rep6-mf4", "rep3-mf2"],
)
def test_x_readout_matches_reference(code, m_f):
    """Outcomes and final tableaux equal the table-lookup measurement path's."""
    rs = foliate(code, m_f)
    for frame in ("x", "z"):
        assert_same_tableau(init_graph_state(rs, frame), reference_init_graph_state(rs, frame))
    base = init_graph_state(rs)
    picker = np.random.default_rng(m_f)
    for seed in range(12):
        sites = np.flatnonzero(picker.random(rs.n_sites) < 0.15 * (seed % 3))
        tab, ref = base.copy(), reference_init_graph_state(rs)
        tab.apply_z(sites)
        ref.apply_z(sites)
        outcomes = measure_x_all(tab, rs, np.random.default_rng(seed))
        expect = reference_measure_x_all(ref, rs, np.random.default_rng(seed))
        assert np.array_equal(outcomes, expect)
        assert_same_tableau(tab, ref)
        assert np.array_equal(
            evaluate_detectors(outcomes, rs.cells), reference_evaluate_detectors(expect, rs.cells)
        )
        # Products of random stabilizer subsets, with their signs.
        n = rs.n_sites
        rows = n + np.flatnonzero(picker.random(n) < 0.2)
        got, want = tab._product_sign(rows), ref._product_sign(list(rows))
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_phase_bit_rule_equals_lookup_table(n_rows, n_qubits, seed):
    """Stim's bit rule for the exponent of i is the lookup table's g-sum mod 4."""
    x1, z1, x2, z2 = np.random.default_rng(seed).integers(
        0, 2, size=(4, n_rows, n_qubits), dtype=np.uint8
    )
    table = ReferenceTableau._g(x1, z1, x2, z2).sum(axis=-1, dtype=np.int64) % 4
    assert np.array_equal(_log_i(x1, z1, x2, z2), table)
    # One row against many, as in a rowsum.
    table = ReferenceTableau._g(x1[0][None, :], z1[0][None, :], x2, z2).sum(axis=-1) % 4
    assert np.array_equal(_log_i(x1[0], z1[0], x2, z2), table)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 12), st.integers(0, 2**32 - 1))
def test_cz_rule_equals_h_cnot_h(n, seed):
    """CZ's conjugation rule gives H(b) CNOT(a, b) H(b)'s bits on arbitrary rows."""
    rng = np.random.default_rng(seed)
    x, z = rng.integers(0, 2, size=(2, 2 * n, n), dtype=np.uint8)
    r = rng.integers(0, 2, size=2 * n, dtype=np.uint8)
    tab, ref = Tableau(n), ReferenceTableau(n)
    for t in (tab, ref):
        t.x, t.z, t.r = x.copy(), z.copy(), r.copy()
    for _ in range(6):
        a, b = rng.choice(n, size=2, replace=False).tolist()
        tab.cz(a, b)
        ref.cz(a, b)
        assert_same_tableau(tab, ref)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(0, 9), max_size=5), max_size=8), st.integers(0, 2**32 - 1))
def test_evaluate_detectors_matches_cell_loop(cells, seed):
    """One gather and one prefix XOR give the per-cell loop's bits and error."""
    outcomes = np.random.default_rng(seed).integers(-1, 2, size=10).astype(np.int8)
    try:
        expect = reference_evaluate_detectors(outcomes, cells)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{exc}$"):
            evaluate_detectors(outcomes, cells)
    else:
        got = evaluate_detectors(outcomes, cells)
        assert got.dtype == np.uint8 and np.array_equal(got, expect)
