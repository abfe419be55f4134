import numpy as np
import pytest

from stmarkov.codes import CssCode, repetition_code, toric_code
from stmarkov.foliation import PauliOp, detector_cells, foliate, lbl_stabilizers
from stmarkov.spacetime import Mechanism, NoiseModel, build_detector_model


def single_qubit_code():
    """Trivial one-qubit 'code': no checks, Z_0 and X_0 logicals."""
    one = np.ones((1, 1), dtype=np.uint8)
    return CssCode(
        name="wire",
        n_qubits=1,
        z_checks=np.zeros((0, 1), dtype=np.uint8),
        x_checks=np.zeros((0, 1), dtype=np.uint8),
        z_logicals=one.copy(),
        x_logicals=one.copy(),
        qubit_coords=[(0,)],
        z_check_coords=[],
        x_check_coords=[],
        space_shape=(1,),
    )


def test_foliate_counts_repetition():
    rs = foliate(repetition_code(3), 2)
    # 5 layers of 3 code qubits plus Z-syndrome qubits in layers 1 and 2.
    assert rs.n_sites == 15 + 6
    layers = sorted({rs.sites[i][2] / 2 for i in range(rs.n_sites)})
    assert layers == [0.0, 0.5, 1.0, 1.5, 2.0]
    syn = [s for s in rs.sites if s[0] == "sz"]
    assert {tick for (_, _, tick) in syn} == {2, 4}


def test_foliate_counts_toric():
    code = toric_code(2)
    rs = foliate(code, 2)
    assert rs.n_sites == 8 * 5 + 4 * 2 + 4 * 2
    sx_ticks = {tick for (kind, _, tick) in rs.sites if kind == "sx"}
    assert sx_ticks == {1, 3}
    assert ("sx", 0, 5) not in rs.site_index  # no layer m_f + 1/2


def test_foliate_rejects_zero_rounds():
    with pytest.raises(ValueError):
        foliate(repetition_code(3), 0)


def test_cz_edges_follow_construction():
    rs = foliate(repetition_code(3), 2)
    edges = {frozenset(e) for e in rs.cz_edges}
    # Syndrome qubit of check Z_0 Z_1 at layer 1 couples to code qubits 0, 1.
    syn = rs.site_index[("sz", 0, 2)]
    assert frozenset([syn, rs.site_index[("d", 0, 2)]]) in edges
    assert frozenset([syn, rs.site_index[("d", 1, 2)]]) in edges
    # A half-layer code qubit couples to its integer-layer copies.
    mid = rs.site_index[("d", 2, 1)]
    assert frozenset([mid, rs.site_index[("d", 2, 0)]]) in edges
    assert frozenset([mid, rs.site_index[("d", 2, 2)]]) in edges
    # Per-qubit chains plus one edge per (check instance, support qubit).
    assert len(rs.cz_edges) == 3 * 4 + 2 * (3 * 2)


def test_bulk_cell_is_four_body_plaquette():
    rs = foliate(repetition_code(4), 3)
    k = rs.cell_index[("z", 1, 1)]
    cell = rs.cells[k]
    assert len(cell) == 4
    kinds = sorted(rs.sites[s][0] for s in cell)
    assert kinds == ["d", "d", "sz", "sz"]


def test_first_round_cell_is_one_sided():
    rs = foliate(repetition_code(4), 3)
    cell = rs.cells[rs.cell_index[("z", 2, 0)]]
    assert len(cell) == 3
    assert sorted(rs.sites[s][0] for s in cell) == ["d", "d", "sz"]
    ticks = {rs.sites[s][2] for s in cell}
    assert ticks == {1, 2}


def test_cells_commute_with_graph_generators():
    for code, m_f in ((repetition_code(3), 2), (toric_code(2), 2)):
        rs = foliate(code, m_f)
        gens = rs.graph_generators()
        for op in detector_cells(rs):
            for g in gens:
                assert op.commutes(g)


def test_lbl_commute_with_graph_generators_and_cells():
    for code, m_f in ((repetition_code(3), 2), (toric_code(2), 2)):
        rs = foliate(code, m_f)
        gens = rs.graph_generators()
        cells = detector_cells(rs)
        for op in lbl_stabilizers(rs):
            for g in gens:
                assert op.commutes(g)
            for cell in cells:
                assert op.commutes(cell)


def test_lbl_shape_matches_display_form():
    # Z-type: Z at layers 0 and m_f joined by X at every half-integer layer.
    rs = foliate(repetition_code(3), 2)
    z_lbl = [s for s in rs.lbl if s.kind == "z"][0]
    op = z_lbl.operator()
    assert {rs.sites[s][2] for s in op.z_sites} == {0, 4}
    assert {rs.sites[s][2] for s in op.x_sites} == {1, 3}
    x_lbl = [s for s in rs.lbl if s.kind == "x"][0]
    xop = x_lbl.operator()
    assert not xop.z_sites
    assert {rs.sites[s][2] for s in xop.x_sites} == {0, 2, 4}


def test_bulk_logical_anticommutes_with_conjugate_layer_logical():
    # B_{L^Z} fails to commute with the X logical living in one bulk layer.
    code = repetition_code(3)
    rs = foliate(code, 3)
    z_lbl = [s for s in rs.lbl if s.kind == "z"][0]
    bulk = PauliOp.x(z_lbl.bulk_sites)
    layer_x = PauliOp.z(
        [rs.site_index[("d", i, 1)] for i in np.flatnonzero(code.x_logicals[0])]
    )
    # Overlap parity |Sup(L^Z) ∩ Sup(L^X)| = 1 in the shared layer.
    assert not bulk.commutes(layer_x)


@pytest.mark.parametrize(
    "code,m_f,noise",
    [
        (repetition_code(3), 2, NoiseModel.phenomenological(0.1)),
        (repetition_code(5), 4, NoiseModel.phenomenological(0.1)),
        (toric_code(2), 3, NoiseModel.phenomenological(0.1, p_z=0.1)),
    ],
)
def test_flip_correspondence_every_mechanism(code, m_f, noise):
    """Cells anticommuting with the mapped Z error == incidence column."""
    model = build_detector_model(code, m_f - 1, noise)
    rs = foliate(code, m_f)
    assert set(rs.detector_keys) == set(model.det_index)
    for k, mech in enumerate(model.mechanisms):
        sites = set(rs.map_mechanism(mech))
        fired_keys = {
            key
            for key, cell in zip(rs.detector_keys, rs.cells)
            if len(sites & set(cell)) % 2 == 1
        }
        expect_keys = {
            (model.detectors[d].sector, model.detectors[d].check, model.detectors[d].t)
            for d in mech.detectors
        }
        assert fired_keys == expect_keys, f"mechanism {mech}"


def _fault(kind: str, index: int, time: int, sector: str = "") -> Mechanism:
    return Mechanism(kind, sector, index, time, 0.1, (), ())


def test_map_circuit_error_rules():
    rs = foliate(repetition_code(4), 3)  # circuit rounds T = 2
    # Rule 1: X between rounds 1 and 2 -> Z at layer 1 1/2.
    (site,) = rs.map_mechanism(_fault("data_x", 2, 1))
    assert rs.sites[site] == ("d", 2, 3)
    # Rule 2: Z between rounds 0 and 1 -> Z at layer 1.
    (site,) = rs.map_mechanism(_fault("data_z", 0, 0))
    assert rs.sites[site] == ("d", 0, 2)
    # Rule 3: readout on check 0 at round 1 -> its syndrome qubit.
    (site,) = rs.map_mechanism(_fault("readout", 0, 1, "z"))
    assert rs.sites[site] == ("sz", 0, 2)


def test_map_circuit_error_range_checks():
    rs = foliate(repetition_code(3), 2)  # T = 1
    with pytest.raises(ValueError):
        rs.map_mechanism(_fault("data_x", 0, 1))
    with pytest.raises(ValueError):
        rs.map_mechanism(_fault("readout", 0, 2, "z"))
    with pytest.raises(ValueError):
        rs.map_mechanism(_fault("bogus", 0, 0))
    with pytest.raises(ValueError):
        rs.map_mechanism(_fault("readout", 0, 1, "y"))


def test_wire_code_foliates():
    rs = foliate(single_qubit_code(), 1)
    assert rs.n_sites == 3
    assert len(rs.cells) == 0
    assert len(rs.lbl) == 2
