import dataclasses
import json

import numpy as np
import pytest

from stmarkov.codes import (
    CssCode,
    repetition_code,
    toric_code,
    validate_code,
)
from stmarkov.gf2 import gf2_rank, matrix_to_rows


def test_repetition_basic_structure():
    code = repetition_code(3)
    assert code.n_qubits == 3
    assert code.z_checks.shape == (3, 3)
    assert code.n_x_checks == 0
    expected = {frozenset([0, 1]), frozenset([1, 2]), frozenset([2, 0])}
    got = {frozenset(np.flatnonzero(row)) for row in code.z_checks}
    assert got == expected
    assert gf2_rank(matrix_to_rows(code.z_checks)) == 2


def test_repetition_periodic_redundancy():
    code = repetition_code(3)
    assert not np.any(code.z_checks.sum(axis=0) % 2)


def test_repetition_logical_pairing():
    code = repetition_code(5)
    assert list(np.flatnonzero(code.z_logicals[0])) == [0]
    assert list(np.flatnonzero(code.x_logicals[0])) == [0, 1, 2, 3, 4]
    overlap = int(code.z_logicals[0] @ code.x_logicals[0]) % 2
    assert overlap == 1


def test_repetition_rejects_small():
    with pytest.raises(ValueError):
        repetition_code(2)


def test_toric_counts_and_ranks():
    code = toric_code(2)
    assert code.n_qubits == 8
    assert code.n_z_checks == 4 and code.n_x_checks == 4
    assert gf2_rank(matrix_to_rows(code.z_checks)) == 3
    assert gf2_rank(matrix_to_rows(code.x_checks)) == 3
    # 8 qubits - 6 independent stabilizers = 2 logical qubits.
    assert code.z_logicals.shape[0] == 2 and code.x_logicals.shape[0] == 2


def test_toric_plaquette_product_identity():
    code = toric_code(2)
    assert not np.any(code.x_checks.sum(axis=0) % 2)


def test_toric_logical_crossings():
    code = toric_code(3)
    z0, z1 = code.z_logicals
    x0, x1 = code.x_logicals
    assert int(z0 @ x0) % 2 == 1
    assert int(z1 @ x1) % 2 == 1
    assert int(z0 @ x1) % 2 == 0
    assert int(z1 @ x0) % 2 == 0


def test_toric_rejects_small():
    with pytest.raises(ValueError):
        toric_code(1)


@pytest.mark.parametrize("code", [repetition_code(4), toric_code(2), toric_code(3)])
def test_validate_generated_codes(code):
    report = validate_code(code)
    assert report.ok, report.failures


def test_validate_flags_bad_overlap():
    code = repetition_code(4)
    bad_x = np.zeros((1, 4), dtype=np.uint8)
    bad_x[0, 0] = 1  # overlaps check Z_0 Z_1 on exactly one site
    broken = CssCode(
        name="broken",
        n_qubits=4,
        z_checks=code.z_checks,
        x_checks=bad_x,
        z_logicals=code.z_logicals,
        x_logicals=code.x_logicals,
        qubit_coords=code.qubit_coords,
        z_check_coords=code.z_check_coords,
        x_check_coords=[(0,)],
        space_shape=(4,),
    )
    report = validate_code(broken)
    assert not report.ok
    kinds = [k for k, _ in report.failures]
    assert "css_commutation" in kinds
    detail = dict(report.failures)["css_commutation"]
    assert "z_check 0" in detail and "x_check 0" in detail


def test_validate_flags_x_logical_anticommuting_with_z_check():
    code = repetition_code(4)
    lone = np.zeros((1, 4), dtype=np.uint8)
    lone[0, 0] = 1  # X_0 overlaps Z_0 Z_1 on one site; it still pairs with Z_0
    report = validate_code(dataclasses.replace(code, x_logicals=lone))
    assert report.failures == [("x_logical_commutes_z_checks", "x_logical 0 vs z_check 0")]


def test_validate_flags_broken_logical_pairing():
    code = toric_code(3)
    swapped = dataclasses.replace(code, x_logicals=code.x_logicals[::-1])
    assert validate_code(swapped).failures == [
        ("paired_logicals_anticommute", "z_logical 0 vs x_logical 0"),
        ("unpaired_logicals_commute", "z_logical 0 vs x_logical 1"),
        ("unpaired_logicals_commute", "z_logical 1 vs x_logical 0"),
        ("paired_logicals_anticommute", "z_logical 1 vs x_logical 1"),
    ]


@pytest.mark.parametrize("code", [repetition_code(4), toric_code(3)], ids=["repetition", "toric"])
def test_validate_flags_logical_inside_check_rowspan(code):
    # A check is no logical: it lies in the rowspan and commutes with every X logical.
    stand_in = code.z_logicals.copy()
    stand_in[0] = code.z_checks[0]
    report = validate_code(dataclasses.replace(code, z_logicals=stand_in))
    assert ("z_logical_not_in_z_rowspan", "logical 0") in report.failures
    assert ("paired_logicals_anticommute", "z_logical 0 vs x_logical 0") in report.failures
    assert not report.ok


def test_css_commutation_matrix_identity():
    for code in (repetition_code(5), toric_code(3)):
        prod = (code.z_checks.astype(int) @ code.x_checks.astype(int).T) % 2
        assert not np.any(prod)


def test_logicals_not_in_check_rowspan():
    report = validate_code(toric_code(2))
    assert report.ok


def test_json_roundtrip():
    code = toric_code(2)
    d = json.loads(code.to_json())
    assert d["name"] == code.name and d["n_qubits"] == code.n_qubits
    for key in ("z_checks", "x_checks", "z_logicals", "x_logicals"):
        assert np.array_equal(np.array(d[key], dtype=np.uint8), getattr(code, key))
    for key in ("qubit_coords", "z_check_coords", "x_check_coords"):
        assert [tuple(c) for c in d[key]] == list(getattr(code, key))
    assert tuple(d["space_shape"]) == code.space_shape
