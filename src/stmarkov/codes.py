"""CSS code catalog: periodic 1D repetition code and 2D toric code.

Codes are plain parity-check data over GF(2) plus logical representatives and
integer lattice coordinates. Both families live on periodic lattices; open
boundaries are out of scope.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .gf2 import gf2_in_rowspan, matrix_to_rows

Coord = Tuple[int, ...]


@dataclass(frozen=True)
class CssCode:
    """A CSS code: Z/X parity checks, logical representatives, geometry.

    ``z_checks`` rows are Z-type checks (columns = qubits), ``x_checks`` rows
    are X-type. ``z_logicals``/``x_logicals`` hold one representative support
    per encoded logical. ``space_shape`` gives the periodic spatial extent used
    for check coordinates (all spatial dimensions wrap).
    """

    name: str
    n_qubits: int
    z_checks: np.ndarray
    x_checks: np.ndarray
    z_logicals: np.ndarray
    x_logicals: np.ndarray
    qubit_coords: List[Coord]
    z_check_coords: List[Coord]
    x_check_coords: List[Coord]
    space_shape: Tuple[int, ...]

    def __post_init__(self):
        for attr in ("z_checks", "x_checks", "z_logicals", "x_logicals"):
            arr = np.asarray(getattr(self, attr), dtype=np.uint8)
            if arr.size == 0:
                arr = arr.reshape(0, self.n_qubits)
            if arr.ndim != 2 or arr.shape[1] != self.n_qubits:
                raise ValueError(f"{attr} must be 2D with {self.n_qubits} columns")
            object.__setattr__(self, attr, arr)

    @property
    def n_z_checks(self) -> int:
        return self.z_checks.shape[0]

    @property
    def n_x_checks(self) -> int:
        return self.x_checks.shape[0]

    def checks(self, sector: str) -> np.ndarray:
        """The parity checks of a sector, ``"z"`` or ``"x"``."""
        return self.z_checks if sector == "z" else self.x_checks

    def logicals(self, sector: str) -> np.ndarray:
        """The logical representatives of a sector, ``"z"`` or ``"x"``."""
        return self.z_logicals if sector == "z" else self.x_logicals

    def check_support(self, sector: str, c: int) -> np.ndarray:
        return np.flatnonzero(self.checks(sector)[c])

    def to_json(self) -> str:
        payload = {
            "name": self.name,
            "n_qubits": self.n_qubits,
            "z_checks": self.z_checks.tolist(),
            "x_checks": self.x_checks.tolist(),
            "z_logicals": self.z_logicals.tolist(),
            "x_logicals": self.x_logicals.tolist(),
            "qubit_coords": [list(c) for c in self.qubit_coords],
            "z_check_coords": [list(c) for c in self.z_check_coords],
            "x_check_coords": [list(c) for c in self.x_check_coords],
            "space_shape": list(self.space_shape),
        }
        return json.dumps(payload, sort_keys=True)


def repetition_code(L: int) -> CssCode:
    """Periodic repetition code: L qubits, checks Z_i Z_{i+1} (mod L).

    The encoded bit gets logical Z on site 0 and logical X on the full chain.
    """
    if L < 3:
        raise ValueError(f"repetition code needs L >= 3, got {L}")
    z = np.zeros((L, L), dtype=np.uint8)
    for i in range(L):
        z[i, i] = 1
        z[i, (i + 1) % L] = 1
    z_log = np.zeros((1, L), dtype=np.uint8)
    z_log[0, 0] = 1
    x_log = np.ones((1, L), dtype=np.uint8)
    return CssCode(
        name=f"repetition_{L}",
        n_qubits=L,
        z_checks=z,
        x_checks=np.zeros((0, L), dtype=np.uint8),
        z_logicals=z_log,
        x_logicals=x_log,
        qubit_coords=[(i,) for i in range(L)],
        z_check_coords=[(i,) for i in range(L)],
        x_check_coords=[],
        space_shape=(L,),
    )


def _toric_edge_index(L: int, d: int, r: int, c: int) -> int:
    return d * L * L + (r % L) * L + (c % L)


def toric_code(L: int) -> CssCode:
    """Toric code on an L x L torus: 2L^2 edge qubits, X plaquettes, Z vertices.

    Edges are indexed (direction, row, col): direction 0 joins vertex (r, c) to
    (r, c+1), direction 1 joins (r, c) to (r+1, c). Logical representatives are
    the lexicographically smallest winding strings (row 0 / column 0).
    """
    if L < 2:
        raise ValueError(f"toric code needs L >= 2, got {L}")
    n = 2 * L * L
    # Vertex Z-checks: the four edges meeting vertex (r, c).
    zc = np.zeros((L * L, n), dtype=np.uint8)
    for r in range(L):
        for c in range(L):
            v = r * L + c
            zc[v, _toric_edge_index(L, 0, r, c)] = 1
            zc[v, _toric_edge_index(L, 0, r, c - 1)] = 1
            zc[v, _toric_edge_index(L, 1, r, c)] = 1
            zc[v, _toric_edge_index(L, 1, r - 1, c)] = 1
    # Plaquette X-checks: boundary of the face with corner (r, c).
    xc = np.zeros((L * L, n), dtype=np.uint8)
    for r in range(L):
        for c in range(L):
            f = r * L + c
            xc[f, _toric_edge_index(L, 0, r, c)] = 1
            xc[f, _toric_edge_index(L, 0, r + 1, c)] = 1
            xc[f, _toric_edge_index(L, 1, r, c)] = 1
            xc[f, _toric_edge_index(L, 1, r, c + 1)] = 1
    # Winding logical strings. Pairing: z_logicals[k] anticommutes with
    # x_logicals[k] (one crossing) and commutes with the other pair.
    z_log = np.zeros((2, n), dtype=np.uint8)
    x_log = np.zeros((2, n), dtype=np.uint8)
    for c in range(L):
        z_log[0, _toric_edge_index(L, 1, 0, c)] = 1  # vertical edges along row 0
    for r in range(L):
        z_log[1, _toric_edge_index(L, 0, r, 0)] = 1  # horizontal edges down column 0
    for r in range(L):
        x_log[0, _toric_edge_index(L, 1, r, 0)] = 1  # vertical edges down column 0
    for c in range(L):
        x_log[1, _toric_edge_index(L, 0, 0, c)] = 1  # horizontal edges along row 0
    qubit_coords: List[Coord] = [()] * n
    for d in range(2):
        for r in range(L):
            for c in range(L):
                qubit_coords[_toric_edge_index(L, d, r, c)] = (d, r, c)
    vertex_coords = [(r, c) for r in range(L) for c in range(L)]
    return CssCode(
        name=f"toric_{L}",
        n_qubits=n,
        z_checks=zc,
        x_checks=xc,
        z_logicals=z_log,
        x_logicals=x_log,
        qubit_coords=qubit_coords,
        z_check_coords=vertex_coords,
        x_check_coords=vertex_coords,
        space_shape=(L, L),
    )


@dataclass
class ValidationReport:
    ok: bool
    failures: List[Tuple[str, str]] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


def validate_code(code: CssCode) -> ValidationReport:
    """Check CSS commutation, logical commutation, and logical pairing.

    The report carries the first violating pair for each failed invariant.
    """
    failures: List[Tuple[str, str]] = []

    def overlaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Overlap parity of each row of a with each row of b."""
        return (a.astype(np.int64) @ b.T.astype(np.int64)) % 2

    css = np.argwhere(overlaps(code.z_checks, code.x_checks))
    if css.size:
        failures.append(("css_commutation", "z_check {} vs x_check {}".format(*css[0])))
    for sector, other in (("z", "x"), ("x", "z")):
        for j, row in enumerate(overlaps(code.logicals(sector), code.checks(other))):
            if row.any():
                failures.append((f"{sector}_logical_commutes_{other}_checks",
                                 f"{sector}_logical {j} vs {other}_check {row.argmax()}"))

    pairing = overlaps(code.z_logicals, code.x_logicals)
    for a, b in np.ndindex(pairing.shape):
        if pairing[a, b] != (a == b):
            kind = "paired_logicals_anticommute" if a == b else "unpaired_logicals_commute"
            failures.append((kind, f"z_logical {a} vs x_logical {b}"))

    for sector in ("z", "x"):
        rows = matrix_to_rows(code.checks(sector))
        for j, vec in enumerate(matrix_to_rows(code.logicals(sector))):
            if vec == 0 or gf2_in_rowspan(vec, rows):
                failures.append((f"{sector}_logical_not_in_{sector}_rowspan", f"logical {j}"))

    return ValidationReport(ok=not failures, failures=failures)
