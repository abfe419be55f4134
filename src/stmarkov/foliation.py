"""Foliation of a syndrome-extraction circuit into an MBQC resource state.

A circuit with T noisy rounds plus the appended perfect round maps to a
resource state with m_f = T + 1 integer layers above the input layer. Layers
are labeled 0, 1/2, 1, ..., m_f and stored as integer ticks (tick = 2 x layer).
Every layer holds a copy of the code qubits. A sector's syndrome qubits of
round r = 1..m_f sit at tick 2r - ``spacetime.SECTOR_SHIFT[sector]``: Z-checks
in integer layers, X-checks half a layer lower. There is no layer m_f + 1/2,
and layer 0 has no syndrome qubits (the input code state is perfect).

Detector cells and the logical-linking stabilizers are emitted as sparse
Pauli operators over sites; cells are in bijection with the circuit's
detectors under the key (sector, check, t).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

import numpy as np

from .codes import CssCode
from .spacetime import DATA_SECTOR, SECTOR_SHIFT, DetKey, Mechanism

Site = Tuple[str, int, int]  # ("d", qubit, tick) | ("sz"/"sx", check, tick)


@dataclass(frozen=True)
class PauliOp:
    """Sparse Pauli with disjoint X and Z supports over site indices."""

    x_sites: FrozenSet[int]
    z_sites: FrozenSet[int]

    @staticmethod
    def x(sites) -> "PauliOp":
        return PauliOp(frozenset(sites), frozenset())

    @staticmethod
    def z(sites) -> "PauliOp":
        return PauliOp(frozenset(), frozenset(sites))

    def commutes(self, other: "PauliOp") -> bool:
        overlap = len(self.x_sites & other.z_sites) + len(self.z_sites & other.x_sites)
        return overlap % 2 == 0

    def __mul__(self, other: "PauliOp") -> "PauliOp":
        return PauliOp(self.x_sites ^ other.x_sites, self.z_sites ^ other.z_sites)


@dataclass
class LblStabilizer:
    """Logical-linking stabilizer: boundary logicals joined by a bulk X-string."""

    kind: str  # "z" or "x": type of the boundary logical
    logical: int
    l0_sites: Tuple[int, ...]
    bulk_sites: Tuple[int, ...]
    lm_sites: Tuple[int, ...]

    def operator(self) -> PauliOp:
        bulk = PauliOp.x(self.bulk_sites)
        if self.kind == "z":
            return bulk * PauliOp.z(self.l0_sites) * PauliOp.z(self.lm_sites)
        return bulk * PauliOp.x(self.l0_sites) * PauliOp.x(self.lm_sites)


class ResourceState:
    """Layered cluster-state description of a foliated circuit."""

    def __init__(self, code: CssCode, m_f: int):
        if m_f < 1:
            raise ValueError(f"m_f must be >= 1, got {m_f}")
        self.code = code
        self.m_f = m_f
        self.sites: List[Site] = []
        self.site_index: Dict[Site, int] = {}
        # A sector's syndrome qubits of round r sit at tick 2r - shift, r = 1..m_f.
        ticks = {s: range(2 - shift, 2 * m_f + 1 - shift, 2) for s, shift in SECTOR_SHIFT.items()}
        for tick in range(2 * m_f + 1):
            for i in range(code.n_qubits):
                self._add(("d", i, tick))
            for sector in SECTOR_SHIFT:
                if tick in ticks[sector]:
                    for c in range(len(code.checks(sector))):
                        self._add(("s" + sector, c, tick))
        self.cz_edges: List[Tuple[int, int]] = []
        for i in range(code.n_qubits):
            for tick in range(2 * m_f):
                self._edge(("d", i, tick), ("d", i, tick + 1))
        for sector in SECTOR_SHIFT:
            for tick in ticks[sector]:
                for c in range(len(code.checks(sector))):
                    for i in code.check_support(sector, c):
                        self._edge(("s" + sector, c, tick), ("d", int(i), tick))
        self._adj: List[List[int]] = [[] for _ in self.sites]
        for u, v in self.cz_edges:
            self._adj[u].append(v)
            self._adj[v].append(u)
        self.detector_keys: List[DetKey] = []
        self.cells: List[Tuple[int, ...]] = []
        self._build_cells()
        self.lbl: List[LblStabilizer] = []
        self._build_lbl()

    def _add(self, site: Site) -> int:
        self.site_index[site] = len(self.sites)
        self.sites.append(site)
        return self.site_index[site]

    def _edge(self, a: Site, b: Site) -> None:
        self.cz_edges.append((self.site_index[a], self.site_index[b]))

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    @property
    def top_layer_sites(self) -> List[int]:
        tick = 2 * self.m_f
        return [self.site_index[("d", i, tick)] for i in range(self.code.n_qubits)]

    @property
    def measured_sites(self) -> List[int]:
        """All sites measured in the X basis: everything but the top code layer."""
        top = set(self.top_layer_sites)
        return [i for i in range(self.n_sites) if i not in top]

    def _build_cells(self) -> None:
        code, m_f = self.code, self.m_f
        for sector, shift in SECTOR_SHIFT.items():
            for c in range(len(code.checks(sector))):
                sup = [int(i) for i in code.check_support(sector, c)]
                for t in range(m_f):
                    # The data copies between the syndromes of rounds t and t + 1
                    # (round 0, the perfect input, has no syndrome qubit).
                    sites = [self.site_index[("d", i, 2 * t + 1 - shift)] for i in sup]
                    sites.append(self.site_index[("s" + sector, c, 2 * t + 2 - shift)])
                    if t >= 1:
                        sites.append(self.site_index[("s" + sector, c, 2 * t - shift)])
                    self.detector_keys.append((sector, c, t))
                    self.cells.append(tuple(sorted(sites)))

    def _build_lbl(self) -> None:
        code, m_f = self.code, self.m_f
        for sector, shift in SECTOR_SHIFT.items():
            for j, row in enumerate(code.logicals(sector)):
                sup = [int(i) for i in np.flatnonzero(row)]
                l0 = tuple(self.site_index[("d", i, 0)] for i in sup)
                lm = tuple(self.site_index[("d", i, 2 * m_f)] for i in sup)
                bulk = tuple(
                    self.site_index[("d", i, 2 * k + 1 - shift)]
                    for k in range(shift, m_f) for i in sup
                )
                self.lbl.append(LblStabilizer(sector, j, l0, bulk, lm))

    def graph_generators(self) -> List[PauliOp]:
        """Stabilizer generators of the noiseless resource state.

        Bulk sites contribute graph generators K_v = X_v prod_{u~v} Z_u; the
        input layer contributes its code-state stabilizers conjugated through
        the CZ gates (Z-checks stay Z-type; X-type operators pick up Z on the
        layer-1/2 copies). The input state is the +1 eigenstate of the X
        logicals, which are conjugated the same way.
        """
        gens: List[PauliOp] = []
        layer0 = {self.site_index[("d", i, 0)] for i in range(self.code.n_qubits)}
        for v in range(self.n_sites):
            if v in layer0:
                continue
            gens.append(PauliOp(frozenset([v]), frozenset(self._adj[v])))
        for c in range(self.code.n_z_checks):
            sup = [self.site_index[("d", int(i), 0)] for i in self.code.check_support("z", c)]
            gens.append(PauliOp.z(sup))
        x_type = [self.code.check_support("x", b) for b in range(self.code.n_x_checks)]
        x_type += [np.flatnonzero(row) for row in self.code.x_logicals]
        for sup in x_type:
            gens.append(
                PauliOp(
                    frozenset(self.site_index[("d", int(i), 0)] for i in sup),
                    frozenset(self.site_index[("d", int(i), 1)] for i in sup),
                )
            )
        return gens

    def map_mechanism(self, mech: Mechanism) -> List[int]:
        """Translate a circuit fault to resource-state Z-error sites.

        Circuit X between rounds t, t+1 lands at layer t + 1/2; circuit Z at
        layer t + 1; a readout flip lands on the syndrome qubit of that
        measurement instance.
        """
        T = self.m_f - 1
        kind, index, time = mech.kind, mech.index, mech.time
        if kind in DATA_SECTOR:
            if not (0 <= time < T and 0 <= index < self.code.n_qubits):
                raise ValueError(f"{kind} event ({index},{time}) outside circuit extent")
            shift = SECTOR_SHIFT[DATA_SECTOR[kind]]  # of the checks that see the error
            return [self.site_index[("d", index, 2 * time + 1 + shift)]]
        if kind == "readout" and mech.sector in SECTOR_SHIFT:
            if not (1 <= time <= T and 0 <= index < len(self.code.checks(mech.sector))):
                raise ValueError(
                    f"{kind} {mech.sector} event ({index},{time}) outside circuit extent"
                )
            tick = 2 * time - SECTOR_SHIFT[mech.sector]
            return [self.site_index[("s" + mech.sector, index, tick)]]
        raise ValueError(f"unknown event kind {kind!r} (sector {mech.sector!r})")


def foliate(code: CssCode, rounds: int) -> ResourceState:
    """Build the resource state with m_f = ``rounds`` integer layers."""
    return ResourceState(code, rounds)


def detector_cells(rs: ResourceState) -> List[PauliOp]:
    """Detector cells as X-type operators, aligned with rs.detector_keys."""
    return [PauliOp.x(cell) for cell in rs.cells]


def lbl_stabilizers(rs: ResourceState) -> List[PauliOp]:
    """Logical-linking stabilizers as sparse Paulis."""
    return [s.operator() for s in rs.lbl]
