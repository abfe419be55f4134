"""Stabilizer-tableau simulator for verifying the foliation correspondence.

Standard destabilizer/stabilizer tableau with sign bits. This is a verifier
for graph-state preparation, Z errors, and X-basis readout, not a production
sampler; instances are expected to stay below a couple thousand qubits.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from .foliation import PauliOp, ResourceState


class Tableau:
    """Destabilizer (rows 0..n-1) + stabilizer (rows n..2n-1) tableau."""

    # Verification-scale ceiling; the sampler handles production throughput.
    MAX_QUBITS = 2048

    def __init__(self, n: int):
        if n > self.MAX_QUBITS:
            raise ValueError(
                f"tableau verifier capped at {self.MAX_QUBITS} qubits, got {n}"
            )
        self.n = n
        self.x = np.zeros((2 * n, n), dtype=np.uint8)
        self.z = np.zeros((2 * n, n), dtype=np.uint8)
        self.r = np.zeros(2 * n, dtype=np.uint8)
        for i in range(n):
            self.x[i, i] = 1
            self.z[n + i, i] = 1

    def copy(self) -> "Tableau":
        t = Tableau.__new__(Tableau)
        t.n = self.n
        t.x = self.x.copy()
        t.z = self.z.copy()
        t.r = self.r.copy()
        return t

    # -- Clifford gates ---------------------------------------------------

    def h(self, q: int) -> None:
        self.r ^= self.x[:, q] & self.z[:, q]
        self.x[:, q], self.z[:, q] = self.z[:, q].copy(), self.x[:, q].copy()

    def cnot(self, a: int, b: int) -> None:
        self.r ^= self.x[:, a] & self.z[:, b] & (self.x[:, b] ^ self.z[:, a] ^ 1)
        self.x[:, b] ^= self.x[:, a]
        self.z[:, a] ^= self.z[:, b]

    def cz(self, a: int, b: int) -> None:
        self.h(b)
        self.cnot(a, b)
        self.h(b)

    # -- Pauli errors ------------------------------------------------------

    def apply_z(self, sites: Iterable[int]) -> None:
        """Z errors flip the sign of every generator with X support there."""
        for q in sites:
            self.r ^= self.x[:, q]

    # -- Generator products --------------------------------------------------

    # Exponent of i when multiplying X^x1 Z^z1 by X^x2 Z^z2, indexed by the
    # four bits (x1, z1, x2, z2).
    _G_TABLE = np.array(
        [0, 0, 0, 0, 0, 0, 1, -1, 0, -1, 0, 1, 0, 1, -1, 0], dtype=np.int8
    )

    @classmethod
    def _g(cls, x1, z1, x2, z2):
        idx = (x1 << 3) | (z1 << 2) | (x2 << 1) | z2
        return cls._G_TABLE[idx]

    def _rowsum_many(self, targets: np.ndarray, src: int) -> None:
        """row[t] <- row[src] * row[t] for each target, with sign tracking."""
        if len(targets) == 0:
            return
        g = self._g(self.x[src][None, :], self.z[src][None, :], self.x[targets], self.z[targets])
        phase = (
            2 * self.r[targets].astype(np.int64)
            + 2 * int(self.r[src])
            + g.sum(axis=1, dtype=np.int64)
        ) % 4
        self.r[targets] = (phase // 2).astype(np.uint8)
        self.x[targets] ^= self.x[src]
        self.z[targets] ^= self.z[src]

    def _product_sign(self, rows: Sequence[int]) -> Tuple[np.ndarray, np.ndarray, int]:
        """Accumulated Pauli product of the given rows; returns (x, z, sign bit)."""
        xs = np.zeros(self.n, dtype=np.uint8)
        zs = np.zeros(self.n, dtype=np.uint8)
        phase = 0
        for i in rows:
            g = self._g(self.x[i], self.z[i], xs, zs)
            phase = (phase + 2 * int(self.r[i]) + int(g.sum(dtype=np.int64))) % 4
            xs ^= self.x[i]
            zs ^= self.z[i]
        if phase % 2 != 0:
            raise AssertionError("generator product left a residual factor of i")
        return xs, zs, phase // 2

    def _commutation(self, px: np.ndarray, pz: np.ndarray) -> np.ndarray:
        anti = (self.x @ pz.astype(np.int64) + self.z @ px.astype(np.int64)) % 2
        return anti.astype(np.uint8)

    def _masks(self, op: PauliOp) -> Tuple[np.ndarray, np.ndarray]:
        px = np.zeros(self.n, dtype=np.uint8)
        pz = np.zeros(self.n, dtype=np.uint8)
        for q in op.x_sites:
            px[q] = 1
        for q in op.z_sites:
            pz[q] = 1
        return px, pz

    # -- Measurement ---------------------------------------------------------

    def measure_pauli(
        self,
        op: PauliOp,
        rng: Optional[np.random.Generator] = None,
        force: Optional[int] = None,
    ) -> int:
        """Measure a (positive-sign) Pauli; returns the outcome bit.

        Random outcomes draw from ``rng`` unless ``force`` pins the projected
        branch (used for deterministic state preparation). Deterministic
        outcomes ignore both.
        """
        n = self.n
        if len(op.x_sites) == 1 and not op.z_sites:
            (q,) = op.x_sites
            px = np.zeros(n, dtype=np.uint8)
            px[q] = 1
            pz = np.zeros(n, dtype=np.uint8)
            anti = self.z[:, q]
        elif len(op.z_sites) == 1 and not op.x_sites:
            (q,) = op.z_sites
            pz = np.zeros(n, dtype=np.uint8)
            pz[q] = 1
            px = np.zeros(n, dtype=np.uint8)
            anti = self.x[:, q]
        else:
            px, pz = self._masks(op)
            anti = self._commutation(px, pz)
        stab_anti = np.flatnonzero(anti[n:])
        if stab_anti.size:
            p = n + int(stab_anti[0])
            others = np.flatnonzero(anti)
            others = others[others != p]
            self._rowsum_many(others, p)
            if force is not None:
                outcome = int(force)
            elif rng is not None:
                outcome = int(rng.integers(0, 2))
            else:
                raise ValueError("random measurement outcome requires rng or force")
            self.x[p - n] = self.x[p]
            self.z[p - n] = self.z[p]
            self.r[p - n] = self.r[p]
            self.x[p] = px
            self.z[p] = pz
            self.r[p] = outcome
            return outcome
        # Deterministic: the operator is a +/- product of stabilizer rows,
        # selected by which destabilizers anticommute with it.
        rows = [n + int(i) for i in np.flatnonzero(anti[:n])]
        xs, zs, sign = self._product_sign(rows)
        if not (np.array_equal(xs, px) and np.array_equal(zs, pz)):
            raise AssertionError("deterministic measurement product mismatch")
        return sign

    def expectation(self, op: PauliOp) -> int:
        """+1/-1 for stabilized operators, 0 if the outcome would be random."""
        px, pz = self._masks(op)
        anti = self._commutation(px, pz)
        n = self.n
        if np.any(anti[n:]):
            return 0
        rows = [n + int(i) for i in np.flatnonzero(anti[:n])]
        xs, zs, sign = self._product_sign(rows)
        if not (np.array_equal(xs, px) and np.array_equal(zs, pz)):
            raise AssertionError("expectation product mismatch")
        return 1 if sign == 0 else -1


def init_graph_state(rs: ResourceState, frame: str = "x") -> Tableau:
    """Prepare the foliated resource state as a tableau.

    Bulk sites start in |+>, the input layer in the code state with the chosen
    logical frame (``"x"``: +1 eigenstate of the X logicals, so that every
    logical-linking stabilizer of both types has expectation +1; ``"z"``: the
    Z-logical frame), then all CZ edges are applied.
    """
    if frame not in ("x", "z"):
        raise ValueError(f"frame must be 'x' or 'z', got {frame!r}")
    tab = Tableau(rs.n_sites)
    code = rs.code
    layer0 = [rs.site_index[("d", i, 0)] for i in range(code.n_qubits)]
    if frame == "x":
        for q in range(rs.n_sites):
            tab.h(q)
        for c in range(code.n_z_checks):
            sup = [layer0[int(i)] for i in code.check_support("z", c)]
            out = tab.measure_pauli(PauliOp.z(sup), force=0)
            if out != 0:
                raise AssertionError("inconsistent forced Z-check preparation")
    else:
        for q in range(rs.n_sites):
            if q not in set(layer0):
                tab.h(q)
        for b in range(code.n_x_checks):
            sup = [layer0[int(i)] for i in code.check_support("x", b)]
            out = tab.measure_pauli(PauliOp.x(sup), force=0)
            if out != 0:
                raise AssertionError("inconsistent forced X-check preparation")
    for u, v in rs.cz_edges:
        tab.cz(u, v)
    return tab


def measure_x_all(
    tab: Tableau,
    rs: ResourceState,
    rng: np.random.Generator,
    sites: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Measure X on every bulk/bottom site in index order.

    Returns an int8 array over all sites: outcome bits for measured sites,
    -1 for the unmeasured final code layer.
    """
    if sites is None:
        sites = rs.measured_sites
    outcomes = np.full(rs.n_sites, -1, dtype=np.int8)
    for q in sites:
        outcomes[q] = tab.measure_pauli(PauliOp.x([q]), rng=rng)
    return outcomes


def evaluate_detectors(outcomes: np.ndarray, cells: Sequence[Sequence[int]]) -> np.ndarray:
    """XOR measured outcomes over each cell's X support."""
    bits = np.zeros(len(cells), dtype=np.uint8)
    for k, cell in enumerate(cells):
        vals = outcomes[list(cell)]
        if np.any(vals < 0):
            raise ValueError(f"cell {k} touches an unmeasured site")
        bits[k] = int(vals.sum()) % 2
    return bits
