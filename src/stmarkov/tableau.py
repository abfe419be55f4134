"""Stabilizer-tableau simulator for verifying the foliation correspondence.

Aaronson-Gottesman destabilizer/stabilizer tableau (quant-ph/0406196) with
sign bits, stored as dense uint8 ``x`` and ``z`` arrays with one row per
generator. This is a verifier for graph-state preparation, Z errors, and
X-basis readout, not a production sampler; instances are expected to stay
below a couple thousand qubits.

One X readout (``Tableau.measure_x``) reads column q of ``z`` for the k
generators that anticommute with X_q. A random outcome folds the k - 1
others into the first such stabilizer row (one rowsum over a k x n block)
and writes X_q there; a deterministic one is the product of the k selected
stabilizer rows, formed by one prefix XOR over them. Every product's phase
is computed from the bits (``_log_i``, Stim's rule, arXiv:2103.02202), with
no lookup table. ``tests/oracles.ReferenceTableau``, the table-lookup
version with a per-row product loop, is the test oracle.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from .foliation import PauliOp, ResourceState


def _log_i(x1: np.ndarray, z1: np.ndarray, x2: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """Exponent of i, mod 4, of the product (x1, z1)(x2, z2) of Pauli rows.

    Bits (x, z) = (1, 1) stand for Y. A qubit where the factors anticommute
    contributes i or -i, the latter where ``x1 ^ x2 ^ z1 ^ z2 ^ x1 & z2``
    is set; others contribute 1. Rows run along the last axis.
    """
    x1z2 = x1 & z2
    anti = (x2 & z1) ^ x1z2
    minus = anti & (x1 ^ x2 ^ z1 ^ z2 ^ x1z2)
    return (anti.sum(axis=-1) + 2 * minus.sum(axis=-1)) & 3


def _outcome(rng: Optional[np.random.Generator], force: Optional[int]) -> int:
    if force is not None:
        return int(force)
    if rng is not None:
        return int(rng.integers(0, 2))
    raise ValueError("random measurement outcome requires rng or force")


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

    def cz(self, a: int, b: int) -> None:
        xa, xb = self.x[:, a], self.x[:, b]
        za, zb = self.z[:, a], self.z[:, b]
        self.r ^= xa & xb & (za ^ zb)
        za ^= xb
        zb ^= xa

    # -- Pauli errors ------------------------------------------------------

    def apply_z(self, sites: Iterable[int]) -> None:
        """Z errors flip the sign of every generator with X support there."""
        for q in sites:
            self.r ^= self.x[:, q]

    # -- Generator products --------------------------------------------------

    def _rowsum_many(self, targets: np.ndarray, src: int) -> None:
        """row[t] <- row[src] * row[t] for each target, with sign tracking."""
        if len(targets) == 0:
            return
        x1, z1 = self.x[src], self.z[src]
        x2, z2 = self.x[targets], self.z[targets]
        # Bit 1 of (2 r_src + 2 r_t + log_i) mod 4 is the new sign.
        flip = (_log_i(x1, z1, x2, z2) >> 1).astype(np.uint8)
        self.r[targets] ^= flip ^ self.r[src]
        self.x[targets] = x2 ^ x1
        self.z[targets] = z2 ^ z1

    def _product_sign(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray, int]:
        """Accumulated Pauli product of the given rows; returns (x, z, sign bit).

        Row j multiplies the product of rows 0..j-1 from the left: one prefix
        XOR gives every partial product, and one sum their phases.
        """
        if len(rows) == 0:
            return np.zeros(self.n, dtype=np.uint8), np.zeros(self.n, dtype=np.uint8), 0
        x, z = self.x[rows], self.z[rows]
        xs = np.bitwise_xor.accumulate(x, axis=0)
        zs = np.bitwise_xor.accumulate(z, axis=0)
        phase = 2 * int(self.r[rows].sum()) + int(_log_i(x[1:], z[1:], xs[:-1], zs[:-1]).sum())
        if phase % 2 != 0:
            raise AssertionError("generator product left a residual factor of i")
        return xs[-1], zs[-1], phase % 4 // 2

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

    def _collapse(self, rows: np.ndarray, k: int, outcome: int) -> int:
        """Project onto a random outcome; returns the pivot row.

        ``rows`` lists the generators that anticommute with the measured
        operator, ascending; ``rows[k]`` is the first stabilizer among them.
        The others are folded into it, it moves to its destabilizer slot, and
        the caller writes the measured operator into it.
        """
        p = int(rows[k])
        self._rowsum_many(rows[rows != p], p)
        d = p - self.n
        self.x[d] = self.x[p]
        self.z[d] = self.z[p]
        self.r[d] = self.r[p]
        self.r[p] = outcome
        return p

    def measure_x(
        self,
        q: int,
        rng: Optional[np.random.Generator] = None,
        force: Optional[int] = None,
    ) -> int:
        """Measure X on qubit ``q``; returns the outcome bit (as ``measure_pauli``)."""
        n = self.n
        rows = np.flatnonzero(self.z[:, q])
        k = int(rows.searchsorted(n))
        if k < len(rows):
            outcome = _outcome(rng, force)
            p = self._collapse(rows, k, outcome)
            self.x[p] = 0
            self.x[p, q] = 1
            self.z[p] = 0
            return outcome
        # Deterministic: X_q is a +/- product of the stabilizers whose
        # destabilizers anticommute with it.
        xs, zs, sign = self._product_sign(rows + n)
        if zs.any() or xs[q] != 1 or np.count_nonzero(xs) != 1:
            raise AssertionError("deterministic measurement product mismatch")
        return sign

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
        px, pz = self._masks(op)
        rows = np.flatnonzero(self._commutation(px, pz))
        k = int(rows.searchsorted(n))
        if k < len(rows):
            outcome = _outcome(rng, force)
            p = self._collapse(rows, k, outcome)
            self.x[p] = px
            self.z[p] = pz
            return outcome
        return self._stabilized_sign(rows, px, pz)

    def expectation(self, op: PauliOp) -> int:
        """+1/-1 for stabilized operators, 0 if the outcome would be random."""
        px, pz = self._masks(op)
        rows = np.flatnonzero(self._commutation(px, pz))
        if rows.size and rows[-1] >= self.n:
            return 0
        return 1 - 2 * self._stabilized_sign(rows, px, pz)

    def _stabilized_sign(self, rows: np.ndarray, px: np.ndarray, pz: np.ndarray) -> int:
        """Sign bit of a stabilized Pauli (px, pz) whose anticommuting destabilizers are ``rows``.

        The operator is a +/- product of the stabilizers those destabilizers
        pair with.
        """
        xs, zs, sign = self._product_sign(rows + self.n)
        if not (np.array_equal(xs, px) and np.array_equal(zs, pz)):
            raise AssertionError("deterministic measurement product mismatch")
        return sign


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
    # The input layer starts in the frame's basis (|+> or |0>), every other
    # site in |+>; the other sector's checks are then projected in.
    in_z = set(layer0) if frame == "z" else set()
    for q in range(rs.n_sites):
        if q not in in_z:
            tab.h(q)
    other = "z" if frame == "x" else "x"
    for c in range(len(code.checks(other))):
        sup = [layer0[int(i)] for i in code.check_support(other, c)]
        if tab.measure_pauli(getattr(PauliOp, other)(sup), force=0) != 0:
            raise AssertionError(f"inconsistent forced {other.upper()}-check preparation")
    for u, v in rs.cz_edges:
        tab.cz(u, v)
    return tab


def measure_x_all(tab: Tableau, rs: ResourceState, rng: np.random.Generator) -> np.ndarray:
    """Measure X on every bulk/bottom site in index order.

    Returns an int8 array over all sites: outcome bits for measured sites,
    -1 for the unmeasured final code layer.
    """
    outcomes = np.full(rs.n_sites, -1, dtype=np.int8)
    measure = tab.measure_x
    for q in rs.measured_sites:
        outcomes[q] = measure(q, rng)
    return outcomes


def evaluate_detectors(outcomes: np.ndarray, cells: Sequence[Sequence[int]]) -> np.ndarray:
    """XOR measured outcomes over each cell's X support.

    One gather over the concatenated cells, then one prefix XOR: a cell's bit
    is the prefix parity at its end XOR that at its start.
    """
    sizes = np.fromiter(map(len, cells), dtype=np.intp, count=len(cells))
    ends = np.cumsum(sizes)
    vals = outcomes[np.fromiter(chain.from_iterable(cells), dtype=np.intp)]
    bad = np.flatnonzero(vals < 0)
    if bad.size:
        k = int(ends.searchsorted(bad[0], side="right"))
        raise ValueError(f"cell {k} touches an unmeasured site")
    parity = np.zeros(vals.size + 1, dtype=np.uint8)
    np.bitwise_xor.accumulate(vals.astype(np.uint8), out=parity[1:])
    return parity[ends] ^ parity[ends - sizes]
