"""Spacetime detector error model for phenomenological syndrome extraction.

A run is T noisy measurement rounds of every check on a perfectly prepared
code state, followed by one appended noiseless readout round. Detectors XOR
consecutive syndrome measurements; first-round detectors reference the perfect
input, so each check contributes T+1 detectors at times t = 0..T.

Timing convention (fixed by the foliated picture): Z-checks of round r are
measured at layer r, X-checks of round r at layer r - 1/2. Hence a data X
error on the interface between rounds t and t+1 flips Z-sector detectors at
time t, while a data Z error flips X-sector detectors at time t+1.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .codes import CssCode

DetKey = Tuple[str, int, int]  # (sector, check index, detector time)


@dataclass(frozen=True)
class NoiseModel:
    """Per-round error rates: data X/Z flips and readout flips.

    All probabilities must lie in [0, 1/2]. The default experiment sets
    p_x = q = p and p_z = 0.
    """

    p_x: float
    p_z: float
    q: float

    def __post_init__(self):
        for name in ("p_x", "p_z", "q"):
            v = getattr(self, name)
            if not (0.0 <= v <= 0.5):
                raise ValueError(f"{name}={v} outside [0, 0.5]")

    @staticmethod
    def phenomenological(p: float, p_z: float = 0.0) -> "NoiseModel":
        return NoiseModel(p_x=p, p_z=p_z, q=p)


@dataclass(frozen=True)
class Detector:
    sector: str  # "z" or "x" (type of the measured check)
    check: int
    t: int
    coords: Tuple[int, ...]  # (*check space coords, t)


@dataclass(frozen=True)
class Mechanism:
    kind: str  # "data_x" | "data_z" | "readout"
    sector: str  # check sector for readout, "" for data errors
    index: int  # qubit index for data errors, check index for readout
    time: int  # interface t for data errors, round r for readout
    p: float
    detectors: Tuple[int, ...]  # rows of the incidence matrix this flips
    logical_flips: Tuple[int, ...]  # protected logical bits this flips


def chebyshev_distance(
    coords_a: Sequence[int], coords_b: Sequence[int], space_shape: Sequence[int]
) -> int:
    """Chebyshev distance between (*space, t) coordinates: space wraps, time is open."""
    best = abs(coords_a[-1] - coords_b[-1])
    for dim, size in enumerate(space_shape):
        d = abs(coords_a[dim] - coords_b[dim])
        best = max(best, min(d, size - d))
    return best


class DetectorModel:
    """Error mechanisms, their probabilities, and detector incidence."""

    def __init__(
        self,
        code: CssCode,
        rounds: int,
        noise: NoiseModel,
        detectors: List[Detector],
        mechanisms: List[Mechanism],
        logicals: List[Tuple[str, int]],
    ):
        self.code = code
        self.rounds = rounds
        self.noise = noise
        self.detectors = detectors
        self.mechanisms = mechanisms
        self.logicals = logicals
        self.det_index: Dict[DetKey, int] = {
            (d.sector, d.check, d.t): i for i, d in enumerate(detectors)
        }
        self._incidence: Optional[np.ndarray] = None
        self._incident_mechs: Optional[List[List[int]]] = None
        self._sector_lattices: Dict[str, Dict[Tuple[int, ...], int]] = {}

    @property
    def n_detectors(self) -> int:
        return len(self.detectors)

    @property
    def n_mechanisms(self) -> int:
        return len(self.mechanisms)

    def incidence(self) -> np.ndarray:
        """Dense incidence matrix M (detectors x mechanisms) over GF(2)."""
        if self._incidence is None:
            m = np.zeros((self.n_detectors, self.n_mechanisms), dtype=np.uint8)
            for k, mech in enumerate(self.mechanisms):
                for d in mech.detectors:
                    m[d, k] = 1
            self._incidence = m
        return self._incidence

    def incident_mechanisms(self, detector: int) -> List[int]:
        if self._incident_mechs is None:
            table: List[List[int]] = [[] for _ in range(self.n_detectors)]
            for k, mech in enumerate(self.mechanisms):
                for d in mech.detectors:
                    table[d].append(k)
            self._incident_mechs = table
        return self._incident_mechs[detector]

    def sector_lattice(self, sector: str) -> Mapping[Tuple[int, ...], int]:
        """Read-only {coords: detector index} of the detectors of one sector."""
        if sector not in self._sector_lattices:
            self._sector_lattices[sector] = {
                d.coords: i for i, d in enumerate(self.detectors) if d.sector == sector
            }
        return MappingProxyType(self._sector_lattices[sector])

    def region_mechanisms(self, region: Sequence[int]) -> List[int]:
        """Mechanisms incident to any detector in the region, sorted."""
        seen = set()
        for d in region:
            seen.update(self.incident_mechanisms(d))
        return sorted(seen)

    def mechanism_probs(self) -> np.ndarray:
        return np.array([m.p for m in self.mechanisms], dtype=np.float64)

    def logical_action(self) -> np.ndarray:
        """Binary matrix: rows = protected logical bits, columns = mechanisms."""
        act = np.zeros((len(self.logicals), self.n_mechanisms), dtype=np.uint8)
        for k, mech in enumerate(self.mechanisms):
            for l in mech.logical_flips:
                act[l, k] = 1
        return act

    def to_text(self) -> str:
        lines = []
        for mech in self.mechanisms:
            loc = f"{mech.sector}{mech.index}" if mech.kind == "readout" else f"q{mech.index}"
            dets = " ".join(f"D{d}" for d in mech.detectors)
            logs = " ".join(f"L{l}" for l in mech.logical_flips)
            lines.append(f"{mech.p:.12g} {mech.kind} {loc} t{mech.time} {dets} {logs}".rstrip())
        return "\n".join(lines) + "\n"

    def model_hash(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()[:16]


def build_detector_model(code: CssCode, rounds: int, noise: NoiseModel) -> DetectorModel:
    """Build the detector error model of a T-round extraction circuit.

    Mechanisms with zero probability are omitted; the appended perfect round
    carries no mechanisms of any kind.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    T = rounds

    detectors: List[Detector] = []
    for sector, n_checks, coords in (
        ("z", code.n_z_checks, code.z_check_coords),
        ("x", code.n_x_checks, code.x_check_coords),
    ):
        for c in range(n_checks):
            for t in range(T + 1):
                detectors.append(Detector(sector, c, t, (*coords[c], t)))
    det_index = {(d.sector, d.check, d.t): i for i, d in enumerate(detectors)}

    # Protected logical bits: Z-logicals always; X-logicals only when Z errors
    # are detectable at all (the code has X-checks).
    logicals: List[Tuple[str, int]] = [("z", j) for j in range(code.z_logicals.shape[0])]
    if code.n_x_checks > 0:
        logicals += [("x", j) for j in range(code.x_logicals.shape[0])]
    logical_pos = {lab: i for i, lab in enumerate(logicals)}

    z_of_qubit: List[List[int]] = [[] for _ in range(code.n_qubits)]
    for c in range(code.n_z_checks):
        for i in code.check_support("z", c):
            z_of_qubit[i].append(c)
    x_of_qubit: List[List[int]] = [[] for _ in range(code.n_qubits)]
    for b in range(code.n_x_checks):
        for i in code.check_support("x", b):
            x_of_qubit[i].append(b)

    mechanisms: List[Mechanism] = []
    if noise.p_x > 0:
        for t in range(T):
            for i in range(code.n_qubits):
                dets = tuple(det_index[("z", c, t)] for c in z_of_qubit[i])
                flips = tuple(
                    logical_pos[("z", j)]
                    for j in range(code.z_logicals.shape[0])
                    if code.z_logicals[j, i]
                )
                mechanisms.append(Mechanism("data_x", "", i, t, noise.p_x, dets, flips))
    if noise.p_z > 0:
        for t in range(T):
            for i in range(code.n_qubits):
                dets = tuple(det_index[("x", b, t + 1)] for b in x_of_qubit[i])
                flips = tuple(
                    logical_pos[("x", j)]
                    for j in range(code.x_logicals.shape[0])
                    if ("x", j) in logical_pos and code.x_logicals[j, i]
                )
                mechanisms.append(Mechanism("data_z", "", i, t, noise.p_z, dets, flips))
    if noise.q > 0:
        for sector, n_checks in (("z", code.n_z_checks), ("x", code.n_x_checks)):
            for r in range(1, T + 1):
                for c in range(n_checks):
                    dets = (det_index[(sector, c, r - 1)], det_index[(sector, c, r)])
                    mechanisms.append(Mechanism("readout", sector, c, r, noise.q, dets, ()))

    return DetectorModel(code, T, noise, detectors, mechanisms, logicals)


def detector_flip_probability(model: DetectorModel, detector: int) -> float:
    """Probability the detector reads 1 under independent mechanisms.

    Closed-form odd-flip-count marginal: (1 - prod_k (1 - 2 p_k)) / 2.
    """
    if not (0 <= detector < model.n_detectors):
        raise ValueError(f"detector index {detector} out of range")
    prod = 1.0
    for k in model.incident_mechanisms(detector):
        prod *= 1.0 - 2.0 * model.mechanisms[k].p
    return (1.0 - prod) / 2.0


def syndromes_to_detectors(model: DetectorModel, history: np.ndarray) -> np.ndarray:
    """XOR consecutive syndromes (plus the round-1 reference) into detector bits.

    ``history`` has shape (n_checks, T+1): rows follow Z-checks then X-checks
    in index order; column j holds the measurement of round j+1, with the last
    column the appended perfect round.
    """
    n_checks = model.code.n_z_checks + model.code.n_x_checks
    T = model.rounds
    history = np.asarray(history, dtype=np.uint8)
    if history.shape != (n_checks, T + 1):
        raise ValueError(f"history shape {history.shape} != {(n_checks, T + 1)}")
    out = np.zeros(model.n_detectors, dtype=np.uint8)
    for idx, det in enumerate(model.detectors):
        row = det.check if det.sector == "z" else model.code.n_z_checks + det.check
        if det.t == 0:
            out[idx] = history[row, 0]
        else:
            out[idx] = history[row, det.t - 1] ^ history[row, det.t]
    return out


def detectors_from_errors(model: DetectorModel, error_bits: np.ndarray) -> np.ndarray:
    """Detector bits M . e mod 2 for a mechanism indicator vector."""
    e = np.asarray(error_bits, dtype=np.uint8)
    if e.shape != (model.n_mechanisms,):
        raise ValueError("error vector length mismatch")
    return (model.incidence() @ e) % 2


@dataclass(frozen=True)
class Tripartition:
    """Disjoint detector-index sets A, B, C with their separation distance."""

    a: Tuple[int, ...]
    b: Tuple[int, ...]
    c: Tuple[int, ...]
    dist_ac: int
    descriptor: Dict[str, object] = field(default_factory=dict, hash=False, compare=False)

    def __post_init__(self):
        sets = [set(self.a), set(self.b), set(self.c)]
        if sets[0] & sets[1] or sets[0] & sets[2] or sets[1] & sets[2]:
            raise ValueError("tripartition regions must be disjoint")
        if not self.a or not self.c:
            raise ValueError("regions A and C must be nonempty")

    @property
    def all_detectors(self) -> Tuple[int, ...]:
        return tuple(sorted(set(self.a) | set(self.b) | set(self.c)))
