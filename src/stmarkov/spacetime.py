"""Spacetime detector error model for phenomenological syndrome extraction.

A run is T noisy measurement rounds of every check on a perfectly prepared
code state, followed by one appended noiseless readout round. Detectors XOR
consecutive syndrome measurements; first-round detectors reference the perfect
input, so each check contributes T+1 detectors at times t = 0..T.

Timing convention (fixed by the foliated picture): Z-checks of round r are
measured at layer r, X-checks of round r at layer r - 1/2. Hence a data X
error on the interface between rounds t and t+1 flips Z-sector detectors at
time t, while a data Z error flips X-sector detectors at time t+1.

A model holds its mechanisms and detectors as index arrays
(``MechanismTable``, ``DetectorTable``), filled by index arithmetic rather
than one object per (qubit, round); its lookup tables are read off them.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .codes import CssCode

DetKey = Tuple[str, int, int]  # (sector, check index, detector time)

# Ticks (half layers) by which a sector's checks of round r sit below the
# Z-checks of round r: the timing convention above. Every detector time,
# resource-state site, detector cell, linking stabilizer and frame column
# that depends on the sector reads it from here.
SECTOR_SHIFT = {"z": 0, "x": 1}


@dataclass(frozen=True)
class NoiseModel:
    """Per-round error rates: data X/Z flips and readout flips.

    All probabilities must lie in [0, 1/2]. The default experiment sets
    p_x = q = p and p_z = 0 (``phenomenological``).
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
    def phenomenological(p: float, p_z: float = 0.0, q: Optional[float] = None) -> "NoiseModel":
        """Data X flips at rate p, Z flips at p_z; the readout rate is q, or p when q is None."""
        return NoiseModel(p_x=p, p_z=p_z, q=p if q is None else q)


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


# The arrays of a table hold each kind and sector as its position here.
KINDS = ("data_x", "data_z", "readout")
SECTORS = ("", "z", "x")
DATA_SECTOR = {"data_x": "z", "data_z": "x"}  # the sector whose checks see each data error
_INDEX = np.int32  # dtype of stored detector, mechanism, qubit and check indices


def _offsets(lengths: np.ndarray) -> np.ndarray:
    """CSR offsets of rows with the given lengths."""
    ptr = np.zeros(lengths.size + 1, dtype=np.intp)
    np.cumsum(lengths, out=ptr[1:])
    return ptr


def _csr_dense(ptr: np.ndarray, cols: np.ndarray, n_values: int) -> np.ndarray:
    """Dense (n_values x rows) 0/1 uint8 matrix: column i marks the values CSR row i lists."""
    m = np.zeros((n_values, ptr.size - 1), dtype=np.uint8)
    m[cols, np.repeat(np.arange(ptr.size - 1), np.diff(ptr))] = 1
    return m


def _csr_rows(ptr: np.ndarray, cols: np.ndarray, rows) -> Tuple[np.ndarray, np.ndarray]:
    """(offsets, values) of the given rows of a CSR (ptr, cols), in their order."""
    rows = np.asarray(rows, dtype=np.intp)
    starts = ptr[rows]
    lengths = ptr[rows + 1] - starts
    offsets = _offsets(lengths)
    return offsets, cols[np.arange(offsets[-1]) + np.repeat(starts - offsets[:-1], lengths)]


@dataclass(frozen=True, eq=False)
class MechanismTable:
    """Error mechanisms as index arrays; item k is an equal ``Mechanism``, built on access.

    Mechanism k has kind ``KINDS[kind[k]]``, sector ``SECTORS[sector[k]]``,
    ``index[k]``, ``time[k]`` and ``p[k]``. It flips the detectors
    ``det_cols[det_ptr[k]:det_ptr[k + 1]]`` and the logical bits
    ``flip_cols[flip_ptr[k]:flip_ptr[k + 1]]``.
    """

    p: np.ndarray
    kind: np.ndarray
    sector: np.ndarray
    index: np.ndarray
    time: np.ndarray
    det_ptr: np.ndarray
    det_cols: np.ndarray
    flip_ptr: np.ndarray
    flip_cols: np.ndarray

    def __len__(self) -> int:
        return self.p.size

    def __getitem__(self, k: int) -> Mechanism:
        k = range(len(self))[k]  # a list's negative indices, and its IndexError that ends a loop
        dets = self.det_cols[self.det_ptr[k] : self.det_ptr[k + 1]]
        flips = self.flip_cols[self.flip_ptr[k] : self.flip_ptr[k + 1]]
        return Mechanism(
            KINDS[self.kind[k]], SECTORS[self.sector[k]], int(self.index[k]),
            int(self.time[k]), float(self.p[k]), tuple(dets.tolist()), tuple(flips.tolist()),
        )


@dataclass(frozen=True, eq=False)
class DetectorTable:
    """Detectors as index arrays; item i is an equal ``Detector``, built on access.

    Detector i has sector ``SECTORS[sector[i]]``, ``check[i]``, ``t[i]`` and
    the coordinates ``coords[i]`` (the check's space coordinates, then t).
    """

    sector: np.ndarray
    check: np.ndarray
    t: np.ndarray
    coords: np.ndarray

    def __len__(self) -> int:
        return self.t.size

    def __getitem__(self, i: int) -> Detector:
        i = range(len(self))[i]
        return Detector(
            SECTORS[self.sector[i]], int(self.check[i]), int(self.t[i]),
            tuple(self.coords[i].tolist()),
        )


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
    """Error mechanisms, their probabilities, and detector incidence.

    ``mechanisms`` and ``detectors`` are index-array tables; readers take
    mechanism footprints through ``footprints``.
    """

    def __init__(
        self,
        code: CssCode,
        rounds: int,
        noise: NoiseModel,
        detectors: DetectorTable,
        mechanisms: MechanismTable,
        logicals: List[Tuple[str, int]],
    ):
        self.code = code
        self.rounds = rounds
        self.noise = noise
        self.detectors = detectors
        self.mechanisms = mechanisms
        self.logicals = logicals
        self._incidence: Optional[np.ndarray] = None
        # Each detector's mechanisms, ascending, as CSR (offsets, mechanisms).
        self._incident: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._sector_lattices: Dict[str, Dict[Tuple[int, ...], int]] = {}

    @property
    def n_detectors(self) -> int:
        return len(self.detectors)

    @property
    def n_mechanisms(self) -> int:
        return len(self.mechanisms)

    @cached_property
    def det_index(self) -> Dict[DetKey, int]:
        d = self.detectors
        sectors = [SECTORS[s] for s in d.sector.tolist()]
        return {key: i for i, key in enumerate(zip(sectors, d.check.tolist(), d.t.tolist()))}

    def footprints(self, mechs: Optional[Sequence[int]] = None) -> Tuple[np.ndarray, np.ndarray]:
        """Detectors flipped by ``mechs`` (default: every mechanism), as CSR.

        Returns (offsets, detectors): the j-th mechanism flips
        ``detectors[offsets[j]:offsets[j + 1]]``.
        """
        m = self.mechanisms
        if mechs is None:
            return m.det_ptr, m.det_cols
        return _csr_rows(m.det_ptr, m.det_cols, mechs)

    def incidence(self) -> np.ndarray:
        """Dense incidence matrix M (detectors x mechanisms) over GF(2)."""
        if self._incidence is None:
            self._incidence = _csr_dense(*self.footprints(), self.n_detectors)
        return self._incidence

    def _incident_table(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._incident is None:
            ptr, dets = self.footprints()
            mech_of = np.repeat(np.arange(self.n_mechanisms, dtype=_INDEX), np.diff(ptr))
            # A stable sort keeps each detector's mechanisms ascending.
            order = np.argsort(dets, kind="stable")
            counts = np.bincount(dets, minlength=self.n_detectors)
            self._incident = (_offsets(counts), mech_of[order])
        return self._incident

    def incident_mechanisms(self, detector: int) -> List[int]:
        ptr, mechs = self._incident_table()
        detector = range(self.n_detectors)[detector]
        return mechs[ptr[detector] : ptr[detector + 1]].tolist()

    def sector_lattice(self, sector: str) -> Mapping[Tuple[int, ...], int]:
        """Read-only {coords: detector index} of the detectors of one sector."""
        if sector not in self._sector_lattices:
            d = self.detectors
            code = SECTORS.index(sector) if sector in SECTORS[1:] else -1
            ids = np.flatnonzero(d.sector == code)
            coords = map(tuple, d.coords[ids].tolist())
            self._sector_lattices[sector] = dict(zip(coords, ids.tolist()))
        return MappingProxyType(self._sector_lattices[sector])

    def checked_region(self, region: Sequence[int]) -> Tuple[int, ...]:
        """``region`` as a tuple of detector indices, each of the model and none repeated."""
        region = tuple(region)
        if not region:
            raise ValueError("region must be nonempty")
        seen = set()
        for d in region:
            if not 0 <= d < self.n_detectors:
                raise ValueError(f"region detector {d} outside 0..{self.n_detectors - 1}")
            if d in seen:
                raise ValueError(f"region repeats detector {d}")
            seen.add(d)
        return region

    def region_mechanisms(self, region: Sequence[int]) -> List[int]:
        """Mechanisms incident to any detector in the region, sorted."""
        ptr, mechs = self._incident_table()
        hit = np.zeros(self.n_mechanisms, dtype=bool)
        hit[_csr_rows(ptr, mechs, region)[1]] = True
        return np.flatnonzero(hit).tolist()

    def mechanism_probs(self) -> np.ndarray:
        return self.mechanisms.p.copy()

    def logical_action(self) -> np.ndarray:
        """Binary matrix: rows = protected logical bits, columns = mechanisms."""
        m = self.mechanisms
        return _csr_dense(m.flip_ptr, m.flip_cols, len(self.logicals))

    def to_text(self) -> str:
        m = self.mechanisms
        p_text = {p: f"{p:.12g}" for p in set(m.p.tolist())}
        dets = [f"D{d}" for d in m.det_cols.tolist()]
        logs = [f"L{l}" for l in m.flip_cols.tolist()]
        dptr, fptr = m.det_ptr.tolist(), m.flip_ptr.tolist()
        readout = KINDS.index("readout")
        lines = []
        for k, (p, kind, sector, index, time) in enumerate(
            zip(m.p.tolist(), m.kind.tolist(), m.sector.tolist(), m.index.tolist(), m.time.tolist())
        ):
            loc = f"{SECTORS[sector]}{index}" if kind == readout else f"q{index}"
            d = " ".join(dets[dptr[k] : dptr[k + 1]])
            l = " ".join(logs[fptr[k] : fptr[k + 1]])
            lines.append(f"{p_text[p]} {KINDS[kind]} {loc} t{time} {d} {l}".rstrip())
        return "\n".join(lines) + "\n"

    def model_hash(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()[:16]


def _per_interface(mat: np.ndarray, shifts: np.ndarray, scale: int = 1):
    """Row lengths and values of a CSR over qubits, once per interface, interface-major.

    Qubit i's row lists the rows r of ``mat`` with ``mat[r, i]`` set, ascending,
    each as ``r * scale``; the copy for interface t adds ``shifts[t]``.
    """
    qubit, row = np.nonzero(mat.T)
    lengths = np.bincount(qubit, minlength=mat.shape[1])
    return np.tile(lengths, shifts.size), (row * scale + shifts[:, None]).ravel()


def build_detector_model(code: CssCode, rounds: int, noise: NoiseModel) -> DetectorModel:
    """Build the detector error model of a T-round extraction circuit.

    Mechanisms with zero probability are omitted; the appended perfect round
    carries no mechanisms of any kind. Detector (sector, c, t) has index
    base(sector) + c (T+1) + t, Z sector first. Mechanisms come data X
    (interface by interface, qubit by qubit), then data Z, then readout
    (Z sector then X, round by round, check by check).
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    T = rounds
    per_check = T + 1
    nz, nx, n = code.n_z_checks, code.n_x_checks, code.n_qubits
    det_base = {"z": 0, "x": nz * per_check}

    space = np.array([*code.z_check_coords, *code.x_check_coords], dtype=_INDEX)
    t = np.tile(np.arange(per_check, dtype=_INDEX), nz + nx)
    detectors = DetectorTable(
        sector=np.repeat(np.array([SECTORS.index("z"), SECTORS.index("x")], dtype=np.int8),
                         [nz * per_check, nx * per_check]),
        check=np.repeat(np.r_[np.arange(nz), np.arange(nx)].astype(_INDEX), per_check),
        t=t,
        coords=np.column_stack([
            np.repeat(space.reshape(nz + nx, len(code.space_shape)), per_check, axis=0), t
        ]),
    )

    # Protected logical bits: Z-logicals always; X-logicals only when Z errors
    # are detectable at all (the code has X-checks).
    protected = {"z": code.z_logicals, "x": code.x_logicals if nx > 0 else code.x_logicals[:0]}
    logicals = [(sector, j) for sector, logs in protected.items() for j in range(len(logs))]
    bit_base = {"z": 0, "x": len(protected["z"])}

    # The mechanisms come in blocks, one per kind (and per sector for
    # readout); footprints and logical flips as (row lengths, values).
    blocks: List[Dict[str, np.ndarray]] = []

    def add(kind, sector, p, index, time, dets, flips):
        size = index.size
        blocks.append({
            "p": np.full(size, p), "kind": np.full(size, KINDS.index(kind), dtype=np.int8),
            "sector": np.full(size, SECTORS.index(sector), dtype=np.int8),
            "index": index.astype(_INDEX), "time": time.astype(_INDEX),
            "det_len": dets[0], "det": dets[1].astype(_INDEX), "flip_len": flips[0],
            "flip": flips[1].astype(_INDEX),
        })

    interfaces = np.arange(T)
    qubits, times = np.tile(np.arange(n), T), np.repeat(interfaces, n)
    for kind, sector in DATA_SECTOR.items():
        p = {"data_x": noise.p_x, "data_z": noise.p_z}[kind]
        if p > 0:
            # Qubit i at interface t flips detector (sector, c, t + shift) of each
            # of the sector's checks c on it, and the sector's logical bits on it.
            shifts = det_base[sector] + SECTOR_SHIFT[sector] + interfaces
            dets = _per_interface(code.checks(sector), shifts, scale=per_check)
            flips = _per_interface(protected[sector], bit_base[sector] + 0 * interfaces)
            add(kind, "", p, qubits, times, dets, flips)
    if noise.q > 0:
        for sector, base in det_base.items():
            # Round r flips (c, r - 1) and (c, r) of each check c.
            nc = len(code.checks(sector))
            first = base + np.arange(nc) * per_check + interfaces[:, None]
            dets = (np.full(T * nc, 2), np.stack([first, first + 1], axis=-1).ravel())
            flips = (np.zeros(T * nc, dtype=np.intp), interfaces[:0])
            add("readout", sector, noise.q, np.tile(np.arange(nc), T),
                np.repeat(interfaces + 1, nc), dets, flips)

    def column(name, dtype=_INDEX):
        parts = [b.pop(name) for b in blocks]  # each block's part is freed once joined
        return np.concatenate([np.zeros(0, dtype), *parts]).astype(dtype, copy=False)

    mechanisms = MechanismTable(
        p=column("p", np.float64),
        kind=column("kind", np.int8),
        sector=column("sector", np.int8),
        index=column("index"),
        time=column("time"),
        det_ptr=_offsets(column("det_len", np.intp)),
        det_cols=column("det"),
        flip_ptr=_offsets(column("flip_len", np.intp)),
        flip_cols=column("flip"),
    )
    return DetectorModel(code, T, noise, detectors, mechanisms, logicals)


def detector_flip_probability(model: DetectorModel, detector: int) -> float:
    """Probability the detector reads 1 under independent mechanisms.

    Closed-form odd-flip-count marginal: (1 - prod_k (1 - 2 p_k)) / 2.
    """
    if not (0 <= detector < model.n_detectors):
        raise ValueError(f"detector index {detector} out of range")
    p = model.mechanism_probs()[model.incident_mechanisms(detector)]
    return (1.0 - math.prod((1.0 - 2.0 * p).tolist())) / 2.0


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
