"""Independent brute-force oracles shared across tests.

These deliberately avoid the incidence-matrix machinery in the package:
syndrome histories are simulated event by event and differenced, so the
detector model can be checked against a second, unrelated construction.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from stmarkov.codes import CssCode
from stmarkov.decoder import DecodeResult, InfeasibleSyndrome
from stmarkov.foliation import PauliOp, ResourceState
from stmarkov.sampler import (
    SampleBatch,
    _chunk_generator,
    chunk_bounds,
    stream_key,
)
from stmarkov.spacetime import DetectorModel
from stmarkov.tableau import Tableau


def history_from_errors(
    code: CssCode,
    T: int,
    data_x: Iterable[Tuple[int, int]] = (),
    data_z: Iterable[Tuple[int, int]] = (),
    readout: Iterable[Tuple[str, int, int]] = (),
) -> np.ndarray:
    """Syndrome history (n_checks, T+1) from explicit fault locations.

    data_x/data_z entries are (qubit, interface t) with 0 <= t < T; readout
    entries are (sector, check, round r) with 1 <= r <= T. Z-checks of round r
    are measured at layer r; X-checks of round r at layer r - 1/2, so a data Z
    fault on interface t is seen by X-check rounds >= t + 2.
    """
    data_x = list(data_x)
    data_z = list(data_z)
    readout = set(readout)
    n_checks = code.n_z_checks + code.n_x_checks
    hist = np.zeros((n_checks, T + 1), dtype=np.uint8)
    for c in range(code.n_z_checks):
        sup = set(int(i) for i in code.check_support("z", c))
        for r in range(1, T + 2):
            acc = sum(1 for (i, t) in data_x if i in sup and t < r) % 2
            flip = 1 if r <= T and ("z", c, r) in readout else 0
            hist[c, r - 1] = acc ^ flip
    for b in range(code.n_x_checks):
        sup = set(int(i) for i in code.check_support("x", b))
        for r in range(1, T + 2):
            acc = sum(1 for (i, t) in data_z if i in sup and t <= r - 2) % 2
            flip = 1 if r <= T and ("x", b, r) in readout else 0
            hist[code.n_z_checks + b, r - 1] = acc ^ flip
    return hist


def detectors_from_history(model: DetectorModel, hist: np.ndarray) -> np.ndarray:
    """Difference consecutive rounds by the detector definition."""
    out = np.zeros(model.n_detectors, dtype=np.uint8)
    for idx, det in enumerate(model.detectors):
        row = det.check if det.sector == "z" else model.code.n_z_checks + det.check
        prev = 0 if det.t == 0 else int(hist[row, det.t - 1])
        out[idx] = prev ^ int(hist[row, det.t])
    return out


def mechanism_events(model: DetectorModel, bits: np.ndarray):
    """Split a mechanism indicator vector into oracle event lists."""
    data_x, data_z, readout = [], [], []
    for k in np.flatnonzero(bits):
        m = model.mechanisms[k]
        if m.kind == "data_x":
            data_x.append((m.index, m.time))
        elif m.kind == "data_z":
            data_z.append((m.index, m.time))
        else:
            readout.append((m.sector, m.index, m.time))
    return data_x, data_z, readout


def oracle_detectors(model: DetectorModel, bits: np.ndarray) -> np.ndarray:
    dx, dz, ro = mechanism_events(model, bits)
    hist = history_from_errors(model.code, model.rounds, dx, dz, ro)
    return detectors_from_history(model, hist)


def enumerate_region_distribution(
    model: DetectorModel,
    region: Sequence[int],
    max_mechs: int = 22,
    all_mechanisms: bool = False,
) -> Dict[int, float]:
    """Exact P(detector pattern on region) by direct mechanism enumeration.

    Patterns are packed little-endian in region order. Independent of the
    package's entropy module (plain itertools loop). With ``all_mechanisms``
    every mechanism is enumerated, not just region-incident ones, which
    checks the locality restriction itself.
    """
    mechs = (
        list(range(model.n_mechanisms)) if all_mechanisms else model.region_mechanisms(region)
    )
    if len(mechs) > max_mechs:
        raise ValueError(f"too many mechanisms for oracle: {len(mechs)}")
    pos = {d: j for j, d in enumerate(region)}
    cols = []
    for k in mechs:
        mask = 0
        for d in model.mechanisms[k].detectors:
            if d in pos:
                mask |= 1 << pos[d]
        cols.append(mask)
    probs = [model.mechanisms[k].p for k in mechs]
    dist: Dict[int, float] = {}
    for assignment in itertools.product((0, 1), repeat=len(mechs)):
        pattern = 0
        pr = 1.0
        for bit, mask, p in zip(assignment, cols, probs):
            if bit:
                pattern ^= mask
                pr *= p
            else:
                pr *= 1.0 - p
        dist[pattern] = dist.get(pattern, 0.0) + pr
    return dist


def entropy_of_dist(dist: Dict[int, float]) -> float:
    ps = np.array([p for p in dist.values() if p > 0.0])
    return float(-(ps * np.log2(ps)).sum())


def _plugin_entropy_bits(counts: np.ndarray, n: int, width: int, correction: bool) -> float:
    c = counts[counts > 0].astype(np.float64)
    p = c / n
    h = float(-(p * np.log2(p)).sum())
    if correction:
        h += (c.size - 1) / (2.0 * n * np.log(2.0))
    return min(max(h, 0.0), float(width))


def reference_table_entropies(table: np.ndarray, width: int, correction: bool) -> np.ndarray:
    """``stmarkov.entropy._table_entropies`` as one plug-in entropy per row, kept as written.

    The full sample, then the sample with each chunk left out, each counted
    and summed on its own. The vectorised pass must give the same bits.
    """

    def entropy_counts(counts: np.ndarray, n: int) -> float:
        if n == 0:
            return 0.0
        c = counts[counts > 0].astype(np.float64)
        p = c / n
        h = float(-(p * np.log2(p)).sum())
        if correction:
            h += (c.size - 1) / (2.0 * n * math.log(2.0))
        return min(max(h, 0.0), float(width))

    totals = table.sum(axis=1)
    sizes = table.sum(axis=0)
    n = int(sizes.sum())
    return np.array(
        [entropy_counts(totals, n)]
        + [entropy_counts(totals - table[:, i], n - int(sizes[i])) for i in range(table.shape[1])]
    )


def four_histogram_cmi(batch, tri, correction: bool = True):
    """Sampled CMI of one tripartition from four separate histograms.

    Histograms AB, BC, B and ABC each with ``np.unique`` over their own packed
    patterns, one count column per chunk. Returns the CMI, its
    leave-one-chunk-out values and the ABC support.
    """
    n = batch.n_samples
    n_chunks = len(batch.chunk_bounds) - 1
    pos = {d: j for j, d in enumerate(batch.region)}
    region = sorted(set(tri.a) | set(tri.b) | set(tri.c))
    subsets = [
        sorted(set(tri.a) | set(tri.b)),
        sorted(set(tri.b) | set(tri.c)),
        sorted(tri.b),
        region,
    ]
    full, loo = [], []
    support = 0
    for sub in subsets:
        if not sub:
            full.append(0.0)
            loo.append(np.zeros(n_chunks))
            continue
        patterns = np.zeros(n, dtype=np.uint64)
        for j, d in enumerate(sub):
            bits = np.unpackbits(batch.rows[pos[d]], bitorder="little", count=n)
            patterns |= bits.astype(np.uint64) << np.uint64(j)
        cols = []
        for i in range(n_chunks):
            cols.append(patterns[batch.chunk_bounds[i]:batch.chunk_bounds[i + 1]])
        values, totals = np.unique(patterns, return_counts=True)
        table = np.zeros((values.size, n_chunks), dtype=np.int64)
        for i, col in enumerate(cols):
            v, c = np.unique(col, return_counts=True)
            table[np.searchsorted(values, v), i] = c
        full.append(_plugin_entropy_bits(totals, n, len(sub), correction))
        loo.append(np.array([
            _plugin_entropy_bits(totals - table[:, i], n - cols[i].size, len(sub), correction)
            for i in range(n_chunks)
        ]))
        support = values.size
    value = full[0] + full[1] - full[2] - full[3]
    return value, loo[0] + loo[1] - loo[2] - loo[3], support


# -- serial sampler and per-bit patterns ---------------------------------------
#
# ``stmarkov.sampler.sample_batch`` before its chunks were drawn on threads,
# and ``subset_patterns`` before it read packed bytes, kept as written. The
# threaded sampler and the byte-table patterns must give the same arrays.


def reference_skip_draws(gen: np.random.Generator, m: int, count: int) -> None:
    """Move the stream past ``count`` mechanisms' draws of m values each, one call per mechanism."""
    for _ in range(count):
        gen.bit_generator.random_raw(m)


def serial_sample_batch(
    model: DetectorModel,
    region: Sequence[int],
    n: int,
    seed: int,
    stream: str = "sampling",
    n_chunks: int = 32,
    draw_region: Optional[Sequence[int]] = None,
) -> SampleBatch:
    region = tuple(region)
    if not region:
        raise ValueError("region must be nonempty")
    if n < 1:
        raise ValueError("need at least one sample")
    draw_region = region if draw_region is None else tuple(draw_region)
    if not set(region) <= set(draw_region):
        raise ValueError("region must lie inside the draw region")
    pos = {d: j for j, d in enumerate(region)}
    draws: List[Tuple[float, List[int], int]] = []
    skipped = 0
    for k in model.region_mechanisms(draw_region):
        mech = model.mechanisms[k]
        rows = [pos[d] for d in mech.detectors if d in pos]
        if rows:
            draws.append((mech.p, rows, skipped))
            skipped = 0
        else:
            skipped += 1
    key = stream_key(seed, stream)
    bounds = chunk_bounds(n, n_chunks)
    packed = np.zeros((len(region), (n + 7) // 8), dtype=np.uint8)
    for c in range(len(bounds) - 1):
        lo, hi = bounds[c], bounds[c + 1]
        if hi == lo:
            continue
        gen = _chunk_generator(key, c)
        m = hi - lo
        acc = np.zeros((len(region), m), dtype=np.uint8)
        for p, rows, skipped in draws:
            if skipped:
                reference_skip_draws(gen, m, skipped)
            bits = (gen.random(m) < p).astype(np.uint8)
            for j in rows:
                acc[j] ^= bits
        span = slice(lo // 8, lo // 8 + (m + 7) // 8)
        packed[:, span] = np.packbits(acc, axis=1, bitorder="little")
    return SampleBatch(
        region=region,
        n_samples=n,
        rows=packed,
        chunk_bounds=bounds,
        seed=seed,
        stream=stream,
    )


def per_bit_subset_patterns(batch: SampleBatch, sub_region: Sequence[int]) -> np.ndarray:
    pos = {d: j for j, d in enumerate(batch.region)}
    out = np.zeros(batch.n_samples, dtype=np.uint64)
    for j, d in enumerate(sub_region):
        if d not in pos:
            raise ValueError(f"detector {d} not in batch region")
        bits = batch.row_bits(pos[d]).astype(np.uint64)
        out |= bits << np.uint64(j)
    return out


def repeat_chunk_table(patterns: np.ndarray, bounds: Sequence[int], width: int):
    """``stmarkov.entropy._chunk_table`` as one bincount over (row, chunk id) pairs."""
    sizes = np.diff(bounds)
    n_chunks = sizes.size
    chunk_id = np.repeat(np.arange(n_chunks, dtype=np.int64), sizes)
    if (1 << width) * n_chunks <= patterns.size:
        values, row, n_rows = None, patterns.astype(np.int64), 1 << width
    else:
        values, row = np.unique(patterns, return_inverse=True)
        n_rows = values.size
    table = np.bincount(row * n_chunks + chunk_id, minlength=n_rows * n_chunks)
    return table.reshape(n_rows, n_chunks), values


# -- reference union-find decoder ----------------------------------------------
#
# The per-shot union-find decoder that ``stmarkov.decoder.decode`` replaced,
# kept as written (its graph is cached under its own attribute name). The
# batched kernel must give the same correction on every feasible pattern.

BOUNDARY = -1


class _Graph:
    """Edge list of the decoding graph for one detector model."""

    def __init__(self, model: DetectorModel):
        self.model = model
        self.edges: List[Tuple[int, int, int]] = []  # (u, v, mechanism)
        self.adj: List[List[int]] = [[] for _ in range(model.n_detectors + 1)]
        for k, mech in enumerate(model.mechanisms):
            dets = list(mech.detectors)
            if not dets:
                continue
            if len(dets) == 1:
                u, v = dets[0], BOUNDARY
            else:
                u, v = dets
            e = len(self.edges)
            self.edges.append((u, v, k))
            self.adj[u].append(e)
            self.adj[v if v != BOUNDARY else model.n_detectors].append(e)

    def other(self, e: int, node: int) -> int:
        u, v, _ = self.edges[e]
        return v if node == u else u


def _graph_for(model: DetectorModel) -> _Graph:
    graph = getattr(model, "_reference_graph", None)
    if graph is None:
        graph = _Graph(model)
        model._reference_graph = graph
    return graph


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        root = a
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[a] != root:
            self.parent[a], a = root, self.parent[a]
        return root

    def union(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if rb < ra:  # lowest-index root wins: deterministic tie-breaking
            ra, rb = rb, ra
        self.parent[rb] = ra
        return ra


def reference_decode(model: DetectorModel, detector_bits: np.ndarray) -> DecodeResult:
    """Union-find decode of one detector pattern.

    Returns a correction whose detector image equals the input pattern and
    its predicted logical action.
    """
    bits = np.asarray(detector_bits, dtype=np.uint8)
    if bits.shape != (model.n_detectors,):
        raise ValueError("detector pattern length mismatch")
    graph = _graph_for(model)
    fired = [int(i) for i in np.flatnonzero(bits)]
    if not fired:
        return DecodeResult([], np.zeros(len(model.logicals), dtype=np.uint8))

    n = model.n_detectors
    bnode = n  # index used for the virtual boundary in adjacency
    uf = _UnionFind(n + 1)
    parity = bits.astype(np.int8).tolist() + [0]
    has_boundary = [False] * (n + 1)
    has_boundary[bnode] = True
    growth = [0] * len(graph.edges)
    grown: List[int] = []
    # Clusters start as the fired detectors; grow half-edges around odd,
    # non-boundary clusters, merging through the union-find until none remain.
    in_cluster = [False] * (n + 1)
    fringe: Dict[int, List[int]] = {}
    for v in fired:
        in_cluster[v] = True
        fringe[v] = list(graph.adj[v])

    def absorb(root: int, node: int) -> None:
        if not in_cluster[node]:
            in_cluster[node] = True
            uf.parent[uf.find(node)] = uf.find(root)
            fringe[uf.find(root)].extend(
                e for e in graph.adj[node] if growth[e] < 2
            )

    for _ in range(4 * (len(graph.edges) + 1)):
        odd = sorted(r for r in fringe if parity[r] % 2 == 1 and not has_boundary[r])
        if not odd:
            break
        newly_full: List[int] = []
        progressed = False
        for r in odd:
            keep: List[int] = []
            for e in fringe[r]:
                if growth[e] >= 2:
                    continue
                growth[e] += 1
                progressed = True
                if growth[e] == 2:
                    newly_full.append(e)
                else:
                    keep.append(e)
            fringe[r] = keep
        if not progressed:
            raise InfeasibleSyndrome("odd cluster cannot grow; pattern outside image")
        for e in sorted(newly_full):
            u, v, _ = graph.edges[e]
            vu = v if v != BOUNDARY else bnode
            grown.append(e)
            ru = uf.find(u)
            if not in_cluster[u]:
                # u outside any cluster: attach it to vu's cluster.
                absorb(uf.find(vu), u)
                continue
            if not in_cluster[vu] and vu != bnode:
                absorb(ru, vu)
                continue
            rv = uf.find(vu)
            if vu == bnode:
                has_boundary[ru] = True
                continue
            if ru == rv:
                continue
            merged = uf.union(ru, rv)
            other = rv if merged == ru else ru
            parity[merged] += parity[other]
            has_boundary[merged] = has_boundary[merged] or has_boundary[other]
            merged_fringe = fringe.pop(merged, [])
            merged_fringe.extend(fringe.pop(other, []))
            fringe[merged] = merged_fringe
    else:
        raise InfeasibleSyndrome("cluster growth did not converge")

    # Peel a spanning forest of the grown edges.
    correction: List[int] = []
    residual = bits.copy()
    adj_grown: Dict[int, List[int]] = {}
    for e in grown:
        u, v, _ = graph.edges[e]
        vu = v if v != BOUNDARY else bnode
        adj_grown.setdefault(u, []).append(e)
        adj_grown.setdefault(vu, []).append(e)
    visited = [False] * (n + 1)
    for root in sorted(adj_grown):
        if visited[root]:
            continue
        # BFS spanning tree, then peel leaves upward.
        order = [root]
        visited[root] = True
        tree_edge: Dict[int, int] = {}
        parent: Dict[int, int] = {root: root}
        head = 0
        while head < len(order):
            node = order[head]
            head += 1
            for e in sorted(adj_grown.get(node, [])):
                u, v, _ = graph.edges[e]
                vu = v if v != BOUNDARY else bnode
                nxt = vu if node == u else u
                if not visited[nxt]:
                    visited[nxt] = True
                    parent[nxt] = node
                    tree_edge[nxt] = e
                    order.append(nxt)
        flip = residual.copy()
        for node in reversed(order):
            if node == root:
                continue
            lit = node != bnode and flip[node] == 1
            if lit:
                e = tree_edge[node]
                correction.append(graph.edges[e][2])
                flip[node] ^= 1
                par = parent[node]
                if par != bnode:
                    flip[par] ^= 1
        if root != bnode and flip[root] == 1:
            raise InfeasibleSyndrome("residual parity at cluster root")
        for node in order:
            if node != bnode:
                residual[node] = flip[node]

    if np.any(residual):
        raise InfeasibleSyndrome("correction does not reproduce the pattern")

    flips = np.zeros(len(model.logicals), dtype=np.uint8)
    for k in correction:
        for l in model.mechanisms[k].logical_flips:
            flips[l] ^= 1
    return DecodeResult(sorted(correction), flips)


# -- tripartition separation ---------------------------------------------------


def all_mechanism_validate(model: DetectorModel, tri) -> None:
    """``stmarkov.markov.validate_tripartition`` scanning every mechanism of the model.

    Raises ValueError naming the first mechanism (in mechanism order) that
    flips a detector of A and one of C.
    """
    if tri.dist_ac >= 2:
        a_set, c_set = set(tri.a), set(tri.c)
        for mech in model.mechanisms:
            dets = set(mech.detectors)
            if dets & a_set and dets & c_set:
                raise ValueError(f"mechanism {mech} spans A and C")


# -- tableau measurement -------------------------------------------------------


class ReferenceTableau(Tableau):
    """``stmarkov.tableau.Tableau`` with its CZ gate and measurement path as first written.

    CZ is the composition H(b) CNOT(a, b) H(b). Product phases come from a
    16-entry lookup table of the exponent of i per qubit (``_g``),
    deterministic outcomes from a Python loop over the selected stabilizer
    rows, and every measurement builds its operator's x/z masks.
    """

    def cnot(self, a: int, b: int) -> None:
        self.r ^= self.x[:, a] & self.z[:, b] & (self.x[:, b] ^ self.z[:, a] ^ 1)
        self.x[:, b] ^= self.x[:, a]
        self.z[:, a] ^= self.z[:, b]

    def cz(self, a: int, b: int) -> None:
        self.h(b)
        self.cnot(a, b)
        self.h(b)

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

    def measure_pauli(self, op: PauliOp, rng=None, force=None) -> int:
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
        rows = [n + int(i) for i in np.flatnonzero(anti[:n])]
        xs, zs, sign = self._product_sign(rows)
        if not (np.array_equal(xs, px) and np.array_equal(zs, pz)):
            raise AssertionError("deterministic measurement product mismatch")
        return sign


def reference_init_graph_state(rs: ResourceState, frame: str = "x") -> ReferenceTableau:
    """``stmarkov.tableau.init_graph_state`` on a ``ReferenceTableau``."""
    tab = ReferenceTableau(rs.n_sites)
    code = rs.code
    layer0 = [rs.site_index[("d", i, 0)] for i in range(code.n_qubits)]
    if frame == "x":
        for q in range(rs.n_sites):
            tab.h(q)
        for c in range(code.n_z_checks):
            sup = [layer0[int(i)] for i in code.check_support("z", c)]
            assert tab.measure_pauli(PauliOp.z(sup), force=0) == 0
    else:
        for q in range(rs.n_sites):
            if q not in set(layer0):
                tab.h(q)
        for b in range(code.n_x_checks):
            sup = [layer0[int(i)] for i in code.check_support("x", b)]
            assert tab.measure_pauli(PauliOp.x(sup), force=0) == 0
    for u, v in rs.cz_edges:
        tab.cz(u, v)
    return tab


def reference_measure_x_all(tab: ReferenceTableau, rs: ResourceState, rng) -> np.ndarray:
    """One ``measure_pauli(PauliOp.x([q]))`` per measured site, in index order."""
    outcomes = np.full(rs.n_sites, -1, dtype=np.int8)
    for q in rs.measured_sites:
        outcomes[q] = tab.measure_pauli(PauliOp.x([q]), rng=rng)
    return outcomes


def reference_evaluate_detectors(outcomes: np.ndarray, cells) -> np.ndarray:
    """XOR of the outcomes over each cell, one cell at a time."""
    bits = np.zeros(len(cells), dtype=np.uint8)
    for k, cell in enumerate(cells):
        vals = outcomes[list(cell)]
        if np.any(vals < 0):
            raise ValueError(f"cell {k} touches an unmeasured site")
        bits[k] = int(vals.sum()) % 2
    return bits
