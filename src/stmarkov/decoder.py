"""Union-find matching decoder on the detector graph, run on a slice of shots at once.

Mechanisms that flip two detectors are the edges of the decoding graph, and
mechanisms that flip none are left out; a mechanism that flips any other
number of detectors is rejected when the graph is built. Decoding is the
union-find decoder of Delfosse and Nickerson (arXiv:1709.06218), applied to
every shot of a slice together with numpy arrays:

* Clusters are the connected components of fired detectors joined by fully
  grown edges. In each round every node of a cluster holding an odd number
  of fired detectors grows each of its edges by half an edge, so an edge
  grows by the number of its ends that lie in odd clusters (at most to
  full). Rounds repeat until no cluster is odd; an odd cluster that cannot
  grow means the pattern is outside the image of the incidence matrix.
* Each cluster's breadth-first spanning tree over the full edges is grown
  from its lowest detector. A node's parent is the first node in queue
  order with a full edge to it, through that parent's lowest-index such
  edge. A tree edge belongs to the correction when the subtree below it
  holds an odd number of fired detectors. The search reads one arc table
  per slice, built once: the node across each full edge of every node.

The correction's detector image is the observed pattern. Ties are broken by
index throughout, so decoding is deterministic and a shot's correction does
not depend on the other shots of its slice.

One kernel, ``_correction_edges``, turns a slice of patterns into the
(shot, edge) pairs of its corrections, and it has two readers: ``decode``
builds a ``DecodeResult`` per shot from them, and ``logical_error_rate``
reads only the predicted logical flips, the XOR of the edges' logical
actions per shot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple, Union

import numpy as np

from .sampler import stream_key, _chunk_generator, _word_threshold
from .spacetime import DetectorModel

# Shots decoded together by one kernel call; logical_error_rate draws and
# forms syndromes in slices of the same size.
SLICE = 64


class InfeasibleSyndrome(ValueError):
    """Detector pattern outside the image of the incidence matrix."""


@dataclass
class DecodeResult:
    correction: List[int]  # mechanism indices
    logical_flips: np.ndarray  # predicted flip per protected logical bit


def _padded(group: np.ndarray, value: np.ndarray, n_groups: int, pad: int) -> np.ndarray:
    """Table whose row g lists, in order, the values of the pairs in group g.

    Rows are right-padded with ``pad`` to the longest one.
    """
    order = np.argsort(group, kind="stable")
    group, value = group[order], value[order]
    count = np.bincount(group, minlength=n_groups)
    table = np.full((n_groups, count.max(initial=0)), pad, dtype=np.intp)
    table[group, np.arange(group.size) - np.repeat(np.cumsum(count) - count, count)] = value
    return table


class _Graph:
    """Edge arrays of the decoding graph and the XOR tables of one detector model."""

    def __init__(self, model: DetectorModel):
        offsets, dets = model.footprints()
        sizes = np.diff(offsets)
        bad = np.flatnonzero((sizes != 0) & (sizes != 2))
        if bad.size:
            k = int(bad[0])
            mech = model.mechanisms[k]
            raise ValueError(
                f"mechanism {k} ({mech.kind}, index {mech.index}, time {mech.time}) "
                f"flips {sizes[k]} detectors; the decoding graph takes only "
                "mechanisms that flip 0 or 2"
            )
        self.mech = np.flatnonzero(sizes == 2)  # edge -> mechanism
        n_edges = self.mech.size
        ends = dets.astype(np.intp)  # the end pairs of the edges, in order
        self.u, self.v = ends[0::2].copy(), ends[1::2].copy()
        # Each node's edges in index order, padded with the index n_edges, and
        # the node at the other end of each (the node itself for a pad).
        n = model.n_detectors
        self.node_edges = _padded(ends, np.arange(2 * n_edges) // 2, n, n_edges)
        ends_sum = np.append(self.u + self.v, 0)
        nodes = np.arange(n)[:, None]
        self.node_other = np.where(
            self.node_edges < n_edges, ends_sum[self.node_edges] - nodes, nodes
        )
        act = model.logical_action()
        self.edge_action = act.T[self.mech]
        # Rows of mechanism indices whose XOR is a detector bit or a logical
        # bit; the pad indexes an error column that is always clear.
        self.node_mechs = np.append(self.mech, model.n_mechanisms)[self.node_edges]
        logical, flipper = np.nonzero(act)
        self.logical_mechs = _padded(logical, flipper, len(model.logicals), model.n_mechanisms)

    def syndromes(self, errors: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Detector bits and true logical flips of (shots, mechanisms + 1) draws.

        The last column of ``errors`` is the clear pad column.
        """
        return (
            np.logical_xor.reduce(errors[:, self.node_mechs], axis=2),
            np.logical_xor.reduce(errors[:, self.logical_mechs], axis=2),
        )


def _graph_for(model: DetectorModel) -> _Graph:
    graph = getattr(model, "_decoder_graph", None)
    if graph is None:
        graph = _Graph(model)
        model._decoder_graph = graph
    return graph


def _union(label: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Join the components of node pairs (a, b) in ``label``, in place.

    ``label`` maps every node to the lowest node of its component and stays
    that way. The roots of the pairs are joined on their own: the higher root
    of each pair is hooked onto the lower one, and pointers are followed up
    to the roots, until every pair shares a root. Then every node's label
    moves to its new root.
    """
    ra, rb = label[a], label[b]
    up = np.arange(label.size)
    hooked = np.zeros(label.size, dtype=bool)
    while True:
        apart = ra != rb
        if not apart.any():
            break
        ra, rb = ra[apart], rb[apart]
        high = np.maximum(ra, rb)
        np.minimum.at(up, high, np.minimum(ra, rb))
        hooked[high] = True
        jump = np.flatnonzero(hooked)
        while jump.size:
            top = up[up[jump]]
            moved = top != up[jump]
            up[jump] = top
            jump = jump[moved]
        ra, rb = up[ra], up[rb]
    label[:] = up[label]


def _grow(graph: _Graph, fired: np.ndarray, first_row: int) -> Tuple[np.ndarray, np.ndarray]:
    """Grow the clusters of (shots, nodes) patterns until none is odd.

    Returns the full-edge mask (shots, edges) and the component label of
    each flattened (shot, node) index: the lowest flattened node of its
    component. Each round works on the shots that still hold an odd cluster.
    """
    shots, n = fired.shape
    fired_at = np.flatnonzero(fired)
    label = np.arange(shots * n)
    growth = np.zeros((shots, graph.u.size), dtype=np.int8)
    while True:
        odd_root = np.bincount(label[fired_at], minlength=shots * n).astype(np.int8)
        odd_root &= 1
        odd = odd_root[label].reshape(shots, n)
        rows = np.flatnonzero(odd.any(axis=1))
        if not rows.size:
            return growth == 2, label
        odd, before = np.take(odd, rows, axis=0), np.take(growth, rows, axis=0)
        after = np.minimum(before + odd[:, graph.u] + odd[:, graph.v], 2)
        stuck = ~(after != before).any(axis=1)
        if stuck.any():
            raise InfeasibleSyndrome(
                "odd cluster cannot grow; pattern outside image "
                f"(row {first_row + int(rows[stuck][0])})"
            )
        r, e = np.nonzero((after == 2) & (before != 2))
        growth[rows] = after
        base = rows[r] * n
        _union(label, base + graph.u[e], base + graph.v[e])


def _peel(graph: _Graph, fired: np.ndarray, full: np.ndarray, label: np.ndarray):
    """Correction edges of every shot: (shot, edge) pairs of the peeled forests.

    The breadth-first search is level-synchronous over all shots. Each
    level's nodes are kept in queue order and each node's edges are tried in
    index order, so the arcs out of a level come in the order a first-in,
    first-out queue would try them, and each new node takes the first arc
    that reaches it.

    Each level reads its arcs from one table built per slice: row (shot,
    node) lists, in edge order, the flattened node across each of the
    node's full edges, or the sentinel ``shots * nodes`` (never new) for
    an edge that is not full or a pad.
    """
    shots, n = fired.shape
    size = shots * n
    deg = graph.node_edges.shape[1]
    full = np.concatenate([full, np.zeros((shots, 1), dtype=bool)], axis=1)  # pad edge
    # (node across the arc - sentinel) * full + sentinel, in place.
    reach = (np.arange(shots) * n - size)[:, None, None] + graph.node_other
    reach *= full[:, graph.node_edges]
    reach += size
    reach = reach.reshape(size, deg)
    level = np.flatnonzero((label == np.arange(size)) & (np.bincount(label, minlength=size) > 1))
    new = np.ones(size + 1, dtype=bool)
    new[size] = False
    new[level] = False
    # Position of the first arc to reach a node among its level's arcs. A
    # node is reached in one level only, so the table is never reset.
    first = np.full(size, np.iinfo(np.intp).max)
    children, parents, arcs = [], [], []
    while level.size:
        ends = reach[level]
        arc = np.flatnonzero(new[ends])
        node = ends.ravel()[arc]
        tried = np.arange(node.size)
        np.minimum.at(first, node, tried)
        won = first[node] == tried
        arc = arc[won]
        parents.append(level[arc // deg])
        level = node[won]
        new[level] = False
        children.append(level)
        arcs.append(arc)
    # Deepest level first, each node passes the parity of its subtree up.
    parity = fired.ravel().astype(np.uint8)
    children, parents, arcs = children[::-1], parents[::-1], arcs[::-1]
    for child, parent in zip(children, parents):
        np.bitwise_xor.at(parity, parent, parity[child])
    none = [np.zeros(0, dtype=np.intp)]
    child, parent, arc = (np.concatenate(x or none) for x in (children, parents, arcs))
    odd = parity[child] == 1
    return child[odd] // n, graph.node_edges[parent[odd] % n, arc[odd] % deg]


def _correction_edges(
    graph: _Graph, fired: np.ndarray, first_row: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The decoding kernel: (shot, edge) pairs of the corrections of a slice.

    ``fired`` holds one (shots, nodes) pattern per row; ``first_row`` is the
    row number of its first shot, for error messages.
    """
    full, label = _grow(graph, fired, first_row)
    return _peel(graph, fired, full, label)


def _logical_flips(graph: _Graph, shot: np.ndarray, edge: np.ndarray, shots: int) -> np.ndarray:
    """Predicted flip of each logical bit per shot: the XOR of its edges' actions."""
    flips = np.zeros((shots, graph.edge_action.shape[1]), dtype=np.uint8)
    np.bitwise_xor.at(flips, shot, graph.edge_action[edge])
    return flips


def _decode_rows(graph: _Graph, fired: np.ndarray, first_row: int) -> List[DecodeResult]:
    shot, edge = _correction_edges(graph, fired, first_row)
    mech = graph.mech[edge]
    order = np.lexsort((mech, shot))
    counts = np.bincount(shot, minlength=fired.shape[0])
    corrections = np.split(mech[order], np.cumsum(counts)[:-1])
    flips = _logical_flips(graph, shot, edge, fired.shape[0])
    return [DecodeResult(c.tolist(), f) for c, f in zip(corrections, flips)]


def decode(
    model: DetectorModel, detector_bits: np.ndarray
) -> Union[DecodeResult, List[DecodeResult]]:
    """Union-find decode of detector patterns.

    A 1-D pattern gives one ``DecodeResult``; a 2-D (shots x detectors) array
    gives one per row. Each correction's detector image equals its pattern;
    the result also holds the correction's predicted logical action.
    """
    bits = np.asarray(detector_bits, dtype=np.uint8)
    if bits.ndim not in (1, 2) or bits.shape[-1] != model.n_detectors:
        raise ValueError("detector pattern length mismatch")
    graph = _graph_for(model)
    fired = bits.reshape(-1, model.n_detectors) != 0
    if not fired.any():  # nothing to decode
        results = [
            DecodeResult([], np.zeros(len(model.logicals), dtype=np.uint8)) for _ in fired
        ]
    else:
        results = []
        for lo in range(0, fired.shape[0], SLICE):
            results += _decode_rows(graph, fired[lo : lo + SLICE], lo)
    return results[0] if bits.ndim == 1 else results


def wilson_interval(k: int, n: int) -> Tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if n <= 0:
        return (0.0, 1.0)
    p = k / n
    z = 1.96  # two-sided 95% normal quantile
    z2 = z * z
    denom = 1 + z2 / n
    centre = (p + z2 / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n)) / denom
    return (max(0.0, centre - half), min(1.0, centre + half))


@dataclass
class RatePoint:
    L: int
    T: int
    p: float
    q: float
    shots: int
    logical_errors: int
    rate: float
    ci_low: float
    ci_high: float


def logical_error_rate(model: DetectorModel, shots: int, seed: int) -> RatePoint:
    """Fraction of shots where the decoded correction mis-assigns a logical bit.

    Error patterns are drawn from the model's mechanism probabilities with the
    counter-based stream "decoder", decoded, and compared against ground truth.
    Mechanism k of a shot is in error when its uint64 word of the stream lies
    below ``sampler._word_threshold(p_k)``: exactly when the word's double,
    as ``Generator.random`` makes it, lies below p_k.
    """
    if shots < 1:
        raise ValueError("need at least one shot")
    probs = model.mechanism_probs()
    thresholds = _word_threshold(probs)
    graph = _graph_for(model)
    key = stream_key(seed, "decoder")
    # One column past the mechanisms stays clear: the XOR tables' pad.
    errors = np.zeros((SLICE, probs.size + 1), dtype=bool)
    failures = 0
    chunk = 4096
    for c, start in enumerate(range(0, shots, chunk)):
        m = min(chunk, shots - start)
        bit_gen = _chunk_generator(key, c).bit_generator
        # Consecutive row blocks of one generator continue its stream, so the
        # draws equal those of one (m, mechanisms) block.
        for k in range(0, m, SLICE):
            rows = errors[: min(SLICE, m - k)]
            np.less(bit_gen.random_raw((rows.shape[0], probs.size)), thresholds,
                    out=rows[:, :-1])
            dets, truth = graph.syndromes(rows)
            shot, edge = _correction_edges(graph, dets, start + k)
            flips = _logical_flips(graph, shot, edge, rows.shape[0])
            failures += int(np.count_nonzero((flips != truth).any(axis=1)))
    rate = failures / shots
    lo, hi = wilson_interval(failures, shots)
    code = model.code
    return RatePoint(
        L=code.space_shape[0],
        T=model.rounds,
        p=model.noise.p_x,
        q=model.noise.q,
        shots=shots,
        logical_errors=failures,
        rate=rate,
        ci_low=lo,
        ci_high=hi,
    )


class NoCrossingError(ValueError):
    """Logical-error-rate curves do not bracket a crossing."""


Size = Union[int, Tuple[int, int]]  # a curve's L, or its (L, T)


@dataclass
class ThresholdEstimate:
    p_cross: float
    spread: float
    crossings: List[Tuple[Size, Size, float]]  # (size 1, size 2, crossing)


def threshold_estimate(curves: Dict[Size, List[Tuple[float, float]]]) -> ThresholdEstimate:
    """Pairwise curve-crossing estimate from (p, rate) curves per size.

    A size is L or an (L, T) pair. Uses local linear interpolation of rate
    differences between consecutive grid points; reports the mean crossing
    and the spread across size pairs.
    """
    sizes = sorted(curves)
    if len(sizes) < 2:
        raise NoCrossingError("need at least two sizes")
    crossings: List[Tuple[int, int, float]] = []
    for i in range(len(sizes)):
        for j in range(i + 1, len(sizes)):
            l1, l2 = sizes[i], sizes[j]
            a = dict(curves[l1])
            b = dict(curves[l2])
            ps = sorted(set(a) & set(b))
            if len(ps) < 2:
                continue
            diffs = [a[p] - b[p] for p in ps]
            # A crossing is a sign change between consecutive nonzero rate
            # differences: inside their segment when they are adjacent, else
            # at the middle of the zero differences between them (so a tie at
            # either end of the grid, or one both neighbours leave on the same
            # side, is none). Rate differences vanish deep below threshold and
            # at saturation, so noise can fabricate shallow sign changes
            # there; the genuine crossing is the steepest one.
            nonzero = [k for k, d in enumerate(diffs) if d != 0]
            best = None
            for k, m in zip(nonzero, nonzero[1:]):
                d0, d1 = diffs[k], diffs[m]
                if (d0 < 0) == (d1 < 0):
                    continue
                if m == k + 1:
                    cross = ps[k] + abs(d0) / abs(d1 - d0) * (ps[m] - ps[k])
                    slope = abs(d1 - d0)
                else:
                    cross = (ps[k + 1] + ps[m - 1]) / 2
                    slope = max(abs(d0), abs(d1))
                if best is None or slope > best[0]:
                    best = (slope, cross)
            if best is not None:
                crossings.append((l1, l2, best[1]))
    if not crossings:
        Ls = [s[0] if isinstance(s, tuple) else s for s in sizes]

        def label(size: Size, L: int) -> str:
            # Sizes that share an L are told apart by T.
            return f"L={L}" if Ls.count(L) == 1 else f"L={L} T={size[1]}"

        lines = [
            f"{label(s, L)}: " + ",".join(f"{p:.3f}:{r:.4f}" for p, r in curves[s])
            for s, L in zip(sizes, Ls)
        ]
        raise NoCrossingError("no bracketed crossing between any size pair:\n" + "\n".join(lines))
    values = [c for (_, _, c) in crossings]
    mean = float(np.mean(values))
    spread = float(np.max(values) - np.min(values)) / 2 if len(values) > 1 else 0.0
    return ThresholdEstimate(p_cross=mean, spread=spread, crossings=crossings)
