"""Monte Carlo sampling of detector outcomes d = M.e from a detector model.

Samples are stored column-major and bit-packed: one packed row of n sample
bits per detector, built by XOR-accumulating the incidence columns of the
drawn mechanism bits. Sampling is chunked with counter-based Philox streams
(one high-counter block per chunk), so batches are bit-reproducible for a
given (model, draw region, n, seed, stream) regardless of scheduling. The
chunks are drawn concurrently, one thread per usable CPU; each writes only
its own bytes of the packed rows, so the output does not depend on the
number of threads.

The random stream is laid out by the draw region (by default the requested
region): every mechanism incident to it takes its n draws, in mechanism
order. Mechanisms that touch no detector of the requested region have their
draws skipped, not made, so the rows of a narrow region are bit-identical to
the same rows of a batch over its whole draw region. Mechanisms incident to
no detector of the draw region are left out; that leaves the marginal
unchanged.

``subset_patterns`` turns a batch's packed rows into one word per sample over
a sub-region; ``entropy._chunk_table`` counts those words.

A batch lives in memory only. The one file format for detector samples is
the interchange file of ``cli.export_interchange`` and ``cli.read_interchange``.
"""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .spacetime import DetectorModel


class PatternWidthExceeded(ValueError):
    """Histogram pattern wider than the configured cap."""

    def __init__(self, width: int, cap: int):
        super().__init__(f"pattern width {width} exceeds cap {cap} bits")
        self.width = width
        self.cap = cap


def stream_key(seed: int, stream: str) -> np.ndarray:
    """Derive a 128-bit Philox key from a root seed and a stream name."""
    digest = hashlib.sha256(f"{seed}/{stream}".encode()).digest()
    return np.frombuffer(digest[:16], dtype=np.uint64).copy()


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _chunk_generator(key: np.ndarray, chunk: int) -> np.random.Generator:
    # High counter words: each chunk owns a disjoint 2^128-block slice.
    return np.random.Generator(np.random.Philox(counter=chunk << 128, key=key))


@dataclass
class SampleBatch:
    """Bit-packed detector outcome samples with RNG provenance.

    ``rows[j]`` holds the n sample bits of ``region[j]``, packed 8 per byte
    little-endian.
    """

    region: Tuple[int, ...]
    n_samples: int
    rows: np.ndarray  # (width, ceil(n/8)) uint8
    chunk_bounds: Tuple[int, ...]
    seed: int
    stream: str

    def row_bits(self, j: int) -> np.ndarray:
        """Unpacked 0/1 bits of one detector row."""
        return np.unpackbits(self.rows[j], bitorder="little", count=self.n_samples)


def chunk_bounds(n: int, n_chunks: int = 32) -> Tuple[int, ...]:
    """Boundaries of at most ``n_chunks`` chunks of n samples.

    Interior boundaries are byte-aligned (or n), so the packed rows of
    consecutive chunks concatenate; chunks may be empty when n is small.
    """
    n_chunks = min(n_chunks, n)
    bounds = [0]
    for i in range(1, n_chunks):
        b = 8 * round(i * n / (8 * n_chunks))
        bounds.append(min(max(b, bounds[-1]), n))
    bounds.append(n)
    return tuple(bounds)


def _skip_draws(gen: np.random.Generator, drawn: int, skip: int) -> None:
    """Move the stream past ``skip`` values, ``drawn`` having been taken from it.

    Generator.random takes one uint64 per double, and Philox4x64 makes four
    uint64 per counter step, of which (-drawn) % 4 are still buffered. The
    skip takes those, advances the counter by whole steps (advancing drops
    the buffer, empty by then) and takes the rest, so it moves the stream as
    ``random_raw(skip)`` would, in O(1). Each call holds the GIL that the
    other chunks' threads wait on, so only the calls needed are made.
    """
    bit_gen = gen.bit_generator
    head = -drawn % 4
    if head:
        head = min(head, skip)
        bit_gen.random_raw(head)
        skip -= head
    if skip >= 4:
        bit_gen.advance(skip // 4)
    if skip % 4:
        bit_gen.random_raw(skip % 4)


def sample_batch(
    model: DetectorModel,
    region: Sequence[int],
    n: int,
    seed: int,
    stream: str = "sampling",
    n_chunks: int = 32,
    draw_region: Optional[Sequence[int]] = None,
) -> SampleBatch:
    """Draw n detector-outcome samples restricted to ``region``.

    Each sample draws independent mechanism bits e_k ~ Bernoulli(p_k) for the
    mechanisms incident to ``draw_region`` (default: ``region``) and emits
    (M.e mod 2) restricted to ``region``, which must lie inside
    ``draw_region``. Only mechanisms that touch ``region`` are drawn; the
    stream positions of the others are skipped.
    """
    region = tuple(region)
    if not region:
        raise ValueError("region must be nonempty")
    if n < 1:
        raise ValueError("need at least one sample")
    draw_region = region if draw_region is None else tuple(draw_region)
    if not set(region) <= set(draw_region):
        raise ValueError("region must lie inside the draw region")
    pos = {d: j for j, d in enumerate(region)}
    # (p, rows, skipped): the region rows a drawn mechanism flips, and how
    # many mechanisms of the draw region that touch no row precede it. Those
    # after the last drawn mechanism need no skip.
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

    def fill(c: int) -> None:
        # Chunk c writes only its own byte span of the packed rows (interior
        # bounds are byte-aligned), so chunks need no lock between them.
        lo, hi = bounds[c], bounds[c + 1]
        gen = _chunk_generator(key, c)
        m = hi - lo
        acc = np.zeros((len(region), m), dtype=np.uint8)
        u = np.empty(m)
        bits = np.empty(m, dtype=bool)
        # Every mechanism before the current one took m values of the stream.
        done = 0
        for p, rows, skipped in draws:
            if skipped:
                _skip_draws(gen, done * m, skipped * m)
            done += skipped + 1
            np.less(gen.random(out=u), p, out=bits)
            for j in rows:
                acc[j] ^= bits.view(np.uint8)
        span = slice(lo // 8, lo // 8 + (m + 7) // 8)
        packed[:, span] = np.packbits(acc, axis=1, bitorder="little")

    chunks = [c for c in range(len(bounds) - 1) if bounds[c + 1] > bounds[c]]
    # A pool per call: no thread outlives the call, so a process pool forked
    # later (markov.sweep_cells) copies none.
    with ThreadPoolExecutor(max_workers=min(_usable_cpus(), len(chunks))) as pool:
        list(pool.map(fill, chunks))
    return SampleBatch(
        region=region,
        n_samples=n,
        rows=packed,
        chunk_bounds=bounds,
        seed=seed,
        stream=stream,
    )


# _SPREAD[b] moves bit i of the byte b to bit 0 of byte i: the 8 samples of
# one packed byte land one per byte of a little-endian word.
_SPREAD = np.array(
    [sum(((b >> i) & 1) << (8 * i) for i in range(8)) for b in range(256)], dtype="<u8"
)


def subset_patterns(batch: SampleBatch, sub_region: Sequence[int]) -> np.ndarray:
    """Repack each sample onto the bits of ``sub_region`` (subset of region)."""
    if len(sub_region) > 64:
        raise PatternWidthExceeded(len(sub_region), 64)
    pos = {d: j for j, d in enumerate(batch.region)}
    for d in sub_region:
        if d not in pos:
            raise ValueError(f"detector {d} not in batch region")
    n_bytes = batch.rows.shape[1]
    # One row per sample (8 per packed byte), one column per pattern byte.
    out = np.zeros((8 * n_bytes, 8), dtype=np.uint8)
    word = np.empty(n_bytes, dtype="<u8")
    spread = np.empty(n_bytes, dtype="<u8")
    for g in range(0, len(sub_region), 8):
        word[:] = 0
        for j, d in enumerate(sub_region[g:g + 8]):
            np.take(_SPREAD, batch.rows[pos[d]], out=spread)
            spread <<= np.uint64(j)
            word |= spread
        out[:, g // 8] = word.view(np.uint8)
    return out.view("<u8").reshape(-1)[: batch.n_samples].astype(np.uint64, copy=False)
