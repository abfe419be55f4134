"""Monte Carlo sampling of detector outcomes d = M.e from a detector model.

Samples are stored column-major and bit-packed: one packed row of n sample
bits per detector, built by XOR-accumulating the incidence columns of the
drawn mechanism bits. Sampling is chunked with counter-based Philox streams
(one high-counter block per chunk), so batches are bit-reproducible for a
given (model, draw region, n, seed, stream) regardless of scheduling. The
chunks are drawn concurrently, one thread per usable CPU; each writes only
its own bytes of the packed rows, so the output does not depend on the
number of threads.

A mechanism bit e = [u < p] reads one uint64 word x of the chunk's stream,
as ``Generator.random`` does (u = (x >> 11) 2^-53). In a chunk of at least
``RAW_MIN`` samples the bits are taken as ``x < t(p)`` on the raw words
(``_word_threshold``), which skips the conversion to doubles and gives the
same bits; shorter chunks draw doubles.

The random stream is laid out by the draw region (by default the requested
region): every mechanism incident to it takes its n draws, in mechanism
order. Mechanisms that touch no detector of the requested region have their
draws skipped, not made, so the rows of a narrow region are bit-identical to
the same rows of a batch over its whole draw region. Mechanisms incident to
no detector of the draw region are left out; that leaves the marginal
unchanged.

``subset_patterns`` turns the packed bytes of a span of samples (a chunk)
into one word per sample over a sub-region whose rows ``pattern_rows`` looked
up; ``entropy._chunk_table`` counts those words chunk by chunk, so no word
array over the whole batch is built.

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


# Chunks of at least this many samples draw raw words; shorter ones doubles.
# Both give the same bits. A short chunk spends little time in each
# GIL-free draw against the GIL-held work around it (skips, XORs), and raw
# draws there made the threads trade the GIL more often and run slower.
RAW_MIN = 8192


def _word_threshold(p) -> np.ndarray:
    """Integer thresholds t with ``x < t`` exactly when ``(x >> 11) * 2**-53 < p``.

    ``Generator.random`` turns a uint64 word x into u = (x >> 11) 2^-53. As
    p 2^53 is exact and x >> 11 is an integer, u < p holds exactly when
    x >> 11 < ceil(p 2^53), that is when x < ceil(p 2^53) 2^11. Exact for
    every p in [0, 1); for p >= 1 the threshold does not fit in 64 bits, so
    such p (and negative or NaN p) are refused.
    """
    p = np.asarray(p, dtype=np.float64)
    if not np.all((p >= 0.0) & (p < 1.0)):
        raise ValueError("word thresholds need probabilities in [0, 1)")
    return np.ceil(np.ldexp(p, 53)).astype(np.uint64) << np.uint64(11)


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

    A draw takes one uint64 per value, as a double from ``Generator.random``
    or as a raw word from ``random_raw``, and Philox4x64 makes four uint64
    per counter step, of which (-drawn) % 4 are still buffered. The
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
    stream positions of the others are skipped. Mechanism probabilities
    must lie in [0, 1).
    """
    region = model.checked_region(region)
    if n < 1:
        raise ValueError("need at least one sample")
    draw_region = region if draw_region is None else tuple(draw_region)
    if not set(region) <= set(draw_region):
        raise ValueError("region must lie inside the draw region")
    model.checked_region(draw_region)
    pos = np.full(model.n_detectors, -1, dtype=np.intp)
    pos[list(region)] = np.arange(len(region))
    mechs = np.array(model.region_mechanisms(draw_region), dtype=np.intp)
    offsets, dets = model.footprints(mechs)
    row = pos[dets]
    on_region = row >= 0
    # Position in ``mechs`` of the mechanism of each footprint entry on the
    # region; entries stay in mechanism order, then footprint order.
    owner = np.repeat(np.arange(mechs.size), np.diff(offsets))[on_region]
    drawn = np.flatnonzero(np.bincount(owner, minlength=mechs.size))
    rows = row[on_region].tolist()
    firsts = [*np.searchsorted(owner, drawn).tolist(), len(rows)]
    # (p, rows, skipped): the region rows a drawn mechanism flips, and how
    # many mechanisms of the draw region that touch no row precede it. Those
    # after the last drawn mechanism need no skip.
    draws: List[Tuple[float, List[int], int]] = [
        (p, rows[lo:hi], skipped)
        for p, lo, hi, skipped in zip(
            model.mechanism_probs()[mechs[drawn]].tolist(), firsts, firsts[1:],
            (np.diff(drawn, prepend=-1) - 1).tolist(),
        )
    ]
    # A list: its uint64 scalars are made once, not again in every chunk.
    thresholds = list(_word_threshold([p for p, _, _ in draws]))
    key = stream_key(seed, stream)
    bounds = chunk_bounds(n, n_chunks)
    packed = np.zeros((len(region), (n + 7) // 8), dtype=np.uint8)

    def fill(c: int) -> None:
        # Chunk c writes only its own byte span of the packed rows (interior
        # bounds are byte-aligned), so chunks need no lock between them.
        lo, hi = bounds[c], bounds[c + 1]
        gen = _chunk_generator(key, c)
        bit_gen = gen.bit_generator
        m = hi - lo
        raw = m >= RAW_MIN
        acc = np.zeros((len(region), m), dtype=np.uint8)
        u = np.empty(m)
        bits = np.empty(m, dtype=bool)
        # Every mechanism before the current one took m values of the stream.
        done = 0
        for (p, rows, skipped), t in zip(draws, thresholds):
            if skipped:
                _skip_draws(gen, done * m, skipped * m)
            done += skipped + 1
            if raw:
                np.less(bit_gen.random_raw(m), t, out=bits)
            else:
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
# Shift of the j-th detector of a group onto bit j of each pattern byte.
_LANES = np.arange(8, dtype=np.uint64)[:, None]


def pattern_rows(batch: SampleBatch, sub_region: Sequence[int]) -> List[int]:
    """The row of ``batch.rows`` holding each detector of ``sub_region``, in its order.

    Refuses a sub-region wider than a 64-bit pattern or holding a detector
    outside the batch's region.
    """
    if len(sub_region) > 64:
        raise PatternWidthExceeded(len(sub_region), 64)
    pos = {d: j for j, d in enumerate(batch.region)}
    for d in sub_region:
        if d not in pos:
            raise ValueError(f"detector {d} not in batch region")
    return [pos[d] for d in sub_region]


def subset_patterns(batch: SampleBatch, rows: Sequence[int], lo: int, hi: int) -> np.ndarray:
    """One word per sample lo..hi-1, bit j from ``batch.rows[rows[j]]``.

    ``rows`` comes from ``pattern_rows``. Only the packed bytes of the span
    are read, so a chunk's patterns cost 8 bytes per sample of that chunk.
    """
    first = lo // 8
    block = batch.rows[:, first:(hi + 7) // 8]
    # One row per sample (8 per packed byte), one column per pattern byte.
    out = np.zeros((8 * block.shape[1], 8), dtype=np.uint8)
    for g in range(0, len(rows), 8):
        # Up to 8 detectors fill one pattern byte, each spread, shifted onto
        # its bit and ORed in, as whole arrays: a chunk is short, so each
        # numpy call counts.
        group = rows[g:g + 8]
        spread = _SPREAD.take(block[group])
        spread <<= _LANES[:len(group)]
        out[:, g // 8] = np.bitwise_or.reduce(spread, axis=0).view(np.uint8)
    words = out.view("<u8").reshape(-1)[lo - 8 * first:hi - 8 * first]
    return words.astype(np.uint64, copy=False)
