"""Output checks of the benchmark, each computed apart from the path it checks.

Every check returns a list of problems; an empty list means the output
passed. The self-tests in ``test_checks.py`` feed each check a corrupted
output and require a problem back.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from stmarkov.markov import build_tripartition, cmi

# A reliable rung may sit this many jackknife errors from the exact CMI. The
# jackknife error itself is uncertain by ~15% at 32 chunks, and each run
# compares tens of rungs, so a tighter bound would fail on honest noise.
PULL_BOUND = 5.0
PULL_SLACK = 1e-9  # bits; covers a zero error bar on an exactly-zero rung


def check_cmi_rungs(model, points, wA: int, wC: int) -> List[str]:
    """Reliable sampled rungs against the exact enumeration oracle.

    The oracle is ``markov.cmi(method="exact")`` on the tripartition named by
    each point's descriptor; it enumerates region-incident mechanisms and
    shares no code with the sampler or the histogram path. Space is periodic,
    so every anchor translate the ladder averages over has the same exact CMI.
    """
    problems = []
    for pt in points:
        if not pt.reliable:
            continue
        d = pt.descriptor
        tri = build_tripartition(
            model, wA=wA, wB=d["wB"], wC=wC, anchor=tuple(d["anchor"]),
            mode=d["mode"], sector=d["sector"],
        )
        exact = cmi(model, tri, method="exact", exact_cap=10**9).cmi
        if not np.isfinite(pt.cmi) or not np.isfinite(pt.std_error):
            problems.append(f"wB={d['wB']}: non-finite rung {pt.cmi} +- {pt.std_error}")
            continue
        if abs(pt.cmi - exact) > PULL_BOUND * pt.std_error + PULL_SLACK:
            pull = abs(pt.cmi - exact) / max(pt.std_error, 1e-300)
            problems.append(
                f"wB={d['wB']}: sampled {pt.cmi:.6g} +- {pt.std_error:.3g} vs exact "
                f"{exact:.6g} ({pull:.1f} sigma > {PULL_BOUND})"
            )
    return problems


def check_correction(inc: np.ndarray, act: np.ndarray, syndrome: np.ndarray, result) -> List[str]:
    """A decoded correction must reproduce the syndrome and its logical flips.

    Both images are recomputed here from the model's dense incidence and
    logical-action matrices, not from the decoder's graph.
    """
    corr = np.zeros(inc.shape[1], dtype=np.int64)
    for k in result.correction:
        corr[k] ^= 1
    problems = []
    image = (inc.astype(np.int64) @ corr) % 2
    if not np.array_equal(image, np.asarray(syndrome, dtype=np.int64)):
        bad = np.flatnonzero(image != syndrome)
        problems.append(f"correction image differs from the syndrome at detectors {bad[:5].tolist()}")
    flips = (act.astype(np.int64) @ corr) % 2
    if not np.array_equal(flips, np.asarray(result.logical_flips, dtype=np.int64)):
        problems.append(f"logical action {flips.tolist()} != reported flips {list(result.logical_flips)}")
    return problems


def check_rates_rise(curves: Sequence) -> List[str]:
    """Logical error rates must rise with p at each size."""
    problems = []
    by_size = {}
    for rp in curves:
        by_size.setdefault(rp.L, []).append(rp)
        if rp.shots < 1 or not (0 <= rp.logical_errors <= rp.shots):
            problems.append(f"L={rp.L} p={rp.p}: {rp.logical_errors} errors in {rp.shots} shots")
        elif rp.rate != rp.logical_errors / rp.shots:
            problems.append(f"L={rp.L} p={rp.p}: rate {rp.rate} != errors / shots")
    for L, pts in by_size.items():
        pts = sorted(pts, key=lambda rp: rp.p)
        for lo, hi in zip(pts, pts[1:]):
            if not hi.rate > lo.rate:
                problems.append(
                    f"L={L}: rate {hi.rate} at p={hi.p} does not exceed {lo.rate} at p={lo.p}"
                )
    return problems


def check_tableau_shot(circuit_bits: np.ndarray, tableau_bits: np.ndarray) -> List[str]:
    """Tableau detector bits against the circuit detectors of the same draw.

    ``circuit_bits`` is ``detectors_from_errors`` (incidence times the
    mechanism draw) reordered to the resource state's cell order.
    """
    if np.array_equal(np.asarray(circuit_bits, dtype=np.uint8), np.asarray(tableau_bits, dtype=np.uint8)):
        return []
    bad = np.flatnonzero(np.asarray(circuit_bits) != np.asarray(tableau_bits))
    return [f"tableau detector bits differ from the circuit at cells {bad[:5].tolist()}"]
