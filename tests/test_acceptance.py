"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Criterion 7 shares one expensive sweep fixture (Markov-length grid plus
decoder curves) across its three sub-criteria. Criterion 7a's "peak height
grows with L" clause is expected to fail: the marginal distribution of any
fixed, bulk detector region depends only on region-incident mechanisms and
is therefore exactly independent of L, so no feasible fixed-region CMI
estimator can show L growth (see the project notes for the full analysis).
"""

import json
import math
import time

import numpy as np
import pytest

from oracles import oracle_detectors

from stmarkov.cli import main as cli_main
from stmarkov.codes import repetition_code, toric_code
from stmarkov.decoder import threshold_estimate
from stmarkov.entropy import (
    entropy_decomposition_check,
    exact_entropy,
    full_syndrome_region,
    rank_entropy_half,
)
from stmarkov.foliation import detector_cells, foliate, lbl_stabilizers
from stmarkov.markov import (
    build_tripartition,
    cmi,
    cmi_rank_half,
    interpolate_peak,
    markov_length,
    rate_points,
    sweep_cells,
)
from stmarkov.sampler import sample_batch
from stmarkov.spacetime import (
    NoiseModel,
    build_detector_model,
    detector_flip_probability,
    detectors_from_errors,
)
from stmarkov.tableau import evaluate_detectors, init_graph_state, measure_x_all

SEED = 2024


def report(number, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number} [{status}] {label}: {detail}")
    assert ok, f"criterion {number}: {detail}"


# -- 1: foliation correspondence ------------------------------------------------


def test_criterion_1_foliation_correspondence():
    t0 = time.monotonic()
    code = repetition_code(5)
    m_f = 4
    noise = NoiseModel.phenomenological(0.1, p_z=0.1)
    model = build_detector_model(code, m_f - 1, noise)
    rs = foliate(code, m_f)
    rows = [model.det_index[key] for key in rs.detector_keys]
    base = init_graph_state(rs)
    rng = np.random.default_rng(SEED)
    configs = []
    for k in range(model.n_mechanisms):
        e = np.zeros(model.n_mechanisms, dtype=np.uint8)
        e[k] = 1
        configs.append(e)
    n_single = len(configs)
    for _ in range(1000):
        configs.append((rng.random(model.n_mechanisms) < 0.25).astype(np.uint8))
    mismatches = 0
    for e in configs:
        circuit_bits = detectors_from_errors(model, e)[rows]
        assert np.array_equal(detectors_from_errors(model, e), oracle_detectors(model, e))
        sites = []
        for k in np.flatnonzero(e):
            sites.extend(rs.map_mechanism(model.mechanisms[k]))
        tab = base.copy()
        tab.apply_z(sites)
        outcomes = measure_x_all(tab, rs, rng)
        if not np.array_equal(evaluate_detectors(outcomes, rs.cells), circuit_bits):
            mismatches += 1
    dt = time.monotonic() - t0
    report(
        1,
        "foliation correspondence",
        mismatches == 0 and dt < 60,
        f"{n_single} single mechanisms + 1000 random configs bit-exact, {dt:.1f}s",
    )


# -- 2: stabilizer audit ---------------------------------------------------------


def test_criterion_2_stabilizer_audit():
    t0 = time.monotonic()
    instances = [(repetition_code(L), m_f) for L in (3, 4, 5, 6) for m_f in (1, 2, 3, 4)]
    instances.append((toric_code(2), 2))
    checked = 0
    for code, m_f in instances:
        rs = foliate(code, m_f)
        gens = rs.graph_generators()
        tab = init_graph_state(rs)
        for op in detector_cells(rs) + lbl_stabilizers(rs):
            for g in gens:
                assert op.commutes(g), f"{code.name} m_f={m_f}"
            assert tab.expectation(op) == 1, f"{code.name} m_f={m_f}"
            checked += 1
    dt = time.monotonic() - t0
    report(
        2,
        "stabilizer audit",
        dt < 60,
        f"{checked} cells/linking stabilizers commute with all generators, "
        f"expectation +1, {dt:.1f}s",
    )


# -- 3: entropy decomposition ----------------------------------------------------


def test_criterion_3_entropy_decomposition():
    t0 = time.monotonic()
    worst = 0.0
    cases = 0
    for L, T in ((3, 2), (3, 3), (4, 2), (4, 3)):
        for p in (0.05, 0.1, 0.3):
            code = repetition_code(L)
            noise = NoiseModel.phenomenological(p)
            model = build_detector_model(code, T, noise)
            rep = entropy_decomposition_check(model, full_syndrome_region(model), cap=24)
            assert rep.deterministic_are_detector_combos
            worst = max(worst, abs(rep.residual))
            cases += 1
    dt = time.monotonic() - t0
    report(
        3,
        "entropy decomposition H(s)=H(d)+|s|-|d|",
        worst <= 1e-10 and dt < 60,
        f"{cases} (L,T,p) cases, max residual {worst:.2e}, {dt:.1f}s",
    )


# -- 4: estimator vs oracle ------------------------------------------------------


def test_criterion_4_estimator_vs_oracle():
    t0 = time.monotonic()
    code = repetition_code(4)
    model = build_detector_model(code, 3, NoiseModel.phenomenological(0.1))
    tris = []
    for x0 in range(4):
        for t0_anchor in (0, 1):
            tris.append(
                build_tripartition(
                    model, wA=1, wB=1, wC=1, anchor=(x0, t0_anchor),
                    mode="strip", bulk_margin=0,
                )
            )
    for x0 in (0, 2):
        for t0_anchor in (0, 2):
            tris.append(
                build_tripartition(
                    model, wA=1, wB=0, wC=1, anchor=(x0, t0_anchor),
                    mode="strip", bulk_margin=0,
                )
            )
    assert len(tris) >= 10
    worst = 0.0
    for i, tri in enumerate(tris):
        exact_pt = cmi(model, tri, method="exact", exact_cap=24)
        sam = cmi(model, tri, n=10**6, seed=SEED + i)
        pull = abs(sam.cmi - exact_pt.cmi) / max(sam.std_error, 1e-12)
        worst = max(worst, pull)
        assert pull <= 3.0, f"tripartition {i}: {sam.cmi} vs {exact_pt.cmi} ({pull:.2f} sigma)"
    dt = time.monotonic() - t0
    report(
        4,
        "sampled CMI vs exact oracle",
        dt < 300,
        f"{len(tris)} tripartitions at n=10^6, worst pull {worst:.2f} sigma, {dt:.1f}s",
    )


# -- 5: p = 1/2 rank oracle ------------------------------------------------------


def test_criterion_5_rank_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED)
    model = build_detector_model(
        repetition_code(4), 3, NoiseModel(p_x=0.5, p_z=0.0, q=0.5)
    )
    for _ in range(50):
        k = int(rng.integers(1, 9))
        region = sorted(rng.choice(model.n_detectors, size=k, replace=False).tolist())
        brute = exact_entropy(model, region, cap=24)
        assert brute == pytest.approx(rank_entropy_half(model, region), abs=1e-9)
    big = build_detector_model(
        repetition_code(10), 10, NoiseModel(p_x=0.5, p_z=0.0, q=0.5)
    )
    tested = 0
    for _ in range(50):
        anchor = (int(rng.integers(0, 10)), int(rng.integers(1, 6)))
        wB = int(rng.integers(1, 3))
        mode = "strip" if rng.integers(0, 2) else "ring"
        try:
            tri = build_tripartition(
                big, wA=1, wB=wB, wC=1, anchor=anchor, mode=mode, cap=64
            )
        except ValueError:
            continue
        assert cmi_rank_half(big, tri) == 0.0
        tested += 1
    dt = time.monotonic() - t0
    report(
        5,
        "p=1/2 rank oracle",
        tested >= 30 and dt < 60,
        f"50 regions rank==brute force; CMI=0 on {tested} separating tripartitions, {dt:.1f}s",
    )


# -- 6: trivial limits -----------------------------------------------------------


def test_criterion_6_trivial_limits():
    t0 = time.monotonic()
    quiet = build_detector_model(repetition_code(8), 8, NoiseModel(0.0, 0.0, 0.0))
    tri = build_tripartition(quiet, wA=2, wB=1, wC=1, anchor=(3, 2), mode="strip")
    assert cmi(quiet, tri, method="exact").cmi == 0.0
    assert cmi(quiet, tri, n=10_000, seed=SEED).cmi == 0.0

    model = build_detector_model(repetition_code(16), 16, NoiseModel.phenomenological(0.1))
    rng = np.random.default_rng(SEED)
    dets = sorted(rng.choice(model.n_detectors, size=20, replace=False).tolist())
    batch = sample_batch(model, dets, 10**6, seed=SEED)
    worst = 0.0
    for j, d in enumerate(dets):
        freq = batch.row_bits(j).mean()
        expect = detector_flip_probability(model, d)
        sigma = math.sqrt(max(expect * (1 - expect), 1e-12) / batch.n_samples)
        pull = abs(freq - expect) / sigma
        worst = max(worst, pull)
        assert pull <= 3.0, f"detector {d}: {freq} vs {expect}"
    dt = time.monotonic() - t0
    report(
        6,
        "trivial limits",
        dt < 120,
        f"CMI=0 at p=0; 20 detector rates within 3 sigma of the parity formula "
        f"(worst {worst:.2f}), {dt:.1f}s",
    )


# -- 7: threshold reproduction ---------------------------------------------------

P_GRID = [0.05, 0.07, 0.09, 0.11, 0.13, 0.15, 0.17]
SIZES = [(16, 16), (24, 24), (32, 32)]
DECODER_SHOTS = 4500


@pytest.fixture(scope="module")
def threshold_data():
    t0 = time.monotonic()
    grid = [(L, T, p) for (L, T) in SIZES for p in P_GRID]
    cells = list(sweep_cells("repetition", grid, n=10**6, seed=SEED, wC=1, anchor_stride=2))
    t_sweep = time.monotonic() - t0
    curves = {}
    for rp in rate_points("repetition", SIZES, P_GRID, DECODER_SHOTS, SEED):
        curves.setdefault(rp.L, []).append((rp.p, rp.rate))
    t_all = time.monotonic() - t0
    print(f"\n[threshold fixture] sweep {t_sweep:.0f}s, total {t_all:.0f}s")
    return cells, curves


def _per_size_peaks(cells):
    peaks = {}
    for (L, _) in SIZES:
        series = sorted(
            (c.p, c.fit.xi, c.fit.xi_stderr)
            for c in cells
            if c.L == L and c.fit is not None
        )
        ps = [s[0] for s in series]
        xis = [s[1] for s in series]
        errs = [s[2] for s in series]
        pk = interpolate_peak(ps, xis)
        idx = int(np.argmax(xis))
        peaks[L] = (pk, errs[idx])
    return peaks


def _pooled_peak(cells):
    """Peak of xi(p) pooled (inverse-variance) across sizes.

    Exact bulk-region CMI is identical across these sizes, so pooling the
    per-size fits is a pure variance reduction for the location estimate.
    """
    pooled = []
    for p in P_GRID:
        fits = [
            (c.fit.xi, c.fit.xi_stderr)
            for c in cells
            if c.p == p and c.fit is not None
        ]
        if not fits:
            continue
        w = np.array([1.0 / max(e, 1e-6) ** 2 for _, e in fits])
        x = np.array([x for x, _ in fits])
        pooled.append((p, float((w * x).sum() / w.sum())))
    ps, xis = zip(*pooled)
    return interpolate_peak(ps, xis)


def test_criterion_7a_markov_peak(threshold_data):
    cells, _ = threshold_data
    pooled = _pooled_peak(cells)
    location_ok = pooled.interior and 0.08 <= pooled.p_peak <= 0.14
    peaks = _per_size_peaks(cells)
    details = [f"pooled peak p={pooled.p_peak:.4f} (interior={pooled.interior})"]
    for L, (pk, err) in sorted(peaks.items()):
        details.append(f"L={L}: peak p={pk.p_peak:.4f} xi={pk.xi_peak:.4f}+-{err:.4f}")
    ls = sorted(peaks)
    growth_ok = True
    for a, b in zip(ls, ls[1:]):
        (pa, ea), (pb, eb) = peaks[a], peaks[b]
        if not (pb.xi_peak - pa.xi_peak > math.hypot(ea, eb)):
            growth_ok = False
    detail = (
        "; ".join(details)
        + f" | interior max in [0.08,0.14]: {'yes' if location_ok else 'no'}"
        + f" | height grows with L: {'yes' if growth_ok else 'no'}"
    )
    if not location_ok and pooled.interior:
        detail += (
            " (known displacement: histogram-feasible tripartitions mix "
            "microscopic parity damping into the decay, shifting the peak "
            "below the asymptotic threshold; the decoder cross-check in 7c "
            "bounds the gap)"
        )
    if not growth_ok:
        detail += (
            " (expected: bulk-region detector marginals depend only on "
            "region-incident mechanisms, so fixed-region CMI is exactly "
            "L-independent at these sizes)"
        )
    report(7, "7a Markov-length peak", location_ok and growth_ok, detail)


def test_criterion_7b_decoder_crossing(threshold_data):
    _, curves = threshold_data
    est = threshold_estimate(curves)
    ok = 0.07 <= est.p_cross <= 0.14
    report(
        7,
        "7b union-find crossing",
        ok,
        f"crossing p={est.p_cross:.4f} +- {est.spread:.4f} "
        f"(pairs: {[(a, b, round(c, 4)) for a, b, c in est.crossings]})",
    )


def test_criterion_7c_peak_vs_crossing(threshold_data):
    cells, curves = threshold_data
    pooled = _pooled_peak(cells)
    est = threshold_estimate(curves)
    gap = abs(pooled.p_peak - est.p_cross)
    report(
        7,
        "7c peak vs crossing",
        gap <= 0.03,
        f"xi-peak {pooled.p_peak:.4f} vs crossing {est.p_cross:.4f}: |gap| = {gap:.4f}",
    )


# -- 8: sub-threshold decay ------------------------------------------------------


def test_criterion_8_subthreshold_decay():
    t0 = time.monotonic()
    model = build_detector_model(
        repetition_code(24), 24, NoiseModel.phenomenological(0.05)
    )
    points = []
    for wB in (1, 2, 3, 4, 5):
        tri = build_tripartition(model, wA=2, wB=wB, wC=2, anchor=(11, (21 - wB) // 2),
                                 mode="strip")
        points.append(cmi(model, tri, method="exact", exact_cap=10**9))
    fit = markov_length(points)
    dt = time.monotonic() - t0
    ok = fit.r_squared >= 0.9 and math.isfinite(fit.xi) and fit.xi > 0
    report(
        8,
        "sub-threshold log-linear decay",
        ok,
        f"p=0.05 L=T=24 ladder wB=1..5: xi={fit.xi:.4f}, R^2={fit.r_squared:.5f}, {dt:.1f}s",
    )


# -- 9: reproducibility ----------------------------------------------------------


def test_criterion_9_reproducibility(tmp_path):
    out = str(tmp_path / "run.json")
    args = [
        "run", "--code", "repetition", "--L", "8", "--rounds", "8",
        "--p", "0.11", "--wB-max", "2", "--samples", "50000", "--seed", "42",
        "--out", out, "--csv", str(tmp_path / "run.csv"),
    ]
    assert cli_main(args) == 0
    first = ((tmp_path / "run.json").read_bytes(), (tmp_path / "run.csv").read_bytes())
    assert cli_main(args) == 0
    second = ((tmp_path / "run.json").read_bytes(), (tmp_path / "run.csv").read_bytes())

    sweep_out = str(tmp_path / "sweep.json")
    sweep_args = [
        "sweep", "--code", "repetition", "--sizes", "8x8", "--p-grid", "0.07,0.11",
        "--wB-max", "1", "--samples", "20000", "--seed", "9", "--out", sweep_out,
        "--decoder-shots", "500",
    ]
    assert cli_main(sweep_args) == 0
    s1 = (tmp_path / "sweep.json").read_bytes()
    assert cli_main(sweep_args) == 0
    s2 = (tmp_path / "sweep.json").read_bytes()
    ok = first == second and s1 == s2
    report(9, "byte-identical reruns", ok, "run + sweep outputs identical for fixed seed")
