"""Self-tests of the benchmark's checks and span accounting.

Each check must pass an honest output and reject a corrupted one. Run from
the repository root:

    python3 -m pytest markovbench -q
"""

import dataclasses
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import checks  # noqa: E402
from stmarkov import (  # noqa: E402
    NoiseModel,
    build_detector_model,
    decode,
    detectors_from_errors,
    evaluate_detectors,
    foliate,
    init_graph_state,
    logical_error_rate,
    measure_x_all,
    repetition_code,
)
from stmarkov.markov import averaged_cmi_ladder  # noqa: E402
from tracing import Tracer, instrumented  # noqa: E402
from workloads import _check_repeats  # noqa: E402


def _ladder():
    model = build_detector_model(repetition_code(8), 8, NoiseModel.phenomenological(0.11))
    points = averaged_cmi_ladder(model, (1, 2), 120_000, seed=5, wA=2, wC=1, anchor_stride=8)
    assert all(pt.reliable for pt in points)
    return model, points


def test_cmi_check_passes_sampled_ladder():
    model, points = _ladder()
    assert checks.check_cmi_rungs(model, points, wA=2, wC=1) == []


def test_cmi_check_rejects_shifted_rung():
    model, points = _ladder()
    bad = dataclasses.replace(points[1], cmi=points[1].cmi + 20 * points[1].std_error)
    problems = checks.check_cmi_rungs(model, [points[0], bad], wA=2, wC=1)
    assert len(problems) == 1 and "wB=2" in problems[0]


def _decoded(seed=3):
    model = build_detector_model(repetition_code(8), 8, NoiseModel.phenomenological(0.08))
    rng = np.random.default_rng(seed)
    errors = (rng.random(model.n_mechanisms) < model.mechanism_probs()).astype(np.uint8)
    syndrome = detectors_from_errors(model, errors).astype(np.uint8)
    return model, syndrome, decode(model, syndrome)


def test_correction_check_passes_decoder_output():
    model, syndrome, result = _decoded()
    assert result.correction
    assert checks.check_correction(model.incidence(), model.logical_action(), syndrome, result) == []


def test_correction_check_rejects_extra_edge():
    model, syndrome, result = _decoded()
    extra = next(
        k for k, m in enumerate(model.mechanisms)
        if len(m.detectors) == 2 and k not in result.correction
    )
    bad = dataclasses.replace(result, correction=sorted(result.correction + [extra]))
    problems = checks.check_correction(model.incidence(), model.logical_action(), syndrome, bad)
    assert problems and "syndrome" in problems[0]


def test_correction_check_rejects_wrong_logical_flips():
    model, syndrome, result = _decoded()
    bad = dataclasses.replace(result, logical_flips=result.logical_flips ^ 1)
    problems = checks.check_correction(model.incidence(), model.logical_action(), syndrome, bad)
    assert problems and "logical" in problems[0]


def test_rates_check_rejects_falling_curve():
    model_lo = build_detector_model(repetition_code(6), 6, NoiseModel.phenomenological(0.05))
    model_hi = build_detector_model(repetition_code(6), 6, NoiseModel.phenomenological(0.15))
    lo = logical_error_rate(model_lo, 200, seed=1)
    hi = logical_error_rate(model_hi, 200, seed=1)
    assert checks.check_rates_rise([lo, hi]) == []
    swapped = dataclasses.replace(hi, p=lo.p - 0.01)
    assert checks.check_rates_rise([lo, swapped])


def test_tableau_check_rejects_flipped_bit():
    code = repetition_code(3)
    model = build_detector_model(code, 2, NoiseModel.phenomenological(0.2))
    rs = foliate(code, 3)
    rows = [model.det_index[key] for key in rs.detector_keys]
    rng = np.random.default_rng(11)
    errors = (rng.random(model.n_mechanisms) < 0.3).astype(np.uint8)
    tab = init_graph_state(rs)
    tab.apply_z([s for k in np.flatnonzero(errors) for s in rs.map_mechanism(model.mechanisms[k])])
    bits = evaluate_detectors(measure_x_all(tab, rs, rng), rs.cells)
    circuit = detectors_from_errors(model, errors)[rows]
    assert checks.check_tableau_shot(circuit, bits) == []
    flipped = bits.copy()
    flipped[2] ^= 1
    assert checks.check_tableau_shot(circuit, flipped)


def test_repeat_check_rejects_changed_output():
    first = [np.array([0, 1], dtype=np.uint8), 0.5]
    assert _check_repeats(["a", "b"], [first, [first[0].copy(), 0.5]]) == []
    problems = _check_repeats(["a", "b"], [first, [np.array([1, 1], dtype=np.uint8), 0.5]])
    assert problems == ["a: round 1 output differs from round 0"]


def test_self_times_partition_the_traced_ladder():
    model = build_detector_model(repetition_code(6), 6, NoiseModel.phenomenological(0.1))
    tr = Tracer()
    with instrumented(tr):
        with tr.span("markov.ladder"):
            averaged_cmi_ladder(model, (1, 2), 2_000, seed=1, wA=2, wC=1)
    tr.resolve_pending()
    total, own = tr.totals()
    assert {"sampler.sample", "sampler.patterns", "markov.tripartition"} <= set(total)
    assert abs(sum(own.values()) - total["markov.ladder"]) < 1e-9
    assert tr.counts["sampler.batches"] == 1
    assert tr.counts["sampler.samples"] == 2_000
    assert tr.counts["sampler.pattern_calls"] == tr.counts["markov.histograms"] > 0
    # The module globals are restored after the traced block.
    from stmarkov import markov, sampler

    assert markov.sample_batch is sampler.sample_batch
