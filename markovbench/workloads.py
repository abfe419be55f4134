"""The four benchmark workloads.

Each workload has a fixed problem, made from the seed alone. ``setup`` builds
what the timed pass needs (detector models with their lazy tables, decoder
graphs, resource states and base tableaux); ``run_round`` solves the whole
problem once and returns the outputs; ``check``
compares the outputs of every round with the first and the first with
computations made apart from the path under test.

An operation is one CMI cell, one decoder rate point or one tableau shot.
"""

from __future__ import annotations

import traceback
from typing import Dict, List, Sequence, Tuple

import numpy as np

from stmarkov import (
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
    threshold_estimate,
    toric_code,
)
from stmarkov.decoder import NoCrossingError
from stmarkov.markov import FitError, averaged_cmi_ladder, markov_length

import checks

CODES = {"repetition": repetition_code, "toric": toric_code}


class OpFailed:
    """Output slot of an operation that raised."""

    def __init__(self, exc: BaseException):
        self.message = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other):
        return isinstance(other, OpFailed) and other.message == self.message


def _attempt(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # an operation boundary: count it and go on
        traceback.print_exc()
        return OpFailed(exc)


class LadderSweep:
    """CMI ladders and Markov-length fits over a (code, L = T, p) grid."""

    def __init__(self, seed, family, sizes, p_grid, wA, wC, ladder, n, anchor_stride):
        self.seed = seed
        self.family = family
        self.cells = [(L, p) for L in sizes for p in p_grid]
        self.wA, self.wC, self.ladder, self.n = wA, wC, tuple(ladder), n
        self.anchor_stride = anchor_stride  # callable L -> stride or None

    @property
    def n_ops(self) -> int:
        return len(self.cells)

    @property
    def shots_per_round(self) -> int:
        return self.n * len(self.cells)

    def describe(self) -> Dict:
        return {
            "code": self.family, "cells (L = T, p)": self.cells, "wA": self.wA,
            "wC": self.wC, "wB": list(self.ladder), "samples": self.n,
            "anchor_stride": {L: self.anchor_stride(L) for L, _ in self.cells},
        }

    def setup(self, tr) -> Dict:
        models = {}
        for (L, p) in self.cells:
            with tr.span("spacetime.build"):
                model = build_detector_model(
                    CODES[self.family](L), L, NoiseModel.phenomenological(p)
                )
                model.incident_mechanisms(0)  # the sampler's lazy lookup table
            tr.count("spacetime.models")
            models[(L, p)] = model
        return {"models": models}

    def prepare_inputs(self, state) -> None:
        pass

    def _cell(self, model, L, p, tr):
        with tr.span("markov.ladder"):
            points = averaged_cmi_ladder(
                model, self.ladder, self.n, self.seed, wA=self.wA, wC=self.wC,
                mode="strip", stream=f"cmi/L{L}/T{L}/p{p:.6g}",
                anchor_stride=self.anchor_stride(L),
            )
        with tr.span("markov.fit"):
            try:
                fit = markov_length(points)
            except FitError as exc:  # a gap in the sweep, not a failure
                fit = f"FitError: {exc}"
        return points, fit

    def run_round(self, state, tr) -> List:
        outputs = []
        for (L, p) in self.cells:
            out = _attempt(self._cell, state["models"][(L, p)], L, p, tr)
            outputs.append(out)
            if not isinstance(out, OpFailed):
                points, fit = out
                tr.count("markov.rungs", len(points))
                tr.count("markov.reliable_rungs", sum(pt.reliable for pt in points))
                tr.count("markov.fits", not isinstance(fit, str))
        return outputs

    def check(self, state, rounds: List[List]) -> List[str]:
        problems = _check_repeats(self.cells, rounds)
        for (L, p), out in zip(self.cells, rounds[0]):
            if isinstance(out, OpFailed):
                continue
            points, _ = out
            if [pt.descriptor["wB"] for pt in points] != list(self.ladder):
                problems.append(f"L={L} p={p}: rungs {len(points)} do not match the ladder")
            for msg in checks.check_cmi_rungs(state["models"][(L, p)], points, self.wA, self.wC):
                problems.append(f"L={L} p={p} {msg}")
        return problems


class DecoderCurves:
    """Union-find logical error rates over (L = T, p) and the threshold estimate."""

    CHECKED_SHOTS = 64  # per rate point, drawn by the benchmark

    def __init__(self, seed, sizes, p_grid, shots):
        self.seed = seed
        self.cells = [(L, p) for L in sizes for p in p_grid]
        self.shots = shots

    @property
    def n_ops(self) -> int:
        return len(self.cells)

    @property
    def shots_per_round(self) -> int:
        return self.shots * len(self.cells)

    def describe(self) -> Dict:
        return {"code": "repetition", "cells (L = T, p)": self.cells,
                "shots per rate point": self.shots,
                "checked corrections per rate point": self.CHECKED_SHOTS}

    def setup(self, tr) -> Dict:
        models = {}
        for (L, p) in self.cells:
            with tr.span("spacetime.build"):
                model = build_detector_model(repetition_code(L), L, NoiseModel.phenomenological(p))
                model.incidence()  # cached dense matrix used for the syndromes
            tr.count("spacetime.models")
            with tr.span("decoder.graph"):
                decode(model, np.zeros(model.n_detectors, dtype=np.uint8))
            models[(L, p)] = model
        return {"models": models}

    def prepare_inputs(self, state) -> None:
        pass

    def run_round(self, state, tr) -> List:
        outputs = []
        for (L, p) in self.cells:
            with tr.span("decoder.rate"):
                rp = _attempt(logical_error_rate, state["models"][(L, p)], self.shots, self.seed)
            outputs.append(rp)
            if not isinstance(rp, OpFailed):
                tr.count("decoder.shots", rp.shots)
                tr.count("decoder.logical_failures", rp.logical_errors)
        curves: Dict[int, List[Tuple[float, float]]] = {}
        for rp in outputs:
            if not isinstance(rp, OpFailed):
                curves.setdefault(rp.L, []).append((rp.p, rp.rate))
        with tr.span("decoder.threshold"):
            try:
                est = threshold_estimate(curves)
                crossing = (est.p_cross, est.spread)
            except NoCrossingError as exc:  # an outcome of the curves
                crossing = f"NoCrossingError: {exc}"
        outputs.append(crossing)
        return outputs

    def check(self, state, rounds: List[List]) -> List[str]:
        problems = _check_repeats(self.cells + ["threshold"], rounds)
        rates = [rp for rp in rounds[0][: len(self.cells)] if not isinstance(rp, OpFailed)]
        problems += checks.check_rates_rise(rates)
        rng = np.random.default_rng([self.seed, 0xDEC])
        for (L, p) in self.cells:
            model = state["models"][(L, p)]
            inc, act = model.incidence(), model.logical_action()
            probs = model.mechanism_probs()
            for _ in range(self.CHECKED_SHOTS):
                errors = (rng.random(probs.size) < probs).astype(np.int64)
                syndrome = ((inc.astype(np.int64) @ errors) % 2).astype(np.uint8)
                result = decode(model, syndrome)
                for msg in checks.check_correction(inc, act, syndrome, result):
                    problems.append(f"L={L} p={p}: {msg}")
        return problems


class TableauShots:
    """Per-shot stabilizer simulation of foliated resource states."""

    def __init__(self, seed, states):
        self.seed = seed
        # (label, code family, distance, m_f, NoiseModel, shots)
        self.states = states

    @property
    def n_ops(self) -> int:
        return sum(s[5] for s in self.states)

    @property
    def shots_per_round(self) -> int:
        return self.n_ops

    def describe(self) -> Dict:
        return {
            label: {"code": f"{fam}({d})", "m_f": m_f, "p_x": nm.p_x, "p_z": nm.p_z,
                    "q": nm.q, "shots": shots}
            for (label, fam, d, m_f, nm, shots) in self.states
        }

    def setup(self, tr) -> Dict:
        built = []
        for (label, fam, d, m_f, noise, shots) in self.states:
            code = CODES[fam](d)
            with tr.span("foliation.foliate"):
                rs = foliate(code, m_f)
            with tr.span("tableau.init"):
                base = init_graph_state(rs)
            with tr.span("spacetime.build"):
                model = build_detector_model(code, m_f - 1, noise)
            tr.count("spacetime.models")
            rows = [model.det_index[key] for key in rs.detector_keys]
            built.append({"rs": rs, "base": base, "model": model, "rows": rows})
        return {"states": built}

    def prepare_inputs(self, state) -> None:
        """Mechanism draws per shot: the workload's inputs, made from the seed."""
        rng = np.random.default_rng([self.seed, 0x7AB])
        for st, spec in zip(state["states"], self.states):
            probs = st["model"].mechanism_probs()
            st["errors"] = rng.random((spec[5], probs.size)) < probs
            st["fired"] = [np.flatnonzero(e).tolist() for e in st["errors"]]
            st["measured"] = len(st["rs"].measured_sites)

    def _shot(self, st, mechanisms, fired, rng, tr):
        rs = st["rs"]
        with tr.span("tableau.copy"):
            tab = st["base"].copy()
        with tr.span("foliation.map"):
            sites = [s for k in fired for s in rs.map_mechanism(mechanisms[k])]
        with tr.span("tableau.apply_z"):
            tab.apply_z(sites)
        with tr.span("tableau.measure"):
            outcomes = measure_x_all(tab, rs, rng)
        with tr.span("tableau.detectors"):
            return evaluate_detectors(outcomes, rs.cells)

    def run_round(self, state, tr) -> List:
        outputs = []
        for i, st in enumerate(state["states"]):
            rng = np.random.default_rng([self.seed, 0x5EED, i])  # measurement outcomes
            mechanisms = st["model"].mechanisms
            for fired in st["fired"]:
                outputs.append(_attempt(self._shot, st, mechanisms, fired, rng, tr))
            tr.count("tableau.shots", len(st["fired"]))
            tr.count("tableau.measurements", len(st["fired"]) * st["measured"])
        return outputs

    def check(self, state, rounds: List[List]) -> List[str]:
        labels = [(spec[0], j) for spec in self.states for j in range(spec[5])]
        problems = _check_repeats(labels, rounds)
        outputs = iter(rounds[0])
        for st, spec in zip(state["states"], self.states):
            for j, e in enumerate(st["errors"]):
                bits = next(outputs)
                if isinstance(bits, OpFailed):
                    continue
                circuit = detectors_from_errors(st["model"], e.astype(np.uint8))[st["rows"]]
                for msg in checks.check_tableau_shot(circuit, bits):
                    problems.append(f"{spec[0]} shot {j}: {msg}")
        return problems


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and np.array_equal(a, b)
    return a == b


def _check_repeats(labels: Sequence, rounds: List[List]) -> List[str]:
    """Every round solves the same problem from the same seed: outputs must match."""
    problems = []
    for r, outputs in enumerate(rounds[1:], start=1):
        for label, first, again in zip(labels, rounds[0], outputs):
            if not _same(first, again):
                problems.append(f"{label}: round {r} output differs from round 0")
    return problems


def make(name: str, seed: int):
    """The workload called ``name``, with inputs made from ``seed``."""
    if name == "cmi_sweep":
        return LadderSweep(
            seed, "repetition", sizes=(8, 12), p_grid=(0.08, 0.11, 0.15),
            wA=2, wC=1, ladder=(1, 2, 3), n=420_000, anchor_stride=lambda L: L,
        )
    if name == "toric_ladder":
        return LadderSweep(
            seed, "toric", sizes=(8, 12), p_grid=(0.03,),
            wA=1, wC=1, ladder=(1, 2, 3), n=100_000, anchor_stride=lambda L: None,
        )
    if name == "decoder_curves":
        return DecoderCurves(seed, sizes=(16, 24), p_grid=(0.05, 0.11, 0.15), shots=500)
    if name == "tableau_shots":
        return TableauShots(seed, states=[
            ("toric3_mf3", "toric", 3, 3, NoiseModel(p_x=0.05, p_z=0.05, q=0.05), 120),
            ("repetition6_mf4", "repetition", 6, 4, NoiseModel.phenomenological(0.05), 300),
        ])
    raise KeyError(name)


NAMES = ("cmi_sweep", "toric_ladder", "decoder_curves", "tableau_shots")
