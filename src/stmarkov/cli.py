"""Command-line front end: runs, sweeps, verification, and ingestion.

Configuration comes from flags or a JSON config file (flags override the
file). Every JSON output echoes the config fields its command reads (the
root seed among them wherever one is read), their hash, the code hash and
the tool version; the output paths and ``jobs`` change no byte. All
randomness is derived from the root seed through named streams, so reruns
with the same config are byte-identical.

Exit codes: 0 success, 1 verification failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import sys
import typing
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .codes import repetition_code, toric_code
from .decoder import threshold_estimate, NoCrossingError
from .entropy import BruteForceCapExceeded, entropy_decomposition_check, full_syndrome_region
from .foliation import detector_cells, foliate, lbl_stabilizers
from .markov import (
    MarkovFit,
    SweepCell,
    build_tripartition,
    cell_noise,
    cmi,
    cmi_rank_half,
    interpolate_peak,
    ladder_fit,
    ladder_from_batch,
    ladder_rungs,
    lattice_tripartition,
    make_code,
    rate_points,
    sweep_cells,
)
from .sampler import SampleBatch, chunk_bounds, sample_batch
from .spacetime import (
    DetectorModel,
    NoiseModel,
    build_detector_model,
    detectors_from_errors,
)
from .tableau import evaluate_detectors, init_graph_state, measure_x_all

INTERCHANGE_VERSION = 1


class ConfigError(ValueError):
    pass


# The values a string config field may take; ``validate`` and the flags both read it.
_CHOICES = {
    "code": ("repetition", "toric"),
    "mode": ("ring", "strip"),
    "method": ("sampled", "exact"),
    "estimator": ("miller_madow", "none"),
}


@dataclass
class ExperimentConfig:
    code: str = "repetition"
    L: int = 16
    rounds: int = 16
    p: float = 0.1
    q: Optional[float] = None  # defaults to p
    p_z: float = 0.0
    wA: int = 2
    wB_max: int = 5
    wC: int = 2
    mode: str = "strip"
    samples: int = 1_000_000
    seed: int = 0
    estimator: str = "miller_madow"
    method: str = "sampled"
    jobs: int = 1
    out: Optional[str] = None
    csv: Optional[str] = None

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            kinds = _KINDS[f.name]
            if float in kinds and type(v) is int and abs(v) <= sys.float_info.max:
                v = float(v)  # a float field given as an integer holds its float
                setattr(self, f.name, v)
            if isinstance(v, bool) or not isinstance(v, kinds):
                raise ConfigError(f"config key {f.name!r}: {v!r} is not of type {f.type}")
            if f.name in _CHOICES and v not in _CHOICES[f.name]:
                raise ConfigError(
                    f"config key {f.name!r}: {v!r} not in {'|'.join(_CHOICES[f.name])}"
                )
        for name in ("p", "p_z", "q"):
            v = getattr(self, name)
            if v is not None and not (0.0 <= v <= 0.5):
                raise ConfigError(f"{name}={v}: probability out of [0, 0.5]")
        try:
            make_code(self.code, self.L)
        except ValueError as exc:
            raise ConfigError(f"config key 'L': {exc}") from None
        if self.rounds < 1:
            raise ConfigError("rounds must be >= 1")
        if self.samples < 1:
            raise ConfigError("samples must be >= 1")
        if self.wA < 1 or self.wC < 1:
            raise ConfigError("tripartition widths must be positive")
        if self.wB_max < 1:
            raise ConfigError(
                f"config key 'wB_max': {self.wB_max} < 1; the ladder needs at least one rung"
            )
        if self.jobs < 1:
            raise ConfigError(
                f"config key 'jobs': {self.jobs} < 1; a run needs at least one worker"
            )


# The types each config field may hold (NoneType among them for an Optional).
_KINDS = {
    name: typing.get_args(hint) or (hint,)
    for name, hint in typing.get_type_hints(ExperimentConfig).items()
}


# The config fields each command reads: they alone identify its output. A
# sweep's L, rounds and p reach each cell as its (L, T, p); out, csv and
# jobs change no value.
_RUN_FIELDS = tuple(
    f.name for f in dataclasses.fields(ExperimentConfig) if f.name not in ("out", "csv", "jobs")
)
_SWEEP_FIELDS = tuple(f for f in _RUN_FIELDS if f not in ("L", "rounds", "p"))
_INGEST_FIELDS = ("wA", "wB_max", "wC", "mode", "method", "estimator")


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    base: Dict = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as f:
                base = json.load(f)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"config file {args.config!r} is not readable JSON: {exc}") from None
        if not isinstance(base, dict):
            raise ConfigError("JSON config file is not an object of key: value pairs")
    cfg = ExperimentConfig()
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    for k, v in base.items():
        if k not in fields:
            raise ConfigError(f"unknown config key {k!r}")
        setattr(cfg, k, v)
    for f in fields:
        v = getattr(args, f, None)
        if v is not None:
            setattr(cfg, f, v)
    cfg.validate()
    return cfg


def _emit_json(path: Optional[str], payload: Dict) -> None:
    text = json.dumps(payload, sort_keys=True, indent=1)
    if path:
        with open(path, "w") as f:
            f.write(text + "\n")
    else:
        print(text)


def _provenance(cfg: ExperimentConfig, fields: Sequence[str]) -> Tuple[Dict, str]:
    """The echoed config (the ``fields`` a command reads) and its 16-hex hash."""
    echo = {f: getattr(cfg, f) for f in fields}
    return echo, hashlib.sha256(json.dumps(echo, sort_keys=True).encode()).hexdigest()[:16]


def _payload(cfg: ExperimentConfig, fields: Sequence[str], **results) -> Dict:
    """An output document: the provenance header, then the command's results."""
    config, config_hash = _provenance(cfg, fields)
    return {"version": __version__, "config": config, "config_hash": config_hash, **results}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_count(v) -> bool:
    return _is_int(v) and v >= 1


def _is_float(v) -> bool:
    """A finite float: every non-count number a sweep computes is one."""
    return isinstance(v, float) and math.isfinite(v)


def _is_str(v) -> bool:
    return isinstance(v, str)


# The fields of each progress record: how each is read off what a sweep
# computed, the test a value read back must pass, and what it must be.
_POINT_FIELDS = {  # of a CmiPoint
    "wB": (lambda pt: pt.descriptor.get("wB"), _is_int, "an integer"),
    "dist": (lambda pt: pt.dist, _is_int, "an integer"),
    "cmi_bits": (lambda pt: pt.cmi, _is_float, "a float"),
    "cmi_stderr": (lambda pt: pt.std_error, _is_float, "a float"),
    "support_abc": (lambda pt: pt.support_abc, _is_int, "an integer"),
    "reliable": (lambda pt: pt.reliable, lambda v: isinstance(v, bool), "a boolean"),
    "method": (lambda pt: pt.method, _is_str, "a string"),
}
_FIT_FIELDS = {  # of a MarkovFit
    "xi": (lambda fit: fit.xi, _is_float, "a float"),
    "xi_stderr": (lambda fit: fit.xi_stderr, _is_float, "a float"),
    "slope_log2": (lambda fit: fit.slope_log2, _is_float, "a float"),
    "slope_stderr": (lambda fit: fit.slope_stderr, _is_float, "a float"),
    "r_squared": (lambda fit: fit.r_squared, _is_float, "a float"),
    "window": (lambda fit: list(fit.window),
               lambda v: isinstance(v, list) and len(v) == 2 and all(map(_is_int, v)),
               "a list of two integers"),
    "n_used": (lambda fit: fit.n_used, _is_int, "an integer"),
}
_FIT_ERROR_FIELDS = {"error": (lambda reason: reason or "fit failed", _is_str, "a string")}
_CELL_FIELDS = {  # of a SweepCell; its points and fit are checked by their own tables
    "L": (lambda cell: cell.L, _is_int, "an integer"),
    "T": (lambda cell: cell.T, _is_int, "an integer"),
    "p": (lambda cell: cell.p, _is_float, "a float"),
    "points": (lambda cell: _point_records(cell.points),
               lambda v: isinstance(v, list), "a list"),
    "fit": (lambda cell: _fit_record(cell.fit, cell.fit_error),
            lambda v: isinstance(v, dict), "an object"),
}


def _record(obj, fields: Dict) -> Dict:
    return {name: get(obj) for name, (get, _, _) in fields.items()}


def _fit_record(fit: Optional[MarkovFit], error: Optional[str]) -> Dict:
    return _record(error, _FIT_ERROR_FIELDS) if fit is None else _record(fit, _FIT_FIELDS)


def _point_records(points) -> List[Dict]:
    return [_record(pt, _POINT_FIELDS) for pt in points]


def _cell_record(cell: SweepCell) -> Dict:
    return _record(cell, _CELL_FIELDS)


def _check_record(what: str, rec, fields: Dict) -> None:
    """Refuse ``rec`` unless it is an object of exactly ``fields``, each passing its test."""
    if not isinstance(rec, dict):
        raise ConfigError(f"{what} is not a JSON object")
    for name, (_, ok, kind) in fields.items():
        if not ok(rec.get(name)):
            raise ConfigError(f"{what} field {name!r} is not {kind}")
    extra = sorted(set(rec) - set(fields))
    if extra:
        raise ConfigError(f"{what} has a field {extra[0]!r} it cannot hold")


def _read_progress(path: str, key: str) -> Dict[Tuple[int, int, float], Dict]:
    """The finished cells of a sweep progress file, by (L, T, p).

    Refuses a line that is not a JSON object and a record written under
    another config. The record, each of its CMI points and its fit (a failed
    fit's reason or a MarkovFit) must hold exactly the fields that
    ``_cell_record`` writes, each of its type and each number finite.
    """
    done = {}
    with open(path) as f:
        for i, line in enumerate(f, 1):
            where = f"{path} line {i}"
            try:
                rec = json.loads(line)
            except ValueError:
                raise ConfigError(f"{where}: not a JSON record: {line.strip()!r}") from None
            if not isinstance(rec, dict):
                raise ConfigError(f"{where}: cell record {rec!r} is not a JSON object")
            if rec.pop("key", None) != key:
                raise ConfigError(
                    f"{where}: cell written under another config "
                    f"(seed, samples, ladder or noise differ); rerun without --resume"
                )
            _check_record(f"{where}: cell record", rec, _CELL_FIELDS)
            for j, pt in enumerate(rec["points"]):
                _check_record(f"{where}: cell record point {j}", pt, _POINT_FIELDS)
            fit_fields = _FIT_ERROR_FIELDS if "error" in rec["fit"] else _FIT_FIELDS
            _check_record(f"{where}: cell record fit", rec["fit"], fit_fields)
            done[(rec["L"], rec["T"], rec["p"])] = rec
    return done


def _code_hash(cfg: ExperimentConfig, L: int) -> str:
    return hashlib.sha256(make_code(cfg.code, L).to_json().encode()).hexdigest()[:16]


def _compute_cells(cfg: ExperimentConfig, grid: Sequence[Tuple[int, int, float]]):
    """``markov.sweep_cells`` over the (L, T, p) cells of ``grid``, with the config's ladder."""
    return sweep_cells(
        cfg.code, grid, ladder=range(1, cfg.wB_max + 1), n=cfg.samples, seed=cfg.seed,
        wA=cfg.wA, wC=cfg.wC, mode=cfg.mode, p_z=cfg.p_z, q=cfg.q, jobs=cfg.jobs,
        method=cfg.method, correction=cfg.estimator == "miller_madow",
    )


def _write_cmi_csv(path: str, cfg: ExperimentConfig, cells: List[Dict]) -> None:
    """One CSV row per CMI point of each cell record."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(
            ["code", "L", "T", "p", "q", "wA", "wB", "dist", "cmi_bits", "cmi_stderr"]
        )
        for c in cells:
            q = cell_noise(c["p"], cfg.p_z, cfg.q).q
            for pt in c["points"]:
                writer.writerow(
                    (cfg.code, c["L"], c["T"], c["p"], q, cfg.wA, pt["wB"], pt["dist"],
                     repr(pt["cmi_bits"]), repr(pt["cmi_stderr"]))
                )


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    cell, = _compute_cells(cfg, [(cfg.L, cfg.rounds, cfg.p)])
    rec = _cell_record(cell)
    _emit_json(cfg.out, _payload(
        cfg, _RUN_FIELDS, code_hash=_code_hash(cfg, cfg.L), fit=rec["fit"], points=rec["points"]
    ))
    if cfg.csv:
        _write_cmi_csv(cfg.csv, cfg, [rec])
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    sizes = _parse_sizes(args.sizes) if args.sizes else [(cfg.L, cfg.rounds)]
    p_grid = (
        [float(x) for x in args.p_grid.split(",")]
        if args.p_grid
        else [0.05, 0.07, 0.09, 0.11, 0.13, 0.15, 0.17]
    )
    grid = [(L, T, p) for (L, T) in sizes for p in p_grid]
    for (L, T, p) in grid:
        # Each cell is a run's config at its (L, T, p), and its ladder fits its model.
        try:
            dataclasses.replace(cfg, L=L, rounds=T, p=p).validate()
            model = build_detector_model(make_code(cfg.code, L), T, cell_noise(p, cfg.p_z, cfg.q))
            ladder_rungs(partial(build_tripartition, model, mode=cfg.mode), model.code.space_shape,
                         T, range(1, cfg.wB_max + 1), cfg.wA, cfg.wC, [(L - cfg.wA) // 2])
        except ValueError as exc:
            raise ConfigError(f"size {L}x{T} at p={p}: {exc}") from None
    if len(set(sizes)) < len(sizes) or len(set(p_grid)) < len(p_grid):
        raise ConfigError("--sizes and --p-grid must not repeat a value")
    if args.decoder_shots < 0:
        raise ConfigError("--decoder-shots must be >= 0")
    out = cfg.out or "sweep.json"
    progress_path = out + ".cells.jsonl"
    _, key = _provenance(cfg, _SWEEP_FIELDS)
    resume = args.resume and os.path.exists(progress_path)
    done = _read_progress(progress_path, key) if resume else {}

    # Each cell is appended to the progress file as soon as it is computed,
    # so an interrupted sweep can be picked up with --resume.
    with open(progress_path, "a" if args.resume else "w") as progress:
        for cell in _compute_cells(cfg, [cell for cell in grid if cell not in done]):
            rec = _cell_record(cell)
            progress.write(json.dumps({**rec, "key": key}, sort_keys=True) + "\n")
            progress.flush()
            done[(cell.L, cell.T, cell.p)] = rec
    cells = [done[cell] for cell in grid]

    # One peak per size, keyed by L as before while every size has its own L;
    # when two sizes share an L, every key is LxT.
    shared_L = len({L for (L, _) in sizes}) < len(sizes)
    peaks = {}
    for (L, T) in sizes:
        series = [
            (c["p"], c["fit"]["xi"])
            for c in cells
            if (c["L"], c["T"]) == (L, T) and "xi" in c["fit"]
        ]
        name = f"{L}x{T}" if shared_L else str(L)
        if len(series) >= 2:
            ps, xis = zip(*sorted(series))
            peak = interpolate_peak(ps, xis)
            peaks[name] = {
                "p_peak": peak.p_peak,
                "xi_peak": peak.xi_peak,
                "interior": peak.interior,
            }
            if not peak.interior:
                peaks[name]["note"] = "no interior maximum"
        else:
            peaks[name] = {"note": "no interior maximum", "fits": len(series)}

    payload = _payload(
        cfg, _SWEEP_FIELDS, code_hashes={str(L): _code_hash(cfg, L) for (L, _) in sizes},
        cells=cells, peaks=peaks,
    )

    if args.decoder_shots:
        points = list(rate_points(
            cfg.code, sizes, p_grid, args.decoder_shots, cfg.seed, p_z=cfg.p_z, q=cfg.q,
            jobs=cfg.jobs,
        ))
        curves = {
            size: [(rp.p, rp.rate) for rp in points if (rp.L, rp.T) == size] for size in sizes
        }
        try:
            est = threshold_estimate(curves)
            payload["decoder_crossing"] = {"p_cross": est.p_cross, "spread": est.spread}
        except NoCrossingError as exc:
            payload["decoder_crossing"] = {"error": str(exc)}
        with open(out + ".decoder.csv", "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(
                ["L", "T", "p", "q", "shots", "logical_errors", "rate", "ci_low", "ci_high"]
            )
            for rp in points:
                writer.writerow(
                    (rp.L, rp.T, rp.p, rp.q, rp.shots, rp.logical_errors,
                     repr(rp.rate), repr(rp.ci_low), repr(rp.ci_high))
                )

    _emit_json(out, payload)
    if cfg.csv:
        _write_cmi_csv(cfg.csv, cfg, cells)
    return 0


def _parse_sizes(text: str) -> List[Tuple[int, int]]:
    sizes = []
    for part in text.split(","):
        try:
            l, t = part.split("x")
            sizes.append((int(l), int(t)))
        except ValueError:
            raise ConfigError(f"size {part!r} not of the form LxT") from None
    return sizes


# -- verify -------------------------------------------------------------------


def _verify_correspondence(n_random: int = 100) -> Tuple[str, str]:
    code = repetition_code(4)
    m_f = 3
    noise = NoiseModel.phenomenological(0.1)
    model = build_detector_model(code, m_f - 1, noise)
    rs = foliate(code, m_f)
    rows = [model.det_index[key] for key in rs.detector_keys]
    base = init_graph_state(rs)
    rng = np.random.default_rng(12345)

    configs = []
    for k in range(model.n_mechanisms):
        e = np.zeros(model.n_mechanisms, dtype=np.uint8)
        e[k] = 1
        configs.append(e)
    for _ in range(n_random):
        configs.append((rng.random(model.n_mechanisms) < 0.25).astype(np.uint8))
    for e in configs:
        circuit_bits = detectors_from_errors(model, e)[rows]
        sites: List[int] = []
        for k in np.flatnonzero(e):
            sites.extend(rs.map_mechanism(model.mechanisms[k]))
        tab = base.copy()
        tab.apply_z(sites)
        outcomes = measure_x_all(tab, rs, rng)
        bits = evaluate_detectors(outcomes, rs.cells)
        if not np.array_equal(bits, circuit_bits):
            return "FAIL", "tableau pipeline disagrees with circuit detectors"
    return "PASS", f"{len(configs)} error configurations bit-exact"


def _verify_audit() -> Tuple[str, str]:
    for code, m_f in ((repetition_code(4), 3), (toric_code(2), 2)):
        rs = foliate(code, m_f)
        gens = rs.graph_generators()
        tab = init_graph_state(rs)
        for op in detector_cells(rs) + lbl_stabilizers(rs):
            for g in gens:
                if not op.commutes(g):
                    return "FAIL", f"operator anticommutes with a generator ({code.name})"
            if tab.expectation(op) != 1:
                return "FAIL", f"operator expectation != +1 ({code.name})"
    return "PASS", "cells and linking stabilizers commute, expectation +1"


def _verify_decomposition(L: int = 3, T: int = 2) -> Tuple[str, str]:
    model = build_detector_model(repetition_code(L), T, NoiseModel.phenomenological(0.1))
    report = entropy_decomposition_check(model, full_syndrome_region(model))
    if not report.deterministic_are_detector_combos:
        return "FAIL", "deterministic components are not detector combinations"
    if abs(report.residual) > 1e-10:
        return "FAIL", f"decomposition residual {report.residual:.2e}"
    return "PASS", f"residual {report.residual:.1e}"


def _verify_sampler_oracle(samples: int = 400_000) -> Tuple[str, str]:
    # 400,000 samples make 12,500-sample chunks: the sampler's raw-word branch.
    from .spacetime import detector_flip_probability

    model = build_detector_model(repetition_code(4), 3, NoiseModel.phenomenological(0.1))
    rng = np.random.default_rng(7)
    dets = sorted(rng.choice(model.n_detectors, size=5, replace=False).tolist())
    batch = sample_batch(model, dets, samples, seed=99)
    for j, d in enumerate(dets):
        freq = batch.row_bits(j).mean()
        expect = detector_flip_probability(model, d)
        sigma = math.sqrt(max(expect * (1 - expect), 1e-9) / samples)
        if abs(freq - expect) > 4 * sigma:
            return "FAIL", f"detector {d}: rate {freq:.4f} vs formula {expect:.4f}"
    tri = build_tripartition(model, wA=1, wB=1, wC=1, anchor=(1, 1), mode="strip",
                             bulk_margin=0)
    exact_pt = cmi(model, tri, method="exact", exact_cap=24)
    sam = cmi(model, tri, n=samples, seed=100)
    if abs(sam.cmi - exact_pt.cmi) > 3 * sam.std_error + 2e-3:
        return "FAIL", f"sampled CMI {sam.cmi:.5f} vs exact {exact_pt.cmi:.5f}"
    return "PASS", "flip rates and CMI within tolerance of oracles"


def _verify_rank(size: int = 10) -> Tuple[str, str]:
    model = build_detector_model(
        repetition_code(size), size, NoiseModel(p_x=0.5, p_z=0.0, q=0.5)
    )
    rng = np.random.default_rng(11)
    for _ in range(10):
        anchor = (int(rng.integers(0, size)), int(rng.integers(1, size - 4)))
        tri = build_tripartition(model, wA=1, wB=1, wC=1, anchor=anchor, mode="strip",
                                 cap=64)
        if cmi_rank_half(model, tri) != 0.0:
            return "FAIL", f"rank CMI nonzero at p=1/2 for anchor {anchor}"
    return "PASS", "rank-formula CMI vanishes across separating tripartitions"


def cmd_verify(args: argparse.Namespace) -> int:
    L, T = args.L, args.rounds
    if L < 3:
        raise ConfigError(f"verify --L {L}: the repetition code needs L >= 3")
    if T < 1:
        raise ConfigError(f"verify --rounds {T}: need at least one round")
    checks = [
        ("foliation_correspondence", _verify_correspondence),
        ("stabilizer_audit", _verify_audit),
        ("entropy_decomposition", lambda: _verify_decomposition(L, T)),
        ("sampler_vs_oracle", _verify_sampler_oracle),
        ("rank_oracle", _verify_rank),
    ]
    failed = False
    for name, fn in checks:
        try:
            status, detail = fn()
        except BruteForceCapExceeded as exc:  # verify --L beyond the brute-force cap
            status, detail = "SKIPPED", str(exc)
        except Exception as exc:
            status, detail = "FAIL", f"{type(exc).__name__}: {exc}"
        print(f"{status:7s} {name}: {detail}")
        failed = failed or status == "FAIL"
    return 1 if failed else 0


# -- ingest -------------------------------------------------------------------


# Nibble value of each ASCII code; 16 marks a character that is not a hex digit.
_HEX_VALUE = np.full(256, 16, dtype=np.uint8)
_HEX_VALUE[list(b"0123456789abcdefABCDEF")] = [*range(16), *range(10, 16)]
# Interchange rows are converted in blocks of this many samples (a multiple
# of 8, so the packed sample bytes of consecutive blocks concatenate).
_ROW_BLOCK = 1 << 14


def export_interchange(batch: SampleBatch, model: DetectorModel, path: str) -> None:
    """Write a batch in the detector-sample interchange format.

    One JSON header line, then one hex row per sample (little-endian bit
    order over the header's detector list).
    """
    header = {
        "version": INTERCHANGE_VERSION,
        "detectors": [
            {
                "sector": model.detectors[d].sector,
                "check": model.detectors[d].check,
                "round": model.detectors[d].t,
                "coords": list(model.detectors[d].coords),
            }
            for d in batch.region
        ],
        "n_rows": batch.n_samples,
        "space_shape": list(model.code.space_shape),
        "rounds": model.rounds,
        "seed": batch.seed,
        "stream": batch.stream,
        "model_hash": model.model_hash(),
    }
    width = len(batch.region)
    digits = (width + 3) // 4
    n = batch.n_samples
    with open(path, "w") as f:
        f.write(json.dumps(header, sort_keys=True) + "\n")
        for lo in range(0, n, _ROW_BLOCK):
            m = min(_ROW_BLOCK, n - lo)
            packed = batch.rows[:, lo // 8 : lo // 8 + (m + 7) // 8]
            bits = np.unpackbits(packed, axis=1, bitorder="little", count=m).T
            # Each sample's bytes, most significant first, in hex; keep the low digits.
            row_bytes = np.packbits(bits, axis=1, bitorder="little")[:, ::-1]
            hex_rows = np.frombuffer(row_bytes.tobytes().hex().encode(), dtype=np.uint8)
            text = np.full((m, digits + 1), ord("\n"), dtype=np.uint8)
            text[:, :digits] = hex_rows.reshape(m, -1)[:, -digits:]
            f.write(text.tobytes().decode("ascii"))


# The header keys ingest reads: the test each value must pass, and what it must be.
_HEADER_TYPES = {
    "detectors": (lambda v: isinstance(v, list) and len(v) >= 1, "a nonempty list"),
    "n_rows": (_is_count, "an integer >= 1"),
    "rounds": (_is_count, "an integer >= 1"),
    "space_shape": (lambda v: isinstance(v, list) and len(v) >= 1 and all(map(_is_count, v)),
                    "a list of integers >= 1 (at least one)"),
    "seed": (_is_int, "an integer"),
    "stream": (_is_str, "a string"),
    "model_hash": (_is_str, "a string"),
}


def _check_header(header) -> None:
    """Refuse a header whose keys are missing, of the wrong type or out of range,
    or that places two z-sector detectors at the same coordinates."""
    if not isinstance(header, dict):
        raise ConfigError("interchange header is not a JSON object")
    if header.get("version") != INTERCHANGE_VERSION:
        raise ConfigError(f"unsupported interchange version {header.get('version')}")
    for key in ("detectors", "n_rows", "space_shape", "rounds"):
        if key not in header:
            raise ConfigError(f"interchange header has no {key!r} key")
    for key, (ok, kind) in _HEADER_TYPES.items():
        if key in header and not ok(header[key]):
            raise ConfigError(f"interchange header key {key!r}: {header[key]!r} is not {kind}")
    scheme = {"sector", "check", "round", "coords"}
    z_at = {}
    for i, rec in enumerate(header["detectors"]):
        if not isinstance(rec, dict) or not scheme.issubset(rec):
            raise ConfigError(
                f"detector {i}: unknown coordinate scheme {rec!r}; expected fields {sorted(scheme)}"
            )
        if not (isinstance(rec["coords"], list) and all(map(_is_int, rec["coords"]))):
            raise ConfigError(f"detector {i}: coords {rec['coords']!r} are not a list of integers")
        if rec["sector"] == "z":
            first = z_at.setdefault(tuple(rec["coords"]), i)
            if first != i:
                raise ConfigError(
                    f"detectors {first} and {i} are both at z-sector coordinates {rec['coords']}"
                )


def _refuse_rows(bad: np.ndarray, lo: int, lines: List[str], what: str) -> None:
    """Refuse the first row of a block flagged in ``bad``, quoting it."""
    if bad.any():
        i = int(np.argmax(bad))
        raise ConfigError(f"row {lo + i + 1}: {what}{lines[i]!r}")


def read_interchange(path: str) -> Tuple[Dict, SampleBatch]:
    with open(path) as f:
        header = json.loads(f.readline())
        _check_header(header)
        width = len(header["detectors"])
        n = header["n_rows"]
        digits = (width + 3) // 4
        # Blocks are kept as rows arrive: a header that claims more rows
        # than the file holds fails at the first missing row.
        blocks = []
        for lo in range(0, n, _ROW_BLOCK):
            m = min(_ROW_BLOCK, n - lo)
            lines = [f.readline().strip() for _ in range(m)]
            lengths = np.fromiter(map(len, lines), dtype=np.int64, count=m)
            _refuse_rows(lengths != digits, lo, lines, f"expected {digits} hex digits, got ")
            chars = np.frombuffer("".join(lines).encode("ascii", "replace"), dtype=np.uint8)
            nibbles = _HEX_VALUE[chars].reshape(m, digits)
            _refuse_rows((nibbles > 15).any(axis=1), lo, lines, "not a hex number: ")
            # Least significant nibble first, then its bits: bit j of the row.
            bits = np.unpackbits(
                nibbles[:, ::-1, None], axis=2, count=4, bitorder="little"
            ).reshape(m, 4 * digits)
            _refuse_rows(bits[:, width:].any(axis=1), lo, lines,
                         f"bits set above the header's {width} detectors: ")
            blocks.append(np.packbits(bits[:, :width].T, axis=1, bitorder="little"))
        for row, line in enumerate(f, n + 1):
            if line.strip():
                raise ConfigError(f"row {row}: beyond the header's {n} rows: {line.strip()!r}")
    batch = SampleBatch(
        region=tuple(range(width)),
        n_samples=n,
        rows=np.concatenate(blocks, axis=1),
        chunk_bounds=chunk_bounds(n),
        seed=header.get("seed", 0),
        stream=header.get("stream", "ingest"),
    )
    return header, batch


def cmd_ingest(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    # The samples fix the ladder: sampled, strip-shaped, at one anchor.
    for key, value in (("mode", "strip"), ("method", "sampled")):
        if getattr(cfg, key) != value:
            raise ConfigError(f"config key {key!r}: ingest runs only the {value} ladder")
    if cfg.csv:
        raise ConfigError("config key 'csv': ingest writes no CSV; its points are in --out")
    header, batch = read_interchange(args.path)
    lattice = {tuple(rec["coords"]): i for i, rec in enumerate(header["detectors"])
               if rec["sector"] == "z"}
    space = tuple(header["space_shape"])
    rounds = header["rounds"]
    # The centred anchor; a ladder that does not fit the samples is refused.
    rungs = ladder_rungs(
        partial(lattice_tripartition, lattice, space, rounds, mode="strip", cap=64), space,
        rounds, range(1, cfg.wB_max + 1), cfg.wA, cfg.wC, [(space[0] - cfg.wA) // 2],
    )
    tris = [tri for tri, in rungs]
    points = ladder_from_batch(batch, tris, correction=cfg.estimator == "miller_madow")
    source = {
        "path": os.path.basename(args.path),
        "model_hash": header.get("model_hash", ""),
        "n_rows": header["n_rows"],
    }
    _emit_json(cfg.out, _payload(
        cfg, _INGEST_FIELDS, source=source, fit=_fit_record(*ladder_fit(points)),
        points=_point_records(points),
    ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stmarkov",
        description="Spacetime Markov length estimation for syndrome-extraction circuits",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", help="JSON config file")
        for f in dataclasses.fields(ExperimentConfig):
            sp.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                            type=_KINDS[f.name][0], choices=_CHOICES.get(f.name))

    run_p = sub.add_parser("run", help="one (L, p) CMI ladder -> JSON/CSV")
    add_common(run_p)
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", help="grid over sizes and p")
    add_common(sweep_p)
    sweep_p.add_argument("--sizes", help="comma-separated LxT pairs, e.g. 16x16,24x24")
    sweep_p.add_argument("--p-grid", dest="p_grid", help="comma-separated p values")
    sweep_p.add_argument("--decoder-shots", dest="decoder_shots", type=int, default=0)
    sweep_p.add_argument("--resume", action="store_true")
    sweep_p.set_defaults(func=cmd_sweep)

    verify_p = sub.add_parser("verify", help="run the correspondence and oracle suite")
    verify_p.add_argument("--L", type=int, default=3, help="size for the brute-force checks")
    verify_p.add_argument("--rounds", type=int, default=2)
    verify_p.set_defaults(func=cmd_verify)

    ingest_p = sub.add_parser("ingest", help="analyze external detector samples")
    add_common(ingest_p)
    ingest_p.add_argument("path", help="interchange file (JSON header + hex rows)")
    ingest_p.set_defaults(func=cmd_ingest)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # ConfigError, geometry errors the configuration triggers, unreadable paths.
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
