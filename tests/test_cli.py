import dataclasses
import functools
import hashlib
import json
import math
import os
import pathlib
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stmarkov import foliation
from stmarkov.cli import (
    ConfigError,
    ExperimentConfig,
    _cell_record,
    _point_records,
    _read_progress,
    export_interchange,
    main,
    read_interchange,
)
from stmarkov.decoder import threshold_estimate
from stmarkov.markov import (
    CmiPoint,
    MarkovFit,
    SweepCell,
    build_tripartition,
    interpolate_peak,
    ladder_from_batch,
    rate_points,
    sweep_cells,
)
from stmarkov.sampler import sample_batch
from stmarkov.spacetime import NoiseModel, build_detector_model
from stmarkov.codes import repetition_code, toric_code


def run_cli(args):
    return main(args)


def first_line(path):
    """The first line of a text file, newline included."""
    with open(path) as f:
        return f.readline()


def test_run_writes_json_and_csv(tmp_path):
    out = str(tmp_path / "run.json")
    csv_path = str(tmp_path / "run.csv")
    code = run_cli(
        [
            "run", "--code", "repetition", "--L", "8", "--rounds", "8",
            "--p", "0.09", "--q", "0.09", "--wA", "2", "--wB-max", "2",
            "--samples", "30000", "--seed", "42", "--out", out, "--csv", csv_path,
        ]
    )
    assert code == 0
    payload = json.loads(pathlib.Path(out).read_text())
    assert payload["config"]["seed"] == 42
    assert "config_hash" in payload and "code_hash" in payload
    assert len(payload["points"]) == 2  # ladder wB = 1..wB_max
    header = first_line(csv_path).strip()
    assert header == "code,L,T,p,q,wA,wB,dist,cmi_bits,cmi_stderr"


def test_run_byte_identical(tmp_path):
    out = str(tmp_path / "a.json")
    args = [
        "run", "--code", "repetition", "--L", "8", "--rounds", "8",
        "--p", "0.11", "--wB-max", "1", "--samples", "20000", "--seed", "7",
        "--out", out,
    ]
    assert run_cli(args) == 0
    first = pathlib.Path(out).read_bytes()
    assert run_cli(args) == 0
    assert pathlib.Path(out).read_bytes() == first


def test_bad_probability_exit_code():
    assert run_cli(["run", "--p", "0.7", "--L", "8"]) == 2


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"L": 8, "rounds": 8, "p": 0.09, "samples": 5000, "wB_max": 1})
    )
    out = str(tmp_path / "o.json")
    assert run_cli(["run", "--config", str(cfg), "--p", "0.11", "--out", out]) == 0
    payload = json.loads(pathlib.Path(out).read_text())
    assert payload["config"]["p"] == 0.11
    assert payload["config"]["L"] == 8


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    assert run_cli(["run", "--config", str(cfg)]) == 2


@pytest.mark.parametrize(
    "content, message",
    [
        ({"L": "8"}, "config key 'L': '8' is not of type int"),
        ({"p": "0.1"}, "config key 'p': '0.1' is not of type float"),
        ({"samples": True}, "config key 'samples': True is not of type int"),
        ({"q": [0.1]}, "config key 'q': [0.1] is not of type Optional[float]"),
        ([{"L": 8}], "JSON config file is not an object"),
        ({"wB_max": 0}, "config key 'wB_max': 0 < 1; the ladder needs at least one rung"),
        ({"wB_max": 0, "method": "exact"}, "config key 'wB_max': 0 < 1"),
        ({"jobs": 0}, "config key 'jobs': 0 < 1; a run needs at least one worker"),
    ],
    ids=["str-for-int", "str-for-float", "bool-for-int", "list-for-optional", "list-file",
         "no-rung", "no-rung-exact", "no-worker"],
)
def test_config_value_of_wrong_type_rejected(tmp_path, capsys, content, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(content))
    assert run_cli(["run", "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err


def test_sweep_shape_and_resume(tmp_path):
    out = str(tmp_path / "sweep.json")
    args = [
        "sweep", "--code", "repetition", "--sizes", "8x8",
        "--p-grid", "0.07,0.11", "--wB-max", "1", "--samples", "20000",
        "--seed", "3", "--out", out,
    ]
    assert run_cli(args) == 0
    payload = json.loads(pathlib.Path(out).read_text())
    assert len(payload["cells"]) == 2
    assert "peaks" in payload
    cells_file = out + ".cells.jsonl"
    lines = pathlib.Path(cells_file).read_text().splitlines()
    assert len(lines) == 2
    # Drop one cell from the progress file; --resume recomputes only that one.
    pathlib.Path(cells_file).write_text(lines[0] + "\n")
    assert run_cli(args + ["--resume"]) == 0
    payload2 = json.loads(pathlib.Path(out).read_text())
    assert payload2["cells"] == payload["cells"]


def test_sweep_resume_keys_cells_by_rounds(tmp_path):
    # Two sizes with the same L and p differ only in T.
    out = str(tmp_path / "sweep.json")
    args = ["sweep", "--code", "repetition", "--sizes", "8x6,8x10", "--p-grid", "0.09",
            "--wB-max", "1", "--samples", "5000", "--seed", "3", "--out", out]
    assert run_cli(args) == 0
    cells = json.loads(pathlib.Path(out).read_text())["cells"]
    assert [c["T"] for c in cells] == [6, 10]
    cells_file = out + ".cells.jsonl"
    first = first_line(cells_file)
    pathlib.Path(cells_file).write_text(first)
    assert run_cli(args + ["--resume"]) == 0
    assert json.loads(pathlib.Path(out).read_text())["cells"] == cells


def test_sweep_resume_refuses_cells_of_another_config(tmp_path, capsys):
    out = str(tmp_path / "sweep.json")
    args = ["sweep", "--code", "repetition", "--sizes", "8x8", "--p-grid", "0.09",
            "--wB-max", "1", "--samples", "5000", "--out", out]
    assert run_cli(args + ["--seed", "3"]) == 0
    cells_file = out + ".cells.jsonl"
    seed3 = pathlib.Path(cells_file).read_text()
    # The resume key is the sweep's config_hash.
    config_hash = json.loads(pathlib.Path(out).read_text())["config_hash"]
    assert all(json.loads(line)["key"] == config_hash for line in seed3.splitlines())
    capsys.readouterr()
    assert run_cli(args + ["--seed", "4", "--resume"]) == 2
    assert cells_file in capsys.readouterr().err
    assert pathlib.Path(cells_file).read_text() == seed3
    # A record without a key (or a changed one) is refused too.
    rec = json.loads(seed3)
    del rec["key"]
    pathlib.Path(cells_file).write_text(json.dumps(rec) + "\n")
    assert run_cli(args + ["--seed", "3", "--resume"]) == 2
    # Fields that change no value (jobs, csv) keep the key.
    pathlib.Path(cells_file).write_text(seed3)
    csv_path = str(tmp_path / "sweep.csv")
    assert run_cli(args + ["--seed", "3", "--jobs", "2", "--csv", csv_path, "--resume"]) == 0
    assert pathlib.Path(cells_file).read_text() == seed3


def _with(**fields):
    return lambda rec: json.dumps({**rec, **fields})


def _with_point(**fields):
    """The record with its first CMI point's fields replaced (None deletes one)."""
    def edit(rec):
        point = {**rec["points"][0], **fields}
        point = {k: v for k, v in point.items() if v is not None}
        return json.dumps({**rec, "points": [point] + rec["points"][1:]})
    return edit


def _with_fit(**fields):
    """The record with a fit of every field, these replaced (None deletes one)."""
    fit = {"xi": 1.5, "xi_stderr": 0.1, "slope_log2": -1.0, "slope_stderr": 0.1,
           "r_squared": 0.9, "window": [2, 4], "n_used": 3, **fields}
    return _with(fit={k: v for k, v in fit.items() if v is not None})


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda rec: "[1, 2]", "cell record [1, 2] is not a JSON object"),
        (lambda rec: json.dumps({"key": rec["key"]}), "cell record field 'L' is not an integer"),
        (lambda rec: '{"L": 8, "T"', "not a JSON record"),
        (_with(T=8.0), "cell record field 'T' is not an integer"),
        (_with(p="0.11"), "cell record field 'p' is not a number"),
        (_with(points={}), "cell record field 'points' is not a list"),
        (_with(fit=None), "cell record field 'fit' is not an object"),
        (_with(points=[1]), "cell record point 0 is not a JSON object"),
        (_with_point(wB=1.0), "cell record point 0 field 'wB' is not an integer"),
        (_with_point(dist=None), "cell record point 0 field 'dist' is not an integer"),
        (_with_point(cmi_bits="0.1"), "cell record point 0 field 'cmi_bits' is not a number"),
        (_with_point(cmi_stderr=[0]), "cell record point 0 field 'cmi_stderr' is not a number"),
        (_with_point(support_abc=True),
         "cell record point 0 field 'support_abc' is not an integer"),
        (_with_point(reliable=1), "cell record point 0 field 'reliable' is not a boolean"),
        (_with_point(method=0), "cell record point 0 field 'method' is not a string"),
        (_with(fit={"xi": "x"}), "cell record fit field 'xi' is not a number"),
        (_with(fit={"xi": 10**400}), "cell record fit field 'xi' is not a number"),
        (_with(fit={}), "cell record fit field 'xi' is not a number"),
        (_with(fit={"xi": 1.5, "xi_stderr": "x", "window": 7, "bogus": [1]}),
         "cell record fit field 'xi_stderr' is not a number"),
        (_with_fit(window=[1, 2.0]),
         "cell record fit field 'window' is not a list of two integers"),
        (_with_fit(window=[1, 2, 3]),
         "cell record fit field 'window' is not a list of two integers"),
        (_with_fit(n_used=None), "cell record fit field 'n_used' is not an integer"),
        (_with_fit(bogus=[1]), "cell record fit has a field 'bogus' it cannot hold"),
        (_with(fit={"error": 3}), "cell record fit field 'error' is not a string"),
        (_with(fit={"error": "x", "xi": 1.5}), "cell record fit has a field 'xi' it cannot hold"),
        (_with_point(cmi_bits=math.inf),
         "cell record point 0 field 'cmi_bits' is not a number"),
        (_with_fit(xi=math.nan), "cell record fit field 'xi' is not a number"),
        (_with(p=-math.inf), "cell record field 'p' is not a number"),
        (_with(bogus=1), "cell record has a field 'bogus' it cannot hold"),
        (_with_point(junk="x"), "cell record point 0 has a field 'junk' it cannot hold"),
    ],
    ids=["list", "key-only", "truncated", "T-float", "p-str", "points-object", "fit-null",
         "point-int", "wB-float", "dist-missing", "cmi-str", "stderr-list", "support-bool",
         "reliable-int", "method-int", "xi-str", "xi-beyond-float", "fit-empty",
         "fit-mixed", "window-float", "window-long", "n_used-missing", "fit-extra",
         "error-int", "error-and-xi", "cmi-infinite", "xi-nan", "p-minus-infinity",
         "record-extra", "point-extra"],
)
def test_sweep_resume_refuses_malformed_record(tmp_path, capsys, edit, message):
    out = str(tmp_path / "sweep.json")
    args = ["sweep", "--code", "repetition", "--sizes", "8x8", "--p-grid", "0.09,0.11",
            "--wB-max", "1", "--samples", "5000", "--seed", "3", "--out", out]
    assert run_cli(args) == 0
    cells_file = out + ".cells.jsonl"
    first, second = pathlib.Path(cells_file).read_text().splitlines()
    capsys.readouterr()
    pathlib.Path(cells_file).write_text(first + "\n" + edit(json.loads(second)) + "\n")
    os.remove(out)
    assert run_cli(args + ["--resume", "--csv", str(tmp_path / "s.csv")]) == 2
    assert f"{cells_file} line 2: {message}" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("size", ["8x8x8", "x8", "8x", "axb"])
def test_sweep_refuses_size_not_of_form_LxT(tmp_path, capsys, size):
    out = str(tmp_path / "sweep.json")
    args = ["sweep", "--code", "repetition", "--sizes", f"8x8,{size}", "--p-grid", "0.1",
            "--wB-max", "1", "--samples", "2000", "--out", out]
    assert run_cli(args) == 2
    assert f"configuration error: size {size!r} not of the form LxT\n" == capsys.readouterr().err
    assert not os.path.exists(out + ".cells.jsonl")


@pytest.mark.parametrize(
    "flags",
    [
        ["--sizes", "8x8", "--p-grid", "0.1", "--decoder-shots", "-1"],
        ["--sizes", "8x8,8x8", "--p-grid", "0.1"],
        ["--sizes", "8x8", "--p-grid", "0.1,0.1"],
        ["--sizes", "8x8,2x8", "--p-grid", "0.1"],
        ["--sizes", "8x8,8x0", "--p-grid", "0.1"],
        ["--sizes", "12x12,8x4", "--p-grid", "0.06,0.1"],
    ],
    ids=["negative-decoder-shots", "repeated-size", "repeated-p", "bad-L", "bad-T",
         "ladder-too-deep"],
)
def test_sweep_grid_checked_before_any_cell(tmp_path, flags):
    out = str(tmp_path / "sweep.json")
    args = ["sweep", "--code", "repetition", "--wB-max", "1", "--samples", "2000",
            "--out", out] + flags
    assert run_cli(args) == 2
    assert not os.path.exists(out + ".cells.jsonl")
    assert not os.path.exists(out)


def test_sweep_decoder_curves_keyed_by_size(tmp_path):
    """Sizes sharing an L each keep their curve in the decoder crossing."""
    out = str(tmp_path / "sweep.json")
    sizes, p_grid = [(8, 6), (8, 12), (12, 12)], [0.06, 0.1, 0.14]
    assert run_cli(["sweep", "--code", "repetition", "--sizes", "8x6,8x12,12x12",
                    "--p-grid", "0.06,0.1,0.14", "--wB-max", "1", "--samples", "2000",
                    "--seed", "1", "--decoder-shots", "300", "--out", out]) == 0
    points = list(rate_points("repetition", sizes, p_grid, 300, 1))
    curves = {size: [(rp.p, rp.rate) for rp in points if (rp.L, rp.T) == size] for size in sizes}
    est = threshold_estimate(curves)
    # The 8x6 and 12x12 curves cross; keyed by L alone, 8x12 replaced 8x6.
    assert any({a, b} == {(8, 6), (12, 12)} for a, b, _ in est.crossings)
    crossing = json.loads(pathlib.Path(out).read_text())["decoder_crossing"]
    assert crossing == {"p_cross": est.p_cross, "spread": est.spread}


@pytest.mark.parametrize("sizes, keys", [
    ("6x6,6x10,8x10", ["6x6", "6x10", "8x10"]),  # a shared L: every key is LxT
    ("6x6,8x10", ["6", "8"]),  # distinct L: keyed by L, as before
])
def test_sweep_peaks_keyed_by_size(tmp_path, sizes, keys):
    """Each size's peak comes from its own cells, also when sizes share an L."""
    out = str(tmp_path / "sweep.json")
    assert run_cli(["sweep", "--code", "repetition", "--sizes", sizes, "--p-grid", "0.1,0.2,0.3",
                    "--method", "exact", "--wA", "1", "--wC", "1", "--wB-max", "3",
                    "--out", out]) == 0
    payload = json.loads(pathlib.Path(out).read_text())
    assert sorted(payload["peaks"]) == sorted(keys)
    for key, size in zip(keys, sizes.split(",")):
        L, T = map(int, size.split("x"))
        ps, xis = zip(*[(c["p"], c["fit"]["xi"]) for c in payload["cells"]
                        if (c["L"], c["T"]) == (L, T)])
        peak = interpolate_peak(ps, xis)
        assert payload["peaks"][key]["p_peak"] == peak.p_peak
        assert payload["peaks"][key]["xi_peak"] == peak.xi_peak


def test_run_with_fewer_samples_than_chunks(tmp_path):
    # At n = 7 one chunk holds every sample, so leaving it out leaves none.
    out = str(tmp_path / "run.json")
    assert run_cli(["run", "--code", "repetition", "--L", "8", "--rounds", "8",
                    "--wB-max", "2", "--samples", "7", "--out", out]) == 0
    assert all(not pt["reliable"] for pt in json.loads(pathlib.Path(out).read_text())["points"])


def test_run_ring_ladder_anchored_above_row_one(tmp_path):
    out = str(tmp_path / "run.json")
    assert run_cli(["run", "--code", "repetition", "--L", "8", "--rounds", "12", "--p", "0.11",
                    "--mode", "ring", "--wA", "1", "--wC", "1", "--wB-max", "1",
                    "--samples", "20000", "--seed", "7", "--out", out]) == 0
    (point,) = json.loads(pathlib.Path(out).read_text())["points"]
    assert point["wB"] == 1


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_cells_equal_markov_sweep(tmp_path, jobs):
    out = str(tmp_path / "sweep.json")
    assert run_cli(["sweep", "--code", "repetition", "--sizes", "8x8,12x12", "--p-grid",
                    "0.07,0.11", "--wB-max", "2", "--samples", "10000", "--seed", "3",
                    "--jobs", str(jobs), "--out", out]) == 0
    grid = [(L, T, p) for (L, T) in [(8, 8), (12, 12)] for p in [0.07, 0.11]]
    cells = sweep_cells("repetition", grid, ladder=(1, 2), n=10000, seed=3)
    expected = json.loads(json.dumps([_cell_record(c) for c in cells]))
    assert json.loads(pathlib.Path(out).read_text())["cells"] == expected


def test_verify_passes_and_fault_hook_fails(monkeypatch, capsys):
    assert run_cli(["verify"]) == 0
    map_mechanism = foliation.ResourceState.map_mechanism

    def mis_mapped(rs, mech):
        # Rule 1 mis-mapped: a circuit X error lands one tick up.
        sites = map_mechanism(rs, mech)
        if mech.kind == "data_x":
            kind, i, tick = rs.sites[sites[0]]
            sites = [rs.site_index[(kind, i, tick + 1)]]
        return sites

    monkeypatch.setattr(foliation.ResourceState, "map_mechanism", mis_mapped)
    capsys.readouterr()
    assert run_cli(["verify"]) == 1
    assert "FAIL    foliation_correspondence" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--L", "0"], "verify --L 0: the repetition code needs L >= 3"),
        (["--L", "2"], "verify --L 2: the repetition code needs L >= 3"),
        (["--L", "-4"], "verify --L -4: the repetition code needs L >= 3"),
        (["--rounds", "0"], "verify --rounds 0: need at least one round"),
        (["--rounds", "-1"], "verify --rounds -1: need at least one round"),
    ],
)
def test_verify_refuses_sizes_before_any_check(capsys, flags, message):
    assert run_cli(["verify", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"configuration error: {message}\n"


def ladder_anchor_t0(rounds, wB_max):
    return max(1, (rounds + 1 - (2 + wB_max + 2)) // 2)  # extent wA + wB_max + wC


def make_band_batch(tmp_path, n=20000, family="repetition", wB_max=1):
    if family == "toric":
        model = build_detector_model(toric_code(6), 10, NoiseModel.phenomenological(0.03))
    else:
        model = build_detector_model(repetition_code(8), 8, NoiseModel.phenomenological(0.1))
    extent = 2 + wB_max + 2
    t0 = ladder_anchor_t0(model.rounds, wB_max)
    band = sorted(
        i for i, d in enumerate(model.detectors) if t0 <= d.t <= t0 + extent - 1
    )
    batch = sample_batch(model, band, n, seed=5)
    path = str(tmp_path / "samples.txt")
    export_interchange(batch, model, path)
    return model, batch, band, path


@pytest.mark.parametrize("wB_max", [1, 3])
@pytest.mark.parametrize("family", ["repetition", "toric"])
def test_ingest_roundtrip_matches_in_process(tmp_path, family, wB_max):
    model, batch, band, path = make_band_batch(tmp_path, family=family, wB_max=wB_max)
    out = str(tmp_path / "ingest.json")
    assert run_cli(["ingest", path, "--wB-max", str(wB_max), "--out", out]) == 0
    payload = json.loads(pathlib.Path(out).read_text())
    assert [rec["wB"] for rec in payload["points"]] == list(range(1, wB_max + 1))
    # In-process analysis over the same batch and geometry: every rung sits
    # at the anchor of the deepest one.
    space = model.code.space_shape
    anchor = tuple((size - 2) // 2 for size in space) + (ladder_anchor_t0(model.rounds, wB_max),)
    for rec in payload["points"]:
        tri = build_tripartition(
            model, wA=2, wB=rec["wB"], wC=2, anchor=anchor, mode="strip", cap=64,
            bulk_margin=0,
        )
        point, = ladder_from_batch(batch, [tri])
        assert rec["cmi_bits"] == point.cmi
        assert rec["cmi_stderr"] == point.std_error


def test_ingest_rejects_truncated_row(tmp_path):
    _, _, _, path = make_band_batch(tmp_path, n=50)
    lines = pathlib.Path(path).read_text().splitlines()
    lines[3] = lines[3][:-1]  # truncate a data row
    bad = str(tmp_path / "bad.txt")
    pathlib.Path(bad).write_text("\n".join(lines) + "\n")
    assert run_cli(["ingest", bad, "--L", "8", "--rounds", "8"]) == 2


def test_ingest_rejects_unknown_scheme(tmp_path):
    _, _, _, path = make_band_batch(tmp_path, n=10)
    lines = pathlib.Path(path).read_text().splitlines()
    header = json.loads(lines[0])
    for rec in header["detectors"]:
        del rec["round"]
        rec["when"] = 0
    lines[0] = json.dumps(header)
    bad = str(tmp_path / "bad2.txt")
    pathlib.Path(bad).write_text("\n".join(lines) + "\n")
    assert run_cli(["ingest", bad, "--L", "8", "--rounds", "8"]) == 2


def test_interchange_read_back(tmp_path):
    model, batch, band, path = make_band_batch(tmp_path, n=300)
    header, again = read_interchange(path)
    assert header["n_rows"] == 300
    for j in range(len(band)):
        assert np.array_equal(again.row_bits(j), batch.row_bits(j))


def test_interchange_export_pinned(tmp_path):
    # 10 detectors (three hex digits, the top one partly used) and 17,001 rows
    # (more than one conversion block, not a whole number of packed bytes);
    # the digest was recorded with a bit-by-bit writer.
    model = build_detector_model(repetition_code(7), 4, NoiseModel.phenomenological(0.2))
    batch = sample_batch(model, list(range(10)), 17_001, seed=9)
    path = str(tmp_path / "odd.txt")
    export_interchange(batch, model, path)
    digest = hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()
    assert digest == "5985e57a0957ec04a6b0dc8452c04e050c260bdf0093154b0729ebe2c449ec47"
    _, again = read_interchange(path)
    assert np.array_equal(again.rows, batch.rows)


@pytest.mark.parametrize(
    "row, edit, message",
    [
        (3, lambda s: s[:-1], "expected 10 hex digits"),
        (7, lambda s: s + "0", "expected 10 hex digits"),
        (12, lambda s: "g" + s[1:], "not a hex number"),
        (50, lambda s: "0x" + s[2:], "not a hex number"),
    ],
    ids=["short", "long", "non-hex", "prefixed"],
)
def test_read_interchange_names_bad_row(tmp_path, row, edit, message):
    _, _, _, path = make_band_batch(tmp_path, n=50)
    lines = pathlib.Path(path).read_text().splitlines()
    lines[row] = edit(lines[row])  # line 0 is the header, line k is row k
    bad = str(tmp_path / "bad.txt")
    pathlib.Path(bad).write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=f"^row {row}: {message}"):
        read_interchange(bad)
    assert run_cli(["ingest", bad, "--L", "8", "--rounds", "8"]) == 2


@pytest.mark.parametrize(
    "extra", [["zzzz", "not hex"], ["", "zzzz", "not hex"], ["0123456789"]],
    ids=["not-hex", "after-blank-line", "valid-hex"],
)
def test_read_interchange_refuses_rows_beyond_n_rows(tmp_path, capsys, extra):
    _, _, _, path = make_band_batch(tmp_path, n=2000)
    text = pathlib.Path(path).read_text()
    out = str(tmp_path / "o.json")
    assert run_cli(["ingest", path, "--wB-max", "1", "--out", out]) == 0
    bad = str(tmp_path / "bad.txt")
    pathlib.Path(bad).write_text(text + "\n".join(extra) + "\n")
    row = 2000 + len(extra) - len([s for s in extra if s]) + 1  # the first nonblank one
    message = f"row {row}: beyond the header's 2000 rows: {extra[row - 2001]!r}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        read_interchange(bad)
    assert run_cli(["ingest", bad, "--wB-max", "1", "--out", out + "2"]) == 2
    assert message in capsys.readouterr().err
    # Blank lines after the last row are not rows.
    pathlib.Path(bad).write_text(text + "\n\n")
    assert np.array_equal(read_interchange(bad)[1].rows, read_interchange(path)[1].rows)


def test_sweep_decoder_csv_and_peak_flag(tmp_path):
    out = str(tmp_path / "s.json")
    csv_path = str(tmp_path / "s.csv")
    code = run_cli(
        [
            "sweep", "--code", "repetition", "--sizes", "8x8,12x12",
            "--p-grid", "0.06,0.10", "--wB-max", "1", "--samples", "20000",
            "--seed", "4", "--out", out, "--csv", csv_path, "--decoder-shots", "400",
        ]
    )
    assert code == 0
    payload = json.loads(pathlib.Path(out).read_text())
    assert "decoder_crossing" in payload
    header = first_line(out + ".decoder.csv").strip()
    assert header == "L,T,p,q,shots,logical_errors,rate,ci_low,ci_high"
    # A two-point grid cannot host an interior maximum.
    for key, peak in payload["peaks"].items():
        assert peak.get("interior") in (False, None) or "note" in peak
        if peak.get("interior") is False:
            assert peak["note"] == "no interior maximum"
    assert first_line(csv_path).startswith("code,L,T,p,q")


def test_sweep_jobs_numerically_deterministic(tmp_path):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    args = ["sweep", "--code", "repetition", "--sizes", "8x8",
            "--p-grid", "0.07,0.11", "--wB-max", "1", "--samples", "20000",
            "--seed", "3"]
    assert run_cli(args + ["--out", a]) == 0
    assert run_cli(args + ["--out", b, "--jobs", "2"]) == 0
    # Neither --jobs nor --out changes a byte.
    assert pathlib.Path(a).read_bytes() == pathlib.Path(b).read_bytes()


RUN_ARGS = ["run", "--code", "repetition", "--L", "8", "--rounds", "8", "--p", "0.09",
            "--wB-max", "2", "--samples", "20000", "--seed", "42"]


def _run_outputs(tmp_path, name, extra):
    out = str(tmp_path / f"{name}.json")
    csv_path = str(tmp_path / f"{name}.csv")
    assert run_cli(RUN_ARGS + extra + ["--out", out, "--csv", csv_path]) == 0
    return json.loads(pathlib.Path(out).read_text()), pathlib.Path(csv_path).read_bytes()


def test_run_q_flag(tmp_path):
    default, default_csv = _run_outputs(tmp_path, "default", [])
    same, same_csv = _run_outputs(tmp_path, "same", ["--q", "0.09"])
    # The config echoes the flag as given; every result byte is the same.
    assert same_csv == default_csv
    for key in ("fit", "points", "code_hash"):
        assert same[key] == default[key]
    quiet, quiet_csv = _run_outputs(tmp_path, "quiet", ["--q", "0.0"])
    assert quiet["points"] != default["points"]
    assert quiet_csv.splitlines()[1].split(b",")[4] == b"0.0"


SWEEP_ARGS = ["sweep", "--code", "repetition", "--sizes", "8x8", "--p-grid", "0.07,0.11",
              "--wB-max", "1", "--samples", "20000", "--seed", "3"]


def test_sweep_q_flag(tmp_path):
    payloads = {}
    for name, extra in (("default", []), ("quiet", ["--q", "0.0"])):
        out = str(tmp_path / f"{name}.json")
        csv_path = str(tmp_path / f"{name}.csv")
        assert run_cli(SWEEP_ARGS + extra + ["--out", out, "--csv", csv_path,
                                             "--decoder-shots", "50"]) == 0
        payloads[name] = json.loads(pathlib.Path(out).read_text())
        expected_q = {"0.07", "0.11"} if name == "default" else {"0.0"}
        rows = pathlib.Path(out + ".decoder.csv").read_text().splitlines()[1:]
        assert {row.split(",")[3] for row in rows} == expected_q
        rows = pathlib.Path(csv_path).read_text().splitlines()[1:]
        assert {row.split(",")[4] for row in rows} == expected_q
    assert payloads["quiet"]["cells"] != payloads["default"]["cells"]


def test_interrupted_sweep_resumes_byte_identical(tmp_path, monkeypatch):
    import stmarkov.markov as markov

    out = str(tmp_path / "sweep.json")
    csv_path = str(tmp_path / "sweep.csv")
    args = ["sweep", "--code", "repetition", "--sizes", "8x8,12x12", "--p-grid",
            "0.07,0.11", "--wB-max", "1", "--samples", "10000", "--seed", "3",
            "--out", out, "--csv", csv_path]
    assert run_cli(args) == 0
    expected = {path: pathlib.Path(path).read_bytes() for path in (out, csv_path)}
    for path in expected:
        os.remove(path)

    real_cell = markov._sweep_cell
    calls = []

    def failing_cell(*args, **kwargs):
        calls.append(args)
        if len(calls) == 3:
            raise KeyboardInterrupt
        return real_cell(*args, **kwargs)

    monkeypatch.setattr(markov, "_sweep_cell", failing_cell)
    with pytest.raises(KeyboardInterrupt):
        run_cli(args)
    assert len(pathlib.Path(out + ".cells.jsonl").read_text().splitlines()) == 2
    monkeypatch.setattr(markov, "_sweep_cell", real_cell)
    assert run_cli(args + ["--resume"]) == 0
    for path, content in expected.items():
        assert pathlib.Path(path).read_bytes() == content


def test_p_zero_with_readout_noise_is_computed(tmp_path):
    # Readout flips alone correlate detectors along time; the exact CMI of
    # the wB = 1 strip is nonzero.
    out = str(tmp_path / "run.json")
    args = ["--L", "8", "--rounds", "8", "--p", "0", "--q", "0.1", "--wB-max", "2",
            "--method", "exact"]
    assert run_cli(["run"] + args + ["--out", out]) == 0
    points = json.loads(pathlib.Path(out).read_text())["points"]
    assert [pt["wB"] for pt in points] == [1, 2]
    assert points[0]["cmi_bits"] == 0.2532422086215318
    assert run_cli(["sweep"] + args + ["--sizes", "8x8", "--p-grid", "0.0", "--out", out]) == 0
    cell, = json.loads(pathlib.Path(out).read_text())["cells"]
    assert cell["points"] == points


@pytest.mark.parametrize("key", ["rounds", "space_shape", "n_rows", "detectors", None])
def test_ingest_names_missing_header_key(tmp_path, key):
    _, _, _, path = make_band_batch(tmp_path, n=20)
    lines = pathlib.Path(path).read_text().splitlines()
    header = json.loads(lines[0])
    if key is None:
        header = [header]
    else:
        del header[key]
    lines[0] = json.dumps(header)
    bad = str(tmp_path / "bad.txt")
    pathlib.Path(bad).write_text("\n".join(lines) + "\n")
    message = "not a JSON object" if key is None else f"no '{key}' key"
    with pytest.raises(ConfigError, match=message):
        read_interchange(bad)
    assert run_cli(["ingest", bad, "--L", "8", "--rounds", "8"]) == 2


def test_read_interchange_rejects_bits_above_width(tmp_path):
    # 13 detectors take four hex digits; bits 13-15 of the top digit are unused.
    model = build_detector_model(repetition_code(7), 4, NoiseModel.phenomenological(0.2))
    batch = sample_batch(model, list(range(13)), 40, seed=3)
    path = str(tmp_path / "wide.txt")
    export_interchange(batch, model, path)
    lines = pathlib.Path(path).read_text().splitlines()
    lines[5] = "1" + lines[5][1:]  # bit 12 is detector 12: still a valid row
    ok = str(tmp_path / "ok.txt")
    pathlib.Path(ok).write_text("\n".join(lines) + "\n")
    _, again = read_interchange(ok)
    assert again.row_bits(12)[4] == 1
    lines[9] = "f" + lines[9][1:]
    bad = str(tmp_path / "bad.txt")
    pathlib.Path(bad).write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match="^row 9: bits set above the header's 13 detectors"):
        read_interchange(bad)
    assert run_cli(["ingest", bad, "--L", "7", "--rounds", "4"]) == 2


# sha256 of every file the commands below write. The CSV and .cells.jsonl
# digests were recorded before a ladder's rungs at one anchor shared one count
# table; the JSON digests when each output came to echo only the config fields
# its command reads, every result in them unchanged. The two sweeps differ
# only in --jobs and their output paths, so sweep-jobs.* equal sweep.*.
PINNED_OUTPUTS = {
    "ingest-rep.json": "c4a85a832ffe4e5c2ffdb7200a26de52c6e1a5567674829226bef8f859eed7bd",
    "ingest-toric.json": "5f474ebde09d9328f20f1ba9002fb92d592d723ae92d61d049a802b081404003",
    "rep-exact.json": "010975fb819b5d75996eede4a7d92c0bd12b738a777715a7fe9e66a570f5df05",
    "rep-ring.json": "cbf0f3dcd81ca73369afa4265b40fe60b8ad8acd0a650322ee28782f42490894",
    "rep.csv": "9e6dea689aca03f2d1661309b36dd6dfe62ecebdad1b61e3cee451bf7adcbdf2",
    "rep.json": "36e31acdf79e4f9a1b53b660dd7d75176ed0e02ec57b34ae00db82734ed3bb12",
    "sweep-jobs.csv": "c9ecc04464108c3e6cdaa615cde045c47c3270f79c12b1b6207d1a051b91e3af",
    "sweep-jobs.json": "200d4fbd911c4f980f2e25f7d23588a01b4971c32e6e937a561ef3d3e754b583",
    "sweep-jobs.json.cells.jsonl": "f1ff3a106646032caa38ea67d57111c22fac17324d060993fd22858a20b4953b",
    "sweep-jobs.json.decoder.csv": "a2438caf3881ccdd9de536481fc23462931c736e2905e08d2bd3e570aa0ce902",
    "sweep.csv": "c9ecc04464108c3e6cdaa615cde045c47c3270f79c12b1b6207d1a051b91e3af",
    "sweep.json": "200d4fbd911c4f980f2e25f7d23588a01b4971c32e6e937a561ef3d3e754b583",
    "sweep.json.cells.jsonl": "f1ff3a106646032caa38ea67d57111c22fac17324d060993fd22858a20b4953b",
    "sweep.json.decoder.csv": "a2438caf3881ccdd9de536481fc23462931c736e2905e08d2bd3e570aa0ce902",
    "toric-ring.json": "74f7f1d530406058f0f774491547568740f7761e8430ca5b166f54c1f9629190",
}

PINNED_COMMANDS = [
    ["run", "--code", "repetition", "--L", "8", "--rounds", "8", "--p", "0.11",
     "--wB-max", "3", "--samples", "20000", "--seed", "7", "--out", "rep.json",
     "--csv", "rep.csv"],
    ["run", "--code", "toric", "--L", "6", "--rounds", "4", "--p", "0.05", "--mode", "ring",
     "--wA", "1", "--wC", "1", "--wB-max", "1", "--samples", "20000", "--seed", "7",
     "--out", "toric-ring.json"],
    ["run", "--code", "repetition", "--L", "8", "--rounds", "5", "--p", "0.11",
     "--mode", "ring", "--wA", "1", "--wC", "1", "--wB-max", "2", "--samples", "20000",
     "--seed", "7", "--out", "rep-ring.json"],
    ["sweep", "--code", "repetition", "--sizes", "6x6,8x8", "--p-grid", "0.07,0.11",
     "--wC", "1", "--wB-max", "2", "--samples", "10000", "--seed", "3",
     "--decoder-shots", "200", "--jobs", "1", "--out", "sweep.json", "--csv", "sweep.csv"],
    ["ingest", "rep-band.txt", "--wB-max", "3", "--out", "ingest-rep.json"],
    ["ingest", "toric-band.txt", "--wB-max", "3", "--out", "ingest-toric.json"],
    ["run", "--code", "repetition", "--L", "8", "--rounds", "8", "--p", "0.11",
     "--method", "exact", "--wB-max", "3", "--out", "rep-exact.json"],
    ["sweep", "--code", "repetition", "--sizes", "6x6,8x8", "--p-grid", "0.07,0.11",
     "--wC", "1", "--wB-max", "2", "--samples", "10000", "--seed", "3",
     "--decoder-shots", "200", "--jobs", "2", "--out", "sweep-jobs.json", "--csv",
     "sweep-jobs.csv"],
]


def pinned_outputs(directory):
    """Run ``PINNED_COMMANDS`` in ``directory``; the sha256 of each file they write."""
    for family, name in (("repetition", "rep-band.txt"), ("toric", "toric-band.txt")):
        make_band_batch(directory, family=family, wB_max=3)
        os.replace(directory / "samples.txt", directory / name)
    inputs = set(os.listdir(directory))
    for args in PINNED_COMMANDS:
        assert run_cli(args) == 0, args
    return {
        name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
        for name in sorted(set(os.listdir(directory)) - inputs)
    }


def test_cli_outputs_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    outputs = pinned_outputs(tmp_path)
    assert outputs == PINNED_OUTPUTS
    # The two sweeps differ only in --jobs and their output paths: equal bytes.
    for name in ("sweep.json", "sweep.json.cells.jsonl", "sweep.json.decoder.csv", "sweep.csv"):
        assert outputs[name.replace("sweep", "sweep-jobs")] == outputs[name]


def write_edited(tmp_path, path, edit):
    """Copy the interchange file ``path`` with ``edit`` applied to its header; the copy's path."""
    lines = pathlib.Path(path).read_text().splitlines()
    header = json.loads(lines[0])
    edit(header)
    lines[0] = json.dumps(header)
    bad = str(tmp_path / "edited.txt")
    pathlib.Path(bad).write_text("\n".join(lines) + "\n")
    return bad


def set_key(key, value):
    return lambda header: header.__setitem__(key, value)


@pytest.mark.parametrize(
    "edit, message",
    [
        (set_key("n_rows", "200"), "'n_rows': '200' is not an integer >= 1"),
        (set_key("n_rows", 200.0), "'n_rows': 200.0 is not an integer >= 1"),
        (set_key("n_rows", -1), "'n_rows': -1 is not an integer >= 1"),
        (set_key("n_rows", 0), "'n_rows': 0 is not an integer >= 1"),
        (set_key("detectors", 5), "'detectors': 5 is not a nonempty list"),
        (set_key("detectors", []), "'detectors': [] is not a nonempty list"),
        (set_key("space_shape", 8), "'space_shape': 8 is not a list of integers >= 1"),
        (set_key("space_shape", [0]), "'space_shape': [0] is not a list of integers >= 1"),
        (set_key("rounds", "8"), "'rounds': '8' is not an integer >= 1"),
        (set_key("rounds", 0), "'rounds': 0 is not an integer >= 1"),
        (set_key("seed", "5"), "'seed': '5' is not an integer"),
        (set_key("model_hash", 3), "'model_hash': 3 is not a string"),
        (lambda h: h["detectors"][3].__setitem__("coords", 3),
         "detector 3: coords 3 are not a list of integers"),
        (lambda h: h["detectors"].__setitem__(2, 7), "detector 2: unknown coordinate scheme 7"),
        (lambda h: h["detectors"][3].__setitem__("coords", [0, 3]),
         "detectors 1 and 3 are both at z-sector coordinates [0, 3]"),
    ],
    ids=["n_rows-str", "n_rows-float", "n_rows-negative", "n_rows-zero", "detectors-int",
         "detectors-empty", "space_shape-int", "space_shape-zero", "rounds-str", "rounds-zero",
         "seed-str", "model_hash-int", "coords-int", "detector-int", "coords-repeated"],
)
def test_ingest_refuses_malformed_header(tmp_path, capsys, edit, message):
    _, _, _, path = make_band_batch(tmp_path, n=20)
    bad = write_edited(tmp_path, path, edit)
    with pytest.raises(ConfigError, match=re.escape(message)):
        read_interchange(bad)
    out = str(tmp_path / "o.json")
    assert run_cli(["ingest", bad, "--out", out]) == 2
    assert message in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("content", [None, "L=8\nrounds=8\n", '{"L": 8'],
                         ids=["directory", "key-value", "truncated"])
@pytest.mark.parametrize("command", [["run"], ["ingest", "samples.txt"]],
                         ids=["run", "ingest"])
def test_config_file_not_json_rejected(tmp_path, capsys, content, command):
    path = tmp_path / "cfg"
    if content is None:
        path.mkdir()
    else:
        path.write_text(content)
    assert run_cli(command + ["--config", str(path)]) == 2
    assert f"config file {str(path)!r}" in capsys.readouterr().err


def test_ingest_honours_estimator(tmp_path):
    model, batch, band, path = make_band_batch(tmp_path, wB_max=3)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"estimator": "none"}))
    points = {}
    for name, extra in (("none", ["--config", str(cfg)]), ("default", [])):
        out = str(tmp_path / f"{name}.json")
        assert run_cli(["ingest", path, "--wB-max", "3", "--out", out] + extra) == 0
        payload = json.loads(pathlib.Path(out).read_text())
        assert sorted(payload["config"]) == sorted(
            ["wA", "wB_max", "wC", "mode", "method", "estimator"]
        )
        points[name] = payload["points"]
    anchor = tuple((size - 2) // 2 for size in model.code.space_shape) + (
        ladder_anchor_t0(model.rounds, 3),
    )
    tris = [
        build_tripartition(model, wA=2, wB=wB, wC=2, anchor=anchor, mode="strip", cap=64,
                           bulk_margin=0)
        for wB in (1, 2, 3)
    ]
    expected = _point_records(ladder_from_batch(batch, tris, correction=False))
    assert points["none"] == json.loads(json.dumps(expected))
    assert points["none"] != points["default"]


@pytest.mark.parametrize(
    "flags, config, message",
    [
        (["--mode", "ring"], {}, "config key 'mode': ingest runs only the strip ladder"),
        (["--method", "exact"], {}, "config key 'method': ingest runs only the sampled ladder"),
        (["--csv", "x.csv"], {}, "config key 'csv': ingest writes no CSV"),
        ([], {"csv": "x.csv"}, "config key 'csv': ingest writes no CSV"),
    ],
    ids=["flags0-mode", "flags1-method", "csv-flag", "csv-config"],
)
def test_ingest_refuses_settings_it_cannot_honour(tmp_path, capsys, flags, config, message):
    _, _, _, path = make_band_batch(tmp_path, n=50)
    cfg = str(tmp_path / "cfg.json")
    pathlib.Path(cfg).write_text(json.dumps(config))
    out = str(tmp_path / "o.json")
    assert exit_code_in(tmp_path, ["ingest", path, "--config", cfg, "--out", out] + flags,
                        {}) == 2
    assert message in capsys.readouterr().err
    assert not os.path.exists(out)
    assert not os.path.exists(tmp_path / "x.csv")


def test_ingest_with_no_rung_exits_2(tmp_path, capsys):
    _, _, _, path = make_band_batch(tmp_path, n=50)
    out = str(tmp_path / "o.json")
    assert run_cli(["ingest", path, "--wA", "9", "--out", out]) == 2
    assert ("no rung of the ladder fits the samples; wB=1: block width 9 exceeds lattice "
            "extent 8") in capsys.readouterr().err
    assert not os.path.exists(out)


def test_ingest_all_zero_ladder_is_a_gap_like_a_sweep_cell(tmp_path):
    quiet = NoiseModel(p_x=0.0, p_z=0.0, q=0.0)
    model = build_detector_model(repetition_code(8), 8, quiet)
    t0 = ladder_anchor_t0(model.rounds, 3)
    band = [i for i, d in enumerate(model.detectors) if t0 <= d.t <= t0 + 6]
    path = str(tmp_path / "quiet.txt")
    export_interchange(sample_batch(model, band, 500, seed=1), model, path)
    out = str(tmp_path / "o.json")
    assert run_cli(["ingest", path, "--wB-max", "3", "--out", out]) == 0
    payload = json.loads(pathlib.Path(out).read_text())
    assert [pt["cmi_bits"] for pt in payload["points"]] == [0.0, 0.0, 0.0]
    cell, = sweep_cells("repetition", [(8, 8, 0.0)], q=0.0, ladder=(1, 2, 3), n=500)
    assert payload["fit"] == {"error": "all CMI at zero"} == _cell_record(cell)["fit"]


# -- bad input never raises: every command exits 0 or 2 -------------------------

# A JSON value of any type: header keys and detector fields are replaced by these.
ANY_JSON = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.sampled_from(["", "x", "z", "8", "0x1f"]),
    st.lists(st.integers(-2, 9), max_size=3),
    st.dictionaries(st.sampled_from(["coords", "sector", "a"]), st.integers(-2, 9), max_size=2),
)
# Config values: small integers, since a valid config with many samples or a
# deep ladder is a long run, not bad input. For the same reason a mutated
# config keeps its ``samples`` key (the default is 10^6).
CONFIG_VALUE = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 9),
    st.sampled_from([0.0, 0.05, 0.1, 0.5, 0.7, -0.1, math.nan, math.inf]),
    st.sampled_from(["", "x", "toric", "repetition", "ring", "strip", "exact", "sampled",
                     "none", "miller_madow"]),
    st.lists(st.integers(0, 3), max_size=2), st.just({}),
)
CONFIG_KEYS = [f.name for f in dataclasses.fields(ExperimentConfig)] + ["bogus"]


@functools.lru_cache(maxsize=None)
def small_interchange_text():
    with tempfile.TemporaryDirectory() as d:
        _, _, _, path = make_band_batch(pathlib.Path(d), n=40, wB_max=2)
        return pathlib.Path(path).read_text()


@st.composite
def mutated_configs(draw, base):
    """``base`` with some keys dropped and some set to arbitrary values, or not JSON at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(["", "L=8", "[1, 2]", '{"L": ', "null"]))
    cfg = {k: v for k, v in base.items() if k == "samples" or draw(st.integers(0, 7))}
    for key in draw(st.lists(st.sampled_from(CONFIG_KEYS), max_size=3)):
        cfg[key] = draw(CONFIG_VALUE)
    return json.dumps(cfg)


@st.composite
def mutated_interchange(draw):
    """The small interchange file with its header keys and rows edited at random."""
    lines = small_interchange_text().splitlines()
    header = json.loads(lines[0])
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from(sorted(header) + ["n_rows", "space_shape", "rounds"]))
        action = draw(st.sampled_from(["delete", "replace", "detector"]))
        if action == "delete":
            header.pop(key, None)
        elif action == "replace":
            header[key] = draw(ANY_JSON)
        elif isinstance(header.get("detectors"), list) and header["detectors"]:
            i = draw(st.integers(0, len(header["detectors"]) - 1))
            rec = header["detectors"][i]
            field = draw(st.sampled_from(["sector", "check", "round", "coords", None]))
            if field is None or not isinstance(rec, dict):
                header["detectors"][i] = draw(ANY_JSON)
            elif draw(st.booleans()):
                rec.pop(field, None)
            else:
                rec[field] = draw(ANY_JSON)
    lines[0] = json.dumps(header)
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(lines)))
        action = draw(st.sampled_from(["cut", "alter", "delete", "insert"]))
        new = draw(st.text(alphabet="0123456789abcdefgx é", max_size=12))
        if action == "cut":
            lines = lines[:i]
        elif action == "insert":
            lines.insert(i, new)
        elif i < len(lines):
            lines[i:i + 1] = [new] if action == "alter" else []
    return "\n".join(lines) + "\n"


def exit_code_in(directory, argv, files):
    """``main(argv)`` run in ``directory`` after writing ``files`` there."""
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for name, text in files.items():
            pathlib.Path(name).write_text(text, encoding="utf-8")
        return main(argv)
    finally:
        os.chdir(cwd)


@settings(max_examples=150, deadline=None)
@given(mutated_interchange(), mutated_configs({"wB_max": 2, "estimator": "miller_madow"}))
def test_ingest_of_bad_input_exits_0_or_2(samples, config):
    with tempfile.TemporaryDirectory() as d:
        code = exit_code_in(d, ["ingest", "samples.txt", "--config", "cfg.json"],
                            {"samples.txt": samples, "cfg.json": config})
    assert code in (0, 2)


RUN_CONFIG = {"code": "repetition", "L": 6, "rounds": 8, "p": 0.1, "wA": 1, "wC": 1,
              "wB_max": 2, "samples": 300, "seed": 1}


@settings(max_examples=150, deadline=None)
@given(mutated_configs(RUN_CONFIG))
def test_run_of_bad_config_exits_0_or_2(config):
    with tempfile.TemporaryDirectory() as d:
        code = exit_code_in(d, ["run", "--config", "cfg.json"], {"cfg.json": config})
    assert code in (0, 2)


# A tiny sweep: one rung and few samples, so each example costs milliseconds.
SWEEP_FLAGS = ["sweep", "--code", "repetition", "--wA", "1", "--wC", "1", "--wB-max", "1",
               "--samples", "200", "--seed", "1", "--out", "sweep.json"]
# Sizes and error rates as `--sizes` and `--p-grid` spell them, or garbage.
SIZE_TEXT = st.one_of(
    st.sampled_from(["6x6", "8x4"]),
    st.builds("{}x{}".format, st.integers(-1, 9), st.integers(-1, 9)),
    st.text(alphabet="0123456789x,. -", max_size=4),
)
P_TEXT = st.one_of(
    st.sampled_from(["0.05", "0.1", "0.0", "0.5", "0.7", "-0.1", "nan", "inf", "1e-3"]),
    st.floats(0.0, 0.5).map(repr),
    st.text(alphabet="0123456789.,e-nai ", max_size=5),
)


XI_VALUE = st.one_of(ANY_JSON, st.floats(0.0, 3.0), st.sampled_from([10**400, -(10**400)]))


@functools.lru_cache(maxsize=None)
def small_progress_lines():
    """The progress records of a finished tiny sweep of 6x6 at p = 0.05, 0.07 and 0.1."""
    with tempfile.TemporaryDirectory() as d:
        code = exit_code_in(d, SWEEP_FLAGS + ["--sizes", "6x6", "--p-grid", "0.05,0.07,0.1"], {})
        assert code == 0
        return tuple(pathlib.Path(d, "sweep.json.cells.jsonl").read_text().splitlines())


@st.composite
def progress_files(draw):
    """No progress file, arbitrary text, or the tiny sweep's records edited at random."""
    kind = draw(st.sampled_from(["none", "text", "records", "records"]))
    if kind == "none":
        return None
    if kind == "text":
        return draw(st.text(alphabet='{}[]":,0123456789abcxyz \n', max_size=40))
    lines = list(small_progress_lines())
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1)) if lines else 0
        action = draw(st.sampled_from(["field", "point", "add", "xi", "line", "cut", "copy"]))
        if action == "cut" or not lines:
            lines = lines[:i]
            continue
        if action == "copy":
            lines.insert(i, lines[i])
            continue
        if action == "line":
            lines[i] = draw(st.text(alphabet='{}[]":,0123456789x ', max_size=12))
            continue
        try:
            rec = json.loads(lines[i])
        except ValueError:
            continue
        if not isinstance(rec, dict):
            continue
        if action == "field":
            key = draw(st.sampled_from(["L", "T", "p", "points", "fit", "key"]))
            if draw(st.booleans()):
                rec.pop(key, None)
            else:
                rec[key] = draw(ANY_JSON)
        elif action == "add":
            # A key no fresh record holds, on the record, its fit or one of its points.
            points = rec["points"] if isinstance(rec.get("points"), list) else []
            targets = [t for t in [rec, rec.get("fit"), *points] if isinstance(t, dict)]
            target = draw(st.sampled_from(targets))
            target[draw(st.sampled_from(["bogus", "junk"]))] = draw(ANY_JSON)
        elif action == "xi":
            # Every record gets a fitted xi, so that the peaks are interpolated.
            for k, line in enumerate(lines):
                if line.startswith("{") and '"fit": {' in line:
                    other = json.loads(line)
                    other["fit"]["xi"] = draw(XI_VALUE)
                    lines[k] = json.dumps(other)
            continue
        elif isinstance(rec.get("points"), list) and rec["points"]:
            j = draw(st.integers(0, len(rec["points"]) - 1))
            point = rec["points"][j]
            key = draw(st.sampled_from(sorted(point) if isinstance(point, dict) else [None]))
            if key is None:
                rec["points"][j] = draw(ANY_JSON)
            else:
                point[key] = draw(ANY_JSON)
        lines[i] = json.dumps(rec)
    return "\n".join(lines) + "\n"


FINITE = st.floats(allow_nan=False, allow_infinity=False)
CMI_POINTS = st.builds(
    CmiPoint, dist=st.integers(), cmi=FINITE, std_error=FINITE, method=st.text(max_size=8),
    n_samples=st.integers(1, 10**6), descriptor=st.fixed_dictionaries({"wB": st.integers()}),
    support_abc=st.integers(), reliable=st.booleans(),
)
MARKOV_FITS = st.builds(
    MarkovFit, xi=FINITE, xi_stderr=FINITE, slope_log2=FINITE, slope_stderr=FINITE,
    r_squared=FINITE, window=st.tuples(st.integers(), st.integers()), n_used=st.integers(),
    points=st.just([]),
)


@st.composite
def computed_cells(draw):
    """A SweepCell of 0-4 CMI points with a fit, or with the reason it has none."""
    fit = draw(st.one_of(st.none(), MARKOV_FITS))
    return SweepCell(
        L=draw(st.integers()), T=draw(st.integers()), p=draw(FINITE),
        points=draw(st.lists(CMI_POINTS, max_size=4)), fit=fit,
        fit_error=None if fit else draw(st.text(max_size=12)),
    )


# Every field a fresh progress record, its points or its fit can hold.
RECORD_FIELDS = {"key", "L", "T", "p", "points", "fit", "wB", "dist", "cmi_bits", "cmi_stderr",
                 "support_abc", "reliable", "method", "xi", "xi_stderr", "slope_log2",
                 "slope_stderr", "r_squared", "window", "n_used", "error"}


def read_back(rec):
    """``rec``, written under a key as a sweep writes it, read back by ``_read_progress``."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "sweep.json.cells.jsonl")
        pathlib.Path(path).write_text(json.dumps({**rec, "key": "k"}, sort_keys=True) + "\n")
        return _read_progress(path, "k")


@settings(max_examples=200, deadline=None)
@given(cell=computed_cells(), data=st.data())
def test_progress_record_reads_back_and_refuses_each_mutation(cell, data):
    rec = json.loads(json.dumps(_cell_record(cell)))
    assert read_back(_cell_record(cell)) == {(cell.L, cell.T, cell.p): rec}
    # One mutation of the record, one of its points or its fit names the field.
    parts = [("cell record", rec), ("cell record fit", rec["fit"])]
    parts += [(f"cell record point {j}", pt) for j, pt in enumerate(rec["points"])]
    what, target = data.draw(st.sampled_from(parts))
    action = data.draw(st.sampled_from(["drop", "retype", "add"]))
    if action == "add":
        name = data.draw(st.text(max_size=6).filter(lambda k: k not in RECORD_FIELDS))
        target[name] = data.draw(ANY_JSON)
        message = f"{what} has a field {name!r} it cannot hold"
    else:
        name = data.draw(st.sampled_from(sorted(target)))
        if action == "drop":
            del target[name]
        else:
            target[name] = data.draw(st.sampled_from(
                [v for v in (None, True, "x", [], {}) if type(v) is not type(target[name])]))
        # A failed fit without its reason reads as a fit without its first field.
        refused = "xi" if (what, name, action) == ("cell record fit", "error", "drop") else name
        message = f"{what} field {refused!r} is not"
    with pytest.raises(ConfigError) as exc:
        read_back(rec)
    assert f"line 1: {message}" in str(exc.value)


@settings(max_examples=150, deadline=None)
@given(
    sizes=st.one_of(st.just("6x6"), st.lists(SIZE_TEXT, max_size=3).map(",".join)),
    p_grid=st.one_of(st.sampled_from(["0.05,0.07,0.1", "0.1,0.05"]),
                     st.lists(P_TEXT, max_size=3).map(",".join)),
    progress=progress_files(),
    decoder_shots=st.sampled_from(["0", "20"]),
)
def test_sweep_of_bad_input_exits_0_or_2(sizes, p_grid, progress, decoder_shots):
    files = {} if progress is None else {"sweep.json.cells.jsonl": progress}
    # The `--flag=value` spelling passes a value that starts with "-" as is.
    argv = SWEEP_FLAGS + [f"--sizes={sizes}", f"--p-grid={p_grid}",
                          "--decoder-shots", decoder_shots, "--csv", "sweep.csv", "--resume"]
    with tempfile.TemporaryDirectory() as d:
        code = exit_code_in(d, argv, files)
    assert code in (0, 2)
