"""Command line behavior: validation, determinism, formats, exit codes."""
import gc
import hashlib
import importlib
import json
import math
import os
import pickle
import re
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
import yaml

import bmbodies
from bmbodies import cli
from bmbodies import gauge as gauge_module
from bmbodies.bodies import body_to_text, cap_body
from bmbodies.concentration import mc_small_ball
from bmbodies.distance import separation_scale
from bmbodies.randmodel import ModelParams, sample_body, substream
from bmbodies.symnet import SymmetricBody, build_net, lp_body, net_lines


def _cfg(tmp_path, doc, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def _src_env():
    """os.environ with this checkout's package first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(cli.__file__))]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


def _read_records(out_dir, command):
    path = os.path.join(out_dir, f"{command}-records.jsonl")
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


_CONC_DOC = {
    "command": "conc",
    "params": {
        "n": 12,
        "m": 3,
        "trials": 3000,
        "statistic": "quadratic",
        "matrix": "e11",
        "thresholds": [0.1, 0.4, 0.6, 0.9, 1.2],
    },
}


def test_validation_reports_every_error(tmp_path, capsys):
    cfg = _cfg(
        tmp_path,
        {
            "command": "conc",
            "mystery": 1,
            "seed": -4,
            "constants": {"c9": 2.0},
            "params": {"n": 12, "trials": 100, "statistic": "quadratic", "bogus": True},
        },
    )
    code = cli.main(["conc", "--config", cfg])
    err = capsys.readouterr().err
    assert code == cli.EXIT_VALIDATION
    assert "config.mystery: unknown key" in err
    assert "seed:" in err
    assert "constants.c9: unknown constant" in err
    assert "params.bogus" in err
    # m/delta requirement is part of the same exhaustive report
    assert "delta" in err or "m" in err


def test_validation_rejects_command_mismatch(tmp_path, capsys):
    cfg = _cfg(tmp_path, _CONC_DOC)
    code = cli.main(["sample", "--config", cfg])
    err = capsys.readouterr().err
    assert code == cli.EXIT_VALIDATION
    assert "config.command" in err


def test_svg_is_limited_to_plot_commands(tmp_path, capsys):
    cfg = _cfg(
        tmp_path,
        {"command": "sample", "params": {"n": 8, "delta": 0.5, "n_subsets": 2, "count": 1}},
    )
    code = cli.main(["sample", "--config", cfg, "--format", "svg", "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_VALIDATION
    assert "svg" in capsys.readouterr().err


def test_missing_config_file_is_a_validation_error(tmp_path, capsys):
    code = cli.main(["conc", "--config", str(tmp_path / "absent.yaml")])
    assert code == cli.EXIT_VALIDATION
    assert "cannot read" in capsys.readouterr().err


def test_conc_payloads_identical_across_worker_counts(tmp_path):
    # the second config leaves thresholds to the pilot draw
    unset = dict(_CONC_DOC["params"], matrix="gaussian", trials=9000, thresholds=None)
    for k, doc in enumerate((_CONC_DOC, dict(_CONC_DOC, params=unset))):
        cfg = _cfg(tmp_path, doc, name=f"cfg{k}.yaml")
        outs = []
        for workers in (1, 2):
            out = str(tmp_path / f"c{k}-w{workers}")
            assert (
                cli.main(
                    ["conc", "--config", cfg, "--workers", str(workers), "--out", out,
                     "--seed", "9"]
                )
                == cli.EXIT_OK
            )
            outs.append(_read_records(out, "conc"))
        a, b = outs
        assert len(a) == len(b) > 0
        assert [r["payload"] for r in a] == [r["payload"] for r in b]


@pytest.mark.parametrize("statistic", ["small_ball", "large_deviation"])
def test_conc_block_statistics_merge_identically_across_worker_counts(tmp_path, statistic):
    # 10,000 trials run as three blocks, so every statistic's merge runs
    params = {"n": 30, "m": 8, "trials": 10000, "statistic": statistic, "matrix": "gaussian"}
    cfg = _cfg(tmp_path, {"command": "conc", "seed": 4, "params": params})
    payloads = []
    for workers in (1, 2):
        out = str(tmp_path / f"w{workers}")
        argv = ["conc", "--config", cfg, "--workers", str(workers), "--out", out]
        assert cli.main(argv) == cli.EXIT_OK
        payloads.append([r["payload"] for r in _read_records(out, "conc")])
    assert payloads[0] == payloads[1]
    (pl,) = payloads[0]
    assert pl["trials"] == 10000
    if statistic == "small_ball":
        mat = cli._conc_matrix("gaussian", 30, None, 4, 0)
        sizes = [cli.BLOCK_TRIALS, cli.BLOCK_TRIALS, 10000 - 2 * cli.BLOCK_TRIALS]
        streams = [substream(4, f"conc/0/trial-block/{i}") for i in range(3)]
        counts = [mc_small_ball(mat, 30, 8, size, stream=rng).count
                  for size, rng in zip(sizes, streams)]
        assert pl["counts"] == [sum(counts)]


def test_conc_takes_one_spectral_norm_per_replicate(tmp_path, monkeypatch):
    # 9,000 trials run as three blocks; the bound shape is built once per
    # replicate from the blocks' tallies, not once per block
    from bmbodies import concentration

    calls, real = [], concentration.spectral_norm

    def counted(a):
        calls.append(a.shape)
        return real(a)

    monkeypatch.setattr(concentration, "spectral_norm", counted)
    params = dict(_CONC_DOC["params"], trials=9000, replicates=2)
    cfg = _cfg(tmp_path, dict(_CONC_DOC, params=params))
    out = str(tmp_path / "out")
    assert cli.main(["conc", "--config", cfg, "--workers", "1", "--out", out]) == cli.EXIT_OK
    assert len(_read_records(out, "conc")) == 2
    assert calls == [(12, 12)] * 2


def test_record_envelope_fields(tmp_path):
    cfg = _cfg(tmp_path, _CONC_DOC)
    out = str(tmp_path / "env")
    assert cli.main(["conc", "--config", cfg, "--out", out, "--seed", "5"]) == cli.EXIT_OK
    recs = _read_records(out, "conc")
    for rec in recs:
        assert re.fullmatch(r"[0-9a-f]{64}", rec["config_hash"])
        assert rec["experiment_id"] == "conc-" + rec["config_hash"][:12]
        assert rec["seed"] == 5
        assert rec["stream"].startswith("conc/")
        # no wall-clock field: a record is a function of config, seed and source
        assert set(rec) == {"config_hash", "experiment_id", "kind", "payload", "seed", "stream"}
    curve = next(r for r in recs if r["kind"] == "quadratic")
    pay = curve["payload"]
    assert pay["trials"] == 3000
    assert len(pay["thresholds"]) == len(pay["counts"]) == len(pay["p_hat"])
    assert pay["center"] == pytest.approx(3.0 / 12.0)


def test_seed_changes_the_draws(tmp_path):
    doc = dict(_CONC_DOC, params=dict(_CONC_DOC["params"], matrix="gaussian", trials=400))
    cfg = _cfg(tmp_path, doc)
    payloads = []
    for seed in (1, 2):
        out = str(tmp_path / f"s{seed}")
        assert cli.main(["conc", "--config", cfg, "--out", out, "--seed", str(seed)]) == cli.EXIT_OK
        payloads.append([r["payload"] for r in _read_records(out, "conc")])
    assert payloads[0] != payloads[1]


def test_conc_csv_layout(tmp_path):
    cfg = _cfg(tmp_path, _CONC_DOC)
    out = str(tmp_path / "csv")
    assert cli.main(["conc", "--config", cfg, "--out", out, "--format", "csv"]) == cli.EXIT_OK
    lines = open(os.path.join(out, "conc-records.csv"), encoding="utf-8").read().strip().splitlines()
    assert lines[0].startswith("replicate,")
    assert len(lines) == 1 + len(_CONC_DOC["params"]["thresholds"])


def test_conc_svg_structure(tmp_path):
    cfg = _cfg(tmp_path, _CONC_DOC)
    out = str(tmp_path / "svg")
    assert cli.main(["conc", "--config", cfg, "--out", out, "--format", "svg"]) == cli.EXIT_OK
    art = open(os.path.join(out, "conc-plot.svg"), encoding="utf-8").read()
    n_thr = len(_CONC_DOC["params"]["thresholds"])
    assert art.count('<circle class="empirical') == n_thr
    assert art.count('<line class="band"') == n_thr
    assert art.count('<polyline class="bound"') == 1


def test_conc_svg_puts_every_replicate_on_one_axis_under_one_label(tmp_path):
    params = {"n": 20, "m": 5, "trials": 2000, "statistic": "quadratic",
              "matrix": "gaussian", "replicates": 2}
    cfg = _cfg(tmp_path, {"command": "conc", "params": params})
    out = str(tmp_path / "svg")
    assert cli.main(["conc", "--config", cfg, "--out", out, "--format", "svg"]) == cli.EXIT_OK
    art = open(os.path.join(out, "conc-plot.svg"), encoding="utf-8").read()
    fits = [r["payload"]["fitted_c"] for r in _read_records(out, "conc")]
    assert re.findall(r'<text class="label"[^>]*>([^<]*)<', art) == [
        "fitted c = " + ", ".join(f"{c:.6g}" for c in fits)
    ]
    # the pilots give each replicate its own thresholds; one shared log-x
    # range puts only the smallest of them all on the frame's left edge
    thresholds = [r["payload"]["thresholds"] for r in _read_records(out, "conc")]
    assert thresholds[0][0] != thresholds[1][0]
    xs = [float(x) for x in re.findall(r'<circle class="empirical[^"]*" r="3" cx="([^"]*)"', art)]
    assert len(xs) == sum(len(t) for t in thresholds)
    assert sum(x == cli._SVG_PAD for x in xs) == 1


def test_small_ball_records_fit_c_against_the_wilson_upper_bound(tmp_path):
    params = {"n": 12, "m": 3, "trials": 3000, "statistic": "small_ball", "matrix": "e11"}
    cfg = _cfg(tmp_path, {"command": "conc", "seed": 6, "params": params})
    out = str(tmp_path / "sb")
    assert cli.main(["conc", "--config", cfg, "--out", out]) == cli.EXIT_OK
    (rec,) = _read_records(out, "conc")
    # 3,000 trials are one block, drawn from the block's own stream
    est = mc_small_ball(cli._conc_matrix("e11", 12, None, 6, 0), 12, 3, 3000,
                        stream=substream(6, "conc/0/trial-block/0"))
    pl = rec["payload"]
    assert pl["counts"] == [est.count] and 0 < est.count < 3000
    assert pl["fitted_c"] == est.fitted_c()
    # the fitted bound lands on the Wilson upper edge, above the point estimate
    assert math.isclose(pl["bound_at_fit"][0], pl["wilson_hi"][0], rel_tol=1e-12)
    assert pl["wilson_hi"][0] > pl["p_hat"][0]


def test_every_statistic_writes_one_record_layout(tmp_path):
    keys = {}
    for statistic in ("quadratic", "small_ball", "large_deviation"):
        params = {"n": 12, "m": 3, "trials": 500, "statistic": statistic, "matrix": "gaussian"}
        cfg = _cfg(tmp_path, {"command": "conc", "params": params}, name=f"{statistic}.yaml")
        out = str(tmp_path / statistic)
        assert cli.main(["conc", "--config", cfg, "--out", out]) == cli.EXIT_OK
        (rec,) = _read_records(out, "conc")
        keys[statistic] = set(rec["payload"])
    assert keys["quadratic"] - {"center"} == keys["small_ball"] == keys["large_deviation"]
    assert "center" in keys["quadratic"]


def test_small_ball_svg_draws_each_replicate_point_and_band(tmp_path):
    params = {"n": 20, "m": 5, "trials": 2000, "statistic": "small_ball",
              "matrix": "gaussian", "replicates": 2}
    cfg = _cfg(tmp_path, {"command": "conc", "params": params})
    out = str(tmp_path / "svg")
    assert cli.main(["conc", "--config", cfg, "--out", out, "--format", "svg"]) == cli.EXIT_OK
    art = open(os.path.join(out, "conc-plot.svg"), encoding="utf-8").read()
    assert art.count('<circle class="empirical') == 2
    assert art.count('<line class="band"') == 2
    fits = [r["payload"]["fitted_c"] for r in _read_records(out, "conc")]
    assert re.findall(r'<text class="label"[^>]*>([^<]*)<', art) == [
        "fitted c = " + ", ".join(f"{c:.6g}" for c in fits)
    ]


def test_sample_emits_bodies_and_gauge_brackets_points(tmp_path):
    sample_cfg = _cfg(
        tmp_path,
        {"command": "sample", "params": {"n": 8, "delta": 0.5, "n_subsets": 2, "count": 2}},
        name="sample.yaml",
    )
    out = str(tmp_path / "sample")
    assert cli.main(["sample", "--config", sample_cfg, "--out", out]) == cli.EXIT_OK
    recs = _read_records(out, "sample")
    assert sum(r["kind"] == "body" for r in recs) == 2
    gauge_cfg = _cfg(
        tmp_path,
        {
            "command": "gauge",
            "params": {"n": 8, "delta": 0.5, "n_subsets": 2, "count": 1, "points": 3},
        },
        name="gauge.yaml",
    )
    out2 = str(tmp_path / "gauge")
    assert cli.main(["gauge", "--config", gauge_cfg, "--out", out2]) == cli.EXIT_OK
    vals = [r["payload"] for r in _read_records(out2, "gauge") if r["kind"] == "gauge"]
    assert len(vals) == 3
    for v in vals:
        assert 0.0 <= v["lo"] <= v["hi"]


def test_dist_reports_certified_pair(tmp_path):
    cfg = _cfg(
        tmp_path,
        {
            "command": "dist",
            "params": {"n": 6, "delta": 0.5, "n_subsets": 2, "refine": False, "n_diag": 2},
        },
    )
    out = str(tmp_path / "dist")
    assert cli.main(["dist", "--config", cfg, "--out", out]) == cli.EXIT_OK
    recs = _read_records(out, "dist")
    kinds = sorted(r["kind"] for r in recs)
    assert kinds == ["bm_upper", "op_norm"]
    bm = next(r["payload"] for r in recs if r["kind"] == "bm_upper")
    assert bm["upper"] >= 1.0 - 1e-9


def test_dist_certifies_boxes_above_the_sign_cutoff(tmp_path):
    # subsets of 18 coordinates: every box is above the enumeration cutoff,
    # and the domination bound still certifies each candidate's norms
    cfg = _cfg(
        tmp_path,
        {"command": "dist", "params": {"n": 18, "delta": 1.0, "n_subsets": 2}},
    )
    out = str(tmp_path / "dist18")
    assert cli.main(["dist", "--config", cfg, "--out", out]) == cli.EXIT_OK
    recs = _read_records(out, "dist")
    bm = next(r["payload"] for r in recs if r["kind"] == "bm_upper")
    assert 1.0 - 1e-9 <= bm["upper"] < float("inf")
    op = next(r["payload"] for r in recs if r["kind"] == "op_norm")
    assert op["hi"] < float("inf")


def test_separate_csv_is_a_symmetric_matrix(tmp_path):
    cfg = _cfg(
        tmp_path,
        {
            "command": "separate",
            "params": {"n": 6, "delta": 0.5, "n_subsets": 2, "bodies": 3, "refine": False, "n_diag": 2},
        },
    )
    out = str(tmp_path / "sep")
    assert cli.main(["separate", "--config", cfg, "--out", out, "--format", "csv"]) == cli.EXIT_OK
    lines = open(os.path.join(out, "separate-records.csv"), encoding="utf-8").read().strip().splitlines()
    assert len(lines) == 4  # header plus one row per body
    rows = [ln.split(",")[1:] for ln in lines[1:]]
    mat = np.array([[float(x) for x in row] for row in rows])
    np.testing.assert_allclose(mat, mat.T)
    np.testing.assert_allclose(np.diag(mat), 1.0)


def test_separate_cap_bodies_identical_across_worker_counts(tmp_path):
    cfg = _cfg(
        tmp_path,
        {
            "command": "separate",
            "params": {"n": 6, "delta": 0.5, "n_subsets": 2, "bodies": 3, "kind": "cap",
                       "refine": False, "n_diag": 2},
        },
    )
    runs = []
    for workers in (1, 2):
        out = str(tmp_path / f"w{workers}")
        assert cli.main(
            ["separate", "--config", cfg, "--workers", str(workers), "--out", out]
        ) == cli.EXIT_OK
        runs.append([(r["stream"], r["kind"], r["payload"])
                     for r in _read_records(out, "separate")])
    assert runs[0] == runs[1]
    summary = runs[0][0][2]
    assert summary["pairs_done"] == 3 and summary["missing_pairs"] == []
    assert summary["predicted_scale"] == separation_scale(1.0, 0.5)
    pairs = {(p["i"], p["j"]): p["upper"] for _, kind, p in runs[0] if kind == "pair"}
    assert list(pairs) == [(0, 1), (0, 2), (1, 2)]
    for (i, j), upper in pairs.items():
        assert summary["matrix"][i][j] == summary["matrix"][j][i] == upper >= 1.0


_MODEL = {"n": 6, "delta": 0.5, "n_subsets": 2}
_CONC = {"n": 6, "m": 2, "trials": 100, "statistic": "quadratic"}


@pytest.mark.parametrize(
    "command, params, flags, needle",
    [
        ("separate", {"n": 6, "delta": 0.5, "n_subsets": 2, "bodies": 2, "sign_cutoff": 4},
         [], "params.sign_cutoff"),
        ("dist", dict(_MODEL, n_diag=None), [], "params.n_diag"),
        ("dist", {"n": 4, "delta": 0.5, "n_subsets": 2, "mode": "exhaustive"},
         [], "params.mode"),
        ("dist", {"n": 4, "delta": 0.5, "n_subsets": 2, "sign_cutoff": 16},
         [], "params.sign_cutoff"),
        # bm_upper has no refinement search to switch on
        ("dist", dict(_MODEL, refine=True), [], "params.refine: must be false"),
        ("separate", dict(_MODEL, bodies=2, refine=True), [], "params.refine: must be false"),
        ("net", {"n": 6, "tau": 2.0}, ["--cap-enumeration", "5"], "--cap-enumeration"),
        ("sample", dict(_MODEL, count=None), [], "params.count"),
        ("sample", dict(_MODEL, count=1, kind=None), [], "params.kind"),
        ("conc", dict(_CONC, n=None), [], "params.n"),
        ("conc", dict(_CONC, matrix=None), [], "params.matrix"),
        ("gauge", dict(_MODEL, count=1, points=1, tol=None), [], "params.tol"),
        ("conc", _CONC, [], "constants.c0"),
        ("gauge", dict(_MODEL, count=1, points=1), [], "constants.c1"),
        ("conc", dict(_CONC, delta=0.5), [], "params.delta"),
        ("net", {"n": 6, "tau": 2.0, "t": 3.0}, [], "params.t"),
        ("conc", dict(_CONC, matrix="identity", diag=[1.0] * 6), [], "params.diag"),
        ("conc", dict(_CONC, statistic="small_ball", thresholds=[0.5, 1.0]), [],
         "params.thresholds"),
    ],
)
def test_settings_that_reach_no_code_are_rejected(tmp_path, capsys, command, params, flags,
                                                   needle):
    doc = {"command": command, "params": params}
    if needle.startswith("constants."):  # the config sets the constant the needle names
        doc["constants"] = {needle.split(".")[1]: 1.0}
    cfg = _cfg(tmp_path, doc)
    out = str(tmp_path / "out")
    try:
        code = cli.main([command, "--config", cfg, "--out", out] + flags)
    except SystemExit as exc:  # argparse refuses unknown flags itself
        code = exc.code
    assert code == cli.EXIT_VALIDATION
    assert needle in capsys.readouterr().err
    assert not os.path.exists(out)


# (command, params, format, csv header, rows): one csv row per record (a
# small-ball record too), but five quantities for dist and one per
# certificate for net; svg bars per bin
_VIEWS = [
    ("sample", dict(_MODEL, count=2), "csv",
     "index,file,kind,n,m,n_subsets,covers_all", 2),
    ("gauge", dict(_MODEL, count=1, points=3), "csv", "body,point,lo,hi,width,rounds", 3),
    ("dist", dict(_MODEL, n_diag=1), "csv", "kind,quantity,value", 5),
    ("net", {"n": 6, "tau": 2.0, "p_values": [1.0, 2.0, "inf"], "samples": 50}, "csv",
     "kind,member,representative,granted,max_ratio", 3),
    ("separate", dict(_MODEL, bodies=3, n_diag=1, bins=5), "svg", None, 5),
    ("conc", dict(_CONC, statistic="small_ball", replicates=2), "csv",
     "replicate,statistic,threshold,count,trials,p_hat,wilson_lo,wilson_hi,shape,admissible", 2),
]


@pytest.mark.parametrize("command, params, fmt, header, rows", _VIEWS,
                         ids=[v[0] for v in _VIEWS])
def test_csv_and_svg_views_have_their_documented_layout(tmp_path, command, params, fmt,
                                                         header, rows):
    cfg = _cfg(tmp_path, {"command": command, "params": params})
    out = str(tmp_path / "view")
    assert cli.main([command, "--config", cfg, "--out", out, "--format", fmt]) == cli.EXIT_OK
    if fmt == "svg":
        art = open(os.path.join(out, f"{command}-plot.svg"), encoding="utf-8").read()
        assert art.count('<rect class="bar"') == rows
        assert art.count('<line class="threshold-mark"') == 1
        return
    with open(os.path.join(out, f"{command}-records.csv"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == header
    assert len(lines) == 1 + rows
    assert all(len(ln.split(",")) == len(header.split(",")) for ln in lines[1:])


_VIEW_PARAMS = {command: params for command, params, *_ in _VIEWS}


@pytest.mark.parametrize("command, fmt", [(command, "csv") for command in _VIEW_PARAMS]
                         + [("conc", "svg"), ("separate", "svg")])
def test_every_format_writes_the_jsonl_records(tmp_path, command, fmt):
    params = _CONC if (command, fmt) == ("conc", "svg") else _VIEW_PARAMS[command]
    cfg = _cfg(tmp_path, {"command": command, "params": params})
    records = {}
    for f in ("jsonl", fmt):
        out = str(tmp_path / f)
        assert cli.main([command, "--config", cfg, "--out", out, "--format", f]) == cli.EXIT_OK
        with open(os.path.join(out, f"{command}-records.jsonl"), "rb") as fh:
            records[f] = fh.read()
    assert records["jsonl"] and records[fmt] == records["jsonl"]


def _out_files(out):
    """{name: bytes} of every file a run wrote into out."""
    files = {}
    for name in os.listdir(out):
        with open(os.path.join(out, name), "rb") as fh:
            files[name] = fh.read()
    return files


# params that really fork at two workers: two gauge bodies, two conc trial
# blocks per replicate and three separate pairs
_FORKING_PARAMS = dict(_VIEW_PARAMS, gauge=dict(_MODEL, count=2, points=2),
                       conc=dict(_VIEW_PARAMS["conc"], trials=cli.BLOCK_TRIALS + 500))


@pytest.mark.parametrize("command, fmt", [(c, f) for c in _FORKING_PARAMS for f in cli.FORMATS
                                          if f != "svg" or c in cli.SVG_COMMANDS])
def test_every_output_file_is_identical_across_runs_and_worker_counts(tmp_path, command, fmt):
    cfg = _cfg(tmp_path, {"command": command, "params": _FORKING_PARAMS[command]})
    runs = []
    for k, workers in enumerate((1, 1, 2)):
        out = str(tmp_path / f"run{k}")
        argv = [command, "--config", cfg, "--out", out, "--format", fmt,
                "--workers", str(workers), "--seed", "9"]
        assert cli.main(argv) == cli.EXIT_OK
        runs.append(_out_files(out))
    assert f"{command}-records.jsonl" in runs[0]
    assert runs[1] == runs[0] and runs[2] == runs[0]


@pytest.mark.parametrize(
    "command, params, constants, needle",
    [
        # separation_scale divides by log^2(1/delta)
        ("separate", dict(_MODEL, delta=1.0, bodies=2), {},
         "params.delta: needs a number in (0, 1)"),
        ("conc", _CONC, {"c": -1}, "constants.c: needs a number >= 0"),
        ("conc", dict(_CONC, statistic="small_ball"), {"c": -0.5}, "constants.c: needs"),
        # a tail curve from one trial has no standard error: raw_se would be NaN
        ("conc", dict(_CONC, trials=1), {}, "params.trials: needs an integer >= 2"),
        ("conc", dict(_CONC, statistic="small_ball", trials=1), {},
         "params.trials: needs an integer >= 2"),
        # NaN and Infinity parse from a config, but a record holding them is not JSON
        ("net", {"n": 6, "tau": 2.0, "samples": 50}, {"C": math.nan},
         "constants.C: needs a number"),
        ("separate", dict(_MODEL, bodies=2, n_diag=1), {"c1": math.inf},
         "constants.c1: needs a number"),
        ("conc", dict(_CONC, thresholds=[1.0, math.inf]), {}, "params.thresholds: needs"),
        ("net", {"n": 6, "tau": math.inf, "samples": 50}, {}, "params.tau: needs a number > 1"),
        ("conc", dict(_CONC, matrix="diag", diag=[1.0] * 5 + [math.inf]), {},
         "params.diag: needs a list of n numbers"),
        # delta * n = 0.4 rounds to an empty subset
        ("dist", {"n": 4, "delta": 0.1, "n_subsets": 2}, {},
         "params.delta: gives subset size m = 0 outside [1, n]"),
        # t^(1/12) rounds to 1, and build_net needs tau > 1
        ("net", {"n": 6, "t": 1.0000000000000002}, {},
         "params.t: needs a number > 1 whose 12th root exceeds 1"),
    ],
    ids=["separate-delta", "conc-curve-c", "conc-small-ball-c", "conc-one-trial",
         "conc-small-ball-one-trial", "net-nan-constant", "separate-infinite-constant",
         "conc-infinite-threshold", "net-infinite-tau", "conc-infinite-diag",
         "dist-empty-subsets", "net-t-rounds-to-one"],
)
def test_settings_the_run_would_refuse_at_its_end_are_refused_at_load(
        tmp_path, capsys, command, params, constants, needle):
    cfg = _cfg(tmp_path, {"command": command, "params": params, "constants": constants})
    out = str(tmp_path / "out")
    assert cli.main([command, "--config", cfg, "--out", out]) == cli.EXIT_VALIDATION
    assert needle in capsys.readouterr().err
    assert not os.path.exists(out)


def test_large_deviation_records_carry_finite_raw_moments(tmp_path):
    params = {"n": 20, "m": 5, "trials": 2000, "statistic": "large_deviation",
              "matrix": "gaussian"}
    cfg = _cfg(tmp_path, {"command": "conc", "params": params})
    out = str(tmp_path / "ld")
    assert cli.main(["conc", "--config", cfg, "--out", out]) == cli.EXIT_OK
    with open(os.path.join(out, "conc-records.jsonl"), encoding="utf-8") as fh:
        text = fh.read()
    assert "NaN" not in text
    (pl,) = [json.loads(line)["payload"] for line in text.splitlines()]
    assert math.isfinite(pl["raw_mean"]) and pl["raw_mean"] > 0.0
    assert math.isfinite(pl["raw_se"]) and pl["raw_se"] > 0.0


def test_a_failed_write_leaves_no_torn_or_temporary_file(tmp_path, monkeypatch):
    # the second record fails to render while the records file is being
    # written; the earlier run's file must stay whole, beside nothing else
    cfg = _cfg(tmp_path, {"command": "gauge", "params": dict(_MODEL, count=1, points=3)})
    out = tmp_path / "out"
    out.mkdir()
    (out / "gauge-records.jsonl").write_text("earlier run\n")
    real, records = json.dumps, []

    def dumps(obj, *args, **kwargs):
        if isinstance(obj, dict) and "payload" in obj:
            records.append(obj)
            if len(records) == 2:
                raise RuntimeError("rendering failed")
        return real(obj, *args, **kwargs)

    monkeypatch.setattr(json, "dumps", dumps)
    with pytest.raises(RuntimeError, match="rendering failed"):
        cli.main(["gauge", "--config", cfg, "--out", str(out)])
    assert len(records) == 2
    assert os.listdir(out) == ["gauge-records.jsonl"]
    assert (out / "gauge-records.jsonl").read_text() == "earlier run\n"


@pytest.mark.parametrize("kind", ["subset", "cap"])
def test_sample_body_files_are_the_bodies_regenerated_from_their_records(tmp_path, kind):
    cfg = _cfg(tmp_path, {"command": "sample", "seed": 4,
                          "params": dict(_MODEL, count=3, kind=kind)})
    out = str(tmp_path / "sample")
    assert cli.main(["sample", "--config", cfg, "--out", out]) == cli.EXIT_OK
    recs = _read_records(out, "sample")
    assert len(recs) == 3
    params = ModelParams(n=_MODEL["n"], delta=_MODEL["delta"], n_subsets=_MODEL["n_subsets"])
    for rec in recs:
        draw = sample_body(params, substream(rec["seed"], rec["stream"]))
        body = draw.body if kind == "subset" else cap_body(params, draw.subsets)
        with open(os.path.join(out, rec["payload"]["file"]), encoding="utf-8",
                  newline="") as fh:
            assert fh.read() == body_to_text(body) + "\n"


@pytest.mark.parametrize("statistic", ["quadratic", "small_ball", "large_deviation"])
def test_conc_delta_gives_the_payloads_of_its_subset_size(tmp_path, statistic):
    # round_half_up(0.25 * 32) = 8, on the default identity matrix
    payloads = []
    for key, size in (("delta", 0.25), ("m", 8)):
        params = {"n": 32, key: size, "trials": 2000, "statistic": statistic}
        cfg = _cfg(tmp_path, {"command": "conc", "params": params}, name=f"{key}.yaml")
        out = str(tmp_path / key)
        assert cli.main(["conc", "--config", cfg, "--out", out, "--seed", "3"]) == cli.EXIT_OK
        payloads.append([r["payload"] for r in _read_records(out, "conc")])
    assert payloads[0] == payloads[1]
    assert payloads[0][0]["m"] == 8 and payloads[0][0]["matrix"] == "identity"


@pytest.mark.parametrize("delta", [0.01, 1.0])
def test_conc_delta_outside_the_subset_range_is_rejected(tmp_path, capsys, delta):
    # at n = 32, delta 0.01 rounds to m = 0 and delta 1.0 gives m = n
    params = {"n": 32, "delta": delta, "trials": 100, "statistic": "quadratic"}
    cfg = _cfg(tmp_path, {"command": "conc", "params": params})
    out = str(tmp_path / "out")
    assert cli.main(["conc", "--config", cfg, "--out", out]) == cli.EXIT_VALIDATION
    assert "params.delta: gives subset size m = " in capsys.readouterr().err
    assert not os.path.exists(out)


def test_separate_without_pairs_writes_every_format(tmp_path):
    params = dict(_MODEL, bodies=3, max_pairs=0, n_diag=1)
    cfg = _cfg(tmp_path, {"command": "separate", "params": params})
    outs = {fmt: str(tmp_path / fmt) for fmt in ("jsonl", "csv", "svg")}
    for fmt, out in outs.items():
        assert cli.main(["separate", "--config", cfg, "--out", out, "--format", fmt]) == cli.EXIT_OK
    (summary,) = [r["payload"] for r in _read_records(outs["jsonl"], "separate")]
    assert summary["pairs_done"] == 0 and summary["missing_pairs"] == [[0, 1], [0, 2], [1, 2]]
    assert summary["hist_counts"] == [0] * 16
    with open(os.path.join(outs["csv"], "separate-records.csv"), encoding="utf-8") as fh:
        rows = [ln.split(",")[1:] for ln in fh.read().splitlines()[1:]]
    assert rows == [["1.0" if i == j else "nan" for j in range(3)] for i in range(3)]
    art = open(os.path.join(outs["svg"], "separate-plot.svg"), encoding="utf-8").read()
    assert art.count('<rect class="bar"') == 16 and art.count('height="0.00"') == 16


def test_net_enumeration_cap_refusal(tmp_path, capsys):
    # n = 10, tau = 2 needs L = 5 levels: C(14, 5) = 2002 step maps
    cfg = _cfg(tmp_path, {"command": "net", "params": {"n": 10, "tau": 2.0, "cap": 100}})
    out = str(tmp_path / "net")
    code = cli.main(["net", "--config", cfg, "--out", out])
    assert code == cli.EXIT_VALIDATION
    assert ("params.cap: the step family at n = 10, tau = 2.0 has 2002 members, above the "
            "cap 100") in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("tau", [1.0001, 1.0000000000000002])
def test_a_tau_near_one_is_refused_at_load_without_counting_level_by_level(
        tmp_path, capsys, tau):
    # L = 116,960 levels at tau = 1.0001; stepping L up in exact integers
    # took longer than 30 s, and at one ulp above 1 it would never end
    cfg = _cfg(tmp_path, {"command": "net", "params": {"n": 12, "tau": tau}})
    out = str(tmp_path / "net")
    start = time.perf_counter()
    assert cli.main(["net", "--config", cfg, "--out", out]) == cli.EXIT_VALIDATION
    assert time.perf_counter() - start < 2.0
    assert "params.cap: " in capsys.readouterr().err
    assert not os.path.exists(out)


def test_a_program_fault_at_run_time_is_not_a_config_error(tmp_path, monkeypatch):
    # exit 2 is for configs; a ValueError the run raises is a fault, with its traceback
    def faulty(cfg):
        raise ValueError("a fault inside the run")

    monkeypatch.setitem(cli._RUNNERS, "conc", faulty)
    cfg = _cfg(tmp_path, _CONC_DOC)
    with pytest.raises(ValueError, match="a fault inside the run"):
        cli.main(["conc", "--config", cfg, "--out", str(tmp_path / "out")])


_REBUILDS = [
    ("sample", dict(_MODEL, count=2), ["sample/0/body/0", "sample/0/body/1"]),
    ("gauge", dict(_MODEL, count=2, points=1), ["gauge/0/body/0", "gauge/0/body/1"]),
    ("dist", dict(_MODEL, n_diag=1), ["dist/0/body/0", "dist/0/body/1"]),
    ("separate", dict(_MODEL, bodies=3, n_diag=1),
     ["separate/0/body/0", "separate/0/body/1", "separate/0/body/2"]),
]


@pytest.mark.parametrize("kind", ["subset", "cap"])
@pytest.mark.parametrize("command, params, streams", _REBUILDS, ids=[r[0] for r in _REBUILDS])
def test_every_model_body_rebuilds_from_the_config_and_its_stream(
        tmp_path, monkeypatch, command, params, streams, kind):
    built = []
    model_body = cli._model_body

    def recorded(cfg, stream):
        body, draw = model_body(cfg, stream)
        built.append((stream, pickle.dumps(body)))
        return body, draw

    monkeypatch.setattr(cli, "_model_body", recorded)
    path = _cfg(tmp_path, {"command": command, "params": dict(params, kind=kind)})
    argv = [command, "--config", path, "--out", str(tmp_path / "out"), "--workers", "1"]
    assert cli.main(argv) == cli.EXIT_OK
    assert [stream for stream, _ in built] == streams
    cfg, errors = cli.load_config(path, command)
    assert not errors
    for stream, blob in built:
        assert pickle.dumps(model_body(cfg, stream)[0]) == blob


def test_net_writes_net_text(tmp_path):
    cfg = _cfg(
        tmp_path,
        {"command": "net", "params": {"n": 6, "tau": 2.0, "p_values": [1.0, 2.0, "inf"], "samples": 200}},
    )
    out = str(tmp_path / "net-ok")
    assert cli.main(["net", "--config", cfg, "--out", out]) == cli.EXIT_OK
    assert os.path.exists(os.path.join(out, "net.txt"))
    recs = _read_records(out, "net")
    certs = [r for r in recs if r["kind"] == "certificate"]
    assert len(certs) == 3
    assert all(c["payload"]["granted"] for c in certs)


def test_net_evaluates_each_body_once_over_the_step_family(tmp_path, monkeypatch):
    # at n=12, tau=1.5 every lp member is its own representative, so a
    # member's profile and both sides of its certificate are one body
    family_calls, norm_rows = [], []
    family_norms, norm_many = SymmetricBody.family_norms, SymmetricBody.norm_many

    def counted_family(self, family, tau):
        out = family_norms(self, family, tau)
        family_calls.append((self, out.shape[0]))
        return out

    def counted_rows(self, x):
        out = norm_many(self, x)
        norm_rows.append(out.shape[0])
        return out

    monkeypatch.setattr(SymmetricBody, "family_norms", counted_family)
    monkeypatch.setattr(SymmetricBody, "norm_many", counted_rows)
    cfg = _cfg(tmp_path, {"command": "net", "params": {"n": 12, "tau": 1.5, "samples": 50}})
    out = str(tmp_path / "net-once")
    assert cli.main(["net", "--config", cfg, "--out", out]) == cli.EXIT_OK
    recs = _read_records(out, "net")
    profiles = recs[0]["payload"]["profile_count"]
    assert profiles == 167960
    bodies = [body for body, rows in family_calls if rows == profiles]
    assert len(bodies) == len(family_calls) == len(set(bodies)) == 14
    assert profiles not in norm_rows  # family norms never go through norm_many
    assert all(r["payload"]["granted"] for r in recs if r["kind"] == "certificate")


def test_net_streams_net_txt_without_loss(tmp_path):
    cfg = _cfg(tmp_path, {"command": "net", "params": {"n": 12, "tau": 1.5, "samples": 50}})
    out = str(tmp_path / "net-stream")
    assert cli.main(["net", "--config", cfg, "--out", out]) == cli.EXIT_OK
    with open(os.path.join(out, "net.txt"), encoding="utf-8", newline="") as fh:
        text = fh.read()
    bodies = [lp_body(12, 1 + 0.25 * i) for i in range(13)] + [lp_body(12, math.inf)]
    net = build_net(bodies, 1.5)
    assert text == "".join(net_lines(net))


def test_conc_on_a_zero_matrix_writes_no_nan(tmp_path):
    params = dict(_CONC, trials=2000, matrix="diag", diag=[0, 0, 0, 0, 0, 0])
    cfg = _cfg(tmp_path, {"command": "conc", "params": params})
    out = str(tmp_path / "conc-zero")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["conc", "--config", cfg, "--out", out]) == cli.EXIT_OK
    assert not caught
    with open(os.path.join(out, "conc-records.jsonl"), encoding="utf-8") as fh:
        text = fh.read()
    assert "NaN" not in text
    pl = json.loads(text.splitlines()[0])["payload"]
    assert pl["fitted_c"] == math.inf and all(s == math.inf for s in pl["shape"])
    assert pl["bound_at_fit"] == [pl["prefactor"]] * len(pl["shape"])


def test_a_zero_matrix_small_ball_svg_draws_its_zero_threshold_on_the_left_edge(tmp_path):
    # the zero matrix's small-ball threshold sqrt(m/2n) |B|_HS is 0, off a log axis
    params = dict(_CONC, statistic="small_ball", trials=2000, matrix="diag", diag=[0] * 6)
    cfg = _cfg(tmp_path, {"command": "conc", "params": params})
    out = str(tmp_path / "svg")
    assert cli.main(["conc", "--config", cfg, "--out", out, "--format", "svg"]) == cli.EXIT_OK
    (rec,) = _read_records(out, "conc")
    assert rec["payload"]["thresholds"] == [0.0] and rec["payload"]["counts"] == [2000]
    art = open(os.path.join(out, "conc-plot.svg"), encoding="utf-8").read()
    xs = re.findall(r'<circle class="empirical[^"]*" r="3" cx="([^"]*)"', art)
    assert [float(x) for x in xs] == [cli._SVG_PAD]


def test_numeric_failures_use_their_own_exit_code(tmp_path, monkeypatch, capsys):
    cfg = _cfg(tmp_path, _CONC_DOC)
    # LinAlgError subclasses ValueError, which must not read as a rejected config
    error = np.linalg.LinAlgError("SVD did not converge")

    def explode(cfg_obj):
        raise error

    monkeypatch.setitem(cli._RUNNERS, "conc", explode)
    out = str(tmp_path / "boom")
    assert cli.main(["conc", "--config", cfg, "--out", out]) == cli.EXIT_NUMERIC
    assert f"numeric failure: {error}" in capsys.readouterr().err


def test_gauge_solver_failure_exits_numeric_and_names_the_status(tmp_path, monkeypatch,
                                                                 capsys):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", singular)
    cfg = _cfg(
        tmp_path,
        {
            "command": "gauge",
            "workers": 1,
            "params": {"n": 12, "delta": 0.25, "n_subsets": 24, "count": 1, "points": 2},
        },
    )
    out = str(tmp_path / "stall")
    assert cli.main(["gauge", "--config", cfg, "--out", out]) == cli.EXIT_NUMERIC
    assert "status factorization-failed" in capsys.readouterr().err


def test_gauge_tolerance_failure_exits_numeric_and_names_the_status(tmp_path, monkeypatch,
                                                                   capsys):
    # no interior-point round is allowed, so the closed forms alone must close
    monkeypatch.setattr(gauge_module, "_MAX_ROUNDS", 0)
    cfg = _cfg(
        tmp_path,
        {"command": "gauge", "params": {"n": 12, "delta": 0.25, "n_subsets": 24, "count": 1,
                                        "points": 2}},
    )
    out = str(tmp_path / "budget")
    assert cli.main(["gauge", "--config", cfg, "--out", out]) == cli.EXIT_NUMERIC
    assert "status tolerance" in capsys.readouterr().err


def test_pooled_gauge_failure_exits_numeric_and_names_the_status(tmp_path, monkeypatch, capsys):
    # the pool forks, so its workers see the patch too; a worker's
    # GaugeError comes back pickled and must keep its status
    monkeypatch.setattr(gauge_module, "_MAX_ROUNDS", 0)
    cfg = _cfg(
        tmp_path,
        {"command": "gauge", "workers": 2,
         "params": {"n": 12, "delta": 0.25, "n_subsets": 24, "count": 2, "points": 2}},
    )
    out = str(tmp_path / "pooled")
    assert cli.main(["gauge", "--config", cfg, "--out", out]) == cli.EXIT_NUMERIC
    assert "status tolerance" in capsys.readouterr().err


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _job_and_pid(j):
    return j, os.getpid()


@pytest.mark.parametrize("n_jobs, workers", [(5, 2), (1, 2), (2, 5), (3, 3)])
def test_pool_map_returns_results_in_job_order(n_jobs, workers):
    out = cli._pool_map(_job_and_pid, range(n_jobs), workers)
    assert [j for j, _ in out] == list(range(n_jobs))
    pids = {pid for _, pid in out}
    if min(workers, n_jobs) == 1:
        assert pids == {os.getpid()}  # one job runs in place
    else:
        assert os.getpid() not in pids and len(pids) <= min(workers, n_jobs)
    _no_children_left()


def test_a_free_worker_takes_the_next_job(tmp_path):
    # job 0 holds its worker until jobs 1-4 are done, so they must all go
    # to the other worker; a fixed split of jobs 0, 2, 4 to one worker
    # would keep job 0 waiting for its own turn and fail it
    def job(j):
        if j == 0:
            deadline = time.monotonic() + 30
            while len(list(tmp_path.iterdir())) < 4:
                assert time.monotonic() < deadline, "jobs 1-4 never finished"
                time.sleep(0.01)
        else:
            (tmp_path / str(j)).touch()
        return os.getpid()

    pids = cli._pool_map(job, range(5), 2)
    assert len(set(pids[1:])) == 1 and pids[0] != pids[1]
    _no_children_left()


def test_every_job_runs_once_when_more_workers_than_cores_share_the_indices(tmp_path):
    # the workers share one pipe of job indices; an index read twice would
    # fail its second O_EXCL create, and one lost would leave its result None
    def job(j):
        os.close(os.open(tmp_path / str(j), os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        return j

    assert cli._pool_map(job, range(400), 8) == list(range(400))
    assert len(list(tmp_path.iterdir())) == 400
    _no_children_left()


def test_pool_map_inherits_its_jobs_instead_of_pickling_them():
    offset = 10
    # a lambda does not pickle
    assert cli._pool_map(lambda j: j + offset, range(4), 2) == [10, 11, 12, 13]
    _no_children_left()


@pytest.mark.parametrize("dies", [0, 1])
def test_a_worker_that_dies_fails_the_map_and_no_worker_outlives_it(dies):
    def job(j):
        if j == dies:
            os._exit(7)
        time.sleep(60)

    start = time.perf_counter()
    with pytest.raises(RuntimeError, match=r"pool worker \d .*wait status 1792, exit code 7"):
        cli._pool_map(job, range(2), 2)
    # the other worker sleeps for a minute unless the failure kills it
    assert time.perf_counter() - start < 30
    _no_children_left()


class _NeedsTwoArgs(Exception):
    def __init__(self, a, b):
        super().__init__(a)


def test_a_worker_exception_that_cannot_be_pickled_arrives_as_its_repr():
    class Local(Exception):
        pass

    def raise_local(j):
        raise Local(f"boom {j}")

    with pytest.raises(RuntimeError, match=r"^Local\('boom 0'\)$"):
        cli._pool_map(raise_local, range(2), 2)
    _no_children_left()

    def raise_two_args(j):  # pickles, but cannot be rebuilt from its args
        raise _NeedsTwoArgs("x", "y")

    with pytest.raises(RuntimeError, match=r"^_NeedsTwoArgs\('x'\)$"):
        cli._pool_map(raise_two_args, range(2), 2)
    _no_children_left()


def test_a_pooled_map_raises_the_failure_a_serial_map_raises():
    # job 3 fails first, but job 1 is the failure a serial run meets first
    def job(j):
        if j == 1:
            time.sleep(0.3)
        if j in (1, 3):
            raise ValueError(f"job {j}")
        return j

    for workers in (1, 2):
        with pytest.raises(ValueError, match=r"^job 1$"):
            cli._pool_map(job, range(5), workers)
    _no_children_left()


def test_workers_above_one_need_fork(tmp_path, monkeypatch, capsys):
    monkeypatch.delattr(os, "fork")
    cfg = _cfg(tmp_path, dict(_CONC_DOC, workers=2))
    assert cli.main(["conc", "--config", cfg, "--out", str(tmp_path / "a")]) == \
        cli.EXIT_VALIDATION
    assert "config.workers: needs an integer >= 1, and 1 where os.fork is missing" in \
        capsys.readouterr().err
    assert cli.main(["conc", "--config", cfg, "--workers", "1",
                     "--out", str(tmp_path / "b")]) == cli.EXIT_OK


def test_gauge_command_never_imports_scipy(tmp_path):
    env = _src_env()
    cap = {"n": 16, "delta": 0.25, "n_subsets": 40, "kind": "cap", "count": 2, "points": 2}
    dist = {"n": 8, "delta": 0.5, "n_subsets": 16}
    # a pooled run forks its workers itself, so neither run imports a pool
    # library; a serial run gauges in its own process, which must not load
    # numpy.ma either (np.unique and the set routines built on it import it)
    for command, workers, params, count in [("gauge", 1, cap, 4), ("gauge", 2, cap, 4),
                                            ("dist", 1, dist, 2)]:
        cfg = _cfg(tmp_path, {"command": command, "workers": workers, "params": params},
                   name=f"{command}{workers}.yaml")
        out = str(tmp_path / f"{command}{workers}")
        script = (
            "import sys\n"
            "from bmbodies import cli\n"
            f"code = cli.main([{command!r}, '--config', {cfg!r}, '--out', {out!r}])\n"
            "assert code == 0, code\n"
            "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
            "assert 'concurrent.futures' not in sys.modules\n"
            "assert 'multiprocessing' not in sys.modules\n"
            "assert 'fractions' not in sys.modules and 'decimal' not in sys.modules\n"
        )
        if workers == 1:
            script += "assert 'numpy.ma' not in sys.modules\n"
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, (command, workers, proc.stderr)
        assert len(_read_records(out, command)) == count


def test_json_and_yaml_configs_differ_only_where_their_scalars_do(tmp_path):
    # JSON is tried first; PyYAML (YAML 1.1) reads 1e5, with no dot, as a string
    doc = {"command": "conc", "constants": {"c": "EXP"}, "params": _CONC_DOC["params"]}
    as_json = tmp_path / "cfg.json"
    as_json.write_text(json.dumps(doc).replace('"EXP"', "1e5"))
    as_yaml = tmp_path / "cfg.yaml"
    as_yaml.write_text(yaml.safe_dump(doc).replace("EXP", "1e5"))
    cfg, errors = cli.load_config(str(as_json), "conc")
    assert errors == [] and cfg.constants == {"c": 100000.0}
    assert cfg.config_hash == hashlib.sha256(as_json.read_bytes()).hexdigest()
    cfg, errors = cli.load_config(str(as_yaml), "conc")
    assert cfg is None and len(errors) == 1 and errors[0].startswith("constants.c:")
    # one document read both ways gives one config
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps(_CONC_DOC))
    from_json, _ = cli.load_config(str(plain), "conc")
    from_yaml, _ = cli.load_config(_cfg(tmp_path, _CONC_DOC), "conc")
    assert from_json.params == from_yaml.params
    bad = tmp_path / "bad.yaml"
    bad.write_text("params: [unclosed\n")
    cfg, errors = cli.load_config(str(bad), "conc")
    assert cfg is None and errors[0].startswith("config: parse failure:")


def test_a_json_config_never_imports_yaml(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_CONC_DOC))
    out = str(tmp_path / "out")
    env = _src_env()
    # -X importtime lists every module the run imports, on stderr
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "bmbodies.cli", "conc", "--config",
         str(cfg), "--out", out],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "numpy" in imported and "bmbodies.concentration" in imported
    assert not [m for m in imported if m.split(".")[0] == "yaml"]
    assert len(_read_records(out, "conc")) == 1


def test_the_cli_as_a_program_freezes_its_import_heap_and_still_writes_its_records(tmp_path):
    cfg = _cfg(tmp_path, {**_CONC_DOC, "workers": 2})
    out = str(tmp_path / "out")
    # a fresh import freezes nothing; main() with no argv reads sys.argv and freezes
    script = (
        "import gc, sys\n"
        "from bmbodies import cli\n"
        "assert gc.get_freeze_count() == 0 and gc.isenabled()\n"
        f"sys.argv = ['bmbodies', 'conc', '--config', {cfg!r}, '--out', {out!r}]\n"
        "assert cli.main() == 0\n"
        "assert gc.get_freeze_count() > 0 and gc.isenabled()\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=_src_env(), capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert len(_read_records(out, "conc")) == 1


def test_main_with_argv_leaves_the_collector_as_it_was(tmp_path):
    before = (gc.get_freeze_count(), gc.isenabled())
    cfg = _cfg(tmp_path, _CONC_DOC)
    assert cli.main(["conc", "--config", cfg, "--out", str(tmp_path / "out")]) == cli.EXIT_OK
    importlib.reload(bmbodies)  # reruns the package's import code in this process
    assert (gc.get_freeze_count(), gc.isenabled()) == before


def test_unusable_out_path_is_validation(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a plain file")
    cfg = _cfg(tmp_path, _CONC_DOC)
    code = cli.main(["conc", "--config", cfg, "--out", str(blocker / "sub")])
    assert code == cli.EXIT_VALIDATION
    assert "output path unusable" in capsys.readouterr().err


# the benchmark's configurations, copied here so the test stands alone
_BENCH_MODEL = {"n": 80, "delta": 0.25, "n_subsets": 320}
_BENCH_RUNS = {
    "gauge-subset": ("gauge", dict(_BENCH_MODEL, kind="subset", count=2, points=3)),
    "gauge-cap": ("gauge", dict(_BENCH_MODEL, kind="cap", count=2, points=2)),
    "dist": ("dist", {"n": 8, "delta": 0.5, "n_subsets": 16}),
    "conc": ("conc", {"n": 100, "m": 25, "trials": 100000, "statistic": "quadratic",
                      "matrix": "gaussian"}),
    "net": ("net", {"n": 12, "tau": 1.5}),
}


def _refuse_constant(token):
    raise ValueError(f"{token} is not JSON")


@pytest.mark.parametrize("run", sorted(_BENCH_RUNS))
def test_records_at_the_bench_configs_are_strict_json(tmp_path, run):
    command, params = _BENCH_RUNS[run]
    cfg = _cfg(tmp_path, {"command": command, "params": params})
    out = str(tmp_path / run)
    assert cli.main([command, "--config", cfg, "--out", out, "--seed", "701"]) == cli.EXIT_OK
    with open(os.path.join(out, f"{command}-records.jsonl"), encoding="utf-8") as fh:
        lines = [line for line in fh if line.strip()]
    assert lines
    for line in lines:
        json.loads(line, parse_constant=_refuse_constant)
