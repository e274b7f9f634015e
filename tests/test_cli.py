"""Command line behavior: validation, determinism, formats, exit codes."""
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
import yaml

from bmbodies import cli
from bmbodies.distance import CertificationError, separation_scale
from bmbodies.linalg import PigeonholeError


def _cfg(tmp_path, doc, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


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
        assert "payload" in rec and "kind" in rec and "timestamp" in rec
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


def test_dist_without_a_certified_bound_exits_numeric(tmp_path, monkeypatch, capsys):
    def uncertified(*args, **kwargs):
        raise CertificationError("no candidate map produced a certified bound; "
                                 "identity forward: component 0, generator 0")

    monkeypatch.setattr(cli, "bm_upper", uncertified)
    cfg = _cfg(
        tmp_path,
        {"command": "dist", "params": {"n": 4, "delta": 0.5, "n_subsets": 2}},
    )
    out = str(tmp_path / "uncert")
    assert cli.main(["dist", "--config", cfg, "--out", out]) == cli.EXIT_NUMERIC
    assert "component 0, generator 0" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "command, params, flags, needle",
    [
        ("separate", {"n": 6, "delta": 0.5, "n_subsets": 2, "bodies": 2, "sign_cutoff": 4},
         [], "params.sign_cutoff"),
        ("gauge", {"n": 6, "delta": 0.5, "n_subsets": 2, "count": 1, "points": 1},
         ["--cap-enumeration", "5"], "--cap-enumeration"),
        ("dist", {"n": 4, "delta": 0.5, "n_subsets": 2, "mode": "exhaustive"},
         [], "params.mode"),
        ("dist", {"n": 4, "delta": 0.5, "n_subsets": 2, "sign_cutoff": 16},
         [], "params.sign_cutoff"),
        ("dist", {"n": 4, "delta": 0.5, "n_subsets": 2},
         ["--cap-enumeration", "5"], "--cap-enumeration"),
    ],
)
def test_settings_that_reach_no_code_are_rejected(tmp_path, capsys, command, params, flags,
                                                   needle):
    cfg = _cfg(tmp_path, {"command": command, "params": params})
    out = str(tmp_path / "out")
    code = cli.main([command, "--config", cfg, "--out", out] + flags)
    assert code == cli.EXIT_VALIDATION
    assert needle in capsys.readouterr().err
    assert not os.path.exists(out)


def test_net_enumeration_cap_refusal(tmp_path, capsys):
    cfg = _cfg(tmp_path, {"command": "net", "params": {"n": 10, "tau": 2.0}})
    out = str(tmp_path / "net")
    code = cli.main(["net", "--config", cfg, "--out", out, "--cap-enumeration", "100"])
    assert code == cli.EXIT_VALIDATION
    assert "run rejected" in capsys.readouterr().err


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


def test_numeric_failures_use_their_own_exit_code(tmp_path, monkeypatch):
    cfg = _cfg(tmp_path, _CONC_DOC)

    def explode(cfg_obj):
        raise PigeonholeError("no admissible block")

    monkeypatch.setitem(cli._RUNNERS, "conc", explode)
    out = str(tmp_path / "boom")
    assert cli.main(["conc", "--config", cfg, "--out", out]) == cli.EXIT_NUMERIC


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


def test_gauge_command_never_imports_scipy(tmp_path):
    cfg = _cfg(
        tmp_path,
        {
            "command": "gauge",
            "workers": 1,
            "params": {"n": 16, "delta": 0.25, "n_subsets": 40, "kind": "cap",
                       "count": 1, "points": 2},
        },
    )
    out = str(tmp_path / "out")
    script = (
        "import sys\n"
        "from bmbodies import cli\n"
        f"code = cli.main(['gauge', '--config', {cfg!r}, '--out', {out!r}])\n"
        "assert code == 0, code\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(cli.__file__))]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert len(_read_records(out, "gauge")) == 2


def test_unusable_out_path_is_validation(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a plain file")
    cfg = _cfg(tmp_path, _CONC_DOC)
    code = cli.main(["conc", "--config", cfg, "--out", str(blocker / "sub")])
    assert code == cli.EXIT_VALIDATION
    assert "output path unusable" in capsys.readouterr().err
