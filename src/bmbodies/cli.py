"""Experiment runner: validated configs, seeded subcommands, and
deterministic artifact emission.

Every random quantity is drawn from a named substream derived as
command/replicate/object-kind/object-index, so partial reruns keep
their identities.  Parallel work is cut into fixed blocks whose sizes
and stream names depend only on the configuration, never on the worker
count, and block results are reduced in block order; any pool size
therefore reproduces the same numeric payloads.

Exit codes: 0 success, 2 configuration or validation failure, 3
numeric tolerance failure inside a solver.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import yaml

from .bodies import body_to_text, cap_body
from .concentration import (
    SmallBallEstimate,
    TailCurve,
    mc_large_deviation,
    mc_quadratic_tail,
    mc_small_ball,
    merge_curves,
    pilot_thresholds,
)
from .distance import (
    BmOptions,
    CertificationError,
    SeparationOptions,
    bm_upper,
    op_norm,
    run_separation,
    separation_scale,
)
from .gauge import GaugeSolverError, GaugeToleranceError, gauge
from .linalg import PigeonholeError
from .randmodel import ModelParams, round_half_up, sample_body, substream
from .symnet import build_net, certify_pair, lp_body, net_to_text, tau_for_separation

# not called here (build_net owns the step family); bench/tracer.py wraps them on this module
from .symnet import enumerate_steps, log_profile  # noqa: F401

__all__ = [
    "ExperimentConfig",
    "load_config",
    "run",
    "emit_report",
    "main",
    "EXIT_OK",
    "EXIT_VALIDATION",
    "EXIT_NUMERIC",
]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

BLOCK_TRIALS = 4096

COMMANDS = ("sample", "gauge", "conc", "dist", "separate", "net")
FORMATS = ("jsonl", "csv", "svg")
SVG_COMMANDS = ("conc", "separate")

CONSTANT_NAMES = ("c", "c0", "c1", "c2", "C")

_TOP_KEYS = {"command", "seed", "workers", "format", "out", "constants", "params"}

# required and optional (with defaults) params per command
_SCHEMAS = {
    "sample": ({"n", "delta", "n_subsets", "count"}, {"kind": "subset"}),
    "gauge": (
        {"n", "delta", "n_subsets", "count", "points"},
        {"kind": "subset", "tol": 1e-6},
    ),
    "conc": (
        {"n", "trials", "statistic"},
        {
            "delta": None,
            "m": None,
            "matrix": "identity",
            "diag": None,
            "thresholds": None,
            "replicates": 1,
        },
    ),
    "dist": (
        {"n", "delta", "n_subsets"},
        {"kind": "subset", "n_diag": 8, "refine": True},
    ),
    "separate": (
        {"n", "delta", "n_subsets", "bodies"},
        {"kind": "subset", "threshold": 2.0, "bins": 16, "max_pairs": None,
         "n_diag": 8, "refine": False},
    ),
    "net": (
        {"n"},
        {"tau": None, "t": None, "p_values": None, "samples": 10**4,
         "cap": 10**6},
    ),
}

_STATISTICS = ("quadratic", "small_ball", "large_deviation")
_MATRIX_KINDS = ("identity", "e11", "diag", "gaussian")
_BODY_KINDS = ("subset", "cap")


@dataclass
class ExperimentConfig:
    """A fully validated run description plus the bytes it came from."""

    command: str
    seed: int
    workers: int
    fmt: str
    out_dir: str
    constants: dict
    params: dict
    config_hash: str
    raw: bytes = field(repr=False, default=b"")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_num(v) -> bool:
    return _is_int(v) or isinstance(v, float)


def _validate_params(command: str, params: dict, errors: list) -> dict:
    required, optional = _SCHEMAS[command]
    known = required | set(optional)
    for key in sorted(set(params) - known):
        errors.append(f"params.{key}: unknown key for command {command!r}")
    for key in sorted(required - set(params)):
        errors.append(f"params.{key}: required for command {command!r}")
    merged = dict(optional)
    merged.update({k: v for k, v in params.items() if k in known})

    def need(key, pred, what):
        v = merged.get(key)
        if v is not None and not pred(v):
            errors.append(f"params.{key}: {what}, got {v!r}")
            return False
        return v is not None

    need("n", lambda v: _is_int(v) and v >= 1, "needs an integer >= 1")
    if "delta" in known:
        need("delta", lambda v: _is_num(v) and 0 < v <= 1, "needs a number in (0, 1]")
    if "n_subsets" in known:
        need("n_subsets", lambda v: _is_int(v) and v >= 1, "needs an integer >= 1")
    for key in ("count", "points", "trials", "bodies", "replicates", "samples"):
        if key in known:
            need(key, lambda v: _is_int(v) and v >= 1, "needs an integer >= 1")
    if "kind" in known:
        need("kind", lambda v: v in _BODY_KINDS, f"must be one of {_BODY_KINDS}")
    if "tol" in known:
        need("tol", lambda v: _is_num(v) and v > 0, "needs a positive number")

    if command == "conc":
        need("statistic", lambda v: v in _STATISTICS, f"must be one of {_STATISTICS}")
        need("matrix", lambda v: v in _MATRIX_KINDS, f"must be one of {_MATRIX_KINDS}")
        if merged.get("m") is None and merged.get("delta") is None:
            errors.append("params.m: conc needs either m or delta")
        if merged.get("m") is not None:
            need("m", lambda v: _is_int(v) and v >= 1, "needs an integer >= 1")
        if merged.get("matrix") == "diag" and not isinstance(merged.get("diag"), list):
            errors.append("params.diag: matrix kind 'diag' needs a list of numbers")
        thr = merged.get("thresholds")
        if thr is not None and (
            not isinstance(thr, list)
            or not all(_is_num(v) and v > 0 for v in thr)
            or any(b <= a for a, b in zip(thr, thr[1:]))
        ):
            errors.append("params.thresholds: needs a strictly increasing positive list")
    if command in ("dist", "separate"):
        need("n_diag", lambda v: _is_int(v) and v >= 0, "needs an integer >= 0")
        if not isinstance(merged.get("refine"), bool):
            errors.append(f"params.refine: needs a boolean, got {merged.get('refine')!r}")
    if command == "separate":
        need("threshold", lambda v: _is_num(v) and v > 0, "needs a positive number")
        need("bins", lambda v: _is_int(v) and v >= 1, "needs an integer >= 1")
        mp = merged.get("max_pairs")
        if mp is not None and not (_is_int(mp) and mp >= 0):
            errors.append(f"params.max_pairs: needs an integer >= 0, got {mp!r}")
    if command == "net":
        if merged.get("tau") is None and merged.get("t") is None:
            errors.append("params.tau: net needs either tau or t")
        if merged.get("tau") is not None:
            need("tau", lambda v: _is_num(v) and v > 1, "needs a number > 1")
        if merged.get("t") is not None:
            need("t", lambda v: _is_num(v) and v > 1, "needs a number > 1")
        pv = merged.get("p_values")
        if pv is not None:
            if not isinstance(pv, list) or not pv:
                errors.append("params.p_values: needs a nonempty list")
            else:
                for v in pv:
                    ok = (_is_num(v) and v >= 1) or v in ("inf", "Infinity")
                    if not ok:
                        errors.append(f"params.p_values: bad exponent {v!r}")
        need("cap", lambda v: _is_int(v) and v >= 1, "needs an integer >= 1")
    return merged


def load_config(path: str, command: str, overrides: dict | None = None):
    """Read and validate a config file against one command's schema.

    Returns (ExperimentConfig or None, list of error strings); the list
    is exhaustive rather than first-error-wins.
    """
    overrides = overrides or {}
    errors: list = []
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        return None, [f"config: cannot read {path}: {exc}"]
    try:
        doc = yaml.safe_load(raw.decode("utf-8"))
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        return None, [f"config: parse failure: {exc}"]
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        return None, ["config: top level must be a mapping"]

    for key in sorted(set(doc) - _TOP_KEYS):
        errors.append(f"config.{key}: unknown key")
    if command not in COMMANDS:
        errors.append(f"command: unknown command {command!r}")
        return None, errors
    if "command" in doc and doc["command"] != command:
        errors.append(
            f"config.command: file says {doc['command']!r}, invoked as {command!r}"
        )

    seed = overrides.get("seed", doc.get("seed", 0))
    if not (_is_int(seed) and 0 <= seed < 2**64):
        errors.append(f"seed: needs an integer in [0, 2^64), got {seed!r}")
        seed = 0
    workers = overrides.get("workers", doc.get("workers", 1))
    if not (_is_int(workers) and workers >= 1):
        errors.append(f"workers: needs an integer >= 1, got {workers!r}")
        workers = 1
    fmt = overrides.get("format", doc.get("format", "jsonl"))
    if fmt not in FORMATS:
        errors.append(f"format: must be one of {FORMATS}, got {fmt!r}")
    elif fmt == "svg" and command not in SVG_COMMANDS:
        errors.append(f"format: svg plots exist only for {SVG_COMMANDS}")
    out_dir = overrides.get("out", doc.get("out", "results"))
    if not isinstance(out_dir, str) or not out_dir:
        errors.append(f"out: needs a nonempty path, got {out_dir!r}")
        out_dir = "results"

    constants = {name: 1.0 for name in CONSTANT_NAMES}
    raw_constants = doc.get("constants", {})
    if not isinstance(raw_constants, dict):
        errors.append("constants: must be a mapping")
    else:
        for key in sorted(set(raw_constants) - set(CONSTANT_NAMES)):
            errors.append(f"constants.{key}: unknown constant")
        for key, v in raw_constants.items():
            if key in constants:
                if _is_num(v):
                    constants[key] = float(v)
                else:
                    errors.append(f"constants.{key}: needs a number, got {v!r}")

    params_doc = doc.get("params", {})
    if not isinstance(params_doc, dict):
        errors.append("params: must be a mapping")
        params_doc = {}
    params = _validate_params(command, params_doc, errors)

    cap = overrides.get("cap_enumeration")
    if cap is not None:
        if command == "net":
            params["cap"] = cap
        else:
            errors.append(f"--cap-enumeration: command {command!r} reads no "
                          "enumeration budget (only net does)")

    # cross checks that need several fields at once
    if command == "conc" and not errors:
        n = params["n"]
        m = params["m"] if params["m"] is not None else round_half_up(params["delta"] * n)
        if not 1 <= m < n:
            errors.append(f"params.m: resolved subset size {m} outside [1, {n - 1}]")
        else:
            params["m"] = m
        if params["matrix"] == "diag" and params["diag"] is not None:
            if len(params["diag"]) != n or not all(_is_num(v) for v in params["diag"]):
                errors.append("params.diag: needs exactly n numbers")

    if errors:
        return None, errors
    cfg = ExperimentConfig(
        command=command,
        seed=int(seed),
        workers=int(workers),
        fmt=fmt,
        out_dir=out_dir,
        constants=constants,
        params=params,
        config_hash=hashlib.sha256(raw).hexdigest(),
        raw=raw,
    )
    return cfg, []


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _mk_record(cfg: ExperimentConfig, stream: str, kind: str, payload: dict) -> dict:
    return {
        "experiment_id": f"{cfg.command}-{cfg.config_hash[:12]}",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "config_hash": cfg.config_hash,
        "seed": cfg.seed,
        "stream": stream,
        "kind": kind,
        "payload": _jsonable(payload),
    }


def _model_params(p: dict) -> ModelParams:
    return ModelParams(n=p["n"], delta=p["delta"], n_subsets=p["n_subsets"])


def _build_body(kind: str, params: ModelParams, rng):
    draw = sample_body(params, rng)
    if kind == "cap":
        return cap_body(params, draw.subsets), draw
    return draw.body, draw


def _pool_map(fn, jobs, workers: int):
    jobs = list(jobs)
    if workers <= 1 or len(jobs) <= 1:
        return [fn(j) for j in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs, chunksize=1))


# ---------------------------------------------------------------- workers
# top-level functions so process pools can pickle the jobs


def _conc_matrix(kind: str, n: int, diag, seed: int, rep: int) -> np.ndarray:
    if kind == "identity":
        return np.eye(n)
    if kind == "e11":
        a = np.zeros((n, n))
        a[0, 0] = 1.0
        return a
    if kind == "diag":
        return np.diag(np.asarray(diag, dtype=float))
    g = substream(seed, f"conc/{rep}/matrix/0").standard_normal((n, n))
    return (g + g.T) / 2.0


def _conc_block(job):
    (seed, rep, idx, stat, mat, n, m, trials, thresholds) = job
    rng = substream(seed, f"conc/{rep}/trial-block/{idx}")
    a = np.asarray(mat, dtype=float)
    if stat == "small_ball":
        return mc_small_ball(a, n, m, trials, stream=rng)
    thr = np.asarray(thresholds, dtype=float)
    if stat == "quadratic":
        return mc_quadratic_tail(a, n, m, trials, thresholds=thr, stream=rng)
    return mc_large_deviation(a, n, m, trials, thresholds=thr, stream=rng)


def _gauge_job(job):
    (seed, rep, idx, n, delta, n_subsets, kind, points, tol) = job
    params = ModelParams(n=n, delta=delta, n_subsets=n_subsets)
    body, _ = _build_body(kind, params, substream(seed, f"gauge/{rep}/body/{idx}"))
    rng = substream(seed, f"gauge/{rep}/points/{idx}")
    rows = []
    for j in range(points):
        x = rng.standard_normal(n)
        g = gauge(body, x, tol=tol)
        rows.append(
            {"point": j, "lo": g.lo, "hi": g.hi, "width": g.hi - g.lo,
             "rounds": g.rounds}
        )
    return rows


# ---------------------------------------------------------------- commands


def _cmd_sample(cfg: ExperimentConfig):
    p = cfg.params
    params = _model_params(p)
    records, files = [], {}
    for i in range(p["count"]):
        stream = f"sample/0/body/{i}"
        body, draw = _build_body(p["kind"], params, substream(cfg.seed, stream))
        fname = f"body-0-{i}.txt"
        files[fname] = body_to_text(body) + "\n"
        records.append(
            _mk_record(
                cfg,
                stream,
                "body",
                {
                    "index": i,
                    "file": fname,
                    "kind": p["kind"],
                    "n": params.n,
                    "m": params.m,
                    "n_subsets": params.n_subsets,
                    "covers_all": draw.covers_all,
                },
            )
        )
    return records, files


def _cmd_gauge(cfg: ExperimentConfig):
    p = cfg.params
    jobs = [
        (cfg.seed, 0, i, p["n"], p["delta"], p["n_subsets"], p["kind"],
         p["points"], p["tol"])
        for i in range(p["count"])
    ]
    results = _pool_map(_gauge_job, jobs, cfg.workers)
    records = []
    for i, rows in enumerate(results):
        for row in rows:
            records.append(
                _mk_record(cfg, f"gauge/0/body/{i}", "gauge", {"body": i, **row})
            )
    return records, {}


def _curve_payload(curve: TailCurve, constants: dict) -> dict:
    fit = curve.fitted_c(conservative=True)
    return {
        "thresholds": curve.thresholds,
        "counts": curve.counts,
        "trials": curve.trials,
        "p_hat": curve.p_hat,
        "wilson_lo": curve.wilson_lo,
        "wilson_hi": curve.wilson_hi,
        "shape": curve.shape,
        "prefactor": curve.prefactor,
        "admissible": curve.admissible,
        "raw_mean": curve.raw_mean,
        "raw_se": curve.raw_se,
        "fitted_c": fit,
        "bound_at_fit": curve.bound_values(fit if math.isfinite(fit) else 0.0),
        "bound_at_c": curve.bound_values(constants["c"]),
    }


def _small_ball_payload(est: SmallBallEstimate, constants: dict) -> dict:
    lo, hi = est.wilson
    return {
        "threshold": est.threshold,
        "count": est.count,
        "trials": est.trials,
        "p_hat": est.p_hat,
        "wilson_lo": lo,
        "wilson_hi": hi,
        "shape": est.shape,
        "prefactor": est.prefactor,
        "fitted_c": est.fitted_c(),
        "bound_at_c": est.bound_value(constants["c"]),
    }


def _cmd_conc(cfg: ExperimentConfig):
    p = cfg.params
    n, m, trials = p["n"], p["m"], p["trials"]
    stat = p["statistic"]
    records = []
    for rep in range(p["replicates"]):
        mat = _conc_matrix(p["matrix"], n, p["diag"], cfg.seed, rep)
        mat_list = _jsonable(mat)
        if stat == "small_ball":
            thresholds = None
        elif p["thresholds"] is not None:
            thresholds = [float(v) for v in p["thresholds"]]
        else:
            pilot = substream(cfg.seed, f"conc/{rep}/trial-block/pilot")
            thresholds = [float(v) for v in pilot_thresholds(stat, mat, n, m, trials, pilot)]
        sizes = [BLOCK_TRIALS] * (trials // BLOCK_TRIALS)
        if trials % BLOCK_TRIALS:
            sizes.append(trials % BLOCK_TRIALS)
        jobs = [
            (cfg.seed, rep, i, stat, mat_list, n, m, size, thresholds)
            for i, size in enumerate(sizes)
        ]
        parts = _pool_map(_conc_block, jobs, cfg.workers)
        if stat == "small_ball":
            merged = parts[0]
            for part in parts[1:]:
                merged = merged.merge(part)
            payload = _small_ball_payload(merged, cfg.constants)
        else:
            merged = merge_curves(parts)
            payload = _curve_payload(merged, cfg.constants)
            if stat == "quadratic":
                payload["center"] = (m / n) * float(np.trace(mat))
        payload.update({"replicate": rep, "statistic": stat, "matrix": p["matrix"],
                        "n": n, "m": m})
        records.append(_mk_record(cfg, f"conc/{rep}/merged", stat, payload))
    return records, {}


def _cmd_dist(cfg: ExperimentConfig):
    p = cfg.params
    params = _model_params(p)
    body_a, _ = _build_body(p["kind"], params, substream(cfg.seed, "dist/0/body/0"))
    body_b, _ = _build_body(p["kind"], params, substream(cfg.seed, "dist/0/body/1"))
    fwd = op_norm(np.eye(p["n"]), body_a, body_b)
    est = bm_upper(body_a, body_b, BmOptions(n_diag=p["n_diag"], refine=p["refine"]))
    records = [
        _mk_record(
            cfg,
            "dist/0/op/0",
            "op_norm",
            {"lo": fwd.lo, "hi": fwd.hi, "mode": fwd.mode, "notes": fwd.notes,
             "witness": fwd.witness},
        ),
        _mk_record(
            cfg,
            "dist/0/bm/0",
            "bm_upper",
            {
                "upper": est.upper,
                "norm_fwd": est.norm_fwd,
                "norm_inv": est.norm_inv,
                "best_map": est.best_map,
                "candidates": est.candidates,
            },
        ),
    ]
    return records, {}


def _cmd_separate(cfg: ExperimentConfig):
    p = cfg.params
    params = _model_params(p)
    stream = substream(cfg.seed, "separate/0/body-stream/0")
    bodies = [_build_body(p["kind"], params, stream)[0] for _ in range(p["bodies"])]
    opts = SeparationOptions(
        threshold=p["threshold"],
        bins=p["bins"],
        max_pairs=p["max_pairs"],
        bm=BmOptions(n_diag=p["n_diag"], refine=p["refine"]),
    )
    report = run_separation(bodies, opts, functools.partial(_pool_map, workers=cfg.workers))
    payload = {
        "bodies": len(bodies),
        "matrix": [[None if math.isnan(v) else v for v in row] for row in report.matrix.tolist()],
        "pairs_done": len(report.estimates),
        "missing_pairs": report.missing_pairs,
        "hist_counts": report.hist_counts,
        "hist_edges": report.hist_edges,
        "threshold": report.threshold,
        "n_below_threshold": report.n_below_threshold,
        "predicted_scale": separation_scale(cfg.constants["c1"], p["delta"]),
    }
    records = [_mk_record(cfg, "separate/0/merged", "separation", payload)]
    for (i, j), est in report.estimates.items():
        row = {"i": i, "j": j, "upper": est.upper, "norm_fwd": est.norm_fwd,
               "norm_inv": est.norm_inv, "candidates": len(est.candidates)}
        records.append(_mk_record(cfg, f"separate/0/pair/{i}-{j}", "pair", row))
    return records, {}


def _cmd_net(cfg: ExperimentConfig):
    p = cfg.params
    n = p["n"]
    tau = float(p["tau"]) if p["tau"] is not None else tau_for_separation(float(p["t"]))
    raw_ps = p["p_values"]
    if raw_ps is None:
        raw_ps = [1 + 0.25 * i for i in range(13)] + ["inf"]
    ps = [math.inf if v in ("inf", "Infinity") else float(v) for v in raw_ps]
    bodies = [lp_body(n, v) for v in ps]
    net = build_net(bodies, tau, cap=p["cap"], c_const=cfg.constants["C"])
    rep_of = {pos: rep for cell, rep in net.cell_reps for pos in net.members[cell]}
    records = [
        _mk_record(
            cfg,
            "net/0/build/0",
            "net",
            {
                "n": n,
                "tau": tau,
                "levels": net.levels,
                "profile_count": net.profile_count,
                "cell_count": net.cell_count,
                "cell_bound": net.cell_bound,
                "separation_annotation": net.separation_annotation,
                "file": "net.txt",
            },
        )
    ]
    for i, body in enumerate(bodies):
        rep_body = rep_of[i]
        cert = certify_pair(
            body, rep_body, net.family, tau, samples=p["samples"],
            stream=substream(cfg.seed, f"net/0/certify/{i}"),
        )
        records.append(
            _mk_record(
                cfg,
                f"net/0/certify/{i}",
                "certificate",
                {
                    "member": body.tag(),
                    "representative": rep_body.tag(),
                    "granted": cert.granted,
                    "distance_bound": cert.distance_bound,
                    "witness_step": list(cert.witness_step) if cert.witness_step else None,
                    "max_ratio": cert.max_ratio,
                    "ratio_bound": cert.ratio_bound,
                    "empirical_ok": cert.empirical_ok,
                    "samples": cert.samples,
                },
            )
        )
    return records, {"net.txt": net_to_text(net)}


_RUNNERS = {
    "sample": _cmd_sample,
    "gauge": _cmd_gauge,
    "conc": _cmd_conc,
    "dist": _cmd_dist,
    "separate": _cmd_separate,
    "net": _cmd_net,
}


# ---------------------------------------------------------------- reports


def _csv_cell(v) -> str:
    if v is None:
        return "nan"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _csv_lines(header, rows) -> str:
    out = [",".join(header)]
    for row in rows:
        out.append(",".join(_csv_cell(v) for v in row))
    return "\n".join(out) + "\n"


def _csv_for(command: str, records) -> str:
    if command == "sample":
        header = ["index", "file", "kind", "n", "m", "n_subsets", "covers_all"]
        rows = [[r["payload"][k] for k in header] for r in records]
        return _csv_lines(header, rows)
    if command == "gauge":
        header = ["body", "point", "lo", "hi", "width", "rounds"]
        rows = [[r["payload"][k] for k in header] for r in records]
        return _csv_lines(header, rows)
    if command == "conc":
        header = [
            "replicate", "statistic", "threshold", "count", "trials", "p_hat",
            "wilson_lo", "wilson_hi", "shape", "admissible",
        ]
        rows = []
        for r in records:
            pl = r["payload"]
            if r["kind"] == "small_ball":
                rows.append(
                    [pl["replicate"], pl["statistic"], pl["threshold"], pl["count"],
                     pl["trials"], pl["p_hat"], pl["wilson_lo"], pl["wilson_hi"],
                     pl["shape"], True]
                )
                continue
            for k in range(len(pl["thresholds"])):
                rows.append(
                    [pl["replicate"], pl["statistic"], pl["thresholds"][k],
                     pl["counts"][k], pl["trials"], pl["p_hat"][k],
                     pl["wilson_lo"][k], pl["wilson_hi"][k], pl["shape"][k],
                     pl["admissible"][k]]
                )
        return _csv_lines(header, rows)
    if command == "dist":
        header = ["kind", "quantity", "value"]
        rows = []
        for r in records:
            pl = r["payload"]
            if r["kind"] == "op_norm":
                rows.append(["op_norm", "lo", pl["lo"]])
                rows.append(["op_norm", "hi", pl["hi"]])
            else:
                rows.append(["bm_upper", "upper", pl["upper"]])
                rows.append(["bm_upper", "norm_fwd", pl["norm_fwd"]])
                rows.append(["bm_upper", "norm_inv", pl["norm_inv"]])
        return _csv_lines(header, rows)
    if command == "separate":
        summary = next(r for r in records if r["kind"] == "separation")
        matrix = summary["payload"]["matrix"]
        m_bodies = summary["payload"]["bodies"]
        header = ["i"] + [f"d_{j}" for j in range(m_bodies)]
        rows = [[i] + list(matrix[i]) for i in range(m_bodies)]
        return _csv_lines(header, rows)
    if command == "net":
        header = ["kind", "member", "representative", "granted", "max_ratio"]
        rows = []
        for r in records:
            if r["kind"] != "certificate":
                continue
            pl = r["payload"]
            rows.append(
                ["certificate", pl["member"], pl["representative"], pl["granted"],
                 pl["max_ratio"]]
            )
        return _csv_lines(header, rows)
    raise ValueError(f"no csv projection for {command}")


_SVG_W, _SVG_H, _SVG_PAD = 640, 420, 48


def _svg_frame(body_parts, title: str) -> str:
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
        f'height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">\n'
        f'<title>{title}</title>\n'
        f'<rect class="frame" x="{_SVG_PAD}" y="{_SVG_PAD}" '
        f'width="{_SVG_W - 2 * _SVG_PAD}" height="{_SVG_H - 2 * _SVG_PAD}" '
        f'fill="none" stroke="black"/>\n' + "".join(body_parts) + "</svg>\n"
    )


def _svg_tail(records) -> str:
    curves = [r["payload"] for r in records if r["kind"] != "small_ball"]
    parts = []
    for pl in curves:
        thr = [float(v) for v in pl["thresholds"]]
        if not thr:
            continue
        trials = pl["trials"]
        floor_p = 1.0 / (2.0 * trials)
        lx, hx = math.log10(thr[0]), math.log10(thr[-1])
        span = (hx - lx) or 1.0

        def x_of(t):
            return _SVG_PAD + (_SVG_W - 2 * _SVG_PAD) * (math.log10(t) - lx) / span

        def y_of(p):
            p = max(float(p), floor_p)
            frac = (math.log10(p) - math.log10(floor_p)) / (0.0 - math.log10(floor_p))
            return _SVG_H - _SVG_PAD - (_SVG_H - 2 * _SVG_PAD) * max(0.0, min(frac, 1.0))

        fit = pl["fitted_c"]
        bound = pl["bound_at_fit"]
        pts = " ".join(
            f"{x_of(t):.2f},{y_of(b):.2f}" for t, b in zip(thr, bound)
        )
        parts.append(f'<polyline class="bound" fill="none" stroke="red" points="{pts}"/>\n')
        for k, t in enumerate(thr):
            parts.append(
                f'<line class="band" stroke="gray" x1="{x_of(t):.2f}" '
                f'x2="{x_of(t):.2f}" y1="{y_of(pl["wilson_lo"][k]):.2f}" '
                f'y2="{y_of(pl["wilson_hi"][k]):.2f}"/>\n'
            )
        for k, t in enumerate(thr):
            cls = "empirical zero" if pl["counts"][k] == 0 else "empirical"
            parts.append(
                f'<circle class="{cls}" r="3" cx="{x_of(t):.2f}" '
                f'cy="{y_of(pl["p_hat"][k]):.2f}" fill="black"/>\n'
            )
        parts.append(
            f'<text class="label" x="{_SVG_PAD}" y="{_SVG_PAD - 8}">'
            f'fitted c = {fit:.6g}</text>\n'
        )
    return _svg_frame(parts, "exceedance tails")


def _svg_hist(records) -> str:
    summary = next(r for r in records if r["kind"] == "separation")
    pl = summary["payload"]
    counts = [int(v) for v in pl["hist_counts"]]
    edges = [float(v) for v in pl["hist_edges"]]
    peak = max(counts) or 1
    width = (_SVG_W - 2 * _SVG_PAD) / max(len(counts), 1)
    parts = []
    for k, c in enumerate(counts):
        h = (_SVG_H - 2 * _SVG_PAD) * c / peak
        parts.append(
            f'<rect class="bar" fill="steelblue" stroke="black" '
            f'x="{_SVG_PAD + k * width:.2f}" y="{_SVG_H - _SVG_PAD - h:.2f}" '
            f'width="{width:.2f}" height="{h:.2f}"/>\n'
        )
    lo, hi = edges[0], edges[-1]
    span = (hi - lo) or 1.0
    tx = _SVG_PAD + (_SVG_W - 2 * _SVG_PAD) * (pl["threshold"] - lo) / span
    tx = max(_SVG_PAD, min(tx, _SVG_W - _SVG_PAD))
    parts.append(
        f'<line class="threshold-mark" stroke="red" x1="{tx:.2f}" x2="{tx:.2f}" '
        f'y1="{_SVG_PAD}" y2="{_SVG_H - _SVG_PAD}"/>\n'
    )
    parts.append(
        f'<text class="label" x="{_SVG_PAD}" y="{_SVG_PAD - 8}">predicted scale '
        f'{pl["predicted_scale"]:.6g}, below threshold {pl["n_below_threshold"]}</text>\n'
    )
    return _svg_frame(parts, "pairwise distance upper bounds")


def emit_report(records, fmt: str, out_dir: str, command: str):
    """Write the records in the chosen format; returns written paths."""
    paths = []
    if fmt == "jsonl":
        path = os.path.join(out_dir, f"{command}-records.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            for r in records:
                fh.write(json.dumps(r, sort_keys=True))
                fh.write("\n")
        paths.append(path)
    elif fmt == "csv":
        path = os.path.join(out_dir, f"{command}-records.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_csv_for(command, records))
        paths.append(path)
    elif fmt == "svg":
        path = os.path.join(out_dir, f"{command}-plot.svg")
        art = _svg_tail(records) if command == "conc" else _svg_hist(records)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(art)
        paths.append(path)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return paths


def run(cfg: ExperimentConfig) -> int:
    """Execute one validated config; returns the process exit code."""
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
        probe = os.path.join(cfg.out_dir, ".write-probe")
        with open(probe, "w") as fh:
            fh.write("")
        os.remove(probe)
    except OSError as exc:
        print(f"output path unusable: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        records, files = _RUNNERS[cfg.command](cfg)
        for name, content in files.items():
            with open(os.path.join(cfg.out_dir, name), "w", encoding="utf-8") as fh:
                fh.write(content)
        emit_report(records, cfg.fmt, cfg.out_dir, cfg.command)
    except (GaugeToleranceError, GaugeSolverError, PigeonholeError, CertificationError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, RuntimeError) as exc:
        # budget refusals and infeasible run shapes, found only at run time
        print(f"run rejected: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bmbodies",
        description="random convex body experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="YAML config path")
        sp.add_argument("--seed", type=int, default=None, help="master seed override")
        sp.add_argument("--out", default=None, help="output directory override")
        sp.add_argument("--format", default=None, choices=FORMATS)
        sp.add_argument("--workers", type=int, default=None)
        sp.add_argument(
            "--cap-enumeration",
            type=int,
            default=None,
            help="override the net profile cap",
        )
    args = parser.parse_args(argv)
    overrides = {}
    for key in ("seed", "out", "format", "workers"):
        v = getattr(args, key)
        if v is not None:
            overrides[key] = v
    overrides["cap_enumeration"] = args.cap_enumeration
    cfg, errors = load_config(args.config, args.command, overrides)
    if errors:
        for err in errors:
            print(err, file=sys.stderr)
        return EXIT_VALIDATION
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
