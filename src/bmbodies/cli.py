"""Experiment runner: validated configs, seeded subcommands, and
deterministic artifact emission.

Every random quantity is drawn from a named substream derived as
command/replicate/object-kind/object-index, so partial reruns keep
their identities.  Parallel work is cut into fixed blocks whose sizes
and stream names depend only on the configuration, never on the worker
count, and block results are reduced in block order; any pool size
therefore reproduces the same output files, byte for byte.  A pool
forks its workers (so workers > 1 needs os.fork), which inherit their
jobs, take the next one as they free up and pickle back only results
and exceptions.

Exit codes: 0 success, 2 configuration or validation failure, 3
numeric tolerance failure inside a solver.
"""
from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import math
import os
import pickle
import sys
from dataclasses import dataclass, field

import numpy as np

from .bodies import body_to_text, cap_body
from .concentration import TailCurve, mc_curve, mc_tally, pilot_thresholds
from .distance import bm_upper, op_norm, run_separation, separation_scale
from .gauge import GaugeError, gauge
from .randmodel import ModelParams, round_half_up, sample_body, substream
from .symnet import (build_net, certify_pair, level_count, log_log_separation, lp_body,
                     net_lines, tau_for_separation)

# not called here (build_net owns the step family); bench/tracer.py wraps them on this module
from .symnet import enumerate_steps, log_profile  # noqa: F401
# not called here (a block returns mc_tally's tally); bench/tracer.py wraps them on this module
from .concentration import mc_large_deviation, mc_quadratic_tail, mc_small_ball  # noqa: F401

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

FORMATS = ("jsonl", "csv", "svg")
SVG_COMMANDS = ("conc", "separate")

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
    # finite only: NaN and Infinity parse from JSON and YAML, but a record
    # that carried them would not be JSON
    return _is_int(v) or (isinstance(v, float) and math.isfinite(v))


# ---------------------------------------------------------------- key tables
# A key table maps each key to (default, check).  A key with default
# _REQUIRED must be given; null means "unset" only where the default is
# None.  check(value, values) returns an error text or None; it sees the
# values of the whole table, so a key that only some settings of the
# others read is refused wherever it would be ignored.

_REQUIRED = object()


def _rule(pred, what):
    return lambda v, p: None if pred(v) else f"{what}, got {v!r}"


def _choice(options):
    return _rule(lambda v: v in options, f"must be one of {options}")


def _only_if(cond, why, check):
    """A key read only where cond(values) holds; elsewhere it stays unset."""
    return lambda v, p: check(v, p) if cond(p) else (
        None if v is None else f"is not read {why}")


def _unset_or(check):
    return lambda v, p: None if v is None else check(v, p)


def _this_or(other, check):
    """The first of two alternative keys: it may stay unset only if `other` is set."""
    return lambda v, p: check(v, p) if v is not None else (
        None if p[other] is not None else f"set this or params.{other}")


_POS_INT = _rule(lambda v: _is_int(v) and v >= 1, "needs an integer >= 1")
_NAT = _rule(lambda v: _is_int(v) and v >= 0, "needs an integer >= 0")
_POS_NUM = _rule(lambda v: _is_num(v) and v > 0, "needs a positive number")
_ABOVE_ONE = _rule(lambda v: _is_num(v) and v > 1, "needs a number > 1")
_FRACTION = _rule(lambda v: _is_num(v) and 0 < v <= 1, "needs a number in (0, 1]")
# separation_scale divides by log^2(1/delta), which vanishes at delta = 1
_OPEN_FRACTION = _rule(lambda v: _is_num(v) and 0 < v < 1, "needs a number in (0, 1)")
# bm_upper has no refinement search: the refine key stays so that a config
# asking for one is refused instead of being accepted and ignored
_NO_REFINE = _rule(lambda v: v is False, "must be false: bm_upper has no refinement search")
_NUMBER = _rule(_is_num, "needs a number")
_NONNEG = _rule(lambda v: _is_num(v) and v >= 0, "needs a number >= 0")
_MAPPING = _rule(lambda v: isinstance(v, dict), "must be a mapping")
_THRESHOLDS = _unset_or(_rule(
    lambda v: isinstance(v, list) and bool(v) and all(_is_num(t) and t > 0 for t in v)
    and all(a < b for a, b in zip(v, v[1:])),
    "needs a nonempty strictly increasing list of positive numbers"))
_P_VALUES = _unset_or(_rule(
    lambda v: isinstance(v, list) and bool(v) and all(
        (_is_num(q) and q >= 1) or q in ("inf", "Infinity", math.inf) for q in v),
    "needs a nonempty list of exponents >= 1 or 'inf'"))


def _conc_m(v, p):
    top = p["n"] - 1 if _is_int(p["n"]) else math.inf
    if not (_is_int(v) and 1 <= v <= top):
        return f"needs an integer in [1, n - 1], got {v!r}"


def _subset_delta(check, below_n: int):
    """delta passing check, whose subset size m = round(delta * n) lies in
    [1, n - below_n]: a model body needs m >= 1, and conc needs m < n too."""
    def rule(v, p):
        if (err := check(v, p)) or not _is_int(p["n"]):
            return err
        if not 1 <= (m := round_half_up(v * p["n"])) <= p["n"] - below_n:
            return f"gives subset size m = {m} outside [1, n{' - 1' * below_n}]"
    return rule


def _net_tau(p):
    """The run's tau, params.tau or t^(1/12); None unless it is a number > 1."""
    given = p["tau"] if p["tau"] is not None else p["t"]
    if _is_num(given) and given > 1:
        tau = float(given) if p["tau"] is not None else tau_for_separation(float(given))
        return tau if tau > 1 else None


def _net_cap(v, p):
    """The run's step family, C(n + L - 1, L) maps at L = level_count(n, tau),
    must fit under the cap."""
    tau = _net_tau(p)
    if (err := _POS_INT(v, p)) or not (_is_int(p["n"]) and p["n"] >= 1) or tau is None:
        return err  # a bad n, tau or t is reported by its own rule
    try:
        levels = level_count(p["n"], tau)
    except ValueError as exc:  # tau too close to 1 for its levels to be counted
        return str(exc)
    if (members := math.comb(p["n"] + levels - 1, levels)) > v:
        return (f"the step family at n = {p['n']}, tau = {tau!r} has {members} members, "
                f"above the cap {v}")


def _conc_diag(v, p):
    if not (isinstance(v, list) and all(_is_num(d) for d in v)
            and (len(v) == p["n"] or not _is_int(p["n"]))):
        return f"needs a list of n numbers, got {v!r}"


_MODEL_KEYS = {
    "n": (_REQUIRED, _POS_INT),
    "delta": (_REQUIRED, _subset_delta(_FRACTION, 0)),
    "n_subsets": (_REQUIRED, _POS_INT),
    "kind": ("subset", _choice(_BODY_KINDS)),
}

# per command: its params table and the checks of the constants it reads
# (each defaults to 1.0)
_TABLES = {
    "sample": (dict(_MODEL_KEYS, count=(_REQUIRED, _POS_INT)), {}),
    "gauge": (dict(_MODEL_KEYS, count=(_REQUIRED, _POS_INT), points=(_REQUIRED, _POS_INT),
                   tol=(1e-6, _POS_NUM)), {}),
    "conc": ({
        "n": (_REQUIRED, _POS_INT),
        # a curve's raw_se needs two trials: one would write NaN, which is not JSON
        "trials": (_REQUIRED, _rule(lambda v: _is_int(v) and v >= 2,
                                    "needs an integer >= 2")),
        "statistic": (_REQUIRED, _choice(_STATISTICS)),
        "m": (None, _this_or("delta", _conc_m)),
        "delta": (None, _only_if(lambda p: p["m"] is None, "when params.m is set",
                                 _unset_or(_subset_delta(_FRACTION, 1)))),
        "matrix": ("identity", _choice(_MATRIX_KINDS)),
        "diag": (None, _only_if(lambda p: p["matrix"] == "diag", "unless matrix is 'diag'",
                                _conc_diag)),
        "thresholds": (None, _only_if(lambda p: p["statistic"] != "small_ball",
                                      "with statistic small_ball", _THRESHOLDS)),
        "replicates": (1, _POS_INT),
    }, {"c": _NONNEG}),
    "dist": (dict(_MODEL_KEYS, n_diag=(8, _NAT), refine=(False, _NO_REFINE)), {}),
    "separate": (dict(_MODEL_KEYS, delta=(_REQUIRED, _subset_delta(_OPEN_FRACTION, 0)),
                      bodies=(_REQUIRED, _POS_INT), threshold=(2.0, _POS_NUM),
                      bins=(16, _POS_INT), max_pairs=(None, _unset_or(_NAT)),
                      n_diag=(8, _NAT), refine=(False, _NO_REFINE)), {"c1": _NUMBER}),
    "net": ({
        "n": (_REQUIRED, _POS_INT),
        "tau": (None, _this_or("t", _ABOVE_ONE)),
        # tau = t^(1/12) rounds to 1 for t within a few ulps of 1
        "t": (None, _only_if(lambda p: p["tau"] is None, "when params.tau is set", _unset_or(
            lambda v, p: None if _net_tau(p) else
            f"needs a number > 1 whose 12th root exceeds 1, got {v!r}"))),
        "p_values": (None, _P_VALUES),
        "samples": (10**4, _POS_INT),
        "cap": (10**6, _net_cap),
    }, {"C": _NUMBER}),
}


def _top_table(command: str) -> dict:
    formats = FORMATS if command in SVG_COMMANDS else tuple(f for f in FORMATS if f != "svg")
    return {
        "command": (command, _rule(lambda v: v == command,
                                          f"must match the invoked command {command!r}")),
        "seed": (0, _rule(lambda v: _is_int(v) and 0 <= v < 2**64,
                          "needs an integer in [0, 2^64)")),
        "workers": (1, _rule(lambda v: _is_int(v) and v >= 1 and (v == 1 or hasattr(os, "fork")),
                             "needs an integer >= 1, and 1 where os.fork is missing")),
        "format": ("jsonl", _rule(lambda v: v in formats,
                                  f"must be one of {formats} for {command!r}")),
        "out": ("results", _rule(lambda v: isinstance(v, str) and v != "",
                                 "needs a nonempty path")),
        "constants": ({}, _MAPPING),
        "params": ({}, _MAPPING),
    }


def _check_keys(table: dict, given: dict, prefix: str, noun: str, command: str,
                errors: list) -> dict:
    """Every key of the table with its given value or default, each checked once."""
    for key in sorted(set(given) - set(table), key=str):
        errors.append(f"{prefix}.{key}: unknown {noun} for command {command!r}")
    values = {key: given.get(key, default) for key, (default, _) in table.items()}
    for key, (_, check) in table.items():
        if values[key] is _REQUIRED:
            errors.append(f"{prefix}.{key}: required for command {command!r}")
        elif (err := check(values[key], values)) is not None:
            errors.append(f"{prefix}.{key}: {err}")
    return values


def _parse_config(text: str):
    """The document of a config text: JSON when it parses as JSON, YAML
    otherwise.  PyYAML is imported only for the YAML case, so a JSON
    config never loads it.  The two differ on some scalars: JSON reads
    1e5 as 100000.0, YAML 1.1 as the string '1e5'."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        pass
    import yaml

    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ValueError(str(exc)) from exc


def load_config(path: str, command: str, overrides: dict | None = None):
    """Read and validate a config file against one command's key tables.

    overrides (seed, workers, format, out) replace the file's values
    before validation.  Returns (ExperimentConfig or None, list of error
    strings); the list is exhaustive rather than first-error-wins.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        return None, [f"config: cannot read {path}: {exc}"]
    try:
        doc = _parse_config(raw.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError is one; YAML errors are recast
        return None, [f"config: parse failure: {exc}"]
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        return None, ["config: top level must be a mapping"]
    if command not in _TABLES:
        return None, [f"command: unknown command {command!r}"]

    errors: list = []
    top = _check_keys(_top_table(command), {**doc, **(overrides or {})}, "config", "key",
                      command, errors)
    given = {k: v if isinstance(v, dict) else {} for k, v in top.items()}
    table, constant_checks = _TABLES[command]
    params = _check_keys(table, given["params"], "params", "key", command, errors)
    constants = _check_keys({name: (1.0, check) for name, check in constant_checks.items()},
                            given["constants"], "constants", "constant", command, errors)
    if errors:
        return None, errors
    cfg = ExperimentConfig(
        command=command,
        seed=top["seed"],
        workers=top["workers"],
        fmt=top["format"],
        out_dir=top["out"],
        constants={name: float(v) for name, v in constants.items()},
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
        "config_hash": cfg.config_hash,
        "seed": cfg.seed,
        "stream": stream,
        "kind": kind,
        "payload": _jsonable(payload),
    }


def _model_body(cfg: ExperimentConfig, stream: str):
    """(body, draw): the model body of cfg's params, drawn from
    substream(cfg.seed, stream).  Every command builds its bodies here, so
    a config, its seed and one stream name rebuild any body."""
    p = cfg.params
    params = ModelParams(n=p["n"], delta=p["delta"], n_subsets=p["n_subsets"])
    draw = sample_body(params, substream(cfg.seed, stream))
    if p["kind"] == "cap":
        return cap_body(params, draw.subsets), draw
    return draw.body, draw


def _pool_map(fn, jobs, workers: int):
    """[fn(j) for j in jobs].  Above one worker, min(workers, len(jobs))
    forked children take job indices from a shared pipe as they free up
    and pickle back their results or their exception.  Once every child
    has finished, the exception of the lowest failing job is raised here,
    the one a serial run raises, since jobs start in index order; a child
    that dies without a result fails the map at once.  Every child is
    reaped, and killed first on such a failure, before this returns or
    raises.  Forking is safe
    only in a process that runs no other thread; the CLI starts none.
    Under main() the workers fork from a frozen heap (see main)."""
    jobs = list(jobs)
    workers = min(workers, len(jobs))
    if workers <= 1:
        return [fn(j) for j in jobs]
    import select  # imported here: most runs are serial and never fork
    import signal

    sys.stdout.flush()  # else a child would write the parent's buffered text again
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    tasks_in, tasks_out = open(read_fd, "rb", buffering=0), open(write_fd, "wb", buffering=0)
    children, results = {}, [None] * len(jobs)  # result pipe -> (worker, pid, chunks)
    failed = {}  # job index -> exception of each failing job
    try:
        for w in range(workers):
            read_fd, write_fd = os.pipe()
            if (pid := os.fork()) == 0:
                _pool_child(fn, jobs, tasks_in, tasks_out, write_fd)
            os.close(write_fd)
            children[open(read_fd, "rb", buffering=0)] = (w, pid, [])
        tasks_in.close()
        try:  # a 4-byte write is atomic, so a child's 4-byte read takes one whole index
            for i in range(len(jobs)):
                tasks_out.write(i.to_bytes(4, "little"))
        except BrokenPipeError:  # every child has exited; their pipes say why
            pass
        tasks_out.close()
        while children:
            for fh in select.select(list(children), [], [])[0]:
                if chunk := fh.read(1 << 16):
                    children[fh][2].append(chunk)
                    continue
                w, pid, chunks = children.pop(fh)
                fh.close()
                status = os.waitpid(pid, 0)[1]
                if not chunks:
                    raise RuntimeError(f"pool worker {w} exited without a result (wait status "
                                       f"{status}, exit code {os.waitstatus_to_exitcode(status)})")
                tag, value = pickle.loads(b"".join(chunks))
                if tag == "err":
                    failed[value[0]] = value[1]
                    continue
                for i, result in value:
                    results[i] = result
        if failed:
            raise failed[min(failed)]
    finally:
        tasks_in.close()
        tasks_out.close()
        for fh, (_, pid, _) in children.items():  # the children not yet reaped
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return results


def _pool_child(fn, jobs, tasks_in, tasks_out, write_fd):
    """A forked child's whole life: run the jobs whose indices it reads
    from tasks_in, pickle ("ok", [(index, result), ...]) or ("err",
    (index, exception)) into write_fd, then leave through os._exit."""
    code, i = 1, -1
    try:
        try:
            tasks_out.close()  # else no child would see the indices end
            done = []
            while index := tasks_in.read(4):
                i = int.from_bytes(index, "little")
                done.append((i, fn(jobs[i])))
            data = pickle.dumps(("ok", done))
        except BaseException as exc:
            try:  # the round trip proves that the parent can rebuild it
                pickle.loads(data := pickle.dumps(("err", (i, exc))))
            except Exception:
                data = pickle.dumps(("err", (i, RuntimeError(repr(exc)))))
        with open(write_fd, "wb") as fh:
            fh.write(data)
        sys.stdout.flush()
        sys.stderr.flush()
        code = 0
    finally:
        os._exit(code)


# ---------------------------------------------------------------- workers
# _pool_map forks its workers, so a job's function and arguments reach
# them by inheritance and only results and exceptions are pickled; a job
# is the config, bound with functools.partial, plus its index


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


def _conc_block(cfg: ExperimentConfig, rep: int, mat, m: int, thresholds, block):
    idx, trials = block
    p = cfg.params
    rng = substream(cfg.seed, f"conc/{rep}/trial-block/{idx}")
    return mc_tally(p["statistic"], mat, p["n"], m, trials, thresholds, rng)


def _gauge_job(cfg: ExperimentConfig, idx: int):
    body, _ = _model_body(cfg, f"gauge/0/body/{idx}")
    rng = substream(cfg.seed, f"gauge/0/points/{idx}")
    rows = []
    for j in range(cfg.params["points"]):
        g = gauge(body, rng.standard_normal(body.dim), tol=cfg.params["tol"])
        rows.append({"point": j, "lo": g.lo, "hi": g.hi, "width": g.hi - g.lo,
                     "rounds": g.rounds})
    return rows


# ---------------------------------------------------------------- commands


def _cmd_sample(cfg: ExperimentConfig):
    p = cfg.params
    records, files = [], {}
    for i in range(p["count"]):
        stream = f"sample/0/body/{i}"
        body, draw = _model_body(cfg, stream)
        fname = f"body-0-{i}.txt"
        files[fname] = (body_to_text(body), "\n")
        records.append(_mk_record(cfg, stream, "body", {
            "index": i, "file": fname, "kind": p["kind"], "n": p["n"],
            "m": draw.subsets.shape[1], "n_subsets": p["n_subsets"],
            "covers_all": draw.covers_all}))
    return records, files


def _cmd_gauge(cfg: ExperimentConfig):
    results = _pool_map(functools.partial(_gauge_job, cfg), range(cfg.params["count"]),
                        cfg.workers)
    return [_mk_record(cfg, f"gauge/0/body/{i}", "gauge", {"body": i, **row})
            for i, rows in enumerate(results) for row in rows], {}


def _curve_payload(curve: TailCurve, constants: dict) -> dict:
    fit = curve.fitted_c()
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


def _cmd_conc(cfg: ExperimentConfig):
    p = cfg.params
    n, trials = p["n"], p["trials"]
    m = p["m"] if p["m"] is not None else round_half_up(p["delta"] * n)
    stat = p["statistic"]
    records = []
    for rep in range(p["replicates"]):
        mat = _conc_matrix(p["matrix"], n, p["diag"], cfg.seed, rep)
        thresholds = p["thresholds"]
        if thresholds is None:
            pilot = substream(cfg.seed, f"conc/{rep}/trial-block/pilot")
            thresholds = pilot_thresholds(stat, mat, n, m, trials, pilot)
        sizes = [BLOCK_TRIALS] * (trials // BLOCK_TRIALS)
        if trials % BLOCK_TRIALS:
            sizes.append(trials % BLOCK_TRIALS)
        tallies = _pool_map(functools.partial(_conc_block, cfg, rep, mat, m, thresholds),
                            enumerate(sizes), cfg.workers)
        curve = mc_curve(stat, mat, n, m, trials, thresholds, tallies)
        payload = _curve_payload(curve, cfg.constants)
        if stat == "quadratic":
            payload["center"] = (m / n) * float(np.trace(mat))
        payload.update({"replicate": rep, "statistic": stat, "matrix": p["matrix"],
                        "n": n, "m": m})
        records.append(_mk_record(cfg, f"conc/{rep}/merged", stat, payload))
    return records, {}


def _cmd_dist(cfg: ExperimentConfig):
    p = cfg.params
    body_a, _ = _model_body(cfg, "dist/0/body/0")
    body_b, _ = _model_body(cfg, "dist/0/body/1")
    fwd = op_norm(np.eye(p["n"]), body_a, body_b)
    est = bm_upper(body_a, body_b, p["n_diag"])
    return [
        _mk_record(cfg, "dist/0/op/0", "op_norm",
                   {"lo": fwd.lo, "hi": fwd.hi, "mode": fwd.mode, "notes": fwd.notes,
                    "witness": fwd.witness}),
        _mk_record(cfg, "dist/0/bm/0", "bm_upper",
                   {"upper": est.upper, "norm_fwd": est.norm_fwd, "norm_inv": est.norm_inv,
                    "best_map": est.best_map, "candidates": est.candidates}),
    ], {}


def _cmd_separate(cfg: ExperimentConfig):
    p = cfg.params
    bodies = [_model_body(cfg, f"separate/0/body/{i}")[0] for i in range(p["bodies"])]
    report = run_separation(
        bodies, functools.partial(_pool_map, workers=cfg.workers), threshold=p["threshold"],
        bins=p["bins"], max_pairs=p["max_pairs"], n_diag=p["n_diag"],
    )
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
    tau = _net_tau(p)
    raw_ps = p["p_values"]
    if raw_ps is None:
        raw_ps = [1 + 0.25 * i for i in range(13)] + ["inf"]
    ps = [float(v) for v in raw_ps]  # float reads "inf" and "Infinity"
    bodies = [lp_body(n, v) for v in ps]
    net = build_net(bodies, tau, cap=p["cap"])
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
                "log_log_cell_bound": net.log_log_cell_bound,
                "log_log_separation": log_log_separation(n, tau, cfg.constants["C"]),
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
    return records, {"net.txt": net_lines(net)}


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
    """Every replicate's tail curve on one frame: one log-x range over all
    thresholds, and one label listing the fitted c of each, in order."""
    curves = [r["payload"] for r in records]
    # a zero matrix's small-ball threshold is 0: the log axis puts it on its left edge
    pos = [float(t) for pl in curves for t in pl["thresholds"] if t > 0.0] or [1.0]
    t_min = min(pos)
    lx, hx = math.log10(t_min), math.log10(max(pos))
    span = (hx - lx) or 1.0
    floor_p = 1.0 / (2.0 * curves[0]["trials"])  # every replicate runs the same trials

    def x_of(t):
        return _SVG_PAD + (_SVG_W - 2 * _SVG_PAD) * (math.log10(max(t, t_min)) - lx) / span

    def y_of(p):
        p = max(float(p), floor_p)
        frac = (math.log10(p) - math.log10(floor_p)) / (0.0 - math.log10(floor_p))
        return _SVG_H - _SVG_PAD - (_SVG_H - 2 * _SVG_PAD) * max(0.0, min(frac, 1.0))

    parts = []
    for pl in curves:
        thr = [float(v) for v in pl["thresholds"]]
        pts = " ".join(
            f"{x_of(t):.2f},{y_of(b):.2f}" for t, b in zip(thr, pl["bound_at_fit"])
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
    fits = ", ".join(f"{pl['fitted_c']:.6g}" for pl in curves)
    parts.append(
        f'<text class="label" x="{_SVG_PAD}" y="{_SVG_PAD - 8}">fitted c = {fits}</text>\n'
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


def _report_file(records, fmt: str, command: str) -> dict:
    """The jsonl records, plus the csv or svg view when fmt asks for one,
    as {file name: text chunks}; the jsonl lines are rendered as they are
    written."""
    files = {f"{command}-records.jsonl":
             (json.dumps(r, sort_keys=True) + "\n" for r in records)}
    if fmt == "csv":
        files[f"{command}-records.csv"] = (_csv_for(command, records),)
    elif fmt == "svg":
        art = _svg_tail(records) if command == "conc" else _svg_hist(records)
        files[f"{command}-plot.svg"] = (art,)
    return files


def emit_report(files: dict, out_dir: str) -> None:
    """Write every output file of a run: files maps a name in out_dir to
    an iterable of text chunks, written in order.  A str would be written
    one character at a time, so a whole text comes as a 1-tuple.  A file
    is renamed into place from name.partial once whole, so a failed write
    leaves no torn file, and no .partial either."""
    for name, chunks in files.items():
        path = os.path.join(out_dir, name)
        with open(path + ".partial", "w", encoding="utf-8") as fh:
            try:
                fh.writelines(chunks)
            except BaseException:
                os.remove(fh.name)
                raise
        os.replace(fh.name, path)


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
        emit_report({**files, **_report_file(records, cfg.fmt, cfg.command)}, cfg.out_dir)
    except (GaugeError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def main(argv=None) -> int:
    """Parse argv (sys.argv when None), run it, return the exit code.
    argv None means the process runs the CLI as its program, so the import
    heap is frozen first: exit never traverses or frees it (about 9 ms per
    process) and _pool_map's workers fork from a frozen heap.  A caller
    that passes argv keeps its collector as it was."""
    if argv is None:
        gc.freeze()
    parser = argparse.ArgumentParser(
        prog="bmbodies",
        description="random convex body experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _TABLES:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="JSON or YAML config path")
        sp.add_argument("--seed", type=int, default=None, help="master seed override")
        sp.add_argument("--out", default=None, help="output directory override")
        sp.add_argument("--format", default=None, choices=FORMATS)
        sp.add_argument("--workers", type=int, default=None)
    args = parser.parse_args(argv)
    overrides = {key: getattr(args, key) for key in ("seed", "out", "format", "workers")
                 if getattr(args, key) is not None}
    cfg, errors = load_config(args.config, args.command, overrides)
    if errors:
        for err in errors:
            print(err, file=sys.stderr)
        return EXIT_VALIDATION
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
