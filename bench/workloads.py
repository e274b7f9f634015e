"""The benchmark's fixed workloads and the checks on their outputs.

A workload is a fixed list of CLI invocations.  Each invocation gets its
own CLI seed, derived from the workload seed by hashing, so the same
workload seed always produces the same inputs.  Sizes are fixed here and
never adjusted to dodge a failure; see bench/README.md for why each
workload exists and what it stresses.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

# gauge records must satisfy lo <= hi <= lo + tol * max(hi, 1e-12);
# tol is the CLI default, which no workload overrides
GAUGE_TOL = 1e-6

_MODEL = {"n": 80, "delta": 0.25, "n_subsets": 320}


@dataclass(frozen=True)
class Invocation:
    """One CLI run: `bmbodies <command> --config <params> --seed <seed>`."""

    command: str
    params: dict
    workers: int
    seed: int

    def config_text(self) -> str:
        doc = {"command": self.command, "seed": self.seed, "params": self.params}
        return json.dumps(doc, sort_keys=True) + "\n"  # JSON is valid YAML


def derive_seed(workload: str, seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _gauge_subset(seed):
    params = dict(_MODEL, kind="subset", count=2, points=3)
    return [Invocation("gauge", params, 2, derive_seed("gauge-subset", seed, 0))]


def _gauge_cap(seed):
    # eight small invocations rather than one large one: a HiGHS status-4
    # abort kills a whole invocation and hits about 4% of cap points, and
    # point costs are heavy-tailed, so the time is a median over eight
    params = dict(_MODEL, kind="cap", count=2, points=2)
    return [
        Invocation("gauge", params, 2, derive_seed("gauge-cap", seed, i))
        for i in range(8)
    ]


def _dist(seed):
    # one body pair: it takes 12 to 29 s depending on the bodies, so a
    # second pair would not fit in a run
    params = {"n": 8, "delta": 0.5, "n_subsets": 16}
    return [Invocation("dist", params, 1, derive_seed("dist", seed, 0))]


def _mc_net(seed):
    conc = {"n": 100, "m": 25, "trials": 100000, "statistic": "quadratic",
            "matrix": "gaussian"}
    net = {"n": 12, "tau": 1.5}
    return [
        Invocation("conc", conc, 2, derive_seed("mc-net", seed, 0)),
        Invocation("net", net, 1, derive_seed("mc-net", seed, 1)),
    ]


WORKLOADS = {
    "gauge-subset": _gauge_subset,
    "gauge-cap": _gauge_cap,
    "dist": _dist,
    "mc-net": _mc_net,
}


def build(workload: str, seed: int) -> list:
    return WORKLOADS[workload](seed)


def read_records(out_dir: str, command: str) -> list:
    path = os.path.join(out_dir, f"{command}-records.jsonl")
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def payloads(records) -> str:
    """Records without their timestamps as canonical JSON, for determinism
    comparisons (text compares NaN payload entries as equal)."""
    return json.dumps([{k: v for k, v in r.items() if k != "timestamp"}
                       for r in records], sort_keys=True)


def _finite(*vals) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in vals)


def _check_gauge(records, errors):
    for r in records:
        p = r["payload"]
        lo, hi = p["lo"], p["hi"]
        if not (_finite(lo, hi) and lo <= hi <= lo + GAUGE_TOL * max(hi, 1e-12)):
            errors.append(f"gauge body {p['body']} point {p['point']}: "
                          f"bracket lo={lo!r} hi={hi!r} not closed")


def _check_dist(records, errors):
    for r in records:
        p = r["payload"]
        if r["kind"] == "op_norm":
            if not (_finite(p["lo"], p["hi"]) and p["lo"] <= p["hi"]):
                errors.append(f"op_norm bracket lo={p['lo']!r} hi={p['hi']!r}")
        elif r["kind"] == "bm_upper":
            up, fwd, inv = p["upper"], p["norm_fwd"], p["norm_inv"]
            if not (_finite(up, fwd, inv) and up == fwd * inv and up >= 1.0):
                errors.append(f"bm_upper {up!r} != norm_fwd*norm_inv "
                              f"({fwd!r}*{inv!r}) or below 1")


def _check_conc(records, errors):
    for r in records:
        p = r["payload"]
        counts = p["counts"]
        if any(b > a for a, b in zip(counts, counts[1:])):
            errors.append(f"conc replicate {p['replicate']}: counts increase")
        if "center" in p and not abs(p["raw_mean"] - p["center"]) <= 4.0 * p["raw_se"]:
            errors.append(f"conc replicate {p['replicate']}: raw_mean "
                          f"{p['raw_mean']!r} is over 4 se from {p['center']!r}")


def _check_net(records, errors):
    for r in records:
        if r["kind"] == "certificate" and r["payload"]["granted"] is not True:
            errors.append(f"net certificate {r['payload']['member']} not granted")


_CHECKS = {"gauge": _check_gauge, "dist": _check_dist, "conc": _check_conc,
           "net": _check_net}


def check_records(inv: Invocation, records) -> list:
    """Output checks on one invocation's records; returns error strings."""
    errors: list = []
    if not records:
        return [f"{inv.command}: no records written"]
    _CHECKS[inv.command](records, errors)
    return errors


def cert_values(inv: Invocation, records) -> list:
    """Each certified result as a ratio >= 1 that is lower when tighter:
    hi/lo of each gauge bracket, the Banach-Mazur distance bound, and the
    distance bound of each net certificate.  conc reports none."""
    if inv.command == "gauge":
        return [r["payload"]["hi"] / r["payload"]["lo"] for r in records]
    if inv.command == "dist":
        return [r["payload"]["upper"] for r in records if r["kind"] == "bm_upper"]
    if inv.command == "net":
        return [r["payload"]["distance_bound"] for r in records
                if r["kind"] == "certificate"]
    return []
