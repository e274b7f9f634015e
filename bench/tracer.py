"""In-memory spans around the calls into each bmbodies layer.

The tracer replaces a public function by a timing wrapper at the place
its caller looks it up (a module attribute or a class attribute), so the
program itself is not edited.  Every call records one span: name, start,
end, parent, plus whatever the span's hook extracts from the arguments
and result.  Spans stay in memory; self time and the per-layer metrics
are derived after the traced pass ends.
"""
from __future__ import annotations

import statistics
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    raised: bool = False
    info: dict = field(default_factory=dict)
    child_s: float = 0.0

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s


def _lp_info(args, kwargs, res):
    a_eq, a_ub = kwargs.get("A_eq"), kwargs.get("A_ub")
    rows = (a_eq.shape[0] if a_eq is not None else 0) + (
        a_ub.shape[0] if a_ub is not None else 0)
    return {"rows": rows, "cols": len(args[0]), "status": int(res.status)}


def _gauge_info(args, kwargs, res):
    return {"rounds": res.rounds, "args": args, "res": res}


def _rows_info(args, kwargs, res):
    return {"rows": len(args[1])}


def _count_info(args, kwargs, res):
    return {"count": int(args[2])}


def _op_norm_info(args, kwargs, res):
    # the defaults are op_norm's own
    mode = args[3] if len(args) > 3 else kwargs.get("mode", "exhaustive")
    cutoff = args[4] if len(args) > 4 else kwargs.get("sign_cutoff", 16)
    return {"points": points_enumerated(args[1], mode, cutoff)}


def _bm_info(args, kwargs, res):
    return {"candidates": len(res.candidates)}


def points_enumerated(body, mode: str, sign_cutoff: int, restarts: int = 32) -> int:
    """Candidate points op_norm considers for source body K, computed from
    the body's structure: the extreme points of every polytopal
    component (sign patterns of each unconditional generator up to the
    cutoff, one sampled refinement beyond it) and the at most four
    sphere-ascent candidates of each Euclidean component, which start from
    its coordinate directions and `restarts` (op_norm's default) more."""
    from bmbodies.bodies import SignedPoints

    n, total = body.dim, 0
    for comp in body.components:
        if isinstance(comp, SignedPoints):
            if not comp.unconditional:
                total += 2 * comp.points.shape[0]
                continue
            sizes = [int((g != 0).sum()) for g in comp.points]
        else:
            size = n if comp.support is None else comp.support.size
            if comp.p == 1.0:
                total += 2 * size
                continue
            if comp.p == 2.0:
                total += min(4, size + max(restarts, 1))
                continue
            sizes = [size]
        for k in sizes:
            if k:
                total += 2**k if mode == "exhaustive" and k <= sign_cutoff else 1
    return total


# (module, attribute, span name, hook); a class attribute is given as
# "Class.method".  Modules are taken from sys.modules, where importing
# bmbodies.cli has put them all; for the gauge module that is the only
# way, because the package attribute bmbodies.gauge is the gauge function.
WRAPPED = [
    ("bmbodies.cli", "load_config", "cli.load_config", None),
    ("bmbodies.cli", "emit_report", "cli.emit_report", None),
    ("bmbodies.cli", "substream", "randmodel.substream", None),
    ("bmbodies.distance", "substream", "randmodel.substream", None),
    ("bmbodies.symnet", "substream", "randmodel.substream", None),
    ("bmbodies.cli", "sample_body", "randmodel.sample_body", None),
    ("bmbodies.bodies", "subset_body", "bodies.build", None),
    ("bmbodies.cli", "cap_body", "bodies.build", None),
    ("bmbodies.bodies", "support_many", "bodies.support_many", None),
    ("bmbodies.gauge", "support_many", "bodies.support_many", None),
    ("bmbodies.distance", "support_many", "bodies.support_many", None),
    ("bmbodies.cli", "gauge", "gauge.gauge", _gauge_info),
    ("bmbodies.distance", "gauge", "gauge.gauge", _gauge_info),
    ("bmbodies.gauge", "linprog", "gauge.linprog", _lp_info),
    ("bmbodies.gauge", "minimize", "gauge.minimize", None),
    ("bmbodies.cli", "op_norm", "distance.op_norm", _op_norm_info),
    ("bmbodies.distance", "op_norm", "distance.op_norm", _op_norm_info),
    ("bmbodies.cli", "bm_upper", "distance.bm_upper", _bm_info),
    ("bmbodies.distance", "spectral_norm", "linalg", None),
    ("bmbodies.distance", "svd", "linalg", None),
    ("bmbodies.concentration", "spectral_norm", "linalg", None),
    ("bmbodies.concentration", "hs_norm", "linalg", None),
    ("bmbodies.cli", "mc_quadratic_tail", "concentration.mc", None),
    ("bmbodies.cli", "mc_large_deviation", "concentration.mc", None),
    ("bmbodies.cli", "mc_small_ball", "concentration.mc", None),
    ("bmbodies.concentration", "sample_subsets", "concentration.sampling",
     _count_info),
    ("bmbodies.cli", "enumerate_steps", "symnet.enumerate_steps", None),
    ("bmbodies.symnet", "enumerate_steps", "symnet.enumerate_steps", None),
    ("bmbodies.cli", "build_net", "symnet.build_net", None),
    ("bmbodies.cli", "certify_pair", "symnet.certify", None),
    ("bmbodies.cli", "log_profile", "symnet.log_profile", None),
    ("bmbodies.symnet", "log_profile", "symnet.log_profile", None),
    ("bmbodies.symnet", "SymmetricBody.norm_many", "symnet.norm_many", _rows_info),
]


class Tracer:
    """Installs the span wrappers; `spans` keeps every span of the pass."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []

    def _wrap(self, fn, name, hook):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = Span(name, clock(), parent=stack[-1] if stack else -1)
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            try:
                res = fn(*args, **kwargs)
            except BaseException:
                span.raised = True
                raise
            finally:
                span.end = clock()
                stack.pop()
                if span.parent >= 0:
                    spans[span.parent].child_s += span.dur
            if hook is not None:
                span.info = hook(args, kwargs, res)
            return res

        return wrapper

    def call(self, name: str, fn, *args):
        """Run fn(*args) inside a span opened by the benchmark itself."""
        return self._wrap(fn, name, None)(*args)

    def install(self):
        for mod_name, attr, name, hook in WRAPPED:
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, hook))

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()


def spans_json(spans) -> list:
    """Spans as plain JSON rows; parents are indexes into the list."""
    return [
        {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
         "self_s": s.self_s, "raised": s.raised,
         **{k: v for k, v in s.info.items() if k not in ("args", "res")}}
        for s in spans
    ]


def _ancestors(spans, span):
    while span.parent >= 0:
        span = spans[span.parent]
        yield span.name


def _pct(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def counters(spans) -> dict:
    """Work counts that must repeat exactly for the same inputs."""
    gauges = [s for s in spans if s.name == "gauge.gauge"]
    lps = [s for s in spans if s.name == "gauge.linprog"]
    certify = rank = 0
    for s in gauges:
        above = set(_ancestors(spans, s))
        if "distance.op_norm" in above:
            certify += 1
        elif "distance.bm_upper" in above:
            rank += 1
    return {
        "gauge.calls": len(gauges),
        "gauge.lp_solves": len(lps),
        "gauge.lp_rows_total": sum(s.info.get("rows", 0) for s in lps),
        "gauge.lp_cols_total": sum(s.info.get("cols", 0) for s in lps),
        "distance.points_enumerated": sum(
            s.info.get("points", 0) for s in spans if s.name == "distance.op_norm"),
        "distance.certify_gauge_calls": certify,
        "distance.rank_gauge_calls": rank,
        "concentration.trials_sampled": sum(
            s.info.get("count", 0) for s in spans if s.name == "concentration.sampling"),
        "symnet.norm_rows": sum(
            s.info.get("rows", 0) for s in spans if s.name == "symnet.norm_many"),
    }


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced pass.  A layer that did not run
    reports 0 for each of its metrics."""

    def pick(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.dur for s in pick(name))

    def ratio(a, b):
        return a / b if b else 0.0

    c = counters(spans)
    gauges = pick("gauge.gauge")
    lps = pick("gauge.linprog")
    lp_parents = {s.parent for s in lps}
    gauge_idx = [i for i, s in enumerate(spans) if s.name == "gauge.gauge"]
    ok = [s for s in gauges if not s.raised]
    lat_ms = [s.dur * 1e3 for s in gauges]
    mc_s = total("concentration.mc")
    norm_s = total("symnet.norm_many")
    bms = pick("distance.bm_upper")
    op_s = sum(s.dur for s in pick("distance.op_norm")
               if "distance.op_norm" not in set(_ancestors(spans, s)))
    return {
        "cli.load_config_s": total("cli.load_config"),
        "cli.emit_s": total("cli.emit_report"),
        "randmodel.substream_calls": len(pick("randmodel.substream")),
        "randmodel.substream_s": total("randmodel.substream"),
        "randmodel.sample_body_s": total("randmodel.sample_body"),
        "bodies.support_many_calls": len(pick("bodies.support_many")),
        "bodies.support_many_s": total("bodies.support_many"),
        "bodies.build_s": total("bodies.build"),
        "gauge.calls": c["gauge.calls"],
        "gauge.self_s": sum(s.self_s for s in gauges),
        "gauge.p50_ms": _pct(lat_ms, 50),
        "gauge.p90_ms": _pct(lat_ms, 90),
        "gauge.lp_solves": c["gauge.lp_solves"],
        "gauge.lp_solve_s": sum(s.dur for s in lps),
        "gauge.lp_rows_mean": ratio(c["gauge.lp_rows_total"], len(lps)),
        "gauge.lp_cols_mean": ratio(c["gauge.lp_cols_total"], len(lps)),
        "gauge.nlp_calls": len(pick("gauge.minimize")),
        "gauge.nlp_s": total("gauge.minimize"),
        "gauge.rounds_mean": ratio(sum(s.info["rounds"] for s in ok), len(ok)),
        "gauge.closed_form_frac": ratio(
            sum(1 for i in gauge_idx if i not in lp_parents), len(gauges)),
        "gauge.failed_frac": ratio(len(gauges) - len(ok), len(gauges)),
        "distance.op_norm_calls": len(pick("distance.op_norm")),
        "distance.op_norm_s": op_s,
        "distance.bm_upper_s": sum(s.dur for s in bms),
        "distance.bm_upper_self_s": sum(s.self_s for s in bms),
        "distance.candidates": sum(s.info.get("candidates", 0) for s in bms),
        "distance.certify_gauge_calls": c["distance.certify_gauge_calls"],
        "distance.rank_gauge_calls": c["distance.rank_gauge_calls"],
        "distance.points_enumerated": c["distance.points_enumerated"],
        "distance.eval_frac": ratio(c["distance.certify_gauge_calls"],
                                    c["distance.points_enumerated"]),
        "concentration.mc_s": mc_s,
        "concentration.sampling_s": total("concentration.sampling"),
        "concentration.trials_sampled": c["concentration.trials_sampled"],
        "concentration.trials_per_s": ratio(c["concentration.trials_sampled"], mc_s),
        "linalg.calls": len(pick("linalg")),
        "linalg.s": total("linalg"),
        "symnet.enumerate_steps_s": total("symnet.enumerate_steps"),
        "symnet.build_net_s": total("symnet.build_net"),
        "symnet.certify_s": total("symnet.certify"),
        "symnet.log_profile_calls": len(pick("symnet.log_profile")),
        "symnet.norm_rows": c["symnet.norm_rows"],
        "symnet.norm_rows_per_s": ratio(c["symnet.norm_rows"], norm_s),
    }


def recheck_gauges(spans) -> list:
    """Recheck every gauge certificate without the solver.

    Lower bound: the dual witness y has h_K(y) <= 1 + 1e-9 and
    <x, y> >= lo.  Upper bound: the pieces sum back to x up to a residual
    r, and the piece values plus |r|_2 / inradius_lower(K), which covers
    r by the inscribed ball, add up to at most hi.
    """
    import numpy as np
    from bmbodies.bodies import inradius_lower, support_many

    errors = []
    for s in spans:
        if s.name != "gauge.gauge" or s.raised:
            continue
        body, x = s.info["args"][0], np.asarray(s.info["args"][1], dtype=float)
        res = s.info["res"]
        slack = 1e-9 * max(1.0, abs(res.hi))
        y = res.dual_witness
        h = float(support_many(body, y[None, :])[0])
        if not (h <= 1.0 + 1e-9 and float(x @ y) >= res.lo - slack):
            errors.append(f"gauge lower certificate fails: h_K(y)={h!r}, "
                          f"<x,y>={float(x @ y)!r}, lo={res.lo!r}")
        resid = x - sum((np.asarray(p[1], dtype=float) for p in res.pieces),
                        np.zeros_like(x))
        cover = sum(p[2] for p in res.pieces)
        cover += float(np.sqrt(resid @ resid)) / inradius_lower(body)
        if not cover <= res.hi + slack:
            errors.append(f"gauge upper certificate fails: pieces give "
                          f"{cover!r} > hi={res.hi!r}")
    return errors
