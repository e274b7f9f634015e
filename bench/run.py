"""Benchmark of the bmbodies CLI: time to a certified result.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

--trace 0 launches each CLI invocation of the workload as a fresh
process, repeats the invocation list while --seconds allows, checks every
output, and reports the end-to-end metrics of BENCHMARK.json.  --trace 1
runs the same invocations in-process, untraced and traced, and reports
the per-layer metrics.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  Workloads,
metrics and checks are described in bench/README.md.
"""
import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import tracer as tr
import workloads as wl

# pinned before numpy loads (only the traced run imports it); every child
# process inherits them
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"

SETUP_REPEATS = 3
INVOCATION_TIMEOUT_S = 120

# what set-up costs a user: a fresh interpreter that imports the CLI and
# validates the workload's configs, nothing else
SETUP_CODE = """import sys
from bmbodies import cli
args = sys.argv[1:]
errors = [e for cmd, path in zip(args[0::2], args[1::2])
          for e in cli.load_config(path, cmd)[1]]
sys.exit(1 if errors else 0)
"""


class Tally:
    """Operations attempted and failed in one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def record(self, what: str, errors, incorrect: bool = True):
        """Count one operation; errors make it a failure.  A failure that
        is not a wrong output (a nonzero exit) keeps `correct`."""
        self.attempted += 1
        if errors:
            self.failed += 1
            self.correct = self.correct and not incorrect
            for err in errors:
                print(f"FAILED {what}: {err}", file=sys.stderr)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv, timeout: float, err_path: Path):
    """Run argv in its own process group and wait for it, killing the
    whole group (pool workers included) if it outlives the timeout.
    Returns (exit code, stderr text, wall seconds from launch to exit,
    peak resident set in MB of the child and the descendants it reaped)."""

    def kill():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    with open(err_path, "w+", encoding="utf-8") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), stdout=subprocess.DEVNULL,
                                stderr=err, start_new_session=True)
        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        text = err.read()
    return proc.returncode, text, wall, usage.ru_maxrss / 1024.0


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=30).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def write_configs(invs, work: Path) -> list:
    paths = []
    for i, inv in enumerate(invs):
        path = work / f"config-{i}.yaml"
        path.write_text(inv.config_text(), encoding="utf-8")
        paths.append(path)
    return paths


def run_untraced(name: str, seed: int, seconds: float, work: Path, tally: Tally):
    """End-to-end metrics from fresh CLI processes."""
    invs = wl.build(name, seed)
    cfgs = write_configs(invs, work)

    setup = []
    setup_args = [a for inv, cfg in zip(invs, cfgs) for a in (inv.command, str(cfg))]
    for _ in range(SETUP_REPEATS):
        code, err, wall, _ = run_child(
            [sys.executable, "-c", SETUP_CODE, *setup_args], INVOCATION_TIMEOUT_S,
            work / "setup.err")
        tally.record("setup", [f"exit {code}: {err.strip()}"] if code else [])
        setup.append(wall)

    walls = [[] for _ in invs]  # per invocation, one entry per repetition
    ok = [True] * len(invs)
    rss = [[] for _ in invs]
    certs, reps = [], 0
    start = time.perf_counter()
    while True:
        for i, (inv, cfg) in enumerate(zip(invs, cfgs)):
            out = work / f"out-{reps}-{i}"
            code, err, wall, peak = run_child(
                [sys.executable, "-m", "bmbodies.cli", inv.command, "--config",
                 str(cfg), "--out", str(out), "--workers", str(inv.workers)],
                INVOCATION_TIMEOUT_S, work / "cli.err")
            walls[i].append(wall)
            rss[i].append(peak)
            what = f"{name} invocation {i} ({inv.command}, seed {inv.seed})"
            if code != 0:
                ok[i] = False
                tally.record(what, [f"exit {code}: {err.strip()}"], incorrect=False)
            else:
                records = wl.read_records(str(out), inv.command)
                errors = wl.check_records(inv, records)
                tally.record(what, errors)
                ok[i] = ok[i] and not errors
                if reps == 0 and not errors:
                    certs.extend(wl.cert_values(inv, records))
            shutil.rmtree(out, ignore_errors=True)
        reps += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / reps > seconds:
            break

    if not certs:
        tally.correct = False
        print(f"FAILED {name}: no invocation returned a certified result",
              file=sys.stderr)
    # Invocations that differ only in their seed form a group; each group
    # adds its size times the median of its invocation times over all
    # repetitions.  The median resists machine noise and the heavy tail of
    # cap points.  Failed invocations are left out of time and memory, so a
    # fix that completes one does not read as a regression.
    def successful(per_invocation, members):
        return ([v for i in members if ok[i] for v in per_invocation[i]]
                or [v for i in members for v in per_invocation[i]])

    groups = [json.dumps([inv.command, inv.params, inv.workers], sort_keys=True)
              for inv in invs]
    wall_s = 0.0
    for group in dict.fromkeys(groups):
        members = [i for i, g in enumerate(groups) if g == group]
        wall_s += len(members) * statistics.median(successful(walls, members))
    peaks = successful(rss, range(len(invs)))
    metrics = {
        "wall_s": wall_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(peaks),
        "cert_ratio": statistics.fmean(certs) if certs else 0.0,
    }
    notes = {
        "wall_s": f"{len(invs)} invocations over {reps} repetitions",
        "setup_s": f"median of {SETUP_REPEATS} fresh interpreters",
        "peak_rss_mb": f"median over {len(peaks)} invocations of the largest "
                       "resident set in each one's process tree",
        "cert_ratio": f"mean over {len(certs)} certified results",
    }
    return metrics, notes


def run_traced(name: str, seed: int, work: Path, tally: Tally):
    """Per-layer metrics from in-process runs.  Each invocation runs four
    times back to back, so a burst of machine noise hits all four alike:
    untraced at its configured worker count, traced serially, untraced
    serially, and traced serially again."""
    sys.path.insert(0, str(SRC))
    from bmbodies import cli

    invs = wl.build(name, seed)
    cfgs = write_configs(invs, work)
    tracer, retracer = tr.Tracer(), tr.Tracer()

    reported = 0  # conc trials the traced pass reports

    def once(i, tag, workers, traced_by=None):
        """Run invocation i; returns (wall, exit code, payloads or None)."""
        nonlocal reported
        inv, out = invs[i], work / f"{tag}-{i}"

        def invoke():
            parsed, errors = cli.load_config(str(cfgs[i]), inv.command,
                                             {"out": str(out), "workers": workers})
            return cli.run(parsed) if not errors else cli.EXIT_VALIDATION

        if traced_by is not None:
            traced_by.install()
        try:
            t0 = time.perf_counter()
            code = traced_by.call("cli.invocation", invoke) if traced_by else invoke()
            wall = time.perf_counter() - t0
        finally:
            if traced_by is not None:
                traced_by.uninstall()
        records = wl.read_records(str(out), inv.command) if code == 0 else None
        shutil.rmtree(out, ignore_errors=True)
        what = f"{name} {tag} invocation {i} ({inv.command}, seed {inv.seed})"
        if records is None:
            tally.record(what, [f"exit {code}"], incorrect=False)
            return wall, code, None
        tally.record(what, wl.check_records(inv, records))
        if tag == "traced" and inv.command == "conc":
            reported += sum(r["payload"]["trials"] for r in records)
        return wall, code, wl.payloads(records)

    untraced_s = traced_s = pooled_s = pooled_serial_s = 0.0
    for i, inv in enumerate(invs):
        # the first serial run in this process pays for warming up memory,
        # so the overhead compares the two serial runs that follow it
        base = once(i, "pool", inv.workers)
        traced = once(i, "traced", 1, tracer)
        serial = once(i, "serial", 1)
        retraced = once(i, "retraced", 1, retracer)
        tally.record(f"{name} invocation {i}: traced serial vs untraced pooled "
                     "payloads", [] if traced[1:] == base[1:] else ["payloads differ"])
        untraced_s += serial[0]
        traced_s += retraced[0]
        if inv.workers > 1:
            pooled_s += base[0]
            pooled_serial_s += serial[0]

    spans = tracer.spans
    first, second = tr.counters(spans), tr.counters(retracer.spans)
    tally.record(f"{name}: exact counters repeat",
                 [f"{k}: {first[k]} then {second[k]}"
                  for k in first if first[k] != second[k]])
    tally.record(f"{name}: gauge certificates recheck", tr.recheck_gauges(spans))

    metrics = tr.layer_metrics(spans)
    sampled = first["concentration.trials_sampled"]
    metrics.update({
        "concentration.useful_trial_frac": reported / sampled if sampled else 0.0,
        "cli.scaling_eff": pooled_serial_s / (2.0 * pooled_s) if pooled_s else 0.0,
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
    })

    trace_dir = WORK / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    with open(trace_dir / f"{name}-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed, "environment": environment(),
                   "counters": first, "metrics": metrics,
                   "spans": tr.spans_json(spans)}, fh)
    notes = {"gauge.p50_ms": f"over {metrics['gauge.calls']} gauge calls",
             "gauge.p90_ms": f"over {metrics['gauge.calls']} gauge calls",
             "trace.overhead_s": "second traced minus untraced serial wall time"}
    return metrics, notes


def measure(name, seed, seconds, trace, spec, tally):
    work = WORK / f"run-{os.getpid()}-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if trace:
            metrics, notes = run_traced(name, seed, work, tally)
        else:
            metrics, notes = run_untraced(name, seed, seconds, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    wanted = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    out = {}
    for m in wanted:
        value = float(metrics[m["name"]])
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        note = notes.get(m["name"], "")
        print(f"{name}  {m['name']} = {value:.6g} {m['unit']}"
              f"  ({m['better']} is better{'; ' + note if note else ''})")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "bmbodies" / "cli.py").is_file():
        print(f"no bmbodies sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)

    print("environment " + json.dumps(environment(), sort_keys=True))
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    tally, metrics = Tally(), {}
    for name in names:
        got = measure(name, args.seed, args.seconds, args.trace, spec, tally)
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in got.items()})
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
