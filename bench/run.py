"""tangentia benchmark.

    python3 bench/run.py --workload lie-series --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
One client runs ops in a closed loop in this process: the next op starts
when the previous one has returned.  The last line of standard output is
the result (``correct``, ``attempted``, ``failed``, ``metrics``); the line
before it holds the details (environment, raw wall times, the tail
percentile and its op count, failed checks).

``--trace 0`` measures the end-to-end metrics: ``--seconds`` of ops in
whole cycles, extended until at least ten ops lie beyond the tail
percentile, with set-ups spread over the first ``--seconds``.
``--trace 1`` alternates two untraced and two traced cycles, and reports
per-layer self times and work counts (see ``tracer.py``); the work counts
of the two traced cycles must agree exactly.

Times are scaled to a reference host speed.  On a shared 2-vCPU Xeon
host (Python 3.11) the speed drifts by up to 2x over tens of seconds
(the same op takes 0.25 s or 0.49 s), which no run length averages out.
So a short fixed pure-Python probe runs between ops, and every wall time
is multiplied by ``REFERENCE_PROBE_S / probe time`` measured around it:
the reported values are the times on a host where the probe takes
exactly ``REFERENCE_PROBE_S``.  The raw wall times are printed in the
details.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRIPT_DIR = ROOT / ".bench_build" / "scripts"
DIGESTS = Path(__file__).resolve().parent / "digests.json"

# set-ups per end-to-end run: one before the ops, the rest between ops at
# even steps of op time, so that they sample the host's speed over the
# whole run and not over one second at its start
SETUPS = 7
REFERENCE_PROBE_S = 0.005
PROBE_EVERY_S = 0.25
# op_tail_ms percentile per workload, fixed so that runs of different
# commits compare the same percentile; runs are extended until MIN_BEYOND
# ops lie beyond it.  Each falls inside one slot's block of the sorted
# cycle, not on a boundary between two slots (see README.md).
TAIL_PERCENTILE = {"lie-series": 79, "script-batch": 85, "certify-lab": 85}
MIN_BEYOND = 10


# -- host speed ---------------------------------------------------------------------


def _probe_once():
    acc = {}
    third = Fraction(1, 3)
    t0 = perf_counter()
    for i in range(1500):
        key = (i % 7, i % 13)
        v = acc.get(key, 0) + third * (i % 5 - 2)
        if v:
            acc[key] = v
        else:
            acc.pop(key, None)
    return perf_counter() - t0


def probe():
    """Seconds a fixed pure-Python loop (Fraction arithmetic on a dict
    of tuple keys, like the package's inner loops) takes now; the median
    of three runs.  The garbage collector is paused meanwhile: a full
    collection of the ops' live heap, landing inside a 5 ms probe,
    would read as a slow host."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return statistics.median(_probe_once() for _ in range(3))
    finally:
        if enabled:
            gc.enable()


class Scaler:
    """Scales wall times by the probe measured before and after them."""

    def __init__(self):
        self.last = probe()
        self.pending = []
        self.since = 0.0
        self.scaled = []

    def add(self, seconds):
        self.pending.append(seconds)
        self.since += seconds
        if self.since >= PROBE_EVERY_S:
            self.flush()

    def flush(self):
        now = probe()
        scale = REFERENCE_PROBE_S / ((self.last + now) / 2)
        self.scaled.extend(s * scale for s in self.pending)
        self.pending = []
        self.since = 0.0
        self.last = now


# -- set-up -------------------------------------------------------------------------


def package_modules():
    return {n: m for n, m in sys.modules.items() if n == "tangentia" or n.startswith("tangentia.")}


def load_package():
    """Import tangentia afresh from this checkout's ``src``."""
    for name in package_modules():
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    tg = importlib.import_module("tangentia")
    importlib.import_module("tangentia.cli")
    if Path(tg.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"tangentia imported from {tg.__file__}, not from {SRC}")
    return tg


def fill_lyndon_caches(tg):
    """Expand every Lyndon word the workloads reach (rank 3 to degree 8)."""
    L = tg.free_lie(3)
    for d in range(1, 9):
        for w in tg.monomials_of_degree(L, d):
            tg.freealg.lyndon_expand(w)


def setup(workload, seed):
    """Import, generate the inputs and fill the caches; returns (package, ops)."""
    tg = load_package()
    SCRIPT_DIR.mkdir(parents=True, exist_ok=True)
    ops = workloads.build(tg, workload, seed, str(SRC), str(SCRIPT_DIR))
    fill_lyndon_caches(tg)
    return tg, ops


def timed_setup(workload, seed):
    """One set-up; returns (package, ops, scaled seconds, raw seconds).

    The garbage of earlier set-ups and ops is collected first, untimed,
    so a set-up is not charged for a collection of what came before it.
    """
    gc.collect()
    before = probe()
    t0 = perf_counter()
    tg, ops = setup(workload, seed)
    dt = perf_counter() - t0
    return tg, ops, dt * REFERENCE_PROBE_S / ((before + probe()) / 2), dt


# -- checks -------------------------------------------------------------------------


def verify(ops, frozen):
    """Run each op once, untimed, through its checks and the frozen digest.

    Returns {key: digest of the checked output, or None if a check failed}
    and the list of failures.  This pass also warms the caches.
    """
    verified, problems = {}, []
    for op in ops:
        try:
            out = op.call()
            h = workloads.digest(op.render(out))
            bad = list(op.check(out))
        except Exception as exc:  # a failing op is counted, not fatal
            h, bad = None, [f"{type(exc).__name__}: {exc}"]
        if h is not None and frozen.get(op.key) != h:
            bad.append("output differs from the frozen digest")
        verified[op.key] = None if bad else h
        problems.extend(f"{op.key}: {b}" for b in bad)
    return verified, problems


def run_op(op, verified):
    """Time one op; returns (wall seconds, passed)."""
    t0 = perf_counter()
    try:
        out = op.call()
    except Exception:  # a failing op is counted, not fatal
        return perf_counter() - t0, False
    dt = perf_counter() - t0
    want = verified.get(op.key)
    return dt, want is not None and workloads.digest(op.render(out)) == want


# -- the end-to-end run -------------------------------------------------------------


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def measure(workload, seed, ops, verified, seconds, setups):
    """The end-to-end run.  ``setups`` holds the (scaled, raw) times of
    the set-ups made so far; it is extended to ``SETUPS`` between ops."""
    pct = TAIL_PERCENTILE[workload]
    min_ops = math.ceil(MIN_BEYOND / (1 - pct / 100))
    loaded = package_modules()
    scaler = Scaler()
    raw, failed, cycles = [], 0, 0
    # the length is counted in scaled seconds, so a run makes the same
    # number of cycles whatever the host's speed
    while sum(scaler.scaled) < seconds or len(raw) < min_ops:
        for op in ops:
            dt, ok = run_op(op, verified)
            scaler.add(dt)
            raw.append(dt)
            failed += not ok
            if len(setups) < SETUPS and sum(scaler.scaled) >= len(setups) * seconds / SETUPS:
                scaler.flush()
                setups.append(timed_setup(workload, seed)[2:])
                # the ops' own package again, for their lazy imports; the
                # fresh copy is collected now, not inside an op
                for name in package_modules():
                    del sys.modules[name]
                sys.modules.update(loaded)
                gc.collect()
                scaler.last = probe()
        scaler.flush()
        cycles += 1
    lat = scaler.scaled
    metrics = {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": 1000 * statistics.median(lat),
        "op_tail_ms": 1000 * percentile(lat, pct),
        "setup_s": statistics.median(s for s, _ in setups),
    }
    details = {
        "ops": len(lat),
        "cycles": cycles,
        "setups": len(setups),
        "raw_setup_s": statistics.median(r for _, r in setups),
        "tail_percentile": pct,
        "ops_beyond_tail": len(lat) - math.ceil(pct / 100 * len(lat)),
        "raw_ops_per_s": len(raw) / sum(raw),
        "raw_op_p50_ms": 1000 * statistics.median(raw),
        "raw_op_tail_ms": 1000 * percentile(raw, pct),
        "host_speed": sum(raw) / sum(lat),
    }
    return metrics, failed, len(lat), details


# -- the traced run -----------------------------------------------------------------


def run_cycle(ops, verified):
    """One pass over the cycle; returns (scaled wall seconds, raw, failures)."""
    before = probe()
    t0 = perf_counter()
    failed = sum(not run_op(op, verified)[1] for op in ops)
    wall = perf_counter() - t0
    return wall * REFERENCE_PROBE_S / ((before + probe()) / 2), wall, failed


def traced_cycle(ops, verified):
    tr = tracing.Tracer()
    missing = tracing.install(tr)
    try:
        wall, raw, failed = run_cycle(ops, verified)
    finally:
        tr.uninstall()
    scale = wall / raw
    return tr, {k: v * scale for k, v in tr.self_s.items()}, wall, failed, missing


def layer_metrics(tr, self_s):
    c = tr.counts
    out = {f"{layer}.self_s": s for layer, s in self_s.items()}
    out.update({k: v for k, v in c.items()})
    out.update(tr.peaks)
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    out["freealg.mul.kept_ratio"] = ratio(c["freealg.mul.kept_pairs"], c["freealg.mul.trunc_pairs"])
    out["freealg.coeff_int_share"] = ratio(c["freealg.int_coeffs"], c["freealg.out_coeffs"])
    out["wildness.span.hit_ratio"] = ratio(c["wildness.span.hits"], c["wildness.span.samples"])
    return out


def trace(ops, verified):
    """Untraced and traced cycles, alternated so host drift hits both alike."""
    untraced, traced, problems, failed = [], [], [], 0
    for _ in range(2):
        wall, raw, bad = run_cycle(ops, verified)
        untraced.append(wall)
        traced.append(traced_cycle(ops, verified))
        failed += bad + traced[-1][3]
    (tr_a, self_a, wall_a, _, missing), (tr_b, self_b, wall_b, _, _) = traced
    counts_a = {**tr_a.counts, **tr_a.peaks}
    counts_b = {**tr_b.counts, **tr_b.peaks}
    if counts_a != counts_b:
        diff = sorted(k for k in counts_a.keys() | counts_b.keys() if counts_a.get(k) != counts_b.get(k))
        problems.append(f"work counts differ between two traced passes: {diff}")
    # a target the package no longer has would leave its metrics at zero,
    # which reads as a perfect gain
    problems += [f"trace target missing: {name}" for name in missing]
    self_s = {k: (self_a.get(k, 0.0) + self_b.get(k, 0.0)) / 2 for k in self_a.keys() | self_b.keys()}
    untraced_s = statistics.fmean(untraced)
    traced_s = (wall_a + wall_b) / 2
    metrics = layer_metrics(tr_a, self_s)
    metrics.update(
        {
            "trace.untraced_wall_s": untraced_s,
            "trace.traced_wall_s": traced_s,
            "trace.overhead_ratio": traced_s / untraced_s,
        }
    )
    total = sum(self_s.values())
    details = {
        "untraced_wall_s": untraced_s,
        "traced_wall_s": traced_s,
        "hook_s": (tr_a.hook_s + tr_b.hook_s) / 2,
        "missing_targets": missing,
        "self_share": [[k, round(v / total, 4)] for k, v in sorted(self_s.items(), key=lambda kv: -kv[1])],
    }
    return metrics, failed, 4 * len(ops), details, problems


# -- environment --------------------------------------------------------------------


def git_commit():
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    path = ROOT / ".git" / name
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment():
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": src_lines,
        "git_commit": git_commit(),
    }


# -- main ---------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    frozen = json.loads(DIGESTS.read_text())
    _, ops, setup_s, setup_raw = timed_setup(args.workload, args.seed)
    t0 = perf_counter()
    verified, problems = verify(ops, frozen)
    verify_s = perf_counter() - t0
    if args.trace:
        metrics, failed, attempted, details, more = trace(ops, verified)
        problems += more
        wanted = spec["per_layer"]
    else:
        metrics, failed, attempted, details = measure(
            args.workload, args.seed, ops, verified, args.seconds, [(setup_s, setup_raw)]
        )
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wanted = spec["end_to_end"]
    details.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        cycle=[op.key for op in ops],
        fail_frac=failed / attempted,
        problems=problems,
        env=environment(),
        raw_verify_s=verify_s,
    )
    print(json.dumps(details, sort_keys=True))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
