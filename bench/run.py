"""etacomplex benchmark: one seeded workload, closed loop, one caller.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Set-up (import, instance generation, validation and writing the
instance files) is repeated ``SETUP_REPS`` times and its median reported as
``setup_s``.  With ``--trace 0`` the ops run back to back until their summed
latency reaches ``--seconds``; the op clock stops while the benchmark
re-validates each answer.  Every time is scaled to a reference machine
speed (see ``Calibration``).  With ``--trace 1`` a fixed list of ops (so
that every counter repeats exactly for a seed) runs once untraced and once
with the span recorder installed, and the per-layer metrics and the
tracing overhead are reported.

Everything the run writes goes under ``.bench_work/`` and ``.bench_out/`` in
the checkout.  The last line of standard output is the result object; the
line before it records the environment, the workload parameters and the
verdict digest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPS = 3
IMPORT_REPS = 9
WALL_LIMIT_S = 165.0   # stop issuing ops after this much wall time
RAW_CAP = 1.5          # on a slow machine stop at RAW_CAP * --seconds of raw op time
HELD_OUT_SEED = 7      # never tune against this seed; use it to check claims
CHUNK_S = 0.1          # op time between two calibrations
# Median time of `calibrate()` on a shared 2-vCPU, 2.1 GHz x86-64 VM (Python 3.11)
# where the benchmark was defined; times are reported at this speed.
REF_CAL_S = 0.0063

perf = time.perf_counter


def _kernel():
    """Integer matrix product, Fraction elimination and small allocations:
    the kinds of work the library does, in code the library does not share."""
    n = 20
    a = [[(i * 7 + j * 3) % 11 - 5 for j in range(n)] for i in range(n)]
    b = [[(i * 5 + j * 2) % 13 - 6 for j in range(n)] for i in range(n)]
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        ai, oi = a[i], out[i]
        for k in range(n):
            aik, bk = ai[k], b[k]
            for j in range(n):
                oi[j] += aik * bk[j]
    rows = [[Fraction(1, i + j + 1) for j in range(8)] for i in range(8)]
    for c in range(8):
        inv = 1 / rows[c][c]
        rows[c] = [x * inv for x in rows[c]]
        for r in range(8):
            if r != c:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return out, rows


def calibrate() -> float:
    """Seconds for a fixed pure-Python integer kernel that uses no etacomplex
    code: a probe of how fast the shared machine runs right now."""
    t0 = perf()
    for _ in range(3):
        _kernel()
    return perf() - t0


class Calibration:
    """Scales times measured between probes to the reference speed.

    A shared machine's speed can drift by tens of percent over seconds.  A probe
    (``calibrate()``) follows every chunk of work; the chunk between probes
    i and i+1 is multiplied by REF_CAL_S over the median of the probes i-2
    to i+3, which follows the drift and ignores a probe that was itself
    interrupted.  Raw times are kept in the run record."""

    def __init__(self):
        self.probes = [calibrate()]

    def probe(self) -> float:
        """Probe after a chunk; returns that chunk's factor from its two
        neighbouring probes, for decisions taken during the run."""
        self.probes.append(calibrate())
        return REF_CAL_S / ((self.probes[-2] + self.probes[-1]) / 2)

    def factors(self):
        """The smoothed factor of every chunk probed so far."""
        p = self.probes
        return [REF_CAL_S / statistics.median(p[max(0, i - 2): i + 4]) for i in range(len(p) - 1)]


def _import_seconds() -> float:
    """Median time to import the CLI module in a fresh interpreter, after one
    untimed import that fills the bytecode cache."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import etacomplex.cli; print(time.perf_counter() - t)")
    times = []
    for rep in range(IMPORT_REPS + 1):
        out = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")], cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=True)
        if rep:
            times.append(float(out.stdout.strip()))
    return statistics.median(times)


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "etacomplex").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def verdict_digest(ops) -> str:
    """sha256 over the (op key, expected verdict) pairs of the instance set."""
    text = "".join(f"{op.key} {op.expected}\n" for op in sorted(ops, key=lambda o: o.key))
    return hashlib.sha256(text.encode()).hexdigest()


def tail(latencies, pct: float):
    """(value, percentile): the nearest-rank `pct` percentile when at least
    ten samples lie beyond it, else the latency with ten samples above it."""
    xs = sorted(latencies)
    k = math.ceil(len(xs) * pct / 100) - 1
    if len(xs) - 1 - k < 10:
        k = max(0, len(xs) - 11)
        pct = 100.0 * (k + 1) / len(xs)
    return xs[k], pct


class Runner:
    """Runs ops, times them and judges every answer."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def run(self, index, op) -> float:
        tr = self.tracer
        self.attempted += 1
        if tr is not None:
            tr.op_index = index
            tr.stack.append(["op", 0.0])
            tr.enabled = True
        t0 = perf()
        try:
            result = op.run()
            dt = perf() - t0
        except Exception:
            dt = perf() - t0
            self._fail(op, "raised: " + traceback.format_exc(limit=3))
            return dt
        finally:
            if tr is not None:
                tr.enabled = False
                tr.stack.pop()
        try:
            verdict, valid = op.judge(result)
        except Exception:
            self._fail(op, "witness check raised: " + traceback.format_exc(limit=3))
            return dt
        if verdict != op.expected:
            self._fail(op, f"verdict {verdict}, expected {op.expected}")
        elif not valid:
            self._fail(op, f"verdict {verdict} but its witness does not re-validate")
        return dt

    def _fail(self, op, why):
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"{op.key}: {why}")


def _setup(wl, seed, workdir):
    """SETUP_REPS builds; returns the last op schedule, raw and scaled times."""
    raw, ops = [], None
    cal = Calibration()
    for _ in range(SETUP_REPS):
        t0 = perf()
        ops = wl.build(seed, str(workdir))
        raw.append(perf() - t0)
        cal.probe()
    return ops, raw, [r * f for r, f in zip(raw, cal.factors())]


def _run_chunked(runner, ops, budget: float, start_wall: float, count: int = 0):
    """Ops in schedule order until their summed scaled latency reaches
    `budget` (or exactly `count` ops), probing the machine's speed every
    CHUNK_S of op time.  Stopping on scaled time makes the number of ops,
    and so the set of inputs a run covers, independent of the machine's
    momentary speed; RAW_CAP bounds the wall time on a slow machine.
    Returns raw and scaled latencies."""
    cal = Calibration()
    chunks = []
    busy, raw_busy, i = 0.0, 0.0, 0

    def more():
        if count:
            return i < count
        return (busy < budget and raw_busy < RAW_CAP * budget
                and perf() - start_wall < WALL_LIMIT_S)

    while more():
        chunk = []
        while sum(chunk) < CHUNK_S and (i < count if count else busy + sum(chunk) < budget):
            chunk.append(runner.run(i, ops[i % len(ops)]))
            i += 1
        busy += sum(chunk) * cal.probe()
        raw_busy += sum(chunk)
        chunks.append(chunk)
    raw = [d for c in chunks for d in c]
    scaled = [d * f for c, f in zip(chunks, cal.factors()) for d in c]
    return raw, scaled


def timed_phase(ops, seconds: float, start_wall: float):
    """Closed loop over the schedule until the summed scaled op latency
    reaches `seconds`; one warm-up op of each kind runs first, untimed."""
    runner = Runner()
    seen = set()
    for i, op in enumerate(ops):
        if op.kind not in seen:
            seen.add(op.kind)
            runner.run(i, op)
    raw, scaled = _run_chunked(runner, ops, seconds, start_wall)
    return runner, raw, scaled


def traced_phase(ops, wl, tracer, start_wall: float):
    """The fixed op list once untraced, then once traced."""
    import spans as tr_mod

    fixed = ops[: wl.trace_ops]
    plain = Runner()
    _, untraced = _run_chunked(plain, fixed, 0.0, start_wall, count=len(fixed))
    tracer.reset()
    traced_runner = Runner(tracer)
    traced_raw, traced = _run_chunked(traced_runner, fixed, 0.0, start_wall, count=len(fixed))
    metrics = tr_mod.layer_metrics(tracer, sum(traced_raw))
    metrics["trace.overhead"] = sum(traced) / sum(untraced) - 1.0
    metrics["trace.ops"] = len(fixed)
    runner = Runner()
    runner.attempted = plain.attempted + traced_runner.attempted
    runner.failed = plain.failed + traced_runner.failed
    runner.failures = plain.failures + traced_runner.failures
    return runner, metrics


def _end_to_end(lat, setup_s: float, tail_pct: float) -> dict:
    value, _ = tail(lat, tail_pct)
    return {
        "throughput_ops_s": len(lat) / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": value * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    start_wall = perf()
    ap = argparse.ArgumentParser(description="etacomplex benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "etacomplex" / "__init__.py").is_file():
        print(f"error: no etacomplex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_work" / f"{wl.name}-{args.seed}"
    outdir = ROOT / ".bench_out"
    workdir.mkdir(parents=True, exist_ok=True)
    outdir.mkdir(parents=True, exist_ok=True)
    cal = Calibration()
    import_raw = _import_seconds()
    cal.probe()
    import_s = import_raw * cal.factors()[0]

    record = {
        "workload": wl.name, "seed": args.seed, "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds, "trace": args.trace, "params": wl.params,
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(), "platform": platform.platform(),
        "git_commit": _git_commit(), "source_sha256": _source_digest(),
        "import_s": import_s, "ref_calibration_s": REF_CAL_S,
    }
    if args.trace:
        import spans as tr_mod

        tracer = tr_mod.Tracer(extra_modules=[workloads, sys.modules["instances"]])
        tracer.install()
        try:
            tracer.enabled = True
            ops = wl.build(args.seed, str(workdir))
            tracer.enabled = False
            setup_gen = tracer.group_s["generators.generate"]
            setup_dump = tracer.group_s["serialize.dump"]
            runner, metrics = traced_phase(ops, wl, tracer, start_wall)
        finally:
            tracer.uninstall()
        metrics["generators.s"] += setup_gen
        metrics["serialize.dump_s"] += setup_dump
        tracer.write_spans(str(outdir / f"spans-{wl.name}-{args.seed}.jsonl"))
        wanted = spec["per_layer"]
    else:
        ops, setup_raw, setup_scaled = _setup(wl, args.seed, workdir)
        runner, raw, lat = timed_phase(ops, args.seconds, start_wall)
        metrics = _end_to_end(lat, import_s + statistics.median(setup_scaled), wl.tail_pct)
        value, pct = tail(lat, wl.tail_pct)
        record.update({
            "setup_reps_raw_s": setup_raw, "setup_reps_scaled_s": setup_scaled,
            "timed_ops": len(lat), "tail_percentile": pct,
            "tail_samples_beyond": sum(x > value for x in lat),
            "raw": _end_to_end(raw, import_raw + statistics.median(setup_raw), wl.tail_pct),
        })
        wanted = spec["end_to_end"]

    record.update({
        "verdict_digest": verdict_digest(ops), "instances": len(ops),
        "attempted": runner.attempted, "failed": runner.failed,
        "failed_frac": runner.failed / runner.attempted if runner.attempted else 1.0,
        "failures": runner.failures,
    })
    missing = {m["name"] for m in wanted} ^ set(metrics)
    if missing:
        print(f"error: metric names differ from BENCHMARK.json: {sorted(missing)}", file=sys.stderr)
        return 2
    result = {
        "correct": runner.failed == 0 and runner.attempted > 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record["result"] = result
    (outdir / f"result-{wl.name}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for line in runner.failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
