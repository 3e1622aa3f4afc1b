"""One fresh benchmark process: set-up, then a closed loop over one workload.

Modes:

* ``setup``  -- import jmatrix.cli and run the warm-up operation; report the
  time, scaled by an import-like probe run afterwards in the same process.
* ``run``    -- set-up, then run whole decks of operations back to back until
  ``--seconds`` have passed and at least MIN_OPS were attempted, then check
  every output.
* ``defects`` -- set-up, then run each of the workload's known defects once
  (the inputs that fail at this commit, which the draws stay clear of).
* ``trace``  -- set-up, install the tracer, run whole decks until ``--ops``
  operations were attempted.
* ``replay`` -- the same operations as ``trace``, untraced (the baseline of
  the tracing overhead).

The result is one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import marshal
import math
import random
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_OPS = 150  # so that at least ten samples lie above the 90th percentile window
SPEED_WINDOW = 3  # an operation's speed is the median of this many probes before it and as many after it


PROBE_REF_S = 0.0015  # probe() time at the reference machine speed


def probe() -> float:
    """Seconds for a fixed loop of about a millisecond: Fractions, floats, small numpy arrays.

    The garbage collector is off while it runs, so that the size of the
    program's heap does not change its time.
    """
    import numpy as np

    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 250):
            acc += Fraction(i % 7 + 1, i % 11 + 1)
        total = 0.0
        for i in range(2000):
            total += math.sqrt(i)
        m = np.arange(16.0).reshape(4, 4) / 16.0
        for _ in range(40):
            m = np.tanh(m @ m.T + 0.5)
        return time.perf_counter() - t0
    finally:
        if gc_was_enabled:
            gc.enable()


IMPORT_PROBE_REF_S = 0.004  # import_probe_speed() at the reference machine speed
IMPORT_PROBE_MODULES = ("argparse", "ast", "calendar", "dataclasses", "difflib", "fractions",
                        "json.decoder", "shlex", "textwrap")


def import_probe_speed() -> float:
    """Median seconds, over 24 rounds, to unmarshal and run the module code of a
    few standard-library modules: the kind of work an import does.

    The set-up time slows less than probe() does when the machine is
    loaded; this probe follows it.  It runs only standard-library code.
    """
    codes = []
    for name in IMPORT_PROBE_MODULES:
        origin = importlib.util.find_spec(name).origin
        with open(origin, encoding="utf-8") as f:
            codes.append(marshal.dumps(compile(f.read(), origin, "exec")))
    times = []
    gc.disable()
    try:
        for _ in range(25):  # the first round also imports what the modules import
            t0 = time.perf_counter()
            for i, code in enumerate(codes):
                exec(marshal.loads(code), {"__name__": f"_import_probe_{i}"})
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return statistics.median(times[1:])


def percentile(sorted_values, p, width):
    """Smoothed percentile: the mean of the samples ranked from p - width to p + width.

    One sample's rank moves with the machine's noise between its neighbours;
    the mean over a window of ranks does not.  It is infinite when the
    window reaches a failed operation.
    """
    n = len(sorted_values)
    lo = max(0, math.ceil((p - width) * n) - 1)
    return statistics.fmean(sorted_values[lo:max(lo + 1, math.ceil((p + width) * n))])


def done(args, records, deadline) -> bool:
    if args.mode in ("trace", "replay"):
        return len(records) >= args.ops
    return time.perf_counter() >= deadline and len(records) >= MIN_OPS


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "defects", "run", "trace", "replay"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--ops", type=int, default=0)
    ap.add_argument("--spans", default=None, help="trace mode: write the spans to this file")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import jmatrix.cli  # noqa: F401  (the import is part of the measured set-up)

    import workloads

    wl = workloads.WORKLOADS[args.workload]
    wl.warmup()
    setup_s = time.perf_counter() - t0
    if args.mode == "setup":
        speed = import_probe_speed()
        print(json.dumps({"setup_s": setup_s * IMPORT_PROBE_REF_S / speed, "setup_raw_s": setup_s,
                          "import_probe_s": speed}))
        return 0

    if args.mode == "defects":
        # In a fresh process of their own, because whether some of them fail
        # depends on what the program has cached before.
        known = []
        for label, spec in wl.KNOWN_DEFECTS:
            try:
                wl.check(spec, wl.run(spec))
                status = "passes now"
            except Exception as exc:
                status = f"still fails: {type(exc).__name__}: {exc}"
            known.append({"defect": label, "input": wl.describe(spec), "status": status})
        print(json.dumps({"known_defects": known}))
        return 0

    rng = random.Random(f"{args.workload}:{args.seed}")
    decks = wl.decks(rng)
    rec = None
    if args.mode == "trace":
        import tracer

        rec = tracer.Recorder()
        tracer.install(rec)
        run = rec.span("bench.op", wl.run)
    else:
        run = wl.run

    # The timed loop runs whole decks, so every run sees the same mix.  The
    # machine's speed drifts by up to a factor of two within seconds (other
    # tenants share the cores), and probe() slows by the same factor as the
    # program does, so an operation's time is scaled by PROBE_REF_S over the
    # median of the probes around it: times are reported at the reference
    # speed.  The median passes over a probe that was preempted.
    records = []  # [spec, output, error, wrong answer?, raw seconds, scaled seconds]
    probes = [probe()]
    start = time.perf_counter()
    deadline = start + args.seconds
    while not done(args, records, deadline):
        for spec in next(decks):
            if rec is not None:
                rec.op = len(records)
            out, error, wrong = None, None, False
            t_op = time.perf_counter()
            try:
                out = run(spec)
            except workloads.WrongAnswer as exc:
                error, wrong = str(exc), True
            except Exception as exc:  # every failure is recorded, none is dropped
                error = f"{type(exc).__name__}: {exc}"
            raw = time.perf_counter() - t_op
            probes.append(probe())
            records.append([spec, out, error, wrong, raw])
    wall = time.perf_counter() - start
    for i, r in enumerate(records):  # probes[i] ran just before operation i, probes[i + 1] just after
        speed = statistics.median(probes[max(0, i + 1 - SPEED_WINDOW):i + 1 + SPEED_WINDOW])
        r.append(r[4] * PROBE_REF_S / speed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if rec is not None:
        rec.op = -1
    op_seconds = sum(r[5] for r in records)
    timing = {
        "setup_raw_s": setup_s,
        "wall_s": wall,
        "op_seconds": op_seconds,
        "op_seconds_raw": sum(r[4] for r in records),
        "attempted": len(records),
    }

    if args.mode == "replay":
        print(json.dumps(timing))
        return 0

    # Reference checks, after the timed loop so that they take none of its time.
    digits = []  # (digits, op index) of every passed operation
    output_bytes = 0
    for i, r in enumerate(records):
        spec, out, error = r[0], r[1], r[2]
        if isinstance(out, str):
            output_bytes += len(out.encode())
        if error is not None:
            continue
        try:
            err = wl.check(spec, out)
        except Exception as exc:
            r[2], r[3] = f"{type(exc).__name__}: {exc}", True
            continue
        digits.append((16.0 if err == 0 else min(16.0, -math.log10(err)), i))

    failures = [
        {"op": i, "input": wl.describe(r[0]), "reason": r[2], "wrong_answer": r[3]}
        for i, r in enumerate(records)
        if r[2] is not None
    ]
    passed = len(records) - len(failures)
    latencies = sorted(r[5] * 1e3 if r[2] is None else math.inf for r in records)
    p90 = percentile(latencies, 0.9, 0.03)
    keys = set()
    repeated = 0
    for r in records:
        k = wl.key(r[0])
        repeated += k in keys
        keys.add(k)

    import numpy
    import scipy

    result = timing | {
        "passed": passed,
        "failed": len(failures),
        "wrong_answers": sum(f["wrong_answer"] for f in failures),
        "ops_per_s": passed / op_seconds,
        "latency_p50_ms": percentile(latencies, 0.5, 0.05),
        "latency_p90_ms": p90,
        "samples_above_p90": sum(v > p90 for v in latencies),
        "accuracy_digits": min(digits)[0] if digits else 0.0,
        "least_accurate": [{"digits": d, "input": wl.describe(records[i][0])} for d, i in sorted(digits)[:5]],
        "peak_rss_mb": peak_rss_mb,
        "repeated_input_share": repeated / len(records),
        "probe_s": {"median": statistics.median(probes), "min": min(probes),
                    "max": max(probes), "count": len(probes), "reference": PROBE_REF_S},
        "output_bytes": output_bytes,
        "op_raw_s": [r[4] for r in records],
        "probes_s": probes,
        "failures": failures,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if rec is not None:
        result["layer_metrics"] = rec.metrics(output_bytes)
        result["span_table"] = rec.layer_table()
        result["spans_written"] = len(rec.spans)
        if args.spans:
            rec.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
