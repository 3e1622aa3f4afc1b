"""jmatrix benchmark: one command, three closed-loop workloads.

    python3 perfbench/run.py --workload {tridiag-exact,gauss-rules,cli-pipelines}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  Every measurement runs in a fresh worker process (see worker.py),
one at a time: one client, one process, one thread.

``--trace 0`` measures the end-to-end metrics with tracing off: a closed
loop of at least ``--seconds`` seconds (whole decks), then a reference check
of every output; the set-up time is the median of nine more fresh
processes, five started before the timed run and four after it.  One more
fresh process runs the workload's known defects (inputs that fail at this
commit and that the draws stay clear of) and reports whether they still
fail; they are not counted in the result.
``--trace 1`` runs a fixed number of operations (WORKLOADS below) of the
same seeded stream with the tracer installed, then replays them untraced in
another fresh process; it reports the per-layer metrics and the tracing
overhead (traced over untraced operation time).

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  The full record
(environment, raw and scaled times, the speed probes, every failed input
and why, the layer table) is written under .bench_out/ in the checkout.
Operation times are reported at a reference machine speed, set-up times at
the reference speed of an import-like probe: worker.py and README.md explain
the scaling.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = {"tridiag-exact": 96, "gauss-rules": 72, "cli-pipelines": 210}  # name -> traced ops
SETUP_RUNS = 9
DEADLINE_S = 170.0

END_TO_END = (
    ("ops_per_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("pass_ratio", "1"),
    ("accuracy_digits", "digits"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    pass


def worker(args, mode: str, deadline: float, **extra) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode]
    for k, v in extra.items():
        cmd += [f"--{k}", str(v)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for the {mode} worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker exceeded the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
    }


def measure(args, deadline: float) -> tuple[dict, dict]:
    """The untraced run: returns (metrics, full record)."""
    # The machine's speed holds for some seconds and then moves, so the
    # set-ups are split between before and after the timed run.
    setups = [worker(args, "setup", deadline) for _ in range(SETUP_RUNS - SETUP_RUNS // 2)]
    res = worker(args, "run", deadline, seconds=args.seconds)
    setups += [worker(args, "setup", deadline) for _ in range(SETUP_RUNS // 2)]
    res["known_defects"] = worker(args, "defects", deadline)["known_defects"]
    values = {
        "ops_per_s": res["ops_per_s"],
        "latency_p50_ms": res["latency_p50_ms"],
        "latency_p90_ms": res["latency_p90_ms"],
        "pass_ratio": res["passed"] / res["attempted"],
        "accuracy_digits": res["accuracy_digits"],
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    res["setup_samples_s"] = [s["setup_s"] for s in setups]
    res["setup_samples_raw_s"] = [s["setup_raw_s"] for s in setups]
    res["setup_import_probe_s"] = [s["import_probe_s"] for s in setups]
    return metrics, res


def trace(args, deadline: float) -> tuple[dict, dict]:
    """The traced run and its untraced replay: returns (metrics, full record)."""
    ops = WORKLOADS[args.workload]
    spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    res = worker(args, "trace", deadline, ops=ops, spans=spans)
    replay = worker(args, "replay", deadline, ops=ops)
    res["replay"] = replay
    res["spans_file"] = str(spans.relative_to(ROOT))
    metrics = res.pop("layer_metrics")
    metrics["trace.overhead_ratio"] = {"value": res["op_seconds"] / replay["op_seconds"], "unit": "ratio"}
    return metrics, res


def report(args, metrics: dict, res: dict, record_path: Path) -> None:
    print(f"jmatrix benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"  ops attempted {res['attempted']}, passed {res['passed']}, failed {res['failed']} "
          f"({res['wrong_answers']} wrong answers), wall {res['wall_s']:.3f} s")
    print(f"  failed_ratio {res['failed'] / res['attempted']:.6f} 1")
    print(f"  latency samples {res['attempted']}, above p90 {res['samples_above_p90']}")
    print(f"  repeated-input share {res['repeated_input_share']:.4f}")
    probe = res["probe_s"]
    print(f"  speed probe median {probe['median'] * 1e3:.3f} ms (reference {probe['reference'] * 1e3:.3f} ms, "
          f"range {probe['min'] * 1e3:.3f}-{probe['max'] * 1e3:.3f}, {probe['count']} probes)")
    print(f"  operation time {res['op_seconds']:.3f} s at the reference speed, {res['op_seconds_raw']:.3f} s measured")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    reasons: dict[str, int] = {}
    for f in res["failures"]:
        reasons[f["reason"]] = reasons.get(f["reason"], 0) + 1
    for reason, count in sorted(reasons.items(), key=lambda t: -t[1]):
        print(f"  failed x{count}: {reason}")
    for d in res.get("known_defects", ()):  # untraced runs only
        print(f"  known defect, outside the timed loop: {d['defect']}: {d['status']} ({d['input']})")
    print(f"  full record: {record_path.relative_to(ROOT)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "jmatrix" / "__init__.py").is_file():
        print(f"error: no jmatrix sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    try:
        metrics, res = trace(args, deadline) if args.trace else measure(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    res["environment"] = environment() | {"versions": res.pop("versions")}
    res["metrics"] = metrics
    record_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(res, indent=1))
    report(args, metrics, res, record_path)
    print(json.dumps({
        "correct": res["wrong_answers"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
