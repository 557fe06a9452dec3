"""conic2 benchmark: closed-loop workloads, one caller, one op at a time.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload corpus|moved|search --seed N \\
        --seconds S --trace 0|1

``--trace 0`` prints the end-to-end metrics, measured untraced.  ``--trace 1``
prints the per-layer metrics: one worker runs the ops untraced for a third of
the time, a second worker runs the same ops with the tracer installed, and
their certificates must match byte for byte.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; failed ops are listed on standard error with
their inputs.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import MUL_PROBE_DEGREES, SPANNED  # noqa: E402
from workloads import WORKLOADS  # noqa: E402
from yardstick import YARDSTICK_MS  # noqa: E402

SEGMENTS = 4  # measuring workers per untraced run; each one's set-up is a setup_s sample
TRACE_MUL_DEGREES = (1, 2, 3, 4, 6, 8, 9, 12)  # FieldCtx.mul call counts by k
DEADLINE_S = 170

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "certs_per_s": "1/s",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    units = {f"gf2k.mul.k{k}.calls": "count" for k in TRACE_MUL_DEGREES}
    units["gf2k.mul.k_other.calls"] = "count"
    units["gf2k.inv.calls"] = "count"
    units["gf2k.field_new.calls"] = "count"
    units.update({f"gf2k.mul_ns.k{k}": "ns" for k in MUL_PROBE_DEGREES})
    for module, names in SPANNED.items():
        for name in names:
            units[f"{module}.{name}.calls"] = "count"
            units[f"{module}.{name}.self_ms"] = "ms"
            units[f"{module}.{name}.cum_ms"] = "ms"
        units[f"{module}.self_ms"] = "ms"
        if module == "poly":
            units["poly.Poly.__mul__.calls"] = "count"
    units["factor.abs_irred_cache.hit_ratio"] = "frac"
    units["amcert.search.hit_ratio"] = "frac"
    units["amcert.nonproduct_witness.found_ratio"] = "frac"
    units["trace.op_ms"] = "ms"
    units["trace_overhead_frac"] = "frac"
    return units


class WorkerError(RuntimeError):
    pass


def _worker(cfg: dict, deadline: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
        cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker {cfg['mode']} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run_plain(args, deadline: float) -> tuple:
    segments = [_worker({"workload": args.workload, "seed": f"{args.seed}.{j}",
                         "mode": "measure", "seconds": args.seconds / SEGMENTS}, deadline)
                for j in range(SEGMENTS)]
    lat_ms = [t * 1000 for seg in segments for t in seg["latencies"]]
    attempted = sum(seg["attempted"] for seg in segments)
    failed = sum(seg["failed"] for seg in segments)
    metrics = {
        "setup_s": statistics.median(seg["setup_s"] for seg in segments),
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": statistics.quantiles(lat_ms, n=10, method="inclusive")[-1],
        "certs_per_s": sum(seg["certs"] for seg in segments) / (sum(lat_ms) / 1000),
        "ok_frac": (attempted - failed) / attempted,
        "peak_rss_mb": max(seg["peak_rss_mb"] for seg in segments),
    }
    return metrics, END_TO_END, attempted, failed, [f for seg in segments for f in seg["failures"]]


def run_traced(args, deadline: float) -> tuple:
    base = {"workload": args.workload, "seed": f"{args.seed}.0"}
    plain = _worker({**base, "mode": "measure", "seconds": args.seconds / 3}, deadline)
    ops = len(plain["latencies"])
    traced = _worker({**base, "mode": "trace", "ops": ops,
                      "trace_out": f".bench_out/trace-{args.workload}-seed{args.seed}.jsonl"},
                     deadline)
    failures = plain["failures"] + traced["failures"]
    failed = plain["failed"] + traced["failed"]
    attempted = plain["attempted"] + traced["attempted"]
    mismatched = [i + 1 for i, (a, b) in enumerate(zip(plain["digests"], traced["digests"]))
                  if a != b]
    if mismatched:
        failed += len(mismatched)
        failures.append({"op": mismatched, "input": f"seed string {args.seed}.0",
                         "problems": ["traced certificates differ from untraced ones"]})

    tr = traced["trace"]
    n = max(ops, 1)
    # spans hold wall nanoseconds; report milliseconds at yardstick speed, like op times
    ns_to_ms = YARDSTICK_MS / (traced["yardstick_s"] * 1000) / 1e6
    calls, self_ns, cum_ns, results = tr["calls"], tr["self_ns"], tr["cum_ns"], tr["results"]
    metrics = {}
    mul_calls = {int(k): v for k, v in tr["mul_calls"].items()}
    for k in TRACE_MUL_DEGREES:
        metrics[f"gf2k.mul.k{k}.calls"] = mul_calls.pop(k, 0) / n
    metrics["gf2k.mul.k_other.calls"] = sum(mul_calls.values()) / n
    metrics["gf2k.inv.calls"] = calls.get("gf2k.inv", 0) / n
    metrics["gf2k.field_new.calls"] = calls.get("gf2k.field_new", 0) / n
    for k in MUL_PROBE_DEGREES:
        metrics[f"gf2k.mul_ns.k{k}"] = tr["mul_ns"][str(k)]
    for module, names in SPANNED.items():
        total = 0
        for name in names:
            key = f"{module}.{name}"
            metrics[f"{key}.calls"] = calls.get(key, 0) / n
            metrics[f"{key}.self_ms"] = self_ns.get(key, 0) * ns_to_ms / n
            metrics[f"{key}.cum_ms"] = cum_ns.get(key, 0) * ns_to_ms / n
            total += self_ns.get(key, 0)
        metrics[f"{module}.self_ms"] = total * ns_to_ms / n
        if module == "poly":
            metrics["poly.Poly.__mul__.calls"] = calls.get("poly.Poly.__mul__", 0) / n
    cache = tr["abs_irred_cache"]
    metrics["factor.abs_irred_cache.hit_ratio"] = _ratio(cache["hits"], cache["hits"] + cache["misses"])
    metrics["amcert.search.hit_ratio"] = _ratio(results.get("search.hits", 0),
                                                results.get("search.tried", 0))
    metrics["amcert.nonproduct_witness.found_ratio"] = _ratio(
        results.get("nonproduct_witness.found", 0), results.get("nonproduct_witness.returned", 0))
    metrics["trace.op_ms"] = tr["op_ns"] * ns_to_ms / n
    untraced_s = sum(plain["latencies"])
    metrics["trace_overhead_frac"] = _ratio(sum(traced["latencies"]) - untraced_s, untraced_s)
    return metrics, per_layer_units(), attempted, failed, failures


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "conic2" / "__init__.py").is_file():
        print(f"no conic2 sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        run = run_traced if args.trace else run_plain
        metrics, units, attempted, failed, failures = run(args, deadline)
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for f in failures:
        print(f"FAILED op {f['op']}: {'; '.join(f['problems'])}\n  input: {f['input']}",
              file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
