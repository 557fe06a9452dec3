"""One benchmark worker process; ``run.py`` starts it and reads its last line.

Usage: ``python3 worker.py '<json config>'`` with keys ``workload``,
``seed`` (a string), ``mode`` and, by mode:

- ``measure``: set up (import conic2, parse the inputs, run one untimed
  warm-up op), then run timed ops until ``seconds`` have passed or the
  workload's ``max_ops`` ops are timed.
- ``trace``: set up, then run exactly ``ops`` ops with the tracer installed,
  write the spans to ``trace_out`` and probe ``FieldCtx.mul``.

Times are rescaled to yardstick speed (see yardstick.py).  Every mode
prints one JSON object as the last line of its standard output.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import Tracer, mul_probe  # noqa: E402
from yardstick import YARDSTICK_MS, Sampler  # noqa: E402


def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    import conic2

    if not Path(conic2.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"conic2 imported from {conic2.__file__}, not from this checkout")
    return conic2


class Ops:
    """Runs a workload's ops in order and checks each output, untimed.

    Op 0 is the warm-up: it is checked but not timed.  Op times exclude the
    time spent in the sampler's handler.
    """

    def __init__(self, workload, sampler: Sampler) -> None:
        self.w = workload
        self.sampler = sampler
        self.count = 0
        self.timed: list = []  # (start, end, wall seconds) of each timed op
        self.certs = 0
        self.digests: list = []
        self.failures: list = []
        self._first_digest: dict = {}  # input key -> digest of its first output
        self._first_input = None

    def run(self, call=None) -> None:
        """Run the next op; ``call(op_id, fn, input)`` may wrap the timed call."""
        op_id = self.count
        self.count += 1
        inp = self.w.next_input()
        if op_id == 1:
            self._first_input = inp
        spent = self.sampler.spent_s
        t0 = time.perf_counter()
        try:
            out = call(op_id, self.w.run, inp) if call else self.w.run(inp)
        except Exception:  # a failed op is recorded with its input, and the run goes on
            out = None
            problems = [traceback.format_exc(limit=3)]
        t1 = time.perf_counter()
        if op_id:
            self.timed.append((t0, t1, t1 - t0 - (self.sampler.spent_s - spent)))
        if out is not None:
            digest = self.w.digest(out)
            problems = self.w.check(inp, out)
            key = "all" if self.w.inputs_repeat else op_id
            if self._first_digest.setdefault(key, digest) != digest:
                problems.append("certificate JSON differs from an earlier run on the same input")
        if problems:
            self._fail(op_id, inp, problems)
        if op_id:
            self.certs += self.w.certificates(out) if out is not None else 0
            self.digests.append(digest if out is not None else None)

    def recheck_first(self) -> None:
        """For workloads whose inputs never repeat, run op 1's input again,
        untimed, and require byte-identical certificates."""
        if self.w.inputs_repeat or not self.digests or self.digests[0] is None:
            return
        try:
            same = self.w.digest(self.w.run(self._first_input)) == self.digests[0]
        except Exception:  # raising on a repeat that once passed is a failure too
            same = False
        if not same:
            self._fail(1, self._first_input, ["certificate JSON differs on a repeated input"])

    def _fail(self, op_id: int, inp, problems: list) -> None:
        self.failures.append({"op": op_id, "input": self.w.describe(inp), "problems": problems})

    def summary(self) -> dict:
        scale = YARDSTICK_MS / 1000
        return {
            "attempted": self.count,
            "failed": len({f["op"] for f in self.failures}),
            "failures": self.failures,
            "latencies": [wall * scale / self.sampler.yard_s(t0, t1) for t0, t1, wall in self.timed],
            "yardstick_s": self.sampler.yard_s(),
            "certs": self.certs,
            "digests": self.digests,
        }


def setup(cfg: dict, sampler: Sampler):
    """Import the program, parse the inputs and run the warm-up op; return
    the ops runner and the time taken, at yardstick speed."""
    spent = sampler.spent_s
    t0 = time.perf_counter()
    conic2 = _import_program()
    from workloads import WORKLOADS

    ops = Ops(WORKLOADS[cfg["workload"]](conic2, cfg["seed"]), sampler)
    ops.run()
    t1 = time.perf_counter()
    wall = t1 - t0 - (sampler.spent_s - spent)
    return ops, wall * YARDSTICK_MS / 1000 / sampler.yard_s(t0, t1)


def main(cfg: dict) -> dict:
    tracer = Tracer() if cfg["mode"] == "trace" else None
    with Sampler() as sampler:
        ops, setup_s = setup(cfg, sampler)
        if tracer is None:
            start = time.perf_counter()
            cap = ops.w.max_ops
            while time.perf_counter() - start < cfg["seconds"] and (cap is None or ops.count <= cap):
                ops.run()
        else:
            with tracer.installed():
                for _ in range(cfg["ops"]):
                    ops.run(tracer.run_op)
    result = {"setup_s": setup_s}
    if tracer is None:
        ops.recheck_first()
    else:
        tracer.write(ROOT / cfg["trace_out"])
        result["trace"] = {**tracer.summary(),
                           "mul_ns": {str(k): v for k, v in mul_probe(cfg["seed"]).items()}}
    result.update(ops.summary())
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
