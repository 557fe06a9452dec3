"""Tests for the benchmark itself.  Run: python3 -m pytest perfbench/tests"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import moved  # noqa: E402
import workloads  # noqa: E402
from conic2.conic import spec_from_dict, spec_validate  # noqa: E402
from conic2.poly import Poly, poly_parse, substitute  # noqa: E402
from conic2.gf2k import field_new  # noqa: E402


def _sources():
    return [(e["name"], workloads._spec_json(e)) for e in workloads._manifest()]


def _passes(seed, n):
    stream = moved.MovedStream(seed, _sources())
    return [stream.next_pass() for _ in range(n)]


def test_same_seed_gives_same_moved_specs():
    first = json.dumps(_passes(7, 3), sort_keys=True)
    assert json.dumps(_passes(7, 3), sort_keys=True) == first
    assert json.dumps(_passes(8, 3), sort_keys=True) != first


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_moved_specs_pass_spec_validate(seed):
    for items in _passes(seed, 4):
        for name, matrix, data in items:
            assert moved.det(matrix, data["field_degree"]) != 0
            spec_validate(spec_from_dict(data))


def test_moved_specs_do_not_repeat_and_the_stream_never_restarts():
    stream = moved.MovedStream(5, _sources())
    passes = [stream.next_pass() for _ in range(1 + moved.FRESH_PASSES)]
    specs = [json.dumps(data, sort_keys=True) for items in passes[1:] for _, _, data in items]
    assert len(set(specs)) == len(specs)
    with pytest.raises(RuntimeError, match="would repeat"):
        stream.next_pass()


def test_coordinate_change_agrees_with_the_program():
    vars_ = ("x", "y", "z")
    for k, text in ((1, "x*y^3 + x*z^3 + y^2*z^2"), (2, "j*x^2 + y*z + F4:3*z^2")):
        ctx = field_new(k)
        matrix = ((1, 2 % (1 << k), 0), (0, 1, 1), (1, 0, 1))
        lin = [Poly.from_terms(ctx, vars_, [(m, c) for m, c in
                                            zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), row)])
               for row in matrix]
        want = substitute(poly_parse(text, ctx, vars_), dict(zip(vars_, lin)))
        got = moved.render(moved.substitute_linear(moved.parse(text, k), matrix, k), k)
        assert poly_parse(got, ctx, vars_) == want


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["corpus", "moved", "search"])
def test_smallest_run_completes_with_the_declared_metrics(workload, trace):
    proc = _run("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in section} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "corpus", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
