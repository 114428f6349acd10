"""Tests of the benchmark itself:  python3 -m pytest bench/test_bench.py"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _files(d: Path):
    return {p.name: p.read_bytes() for p in sorted(d.iterdir()) if p.suffix == ".json"}


@pytest.mark.parametrize("name", ["check-field", "complete-wide"])
def test_same_seed_gives_identical_instance_files(tmp_path, name):
    wl = workloads.WORKLOADS[name]
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d, seed in ((a, 3), (b, 3), (c, 4)):
        d.mkdir()
        wl.build(seed, str(d))
    assert _files(a) and _files(a) == _files(b)
    assert _files(a) != _files(c)


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_spec(trace, key):
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "suite-desk", "--seed", "5",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC[key]]
    for m in SPEC[key]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for p in (ROOT / "bench").glob("*.py"):
        (tmp_path / "bench" / p.name).write_bytes(p.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "suite-desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""


def _flip_first_entry(node) -> bool:
    """Add one to the first matrix entry found in a JSON witness."""
    if isinstance(node, dict):
        entries = node.get("entries")
        if entries:
            entries[0] = str(int(entries[0]) + 1)
            return True
        return any(_flip_first_entry(v) for v in node.values())
    if isinstance(node, list):
        return any(_flip_first_entry(v) for v in node)
    return False


def _corrupting(op):
    def run_then_corrupt():
        code, out = op.run()
        rec = json.loads(Path(out).read_text())
        assert _flip_first_entry(rec["witness"])
        Path(out).write_text(json.dumps(rec) + "\n")
        return code, out
    return workloads.Op(op.key, op.kind, op.expected, run_then_corrupt, op.judge)


@pytest.mark.parametrize("kind", ["eta-homotopic", "is-eta-conflation"])
def test_corrupted_witness_counts_as_failed(tmp_path, kind):
    ops = workloads.WORKLOADS["check-integer"].build(2, str(tmp_path))
    op = next(o for o in ops if o.kind == kind and o.expected == "SOME")
    honest = run.Runner()
    honest.run(0, op)
    assert (honest.attempted, honest.failed) == (1, 0)
    corrupted = run.Runner()
    corrupted.run(0, _corrupting(op))
    assert (corrupted.attempted, corrupted.failed) == (1, 1)
    assert "does not re-validate" in corrupted.failures[0]


def test_wrong_verdict_counts_as_failed(tmp_path):
    ops = workloads.WORKLOADS["check-field"].build(2, str(tmp_path))
    op = next(o for o in ops if o.expected == "NONE")
    runner = run.Runner()
    runner.run(0, workloads.Op(op.key, op.kind, "SOME", op.run, op.judge))
    assert runner.failed == 1 and "expected SOME" in runner.failures[0]


def test_tail_keeps_ten_samples_beyond():
    xs = [float(i) for i in range(200)]
    value, pct = run.tail(xs, 90.0)
    assert (value, pct) == (179.0, 90.0)
    value, pct = run.tail(xs, 99.0)  # two beyond: fall back to ten beyond
    assert sum(x > value for x in xs) == 10 and pct == 95.0
