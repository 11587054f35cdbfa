"""Smoke test of the benchmark on a tiny job list (A3 verify, twisted 2).

    python3 -m pytest bench/tests

Runs ``bench/run.py --workload smoke`` untraced and traced, and once more
against a corrupted reference digest, which must count as a failed job.  The
metric lists in ``BENCHMARK.json`` must match the ones the runner emits.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import traced_cli  # noqa: E402


def bench(*args: str) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "smoke",
         "--seed", "3", "--seconds", "1", *args],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), proc.stdout


@pytest.fixture(scope="module")
def plain():
    return bench("--trace", "0")


@pytest.fixture(scope="module")
def traced():
    return bench("--trace", "1")


def test_untraced_run_emits_every_end_to_end_metric(plain):
    result, report = plain
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 3
    assert set(result["metrics"]) == set(run.END_TO_END)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == run.END_TO_END[name]
        assert metric["value"] > 0
        assert name in report
    assert "fail_frac" in report


def test_traced_run_emits_every_layer_metric(traced):
    result, report = traced
    # A traced run is incorrect when its outputs differ from the reference,
    # when a count differs between traced passes, or when cli.emit.bytes
    # differs from the bytes the untraced passes wrote.
    assert result["correct"] is True, report
    assert set(result["metrics"]) == set(run.PER_LAYER)
    metrics = result["metrics"]
    for name, metric in metrics.items():
        assert metric["unit"] == run.PER_LAYER[name]
        assert name in report
    for span in run.EXPECTED_SPANS["smoke"]:
        for field in traced_cli.SPANS[span][2]:
            if field != "self_s":
                assert metrics[f"{span}.{field}"]["value"] > 0, span
    for name in ("klpoly.r_polynomials", "klpoly.check_pkernel",
                 "klpoly.kls_polynomials", "hecke.HeckeContext"):
        assert metrics[f"{name}.repeat"]["value"] >= 1.0


def test_work_counts_repeat_exactly(traced):
    again, _ = bench("--trace", "1")
    first = traced[0]["metrics"]
    for name, unit in run.PER_LAYER.items():
        if unit in ("count", "bytes") or name.endswith(".repeat"):
            assert again["metrics"][name] == first[name], name


def test_corrupted_reference_counts_as_failure(tmp_path):
    reference = json.loads(run.REFERENCE.read_text())
    key = "verify A3/empty"
    reference[key]["verify_report.json"] = "0" * 64
    bad = tmp_path / "reference.json"
    bad.write_text(json.dumps(reference))
    result = run.run("smoke", 3, 1, False, bad)
    assert result["failed"] >= 1
    assert result["failed"] < result["attempted"]
    assert any("digest mismatch" in e for e in result["errors"])


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER
    for spans in run.EXPECTED_SPANS.values():
        assert spans <= set(traced_cli.SPANS)


def test_missing_program_is_an_error(tmp_path):
    copy = tmp_path / "bench"
    copy.mkdir()
    for name in ("run.py", "traced_cli.py", "reference_digests.json"):
        (copy / name).write_bytes((BENCH / name).read_bytes())
    proc = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "smoke",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
