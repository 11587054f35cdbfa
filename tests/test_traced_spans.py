"""The traced benchmark's gates hold on small jobs of each workload's shape.

Each job runs through ``bench/traced_cli.py`` as a subprocess.  Over a
workload's jobs, every span in ``bench/run.py``'s ``EXPECTED_SPANS`` must
fire, and each job's ``cli.emit.bytes`` must equal the bytes it wrote: the
two checks that end a traced benchmark run.  The ``bench/`` files are only
read here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
sys.path.insert(0, str(BENCH))

import run as bench_run  # noqa: E402

COMPUTE = ["compute", "--x", "both", "--outputs", "r,p"]
JOBS = {
    "tables": [[*COMPUTE, "--type", "B", "--rank", "3", "--H", "1"],
               [*COMPUTE, "--type", "A", "--rank", "4", "--H", "2"],
               # the child's CSV texts pass the emitted-bytes check too
               [*COMPUTE, "--type", "A", "--rank", "3", "--H", "2",
                "--format", "csv"]],
    "verify": [["verify", "--type", "A", "--rank", "3"],
               ["verify", "--type", "D", "--rank", "4", "--H", "1"]],
    # twisted 2 is too small for a strict-coherence check to fire
    "twisted": [[*COMPUTE, "--twisted-n", "3"],
                ["verify", "--twisted-n", "3",
                 "--checks", "dircon,system,lifting"]],
}


def traced(args, tmp_path, i):
    """The spans document of one traced job, and the bytes it wrote."""
    out, spans = tmp_path / f"out{i}", tmp_path / f"spans{i}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "traced_cli.py"), str(spans), "test",
         "--", *args, "--out", str(out)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(spans.read_text()), \
        sum(p.stat().st_size for p in out.iterdir())


def test_every_workload_has_jobs_here():
    # bench/tests runs the smoke workload itself, traced
    assert set(JOBS) | {"smoke"} == set(bench_run.EXPECTED_SPANS)


@pytest.mark.parametrize("workload", sorted(JOBS))
def test_expected_spans_fire_and_emit_bytes_are_written(workload, tmp_path):
    fired = set()
    for i, args in enumerate(JOBS[workload]):
        doc, written = traced(args, tmp_path, i)
        fired |= {doc["names"][n] for n in set(doc["name"])}
        assert doc["work"]["cli.emit.bytes"] == written, args
    assert bench_run.EXPECTED_SPANS[workload] <= fired, \
        sorted(bench_run.EXPECTED_SPANS[workload] - fired)
