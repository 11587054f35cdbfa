#!/usr/bin/env python3
"""pircons benchmark: wall time of real CLI jobs, every output byte checked.

    python3 bench/run.py --workload tables --seed 1 --seconds 40 --trace 0

Run from anywhere inside a source checkout; the program is imported from
``src/`` with no install step.  A run times fresh interpreters that import
``pircons.cli`` (``setup_s``): a few before the passes and one before every
job.  It runs passes over the workload's job list for ``--seconds`` seconds.
Jobs run closed-loop, one at a time, each as a fresh ``python -m pircons.cli``
subprocess; a new pass starts only while the median pass so far still fits in
the time left.  Every output file is hashed and compared with
``bench/reference_digests.json``; a job fails on a non-zero exit, on a verify
record that is not ``pass`` or on a digest mismatch.

With ``--trace 1`` the run alternates untraced passes with traced ones, in
which each job runs through ``bench/traced_cli.py``; the last line then holds
the per-layer metrics instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
list every metric by name with its unit, and a result file with the run's
samples and machine details is written to ``.bench_results/``.
``--write-reference`` regenerates the reference digests from the current
program.  See ``bench/NOTES.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import traced_cli

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference_digests.json"
TRACED_CLI = BENCH / "traced_cli.py"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"

# A run must end within 180 s; a job still running at this many seconds
# after the run started is killed and counts as failed.
RUN_LIMIT_S = 170
SETUP_SAMPLES = 7
WORKLOADS = ("tables", "verify", "twisted", "smoke")


# ---------------------------------------------------------------------------
# Jobs and workloads.
# ---------------------------------------------------------------------------

def _coxeter_compute(typ: str, rank: int, h: int) -> tuple[str, list[str]]:
    return (f"compute {typ}{rank}/s{h}",
            ["compute", "--type", typ, "--rank", str(rank), "--H", str(h),
             "--x", "both", "--outputs", "r,p"])


def _coxeter_verify(typ: str, rank: int, h: int | None) -> tuple[str, list[str]]:
    flags = ["verify", "--type", typ, "--rank", str(rank)]
    if h is None:
        return f"verify {typ}{rank}/empty", flags
    return f"verify {typ}{rank}/s{h}", flags + ["--H", str(h)]


def _twisted_compute(n: int) -> tuple[str, list[str]]:
    return (f"compute twisted{n}",
            ["compute", "--twisted-n", str(n), "--x", "both",
             "--outputs", "r,p"])


def _twisted_verify(n: int) -> tuple[str, list[str]]:
    return (f"verify twisted{n}",
            ["verify", "--twisted-n", str(n),
             "--checks", "dircon,system,lifting"])


def workload_jobs(workload: str, rng: random.Random) -> list:
    """The job list of one workload; the seed picks the generators in H."""
    if workload == "tables":
        return [_coxeter_compute("B", 4, rng.randint(1, 4)),
                _coxeter_compute("A", 5, rng.randint(1, 5))]
    if workload == "verify":
        return [_coxeter_verify("A", 4, None),
                _coxeter_verify("D", 4, rng.randint(1, 4))]
    if workload == "twisted":
        return [_twisted_compute(4), _twisted_verify(4)]
    if workload == "smoke":
        return [_coxeter_verify("A", 3, None), _twisted_compute(2),
                _twisted_verify(2)]
    raise ValueError(f"unknown workload {workload!r}")


def all_jobs() -> list:
    """Every job any seed of any workload can pick."""
    jobs = [_coxeter_compute("B", 4, h) for h in range(1, 5)]
    jobs += [_coxeter_compute("A", 5, h) for h in range(1, 6)]
    jobs += [_coxeter_verify("A", 4, None)]
    jobs += [_coxeter_verify("D", 4, h) for h in range(1, 5)]
    jobs += [_twisted_compute(4), _twisted_verify(4)]
    jobs += workload_jobs("smoke", random.Random(0))
    return jobs


# Spans that must fire on each workload; a missing one ends the traced run
# with an error instead of a silently empty layer metric.
_BUILD = {"cli.build_instance", "cli.emit", "coxeter.CoxeterSystem",
          "posets.from_comparability"}
EXPECTED_SPANS = {
    "tables": _BUILD | {
        "coxeter.ParabolicQuotient", "klpoly.lambda_refinement",
        "klpoly.r_polynomials", "klpoly.kls_polynomials"},
    "verify": _BUILD | {
        "coxeter.ParabolicQuotient", "klpoly.lambda_refinement",
        "klpoly.r_polynomials", "klpoly.kls_polynomials",
        "klpoly.check_pkernel", "klpoly.check_updown",
        "klpoly.verify_pircon_system", "klpoly.verify_r_properties",
        "klpoly.brenti_identity", "hecke.HeckeContext",
        "hecke.verify_hecke_relations", "hecke.verify_duality",
        "hecke.cprime_recursion", "hecke.p_recursion",
        "hecke.kl_element_cprime", "hecke.iota", "hecke.t_action",
        "cli.run_verification", "matchings.verify_spm",
        "matchings.check_lifting"},
    "twisted": _BUILD | {
        "twisted.TwistedIdentities", "twisted.conjugation_refinement",
        "matchings.verify_pircon", "matchings.enumerate_spms",
        "matchings.is_dircon", "matchings.strictly_coherent",
        "matchings.check_lifting", "matchings.verify_spm",
        "klpoly.r_polynomials", "klpoly.kls_polynomials",
        "klpoly.verify_pircon_system", "cli.run_verification"},
}
EXPECTED_SPANS["smoke"] = EXPECTED_SPANS["verify"] | {
    "twisted.TwistedIdentities", "matchings.is_dircon"}


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------

END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}

FIELD_UNITS = {"s": "s", "self_s": "s", "calls": "count", "repeat": "ratio",
               "terms": "count", "pairs": "count", "elements": "count",
               "spms": "count", "bytes": "bytes"}
# Per-layer metrics: the fields that traced_cli.SPANS lists for each span.
PER_LAYER = {f"{span}.{field}": FIELD_UNITS[field]
             for span, (_, _, fields) in traced_cli.SPANS.items()
             for field in fields}
PER_LAYER["trace.overhead_frac"] = "ratio"
TIMED_FIELDS = ("s", "self_s")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ---------------------------------------------------------------------------
# Running jobs.
# ---------------------------------------------------------------------------

class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_process(cmd: list[str], stderr_path: Path, timeout: float):
    """Run cmd to completion; return (exit code, wall seconds, peak RSS MB).

    The child is reaped with os.wait4 for its own resource usage, and
    killed if it outlives ``timeout``.
    """
    with open(stderr_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(timeout, _kill, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def _digests(outdir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.iterdir())}


def _check_outputs(key: str, outdir: Path, reference: dict) -> str | None:
    """Why the job's outputs are wrong, or None when they are right."""
    got = _digests(outdir)
    want = reference.get(key)
    if want is None:
        return f"no reference digests for {key!r}"
    if got != want:
        bad = sorted(n for n in set(got) | set(want)
                     if got.get(n) != want.get(n))
        return f"digest mismatch in {', '.join(bad)}"
    report = outdir / "verify_report.json"
    if report.exists():
        failing = [rec.get("identity") for rec in json.loads(report.read_text())
                   if rec.get("status") != "pass"]
        if failing:
            return f"verify records not pass: {failing}"
    return None


def setup_sample(err: Path) -> float:
    """Wall time of a fresh interpreter that imports pircons.cli and exits."""
    code, wall, _ = run_process([sys.executable, "-c", "import pircons.cli"],
                                err, timeout=60)
    if code != 0:
        raise BenchError(f"cannot import pircons.cli from {SRC}: "
                         f"{err.read_text().strip()}")
    return wall


class Runner:
    """Runs jobs inside one scratch directory and collects their results.

    With ``setup`` a list, a setup sample is appended to it before every
    untraced job, so that ``setup_s`` sees the same machine phases as the
    passes.
    """

    def __init__(self, reference: dict, deadline: float,
                 setup: list[float] | None = None):
        self.reference = reference
        self.deadline = deadline
        self.setup = setup
        self.scratch = WORK / str(os.getpid())
        self.count = 0

    def job(self, key: str, args: list[str], traced: bool) -> dict:
        self.count += 1
        outdir = self.scratch / f"job{self.count}"
        outdir.mkdir(parents=True)
        stderr_path = self.scratch / f"job{self.count}.err"
        spans_path = self.scratch / f"job{self.count}.spans.json"
        if self.setup is not None and not traced:
            self.setup.append(setup_sample(stderr_path))
        cli_args = args + ["--out", str(outdir)]
        if traced:
            cmd = [sys.executable, str(TRACED_CLI), str(spans_path),
                   f"{os.getpid()}-{self.count}", "--", *cli_args]
        else:
            cmd = [sys.executable, "-m", "pircons.cli", *cli_args]
        code, wall, rss = run_process(
            cmd, stderr_path, max(1.0, self.deadline - time.perf_counter()))
        result = {"key": key, "wall_s": wall, "rss_mb": rss,
                  "bytes": sum(p.stat().st_size for p in outdir.iterdir())}
        if code != 0:
            tail = stderr_path.read_text().strip().splitlines()[-1:]
            result["error"] = f"exit code {code}: {' '.join(tail)}"
        else:
            result["error"] = _check_outputs(key, outdir, self.reference)
        if traced and spans_path.exists():
            result["spans"] = json.loads(spans_path.read_text())
        shutil.rmtree(outdir)
        for path in (stderr_path, spans_path):
            path.unlink(missing_ok=True)
        return result

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


def measure_setup(samples: int = SETUP_SAMPLES) -> list[float]:
    """Setup samples taken before the passes.

    One untimed import first, so that bytecode caches exist as they do for a
    user after the first command.
    """
    WORK.mkdir(parents=True, exist_ok=True)
    err = WORK / f"setup-{os.getpid()}.err"
    try:
        setup_sample(err)
        return [setup_sample(err) for _ in range(samples)]
    finally:
        err.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# Spans to per-layer metrics.
# ---------------------------------------------------------------------------

def layer_totals(doc: dict) -> dict[str, float]:
    """Inclusive seconds, self seconds and calls per span name of one job.

    A span nested in a span of the same name adds to calls and self time
    but not again to inclusive time.
    """
    names, nid, parent = doc["names"], doc["name"], doc["parent"]
    dur = [e - s for s, e in zip(doc["start"], doc["end"])]
    child = [0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[i]
    out: dict[str, float] = {}
    for i, d in enumerate(dur):
        name = names[nid[i]]
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0) \
            + (d - child[i]) / 1e9
        p = parent[i]
        while p >= 0 and nid[p] != nid[i]:
            p = parent[p]
        if p < 0:
            out[f"{name}.s"] = out.get(f"{name}.s", 0) + d / 1e9
    return out


def pass_layers(jobs: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, summed over its jobs."""
    totals: dict[str, float] = {}
    distinct: dict[str, int] = {}
    for job in jobs:
        doc = job["spans"]
        for key, value in layer_totals(doc).items():
            totals[key] = totals.get(key, 0) + value
        for key, value in doc["work"].items():
            totals[key] = totals.get(key, 0) + value
        for name, value in doc["distinct_inputs"].items():
            distinct[name] = distinct.get(name, 0) + value
    out = {}
    for metric in PER_LAYER:
        span, _, field = metric.rpartition(".")
        if field == "repeat":
            calls = totals.get(f"{span}.calls", 0)
            out[metric] = calls / distinct[span] if calls else 0.0
        elif metric != "trace.overhead_frac":
            out[metric] = totals.get(metric, 0)
    return out


# ---------------------------------------------------------------------------
# Passes and the run.
# ---------------------------------------------------------------------------

def run_pass(runner: Runner, jobs: list, rng: random.Random,
             traced: bool) -> dict:
    order = list(jobs)
    rng.shuffle(order)
    results = [runner.job(key, args, traced) for key, args in order]
    return {"traced": traced, "jobs": results,
            "wall_s": sum(r["wall_s"] for r in results),
            "rss_mb": max(r["rss_mb"] for r in results),
            "bytes": sum(r["bytes"] for r in results)}


def run_passes(runner: Runner, jobs: list, rng: random.Random,
               seconds: float, kinds: tuple[bool, ...]) -> list[dict]:
    """Passes cycling through ``kinds`` (traced or not) for ``seconds``.

    Every kind runs at least once; after that a pass starts only when the
    median of earlier passes of its kind still ends within the time.
    """
    passes: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = kinds[len(passes) % len(kinds)]
        passes.append(run_pass(runner, jobs, rng, traced))
        nxt = kinds[len(passes) % len(kinds)]
        done = [p["wall_s"] for p in passes if p["traced"] == nxt]
        if len(passes) >= len(kinds) and done and \
                time.perf_counter() - start + statistics.median(done) \
                > seconds:
            return passes


def _layer_metrics(workload: str, passes: list[dict],
                   problems: list[str]) -> dict[str, float]:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    per_pass = []
    for p in traced:
        if any(j["error"] or "spans" not in j for j in p["jobs"]):
            continue
        fired = set()
        for j in p["jobs"]:
            doc = j["spans"]
            fired |= {doc["names"][i] for i in set(doc["name"])}
        missing = EXPECTED_SPANS[workload] - fired
        if missing:
            raise BenchError(f"spans never fired on {workload}: "
                             f"{', '.join(sorted(missing))}")
        per_pass.append(pass_layers(p["jobs"]))
    if not per_pass:
        return {}
    out = {}
    for metric in PER_LAYER:
        if metric == "trace.overhead_frac":
            continue
        values = [layers[metric] for layers in per_pass]
        if metric.rpartition(".")[2] in TIMED_FIELDS:
            out[metric] = statistics.median(values)
        else:
            out[metric] = values[0]
            if any(v != values[0] for v in values):
                problems.append(f"{metric} differs between passes: {values}")
    emitted = out["cli.emit.bytes"]
    for p in plain:
        if p["bytes"] != emitted:
            problems.append(f"traced cli.emit.bytes {emitted} != untraced "
                            f"output bytes {p['bytes']}")
    out["trace.overhead_frac"] = \
        statistics.median(p["wall_s"] for p in traced) \
        / statistics.median(p["wall_s"] for p in plain) - 1
    return out


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _summary(values: list[float]) -> dict:
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "samples": values}


def run(workload: str, seed: int, seconds: float, trace: bool,
        reference_path: Path = REFERENCE) -> dict:
    if not (SRC / "pircons" / "cli.py").is_file():
        raise BenchError(f"no program source at {SRC / 'pircons'}")
    try:
        reference = json.loads(reference_path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read reference digests: {exc}") from exc
    deadline = time.perf_counter() + RUN_LIMIT_S
    rng = random.Random(seed)
    jobs = workload_jobs(workload, rng)
    setup = [] if trace else measure_setup()
    runner = Runner(reference, deadline, None if trace else setup)
    try:
        passes = run_passes(runner, jobs, rng, seconds,
                            (False, True) if trace else (False,))
    finally:
        runner.close()

    all_jobs_run = [j for p in passes for j in p["jobs"]]
    errors = [f"{j['key']}: {j['error']}" for j in all_jobs_run if j["error"]]
    problems: list[str] = []
    plain = [p for p in passes if not p["traced"]]
    if trace:
        metrics = _layer_metrics(workload, passes, problems)
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "pass_s": statistics.median(p["wall_s"] for p in plain),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in plain)}
        units = END_TO_END
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "jobs": [key for key, _ in jobs],
        "commit": _commit(), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
        "attempted": len(all_jobs_run), "failed": len(errors),
        "fail_frac": len(errors) / len(all_jobs_run),
        "errors": errors, "problems": problems,
        "setup_s": _summary(setup) if setup else None,
        "pass_s": _summary([p["wall_s"] for p in plain]),
        "traced_pass_s": _summary([p["wall_s"] for p in passes
                                   if p["traced"]]) if trace else None,
        "peak_rss_mb": _summary([p["rss_mb"] for p in plain]),
        "job_walls": [{j["key"]: j["wall_s"] for j in p["jobs"]}
                      for p in passes],
        "metrics": {name: {"value": metrics.get(name, 0), "unit": unit}
                    for name, unit in units.items()},
    }


def _print_report(result: dict) -> None:
    print(f"workload {result['workload']} seed {result['seed']} "
          f"commit {result['commit'][:12]} python {result['python']} "
          f"nproc {result['nproc']} cpu {result['cpu_model']}")
    for name in ("setup_s", "pass_s", "traced_pass_s", "peak_rss_mb"):
        s = result.get(name)
        if s:
            print(f"  {name:<14} median {s['median']:.4f}  "
                  f"q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  n {s['n']}")
    print(f"  fail_frac      {result['fail_frac']:.4f} ratio "
          f"({result['failed']}/{result['attempted']} jobs)")
    for name, m in result["metrics"].items():
        print(f"  {name:<38} {m['value']:.6g} {m['unit']}")
    for line in result["errors"] + result["problems"]:
        print(f"  FAIL {line}")


def write_reference() -> None:
    """Run every job once and store the digests of its outputs."""
    outdir = WORK / f"reference-{os.getpid()}"
    err = WORK / f"reference-{os.getpid()}.err"
    digests = {}
    try:
        for key, args in all_jobs():
            outdir.mkdir(parents=True)
            code, wall, _ = run_process(
                [sys.executable, "-m", "pircons.cli", *args,
                 "--out", str(outdir)], err, RUN_LIMIT_S)
            if code != 0:
                raise BenchError(f"{key}: exit code {code}")
            digests[key] = _digests(outdir)
            shutil.rmtree(outdir)
            print(f"{key}: {wall:.2f} s", file=sys.stderr)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        err.unlink(missing_ok=True)
    REFERENCE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate the reference digests and exit")
    args = parser.parse_args(argv)
    try:
        if args.write_reference:
            write_reference()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        result = run(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / (f"{result['workload']}-seed{result['seed']}-"
                     f"trace{result['trace']}-{os.getpid()}.json")
    out.write_text(json.dumps(result, indent=1) + "\n")
    _print_report(result)
    correct = not result["errors"] and not result["problems"]
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
