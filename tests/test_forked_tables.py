"""`compute --x both` makes the x = q files in a forked child.

The child sends the finished x = q file texts, and the parent writes every
file.  The job's files, bytes and stdout lines equal those of a `--x -1` run
and a `--x q` run made one after the other.  When the child fails, the
parent makes what the child did not send, with the errors, exit codes and
files of an in-process build.  No child outlives a job.
"""

import contextlib
import io
import json
import marshal
import os
import signal
import time
import types
from collections import Counter

import pytest

from conftest import GROUP_CONFIGS, all_subsets
from pircons import cli, forked, klpoly
from pircons.coxeter import CoxeterSystem
from pircons.klpoly import X_MINUS_ONE, X_Q, KernelError


def run(argv):
    """(exit code, stdout, stderr) of one in-process CLI job."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def coxeter_args(matrix, H):
    args = ["--type", matrix["type"]]
    args += ["--rank", str(matrix["rank"])] if "rank" in matrix \
        else ["--m", str(matrix["m"])]
    return args + ["--H", ",".join(str(h + 1) for h in H)]


INSTANCES = {
    f"{name}/H={''.join(str(h + 1) for h in H) or '-'}": coxeter_args(cfg, H)
    for name, cfg in GROUP_CONFIGS
    for H in all_subsets(CoxeterSystem(cfg).num_gens)}
INSTANCES.update({f"twisted{n}": ["--twisted-n", str(n)]
                  for n in (1, 2, 3)})
INSTANCES["poset"] = None   # A3/H={s2} as a poset file and refinement file


@pytest.fixture
def instance_args(request, tmp_path):
    args = INSTANCES[request.param]
    if args is not None:
        return args
    quot = CoxeterSystem({"type": "A", "rank": 3}).quotient({1})
    poset_file, ref_file = tmp_path / "poset.json", tmp_path / "ref.json"
    poset_file.write_text(json.dumps(quot.poset.to_json()))
    ref_file.write_text(json.dumps(klpoly.lambda_refinement(quot).to_json()))
    return ["--poset-file", str(poset_file),
            "--refinement-file", str(ref_file)]


def files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("instance_args", INSTANCES, indirect=True)
def test_both_x_equal_the_two_single_x_runs(tmp_path, instance_args):
    for outputs in ("r,p", "r", "p"):
        for fmt in ("json", "csv"):
            flags = ["compute", *instance_args, "--outputs", outputs,
                     "--format", fmt]
            both, single = tmp_path / "both", tmp_path / "single"
            got = run([*flags, "--x", "both", "--out", str(both)])
            want = [run([*flags, "--x", x, "--out", str(single)])
                    for x in (X_MINUS_ONE, X_Q)]
            # the same note (poset instances) or none on stderr
            assert got[0] == want[0][0] == want[1][0] == 0
            assert got[2] == want[0][2] == want[1][2]
            assert got[1].replace(str(both), "") == \
                "".join(w[1] for w in want).replace(str(single), "")
            assert files(both) == files(single)
            for directory in (both, single):
                for path in directory.iterdir():
                    path.unlink()
    # with no --out the tables go to stdout, in the same order
    flags = ["compute", *instance_args, "--outputs", "r,p"]
    got = run([*flags, "--x", "both"])
    want = [run([*flags, "--x", x]) for x in (X_MINUS_ONE, X_Q)]
    assert got == (0, "".join(w[1] for w in want), want[0][2])


A3_JOB = ["compute", "--type", "A", "--rank", "3", "--H", "2",
          "--x", "both", "--outputs", "r,p"]


def in_child(parent):
    return os.getpid() != parent


def test_a_failing_x_q_kernel_fails_the_job_as_in_process(
        tmp_path, monkeypatch, table_builds):
    """The child's KernelError makes the parent build x = q itself, which
    fails at p_q as an in-process build does: r_minus1, p_minus1 and r_q
    are written, p_q is not, and one error line says why."""
    real = klpoly.kls_polynomials

    def failing(table):
        if table.x == X_Q:
            raise KernelError("not a P-kernel at pair ('e', 'e')", (0, 0))
        return real(table)

    monkeypatch.setattr(klpoly, "kls_polynomials", failing)
    out = tmp_path / "out"
    code, _, err = run([*A3_JOB, "--out", str(out)])
    assert code == 1
    assert err == "error: not a P-kernel at pair ('e', 'e')\n"
    assert sorted(files(out)) == ["p_minus1.json", "r_minus1.json",
                                  "r_q.json"]
    # the child built R^q before its kernel failed; the parent built it again
    assert (False, "r_polynomials", X_Q) in table_builds()
    assert (True, "r_polynomials", X_Q) in table_builds()


@pytest.mark.parametrize("failure", ["sigkill", "first-record"])
def test_a_lost_child_is_replaced_by_an_in_process_build(
        tmp_path, monkeypatch, table_formats, failure):
    """A child killed by SIGKILL while it builds, or once it has sent r_q:
    the parent writes what arrived and makes the rest itself.  Files and
    stdout equal those of the two single-x jobs, so no path line is
    printed twice."""
    single = tmp_path / "single"
    want = "".join(run([*A3_JOB[:-3], x, "--outputs", "r,p", "--out",
                        str(single)])[1] for x in (X_MINUS_ONE, X_Q))
    if failure == "sigkill":
        parent, real = os.getpid(), klpoly.r_polynomials

        def dying(*args):
            if in_child(parent):
                os.kill(os.getpid(), signal.SIGKILL)
            return real(*args)

        monkeypatch.setattr(klpoly, "r_polynomials", dying)
    else:
        def dump_then_die(record, pipe):
            marshal.dump(record, pipe)
            pipe.flush()
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(forked, "marshal", types.SimpleNamespace(
            dump=dump_then_die, load=marshal.load))
    single_formats = Counter(table_formats())
    both = tmp_path / "both"
    code, out, err = run([*A3_JOB, "--out", str(both)])
    assert (code, err) == (0, "")
    assert out.replace(str(both), "") == want.replace(str(single), "")
    assert files(both) == files(single)
    # the child formats both x = q tables or none; the parent formats its
    # own two and the x = q ones that did not arrive: p_q, or both
    child = 0 if failure == "sigkill" else 2
    assert Counter(table_formats()) - single_formats == Counter({
        (False, "to_json_text", X_Q): child,
        (True, "to_json_text", X_Q): 2 - child // 2,
        (True, "to_json_text", X_MINUS_ONE): 2})


@pytest.mark.parametrize("fmt, formatter", [("json", "to_json_text"),
                                            ("csv", "to_csv")])
def test_the_parent_formats_only_its_own_tables(tmp_path, table_formats,
                                                fmt, formatter):
    """On success the child formats the x = q tables, and the parent only
    the x = -1 ones."""
    assert run([*A3_JOB, "--format", fmt, "--out", str(tmp_path)])[0] == 0
    assert table_formats() == [(False, formatter, X_Q)] * 2 + \
        [(True, formatter, X_MINUS_ONE)] * 2


def test_a_failing_parent_kills_its_child_and_fails_as_in_process(
        monkeypatch):
    """The parent's own half raises while the child is still building:
    the child is killed and reaped, and the error line and exit code are
    those of a single-x job that fails the same way."""
    parent = os.getpid()
    real = klpoly.r_polynomials

    def stuck_or_failing(*args):
        if in_child(parent):
            time.sleep(60)
        elif args[-1] == X_MINUS_ONE:
            raise ValueError("R recursion failed")
        return real(*args)

    monkeypatch.setattr(klpoly, "r_polynomials", stuck_or_failing)
    start = time.perf_counter()
    got = run(A3_JOB)
    assert time.perf_counter() - start < 30
    want = run([*A3_JOB[:-4], "--x", X_MINUS_ONE, "--outputs", "r,p"])
    assert got == want == (1, "", "error: R recursion failed\n")
