"""`compute --x both` builds the x = q tables in a forked child.

The job's files, bytes and stdout lines equal those of a `--x -1` run and a
`--x q` run made one after the other, and when the child fails, the parent
builds x = q itself, with the errors, exit codes and files of an in-process
build.  No child outlives a job.
"""

import contextlib
import io
import json
import marshal
import os
import signal
import time
import types

import pytest

from conftest import GROUP_CONFIGS, all_subsets
from pircons import cli, forked, klpoly
from pircons.coxeter import CoxeterSystem
from pircons.klpoly import X_MINUS_ONE, X_Q, KernelError


@pytest.fixture(autouse=True)
def no_child_left():
    """After each case, this process has no child: none running, none
    waiting to be reaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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


@pytest.mark.parametrize("failure", ["sigkill", "short-data"])
def test_a_lost_child_is_replaced_by_an_in_process_build(
        tmp_path, monkeypatch, table_builds, failure):
    """A child killed by SIGKILL, or one whose data comes up short: the
    parent builds x = q itself, with byte-identical files."""
    want_dir = tmp_path / "want"
    assert run([*A3_JOB, "--out", str(want_dir)])[0] == 0
    parent = os.getpid()
    if failure == "sigkill":
        real = klpoly.r_polynomials

        def dying(*args):
            if in_child(parent):
                os.kill(os.getpid(), signal.SIGKILL)
            return real(*args)

        monkeypatch.setattr(klpoly, "r_polynomials", dying)
    else:
        monkeypatch.setattr(forked, "marshal", types.SimpleNamespace(
            dumps=lambda obj: marshal.dumps(obj)[:-5], loads=marshal.loads))
    got_dir = tmp_path / "got"
    code, _, err = run([*A3_JOB, "--out", str(got_dir)])
    assert (code, err) == (0, "")
    assert files(got_dir) == files(want_dir)
    # the parent built x = q itself this time
    assert [(here, name) for here, name, x in table_builds()
            if x == X_Q and here] == [(True, "kls_polynomials"),
                                      (True, "r_polynomials")]


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
