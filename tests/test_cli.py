import contextlib
import functools
import io
import json
import os
import re
import stat
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from pircons import cli, coxeter, hecke, klpoly, matchings
from pircons.coxeter import (DEFAULT_SIZE_BOUND, SIZE_BOUND_ENV,
                             CoxeterSystem, SizeBoundError)
from pircons.twisted import TwistedIdentities
from pircons.klpoly import (X_MINUS_ONE, X_PARAMS, X_Q, KernelError,
                            PolyTable, kls_polynomials, lambda_refinement,
                            r_polynomials)


def run(argv):
    return cli.main(argv)


def test_written_files_follow_the_umask(tmp_path):
    """Output files are created with mode 0o666 less the umask."""
    for mask in (0o022, 0o077, 0o002):
        out = tmp_path / f"{mask:o}"
        old = os.umask(mask)
        try:
            assert run(["compute", "--type", "A", "--rank", "2",
                        "--out", str(out)]) == 0
        finally:
            os.umask(old)
        modes = {p.name: stat.S_IMODE(p.stat().st_mode)
                 for p in out.iterdir()}
        assert modes == {"r_q.json": 0o666 & ~mask,
                         "r_minus1.json": 0o666 & ~mask}


def test_a_failed_write_leaves_no_temporary_file(tmp_path):
    """A write that fails, in the text or in the rename, leaves the
    directory as it was: no temporary file and no target."""
    out = tmp_path / "out"
    with pytest.raises(TypeError):
        cli._atomic_write(str(out / "r_q.json"), None)
    assert list(out.iterdir()) == []
    (out / "taken").mkdir()
    (out / "taken" / "inside").write_text("")
    with pytest.raises(OSError):
        cli._atomic_write(str(out / "taken"), "text")
    assert [p.name for p in out.iterdir()] == ["taken"]


def test_compute_matches_module_tables(tmp_path, groups):
    out = tmp_path / "out"
    code = run(["compute", "--type", "A", "--rank", "2", "--H", "2",
                "--x", "both", "--outputs", "r,p", "--out", str(out)])
    assert code == 0
    quot = groups["A2"].quotient({1})
    ref = lambda_refinement(quot)
    for x, tag in ((X_Q, "q"), (X_MINUS_ONE, "minus1")):
        want_r = r_polynomials(quot.poset, ref, x)
        got_r = PolyTable.from_json(
            json.loads((out / f"r_{tag}.json").read_text()))
        assert got_r.columns == want_r.columns and got_r.x == x
        want_p = kls_polynomials(want_r)
        got_p = PolyTable.from_json(
            json.loads((out / f"p_{tag}.json").read_text()))
        assert got_p.columns == want_p.columns


def test_compute_reruns_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run(["compute", "--type", "B", "--rank", "2", "--H", "1",
                    "--x", "both", "--outputs", "r,p,klbasis",
                    "--out", str(out)]) == 0
    for name in sorted(p.name for p in out1.iterdir()):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_compute_csv(tmp_path):
    out = tmp_path / "csv"
    assert run(["compute", "--type", "A", "--rank", "2", "--H", "2",
                "--x", "q", "--format", "csv", "--out", str(out)]) == 0
    text = (out / "r_q.csv").read_text()
    assert text.splitlines()[0] == "u,w,coefficients"


def test_compute_emits_the_table_text_itself(tmp_path, monkeypatch):
    """The JSON writer's text is the file text: _emit gets that very
    string, with no copy made to add the newline."""
    made, emitted = [], []
    to_json_text, emit = PolyTable.to_json_text, cli._emit

    def made_text(table):
        made.append(to_json_text(table))
        return made[-1]

    def emitted_text(config, name, text):
        emitted.append(text)
        emit(config, name, text)

    monkeypatch.setattr(PolyTable, "to_json_text", made_text)
    monkeypatch.setattr(cli, "_emit", emitted_text)
    assert run(["compute", "--type", "A", "--rank", "2", "--H", "2",
                "--x", "q", "--out", str(tmp_path)]) == 0
    assert len(made) == len(emitted) == 1
    assert all(a is b for a, b in zip(made, emitted))
    assert (tmp_path / "r_q.json").read_text() == made[-1]


@pytest.mark.parametrize("argv", [
    ["verify", "--type", "A", "--rank", "2", "--format", "csv",
     "--checks", "lifting"],
    ["compute", "--type", "A", "--rank", "2", "--format", "dot"],
    ["enumerate-spm", "--type", "A", "--rank", "2", "--x", "q"],
])
def test_flags_a_command_does_not_read_are_refused(argv, capsys):
    """Each subcommand offers only the flags it reads: argparse refuses
    the others with exit 2 and a usage line, no traceback."""
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "usage:" in err and "Traceback" not in err


def test_verify_twisted_passes(tmp_path):
    out = tmp_path / "v"
    code = run(["verify", "--twisted-n", "2",
                "--checks", "updown,pkernel,dircon", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "verify_report.json").read_text())
    assert all(rec["status"] == "pass" for rec in report)
    kinds = {rec["identity"] for rec in report}
    assert kinds == {"updown", "pkernel", "dircon"}


def test_verify_full_suite_coxeter(tmp_path):
    code = run(["verify", "--type", "A", "--rank", "2", "--H", "2",
                "--out", str(tmp_path)])
    assert code == 0
    # default checks stay green on a rank-4 chain quotient too, because
    # dircon (which such chains legitimately fail) is opt-in for quotients
    assert run(["verify", "--type", "I2", "--m", "5", "--H", "1",
                "--out", str(tmp_path)]) == 0
    assert run(["verify", "--type", "I2", "--m", "5", "--H", "1",
                "--checks", "dircon", "--out", str(tmp_path)]) == \
        cli.VERIFY_EXIT_CODES["dircon"]


def test_verify_failure_exit_code(tmp_path, non_dircon_poset):
    poset_file = tmp_path / "poset.json"
    poset_file.write_text(json.dumps(non_dircon_poset.to_json()))
    code = run(["verify", "--poset-file", str(poset_file),
                "--checks", "dircon", "--out", str(tmp_path)])
    assert code == cli.VERIFY_EXIT_CODES["dircon"]
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report[0]["status"] == "fail"


def test_recursion_record_is_the_library_verdict():
    """run_verification records hecke.verify_recursion as it records
    verify_duality: a pass with no witness, and on a context whose P^q has
    one nudged entry, a fail with the repr of the reference witness."""
    config = {"instance": {"kind": "coxeter",
                           "matrix": {"type": "B", "rank": 2}}}
    inst = cli.build_instance(config)
    assert cli.run_verification(inst, ["recursion"], X_PARAMS) == [
        {"identity": "recursion", "instance": inst.name, "status": "pass"}]
    inst = cli.build_instance(config)
    ctx = inst.hecke_context
    pair = (ctx.poset.bottom, ctx.poset.top)
    oracles.keep_table(inst.system, "p_table", X_Q, oracles.nudged(
        ctx.system.p_table(X_Q), pair, oracles.monomial(0)))
    ok, witness = oracles.verify_recursion(ctx, X_PARAMS)
    assert not ok
    assert cli.run_verification(inst, ["recursion"], X_PARAMS) == [
        {"identity": "recursion", "instance": inst.name, "status": "fail",
         "witness": repr(witness)}]


def test_kernel_record_is_the_library_verdict():
    """run_verification records the kernel verdict with the repr of its
    witness, the pair where the oracle inversion fails, and the context
    refuses the system on it.  Every single nudge of R^q also breaks
    up-down symmetry, so the up-down verdicts are taken on the genuine
    table and kept, as a default verify job takes them first."""
    inst = cli.build_instance({"instance": {
        "kind": "coxeter", "matrix": {"type": "B", "rank": 2}}})
    for x in X_PARAMS:
        assert inst.system.updown(x) == (True, None)
    pair = (inst.poset.bottom, inst.poset.top)
    table = oracles.nudged(inst.system.r_table(X_Q), pair, oracles.monomial(0))
    oracles.keep_table(inst.system, "r_table", X_Q, table)
    with pytest.raises(KernelError) as exc:
        oracles.kls_polynomials(table)
    witness = ("kernel", exc.value.pair)
    assert cli.run_verification(inst, ["pkernel"], X_PARAMS) == [
        {"identity": "pkernel", "instance": inst.name, "status": "pass",
         "detail": "x=-1"},
        {"identity": "pkernel", "instance": inst.name, "status": "fail",
         "detail": "x=q", "witness": repr(witness)}]
    assert inst.system.p_table(X_Q) is None
    with pytest.raises(ValueError, match=re.escape(
            f"kernel identity fails for x=q: {witness}")):
        inst.hecke_context


def test_properties_record_is_the_kept_verdict():
    """run_verification records the system's kept properties verdict, and
    the context refuses the system on it.  R^q_{e,top} nudged by q keeps
    the degrees of R^-1 and the constant terms of R^q, so only the x-z
    transform breaks; the up-down and kernel verdicts are taken on the
    genuine tables and kept, as a default verify job takes them first."""
    inst = cli.build_instance({"instance": {
        "kind": "coxeter", "matrix": {"type": "B", "rank": 2}}})
    for x in X_PARAMS:
        assert inst.system.updown(x) == (True, None)
        assert inst.system.pkernel(x) == (True, None)
    pair = (inst.poset.bottom, inst.poset.top)
    oracles.keep_table(inst.system, "r_table", X_Q, oracles.nudged(
        inst.system.r_table(X_Q), pair, oracles.monomial(1)))
    witness = ("x-z-transform", pair)
    assert cli.run_verification(inst, ["properties"], X_PARAMS) == [
        {"identity": "properties", "instance": inst.name, "status": "fail",
         "witness": repr(witness)}]
    with pytest.raises(ValueError, match=re.escape(
            f"R-table properties fail: {witness}")):
        inst.hecke_context


def test_poset_instance_with_refinement(tmp_path, groups):
    quot = groups["A2"].quotient({1})
    ref = lambda_refinement(quot)
    poset_file = tmp_path / "p.json"
    ref_file = tmp_path / "r.json"
    poset_file.write_text(json.dumps(quot.poset.to_json()))
    ref_file.write_text(json.dumps(ref.to_json()))
    out = tmp_path / "out"
    code = run(["compute", "--poset-file", str(poset_file),
                "--refinement-file", str(ref_file), "--x", "q",
                "--out", str(out)])
    assert code == 0
    got = PolyTable.from_json(json.loads((out / "r_q.json").read_text()))
    assert got.columns == r_polynomials(quot.poset, ref, X_Q).columns


def test_unknown_check_is_config_error(capsys):
    assert run(["verify", "--type", "A", "--rank", "2", "--H", "2",
                "--checks", "duplicate-unknown"]) == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_unknown_output_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({
        "instance": {"kind": "coxeter", "matrix": {"type": "A", "rank": 2}},
        "outputs": ["zzz"]}))
    out = tmp_path / "o2"
    assert run(["compute", "--config", str(cfg),
                "--out", str(out)]) == cli.EXIT_CONFIG
    assert run(["compute", "--type", "A", "--rank", "2",
                "--outputs", "r,zzz", "--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(e.startswith("config error:") and
                                 "'zzz'" in e for e in err)
    assert not out.exists()


def test_unknown_element_is_config_error(tmp_path, capsys):
    out = tmp_path / "spm"
    assert run(["enumerate-spm", "--type", "A", "--rank", "2",
                "--element", "zz", "--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "'zz'" in err and \
        err.count("\n") == 1
    assert not out.exists()


def test_product_instance_is_named_by_its_factors(tmp_path):
    """A product instance's name joins its factors' names, each named as
    one matrix is, with x; every report record carries it."""
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"instance": {
        "kind": "coxeter", "H": [1], "matrix": {"type": "product", "factors": [
            {"type": "A", "rank": 1}, {"type": "I2", "m": 3}]}}}))
    out = tmp_path / "out"
    assert run(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    records = json.loads((out / "verify_report.json").read_text())
    assert records and {r["instance"] for r in records} == {"A1xI23/H=s1"}


def test_unsupported_type_exit(capsys):
    assert run(["compute", "--type", "H", "--rank", "3"]) == \
        cli.EXIT_UNSUPPORTED


def test_boolean_rank_is_unsupported(tmp_path, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({
        "instance": {"kind": "coxeter",
                     "matrix": {"type": "A", "rank": True}}}))
    assert run(["compute", "--config", str(cfg),
                "--out", str(tmp_path / "out")]) == cli.EXIT_UNSUPPORTED
    assert "integer 'rank'" in capsys.readouterr().err


def test_boolean_twisted_n_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"instance": {"kind": "twisted", "n": True}}))
    assert run(["compute", "--config", str(cfg),
                "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    assert "positive integer n" in capsys.readouterr().err


def test_size_bound_exit(monkeypatch):
    monkeypatch.setenv("PIRCONS_MAX_GROUP_SIZE", "4")
    assert run(["compute", "--type", "A", "--rank", "3"]) == \
        cli.EXIT_SIZE_BOUND


def test_twisted_host_past_the_bound_is_refused(tmp_path, monkeypatch,
                                                capsys):
    """Every group past the default bound of 50000 is refused by its order,
    with no realization call: S_10 (the host of --twisted-n 5, 10!
    elements), A8, B9 (2^9 9!), D9 (2^8 9!), I2(30000) (60000) and the
    product of B5 and A5 (3840 * 720)."""
    monkeypatch.delenv(SIZE_BOUND_ENV, raising=False)
    calls = []
    for cls in (coxeter._TypeA, coxeter._TypeB, coxeter._TypeD,
                coxeter._Dihedral):
        monkeypatch.setattr(cls, "right", lambda self, w, k: calls.append(k))
    product = tmp_path / "product.json"
    product.write_text(json.dumps({"instance": {
        "kind": "coxeter", "matrix": {"type": "product", "factors": [
            {"type": "B", "rank": 5}, {"type": "A", "rank": 5}]}}}))
    for argv in (["--twisted-n", "5"], ["--type", "A", "--rank", "8"],
                 ["--type", "B", "--rank", "9"],
                 ["--type", "D", "--rank", "9"],
                 ["--type", "I2", "--m", "30000"],
                 ["--config", str(product)]):
        assert run(["compute", *argv]) == cli.EXIT_SIZE_BOUND, argv
        assert capsys.readouterr().err == \
            f"coxeter error: group exceeds size bound {DEFAULT_SIZE_BOUND}\n"
    assert calls == []


def test_size_bound_exit_follows_the_error_type(monkeypatch):
    monkeypatch.setenv(SIZE_BOUND_ENV, "4")
    with pytest.raises(SizeBoundError):
        CoxeterSystem({"type": "A", "rank": 3})
    # an unsupported type whose message happens to say "size bound"
    assert run(["compute", "--type", "size bound", "--rank", "3"]) == \
        cli.EXIT_UNSUPPORTED


MALFORMED_POSETS = {
    "elements-not-a-list": {"elements": 5, "covers": []},
    "cover-index-not-an-int": {"elements": ["a", "b"], "covers": [[[0], 1]]},
    "not-an-object": [1, 2],
}


@pytest.mark.parametrize("case", sorted(MALFORMED_POSETS))
def test_malformed_poset_file_is_config_error(tmp_path, capsys, case):
    poset_file = tmp_path / "p.json"
    poset_file.write_text(json.dumps(MALFORMED_POSETS[case]))
    assert run(["export-dot", "--poset-file", str(poset_file),
                "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


def test_malformed_refinement_and_matching_files(tmp_path, capsys, groups):
    poset = groups["A2"].quotient({1}).poset
    poset_file = tmp_path / "p.json"
    poset_file.write_text(json.dumps(poset.to_json()))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"map": [[0], 1, None]}))
    assert run(["compute", "--poset-file", str(poset_file),
                "--refinement-file", str(bad),
                "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    assert run(["export-dot", "--poset-file", str(poset_file),
                "--matching-file", str(bad),
                "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(e.startswith("config error:") for e in err)


UNREADABLE_FILES = {
    "not-json": b"elements: [a, b]\n",
    "cut-short": b'{"elements": ["a", "b"], "cov',
    "not-utf8": b'{"elements": ["\xff"], "covers": []}',
    # past the decoder's recursion limit
    "too-deep": b"[" * 200000,
    # past Python's 4,300-digit limit on integer literals
    "huge-int": b'{"elements": [' + b"1" * 5000 + b'], "covers": []}',
}


@pytest.mark.parametrize("field", ["config", "poset", "refinement",
                                   "matching"])
@pytest.mark.parametrize("case", sorted(UNREADABLE_FILES))
def test_unreadable_input_file_is_config_error(tmp_path, capsys, groups,
                                               field, case):
    """Every input file goes through one loader: one that is not UTF-8
    JSON, or that the decoder refuses for its depth or for an integer's
    length, exits 2 with one line naming the file; a missing one exits
    1."""
    poset_file = tmp_path / "p.json"
    poset_file.write_text(json.dumps(groups["A2"].quotient({1}).poset
                                     .to_json()))
    bad = tmp_path / "bad.json"
    bad.write_bytes(UNREADABLE_FILES[case])
    out = str(tmp_path / "out")
    argv = {"config": ["compute", "--config", str(bad)],
            "poset": ["export-dot", "--poset-file", str(bad)],
            "refinement": ["compute", "--poset-file", str(poset_file),
                           "--refinement-file", str(bad)],
            "matching": ["export-dot", "--poset-file", str(poset_file),
                         "--matching-file", str(bad)]}[field]
    assert run([*argv, "--out", out]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {bad}: ") and err.count("\n") == 1
    bad.unlink()
    assert run([*argv, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


CHAIN3 = {"elements": ["a", "b", "c"], "covers": [[0, 1], [1, 2]]}
BAD_REFINEMENTS = {
    # an entry at the minimal element, whose image is not even an element
    "minimal": ({"a": [7, None, None], "b": [1, 0, None], "c": [0, 2, 1]},
                "'a'"),
    "unknown-label": ({"zz": [1, 0, None], "b": [1, 0, None],
                       "c": [0, 2, 1]}, "'zz'"),
    # a matching at b defined past the ideal of b, on c as well
    "past-the-ideal": ({"b": [1, 0, 2], "c": [0, 2, 1]},
                       "matching at 'b' is not defined on its lower ideal"),
    # the SPM witness names the element a, index 0, by its label
    "not-an-spm": ({"b": [1, 0, None], "c": [-1, 2, 1]},
                   "matching at 'c' is not an SPM: "
                   "('image-outside-domain', 'a')"),
}


@pytest.mark.parametrize("case", sorted(BAD_REFINEMENTS))
@pytest.mark.parametrize("checks", [None, "lifting"])
def test_bad_refinement_entry_is_config_error(tmp_path, capsys, case,
                                              checks):
    data, label = BAD_REFINEMENTS[case]
    poset_file, ref_file = tmp_path / "p.json", tmp_path / "r.json"
    poset_file.write_text(json.dumps(CHAIN3))
    ref_file.write_text(json.dumps(data))
    argv = ["verify", "--poset-file", str(poset_file),
            "--refinement-file", str(ref_file), "--out", str(tmp_path / "o")]
    if checks:
        argv += ["--checks", checks]
    assert run(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert label in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("H", [[True], "x", [1.0], {"1": 1}],
                         ids=["bool", "string", "float", "object"])
def test_malformed_H_is_config_error(tmp_path, capsys, H):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({
        "instance": {"kind": "coxeter",
                     "matrix": {"type": "A", "rank": 2}, "H": H}}))
    assert run(["compute", "--config", str(cfg),
                "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: H must list") and \
        err.count("\n") == 1


def test_missing_instance_is_config_error():
    assert run(["compute"]) == cli.EXIT_CONFIG


def test_mutually_exclusive_instances(tmp_path):
    poset_file = tmp_path / "p.json"
    poset_file.write_text("{}")
    assert run(["compute", "--type", "A", "--rank", "2",
                "--poset-file", str(poset_file)]) == cli.EXIT_CONFIG


def test_H_flag_over_a_config_without_instance_object(tmp_path, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"instance": [1]}))
    assert run(["compute", "--config", str(cfg), "--H", "2"]) == \
        cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error:")


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({
        "instance": {"kind": "coxeter",
                     "matrix": {"type": "A", "rank": 2}, "H": [2]},
        "x": "q", "outputs": ["r"]}))
    out = tmp_path / "out"
    code = run(["compute", "--config", str(cfg), "--x", "-1",
                "--out", str(out)])
    assert code == 0
    assert (out / "r_minus1.json").exists()
    assert not (out / "r_q.json").exists()


def test_enumerate_spm(tmp_path):
    out = tmp_path / "spm"
    assert run(["enumerate-spm", "--type", "A", "--rank", "2",
                "--out", str(out)]) == 0
    data = json.loads((out / "spms.json").read_text())
    assert len(data["matchings"]) == 4
    # restricted to a smaller ideal
    assert run(["enumerate-spm", "--type", "A", "--rank", "2",
                "--element", "1.2", "--out", str(out)]) == 0
    data = json.loads((out / "spms.json").read_text())
    assert all(len(m) == 6 for m in data["matchings"])


def test_export_dot(tmp_path, groups):
    out = tmp_path / "dot"
    assert run(["export-dot", "--type", "A", "--rank", "2", "--H", "2",
                "--out", str(out)]) == 0
    text = (out / "poset.dot").read_text()
    assert text.startswith("digraph") and text.count("->") == 2

    # with a matching file highlighting the pair
    quot = groups["A2"].quotient({1})
    m = quot.lambda_matching(1)
    mfile = tmp_path / "m.json"
    mfile.write_text(json.dumps(m.to_json()))
    assert run(["export-dot", "--type", "A", "--rank", "2", "--H", "2",
                "--matching-file", str(mfile), "--out", str(out)]) == 0
    text = (out / "poset.dot").read_text()
    assert "style=bold" in text and "peripheries=2" in text


BAD_MAPS = {
    "image-out-of-range": ([1, 0, 99], "index 2"),
    "negative-image": ([-3, None, None], "index 0"),
    "not-an-involution": ([1, 1, None], "index 0"),
    "wrong-length": ([1], "index 1"),
}


@pytest.mark.parametrize("case", sorted(BAD_MAPS))
def test_export_dot_refuses_a_bad_matching_map(tmp_path, capsys, case):
    images, where = BAD_MAPS[case]
    mfile = tmp_path / "m.json"
    mfile.write_text(json.dumps({"map": images}))
    assert run(["export-dot", "--type", "A", "--rank", "2", "--H", "2",
                "--matching-file", str(mfile),
                "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert where in err
    assert not (tmp_path / "out").exists()


def test_klbasis_output(tmp_path):
    out = tmp_path / "kb"
    assert run(["compute", "--type", "A", "--rank", "2", "--H", "2",
                "--x", "q", "--outputs", "klbasis", "--out", str(out)]) == 0
    doc = json.loads((out / "klbasis_q.json").read_text())
    assert set(doc) == {"x", "C", "Cprime"}
    assert doc["Cprime"]["e"] == {"coeffs": [["e", [[0, 1]]]]}


def spy_calls(monkeypatch, names):
    """Count calls of the klpoly functions ``names`` and of
    ``lambda_refinement``, in every namespace that binds them, calls of
    ``TwistedIdentities.conjugation_refinement``, and constructions of
    ``PirconSystem`` and ``HeckeContext``."""
    counts = {}

    def spy(owner, name, key):
        counts[key] = 0
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        for module in (owner, matchings, klpoly, hecke, coxeter, cli):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)

    for name in (*names, "lambda_refinement"):
        spy(klpoly, name, name)
    spy(TwistedIdentities, "conjugation_refinement", "conjugation_refinement")
    spy(klpoly.PirconSystem, "__init__", "PirconSystem")
    spy(hecke.HeckeContext, "__init__", "HeckeContext")
    return counts


SPIED = ("r_polynomials", "check_pkernel", "check_updown",
         "kls_polynomials", "verify_pircon_system")


def test_verify_builds_each_artifact_once(tmp_path, monkeypatch):
    counts = spy_calls(monkeypatch, SPIED)
    assert run(["verify", "--type", "A", "--rank", "3",
                "--out", str(tmp_path)]) == 0
    # one system per job: its tables and verdicts serve the CLI's checks
    # and the one context shared by duality and recursion
    assert counts == {"r_polynomials": 2, "check_pkernel": 2,
                      "check_updown": 2, "kls_polynomials": 2,
                      "verify_pircon_system": 1, "HeckeContext": 1,
                      "PirconSystem": 1, "lambda_refinement": 1,
                      "conjugation_refinement": 0}


def test_verify_derives_each_table_norms_and_rule_packing_once(
        tmp_path, monkeypatch):
    """In one verify job, the norms of each table (the two R-tables for
    the rule checks, kernel inversion and the context, the two P-tables
    for the context) are computed once, and each R-table is packed once
    for check_updown, brenti_identity and is_calculating.  The generators
    of A3/H={s1} fix elements, so brenti_identity reads the packing too."""
    derived = {"norms": [], "rule_columns": []}
    for name, tables in derived.items():
        build = getattr(PolyTable, name).func

        def counted(table, _build=build, _tables=tables):
            _tables.append(table)
            return _build(table)

        spied = functools.cached_property(counted)
        spied.__set_name__(PolyTable, name)
        monkeypatch.setattr(PolyTable, name, spied)
    counts = spy_calls(monkeypatch, ("check_updown", "brenti_identity",
                                     "is_calculating"))
    assert run(["verify", "--type", "A", "--rank", "3", "--H", "1",
                "--out", str(tmp_path)]) == 0
    assert counts["check_updown"] == counts["brenti_identity"] == 2
    assert counts["is_calculating"] > 0
    norms, packed = derived["norms"], derived["rule_columns"]
    assert len(set(map(id, norms))) == len(norms) == 4
    assert len(set(map(id, packed))) == len(packed) == 2
    assert sorted(t.x for t in packed) == sorted(X_PARAMS)


def test_verify_packs_each_r_table_once_at_the_kernel_width(tmp_path,
                                                            monkeypatch):
    """The kernel verdict is kernel inversion, and the context reads the
    P-tables it built: one packing of each R-table at the kernel width,
    the inversion's starting width."""
    kernel = []
    real = klpoly._columns

    def spy(table, width):
        l1, top, terms = table.norms
        if width == klpoly._width_for(terms * l1 * top):
            kernel.append(table.x)
        return real(table, width)

    monkeypatch.setattr(klpoly, "_columns", spy)
    assert run(["verify", "--type", "A", "--rank", "3",
                "--out", str(tmp_path)]) == 0
    assert sorted(kernel) == sorted(X_PARAMS)


def test_verify_twisted_builds_the_system_matchings_once(tmp_path,
                                                         monkeypatch):
    counts = spy_calls(monkeypatch, SPIED)
    assert run(["verify", "--twisted-n", "3", "--out", str(tmp_path)]) == 0
    assert counts == {"r_polynomials": 2, "check_pkernel": 2,
                      "check_updown": 2, "kls_polynomials": 2,
                      "verify_pircon_system": 1, "HeckeContext": 1,
                      "PirconSystem": 1, "lambda_refinement": 0,
                      "conjugation_refinement": 1}


@pytest.mark.parametrize("argv, refinement", [
    (["--type", "B", "--rank", "3", "--H", "2"], "lambda_refinement"),
    (["--twisted-n", "3"], "conjugation_refinement")])
def test_each_compute_job_builds_one_system(tmp_path, monkeypatch, argv,
                                            refinement):
    """The instance's kept system serves both x's, the forked half too."""
    counts = spy_calls(monkeypatch, ())
    assert run(["compute", *argv, "--x", "both", "--outputs", "r,p",
                "--out", str(tmp_path)]) == 0
    assert counts["PirconSystem"] == counts[refinement] == 1
    assert counts["lambda_refinement"] + \
        counts["conjugation_refinement"] == 1


def test_compute_r_and_klbasis_share_the_r_tables(tmp_path, monkeypatch):
    counts = spy_calls(monkeypatch, SPIED)
    assert run(["compute", "--type", "A", "--rank", "3", "--x", "both",
                "--outputs", "r,klbasis", "--out", str(tmp_path)]) == 0
    assert counts["r_polynomials"] == 2 and counts["HeckeContext"] == 1


def test_compute_tables_build_no_context(tmp_path, monkeypatch,
                                         table_builds):
    counts = spy_calls(monkeypatch, SPIED)
    assert run(["compute", "--type", "A", "--rank", "3", "--x", "both",
                "--outputs", "r,p", "--out", str(tmp_path)]) == 0
    assert counts["HeckeContext"] == 0 and counts["check_pkernel"] == 0
    # one R- and one P-table per x, the x = q pair in the forked child
    assert table_builds() == [
        (False, "kls_polynomials", X_Q), (False, "r_polynomials", X_Q),
        (True, "kls_polynomials", X_MINUS_ONE),
        (True, "r_polynomials", X_MINUS_ONE)]


def test_compute_p_for_one_x_builds_one_r_table(tmp_path, monkeypatch):
    counts = spy_calls(monkeypatch, SPIED)
    assert run(["compute", "--type", "A", "--rank", "3", "--x", "q",
                "--outputs", "p", "--out", str(tmp_path)]) == 0
    assert counts["r_polynomials"] == 1


def test_klbasis_for_both_x_shares_one_context(tmp_path, monkeypatch):
    counts = spy_calls(monkeypatch, SPIED)
    assert run(["compute", "--type", "A", "--rank", "2", "--x", "both",
                "--outputs", "klbasis", "--out", str(tmp_path)]) == 0
    assert counts["HeckeContext"] == 1


def test_compute_p_and_klbasis_read_the_context_p_tables(tmp_path,
                                                         monkeypatch):
    alone, both = tmp_path / "p", tmp_path / "pk"
    assert run(["compute", "--type", "A", "--rank", "3", "--x", "both",
                "--outputs", "p", "--out", str(alone)]) == 0
    counts = spy_calls(monkeypatch, SPIED)
    assert run(["compute", "--type", "A", "--rank", "3", "--x", "both",
                "--outputs", "p,klbasis", "--out", str(both)]) == 0
    assert counts["kls_polynomials"] == 2 and counts["HeckeContext"] == 1
    for tag in ("q", "minus1"):
        name = f"p_{tag}.json"
        assert (both / name).read_bytes() == (alone / name).read_bytes()


def test_built_in_refinements_are_not_checked_again(tmp_path, monkeypatch):
    counts = spy_calls(monkeypatch, ("verify_spm",))
    assert run(["compute", "--type", "A", "--rank", "3", "--x", "both",
                "--outputs", "r,p", "--out", str(tmp_path / "c")]) == 0
    assert counts["verify_spm"] == 0
    # only the system verdict checks a restriction, one per down-matching
    # of each w: the 36 left descents of the elements of A3
    assert run(["verify", "--type", "A", "--rank", "3",
                "--out", str(tmp_path / "v")]) == 0
    assert counts["verify_spm"] == 36


BAD_FIELDS = [
    ("compute", {"outputs": 5}),
    ("compute", {"outputs": "r,p"}),
    ("verify", {"verify": 5}),
    ("compute", {"outputs": ["r", 5]}),
    ("compute", {"out": 5}),
    ("verify", {"out": 5}),
    ("export-dot", {"out": 5}),
    ("export-dot", {"matching_file": 1}),
    ("enumerate-spm", {"element": ["e"]}),
    ("export-dot", {"instance": {"kind": "poset", "poset_file": 1}}),
    ("compute", {"instance": {"kind": "poset", "poset_file": "p.json",
                              "refinement_file": 1}}),
]


@pytest.mark.parametrize("command,fields", BAD_FIELDS,
                         ids=[f"{c}-{'-'.join(f)}" for c, f in BAD_FIELDS])
def test_config_field_types_are_config_errors(tmp_path, capsys, command,
                                              fields):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({
        "instance": {"kind": "coxeter", "matrix": {"type": "A", "rank": 2}},
        **fields}))
    assert run([command, "--config", str(cfg)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not (tmp_path / "5").exists()


FOREIGN_FIELDS = [
    ("verify", {"format": "csv"}, ["--checks", "lifting"], "format"),
    ("enumerate-spm", {"x": "q"}, [], "x"),
    ("export-dot", {"outputs": ["r"]}, [], "outputs"),
    ("compute", {"verify": ["lifting"]}, ["--x", "q"], "verify"),
    ("compute", {"element": "e"}, [], "element"),
    ("verify", {"matching_file": "m.json"}, [], "matching_file"),
    ("compute", {"comment": "job"}, [], "comment"),
]


@pytest.mark.parametrize("command,fields,flags,field", FOREIGN_FIELDS,
                         ids=[f"{c}-{f}" for c, _, _, f in FOREIGN_FIELDS])
def test_config_fields_a_command_does_not_read_are_refused(
        tmp_path, capsys, command, fields, flags, field):
    """As with flags, a command refuses the config fields it does not
    read: exit 2 and one line naming the field and the command."""
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({
        "instance": {"kind": "coxeter", "matrix": {"type": "A", "rank": 2}},
        **fields}))
    out = tmp_path / "out"
    assert run([command, "--config", str(cfg), *flags,
                "--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"config error: {command} does not read config field " \
        f"{field!r}\n"
    assert not out.exists()


UNREAD_INSTANCE_INPUTS = [
    ({"kind": "twisted", "n": 2, "H": [1], "poset_file": "nope.json"}, [],
     "config error: a twisted instance does not read field 'H'"),
    ({"kind": "coxeter",
      "matrix": {"type": "A", "rank": 2, "m": 7, "factors": 3}}, [],
     "coxeter error: type 'A' does not read matrix field 'm'"),
    (None, ["--twisted-n", "2", "--H", "1"],
     "config error: a twisted instance does not read --H"),
    (None, ["--type", "A", "--rank", "2", "--refinement-file", "nope.json"],
     "config error: a coxeter instance does not read --refinement-file"),
    (None, ["--twisted-n", "2", "--rank", "3"],
     "config error: a twisted instance does not read --rank"),
    (None, ["--type", "A", "--rank", "2", "--m", "9"],
     "coxeter error: type 'A' does not read matrix field 'm'"),
]


@pytest.mark.parametrize("instance,flags,line", UNREAD_INSTANCE_INPUTS)
def test_instance_fields_and_flags_the_instance_does_not_read_are_refused(
        tmp_path, capsys, instance, flags, line):
    """An instance field or flag that the instance's kind does not read is
    a config error, and a matrix field that its type does not read is a
    coxeter error: one line naming it, and no output."""
    if instance is not None:
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"instance": instance}))
        flags = ["--config", str(cfg)]
    out = tmp_path / "out"
    code = run(["compute", *flags, "--out", str(out)])
    assert code == (cli.EXIT_CONFIG if line.startswith("config")
                    else cli.EXIT_UNSUPPORTED)
    assert capsys.readouterr().err == line + "\n"
    assert not out.exists()


def test_instance_flags_set_fields_of_a_config_instance(tmp_path):
    """A flag of the config instance's kind sets its field, as --H does:
    --rank over an A2 config gives the A3 job."""
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"instance": {
        "kind": "coxeter", "matrix": {"type": "A", "rank": 2}, "H": [2]}}))
    got, want = tmp_path / "got", tmp_path / "want"
    assert run(["compute", "--config", str(cfg), "--rank", "3", "--H", "1",
                "--out", str(got)]) == 0
    assert run(["compute", "--type", "A", "--rank", "3", "--H", "1",
                "--out", str(want)]) == 0
    assert (got / "r_q.json").read_text() == (want / "r_q.json").read_text()


BAD_PRODUCTS = [({"type": "product"}, "'factors' list"),
                ({"type": "product", "factors": [5]}, "factor 5 "),
                ({"type": "product",
                  "factors": [{"type": "A", "rank": 1}, "A"]}, "factor 'A' ")]


@pytest.mark.parametrize("matrix,named", BAD_PRODUCTS)
def test_malformed_product_is_a_coxeter_error(tmp_path, capsys, matrix,
                                              named):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"instance": {"kind": "coxeter",
                                            "matrix": matrix}}))
    assert run(["compute", "--config", str(cfg)]) == cli.EXIT_UNSUPPORTED
    err = capsys.readouterr().err
    assert err.startswith("coxeter error:") and err.count("\n") == 1
    assert named in err


# -- fuzzing the config boundary ---------------------------------------------

FUZZ_BASES = [
    {"instance": {"kind": "coxeter", "matrix": {"type": "A", "rank": 1},
                  "H": []}},
    {"instance": {"kind": "coxeter", "matrix": {"type": "A", "rank": 2},
                  "H": [1]}},
    {"instance": {"kind": "twisted", "n": 1}},
    {"instance": {"kind": "poset", "poset_file": "nope.json"}},
]
# (path to the owning object, field); a missing owner is created
FUZZ_FIELDS = [((), "x"), ((), "format"), ((), "outputs"), ((), "verify"),
               ((), "out"), ((), "element"), ((), "matching_file"),
               (("instance",), "kind"), (("instance",), "H"),
               (("instance",), "matrix"),
               (("instance",), "n"), (("instance",), "poset_file"),
               (("instance",), "refinement_file"),
               (("instance", "matrix"), "type"),
               (("instance", "matrix"), "rank"),
               (("instance", "matrix"), "m"),
               (("instance", "matrix"), "factors")]
# Field values stay small: relative names without separators, so outputs
# land in the example's own directory, and instances of at most a few
# elements (a huge rank or n must be refused by the size bound).
NAMES = st.sampled_from(
    ["", "q", "-1", "both", "r", "p", "klbasis", "json", "csv", "dot", "A",
     "B", "I2", "product", "coxeter", "twisted", "poset", "e", "1", "out",
     "job.json"] + list(cli.VERIFY_KINDS)) | \
    st.text(alphabet="abq12-,", max_size=4)
SCALARS = st.none() | st.booleans() | st.integers(-1, 2) | \
    st.sampled_from([2 ** 40, -(2 ** 63)]) | NAMES
VALUES = SCALARS | st.lists(SCALARS, max_size=3)
DOCUMENTED_EXITS = {0, 1, 2, 3, 4} | set(cli.VERIFY_EXIT_CODES.values())


@settings(max_examples=60, deadline=None)
@given(base=st.sampled_from(FUZZ_BASES),
       command=st.sampled_from(["compute", "verify", "enumerate-spm",
                                "export-dot"]),
       changes=st.lists(st.tuples(st.sampled_from(FUZZ_FIELDS), VALUES),
                        max_size=4))
def test_fuzzed_config_ends_with_a_documented_exit(base, command, changes):
    config = json.loads(json.dumps(base))
    for (path, key), value in changes:
        owner = config
        for part in path:
            if not isinstance(owner.get(part), dict):
                owner[part] = {}
            owner = owner[part]
        owner[key] = value
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        with open("job.json", "w") as handle:
            json.dump(config, handle)
        code = cli.main([command, "--config", "job.json"])
    assert code in DOCUMENTED_EXITS
    assert err.getvalue().count("\n") <= 1, err.getvalue()
    # a field that the instance's kind, or the matrix's type, does not read
    # is refused, unless a command field was refused first (exit 2 too)
    instance, kind = config["instance"], config["instance"].get("kind")
    if isinstance(kind, str) and kind in cli.INSTANCE_FIELDS:
        if set(instance) - {"kind", *cli.INSTANCE_FIELDS[kind]}:
            assert code == cli.EXIT_CONFIG, err.getvalue()
            assert err.getvalue().startswith("config error:")
        elif kind == "coxeter" and isinstance(instance.get("matrix"), dict):
            matrix = instance["matrix"]
            mtype = matrix.get("type")
            if isinstance(mtype, str) and mtype in coxeter._TYPES and \
                    set(matrix) - {"type", coxeter._TYPES[mtype][1]}:
                assert code == cli.EXIT_CONFIG or \
                    "does not read matrix field" in err.getvalue()
