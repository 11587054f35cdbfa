import json

import pytest

from pircons import cli, hecke, klpoly
from pircons.coxeter import CoxeterSystem, SizeBoundError
from pircons.klpoly import (X_MINUS_ONE, X_Q, PolyTable, kls_polynomials,
                            lambda_refinement, r_polynomials)


def run(argv):
    return cli.main(argv)


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
        assert got_r.entries == want_r.entries and got_r.x == x
        want_p = kls_polynomials(want_r)
        got_p = PolyTable.from_json(
            json.loads((out / f"p_{tag}.json").read_text()))
        assert got_p.entries == want_p.entries


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
    assert got.entries == r_polynomials(quot.poset, ref, X_Q).entries


def test_unknown_check_is_config_error(capsys):
    assert run(["verify", "--type", "A", "--rank", "2", "--H", "2",
                "--checks", "duplicate-unknown"]) == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


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


def test_size_bound_exit_follows_the_error_type(monkeypatch):
    with pytest.raises(SizeBoundError):
        CoxeterSystem({"type": "A", "rank": 3}, bound=4)
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
    from pircons.matchings import lambda_partial
    m = lambda_partial(quot, 1)
    mfile = tmp_path / "m.json"
    mfile.write_text(json.dumps(m.to_json()))
    assert run(["export-dot", "--type", "A", "--rank", "2", "--H", "2",
                "--matching-file", str(mfile), "--out", str(out)]) == 0
    text = (out / "poset.dot").read_text()
    assert "style=bold" in text and "peripheries=2" in text


def test_klbasis_output(tmp_path):
    out = tmp_path / "kb"
    assert run(["compute", "--type", "A", "--rank", "2", "--H", "2",
                "--x", "q", "--outputs", "klbasis", "--out", str(out)]) == 0
    doc = json.loads((out / "klbasis_q.json").read_text())
    assert set(doc) == {"x", "C", "Cprime"}
    assert doc["Cprime"]["e"] == {"coeffs": [["e", [[0, 1]]]]}


def spy_calls(monkeypatch, names):
    """Count calls of klpoly functions, in every namespace that binds them,
    and constructions of HeckeContext."""
    counts = dict.fromkeys(names, 0)
    counts["HeckeContext"] = 0
    for name in names:
        original = getattr(klpoly, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in (klpoly, hecke):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    init = hecke.HeckeContext.__init__

    def counted_init(self, *args, **kwargs):
        counts["HeckeContext"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(hecke.HeckeContext, "__init__", counted_init)
    return counts


SPIED = ("r_polynomials", "check_pkernel", "kls_polynomials",
         "verify_pircon_system")


def test_verify_builds_each_artifact_once(tmp_path, monkeypatch):
    counts = spy_calls(monkeypatch, SPIED)
    assert run(["verify", "--type", "A", "--rank", "3",
                "--out", str(tmp_path)]) == 0
    # one context shared by duality and recursion; the CLI's own tables
    # and the context's tables are each checked once per x
    assert counts == {"r_polynomials": 4, "check_pkernel": 4,
                      "kls_polynomials": 2, "verify_pircon_system": 2,
                      "HeckeContext": 1}


def test_compute_tables_build_no_context(tmp_path, monkeypatch):
    counts = spy_calls(monkeypatch, SPIED)
    assert run(["compute", "--type", "A", "--rank", "3", "--x", "both",
                "--outputs", "r,p", "--out", str(tmp_path)]) == 0
    assert counts["HeckeContext"] == 0 and counts["check_pkernel"] == 0
    assert counts["r_polynomials"] == 2 and counts["kls_polynomials"] == 2


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
