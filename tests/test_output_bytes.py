"""The bytes of the default verify report and of the klbasis output are
pinned by SHA-256 on four instances, and those of the verify report and
the r/p tables of one poset instance read from files.

The Hecke layer computes on packed ints and decodes only to write; these
digests were taken from the object-arithmetic implementation it replaced,
so a change that alters any coefficient, witness or formatting byte shows
here.  Take a new digest only after checking the new output by hand.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pircons import CoxeterSystem
from pircons.klpoly import lambda_refinement

ROOT = Path(__file__).resolve().parent.parent

INSTANCES = {
    "A3": ["--type", "A", "--rank", "3"],
    "B3/s2": ["--type", "B", "--rank", "3", "--H", "2"],
    "D4/s2": ["--type", "D", "--rank", "4", "--H", "2"],
    "twisted3": ["--twisted-n", "3"],
}

SHA256 = {
    ("A3", "verify_report.json"):
        "1e4eef31ea728b976fe1af2ce4b53b3074dd89735804dee7798d2caff74f1ce4",
    ("A3", "klbasis_minus1.json"):
        "82f5979de9e4eb8a1b38d7c3d246d1a38173f126c66e9a414a932641f9898573",
    ("A3", "klbasis_q.json"):
        "8c5de703b2fb09a6a4185c3b632dc35d13c357e846feb1fe951d0883a7eb0f84",
    ("B3/s2", "verify_report.json"):
        "46ac6c53a08df922bec55d0fc17df2a9810073f96e402684834853ebbfd648eb",
    ("B3/s2", "klbasis_minus1.json"):
        "ca33e207a97ae15668e9424dbc958dd27c92aa0016a72a1a3a252beca8519546",
    ("B3/s2", "klbasis_q.json"):
        "6c8efba4267d0e30b35f9d94fffb59896949d214c518cc8f18a296d943e4f568",
    ("D4/s2", "verify_report.json"):
        "b2fd27a8179cac3f5a91ce85d551ca561156dfaa77376e7cc20640025dca403a",
    ("D4/s2", "klbasis_minus1.json"):
        "d7f56e45adb39c33ff2e2cbcabe6f80ff0ead8660d0bce07a290dedbfd8ec001",
    ("D4/s2", "klbasis_q.json"):
        "4bb9e5a2f8c92fd07ae26f10322e13652b30f05d40dc4f07f109c70e5175b2df",
    ("twisted3", "verify_report.json"):
        "e7ff02efea5ae393cae103c75a79cdbda79db86d88a865476f1c550ea54f4960",
    ("twisted3", "klbasis_minus1.json"):
        "3a36462929b5c4bab8e9278e147a506c2d4b9fe4b57f8c3ab15bca91203ee2e9",
    ("twisted3", "klbasis_q.json"):
        "02d2e748a651840e459c0e041fb9284df3f161abe94b1e3a7c6fa1d650986590",
}


def run_cli(args, out):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-m", "pircons.cli", *args,
                           "--out", str(out)], cwd=ROOT, env=env,
                          capture_output=True, timeout=300)
    assert done.returncode == 0, done.stderr.decode()
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


@pytest.mark.parametrize("name", INSTANCES)
def test_verify_report_bytes(name, tmp_path):
    got = run_cli(["verify", *INSTANCES[name]], tmp_path)
    assert got == {"verify_report.json": SHA256[(name, "verify_report.json")]}


@pytest.mark.parametrize("name", INSTANCES)
def test_klbasis_bytes(name, tmp_path):
    got = run_cli(["compute", "--x", "both", "--outputs", "klbasis",
                   *INSTANCES[name]], tmp_path)
    assert got == {f: SHA256[(name, f)]
                   for f in ("klbasis_minus1.json", "klbasis_q.json")}


# B3/{s2} given as --poset-file and --refinement-file: the refinement file
# is the only input whose matchings are proven SPMs by verify_spm as they
# are read, so these bytes pin that path.
POSET_SHA256 = {
    "verify_report.json":
        "bbfb248932cd7f7e472762185ffd8a3194d1cdebab82fd7ad938a4eea3fe344d",
    "r_minus1.json":
        "0dbd4acc8bc6cc2d23abe2abb42e01d8fa280db833b1889dbba31ea934d51418",
    "r_q.json":
        "b9b0ae5a6098e9f192d1f49e1a4002b5cda771ab7e170c294772fa22ed206262",
    "p_minus1.json":
        "7fa96acc4bd8a4b19268d7503836f09e022e380d75a99ca5fed9b8d6eabd163a",
    "p_q.json":
        "8f8d2942f55161dd13c530627f85ac6524b94b4a80cf024b9451149a73b319ca",
}


@pytest.fixture(scope="module")
def poset_files(tmp_path_factory):
    quot = CoxeterSystem({"type": "B", "rank": 3}).quotient({1})
    root = tmp_path_factory.mktemp("poset")
    poset_file, ref_file = root / "b3_s2.json", root / "b3_s2_ref.json"
    poset_file.write_text(json.dumps(quot.poset.to_json()))
    ref_file.write_text(json.dumps(lambda_refinement(quot).to_json()))
    return ["--poset-file", str(poset_file),
            "--refinement-file", str(ref_file)]


def test_poset_instance_bytes(poset_files, tmp_path):
    got = run_cli(["verify", *poset_files], tmp_path / "v")
    got.update(run_cli(["compute", "--x", "both", "--outputs", "r,p",
                        *poset_files], tmp_path / "c"))
    assert got == POSET_SHA256
