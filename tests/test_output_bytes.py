"""The bytes of the default verify report and of the klbasis output are
pinned by SHA-256 on four instances.

The Hecke layer computes on packed ints and decodes only to write; these
digests were taken from the object-arithmetic implementation it replaced,
so a change that alters any coefficient, witness or formatting byte shows
here.  Take a new digest only after checking the new output by hand.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
