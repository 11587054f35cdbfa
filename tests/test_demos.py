"""Every demo script runs to completion and prints its known output.

The demos are deterministic, so each one's stdout is pinned by SHA-256.  A
change that alters a digest changes what a demo prints; take the new digest
only after checking the new output by hand.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

STDOUT_SHA256 = {
    "01_chains_and_r_polynomials.py":
        "6d772acc676ba3e35992b2c4ea12d6da30228c379df15080e75aa1475a621663",
    "02_parabolic_quotients.py":
        "a99aff673bb2280d4fb8ef9e02e80b4f8e4fe37bb84f084cbb7552c2b5d3629f",
    "03_matchings_and_orbits.py":
        "499a04330225427e73a2f1de36ad4e59fd4f5cf8d3e08260493a878f0ceb4f7e",
    "04_twisted_identities.py":
        "cb4f9725a5e8d3b1c7de81c82a7d14faddefe15f29b81ea3091217317f2caa89",
    "05_hecke_modules_and_duality.py":
        "b5bff4e844f2d65fb70a9f8a3278b561c9dbd2407f3515630429246a72193e9b",
}


def test_demos_exist():
    assert [p.name for p in DEMOS] == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == \
        STDOUT_SHA256[demo.name]
