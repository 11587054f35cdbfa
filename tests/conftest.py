import itertools
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from pircons import (CoxeterSystem, GradedPoset, HeckeContext,
                     TwistedIdentities, klpoly)

GROUP_CONFIGS = [
    ("A2", {"type": "A", "rank": 2}),
    ("A3", {"type": "A", "rank": 3}),
    ("B2", {"type": "B", "rank": 2}),
    ("B3", {"type": "B", "rank": 3}),
    ("I2(5)", {"type": "I2", "m": 5}),
]


def all_subsets(n):
    for r in range(n + 1):
        yield from itertools.combinations(range(n), r)


@pytest.fixture(scope="session")
def groups():
    return {name: CoxeterSystem(cfg) for name, cfg in GROUP_CONFIGS}


@pytest.fixture(scope="session")
def suite_quotients(groups):
    """Every H subset of every acceptance group, keyed by a readable name."""
    out = {}
    for name, system in groups.items():
        for H in all_subsets(system.num_gens):
            hh = ",".join(f"s{h + 1}" for h in H) or "-"
            out[f"{name}/H={{{hh}}}"] = system.quotient(H)
    return out


@pytest.fixture(scope="session")
def suite_contexts(suite_quotients):
    """HeckeContexts for the whole quotient suite, on each quotient's kept
    system.  Construction already verifies the pircon-system axioms,
    up-down symmetry and the kernel identity for both parameters.  A test
    that swaps a kept table works on a system of its own."""
    return {name: HeckeContext(quot.poset, quot.system)
            for name, quot in suite_quotients.items()}


@pytest.fixture(scope="session")
def twisted2():
    return TwistedIdentities(2)


@pytest.fixture(scope="session")
def twisted3():
    return TwistedIdentities(3)


@pytest.fixture(scope="session")
def twisted4():
    return TwistedIdentities(4)


@pytest.fixture(scope="session")
def twisted2_context(twisted2):
    return HeckeContext(twisted2.poset, twisted2.system)


# Frozen search results (see the poset generator in test_matchings):
# a pircon that is not a dircon, and a pircon whose R-polynomials depend on
# the chosen refinement (hence admits non-calculating SPMs).

@pytest.fixture(scope="session")
def non_dircon_poset():
    return GradedPoset("abcdef", [(0, 1), (0, 2), (1, 3), (1, 4), (3, 5)])


@pytest.fixture(scope="session")
def refinement_dependent_poset():
    return GradedPoset("abcdefgh",
                       [(0, 1), (0, 2), (1, 3), (1, 4),
                        (3, 5), (3, 6), (4, 6), (6, 7)])


def _logged_calls(monkeypatch, log, owner, names, table_of):
    """Log each call of the functions ``names`` of ``owner``, also in a
    child forked from this process, to a file opened for appending.
    Returns the reader of the log: sorted (called in this process,
    function name, x of the table that ``table_of(args, result)`` picks)
    triples."""
    here = os.getpid()
    for name in names:
        original = getattr(owner, name)

        def logged(*args, _name=name, _original=original, **kwargs):
            result = _original(*args, **kwargs)
            with open(log, "a") as handle:
                handle.write(f"{int(os.getpid() == here)} {_name} "
                             f"{table_of(args, result).x}\n")
            return result

        monkeypatch.setattr(owner, name, logged)

    def read():
        lines = log.read_text().splitlines() if log.exists() else []
        return sorted((flag == "1", name, x)
                      for flag, name, x in map(str.split, lines))

    return read


@pytest.fixture
def table_builds(monkeypatch, tmp_path):
    """The log of every table that ``klpoly.r_polynomials`` and
    ``klpoly.kls_polynomials`` build (see ``_logged_calls``)."""
    return _logged_calls(monkeypatch, tmp_path / "table_builds.log", klpoly,
                         ("r_polynomials", "kls_polynomials"),
                         lambda args, table: table)


@pytest.fixture
def table_formats(monkeypatch, tmp_path):
    """The log of every table that ``PolyTable.to_json_text`` and
    ``PolyTable.to_csv`` format (see ``_logged_calls``)."""
    return _logged_calls(monkeypatch, tmp_path / "table_formats.log",
                         klpoly.PolyTable, ("to_json_text", "to_csv"),
                         lambda args, text: args[0])
