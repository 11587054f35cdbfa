"""Batch front-end: build instances, compute tables, run verification suites.

Subcommands: ``compute``, ``verify``, ``enumerate-spm``, ``export-dot``.
An instance is exactly one of: a Coxeter matrix plus a generator subset H,
a twisted-identity index n, or an external poset file (with a refinement
file where tables are needed).  All fields can come from a JSON config file
(--config) and every field is overridable by a flag.

Exit codes: 0 success, 2 malformed config (a bad H, or a poset,
refinement or matching file of the wrong JSON shape), 3 unsupported group,
4 group size bound exceeded, 1 other errors; a failing verification exits
with the code of the first failing class (see VERIFY_EXIT_CODES).  Output
files are written atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile

from . import hecke, klpoly, matchings, twisted
from .coxeter import CoxeterError, CoxeterSystem, SizeBoundError
from .klpoly import X_MINUS_ONE, X_PARAMS, X_Q
from .posets import GradedPoset, PosetError

VERIFY_KINDS = ("updown", "pkernel", "system", "dircon", "duality",
                "recursion", "properties", "brenti", "lifting")
VERIFY_EXIT_CODES = {kind: 10 + i for i, kind in enumerate(VERIFY_KINDS)}

EXIT_CONFIG = 2
EXIT_UNSUPPORTED = 3
EXIT_SIZE_BOUND = 4


class ConfigError(ValueError):
    pass


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class Instance:
    """A resolved instance and its artifact set.

    Each artifact is built on first use and then kept: the refinement, the
    system matchings, the R^x table per x and the Hecke context.
    ``build_instance`` picks the refinement and system-matching builders of
    the instance's kind.
    """

    def __init__(self, kind: str, poset, name: str, build_refinement,
                 build_matchings, quotient=None):
        self.kind = kind
        self.poset = poset
        self.name = name
        self.quotient = quotient
        self._build_refinement = build_refinement
        self._build_matchings = build_matchings
        self._r: dict[str, klpoly.PolyTable] = {}

    @functools.cached_property
    def refinement(self) -> klpoly.Refinement:
        return self._build_refinement()

    @functools.cached_property
    def system_matchings(self) -> list[matchings.PartialMatching]:
        return self._build_matchings()

    def r_table(self, x: str) -> klpoly.PolyTable:
        if x not in self._r:
            self._r[x] = klpoly.r_polynomials(self.poset, self.refinement, x)
        return self._r[x]

    @functools.cached_property
    def hecke_context(self) -> hecke.HeckeContext:
        if self.kind == "poset":
            raise ConfigError(
                "duality/recursion/klbasis need a coxeter or twisted instance")
        return hecke.HeckeContext(self.poset, self.system_matchings)


def _is_index(value) -> bool:
    # bool is an int subclass, but true is not an index
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_generators(value, num_gens: int) -> frozenset[int]:
    """H as 1-based generator indices, from a list or comma string."""
    if value in (None, "", []):
        return frozenset()
    if isinstance(value, str):
        value = [int(p) if p.isdecimal() else p
                 for p in value.replace(",", " ").split()]
    if not isinstance(value, list) or not all(map(_is_index, value)):
        raise ConfigError(
            f"H must list 1-based generator indices, got {value!r}")
    H = frozenset(v - 1 for v in value)
    for h in H:
        if not 0 <= h < num_gens:
            raise ConfigError(f"H contains invalid generator s{h + 1}")
    return H


def _load_json(path: str, shape: str, valid) -> object:
    """The JSON document in path; valid() must accept it as ``shape``."""
    with open(path) as handle:
        data = json.load(handle)
    if not valid(data):
        raise ConfigError(f"{path} must hold {shape}")
    return data


def _index_list(value) -> bool:
    return isinstance(value, list) and \
        all(v is None or _is_index(v) for v in value)


def build_instance(config: dict) -> Instance:
    spec = config.get("instance")
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("config needs an 'instance' object with a 'kind'")
    kind = spec["kind"]
    if kind == "coxeter":
        matrix = spec.get("matrix")
        if not isinstance(matrix, dict):
            raise ConfigError("coxeter instance needs a 'matrix' object")
        system = CoxeterSystem(matrix)
        H = _parse_generators(spec.get("H"), system.num_gens)
        quot = system.quotient(H)
        hh = ",".join(f"s{h + 1}" for h in sorted(H)) or "empty"
        name = f"{matrix.get('type')}{matrix.get('rank', matrix.get('m'))}" \
               f"/H={hh}"
        return Instance("coxeter", quot.poset, name,
                        functools.partial(klpoly.lambda_refinement, quot),
                        functools.partial(matchings.lambda_system, quot),
                        quotient=quot)
    if kind == "twisted":
        n = spec.get("n")
        if not _is_index(n) or n < 1:
            raise ConfigError("twisted instance needs a positive integer n")
        tw = twisted.TwistedIdentities(n)
        return Instance("twisted", tw.poset, f"twisted{n}",
                        tw.conjugation_refinement, tw.conjugation_qspms)
    if kind == "poset":
        path = spec.get("poset_file")
        if not path:
            raise ConfigError("poset instance needs 'poset_file'")
        poset = GradedPoset.from_json(_load_json(
            path, "an object with an 'elements' list and a 'covers' list "
            "of [lower, upper] index pairs",
            lambda d: isinstance(d, dict)
            and isinstance(d.get("elements"), list)
            and isinstance(d.get("covers"), list)
            and all(isinstance(c, list) and len(c) == 2
                    and all(map(_is_index, c)) for c in d["covers"])))
        refinement = None
        ref_path = spec.get("refinement_file")
        if ref_path:
            refinement = klpoly.Refinement.from_json(poset, _load_json(
                ref_path, "an object mapping labels to image lists",
                lambda d: isinstance(d, dict)
                and all(map(_index_list, d.values()))))

        def given_refinement() -> klpoly.Refinement:
            if refinement is None:
                raise ConfigError(
                    "a poset instance needs --refinement-file for tables")
            return refinement

        return Instance("poset", poset, os.path.basename(path),
                        given_refinement,
                        lambda: [m for _, m in
                                 sorted(given_refinement().matchings.items())])
    raise ConfigError(f"unknown instance kind {kind!r}")


def _x_list(value: str | None) -> list[str]:
    if value in (None, "both"):
        return list(X_PARAMS)
    if value in X_PARAMS:
        return [value]
    raise ConfigError(f"x must be 'q', '-1' or 'both', got {value!r}")


def _x_tag(x: str) -> str:
    return "q" if x == X_Q else "minus1"


# ---------------------------------------------------------------------------
# Verification drivers.  Each returns a list of report records.
# ---------------------------------------------------------------------------

def run_verification(inst: Instance, kinds, xs) -> list[dict]:
    reports = []

    def record(kind, status, witness=None, detail=""):
        rec = {"identity": kind, "instance": inst.name,
               "status": "pass" if status else "fail"}
        if detail:
            rec["detail"] = detail
        if witness is not None:
            rec["witness"] = repr(witness)
        reports.append(rec)

    for kind in kinds:
        if kind == "updown":
            for x in xs:
                ok, witness = klpoly.check_updown(inst.system_matchings,
                                                  inst.r_table(x))
                record(kind, ok, witness, detail=f"x={x}")
        elif kind == "pkernel":
            for x in xs:
                ok, witness = klpoly.check_pkernel(inst.r_table(x))
                record(kind, ok, witness, detail=f"x={x}")
        elif kind == "properties":
            ok, witness = klpoly.verify_r_properties(
                inst.r_table(X_MINUS_ONE), inst.r_table(X_Q))
            record(kind, ok, witness)
        elif kind == "brenti":
            if inst.kind != "coxeter":
                raise ConfigError("brenti needs a coxeter instance")
            for x in xs:
                ok, witness = klpoly.brenti_identity(inst.quotient,
                                                     inst.r_table(x))
                record(kind, ok, witness, detail=f"x={x}")
        elif kind == "system":
            ok, witness = klpoly.verify_pircon_system(
                inst.poset, inst.system_matchings)
            record(kind, ok, witness)
        elif kind == "dircon":
            ok = matchings.is_dircon(inst.poset)
            record(kind, ok)
        elif kind == "lifting":
            ok, witness = True, None
            for m in inst.system_matchings:
                ok, witness = matchings.check_lifting(m)
                if not ok:
                    break
            record(kind, ok, witness)
        elif kind == "duality":
            ctx = inst.hecke_context
            for x in xs:
                ok, witness = hecke.verify_hecke_relations(ctx, x)
                record(kind, ok, witness, detail=f"hecke relations x={x}")
            ok, witness = hecke.verify_duality(ctx)
            record(kind, ok, witness)
        elif kind == "recursion":
            witness = _recursion_witness(inst.hecke_context, xs)
            record(kind, witness is None, witness)
    return reports


def _recursion_witness(ctx: hecke.HeckeContext, xs):
    """Where the C' or the P recursion first disagrees with the directly
    built KL basis, or None when both hold for every w and M."""
    poset = ctx.poset
    for x in xs:
        pz = ctx.p_table(klpoly.other_x(x))
        for w in range(poset.n):
            if w == poset.bottom:
                continue
            want = hecke.kl_element_cprime(ctx, w, x)
            for M in ctx.system.down_matchings(w):
                if hecke.cprime_recursion(ctx, w, M, x) != want:
                    return ("cprime", (x, w))
                for v in poset.ideal_elements(w):
                    if hecke.p_recursion(ctx, v, w, M, x) != pz.value(v, w):
                        return ("p", (x, v, w))
    return None


# ---------------------------------------------------------------------------
# Subcommand implementations.
# ---------------------------------------------------------------------------

def _emit(config: dict, name: str, text: str) -> None:
    out = config.get("out")
    if out:
        path = os.path.join(out, name)
        _atomic_write(path, text)
        print(path)
    else:
        sys.stdout.write(text)


def cmd_compute(config: dict) -> int:
    inst = build_instance(config)
    if inst.kind == "poset":
        print("note: tables of an external refined poset may depend on the "
              "chosen refinement unless it sits inside a pircon system",
              file=sys.stderr)
    xs = _x_list(config.get("x"))
    outputs = config.get("outputs") or ["r"]
    fmt = config.get("format", "json")
    if fmt not in ("json", "csv"):
        raise ConfigError("compute supports formats json and csv")
    for x in xs:
        tag = _x_tag(x)
        if "r" in outputs:
            r = inst.r_table(x)
            doc = r.to_csv() if fmt == "csv" else \
                json.dumps(r.to_json(), indent=1) + "\n"
            _emit(config, f"r_{tag}.{fmt}", doc)
        if "p" in outputs:
            p = klpoly.kls_polynomials(inst.r_table(x))
            doc = p.to_csv() if fmt == "csv" else \
                json.dumps(p.to_json(), indent=1) + "\n"
            _emit(config, f"p_{tag}.{fmt}", doc)
        if "klbasis" in outputs:
            ctx = inst.hecke_context
            doc = {"x": x, "C": {}, "Cprime": {}}
            for w in range(inst.poset.n):
                lab = inst.poset.labels[w]
                doc["C"][lab] = hecke.kl_element_c(ctx, w, x) \
                    .to_json(inst.poset)
                doc["Cprime"][lab] = hecke.kl_element_cprime(ctx, w, x) \
                    .to_json(inst.poset)
            _emit(config, f"klbasis_{tag}.json",
                  json.dumps(doc, indent=1) + "\n")
    return 0


# Default check lists: the properties that are theorems for each instance
# kind.  dircon is not one for Coxeter quotients (chain quotients of rank
# >= 3 fail it) and stays opt-in there.
DEFAULT_CHECKS = {
    "coxeter": ["updown", "pkernel", "system", "duality", "recursion",
                "properties", "brenti", "lifting"],
    "twisted": ["updown", "pkernel", "system", "dircon", "duality",
                "recursion", "properties", "lifting"],
    "poset": ["updown", "pkernel", "properties", "lifting"],
}


def cmd_verify(config: dict) -> int:
    inst = build_instance(config)
    xs = _x_list(config.get("x"))
    kinds = config.get("verify") or DEFAULT_CHECKS[inst.kind]
    for kind in kinds:
        if kind not in VERIFY_KINDS:
            raise ConfigError(f"unknown verification {kind!r}")
    reports = run_verification(inst, kinds, xs)
    _emit(config, "verify_report.json", json.dumps(reports, indent=1) + "\n")
    for rec in reports:
        if rec["status"] == "fail":
            return VERIFY_EXIT_CODES[rec["identity"]]
    return 0


def cmd_enumerate_spm(config: dict) -> int:
    inst = build_instance(config)
    element = config.get("element")
    w = inst.poset.index(element) if element else None
    spms = matchings.enumerate_spms(inst.poset, w)
    doc = [m.to_json()["map"] for m in spms]
    _emit(config, "spms.json",
          json.dumps({"poset": inst.poset.to_json(), "matchings": doc},
                     indent=1) + "\n")
    return 0


def cmd_export_dot(config: dict) -> int:
    inst = build_instance(config)
    matching = None
    path = config.get("matching_file")
    if path:
        matching = matchings.PartialMatching.from_json(_load_json(
            path, "an object with a 'map' list of indices or nulls",
            lambda d: isinstance(d, dict) and _index_list(d.get("map"))),
            inst.poset)
    _emit(config, "poset.dot", inst.poset.to_dot(matching))
    return 0


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------

def _add_instance_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--type", help="Coxeter type: A, B, D, I2 or product")
    p.add_argument("--rank", type=int)
    p.add_argument("--m", type=int, help="order parameter for I2(m)")
    p.add_argument("--H", help="comma-separated 1-based generator indices")
    p.add_argument("--twisted-n", type=int, dest="twisted_n")
    p.add_argument("--poset-file", dest="poset_file")
    p.add_argument("--refinement-file", dest="refinement_file")
    p.add_argument("--x", choices=["q", "-1", "both"])
    p.add_argument("--out", help="output directory (default: stdout)")
    p.add_argument("--format", choices=["json", "csv", "dot"])


def _merge_config(args: argparse.Namespace) -> dict:
    config: dict = {}
    if args.config:
        with open(args.config) as handle:
            config = json.load(handle)
        if not isinstance(config, dict):
            raise ConfigError("config file must hold a JSON object")

    picked = [bool(args.type), args.twisted_n is not None,
              bool(args.poset_file)]
    if sum(picked) > 1:
        raise ConfigError(
            "give exactly one of --type, --twisted-n, --poset-file")
    if args.type:
        matrix = {"type": args.type}
        if args.rank is not None:
            matrix["rank"] = args.rank
        if args.m is not None:
            matrix["m"] = args.m
        config["instance"] = {"kind": "coxeter", "matrix": matrix,
                              "H": args.H or ""}
    elif args.twisted_n is not None:
        config["instance"] = {"kind": "twisted", "n": args.twisted_n}
    elif args.poset_file:
        config["instance"] = {"kind": "poset", "poset_file": args.poset_file,
                              "refinement_file": args.refinement_file}
    elif args.H is not None and config.get("instance", {}).get("kind") \
            == "coxeter":
        config["instance"]["H"] = args.H

    for key in ("x", "out", "format"):
        val = getattr(args, key)
        if val is not None:
            config[key] = val
    for key in ("outputs", "verify", "element", "matching_file"):
        val = getattr(args, key, None)
        if val is not None:
            config[key] = val
    if "instance" not in config:
        raise ConfigError("no instance given (flags or config file)")
    return config


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pircons",
        description="exact Kazhdan-Lusztig combinatorics on pircons")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute R/P tables and KL bases")
    _add_instance_flags(p)
    p.add_argument("--outputs", type=lambda s: s.split(","),
                   help="comma list from r,p,klbasis (default r)")

    p = sub.add_parser("verify", help="run verification suites")
    _add_instance_flags(p)
    p.add_argument("--checks", dest="verify", type=lambda s: s.split(","),
                   help=f"comma list from {','.join(VERIFY_KINDS)}")

    p = sub.add_parser("enumerate-spm", help="list all SPMs of an ideal")
    _add_instance_flags(p)
    p.add_argument("--element", help="label of the ideal's top element")

    p = sub.add_parser("export-dot", help="write the Hasse diagram as DOT")
    _add_instance_flags(p)
    p.add_argument("--matching-file",
                   dest="matching_file", help="matching JSON to highlight")

    args = parser.parse_args(argv)
    handlers = {"compute": cmd_compute, "verify": cmd_verify,
                "enumerate-spm": cmd_enumerate_spm,
                "export-dot": cmd_export_dot}
    try:
        config = _merge_config(args)
        return handlers[args.command](config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CoxeterError as exc:
        print(f"coxeter error: {exc}", file=sys.stderr)
        return EXIT_SIZE_BOUND if isinstance(exc, SizeBoundError) \
            else EXIT_UNSUPPORTED
    except (PosetError, OSError, json.JSONDecodeError, KeyError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
