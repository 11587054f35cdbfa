"""Batch front-end: build instances, compute tables, run verification suites.

Subcommands: ``compute``, ``verify``, ``enumerate-spm``, ``export-dot``.
An instance is exactly one of: a Coxeter matrix plus a generator subset H,
a twisted-identity index n, or an external poset file (with a refinement
file where tables are needed).  All fields can come from a JSON config file
(--config) and every field is overridable by a flag; a command accepts only
the config fields it reads (COMMAND_FIELDS).  ``compute`` with both x's and
no KL basis makes the x = q file texts in a forked child (``forked``); the
parent writes every file through ``_emit``, and makes those not received.

Exit codes: 0 success, 2 malformed config (a bad H, a field the command
or the instance kind does not read, a value it does not know, or a poset,
refinement or matching file that is malformed or describes no graded
poset, refinement or matching: see README), 3 unsupported group,
4 group size bound exceeded, 1 other errors; a failing verification exits
with the code of the first failing class (see VERIFY_EXIT_CODES).  Output
files are written atomically (temp file + rename), with mode 0o666 less
the umask.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import hecke, klpoly, matchings, twisted
from .coxeter import CoxeterError, CoxeterSystem, SizeBoundError
from .klpoly import X_PARAMS, X_Q
from .posets import GradedPoset

VERIFY_KINDS = ("updown", "pkernel", "system", "dircon", "duality",
                "recursion", "properties", "brenti", "lifting")
VERIFY_EXIT_CODES = {kind: 10 + i for i, kind in enumerate(VERIFY_KINDS)}

COMPUTE_OUTPUTS = ("r", "p", "klbasis")

# The config fields each command reads, besides "instance" and "out"
COMMAND_FIELDS = {"compute": ("x", "format", "outputs"),
                  "verify": ("x", "verify"),
                  "enumerate-spm": ("element",),
                  "export-dot": ("matching_file",)}

# The instance-object fields each kind reads, besides "kind"
INSTANCE_FIELDS = {"coxeter": ("matrix", "H"), "twisted": ("n",),
                   "poset": ("poset_file", "refinement_file")}
# The instance flags each kind reads.  The first one gives a new instance;
# each flag sets its field (type, rank and m: of the matrix).
INSTANCE_FLAGS = {"coxeter": ("type", "rank", "m", "H"),
                  "twisted": ("twisted_n",),
                  "poset": ("poset_file", "refinement_file")}

EXIT_CONFIG = 2
EXIT_UNSUPPORTED = 3
EXIT_SIZE_BOUND = 4


class ConfigError(ValueError):
    pass


def _atomic_write(path: str, text: str) -> None:
    """Write text to a new file beside path, then rename it onto path.
    The file is created with mode 0o666, so the umask applies to it."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f"{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class Instance:
    """A resolved instance.  Its pircon system, from the builder of its
    kind, and the Hecke context read off that system are built once, on
    first use."""

    def __init__(self, kind: str, poset, name: str, build_system,
                 quotient=None):
        self.kind = kind
        self.poset = poset
        self.name = name
        self.quotient = quotient
        self._build_system = build_system

    @functools.cached_property
    def system(self) -> klpoly.PirconSystem:
        return self._build_system()

    @functools.cached_property
    def hecke_context(self) -> hecke.HeckeContext:
        if self.kind == "poset":
            raise ConfigError(
                "duality/recursion/klbasis need a coxeter or twisted instance")
        return hecke.HeckeContext(self.poset, self.system)


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


def _load_json(path: str, shape: str, valid, build=lambda data: data):
    """build() of the JSON document in path; valid() must accept it as
    ``shape``.  A file that is not UTF-8 JSON, or that the decoder refuses
    (nested past its recursion limit, an integer past Python's digit
    limit), or whose document build() refuses with a ValueError, is a
    ConfigError naming the path; a file that cannot be opened raises
    OSError."""
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
            if valid(data):
                return build(data)
        # the decoder's errors and build()'s refusals are ValueErrors
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"{path}: {exc}") from None
    raise ConfigError(f"{path} must hold {shape}")


def _index_list(value) -> bool:
    return isinstance(value, list) and \
        all(v is None or _is_index(v) for v in value)


def build_instance(config: dict) -> Instance:
    spec = config.get("instance")
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("config needs an 'instance' object with a 'kind'")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in INSTANCE_FIELDS:
        raise ConfigError(f"unknown instance kind {kind!r}")
    for key in spec:
        if key != "kind" and key not in INSTANCE_FIELDS[kind]:
            raise ConfigError(f"a {kind} instance does not read field {key!r}")
    if kind == "coxeter":
        matrix = spec.get("matrix")
        if not isinstance(matrix, dict):
            raise ConfigError("coxeter instance needs a 'matrix' object")
        group = CoxeterSystem(matrix)
        H = _parse_generators(spec.get("H"), group.num_gens)
        quot = group.quotient(H)
        hh = ",".join(f"s{h + 1}" for h in sorted(H)) or "empty"
        return Instance("coxeter", quot.poset,
                        f"{_matrix_name(matrix)}/H={hh}", lambda: quot.system,
                        quotient=quot)
    if kind == "twisted":
        n = spec.get("n")
        if not _is_index(n) or n < 1:
            raise ConfigError("twisted instance needs a positive integer n")
        tw = twisted.TwistedIdentities(n)
        return Instance("twisted", tw.poset, f"twisted{n}",
                        lambda: tw.system)
    if kind == "poset":
        path = spec.get("poset_file")
        if not path:
            raise ConfigError("poset instance needs 'poset_file'")
        poset = _load_json(
            path, "an object with an 'elements' list and a 'covers' list "
            "of [lower, upper] index pairs",
            lambda d: isinstance(d, dict)
            and isinstance(d.get("elements"), list)
            and isinstance(d.get("covers"), list)
            and all(isinstance(c, list) and len(c) == 2
                    and all(map(_is_index, c)) for c in d["covers"]),
            GradedPoset.from_json)
        refinement = None
        ref_path = spec.get("refinement_file")
        if ref_path:
            refinement = _load_json(
                ref_path, "an object mapping labels to image lists",
                lambda d: isinstance(d, dict)
                and all(map(_index_list, d.values())),
                functools.partial(klpoly.Refinement.from_json, poset))

        def given_system() -> klpoly.PirconSystem:
            if refinement is None:
                raise ConfigError(
                    "a poset instance needs --refinement-file for tables")
            return klpoly.PirconSystem(
                poset, [m for _, m in sorted(refinement.matchings.items())],
                refinement)

        return Instance("poset", poset, os.path.basename(path), given_system)


def _x_list(value: str | None) -> list[str]:
    if value in (None, "both"):
        return list(X_PARAMS)
    if value in X_PARAMS:
        return [value]
    raise ConfigError(f"x must be 'q', '-1' or 'both', got {value!r}")


def _matrix_name(matrix: dict) -> str:
    """Type and rank (or m), as in A1 or I23; a product joins the names of
    its factors with x, as in A1xI23."""
    if matrix["type"] == "product":
        return "x".join(map(_matrix_name, matrix["factors"]))
    return f"{matrix['type']}{matrix.get('rank', matrix.get('m'))}"


def _output_name(output: str, x: str, fmt: str) -> str:
    """The file that ``compute`` writes one output of one x to; klbasis is
    always JSON."""
    tag = "q" if x == X_Q else "minus1"
    return f"{output}_{tag}.{'json' if output == 'klbasis' else fmt}"


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
        if kind in ("updown", "pkernel"):
            for x in xs:
                ok, witness = getattr(inst.system, kind)(x)
                record(kind, ok, witness, detail=f"x={x}")
        elif kind == "properties":
            ok, witness = inst.system.properties
            record(kind, ok, witness)
        elif kind == "brenti":
            if inst.kind != "coxeter":
                raise ConfigError("brenti needs a coxeter instance")
            for x in xs:
                ok, witness = klpoly.brenti_identity(
                    inst.quotient, inst.system.r_table(x))
                record(kind, ok, witness, detail=f"x={x}")
        elif kind == "system":
            ok, witness = inst.system.verdict
            record(kind, ok, witness)
        elif kind == "dircon":
            ok = matchings.is_dircon(inst.poset)
            record(kind, ok)
        elif kind == "lifting":
            ok, witness = True, None
            for m in inst.system.matchings:
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
            ok, witness = hecke.verify_recursion(inst.hecke_context, xs)
            record(kind, ok, witness)
    return reports


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


def _emit_all(config: dict, texts) -> list[str]:
    """_emit each (name, text), each gone before the next is made."""
    names = []
    for name, text in texts:
        _emit(config, name, text)
        del text
        names.append(name)
    return names


def cmd_compute(config: dict) -> int:
    inst = build_instance(config)
    if inst.kind == "poset":
        print("note: tables of an external refined poset may depend on the "
              "chosen refinement unless it sits inside a pircon system",
              file=sys.stderr)
    xs = _x_list(config.get("x"))
    outputs = config.get("outputs") or ["r"]
    fmt = config.get("format", "json")
    # Two x's and no context: a forked child makes the second x's files
    # from the system built here.  The parent writes them as they arrive,
    # and makes itself whatever the child did not send.
    half = None
    if len(xs) == 2 and "klbasis" not in outputs:
        from .forked import ForkedHalf   # only these jobs need it
        inst.system   # built once, before the fork, for both halves
        try:
            half = ForkedHalf(_compute_x(inst, xs[1], outputs, fmt))
        except OSError:
            pass
    try:
        for x in xs:
            sent = _emit_all(config, half) if half and x == xs[1] else []
            rest = [o for o in outputs
                    if _output_name(o, x, fmt) not in sent]
            _emit_all(config, _compute_x(inst, x, rest, fmt))
    finally:
        if half:
            half.close()
    return 0


def _compute_x(inst: Instance, x: str, outputs: list[str], fmt: str):
    """(file name, text) of each output of one x, in file order.  Each
    table is built only once the text before it has been taken."""
    text = klpoly.PolyTable.to_csv if fmt == "csv" \
        else klpoly.PolyTable.to_json_text
    if "r" in outputs:
        yield _output_name("r", x, fmt), text(inst.system.r_table(x))
    if "p" in outputs:
        # a job with a context reads the context's P-tables; otherwise
        # the P-table lives only for its own text (bind it to no local),
        # so the x = -1 one is built without the x = q one alive
        yield _output_name("p", x, fmt), text(
            inst.hecke_context.system.p_table(x) if "klbasis" in outputs
            else klpoly.kls_polynomials(inst.system.r_table(x)))
    if "klbasis" in outputs:
        ctx, labels = inst.hecke_context, inst.poset.labels
        doc = {"x": x, "C": {}, "Cprime": {}}
        for w, lab in enumerate(labels):
            for key, v in (("C", hecke.kl_element_c(ctx, w, x)),
                           ("Cprime", hecke.kl_element_cprime(ctx, w, x))):
                doc[key][lab] = {"coeffs": [
                    [labels[u], c.to_json()]
                    for u, c in sorted(ctx.decode(v).items())]}
        yield _output_name("klbasis", x, fmt), json.dumps(doc, indent=1) + "\n"


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
    reports = run_verification(inst, kinds, xs)
    _emit(config, "verify_report.json", json.dumps(reports, indent=1) + "\n")
    for rec in reports:
        if rec["status"] == "fail":
            return VERIFY_EXIT_CODES[rec["identity"]]
    return 0


def cmd_enumerate_spm(config: dict) -> int:
    inst = build_instance(config)
    element = config.get("element")
    w = None
    if element:
        if element not in inst.poset.labels:
            raise ConfigError(f"element {element!r} is not in the poset")
        w = inst.poset.index(element)
    spms = matchings.enumerate_spms(inst.poset, w)
    doc = [m.to_json()["map"] for m in spms]
    _emit(config, "spms.json",
          json.dumps({"poset": inst.poset.to_json(), "matchings": doc},
                     indent=1) + "\n")
    return 0


def _matching(poset: GradedPoset, data: dict) -> matchings.PartialMatching:
    """A matching file's involution, with one entry per element."""
    matching = matchings.PartialMatching.from_json(data, poset)
    n = poset.n
    bad = ("needs-one-entry-per-element", min(len(data["map"]), n)) \
        if len(data["map"]) != n else matchings.involution_witness(matching)
    if bad:
        raise ValueError(f"{bad[0]} at index {bad[1]}")
    return matching


def cmd_export_dot(config: dict) -> int:
    inst = build_instance(config)
    matching = None
    path = config.get("matching_file")
    if path:
        matching = _load_json(
            path, "an object with a 'map' list of indices or nulls",
            lambda d: isinstance(d, dict) and _index_list(d.get("map")),
            functools.partial(_matching, inst.poset))
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
    p.add_argument("--out", help="output directory (default: stdout)")


def _merge_config(args: argparse.Namespace) -> dict:
    config: dict = {}
    if args.config:
        config = _load_json(args.config, "a JSON object",
                            lambda d: isinstance(d, dict))
    fields = ("out", *COMMAND_FIELDS[args.command])
    for key in config:
        if key != "instance" and key not in fields:
            raise ConfigError(
                f"{args.command} does not read config field {key!r}")

    given = {key: getattr(args, key) for keys in INSTANCE_FLAGS.values()
             for key in keys if getattr(args, key) is not None}
    picked = [k for k, keys in INSTANCE_FLAGS.items() if keys[0] in given]
    if len(picked) > 1:
        raise ConfigError(
            "give exactly one of --type, --twisted-n, --poset-file")
    if picked:
        config["instance"] = {"kind": picked[0]}
    instance = config.get("instance")
    kind = instance.get("kind") if isinstance(instance, dict) else None
    if isinstance(kind, str) and kind in INSTANCE_FLAGS:
        for key, val in given.items():
            if key not in INSTANCE_FLAGS[kind]:
                raise ConfigError(f"a {kind} instance does not read "
                                  f"--{key.replace('_', '-')}")
            owner = instance
            if key in ("type", "rank", "m"):
                owner = instance.setdefault("matrix", {})
                if not isinstance(owner, dict):
                    raise ConfigError("coxeter instance needs a 'matrix' "
                                      "object")
            owner["n" if key == "twisted_n" else key] = val

    for key in fields:
        val = getattr(args, key)
        if val is not None:
            config[key] = val
    if "instance" not in config:
        raise ConfigError("no instance given (flags or config file)")
    _check_fields(config)
    return config


def _check_fields(config: dict) -> None:
    """The fields of a merged config hold what the commands read from
    them: lists of strings, strings, and names that the command knows.
    They are checked before any instance is built."""
    for key in ("outputs", "verify"):
        val = config.get(key)
        if val is not None and not (isinstance(val, list) and
                                    all(isinstance(v, str) for v in val)):
            raise ConfigError(f"{key} must be a list of strings, got {val!r}")
    instance = config["instance"]
    fields = [(config, ("out", "element", "matching_file"))]
    if isinstance(instance, dict):
        fields.append((instance, ("poset_file", "refinement_file")))
    for owner, keys in fields:
        for key in keys:
            val = owner.get(key)
            if val is not None and not isinstance(val, str):
                raise ConfigError(f"{key} must be a string, got {val!r}")
    _x_list(config.get("x"))
    for key, names, what in (("outputs", COMPUTE_OUTPUTS, "output"),
                             ("verify", VERIFY_KINDS, "verification")):
        for name in config.get(key) or ():
            if name not in names:
                raise ConfigError(f"unknown {what} {name!r}")
    if config.get("format", "json") not in ("json", "csv"):
        raise ConfigError("compute supports formats json and csv")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pircons",
        description="exact Kazhdan-Lusztig combinatorics on pircons")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute R/P tables and KL bases")
    _add_instance_flags(p)
    p.add_argument("--x", choices=["q", "-1", "both"])
    p.add_argument("--format", choices=["json", "csv"])
    p.add_argument("--outputs", type=lambda s: s.split(","),
                   help="comma list from r,p,klbasis (default r)")

    p = sub.add_parser("verify", help="run verification suites")
    _add_instance_flags(p)
    p.add_argument("--x", choices=["q", "-1", "both"])
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
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
