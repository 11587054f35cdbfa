"""Run one pircons CLI job with spans around the public functions of each layer.

    python3 bench/traced_cli.py SPANS_FILE TRACE_ID -- <pircons CLI arguments>

The wrappers are installed from outside the program: every module namespace
that bound a listed function (``hecke`` imports ``check_pkernel`` by name from
``klpoly``, for example) gets the wrapper, and classes get a wrapped
``__init__``.  Spans (name, start, end, parent) are kept in memory and written
to SPANS_FILE as JSON when the job ends, together with the job's exact work
counts and distinct inputs.  The exit code is the CLI's.

``laurent`` is left unwrapped on purpose: it makes millions of scalar calls per
job, so its cost shows up as the self time of the ``klpoly`` and ``hecke``
spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# span name -> (module under pircons, attribute path, metric fields).  A
# class span wraps the class's __init__; a method span wraps the method on
# its class.  The fields are the per-layer metrics reported for the span:
# ``s`` inclusive seconds, ``self_s`` seconds minus child spans, ``calls``,
# ``repeat`` calls per distinct input, and the work count named in WORK.
SPANS = {
    "coxeter.CoxeterSystem":
        ("coxeter", "CoxeterSystem.__init__", ("s", "calls", "elements")),
    "coxeter.ParabolicQuotient":
        ("coxeter", "ParabolicQuotient.__init__", ("s", "pairs")),
    "posets.from_comparability": ("posets", "from_comparability", ("s",)),
    "matchings.verify_pircon": ("matchings", "verify_pircon", ("s",)),
    "matchings.enumerate_spms":
        ("matchings", "enumerate_spms", ("s", "calls", "spms")),
    "matchings.is_dircon": ("matchings", "is_dircon", ("s",)),
    "matchings.strictly_coherent":
        ("matchings", "strictly_coherent", ("s", "calls")),
    "matchings.check_lifting": ("matchings", "check_lifting", ("s",)),
    "matchings.verify_spm": ("matchings", "verify_spm", ("s", "calls")),
    "klpoly.lambda_refinement": ("klpoly", "lambda_refinement", ("s",)),
    "klpoly.r_polynomials":
        ("klpoly", "r_polynomials", ("s", "calls", "repeat")),
    "klpoly.kls_polynomials":
        ("klpoly", "kls_polynomials",
         ("s", "self_s", "calls", "repeat", "terms")),
    "klpoly.check_pkernel":
        ("klpoly", "check_pkernel",
         ("s", "self_s", "calls", "repeat", "terms")),
    "klpoly.check_updown": ("klpoly", "check_updown", ("s", "calls")),
    "klpoly.verify_pircon_system":
        ("klpoly", "verify_pircon_system", ("s", "calls", "repeat")),
    "klpoly.verify_r_properties": ("klpoly", "verify_r_properties", ("s",)),
    "klpoly.brenti_identity": ("klpoly", "brenti_identity", ("s",)),
    "hecke.HeckeContext":
        ("hecke", "HeckeContext.__init__", ("s", "self_s", "calls", "repeat")),
    "hecke.verify_hecke_relations":
        ("hecke", "verify_hecke_relations", ("s",)),
    "hecke.verify_duality": ("hecke", "verify_duality", ("s", "self_s")),
    "hecke.cprime_recursion": ("hecke", "cprime_recursion", ("s", "calls")),
    "hecke.p_recursion": ("hecke", "p_recursion", ("s", "calls")),
    "hecke.kl_element_cprime": ("hecke", "kl_element_cprime", ("calls",)),
    "hecke.iota": ("hecke", "iota", ("calls",)),
    "hecke.t_action": ("hecke", "t_action", ("calls",)),
    "twisted.TwistedIdentities":
        ("twisted", "TwistedIdentities.__init__", ("s", "self_s")),
    "twisted.conjugation_refinement":
        ("twisted", "TwistedIdentities.conjugation_refinement", ("s",)),
    "cli.build_instance": ("cli", "build_instance", ("s",)),
    "cli.run_verification": ("cli", "run_verification", ("self_s",)),
    "cli.emit": ("cli", "_emit", ("s", "bytes")),
}

# More targets of one span.  The CLI serializes a table in the arguments of
# _emit, so cli.emit also covers the conversion to JSON and json.dumps.
EXTRA_TARGETS = {
    "cli.emit": (("pircons.klpoly", "PolyTable.to_json"), ("json", "dumps")),
}


def _table_input(table):
    return table.poset, table.x


# span name -> the (poset, x) input of a call, for the .repeat ratio.
INPUTS = {
    "klpoly.r_polynomials": lambda poset, refinement, x: (poset, x),
    "klpoly.kls_polynomials": _table_input,
    "klpoly.check_pkernel": _table_input,
    "klpoly.verify_pircon_system":
        lambda poset, matchings, pool_fn=None: (poset, None),
    "hecke.HeckeContext": lambda self, poset, matchings: (poset, None),
}


def _pairs(poset) -> int:
    """Comparable pairs u <= v, the diagonal included."""
    return sum(poset.down_set(v).bit_count() for v in range(poset.n))


def _kernel_terms(poset) -> int:
    """Interval-sum terms of the kernel check: |[u, v]| over all u <= v."""
    return sum(poset.interval_mask(u, v).bit_count()
               for v in range(poset.n) for u in poset.ideal_elements(v))


def _inversion_terms(poset) -> int:
    """Interval-sum terms of kernel inversion: |(u, v]| over all u < v."""
    return _kernel_terms(poset) - _pairs(poset)


# span name -> (count name, what to keep from (args, result), how to count
# it).  Counting runs after the job ends, so no span pays for it.
WORK = {
    "coxeter.CoxeterSystem": ("elements", lambda a, r: a[0].size, int),
    "coxeter.ParabolicQuotient": ("pairs", lambda a, r: a[0].poset, _pairs),
    "matchings.enumerate_spms": ("spms", lambda a, r: len(r), int),
    "klpoly.kls_polynomials":
        ("terms", lambda a, r: a[0].poset, _inversion_terms),
    "klpoly.check_pkernel": ("terms", lambda a, r: a[0].poset, _kernel_terms),
    "cli.emit": ("bytes", lambda a, r: a[2], lambda s: len(s.encode())),
}


class Tracer:
    """In-memory spans of one job plus the inputs kept for exact counts."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.names = list(SPANS)
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.stack = []
        self.inputs = {name: [] for name in INPUTS}
        self.kept = {name: [] for name in WORK}

    def wrap(self, name: str, fn, primary: bool = True):
        """Wrap fn in a span; counts are kept only from the primary target."""
        nid = self.names.index(name)
        key_of = INPUTS.get(name) if primary else None
        keep = WORK[name][1] if primary and name in WORK else None
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.end.append(0)
            self.stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self.stack.pop()
            if key_of is not None:
                self.inputs[name].append(key_of(*args, **kwargs))
            if keep is not None:
                self.kept[name].append(keep(args, result))
            return result

        return wrapper

    def summary(self) -> dict:
        distinct = {}
        for name, keys in self.inputs.items():
            # The kept posets stay alive here, so id() cannot be reused.
            distinct[name] = len({(id(p), x) for p, x in keys})
        work = {}
        for name, (count, _, measure) in WORK.items():
            work[f"{name}.{count}"] = sum(measure(k) for k in self.kept[name])
        return {"trace_id": self.trace_id, "names": self.names,
                "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "distinct_inputs": distinct,
                "work": work}


def install(tracer: Tracer) -> None:
    """Replace every binding of each listed function with its wrapper.

    Raises LookupError when a listed function is missing, so that a rename
    cannot silently drop a layer metric.
    """
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "pircons" or name.startswith("pircons.")]
    for name, (module, path, _) in SPANS.items():
        targets = [(f"pircons.{module}", path)] + \
            list(EXTRA_TARGETS.get(name, ()))
        for i, (module_name, path) in enumerate(targets):
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                raise LookupError(f"span {name}: {module_name}.{path} "
                                  "does not exist")
            wrapper = tracer.wrap(name, original, primary=i == 0)
            setattr(owner, attr, wrapper)
            if outer:
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: traced_cli.py SPANS_FILE TRACE_ID -- <cli args>",
              file=sys.stderr)
        return 2
    spans_file, trace_id, cli_args = argv[0], argv[1], argv[3:]
    from pircons import cli
    tracer = Tracer(trace_id)
    install(tracer)
    try:
        return cli.main(cli_args)
    finally:
        with open(spans_file, "w") as handle:
            json.dump(tracer.summary(), handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
