"""The tables of one x, built in a forked child while the parent builds the
other x: ``compute --x both`` without a KL basis.  Neither build reads the
other's tables, so the two run at once.

The child sends the columns of each table, as coefficient tuples, in one
``marshal`` blob through a pipe, and leaves by ``os._exit``: it writes no
output and never returns to its caller.  The CLI runs no threads, so the
fork is safe there.
"""

from __future__ import annotations

import marshal
import os
from itertools import chain

from . import klpoly
from .laurent import QPoly


class ForkedHalf:
    """A child that builds the tables ``names`` (from "r" and "p") of
    ``system`` at x.  ``tables`` reads them and reaps the child; ``close``
    kills and reaps a child still running."""

    def __init__(self, system: klpoly.PirconSystem, x: str,
                 names: list[str]):
        self.x, self.names, self.poset = x, names, system.poset
        read, write = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(read)
            os.close(write)
            raise
        if self.pid == 0:
            code = 1
            try:
                # with its own read end closed, the child's write fails
                # instead of blocking when the parent is gone
                os.close(read)
                built = {"r": system.r_table(x)}
                if "p" in names:
                    built["p"] = klpoly.kls_polynomials(built["r"])
                blob = marshal.dumps(
                    [[list(map(QPoly.coeffs, col))
                      for col in built[name].columns] for name in names])
                with os.fdopen(write, "wb") as pipe:
                    pipe.write(blob)
                code = 0
            finally:
                os._exit(code)
        os.close(write)
        self.pipe = os.fdopen(read, "rb")

    def tables(self) -> list[tuple[str, klpoly.PolyTable]] | None:
        """(name, table) in the order asked, each table with one shared
        QPoly per distinct value; None when the child failed, was killed or
        sent short data."""
        blob = self.pipe.read()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        self.close()
        if status:
            return None
        try:
            tables = []
            for name, columns in zip(self.names, marshal.loads(blob),
                                     strict=True):
                polys = {c: QPoly(c)
                         for c in set(chain.from_iterable(columns))}
                tables.append((name, klpoly.PolyTable(
                    self.poset, self.x,
                    [tuple(map(polys.__getitem__, col)) for col in columns])))
            return tables
        except (EOFError, ValueError, TypeError):
            return None

    def close(self) -> None:
        if self.pid is not None:
            import signal   # only a parent whose own half failed needs it
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        self.pipe.close()
