"""The (name, text) pairs of an iterable, made in a forked child while the
parent works on: ``compute --x both`` without a KL basis makes its x = q
file texts here while the parent makes x = -1.

The child makes all of its texts before it sends any, so it never waits on
the pipe while the parent is busy.  It then sends one ``marshal`` record per
pair and leaves by ``os._exit``, writing no output.  The parent reads one
record at a time.  A child that fails or is killed sends none, or only its
first ones whole.  A traced run sees only the parent's spans.  The CLI runs
no threads, so the fork is safe there.
"""

from __future__ import annotations

import marshal
import os
import signal
from typing import Iterable, Iterator


class ForkedHalf:
    """A child that makes the (name, text) pairs of ``texts``.  Iterating
    gives the pairs it sent whole, in order; ``close`` kills and reaps the
    child, done or not."""

    def __init__(self, texts: Iterable[tuple[str, str]]):
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
                with os.fdopen(write, "wb") as pipe:
                    for record in list(texts):   # all made before any sent
                        marshal.dump(record, pipe)
                code = 0
            finally:
                os._exit(code)
        os.close(write)
        self.pipe = os.fdopen(read, "rb")

    def __iter__(self) -> Iterator[tuple[str, str]]:
        try:
            while True:
                yield marshal.load(self.pipe)
        except (EOFError, ValueError, TypeError):
            return   # the end of the pipe, or a record cut short

    def close(self) -> None:
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)
        self.pipe.close()
