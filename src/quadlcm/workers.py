"""Forked worker processes that stream a parallel sweep's finished rows back over pipes.

Worker w of p takes rows w, w+p, w+2p, ... of one row iterator.  For each row
it writes one marshal record `format_row(row)` to its own pipe, then the end
marker None, and it always leaves by os._exit.  The parent reads the pipes
round-robin, so it gets the records in row order.  A full pipe blocks its
worker, so memory is bounded by the pipes' capacity, not by the number of
rows.  A worker's exception comes back as its one-line reason, and a worker
that dies shows up as EOF before its end marker; both raise WorkerFailed.
However the stream ends, every worker is killed and reaped.  Only
`quadlcm sweep` with a parallelism above 1 loads this module.
"""

from __future__ import annotations

import marshal
import os
from contextlib import contextmanager
from itertools import islice
from signal import SIGKILL
from typing import Any, BinaryIO, Callable, Iterator, NoReturn, Optional


class WorkerFailed(Exception):
    """A worker raised, or died before its end marker."""


@contextmanager
def forked(rows: Iterator, nrows: int, workers: int,
           format_row: Callable[[Any], tuple]) -> Iterator[Iterator[tuple]]:
    """Fork `workers` processes over the `nrows` rows of `rows`; yields their records in row order."""
    pipes: list[BinaryIO] = []
    pids: list[Optional[int]] = []
    try:
        for w in range(workers):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                _work(islice(rows, w, None, workers), format_row, write_fd,
                      [read_fd] + [pipe.fileno() for pipe in pipes])
            os.close(write_fd)
            pids.append(pid)
            pipes.append(os.fdopen(read_fd, "rb"))
        yield _records(pipes, pids, nrows)
    finally:
        # after the end markers each worker is exiting; after a failure some may still run
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            if pid is not None:
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)


def _work(rows: Iterator, format_row: Callable[[Any], tuple], fd: int, inherited: list[int]) -> NoReturn:
    """A worker's life; nothing of the parent's code after the fork runs again here."""
    status = 1
    try:
        for other in inherited:  # the read ends of this and the earlier workers' pipes
            os.close(other)
        with os.fdopen(fd, "wb") as pipe:
            try:
                for row in rows:
                    marshal.dump(format_row(row), pipe)
                    pipe.flush()
            except Exception as exc:
                marshal.dump(" ".join(f"{type(exc).__name__}: {exc}".split()), pipe)
            else:
                marshal.dump(None, pipe)
                status = 0
    finally:
        os._exit(status)


def _records(pipes: list[BinaryIO], pids: list[Optional[int]], nrows: int) -> Iterator[tuple]:
    for i in range(nrows):
        yield _receive(pipes, pids, i % len(pipes))
    for w in range(len(pipes)):
        _receive(pipes, pids, w)  # the end marker


def _receive(pipes: list[BinaryIO], pids: list[Optional[int]], w: int):
    """The next record of worker `w`; an error record, or EOF before the end marker, raises."""
    try:
        record = marshal.load(pipes[w])
    except EOFError:
        pid, pids[w] = pids[w], None  # before the wait: a signal right after it must not leave a reaped pid to kill
        _, status = os.waitpid(pid, 0)
        code = os.waitstatus_to_exitcode(status)
        how = f"exited with status {code}" if code >= 0 else f"was killed by signal {-code}"
        raise WorkerFailed(f"worker {w} {how} before it finished") from None
    if isinstance(record, str):
        raise WorkerFailed(record)
    return record
