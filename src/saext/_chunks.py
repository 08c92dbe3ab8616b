"""The chunks of a record list, computed by forked processes and written in order.

With P processes, process j computes the chunks i with i % P == j; the
parent is process 0.  Each child sends each chunk's text through its own
pipe, and the parent writes every text in chunk order, so the output is
the serial one byte for byte.  P is the number of CPUs this process may run
on, at most one per chunk; it is 1, and the parent computes every chunk,
for one chunk or where ``os.fork`` or ``os.sched_getaffinity`` is missing.
A child that cannot be forked or that ends early leaves its chunks to the
parent.  A child never writes to stdout or stderr, and it ends in
``os._exit``, so it never returns into its caller nor flushes a buffer
that it inherited.
"""

import marshal
import os
import warnings


def _processes(count: int) -> int:
    try:
        return max(1, min(len(os.sched_getaffinity(0)), count)) if hasattr(os, "fork") else 1
    except AttributeError:
        return 1


def _send(fd: int, message) -> None:
    data = marshal.dumps(message)
    view = memoryview(len(data).to_bytes(8, "little") + data)
    while view:
        view = view[os.write(fd, view):]


def _receive(reader):
    """The next message on reader, or None where its writer ended first."""
    head = reader.read(8)
    if len(head) < 8:
        return None
    size = int.from_bytes(head, "little")
    data = reader.read(size)
    return marshal.loads(data) if len(data) == size else None


def _serve(records, compute, render, mine: range, texts: int, feed) -> None:
    """A child's work: (failed points, text) of each chunk in mine, sent on texts.

    With a feed, the child first sends each chunk's note, then renders
    with what the parent feeds it once the notes are settled.
    """
    kept = {}
    for i in mine:
        before = records.failed
        chunk, note = compute(i)
        if feed is None:
            _send(texts, (records.failed - before, render(chunk, None)))
        else:
            kept[i] = chunk, records.failed - before
            _send(texts, note)
    shared = None if feed is None else _receive(feed)
    if shared is not None:
        for i in mine:
            chunk, failed = kept.pop(i)
            _send(texts, (failed, render(chunk, shared)))


def write_in_order(records, compute, render, write, settle=None) -> None:
    """write(text) of each of records.chunks() chunks, in order.

    compute(i) computes chunk i as (kept, note), and render(kept, shared) is
    its text.  Without settle, shared is None.  With it, the parent runs
    settle on every chunk's note, in chunk order, before any text is
    rendered, and its value is shared; neither a note nor that value may be
    None, which marks a child that has ended.  The failed points that a
    child counts in records.failed are added to the parent's.
    """
    count = records.chunks()
    procs = _processes(count)
    pids, readers, feeds = [], {}, {}  # readers and feeds by the child's j
    try:
        for j in range(1, procs):
            _fork(records, compute, render, range(j, count, procs), settle is not None,
                  pids, readers, feeds)
        kept = {}

        def own(i):
            kept[i], note = compute(i)
            return note

        def received(i):
            """The next message of chunk i's owner; None where that is the parent.

            A child that has ended sends None, so the parent computes its chunks.
            """
            reader = readers.get(i % procs)
            return None if reader is None else _receive(reader)

        shared = None
        if settle is not None:
            notes = []
            for i in range(count):
                note = received(i)
                notes.append(own(i) if note is None else note)
            shared = settle(notes)
            for fd in feeds.values():
                try:
                    _send(fd, shared)
                except OSError:
                    pass  # the child has ended
        for i in range(count):
            message = None if i in kept else received(i)
            if message is None:
                if i not in kept:
                    own(i)
                text = render(kept.pop(i), shared)
            else:
                records.failed += message[0]
                text = message[1]
            write(text)
    finally:
        # a child blocked on a pipe ends once the parent's end is closed
        for reader in readers.values():
            reader.close()
        for fd in feeds.values():
            os.close(fd)
        for pid in pids:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass  # reaped already, as under SIGCHLD = SIG_IGN


def _fork(records, compute, render, mine: range, exchange: bool,
          pids: list, readers: dict, feeds: dict) -> None:
    """Fork the child that computes the chunks in mine; if that fails, they stay the parent's."""
    fds = []
    try:
        fds += os.pipe()
        if exchange:
            fds += os.pipe()
        with warnings.catch_warnings():
            # Python 3.12 and later warn (DeprecationWarning) when a process
            # with more than one thread forks, since a lock that another
            # thread holds stays locked in the child.  The other thread here
            # is numpy's OpenBLAS pool unless OPENBLAS_NUM_THREADS=1, and
            # OpenBLAS shuts its pool down before a fork (pthread_atfork), so
            # the child can compute.  Left as a warning, it would go to the
            # stderr a child must not write to, and under -W error it would
            # raise after the fork, with the child already running.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return
    if pid == 0:
        try:
            # the child holds no pipe end but its own two
            for reader in readers.values():
                reader.close()
            for fd in [*feeds.values(), *fds[::3]]:
                os.close(fd)
            feed = open(fds[2], "rb") if exchange else None
            _serve(records, compute, render, mine, fds[1], feed)
        finally:
            os._exit(0)
    pids.append(pid)
    for fd in fds[1:3]:
        os.close(fd)
    readers[mine.start] = open(fds[0], "rb")
    if exchange:
        feeds[mine.start] = fds[3]
