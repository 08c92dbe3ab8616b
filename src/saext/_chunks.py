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
    return max(1, min(len(os.sched_getaffinity(0)), count)) \
        if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") else 1


def _send(fd: int, message) -> None:
    # marshal frames it; a buffered writer's rest would be lost at os._exit
    view = memoryview(marshal.dumps(message))
    while view:
        view = view[os.write(fd, view):]


def _serve(records, compute, render, mine: range, texts: int, feed) -> None:
    """A child's work: (failed points, text) of each chunk in mine, sent on texts.

    A chunk with a note sends it first and is rendered with what the parent feeds.
    """
    kept = []
    for i in mine:
        before = records.failed
        chunk, note = compute(i)
        if note is None:
            _send(texts, (records.failed - before, render(chunk, None)))
        else:
            kept.append((chunk, records.failed - before))
            _send(texts, note)
    if kept:
        shared = marshal.load(feed)
        for chunk, failed in kept:
            _send(texts, (failed, render(chunk, shared)))


def write_in_order(records, compute, render, write, settle=None) -> None:
    """write(text) of each of records.chunks() chunks, in order.

    compute(i) computes chunk i as (kept, note), and render(kept, shared) is
    its text.  Without settle, every note and shared are None.  With it,
    the parent runs settle on every chunk's note, in chunk order, before
    any text is rendered, and its value is shared; no note may then be
    None.  The failed points that a child counts in records.failed are
    added to the parent's.
    """
    count = records.chunks()
    procs = _processes(count)
    children = {}  # (pid, reader, feed) of each child, by its j
    kept = {}  # compute(i) of each chunk i that the parent computes

    def received(i):
        """The next message of chunk i's child, or None where the parent computes chunk i."""
        child = children.get(i % procs)
        if child is not None:
            try:
                return marshal.load(child[1])
            except (EOFError, ValueError):  # the child has ended, mid-message perhaps
                _end(*children.pop(i % procs))
        if i not in kept:
            kept[i] = compute(i)
        return None

    try:
        for j in range(1, procs):
            _fork(records, compute, render, range(j, count, procs), children)
        shared = None
        if settle is not None:
            notes = [received(i) for i in range(count)]
            shared = settle([kept[i][1] if note is None else note for i, note in enumerate(notes)])
            for _, _, feed in children.values():
                try:
                    _send(feed, shared)
                except OSError:
                    pass  # the child has ended
        for i in range(count):
            failed, text = received(i) or (0, render(kept.pop(i)[0], shared))
            records.failed += failed
            write(text)
    finally:
        for child in children.values():
            _end(*child)


def _end(pid: int, reader, feed: int) -> None:
    # a child blocked on a pipe ends once the parent's end is closed
    reader.close()
    os.close(feed)
    try:
        os.waitpid(pid, 0)
    except ChildProcessError:
        pass  # reaped already, as under SIGCHLD = SIG_IGN


def _fork(records, compute, render, mine: range, children: dict) -> None:
    """Fork the child that computes the chunks in mine; if that fails, they stay the parent's."""
    texts = feed = ()
    try:
        texts = os.pipe()
        feed = os.pipe()
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
        for fd in (*texts, *feed):
            os.close(fd)
        return
    if pid == 0:
        try:
            # the child holds no pipe end but its own two
            for _, reader, fd in children.values():
                reader.close()
                os.close(fd)
            os.close(texts[0])
            os.close(feed[1])
            with open(feed[0], "rb") as reader:
                _serve(records, compute, render, mine, texts[1], reader)
        finally:
            os._exit(0)
    os.close(texts[1])
    os.close(feed[0])
    children[mine.start] = pid, open(texts[0], "rb"), feed[1]
