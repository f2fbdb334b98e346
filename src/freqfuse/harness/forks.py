"""Forked child processes, each sending to the parent through a pipe of its own.

The sweep's PNG decoders and the caption readers run here: pure
Python work that would leave the other CPUs idle. A fork copies only the
calling thread, and a lock that another thread of the parent held (such as
spectral's worker thread) stays held in the child, so a child runs only
the function it is given, which must take no such lock: no transform, no
BLAS, no import.
"""

import contextlib
import fcntl
import signal


@contextlib.contextmanager
def forked(jobs, pipe_bytes=None):
    """Fork one child per (function, args) in the list jobs, in order, and
    yield (children, receiving ends), one each per job.

    Child j runs function(*args, sending_end) and exits; it ignores SIGINT
    and stops quietly if the parent is gone. With pipe_bytes, each pipe is
    asked for room for that many bytes, so that a child goes on without
    waiting for each message to be taken. Every child is killed and reaped,
    and every receiving end closed, on every way out.
    """
    if not jobs:  # nothing forked, nothing imported
        yield [], []
        return
    context = _fork_context()
    children, ends = [], []
    # SIGINT stays blocked across the forks, so that one arriving before a
    # child ignores it stays pending there until _child discards it; the
    # parent's mask is back before the caller goes on, or a fork fails
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        for function, args in jobs:
            receiving, sending = context.Pipe(duplex=False)
            ends.append(receiving)
            # only child j holds this end once the parent's is closed, so its
            # exit is EOF here; children forked later never see it
            with sending:
                if pipe_bytes:
                    # Linux only, and up to the system's pipe size limit:
                    # elsewhere, or past it, the child waits sooner
                    with contextlib.suppress(AttributeError, OSError):
                        fcntl.fcntl(sending.fileno(), fcntl.F_SETPIPE_SZ, pipe_bytes)
                # the arguments reach the child through the fork: nothing is sent
                child = context.Process(
                    target=_child, args=(function, args, sending, tuple(ends))
                )
                child.start()
                children.append(child)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        yield children, ends
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for child in children:
            child.kill()
        for child in children:
            child.join()
            child.close()
        for receiving in ends:
            receiving.close()


def shared_counter():
    """An integer from 0, in memory that every process forked after this
    call shares, guarded by its get_lock(): a multiprocessing Value."""
    return _fork_context().Value("q", 0)


def _fork_context():
    # imported here: a read of a small captions file forks nothing
    import multiprocessing

    # fork, not the platform default, which becomes forkserver on Python 3.14
    return multiprocessing.get_context("fork")


def _child(function, args, sending, parent_ends):
    """A forked child: function(*args, sending), SIGINT ignored."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent ends it
    # blocked since the fork: a SIGINT pending from then is discarded
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
    # the parent's ends of this pipe and of every pipe forked before it: with
    # them closed here, the parent's exit breaks every child's pipe
    for end in parent_ends:
        end.close()
    try:
        function(*args, sending)
    except BrokenPipeError:
        return  # the parent is gone, and nobody is left to tell
