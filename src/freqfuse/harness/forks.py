"""Forked child processes, each sending to the parent through a pipe of its own.

The sweep's PNG decoders and the caption readers run here: pure
Python work that would leave the other CPUs idle. Each child has a fixed
share of the work, reached through the fork, and shares no memory or lock
with the parent or with another child: all it gives back goes through its
pipe. A fork copies only the calling thread, and a lock that another thread
of the parent held (such as spectral's worker thread) stays held in the
child, so a child runs only the function it is given, which must take no
such lock: no transform, no BLAS, no import.
"""

import contextlib
import fcntl
import signal

# room asked for in each child's pipe, so that a child goes on without
# waiting for each message to be taken. It is the default pipe size limit
# on Linux, and holds about 6 decoded images of 224x224, one of 375x500, or
# many chunks of captions
PIPE_BYTES = 1 << 20


@contextlib.contextmanager
def forked(messages, shares):
    """Fork one child per share, a sequence of items, in order, and yield
    (children, receiving ends), one each per share.

    Child j sends messages(item) for each item of shares[j] in order, one
    message each, or at its first error the error and nothing more, and
    exits; it ignores SIGINT and stops quietly if the parent is gone. Every
    child is killed and reaped, and every receiving end closed, on every
    way out.
    """
    # imported here: a read of a small captions file forks nothing
    import multiprocessing

    # fork, not the platform default, which becomes forkserver on Python 3.14
    context = multiprocessing.get_context("fork")
    children, ends = [], []
    # SIGINT stays blocked across the forks, so that one arriving before a
    # child ignores it stays pending there until _child discards it; the
    # parent's mask is back before the caller goes on, or a fork fails
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        for share in shares:
            receiving, sending = context.Pipe(duplex=False)
            ends.append(receiving)
            # only child j holds this end once the parent's is closed, so its
            # exit is EOF here; children forked later never see it
            with sending:
                # Linux only, and up to the system's pipe size limit:
                # elsewhere, or past it, the child waits sooner
                with contextlib.suppress(AttributeError, OSError):
                    fcntl.fcntl(sending.fileno(), fcntl.F_SETPIPE_SZ, PIPE_BYTES)
                # the share reaches the child through the fork: nothing is sent
                child = context.Process(
                    target=_child, args=(messages, share, sending, tuple(ends))
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


def _child(messages, share, sending, parent_ends):
    """A forked child: messages(item) sent for each item of its share, up
    to the first error, which is sent in its place; SIGINT ignored."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent ends it
    # blocked since the fork: a SIGINT pending from then is discarded
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
    # the parent's ends of this pipe and of every pipe forked before it: with
    # them closed here, the parent's exit breaks every child's pipe
    for end in parent_ends:
        end.close()
    try:
        for item in share:
            try:
                message = messages(item)
            except Exception as exc:  # sent in the item's place
                sending.send(exc)
                return
            sending.send(message)
    except BrokenPipeError:
        return  # the parent is gone, and nobody is left to tell
