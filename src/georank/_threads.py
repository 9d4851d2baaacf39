"""One persistent helper thread beside the caller, for numpy and scipy passes
that release the GIL.

`both(here, there)` calls `there()` on the helper and `here()` on the calling
thread at the same time, and returns once both are done.  The helper exists
only when the process may run on at least 2 CPUs; otherwise, and on the
helper itself, `both` calls the two in turn.  Callers hand it private code
and raw ufuncs only, never a public georank function, and give each share its
own output rows or buffers, so the bits are the same either way.

The helper runs `there` in a copy of the caller's context, so the caller's
`np.errstate` holds there too.  An exception on the helper is raised in the
caller once both shares are done.  A child made by fork starts its own helper
on first use.
"""

import contextvars
import os
import threading
from queue import SimpleQueue


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else all of them."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


_CPUS = _cpu_count()
_jobs = None                  # the helper's queue, once it is started
_helper_id = None             # the helper's thread ident
_start_lock = threading.Lock()


class _Job:
    __slots__ = ("context", "fn", "error", "done")

    def __init__(self, fn):
        self.context = contextvars.copy_context()
        self.fn = fn
        self.error = None
        self.done = threading.Lock()
        self.done.acquire()


def _serve(jobs):
    global _helper_id
    _helper_id = threading.get_ident()
    while True:
        job = jobs.get()
        try:
            job.context.run(job.fn)
        except BaseException as exc:  # both() raises it in the caller
            job.error = exc
        job.done.release()
        del job                   # its buffers go now, not at the next job


def _queue():
    global _jobs
    with _start_lock:
        if _jobs is None:
            jobs = SimpleQueue()
            threading.Thread(target=_serve, args=(jobs,), daemon=True,
                             name="georank-helper").start()
            _jobs = jobs
    return _jobs


def _after_fork():
    # the helper did not survive the fork; the child starts its own
    global _jobs, _helper_id, _start_lock
    _jobs = _helper_id = None
    _start_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork)


def parallel() -> bool:
    """Whether `both` would run its two shares at once: at least 2 CPUs, and
    not called from the helper itself."""
    return _CPUS >= 2 and threading.get_ident() != _helper_id


def both(here, there):
    """Call here() on this thread and there() on the helper, and return when
    both are done; raise the caller's exception, else the helper's.  Without
    a helper (one CPU, or called on the helper) call here(), then there()."""
    if not parallel():
        here()
        there()
        return
    job = _Job(there)
    _queue().put(job)
    try:
        here()
    finally:
        job.done.acquire()
    if job.error is not None:
        raise job.error
