"""One worker thread per solve or Radon assembly, and the one fork-join that
hands it work.  Which thread runs what is told here and nowhere else.

Every ``solve`` opens ``second_core()`` for its whole run, and so does every
``RadonTransform`` for its matrix assembly.  Inside it,
``fork_join(here, there)`` runs ``there`` on the worker and ``here`` on the
calling thread, waits for both and returns both results.  While a fork is
out the worker is taken, so a fork made inside either branch runs its two
branches one after the other on its own thread: the solver's loop forks the
graph term onto the worker, for every operator, and the A and A* halves
forked inside that loop stay on the calling thread; outside the loop (the
initializer, the norm estimate) the Radon transform's A and A* give the
worker half of each.  A ``second_core()`` block opened where a worker is
already open uses that worker, and one opened inside a fork's branch opens
none, so there is never more than one worker per caller.  Outside
``second_core()`` every fork runs serially, ``here`` first.  Scipy's sparse
kernels, ndimage's filters and numpy's ufuncs all release the GIL, so both
threads make progress.

The worker lives as long as its block rather than one thread per fork:
glibc gives a thread started while the last one is still exiting a malloc
arena of its own, so a solve that reuses its graph could hold a second set
of bands there.

``there`` runs in a copy of the caller's context, so ``np.errstate`` applies
to it too.  The fork joins before it returns or raises: an exception from
``here`` wins over one from ``there``, which is then dropped, and an exception
from ``there`` alone is raised on the calling thread after the join.
"""

from __future__ import annotations

import contextlib
import contextvars
from concurrent.futures import ThreadPoolExecutor, wait

# the worker a fork made in this context may use: None outside every
# second_core() block, _TAKEN while a fork in this context holds it
_TAKEN = object()
_WORKER: contextvars.ContextVar[ThreadPoolExecutor | object | None] = contextvars.ContextVar("worker", default=None)


@contextlib.contextmanager
def second_core():
    """Open one worker thread for the block and join it on the way out."""
    if _WORKER.get() is not None:
        yield  # the open worker serves this block, or it is taken and forks run serially
        return
    with ThreadPoolExecutor(max_workers=1) as pool:
        token = _WORKER.set(pool)
        try:
            yield
        finally:
            _WORKER.reset(token)


def fork_join(here, there):
    """``(here(), there())``, with ``there`` on the worker when one is free."""
    pool = _WORKER.get()
    if pool is None or pool is _TAKEN:
        return here(), there()
    token = _WORKER.set(_TAKEN)  # forks in either branch run serially
    try:
        pending = pool.submit(contextvars.copy_context().run, there)
        try:
            first = here()
        finally:
            wait((pending,))
    finally:
        _WORKER.reset(token)
    return first, pending.result()
